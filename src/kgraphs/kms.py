"""Formal Cuntz-Krieger calculus and KMS-state machinery.

The graph algebra is spanned by terms s_mu s*_nu with a common source.  This
module implements that calculus (products collapse through Lambda^min,
equality is decided by refining to a common degree), the central unitaries
U_g attached to periodicity vectors, and the equilibrium states: a state is
specified by its restriction to the periodicity group -- a character z, the
averaging state (psi(g) = delta_{g,0}), or a finite convex mixture -- and
evaluates on span terms as psi(d(mu)-d(nu)) * rho^{-d(mu)} * x_{s(mu)} when
the degree difference is periodic and the shift-agreement bijection carries
mu to nu, and as 0 otherwise.

kms_check verifies the equilibrium identity

    phi(s_mu s*_nu s_eta s*_zeta)
        = rho^{-(d(mu)-d(nu))} * phi(s_eta s*_zeta s_mu s*_nu)

for every source-matched quadruple within a degree box.  Rather than walking
the full quartic box, the check enumerates the complete support: every
nonzero product term arises from a common extension w = nu.alpha = eta.beta,
a left factor mu, and a codomain degree for the shift-agreement bijection.
Quadruples outside the collected support have both sides identically zero,
so comparing the supported keys and their swaps verifies the whole box.
The gauge action grades the algebra: s_mu s*_nu s_eta s*_zeta is homogeneous
of degree d(mu) - d(nu) + d(eta) - d(zeta), as is its swap, so each key
carries one cylinder mass and both sides of its identity one psi value.
Span terms do not see the Cuntz-Krieger relation p_v = sum s_lam s*_lam, so a
one-sided screen |phi(s_mu s*_nu)| <= bound checks that phi is built from the
Perron eigenvector.  Both checks reduce, once per box, to state-free profiles
that each state folds with one psi value apiece.
Exact fixtures stay in Gaussian-rational arithmetic end to end.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import degrees as dg
from .errors import EnumerationCapError, InputFormatError, NotPeriodicError
from .measure import CylinderMeasure
from .periodicity import decide_periodic, theta
from .scalars import (KMS_TOL, TOEPLITZ_TOL, QQi, check_tol, coerce_scalar,
                      format_fraction, is_zero, parse_number)

FLOAT_PRUNE = 1e-14


# ----------------------------------------------------------------------
# span terms and algebra elements

@dataclass(frozen=True)
class SpanTerm:
    """s_mu s*_nu for paths with a common source."""

    mu: object
    nu: object

    @property
    def grade(self):
        """The joint-degree exponent d(mu) - d(nu)."""
        return dg.sub(self.mu.degree, self.nu.degree)

    def literal(self):
        return f"{self.mu.literal()}|{self.nu.literal()}"


class AlgebraElement:
    """A finite linear combination of span terms over one graph.

    Coefficients are Gaussian rationals (QQi) when built from exact data and
    complex floats otherwise; zero coefficients are pruned on construction
    (exactly, or below 1e-14 in float mode).
    """

    __slots__ = ("graph", "terms")

    def __init__(self, graph, terms=None):
        self.graph = graph
        pruned = {}
        for term, coeff in (terms or {}).items():
            coeff = coerce_scalar(coeff)
            if not is_zero(coeff, FLOAT_PRUNE):
                pruned[term] = coeff
        self.terms = pruned

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, graph):
        return cls(graph)

    @classmethod
    def span(cls, graph, mu, nu, coeff=1):
        if mu.source != nu.source:
            raise InputFormatError(
                f"span term needs a common source: s({mu.literal()}) = "
                f"{mu.source} but s({nu.literal()}) = {nu.source}")
        return cls(graph, {SpanTerm(mu, nu): coeff})

    @classmethod
    def vertex_projection(cls, graph, v):
        p = graph.vertex_path(v)
        return cls.span(graph, p, p)

    @classmethod
    def edge_generator(cls, graph, edge_id):
        e = graph.edge(edge_id)
        mu = graph.path_from_edges([edge_id])
        return cls.span(graph, mu, graph.vertex_path(e.source))

    @classmethod
    def identity(cls, graph):
        out = cls.zero(graph)
        for v in graph.vertices:
            out = out + cls.vertex_projection(graph, v)
        return out

    # -- ring operations ------------------------------------------------

    def _check_same_graph(self, other):
        if other.graph is not self.graph:
            raise InputFormatError(
                "cannot combine elements over different graphs")

    def __add__(self, other):
        self._check_same_graph(other)
        out = dict(self.terms)
        for term, coeff in other.terms.items():
            out[term] = out[term] + coeff if term in out else coeff
        return AlgebraElement(self.graph, out)

    def __neg__(self):
        return AlgebraElement(self.graph,
                              {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return AlgebraElement(self.graph,
                              {t: coeff * c for t, coeff in self.terms.items()})

    def __mul__(self, other):
        """(s_mu s*_nu)(s_eta s*_zeta) collapses through Lambda^min(nu, eta):
        the sum of s_{mu.alpha} s*_{zeta.beta} over minimal common
        extensions, extended bilinearly."""
        self._check_same_graph(other)
        g = self.graph
        out = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                c = c1 * c2
                for alpha, beta in g.lambda_min(t1.nu, t2.mu):
                    term = SpanTerm(g.compose(t1.mu, alpha),
                                    g.compose(t2.nu, beta))
                    out[term] = out[term] + c if term in out else c
        return AlgebraElement(self.graph, out)

    def adjoint(self):
        """The star operation: (s_mu s*_nu)* = s_nu s*_mu, conjugate-linear."""
        return AlgebraElement(self.graph,
                              {SpanTerm(t.nu, t.mu): c.conjugate()
                               for t, c in self.terms.items()})

    # -- canonical form and equality ------------------------------------

    @property
    def exact(self):
        return all(isinstance(c, QQi) for c in self.terms.values())

    def is_zero(self):
        """Whether the element is zero in the graph algebra.

        The span presentation is not faithful, so the terms of each grade
        (common value of d(mu) - d(nu)) are rewritten at the grade's joint
        degree: s_mu s*_nu = sum over lam in s(mu)Lambda^{m*-d(mu)} of
        s_{mu.lam} s*_{nu.lam}.  After that rewriting the surviving terms
        are linearly independent, so the element vanishes exactly when every
        refined coefficient does.  Needs a graph with no sources, which
        strong connectivity guarantees.  Float coefficients count as zero
        below FLOAT_PRUNE.
        """
        if not self.terms:
            return True
        self.graph.require_strongly_connected()
        g = self.graph
        grades = {}
        for term, coeff in self.terms.items():
            grades.setdefault(term.grade, []).append((term, coeff))
        for batch in grades.values():
            m_star = batch[0][0].mu.degree
            for term, _ in batch[1:]:
                m_star = dg.join(m_star, term.mu.degree)
            refined = {}
            for term, coeff in batch:
                step = dg.sub(m_star, term.mu.degree)
                for lam in g.paths_of_degree(step, range=term.mu.source):
                    key = (g.compose(term.mu, lam), g.compose(term.nu, lam))
                    refined[key] = refined[key] + coeff \
                        if key in refined else coeff
            for value in refined.values():
                if not is_zero(value, FLOAT_PRUNE):
                    return False
        return True

    def equals(self, other):
        return (self - other).is_zero()

    def __repr__(self):
        if not self.terms:
            return "<0>"
        terms = sorted(self.terms.items(), key=lambda tc: (
            tc[0].mu.degree, tc[0].nu.degree, tc[0].mu.range,
            tc[0].mu.edges, tc[0].nu.range, tc[0].nu.edges))
        bits = [f"{coeff!r}*[{term.literal()}]" for term, coeff in terms]
        return "<" + " + ".join(bits) + ">"


# ----------------------------------------------------------------------
# state specifications

@dataclass(frozen=True)
class StateSpec:
    """A state given by its restriction to the periodicity group.

    kind "character": psi(g) = prod_i z_i^{g_i} with z_i = e^{2 pi i t_i},
    the rotations t_i stored as fractions of a full turn (Fraction => exact
    when a multiple of a quarter turn, float otherwise).  kind "haar":
    psi(g) = delta_{g,0}, the averaging state.  kind "mixture": a finite
    convex combination of characters.
    """

    kind: str
    turns: tuple = None
    components: tuple = None   # ((weight, turns), ...) for mixtures

    @staticmethod
    def haar():
        return StateSpec(kind="haar")

    @staticmethod
    def character(turns):
        turns = tuple(turns)
        for t in turns:
            if not isinstance(t, (int, float, Fraction)):
                raise InputFormatError(f"bad rotation {t!r}")
        return StateSpec(kind="character", turns=turns)

    @staticmethod
    def mixture(pairs):
        pairs = tuple((w, tuple(ts)) for w, ts in pairs)
        if not pairs:
            raise InputFormatError("a mixture needs at least one component")
        total = sum(w for w, _ in pairs)
        slack = 0 if isinstance(total, (int, Fraction)) else 1e-9
        if abs(total - 1) > slack or any(w <= 0 for w, _ in pairs):
            raise InputFormatError("mixture weights must be positive and "
                                   "sum to 1")
        return StateSpec(kind="mixture", components=pairs)

    # -- exactness ------------------------------------------------------

    @staticmethod
    def _quarter_exact(turns):
        return all(isinstance(t, (int, Fraction))
                   and (4 * Fraction(t)).denominator == 1 for t in turns)

    @cached_property
    def is_exact(self):
        """True when every psi value is a Gaussian rational: the averaging
        state always, characters and mixtures when every rotation is a
        multiple of a quarter turn (and mixture weights are rational)."""
        if self.kind == "haar":
            return True
        if self.kind == "character":
            return self._quarter_exact(self.turns)
        return (all(isinstance(w, (int, Fraction))
                    for w, _ in self.components)
                and all(self._quarter_exact(ts)
                        for _, ts in self.components))

    # -- evaluation on the periodicity group ----------------------------

    @staticmethod
    def _char_psi(turns, gvec, exact):
        if exact:
            q = sum(int(4 * Fraction(t)) * gi for t, gi in zip(turns, gvec))
            return QQi.quarter_turn(q)
        angle = 2.0 * math.pi * sum(float(t) * gi
                                    for t, gi in zip(turns, gvec))
        return cmath.exp(1j * angle)

    def psi(self, gvec):
        gvec = tuple(gvec)
        if self.kind == "haar":
            return QQi.of(1 if not any(gvec) else 0)
        if self.kind == "character":
            if len(self.turns) != len(gvec):
                raise InputFormatError(
                    f"character has {len(self.turns)} rotations but the "
                    f"graph has {len(gvec)} colors")
            return self._char_psi(self.turns, gvec, self.is_exact)
        terms = []
        for w, ts in self.components:
            if len(ts) != len(gvec):
                raise InputFormatError("mixture component dimension "
                                       "mismatch")
            terms.append(self._char_psi(ts, gvec, self.is_exact) * w)
        return sum(terms[1:], terms[0])

    def describe(self):
        if self.kind == "haar":
            return "haar"
        if self.kind == "character":
            return "z=" + ",".join(_format_turn(t) for t in self.turns)
        bits = [f"{_format_turn(w)}@" + ",".join(_format_turn(t) for t in ts)
                for w, ts in self.components]
        return "mix:" + ";".join(bits)


def _format_turn(t):
    if isinstance(t, (int, Fraction)):
        return format_fraction(t)
    return repr(float(t))


def parse_state(text):
    """Parse a state literal: "haar", or "z=<turns>" with comma-separated
    rotations measured in full turns (fractions stay exact: z=1/4,0 is the
    character (i, 1))."""
    text = text.strip()
    if text == "haar":
        return StateSpec.haar()
    if text.startswith("z="):
        tokens = text[2:].split(",")
        turns = []
        for tok in tokens:
            tok = tok.strip()
            if not tok:
                raise InputFormatError(f"empty rotation in {text!r}")
            try:
                turns.append(parse_number(tok))
            except InputFormatError:
                raise InputFormatError(
                    f"bad rotation {tok!r} in state literal") from None
        return StateSpec.character(turns)
    raise InputFormatError(f"unrecognized state literal {text!r}; expected "
                           f"'haar' or 'z=<turns>'")


# ----------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class UnitaryIdentitiesReport:
    group_elements: tuple
    checks: tuple          # (label, passed) pairs
    passed: bool


@dataclass(frozen=True)
class KMSCheckReport:
    state: str
    max_degree: tuple
    exact: bool
    theta_blind: bool
    total_quadruples: int
    support_size: int
    explicit_checked: int
    failure_count: int
    failures: tuple        # first few failing quadruples, as dicts
    max_deviation: float
    ck_screen_pairs: int
    ck_screen_violations: int
    passed: bool


@dataclass(frozen=True)
class ToeplitzReport:
    beta: float
    r: tuple
    gaps: tuple            # beta*r_i - ln(rho_i) per color
    exists: bool
    factors_through_quotient: bool


@dataclass(frozen=True)
class PhaseReport:
    beta: object
    applicable: bool
    reason: str            # empty when applicable
    extreme_points: object  # int, the token "infinite", or None

    def to_dict(self):
        return {
            "beta": _format_turn(self.beta),
            "applicable": self.applicable,
            "reason": self.reason,
            "extreme_points": self.extreme_points,
        }


# ----------------------------------------------------------------------
# the state family over one graph

class KMSStates:
    """Equilibrium-state evaluation for one strongly connected graph.

    Bundles the graph with the cylinder measure of its Perron data and
    (optionally) a precomputed periodicity group; caches the periodicity
    decisions and shift-agreement bijections that the state formulas need.
    """

    def __init__(self, graph, perron, measure=None, group=None):
        graph.require_strongly_connected()
        self.graph = graph
        self.measure = measure if measure is not None \
            else CylinderMeasure(graph, perron)
        self.group = group
        self._periodic_cache = {}
        self._theta_cache = {}
        self._sweep_cache = {}

    # -- cached periodicity machinery -----------------------------------

    def periodic(self, gvec):
        gvec = tuple(gvec)
        hit = self._periodic_cache.get(gvec)
        if hit is None:
            hit = decide_periodic(self.graph, self.group, gvec)
            self._periodic_cache[gvec] = hit
        return hit

    def theta_map(self, m, n):
        key = (tuple(m), tuple(n))
        hit = self._theta_cache.get(key)
        if hit is None:
            hit = theta(self.graph, key[0], key[1], pre_checked=True)
            self._theta_cache[key] = hit
        return hit

    def _zero(self, state):
        return QQi.of(0) if (self.measure.exact and state.is_exact) else 0j

    # -- state evaluation -----------------------------------------------

    def _phi_mass(self, mu, nu, theta_blind=False):
        """phi_eval's support test: mass(mu), or None where phi vanishes on
        s_mu s*_nu (see phi_eval)."""
        gvec = dg.sub(mu.degree, nu.degree)
        if not self.periodic(gvec):
            return None
        if not theta_blind:
            if not any(gvec):
                if mu != nu:
                    return None
            elif self.theta_map(mu.degree, nu.degree)(mu) != nu:
                return None
        return self.measure.mass(mu)

    def phi_eval(self, state, mu, nu, theta_blind=False):
        """phi(s_mu s*_nu): psi(d(mu)-d(nu)) * rho^{-d(mu)} * x_{s(mu)} when
        the degree difference is periodic and the shift-agreement bijection
        sends mu to nu; zero otherwise.

        theta_blind drops the bijection condition -- a deliberately wrong
        functional used as a negative control for kms_check.
        """
        if mu.source != nu.source:
            raise InputFormatError("phi is defined on span terms, which "
                                   "need a common source")
        mass = self._phi_mass(mu, nu, theta_blind)
        return self._zero(state) if mass is None \
            else state.psi(dg.sub(mu.degree, nu.degree)) * mass

    def phi_apply(self, state, elem, theta_blind=False):
        """Linear extension of phi_eval to algebra elements."""
        total = self._zero(state)
        for term, coeff in elem.terms.items():
            value = self.phi_eval(state, term.mu, term.nu,
                                  theta_blind=theta_blind)
            total = total + coeff * value
        return total

    # -- central unitaries ----------------------------------------------

    def unitary(self, gvec):
        """U_g = sum over mu in Lambda^{g+} of s_mu s*_{theta(mu)}."""
        gvec = tuple(gvec)
        if not self.periodic(gvec):
            raise NotPeriodicError(f"{gvec} was not detected as a "
                                   f"periodicity vector")
        m, n = dg.pos_part(gvec), dg.neg_part(gvec)
        th = self.theta_map(m, n)
        out = {}
        for mu in self.graph.paths_of_degree(m):
            out[SpanTerm(mu, th(mu))] = QQi.of(1)
        return AlgebraElement(self.graph, out)

    def unitary_identities(self, max_degree):
        """Exact element-level checks for the unitaries indexed by the
        periodicity vectors in the box [-D, D]^k: the group law
        U_g U_h = U_{g+h}, adjoints U_g* = U_{-g}, unitarity U_g U_g* = 1,
        commutation with every edge generator, and the transport of range
        projections s_mu s*_mu = s_{theta(mu)} s*_{theta(mu)}."""
        g = self.graph
        D = _degree_box(max_degree, g.k)
        elements = [v for v in dg.box(dg.neg(D), D) if self.periodic(v)]
        unitaries = {v: self.unitary(v) for v in elements}
        ident = AlgebraElement.identity(g)
        checks = []

        def record(label, ok):
            checks.append((label, bool(ok)))

        record("U_0 = 1", unitaries[dg.zero(g.k)].equals(ident))
        for v in elements:
            u = unitaries[v]
            record(f"U{v}* = U{dg.neg(v)}",
                   u.adjoint().equals(self.unitary(dg.neg(v))))
            record(f"U{v} U{dg.neg(v)} = 1",
                   (u * self.unitary(dg.neg(v))).equals(ident))
            for e in g.edges:
                s_e = AlgebraElement.edge_generator(g, e.id)
                record(f"U{v} commutes with s[{e.id}]",
                       (u * s_e).equals(s_e * u))
            if any(v):
                th = self.theta_map(dg.pos_part(v), dg.neg_part(v))
                for mu in g.paths_of_degree(dg.pos_part(v)):
                    lhs = AlgebraElement.span(g, mu, mu)
                    rhs = AlgebraElement.span(g, th(mu), th(mu))
                    record(f"range projection transport {v} at "
                           f"{mu.literal()}", lhs.equals(rhs))
        for va in elements:
            for vb in elements:
                record(f"U{va} U{vb} = U{dg.add(va, vb)}",
                       (unitaries[va] * unitaries[vb]).equals(
                           self.unitary(dg.add(va, vb))))
        return UnitaryIdentitiesReport(
            group_elements=tuple(elements), checks=tuple(checks),
            passed=all(ok for _, ok in checks))

    # -- the equilibrium identity over a degree box ---------------------

    def _support_contributions(self, box, theta_blind, scale):
        """Aggregate, for every quadruple key (mu, nu, eta, zeta), the total
        cylinder mass of its product:

            phi(s_mu s*_nu s_eta s*_zeta)
                = sum over minimal common extensions nu.alpha = eta.beta
                  of phi(s_{mu.alpha} s*_{zeta.beta})
                = psi(g) * mass.

        One psi value covers the whole sum because the gauge action grades
        the algebra: d(alpha) - d(beta) = d(eta) - d(nu), so every term has
        the key's grade g = d(mu) - d(nu) + d(eta) - d(zeta).

        Every minimal pair arises from a path w (= nu.alpha) and a split of
        d(w) into the degrees of nu and eta, so walking (w, split, mu, and
        the codomain degree of the bijection) enumerates the support
        completely: any quadruple never touched has phi = 0 on both sides
        of the equilibrium identity.  More than graph.cap keys raise
        EnumerationCapError, tested after each w.

        A split fixes nu, alpha, eta and beta; its keys take every mu with
        s(mu) = r(alpha).  p = mu.alpha has degree d(mu) + d(alpha) and
        source s(alpha), so the mu go by degree class (_BoxIndex.classes),
        and the mass of p and the plan -- the degrees d(zeta.beta') at which
        d(p) - d(zeta.beta') is periodic -- are read once per class.  Blind
        mode pairs a class with every zeta of a planned degree and source
        s(eta); the honest walk files the heads zeta of theta(p) by their
        tails beta' and keeps the file of beta' = beta.  A split's keys
        depend on nu and eta only through their high digits, so what it adds
        is built once per (alpha, d(beta)), and per s(eta) in blind mode,
        and replayed by every split that shares it.

        All four paths of a key lie in the box [0, D], so the key is their
        box indices packed into one int, base n: (mu, nu) in the high digits
        and (eta, zeta) in the low ones.  Keys are inserted in walk order,
        with mu in box order and zeta in plan order within a split, and map
        to their mass times `scale`, which makes it an int when the Perron
        data is rational (see _scales).
        """
        g = self.graph
        n = len(box.paths)
        contributions = {}
        plans = {}      # (d(p), d(beta), s(eta)) -> plan
        batches = {}    # blind (alpha, d(beta), s(eta)) -> {None: batch},
        #                 honest (alpha, d(beta), None) -> {beta: batch}

        def plan_of(dp, dbeta, v):
            # honest: (g != 0, d(zeta.beta'), d(zeta)) for each periodic g =
            # d(p) - d(zeta.beta'); blind: every zeta with source v there
            plan = plans.get((dp, dbeta, v))
            if plan is None:
                plan = plans[dp, dbeta, v] = []
                for nzeta in box.degrees:
                    nprime = dg.add(nzeta, dbeta)
                    gvec = dg.sub(dp, nprime)
                    if self.periodic(gvec):
                        plan.extend(box.classes[v].get(nzeta, ())
                                    if theta_blind
                                    else [(any(gvec), nprime, nzeta)])
            return plan

        def batch(alpha, dbeta, v):
            # [(mus, zetas, mass)]: the mu with s(mu) = r(alpha), by class
            out = {}
            for dmu, mus in box.classes[box.paths[alpha].range].items():
                dp = dg.add(dmu, box.degree[alpha])
                plan = plan_of(dp, dbeta, v)
                if not plan:
                    continue
                mass = _scaled(self.measure.mass_at(dp, box.source[alpha]),
                               scale)
                if theta_blind:
                    out.setdefault(None, []).append((mus, plan, mass))
                    continue
                for mu in mus:
                    p = g.compose(box.paths[mu], box.paths[alpha])
                    filed = {}  # the heads zeta of theta(p) by their tails
                    for shift, nprime, nzeta in plan:
                        q = self.theta_map(dp, nprime)(p) if shift else p
                        zeta, tail = box.indices(g.factorize(q, nzeta))
                        filed.setdefault(tail, []).append(zeta)
                    for tail, zetas in filed.items():
                        out.setdefault(tail, []).append(((mu,), zetas, mass))
            return out

        u = None
        for w in box.paths:
            if w.degree != u:   # the box lists its paths degree by degree
                u = w.degree
                splits = dg.degrees_below(u)
                pairs = [(j1, j2) for j2, m2 in enumerate(splits)
                         for j1, m1 in enumerate(splits)
                         if dg.join(m1, m2) == u]
            facs = [box.indices(g.factorize(w, m)) for m in splits]
            for j1, j2 in pairs:
                eta, beta = facs[j2]
                nu, alpha = facs[j1]
                at = (alpha, box.degree[beta],
                      box.source[eta] if theta_blind else None)
                hit = batches.get(at)
                if hit is None:
                    hit = batches[at] = batch(*at)
                for mus, zetas, mass in hit.get(
                        None if theta_blind else beta, ()):
                    for mu in mus:
                        base = ((mu * n + nu) * n + eta) * n
                        for zeta in zetas:
                            key = base + zeta
                            contributions[key] = contributions.get(key, 0) \
                                + mass
            if len(contributions) > g.cap:
                raise EnumerationCapError(
                    f"KMS support exceeds cap {g.cap} keys")
        return contributions

    def _scales(self, D):
        """Common multipliers (S, T) that turn the sweep's sums into ints
        when the Perron data is rational.  With rho_i = p_i/q_i, every mass
        the support adds up, rho^{-d} x_v with 0 <= d <= 2D, times
        S = prod p_i^{2 D_i} * lcm(denominators of x) is an int, and so is
        every rho^{-gamma} with -D <= gamma <= D times
        T = prod (p_i q_i)^{D_i}.  Float Perron data keeps its floats:
        (1, 1)."""
        if not self.measure.exact:
            return 1, 1
        S = math.lcm(*(x.denominator for x in self.measure.x.values()))
        T = 1
        for r, d in zip(self.measure.rho, D):
            S *= r.numerator ** (2 * d)
            T *= (r.numerator * r.denominator) ** d
        return S, T

    def _screen_profiles(self, box, theta_blind):
        """State-independent half of the one-sided Cuntz-Krieger screen
        |phi(s_mu s*_nu)| <= bound over the source-matched pairs of the box,
        with bound the mass of the extensions mu.lam, lam of degree
        (1,..,1), for which mu.lam and nu.lam still share an extension.  A
        pair whose phi vanishes (see _phi_mass) passes for every state; any
        other becomes its profile (d(mu) - d(nu), mass(mu), bound), counted.

        mu.lam and nu.lam share an extension exactly when their extensions
        to the joined degree meet, so KGraph.extensions builds those sets
        once per (path, tail, degree) and they are intersected per pair."""
        g = self.graph
        ones = (1,) * g.k
        reach = {}      # (mu, tail, degree) -> edges of the extensions

        def reached(mu, t, ml, degree):
            hit = reach.get((mu, t, degree))
            if hit is None:
                hit = reach[mu, t, degree] = g.extensions(ml, degree).keys()
            return hit

        profiles = {}
        for v, here in box.by_source.items():
            tails = g.paths_of_degree(ones, range=v)
            extended = {i: [g.compose(box.paths[i], lam) for lam in tails]
                        for i in here}
            for mu in here:
                for nu in here:
                    mass = self._phi_mass(box.paths[mu], box.paths[nu],
                                          theta_blind)
                    if mass is None:
                        continue
                    joined = dg.add(dg.join(box.degree[mu], box.degree[nu]),
                                    ones)
                    bound = self.measure.zero
                    for t, (ml, nl) in enumerate(zip(extended[mu],
                                                     extended[nu])):
                        if not reached(mu, t, ml, joined).isdisjoint(
                                reached(nu, t, nl, joined)):
                            bound += self.measure.mass(ml)
                    profile = (dg.sub(box.degree[mu], box.degree[nu]), mass,
                               bound)
                    profiles[profile] = profiles.get(profile, 0) + 1
        return profiles

    def _sweep_table(self, D, theta_blind):
        """State-independent half of kms_check: box index and profiles.

        A supported key and its swap share one grade g (see
        _support_contributions), so the identity for the key reads
        psi(g) L = rho^{-gamma} psi(g) R with L and R the masses of the key
        and of its swap, gamma = d(mu) - d(nu), and the per-key obligation
        is the difference profile (g, L - rho^{-gamma} R).  Identical
        profiles impose identical obligations on every state, so they are
        deduplicated, keeping a count and up to 20 sample keys with their
        two masses; a zero difference means the key passes for every state.

        Keys are the packed box indices of _support_contributions, so key
        = high * n^2 + low has the swap low * n^2 + high.  Before the
        sweep, every source-matched packed pair (mu, nu) is given the
        (code, T rho^{-gamma}, gamma) of its two degrees.  Then each key
        and swap pair is visited once, with no call: one read of both
        masses and two reads of that table give L - rho^{-gamma} R and
        R - rho^{-gamma'} L.  A code is gamma as an int in radix
        4 max(D) + 1, so the codes of (mu, nu) and (eta, zeta) add up to
        the grade's code; profiles are keyed by it, and only supported
        swaps, which come up again as keys, are marked seen.  A bucket
        keeps a sample while its count is under 20.  With
        rational Perron data the differences are summed as ints, S * T
        times their value (see _scales); one common multiplier leaves the
        deduplication unchanged.  The table holds the profiles at their
        exact values and the sample masses times S, with mass_unit = 1/S.
        The screen profiles (see _screen_profiles) sit beside them, so a
        state folds both kinds and never visits a path pair.
        """
        cache_key = (D, theta_blind)
        hit = self._sweep_cache.get(cache_key)
        if hit is not None:
            return hit
        S, T = self._scales(D)
        box = _BoxIndex(self.graph, D)
        contributions = self._support_contributions(box, theta_blind, S)
        n = len(box.paths)
        nn = n * n
        rho = self.measure.rho
        radix = 4 * max(D) + 1
        by_gamma = {gamma: (sum(c * radix ** i for i, c in enumerate(gamma)),
                            _scaled(dg.rho_power(rho, dg.neg(gamma)), T),
                            gamma)
                    for gamma in dg.box(dg.neg(D), D)}
        graded = {(dmu, dnu): by_gamma[dg.sub(dmu, dnu)]
                  for dmu in box.degrees for dnu in box.degrees}
        # packed (mu, nu) -> (code of gamma, T * rho^{-gamma}, gamma)
        pairs = {mu * n + nu: graded[box.degree[mu], box.degree[nu]]
                 for here in box.by_source.values()
                 for mu in here for nu in here}
        profiles = {}   # (code of g, diff) -> [count, samples, g]
        seen = set()    # supported swaps already visited
        selfswaps = 0
        for key, left in contributions.items():
            if key in seen:
                continue
            high, low = divmod(key, nn)
            swap = low * nn + high
            right = contributions.get(swap, 0)
            chigh, fhigh, ghigh = pairs[high]
            clow, flow, glow = pairs[low]
            diff = T * left - fhigh * right
            if diff:
                bucket = profiles.get((chigh + clow, diff))
                if bucket is None:
                    bucket = profiles[chigh + clow, diff] = [
                        0, [], dg.add(ghigh, glow)]
                if bucket[0] < 20:
                    bucket[1].append((key, left, right))
                bucket[0] += 1
            if swap == key:
                selfswaps += 1
                continue
            if right:   # a supported swap; masses are positive
                seen.add(swap)
            diff = T * right - flow * left
            if diff:
                bucket = profiles.get((chigh + clow, diff))
                if bucket is None:
                    bucket = profiles[chigh + clow, diff] = [
                        0, [], dg.add(ghigh, glow)]
                if bucket[0] < 20:
                    bucket[1].append((swap, right, left))
                bucket[0] += 1
        # each visited key is checked with its swap, skipped keys are the
        # seen swaps, and a key that is its own swap counts once
        checked = 2 * (len(contributions) - len(seen)) - selfswaps
        unit = Fraction(1, S * T)
        table = {
            "box": box,
            "profiles": {(bucket[2], diff * unit): bucket[:2]
                         for (_, diff), bucket in profiles.items()},
            "screen": self._screen_profiles(box, theta_blind),
            "checked": checked,
            "support": len(contributions),
            "mass_unit": Fraction(1, S),
        }
        self._sweep_cache[cache_key] = table
        return table

    def kms_check(self, state, max_degree, tol=KMS_TOL, theta_blind=False):
        """Verify phi(ab) = rho^{-(d(mu)-d(nu))} phi(ba) for every
        source-matched quadruple a = s_mu s*_nu, b = s_eta s*_zeta with all
        four degrees in the box [0, D].

        The support of the products is enumerated completely (see
        _support_contributions); supported keys and their swaps are reduced
        to difference profiles (see _sweep_table), each folded with the
        state's one psi value at its grade, and every other quadruple has
        both sides identically zero.  Exact graphs compare Gaussian
        rationals; float mode compares within tol.

        Span terms do not see the Cuntz-Krieger relation, so a vector other
        than the Perron eigenvector x can pass the identity; the screen
        profiles (see _screen_profiles) catch it.  They are folded the same
        way, squared moduli compared exactly when both sides are exact.
        """
        D = _degree_box(max_degree, self.graph.k)
        check_tol(tol)
        exact = self.measure.exact and state.is_exact
        table = self._sweep_table(D, theta_blind)
        box = table["box"]
        matched_pairs = sum(len(ix) ** 2 for ix in box.by_source.values())
        unit = table["mass_unit"]
        rho = self.measure.rho
        zero = self._zero(state)
        failures = []
        failure_count = 0
        max_dev = 0.0
        for (gvec, value), (count, samples) in table["profiles"].items():
            pv = state.psi(gvec)
            if is_zero(pv, 0.0):
                continue
            total = pv * value
            if not exact:
                max_dev = max(max_dev, abs(total))
            if is_zero(total, tol):
                continue
            failure_count += count
            for key, left, right in samples[:20 - len(failures)]:
                mu, nu, eta, zeta = box.paths_of(key)
                factor = dg.rho_power(rho, dg.neg(dg.sub(mu.degree,
                                                         nu.degree)))
                lhs = pv * (left * unit) if left else zero
                expect = pv * (right * unit) * factor if right else zero
                failures.append({
                    "mu": mu.literal(), "nu": nu.literal(),
                    "eta": eta.literal(), "zeta": zeta.literal(),
                    "lhs": repr(lhs), "rhs_scaled": repr(expect),
                })
        violations = 0
        for (gvec, mass, bound), count in table["screen"].items():
            value = state.psi(gvec) * mass
            if not (value.abs2() <= bound * bound if exact
                    else abs(complex(value)) <= float(bound) + tol):
                violations += count
        return KMSCheckReport(
            state=state.describe(), max_degree=D, exact=exact,
            theta_blind=theta_blind,
            total_quadruples=matched_pairs * matched_pairs,
            support_size=table["support"], explicit_checked=table["checked"],
            failure_count=failure_count, failures=tuple(failures),
            max_deviation=max_dev, ck_screen_pairs=matched_pairs,
            ck_screen_violations=violations,
            passed=failure_count == 0 and violations == 0)

    # -- simplex, phases, Toeplitz existence ----------------------------

    def simplex_descriptor(self):
        """Shape of the equilibrium-state simplex at the critical inverse
        temperature: its extreme points are the characters of the
        periodicity group."""
        if self.group is None:
            raise InputFormatError("simplex description needs a computed "
                                   "periodicity group")
        rank = self.group.rank
        if rank == 0:
            param = "a single point"
        else:
            param = (f"characters of Z^{rank} (a torus of dimension {rank})")
        return {
            "rank": rank,
            "extreme_point_parameterization": param,
            "unique": rank == 0,
            "search_bound": self.group.search_bound,
        }

    def toeplitz_kms_exists(self, beta, r, tol=TOEPLITZ_TOL):
        """Existence of an equilibrium state on the Toeplitz extension for
        the dynamics scaled by the per-color numbers r: one exists at
        inverse temperature beta exactly when beta * r_i >= ln rho_i in
        every color, and it factors through the graph algebra exactly when
        equality holds throughout (within tol)."""
        check_tol(tol)
        r = tuple(float(v) for v in r)
        if len(r) != self.graph.k:
            raise InputFormatError(f"r has {len(r)} entries for a "
                                   f"{self.graph.k}-color graph")
        beta = float(beta)
        if not all(math.isfinite(beta * ri) for ri in r):
            raise InputFormatError(f"beta * r_i is not a finite float for "
                                   f"beta = {beta}, r = {r}")
        gaps = tuple(beta * ri - math.log(float(rho_i))
                     for ri, rho_i in zip(r, self.measure.rho))
        exists = all(gap >= -tol for gap in gaps)
        factors = exists and all(abs(gap) <= tol for gap in gaps)
        return ToeplitzReport(beta=beta, r=r, gaps=gaps, exists=exists,
                              factors_through_quotient=factors)

    def phase_diagram(self, beta):
        """Extreme-point count for the equilibrium states of the Toeplitz
        extension under the preferred dynamics, as a function of the
        inverse temperature.  Applicable only when every rho_i > 1."""
        small = [i + 1 for i, rho_i in enumerate(self.measure.rho)
                 if not float(rho_i) > 1.0]
        if small:
            return PhaseReport(
                beta=beta, applicable=False,
                reason="requires rho_i > 1 in every color; violated in "
                       "color(s) " + ", ".join(str(i) for i in small),
                extreme_points=None)
        if beta > 1:
            count = len(self.graph.vertices)
        elif beta == 1:
            if self.group is None:
                raise InputFormatError("phase count at beta = 1 needs a "
                                       "computed periodicity group")
            count = "infinite" if self.group.rank > 0 else 1
        else:
            count = 0
        return PhaseReport(beta=beta, applicable=True, reason="",
                           extreme_points=count)

    # -- the character action -------------------------------------------

    def act_character(self, chi, state):
        """Translate a state by a character of the periodicity group.

        Characters translate pointwise (rotations add); the averaging state
        is the barycenter of the simplex and is fixed.
        """
        if chi.kind != "character":
            raise InputFormatError("the acting element must be a character")
        if state.kind == "haar":
            return state
        if state.kind == "character":
            return StateSpec.character(_add_turns(chi.turns, state.turns))
        return StateSpec.mixture(
            [(w, _add_turns(chi.turns, ts)) for w, ts in state.components])

    def states_equal(self, sa, sb):
        """Whether two state specifications induce the same state.

        A state at the critical inverse temperature is fixed by its psi on
        the periodicity group, so the two psi are compared, within KMS_TOL,
        on the multiples t b of each basis vector b with |t| <=
        search_bound.  That decides every kind: a character never vanishes
        while the averaging state vanishes off 0, and on the trivial group
        (no basis) every specification gives the same state.
        """
        if self.group is None:
            raise InputFormatError("state comparison needs a computed "
                                   "periodicity group")
        bound = self.group.search_bound
        return all(is_zero(sa.psi(gv) - sb.psi(gv), KMS_TOL)
                   for gv in (dg.scale(t, b) for b in self.group.basis
                              for t in range(-bound, bound + 1)))


class _BoxIndex:
    """The paths of the degree box [0, D], numbered 0..n-1 in canonical
    order: degrees in lexicographic order, and the paths of each degree in
    paths_of_degree order.  The cold half of kms_check works on these
    indices and turns them back into paths only for its report."""

    def __init__(self, graph, D):
        self.degrees = dg.degrees_below(D)
        self.paths = []
        for m in self.degrees:
            self.paths.extend(graph.paths_of_degree(m))
        self.index = {p: i for i, p in enumerate(self.paths)}
        self.degree = [p.degree for p in self.paths]
        self.source = [p.source for p in self.paths]
        self.by_source = {}            # vertex -> indices
        self.classes = {}              # vertex -> {degree: indices}
        for i, p in enumerate(self.paths):
            self.by_source.setdefault(p.source, []).append(i)
            self.classes.setdefault(p.source, {}).setdefault(
                p.degree, []).append(i)

    def indices(self, paths):
        return tuple(self.index[p] for p in paths)

    def paths_of(self, key):
        """The quadruple of paths behind a key."""
        n = len(self.paths)
        return tuple(self.paths[key // n ** e % n] for e in (3, 2, 1, 0))


def _add_turns(ta, tb):
    if len(ta) != len(tb):
        raise InputFormatError("character dimension mismatch")
    out = []
    for a, b in zip(ta, tb):
        if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
            out.append((Fraction(a) + Fraction(b)) % 1)
        else:
            out.append((float(a) + float(b)) % 1.0)
    return tuple(out)


def _degree_box(max_degree, k):
    D = (max_degree,) * k if isinstance(max_degree, int) \
        else tuple(int(v) for v in max_degree)
    if len(D) != k or not dg.is_nonneg(D):
        raise InputFormatError(f"bad degree box {max_degree!r}")
    return D


def _scaled(value, scale):
    """value * scale, as an int when both are exact."""
    value = value * scale
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise ArithmeticError(f"{scale} does not clear the denominator "
                                  f"of {value}")
        return value.numerator
    return value

