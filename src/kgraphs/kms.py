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
Exact fixtures stay in Gaussian-rational arithmetic end to end.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from . import degrees as dg
from .errors import InputFormatError, NotPeriodicError
from .graphs import ENUM_CAP
from .measure import CylinderMeasure
from .periodicity import decide_periodic, theta
from .scalars import QQi, format_fraction, parse_number

FLOAT_PRUNE = 1e-14
KMS_TOL = 1e-12
TOEPLITZ_TOL = 1e-9


# ----------------------------------------------------------------------
# scalars: Gaussian rationals when possible, complex otherwise

def _coerce_scalar(c):
    if isinstance(c, QQi):
        return c
    if isinstance(c, (int, Fraction)):
        return QQi.of(c)
    if isinstance(c, (float, complex)):
        return complex(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _s_add(a, b):
    if isinstance(a, QQi) and isinstance(b, (QQi, int, Fraction)):
        return a + b
    if isinstance(b, QQi) and isinstance(a, (int, Fraction)):
        return b + a
    return complex(a) + complex(b)


def _s_mul(a, b):
    if isinstance(a, QQi) and isinstance(b, (QQi, int, Fraction)):
        return a * b
    if isinstance(b, QQi) and isinstance(a, (int, Fraction)):
        return b * a
    return complex(a) * complex(b)


def _s_neg(a):
    return -a if isinstance(a, QQi) else -complex(a)


def _s_conj(a):
    return a.conjugate() if isinstance(a, QQi) else complex(a).conjugate()


def _s_is_zero(a, tol=FLOAT_PRUNE):
    if isinstance(a, QQi):
        return a.is_zero()
    return abs(complex(a)) <= tol


def _s_close(a, b, tol):
    if isinstance(a, QQi) and isinstance(b, (QQi, int, Fraction)):
        return a == QQi.of(b) if not isinstance(b, QQi) else a == b
    return abs(complex(a) - complex(b)) <= tol


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


def _term_key(t):
    return (t.mu.degree, t.nu.degree, t.mu.range, t.mu.edges,
            t.nu.range, t.nu.edges)


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
            coeff = _coerce_scalar(coeff)
            if not _s_is_zero(coeff):
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
            out[term] = _s_add(out[term], coeff) if term in out else coeff
        return AlgebraElement(self.graph, out)

    def __neg__(self):
        return AlgebraElement(self.graph,
                              {t: _s_neg(c) for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return AlgebraElement(self.graph,
                              {t: _s_mul(coeff, c)
                               for t, coeff in self.terms.items()})

    def __mul__(self, other):
        """(s_mu s*_nu)(s_eta s*_zeta) collapses through Lambda^min(nu, eta):
        the sum of s_{mu.alpha} s*_{zeta.beta} over minimal common
        extensions, extended bilinearly."""
        self._check_same_graph(other)
        g = self.graph
        out = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                c = _s_mul(c1, c2)
                for alpha, beta in g.lambda_min(t1.nu, t2.mu):
                    term = SpanTerm(g.compose(t1.mu, alpha),
                                    g.compose(t2.nu, beta))
                    out[term] = _s_add(out[term], c) if term in out else c
        return AlgebraElement(self.graph, out)

    def adjoint(self):
        """The star operation: (s_mu s*_nu)* = s_nu s*_mu, conjugate-linear."""
        return AlgebraElement(self.graph,
                              {SpanTerm(t.nu, t.mu): _s_conj(c)
                               for t, c in self.terms.items()})

    # -- canonical form and equality ------------------------------------

    @property
    def exact(self):
        return all(isinstance(c, QQi) for c in self.terms.values())

    def canonical_terms(self):
        return sorted(self.terms.items(), key=lambda tc: _term_key(tc[0]))

    def is_zero(self, tol=FLOAT_PRUNE):
        """Whether the element is zero in the graph algebra.

        The span presentation is not faithful, so the terms of each grade
        (common value of d(mu) - d(nu)) are rewritten at the grade's joint
        degree: s_mu s*_nu = sum over lam in s(mu)Lambda^{m*-d(mu)} of
        s_{mu.lam} s*_{nu.lam}.  After that rewriting the surviving terms
        are linearly independent, so the element vanishes exactly when every
        refined coefficient does.  Needs a graph with no sources, which
        strong connectivity guarantees.
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
                    refined[key] = _s_add(refined[key], coeff) \
                        if key in refined else coeff
            for value in refined.values():
                if not _s_is_zero(value, tol):
                    return False
        return True

    def equals(self, other, tol=FLOAT_PRUNE):
        return (self - other).is_zero(tol)

    def __repr__(self):
        if not self.terms:
            return "<0>"
        bits = [f"{coeff!r}*[{term.literal()}]"
                for term, coeff in self.canonical_terms()]
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
        total = sum((w for w, _ in pairs), Fraction(0)
                    if all(isinstance(w, (int, Fraction)) for w, _ in pairs)
                    else 0.0)
        if isinstance(total, Fraction):
            if total != 1 or any(w <= 0 for w, _ in pairs):
                raise InputFormatError("mixture weights must be positive "
                                       "and sum to 1")
        elif abs(total - 1.0) > 1e-9 or any(w <= 0 for w, _ in pairs):
            raise InputFormatError("mixture weights must be positive and "
                                   "sum to 1")
        return StateSpec(kind="mixture", components=pairs)

    # -- exactness ------------------------------------------------------

    @staticmethod
    def _quarter_exact(turns):
        return all(isinstance(t, (int, Fraction))
                   and (4 * Fraction(t)).denominator == 1 for t in turns)

    @property
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
        exact = self.is_exact
        total = QQi.of(0) if exact else 0.0
        for w, ts in self.components:
            if len(ts) != len(gvec):
                raise InputFormatError("mixture component dimension "
                                       "mismatch")
            total = _s_add(total, _s_mul(self._char_psi(ts, gvec, exact), w))
        return total

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


@dataclass(frozen=True)
class PhaseQuery:
    """An inverse temperature and the per-color dynamics exponents."""

    beta: object
    r: tuple


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

    Bundles the graph with its Perron data, the cylinder measure, and
    (optionally) a precomputed periodicity group; caches the periodicity
    decisions and shift-agreement bijections that the state formulas need.
    """

    def __init__(self, graph, perron, measure=None, group=None,
                 cap=ENUM_CAP):
        graph.require_strongly_connected()
        self.graph = graph
        self.perron = perron
        self.measure = measure if measure is not None \
            else CylinderMeasure(graph, perron)
        self.group = group
        self.cap = cap
        self._periodic_cache = {}
        self._theta_cache = {}
        self._support_cache = {}
        self._sweep_cache = {}
        self._ck_bound_cache = {}

    # -- cached periodicity machinery -----------------------------------

    def periodic(self, gvec):
        gvec = tuple(gvec)
        hit = self._periodic_cache.get(gvec)
        if hit is None:
            hit = decide_periodic(self.graph, self.group, gvec, cap=self.cap)
            self._periodic_cache[gvec] = hit
        return hit

    def theta_map(self, m, n):
        key = (tuple(m), tuple(n))
        hit = self._theta_cache.get(key)
        if hit is None:
            hit = theta(self.graph, key[0], key[1], pre_checked=True,
                        cap=self.cap)
            self._theta_cache[key] = hit
        return hit

    def _zero(self, state):
        return QQi.of(0) if (self.measure.exact and state.is_exact) else 0j

    # -- state evaluation -----------------------------------------------

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
        gvec = dg.sub(mu.degree, nu.degree)
        if not self.periodic(gvec):
            return self._zero(state)
        if not theta_blind:
            if not any(gvec):
                if mu != nu:
                    return self._zero(state)
            elif self.theta_map(mu.degree, nu.degree)(mu) != nu:
                return self._zero(state)
        return _s_mul(state.psi(gvec), self.measure.mass(mu))

    def phi_apply(self, state, elem, theta_blind=False):
        """Linear extension of phi_eval to algebra elements."""
        total = self._zero(state)
        for term, coeff in elem.terms.items():
            value = self.phi_eval(state, term.mu, term.nu,
                                  theta_blind=theta_blind)
            total = _s_add(total, _s_mul(coeff, value))
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
        for mu in self.graph.paths_of_degree(m, cap=self.cap):
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
                for mu in g.paths_of_degree(dg.pos_part(v), cap=self.cap):
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

    def _paths_box(self, D):
        out = []
        for n in dg.box(dg.zero(self.graph.k), D):
            out.extend(self.graph.paths_of_degree(n, cap=self.cap))
        return out

    def _support_contributions(self, D, theta_blind):
        """Aggregate, for every quadruple key (mu, nu, eta, zeta), the total
        cylinder mass contributed per degree difference g:

            phi(s_mu s*_nu s_eta s*_zeta)
                = sum over minimal common extensions nu.alpha = eta.beta
                  of phi(s_{mu.alpha} s*_{zeta.beta})
                = sum over contributions psi(g) * mass.

        Every minimal pair arises from a path w (= nu.alpha) and a split of
        d(w) into the degrees of nu and eta, so walking (w, split, mu, and
        the codomain degree of the bijection) enumerates the support
        completely: any quadruple never touched has phi = 0 on both sides
        of the equilibrium identity.
        """
        g = self.graph
        zero_mass = Fraction(0) if self.measure.exact else 0.0
        contributions = {}
        compose_cache = {}
        split_cache = {}

        def composed(muu, alpha):
            key = (muu, alpha)
            hit = compose_cache.get(key)
            if hit is None:
                hit = g.compose(muu, alpha)
                compose_cache[key] = hit
            return hit

        def split(path, at):
            key = (path, at)
            hit = split_cache.get(key)
            if hit is None:
                hit = g.factorize(path, at)
                split_cache[key] = hit
            return hit

        by_source = {}
        for p in self._paths_box(D):
            by_source.setdefault(p.source, []).append(p)

        for w in self._paths_box(D):
            u = w.degree
            degree_splits = list(dg.box(dg.zero(g.k), u))
            facs = {m: split(w, m) for m in degree_splits}
            for m2 in degree_splits:
                eta, beta = facs[m2]
                for m1 in degree_splits:
                    if dg.join(m1, m2) != u:
                        continue
                    nu, alpha = facs[m1]
                    for mu in by_source.get(nu.source, ()):
                        p = composed(mu, alpha)
                        if theta_blind:
                            self._blind_contribs(contributions, D, mu, nu,
                                                 eta, beta, p, zero_mass)
                        else:
                            self._honest_contribs(contributions, D, mu, nu,
                                                  eta, beta, p, split,
                                                  zero_mass)
        return contributions

    def _honest_contribs(self, contributions, D, mu, nu, eta, beta, p,
                         split, zero_mass):
        g = self.graph
        dp = p.degree
        dbeta = beta.degree
        for nprime in dg.box(dbeta, dg.add(D, dbeta)):
            gvec = dg.sub(dp, nprime)
            if not self.periodic(gvec):
                continue
            if any(gvec):
                q = self.theta_map(dp, nprime)(p)
            else:
                q = p
            zeta, beta_q = split(q, dg.sub(nprime, dbeta))
            if beta_q != beta:
                continue
            key = (mu, nu, eta, zeta)
            slot = contributions.setdefault(key, {})
            slot[gvec] = slot.get(gvec, zero_mass) + self.measure.mass(p)

    def _blind_contribs(self, contributions, D, mu, nu, eta, beta, p,
                        zero_mass):
        g = self.graph
        dp = p.degree
        dbeta = beta.degree
        for nzeta in dg.box(dg.zero(g.k), D):
            gvec = dg.sub(dp, dg.add(nzeta, dbeta))
            if not self.periodic(gvec):
                continue
            mass = self.measure.mass(p)
            for zeta in g.paths_of_degree(nzeta, source=eta.source,
                                          cap=self.cap):
                key = (mu, nu, eta, zeta)
                slot = contributions.setdefault(key, {})
                slot[gvec] = slot.get(gvec, zero_mass) + mass

    def _ck_bounds(self, D):
        """State-independent right-hand sides for the one-sided screen:
        for each source-matched pair, the mass of the extensions of mu that
        still share a common extension with nu after one step in every
        color."""
        hit = self._ck_bound_cache.get(D)
        if hit is not None:
            return hit
        g = self.graph
        ones = (1,) * g.k
        bounds = {}
        box = self._paths_box(D)
        by_source = {}
        for p in box:
            by_source.setdefault(p.source, []).append(p)
        for v, here in by_source.items():
            tails = g.paths_of_degree(ones, range=v, cap=self.cap)
            for mu in here:
                extended = [(g.compose(mu, lam), lam) for lam in tails]
                for nu in here:
                    bound = Fraction(0) if self.measure.exact else 0.0
                    for ml, lam in extended:
                        if g.lambda_min(ml, g.compose(nu, lam)):
                            bound += self.measure.mass(ml)
                    bounds[(mu, nu)] = bound
        self._ck_bound_cache[D] = bounds
        return bounds

    def _ck_bound_screen(self, state, D, theta_blind, tol):
        """One-sided sanity screen: |phi(s_mu s*_nu)| must be dominated by
        the cached extension-mass bound for every source-matched pair."""
        pairs = 0
        violations = 0
        for (mu, nu), bound in self._ck_bounds(D).items():
            pairs += 1
            val = self.phi_eval(state, mu, nu, theta_blind=theta_blind)
            if isinstance(val, QQi) and isinstance(bound, Fraction):
                ok = val.abs2() <= bound * bound
            else:
                ok = abs(complex(val)) <= float(bound) + tol
            if not ok:
                violations += 1
        return pairs, violations

    def _sweep_table(self, D, theta_blind):
        """State-independent half of the equilibrium check.

        For each supported quadruple key and its swap, the identity reads
        sum_g psi(g) L_g = rho^{-gamma} sum_g psi(g) R_g, so the per-key
        obligation is the difference profile {g: L_g - rho^{-gamma} R_g}.
        Identical profiles impose identical obligations on every state, so
        they are deduplicated, keeping a count and sample keys; an empty
        profile means the key passes for every state.
        """
        cache_key = (D, theta_blind)
        hit = self._sweep_cache.get(cache_key)
        if hit is not None:
            return hit
        contributions = self._support_cache.get(cache_key)
        if contributions is None:
            contributions = self._support_contributions(D, theta_blind)
            self._support_cache[cache_key] = contributions
        rho = self.measure.rho
        zero_mass = Fraction(0) if self.measure.exact else 0.0
        profiles = {}
        seen = set()
        for base in contributions:
            for key in (base, (base[2], base[3], base[0], base[1])):
                if key in seen:
                    continue
                seen.add(key)
                swapped = (key[2], key[3], key[0], key[1])
                gamma = dg.sub(key[0].degree, key[1].degree)
                factor = dg.rho_power(rho, dg.neg(gamma))
                diff = dict(contributions.get(key, ()))
                for gvec, mass in contributions.get(swapped, {}).items():
                    diff[gvec] = diff.get(gvec, zero_mass) - factor * mass
                canon = tuple(sorted((gv, m) for gv, m in diff.items()
                                     if m != 0))
                if not canon:
                    continue
                bucket = profiles.get(canon)
                if bucket is None:
                    bucket = profiles[canon] = [0, []]
                bucket[0] += 1
                if len(bucket[1]) < 20:
                    bucket[1].append(key)
        table = {
            "profiles": profiles,
            "checked": len(seen),
            "support": len(contributions),
            "contributions": contributions,
        }
        self._sweep_cache[cache_key] = table
        return table

    def kms_check(self, state, max_degree, tol=KMS_TOL, theta_blind=False):
        """Verify phi(ab) = rho^{-(d(mu)-d(nu))} phi(ba) for every
        source-matched quadruple a = s_mu s*_nu, b = s_eta s*_zeta with all
        four degrees in the box [0, D].

        The support of the products is enumerated completely (see
        _support_contributions); supported keys and their swaps are reduced
        to difference profiles (see _sweep_table) that the state's character
        values are folded through, and every other quadruple has both sides
        identically zero.  Exact graphs compare Gaussian rationals; float
        mode compares within tol.
        """
        g = self.graph
        D = _degree_box(max_degree, g.k)
        exact = self.measure.exact and state.is_exact
        box_paths = self._paths_box(D)
        per_vertex = {}
        for p in box_paths:
            per_vertex[p.source] = per_vertex.get(p.source, 0) + 1
        matched_pairs = sum(c * c for c in per_vertex.values())
        total_quadruples = matched_pairs * matched_pairs

        table = self._sweep_table(D, theta_blind)
        contributions = table["contributions"]
        rho = self.measure.rho

        psi_cache = {}

        def psi(gvec):
            hit = psi_cache.get(gvec)
            if hit is None:
                hit = state.psi(gvec)
                psi_cache[gvec] = hit
            return hit

        def fold(slot):
            total = None
            for gvec, mass in slot:
                pv = psi(gvec)
                if _s_is_zero(pv, 0.0):
                    continue
                piece = _s_mul(pv, mass)
                total = piece if total is None else _s_add(total, piece)
            return total

        failures = []
        failure_count = 0
        max_dev = 0.0
        for canon, (count, samples) in table["profiles"].items():
            total = fold(canon)
            if total is None:
                continue
            if exact:
                bad = not _s_is_zero(total, 0.0)
            else:
                dev = abs(complex(total))
                max_dev = max(max_dev, dev)
                bad = dev > tol
            if not bad:
                continue
            failure_count += count
            for key in samples:
                if len(failures) >= 20:
                    break
                swapped = (key[2], key[3], key[0], key[1])
                gamma = dg.sub(key[0].degree, key[1].degree)
                factor = dg.rho_power(rho, dg.neg(gamma))
                lhs = fold(contributions.get(key, {}).items())
                rhs = fold(contributions.get(swapped, {}).items())
                zero = QQi.of(0) if exact else 0j
                lhs = zero if lhs is None else lhs
                expect = zero if rhs is None else _s_mul(rhs, factor)
                failures.append({
                    "mu": key[0].literal(), "nu": key[1].literal(),
                    "eta": key[2].literal(), "zeta": key[3].literal(),
                    "lhs": _scalar_str(lhs),
                    "rhs_scaled": _scalar_str(expect),
                })
        ck_pairs, ck_violations = self._ck_bound_screen(state, D,
                                                        theta_blind, tol)
        return KMSCheckReport(
            state=state.describe(), max_degree=D, exact=exact,
            theta_blind=theta_blind, total_quadruples=total_quadruples,
            support_size=table["support"], explicit_checked=table["checked"],
            failure_count=failure_count, failures=tuple(failures),
            max_deviation=max_dev, ck_screen_pairs=ck_pairs,
            ck_screen_violations=ck_violations,
            passed=failure_count == 0 and ck_violations == 0)

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

    def toeplitz_kms_exists(self, query, tol=TOEPLITZ_TOL):
        """Existence of an equilibrium state on the Toeplitz extension for
        the dynamics scaled by r: one exists at inverse temperature beta
        exactly when beta * r_i >= ln rho_i in every color, and it factors
        through the graph algebra exactly when equality holds throughout."""
        if not isinstance(query, PhaseQuery):
            query = PhaseQuery(beta=query[0], r=tuple(query[1]))
        r = tuple(float(v) for v in query.r)
        if len(r) != self.graph.k:
            raise InputFormatError(f"r has {len(r)} entries for a "
                                   f"{self.graph.k}-color graph")
        beta = float(query.beta)
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

    def states_equal(self, sa, sb, tol=KMS_TOL):
        """Whether two state specifications induce the same state.

        Two characters agree exactly when their ratio is trivial on the
        periodicity group, which it is enough to test on a basis.  The
        averaging state equals a character only when the group is trivial
        (where all specifications collapse to the same state).  Mixtures
        are compared by their psi values on the basis-generated box, which
        decides every case arising here.
        """
        if self.group is None:
            raise InputFormatError("state comparison needs a computed "
                                   "periodicity group")
        if self.group.rank == 0:
            return True
        basis = self.group.basis
        if sa.kind == sb.kind == "character" or "mixture" in (sa.kind,
                                                              sb.kind):
            probes = list(basis)
            if "mixture" in (sa.kind, sb.kind):
                probes = [dg.scale(t, b) for b in basis
                          for t in range(-self.group.search_bound,
                                         self.group.search_bound + 1)]
            return all(_s_close(sa.psi(gv), sb.psi(gv), tol)
                       for gv in probes)
        if sa.kind == sb.kind == "haar":
            return True
        char = sa if sa.kind == "character" else sb
        return all(_s_close(char.psi(b), QQi.of(0), tol) for b in basis)


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
    if isinstance(max_degree, int):
        return (max_degree,) * k
    D = tuple(int(v) for v in max_degree)
    if len(D) != k or not dg.is_nonneg(D):
        raise InputFormatError(f"bad degree box {max_degree!r}")
    return D


def _scalar_str(c):
    if isinstance(c, QQi):
        return repr(c)
    return repr(complex(c))
