"""Formal Cuntz-Krieger calculus and KMS-state machinery.

The graph algebra is spanned by terms s_mu s*_nu with a common source.  This
module implements that calculus (products collapse through Lambda^min,
equality is decided by refining to a common degree), the central unitaries
U_g attached to periodicity vectors, and the equilibrium states: a state is
specified by its restriction to the periodicity group -- a character z, the
averaging state (psi(g) = delta_{g,0}), or a finite convex mixture -- and
evaluates on span terms as psi(d(mu)-d(nu)) * rho^{-d(mu)} * x_{s(mu)} when
the degree difference is periodic and the shift-agreement bijection carries
mu to nu, which it does exactly when Lambda^min(mu, nu) is non-empty, and as
0 otherwise.

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
Perron eigenvector.  The bound sums the masses of the mu.lam, lam of degree
(1,..,1), that still share an extension with nu.lam; as theta(mu.lam) =
theta(mu).lam, that is the mass of every mu.lam when nu = theta(mu), and 0
otherwise.  Both checks reduce, once per box, to state-free profiles that
each state folds with one psi value apiece.
Exact fixtures stay in Gaussian-rational arithmetic end to end.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cached_property, reduce
from itertools import groupby

from . import degrees as dg
from .errors import (EnumerationCapError, InputFormatError, NotPeriodicError,
                     Record)
from .measure import CylinderMeasure
from .periodicity import decide_periodic
from .scalars import (KMS_TOL, TOEPLITZ_TOL, QQi, add_up, check_tol,
                      coerce_scalar, format_fraction, is_zero, parse_number)

FLOAT_PRUNE = 1e-14


# ----------------------------------------------------------------------
# span terms and algebra elements

class AlgebraElement:
    """A finite linear combination of span terms over one graph.

    The terms are keyed by (mu, nu), paths with a common source standing
    for s_mu s*_nu.  Coefficients are Gaussian rationals (QQi) when built
    from exact data and complex floats otherwise; zero coefficients are
    pruned on construction (exactly, or below 1e-14 in float mode).
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
        return cls(graph, {(mu, nu): coeff})

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
        return cls(graph, {(p, p): 1 for p in
                           map(graph.vertex_path, graph.vertices)})

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
        for (mu, nu), c1 in self.terms.items():
            for (eta, zeta), c2 in other.terms.items():
                c = c1 * c2
                for alpha, beta in g.lambda_min(nu, eta):
                    term = (g.compose(mu, alpha), g.compose(zeta, beta))
                    out[term] = out[term] + c if term in out else c
        return AlgebraElement(self.graph, out)

    def adjoint(self):
        """The star operation: (s_mu s*_nu)* = s_nu s*_mu, conjugate-linear."""
        return AlgebraElement(self.graph,
                              {(nu, mu): c.conjugate()
                               for (mu, nu), c in self.terms.items()})

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
        for (mu, nu), coeff in self.terms.items():
            grades.setdefault(dg.sub(mu.degree, nu.degree), []).append(
                (mu, nu, coeff))
        for batch in grades.values():
            m_star = batch[0][0].degree
            for mu, _, _ in batch[1:]:
                m_star = dg.join(m_star, mu.degree)
            refined = {}
            for mu, nu, coeff in batch:
                step = dg.sub(m_star, mu.degree)
                for lam in g.paths_of_degree(step, range=mu.source):
                    key = (g.compose(mu, lam), g.compose(nu, lam))
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
        terms = sorted(self.terms, key=lambda t: (
            t[0].degree, t[1].degree, t[0].range, t[0].edges, t[1].range,
            t[1].edges))
        bits = [f"{self.terms[mu, nu]!r}*[{mu.literal()}|{nu.literal()}]"
                for mu, nu in terms]
        return "<" + " + ".join(bits) + ">"


# ----------------------------------------------------------------------
# state specifications

class StateSpec(Record):
    """A state given by its restriction to the periodicity group.

    components lists the atoms (weight, turns) of a probability measure on
    the characters psi(g) = prod_i z_i^{g_i}, z_i = e^{2 pi i t_i}, with the
    rotations t_i in full turns (Fraction => exact when a multiple of a
    quarter turn, float otherwise).  kind "character" is one atom of weight
    1, "mixture" a finite convex combination, and "haar" (psi(g) =
    delta_{g,0}, the averaging state) has none: it is Haar measure.
    """

    kind: str
    components: tuple = ()

    @staticmethod
    def haar():
        return StateSpec(kind="haar")

    @staticmethod
    def character(turns):
        turns = tuple(turns)
        for t in turns:
            if not (isinstance(t, (int, float, Fraction))
                    and abs(t) < math.inf):
                raise InputFormatError(f"bad rotation {t!r}")
        return StateSpec(kind="character", components=((1, turns),))

    @staticmethod
    def mixture(pairs):
        pairs = tuple((w, StateSpec.character(ts).turns) for w, ts in pairs)
        if not pairs:
            raise InputFormatError("a mixture needs at least one component")
        if len({len(ts) for _, ts in pairs}) > 1:
            raise InputFormatError("mixture components differ in length")
        total = add_up(w for w, _ in pairs)
        # NaN and infinite weights fail both tests
        if not (is_zero(total - 1, 1e-9) and all(w > 0 for w, _ in pairs)):
            raise InputFormatError("mixture weights must be positive and "
                                   "sum to 1")
        return StateSpec(kind="mixture", components=pairs)

    @property
    def turns(self):
        """The rotations of a character; None for the other kinds."""
        return self.components[0][1] if self.kind == "character" else None

    @cached_property
    def is_exact(self):
        """True when every psi value is a Gaussian rational: every weight
        is rational and every rotation a multiple of a quarter turn."""
        return all(isinstance(w, (int, Fraction))
                   and all(isinstance(t, (int, Fraction))
                           and (4 * Fraction(t)).denominator == 1 for t in ts)
                   for w, ts in self.components)

    @cached_property
    def _quarters(self):
        """An exact state's rotations per atom, in quarter turns."""
        return [tuple(int(4 * Fraction(t)) for t in ts)
                for _, ts in self.components]

    def psi(self, gvec):
        gvec = tuple(gvec)
        if self.kind == "haar":
            return QQi.of(1 if not any(gvec) else 0)
        total = None
        for i, (w, ts) in enumerate(self.components):
            if len(ts) != len(gvec):
                raise InputFormatError(f"state has {len(ts)} rotations but "
                                       f"the graph has {len(gvec)} colors")
            if self.is_exact:
                value = QQi.quarter_turn(sum(
                    q * gi for q, gi in zip(self._quarters[i], gvec)))
            else:
                angle = 2.0 * math.pi * add_up(float(t) * gi
                                               for t, gi in zip(ts, gvec))
                value = cmath.exp(1j * angle)
            # a character's weight is 1, and (-0j) * 1 is 0j: leave it out
            if self.kind == "mixture":
                value = value * w
            total = value if total is None else total + value
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


# ----------------------------------------------------------------------
# reports

class UnitaryIdentitiesReport(Record):
    group_elements: tuple
    checks: tuple          # (label, passed) pairs
    passed: bool


class KMSCheckReport(Record):
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


class ToeplitzReport(Record):
    beta: float
    r: tuple
    gaps: tuple            # beta*r_i - ln(rho_i) per color
    exists: bool
    factors_through_quotient: bool


class PhaseReport(Record):
    beta: object
    applicable: bool
    reason: str            # empty when applicable
    extreme_points: object  # int, the token "infinite", or None


# ----------------------------------------------------------------------
# the state family over one graph

class KMSStates:
    """Equilibrium-state evaluation for one strongly connected graph.

    Builds the cylinder measure of the Perron data, keeps an optional
    precomputed periodicity group, and caches the periodicity decisions that
    the state formulas need.
    """

    def __init__(self, graph, perron, group=None):
        graph.require_strongly_connected()
        self.graph = graph
        self.measure = CylinderMeasure(graph, perron)
        self.group = group
        self._periodic_cache = {}
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
        """theta_{m,n} by the prefix law p -> (p.lam)(0, n), lam the first
        path of s(p)Lambda^{(n-m)+} (see kgraphs.periodicity).  Raises
        NotPeriodicError for a non-periodic m - n, as the map does for a
        path whose degree is not m."""
        g, m, n = self.graph, tuple(m), tuple(n)
        if not self.periodic(dg.sub(m, n)):
            raise NotPeriodicError(f"shifts by {m} and {n} disagree; "
                                   f"{dg.sub(m, n)} is not periodic")
        step = dg.sub(dg.join(m, n), m)

        def law(p):
            lams = p.degree == m and g.paths_of_degree(step, range=p.source)
            if not lams:
                raise NotPeriodicError(f"{p.literal()} is not a degree-{m} "
                                       f"path of this graph")
            return g.factorize(g.compose(p, lams[0]), n)[0]
        return law

    def _zero(self, state):
        return QQi.of(0) if (self.measure.exact and state.is_exact) else 0j

    # -- state evaluation -----------------------------------------------

    def phi_eval(self, state, mu, nu, theta_blind=False):
        """phi(s_mu s*_nu): psi(d(mu)-d(nu)) * rho^{-d(mu)} * x_{s(mu)} when
        the degree difference is periodic and the shift-agreement bijection
        sends mu to nu, that is, when Lambda^min(mu, nu) is non-empty (see
        kgraphs.periodicity); zero otherwise.

        theta_blind drops the bijection condition -- a deliberately wrong
        functional used as a negative control for kms_check.
        """
        if mu.source != nu.source:
            raise InputFormatError("phi is defined on span terms, which "
                                   "need a common source")
        gvec = dg.sub(mu.degree, nu.degree)
        if self.periodic(gvec) and (theta_blind
                                    or self.graph.lambda_min(mu, nu)):
            return state.psi(gvec) * self.measure.mass(mu)
        return self._zero(state)

    def phi_apply(self, state, elem, theta_blind=False):
        """Linear extension of phi_eval to algebra elements."""
        return add_up((coeff * self.phi_eval(state, mu, nu,
                                             theta_blind=theta_blind)
                       for (mu, nu), coeff in elem.terms.items()),
                      self._zero(state))

    # -- central unitaries ----------------------------------------------

    def unitary(self, gvec):
        """U_g = sum over mu in Lambda^{g+} of s_mu s*_{theta(mu)}; the
        theta map refuses a g that is not periodic."""
        gvec = tuple(gvec)
        pos = dg.pos_part(gvec)
        law = self.theta_map(pos, dg.neg_part(gvec))
        return AlgebraElement(self.graph, {
            (mu, law(mu)): 1 for mu in self.graph.paths_of_degree(pos)})

    def unitary_identities(self, max_degree):
        """Exact element-level checks for the unitaries indexed by the
        periodicity vectors in the box [-D, D]^k: the group law
        U_g U_h = U_{g+h}, adjoints U_g* = U_{-g}, unitarity U_g U_g* = 1,
        commutation with every edge generator, and the transport of range
        projections s_mu s*_mu = s_{theta(mu)} s*_{theta(mu)}."""
        g = self.graph
        D = _degree_box(max_degree, g.k)
        elements = [v for v in dg.box(dg.neg(D), D) if self.periodic(v)]
        # the box is symmetric, and so is periodicity: -v is an element too
        unitaries = {v: self.unitary(v) for v in elements}
        ident = AlgebraElement.identity(g)
        generators = [(e.id, AlgebraElement.edge_generator(g, e.id))
                      for e in g.edges]
        checks = []

        def record(label, ok):
            checks.append((label, bool(ok)))

        record("U_0 = 1", unitaries[dg.zero(g.k)].equals(ident))
        for v in elements:
            u, u_neg = unitaries[v], unitaries[dg.neg(v)]
            record(f"U{v}* = U{dg.neg(v)}", u.adjoint().equals(u_neg))
            record(f"U{v} U{dg.neg(v)} = 1", (u * u_neg).equals(ident))
            for eid, s_e in generators:
                record(f"U{v} commutes with s[{eid}]",
                       (u * s_e).equals(s_e * u))
            if any(v):
                for mu, nu in unitaries[v].terms:
                    record(f"range projection transport {v} at "
                           f"{mu.literal()}", AlgebraElement.span(g, mu, mu)
                           .equals(AlgebraElement.span(g, nu, nu)))
        for va in elements:
            for vb in elements:
                w = dg.add(va, vb)   # may lie outside the box
                if w not in unitaries:
                    unitaries[w] = self.unitary(w)
                record(f"U{va} U{vb} = U{w}",
                       (unitaries[va] * unitaries[vb]).equals(unitaries[w]))
        return UnitaryIdentitiesReport(
            group_elements=tuple(elements), checks=tuple(checks),
            passed=all(ok for _, ok in checks))

    # -- the equilibrium identity over a degree box ---------------------

    def _support_contributions(self, box, theta_blind, scale):
        """Aggregate the support of the products by cell: the cylinder mass
        that each quadruple key (mu, nu, eta, zeta) of a cell has,

            phi(s_mu s*_nu s_eta s*_zeta)
                = sum over minimal common extensions nu.alpha = eta.beta
                  of phi(s_{mu.alpha} s*_{zeta.beta})
                = psi(g) * mass.

        One psi value covers the whole sum because the gauge action grades
        the algebra: d(alpha) - d(beta) = d(eta) - d(nu), so every term has
        the key's grade g = d(mu) - d(nu) + d(eta) - d(zeta).

        Every minimal pair arises from a path w (= nu.alpha) and a split of
        d(w) into the degrees of nu and eta (box.facs), so walking (w,
        split, mu, and the codomain degree of the bijection) enumerates the
        support completely: any quadruple never touched has phi = 0 on both
        sides of the equilibrium identity.  A class of mu (source, degree)
        fixes the mass of p = mu.alpha and the plan, the degrees
        d(zeta.beta') at which d(p) - d(zeta.beta') is periodic, and what a
        split adds is built once per (alpha, d(beta)), and s(eta) if blind.

        Honest, each key is a cell, zeta the head of theta(p) = (p.lam)(0,
        d(zeta.beta)) with tail beta, read by edges (see theta_map).
        Blind, the keys of (nu, eta, d(mu), d(zeta)) make a cell of one
        mass: every minimal pair has d(alpha) = d(nu) v d(eta) - d(nu), and
        without theta phi(s_{mu.alpha} s*_{zeta.beta}) is mass(mu.alpha) =
        rho^{-d(mu)-d(alpha)} x_{s(alpha)} if g is periodic, else 0, a test
        of degrees alone.  So the keys, the mu of the class (s(nu), d(mu))
        times the zeta of (s(eta), d(zeta)), sum the same terms in the same
        walk order, which the walk adds once per cell, bit for bit.

        A cell is the int ((c(mu) * n + nu) * n + eta) * n + c(zeta), for n
        box paths, with c(x) = x when honest and box.first[x] when blind,
        and maps to its mass times `scale`, an int for rational Perron data
        (see _scales).  Cells come in walk order, with their number of keys;
        more than graph.cap keys raise EnumerationCapError.
        """
        g = self.graph
        n = len(box.paths)
        cells = {}
        plans = {}      # (d(p), d(beta), s(eta) if blind, else s(p)) -> plan
        batches = {}    # blind (alpha, d(beta), s(eta)) -> {None: batch},
        #                 honest (alpha, d(beta), s(alpha)) -> {beta: batch}

        def plan_of(dp, dbeta, v):
            # honest: (n', edges of the first lam in vLambda^{(n' - d(p))+},
            # d(zeta)) per periodic d(p) - n', n' = d(zeta.beta'); blind:
            # zeta's classes
            plan = plans.get((dp, dbeta, v))
            if plan is None:
                plan = plans[dp, dbeta, v] = []
                for nzeta in box.degrees:
                    nprime = dg.add(nzeta, dbeta)
                    if self.periodic(dg.sub(dp, nprime)):
                        plan.extend(box.classes[v].get(nzeta, ())[:1]
                                    if theta_blind else
                                    [(nprime, g.paths_of_degree(dg.sub(
                                        dg.join(dp, nprime), dp), range=v)[0]
                                      .edges, nzeta)])
            return plan

        def batch(alpha, dbeta, v):
            # [(c(mu), c(zetas), mass)]: the mu with s(mu) = r(alpha)
            out = {}
            a, s = box.paths[alpha].edges, box.paths[alpha].source
            for dmu, mus in box.classes[box.paths[alpha].range].items():
                dp = dg.add(dmu, box.degree[alpha])
                plan = plan_of(dp, dbeta, v)
                if not plan:
                    continue
                mass = _scaled(self.measure.mass_at(dp, s), scale)
                if theta_blind:
                    out.setdefault(None, []).append((mus[0], plan, mass))
                    continue
                for mu in mus:  # p = mu.alpha by edges, as extensions
                    p = g._normalize(box.paths[mu].edges + a,
                                     len(box.paths[mu].edges))
                    for nprime, lam, nzeta in plan:  # theta(p) = zeta.tail
                        q = g._take(g._normalize([*p, *lam], len(p)),
                                    nprime)[0]
                        zeta, tail = box.split(q, nzeta, box.paths[mu].range,
                                               s)
                        out.setdefault(tail, []).append((mu, (zeta,), mass))
            return out

        for w, facs in enumerate(box.facs):
            for j1, j2 in box.pairs[box.degree[w]]:
                eta, beta = facs[j2]
                nu, alpha = facs[j1]
                at = (alpha, box.degree[beta],
                      box.paths[eta if theta_blind else alpha].source)
                hit = batches.get(at)
                if hit is None:
                    hit = batches[at] = batch(*at)
                for cmu, czetas, mass in hit.get(
                        None if theta_blind else beta, ()):
                    base = ((cmu * n + nu) * n + eta) * n
                    for czeta in czetas:
                        cell = base + czeta
                        cells[cell] = cells.get(cell, 0) + mass
            if len(cells) > g.cap:   # each cell holds a key or more
                break
        keys = sum(len(box.members[c // n ** 3]) * len(box.members[c % n])
                   for c in cells) if theta_blind else len(cells)
        if keys > g.cap:
            raise EnumerationCapError(f"KMS support exceeds cap {g.cap} keys")
        return cells, keys

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
        pair whose phi vanishes (see phi_eval) passes for every state; any
        other becomes its profile (d(mu) - d(nu), mass(mu), bound), counted.

        The pairs go by class pair (v, m, n) = (s(mu), d(mu), d(nu)), which
        fixes the periodicity and mass(mu); phi vanishes on all of a
        non-periodic one.  On a periodic one, mu.lam.y = theta(mu).lam.y for
        every infinite path y, so theta(mu.lam) = theta(mu).lam, and mu.lam
        and nu.lam share an extension exactly when nu.lam = theta(mu).lam
        (see kgraphs.periodicity): by unique factorization, when nu =
        theta(mu), whatever lam is.  theta maps the class (v, m) onto the
        class (v, n), so the class pair holds one pair (mu, theta(mu)) per
        mu, each with bound the mass of every mu.lam, and, blind, the other
        pairs with bound 0, where honest phi vanishes.  A color with an edge
        has one into every vertex, so vLambda^{(1,..,1)} is empty only when
        some color is; then every bound is 0, and the blind counts still
        cover the whole class pair."""
        ones, zero = (1,) * self.graph.k, self.measure.zero
        profiles = {}
        for v, here in box.classes.items():
            tails = self.graph.paths_of_degree(ones, range=v)
            for (dmu, mus), (dnu, nus) in [(a, b) for a in here.items()
                                           for b in here.items()]:
                gvec = dg.sub(dmu, dnu)
                if not self.periodic(gvec):
                    continue
                mass, top = self.measure.mass_at(dmu, v), dg.add(dmu, ones)
                full = add_up((self.measure.mass_at(top, lam.source)
                               for lam in tails), zero)
                others = len(mus) * (len(nus) - 1) if theta_blind else 0
                for bound, count in ((full, len(mus)), (zero, others)):
                    if count:
                        profiles[gvec, mass, bound] = profiles.get(
                            (gvec, mass, bound), 0) + count
        return profiles

    def _sweep_table(self, D, theta_blind):
        """State-independent half of kms_check: paths, pair count, profiles.

        A supported key and its swap share one grade g (see
        _support_contributions), so the identity for the key reads
        psi(g) L = rho^{-gamma} psi(g) R with L and R the masses of the key
        and of its swap, gamma = d(mu) - d(nu), and the per-key obligation
        is the difference profile (g, L - rho^{-gamma} R).  Identical
        profiles impose identical obligations on every state, so they are
        deduplicated, keeping a count and up to 20 sample keys with their
        two masses; a zero difference means the key passes for every state.

        The table is that of a sweep over the keys in insertion order, each
        visited with its swap (eta, zeta, mu, nu) unless it was an earlier
        key's swap.  Counts and `checked` do not depend on that order and are
        summed by cell: every key adds its own direction, L its cell's mass and
        R its swap's; a key whose swap is unsupported also adds the swap's,
        with R = 0 (blind only: x -> mu.sigma^{d(nu)}(x) maps the agreement set
        {x in Z(nu) & Z(eta) : mu.sigma^{d(nu)}(x) = zeta.sigma^{d(eta)}(x)} of
        an honest key onto its swap's, and masses are positive); a key that is
        its own swap adds once.  The R of a blind cell's keys are the masses of
        the cells of class (c(eta), c(zeta), c(mu), c(nu)) and 0 for the rest,
        so a blind cell's share is fixed by its class quadruple and mass and
        counted once for every cell with both.
        Profile order and samples come from a replay in that order, mu by mu in
        each run of cells that share (c(mu), nu, eta), of the cells that can
        still meet a profile short of 20 samples: the others add none, as a
        key's swap direction is its swap's own.

        Profiles are keyed by the code of g, an int in radix 4 max(D) + 1
        that adds over (mu, nu) and (eta, zeta).  With rational Perron data
        the differences are summed as ints, S * T times their value (see
        _scales); one common multiplier leaves the deduplication unchanged.
        The table holds the profiles at their exact values and the sample
        masses times S, with mass_unit = 1/S.  The screen profiles (see
        _screen_profiles) sit beside them, so a state folds both kinds and
        never visits a path pair.
        """
        if (D, theta_blind) in self._sweep_cache:
            return self._sweep_cache[D, theta_blind]
        S, T = self._scales(D)
        box = _BoxIndex(self.graph, D)
        cells, support = self._support_contributions(box, theta_blind, S)
        n, nn = len(box.paths), len(box.paths) ** 2
        # each path's class and each class's paths: one path each if honest
        klass, members = (box.first, box.members) if theta_blind else (
            range(n), [(i,) for i in range(n)])
        radix = 4 * max(D) + 1
        grades = {sum(c * radix ** i for i, c in enumerate(gvec)): gvec
                  for gvec in dg.box(dg.scale(-2, D), dg.scale(2, D))}
        by_gamma = {gamma: (code, _scaled(dg.rho_power(self.measure.rho,
                                                       dg.neg(gamma)), T))
                    for code, gamma in grades.items()
                    if dg.leq(gamma, D) and dg.leq(dg.neg(gamma), D)}
        graded = {(m1, m2): by_gamma[dg.sub(m1, m2)]
                  for m1 in box.degrees for m2 in box.degrees}
        # packed (a, b) -> (code of gamma, T * rho^{-gamma}, packed (c(a),
        # c(b))) with gamma = d(a) - d(b)
        pairs = [(*graded[box.degree[a], box.degree[b]],
                  klass[a] * n + klass[b]) for a in range(n) for b in range(n)]
        groups = {}     # packed class quadruple -> {mass: cells}
        for cell, mass in cells.items() if theta_blind else ():
            h, l = divmod(cell, nn)
            hist = groups.setdefault(pairs[h][2] * nn + pairs[l][2], {})
            hist[mass] = hist.get(mass, 0) + 1
        counts = {}     # (code of g, diff) -> count
        met_by = {}     # cell -> the (code, diff) its keys and swaps meet
        known = {}      # blind (class quadruple, mass) -> the (code, diff) met
        checked = support   # and one per key with an unsupported swap
        for cell, left in cells.items():
            h, l = divmod(cell, nn)
            chigh, fhigh, hkey = pairs[h]
            clow, flow, lkey = pairs[l]
            if not theta_blind:
                met, hist = None, ((cells.get(lkey * nn + hkey, 0), 1),)
            elif (met := known.get((hkey * nn + lkey, left))) is not None:
                hist = ()
            else:   # the first cell of its quadruple and mass counts them all
                met = known[hkey * nn + lkey, left] = set()
                many = groups[hkey * nn + lkey][left]
                found = groups.get(lkey * nn + hkey, {})
                hist = [*((right, many * c) for right, c in found.items()),
                        (0, many * (len(members[h // n]) * len(
                            members[l % n]) - sum(found.values())))]
            for right, count in hist:
                own, other = T * left - fhigh * right, T * right - flow * left
                if not right:
                    checked += count
                if count and (own or other):
                    met = set() if met is None else met
                    for diff, tally in ((own, count),
                                        (other, 0 if right else count)):
                        if diff:
                            met.add((chigh + clow, diff))
                            counts[chigh + clow, diff] = counts.get(
                                (chigh + clow, diff), 0) + tally
            if met:
                met_by[cell] = met
        profiles = {}   # (code of g, diff) -> samples, in the order met
        full = set()    # the profiles with 20 samples
        seen = set()    # supported swaps already visited
        for top, run in groupby(met_by.items(), lambda item: item[0] // n):
            cm, nu, eta = top // nn, top // n % n, top % n
            run = [(cells[c], pairs[c // nn], pairs[c % nn], members[c % n])
                   for c, met in run if not met <= full]
            for mu in members[cm] if run else ():
                for left, (chigh, fhigh, _), (clow, flow, _), zetas in run:
                    for zeta in zetas:
                        key = ((mu * n + nu) * n + eta) * n + zeta
                        if key in seen:
                            continue
                        swap = ((eta * n + zeta) * n + mu) * n + nu
                        right = cells.get(((klass[eta] * n + zeta) * n + mu)
                                          * n + klass[nu], 0)
                        if right and swap != key:   # masses are positive
                            seen.add(swap)
                        for diff, sample in (
                                (T * left - fhigh * right, (key, left, right)),
                                (swap != key and T * right - flow * left,
                                 (swap, right, left))):
                            profile = (chigh + clow, diff)
                            if diff and profile not in full:
                                profiles.setdefault(profile, []).append(sample)
                                if len(profiles[profile]) == 20:
                                    full.add(profile)
        unit = Fraction(1, S * T)
        table = self._sweep_cache[D, theta_blind] = {
            "paths": box.paths,
            "matched_pairs": sum(sum(map(len, here.values())) ** 2
                                 for here in box.classes.values()),
            "profiles": {(grades[code], diff * unit): [counts[code, diff],
                                                        samples]
                         for (code, diff), samples in profiles.items()},
            "screen": self._screen_profiles(box, theta_blind),
            "checked": checked,
            "support": support,
            "mass_unit": Fraction(1, S),
        }
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
        paths, matched_pairs = table["paths"], table["matched_pairs"]
        n = len(paths)
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
                mu, nu, eta, zeta = (paths[key // n ** e % n]
                                     for e in (3, 2, 1, 0))
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
        if not abs(beta) < math.inf:
            raise InputFormatError(f"beta must be finite, not {beta}")
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

        Each atom of the state's measure moves (rotations add, weights
        stay); the averaging state has no atoms and is fixed.
        """
        if chi.kind != "character":
            raise InputFormatError("the acting element must be a character")
        return state.replace(components=tuple(
            (w, _add_turns(chi.turns, ts)) for w, ts in state.components))

    def states_equal(self, sa, sb):
        """Whether two state specifications induce the same state.

        A state at the critical inverse temperature is fixed by its psi on
        the periodicity group Per = Z^r, basis b_1..b_r.  With N atoms in
        the two states, psi_a - psi_b combines at most N characters, and it
        vanishes everywhere once it vanishes at each sum_j m_j b_j with
        0 <= m_j < N (Vandermonde, one axis at a time): the psi are compared
        there, within KMS_TOL.  The averaging state is no such combination,
        so it equals only itself, but on the trivial group (no basis) every
        specification gives the same state.
        """
        if self.group is None:
            raise InputFormatError("state comparison needs a computed "
                                   "periodicity group")
        basis = self.group.basis
        if not basis:
            return True
        for state in (sa, sb):
            state.psi(basis[0])   # refuses a wrong number of rotations
        if "haar" in (sa.kind, sb.kind):
            return sa.kind == sb.kind
        n = len(sa.components) + len(sb.components)
        if n ** len(basis) > self.graph.cap:
            raise EnumerationCapError(
                f"comparing {n} characters takes {n ** len(basis)} points, "
                f"exceeds cap {self.graph.cap}")
        points = (reduce(dg.add, map(dg.scale, ms, basis))
                  for ms in dg.degrees_below((n - 1,) * len(basis)))
        return all(is_zero(sa.psi(gv) - sb.psi(gv), KMS_TOL)
                   for gv in points)


class _BoxIndex:
    """The paths of the degree box [0, D], numbered 0..n-1: a degree's
    offset, degrees in lexicographic order, plus the path's index in
    paths_of_degree.  facs[i] holds the (head, tail) numbers of path i at
    each degree m <= d(path i) in that order; pairs[d] lists the (j1, j2)
    whose degrees join to d.  A class holds the paths of one source and
    degree: members maps its first path to them, first each path to it."""

    def __init__(self, graph, D):
        self.graph = graph
        self.degrees = dg.degrees_below(D)
        self.paths = [p for m in self.degrees
                      for p in graph.paths_of_degree(m)]
        self.degree = [p.degree for p in self.paths]
        self.classes = {}              # vertex -> {degree: numbers}
        for i, p in enumerate(self.paths):
            self.classes.setdefault(p.source, {}).setdefault(
                p.degree, []).append(i)
        self.pairs = {u: [(j1, j2) for j2, m2 in enumerate(dg.degrees_below(u))
                          for j1, m1 in enumerate(dg.degrees_below(u))
                          if dg.join(m1, m2) == u] for u in self.degrees}
        self._number = {p.edges or p.range: i
                        for i, p in enumerate(self.paths)}
        self.facs = [[self.split(p.edges, m, p.range, p.source)
                      for m in dg.degrees_below(p.degree)] for p in self.paths]
        self.members = {ix[0]: ix for here in self.classes.values()
                        for ix in here.values()}
        self.first = {i: c for c, ix in self.members.items() for i in ix}

    def split(self, edges, m, r, s):
        """The numbers of the head and tail at degree m of the path with these
        normal-form edges, range r and source s: by edges, or by vertex."""
        head, tail = self.graph._take(edges, m)
        return self._number[tuple(head) or r], self._number[tuple(tail) or s]


def _add_turns(ta, tb):
    if len(ta) != len(tb):
        raise InputFormatError("character dimension mismatch")
    return tuple((a + b) % 1 for a, b in zip(ta, tb))


def _degree_box(max_degree, k):
    D = (max_degree,) * k if type(max_degree) is int else max_degree
    if not dg.is_degree(D, k):
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

