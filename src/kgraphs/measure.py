"""The shift-invariant measure on the infinite-path space.

A cylinder Z(lam) (infinite paths extending lam) gets mass
rho^{-d(lam)} * x_{s(lam)} where rho and x are the joint Perron data.  The
module verifies Kolmogorov-style consistency, evaluates outer bounds for the
agreement sets {sigma^m = sigma^n} level by level, and quantifies the
geometric decay that forces those sets to be null for non-periodic (m, n):
a separating-tail witness (a, {lambda_v}, K) with the mass estimate
m_j <= K^j M(Z(mu)).

All masses are exact Fractions whenever the Perron data is rational; only the
golden-ratio-type fixtures fall back to floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import degrees as dg
from .errors import EnumerationCapError, InputFormatError, WitnessSearchError
from .graphs import ENUM_CAP

CONSISTENCY_TOL = 1e-10
FLOAT_SLACK = 1e-12


class CylinderMeasure:
    """Masses of cylinder sets, exact when the Perron data is."""

    def __init__(self, graph, pd):
        if tuple(pd.labels) != tuple(graph.vertices):
            raise InputFormatError("Perron data does not index this graph's "
                                   "vertices")
        self.graph = graph
        self.perron = pd
        self.exact = pd.exact
        self.rho = pd.rho_values()
        self.x = dict(zip(pd.labels, pd.x_values()))

    def vertex_mass(self, v):
        return self.x[v]

    def mass(self, path):
        """M(Z(path)) = rho^{-d} * x at the source."""
        return dg.rho_power(self.rho, dg.neg(path.degree)) * self.x[path.source]

    def total_mass(self, n, cap=ENUM_CAP):
        return sum(self.mass(p) for p in self.graph.paths_of_degree(n, cap=cap))


@dataclass(frozen=True)
class ConsistencyReport:
    m: tuple
    n: tuple
    exact: bool
    max_refinement_error: float
    total_mass_error: float
    passed: bool


def consistency_check(cm, m, n, tol=CONSISTENCY_TOL, cap=ENUM_CAP):
    """Refining every degree-m cylinder into its degree-n extensions must
    preserve mass, and Lambda^n must carry total mass 1."""
    m, n = tuple(m), tuple(n)
    if not (dg.is_nonneg(m) and dg.leq(m, n)):
        raise InputFormatError(f"need 0 <= {m} <= {n}")
    g = cm.graph
    step = dg.sub(n, m)
    max_err = 0.0
    worst_exact = True
    for lam in g.paths_of_degree(m, cap=cap):
        refined = sum(cm.mass(g.compose(lam, t))
                      for t in g.paths_of_degree(step, range=lam.source,
                                                 cap=cap))
        diff = refined - cm.mass(lam)
        if cm.exact:
            worst_exact = worst_exact and diff == 0
        max_err = max(max_err, abs(float(diff)))
    total = cm.total_mass(n, cap=cap)
    total_err = abs(float(total - 1))
    if cm.exact:
        worst_exact = worst_exact and total == 1
        passed = worst_exact
    else:
        passed = max_err <= tol and total_err <= tol
    return ConsistencyReport(m=m, n=n, exact=cm.exact,
                             max_refinement_error=max_err,
                             total_mass_error=total_err, passed=passed)


def _extend_level(cm, m, n, l, survivors, cap):
    """One refinement round: grow each level-(l-1) survivor by every
    degree-(1,..,1) tail and keep those passing the new color-strip
    conditions segment(xi, m, m + l e_i) = segment(xi, n, n + l e_i).
    Earlier conditions are inherited from the survivor prefix."""
    g = cm.graph
    k = g.k
    ones = (1,) * k
    nxt = []
    for xi in survivors:
        for t in g.paths_of_degree(ones, range=xi.source, cap=cap):
            cand = g.compose(xi, t)
            ok = True
            for color in range(1, k + 1):
                strip = dg.scale(l, dg.unit(k, color))
                if g.segment(cand, m, dg.add(m, strip)) != \
                        g.segment(cand, n, dg.add(n, strip)):
                    ok = False
                    break
            if ok:
                nxt.append(cand)
        if len(nxt) > cap:
            raise EnumerationCapError(
                f"level-{l} survivor set exceeds cap {cap}")
    return nxt


def _shift_agreement_survivors(cm, m, n, level, initial, cap):
    survivors = list(initial)
    for l in range(1, level + 1):
        survivors = _extend_level(cm, m, n, l, survivors, cap)
    return survivors


def periodicity_mass_profile(cm, m, n, max_level, cap=ENUM_CAP):
    """Outer-bound masses of {sigma^m = sigma^n} at levels 0..max_level.

    Decreasing in the level; identically 1 exactly when m - n is periodic."""
    m, n = tuple(m), tuple(n)
    if not (dg.is_nonneg(m) and dg.is_nonneg(n)):
        raise InputFormatError("shift degrees must be nonnegative")
    survivors = cm.graph.paths_of_degree(dg.join(m, n), cap=cap)
    zero = Fraction(0) if cm.exact else 0.0
    out = [sum((cm.mass(p) for p in survivors), zero)]
    for l in range(1, max_level + 1):
        survivors = _extend_level(cm, m, n, l, survivors, cap)
        out.append(sum((cm.mass(p) for p in survivors), zero))
    return out


@dataclass(frozen=True)
class AgreementReport:
    mu: object
    nu: object
    periodic: bool
    theta_matched: bool    # None when not periodic
    closed_form: object    # Fraction or float
    level: int
    level_bound: object


def agreement_mass(cm, mu, nu, level, group=None, cap=ENUM_CAP):
    """Mass of {x : x = mu.y = nu.y}: the closed form (M(Z(mu)) when
    d(mu)-d(nu) is periodic and theta(mu) = nu, else 0) next to the level-L
    outer bound from finite cylinders."""
    from .periodicity import decide_periodic, theta

    g = cm.graph
    if mu.source != nu.source:
        raise InputFormatError("mu and nu must share a source vertex")
    gvec = dg.sub(mu.degree, nu.degree)
    periodic = decide_periodic(g, group, gvec, cap=cap)
    zero = Fraction(0) if cm.exact else 0.0
    matched = None
    closed = zero
    if periodic:
        th = theta(g, mu.degree, nu.degree, pre_checked=True, cap=cap)
        matched = th(mu) == nu
        if matched:
            closed = cm.mass(mu)
    initial = [g.compose(mu, a) for a, _ in g.lambda_min(mu, nu)]
    survivors = _shift_agreement_survivors(cm, mu.degree, nu.degree, level,
                                           initial, cap)
    bound = sum((cm.mass(p) for p in survivors), zero)
    return AgreementReport(mu=mu, nu=nu, periodic=periodic,
                           theta_matched=matched, closed_form=closed,
                           level=level, level_bound=bound)


@dataclass(frozen=True)
class DecayWitness:
    g: tuple
    a: tuple
    tails: dict       # vertex -> path in vLambda^a
    K: object         # Fraction or float, 0 <= K < 1


def find_decay_witness(cm, gvec, a_max=6, cap=ENUM_CAP):
    """Search for separating tails: a degree a and one tail lambda_v per
    vertex such that mu.lambda_v and nu.lambda_v never share an extension
    for mu in Lambda^{g+}v, nu in Lambda^{g-}v.  Candidates are tried in
    increasing |a|_1 then lexicographic order; tails likewise."""
    g = cm.graph
    gvec = tuple(gvec)
    if not any(gvec):
        raise InputFormatError("witness search needs a nonzero difference")
    pos, neg = dg.pos_part(gvec), dg.neg_part(gvec)
    cands = [a for a in dg.box(dg.zero(g.k), (a_max,) * g.k) if any(a)]
    cands.sort(key=lambda a: (sum(a), a))
    for a in cands:
        tails = {}
        for v in g.vertices:
            mus = g.paths_of_degree(pos, source=v, cap=cap)
            nus = g.paths_of_degree(neg, source=v, cap=cap)
            pick = None
            for lam in g.paths_of_degree(a, range=v, cap=cap):
                separated = all(
                    not g.lambda_min(g.compose(mu, lam), g.compose(nu, lam))
                    for mu in mus for nu in nus)
                if separated:
                    pick = lam
                    break
            if pick is None:
                break
            tails[v] = pick
        else:
            one = Fraction(1) if cm.exact else 1.0
            K = max(one - cm.mass(tails[v]) / cm.vertex_mass(v)
                    for v in g.vertices)
            return DecayWitness(g=gvec, a=a, tails=tails, K=K)
    raise WitnessSearchError(
        f"no separating-tail witness for {gvec} with degree bound {a_max}; "
        f"larger bounds may still succeed")


@dataclass(frozen=True)
class DecayReport:
    g: tuple
    a: tuple
    K: object
    masses: tuple     # m_j for j = 0..j_max
    bounds: tuple     # K^j * M(Z(mu))
    exact: bool
    passed: bool


def decay_check(cm, witness, mu, nu, j_max, cap=ENUM_CAP):
    """Verify m_j <= K^j M(Z(mu)) where m_j is the mass still shared by mu
    and nu after j rounds of witness-degree extensions."""
    g = cm.graph
    if mu.source != nu.source:
        raise InputFormatError("mu and nu must share a source vertex")
    if dg.sub(mu.degree, nu.degree) != witness.g:
        raise InputFormatError(
            f"degree difference {dg.sub(mu.degree, nu.degree)} does not "
            f"match the witness difference {witness.g}")
    masses = []
    bounds = []
    base = cm.mass(mu)
    kpow = Fraction(1) if cm.exact else 1.0
    zero = Fraction(0) if cm.exact else 0.0
    for j in range(j_max + 1):
        ja = dg.scale(j, witness.a)
        mj = zero
        for lam in g.paths_of_degree(ja, range=mu.source, cap=cap):
            if g.lambda_min(g.compose(mu, lam), g.compose(nu, lam)):
                mj += cm.mass(g.compose(mu, lam))
        masses.append(mj)
        bounds.append(kpow * base)
        kpow = kpow * witness.K
    slack = 0 if cm.exact else FLOAT_SLACK
    passed = all(float(mj) <= float(b) + slack
                 for mj, b in zip(masses, bounds))
    return DecayReport(g=witness.g, a=witness.a, K=witness.K,
                       masses=tuple(masses), bounds=tuple(bounds),
                       exact=cm.exact, passed=passed)
