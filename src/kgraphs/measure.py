"""The shift-invariant measure on the infinite-path space.

A cylinder Z(lam) (infinite paths extending lam) gets mass
rho^{-d(lam)} * x_{s(lam)} where rho and x are the joint Perron data.  The
module verifies Kolmogorov-style consistency, evaluates outer bounds for the
agreement sets {sigma^m = sigma^n} level by level, and quantifies the
geometric decay that forces those sets to be null for non-periodic (m, n):
a separating-tail witness (a, {lambda_v}, K) with the mass estimate
m_j <= K^j M(Z(mu)).

The level-l bound sums the paths xi of degree (m v n) + l(1,..,1) whose
strips xi(m, m + l e_i) and xi(n, n + l e_i) agree.  A level keeps each
survivor's source and its rests after m + l e_i and n + l e_i, so the next
level compares one new strip edge per color, as (xi t)(a, .) = xi(a, .) t.

All masses are exact Fractions whenever the Perron data is rational; only the
golden-ratio-type fixtures fall back to floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import degrees as dg
from .errors import EnumerationCapError, InputFormatError, WitnessSearchError
from .scalars import CONSISTENCY_TOL, check_tol

FLOAT_SLACK = 1e-12


class CylinderMeasure:
    """Masses of cylinder sets, exact when the Perron data is."""

    def __init__(self, graph, pd):
        if tuple(pd.labels) != tuple(graph.vertices):
            raise InputFormatError("Perron data does not index this graph's "
                                   "vertices")
        self.graph = graph
        self.exact = pd.exact
        self.rho = pd.rho_values()
        self.x = dict(zip(pd.labels, pd.x_values()))
        self.zero, self.one = ((Fraction(0), Fraction(1)) if self.exact
                               else (0.0, 1.0))
        self._masses = {}   # (degree, source) -> mass

    def mass(self, path):
        """M(Z(path)) = rho^{-d} * x at the source."""
        return self.mass_at(path.degree, path.source)

    def mass_at(self, degree, source):
        """The mass of every cylinder Z(p) with d(p) = degree and
        s(p) = source, computed once per pair."""
        key = (degree, source)
        hit = self._masses.get(key)
        if hit is None:
            hit = dg.rho_power(self.rho, dg.neg(degree)) * self.x[source]
            self._masses[key] = hit
        return hit

    def total_mass(self, n):
        return sum(self.mass(p) for p in self.graph.paths_of_degree(n))


@dataclass(frozen=True)
class ConsistencyReport:
    m: tuple
    n: tuple
    exact: bool
    max_refinement_error: float
    total_mass_error: float
    passed: bool


def consistency_check(cm, m, n, tol=CONSISTENCY_TOL):
    """Refining every degree-m cylinder into its degree-n extensions must
    preserve mass, and Lambda^n must carry total mass 1."""
    check_tol(tol)
    m, n = tuple(m), tuple(n)
    if not (dg.is_nonneg(m) and dg.leq(m, n)):
        raise InputFormatError(f"need 0 <= {m} <= {n}")
    g = cm.graph
    step = dg.sub(n, m)
    slack = 0 if cm.exact else tol
    max_err = cm.zero
    for lam in g.paths_of_degree(m):
        refined = sum(cm.mass_at(n, t.source)   # the mass of lam.t
                      for t in g.paths_of_degree(step, range=lam.source))
        max_err = max(max_err, abs(refined - cm.mass(lam)))
    total_err = abs(cm.total_mass(n) - 1)
    return ConsistencyReport(m=m, n=n, exact=cm.exact,
                             max_refinement_error=float(max_err),
                             total_mass_error=float(total_err),
                             passed=max_err <= slack and total_err <= slack)


def _extend_level(g, l, survivors):
    """One refinement round: a level-(l-1) survivor xi, kept as its source
    and per color its rests after m + (l-1)e_i and n + (l-1)e_i, grows by
    every degree-(1,..,1) tail t, and xi.t survives when each color's new
    strip edge after m matches the one after n."""
    ones = (1,) * g.k
    units = [dg.unit(g.k, color) for color in range(1, g.k + 1)]
    nxt = []
    for source, rests in survivors:
        for t in g.paths_of_degree(ones, range=source):
            grown = []
            for e_i, (rest_m, rest_n) in zip(units, rests):
                e_m, rest_m = g.split_strip(rest_m, t.edges, e_i)
                e_n, rest_n = g.split_strip(rest_n, t.edges, e_i)
                if e_m != e_n:
                    break
                grown.append((rest_m, rest_n))
            else:
                nxt.append((t.source, grown))
        if len(nxt) > g.cap:
            raise EnumerationCapError(
                f"level-{l} survivor set exceeds cap {g.cap}")
    return nxt


def periodicity_mass_profile(cm, m, n, max_level):
    """Outer-bound masses of {sigma^m = sigma^n} at levels 0..max_level.

    Decreasing in the level; identically 1 exactly when m - n is periodic."""
    m, n = tuple(m), tuple(n)
    if not (dg.is_nonneg(m) and dg.is_nonneg(n)):
        raise InputFormatError("shift degrees must be nonnegative")
    g = cm.graph
    jn = dg.join(m, n)
    survivors = [(p.source, [(g.factorize(p, m)[1].edges,
                              g.factorize(p, n)[1].edges)] * g.k)
                 for p in g.paths_of_degree(jn)]
    out = []
    for l in range(max_level + 1):
        survivors = _extend_level(g, l, survivors) if l else survivors
        out.append(sum((cm.mass_at(dg.add(jn, (l,) * g.k), source)
                        for source, _ in survivors), cm.zero))
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


def agreement_mass(cm, mu, nu, level, group=None):
    """Mass of {x : x = mu.y = nu.y}: the closed form (M(Z(mu)) when
    d(mu)-d(nu) is periodic and theta(mu) = nu, else 0) next to the level-L
    outer bound from finite cylinders."""
    from .periodicity import decide_periodic, theta

    g = cm.graph
    if mu.source != nu.source:
        raise InputFormatError("mu and nu must share a source vertex")
    gvec = dg.sub(mu.degree, nu.degree)
    periodic = decide_periodic(g, group, gvec)
    matched = None
    closed = cm.zero
    if periodic:
        th = theta(g, mu.degree, nu.degree, pre_checked=True)
        matched = th(mu) == nu
        if matched:
            closed = cm.mass(mu)
    # mu.a = nu.b has rest a after d(mu) and rest b after d(nu)
    survivors = [(a.source, [(a.edges, b.edges)] * g.k)
                 for a, b in g.lambda_min(mu, nu)]
    for l in range(1, level + 1):
        survivors = _extend_level(g, l, survivors)
    top = dg.add(dg.join(mu.degree, nu.degree), (level,) * g.k)
    bound = sum((cm.mass_at(top, source) for source, _ in survivors), cm.zero)
    return AgreementReport(mu=mu, nu=nu, periodic=periodic,
                           theta_matched=matched, closed_form=closed,
                           level=level, level_bound=bound)


@dataclass(frozen=True)
class DecayWitness:
    g: tuple
    a: tuple
    tails: dict       # vertex -> path in vLambda^a
    K: object         # Fraction or float, 0 <= K < 1


def find_decay_witness(cm, gvec, a_max=6):
    """Search for separating tails: a degree a and one tail lambda_v per
    vertex such that mu.lambda_v and nu.lambda_v never share an extension
    for mu in Lambda^{g+}v, nu in Lambda^{g-}v.  Candidates are tried in
    increasing |a|_1 then lexicographic order; tails likewise."""
    g = cm.graph
    gvec = tuple(gvec)
    if not any(gvec):
        raise InputFormatError("witness search needs a nonzero difference")
    pos, neg = dg.pos_part(gvec), dg.neg_part(gvec)
    cands = [a for a in dg.degrees_below((a_max,) * g.k) if any(a)]
    cands.sort(key=lambda a: (sum(a), a))
    for a in cands:
        tails = {}
        for v in g.vertices:
            mus = g.paths_of_degree(pos, source=v)
            nus = g.paths_of_degree(neg, source=v)
            pick = None
            for lam in g.paths_of_degree(a, range=v):
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
            K = max(cm.one - cm.mass(tails[v]) / cm.x[v]
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


def decay_check(cm, witness, mu, nu, j_max):
    """Verify m_j <= K^j M(Z(mu)) where m_j is the mass still shared by mu
    and nu after j rounds of witness-degree extensions.

    A common extension of mu.lam.t and nu.lam.t is one of mu.lam and
    nu.lam, so round j tests only KGraph.extensions of round j - 1's shared
    tails; the others add nothing to m_j.  The shared tails are still
    summed in canonical path order, so float masses come out the same."""
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
    kpow = cm.one
    alive = None    # edges of the extensions of the last round's shared tails
    for j in range(j_max + 1):
        ja = dg.scale(j, witness.a)
        mj = cm.zero
        shared = []
        for lam in g.paths_of_degree(ja, range=mu.source):
            if alive is not None and lam.edges not in alive:
                continue
            mu_lam = g.compose(mu, lam)
            if g.lambda_min(mu_lam, g.compose(nu, lam)):
                mj += cm.mass(mu_lam)
                shared.append(lam)
        alive = set().union(*(g.extensions(lam, dg.add(ja, witness.a))
                              for lam in shared))
        masses.append(mj)
        bounds.append(kpow * base)
        kpow = kpow * witness.K
    slack = 0 if cm.exact else FLOAT_SLACK
    passed = all(mj <= b + slack for mj, b in zip(masses, bounds))
    return DecayReport(g=witness.g, a=witness.a, K=witness.K,
                       masses=tuple(masses), bounds=tuple(bounds),
                       exact=cm.exact, passed=passed)
