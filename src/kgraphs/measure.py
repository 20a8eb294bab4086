"""The shift-invariant measure on the infinite-path space.

A cylinder Z(lam) (infinite paths extending lam) gets mass
rho^{-d(lam)} * x_{s(lam)} where rho and x are the joint Perron data.  The
module verifies Kolmogorov-style consistency, evaluates outer bounds for the
agreement sets {sigma^m = sigma^n} level by level, and quantifies the
geometric decay that forces those sets to be null for non-periodic (m, n):
a separating-tail witness (a, {lambda_v}, K) with the mass estimate
m_j <= K^j M(Z(mu)).

The level-l bound sums the paths xi of degree (m v n) + l(1,..,1) whose
strips xi(m, m + l e_i) and xi(n, n + l e_i) agree.  A level lists ids of
interned survivor states, a source and per color the rests after m + l e_i
and n + l e_i; each state's children, which compare one new strip edge per
color as (xi t)(a, .) = xi(a, .) t, are found once.  A level's mass is
sum_v count_v M(v), or a left-to-right float sum over its survivors.

All masses are exact Fractions whenever the Perron data is rational; only the
golden-ratio-type fixtures fall back to floats.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product, starmap

from . import degrees as dg
from .errors import (CompositionError, EnumerationCapError, InputFormatError,
                     Record, WitnessSearchError)
from .scalars import (CONSISTENCY_TOL, add_up, check_count, check_tol,
                      is_zero)

FLOAT_SLACK = 1e-12


class CylinderMeasure:
    """Masses of cylinder sets, exact when the Perron data is."""

    def __init__(self, graph, pd):
        if tuple(pd.labels) != tuple(graph.vertices) or \
                len(pd.rho) != graph.k:
            raise InputFormatError("Perron data does not index this graph's "
                                   "vertices and colors")
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
        s(p) = source, computed once per pair; each new pair is checked."""
        key = (degree, source)
        try:
            hit = self._masses.get(key)
        except TypeError:   # unhashable, as a list: check_degree refuses it
            hit = None
        if hit is None:
            dg.check_degree(degree, self.graph.k)
            if not isinstance(source, str) or source not in self.x:
                raise CompositionError(f"vertex {source!r} not in this graph")
            hit = dg.rho_power(self.rho, dg.neg(degree)) * self.x[source]
            self._masses[key] = hit
        return hit

    def total_mass(self, n):
        return add_up(self.mass(p) for p in self.graph.paths_of_degree(n))


class ConsistencyReport(Record):
    m: tuple
    n: tuple
    exact: bool
    max_refinement_error: float
    total_mass_error: float
    passed: bool


def consistency_check(cm, m, n, tol=CONSISTENCY_TOL):
    """Refining every degree-m cylinder into its degree-n extensions must
    preserve mass, and Lambda^n must carry total mass 1.  Both masses depend
    on a cylinder Z(lam) only through s(lam): refined once per source."""
    check_tol(tol)
    g = cm.graph
    if not dg.leq(dg.check_degree(m, g.k), dg.check_degree(n, g.k)):
        raise InputFormatError(f"need 0 <= {m} <= {n}")
    step = dg.sub(n, m)
    max_err = cm.zero
    for v in dict.fromkeys(lam.source for lam in g.paths_of_degree(m)):
        refined = add_up(cm.mass_at(n, t.source)   # the mass of lam.t
                         for t in g.paths_of_degree(step, range=v))
        max_err = max(max_err, abs(refined - cm.mass_at(m, v)))
    total_err = abs(cm.total_mass(n) - 1)
    return ConsistencyReport(m=m, n=n, exact=cm.exact,
                             max_refinement_error=float(max_err),
                             total_mass_error=float(total_err),
                             passed=is_zero(max_err, tol)
                             and is_zero(total_err, tol))


def _level_masses(cm, jn, firsts, max_level):
    """Yield the masses of levels 0..max_level from the level-0 states."""
    g = cm.graph
    units = [dg.unit(g.k, color) for color in range(1, g.k + 1)]
    ids, kids = {}, {}      # state -> id, in order; id -> its children's ids
    tails = {}  # vertex -> (edges, source) of its (1,..,1) tails, if used
    for t in g.paths_of_degree((1,) * g.k) if max_level and firsts else ():
        tails.setdefault(t.range, []).append((t.edges, t.source))
    level = [ids.setdefault(state, len(ids)) for state in firsts]
    for l in range(max_level + 1):
        if l:
            nxt = []
            for i in level:
                if i not in kids:
                    kids[i] = [ids.setdefault(child, len(ids)) for child
                               in _children(g, units, tails, *states[i])]
                nxt += kids[i]
                if len(nxt) > g.cap:
                    raise EnumerationCapError(
                        f"level-{l} survivor set exceeds cap {g.cap}")
            level = nxt
        states = list(ids)
        top = dg.add(jn, (l,) * g.k)
        sources = [states[i][0] for i in level]
        if cm.exact:    # a sum of Fractions is the same in any order
            yield add_up((n * cm.mass_at(top, v)
                          for v, n in Counter(sources).items()), cm.zero)
        else:
            yield add_up((cm.mass_at(top, v) for v in sources), cm.zero)


def _children(g, units, tails, source, rests):
    """The states of xi.t for the tails t of a survivor xi in this state."""
    for edges, end in tails.get(source, ()):
        grown = []
        for e_i, (rest_m, rest_n) in zip(units, rests):
            e_m, rest_m = g.split_strip(rest_m, edges, e_i)
            e_n, rest_n = g.split_strip(rest_n, edges, e_i)
            if e_m != e_n:
                break
            grown.append((tuple(rest_m), tuple(rest_n)))
        else:
            yield end, tuple(grown)


def periodicity_mass_profile(cm, m, n, max_level):
    """Outer-bound masses of {sigma^m = sigma^n} at levels 0..max_level.

    Decreasing in the level; identically 1 exactly when m - n is periodic."""
    g = cm.graph
    jn = dg.join(dg.check_degree(m, g.k, "shift degree"),
                 dg.check_degree(n, g.k, "shift degree"))
    check_count(max_level, "level")
    return list(_level_masses(cm, jn, [
        (p.source, ((g.factorize(p, m)[1].edges,
                     g.factorize(p, n)[1].edges),) * g.k)
        for p in g.paths_of_degree(jn)], max_level))


class AgreementReport(Record):
    mu: object
    nu: object
    periodic: bool
    theta_matched: bool    # None when not periodic
    closed_form: object    # Fraction or float
    level: int
    level_bound: object


def agreement_mass(cm, mu, nu, level, group=None):
    """Mass of {x : x = mu.y = nu.y}: the closed form (M(Z(mu)) when
    d(mu)-d(nu) is periodic and theta(mu) = nu, which holds exactly when
    Lambda^min(mu, nu) is non-empty, else 0) next to the level-L outer
    bound from finite cylinders."""
    from .periodicity import decide_periodic

    g = cm.graph
    check_count(level, "level")
    if mu.source != nu.source:
        raise InputFormatError("mu and nu must share a source vertex")
    gvec = dg.sub(mu.degree, nu.degree)
    periodic = decide_periodic(g, group, gvec)
    mins = g.lambda_min(mu, nu)
    matched = bool(mins) if periodic else None
    closed = cm.mass(mu) if matched else cm.zero
    # mu.a = nu.b has rest a after d(mu) and rest b after d(nu)
    *_, bound = _level_masses(cm, dg.join(mu.degree, nu.degree),
                              [(a.source, ((a.edges, b.edges),) * g.k)
                               for a, b in mins], level)
    return AgreementReport(mu=mu, nu=nu, periodic=periodic,
                           theta_matched=matched, closed_form=closed,
                           level=level, level_bound=bound)


class DecayWitness(Record):
    g: tuple
    a: tuple
    tails: dict       # vertex -> path in vLambda^a
    K: object         # Fraction or float, 0 <= K < 1


def find_decay_witness(cm, gvec, a_max=6):
    """Search for separating tails: a degree a and one tail lambda_v per
    vertex such that mu.lambda_v and nu.lambda_v never share an extension
    for mu in Lambda^{g+}v, nu in Lambda^{g-}v.  Candidates are tried in
    increasing |a|_1 then lexicographic order; tails likewise."""
    check_count(a_max, "a_max")
    g = cm.graph
    if not any(dg.check_vector(gvec, g.k)):
        raise InputFormatError("witness search needs a nonzero difference")
    pos, neg = dg.pos_part(gvec), dg.neg_part(gvec)
    cands = [a for a in dg.degrees_below((a_max,) * g.k) if any(a)]
    cands.sort(key=lambda a: (sum(a), a))
    ends = {}   # (degree, vertex) -> the paths of that degree and source
    for p in g.paths_of_degree(pos) + g.paths_of_degree(neg) if cands else ():
        ends.setdefault((p.degree, p.source), []).append(p)
    for a in cands:
        tails = {}
        for v in g.vertices:
            mus, nus = (ends.get((d, v), ()) for d in (pos, neg))
            pick = next((lam for lam in g.paths_of_degree(a, range=v)
                         if not any(starmap(g.lambda_min, product(
                             [g.compose(mu, lam) for mu in mus],
                             [g.compose(nu, lam) for nu in nus])))), None)
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


class DecayReport(Record):
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
    check_count(j_max, "j_max")
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
