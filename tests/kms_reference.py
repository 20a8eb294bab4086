"""Key-level reference for the cold half of KMSStates.kms_check.

A test-only copy of the support walk and the sweep as they stood before the
support went by cell: every quadruple key (mu, nu, eta, zeta) is its own
dict entry, keyed by the box numbers of its paths packed base n, and the
sweep visits every key with its swap.  `reference_table(st, D, theta_blind)`
returns the table that `st._sweep_table(D, theta_blind)` must equal, field
by field: the profiles in order with their counts and samples, the screen,
`checked`, `support` and `mass_unit`.  The walk reads the same plans, Perron
masses and theta maps as the library (through `st`), so the copy checks how
the library aggregates them, not those inputs.
"""

from fractions import Fraction

from kgraphs import degrees as dg
from kgraphs.errors import EnumerationCapError
from kgraphs.kms import _scaled


class KeyBox:
    """The box [0, D] numbered as the library numbers it, with a Path ->
    number index and the source-degree classes as lists of numbers."""

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


def support_contributions(st, box, theta_blind, scale):
    """{key: mass * scale} for every supported key, in walk order."""
    g = st.graph
    n = len(box.paths)
    contributions = {}
    plans = {}      # (d(p), d(beta), s(eta)) -> plan
    batches = {}    # blind (alpha, d(beta), s(eta)) -> {None: batch},
    #                 honest (alpha, d(beta), None) -> {beta: batch}

    def plan_of(dp, dbeta, v):
        plan = plans.get((dp, dbeta, v))
        if plan is None:
            plan = plans[dp, dbeta, v] = []
            for nzeta in box.degrees:
                nprime = dg.add(nzeta, dbeta)
                gvec = dg.sub(dp, nprime)
                if st.periodic(gvec):
                    plan.extend(box.classes[v].get(nzeta, ())
                                if theta_blind
                                else [(any(gvec), nprime, nzeta)])
        return plan

    def batch(alpha, dbeta, v):
        out = {}
        for dmu, mus in box.classes[box.paths[alpha].range].items():
            dp = dg.add(dmu, box.degree[alpha])
            plan = plan_of(dp, dbeta, v)
            if not plan:
                continue
            mass = _scaled(st.measure.mass_at(dp, box.source[alpha]), scale)
            if theta_blind:
                out.setdefault(None, []).append((mus, plan, mass))
                continue
            for mu in mus:
                p = g.compose(box.paths[mu], box.paths[alpha])
                filed = {}
                for shift, nprime, nzeta in plan:
                    q = st.theta_map(dp, nprime)(p) if shift else p
                    zeta, tail = box.indices(g.factorize(q, nzeta))
                    filed.setdefault(tail, []).append(zeta)
                for tail, zetas in filed.items():
                    out.setdefault(tail, []).append(((mu,), zetas, mass))
        return out

    u = None
    for w in box.paths:
        if w.degree != u:
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
            for mus, zetas, mass in hit.get(None if theta_blind else beta,
                                            ()):
                for mu in mus:
                    base = ((mu * n + nu) * n + eta) * n
                    for zeta in zetas:
                        key = base + zeta
                        contributions[key] = contributions.get(key, 0) \
                            + mass
        if len(contributions) > g.cap:
            raise EnumerationCapError(f"KMS support exceeds cap {g.cap} keys")
    return contributions


def reference_table(st, D, theta_blind):
    """The sweep table, key by key: each key and its swap visited once."""
    S, T = st._scales(D)
    box = KeyBox(st.graph, D)
    contributions = support_contributions(st, box, theta_blind, S)
    n = len(box.paths)
    nn = n * n
    rho = st.measure.rho
    radix = 4 * max(D) + 1
    by_gamma = {gamma: (sum(c * radix ** i for i, c in enumerate(gamma)),
                        _scaled(dg.rho_power(rho, dg.neg(gamma)), T), gamma)
                for gamma in dg.box(dg.neg(D), D)}
    pairs = {mu * n + nu: by_gamma[dg.sub(box.degree[mu], box.degree[nu])]
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
    unit = Fraction(1, S * T)
    return {
        "profiles": {(bucket[2], diff * unit): bucket[:2]
                     for (_, diff), bucket in profiles.items()},
        "screen": st._screen_profiles(box, theta_blind),
        "checked": 2 * (len(contributions) - len(seen)) - selfswaps,
        "support": len(contributions),
        "mass_unit": Fraction(1, S),
    }


def expand_cells(box, cells, theta_blind):
    """The key-level walk's {key: mass} rebuilt from the library's cells,
    in its insertion order: a run of cells that share (c(mu), nu, eta)
    lists its keys mu by mu, then cell by cell, then zeta by zeta."""
    n = len(box.paths)
    members = box.members if theta_blind else [(i,) for i in range(n)]
    keys = {}
    runs = []
    for cell in cells:
        if not runs or runs[-1][0] != cell // n:
            runs.append((cell // n, []))
        runs[-1][1].append(cell)
    for top, run in runs:
        cm, nu, eta = top // (n * n), top // n % n, top % n
        for mu in members[cm]:
            for cell in run:
                for zeta in members[cell % n]:
                    keys[((mu * n + nu) * n + eta) * n + zeta] = cells[cell]
    return keys
