"""Key-level reference for the cold half of KMSStates.kms_check.

A test-only copy of the support walk and the sweep as they stood before the
support went by cell: every quadruple key (mu, nu, eta, zeta) is its own
dict entry, keyed by the box numbers of its paths packed base n, and the
sweep visits every key with its swap.  `reference_table(st, D, theta_blind)`
returns the table that `st._sweep_table(D, theta_blind)` must equal, field
by field: the profiles in order with their counts and samples, the screen,
`checked`, `support` and `mass_unit`.  The walk reads the library's
periodicity decisions and Perron masses (through `st`), so the copy checks
how the library aggregates them, not those inputs.  Its shift bijections
come from `periodicity.theta`, one table per degree pair (m, n), and its
Cuntz-Krieger screen is the pair-by-pair one that the library had before it
went by class pair, so neither is compared with itself.
"""

from fractions import Fraction

from kgraphs import degrees as dg
from kgraphs.errors import EnumerationCapError
from kgraphs.kms import _scaled
from kgraphs.periodicity import theta


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


def theta_tables(graph):
    """theta_{m,n}(path) through periodicity.theta, one table per (m, n)."""
    tables = {}

    def image(m, n, path):
        hit = tables.get((m, n))
        if hit is None:
            hit = tables[m, n] = theta(graph, m, n)
        return hit(path)
    return image


def phi_mass(st, theta_of, mu, nu, theta_blind):
    """mass(mu), or None where phi vanishes on s_mu s*_nu."""
    gvec = dg.sub(mu.degree, nu.degree)
    if not st.periodic(gvec):
        return None
    if not theta_blind:
        if not any(gvec):
            if mu != nu:
                return None
        elif theta_of(mu.degree, nu.degree, mu) != nu:
            return None
    return st.measure.mass(mu)


def screen_profiles(st, box, theta_blind):
    """The one-sided Cuntz-Krieger screen pair by pair: every
    source-matched pair (mu, nu) of the box on which phi does not vanish
    becomes its profile (d(mu) - d(nu), mass(mu), bound), counted, with
    bound the mass of the extensions mu.lam, lam of degree (1,..,1), for
    which mu.lam and nu.lam still share an extension."""
    g = st.graph
    theta_of = theta_tables(g)
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
                mass = phi_mass(st, theta_of, box.paths[mu], box.paths[nu],
                                theta_blind)
                if mass is None:
                    continue
                joined = dg.add(dg.join(box.degree[mu], box.degree[nu]),
                                ones)
                bound = st.measure.zero
                for t, (ml, nl) in enumerate(zip(extended[mu],
                                                 extended[nu])):
                    if not reached(mu, t, ml, joined).isdisjoint(
                            reached(nu, t, nl, joined)):
                        bound += st.measure.mass(ml)
                profile = (dg.sub(box.degree[mu], box.degree[nu]), mass,
                           bound)
                profiles[profile] = profiles.get(profile, 0) + 1
    return profiles


def support_contributions(st, box, theta_blind, scale):
    """{key: mass * scale} for every supported key, in walk order."""
    g = st.graph
    theta_of = theta_tables(g)
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
                    q = theta_of(dp, nprime, p) if shift else p
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
        "screen": screen_profiles(st, box, theta_blind),
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
