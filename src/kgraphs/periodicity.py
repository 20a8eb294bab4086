"""Shift-periodicity of infinite paths.

A pair (m, n) is periodic when the degree-m and degree-n shifts agree on every
infinite path.  That is decidable from finite data: it holds iff for every
mu in Lambda^{m v n} and every edge e of color i with r(e) = s(mu), the
single-edge segments of mu.e at offsets m and n coincide.  Since
(mu e)(m, .) = mu(m, .) e, both are read off the rests mu(m, m v n) and
mu(n, m v n), taken once per mu.  Confirmed differences m - n form a subgroup
of Z^k, so the search confirms without a check a candidate in the lattice of
those confirmed before it.  The group, kept as a Hermite-normal-form basis,
is complete in the search box, where it answers decide_periodic alone.

For a periodic pair, theta maps Lambda^m bijectively onto Lambda^n, with
mu.y = theta(mu).y for every infinite path y from s(mu) (compare the shifts
of alpha.mu.y).  So theta(mu) = (mu.lam)(0, n) for any lam in
s(mu)Lambda^{(n-m)+}, mu.lam and theta(mu).lam share an extension, and nu =
theta(mu) exactly when Lambda^min(mu, nu) is non-empty.  As mu.lam.y =
theta(mu).lam.y too, theta(mu.lam) = theta(mu).lam for every lam from s(mu),
so mu.lam and nu.lam share an extension exactly when nu.lam = theta(mu).lam,
that is, by unique factorization, when nu = theta(mu).  theta() builds the
table the other way, as the window (m, m + n) of alpha.mu for any degree-n
alpha into r(mu): an independent reference for that prefix law.
"""

from __future__ import annotations

from . import degrees as dg
from .errors import (EnumerationCapError, InputFormatError, NotPeriodicError,
                     PeriodicityUndecidedError, Record)
from .perron import MatrixFamily, mat_vec
from .scalars import check_count


def check_pair(graph, m, n):
    """Exact decision: do the degree-m and degree-n shifts agree everywhere?

    Requires a strongly connected graph (so finite paths extend to infinite
    ones and the segment criterion is equivalent to pointwise agreement).
    Returns False at the first strip edge that differs.  Past the cap it
    raises as the per-color enumeration of Lambda^{(m v n) + e_i} did: at
    the first color over the cap, unless a lower color disagrees.  Under the
    cap, with no color empty, A^m != A^n answers False before any path is
    enumerated, as theta_{m,n} would keep ranges and sources.
    """
    graph.require_strongly_connected()
    m, n = tuple(m), tuple(n)
    if not (dg.is_nonneg(m) and dg.is_nonneg(n)):
        raise InputFormatError("shift degrees must be nonnegative")
    if m == n:
        return True
    jn = dg.join(m, n)
    units = [dg.unit(graph.k, color) for color in range(1, graph.k + 1)]
    # |Lambda^{(m v n) + e_i}| = sum_v (A_i x)_v, x_v = |vLambda^{m v n}|
    x = graph._stem_chain(jn)[-1][1]
    sizes = [sum(mat_vec(a, x)) for a in graph.coordinate_matrices()]
    over = next((i for i, s in enumerate(sizes) if s > graph.cap), graph.k)
    # the colors with edges below it: each has an edge into every vertex,
    # so if Lambda^{m v n} is over the cap, none is, and it is not enumerated
    reached = [(c, units[c - 1]) for c in range(1, over + 1) if sizes[c - 1]]
    family = MatrixFamily.from_graph(graph)
    if len(reached) == graph.k and family.power(m) != family.power(n):
        return False
    for mu in graph.paths_of_degree(jn) if reached else ():
        rest_m, rest_n = (graph.factorize(mu, d)[1].edges for d in (m, n))
        for color, e_i in reached:
            for e in graph.edges_into(color, mu.source):
                if graph.split_strip(rest_m, (e,), e_i)[0] != \
                        graph.split_strip(rest_n, (e,), e_i)[0]:
                    return False
    if over < graph.k:   # enumerating that color raises its cap error
        graph.paths_of_degree(dg.add(jn, units[over]))
    return True


class ThetaMap(Record):
    """The bijection Lambda^m -> Lambda^n induced by sigma^m = sigma^n."""

    m: tuple
    n: tuple
    table: dict

    def __call__(self, path):
        try:
            return self.table[path]
        except KeyError:
            raise NotPeriodicError(
                f"{path.literal()} is not a degree-{self.m} path of this "
                f"graph") from None

    def inverse(self):
        return ThetaMap(self.n, self.m,
                        {v: k for k, v in self.table.items()})


def theta(graph, m, n):
    """Build theta_{m,n} as the tail after m of alpha.mu (see the module
    docstring); raises NotPeriodicError when m - n is not a confirmed
    periodicity, or when no vertex-preserving bijection is found."""
    m, n = tuple(m), tuple(n)
    if not check_pair(graph, m, n):
        raise NotPeriodicError(f"shifts by {m} and {n} disagree; "
                               f"{dg.sub(m, n)} is not periodic")
    mus = graph.paths_of_degree(m)
    # any degree-n path into r(mu) works: take the canonically first with
    # each source, in one pass over Lambda^n (reversed: the first is kept)
    alphas = {a.source: a for a in reversed(graph.paths_of_degree(n))}
    table = {mu: graph.factorize(graph.compose(alphas[mu.range], mu), m)[1]
             for mu in mus if mu.range in alphas}
    images = set(table.values())
    preserved = all(v.range == k.range and v.source == k.source
                    for k, v in table.items())
    if len(images) != len(mus) or not preserved:
        # an empty color: vacuously periodic, with no alpha into some r(mu)
        raise NotPeriodicError(
            f"theta for ({m}, {n}) is not a vertex-preserving bijection of "
            f"the paths of degree {m} onto those of degree {n}")
    return ThetaMap(m, n, table)


class PeriodicityGroup(Record):
    k: int
    basis: tuple           # HNF rows generating the detected subgroup
    search_bound: int
    confirmed: tuple       # raw confirmed elements inside the box
    complete_up_to_bound: bool = True

    @property
    def rank(self):
        return len(self.basis)

    def contains(self, gvec):
        """Exact membership in the detected subgroup (valid for any vector
        of Z^k, not just ones inside the search box)."""
        v = tuple(gvec)
        if not dg.is_vector(v, self.k):
            raise InputFormatError(f"difference {v!r} is not in Z^{self.k}")
        for row in self.basis:
            c = next(i for i, a in enumerate(row) if a != 0)
            if v[c] % row[c] != 0:
                return False
            q = v[c] // row[c]
            v = [a - q * b for a, b in zip(v, row)]
        return not any(v)


def hnf_basis(vectors, k):
    """Row-style Hermite normal form of the subgroup generated by vectors:
    echelon rows, positive pivots, entries above each pivot reduced into
    [0, pivot)."""
    mat = [list(v) for v in vectors if any(v)]
    r = 0
    for c in range(k):
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(mat[i][c]), i))
            mat[r], mat[i0] = mat[i0], mat[r]
            clean = True
            for i in range(r + 1, len(mat)):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c] != 0:
                        clean = False
            if clean:
                break
        if nz:
            if mat[r][c] < 0:
                mat[r] = [-a for a in mat[r]]
            for i in range(r):
                q = mat[i][c] // mat[r][c]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
            r += 1
    return tuple(tuple(row) for row in mat[:r])


def periodicity_group(graph, bound):
    """Detect the periodicity subgroup inside the box [-bound, bound]^k.

    Candidates are walked in order of |g|_1.  One in the lattice of the
    vectors confirmed so far is periodic by the group law and is confirmed
    without a check; the others are prefiltered by the exact necessary
    condition A^{g+} = A^{g-} before running the pair decision procedure.
    Completeness is claimed only within the box.  Raises
    InputFormatError for a bound that is not an int >= 0 and
    EnumerationCapError when the box holds more than graph.cap vectors.
    """
    if type(bound) is int and bound < 0:
        raise InputFormatError(f"periodicity search bound {bound} is "
                               f"negative")
    check_count(bound, "periodicity search bound")
    graph.require_strongly_connected()
    k = graph.k
    if (2 * bound + 1) ** k > graph.cap:
        raise EnumerationCapError(
            f"periodicity search box [-{bound}, {bound}]^{k} holds "
            f"{(2 * bound + 1) ** k} vectors, exceeds cap {graph.cap}")
    family = MatrixFamily.from_graph(graph)
    cands = [v for v in dg.box((-bound,) * k, (bound,) * k)
             if any(v) and next(a for a in v if a != 0) > 0]
    cands.sort(key=lambda v: (sum(abs(a) for a in v), v))
    confirmed = []
    found = PeriodicityGroup(k=k, basis=(), search_bound=bound, confirmed=())
    for gvec in cands:
        pos, neg = dg.pos_part(gvec), dg.neg_part(gvec)
        if found.contains(gvec):
            confirmed.append(gvec)
        elif family.power(pos) == family.power(neg) and \
                check_pair(graph, pos, neg):
            confirmed.append(gvec)
            found = found.replace(basis=hnf_basis(confirmed, k))
    for b in found.basis:
        # basis rows are integer combinations of confirmed elements, hence
        # periodic; re-verify so a reduction bug cannot slip through
        if not check_pair(graph, dg.pos_part(b), dg.neg_part(b)):
            raise NotPeriodicError(
                f"internal error: HNF basis element {b} fails the pair check")
    return found.replace(confirmed=tuple(confirmed))


def decide_periodic(graph, group, gvec):
    """Exact periodicity of a difference vector of Z^k: yes in the group's
    lattice, no elsewhere in the box of a group complete up to its bound (the
    search decided every vector there), else the pair decision procedure.
    Raises PeriodicityUndecidedError only when that passes the graph's cap."""
    gvec = tuple(gvec)
    if not dg.is_vector(gvec, graph.k):
        raise InputFormatError(f"difference {gvec!r} is not in Z^{graph.k}")
    if not any(gvec) or (group is not None and group.contains(gvec)):
        return True
    if group is not None and group.complete_up_to_bound and \
            max(map(abs, gvec)) <= group.search_bound:
        return False
    try:
        return check_pair(graph, dg.pos_part(gvec), dg.neg_part(gvec))
    except EnumerationCapError as exc:
        raise PeriodicityUndecidedError(
            f"periodicity of {gvec} undecided: {exc}") from exc
