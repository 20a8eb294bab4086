"""Shift-periodicity of infinite paths.

A pair (m, n) is periodic when the degree-m and degree-n shifts agree on every
infinite path.  That is decidable from finite data: it holds iff for every
color i and every path of degree (m v n) + e_i the two single-edge segments at
offsets m and n coincide.  Confirmed differences m - n form a subgroup of Z^k;
the detected group is returned through a Hermite-normal-form basis and always
qualified by the search bound.

For a periodic pair, theta maps Lambda^m bijectively onto Lambda^n by reading
the degree-n window of alpha.mu for any degree-n extension alpha landing at
r(mu); the choice of alpha does not matter.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import degrees as dg
from .errors import (EnumerationCapError, InputFormatError, NotPeriodicError,
                     PeriodicityUndecidedError)
from .perron import MatrixFamily


def check_pair(graph, m, n):
    """Exact decision: do the degree-m and degree-n shifts agree everywhere?

    Requires a strongly connected graph (so finite paths extend to infinite
    ones and the segment criterion is equivalent to pointwise agreement).
    """
    graph.require_strongly_connected()
    m, n = tuple(m), tuple(n)
    if not (dg.is_nonneg(m) and dg.is_nonneg(n)):
        raise NotPeriodicError("shift degrees must be nonnegative")
    if m == n:
        return True
    jn = dg.join(m, n)
    for color in range(1, graph.k + 1):
        e_i = dg.unit(graph.k, color)
        for lam in graph.paths_of_degree(dg.add(jn, e_i)):
            left = graph.segment(lam, m, dg.add(m, e_i))
            right = graph.segment(lam, n, dg.add(n, e_i))
            if left != right:
                return False
    return True


@dataclass(frozen=True)
class ThetaMap:
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


def theta(graph, m, n, pre_checked=False):
    """Build theta_{m,n}; raises NotPeriodicError when m - n is not a
    confirmed periodicity."""
    m, n = tuple(m), tuple(n)
    if not pre_checked and not check_pair(graph, m, n):
        raise NotPeriodicError(f"shifts by {m} and {n} disagree; "
                               f"{dg.sub(m, n)} is not periodic")
    if m == n:
        return ThetaMap(m, n, {mu: mu for mu in graph.paths_of_degree(m)})
    table = {}
    for mu in graph.paths_of_degree(m):
        # any degree-n path into r(mu) works; take the canonically first
        alpha = graph.paths_of_degree(n, source=mu.range)[0]
        image = graph.segment(graph.compose(alpha, mu), m, dg.add(m, n))
        table[mu] = image
    images = set(table.values())
    preserved = all(v.range == k.range and v.source == k.source
                    for k, v in table.items())
    if len(images) != len(table) or not preserved:
        # cannot happen for a genuinely periodic pair; guards bad pre_checked
        raise NotPeriodicError(
            f"theta for ({m}, {n}) is not a vertex-preserving bijection; "
            f"the pair is not periodic")
    return ThetaMap(m, n, table)


@dataclass(frozen=True)
class PeriodicityGroup:
    k: int
    basis: tuple           # HNF rows generating the detected subgroup
    search_bound: int
    confirmed: tuple       # raw confirmed elements inside the box
    complete_up_to_bound: bool = True

    @property
    def rank(self):
        return len(self.basis)

    def contains(self, gvec):
        """Exact membership in the detected subgroup (valid for any vector,
        not just ones inside the search box)."""
        v = list(gvec)
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

    Candidates are prefiltered by the exact necessary condition
    A^{g+} = A^{g-} before running the segment decision procedure.
    Completeness is claimed only within the box.  Raises
    InputFormatError for a negative bound and EnumerationCapError when the
    box holds more than graph.cap vectors.
    """
    if bound < 0:
        raise InputFormatError(f"periodicity search bound {bound} is "
                               f"negative")
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
    for gvec in cands:
        pos, neg = dg.pos_part(gvec), dg.neg_part(gvec)
        if family.power(pos) != family.power(neg):
            continue
        if check_pair(graph, pos, neg):
            confirmed.append(gvec)
    basis = hnf_basis(confirmed, k)
    for b in basis:
        # basis rows are integer combinations of confirmed elements, hence
        # periodic; re-verify so a reduction bug cannot slip through
        if not check_pair(graph, dg.pos_part(b), dg.neg_part(b)):
            raise NotPeriodicError(
                f"internal error: HNF basis element {b} fails the pair check")
    return PeriodicityGroup(k=k, basis=basis, search_bound=bound,
                            confirmed=tuple(confirmed))


def decide_periodic(graph, group, gvec):
    """Exact periodicity of a specific difference vector.

    Lattice membership in the detected group settles most queries; otherwise
    the pair decision procedure runs directly, so the answer is exact even
    outside the search box.  Raises PeriodicityUndecidedError only when that
    enumeration would blow past the graph's cap."""
    gvec = tuple(gvec)
    if not any(gvec):
        return True
    if group is not None and group.contains(gvec):
        return True
    try:
        return check_pair(graph, dg.pos_part(gvec), dg.neg_part(gvec))
    except EnumerationCapError as exc:
        raise PeriodicityUndecidedError(
            f"periodicity of {gvec} undecided: {exc}") from exc
