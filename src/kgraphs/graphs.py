"""Finite rank-k graphs presented by colored edges and commuting squares.

A graph of rank k is given by vertices, edges colored 1..k, and for each color
pair i < j a square table identifying each composable pair (e of color i, f of
color j) with its unique refactorization (f' of color j, e' of color i), so
that e.f = f'.e' as morphisms.  Paths are kept in color-ordered normal form
(all color-1 edges first, then color-2, ...).  Each path operation is one
pass over a list of edge ids through two flat square dicts: composition is an
insertion merge, factorization carries each head edge left past the tail.

Validation walks only what the graph holds: a squares pass fills the square
tables, a pairs pass finds the composable pairs of distinct colors that no
square covers, and for rank >= 3 a walk of the chains e.f.g of ascending
colors checks the cubical condition.  Together these make the degree-indexed
factorization unique, which every other module relies on.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from itertools import chain, groupby

from . import degrees as dg
from .errors import (CompositionError, EnumerationCapError, GraphValidationError,
                     InputFormatError, NotStronglyConnectedError, Record,
                     SegmentRangeError)
from .perron import mat_vec

ENUM_CAP = 10 ** 6  # default KGraph.cap, and the largest rank k

PATH_SEP = "."


class Edge(Record):
    __slots__ = ("id", "color", "range", "source")
    id: str
    color: int
    range: str
    source: str


class Square(Record):
    """blue.red = red2.blue2 with blue/blue2 of the lower color."""

    __slots__ = ("blue", "red", "red2", "blue2")
    blue: str
    red: str
    red2: str
    blue2: str


class Path(Record):
    """A morphism in color-ordered normal form.

    edges holds edge ids; range/source follow the arrow convention r(p) at the
    left end, s(p) at the right, so p = e_1 ... e_l has s(e_t) = r(e_{t+1}).
    A degree-zero path is a vertex: edges == () and range == source.
    """

    __slots__ = ("degree", "edges", "range", "source")
    degree: tuple
    edges: tuple
    range: str
    source: str

    # inline tuples, as a dataclass writes them: paths are hashed and
    # compared by the million
    def __eq__(self, other):
        if other.__class__ is not Path:
            return NotImplemented
        return (self.degree, self.edges, self.range, self.source) == (
            other.degree, other.edges, other.range, other.source)

    def __hash__(self):
        return hash((self.degree, self.edges, self.range, self.source))

    @property
    def is_vertex(self):
        return not self.edges

    def literal(self):
        return self.range if self.is_vertex else PATH_SEP.join(self.edges)

    def __repr__(self):
        return f"Path({self.literal()})"


class ValidationReport(Record):
    valid: bool
    k: int
    vertex_count: int
    edge_counts: tuple
    square_failures: tuple
    cubical_checked: bool
    cubical_failures: tuple
    strongly_connected: bool
    no_sources: bool
    no_sinks: bool


class KGraph:
    """Immutable rank-k graph.  A caller may set one attribute, before
    analysing the graph: cap, the bound on every enumeration (ENUM_CAP)."""

    def __init__(self, k, vertices, edges, squares):
        # types first: sorting mixed types raises TypeError, and
        # type(x) is int refuses bools
        if type(k) is not int or k < 1:
            raise InputFormatError("rank k must be a positive integer")
        if k > ENUM_CAP:
            raise InputFormatError(f"rank k = {k} exceeds the maximum rank "
                                   f"{ENUM_CAP}")
        if not (isinstance(vertices, (list, tuple))
                and all(isinstance(v, str) for v in vertices)):
            raise InputFormatError("vertices must be a list of strings")
        for e in edges:
            if type(e.color) is not int or not all(
                    isinstance(x, str) for x in (e.id, e.range, e.source)):
                raise InputFormatError(f"edge {e.id!r}: color must be an int "
                                       f"and the other fields strings")
        for sq in squares:
            if not all(isinstance(x, str) for x in sq._values()):
                raise InputFormatError(f"square {sq}: fields must be strings")
        self.k = k
        self.vertices = tuple(sorted(vertices))
        self._vset = set(self.vertices)
        if len(self._vset) != len(self.vertices):
            raise InputFormatError("duplicate vertex ids")
        for v in self.vertices:
            if not v or PATH_SEP in v:
                raise InputFormatError(f"bad vertex id {v!r}")
        self.edges = tuple(sorted(edges, key=lambda e: e.id))
        self._edge = {}
        for e in self.edges:
            if not e.id or PATH_SEP in e.id:
                raise InputFormatError(f"bad edge id {e.id!r}")
            if e.id in self._edge or e.id in self._vset:
                raise InputFormatError(f"duplicate id {e.id!r}")
            if not 1 <= e.color <= k:
                raise InputFormatError(f"edge {e.id}: color {e.color} "
                                       f"outside 1..{k}")
            if e.range not in self._vset or e.source not in self._vset:
                raise InputFormatError(f"edge {e.id}: unknown endpoint")
            self._edge[e.id] = e
        self._color = {e.id: e.color for e in self.edges}
        self.squares = tuple(sorted(squares, key=lambda s: (s.blue, s.red)))
        for sq in self.squares:
            for eid in sq._values():
                if eid not in self._edge:
                    raise InputFormatError(f"square refers to unknown edge "
                                           f"{eid!r}")
        # Derived lookups.
        self._by_range = {}   # (color, vertex) -> ids, sorted as edges are
        for e in self.edges:
            self._by_range.setdefault((e.color, e.range), []).append(e.id)
        self._fwd = {}   # (blue, red) -> (red2, blue2), all color pairs
        self._inv = {}   # (red2, blue2) -> (blue, red)
        self._report = None
        self.cap = ENUM_CAP
        self._path_cache = {}   # asked degree -> {range: tuple[Path]}
        self._checked = {}   # degree whose cap chain passed -> its |Lambda^d|
        self._matrices = None

    # ------------------------------------------------------------------
    # construction helpers

    def edge(self, eid):
        e = self._edge.get(eid)
        if e is None:
            raise CompositionError(f"edge id {eid!r} not in this graph")
        return e

    def edges_into(self, color, v):
        """The ids of the color-`color` edges with range v, sorted."""
        return self._by_range.get((color, v), ())

    def vertex_path(self, v):
        if v not in self._vset:
            raise InputFormatError(f"unknown vertex {v!r}")
        return Path(dg.zero(self.k), (), v, v)

    # ------------------------------------------------------------------
    # validation

    def validate(self):
        """Check the square and cubical axioms; cache and return the report."""
        if self._report is not None:
            return self._report
        # afresh: a run that the cubical cap stopped filled them
        self._fwd, self._inv = {}, {}
        edge, fwd, inv = self._edge, self._fwd, self._inv
        roles = []
        # (i, j) -> square faults, missing squares, uncovered reversed pairs
        blocks = defaultdict(lambda: ([], [], []))
        for sq in self.squares:
            b, r = edge[sq.blue], edge[sq.red]
            r2, b2 = edge[sq.red2], edge[sq.blue2]
            if not (b.color == b2.color and r.color == r2.color
                    and b.color < r.color):
                roles.append(f"square {sq} has inconsistent color roles")
                continue
            key, val = (sq.blue, sq.red), (sq.red2, sq.blue2)
            if key in fwd:
                fault = f"duplicate square for pair {key}"
            elif b.source != r.range:
                fault = f"square {sq}: blue.red not composable"
            elif r2.source != b2.range:
                fault = f"square {sq}: red2.blue2 not composable"
            elif r2.range != b.range or b2.source != r.source:
                fault = f"square {sq}: endpoints do not match"
            elif val in inv:
                fault = f"squares map two pairs to {val}"
            else:
                fwd[key] = val
                inv[val] = key
                continue
            blocks[b.color, r.color][0].append(fault)
        # Every composable pair e.f of distinct colors needs a square:
        # e.f = blue.red when e's color is lower, red2.blue2 when higher.
        # Edges and each range's ids come sorted, so each block's pairs do.
        by_vertex = {}   # vertex -> [(color, ids of edges with that range)]
        for (c, v), ids in sorted(self._by_range.items()):
            by_vertex.setdefault(v, []).append((c, ids))
        for e in self.edges:
            for c, ids in by_vertex.get(e.source, ()):
                if c != e.color:
                    table, slot = (fwd, 1) if e.color < c else (inv, 2)
                    blocks[min(e.color, c), max(e.color, c)][slot].extend(
                        (e.id, f) for f in ids if (e.id, f) not in table)
        square_failures = roles
        for (i, j), (faults, missing, uncovered) in sorted(blocks.items()):
            square_failures += faults
            square_failures += [f"no square for colors ({i},{j}) pair {key}"
                                for key in missing]
            square_failures += [f"squares miss reversed pair {val} "
                                f"for colors ({i},{j})" for val in uncovered]
        cubical_checked = self.k >= 3 and not square_failures
        cubical_failures = (self._check_cubical(by_vertex) if cubical_checked
                            else [])
        edge_counts = Counter(e.color for e in self.edges)
        # (color, vertex) keys lie in 1..k x vertices: all there iff as many
        full = self.k * len(self.vertices)
        self._report = ValidationReport(
            valid=not square_failures and not cubical_failures,
            k=self.k,
            vertex_count=len(self.vertices),
            edge_counts=tuple(edge_counts[c] for c in range(1, self.k + 1)),
            square_failures=tuple(square_failures),
            cubical_checked=cubical_checked,
            cubical_failures=tuple(cubical_failures),
            strongly_connected=self._strongly_connected(),
            no_sources=len(self._by_range) == full,
            no_sinks=len({(e.color, e.source) for e in self.edges}) == full,
        )
        return self._report

    def _check_cubical(self, by_vertex):
        """Reverse each composable chain e.f.g of ascending colors along
        both transposition routes and compare.  Disagreement means
        factorizations of degree e_i+e_j+e_l are ambiguous.  The chains
        are counted first, through their middle edges f, and more than
        cap of them raise EnumerationCapError."""
        outs = defaultdict(list)   # vertex -> colors of the edges it sources
        for e in self.edges:
            outs[e.source].append(e.color)
        chains = sum(sum(c < f.color for c in outs[f.range]) * sum(
            len(gs) for c, gs in by_vertex.get(f.source, ()) if c > f.color)
            for f in self.edges)
        if chains > self.cap:
            raise EnumerationCapError(
                f"cubical check walks {chains} chains of ascending colors, "
                f"exceeds cap {self.cap}")
        found = []   # ((colors, ids), message)

        def fwd_swap(seq, t):
            # seq[t], seq[t+1] is an ascending color pair; push the higher
            # color left through its square.
            return seq[:t] + list(self._fwd[seq[t], seq[t + 1]]) + seq[t + 2:]

        for e in self.edges:
            for cf, fs in by_vertex.get(e.source, ()):
                if cf <= e.color:
                    continue
                for f in fs:
                    for cg, gs in by_vertex.get(self._edge[f].source, ()):
                        if cg <= cf:
                            continue
                        for g in gs:
                            seq = [e.id, f, g]
                            a = fwd_swap(fwd_swap(fwd_swap(seq, 1), 0), 1)
                            b = fwd_swap(fwd_swap(fwd_swap(seq, 0), 1), 0)
                            if a != b:
                                found.append(
                                    ((e.color, cf, cg, e.id, f, g),
                                     f"cubical failure on triple "
                                     f"({e.id},{f},{g}): {a} vs {b}"))
        return [message for _, message in sorted(found)]

    def _strongly_connected(self):
        """True iff vΛw is nonempty for every ordered vertex pair: one
        search along the edges and one against them, from one vertex."""
        for ends in (("source", "range"), ("range", "source")):
            succ = defaultdict(set)   # an edge is a path from source to range
            for e in self.edges:
                succ[getattr(e, ends[0])].add(getattr(e, ends[1]))
            seen, stack = set(self.vertices[:1]), list(self.vertices[:1])
            while stack:
                new = succ[stack.pop()] - seen
                seen |= new
                stack.extend(new)
            if len(seen) != len(self.vertices):
                return False
        return True

    def require_valid(self):
        rep = self.validate()
        if not rep.valid:
            probs = rep.square_failures + rep.cubical_failures
            raise GraphValidationError(
                f"graph fails validation: {probs[0]}"
                + (f" (+{len(probs) - 1} more)" if len(probs) > 1 else ""))
        return rep

    def require_strongly_connected(self):
        rep = self.require_valid()
        if not rep.strongly_connected:
            raise NotStronglyConnectedError(
                "operation requires a strongly connected graph")
        return rep

    # ------------------------------------------------------------------
    # path machinery

    def _normalize(self, seq, start):
        """Sort a composable edge sequence whose first `start` edges are in
        normal form: an insertion merge that carries each later edge left,
        through inverse squares, past the higher-colored edges before it."""
        seq = list(seq)
        color, inv = self._color, self._inv
        for t in range(start, len(seq)):
            c = color[seq[t]]
            j = t
            while j and color[seq[j - 1]] > c:
                seq[j - 1], seq[j] = inv[seq[j - 1], seq[j]]
                j -= 1
        return seq

    def _path_from_normal(self, seq, deg):
        """The degree-deg path of a nonempty normal-form edge sequence."""
        return Path(deg, tuple(seq), self._edge[seq[0]].range,
                    self._edge[seq[-1]].source)

    def path_from_edges(self, edge_ids):
        """Build a path from a composable edge-id sequence (any color order);
        the result is in normal form."""
        self.require_valid()
        ids = list(edge_ids)
        if not ids:
            raise InputFormatError("empty edge sequence has no endpoints; "
                                   "use vertex_path")
        for a, b in zip(ids, ids[1:]):
            if self.edge(a).source != self.edge(b).range:
                raise CompositionError(
                    f"edges {a!r} and {b!r} are not composable")
        deg = tuple(sum(self.edge(e).color == i for e in ids)
                    for i in range(1, self.k + 1))
        return self._path_from_normal(self._normalize(ids, 1), deg)

    def parse_path(self, literal):
        """Parse a path literal: a vertex id, or edge ids joined by '.'."""
        if literal in self._vset:
            return self.vertex_path(literal)
        parts = literal.split(PATH_SEP)
        for p in parts:
            if p not in self._edge:
                raise InputFormatError(f"unknown edge id {p!r} in path "
                                       f"literal {literal!r}")
        return self.path_from_edges(parts)

    def compose(self, mu, nu):
        """mu then nu; requires s(mu) = r(nu)."""
        if mu.source != nu.range:
            raise CompositionError(
                f"cannot compose {mu.literal()} with {nu.literal()}: "
                f"source {mu.source} != range {nu.range}")
        if mu.is_vertex:
            return nu
        if nu.is_vertex:
            return mu
        self.require_valid()
        try:
            seq = self._normalize(mu.edges + nu.edges, len(mu.edges))
            return self._path_from_normal(seq, dg.add(mu.degree, nu.degree))
        except KeyError as exc:
            raise CompositionError(f"{exc} not in this graph") from None

    def _take(self, seq, m):
        """Split a normal-form sequence into head and tail lists, d(head) = m,
        in one pass: the first m_i edges of each color are carried left
        through squares past the (lower-colored) tail edges before them."""
        seq = list(seq)
        color, fwd = self._color, self._fwd
        need = list(m)
        left = sum(need)
        h = t = 0   # head length, scan position
        while left:
            c = color[seq[t]] - 1
            if need[c]:
                need[c] -= 1
                left -= 1
                for j in range(t, h, -1):
                    seq[j - 1], seq[j] = fwd[seq[j - 1], seq[j]]
                h += 1
            t += 1
        return seq[:h], seq[h:]

    def split_strip(self, rest, edges, e_i):
        """Given the rest xi(a, d(xi)) of a path xi and the edges of a path
        t, both in normal form: the id of (xi t)(a, a + e_i) and the rest
        (xi t)(a + e_i, d(xi t)), since (xi t)(a, .) = xi(a, .) t."""
        head, tail = self._take(self._normalize([*rest, *edges], len(rest)),
                                e_i)
        return head[0], tail

    def factorize(self, path, m):
        """The unique factorization path = head . tail with d(head) = m."""
        if not (dg.is_nonneg(m) and dg.leq(m, path.degree)):
            raise SegmentRangeError(
                f"degree {m} not between 0 and {path.degree}")
        self.require_valid()
        try:
            head, tail = self._take(path.edges, m)
            if not (head and tail):     # an empty factor is a vertex path
                mid = self.vertex_path(self._edge[tail[0]].range if tail
                                       else path.source)
            return (self._path_from_normal(head, tuple(m)) if head else mid,
                    self._path_from_normal(tail, dg.sub(path.degree, m))
                    if tail else mid)
        except KeyError as exc:
            raise CompositionError(f"{exc} not in this graph") from None

    def segment(self, path, m, n):
        """path(m, n): the degree-(n - m) head of the tail after m."""
        if not (dg.is_nonneg(m) and dg.leq(m, n) and dg.leq(n, path.degree)):
            raise SegmentRangeError(
                f"need 0 <= {m} <= {n} <= {path.degree}")
        return self.factorize(self.factorize(path, m)[1], dg.sub(n, m))[0]

    # ------------------------------------------------------------------
    # enumeration

    def count_paths(self, n):
        """|Λ^n|, the top of the stem chain of n."""
        if not dg.is_degree(n, self.k):
            raise InputFormatError(f"degree {n!r} is not in N^{self.k}")
        return sum(self._stem_chain(n)[-1][1])

    def paths_of_degree(self, n, range=None):
        """All paths of degree n in canonical sorted order, or only those
        with range vertex `range`; only the degrees asked for are cached."""
        self.require_valid()
        if not dg.is_degree(n, self.k):
            raise InputFormatError(f"degree {n!r} is not in N^{self.k}")
        by_range = self._path_cache.get(n)
        if by_range is None or self._checked[n] > self.cap:
            self._check_cap(n)      # if cached, raises
            by_range = self._path_cache[n] = self._enumerate(n)
        if range is None:
            return list(chain.from_iterable(by_range.values()))
        return list(by_range.get(range, ()))

    def _stem_chain(self, n):
        """(d, [|vLambda^d| for v]) for the stems n, n - e_c, ... of n (c the
        highest color left), bottom up; each is A_c times the stem's."""
        x, d = [1] * len(self.vertices), [0] * self.k
        chain = [(tuple(d), x)]
        for c, mat in enumerate(self.coordinate_matrices()):
            for d[c] in range(1, n[c] + 1):
                x = mat_vec(mat, x)
                chain.append((tuple(d), x))
        return chain

    def _check_cap(self, n):
        """The cap on each stem that a build from cached stems would make,
        from n down to 0 or a degree checked before."""
        chain = self._stem_chain(n)
        for d, x in reversed(chain):
            if sum(x) > self.cap:
                raise EnumerationCapError(f"|paths of degree {d}| = {sum(x)} "
                                          f"exceeds cap {self.cap}")
            if d in self._checked:
                break
        self._checked.update((d, sum(x)) for d, x in chain)

    def _enumerate(self, n):
        """Lambda^n by range, each in edges order, as normal forms read: each
        color's runs grow edge by edge from where the lower colors' paths
        end and are joined to them there; only the last join makes Paths."""
        edge, by_range = self._edge, self._by_range
        level = [((), v, v) for v in self.vertices]
        runs = {v: [((), v)] for v in self.vertices}   # not yet joined
        for c, length in enumerate(n, 1):
            if length:
                level = [(pe + es, r, s) for pe, r, ps in level
                         for es, s in runs[ps]]
                runs = {s: [((), s)] for _, _, s in level}
                for _ in range(length):
                    runs = {v: [(es + (e,), edge[e].source) for es, s in rs
                                for e in by_range.get((c, s), ())]
                            for v, rs in runs.items()}
        return {r: tuple([Path(n, pe + es, r, s) for pe, _, ps in joins
                          for es, s in runs[ps]])
                for r, joins in groupby(level, lambda join: join[1])}

    def _own(self, path):
        """Refuse a path whose range, source or edge ids this graph lacks:
        the path machinery would find no extension of it."""
        if not (path.range in self._vset and path.source in self._vset
                and all(map(self._color.__contains__, path.edges))):
            raise CompositionError(f"path {path.literal()} is not in this "
                                   f"graph")

    def extensions(self, path, degree):
        """{edges of compose(path, a): a} for every a in s(path)Lambda^m,
        m = degree - d(path), in paths_of_degree order.  The key is the
        normal form of path.a, built without a Path for it."""
        self._own(path)
        start = len(path.edges)
        return {tuple(self._normalize(path.edges + a.edges, start)): a
                for a in self.paths_of_degree(dg.sub(degree, path.degree),
                                              range=path.source)}

    def lambda_min(self, mu, nu):
        """All (alpha, beta) with mu.alpha = nu.beta of degree d(mu) v d(nu),
        sorted canonically; each nu.beta is looked up in mu's extensions."""
        self.require_valid()
        self._own(nu)
        if mu.range != nu.range:
            self._own(mu)   # else extensions refuses a foreign mu
            return []
        jn = dg.join(mu.degree, nu.degree)
        table = self.extensions(mu, jn)
        out = []
        start = len(nu.edges)
        for b in self.paths_of_degree(dg.sub(jn, nu.degree), range=nu.source):
            a = table.get(tuple(self._normalize(nu.edges + b.edges, start)))
            if a is not None:
                out.append((a, b))
        out.sort(key=lambda ab: (ab[0].edges, ab[1].edges))
        return out

    # ------------------------------------------------------------------
    # matrices

    def coordinate_matrices(self):
        """The k vertex-indexed integer matrices A_i(v, w) = #(color-i edges
        with range v and source w), rows/columns in sorted vertex order."""
        if self._matrices is None:
            idx = {v: t for t, v in enumerate(self.vertices)}
            mats = [[[0] * len(idx) for _ in idx] for _ in range(self.k)]
            for e in self.edges:
                mats[e.color - 1][idx[e.range]][idx[e.source]] += 1
            self._matrices = tuple(tuple(map(tuple, m)) for m in mats)
        return self._matrices

    # ------------------------------------------------------------------
    # serialization

    def to_json_dict(self):
        return {
            "k": self.k,
            "vertices": list(self.vertices),
            "edges": [dict(zip(e._fields, e._values())) for e in self.edges],
            "squares": [dict(zip(s._fields, s._values()))
                        for s in self.squares],
        }

    def to_json(self):
        """Canonical serialization: sorted keys, two-space indent, LF, and a
        trailing newline.  parse -> serialize round-trips byte-identically."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, doc):
        if not isinstance(doc, dict):
            raise InputFormatError("graph document must be a JSON object")
        extra = set(doc) - {"k", "vertices", "edges", "squares"}
        if extra:
            raise InputFormatError(f"unknown graph fields {sorted(extra)}")
        for key in ("k", "vertices", "edges", "squares"):
            if key not in doc:
                raise InputFormatError(f"graph document missing {key!r}")
        try:
            # the document's keys are the records' fields
            edges = [Edge(*(e[f] for f in Edge._fields)) for e in doc["edges"]]
            squares = [Square(*(s[f] for f in Square._fields))
                       for s in doc["squares"]]
        except (TypeError, KeyError) as exc:
            raise InputFormatError(f"malformed edge/square entry: {exc}") from exc
        for kind, record in (("edge", Edge), ("square", Square)):
            for entry in doc[kind + "s"]:   # a mapping with every field
                extra = sorted(set(entry) - set(record._fields))
                if extra:
                    raise InputFormatError(
                        f"{kind} entry {entry} has unknown fields {extra}")
        return cls(doc["k"], doc["vertices"], edges, squares)

    @classmethod
    def from_json(cls, text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(doc)

    def sha256(self):
        import hashlib      # here: gen and failed runs never load it
        return hashlib.sha256(self.to_json().encode()).hexdigest()
