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

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass

from . import degrees as dg
from .errors import (CompositionError, EnumerationCapError, GraphValidationError,
                     InputFormatError, NotStronglyConnectedError,
                     SegmentRangeError)
from .perron import MatrixFamily

ENUM_CAP = 10 ** 6  # default KGraph.cap, and the largest rank k

PATH_SEP = "."


@dataclass(frozen=True, slots=True)
class Edge:
    id: str
    color: int
    range: str
    source: str


@dataclass(frozen=True, slots=True)
class Square:
    """blue.red = red2.blue2 with blue/blue2 of the lower color."""

    blue: str
    red: str
    red2: str
    blue2: str


@dataclass(frozen=True, slots=True)
class Path:
    """A morphism in color-ordered normal form.

    edges holds edge ids; range/source follow the arrow convention r(p) at the
    left end, s(p) at the right, so p = e_1 ... e_l has s(e_t) = r(e_{t+1}).
    A degree-zero path is a vertex: edges == () and range == source.
    """

    degree: tuple
    edges: tuple
    range: str
    source: str

    @property
    def is_vertex(self):
        return not self.edges

    def literal(self):
        return self.range if self.is_vertex else PATH_SEP.join(self.edges)

    def __repr__(self):
        return f"Path({self.literal()})"


@dataclass
class ValidationReport:
    valid: bool
    k: int
    vertex_count: int
    edge_counts: tuple
    square_failures: list
    cubical_checked: bool
    cubical_failures: list
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
            if not all(isinstance(x, str)
                       for x in (sq.blue, sq.red, sq.red2, sq.blue2)):
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
            for eid in (sq.blue, sq.red, sq.red2, sq.blue2):
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
        self._path_cache = {}       # degree -> tuple[Path]
        self._paths_by_range = {}   # degree -> {vertex: tuple[Path]}
        self._matrices = None

    # ------------------------------------------------------------------
    # construction helpers

    def edge(self, eid):
        e = self._edge.get(eid)
        if e is None:
            raise CompositionError(f"edge id {eid!r} not in this graph")
        return e

    def color_of(self, eid):
        return self.edge(eid).color

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
        edge_counts = [0] * self.k
        for e in self.edges:
            edge_counts[e.color - 1] += 1
        # (color, vertex) keys lie in 1..k x vertices: all there iff as many
        full = self.k * len(self.vertices)
        self._report = ValidationReport(
            valid=not square_failures and not cubical_failures,
            k=self.k,
            vertex_count=len(self.vertices),
            edge_counts=tuple(edge_counts),
            square_failures=square_failures,
            cubical_checked=cubical_checked,
            cubical_failures=cubical_failures,
            strongly_connected=self._strongly_connected(),
            no_sources=len(self._by_range) == full,
            no_sinks=len({(e.color, e.source) for e in self.edges}) == full,
        )
        return self._report

    def _check_cubical(self, by_vertex):
        """Reverse each composable chain e.f.g of ascending colors along
        both transposition routes and compare.  Disagreement means
        factorizations of degree e_i+e_j+e_l are ambiguous."""
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
        """True iff vΛw is nonempty for every ordered vertex pair (trivial
        identity paths make the diagonal automatic)."""
        succ = {v: set() for v in self.vertices}
        for e in self.edges:
            succ[e.source].add(e.range)  # an edge is a path from source to range
        for v in self.vertices:
            seen = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                for w in succ[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
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

    def factorize(self, path, m):
        """The unique factorization path = head . tail with d(head) = m."""
        if not (dg.is_nonneg(m) and dg.leq(m, path.degree)):
            raise SegmentRangeError(
                f"degree {m} not between 0 and {path.degree}")
        self.require_valid()
        try:
            head, tail = self._take(path.edges, m)
            mid = self.vertex_path(self._edge[tail[0]].range if tail
                                   else path.source)
            return (self._path_from_normal(head, tuple(m)) if head else mid,
                    self._path_from_normal(tail, dg.sub(path.degree, m))
                    if tail else mid)
        except KeyError as exc:
            raise CompositionError(f"{exc} not in this graph") from None

    def segment(self, path, m, n):
        """The subpath path(m, n) of degree n - m: one _take drops the
        degree-m head, a second keeps the degree-(n - m) head of the rest."""
        if not (dg.is_nonneg(m) and dg.leq(m, n) and dg.leq(n, path.degree)):
            raise SegmentRangeError(
                f"need 0 <= {m} <= {n} <= {path.degree}")
        self.require_valid()
        try:
            _, rest = self._take(path.edges, m)
            seg, _ = self._take(rest, dg.sub(n, m))
            if seg:
                return self._path_from_normal(seg, dg.sub(n, m))
            return self.vertex_path(self._edge[rest[0]].range if rest
                                    else path.source)
        except KeyError as exc:
            raise CompositionError(f"{exc} not in this graph") from None

    # ------------------------------------------------------------------
    # enumeration

    def count_paths(self, n):
        """|Λ^n| from coordinate-matrix powers (cheap, exact)."""
        mat = MatrixFamily.from_graph(self).power(n)
        return sum(sum(row) for row in mat)

    def paths_of_degree(self, n, range=None, source=None):
        """All paths of degree n, optionally filtered by range/source vertex,
        in canonical sorted order.  EnumerationCapError when |Lambda^n|
        exceeds self.cap, whether or not Lambda^n is cached."""
        self.require_valid()
        n = tuple(n)
        if not dg.is_nonneg(n):
            raise InputFormatError(f"degree {n} must be nonnegative")
        paths = self._path_cache.get(n)
        size = self.count_paths(n) if paths is None else len(paths)
        if size > self.cap:
            raise EnumerationCapError(
                f"|paths of degree {n}| = {size} exceeds cap {self.cap}")
        if paths is None:
            paths = self._path_cache[n] = self._enumerate(n)
            by_range = {}
            for p in paths:
                by_range.setdefault(p.range, []).append(p)
            self._paths_by_range[n] = {v: tuple(ps)
                                       for v, ps in by_range.items()}
        if range is not None and source is None:
            return list(self._paths_by_range[n].get(range, ()))
        return [p for p in paths
                if (range is None or p.range == range)
                and (source is None or p.source == source)]

    def _enumerate(self, n):
        if not any(n):
            return tuple(self.vertex_path(v) for v in self.vertices)
        # Append one edge of the highest used color at the source end; the
        # result is already in normal form, and by uniqueness of the
        # degree-(n - e_i) | e_i factorization each path arises exactly once.
        # Stems come sorted by (range, edges) and edge ids sorted, so the
        # paths come out in that canonical order.
        color = max(i + 1 for i, c in enumerate(n) if c > 0)
        stem_deg = dg.sub(n, dg.unit(self.k, color))
        return tuple(Path(n, stem.edges + (eid,), stem.range,
                          self._edge[eid].source)
                     for stem in self.paths_of_degree(stem_deg)
                     for eid in self._by_range.get((color, stem.source), ()))

    def lambda_min(self, mu, nu):
        """All (alpha, beta) with mu.alpha = nu.beta of degree d(mu) v d(nu),
        sorted canonically."""
        self.require_valid()
        if mu.range != nu.range:
            return []
        jn = dg.join(mu.degree, nu.degree)
        table = {}   # compose(mu, a).edges -> a, with no Path built
        start = len(mu.edges)
        for a in self.paths_of_degree(dg.sub(jn, mu.degree), range=mu.source):
            table[tuple(self._normalize(mu.edges + a.edges, start))] = a
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
            "edges": [{"id": e.id, "color": e.color,
                       "range": e.range, "source": e.source}
                      for e in self.edges],
            "squares": [{"blue": s.blue, "red": s.red,
                         "red2": s.red2, "blue2": s.blue2}
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
            edges = [Edge(id=e["id"], color=e["color"],
                          range=e["range"], source=e["source"])
                     for e in doc["edges"]]
            squares = [Square(blue=s["blue"], red=s["red"],
                              red2=s["red2"], blue2=s["blue2"])
                       for s in doc["squares"]]
        except (TypeError, KeyError) as exc:
            raise InputFormatError(f"malformed edge/square entry: {exc}") from exc
        return cls(doc["k"], doc["vertices"], edges, squares)

    @classmethod
    def from_json(cls, text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(doc)

    def sha256(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()
