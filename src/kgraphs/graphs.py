"""Finite rank-k graphs presented by colored edges and commuting squares.

A graph of rank k is given by vertices, edges colored 1..k, and for each color
pair i < j a square table identifying each composable pair (e of color i, f of
color j) with its unique refactorization (f' of color j, e' of color i), so
that e.f = f'.e' as morphisms.  Paths are kept in color-ordered normal form
(all color-1 edges first, then color-2, ...); composition and factorization
move edges across squares one adjacent transposition at a time.

Validation checks that the square tables are total bijections with matched
endpoints and, for rank >= 3, that the two ways of reversing a tricolored
triple through squares agree (the cubical condition).  Together these make the
degree-indexed factorization unique, which every other module relies on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from . import degrees as dg
from .errors import (CompositionError, EnumerationCapError, GraphValidationError,
                     InputFormatError, NotStronglyConnectedError,
                     SegmentRangeError)
from .perron import MatrixFamily

ENUM_CAP = 10 ** 6  # default guard for path enumerations

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

    def to_dict(self):
        return {
            "valid": self.valid,
            "k": self.k,
            "vertex_count": self.vertex_count,
            "edge_counts": list(self.edge_counts),
            "square_failures": list(self.square_failures),
            "cubical_checked": self.cubical_checked,
            "cubical_failures": list(self.cubical_failures),
            "strongly_connected": self.strongly_connected,
            "no_sources": self.no_sources,
            "no_sinks": self.no_sinks,
        }


class KGraph:
    """Immutable rank-k graph.  Mutating after construction is unsupported."""

    def __init__(self, k, vertices, edges, squares):
        if not isinstance(k, int) or k < 1:
            raise InputFormatError("rank k must be a positive integer")
        self.k = k
        self.vertices = tuple(sorted(vertices))
        self._vset = set(self.vertices)
        if len(self._vset) != len(self.vertices):
            raise InputFormatError("duplicate vertex ids")
        for v in self.vertices:
            if not isinstance(v, str) or not v or PATH_SEP in v:
                raise InputFormatError(f"bad vertex id {v!r}")
        self.edges = tuple(sorted(edges, key=lambda e: e.id))
        self._edge = {}
        for e in self.edges:
            if not isinstance(e.id, str) or not e.id or PATH_SEP in e.id:
                raise InputFormatError(f"bad edge id {e.id!r}")
            if e.id in self._edge or e.id in self._vset:
                raise InputFormatError(f"duplicate id {e.id!r}")
            if not 1 <= e.color <= k:
                raise InputFormatError(f"edge {e.id}: color {e.color} "
                                       f"outside 1..{k}")
            if e.range not in self._vset or e.source not in self._vset:
                raise InputFormatError(f"edge {e.id}: unknown endpoint")
            self._edge[e.id] = e
        self.squares = tuple(sorted(squares, key=lambda s: (s.blue, s.red)))
        for sq in self.squares:
            for eid in (sq.blue, sq.red, sq.red2, sq.blue2):
                if eid not in self._edge:
                    raise InputFormatError(f"square refers to unknown edge "
                                           f"{eid!r}")
        # Derived lookups.
        self._edges_of_color = {i: tuple(e for e in self.edges if e.color == i)
                                for i in range(1, k + 1)}
        self._by_range = {}
        for e in self.edges:
            self._by_range.setdefault((e.color, e.range), []).append(e.id)
        for key in self._by_range:
            self._by_range[key] = tuple(sorted(self._by_range[key]))
        self._fwd = {}   # (i, j) -> {(blue, red): (red2, blue2)}
        self._inv = {}   # (i, j) -> {(red2, blue2): (blue, red)}
        self._report = None
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
        square_failures = []
        fwd = {}
        inv = {}
        buckets = {}
        for sq in self.squares:
            b, r = self.edge(sq.blue), self.edge(sq.red)
            r2, b2 = self.edge(sq.red2), self.edge(sq.blue2)
            if not (b.color == b2.color and r.color == r2.color
                    and b.color < r.color):
                square_failures.append(
                    f"square {sq} has inconsistent color roles")
                continue
            buckets.setdefault((b.color, r.color), []).append(sq)
        for i in range(1, self.k + 1):
            for j in range(i + 1, self.k + 1):
                pairs_ij = [(e.id, f.id)
                            for e in self._edges_of_color[i]
                            for f in self._edges_of_color[j]
                            if e.source == f.range]
                pairs_ji = [(f.id, e.id)
                            for f in self._edges_of_color[j]
                            for e in self._edges_of_color[i]
                            if f.source == e.range]
                table = {}
                values = {}
                for sq in buckets.get((i, j), []):
                    key = (sq.blue, sq.red)
                    val = (sq.red2, sq.blue2)
                    if key in table:
                        square_failures.append(
                            f"duplicate square for pair {key}")
                        continue
                    b, r = self.edge(sq.blue), self.edge(sq.red)
                    r2, b2 = self.edge(sq.red2), self.edge(sq.blue2)
                    if b.source != r.range:
                        square_failures.append(
                            f"square {sq}: blue.red not composable")
                        continue
                    if r2.source != b2.range:
                        square_failures.append(
                            f"square {sq}: red2.blue2 not composable")
                        continue
                    if r2.range != b.range or b2.source != r.source:
                        square_failures.append(
                            f"square {sq}: endpoints do not match")
                        continue
                    if val in values:
                        square_failures.append(
                            f"squares map two pairs to {val}")
                        continue
                    table[key] = val
                    values[val] = key
                missing = set(pairs_ij) - set(table)
                for key in sorted(missing):
                    square_failures.append(
                        f"no square for colors ({i},{j}) pair {key}")
                extra = set(table) - set(pairs_ij)
                for key in sorted(extra):
                    square_failures.append(
                        f"square for non-composable pair {key}")
                uncovered = set(pairs_ji) - set(values)
                for val in sorted(uncovered):
                    square_failures.append(
                        f"squares miss reversed pair {val} "
                        f"for colors ({i},{j})")
                self._fwd[(i, j)] = table
                self._inv[(i, j)] = values
        cubical_failures = []
        cubical_checked = False
        if self.k >= 3 and not square_failures:
            cubical_checked = True
            cubical_failures = self._check_cubical()
        strongly_connected = self._strongly_connected()
        no_sources = all((i, v) in self._by_range
                         for v in self.vertices
                         for i in range(1, self.k + 1))
        out = {(e.color, e.source) for e in self.edges}
        no_sinks = all((i, v) in out
                       for v in self.vertices
                       for i in range(1, self.k + 1))
        valid = not square_failures and not cubical_failures
        self._report = ValidationReport(
            valid=valid,
            k=self.k,
            vertex_count=len(self.vertices),
            edge_counts=tuple(len(self._edges_of_color[i])
                              for i in range(1, self.k + 1)),
            square_failures=square_failures,
            cubical_checked=cubical_checked,
            cubical_failures=cubical_failures,
            strongly_connected=strongly_connected,
            no_sources=no_sources,
            no_sinks=no_sinks,
        )
        return self._report

    def _check_cubical(self):
        """Reverse each tricolored composable triple along both transposition
        routes and compare.  Disagreement means factorizations of degree
        e_i+e_j+e_l are ambiguous."""
        failures = []

        def fwd_swap(seq, t):
            # seq[t], seq[t+1] is an ascending color pair; push the higher
            # color left through its square.
            e, f = seq[t], seq[t + 1]
            ci, cj = self.color_of(e), self.color_of(f)
            r2, b2 = self._fwd[(ci, cj)][(e, f)]
            return seq[:t] + [r2, b2] + seq[t + 2:]

        for i in range(1, self.k + 1):
            for j in range(i + 1, self.k + 1):
                for l in range(j + 1, self.k + 1):
                    for e in self._edges_of_color[i]:
                        for f in self._edges_of_color[j]:
                            if e.source != f.range:
                                continue
                            for g in self._edges_of_color[l]:
                                if f.source != g.range:
                                    continue
                                seq = [e.id, f.id, g.id]
                                a = fwd_swap(fwd_swap(fwd_swap(seq, 1), 0), 1)
                                b = fwd_swap(fwd_swap(fwd_swap(seq, 0), 1), 0)
                                if a != b:
                                    failures.append(
                                        f"cubical failure on triple "
                                        f"({e.id},{f.id},{g.id}): "
                                        f"{a} vs {b}")
        return failures

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

    def _normalize(self, seq):
        """Sort a composable edge sequence into ascending color order by
        rewriting descending adjacent pairs through inverse squares."""
        seq = list(seq)
        n = len(seq)
        moved = True
        while moved:
            moved = False
            for t in range(n - 1):
                ci = self.color_of(seq[t])
                cj = self.color_of(seq[t + 1])
                if ci > cj:
                    # (seq[t], seq[t+1]) equals some (red2, blue2); replace
                    # with the square's (blue, red).
                    seq[t], seq[t + 1] = self._inv[(cj, ci)][(seq[t], seq[t + 1])]
                    moved = True
        return seq

    def _path_from_normal(self, seq, range_v=None, source_v=None):
        if not seq:
            return Path(dg.zero(self.k), (), range_v, source_v)
        deg = [0] * self.k
        for eid in seq:
            deg[self.color_of(eid) - 1] += 1
        return Path(tuple(deg), tuple(seq),
                    self.edge(seq[0]).range, self.edge(seq[-1]).source)

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
        return self._path_from_normal(self._normalize(ids))

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
        seq = self._normalize(list(mu.edges) + list(nu.edges))
        return self._path_from_normal(seq)

    def _split_first(self, seq, color):
        """Factor a normal-form sequence as (edge of `color`) . remainder,
        returning (edge_id, remainder_seq)."""
        t = next(i for i, eid in enumerate(seq)
                 if self.color_of(eid) == color)
        seq = list(seq)
        for j in range(t, 0, -1):
            blue, red = seq[j - 1], seq[j]
            cb = self.color_of(blue)
            r2, b2 = self._fwd[(cb, color)][(blue, red)]
            seq[j - 1], seq[j] = r2, b2
        return seq[0], seq[1:]

    def factorize(self, path, m):
        """The unique factorization path = head . tail with d(head) = m."""
        if not (dg.is_nonneg(m) and dg.leq(m, path.degree)):
            raise SegmentRangeError(
                f"degree {m} not between 0 and {path.degree}")
        self.require_valid()
        seq = list(path.edges)
        collected = []
        for color in range(1, self.k + 1):
            for _ in range(m[color - 1]):
                eid, seq = self._split_first(seq, color)
                collected.append(eid)
        if collected:
            head = self._path_from_normal(collected)
        else:
            head = self.vertex_path(path.range)
        if seq:
            tail = self._path_from_normal(seq)
        else:
            tail = self.vertex_path(head.source)
        return head, tail

    def segment(self, path, m, n):
        """The subpath path(m, n) of degree n - m."""
        if not (dg.is_nonneg(m) and dg.leq(m, n) and dg.leq(n, path.degree)):
            raise SegmentRangeError(
                f"need 0 <= {m} <= {n} <= {path.degree}")
        _, rest = self.factorize(path, m)
        seg, _ = self.factorize(rest, dg.sub(n, m))
        return seg

    # ------------------------------------------------------------------
    # enumeration

    def count_paths(self, n):
        """|Λ^n| from coordinate-matrix powers (cheap, exact)."""
        mat = MatrixFamily.from_graph(self).power(n)
        return sum(sum(row) for row in mat)

    def paths_of_degree(self, n, range=None, source=None, cap=ENUM_CAP):
        """All paths of degree n, optionally filtered by range/source vertex,
        in canonical sorted order."""
        self.require_valid()
        n = tuple(n)
        if not dg.is_nonneg(n):
            raise InputFormatError(f"degree {n} must be nonnegative")
        if n not in self._path_cache:
            if cap is not None and self.count_paths(n) > cap:
                raise EnumerationCapError(
                    f"|paths of degree {n}| = {self.count_paths(n)} "
                    f"exceeds cap {cap}")
            self._path_cache[n] = self._enumerate(n)
            by_range = {}
            for p in self._path_cache[n]:
                by_range.setdefault(p.range, []).append(p)
            self._paths_by_range[n] = {v: tuple(ps)
                                       for v, ps in by_range.items()}
        if range is not None and source is None:
            paths = self._paths_by_range[n].get(range, ())
            return list(paths)
        paths = self._path_cache[n]
        return [p for p in paths
                if (range is None or p.range == range)
                and (source is None or p.source == source)]

    def _enumerate(self, n):
        if not any(n):
            return tuple(self.vertex_path(v) for v in self.vertices)
        # Append one edge of the highest used color at the source end; the
        # result is already in normal form, and by uniqueness of the
        # degree-(n - e_i) | e_i factorization each path arises exactly once.
        color = max(i + 1 for i, c in enumerate(n) if c > 0)
        stem_deg = dg.sub(n, dg.unit(self.k, color))
        out = []
        for stem in self.paths_of_degree(stem_deg, cap=None):
            for eid in self._by_range.get((color, stem.source), ()):
                e = self.edge(eid)
                out.append(Path(n, stem.edges + (eid,), stem.range, e.source))
        out.sort(key=lambda p: (p.range, p.edges))
        return tuple(out)

    def lambda_min(self, mu, nu):
        """All (alpha, beta) with mu.alpha = nu.beta of degree d(mu) v d(nu),
        sorted canonically."""
        self.require_valid()
        if mu.range != nu.range:
            return []
        jn = dg.join(mu.degree, nu.degree)
        table = {}
        for a in self.paths_of_degree(dg.sub(jn, mu.degree), range=mu.source):
            table[self.compose(mu, a).edges] = a
        out = []
        for b in self.paths_of_degree(dg.sub(jn, nu.degree), range=nu.source):
            a = table.get(self.compose(nu, b).edges)
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
            mats = []
            for i in range(1, self.k + 1):
                m = [[0] * len(self.vertices) for _ in self.vertices]
                for e in self._edges_of_color[i]:
                    m[idx[e.range]][idx[e.source]] += 1
                mats.append(tuple(tuple(row) for row in m))
            self._matrices = tuple(mats)
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
        if not isinstance(doc["k"], int):
            raise InputFormatError("k must be an integer")
        for e in edges:
            if not isinstance(e.color, int):
                raise InputFormatError(f"edge {e.id!r}: color must be an int")
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
