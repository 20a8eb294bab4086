"""Differential test of the path layer against the code it replaced.

`OldLayer` is a test-only copy of the transposition-at-a-time path layer:
a bubble-sort normal form, `_split_first` moving one head edge at a time to
the front, and `segment` as two factorizations.  KGraph's one-pass
`compose`, `factorize`, `segment`, `path_from_edges` and `lambda_min` must
give equal results, and `extensions` the table that `compose` builds, in
the same key order and for vertex paths too.  They are compared on the
four fixtures, on generated single-vertex 2-graphs, on pullbacks and
products of generated 1-graphs and at rank 3.
The factorization property is checked along the way: a factorization and
the three segments at 0 <= m <= n <= d(p) compose back to p.  Enumeration
must come out in canonical (range, edges) order, and stop at the graph's
cap whatever was enumerated before.  Every generated graph passes
validation, and its Perron radii agree with numpy's eigenvalues.

`OldPaths` is a test-only copy of the recursive `paths_of_degree`, which
built Lambda^n from its cached stem Lambda^{n - e_c} and checked the cap on
every stem it built.  The run-joining enumeration must give the same paths
in the same order, filtered or not, whichever degree is asked first, and
raise EnumerationCapError with the same message on the same calls.

`split_strip`'s one in-place pass must equal the two calls it replaced,
`_take(_normalize(...), e_i)`, and the enumeration must leave the cyclic
collector as it found it.  Records set their fields through slot
descriptors or `object.__setattr__` and must still refuse changes.
"""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgraphs import builders
from kgraphs import degrees as dg
from kgraphs import graphs as graphs_module
from kgraphs.errors import EnumerationCapError, Record
from kgraphs.graphs import KGraph, Path
from kgraphs.perron import MatrixFamily, perron_data


class OldLayer:
    """The path operations as they were, on one graph's square table."""

    def __init__(self, g):
        self.g = g
        self.fwd = {(s.blue, s.red): (s.red2, s.blue2) for s in g.squares}
        self.inv = {v: key for key, v in self.fwd.items()}

    def normalize(self, seq):
        seq = list(seq)
        moved = True
        while moved:
            moved = False
            for t in range(len(seq) - 1):
                if self.g.edge(seq[t]).color > self.g.edge(seq[t + 1]).color:
                    seq[t], seq[t + 1] = self.inv[(seq[t], seq[t + 1])]
                    moved = True
        return seq

    def path(self, seq):
        deg = [0] * self.g.k
        for eid in seq:
            deg[self.g.edge(eid).color - 1] += 1
        return Path(tuple(deg), tuple(seq), self.g.edge(seq[0]).range,
                    self.g.edge(seq[-1]).source)

    def path_from_edges(self, ids):
        return self.path(self.normalize(ids))

    def compose(self, mu, nu):
        assert mu.source == nu.range
        if mu.is_vertex:
            return nu
        if nu.is_vertex:
            return mu
        return self.path(self.normalize(list(mu.edges) + list(nu.edges)))

    def split_first(self, seq, color):
        t = next(i for i, eid in enumerate(seq)
                 if self.g.edge(eid).color == color)
        seq = list(seq)
        for j in range(t, 0, -1):
            seq[j - 1], seq[j] = self.fwd[(seq[j - 1], seq[j])]
        return seq[0], seq[1:]

    def factorize(self, path, m):
        seq = list(path.edges)
        collected = []
        for color in range(1, self.g.k + 1):
            for _ in range(m[color - 1]):
                eid, seq = self.split_first(seq, color)
                collected.append(eid)
        head = (self.path(collected) if collected
                else self.g.vertex_path(path.range))
        tail = self.path(seq) if seq else self.g.vertex_path(head.source)
        return head, tail

    def segment(self, path, m, n):
        _, rest = self.factorize(path, m)
        return self.factorize(rest, dg.sub(n, m))[0]

    def lambda_min(self, mu, nu):
        if mu.range != nu.range:
            return []
        jn = dg.join(mu.degree, nu.degree)
        table = {self.compose(mu, a).edges: a
                 for a in self.g.paths_of_degree(dg.sub(jn, mu.degree),
                                                 range=mu.source)}
        out = [(table[self.compose(nu, b).edges], b)
               for b in self.g.paths_of_degree(dg.sub(jn, nu.degree),
                                               range=nu.source)
               if self.compose(nu, b).edges in table]
        return sorted(out, key=lambda ab: (ab[0].edges, ab[1].edges))


class OldPaths:
    """paths_of_degree as it was, on one graph: Lambda^n is its stem
    Lambda^{n - e_c} (c the highest used color) followed by one more
    color-c edge, every stem is cached, and the cap is checked on each
    degree before it is built."""

    def __init__(self, g):
        self.g = g
        self.cache = {}

    def __call__(self, n, range=None):
        g = self.g
        paths = self.cache.get(n)
        size = g.count_paths(n) if paths is None else len(paths)
        if size > g.cap:
            raise EnumerationCapError(
                f"|paths of degree {n}| = {size} exceeds cap {g.cap}")
        if paths is None:
            paths = self.cache[n] = self.enumerate(n)
        return [p for p in paths if range is None or p.range == range]

    def enumerate(self, n):
        g = self.g
        if not any(n):
            return tuple(g.vertex_path(v) for v in g.vertices)
        color = max(i + 1 for i, c in enumerate(n) if c > 0)
        return tuple(Path(n, stem.edges + (eid,), stem.range,
                          g.edge(eid).source)
                     for stem in self(dg.sub(n, dg.unit(g.k, color)))
                     for eid in g.edges_into(color, stem.source))


def paths_up_to(g, top):
    return [p for d in dg.degrees_below(top) for p in g.paths_of_degree(d)]


def walks(g, length):
    """Every composable edge sequence of the given length, in any colors."""
    seqs = [[e.id] for e in g.edges]
    for _ in range(length - 1):
        seqs = [s + [e.id] for s in seqs for e in g.edges
                if g.edge(s[-1]).source == e.range]
    return seqs


def check_layer(g, top, pair_top):
    """New against old on every path of degree <= top, and on every pair
    of paths of degree <= pair_top for compose and lambda_min."""
    assert g.validate().valid
    old = OldLayer(g)
    for d in dg.degrees_below(top):
        paths = g.paths_of_degree(d)
        assert paths == sorted(paths, key=lambda p: (p.range, p.edges))
    for p in paths_up_to(g, top):
        if not p.is_vertex:
            assert g.path_from_edges(p.edges) == p
        facs = {m: g.factorize(p, m) for m in dg.degrees_below(p.degree)}
        for m, (head, tail) in facs.items():
            assert (head, tail) == old.factorize(p, m)
            assert g.compose(head, tail) == p
            assert g.segment(p, dg.zero(g.k), m) == head
            assert g.segment(p, m, p.degree) == tail
            for n in facs:
                if dg.leq(m, n):
                    # p = p(0, m) p(m, n) p(n, d(p))
                    seg = g.segment(p, m, n)
                    assert seg == old.segment(p, m, n)
                    assert seg.degree == dg.sub(n, m)
                    assert g.compose(g.compose(head, seg), facs[n][1]) == p
    small = paths_up_to(g, pair_top)
    for mu, nu in itertools.product(small, repeat=2):
        if mu.source == nu.range:
            assert g.compose(mu, nu) == old.compose(mu, nu)
        assert g.lambda_min(mu, nu) == old.lambda_min(mu, nu)
    for x in small:
        for d in dg.degrees_below(pair_top):
            want = {g.compose(x, a).edges: a
                    for a in g.paths_of_degree(d, range=x.source)}
            got = g.extensions(x, dg.add(x.degree, d))
            assert list(got.items()) == list(want.items())
    for seq in walks(g, sum(top)):
        assert g.path_from_edges(seq) == old.path_from_edges(seq)


def check_enumeration(g, top):
    """paths_of_degree against OldPaths for every degree <= top, asked in
    ascending and in descending order on fresh copies of g: unfiltered and
    by each range.  A returned list is the caller's own: changing it
    changes no later result."""
    degrees = dg.degrees_below(top)
    for order in (degrees, degrees[::-1]):
        h = KGraph.from_json_dict(g.to_json_dict())
        old = OldPaths(h)
        for n in order:
            assert tuple(h.paths_of_degree(n)) == tuple(old(n))
            for v in h.vertices:
                assert tuple(h.paths_of_degree(n, range=v)) == \
                    tuple(old(n, range=v))
        assert set(h._path_cache) == set(degrees)
        for got in (h.paths_of_degree(top),
                    h.paths_of_degree(top, range=h.vertices[0])):
            got.reverse()
            got.append(h.vertex_path(h.vertices[0]))
        assert h.paths_of_degree(top) == old(top)
        assert h.paths_of_degree(top, range=h.vertices[0]) == \
            old(top, range=h.vertices[0])


def test_fixtures(graphs):
    for g in graphs.values():
        if g.k == 1:
            check_layer(g, (4,), (2,))
            check_enumeration(g, (4,))
        else:
            check_layer(g, (2, 2), (1, 1))
            check_enumeration(g, (3, 3))


def test_rank_three():
    flips = builders.make_single_vertex(3, [2, 2, 2])
    check_layer(flips, (1, 1, 1), (1, 1, 0))
    # x_s y = y x_sigma(s) and x_s z = z x_sigma(s): commuting, so cubical
    sigma = {1: 2, 2: 1, 3: 3}
    tables = {(1, 2): {(s, 1): (1, sigma[s]) for s in sigma},
              (1, 3): {(s, 1): (1, sigma[s]) for s in sigma},
              (2, 3): {(1, 1): (1, 1)}}
    swaps = builders.make_single_vertex(3, [3, 1, 1], tables)
    check_layer(swaps, (2, 1, 1), (1, 1, 1))
    for g in (flips, swaps):
        check_enumeration(g, (2, 2, 2))


@st.composite
def single_vertex_2graphs(draw):
    """One vertex, 1-3 loops per color, squares from a random bijection of
    loop pairs: at rank 2 every bijection gives a valid 2-graph."""
    a = draw(st.integers(1, 3))
    b = draw(st.integers(1, 3))
    pairs = [(s, t) for s in range(1, a + 1) for t in range(1, b + 1)]
    images = draw(st.permutations([(u, v) for u in range(1, b + 1)
                                   for v in range(1, a + 1)]))
    return builders.make_single_vertex(2, [a, b],
                                       {(1, 2): dict(zip(pairs, images))})


@settings(max_examples=15)
@given(single_vertex_2graphs())
def test_single_vertex_2graphs(g):
    check_layer(g, (2, 2), (1, 1))
    check_enumeration(g, (3, 3))


@st.composite
def one_graphs(draw):
    """A strongly connected 1-graph on 1-3 vertices: a cycle through every
    vertex plus 0-2 further edges."""
    n = draw(st.integers(1, 3))
    vs = [f"v{i}" for i in range(n)]
    edges = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    edges += draw(st.lists(st.tuples(st.sampled_from(vs),
                                     st.sampled_from(vs)), max_size=2))
    base = builders.one_graph(vs, [(f"x{i}", r, s)
                                   for i, (r, s) in enumerate(edges)])
    assert base.validate().strongly_connected
    return base


pullbacks = one_graphs().map(builders.make_pullback)
products = st.tuples(one_graphs(), one_graphs()).map(
    lambda pair: builders.make_product(*pair))


@settings(max_examples=15)
@given(pullbacks)
def test_pullbacks(g):
    check_layer(g, (2, 2), (1, 1))
    check_enumeration(g, (3, 3))


@settings(max_examples=10)
@given(products)
def test_products(g):
    check_layer(g, (2, 2), (1, 1))
    check_enumeration(g, (3, 3))


def check_cap(g, top):
    """For every degree n <= top and cap |Lambda^n| - 1 or |Lambda^n|,
    paths_of_degree(n) raises EnumerationCapError exactly when |Lambda^n|
    exceeds the cap: on a fresh graph, and on one that enumerated every
    degree <= top under the default cap before its cap was lowered.
    lambda_min stops at the cap too."""
    doc = g.to_json_dict()
    warm = KGraph.from_json_dict(doc)
    degrees = dg.degrees_below(top)
    for n in degrees:
        warm.paths_of_degree(n)
    for n in degrees:
        size = g.count_paths(n)
        for cap in (size - 1, size):
            for h in (KGraph.from_json_dict(doc), warm):
                h.cap = cap
                if size > cap:
                    with pytest.raises(EnumerationCapError):
                        h.paths_of_degree(n)
                else:
                    assert h.paths_of_degree(n) == g.paths_of_degree(n)
    mu = g.paths_of_degree(dg.unit(g.k, 1))[0]
    nu = g.paths_of_degree(dg.unit(g.k, g.k), range=mu.range)[0]
    jn = dg.join(mu.degree, nu.degree)
    warm.cap = max(g.count_paths(dg.sub(jn, mu.degree)),
                   g.count_paths(dg.sub(jn, nu.degree))) - 1
    with pytest.raises(EnumerationCapError):
        warm.lambda_min(mu, nu)
    warm.cap += 1
    assert warm.lambda_min(mu, nu) == g.lambda_min(mu, nu)


def test_cap_fixtures(graphs):
    for g in graphs.values():
        check_cap(g, (4,) if g.k == 1 else (2, 2))


@settings(max_examples=15)
@given(st.one_of(single_vertex_2graphs(), pullbacks, products))
def test_cap_generated(g):
    check_cap(g, (2, 2))


@settings(max_examples=30)
@given(st.one_of(single_vertex_2graphs(), pullbacks, products))
def test_generated_valid_with_numpy_radii(g):
    rep = g.validate()
    assert rep.valid and rep.strongly_connected
    pd = perron_data(MatrixFamily.from_graph(g))
    for mat, rho, value in zip(g.coordinate_matrices(), pd.rho,
                               pd.rho_values()):
        radius = max(abs(np.linalg.eigvals(np.array(mat, dtype=float))))
        assert abs(radius - rho) <= 1e-9
        assert abs(radius - float(value)) <= 1e-9


def source_graph():
    """A valid 1-graph with a source y: |Lambda^2| = 100 < |Lambda^1| = 101."""
    return builders.one_graph(
        ["v", "x", "y"],
        [(f"h{i}", "v", "x") for i in range(100)] + [("k", "x", "y")])


def test_cap_counts_the_stems_below():
    """Lambda^2 is under the cap, but building it from Lambda^1 was not."""
    g = source_graph()
    assert g.validate().valid
    assert (g.count_paths((2,)), g.count_paths((1,))) == (100, 101)
    g.cap = 100
    with pytest.raises(EnumerationCapError) as err:
        g.paths_of_degree((2,))
    assert str(err.value) == "|paths of degree (1,)| = 101 exceeds cap 100"
    g.cap = 101
    assert len(g.paths_of_degree((2,))) == 100
    # under a lowered cap, a new degree's chain stops at the checked (2,),
    # as the old build stopped at its cached stem, and (1,) still raises
    g.cap = 100
    assert g.paths_of_degree((3,)) == []
    with pytest.raises(EnumerationCapError) as err:
        g.paths_of_degree((1,))
    assert str(err.value) == "|paths of degree (1,)| = 101 exceeds cap 100"


def outcome(call):
    try:
        return tuple(call())
    except EnumerationCapError as exc:
        return str(exc)


@settings(max_examples=40)
@given(st.one_of(single_vertex_2graphs(), pullbacks, products,
                 st.builds(source_graph),
                 st.sampled_from(sorted(builders.FIXTURES)).map(
                     lambda name: builders.FIXTURES[name]())),
       st.data())
def test_cap_parity(g, data):
    """A drawn run of (degree, cap) calls on one graph: the same paths, or
    the same EnumerationCapError message, as OldPaths on a twin graph,
    whatever each earlier call cached."""
    twin = KGraph.from_json_dict(g.to_json_dict())
    old = OldPaths(twin)
    degrees = dg.degrees_below((3,) if g.k == 1 else (2, 2))
    caps = sorted({g.count_paths(n) + d for n in degrees for d in (-1, 0)})
    calls = data.draw(st.lists(st.tuples(st.sampled_from(degrees),
                                         st.sampled_from(caps)),
                               min_size=1, max_size=12))
    for n, cap in calls:
        g.cap = twin.cap = cap
        assert outcome(lambda: g.paths_of_degree(n)) == \
            outcome(lambda: old(n))


def test_enumeration_keeps_only_the_asked_degree():
    """Lambda^(8,8) of pullback-b2 is cached without its 16 stems, and the
    graph then holds under 20 MiB (30 MiB when the stems were cached)."""
    tracemalloc.start()
    try:
        g = builders.pullback_b2()
        assert len(g.paths_of_degree((8, 8))) == 2 ** 16
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(g._path_cache) == [(8, 8)]
    assert current < 20 * 2 ** 20


def test_long_degree_needs_no_deep_recursion():
    """Building each stem through paths_of_degree recursed twice per edge
    and overflowed the stack at about degree (490,) of the one-loop graph;
    growing runs does not recurse."""
    g = builders.make_single_vertex(1, [1])
    assert [p.edges for p in g.paths_of_degree((600,))] == [("e1",) * 600]


def check_split_strip(g):
    """split_strip against _take(_normalize(...)) on every rest xi(a, d(xi))
    of every path xi of degree <= (2,..,2), extended by each single edge
    into s(xi) and by each (1,..,1) tail from s(xi), for every color that
    the extension holds."""
    rests = {g.factorize(xi, a)[1] for xi in paths_up_to(g, (2,) * g.k)
             for a in dg.degrees_below(xi.degree)}
    units = [dg.unit(g.k, c) for c in range(1, g.k + 1)]
    compared = 0
    for rest in rests:
        ends = [((e,), dg.unit(g.k, c)) for c in range(1, g.k + 1)
                for e in g.edges_into(c, rest.source)]
        ends += [(t.edges, t.degree)
                 for t in g.paths_of_degree((1,) * g.k, range=rest.source)]
        for edges, degree in ends:
            for e_i in units:
                if not any(map(min, e_i, dg.add(rest.degree, degree))):
                    continue
                seq = g._normalize([*rest.edges, *edges], len(rest.edges))
                head, tail = g._take(seq, e_i)
                assert g.split_strip(rest.edges, edges, e_i) == \
                    (head[0], tail)
                compared += 1
    assert compared


def test_split_strip_fixtures(graphs):
    from test_kms_cells import THREE_BY_TWO    # it imports this module
    for g in graphs.values():
        check_split_strip(g)
    check_split_strip(builders.make_single_vertex(3, [2, 2, 2]))
    check_split_strip(builders.make_single_vertex(2, [3, 2], THREE_BY_TWO))


@settings(max_examples=15)
@given(st.one_of(single_vertex_2graphs(), pullbacks, products))
def test_split_strip_generated(g):
    check_split_strip(g)


class Slotted(Record):
    __slots__ = ("a", "b")
    a: int
    b: tuple

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("a < 0")


class Plain(Record):
    a: int
    b: tuple = ()

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("a < 0")


@pytest.mark.parametrize("cls", [Slotted, Plain])
def test_record_fields_are_set_once(cls):
    """A slotted record sets its fields through their slot descriptors, a
    dict-backed one through object.__setattr__; either way the fields are
    set before __post_init__ runs, and no field can change afterwards.  (A
    slotted class cannot hold defaults: Python refuses a class attribute
    named like a slot.)"""
    r = cls(1, b=(2,))
    assert (r.a, r.b) == (1, (2,)) and r == cls(a=1, b=(2,))
    assert hash(r) == hash((1, (2,)))
    assert repr(r) == f"{cls.__qualname__}(a=1, b=(2,))"
    assert hasattr(r, "__dict__") is (cls is Plain)
    if cls is Plain:
        assert vars(r) == {"a": 1, "b": (2,)} and Plain(3).b == ()
    with pytest.raises(ValueError):
        cls(-1, ())
    with pytest.raises(TypeError):
        cls(1, (), 3)
    for change in (lambda: setattr(r, "a", 5), lambda: delattr(r, "b"),
                   lambda: setattr(r, "c", 5)):
        with pytest.raises(AttributeError):
            change()
    assert (r.a, r.b) == (1, (2,))


@pytest.mark.parametrize("enabled", [True, False])
def test_enumeration_restores_the_collector(enabled, monkeypatch):
    """paths_of_degree leaves gc.isenabled() as it found it, when the
    enumeration returns and when it raises."""
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        g = builders.pullback_b2()
        assert len(g.paths_of_degree((3, 2))) == 32
        assert gc.isenabled() is enabled

        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(graphs_module, "Path", boom)
        with pytest.raises(RuntimeError):
            g.paths_of_degree((2, 3))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
