"""Validation pinned: every square and cubical fault kind, message for
message, and a differential test against the rank-driven validation that
the one-pass squares/pairs/chains validation replaced.

`old_validate` is a test-only copy of that validation: per-color edge
tables, composable-pair lists and sets for every color pair i < j, and a
cubical loop over every color triple.  On mutated documents (squares
dropped, duplicated, re-pointed, with fields swapped or with their
right-hand sides exchanged; edges recolored or re-sourced) KGraph.validate
must give the same report, and its square tables `_fwd` and `_inv` the
same entries.  Strong connectivity, now two searches from one vertex, must
agree with the search from every vertex on small drawn directed graphs.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kgraphs import builders
from kgraphs.errors import EnumerationCapError
from kgraphs.graphs import KGraph, ValidationReport


def document(k, vertices, edges, squares):
    """A graph document from (id, color, range, source) edge tuples and
    (blue, red, red2, blue2) square tuples."""
    return {"k": k, "vertices": vertices,
            "edges": [dict(zip(("id", "color", "range", "source"), e))
                      for e in edges],
            "squares": [dict(zip(("blue", "red", "red2", "blue2"), s))
                        for s in squares]}


def sq(blue, red, red2, blue2):
    return (f"Square(blue={blue!r}, red={red!r}, red2={red2!r}, "
            f"blue2={blue2!r})")


# one vertex u: a (color 1) and x (color 2)
ONE = [("a", 1, "u", "u"), ("x", 2, "u", "u")]
# two islands u and w, each with a color-1 and a color-2 loop
ISLANDS = ONE + [("b", 1, "w", "w"), ("y", 2, "w", "w")]

SQUARE_FAULTS = {
    "inconsistent color roles": (
        document(2, ["u"], ONE, [("x", "a", "a", "x"), ("a", "x", "a", "x"),
                                 ("a", "x", "x", "a")]),
        [f"square {sq('a', 'x', 'a', 'x')} has inconsistent color roles",
         f"square {sq('x', 'a', 'a', 'x')} has inconsistent color roles"]),
    # a second square for a pair is a duplicate, whatever else is wrong
    # with it
    "duplicate square": (
        document(2, ["u", "w"], ISLANDS,
                 [("a", "x", "x", "a"), ("b", "y", "y", "b"),
                  ("a", "x", "x", "b")]),
        ["duplicate square for pair ('a', 'x')"]),
    "blue.red not composable": (
        document(2, ["u", "w"], ISLANDS,
                 [("a", "x", "x", "a"), ("b", "y", "y", "b"),
                  ("a", "y", "y", "a")]),
        [f"square {sq('a', 'y', 'y', 'a')}: blue.red not composable"]),
    "red2.blue2 not composable": (
        document(2, ["u", "w"], ISLANDS,
                 [("b", "y", "y", "b"), ("a", "x", "x", "b")]),
        [f"square {sq('a', 'x', 'x', 'b')}: red2.blue2 not composable",
         "no square for colors (1,2) pair ('a', 'x')",
         "squares miss reversed pair ('x', 'a') for colors (1,2)"]),
    # reported as such even though x.a is some other square's value
    "endpoints do not match": (
        document(2, ["u", "w"], ISLANDS,
                 [("a", "x", "x", "a"), ("b", "y", "x", "a")]),
        [f"square {sq('b', 'y', 'x', 'a')}: endpoints do not match",
         "no square for colors (1,2) pair ('b', 'y')",
         "squares miss reversed pair ('y', 'b') for colors (1,2)"]),
    "two pairs to one value": (
        document(2, ["u"], ONE + [("b", 1, "u", "u")],
                 [("a", "x", "x", "a"), ("b", "x", "x", "a")]),
        ["squares map two pairs to ('x', 'a')",
         "no square for colors (1,2) pair ('b', 'x')",
         "squares miss reversed pair ('x', 'b') for colors (1,2)"]),
    # color roles first, then one block per color pair in (i, j) order,
    # whatever the order of the squares themselves
    "block order": (
        document(3, ["u"], ONE + [("p", 3, "u", "u")],
                 [("a", "p", "p", "a"), ("a", "p", "p", "a"),
                  ("p", "x", "x", "p"), ("x", "p", "p", "x")]),
        [f"square {sq('p', 'x', 'x', 'p')} has inconsistent color roles",
         "no square for colors (1,2) pair ('a', 'x')",
         "squares miss reversed pair ('x', 'a') for colors (1,2)",
         "duplicate square for pair ('a', 'p')"]),
}


def test_square_faults():
    for kind, (doc, failures) in SQUARE_FAULTS.items():
        rep = KGraph.from_json_dict(doc).validate()
        assert rep.square_failures == failures, kind
        assert not rep.valid and not rep.cubical_checked, kind
        assert rep.cubical_failures == [], kind


def perm_tables(k, perms):
    """Single-vertex squares: x_s.c = c.x_{perm(s)} for the one loop c of
    each color 2..k, and the flip square between those loops."""
    tables = {(1, j): {(s, 1): (1, p[s]) for s in p}
              for j, p in zip(range(2, k + 1), perms)}
    tables.update({(i, j): {(1, 1): (1, 1)}
                   for i in range(2, k + 1) for j in range(i + 1, k + 1)})
    return tables


def cubical(triple, a, b):
    return f"cubical failure on triple ({','.join(triple)}): {a} vs {b}"


def product3(*graphs):
    """The rank-3 product of three 1-graphs: a color-i edge moves the i-th
    coordinate along an edge of the i-th graph, and squares commute."""
    def name(coords):
        return ":".join(coords)

    def at(coords, t, value):
        return coords[:t] + (value,) + coords[t + 1:]

    vertices = list(itertools.product(*(g.vertices for g in graphs)))
    edges, squares = [], []
    for c in vertices:
        for i, gi in enumerate(graphs):
            if c[i] != gi.vertices[0]:
                continue
            edges += [(name(at(c, i, x.id)), i + 1, name(at(c, i, x.range)),
                       name(at(c, i, x.source))) for x in gi.edges]
            for j in range(i + 1, 3):
                if c[j] != graphs[j].vertices[0]:
                    continue
                for x, y in itertools.product(gi.edges, graphs[j].edges):
                    # blue.red = red2.blue2, each edge named by its (i, j)
                    # coordinates
                    squares.append(tuple(
                        name(at(at(c, i, u), j, v))
                        for u, v in ((x.id, y.range), (x.source, y.id),
                                     (x.range, y.id), (x.id, y.source))))
    return document(3, [name(c) for c in vertices], edges, squares)


def twisted_product3():
    """The product of b2, c2 and fib with the lower edges of two (1,3)
    squares exchanged: still sound squares, but not cubical."""
    doc = product3(builders.b2(), builders.c2(), builders.fib())
    squares = {s["blue"]: s for s in doc["squares"]}
    a, b = squares["e1:w1:u"], squares["e2:w1:u"]
    a["blue2"], b["blue2"] = b["blue2"], a["blue2"]
    return doc


def test_cubical_faults():
    sigma = {1: 2, 2: 1, 3: 3}
    tau = {1: 1, 2: 3, 3: 2}
    g = builders.make_single_vertex(3, [3, 1, 1], perm_tables(3, [sigma, tau]))
    rep = g.validate()
    assert rep.cubical_checked and not rep.valid and not rep.square_failures
    assert rep.cubical_failures == [
        cubical(("a1", "b1", "c1"), ["c1", "b1", "a2"], ["c1", "b1", "a3"]),
        cubical(("a2", "b1", "c1"), ["c1", "b1", "a3"], ["c1", "b1", "a1"]),
        cubical(("a3", "b1", "c1"), ["c1", "b1", "a1"], ["c1", "b1", "a2"])]
    # rank 4: triples (1,2,3) and (1,3,4) fail, (1,2,4) and (2,3,4) hold;
    # failures come sorted by colors, then by edge ids
    g = builders.make_single_vertex(4, [3, 1, 1, 1],
                                    perm_tables(4, [sigma, tau, sigma]))
    rep = g.validate()
    assert rep.cubical_failures == [
        cubical(("a1", "b1", "c1"), ["c1", "b1", "a2"], ["c1", "b1", "a3"]),
        cubical(("a2", "b1", "c1"), ["c1", "b1", "a3"], ["c1", "b1", "a1"]),
        cubical(("a3", "b1", "c1"), ["c1", "b1", "a1"], ["c1", "b1", "a2"]),
        cubical(("a1", "c1", "d1"), ["d1", "c1", "a3"], ["d1", "c1", "a2"]),
        cubical(("a2", "c1", "d1"), ["d1", "c1", "a1"], ["d1", "c1", "a3"]),
        cubical(("a3", "c1", "d1"), ["d1", "c1", "a2"], ["d1", "c1", "a1"])]
    # four vertices: chains follow ranges and sources
    rep = KGraph.from_json_dict(twisted_product3()).validate()
    assert not rep.square_failures
    assert rep.cubical_failures == [
        cubical(("e1:w1:u", "v:g1:u", "v:w2:euv"),
                ["v:w1:euv", "v:g1:v", "e2:w2:v"],
                ["v:w1:euv", "v:g1:v", "e1:w2:v"]),
        cubical(("e1:w2:u", "v:g2:u", "v:w1:euv"),
                ["v:w2:euv", "v:g2:v", "e1:w1:v"],
                ["v:w2:euv", "v:g2:v", "e2:w1:v"]),
        cubical(("e2:w1:u", "v:g1:u", "v:w2:euv"),
                ["v:w1:euv", "v:g1:v", "e1:w2:v"],
                ["v:w1:euv", "v:g1:v", "e2:w2:v"]),
        cubical(("e2:w2:u", "v:g2:u", "v:w1:euv"),
                ["v:w2:euv", "v:g2:v", "e2:w1:v"],
                ["v:w2:euv", "v:g2:v", "e1:w1:v"])]


def ascending_chains(g):
    """Brute force: the composable chains e.f.g of ascending colors."""
    return sum(e.color < f.color < h.color and e.source == f.range
               and f.source == h.range
               for e, f, h in itertools.product(g.edges, repeat=3))


def test_cubical_walk_is_capped():
    # the walk stops before it starts when its chains exceed the cap, and a
    # later validate under a larger cap reports as a fresh graph does
    sigma, tau = {1: 2, 2: 1, 3: 3}, {1: 1, 2: 3, 3: 2}
    docs = [builders.make_single_vertex(
                4, [3, 1, 1, 1], perm_tables(4, [sigma, tau, sigma])
            ).to_json_dict(),
            product3(builders.b2(), builders.c2(), builders.fib()),
            twisted_product3()]
    for doc in docs:
        g = KGraph.from_json_dict(doc)
        count = ascending_chains(g)
        assert count > 0
        g.cap = count - 1
        with pytest.raises(EnumerationCapError,
                           match=f"walks {count} chains"):
            g.validate()
        g.cap = count
        assert dataclasses.asdict(g.validate()) == \
            dataclasses.asdict(KGraph.from_json_dict(doc).validate())


# ----------------------------------------------------------------------
# differential test against the rank-driven validation

def old_strongly_connected(g):
    """The search from every vertex that validation once ran."""
    succ = {v: set() for v in g.vertices}
    for e in g.edges:
        succ[e.source].add(e.range)
    for v in g.vertices:
        seen, stack = {v}, [v]
        while stack:
            for w in succ[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        if len(seen) != len(g.vertices):
            return False
    return True


def old_validate(g):
    """The report, square table and inverse table of the validation that
    walked every color pair and triple of 1..k."""
    edges_of_color = {i: tuple(e for e in g.edges if e.color == i)
                      for i in range(1, g.k + 1)}
    fwd, inv = {}, {}
    square_failures = []
    buckets = {}
    for s in g.squares:
        b, r = g.edge(s.blue), g.edge(s.red)
        r2, b2 = g.edge(s.red2), g.edge(s.blue2)
        if not (b.color == b2.color and r.color == r2.color
                and b.color < r.color):
            square_failures.append(f"square {s} has inconsistent color roles")
            continue
        buckets.setdefault((b.color, r.color), []).append(s)
    for i in range(1, g.k + 1):
        for j in range(i + 1, g.k + 1):
            pairs_ij = [(e.id, f.id) for e in edges_of_color[i]
                        for f in edges_of_color[j] if e.source == f.range]
            pairs_ji = [(f.id, e.id) for f in edges_of_color[j]
                        for e in edges_of_color[i] if f.source == e.range]
            table, values = {}, {}
            for s in buckets.get((i, j), []):
                key, val = (s.blue, s.red), (s.red2, s.blue2)
                if key in table:
                    square_failures.append(f"duplicate square for pair {key}")
                    continue
                b, r = g.edge(s.blue), g.edge(s.red)
                r2, b2 = g.edge(s.red2), g.edge(s.blue2)
                if b.source != r.range:
                    square_failures.append(
                        f"square {s}: blue.red not composable")
                    continue
                if r2.source != b2.range:
                    square_failures.append(
                        f"square {s}: red2.blue2 not composable")
                    continue
                if r2.range != b.range or b2.source != r.source:
                    square_failures.append(
                        f"square {s}: endpoints do not match")
                    continue
                if val in values:
                    square_failures.append(f"squares map two pairs to {val}")
                    continue
                table[key] = val
                values[val] = key
            for key in sorted(set(pairs_ij) - set(table)):
                square_failures.append(
                    f"no square for colors ({i},{j}) pair {key}")
            for val in sorted(set(pairs_ji) - set(values)):
                square_failures.append(f"squares miss reversed pair {val} "
                                       f"for colors ({i},{j})")
            fwd.update(table)
            inv.update(values)
    cubical_failures = []
    cubical_checked = g.k >= 3 and not square_failures
    if cubical_checked:
        def swap(seq, t):
            return seq[:t] + list(fwd[seq[t], seq[t + 1]]) + seq[t + 2:]

        for i in range(1, g.k + 1):
            for j in range(i + 1, g.k + 1):
                for l in range(j + 1, g.k + 1):
                    for e in edges_of_color[i]:
                        for f in edges_of_color[j]:
                            if e.source != f.range:
                                continue
                            for h in edges_of_color[l]:
                                if f.source != h.range:
                                    continue
                                seq = [e.id, f.id, h.id]
                                a = swap(swap(swap(seq, 1), 0), 1)
                                b = swap(swap(swap(seq, 0), 1), 0)
                                if a != b:
                                    cubical_failures.append(
                                        f"cubical failure on triple "
                                        f"({e.id},{f.id},{h.id}): "
                                        f"{a} vs {b}")
    ins = {(e.color, e.range) for e in g.edges}
    outs = {(e.color, e.source) for e in g.edges}
    colors = range(1, g.k + 1)
    report = ValidationReport(
        valid=not square_failures and not cubical_failures,
        k=g.k,
        vertex_count=len(g.vertices),
        edge_counts=tuple(len(edges_of_color[i]) for i in colors),
        square_failures=square_failures,
        cubical_checked=cubical_checked,
        cubical_failures=cubical_failures,
        strongly_connected=old_strongly_connected(g),
        no_sources=all((i, v) in ins for v in g.vertices for i in colors),
        no_sinks=all((i, v) in outs for v in g.vertices for i in colors))
    return report, fwd, inv


SIGMA, TAU = {1: 2, 2: 1, 3: 3}, {1: 1, 2: 3, 3: 2}
SOURCES = [g.to_json_dict() for g in (
    *(builders.FIXTURES[name]() for name in builders.FIXTURES),
    builders.make_pullback(builders.fib()),
    builders.make_single_vertex(3, [2, 2, 2]),
    builders.make_single_vertex(3, [3, 1, 1], perm_tables(3, [SIGMA, TAU])),
    builders.make_single_vertex(3, [3, 1, 1], perm_tables(3, [SIGMA, SIGMA])),
)] + [product3(builders.b2(), builders.c2(), builders.fib()),
      twisted_product3()]


@st.composite
def rank3_documents(draw):
    """One vertex, 1-3 loops per color, and for each color pair the
    squares of a random bijection of loop pairs: the squares are always
    sound, the cubical condition often fails."""
    loops = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    tables = {}
    for i in range(1, 4):
        for j in range(i + 1, 4):
            pairs = [(s, t) for s in range(1, loops[i - 1] + 1)
                     for t in range(1, loops[j - 1] + 1)]
            images = draw(st.permutations(
                [(u, v) for u in range(1, loops[j - 1] + 1)
                 for v in range(1, loops[i - 1] + 1)]))
            tables[i, j] = dict(zip(pairs, images))
    return builders.make_single_vertex(3, loops, tables).to_json_dict()


@st.composite
def mutated_documents(draw):
    """A fixture or generated document with 0-3 mutations."""
    doc = draw(st.one_of(st.sampled_from(SOURCES), rank3_documents()))
    doc = {key: [dict(x) for x in doc[key]] if key in ("edges", "squares")
           else doc[key] for key in doc}
    squares, edges = doc["squares"], doc["edges"]
    edge_ids = [e["id"] for e in edges]
    fields = ("blue", "red", "red2", "blue2")
    # unmutated documents half the time, so the cubical check runs often
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        kind = draw(st.sampled_from(["drop", "duplicate", "repoint", "swap",
                                     "exchange", "recolor", "resource"]))
        if kind == "recolor":
            edges[draw(st.integers(0, len(edges) - 1))]["color"] = \
                draw(st.integers(1, doc["k"]))
        elif kind == "resource":
            edges[draw(st.integers(0, len(edges) - 1))]["source"] = \
                draw(st.sampled_from(doc["vertices"]))
        elif squares:
            t = draw(st.integers(0, len(squares) - 1))
            if kind == "drop":
                del squares[t]
            elif kind == "duplicate":
                squares.append(dict(squares[t]))
            elif kind == "repoint":
                squares[t][draw(st.sampled_from(fields))] = \
                    draw(st.sampled_from(edge_ids))
            elif kind == "exchange":
                # sound squares when the two have the same corners, so
                # this is how a multi-vertex cubical failure arises
                u = draw(st.integers(0, len(squares) - 1))
                for f in ("red2", "blue2"):
                    squares[t][f], squares[u][f] = squares[u][f], squares[t][f]
            else:
                f1, f2 = draw(st.permutations(fields))[:2]
                squares[t][f1], squares[t][f2] = squares[t][f2], squares[t][f1]
    return doc


@settings(max_examples=200)
@given(mutated_documents())
def test_matches_rank_driven_validation(doc):
    g = KGraph.from_json_dict(doc)
    report, fwd, inv = old_validate(g)
    assert dataclasses.asdict(g.validate()) == dataclasses.asdict(report)
    assert g._fwd == fwd and g._inv == inv


@st.composite
def directed_graphs(draw):
    """0-4 vertices and up to 6 edges between them, any direction."""
    vs = [f"v{i}" for i in range(draw(st.integers(0, 4)))]
    edges = draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)),
                          max_size=6)) if vs else []
    return builders.one_graph(vs, [(f"x{i}", r, s)
                                   for i, (r, s) in enumerate(edges)])


@settings(max_examples=150)
@given(directed_graphs())
def test_strong_connectivity_matches_search_from_every_vertex(g):
    assert g._strongly_connected() == old_strongly_connected(g)
