"""Constructions and named example graphs.

Generators produce canonical ids: single-vertex graphs use e1..en for rank 1
and a1.., b1.., c1.. per color otherwise; the pullback doubles a 1-graph's
edges into blue a<i> / red b<i> copies; products join ids with ":".  "." never
appears in an id, it is the path-literal separator.
"""

from __future__ import annotations

from .errors import EnumerationCapError, InputFormatError
from .graphs import ENUM_CAP, Edge, KGraph, Square


def one_graph(vertices, edges):
    """A rank-1 graph from (id, range, source) triples."""
    return KGraph(1, vertices,
                  [Edge(id=i, color=1, range=r, source=s)
                   for i, r, s in edges],
                  [])


def make_single_vertex(k, loops, squares=None):
    """One vertex with loops[i] loops of color i+1.

    squares maps a color pair (i, j), i < j, to a dict {(s, t): (u, v)}
    (1-based loop indices) meaning (color-i loop s).(color-j loop t) =
    (color-j loop u).(color-i loop v).  Color pairs left unspecified get the
    flip squares x.y = y.x, which always satisfy the axioms.  Raises
    EnumerationCapError, before building anything, when the edges and
    squares of such a graph would number more than ENUM_CAP.
    """
    if len(loops) != k:
        raise InputFormatError(f"need {k} loop counts, got {len(loops)}")
    if k > 26:
        raise InputFormatError("ranks above 26 exceed the naming scheme")
    if any(n < 0 for n in loops):
        raise InputFormatError(f"loop counts must be nonnegative: {loops}")
    size = sum(loops) + sum(a * b for i, a in enumerate(loops)
                            for b in loops[i + 1:])
    if size > ENUM_CAP:
        raise EnumerationCapError(f"{size} edges and squares for loops "
                                  f"{loops} exceed cap {ENUM_CAP}")

    def name(color, idx):
        if k == 1:
            return f"e{idx}"
        return f"{chr(ord('a') + color - 1)}{idx}"

    edges = [Edge(id=name(c, i), color=c, range="v", source="v")
             for c in range(1, k + 1)
             for i in range(1, loops[c - 1] + 1)]
    squares = dict(squares or {})
    for i, j in squares:
        if not 1 <= i < j <= k:
            raise InputFormatError(f"squares for color pair ({i}, {j}) "
                                   f"outside 1 <= i < j <= {k}")
    out_squares = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            table = squares.get((i, j))
            if table is None:
                table = {(s, t): (t, s)
                         for s in range(1, loops[i - 1] + 1)
                         for t in range(1, loops[j - 1] + 1)}
            for (s, t), (u, v) in sorted(table.items()):
                for idx, count in ((s, loops[i - 1]), (v, loops[i - 1]),
                                   (t, loops[j - 1]), (u, loops[j - 1])):
                    if not (isinstance(idx, int) and 1 <= idx <= count):
                        raise InputFormatError(
                            f"square index {idx} out of range")
                out_squares.append(Square(blue=name(i, s), red=name(j, t),
                                          red2=name(j, u), blue2=name(i, v)))
    return KGraph(k, ["v"], edges, out_squares)


def make_pullback(egraph):
    """The rank-2 graph whose degree-(m, n) paths are the length-(m + n)
    paths of a rank-1 graph: each edge x acquires a blue copy a<i> and a red
    copy b<i> (i from the sorted edge order), with squares a_i b_j = b_i a_j
    whenever the underlying edges compose."""
    if egraph.k != 1:
        raise InputFormatError("pullback construction expects a rank-1 graph")
    base = list(egraph.edges)
    blue = {x.id: f"a{i + 1}" for i, x in enumerate(base)}
    red = {x.id: f"b{i + 1}" for i, x in enumerate(base)}
    edges = [Edge(id=blue[x.id], color=1, range=x.range, source=x.source)
             for x in base]
    edges += [Edge(id=red[x.id], color=2, range=x.range, source=x.source)
              for x in base]
    squares = [Square(blue=blue[x.id], red=red[y.id],
                      red2=red[x.id], blue2=blue[y.id])
               for x in base for y in base if x.source == y.range]
    return KGraph(2, egraph.vertices, edges, squares)


def make_product(egraph, fgraph):
    """The rank-2 product: vertices (u, w), blue edges (x, w), red edges
    (u, y), squares (x, r(y)).(s(x), y) = (r(x), y).(x, s(y))."""
    if egraph.k != 1 or fgraph.k != 1:
        raise InputFormatError("product construction expects rank-1 graphs")
    vertices = [f"{u}:{w}" for u in egraph.vertices for w in fgraph.vertices]
    edges = [Edge(id=f"{x.id}:{w}", color=1,
                  range=f"{x.range}:{w}", source=f"{x.source}:{w}")
             for x in egraph.edges for w in fgraph.vertices]
    edges += [Edge(id=f"{u}:{y.id}", color=2,
                   range=f"{u}:{y.range}", source=f"{u}:{y.source}")
              for u in egraph.vertices for y in fgraph.edges]
    squares = [Square(blue=f"{x.id}:{y.range}", red=f"{x.source}:{y.id}",
                      red2=f"{x.range}:{y.id}", blue2=f"{x.id}:{y.source}")
               for x in egraph.edges for y in fgraph.edges]
    return KGraph(2, vertices, edges, squares)


def b2():
    """One vertex, two loops e1, e2 (rank 1)."""
    return make_single_vertex(1, [2])


def c2():
    """The directed 2-cycle w1 <- w2 <- w1."""
    return one_graph(["w1", "w2"], [("g1", "w1", "w2"), ("g2", "w2", "w1")])


def fib():
    """Two vertices u, v with adjacency [[1, 1], [1, 0]]: loop euu at u,
    euv from v to u, evu from u to v."""
    return one_graph(["u", "v"],
                     [("euu", "u", "u"), ("euv", "u", "v"), ("evu", "v", "u")])


def pullback_b2():
    return make_pullback(b2())


def product_b2_c2():
    return make_product(b2(), c2())


FIXTURES = {
    "b2": b2,
    "fib": fib,
    "pullback-b2": pullback_b2,
    "product-b2-c2": product_b2_c2,
}
