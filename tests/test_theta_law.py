"""theta by grade, and check_pair's matrix answer.

For a periodic pair (m, n) with grade g = m - n, let j = m ^ n.  Then m = j
+ g+ and n = j + g-, and theta_{m,n} keeps the first j of a path and
shifts the rest:

    theta_{m,n}(p) = p(0, j) . theta_{g+,g-}(p(j, m)).

So one table per grade serves every pair, as KMSStates.theta_map keeps
them.  The law is checked against periodicity.theta on every periodic pair
of a box, on the fixtures, both rank-3 graphs and the generated graphs of
test_shift_agreement.py; on product-b2-c2 the grades (0, 2) and (0, -2) map
paths to vertices and vertices to paths.

Per(Lambda) lies in {g : A^{g+} = A^{g-}}, so check_pair answers False from
the matrices once it has sized the strips, when none is over the cap and no
color is empty, before it enumerates a path.  A graph with an empty color
has no infinite path, and there the pairs keep their vacuous answer.
"""

import itertools

import pytest
from hypothesis import given, settings

from kgraphs import builders
from kgraphs import degrees as dg
from kgraphs.graphs import KGraph
from kgraphs.kms import KMSStates
from kgraphs.periodicity import check_pair, theta
from kgraphs.perron import MatrixFamily, perron_data
from test_shift_agreement import GRAPHS, rank_three_twisted


def check_law(g, top):
    """Every path of every periodic (m, n) in [0, top]: the law, through
    periodicity.theta and through KMSStates.theta_map.  Returns the
    (vertex images, vertex arguments) seen with j = m ^ n nonzero."""
    st = KMSStates(g, perron_data(MatrixFamily.from_graph(g)))
    seen = [0, 0]
    for m, n in itertools.product(dg.degrees_below(top), repeat=2):
        if not check_pair(g, m, n):
            continue
        gvec, j = dg.sub(m, n), dg.meet(m, n)
        grade = theta(g, dg.pos_part(gvec), dg.neg_part(gvec))
        direct = theta(g, m, n)
        for p in g.paths_of_degree(m):
            head, tail = g.factorize(p, j)
            image = grade(tail)
            assert direct(p) == g.compose(head, image), (m, n, p)
            assert st.theta_map(m, n)(p) == direct(p), (m, n, p)
            if any(j):
                seen[0] += image.is_vertex
                seen[1] += tail.is_vertex
    return seen


@pytest.mark.parametrize("name", sorted(builders.FIXTURES))
def test_law_on_the_fixtures(name):
    g = builders.FIXTURES[name]()
    seen = check_law(g, (3,) * g.k)
    if name == "product-b2-c2":
        # (0, 2) - (0, 0) and its reverse, shifted by j = (1, 0) and more
        assert seen[0] and seen[1]


@pytest.mark.parametrize("make", [
    rank_three_twisted, lambda: builders.make_single_vertex(3, [2, 2, 2])])
def test_law_at_rank_three(make):
    check_law(make(), (1, 1, 2))


@settings(max_examples=20)
@given(GRAPHS)
def test_law_generated(g):
    check_law(g, (2,) * g.k if g.k < 3 else (1,) * g.k)


def test_check_pair_answers_from_the_matrices(monkeypatch):
    # A^3 = 8 and A^0 = 1 on b2: no path is enumerated or factorized
    g = builders.FIXTURES["b2"]()
    calls = []
    for name in ("paths_of_degree", "factorize"):
        def counted(*args, _fn=getattr(KGraph, name), _name=name, **kw):
            calls.append(_name)
            return _fn(*args, **kw)
        monkeypatch.setattr(KGraph, name, counted)
    assert check_pair(g, (3,), (0,)) is False
    assert calls == []


def test_an_empty_color_keeps_the_vacuous_answer():
    # no color-1 edges, so no infinite path: every shift pair whose join
    # has a color-1 step agrees, though A_1 = 0 makes A^(1,0) != A^0
    g = builders.make_single_vertex(2, [0, 2])
    assert check_pair(g, (1, 0), (0, 0)) is True
    assert check_pair(g, (1, 0), (0, 1)) is True
    assert check_pair(g, (0, 1), (0, 0)) is False
