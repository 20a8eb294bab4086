"""Named examples and the graph constructions behind them."""

import pytest

from kgraphs import builders
from kgraphs.errors import InputFormatError


def test_fixture_names():
    assert set(builders.FIXTURES) == {"b2", "fib", "pullback-b2",
                                      "product-b2-c2"}


def test_b2_shape(b2g):
    assert b2g.k == 1
    assert b2g.vertices == ("v",)
    assert sorted(e.id for e in b2g.edges) == ["e1", "e2"]


def test_fib_adjacency(fibg):
    (mat,) = fibg.coordinate_matrices()
    assert mat == ((1, 1), (1, 0))


def test_pullback_structure(pb2g):
    assert pb2g.k == 2
    assert sorted(e.id for e in pb2g.edges) == ["a1", "a2", "b1", "b2"]
    # one square per composable base pair; every pair composes on one vertex
    assert len(pb2g.squares) == 4


def test_pullback_counts_match_base_words():
    base = builders.fib()
    pulled = builders.make_pullback(base)
    for m in range(4):
        for n in range(4 - m):
            assert pulled.count_paths((m, n)) == base.count_paths((m + n,))


def test_pullback_rejects_higher_rank(pb2g):
    with pytest.raises(InputFormatError):
        builders.make_pullback(pb2g)


def test_product_structure(prodg):
    assert prodg.k == 2
    assert sorted(prodg.vertices) == ["v:w1", "v:w2"]
    a1, a2 = prodg.coordinate_matrices()
    assert a1 == ((2, 0), (0, 2))
    assert a2 == ((0, 1), (1, 0))


def test_product_counts_are_products():
    e, f = builders.b2(), builders.c2()
    prod = builders.make_product(e, f)
    for m in range(3):
        for n in range(3):
            assert prod.count_paths((m, n)) == \
                e.count_paths((m,)) * f.count_paths((n,))


def test_single_vertex_validation():
    with pytest.raises(InputFormatError):
        builders.make_single_vertex(2, [2])
    with pytest.raises(InputFormatError):
        builders.make_single_vertex(2, [1, 1], {(1, 2): {(1, 2): (1, 1)}})
    with pytest.raises(InputFormatError):
        builders.make_single_vertex(2, [-1, 2])
    with pytest.raises(InputFormatError):
        builders.make_single_vertex(2, [1, 1], {(1, 2): {(1, "a"): (1, 1)}})
    g = builders.make_single_vertex(2, [2, 2])
    assert g.validate().valid
    assert g.count_paths((1, 1)) == 4


def test_readme_squares_example_is_not_the_flip():
    """README's --squares example, x_s.y_t = y_u.x_v for rows [s,t,u,v]:
    a valid 2-graph whose squares are not the default flip's."""
    table = {(1, 1): (1, 2), (1, 2): (1, 1), (2, 1): (2, 2), (2, 2): (2, 1)}
    g = builders.make_single_vertex(2, [2, 2], {(1, 2): table})
    flip = builders.make_single_vertex(2, [2, 2])
    assert g.validate().valid
    assert g.squares != flip.squares


def test_c2_cycle():
    g = builders.c2()
    assert g.count_paths((2,)) == 2
    rep = g.validate()
    assert rep.valid and rep.strongly_connected
