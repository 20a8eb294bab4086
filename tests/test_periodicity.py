"""Shift-agreement detection, the induced bijections, and the group they
generate."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kgraphs import degrees as dg
from kgraphs.errors import NotPeriodicError, PeriodicityUndecidedError
from kgraphs.periodicity import (check_pair, decide_periodic, hnf_basis,
                                 periodicity_group, theta)


def test_group_bases(groups):
    assert groups["b2"].basis == ()
    assert groups["fib"].basis == ()
    assert groups["pullback-b2"].basis == ((1, -1),)
    assert groups["product-b2-c2"].basis == ((0, 2),)


def test_check_pair_decisions(graphs):
    pb2 = graphs["pullback-b2"]
    assert check_pair(pb2, (1, 0), (0, 1))
    assert check_pair(pb2, (2, 1), (1, 2))
    assert not check_pair(pb2, (1, 0), (0, 0))
    prod = graphs["product-b2-c2"]
    assert check_pair(prod, (0, 2), (0, 0))
    assert not check_pair(prod, (0, 1), (0, 0))
    assert not check_pair(prod, (1, 0), (0, 0))
    b2 = graphs["b2"]
    assert not check_pair(b2, (1,), (0,))
    assert check_pair(b2, (2,), (2,))


def test_aperiodicity_verdicts(graphs):
    assert periodicity_group(graphs["b2"], bound=2).rank == 0
    assert periodicity_group(graphs["pullback-b2"], bound=2).rank > 0


def test_theta_requires_periodic_pair(graphs):
    with pytest.raises(NotPeriodicError):
        theta(graphs["b2"], (1,), (0,))


def test_theta_bijection(pb2g):
    th = theta(pb2g, (2, 0), (1, 1))
    dom = pb2g.paths_of_degree((2, 0))
    images = {th(p) for p in dom}
    assert len(images) == len(dom)
    assert all(q.degree == (1, 1) for q in images)
    inv = th.inverse()
    for p in dom:
        assert inv(th(p)) == p


def test_theta_composition_law(pb2g):
    th1 = theta(pb2g, (2, 0), (1, 1))
    th2 = theta(pb2g, (1, 1), (0, 2))
    th13 = theta(pb2g, (2, 0), (0, 2))
    for p in pb2g.paths_of_degree((2, 0)):
        assert th2(th1(p)) == th13(p)


def test_theta_translation_law(pb2g):
    # prepending alpha commutes with the bijection on the tail degrees
    th = theta(pb2g, (1, 0), (0, 1))
    th_shift = theta(pb2g, (2, 1), (1, 2))
    for alpha in pb2g.paths_of_degree((1, 1)):
        for mu in pb2g.paths_of_degree((1, 0), range=alpha.source):
            lhs = th_shift(pb2g.compose(alpha, mu))
            assert lhs == pb2g.compose(alpha, th(mu))


def test_theta_source_and_range_preserved(prodg):
    th = theta(prodg, (0, 2), (0, 0))
    for mu in prodg.paths_of_degree((0, 2)):
        nu = th(mu)
        assert nu.range == mu.range
        # degree (0,0) image is the range vertex itself
        assert nu.is_vertex


def test_theta_lambda_min_identity(pb2g, prodg):
    # common extensions of mu and theta(mu) are freely parameterized by the
    # tails alpha, with the partner tail theta-inverse of alpha
    for g, m, n in ((pb2g, (1, 0), (0, 1)), (pb2g, (2, 0), (0, 2)),
                    (prodg, (0, 2), (0, 0))):
        th = theta(g, m, n)
        inv = th.inverse()
        for mu in g.paths_of_degree(m):
            nu = th(mu)
            got = {(a.edges, b.edges) for a, b in g.lambda_min(mu, nu)}
            want = {(alpha.edges, inv(alpha).edges)
                    for alpha in g.paths_of_degree(n, range=mu.source)}
            assert got == want


def test_group_closure(graphs, groups):
    for name in ("pullback-b2", "product-b2-c2"):
        g, grp = graphs[name], groups[name]
        confirmed = list(grp.confirmed)
        for a, b in itertools.product(confirmed, repeat=2):
            s = dg.add(a, b)
            assert grp.contains(s)
            assert decide_periodic(g, grp, s)
        for a in confirmed:
            assert decide_periodic(g, grp, dg.neg(a))


def test_decide_periodic_outside_box(graphs, groups):
    grp = groups["pullback-b2"]
    g = graphs["pullback-b2"]
    assert decide_periodic(g, grp, (5, -5))
    assert not decide_periodic(g, grp, (5, -4))
    assert decide_periodic(g, None, (1, -1))


def test_decide_periodic_cap(graphs):
    with pytest.raises(PeriodicityUndecidedError):
        decide_periodic(graphs["b2"], None, (25,), cap=100)


def test_group_membership(groups):
    grp = groups["pullback-b2"]
    assert grp.contains((0, 0))
    assert grp.contains((3, -3))
    assert not grp.contains((1, 1))
    prod = groups["product-b2-c2"]
    assert prod.contains((0, -4))
    assert not prod.contains((0, 1))
    assert not prod.contains((1, 2))


small_vecs = st.lists(
    st.lists(st.integers(-5, 5), min_size=2, max_size=2),
    min_size=0, max_size=5)


@settings(max_examples=60)
@given(small_vecs)
def test_hnf_membership_agrees_with_span(vectors):
    vectors = [tuple(v) for v in vectors]
    basis = hnf_basis(vectors, 2)
    # the basis is in echelon form with positive pivots
    pivots = []
    for row in basis:
        lead = next(i for i, a in enumerate(row) if a != 0)
        assert row[lead] > 0
        pivots.append(lead)
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    # idempotent
    assert hnf_basis(list(basis), 2) == basis

    def contains(target):
        v = list(target)
        for row in basis:
            c = next(i for i, a in enumerate(row) if a != 0)
            if v[c] % row[c] != 0:
                return False
            q = v[c] // row[c]
            v = [a - q * b for a, b in zip(v, row)]
        return not any(v)

    # every small integer combination of the inputs is in the lattice
    pool = list(vectors) + [(0, 0)]
    for v, w in itertools.combinations(pool, 2):
        for c1 in range(-2, 3):
            for c2 in range(-2, 3):
                combo = tuple(c1 * a + c2 * b for a, b in zip(v, w))
                assert contains(combo)
