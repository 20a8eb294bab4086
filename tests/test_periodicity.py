"""Shift-agreement detection, the induced bijections, and the group they
generate."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kgraphs import builders, degrees as dg
from kgraphs.errors import (InputFormatError, NotPeriodicError,
                            PeriodicityUndecidedError)
from kgraphs.graphs import KGraph
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


@pytest.mark.parametrize("m, n", [((-1, 0), (0, 0)), ((0, 0), (0, -1))])
def test_negative_shift_degrees_are_input_errors(graphs, m, n):
    # as in measure.periodicity_mass_profile: a negative degree is malformed
    # input, not a pair of shifts that disagree
    g = graphs["pullback-b2"]
    for call in (check_pair, theta):
        with pytest.raises(InputFormatError,
                           match=r"^shift degree \((-1, 0|0, -1)\) is not "
                                 r"in N\^2$"):
            call(g, m, n)


@pytest.mark.parametrize("bound", [1.5, True, False, "2", None])
def test_a_search_bound_is_an_int(graphs, bound):
    # True ran as a group with search_bound=True and 1.5 raised a bare
    # TypeError; a negative int keeps its own message
    with pytest.raises(InputFormatError, match=(
            f"^periodicity search bound must be an int >= 0, not "
            f"{bound!r}$")):
        periodicity_group(graphs["pullback-b2"], bound)


def test_check_pair_sizes_its_strips_from_one_chain(monkeypatch):
    # every |Lambda^{(m v n) + e_i}| comes from the one stem chain of m v n;
    # A^(1,0) != A^0 then answers before any path is enumerated
    g = builders.FIXTURES["product-b2-c2"]()
    chains = []
    stem_chain = KGraph._stem_chain

    def counted(self, n):
        chains.append(n)
        return stem_chain(self, n)

    monkeypatch.setattr(KGraph, "_stem_chain", counted)
    assert check_pair(g, (1, 0), (0, 0)) is False
    assert chains == [(1, 0)]


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
        # check_pair, not decide_periodic: the latter answers from
        # grp.contains, so it could not catch a wrong lattice
        for a, b in itertools.product(confirmed, repeat=2):
            s = dg.add(a, b)
            assert grp.contains(s)
            assert check_pair(g, dg.pos_part(s), dg.neg_part(s))
        for a in confirmed:
            s = dg.neg(a)
            assert check_pair(g, dg.pos_part(s), dg.neg_part(s))


def test_decide_periodic_outside_box(graphs, groups):
    grp = groups["pullback-b2"]
    g = graphs["pullback-b2"]
    assert decide_periodic(g, grp, (5, -5))
    assert not decide_periodic(g, grp, (5, -4))
    assert decide_periodic(g, None, (1, -1))


def test_decide_periodic_cap():
    g = builders.FIXTURES["b2"]()
    g.cap = 100
    with pytest.raises(PeriodicityUndecidedError):
        decide_periodic(g, None, (25,))


def test_the_searched_box_decides_past_the_cap():
    # |Lambda^(8)| = 256 > cap: the pair decision for (7,) would raise, but
    # the search already decided every vector of [-7, 7]
    g = builders.FIXTURES["b2"]()
    g.cap = 100
    grp = periodicity_group(g, 7)
    assert grp.rank == 0
    assert decide_periodic(g, grp, (7,)) is False
    assert decide_periodic(g, grp, (-7,)) is False
    for outside in (grp.replace(complete_up_to_bound=False), None):
        with pytest.raises(PeriodicityUndecidedError):
            decide_periodic(g, outside, (7,))
    with pytest.raises(PeriodicityUndecidedError):
        decide_periodic(g, grp, (8,))


@pytest.mark.parametrize("gvec", [(1,), (1, -1, 5), (1.5, -1.5),
                                  (-1.5, 1), (True, 0), (1, False)])
def test_difference_must_be_in_z_k(graphs, groups, gvec):
    g, grp = graphs["pullback-b2"], groups["pullback-b2"]
    for call in (lambda: decide_periodic(g, grp, gvec),
                 lambda: decide_periodic(g, None, gvec),
                 lambda: grp.contains(gvec)):
        with pytest.raises(InputFormatError, match=r"is not in Z\^2"):
            call()


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
