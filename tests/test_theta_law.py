"""theta's laws, and check_pair's matrix answer.

For a periodic pair (m, n), mu.y = theta(mu).y for every infinite path y
from s(mu), so theta(mu) is the degree-n head of any extension of mu:

    theta_{m,n}(mu) = (mu.lam)(0, n)   for every lam in s(mu)Lambda^{(n-m)+},

as KMSStates.theta_map reads it.  Hence mu.lam and theta(mu).lam share an
extension, and nu = theta(mu) exactly when Lambda^min(mu, nu) is non-empty;
as theta(mu.lam) = theta(mu).lam, the same holds of mu.lam and nu.lam for
every lam of degree (1,..,1) from s(mu).
Both are checked against periodicity.theta, which builds theta from alpha.mu
instead, on every periodic pair of a box: on the fixtures, both rank-3
graphs, the generated graphs of test_shift_agreement.py and the two-loop
graphs of test_kms_generated.py.

With j = m ^ n and grade g = m - n, theta keeps the first j of a path and
shifts the rest:

    theta_{m,n}(p) = p(0, j) . theta_{g+,g-}(p(j, m)).

That is checked on the same graphs but the two-loop ones; on product-b2-c2
the grades (0, 2) and (0, -2) map paths to vertices and vertices to paths.

Per(Lambda) lies in {g : A^{g+} = A^{g-}}, so check_pair answers False from
the matrices once it has sized the strips, when none is over the cap, before
it enumerates a path.  A graph with an empty color has no infinite path, so
every shift pair would agree vacuously and the answers would not form a
group; check_pair, periodicity_group, decide_periodic, theta and is_zero
refuse it, as perron_data does.
"""

import itertools

import pytest
from hypothesis import given, settings

from kgraphs import builders
from kgraphs import degrees as dg
from kgraphs.errors import NotIrreducibleError
from kgraphs.graphs import KGraph
from kgraphs.kms import AlgebraElement, KMSStates
from kgraphs.periodicity import (check_pair, decide_periodic,
                                 periodicity_group, theta)
from kgraphs.perron import MatrixFamily, perron_data
from test_kms_generated import two_loop_2graphs
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
        gvec, j = dg.sub(m, n), tuple(map(min, m, n))
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


def check_prefix_law(g, top):
    """Every periodic (m, n) in [0, top], against periodicity.theta: theta(mu)
    is (mu.lam)(0, n) for every lam in s(mu)Lambda^{(n - m)+}, and nu =
    theta(mu) exactly when mu and nu have a minimal common extension.  So
    theta(mu.lam) = theta(mu).lam, and for every lam in s(mu)Lambda^{(1,..,1)}
    too, mu.lam and nu.lam share an extension exactly when nu = theta(mu), as
    the one-sided screen of KMSStates reads it.  Returns the number of
    (mu, nu) checked."""
    checked = 0
    ones = (1,) * g.k
    for m, n in itertools.product(dg.degrees_below(top), repeat=2):
        if not check_pair(g, m, n):
            continue
        th = theta(g, m, n)
        step = dg.sub(dg.join(m, n), m)
        nus = g.paths_of_degree(n)
        grown = {p: [g.compose(p, lam) for lam in g.paths_of_degree(
            ones, range=p.source)] for p in [*g.paths_of_degree(m), *nus]}
        for mu in g.paths_of_degree(m):
            lams = g.paths_of_degree(step, range=mu.source)
            assert lams, (m, n, mu)
            for lam in lams:
                head = g.factorize(g.compose(mu, lam), n)[0]
                assert head == th(mu), (m, n, mu, lam)
            for nu in nus:
                assert (nu == th(mu)) == bool(g.lambda_min(mu, nu)), \
                    (m, n, mu, nu)
                # mu.lam against nu.lam, lam the same tail of both
                for ends in zip(grown[mu], grown[nu]) \
                        if nu.source == mu.source else ():
                    assert (nu == th(mu)) == bool(g.lambda_min(*ends)), \
                        (m, n, mu, nu, ends)
                checked += 1
    return checked


@pytest.mark.parametrize("name", sorted(builders.FIXTURES))
def test_prefix_law_on_the_fixtures(name):
    g = builders.FIXTURES[name]()
    assert check_prefix_law(g, (3,) * g.k)


@pytest.mark.parametrize("make", [
    rank_three_twisted, lambda: builders.make_single_vertex(3, [2, 2, 2])])
def test_prefix_law_at_rank_three(make):
    assert check_prefix_law(make(), (1, 1, 2))


@settings(max_examples=20)
@given(GRAPHS)
def test_prefix_law_generated(g):
    check_prefix_law(g, (2,) * g.k if g.k < 3 else (1,) * g.k)


@settings(max_examples=10)
@given(two_loop_2graphs())
def test_prefix_law_on_two_loop_graphs(g):
    assert check_prefix_law(g, (2, 2))


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


@pytest.mark.parametrize("g", [builders.make_single_vertex(2, [0, 2]),
                               builders.make_single_vertex(1, [0])],
                         ids=["loops-0-2", "no-edges"])
def test_an_empty_color_is_refused(g):
    # on loops (0, 2), (1, 0) and (1, 1) agreed with (0, 0) vacuously, but
    # their difference (0, 1) did not
    one, zero = dg.unit(g.k, 1), dg.zero(g.k)
    v = g.vertex_path(g.vertices[0])
    for call in (lambda: check_pair(g, one, zero),
                 lambda: periodicity_group(g, 1),
                 lambda: decide_periodic(g, None, one),
                 lambda: theta(g, zero, one),
                 lambda: AlgebraElement.span(g, v, v).is_zero(),
                 lambda: perron_data(MatrixFamily.from_graph(g))):
        with pytest.raises(NotIrreducibleError):
            call()
    with pytest.raises(NotIrreducibleError,
                       match="requires an edge of every color; color 1 has "
                             "none"):
        g.require_strongly_connected()


def test_theta_refuses_a_vacuously_periodic_pair():
    # the empty color made (0, 0) - (1, 0) vacuously periodic; neither
    # check_pair nor theta calls it periodic now
    g = builders.make_single_vertex(2, [0, 2])
    for call in (lambda: check_pair(g, (0, 0), (1, 0)),
                 lambda: theta(g, (0, 0), (1, 0))):
        with pytest.raises(NotIrreducibleError,
                           match="requires an edge of every color"):
            call()
