"""Differential test of shift agreement against the code it replaced.

`old_check_pair`, `old_periodicity_group` and `old_extend_level` are
test-only copies of the segment-based decision: `check_pair` compared the
segments at offsets m and n of every path of degree (m v n) + e_i, the
group search ran it on every candidate of the box that passes the matrix
filter, and a mass-profile level compared whole color strips of composed
paths.  The strip-edge decision, the lattice-pruned search and the
rest-carrying levels must agree with them on the fixtures, on generated
single-vertex 2-graphs, pullbacks and products, and at rank 3: the same
decision for every pair (m, n) in a small box, the same `basis` and
`confirmed`, and the same profile and agreement masses.  `old_theta_table`
is theta as it was, with alpha filtered out of Lambda^n for each mu: the
one-pass choice of alpha must give the same table, in the same order, for
every periodic pair of that box.  Per(Lambda) lies
in {g : A^{g+} = A^{g-}}, which lies in {g : rho^g = 1}.  Past the cap,
`check_pair` raises as the per-color enumeration did.  `decide_periodic`
with a group searched to bound B must agree with `check_pair` on
[-B-1, B+1]^k and call it only outside [-B, B]^k.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from kgraphs import builders, periodicity
from kgraphs import degrees as dg
from kgraphs.errors import EnumerationCapError, PeriodicityUndecidedError
from kgraphs.graphs import KGraph
from kgraphs.measure import (CylinderMeasure, agreement_mass,
                             periodicity_mass_profile)
from kgraphs.periodicity import (check_pair, decide_periodic, hnf_basis,
                                 periodicity_group, theta)
from kgraphs.perron import MatrixFamily, perron_data
from test_path_layer import pullbacks, products, single_vertex_2graphs


def old_check_pair(graph, m, n):
    if m == n:
        return True
    jn = dg.join(m, n)
    for color in range(1, graph.k + 1):
        e_i = dg.unit(graph.k, color)
        for lam in graph.paths_of_degree(dg.add(jn, e_i)):
            if graph.segment(lam, m, dg.add(m, e_i)) != \
                    graph.segment(lam, n, dg.add(n, e_i)):
                return False
    return True


def old_theta_table(graph, m, n):
    if m == n:
        return {mu: mu for mu in graph.paths_of_degree(m)}
    table = {}
    for mu in graph.paths_of_degree(m):
        alpha = [a for a in graph.paths_of_degree(n)
                 if a.source == mu.range][0]
        table[mu] = graph.segment(graph.compose(alpha, mu), m, dg.add(m, n))
    return table


def old_periodicity_group(graph, bound):
    """(basis, confirmed) of the full box search."""
    family = MatrixFamily.from_graph(graph)
    cands = [v for v in dg.box((-bound,) * graph.k, (bound,) * graph.k)
             if any(v) and next(a for a in v if a != 0) > 0]
    cands.sort(key=lambda v: (sum(abs(a) for a in v), v))
    confirmed = [v for v in cands
                 if family.power(dg.pos_part(v)) == family.power(dg.neg_part(v))
                 and old_check_pair(graph, dg.pos_part(v), dg.neg_part(v))]
    return hnf_basis(confirmed, graph.k), tuple(confirmed)


def old_extend_level(cm, m, n, l, survivors):
    g = cm.graph
    ones = (1,) * g.k
    strips = [dg.scale(l, dg.unit(g.k, c)) for c in range(1, g.k + 1)]
    ends = [(dg.add(m, s), dg.add(n, s)) for s in strips]
    nxt = []
    for xi in survivors:
        for t in g.paths_of_degree(ones, range=xi.source):
            cand = g.compose(xi, t)
            if all(g.segment(cand, m, me) == g.segment(cand, n, ne)
                   for me, ne in ends):
                nxt.append(cand)
    return nxt


def old_profile(cm, m, n, max_level):
    survivors = cm.graph.paths_of_degree(dg.join(m, n))
    out = [sum((cm.mass(p) for p in survivors), cm.zero)]
    for l in range(1, max_level + 1):
        survivors = old_extend_level(cm, m, n, l, survivors)
        out.append(sum((cm.mass(p) for p in survivors), cm.zero))
    return out


def old_agreement_bound(cm, mu, nu, level):
    g = cm.graph
    survivors = [g.compose(mu, a) for a, _ in g.lambda_min(mu, nu)]
    for l in range(1, level + 1):
        survivors = old_extend_level(cm, mu.degree, nu.degree, l, survivors)
    return sum((cm.mass(p) for p in survivors), cm.zero)


@st.composite
def rank3_graphs(draw):
    """One vertex, 1-2 loops per color, a random bijection of loop pairs
    for colors (1, 2) and flip squares for the pairs with color 3: color 3
    commutes with both others, so the cubical condition holds."""
    loops = draw(st.lists(st.integers(1, 2), min_size=3, max_size=3))
    pairs = [(s, t) for s in range(1, loops[0] + 1)
             for t in range(1, loops[1] + 1)]
    images = draw(st.permutations([(u, v) for u in range(1, loops[1] + 1)
                                   for v in range(1, loops[0] + 1)]))
    return builders.make_single_vertex(3, loops,
                                       {(1, 2): dict(zip(pairs, images))})


GRAPHS = st.one_of(single_vertex_2graphs(), pullbacks, products,
                   rank3_graphs())


def check_decisions(g):
    degrees = dg.degrees_below((2,) * g.k if g.k < 3 else (1,) * g.k)
    for m, n in itertools.product(degrees, repeat=2):
        periodic = check_pair(g, m, n)
        assert periodic == old_check_pair(g, m, n), (m, n)
        if periodic:
            assert list(theta(g, m, n).table.items()) == \
                list(old_theta_table(g, m, n).items()), (m, n)


def check_groups(g):
    for bound in range(3):
        group = periodicity_group(g, bound)
        assert (group.basis, group.confirmed) == \
            old_periodicity_group(g, bound), bound


def check_inclusions(g):
    """Per(Lambda) in {g : A^{g+} = A^{g-}} in {g : rho^g = 1}, decided
    without the group search's matrix prefilter."""
    family = MatrixFamily.from_graph(g)
    rho = perron_data(family).rho
    for v in dg.box((-2,) * g.k, (2,) * g.k):
        pos, neg = dg.pos_part(v), dg.neg_part(v)
        same = family.power(pos) == family.power(neg)
        if check_pair(g, pos, neg):
            assert same, v
        if same:
            assert math.isclose(math.prod(r ** a for r, a in zip(rho, v)), 1,
                                rel_tol=1e-9), v


def check_masses(g):
    cm = CylinderMeasure(g, perron_data(MatrixFamily.from_graph(g)))
    # at rank 1, e2 stands for e1
    e1, e2, zero = dg.unit(g.k, 1), dg.unit(g.k, min(g.k, 2)), dg.zero(g.k)
    for m, n in ((e1, zero), (e1, e2)):
        assert periodicity_mass_profile(cm, m, n, 3) == \
            old_profile(cm, m, n, 3), (m, n)
    for dm, dn in ((e1, zero), (e1, e2), (dg.add(e1, e2), e2)):
        for mu in g.paths_of_degree(dm)[:1]:
            nus = [p for p in g.paths_of_degree(dn) if p.source == mu.source]
            for nu in nus[:2]:
                rep = agreement_mass(cm, mu, nu, 3)
                assert rep.level_bound == old_agreement_bound(cm, mu, nu, 3)


def test_fixtures(graphs):
    for g in graphs.values():
        check_decisions(g)
        check_groups(g)
        check_inclusions(g)
        check_masses(g)


@settings(max_examples=30)
@given(GRAPHS)
def test_generated(g):
    check_decisions(g)
    check_groups(g)
    check_inclusions(g)
    check_masses(g)


def test_interned_levels_past_level_3(measures, pb2g):
    # past level 3 one state stands for many survivors: the periodic pairs
    # keep every path, and a1/b1 is theta-matched
    for name, m, n in (("pullback-b2", (1, 0), (0, 1)),
                       ("product-b2-c2", (0, 2), (0, 0))):
        cm = measures[name]
        assert repr(periodicity_mass_profile(cm, m, n, 5)) == \
            repr(old_profile(cm, m, n, 5)), name
    cm = measures["pullback-b2"]
    a1, b1 = pb2g.parse_path("a1"), pb2g.parse_path("b1")
    assert repr(agreement_mass(cm, a1, b1, 4).level_bound) == \
        repr(old_agreement_bound(cm, a1, b1, 4))


def rank_three_twisted():
    # x_s y = y x_sigma(s) and x_s z = z x_sigma(s)
    sigma = {1: 2, 2: 1, 3: 3}
    tables = {(1, 2): {(s, 1): (1, sigma[s]) for s in sigma},
              (1, 3): {(s, 1): (1, sigma[s]) for s in sigma},
              (2, 3): {(1, 1): (1, 1)}}
    return builders.make_single_vertex(3, [3, 1, 1], tables)


def test_rank_three_twisted():
    g = rank_three_twisted()
    check_decisions(g)
    check_groups(g)
    check_inclusions(g)
    check_masses(g)


def test_lattice_search_confirms_spanned_candidates(pb2g, monkeypatch):
    # only (a, -a) passes the matrix filter, and it lies in the lattice of
    # (1, -1): bound 5 checks (1, -1) and re-verifies it as the basis,
    # where the old search checked all five
    calls = []

    def counted(graph, m, n):
        calls.append((m, n))
        return check_pair(graph, m, n)

    monkeypatch.setattr(periodicity, "check_pair", counted)
    group = periodicity.periodicity_group(pb2g, 5)
    assert group.basis == ((1, -1),)
    assert group.confirmed == tuple((a, -a) for a in range(1, 6))
    assert calls == [((1, 0), (0, 1))] * 2


def check_box_rule(g):
    """decide_periodic agrees with check_pair on [-B-1, B+1]^k, B the
    group's bound, and runs it only outside [-B, B]^k, unless the group is
    not marked complete up to its bound."""
    bound = 2 if g.k < 3 else 1
    group = periodicity_group(g, bound)
    wide = dg.box((-bound - 1,) * g.k, (bound + 1,) * g.k)
    box = dg.box((-bound,) * g.k, (bound,) * g.k)
    want = {v: check_pair(g, dg.pos_part(v), dg.neg_part(v)) for v in wide}
    calls = []

    def counted(graph, m, n):
        calls.append(dg.sub(m, n))
        return check_pair(graph, m, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(periodicity, "check_pair", counted)
        for v in wide:
            assert decide_periodic(g, group, v) == want[v], v
        assert calls == [v for v in wide if v not in box
                         and not group.contains(v)]
        calls.clear()
        blind = group.replace(complete_up_to_bound=False)
        for v in box:
            assert decide_periodic(g, blind, v) == want[v], v
        assert calls == [v for v in box if not group.contains(v)]


def test_box_rule_fixtures(graphs):
    for g in (*graphs.values(), rank_three_twisted(),
              builders.make_single_vertex(3, [2, 2, 2])):
        check_box_rule(g)


@settings(max_examples=30)
@given(GRAPHS)
def test_box_rule_generated(g):
    check_box_rule(g)


def cap_graph(name):
    if name == "c2 x b2":
        return builders.make_product(builders.c2(), builders.b2())
    return builders.FIXTURES[name]()


@pytest.mark.parametrize("name, m, n", [
    ("pullback-b2", (1, 0), (0, 1)), ("c2 x b2", (1, 0), (0, 0))])
def test_cap_below_join(name, m, n):
    # |Lambda^{m v n}| > cap: color 1 raises, as before
    g = cap_graph(name)
    g.cap = g.count_paths(dg.join(m, n)) - 1
    with pytest.raises(EnumerationCapError) as new:
        check_pair(g, m, n)
    with pytest.raises(EnumerationCapError) as old:
        old_check_pair(g, m, n)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("name, m, n, verdict", [
    # both colors over the cap: color 1 raises first
    ("pullback-b2", (1, 0), (0, 1), None),
    # c2 x b2: only color 2 is over the cap, and color 1 decides first
    ("c2 x b2", (1, 0), (0, 0), False),
    ("c2 x b2", (2, 0), (0, 0), None),
])
def test_cap_contract(name, m, n, verdict):
    """With |Lambda^{m v n}| <= cap < |Lambda^{(m v n) + e_i}|, check_pair
    returns False when a lower color disagrees, and otherwise raises the
    cap error that enumerating the first color over the cap gives, on a
    fresh graph and on one that enumerated that degree before."""
    doc = cap_graph(name).to_json_dict()
    jn = dg.join(m, n)
    cap = KGraph.from_json_dict(doc).count_paths(jn)
    over = next(e for e in ((1, 0), (0, 1))
                if KGraph.from_json_dict(doc).count_paths(dg.add(jn, e)) > cap)
    for warm in (False, True):
        g = KGraph.from_json_dict(doc)
        if warm:
            g.paths_of_degree(dg.add(jn, over))
        g.cap = cap
        if verdict is False:
            assert check_pair(g, m, n) is old_check_pair(g, m, n) is False
            continue
        with pytest.raises(EnumerationCapError) as new:
            check_pair(g, m, n)
        with pytest.raises(EnumerationCapError) as old:
            old_check_pair(g, m, n)
        size = g.count_paths(dg.add(jn, over))
        assert str(new.value) == str(old.value) == \
            f"|paths of degree {dg.add(jn, over)}| = {size} exceeds cap {cap}"
        with pytest.raises(PeriodicityUndecidedError):
            decide_periodic(g, None, dg.sub(m, n))
        g.cap = size
        assert check_pair(g, m, n)
