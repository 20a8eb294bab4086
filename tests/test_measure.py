"""The shift-invariant measure on the infinite-path space."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kgraphs import builders
from kgraphs import degrees as dg
from kgraphs.errors import (EnumerationCapError, InputFormatError,
                            WitnessSearchError)
from kgraphs.graphs import KGraph
from kgraphs.measure import (ConsistencyReport, CylinderMeasure,
                             agreement_mass, consistency_check, decay_check,
                             find_decay_witness, periodicity_mass_profile)
from kgraphs.perron import MatrixFamily, perron_data
from kgraphs.scalars import CONSISTENCY_TOL
from test_path_layer import pullbacks, products, single_vertex_2graphs
from test_shift_agreement import (GRAPHS, old_extend_level,
                                  rank_three_twisted)

F = Fraction


def test_masses_b2(measures, b2g):
    cm = measures["b2"]
    assert cm.exact
    assert cm.mass(b2g.parse_path("e1")) == F(1, 2)
    assert cm.mass(b2g.parse_path("e1.e2.e1")) == F(1, 8)
    assert cm.mass(b2g.vertex_path("v")) == F(1)


def test_masses_prod(measures, prodg):
    cm = measures["product-b2-c2"]
    v1 = prodg.vertex_path("v:w1")
    assert cm.mass(v1) == F(1, 2)
    # blue edges halve the mass, red edges only move between vertices
    blue = next(p for p in prodg.paths_of_degree((1, 0), range="v:w1"))
    red = next(p for p in prodg.paths_of_degree((0, 1), range="v:w1"))
    assert cm.mass(blue) == F(1, 4)
    assert cm.mass(red) == F(1, 2)


def test_total_mass_one(measures, graphs):
    for name, cm in measures.items():
        k = graphs[name].k
        for n in dg.degrees_below((2,) * k):
            total = cm.total_mass(n)
            if cm.exact:
                assert total == 1
            else:
                assert float(total) == pytest.approx(1.0, abs=1e-10)


def test_mass_refines_by_one_edge(measures, graphs):
    # the eigen-equation, seen on cylinders: extending by all color-i edges
    # at the source splits mass exactly
    for name in ("fib", "product-b2-c2"):
        g, cm = graphs[name], measures[name]
        for n in dg.degrees_below((1,) * g.k):
            for p in g.paths_of_degree(n):
                for color in range(1, g.k + 1):
                    ext = [cm.mass(g.compose(p, t))
                           for t in g.paths_of_degree(
                               dg.unit(g.k, color), range=p.source)]
                    total = sum(ext)
                    if cm.exact:
                        assert total == cm.mass(p)
                    else:
                        assert float(total) == pytest.approx(
                            float(cm.mass(p)), abs=1e-12)


def left_to_right(values):
    """sum(values) as Python added floats before 3.12 compensated them."""
    total = 0
    for v in values:
        total = total + v
    return total


def old_consistency_check(cm, m, n, tol=CONSISTENCY_TOL):
    """consistency_check as it was: a Path composed for each refinement,
    once per path of degree m."""
    g = cm.graph
    slack = 0 if cm.exact else tol
    max_err = cm.zero
    for lam in g.paths_of_degree(m):
        refined = left_to_right(cm.mass(g.compose(lam, t))
                                for t in g.paths_of_degree(dg.sub(n, m),
                                                           range=lam.source))
        max_err = max(max_err, abs(refined - cm.mass(lam)))
    total_err = abs(left_to_right(map(cm.mass, g.paths_of_degree(n))) - 1)
    return ConsistencyReport(m=m, n=n, exact=cm.exact,
                             max_refinement_error=float(max_err),
                             total_mass_error=float(total_err),
                             passed=max_err <= slack and total_err <= slack)


def check_consistency_as_before(cm, top):
    """The same report, float fields to the bit, for all m <= n <= top."""
    for n in dg.degrees_below(top):
        for m in dg.degrees_below(n):
            assert repr(consistency_check(cm, m, n)) == \
                repr(old_consistency_check(cm, m, n)), (m, n)


def test_consistency_as_before_on_fixtures(measures):
    for cm in measures.values():
        check_consistency_as_before(cm, (5,) if cm.graph.k == 1 else (2, 3))
    check_consistency_as_before(measure_of(rank_three_twisted()), (2, 1, 1))


GENERATED = st.one_of(single_vertex_2graphs(), pullbacks, products)


def measure_of(g):
    return CylinderMeasure(g, perron_data(MatrixFamily.from_graph(g)))


@settings(max_examples=15)
@given(GRAPHS)
def test_consistency_as_before_on_generated(g):
    check_consistency_as_before(measure_of(g),
                                (2, 2) if g.k == 2 else (1, 1, 1))


def test_consistency_reports(measures):
    rep = consistency_check(measures["b2"], (1,), (3,))
    assert rep.exact and rep.passed
    assert rep.max_refinement_error == 0 and rep.total_mass_error == 0
    rep = consistency_check(measures["fib"], (2,), (4,))
    assert not rep.exact
    assert rep.passed
    assert rep.max_refinement_error < 1e-10
    with pytest.raises(InputFormatError):
        consistency_check(measures["b2"], (3,), (1,))
    # a negative tol would fail every float comparison in silence
    for tol in (-1, -1e-9, math.nan, math.inf):
        with pytest.raises(InputFormatError):
            consistency_check(measures["fib"], (2,), (4,), tol=tol)


def test_periodicity_mass_values(measures):
    cm = measures["b2"]
    profile = periodicity_mass_profile(cm, (1,), (0,), 3)
    assert profile[0] == 1
    assert profile[1] == F(1, 2)
    assert profile[3] == F(1, 8)
    assert periodicity_mass_profile(cm, (1,), (2,), 1)[-1] == F(1, 2)
    assert periodicity_mass_profile(cm, (1,), (0,), 5) == \
        [1, F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32)]


def test_a_mass_profile_level_is_capped(perron):
    # b2 at m = n: every path of every level survives, 2^l at level l
    g = builders.FIXTURES["b2"]()
    cm = CylinderMeasure(g, perron["b2"])
    g.cap = 4
    assert periodicity_mass_profile(cm, (0,), (0,), 2) == [1, 1, 1]
    with pytest.raises(EnumerationCapError,
                       match="^level-3 survivor set exceeds cap 4$"):
        periodicity_mass_profile(cm, (0,), (0,), 3)


def test_periodicity_mass_periodic_pairs(measures):
    cm = measures["pullback-b2"]
    assert periodicity_mass_profile(cm, (1, 0), (0, 1), 4) == [1] * 5
    cmp_ = measures["product-b2-c2"]
    assert periodicity_mass_profile(cmp_, (0, 2), (0, 0), 4) == [1] * 5


def brute_mass(cm, m, n, level):
    """Direct one-shot filter over the full enumeration: weigh every path of
    degree (m v n) + level*1 whose m- and n-shifted color strips coincide."""
    g = cm.graph
    jn = dg.join(m, n)
    full = dg.add(jn, dg.scale(level, (1,) * g.k))
    strips = [dg.scale(level, dg.unit(g.k, c))
              for c in range(1, g.k + 1)] if level else []
    total = F(0) if cm.exact else 0.0
    for w in g.paths_of_degree(full):
        if all(g.segment(w, m, dg.add(m, strip)) ==
               g.segment(w, n, dg.add(n, strip)) for strip in strips):
            total += cm.mass(w)
    return total


def test_periodicity_mass_matches_brute_force(measures):
    cases = (("b2", (1,), (0,)), ("b2", (2,), (1,)),
             ("pullback-b2", (1, 0), (0, 0)),
             ("pullback-b2", (1, 0), (0, 1)),
             ("product-b2-c2", (0, 1), (0, 0)))
    for name, m, n in cases:
        cm = measures[name]
        profile = periodicity_mass_profile(cm, m, n, 2)
        for level in range(3):
            assert profile[level] == brute_mass(cm, m, n, level)


def test_periodicity_mass_fib_decreases(measures):
    prof = periodicity_mass_profile(measures["fib"], (1,), (0,), 4)
    assert all(b < a for a, b in zip(prof, prof[1:]))


def sequential_profile(cm, m, n, max_level):
    """The profile with each survivor refined on its own, as a composed
    path, and its masses added left to right in survivor order."""
    survivors = cm.graph.paths_of_degree(dg.join(m, n))
    out = [left_to_right(map(cm.mass, survivors))]
    for l in range(1, max_level + 1):
        survivors = old_extend_level(cm, m, n, l, survivors)
        out.append(left_to_right(map(cm.mass, survivors)))
    return out


def test_float_profiles_keep_their_bits(measures):
    # fib's masses are floats: one state's survivors are still added one
    # by one, in survivor order
    cm = measures["fib"]
    for m, n, level in (((1,), (0,), 10), ((0,), (0,), 7), ((2,), (1,), 8)):
        assert repr(periodicity_mass_profile(cm, m, n, level)) == \
            repr(sequential_profile(cm, m, n, level)), (m, n)


def test_each_distinct_state_is_refined_once(monkeypatch):
    # pullback-b2 at (1, 0)/(0, 1): all 4^(l+1) paths of level l survive,
    # in 2^(l+1) states, and refining a state takes 4 tails x 2 colors x 2
    # split_strip calls; so level 5's 4,096 survivors hold 64 states
    g = builders.FIXTURES["pullback-b2"]()
    cm = measure_of(g)
    calls = []
    split_strip = KGraph.split_strip

    def counted(self, rest, edges, e_i):
        calls.append(e_i)
        return split_strip(self, rest, edges, e_i)

    monkeypatch.setattr(KGraph, "split_strip", counted)
    for level, states in ((5, 2 + 4 + 8 + 16 + 32),
                          (6, 2 + 4 + 8 + 16 + 32 + 64)):
        calls.clear()
        assert periodicity_mass_profile(cm, (1, 0), (0, 1), level) == \
            [1] * (level + 1)
        assert len(calls) == 16 * states


@pytest.mark.parametrize("level", [-1, 1.0, 2.5, True, False, "3", None])
def test_a_level_is_a_nonnegative_int(measures, pb2g, groups, level):
    # -1 gave an agreement bound of 2, and an empty profile
    cm = measures["pullback-b2"]
    with pytest.raises(InputFormatError, match="^level must be an int >= 0"):
        periodicity_mass_profile(cm, (1, 0), (0, 1), level)
    with pytest.raises(InputFormatError, match="^level must be an int >= 0"):
        agreement_mass(cm, pb2g.parse_path("a1"), pb2g.parse_path("b1"),
                       level, group=groups["pullback-b2"])


@pytest.mark.parametrize("count", [-1, 1.5, True, False, "3", None])
def test_decay_bounds_are_nonnegative_ints(measures, pb2g, count):
    # a_max = -1 was a search that failed ("larger bounds may still
    # succeed"), j_max = -1 a check that passed with no mass, and 1.5 a
    # bare TypeError; the level rule applies to both
    cm = measures["pullback-b2"]
    with pytest.raises(InputFormatError,
                       match=f"^a_max must be an int >= 0, not {count!r}$"):
        find_decay_witness(cm, (1, 0), a_max=count)
    witness = find_decay_witness(cm, (1, 0), a_max=2)
    with pytest.raises(InputFormatError,
                       match=f"^j_max must be an int >= 0, not {count!r}$"):
        decay_check(cm, witness, pb2g.parse_path("a1"), pb2g.parse_path("v"),
                    count)


def test_agreement_closed_form(measures, pb2g, groups):
    cm = measures["pullback-b2"]
    grp = groups["pullback-b2"]
    a1 = pb2g.parse_path("a1")
    b1 = pb2g.parse_path("b1")
    b2 = pb2g.parse_path("b2")
    rep = agreement_mass(cm, a1, b1, 3, group=grp)
    assert rep.periodic and rep.theta_matched
    assert rep.closed_form == F(1, 2)
    assert rep.level_bound == F(1, 2)
    rep = agreement_mass(cm, a1, b2, 3, group=grp)
    assert rep.periodic and not rep.theta_matched
    assert rep.closed_form == 0


def test_agreement_nonperiodic(measures, b2g, groups):
    cm = measures["b2"]
    e1 = b2g.parse_path("e1")
    rep = agreement_mass(cm, e1, b2g.compose(e1, e1), 3,
                         group=groups["b2"])
    assert not rep.periodic
    assert rep.closed_form == 0
    # the level bound still decays toward the closed form
    assert rep.level_bound <= F(1, 8)


def test_decay_witness_b2(measures):
    cm = measures["b2"]
    w = find_decay_witness(cm, (1,))
    assert w.a == (2,)
    assert set(w.tails) == {"v"}
    assert w.tails["v"].literal() == "e1.e2"
    assert w.K == F(3, 4)


def test_decay_witness_pullback(measures):
    w = find_decay_witness(measures["pullback-b2"], (1, 0))
    assert w.K < 1
    assert dg.total(w.a) >= 1


def test_decay_check_b2(measures, b2g):
    cm = measures["b2"]
    w = find_decay_witness(cm, (1,))
    rep = decay_check(cm, w, b2g.parse_path("e1"), b2g.vertex_path("v"), 3)
    assert rep.passed and rep.exact
    assert rep.masses == (F(1, 2), F(1, 8), F(1, 32), F(1, 128))
    assert rep.bounds == (F(1, 2), F(3, 8), F(9, 32), F(27, 128))


def test_decay_check_compares_exact_masses_exactly(measures, b2g):
    # K a hair below m_1 / M(Z(e1)) puts m_1 above its bound by 10^-30,
    # which floats cannot see
    cm = measures["b2"]
    mu = b2g.parse_path("e1")
    w = find_decay_witness(cm, (1,))
    w = w.replace(K=(F(1, 8) - F(1, 10 ** 30)) / cm.mass(mu))
    rep = decay_check(cm, w, mu, b2g.vertex_path("v"), 1)
    assert rep.masses[1] > rep.bounds[1]
    assert not rep.passed


def _shared_masses(cm, witness, mu, nu, j_max):
    """m_j by definition: every tail of degree j*a, none skipped."""
    g = cm.graph
    out = []
    for j in range(j_max + 1):
        mj = F(0) if cm.exact else 0.0
        for lam in g.paths_of_degree(dg.scale(j, witness.a), range=mu.source):
            if g.lambda_min(g.compose(mu, lam), g.compose(nu, lam)):
                mj += cm.mass(g.compose(mu, lam))
        out.append(mj)
    return tuple(out)


# a single vertex with three loops per color whose separating tails have
# degree (0, 2), so the shared mass thins out over several rounds
SHUFFLED_SQUARES = {(1, 2): {
    (1, 1): (1, 2), (1, 2): (2, 3), (1, 3): (3, 1), (2, 1): (1, 1),
    (2, 2): (3, 3), (2, 3): (2, 2), (3, 1): (3, 2), (3, 2): (1, 3),
    (3, 3): (2, 1)}}


def check_decay_matches_every_tail(cm, w, mu, j_max):
    nu = cm.graph.vertex_path(mu.source)
    rep = decay_check(cm, w, mu, nu, j_max)
    assert rep.masses == _shared_masses(cm, w, mu, nu, j_max)
    return rep


def test_decay_check_matches_every_tail(measures):
    shuffled = builders.make_single_vertex(2, [3, 3], SHUFFLED_SQUARES)
    cases = [(measure_of(shuffled), (1, 0), "a1"),
             (measures["pullback-b2"], (1, 0), "a1"),
             (measures["fib"], (1,), "euu")]
    reports = [check_decay_matches_every_tail(
                   cm, find_decay_witness(cm, gvec),
                   cm.graph.parse_path(literal), 3)
               for cm, gvec, literal in cases]
    assert reports[0].a == (0, 2)
    assert reports[0].masses == (F(1, 3), F(4, 27), F(11, 243), F(29, 2187))


@settings(max_examples=15)
@given(GENERATED)
def test_decay_check_matches_every_tail_generated(g):
    # e1 has a separating-tail witness unless it is periodic
    cm = measure_of(g)
    try:
        w = find_decay_witness(cm, (1, 0), a_max=2)
    except WitnessSearchError:
        return
    check_decay_matches_every_tail(cm, w, g.paths_of_degree((1, 0))[0], 2)


def test_decay_check_requires_matching_difference(measures, b2g):
    cm = measures["b2"]
    w = find_decay_witness(cm, (1,))
    with pytest.raises(InputFormatError):
        decay_check(cm, w, b2g.vertex_path("v"), b2g.vertex_path("v"), 2)


def test_decay_witness_absent_for_periodic_difference(measures):
    # on the pullback, (1, -1) is periodic: shifted paths always recouple,
    # so no tail can kill every pairing
    with pytest.raises(WitnessSearchError):
        find_decay_witness(measures["pullback-b2"], (1, -1), a_max=2)


def test_measure_rejects_wrong_graph(graphs, perron):
    from kgraphs.measure import CylinderMeasure
    with pytest.raises(InputFormatError):
        CylinderMeasure(graphs["b2"], perron["fib"])
