"""The cold KMS table by cell against the key-level reference.

KMSStates._sweep_table builds its support by cell and its profiles from
cells times the histogram of the swap masses, with a replay for the
order-dependent part.  tests/kms_reference.py keeps the key-level walk and
sweep that it replaced; here the two tables must agree in full: the
profiles in order, each with its count and its samples (key, left, right)
in order, the screen, `checked`, `support` and `mass_unit`.  The cases are
every fixture at every box of the benchmark's cold ladder, honest and
theta-blind, with a wrong power of rho that breaks the honest identity, the
generated graphs of test_shift_agreement.py (float Perron data on several
vertices among them) and the two-loop graphs of test_kms_generated.py.  The
support keeps its cap: more than graph.cap supported keys raise.

A single-vertex 2-graph with loops (3, 2) shows why the honest keys are
counted one by one: two blind cells of one class quadruple and mass hold
different numbers of them.  The honest support is closed under the swap, so
an honest check compares exactly its supported keys, whatever the masses.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as hst

from kgraphs import builders
from kgraphs.errors import EnumerationCapError
from kgraphs.kms import KMSStates, StateSpec, _BoxIndex
from kgraphs.periodicity import periodicity_group
from kgraphs.perron import MatrixFamily, perron_data
from kms_reference import reference_table
from test_kms_generated import two_loop_2graphs
from test_kms_mutants import doubled_x, rho_plus
from test_shift_agreement import GRAPHS

LADDER = {"b2": [(1,), (2,), (3,)], "fib": [(1,), (2,), (3,)],
          "pullback-b2": [(1, 1), (2, 1), (2, 2)],
          "product-b2-c2": [(1, 1), (2, 1), (2, 2)]}
# three loops of color 1 and two of color 2 at one vertex, with
# a1.b1 = b1.a3, a2.b1 = b2.a3 and a3.b2 = b1.a2 among its squares
THREE_BY_TWO = {(1, 2): {(1, 1): (1, 3), (1, 2): (2, 1), (2, 1): (2, 3),
                         (2, 2): (1, 1), (3, 1): (2, 2), (3, 2): (1, 2)}}


def check_table(st, D, theta_blind):
    table = st._sweep_table(D, theta_blind)
    want = reference_table(st, D, theta_blind)
    assert list(table["profiles"].items()) == list(want["profiles"].items())
    for field in ("screen", "checked", "support", "mass_unit"):
        assert table[field] == want[field], field
    return table


def fresh(g):
    return KMSStates(g, perron_data(MatrixFamily.from_graph(g)),
                     group=periodicity_group(g, bound=2))


@pytest.mark.parametrize("name, D", [(name, D) for name, boxes in
                                     LADDER.items() for D in boxes])
@pytest.mark.parametrize("theta_blind", [False, True])
def test_ladder_matches_key_level_reference(graphs, perron, groups, name, D,
                                            theta_blind):
    st = KMSStates(graphs[name], perron[name], group=groups[name])
    table = check_table(st, D, theta_blind)
    # the blind control fails; fib's honest profiles are float rounding
    assert table["profiles"] or not theta_blind


@pytest.mark.parametrize("name", list(LADDER))
@pytest.mark.parametrize("theta_blind", [False, True])
def test_broken_identity_matches_key_level_reference(
        graphs, perron, groups, monkeypatch, name, theta_blind):
    st = KMSStates(graphs[name], perron[name], group=groups[name])
    monkeypatch.setattr(st.measure, "mass_at", rho_plus(st.measure))
    assert check_table(st, LADDER[name][-1], theta_blind)["profiles"]


@settings(max_examples=15)
@given(hst.one_of(GRAPHS, two_loop_2graphs()))
@example(builders.make_pullback(builders.fib()))
@example(builders.make_product(builders.fib(), builders.c2()))
def test_generated_match_key_level_reference(g):
    st = fresh(g)
    for D in ((1,) * g.k, (2,) + (1,) * (g.k - 1)):
        for theta_blind in (False, True):
            check_table(st, D, theta_blind)


def test_blind_support_cap_counts_keys():
    # the theta-blind support of pullback-b2 at (2, 2) holds 228,093 keys
    # in 7,479 cells; the cap still counts keys
    g = builders.FIXTURES["pullback-b2"]()
    st = fresh(g)
    g.cap = 228_093
    rep = st.kms_check(StateSpec.haar(), (2, 2), theta_blind=True)
    assert rep.support_size == 228_093
    g = builders.FIXTURES["pullback-b2"]()
    st = fresh(g)
    g.cap = 228_092
    with pytest.raises(EnumerationCapError, match="KMS support"):
        st.kms_check(StateSpec.haar(), (2, 2), theta_blind=True)


def test_blind_support_cap_on_a_large_box():
    # three loops of each color at one vertex: over four million blind
    # keys at (2, 2), past the default cap of 10^6
    squares = {(1, 2): {(s, t): (4 - t, s) for s in (1, 2, 3)
                        for t in (1, 2, 3)}}
    st = fresh(builders.make_single_vertex(2, [3, 3], squares))
    assert st.kms_check(StateSpec.haar(), (2, 1)).passed
    with pytest.raises(EnumerationCapError, match="KMS support"):
        st.kms_check(StateSpec.haar(), (2, 2), theta_blind=True)


def test_honest_keys_are_not_fixed_by_class_quadruple_and_mass():
    # the blind cells (c(a1), a1, b1, c(b1)) and (c(a1), a3, b1, c(b1)) have
    # one class quadruple, as a1 and a3 share their class, and one mass, yet
    # hold 2 and 1 honest keys: the honest check cannot count its keys once
    # per (class quadruple, blind mass) as the blind check does
    st = fresh(builders.make_single_vertex(2, [3, 2], THREE_BY_TWO))
    D = (1, 1)
    for theta_blind in (False, True):
        check_table(st, D, theta_blind)
    S, _ = st._scales(D)
    box = _BoxIndex(st.graph, D)
    n = len(box.paths)
    honest, _ = st._support_contributions(box, False, S)
    blind, _ = st._support_contributions(box, True, S)
    number = {p.literal(): i for i, p in enumerate(box.paths)}
    a1, a3, b1 = number["a1"], number["a3"], number["b1"]
    assert box.first[a1] == box.first[a3] == a1
    assert box.first[b1] == b1
    held = {}       # blind cell -> its honest keys, by literals
    for key in honest:
        mu, nu, eta, zeta = (key // n ** e % n for e in (3, 2, 1, 0))
        cell = ((box.first[mu] * n + nu) * n + eta) * n + box.first[zeta]
        held.setdefault(cell, set()).add(
            tuple(box.paths[i].literal() for i in (mu, nu, eta, zeta)))
    cells = [((a1 * n + nu) * n + b1) * n + b1 for nu in (a1, a3)]
    assert [blind[c] * Fraction(1, S) for c in cells] == [Fraction(1, 6)] * 2
    assert [held[c] for c in cells] == [
        {("a1", "a1", "b1", "b1"), ("a2", "a1", "b1", "b2")},
        {("a3", "a3", "b1", "b1")}]


@pytest.mark.parametrize("mutant", [None, rho_plus, doubled_x],
                         ids=["perron", "rho_plus", "doubled_x"])
def test_honest_support_is_closed_under_the_swap(graphs, perron, groups,
                                                 monkeypatch, mutant):
    # x -> mu.sigma^{d(nu)}(x) maps a key's agreement set onto its swap's and
    # masses are positive, so every honest key's swap is supported: the
    # check compares no more keys than it supports, whatever the masses
    three_by_two = builders.make_single_vertex(2, [3, 2], THREE_BY_TWO)
    cases = [(graphs[name], perron[name], groups[name], boxes)
             for name, boxes in LADDER.items()]
    cases.append((three_by_two, perron_data(MatrixFamily.from_graph(
        three_by_two)), periodicity_group(three_by_two, bound=2),
        LADDER["pullback-b2"]))
    for g, pd, group, boxes in cases:
        for D in boxes:
            st = KMSStates(g, pd, group=group)
            if mutant:
                monkeypatch.setattr(st.measure, "mass_at", mutant(st.measure))
            rep = st.kms_check(StateSpec.haar(), D)
            assert rep.explicit_checked == rep.support_size, (g, D)
