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
"""

import pytest
from hypothesis import example, given, settings, strategies as hst

from kgraphs import builders
from kgraphs.errors import EnumerationCapError
from kgraphs.kms import KMSStates, StateSpec
from kgraphs.periodicity import periodicity_group
from kgraphs.perron import MatrixFamily, perron_data
from kms_reference import reference_table
from test_kms_generated import two_loop_2graphs
from test_kms_mutants import rho_plus
from test_shift_agreement import GRAPHS

LADDER = {"b2": [(1,), (2,), (3,)], "fib": [(1,), (2,), (3,)],
          "pullback-b2": [(1, 1), (2, 1), (2, 2)],
          "product-b2-c2": [(1, 1), (2, 1), (2, 2)]}


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
