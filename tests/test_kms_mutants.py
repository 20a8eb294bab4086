"""Mutation tests for kms_check: break the cylinder masses and watch which
half of the check notices.

The equilibrium identity works on span terms, which do not see the
Cuntz-Krieger relation p_v = sum of s_lam s*_lam over lam in vLambda^n, so a
functional built from a vector other than the Perron eigenvector x can pass
it.  The one-sided screen is what catches that mutant; a wrong power of rho
breaks the identity itself.
"""

import pytest

from kgraphs import degrees as dg
from kgraphs.kms import KMSStates, StateSpec

BOXES = {"b2": (2,), "fib": (2,), "pullback-b2": (1, 1),
         "product-b2-c2": (1, 1)}


def fresh(graphs, perron, groups, name):
    return KMSStates(graphs[name], perron[name], group=groups[name])


def doubled_x(cm):
    # x scaled by 2 at one vertex: no longer an eigenvector when the graph
    # has more than one vertex
    mass_at, v = cm.mass_at, cm.graph.vertices[0]
    return lambda degree, source: mass_at(degree, source) * (
        2 if source == v else 1)


def rho_plus(cm):
    # rho^{+d} x in place of rho^{-d} x
    return lambda degree, source: dg.rho_power(cm.rho, degree) * cm.x[source]


@pytest.mark.parametrize("name", ["fib", "product-b2-c2"])
def test_only_the_screen_sees_a_non_eigenvector(graphs, perron, groups,
                                                monkeypatch, name):
    st = fresh(graphs, perron, groups, name)
    assert st.kms_check(StateSpec.haar(), BOXES[name]).passed
    st = fresh(graphs, perron, groups, name)
    monkeypatch.setattr(st.measure, "mass_at", doubled_x(st.measure))
    rep = st.kms_check(StateSpec.haar(), BOXES[name])
    assert rep.failure_count == 0
    assert rep.ck_screen_violations == 6
    assert not rep.passed


@pytest.mark.parametrize("name", list(BOXES))
def test_the_identity_sees_a_wrong_rho_power(graphs, perron, groups,
                                             monkeypatch, name):
    st = fresh(graphs, perron, groups, name)
    monkeypatch.setattr(st.measure, "mass_at", rho_plus(st.measure))
    rep = st.kms_check(StateSpec.haar(), BOXES[name])
    assert rep.failure_count > 0 and not rep.passed
