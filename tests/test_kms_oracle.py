"""Brute-force oracle for kms_check.

kms_check enumerates the support of the products instead of walking every
quadruple.  Here every source-matched quadruple a = s_mu s*_nu,
b = s_eta s*_zeta in a small box goes through AlgebraElement products and
phi_apply, and the identity phi(ab) = rho^{-(d(mu)-d(nu))} phi(ba) is tested
directly.  The two must agree on the failure count, on every reported
failure, and on the size of the support.

The one-sided Cuntz-Krieger screen gets its own slow count: phi_eval on every
source-matched pair, against a bound summed from Lambda^min over the
(1,..,1) tails.
"""

from fractions import Fraction

import pytest

from kgraphs import degrees as dg
from kgraphs.kms import KMS_TOL, AlgebraElement, KMSStates, StateSpec
from kgraphs.scalars import QQi

F = Fraction

CASES = {"b2": (2,), "pullback-b2": (1, 1), "product-b2-c2": (1, 1)}

# brute-force failure counts of the theta-blind functional (the honest one
# never fails): the averaging state and a quarter-turn character
BLIND_FAILURES = {
    ("b2", "haar"): 292, ("b2", "z=1/4"): 292,
    ("pullback-b2", "haar"): 496, ("pullback-b2", "z=1/4,0"): 904,
    ("product-b2-c2", "haar"): 144, ("product-b2-c2", "z=1/4,0"): 192,
}


@pytest.fixture(scope="module")
def products(graphs):
    """Per fixture: every product of two span terms s_mu s*_nu with
    source-matched paths in the box."""
    out = {}
    for name, D in CASES.items():
        g = graphs[name]
        paths = [p for n in dg.box(dg.zero(g.k), D)
                 for p in g.paths_of_degree(n)]
        pairs = [(mu, nu) for mu in paths for nu in paths
                 if mu.source == nu.source]
        span = {pr: AlgebraElement.span(g, *pr) for pr in pairs}
        out[name] = {(a, b): span[a] * span[b]
                     for a in pairs for b in pairs}
    return out


@pytest.mark.parametrize("name", list(CASES))
def test_products_are_homogeneous(products, name):
    # the gauge grading kms_check rests on: every term of
    # s_mu s*_nu s_eta s*_zeta has grade d(mu) - d(nu) + d(eta) - d(zeta)
    seen = set()
    for ((mu, nu), (eta, zeta)), elem in products[name].items():
        grade = dg.add(dg.sub(mu.degree, nu.degree),
                       dg.sub(eta.degree, zeta.degree))
        for m, n in elem.terms:
            assert dg.sub(m.degree, n.degree) == grade
            seen.add(grade)
    assert len(seen) > 1


def brute_values(st, state, prods, theta_blind):
    return {ab: st.phi_apply(state, elem, theta_blind=theta_blind)
            for ab, elem in prods.items()}


@pytest.mark.parametrize("theta_blind", [False, True],
                         ids=["honest", "theta-blind"])
@pytest.mark.parametrize("name", list(CASES))
def test_kms_check_matches_brute_force(states, products, name, theta_blind):
    st = states[name]
    k = st.graph.k
    D = CASES[name]
    prods = products[name]
    rho = st.measure.rho

    # the trivial character sees every supported key: its value is a sum of
    # positive masses
    trivial = brute_values(st, StateSpec.character((0,) * k), prods,
                           theta_blind)
    supported = {ab for ab, v in trivial.items() if v != 0}

    for state in (StateSpec.haar(),
                  StateSpec.character((F(1, 4),) + (F(0),) * (k - 1))):
        phi = brute_values(st, state, prods, theta_blind)
        failing = {}
        for a, b in prods:
            factor = dg.rho_power(rho, dg.neg(dg.sub(a[0].degree,
                                                     a[1].degree)))
            lhs, rhs = phi[a, b], phi[b, a] * factor
            if lhs != rhs:
                lit = tuple(p.literal() for p in a + b)
                failing[lit] = (repr(lhs), repr(rhs))

        rep = st.kms_check(state, D, theta_blind=theta_blind)
        want = BLIND_FAILURES[name, state.describe()] if theta_blind else 0
        assert len(failing) == want
        assert rep.failure_count == want
        assert rep.passed == (want == 0)
        assert rep.total_quadruples == len(prods)
        assert rep.support_size == len(supported)
        assert rep.explicit_checked == len(
            supported | {(b, a) for a, b in supported})
        assert len(rep.failures) == min(want, 20)
        for f in rep.failures:
            lit = (f["mu"], f["nu"], f["eta"], f["zeta"])
            assert failing[lit] == (f["lhs"], f["rhs_scaled"])


def screen_states(k):
    quarter = (F(1, 4),) + (F(0),) * (k - 1)
    return [StateSpec.haar(), StateSpec.character(quarter),
            StateSpec.character((0.3, 0.1)[:k]),
            StateSpec.mixture([(F(1, 3), (F(0),) * k), (F(2, 3), quarter)]),
            # weights 1e-9 over 1, inside the float mixture slack
            StateSpec.mixture([(0.5, (0,) * k), (0.5000000005, quarter)])]


def brute_screen(st, state, D, theta_blind, tol):
    """Violations of |phi(s_mu s*_nu)| <= bound over the source-matched
    pairs, bound the mass of the mu.lam, lam in s(mu)Lambda^{(1,..,1)},
    for which mu.lam and nu.lam have a minimal common extension."""
    g = st.graph
    paths = [p for n in dg.box(dg.zero(g.k), D)
             for p in g.paths_of_degree(n)]
    tails = {v: g.paths_of_degree((1,) * g.k, range=v) for v in g.vertices}
    violations = 0
    for mu in paths:
        for nu in paths:
            if mu.source != nu.source:
                continue
            bound = sum((st.measure.mass(g.compose(mu, lam))
                         for lam in tails[mu.source]
                         if g.lambda_min(g.compose(mu, lam),
                                         g.compose(nu, lam))),
                        st.measure.zero)
            val = st.phi_eval(state, mu, nu, theta_blind=theta_blind)
            if isinstance(val, QQi) and not isinstance(bound, float):
                violations += val.abs2() > bound * bound
            else:
                violations += abs(complex(val)) > float(bound) + tol
    return violations


@pytest.mark.parametrize("doubled", [False, True],
                         ids=["perron-x", "doubled-x"])
@pytest.mark.parametrize("theta_blind", [False, True],
                         ids=["honest", "theta-blind"])
@pytest.mark.parametrize("name", list(CASES))
def test_ck_screen_matches_brute_force(graphs, perron, groups, monkeypatch,
                                       name, theta_blind, doubled):
    st = KMSStates(graphs[name], perron[name], group=groups[name])
    if doubled:
        # x doubled at one vertex: bounds above zero that phi exceeds
        mass_at, v = st.measure.mass_at, st.graph.vertices[0]
        monkeypatch.setattr(st.measure, "mass_at", lambda d, s: mass_at(
            d, s) * (2 if s == v else 1))
    D = CASES[name]
    fired = 0
    for state in screen_states(st.graph.k):
        for tol in (0, KMS_TOL):
            want = brute_screen(st, state, D, theta_blind, tol)
            rep = st.kms_check(state, D, tol=tol, theta_blind=theta_blind)
            assert rep.ck_screen_violations == want, (state.describe(), tol)
            fired += want
    # the slack mixture's psi(0) exceeds 1, which the screen must see
    assert fired > 0
