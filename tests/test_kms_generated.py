"""kms_check against the brute-force oracle on generated graphs.

The graphs are single-vertex 2-graphs with two loops of each color, whose
squares are a drawn bijection of loop pairs; at rank 2 every bijection gives
a 2-graph (Davidson-Yang), periodic or not.  At box (1,1) every
source-matched quadruple goes through AlgebraElement products and phi_apply,
as in test_kms_oracle.py, and kms_check must agree with that walk on the
failure count, on every reported failure and on the size of the support:
honest and theta-blind, for the averaging state and a quarter-turn
character.  The honest check must pass.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from kgraphs import builders, degrees as dg
from kgraphs.kms import AlgebraElement, KMSStates, StateSpec
from kgraphs.periodicity import periodicity_group
from kgraphs.perron import MatrixFamily, perron_data
from test_kms_oracle import brute_values

F = Fraction
D = (1, 1)


@st.composite
def two_loop_2graphs(draw):
    pairs = [(s, t) for s in (1, 2) for t in (1, 2)]
    images = draw(st.permutations([(u, v) for u in (1, 2) for v in (1, 2)]))
    return builders.make_single_vertex(2, [2, 2],
                                       {(1, 2): dict(zip(pairs, images))})


def box_products(g):
    """Every product of two span terms s_mu s*_nu with source-matched paths
    in the box, and its grade, which every term of it must have."""
    paths = [p for n in dg.box(dg.zero(g.k), D)
             for p in g.paths_of_degree(n)]
    pairs = [(mu, nu) for mu in paths for nu in paths
             if mu.source == nu.source]
    span = {pr: AlgebraElement.span(g, *pr) for pr in pairs}
    shift = {pr: dg.sub(pr[0].degree, pr[1].degree) for pr in pairs}
    prods, grades = {}, {}
    for a in pairs:
        for b in pairs:
            prods[a, b] = span[a] * span[b]
            grades[a, b] = grade = dg.add(shift[a], shift[b])
            assert all(t.grade == grade for t in prods[a, b].terms)
    return prods, grades


@settings(max_examples=4)
@given(two_loop_2graphs())
def test_kms_check_matches_brute_force(g):
    """The products are homogeneous, so a state's phi on one of grade g is
    psi(g) times its value under the trivial character, which the oracle
    evaluates once per functional."""
    st_ = KMSStates(g, perron_data(MatrixFamily.from_graph(g)),
                    group=periodicity_group(g, bound=2))
    prods, grades = box_products(g)
    factor = {a: dg.rho_power(st_.measure.rho,
                              dg.neg(dg.sub(a[0].degree, a[1].degree)))
              for a in {a for a, _ in prods}}
    for theta_blind in (False, True):
        value = brute_values(st_, StateSpec.character((0, 0)), prods,
                             theta_blind)
        supported = {ab for ab, v in value.items() if v != 0}
        # phi(ab) != rho^{-(d(mu)-d(nu))} phi(ba) for a state with psi(g)
        # != 0 exactly when the trivial character's two sides differ
        scaled = {(a, b): value[b, a] * factor[a] if (b, a) in supported
                  else value[b, a] for a, b in prods}
        unequal = [ab for ab in prods if value[ab] != scaled[ab]]
        for state in (StateSpec.haar(), StateSpec.character((F(1, 4), 0))):
            failing = {tuple(p.literal() for p in a + b): (a, b)
                       for a, b in unequal if state.psi(grades[a, b]) != 0}
            rep = st_.kms_check(state, D, theta_blind=theta_blind)
            if not theta_blind:
                assert rep.passed and not failing
            assert rep.failure_count == len(failing)
            assert rep.total_quadruples == len(prods)
            assert rep.support_size == len(supported)
            assert rep.explicit_checked == len(
                supported | {(b, a) for a, b in supported})
            assert len(rep.failures) == min(len(failing), 20)
            for f in rep.failures:
                ab = failing[f["mu"], f["nu"], f["eta"], f["zeta"]]
                pv = state.psi(grades[ab])
                assert (f["lhs"], f["rhs_scaled"]) == (
                    repr(pv * value[ab]), repr(pv * scaled[ab]))
