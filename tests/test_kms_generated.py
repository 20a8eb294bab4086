"""kms_check against the brute-force oracle on generated graphs.

The graphs are single-vertex 2-graphs with two loops of each color, whose
squares are a drawn bijection of loop pairs; at rank 2 every bijection gives
a 2-graph (Davidson-Yang), periodic or not.  At box (1,1) every
source-matched quadruple goes through AlgebraElement products and phi_apply,
as in test_kms_oracle.py, and kms_check must agree with that walk on the
failure count, on every reported failure and on the size of the support:
honest and theta-blind, for the averaging state and a quarter-turn
character.  The honest check must pass.

On those graphs and on the generators of test_shift_agreement.py, every
basis vector b of Per(Lambda) found at bound 1 obeys the theta laws of
acceptance criterion 04 (bijection, composition, translation), and so do
2b and, at rank >= 2, b + b' for two basis vectors; two quarter-turn
characters give the same state exactly when they agree on that basis
(criterion 11), and the central unitaries pass the identities of
criterion 05 over the box [-1, 1]^k whenever Per(Lambda) != 0.

On the multi-vertex graphs of those generators, the doubled-x mutant of
test_kms_mutants.py passes the identity and fails the one-sided screen
exactly where the proof of the screen says it must (see
test_the_screen_sees_doubled_x).
"""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from kgraphs import builders, degrees as dg
from kgraphs.kms import AlgebraElement, KMSStates, StateSpec
from kgraphs.periodicity import periodicity_group, theta
from kgraphs.perron import MatrixFamily, perron_data
from test_kms_mutants import doubled_x
from test_kms_oracle import brute_values
from test_shift_agreement import GRAPHS

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
            assert all(dg.sub(m.degree, n.degree) == grade
                       for m, n in prods[a, b].terms)
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


def check_theta_laws(g, b):
    """Criterion 04 for the periodic pair (b+, b-)."""
    pos, neg = dg.pos_part(b), dg.neg_part(b)
    th = theta(g, pos, neg)
    inv = th.inverse()
    # a bijection Lambda^{b+} -> Lambda^{b-} keeping both ends
    assert set(th.table) == set(g.paths_of_degree(pos))
    assert set(th.table.values()) == set(g.paths_of_degree(neg))
    for p, q in th.table.items():
        assert inv(q) == p and (q.range, q.source) == (p.range, p.source)
    # composition: 2b+ -> b+ + b- -> 2b- is 2b+ -> 2b-
    top, mid, low = dg.scale(2, pos), dg.add(pos, neg), dg.scale(2, neg)
    th1, th2, th12 = theta(g, top, mid), theta(g, mid, low), theta(g, top, low)
    for p in g.paths_of_degree(top):
        assert th2(th1(p)) == th12(p)
    # translation: prepending a path commutes with the bijection
    ones = (1,) * g.k
    th_up = theta(g, dg.add(pos, ones), dg.add(neg, ones))
    for alpha in g.paths_of_degree(ones):
        for mu in g.paths_of_degree(pos, range=alpha.source):
            assert th_up(g.compose(alpha, mu)) == g.compose(alpha, th(mu))


def check_character_separation(st_, group):
    """Criterion 11: characters za, zb give one state exactly when
    za - zb is an integer on every basis vector of Per(Lambda)."""
    turns = list(itertools.product((F(0), F(1, 4), F(1, 2), F(3, 4)),
                                   repeat=st_.graph.k))
    for za in (turns[0], turns[-1]):
        for zb in turns:
            agree = all(sum((a - c) * x for a, c, x in zip(za, zb, b))
                        .denominator == 1 for b in group.basis)
            assert st_.states_equal(StateSpec.character(za),
                                    StateSpec.character(zb)) == agree


@settings(max_examples=20)
@given(st.one_of(GRAPHS, two_loop_2graphs()))
def test_theta_laws_and_character_separation(g):
    group = periodicity_group(g, bound=1)
    st_ = KMSStates(g, perron_data(MatrixFamily.from_graph(g)), group=group)
    for b in group.basis:
        check_theta_laws(g, b)
        check_theta_laws(g, dg.scale(2, b))
    for b, c in itertools.combinations(group.basis, 2):
        check_theta_laws(g, dg.add(b, c))
    check_character_separation(st_, group)
    if group.basis:
        rep = st_.unitary_identities((1,) * g.k)
        assert rep.passed, [c for c in rep.checks if not c[1]]
        assert len(rep.group_elements) > 1


@settings(max_examples=20)
@given(GRAPHS.filter(lambda g: len(g.vertices) > 1))
# every path of degree (1, 1) of the pullback of the 2-cycle is a loop, so
# there the screen must not fire
@example(builders.make_pullback(builders.c2()))
def test_the_screen_sees_doubled_x(g):
    """Masses built from y = x doubled at v0, the first vertex.  Under the
    averaging state only the pairs (mu, mu) count: the screen compares
    rho^{-d} y_u, u = s(mu), with the masses of the extensions of degree
    (1,..,1), rho^{-d} (B y)_u / rho^{(1,..,1)}, where
    B(u, w) = |u Lambda^{(1,..,1)} w|.  As B x = rho^{(1,..,1)} x, the
    second is rho^{-d} (x_u + B(u, v0) x_v0 / rho^{(1,..,1)}): a violation
    needs u = v0, and then happens exactly when B(v0, v0) <
    rho^{(1,..,1)}, that is when some path of degree (1,..,1) leaves v0
    for another vertex.  Then every box path with source v0 fails.  The
    identity cannot tell y from x and still passes."""
    pd = perron_data(MatrixFamily.from_graph(g))
    group = periodicity_group(g, bound=1)
    box = (1,) * g.k
    honest = KMSStates(g, pd, group=group)
    assert honest.kms_check(StateSpec.haar(), box).passed
    st_ = KMSStates(g, pd, group=group)
    st_.measure.mass_at = doubled_x(st_.measure)
    rep = st_.kms_check(StateSpec.haar(), box)
    v0 = g.vertices[0]
    fires = any(p.source != v0 for p in g.paths_of_degree(box, range=v0))
    at_v0 = [p for n in dg.degrees_below(box) for p in g.paths_of_degree(n)
             if p.source == v0]
    assert rep.failure_count == 0
    assert rep.ck_screen_violations == (len(at_v0) if fires else 0)
    assert rep.passed is not fires
