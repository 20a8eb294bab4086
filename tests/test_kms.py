"""Span-term algebra and the equilibrium-state family."""

import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from kgraphs import builders, cli, degrees as dg
from kgraphs.errors import (CompositionError, EnumerationCapError,
                            InputFormatError, NonConstantRatioError,
                            NotIrreducibleError, NotPeriodicError,
                            NotStronglyConnectedError, SegmentRangeError)
from kgraphs.graphs import KGraph
from kgraphs.kms import (AlgebraElement, KMSStates, StateSpec, _BoxIndex,
                         _scaled, parse_state)
from kgraphs.measure import (agreement_mass, decay_check, find_decay_witness,
                             periodicity_mass_profile)
from kgraphs.periodicity import check_pair, periodicity_group, theta
from kgraphs.perron import MatrixFamily, perron_data
from kgraphs.scalars import QQi
from kms_reference import KeyBox, expand_cells
from test_path_layer import pullbacks, single_vertex_2graphs

F = Fraction


def span(g, mu_lit, nu_lit, coeff=1):
    return AlgebraElement.span(g, g.parse_path(mu_lit),
                               g.parse_path(nu_lit), coeff)


def random_elements(g, seed, count, max_deg=None):
    """Seeded random elements with small exact coefficients."""
    rng = random.Random(seed)
    if max_deg is None:
        max_deg = (1,) * g.k
    paths = [p for n in dg.degrees_below(max_deg)
             for p in g.paths_of_degree(n)]
    out = []
    for _ in range(count):
        elem = AlgebraElement(g)
        for _ in range(rng.randint(1, 3)):
            mu = rng.choice(paths)
            partners = [p for p in paths if p.source == mu.source]
            nu = rng.choice(partners)
            coeff = QQi(F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
            elem = elem + AlgebraElement.span(g, mu, nu, coeff)
        out.append(elem)
    return out


def test_span_needs_common_source(fibg):
    with pytest.raises(InputFormatError):
        AlgebraElement.span(fibg, fibg.parse_path("euu"),
                            fibg.parse_path("euv"))


def test_partial_isometry_relation(b2g):
    e1 = span(b2g, "e1", "e2")
    e2 = span(b2g, "e2", "e1")
    assert (e1 * e2).equals(span(b2g, "e1", "e1"))
    # s*_e2 s_e1 = 0: different edges never share an extension in degree 1
    assert (span(b2g, "v", "e2") * span(b2g, "e1", "v")).is_zero()


def test_vertex_resolution(graphs):
    # p_v = sum over color-i edges at v of s_e s*_e, for every color
    for g in graphs.values():
        for v in g.vertices:
            p = AlgebraElement.span(g, g.vertex_path(v), g.vertex_path(v))
            for color in range(1, g.k + 1):
                total = AlgebraElement(g)
                for e in g.paths_of_degree(dg.unit(g.k, color), range=v):
                    total = total + AlgebraElement.span(g, e, e)
                assert p.equals(total)


def test_identity_element(pb2g):
    one = AlgebraElement.identity(pb2g)
    for a in random_elements(pb2g, 3, 5):
        assert (one * a).equals(a)
        assert (a * one).equals(a)


def test_ring_axioms(pb2g):
    elems = random_elements(pb2g, 17, 12)
    rng = random.Random(5)
    for _ in range(40):
        a, b, c = rng.sample(elems, 3)
        assert ((a * b) * c).equals(a * (b * c))
        assert (a * (b + c)).equals(a * b + a * c)
        assert ((a + b) * c).equals(a * c + b * c)
        assert (a + b).equals(b + a)
        assert (a - a).is_zero()


def test_adjoint_laws(pb2g):
    elems = random_elements(pb2g, 23, 8)
    for a in elems:
        assert a.adjoint().adjoint().equals(a)
    rng = random.Random(9)
    for _ in range(20):
        a, b = rng.sample(elems, 2)
        assert (a * b).adjoint().equals(b.adjoint() * a.adjoint())
        assert (a + b).adjoint().equals(a.adjoint() + b.adjoint())


def test_known_product_pullback(pb2g):
    # s*_b1 s_a1 picks up both commuting squares
    prod = span(pb2g, "v", "b1") * span(pb2g, "a1", "v")
    want = span(pb2g, "a1", "b1") + span(pb2g, "a2", "b2")
    assert prod.equals(want)


def test_scale_and_exactness(b2g):
    a = span(b2g, "e1", "e2")

    def exact(x):
        return all(isinstance(c, QQi) for c in x.terms.values())
    assert exact(a.scale(QQi.of(F(1, 2))))
    assert not exact(a.scale(0.5 + 0j))
    assert (a.scale(2) - a - a).is_zero()


def test_state_specs():
    haar = StateSpec.haar()
    assert haar.is_exact
    assert haar.psi((0, 0)) == QQi.of(1)
    assert haar.psi((1, -1)) == QQi.of(0)
    chi = StateSpec.character((F(1, 4), 0))
    assert chi.is_exact
    assert chi.psi((1, 0)) == QQi.quarter_turn(1)
    assert chi.psi((1, -1)) == QQi.quarter_turn(1)
    rough = StateSpec.character((0.3,))
    assert not rough.is_exact
    assert abs(rough.psi((2,)) - complex(rough.psi((1,))) ** 2) < 1e-12


def test_cached_exactness_keeps_field_equality():
    # is_exact is cached on the instance; == and hash still see fields only
    chi = StateSpec.character((F(1, 4), 0))
    fresh = StateSpec.character((F(1, 4), 0))
    assert chi.is_exact and "is_exact" in vars(chi)
    assert "is_exact" not in vars(fresh)
    assert chi == fresh and hash(chi) == hash(fresh)
    assert len({chi, fresh}) == 1
    assert chi != StateSpec.character((F(1, 2), 0))


def test_state_mixture():
    mix = StateSpec.mixture([(F(1, 2), (F(1, 4), 0)),
                             (F(1, 2), (F(3, 4), 0))])
    # the two quarter turns cancel on odd multiples
    assert mix.psi((1, 0)) == QQi.of(0)
    assert mix.psi((2, 0)) == QQi.of(-1)
    with pytest.raises(InputFormatError):
        StateSpec.mixture([(F(1, 3), (0, 0))])


def test_parse_state():
    assert parse_state("haar").kind == "haar"
    chi = parse_state("z=1/4,0")
    assert chi.kind == "character"
    assert chi.turns == (F(1, 4), F(0))
    assert chi.is_exact
    loose = parse_state("z=0.3")
    assert not loose.is_exact
    with pytest.raises(InputFormatError):
        parse_state("bogus")
    with pytest.raises(InputFormatError):
        parse_state("z=a,b")


def test_phi_values(states, pb2g):
    st = states["pullback-b2"]
    haar = StateSpec.haar()
    chi = StateSpec.character((F(1, 4), 0))
    a1 = pb2g.parse_path("a1")
    b1 = pb2g.parse_path("b1")
    b2 = pb2g.parse_path("b2")
    assert st.phi_eval(haar, a1, a1) == QQi.of(F(1, 2))
    assert st.phi_eval(haar, a1, b1) == QQi.of(0)   # haar kills the phase
    assert st.phi_eval(chi, a1, b1) == QQi(F(0), F(1, 2))
    assert st.phi_eval(chi, a1, b2) == QQi.of(0)    # bijection mismatch
    with pytest.raises(InputFormatError):
        states["fib"].phi_eval(haar, states["fib"].graph.parse_path("euu"),
                               states["fib"].graph.parse_path("euv"))


def test_phi_hermitian(states, pb2g):
    st = states["pullback-b2"]
    chi = StateSpec.character((F(1, 4), F(1, 2)))
    paths = [p for n in dg.degrees_below((1, 1))
             for p in pb2g.paths_of_degree(n)]
    for mu in paths:
        for nu in paths:
            if mu.source != nu.source:
                continue
            fwd = st.phi_eval(chi, mu, nu)
            back = st.phi_eval(chi, nu, mu)
            assert fwd == back.conjugate()


def test_phi_positive_on_squares(states, pb2g):
    st = states["pullback-b2"]
    chi = StateSpec.character((F(1, 4), 0))
    for a in random_elements(pb2g, 31, 20):
        val = st.phi_apply(chi, a.adjoint() * a)
        assert val.im == 0
        assert val.re >= 0


def test_gauge_invariance_of_haar(states, prodg):
    st = states["product-b2-c2"]
    haar = StateSpec.haar()
    paths = [p for n in dg.degrees_below((1, 1))
             for p in prodg.paths_of_degree(n)]
    for mu in paths:
        for nu in paths:
            if mu.source != nu.source or mu.degree == nu.degree:
                continue
            assert st.phi_eval(haar, mu, nu) == QQi.of(0)


def test_unitaries(states, pb2g):
    st = states["pullback-b2"]
    u = st.unitary((1, -1))
    want = span(pb2g, "a1", "b1") + span(pb2g, "a2", "b2")
    assert u.equals(want)
    assert (u * u.adjoint()).equals(AlgebraElement.identity(pb2g))
    chi = StateSpec.character((F(1, 4), 0))
    assert st.phi_apply(chi, u) == QQi.quarter_turn(1)
    assert st.phi_apply(StateSpec.haar(), u) == QQi.of(0)
    with pytest.raises(NotPeriodicError):
        st.unitary((1, 1))


def test_theta_map_refuses_with_one_error(states, pb2g):
    st = states["pullback-b2"]
    law = st.theta_map((2, 1), (1, 2))     # (1, -1) is periodic
    assert law(pb2g.parse_path("a1.a2.b1")).degree == (1, 2)
    for literal in ("a1.a2", "a1.a2.a1.b1"):
        p = pb2g.parse_path(literal)
        with pytest.raises(NotPeriodicError, match=(
                rf"^{p.literal()} is not a degree-\(2, 1\) path")):
            law(p)
    with pytest.raises(NotPeriodicError, match=r"\(1, 0\) is not periodic"):
        st.theta_map((1, 0), (0, 0))


def test_equals_tells_unequal_elements_apart(states, pb2g):
    one = AlgebraElement.identity(pb2g)
    u = states["pullback-b2"].unitary((1, -1))
    assert not u.equals(one) and not one.equals(u)
    s_e, s_f = (AlgebraElement.edge_generator(pb2g, e) for e in ("a1", "a2"))
    assert not s_e.equals(s_f) and s_e.equals(s_e)


def test_a_wrong_bijection_fails_the_unitary_identities(
        monkeypatch, graphs, perron, groups):
    # theta_{(1,0),(0,1)} sends a1 to b1 and a2 to b2; crossing the two
    # images still gives a unitary, but not a central one
    g = graphs["pullback-b2"]
    st = KMSStates(g, perron["pullback-b2"], group=groups["pullback-b2"])
    honest = st.theta_map

    def crossed(m, n):
        law = honest(m, n)
        return lambda p: next((q for q in g.paths_of_degree(n)
                               if q.source == p.source and q != law(p)),
                              law(p))
    monkeypatch.setattr(st, "theta_map", crossed)
    assert repr(st.unitary((1, -1))) == "<1*[a1|b2] + 1*[a2|b1]>"
    rep = st.unitary_identities((1, 1))
    failed = {label for label, ok in rep.checks if not ok}
    assert not rep.passed and "U(1, -1) U(-1, 1) = 1" not in failed
    assert {"U(1, -1) commutes with s[a1]",
            "range projection transport (1, -1) at a1"} <= failed


def test_unitary_identities_reports(states):
    for name in ("pullback-b2", "product-b2-c2"):
        rep = states[name].unitary_identities((2, 2))
        assert rep.passed
        assert all(ok for _, ok in rep.checks)
    # rank-0 fixture: only the trivial element shows up
    rep = states["b2"].unitary_identities((2,))
    assert rep.passed
    assert rep.group_elements == ((0,),)


# U_g and U_g U_g* for each basis vector g, as printed: the term order and
# the term literals are part of what the algebra reports
UNITARY_REPRS = {
    ("pullback-b2", (1, -1)): (
        "<1*[a1|b1] + 1*[a2|b2]>",
        "<1*[a1|a1] + 1*[a2|a2]>"),
    ("product-b2-c2", (0, 2)): (
        "<1*[v:g1.v:g2|v:w1] + 1*[v:g2.v:g1|v:w2]>",
        "<1*[v:g1.v:g2|v:g1.v:g2] + 1*[v:g2.v:g1|v:g2.v:g1]>"),
}


@pytest.mark.parametrize("name", ["pullback-b2", "product-b2-c2"])
def test_unitary_reprs_are_pinned(states, groups, name):
    basis = groups[name].basis
    assert basis
    for b in basis:
        u = states[name].unitary(b)
        assert (repr(u), repr(u * u.adjoint())) == UNITARY_REPRS[name, b]


# (describe(), is_exact, repr(psi((1, -1))), repr(psi((0, 2)))) of the state
# translated by z=1/4,0: exact sums stay exact, and a float rotation
# makes the sum a float
MOVED_STATES = [
    (parse_state("z=3/4,0"), ("z=0,0", True, "1", "1")),
    (parse_state("z=0.3,0"),
     ("z=11/20,0", False, "(-0.9510565162951535-0.30901699437494773j)",
      "(1+0j)")),
    (StateSpec.mixture([(F(1, 2), (F(1, 4), 0)), (F(1, 2), (0, 0.5))]),
     ("mix:1/2@1/2,0;1/2@1/4,0.5", False,
      "(-0.49999999999999994-0.49999999999999994j)",
      "(1-1.2246467991473532e-16j)")),
]


@pytest.mark.parametrize("state, want", MOVED_STATES,
                         ids=["quarter", "rational", "mixture"])
def test_character_action_is_pinned(states, state, want):
    moved = states["pullback-b2"].act_character(parse_state("z=1/4,0"),
                                                state)
    assert (moved.describe(), moved.is_exact, repr(moved.psi((1, -1))),
            repr(moved.psi((0, 2)))) == want


# The state layer as printed: for each state, (describe(), is_exact) and
# repr(psi(v)) at each v of PIN_VECTORS, before and after translation by
# z=1/4,0.  The strings were generated by the code that stored a
# character's rotations apart from a mixture's components.
PIN_VECTORS = [(0, 0), (1, -1), (2, -2), (0, 2), (3, 1)]
PIN_STATES = {
    "haar": StateSpec.haar(),
    "quarter": parse_state("z=1/4,0"),
    "float": parse_state("z=0.3,1/12"),
    "exact-mix": StateSpec.mixture([(F(1, 4), (F(1, 4), 0)),
                                    (F(3, 4), (F(1, 2), F(3, 4)))]),
    "float-mix": StateSpec.mixture([(0.25, (F(1, 4), 0)),
                                    (0.75, (0, F(1, 2)))]),
    "third-mix": StateSpec.mixture([(F(1, 3), (0, 0)),
                                    (F(1, 3), (F(1, 3), 0)),
                                    (F(1, 3), (F(2, 3), 0))]),
}
STATE_PINS = {
    "haar": (
        ("haar", True, "1", "0", "0", "0", "0"),
        ("haar", True, "1", "0", "0", "0", "0")),
    "quarter": (
        ("z=1/4,0", True, "1", "(0+1i)", "-1", "1", "(0+-1i)"),
        ("z=1/2,0", True, "1", "-1", "1", "1", "-1")),
    "float": (
        ("z=3/10,1/12", False, "(1+0j)",
         "(0.20791169081775923+0.9781476007338057j)",
         "(-0.913545457642601+0.40673664307580004j)",
         "(0.5000000000000001+0.8660254037844386j)",
         "(0.9945218953682733-0.1045284632676543j)"),
        ("z=11/20,1/12", False, "(1+0j)",
         "(-0.9781476007338057+0.20791169081775887j)",
         "(0.9135454576426013-0.4067366430757993j)",
         "(0.5000000000000001+0.8660254037844386j)",
         "(-0.10452846326765272-0.9945218953682734j)")),
    "exact-mix": (
        ("mix:1/4@1/4,0;3/4@1/2,3/4", True, "1", "(0+-1/2i)", "-1", "-1/2",
         "(0+1/2i)"),
        ("mix:1/4@1/2,0;3/4@3/4,3/4", True, "1", "1/2", "1", "-1/2",
         "1/2")),
    "float-mix": (
        ("mix:0.25@1/4,0;0.75@0,1/2", False, "(1+0j)",
         "(-0.75+0.24999999999999992j)", "(0.5+2.143131898507868e-16j)",
         "(1-1.8369701987210297e-16j)", "(-0.75-0.24999999999999992j)"),
        ("mix:0.25@1/2,0;0.75@1/4,1/2", False, "(1+0j)",
         "(-0.24999999999999994-0.75j)", "(-0.5-1.5308084989341913e-16j)",
         "(1-1.8369701987210297e-16j)",
         "(-0.24999999999999978+0.7500000000000001j)")),
    "third-mix": (
        ("mix:1/3@0,0;1/3@1/3,0;1/3@2/3,0", False, "(1+0j)",
         "(-5.551115123125783e-17+1.1102230246251565e-16j)",
         "(1.1102230246251565e-16+2.7755575615628914e-16j)", "(1+0j)",
         "(1-2.4492935982947064e-16j)"),
        ("mix:1/3@1/4,0;1/3@7/12,0;1/3@11/12,0", False, "(1+0j)",
         "(-1.1102230246251565e-16-1.6653345369377348e-16j)",
         "(-3.885780586188048e-16-5.551115123125783e-17j)", "(1+0j)",
         "(-1.0207453261683236e-15-1j)")),
}


@pytest.mark.parametrize("name", list(STATE_PINS))
def test_state_layer_is_pinned(states, name):
    def printed(s):
        return (s.describe(), s.is_exact) + tuple(
            repr(s.psi(v)) for v in PIN_VECTORS)
    state = PIN_STATES[name]
    moved = states["pullback-b2"].act_character(parse_state("z=1/4,0"),
                                                state)
    assert (printed(state), printed(moved)) == STATE_PINS[name]


def test_state_equality_and_hash():
    chi = parse_state("z=1/4,0")
    mix = PIN_STATES["exact-mix"]
    same = [
        (chi, StateSpec.character((F(1, 4), 0))),
        (chi, StateSpec.character((F(1, 4), F(0)))),
        (StateSpec.haar(), parse_state("haar")),
        (mix, StateSpec.mixture([(F(1, 4), (F(1, 4), 0)),
                                 (F(3, 4), (F(1, 2), F(3, 4)))])),
    ]
    for a, b in same:
        assert a == b and hash(a) == hash(b)
    differ = [
        (chi, StateSpec.character((F(1, 2), 0))),
        (chi, StateSpec.mixture([(1, (F(1, 4), 0))])),
        (chi, StateSpec.haar()),
        (mix, StateSpec.haar()),
        (mix, StateSpec.mixture([(F(3, 4), (F(1, 2), F(3, 4))),
                                 (F(1, 4), (F(1, 4), 0))])),
    ]
    for a, b in differ:
        assert a != b


@pytest.mark.parametrize("tol", [-1e-9, -1, math.nan, math.inf])
def test_bad_tol_is_refused(states, tol):
    # a negative or NaN tol would fail every float comparison in silence
    st = states["fib"]
    haar = StateSpec.haar()
    with pytest.raises(InputFormatError):
        st.kms_check(haar, (2,), tol=tol)
    with pytest.raises(InputFormatError):
        st.toeplitz_kms_exists(1, (1,), tol=tol)


@pytest.mark.parametrize("make", [
    lambda st: StateSpec.character((math.nan, 0)),
    lambda st: StateSpec.character((math.inf, 0)),
    lambda st: StateSpec.mixture([(math.nan, (0, 0))]),
    lambda st: StateSpec.mixture([(math.inf, (0, 0)), (-math.inf, (0, 0))]),
    lambda st: StateSpec.mixture([(1, (0, math.nan))]),
    lambda st: st.phase_diagram(math.nan),
    lambda st: st.phase_diagram(math.inf),
    lambda st: st.phase_diagram(True),
    lambda st: st.kms_check(StateSpec.haar(), (1, 1), tol=True),
], ids=["rotation-nan", "rotation-inf", "weight-nan", "weight-inf",
        "mixture-rotation-nan", "beta-nan", "beta-inf", "beta-true",
        "tol-true"])
def test_non_finite_numbers_are_refused(states, make):
    # NaN fails every comparison, so a check must ask for what is valid;
    # a bool is no number, though phase_diagram(True) and tol=True once ran
    with pytest.raises(InputFormatError):
        make(states["pullback-b2"])


def test_negative_degree_box_is_refused(states):
    # a box is a degree in N^k, as for paths_of_degree, or an int D >= 0
    # for (D, ..., D): a float or bool entry was once truncated to an int,
    # so (1.7, True) ran and passed the box (1, 1)
    st = states["pullback-b2"]
    for bad in (-1, (-1, 0), (1,), (1.7, True), True, (1.5, 1), ("1", 1),
                [1, 1]):
        with pytest.raises(InputFormatError):
            st.kms_check(StateSpec.haar(), bad)
        with pytest.raises(InputFormatError):
            st.unitary_identities(bad)
    # the same rule holds for every degree argument: these once answered,
    # reading a rank-1 degree, a negative one or a float one
    g, cm = st.graph, st.measure
    for call in (lambda: g.factorize(g.parse_path("a1.b1"), (1,)),
                 lambda: cm.mass_at((-1, 0), "v"),
                 lambda: cm.mass_at((1.5, 0), "v"),
                 lambda: cm.mass(builders.FIXTURES["b2"]().parse_path("e1"))):
        with pytest.raises(InputFormatError):
            call()


# v <- x <- y: a valid graph, with a source y and a sink v, that is not
# strongly connected
CHAIN = builders.one_graph(["v", "x", "y"], [("e", "v", "x"), ("f", "x", "y")])
ONE = MatrixFamily(("v",), (((1,),),))
SPLIT = "operation requires a strongly connected graph"


@pytest.mark.parametrize("call, error, message", [
    (lambda f: KMSStates(CHAIN, None), NotStronglyConnectedError, SPLIT),
    (lambda f: check_pair(CHAIN, (1,), (0,)), NotStronglyConnectedError,
     SPLIT),
    (lambda f: periodicity_group(CHAIN, 1), NotStronglyConnectedError, SPLIT),
    (lambda f: AlgebraElement.identity(CHAIN).is_zero(),
     NotStronglyConnectedError, SPLIT),
    (lambda f: MatrixFamily(("v",), ()), InputFormatError,
     "family needs at least one matrix"),
    (lambda f: MatrixFamily(("v",), (((1, 1),),)), InputFormatError,
     "matrix shape does not match 1 labels"),
    (lambda f: MatrixFamily(("v",), (((-1,),),)), InputFormatError,
     "matrix entries must be nonnegative"),
    (lambda f: ONE.power((-1,)), InputFormatError,
     "exponent (-1,) is not in N^1"),
    (lambda f: perron_data(MatrixFamily(("u", "w"), (((1, 1), (0, 1)),))),
     NotIrreducibleError, "no box sum of powers is entrywise positive within "
     "the bound, or a coordinate matrix is zero; family is not irreducible"),
    (lambda f: find_decay_witness(f["measures"]["b2"], (0,)), InputFormatError,
     "witness search needs a nonzero difference"),
    (lambda f: StateSpec.mixture([]), InputFormatError,
     "a mixture needs at least one component"),
    (lambda f: parse_state("z=1/4,"), InputFormatError,
     "empty rotation in 'z=1/4,'"),
    (lambda f: f["states"]["b2"].act_character(StateSpec.haar(),
                                                StateSpec.haar()),
     InputFormatError, "the acting element must be a character"),
    (lambda f: KMSStates(f["graphs"]["pullback-b2"],
                         f["perron"]["pullback-b2"]).simplex_descriptor(),
     InputFormatError, "simplex description needs a computed periodicity "
     "group"),
    (lambda f: KMSStates(f["graphs"]["pullback-b2"],
                         f["perron"]["pullback-b2"]).phase_diagram(1),
     InputFormatError, "phase count at beta = 1 needs a computed periodicity "
     "group"),
    (lambda f: KMSStates(f["graphs"]["pullback-b2"], f["perron"][
        "pullback-b2"]).states_equal(StateSpec.haar(), StateSpec.haar()),
     InputFormatError, "state comparison needs a computed periodicity group"),
    (lambda f: periodicity_group(f["graphs"]["b2"], -1), InputFormatError,
     "periodicity search bound -1 is negative"),
    (lambda f: builders.make_single_vertex(27, [1] * 27), InputFormatError,
     "ranks above 26 exceed the naming scheme"),
    (lambda f: builders.make_product(f["graphs"]["pullback-b2"],
                                     builders.c2()),
     InputFormatError, "product construction expects rank-1 graphs"),
    (lambda f: dg.unit(2, 3), InputFormatError, "color 3 outside 1..2"),
    (lambda f: f["graphs"]["b2"].edge("zz"), CompositionError,
     "edge id 'zz' not in this graph"),
    (lambda f: f["graphs"]["b2"].vertex_path("zz"), InputFormatError,
     "unknown vertex 'zz'"),
    (lambda f: f["graphs"]["b2"].path_from_edges([]), InputFormatError,
     "empty edge sequence has no endpoints; use vertex_path"),
    (lambda f: f["graphs"]["fib"].path_from_edges(["euu", "evu"]),
     CompositionError, "edges 'euu' and 'evu' are not composable"),
    (lambda f: f["graphs"]["pullback-b2"].factorize(
        f["graphs"]["pullback-b2"].parse_path("a1"), (2, 0)),
     SegmentRangeError, "degree (2, 0) not between 0 and (1, 0)"),
    (lambda f: AlgebraElement.identity(f["graphs"]["b2"])
     + AlgebraElement.identity(f["graphs"]["fib"]), InputFormatError,
     "cannot combine elements over different graphs"),
    (lambda f: f["states"]["pullback-b2"].act_character(
        StateSpec.character((F(1, 4),)), StateSpec.character((0, 0))),
     InputFormatError, "character dimension mismatch"),
    (lambda f: periodicity_mass_profile(f["measures"]["b2"], (-1,), (0,), 1),
     InputFormatError, "shift degree (-1,) is not in N^1"),
    (lambda f: agreement_mass(f["measures"]["fib"], *map(
        f["graphs"]["fib"].parse_path, ("euu", "euv")), 1),
     InputFormatError, "mu and nu must share a source vertex"),
    (lambda f: decay_check(f["measures"]["fib"], None, *map(
        f["graphs"]["fib"].parse_path, ("euu", "euv")), 1),
     InputFormatError, "mu and nu must share a source vertex"),
    (lambda f: theta(f["graphs"]["pullback-b2"], (1, 0), (0, 1))(
        f["graphs"]["pullback-b2"].parse_path("b1")), NotPeriodicError,
     "b1 is not a degree-(1, 0) path of this graph"),
    (lambda f: cli.jsonable(object()), TypeError,
     "object is not JSON serializable"),
    (lambda f: perron_data(MatrixFamily(("u", "w"), (((1, 1), (1, 1)),
                                                    ((2, 1), (1, 1))))),
     NonConstantRatioError, "Rayleigh ratios for matrix 1 vary by 2.209e-01; "
     "family is not irreducible-with-eigenvector as claimed"),
    (lambda f: f["states"]["pullback-b2"].unitary((1, 1)), NotPeriodicError,
     "shifts by (1, 1) and (0, 0) disagree; (1, 1) is not periodic"),
    (lambda f: f["graphs"]["b2"].parse_path(None), InputFormatError,
     "path literal None is not a string"),
    (lambda f: parse_state(None), InputFormatError,
     "state literal None is not a string"),
], ids=["states", "check_pair", "periodicity_group", "is_zero", "no-matrix",
        "shape", "negative-entry", "power", "reducible", "decay-witness",
        "empty-mixture", "empty-rotation", "act-haar", "simplex", "phase",
        "states-equal", "negative-bound", "rank-27", "product-rank-2",
        "unit-color", "edge-id", "vertex-id", "empty-edges", "not-composable",
        "factorize-past-degree", "two-graphs", "character-length",
        "profile-negative-degree", "agreement-sources", "decay-sources",
        "theta-table", "jsonable", "non-commuting", "unitary",
        "parse-path-none", "parse-state-none"])
def test_refusals(graphs, perron, measures, states, call, error, message):
    fixtures = {"graphs": graphs, "perron": perron, "measures": measures,
                "states": states}
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call(fixtures)


def test_zero_element_repr(graphs):
    one = AlgebraElement.identity(graphs["b2"])
    assert repr(AlgebraElement(graphs["b2"])) == "<0>"
    assert repr(one - one) == "<0>"


def test_kms_check_fib_float(states):
    st = states["fib"]
    rep = st.kms_check(StateSpec.haar(), (2,))
    assert rep.passed and not rep.exact
    assert rep.max_deviation < 1e-12
    assert rep.failure_count == 0


def test_kms_check_blind_fails_everywhere(states):
    for name in ("b2", "fib"):
        rep = states[name].kms_check(StateSpec.haar(), (2,),
                                     theta_blind=True)
        assert not rep.passed
        assert rep.failure_count > 0
        assert rep.failures   # details surfaced for debugging


def test_act_character(states):
    st = states["pullback-b2"]
    chi = StateSpec.character((F(1, 4), F(1, 4)))
    moved = st.act_character(chi, StateSpec.character((F(1, 4), 0)))
    assert moved.turns == (F(1, 2), F(1, 4))
    assert st.act_character(chi, StateSpec.haar()).kind == "haar"


def test_states_equal(states):
    pb2 = states["pullback-b2"]
    a = StateSpec.character((F(1, 4), 0))
    b = StateSpec.character((0, F(3, 4)))   # same value on (1, -1)
    c = StateSpec.character((F(1, 2), 0))
    assert pb2.states_equal(a, b)
    assert not pb2.states_equal(a, c)
    assert not pb2.states_equal(a, StateSpec.haar())
    # rank 0: every gauge-invariant state collapses to the same one
    b2 = states["b2"]
    assert b2.states_equal(StateSpec.character((F(1, 4),)),
                           StateSpec.haar())


def squares_fixed_3graph():
    """One vertex, two loops of each of three colors, and the squares that
    map each color pair (s, t) to (s, t); Per has basis (1, 0, -1),
    (0, 1, -1) at bound 1."""
    squares = {pair: {(s, t): (s, t) for s in (1, 2) for t in (1, 2)}
               for pair in ((1, 2), (1, 3), (2, 3))}
    g = builders.make_single_vertex(3, [2, 2, 2], squares)
    return KMSStates(g, perron_data(MatrixFamily.from_graph(g)),
                     group=periodicity_group(g, 1))


def test_states_equal_tells_mixtures_apart(graphs, perron):
    # each pair agrees on the multiples t b of each basis vector b with
    # |t| <= search_bound, yet differs at a point of the group
    g = graphs["pullback-b2"]
    st = KMSStates(g, perron["pullback-b2"], group=periodicity_group(g, 2))
    thirds = StateSpec.mixture([(F(1, 3), (0, 0)), (F(1, 3), (F(1, 3), 0)),
                                (F(1, 3), (F(2, 3), 0))])
    haar = StateSpec.haar()
    assert abs(thirds.psi((3, -3)) - 1) < 1e-12 and haar.psi((3, -3)) == 0
    assert not st.states_equal(thirds, haar)
    assert not st.states_equal(haar, thirds)
    assert st.states_equal(haar, haar) and st.states_equal(thirds, thirds)
    with pytest.raises(InputFormatError):
        st.states_equal(haar, StateSpec.character((F(1, 4),)))

    st3 = squares_fixed_3graph()
    assert st3.group.basis == ((1, 0, -1), (0, 1, -1))
    half = F(1, 2)
    a = StateSpec.mixture([(half, (0, 0, 0)), (half, (half, half, 0))])
    b = StateSpec.mixture([(half, (0, half, 0)), (half, (half, 0, 0))])
    assert (a.psi((1, -1, 0)), b.psi((1, -1, 0))) == (1, -1)
    assert not st3.states_equal(a, b)
    # the same two atoms in the other order are the same state
    assert st3.states_equal(a, StateSpec.mixture(reversed(a.components)))


def test_states_equal_respects_the_cap():
    # 2 + 2 atoms on a rank-2 group take 4^2 = 16 points
    st = squares_fixed_3graph()
    mix = StateSpec.mixture([(F(1, 2), (0, 0, 0)), (F(1, 2), (0, 0, F(1, 2)))])
    st.graph.cap = 16
    assert st.states_equal(mix, mix)
    st.graph.cap = 15
    with pytest.raises(EnumerationCapError):
        st.states_equal(mix, mix)


def test_mixture_components_share_their_length():
    with pytest.raises(InputFormatError):
        StateSpec.mixture([(F(1, 2), (0,)), (F(1, 2), (0, 0))])


def test_toeplitz_existence(states):
    st = states["b2"]
    rep = st.toeplitz_kms_exists(1, (math.log(2),))
    assert rep.exists and rep.factors_through_quotient
    rep = st.toeplitz_kms_exists(0.5, (math.log(2),))
    assert not rep.exists
    prod = states["product-b2-c2"]
    rep = prod.toeplitz_kms_exists(2, (math.log(2), 0))
    assert rep.exists and not rep.factors_through_quotient


def test_phase_diagram(states):
    pb2 = states["pullback-b2"]
    assert pb2.phase_diagram(3).extreme_points == 1
    assert pb2.phase_diagram(1).extreme_points == "infinite"
    assert pb2.phase_diagram(F(1, 2)).extreme_points == 0
    prod = states["product-b2-c2"]
    rep = prod.phase_diagram(2)
    assert not rep.applicable
    assert "color(s) 2" in rep.reason


def test_simplex_descriptor(states):
    d = states["pullback-b2"].simplex_descriptor()
    assert d["rank"] == 1 and not d["unique"]
    d0 = states["b2"].simplex_descriptor()
    assert d0["rank"] == 0 and d0["unique"]


def test_cold_check_computes_each_rho_power_once(graphs, perron, groups,
                                                 monkeypatch):
    g = graphs["pullback-b2"]
    st = KMSStates(g, perron["pullback-b2"], group=groups["pullback-b2"])
    calls = []
    rho_power = dg.rho_power

    def counted(rho, m):
        calls.append(m)
        return rho_power(rho, m)

    monkeypatch.setattr(dg, "rho_power", counted)
    D = (2, 1)
    rep = st.kms_check(StateSpec.haar(), D, theta_blind=True)
    assert rep.failure_count > 0
    # one power per cylinder mass (degree in [0, 2D], one per source), one
    # per degree difference gamma in [-D, D], one per reported failure
    masses = len(dg.box(dg.zero(g.k), dg.scale(2, D))) * len(g.vertices)
    gammas = len(dg.box(dg.neg(D), D))
    assert len(calls) <= masses + gammas + len(rep.failures) < 200


@pytest.mark.parametrize("name, D", [("pullback-b2", (2, 2)),
                                     ("product-b2-c2", (2, 2)),
                                     ("fib", (3,))])
def test_blind_cold_check_builds_no_path(graphs, perron, groups, monkeypatch,
                                         name, D):
    # the support walks by edge tuples, and the screen's bounds are closed
    # form: mu.lam and nu.lam share an extension exactly when nu = theta(mu)
    def refuse(*args, **kw):
        raise AssertionError("a cold theta-blind check built a path")

    for method in ("compose", "extensions"):
        monkeypatch.setattr(KGraph, method, refuse)
    st = KMSStates(graphs[name], perron[name], group=groups[name])
    rep = st.kms_check(StateSpec.haar(), D, theta_blind=True)
    assert rep.failure_count > 0 and rep.ck_screen_pairs > 0


@pytest.mark.parametrize("name", ["pullback-b2", "product-b2-c2"])
def test_cached_masses_match_the_formula(graphs, perron, measures, name):
    g, pd, cm = graphs[name], perron[name], measures[name]
    x = dict(zip(pd.labels, pd.x_values()))
    for _ in range(2):      # the second pass reads the cache
        for n in dg.box((0, 0), (2, 2)):
            for p in g.paths_of_degree(n):
                want = x[p.source]
                for r, d in zip(pd.rho_values(), p.degree):
                    want /= r ** d
                assert cm.mass(p) == want
                assert cm.mass_at(p.degree, p.source) == want


def test_support_is_capped(perron, groups, states):
    g = builders.FIXTURES["pullback-b2"]()
    g.cap = 100_000
    capped = KMSStates(g, perron["pullback-b2"], group=groups["pullback-b2"])
    # the theta-blind support at (2,2) has 228,093 keys
    with pytest.raises(EnumerationCapError):
        capped.kms_check(StateSpec.haar(), (2, 2), theta_blind=True)
    # the honest one has 25,153 and is unaffected by the cap
    rep = capped.kms_check(StateSpec.haar(), (2, 2))
    assert rep.support_size == 25_153
    assert rep == states["pullback-b2"].kms_check(StateSpec.haar(), (2, 2))


def test_the_support_walk_stops_past_the_cap(monkeypatch, perron, groups):
    # the honest b2 support at box (2,) has 93 keys, a cell each: past cap
    # 50 the walk stops at the path w whose cells pass it, not at the end
    g = builders.FIXTURES["b2"]()
    st = KMSStates(g, perron["b2"], group=groups["b2"])
    visited = []

    class Counted(list):
        def __iter__(self):
            for row in list.__iter__(self):
                visited.append(row)
                yield row
    init = _BoxIndex.__init__

    def counted(box, graph, D):
        init(box, graph, D)
        box.facs = Counted(box.facs)
    monkeypatch.setattr(_BoxIndex, "__init__", counted)
    g.cap = 50
    with pytest.raises(EnumerationCapError,
                       match="^KMS support exceeds cap 50 keys$"):
        st.kms_check(StateSpec.haar(), (2,))
    assert 0 < len(visited) < 7     # b2 has 1 + 2 + 4 paths in the box


def test_cached_sweep_table_retains_little(graphs, perron, groups):
    # each of the 14,033 supported keys maps to one mass while the table is
    # built, but the cached table keeps only the profiles and their samples
    g = graphs["pullback-b2"]
    st = KMSStates(g, perron["pullback-b2"], group=groups["pullback-b2"])
    D = (2, 1)
    st.kms_check(StateSpec.haar(), D)   # fills the periodicity caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = st.kms_check(StateSpec.haar(), D, theta_blind=True)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rep.support_size == 14_033 and rep.failure_count > 0
    assert retained < 2 ** 20


def test_cached_sweep_tables_hold_no_box_index(graphs, perron, groups):
    # the fold reads the box's paths and its number of source-matched pairs,
    # so a cached table lets the box and its factorization tables go
    st = KMSStates(graphs["pullback-b2"], perron["pullback-b2"],
                   group=groups["pullback-b2"])
    for theta_blind in (False, True):
        st.kms_check(StateSpec.haar(), (2, 1), theta_blind=theta_blind)
    assert len(st._sweep_cache) == 2
    for table in st._sweep_cache.values():
        assert not any(isinstance(v, _BoxIndex) for v in table.values())


def old_support_contributions(st, box, theta_blind, scale):
    """A test-only reference for KMSStates._support_contributions that
    walks mu by mu over box.by_source, extends each (mu, alpha) on its own
    and resolves each plan entry to (zeta, beta'), skipping it when beta'
    is not beta."""
    g = st.graph
    n = len(box.paths)
    contributions = {}
    extended = {}   # mu * n + alpha -> (d(p), scaled mass, p)
    plans = {}      # degrees -> the periodic g over d(zeta), or the zetas
    resolved = {}   # (mu, alpha, d(q), d(zeta)) -> q = zeta.beta'

    def extension(mu, alpha):
        hit = extended.get(mu * n + alpha)
        if hit is None:
            dp = dg.add(box.degree[mu], box.degree[alpha])
            mass = _scaled(st.measure.mass_at(dp, box.source[alpha]), scale)
            p = None if theta_blind else g.compose(box.paths[mu],
                                                   box.paths[alpha])
            hit = extended[mu * n + alpha] = (dp, mass, p)
        return hit

    def honest(base, mu, beta, alpha):
        dp, mass, p = extension(mu, alpha)
        dbeta = box.degree[beta]
        plan = plans.get((dp, dbeta))
        if plan is None:
            plan = plans[dp, dbeta] = []
            for nzeta in box.degrees:
                nprime = dg.add(nzeta, dbeta)
                gvec = dg.sub(dp, nprime)
                if st.periodic(gvec):
                    plan.append((gvec, nprime, nzeta))
        for gvec, nprime, nzeta in plan:
            hit = resolved.get((mu, alpha, nprime, nzeta))
            if hit is None:
                q = st.theta_map(dp, nprime)(p) if any(gvec) else p
                hit = resolved[mu, alpha, nprime, nzeta] = box.indices(
                    g.factorize(q, nzeta))
            zeta, beta_q = hit
            if beta_q != beta:
                continue
            key = base + zeta
            contributions[key] = contributions.get(key, 0) + mass

    def blind(base, mu, eta, beta, alpha):
        dp, mass, _ = extension(mu, alpha)
        dbeta = box.degree[beta]
        source = box.source[eta]
        plan = plans.get((dp, dbeta, source))
        if plan is None:
            plan = plans[dp, dbeta, source] = [
                zeta for nzeta in box.degrees
                if st.periodic(dg.sub(dp, dg.add(nzeta, dbeta)))
                for zeta in box.classes[source].get(nzeta, ())]
        for zeta in plan:
            key = base + zeta
            contributions[key] = contributions.get(key, 0) + mass

    splits_of = {}
    for w in box.paths:
        u = w.degree
        hit = splits_of.get(u)
        if hit is None:
            splits = dg.box(dg.zero(g.k), u)
            pairs = [(j1, j2) for j2, m2 in enumerate(splits)
                     for j1, m1 in enumerate(splits)
                     if dg.join(m1, m2) == u]
            hit = splits_of[u] = (splits, pairs)
        splits, pairs = hit
        facs = [box.indices(g.factorize(w, m)) for m in splits]
        for j1, j2 in pairs:
            eta, beta = facs[j2]
            nu, alpha = facs[j1]
            for mu in box.by_source[box.source[nu]]:
                base = ((mu * n + nu) * n + eta) * n
                if theta_blind:
                    blind(base, mu, eta, beta, alpha)
                else:
                    honest(base, mu, beta, alpha)
        if len(contributions) > g.cap:
            raise EnumerationCapError(
                f"KMS support exceeds cap {g.cap} keys")
    return contributions


def reference_sweep(st, D, theta_blind):
    """The sweep as a slow per-key loop: each key of the support and each
    swap is visited on its own, its paths and grade read from the box, and
    its difference taken unscaled, as a Fraction when the data is exact.
    The support comes from the reference walk."""
    S, _ = st._scales(D)
    box = KeyBox(st.graph, D)
    contributions = old_support_contributions(st, box, theta_blind, S)
    unit = F(1, S)
    nn = len(box.paths) ** 2

    def swap(key):
        high, low = divmod(key, nn)
        return low * nn + high

    profiles, seen = {}, set()
    for base in contributions:
        for key in (base, swap(base)):
            if key in seen:
                continue
            seen.add(key)
            left = contributions.get(key, 0)
            right = contributions.get(swap(key), 0)
            mu, nu, eta, zeta = box.paths_of(key)
            gamma = dg.sub(mu.degree, nu.degree)
            diff = left * unit - (dg.rho_power(st.measure.rho, dg.neg(gamma))
                                  * (right * unit))
            if diff == 0:
                continue
            grade = dg.add(gamma, dg.sub(eta.degree, zeta.degree))
            bucket = profiles.setdefault((grade, diff), [0, []])
            bucket[0] += 1
            if len(bucket[1]) < 20:
                bucket[1].append((key, left, right))
    return profiles, len(seen), len(contributions)


@pytest.mark.parametrize("name, D", [("b2", (2,)), ("fib", (2,)),
                                     ("pullback-b2", (2, 1)),
                                     ("product-b2-c2", (1, 1))])
@pytest.mark.parametrize("theta_blind", [False, True])
def test_sweep_matches_per_key_reference(graphs, perron, groups, name, D,
                                         theta_blind):
    st = KMSStates(graphs[name], perron[name], group=groups[name])
    table = st._sweep_table(D, theta_blind)
    profiles, checked, support = reference_sweep(st, D, theta_blind)
    assert list(table["profiles"]) == list(profiles)
    assert list(table["profiles"].values()) == list(profiles.values())
    assert (table["checked"], table["support"]) == (checked, support)
    if theta_blind:
        assert profiles


def check_walk(st, D, theta_blind):
    """The support walk against the reference: its cells, key by key, are
    the same keys with the same masses, inserted in the same order."""
    S, _ = st._scales(D)
    box = _BoxIndex(st.graph, D)
    cells, size = st._support_contributions(box, theta_blind, S)
    new = expand_cells(box, cells, theta_blind)
    old = old_support_contributions(st, KeyBox(st.graph, D), theta_blind, S)
    assert list(new.items()) == list(old.items())
    assert size == len(old)
    return new


@pytest.mark.parametrize("name, D, theta_blind", [
    *[(name, (3,) if name in ("b2", "fib") else (2, 1), blind)
      for name in ("b2", "fib", "pullback-b2", "product-b2-c2")
      for blind in (False, True)],
    ("pullback-b2", (2, 2), False), ("product-b2-c2", (2, 2), False)])
def test_support_walk_matches_reference(graphs, perron, groups, name, D,
                                        theta_blind):
    st = KMSStates(graphs[name], perron[name], group=groups[name])
    assert check_walk(st, D, theta_blind)


@settings(max_examples=8)
@given(hst.one_of(single_vertex_2graphs(), pullbacks))
def test_support_walk_matches_reference_generated(g):
    st = KMSStates(g, perron_data(MatrixFamily.from_graph(g)),
                   group=periodicity_group(g, bound=2))
    for D in ((1, 1), (2, 1)):
        for theta_blind in (False, True):
            check_walk(st, D, theta_blind)
