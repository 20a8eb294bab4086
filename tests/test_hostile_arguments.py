"""Hostile arguments at the library boundary.

Each case below is one argument of a public function or method of graphs,
measure, periodicity, perron or kms.  The call gets small valid values for
its other arguments (box and witness degree (1, .., 1), level, bound and
counts 1) on one of eight graphs, the four fixtures and the four of
BUILT, and a hostile draw for that one:

- a degree, difference, number, count, tolerance or coefficient argument: a
  tuple of the wrong length, a tuple of the right length with a negative or
  a float entry, a list of the right length (unhashable: a cache lookup
  must pass it on to its guard), True or False, a negative number, NaN or
  an infinity, a string or None;
- a path argument: a path of another of the eight graphs;
- a source vertex argument: an unhashable list holding a vertex, or the
  source of a path of another of the eight graphs;
- a state argument: a state with the wrong number of rotations.

The call must return or raise a KGraphError subclass, never another
exception.  Hypothesis draws the graph and the value; a deterministic pass
then runs every case on every graph with every entry of a fixed pool (see
fixed_pool), so no (case, graph, entry) is left to the draw.

Left out, with the reason:

- arguments of none of these kinds: edge and vertex ids, the edge-id list
  of path_from_edges, graph documents (from_json, from_json_dict), the
  matrices and families that perron's functions take (MatrixFamily,
  mat_vec, mat_mul, identity, power_iteration, find_positive_F,
  perron_data), the (mu, nu) keys of AlgebraElement's terms, decay
  witnesses, the oracle of spectral_radius_power_check and flags such as
  theta_blind;
- KGraph.split_strip and periodicity.hnf_basis: inner-loop helpers whose
  arguments come from their callers' own factorizations and search, so
  they check nothing.
"""

import math
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from kgraphs import builders, degrees as dg
from kgraphs.errors import InputFormatError, KGraphError
from kgraphs.kms import AlgebraElement, KMSStates, StateSpec, parse_state
from kgraphs.measure import (CylinderMeasure, DecayWitness, agreement_mass,
                             consistency_check, decay_check,
                             find_decay_witness, periodicity_mass_profile)
from kgraphs.periodicity import (check_pair, decide_periodic,
                                 periodicity_group, theta)
from kgraphs.perron import (MatrixFamily, perron_data,
                            spectral_radius_power_check, verify_subinvariance)
from test_kms_cells import THREE_BY_TWO

NUMBER, PATH, SOURCE, STATE, LITERAL = ("number", "path", "source", "state",
                                         "literal")


def hostile_numbers(k):
    """Malformed degrees, differences, numbers, counts and tolerances."""
    ints = st.integers(-2, 2)
    return st.one_of(
        st.lists(ints, max_size=k + 2).filter(lambda v: len(v) != k)
        .map(tuple),
        st.lists(ints, min_size=k, max_size=k).filter(lambda v: min(v) < 0)
        .map(tuple),
        st.lists(ints, min_size=k, max_size=k),
        st.lists(st.one_of(ints, st.floats()), min_size=k, max_size=k)
        .filter(lambda v: float in map(type, v)).map(tuple),
        st.sampled_from([True, False, -1, -0.5, math.nan, math.inf,
                         -math.inf, None]),
        st.integers(max_value=-1),
        st.text(max_size=3))


# built the same on every run, so the derandomized draws are too
BUILT = {
    # one vertex, squares that are not the flip (test_kms_cells)
    "three-by-two": lambda: builders.make_single_vertex(2, [3, 2],
                                                        THREE_BY_TWO),
    # one vertex with loops of two colours, flip squares
    "loops-2-3": lambda: builders.make_single_vertex(2, [2, 3]),
    # the pullback of the two-vertex cycle: rho = (1, 1), and its
    # periodicity group has rank 2
    "pullback-c2": lambda: builders.make_pullback(builders.c2()),
    # a product with four vertices and irrational Perron data
    "product-fib-c2": lambda: builders.make_product(builders.fib(),
                                                    builders.c2()),
}


def wrong_states(k):
    """Characters and mixtures with k + 1 rotations, and with k - 1."""
    return [make(turns) for n in (k + 1, k - 1) for turns in [(F(1, 4),) * n]
            for make in (StateSpec.character,
                         lambda ts: StateSpec.mixture([(1, ts)]))]


@pytest.fixture(scope="module")
def envs(graphs, perron, groups):
    """Per graph: its objects, valid defaults and foreign paths."""
    built = {name: build() for name, build in BUILT.items()}
    graphs = {**graphs, **built}
    perron = {**perron, **{name: perron_data(MatrixFamily.from_graph(g))
                           for name, g in built.items()}}
    groups = {**groups, **{name: periodicity_group(g, bound=2)
                           for name, g in built.items()}}
    out = {}
    for name, g in graphs.items():
        k, pd = g.k, perron[name]
        mu = g.paths_of_degree(dg.unit(k, 1))[0]
        nu = g.vertex_path(mu.source)
        zero, ones = dg.zero(k), (1,) * k
        out[name] = SimpleNamespace(
            g=g, k=k, pd=pd, fam=MatrixFamily.from_graph(g),
            cm=CylinderMeasure(g, pd), group=groups[name],
            states=KMSStates(g, pd, group=groups[name]),
            mu=mu, nu=nu, zero=zero, ones=ones,
            witness=DecayWitness(g=dg.sub(mu.degree, nu.degree), a=ones,
                                 tails={}, K=F(1, 2)),
            identity=theta(g, zero, zero),
            haar=StateSpec.haar(),
            chi=StateSpec.character((F(1, 4),) * k),
            rough=StateSpec.character((0.3,) * k),
            mix=StateSpec.mixture([(F(1, 2), (0,) * k),
                                   (F(1, 2), (F(1, 2),) * k)]),
            foreign=[p for other, h in graphs.items() if other != name
                     for p in (h.vertex_path(h.vertices[-1]),
                               *h.paths_of_degree(dg.unit(h.k, h.k))[:2],
                               h.paths_of_degree((1,) * h.k)[0])],
            wrong=wrong_states(k))
    return out


CASES = {
    # graphs
    "factorize-path": (PATH, lambda e, x: e.g.factorize(x, e.zero)),
    "factorize-m": (NUMBER, lambda e, x: e.g.factorize(e.mu, x)),
    "segment-path": (PATH, lambda e, x: e.g.segment(x, e.zero, e.zero)),
    "segment-m": (NUMBER, lambda e, x: e.g.segment(e.mu, x, e.mu.degree)),
    "segment-n": (NUMBER, lambda e, x: e.g.segment(e.mu, e.zero, x)),
    "compose-mu": (PATH, lambda e, x: e.g.compose(x, e.nu)),
    "compose-nu": (PATH, lambda e, x: e.g.compose(e.mu, x)),
    "count_paths": (NUMBER, lambda e, x: e.g.count_paths(x)),
    "paths_of_degree": (NUMBER, lambda e, x: e.g.paths_of_degree(x)),
    "edges_into-color": (NUMBER,
                         lambda e, x: e.g.edges_into(x, e.mu.range)),
    "extensions-path": (PATH, lambda e, x: e.g.extensions(x, e.ones)),
    "extensions-degree": (NUMBER, lambda e, x: e.g.extensions(e.mu, x)),
    "lambda_min-mu": (PATH, lambda e, x: e.g.lambda_min(x, e.mu)),
    "lambda_min-nu": (PATH, lambda e, x: e.g.lambda_min(e.mu, x)),
    "parse_path": (LITERAL, lambda e, x: e.g.parse_path(x)),
    # measure
    "mass": (PATH, lambda e, x: e.cm.mass(x)),
    "mass_at-degree": (NUMBER, lambda e, x: e.cm.mass_at(x, e.mu.source)),
    "mass_at-source": (SOURCE, lambda e, x: e.cm.mass_at(e.zero, x)),
    "total_mass": (NUMBER, lambda e, x: e.cm.total_mass(x)),
    "consistency-m": (NUMBER,
                      lambda e, x: consistency_check(e.cm, x, e.ones)),
    "consistency-n": (NUMBER,
                      lambda e, x: consistency_check(e.cm, e.zero, x)),
    "consistency-tol": (NUMBER, lambda e, x: consistency_check(
        e.cm, e.zero, e.ones, tol=x)),
    "profile-m": (NUMBER, lambda e, x: periodicity_mass_profile(
        e.cm, x, e.zero, 1)),
    "profile-n": (NUMBER, lambda e, x: periodicity_mass_profile(
        e.cm, e.zero, x, 1)),
    "profile-level": (NUMBER, lambda e, x: periodicity_mass_profile(
        e.cm, e.zero, e.zero, x)),
    "agreement-mu": (PATH, lambda e, x: agreement_mass(e.cm, x, e.nu, 1)),
    "agreement-nu": (PATH, lambda e, x: agreement_mass(e.cm, e.mu, x, 1)),
    "agreement-level": (NUMBER,
                        lambda e, x: agreement_mass(e.cm, e.mu, e.nu, x)),
    "witness-g": (NUMBER, lambda e, x: find_decay_witness(e.cm, x, 1)),
    "witness-a_max": (NUMBER, lambda e, x: find_decay_witness(
        e.cm, e.witness.g, x)),
    "decay-mu": (PATH, lambda e, x: decay_check(e.cm, e.witness, x, e.nu,
                                                1)),
    "decay-nu": (PATH, lambda e, x: decay_check(e.cm, e.witness, e.mu, x,
                                                1)),
    "decay-j_max": (NUMBER, lambda e, x: decay_check(e.cm, e.witness, e.mu,
                                                     e.nu, x)),
    # periodicity
    "check_pair-m": (NUMBER, lambda e, x: check_pair(e.g, x, e.zero)),
    "check_pair-n": (NUMBER, lambda e, x: check_pair(e.g, e.zero, x)),
    "theta-m": (NUMBER, lambda e, x: theta(e.g, x, e.zero)),
    "theta-n": (NUMBER, lambda e, x: theta(e.g, e.zero, x)),
    "theta-map-path": (PATH, lambda e, x: e.identity(x)),
    "contains": (NUMBER, lambda e, x: e.group.contains(x)),
    "periodicity_group-bound": (NUMBER,
                                lambda e, x: periodicity_group(e.g, x)),
    "decide_periodic": (NUMBER,
                        lambda e, x: decide_periodic(e.g, e.group, x)),
    # perron
    "power": (NUMBER, lambda e, x: e.fam.power(x)),
    "box_sum": (NUMBER, lambda e, x: e.fam.box_sum(x)),
    "subinvariance-y": (NUMBER, lambda e, x: verify_subinvariance(
        e.fam, x, e.pd.rho, e.pd)),
    "subinvariance-y-entry": (NUMBER, lambda e, x: verify_subinvariance(
        e.fam, (x, *e.pd.x[1:]), e.pd.rho, e.pd)),
    "subinvariance-lambda": (NUMBER, lambda e, x: verify_subinvariance(
        e.fam, e.pd.x, x, e.pd)),
    "spectral-n": (NUMBER, lambda e, x: spectral_radius_power_check(
        e.fam, x, lambda a: 1.0, e.pd)),
    # kms: states and algebra elements
    "character": (NUMBER, lambda e, x: StateSpec.character(x)),
    "character-rotation": (NUMBER, lambda e, x: StateSpec.character(
        (x, *e.chi.turns[1:]))),
    "mixture-weight": (NUMBER, lambda e, x: StateSpec.mixture(
        [(x, e.chi.turns)])),
    "psi-haar": (NUMBER, lambda e, x: e.haar.psi(x)),
    "psi-character": (NUMBER, lambda e, x: e.chi.psi(x)),
    "psi-float-character": (NUMBER, lambda e, x: e.rough.psi(x)),
    "psi-mixture": (NUMBER, lambda e, x: e.mix.psi(x)),
    "parse_state": (LITERAL, lambda e, x: parse_state(x)),
    "span-mu": (PATH, lambda e, x: AlgebraElement.span(e.g, x, x)
                * AlgebraElement.span(e.g, e.mu, e.mu)),
    "span-coeff": (NUMBER,
                   lambda e, x: AlgebraElement.span(e.g, e.mu, e.mu, x)),
    "scale": (NUMBER,
              lambda e, x: AlgebraElement.span(e.g, e.mu, e.mu).scale(x)),
    # kms: the state family
    "periodic": (NUMBER, lambda e, x: e.states.periodic(x)),
    "theta_map-m": (NUMBER, lambda e, x: e.states.theta_map(x, e.zero)),
    "theta_map-n": (NUMBER, lambda e, x: e.states.theta_map(e.zero, x)),
    "phi_eval-state": (STATE, lambda e, x: e.states.phi_eval(x, e.mu,
                                                             e.mu)),
    "phi_eval-mu": (PATH, lambda e, x: e.states.phi_eval(e.haar, x, e.nu)),
    "phi_eval-nu": (PATH, lambda e, x: e.states.phi_eval(e.haar, e.mu, x)),
    "phi_eval-blind": (PATH, lambda e, x: e.states.phi_eval(
        e.haar, x, x, theta_blind=True)),
    "phi_apply-state": (STATE, lambda e, x: e.states.phi_apply(
        x, AlgebraElement.identity(e.g))),
    "unitary": (NUMBER, lambda e, x: e.states.unitary(x)),
    "unitary_identities": (NUMBER,
                           lambda e, x: e.states.unitary_identities(x)),
    "kms_check-state": (STATE, lambda e, x: e.states.kms_check(x, e.ones)),
    "kms_check-box": (NUMBER, lambda e, x: e.states.kms_check(e.haar, x)),
    "kms_check-tol": (NUMBER, lambda e, x: e.states.kms_check(
        e.haar, e.ones, tol=x)),
    "toeplitz-beta": (NUMBER, lambda e, x: e.states.toeplitz_kms_exists(
        x, e.ones)),
    "toeplitz-r": (NUMBER,
                   lambda e, x: e.states.toeplitz_kms_exists(1, x)),
    "toeplitz-r-entry": (NUMBER, lambda e, x: e.states.toeplitz_kms_exists(
        1, (x, *e.ones[1:]))),
    "toeplitz-tol": (NUMBER, lambda e, x: e.states.toeplitz_kms_exists(
        1, e.ones, tol=x)),
    "phase_diagram": (NUMBER, lambda e, x: e.states.phase_diagram(x)),
    "act_character-chi": (STATE,
                          lambda e, x: e.states.act_character(x, e.chi)),
    "act_character-state": (STATE,
                            lambda e, x: e.states.act_character(e.chi, x)),
    "states_equal-a": (STATE, lambda e, x: e.states.states_equal(x, e.chi)),
    "states_equal-b": (STATE, lambda e, x: e.states.states_equal(e.chi, x)),
}


def fixed_pool(e, kind):
    """One malformed value of each shape for a number or literal; every
    foreign path, source or wrong state for the other kinds."""
    if kind in (NUMBER, LITERAL):
        return [(1,) * (e.k + 1), (1,) * (e.k - 1), (-1, *e.ones[1:]),
                (0.5, *e.ones[1:]), [1] * e.k, True, False, -1, -0.5,
                math.nan, math.inf, None, "x", ""]
    return {PATH: e.foreign,
            SOURCE: [[e.mu.source]] + [p.source for p in e.foreign],
            STATE: e.wrong}[kind]


DRAWS = {
    NUMBER: lambda e: hostile_numbers(e.k),
    LITERAL: lambda e: st.one_of(hostile_numbers(e.k), st.text(max_size=6)),
    **{kind: lambda e, kind=kind: st.sampled_from(fixed_pool(e, kind))
       for kind in (PATH, SOURCE, STATE)},
}


@pytest.mark.parametrize("kind, call", CASES.values(), ids=list(CASES))
@settings(max_examples=10)
@given(data=st.data())
def test_returns_or_refuses_with_a_kgraph_error(envs, kind, call, data):
    env = envs[data.draw(st.sampled_from(sorted(envs)), label="fixture")]
    value = data.draw(DRAWS[kind](env), label=kind)
    try:
        call(env, value)
    except KGraphError:
        pass


def test_every_pool_entry_on_every_graph(envs):
    for name, e in sorted(envs.items()):
        for case, (kind, call) in CASES.items():
            for value in fixed_pool(e, kind):
                try:
                    call(e, value)
                except KGraphError:
                    pass
                except Exception as exc:
                    raise AssertionError(
                        f"{case} on {name} with {value!r}") from exc


def test_unhashable_degrees_and_differences_are_refused(envs):
    """A list meets its guard behind the cache lookup, on every graph."""
    for e in envs.values():
        for call in (lambda: e.cm.mass_at(list(e.ones), e.mu.source),
                     lambda: e.states.periodic(list(e.ones))):
            with pytest.raises(InputFormatError,
                               match=r"^(degree|difference) \[1"):
                call()
