"""Acceptance gate: eleven checks covering the whole pipeline.

Each test prints one PASS line when its criterion holds (run with -s to see
them); a failing criterion fails its test.  Tolerances are pinned in the
assertions, not configurable.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from kgraphs import degrees as dg
from kgraphs.kms import StateSpec
from kgraphs.measure import (consistency_check, decay_check,
                             find_decay_witness, periodicity_mass_profile)
from kgraphs.periodicity import periodicity_group, theta
from kgraphs.perron import (MatrixFamily, perron_data,
                            spectral_radius_power_check)
from kgraphs.scalars import QQi

F = Fraction
PHI = (1 + math.sqrt(5)) / 2
NAMES = ("b2", "fib", "pullback-b2", "product-b2-c2")


def srad(mat):
    return max(abs(z) for z in np.linalg.eigvals(np.array(mat, dtype=float)))


def ok(n, text):
    print(f"criterion {n:02d} PASS: {text}")


def test_criterion_01_perron_values(graphs):
    for name in NAMES:
        fam = MatrixFamily.from_graph(graphs[name])
        t0 = time.perf_counter()
        pd = perron_data(fam)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{name}: perron took {elapsed:.3f}s"
        if name == "b2":
            assert pd.rho_exact == (F(2),) and pd.x_exact == (F(1),)
        elif name == "pullback-b2":
            assert pd.rho_exact == (F(2), F(2)) and pd.x_exact == (F(1),)
        elif name == "product-b2-c2":
            assert pd.rho_exact == (F(2), F(1))
            assert pd.x_exact == (F(1, 2), F(1, 2))
        else:
            assert abs(pd.rho[0] - PHI) < 1e-9
            assert abs(pd.x[0] - PHI / (1 + PHI)) < 1e-9
            assert abs(pd.x[1] - 1 / (1 + PHI)) < 1e-9
    ok(1, "Perron data exact on b2/pullback-b2/product-b2-c2, golden-ratio "
          "values on fib, each under 1s")


def test_criterion_02_spectral_radius_oracle(graphs, perron):
    for name in NAMES:
        fam = MatrixFamily.from_graph(graphs[name])
        pd = perron[name]
        for n in dg.degrees_below((2,) * fam.k):
            rep = spectral_radius_power_check(fam, n, srad, pd)
            assert rep.power_error <= 1e-9, (name, n, rep.power_error)
            assert rep.box_error <= 1e-9, (name, n, rep.box_error)
    ok(2, "eigenvalue oracle matches rho products on powers and the "
          "positive box sum, every fixture, within 1e-9")


def test_criterion_03_periodicity_groups(graphs):
    t0 = time.perf_counter()
    got = {name: periodicity_group(graphs[name], bound=2)
           for name in NAMES}
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"group search took {elapsed:.1f}s"
    assert got["pullback-b2"].basis == ((1, -1),)
    assert got["product-b2-c2"].basis == ((0, 2),)
    assert got["b2"].rank == 0
    assert got["fib"].rank == 0
    ok(3, "periodicity bases at bound 2: pullback Z(1,-1), product Z(0,2), "
          f"b2/fib trivial, in {elapsed:.2f}s")


def test_criterion_04_theta_laws(pb2g):
    g = pb2g
    th1 = theta(g, (2, 0), (1, 1))
    th2 = theta(g, (1, 1), (0, 2))
    th13 = theta(g, (2, 0), (0, 2))
    for p in g.paths_of_degree((2, 0)):
        assert th2(th1(p)) == th13(p)
        assert th1.inverse()(th1(p)) == p
    # translation: prepending a path commutes with the bijection
    th = theta(g, (1, 0), (0, 1))
    th_up = theta(g, (2, 1), (1, 2))
    for alpha in g.paths_of_degree((1, 1)):
        for mu in g.paths_of_degree((1, 0), range=alpha.source):
            assert th_up(g.compose(alpha, mu)) == g.compose(alpha, th(mu))
    # common-extension sets are freely parameterized by the tails
    for m, n in (((1, 0), (0, 1)), ((2, 0), (0, 2))):
        tmn = theta(g, m, n)
        inv = tmn.inverse()
        for mu in g.paths_of_degree(m):
            got = {(a.edges, b.edges) for a, b in g.lambda_min(mu, tmn(mu))}
            want = {(al.edges, inv(al).edges)
                    for al in g.paths_of_degree(n, range=mu.source)}
            assert got == want
    ok(4, "bijection composition, inverse, translation, and the "
          "common-extension set identity hold exactly on pullback-b2")


def test_criterion_05_unitary_identities(states):
    for name, gv in (("pullback-b2", (1, -1)), ("product-b2-c2", (0, 2))):
        rep = states[name].unitary_identities((2, 2))
        assert rep.passed, [c for c in rep.checks if not c[1]]
        assert gv in rep.group_elements
        assert len(rep.checks) > 10   # laws actually enumerated
    ok(5, "central unitaries satisfy the group law, inverses, and edge "
          "commutation on pullback-b2 and product-b2-c2 over the (2,2) box")


def test_criterion_06_measure_consistency(measures):
    for name in ("b2", "pullback-b2", "product-b2-c2"):
        cm = measures[name]
        top = (3,) * cm.graph.k
        for n in dg.degrees_below(top):
            for m in dg.degrees_below(n):
                rep = consistency_check(cm, m, n)
                assert rep.exact and rep.passed, (name, m, n)
                assert rep.max_refinement_error == 0
                assert rep.total_mass_error == 0
    cm = measures["fib"]
    for n in range(5):
        for m in range(n + 1):
            rep = consistency_check(cm, (m,), (n,), tol=1e-10)
            assert rep.passed, (m, n, rep.max_refinement_error)
    ok(6, "cylinder masses refine consistently: exactly to level (3,3) on "
          "the rational fixtures, within 1e-10 to level 4 on fib")


def test_criterion_07_dichotomy(measures):
    # periodic pairs: the agreement mass never drops
    assert periodicity_mass_profile(measures["pullback-b2"], (1, 0), (0, 1),
                                    5) == [1] * 6
    assert periodicity_mass_profile(measures["product-b2-c2"], (0, 2),
                                    (0, 0), 5) == [1] * 6
    # aperiodic pairs: it crosses 0.01 within 20 levels
    for name, m, n in (("b2", (1,), (0,)),
                       ("pullback-b2", (1, 0), (0, 0))):
        cm = measures[name]
        level = next(l for l in range(21)
                     if periodicity_mass_profile(cm, m, n, l)[-1] < F(1, 100))
        assert level <= 20
    # and the drop is certified geometric by a decay witness
    cm = measures["b2"]
    w = find_decay_witness(cm, (1,), a_max=6)
    g = cm.graph
    rep = decay_check(cm, w, g.parse_path("e1"), g.vertex_path("v"), 3)
    assert rep.passed
    cm = measures["pullback-b2"]
    w = find_decay_witness(cm, (1, 0), a_max=6)
    g = cm.graph
    rep = decay_check(cm, w, g.parse_path("a1"), g.vertex_path("v"), 3)
    assert rep.passed
    ok(7, "shift-agreement mass stays 1 on periodic pairs, decays below "
          "0.01 on aperiodic ones, with geometric decay certificates")


def _state_suite(k):
    states = [StateSpec.haar()]
    if k == 1:
        quarter = [(F(t, 4),) for t in range(4)]
    else:
        quarter = [(F(0), F(0)), (F(1, 4), F(0)), (F(0), F(1, 4)),
                   (F(1, 2), F(1, 4)), (F(3, 4), F(1, 2))]
    states += [StateSpec.character(t) for t in quarter]
    return states


def test_criterion_08_kms_identity_suite(states, graphs):
    t0 = time.perf_counter()
    for name in NAMES:
        st = states[name]
        k = graphs[name].k
        box = (2,) * k
        for spec in _state_suite(k):
            rep = st.kms_check(spec, box)
            assert rep.passed, (name, spec.describe(), rep.failures[:2])
            if name == "fib":
                assert rep.max_deviation <= 1e-12
            else:
                assert rep.exact and rep.max_deviation == 0
        for spec in _state_suite(k):
            rep = st.kms_check(spec, box, theta_blind=True)
            assert not rep.passed, (name, spec.describe())
            assert rep.failure_count > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    ok(8, "equilibrium identity exhaustive to degree 2 per color for the "
          "averaging state and quarter-turn characters on every fixture "
          "(exact where rational, 1e-12 on fib); the bijection-blind "
          f"variant fails every run; {elapsed:.1f}s total")


def test_criterion_09_b2_state_table(states, b2g):
    st = states["b2"]
    haar = StateSpec.haar()
    paths = [p for n in range(4) for p in b2g.paths_of_degree((n,))]
    for mu, nu in itertools.product(paths, repeat=2):
        want = QQi.of(F(1, 2 ** dg.total(mu.degree))) if mu == nu \
            else QQi.of(0)
        assert st.phi_eval(haar, mu, nu) == want
    ok(9, "on b2 the averaging state is diagonal with value 2^-|mu|, all "
          "words to length 3")


def test_criterion_10_phase_counts(states):
    pb2 = states["pullback-b2"]
    b2 = states["b2"]
    assert b2.phase_diagram(2).extreme_points == 1
    assert b2.phase_diagram(1).extreme_points == 1
    assert b2.phase_diagram(F(9, 10)).extreme_points == 0
    assert pb2.phase_diagram(3).extreme_points == 1
    assert pb2.phase_diagram(1).extreme_points == "infinite"
    assert pb2.phase_diagram(F(1, 2)).extreme_points == 0
    rep = states["product-b2-c2"].phase_diagram(1)
    assert not rep.applicable and "rho_i > 1" in rep.reason
    ok(10, "extreme-point counts: b2 1/1/0, pullback-b2 1/infinite/0 "
           "around the critical temperature; product-b2-c2 reported "
           "outside the hypothesis")


def test_criterion_11_character_separation(states, pb2g):
    st = states["pullback-b2"]
    rng = random.Random(2026)
    pairs = [(tuple(F(rng.randrange(4), 4) for _ in range(2)),
              tuple(F(rng.randrange(4), 4) for _ in range(2)))
             for _ in range(10)]
    span_pairs = [(mu, nu)
                  for n in dg.degrees_below((2, 2))
                  for m in dg.degrees_below((2, 2))
                  for mu in pb2g.paths_of_degree(n)
                  for nu in pb2g.paths_of_degree(m)
                  if mu.source == nu.source]
    seen = set()
    for za, zb in pairs:
        # the ratio character is trivial on the group iff it kills (1, -1)
        perp = ((za[0] - zb[0]) - (za[1] - zb[1])).denominator == 1
        sa, sb = StateSpec.character(za), StateSpec.character(zb)
        assert st.states_equal(sa, sb) == perp
        same = all(st.phi_eval(sa, mu, nu) == st.phi_eval(sb, mu, nu)
                   for mu, nu in span_pairs)
        assert same == perp
        seen.add(perp)
    assert seen == {True, False}, "seed must exercise both outcomes"
    ok(11, "ten random character pairs on pullback-b2: functionals agree "
           "exactly when the ratio is trivial on the periodicity group, "
           "confirmed against every span term up to degree (2,2)")
