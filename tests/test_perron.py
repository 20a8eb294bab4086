"""Joint Perron eigendata for the commuting adjacency family."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from kgraphs import degrees as dg
from kgraphs.errors import ConvergenceError, InputFormatError
from kgraphs.perron import (POWER_TOL, MatrixFamily, find_positive_F,
                            mat_mul, perron_data, power_iteration,
                            spectral_radius_power_check, verify_subinvariance)

PHI = (1 + math.sqrt(5)) / 2


def srad(mat):
    """Independent spectral-radius oracle."""
    return max(abs(z) for z in np.linalg.eigvals(np.array(mat, dtype=float)))


def fam_of(graphs, name):
    return MatrixFamily.from_graph(graphs[name])


def test_commuting_family(graphs):
    for g in graphs.values():
        for a, b in combinations(MatrixFamily.from_graph(g).matrices, 2):
            assert mat_mul(a, b) == mat_mul(b, a)


def test_exact_values(perron):
    assert perron["b2"].rho_exact == (Fraction(2),)
    assert perron["b2"].x_exact == (Fraction(1),)
    assert perron["pullback-b2"].rho_exact == (Fraction(2), Fraction(2))
    assert perron["pullback-b2"].x_exact == (Fraction(1),)
    assert perron["product-b2-c2"].rho_exact == (Fraction(2), Fraction(1))
    assert perron["product-b2-c2"].x_exact == (Fraction(1, 2),
                                               Fraction(1, 2))


@pytest.mark.parametrize("den", [2, 20011])
def test_exact_values_with_fraction_entries(den):
    # [[1/den, 1], [1, 1/den]] has rho = 1 + 1/den, an integer over den;
    # 20011 is past any denominator bound a best-approximation search uses
    d = Fraction(1, den)
    pd = perron_data(MatrixFamily(("u", "v"), (((d, 1), (1, d)),)))
    assert pd.rho_exact == (1 + d,)
    assert pd.x_exact == (Fraction(1, 2), Fraction(1, 2))


def test_fib_floats(perron):
    pd = perron["fib"]
    assert pd.rho_exact is None
    assert pd.rho[0] == pytest.approx(PHI, abs=1e-9)
    assert pd.x[0] == pytest.approx(PHI / (1 + PHI), abs=1e-9)
    assert pd.x[1] == pytest.approx(1 / (1 + PHI), abs=1e-9)
    assert sum(pd.x) == pytest.approx(1.0, abs=1e-12)


def test_eigen_equation(graphs, perron):
    for name, g in graphs.items():
        pd = perron[name]
        fam = MatrixFamily.from_graph(g)
        for i, mat in enumerate(fam.matrices):
            for r in range(fam.size):
                lhs = sum(mat[r][c] * pd.x[c] for c in range(fam.size))
                assert lhs == pytest.approx(pd.rho[i] * pd.x[r], abs=1e-9)


def test_oracle_agreement(graphs, perron):
    for name, g in graphs.items():
        fam = MatrixFamily.from_graph(g)
        pd = perron[name]
        for i, mat in enumerate(fam.matrices):
            assert srad(mat) == pytest.approx(pd.rho[i], abs=1e-9)


def numpy_power_iteration(matrix, tol=POWER_TOL):
    """Reference: the same iteration on numpy arrays, with BLAS doing the
    matrix-vector products and numpy the sums."""
    a = np.asarray(matrix, dtype=float)
    x = np.full(a.shape[0], 1.0 / a.shape[0])
    for _ in range(10 ** 6):
        y = a @ x
        y = y / y.sum()
        if np.max(np.abs(y - x)) < tol:
            return tuple(float(v) for v in y)
        x = y
    raise AssertionError("numpy reference did not converge")


def test_power_iteration_matches_numpy_on_fixtures(graphs, perron):
    for name, g in graphs.items():
        _, _, a_f = find_positive_F(MatrixFamily.from_graph(g))
        want = numpy_power_iteration(a_f)
        assert power_iteration(a_f) == want == perron[name].x, name


def test_power_iteration_matches_numpy_on_random_matrices():
    # both stop at the first step below POWER_TOL; rounding may let one
    # stop a step before the other, which moves x by less than ten tols
    rng = random.Random(20)
    for n in range(1, 9):
        for _ in range(6):
            mat = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
            got = power_iteration(mat)
            want = numpy_power_iteration(mat)
            assert len(got) == n
            assert max(abs(a - b) for a, b in zip(got, want)) <= \
                10 * POWER_TOL, mat


def test_power_iteration_gives_up_after_max_iter(monkeypatch):
    # the loop reads POWER_MAX_ITER when it runs
    monkeypatch.setattr("kgraphs.perron.POWER_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="in 2 iterations"):
        power_iteration([[2, 1], [1, 1]])


def test_cli_imports_no_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import kgraphs.cli, sys; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_library_imports_no_dataclasses():
    # -S: site hooks of the environment may import what kgraphs does not
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import kgraphs.cli, kgraphs.kms, kgraphs.measure, "
         "kgraphs.periodicity, sys; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_positive_block(graphs, perron):
    for name, g in graphs.items():
        fam = MatrixFamily.from_graph(g)
        pd = perron[name]
        found = find_positive_F(fam)
        assert found is not None
        N, F, a_f = found
        assert N == pd.F_bound
        assert tuple(F) == tuple(pd.F)
        assert all(entry > 0 for row in a_f for entry in row)


def test_spectral_power_checks(graphs, perron):
    for name, g in graphs.items():
        fam = MatrixFamily.from_graph(g)
        pd = perron[name]
        for n in dg.degrees_below((2,) * fam.k):
            rep = spectral_radius_power_check(fam, n, srad, pd)
            assert rep.power_error <= 1e-9
            assert rep.box_error <= 1e-9


def test_subinvariance_randomized(graphs, perron):
    rng = random.Random(11)
    for name in ("fib", "product-b2-c2"):
        fam = fam_of(graphs, name)
        pd = perron[name]
        for _ in range(50):
            # random positive y with lambda picked entrywise-subinvariant
            y = [rng.uniform(0.2, 1.0) for _ in range(fam.size)]
            lam = []
            for mat in fam.matrices:
                worst = max(sum(mat[r][c] * y[c] for c in range(fam.size))
                            / y[r] for r in range(fam.size))
                lam.append(worst * (1 + rng.uniform(0, 0.5)))
            rep = verify_subinvariance(fam, y, lam, pd)
            assert rep.subinvariant
            assert rep.y_positive
            assert rep.lambda_dominates_rho
        for _ in range(50):
            # shrinking lambda below the worst row ratio must be caught
            y = [rng.uniform(0.2, 1.0) for _ in range(fam.size)]
            lam = [pd.rho[i] * rng.uniform(0.01, 0.5)
                   for i in range(fam.k)]
            rep = verify_subinvariance(fam, y, lam, pd)
            assert not rep.subinvariant or rep.lambda_dominates_rho


def test_subinvariant_eigenvector_detection(graphs, perron):
    pd = perron["product-b2-c2"]
    fam = fam_of(graphs, "product-b2-c2")
    rep = verify_subinvariance(fam, list(pd.x_exact), list(pd.rho_exact), pd)
    assert rep.subinvariant and rep.equals_eigenvector


def test_input_validation(graphs, perron):
    fam, pd = fam_of(graphs, "fib"), perron["fib"]
    with pytest.raises(InputFormatError):
        verify_subinvariance(fam, [1.0], [2.0], pd)
    with pytest.raises(InputFormatError):
        verify_subinvariance(fam, [0, 0], [2.0], pd)


@pytest.mark.parametrize("y, lam", [
    ((math.nan, 0.5), (2, 1)), ((0.5, 0.5), (math.nan, 1)),
    ((math.inf, 0.5), (2, 1)), ((0.5, 0.5), (2, math.inf)),
], ids=["y-nan", "lambda-nan", "y-inf", "lambda-inf"])
def test_non_finite_subinvariance_input_is_refused(graphs, perron, y, lam):
    # NaN fails lhs > rhs + slack, so only a finiteness test refuses it
    fam = fam_of(graphs, "product-b2-c2")
    with pytest.raises(InputFormatError):
        verify_subinvariance(fam, y, lam, perron["product-b2-c2"])
