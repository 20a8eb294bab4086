"""Joint Perron-Frobenius data for commuting families of nonnegative matrices.

For an irreducible family (some box sum A_F = sum_{n in F} A^n entrywise
positive) there is a unique entrywise-positive x with 1-norm 1 satisfying
A_i x = rho_i x for all i.  perron_data(fam) finds the smallest box
F = {0..N}^k with N < the matrix size and A_F positive, runs power iteration
on A_F to POWER_TOL, and recovers the rho_i as Rayleigh ratios.  When rho and
x are rational they are reconstructed exactly (Fraction arithmetic,
verified), so downstream measure computations can stay exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul

from . import degrees as dg
from .errors import (ConvergenceError, InputFormatError, NonConstantRatioError,
                     NotIrreducibleError, Record)
from .scalars import add_up, solve_exact

POWER_TOL = 1e-12
POWER_MAX_ITER = 10 ** 6
RAYLEIGH_REL_TOL = 1e-8
SUBINVARIANCE_TOL = 1e-9


class MatrixFamily(Record):
    """k commuting nonnegative square matrices over a common index set."""

    labels: tuple
    matrices: tuple  # k tuples of tuples, int or Fraction entries

    def __post_init__(self):
        n = len(self.labels)
        if not self.matrices:
            raise InputFormatError("family needs at least one matrix")
        for m in self.matrices:
            if len(m) != n or any(len(row) != n for row in m):
                raise InputFormatError(
                    f"matrix shape does not match {n} labels")
            if any(entry < 0 for row in m for entry in row):
                raise InputFormatError("matrix entries must be nonnegative")

    @classmethod
    def from_graph(cls, graph):
        return cls(tuple(graph.vertices), graph.coordinate_matrices())

    @property
    def k(self):
        return len(self.matrices)

    @property
    def size(self):
        return len(self.labels)

    def check_commuting(self):
        """True iff all pairs commute, compared exactly (the entries are
        ints or Fractions)."""
        return all(mat_mul(a, b) == mat_mul(b, a)
                   for a, b in combinations(self.matrices, 2))

    def power(self, n):
        """A^n = prod A_i^{n_i} (n in N^k)."""
        if len(n) != self.k or not dg.is_nonneg(n):
            raise InputFormatError(f"bad exponent {n}")
        acc = identity(self.size)
        for i, reps in enumerate(n):
            for _ in range(reps):
                acc = mat_mul(acc, self.matrices[i])
        return acc

    def box_sum(self, bound):
        """A_F for F = {0..bound}^k, together with F as a degree list."""
        F = dg.degrees_below((bound,) * self.k)
        # entrywise sums over the powers, each taken in F's order
        rows = zip(*(self.power(n) for n in F))
        return tuple(tuple(map(sum, zip(*row))) for row in rows), tuple(F)


class PerronData(Record):
    labels: tuple
    rho: tuple            # floats
    x: tuple              # floats, positive, 1-norm 1
    rho_exact: tuple      # Fractions, or None if reconstruction failed
    x_exact: tuple        # Fractions, or None
    F: tuple              # degrees with A_F positive
    F_bound: int

    @property
    def exact(self):
        return self.rho_exact is not None

    def rho_values(self):
        """Exact Fractions when available, floats otherwise."""
        return self.rho_exact if self.exact else self.rho

    def x_values(self):
        return self.x_exact if self.exact else self.x


def mat_vec(a, x):
    """The product a x as a list, each row's sum taken left to right."""
    return [add_up(map(mul, row, x)) for row in a]


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))


def find_positive_F(fam):
    """Smallest N < size with sum_{0 <= n <= N*1} A^n entrywise positive,
    returned as (N, F, A_F); None if no such N works (always for an empty
    family) or some A_i is zero.  A zero A_i has no positive eigenvalue,
    yet A_F = A^0 = I is positive at N = 0 for one vertex."""
    if any(not any(map(any, mat)) for mat in fam.matrices):
        return None
    for N in range(fam.size):
        a_f, F = fam.box_sum(N)
        if all(entry > 0 for row in a_f for entry in row):
            return N, F, a_f
    return None


def power_iteration(matrix):
    """1-norm-normalized power iteration on an entrywise-positive matrix
    from the uniform vector, run until no entry moves by POWER_TOL;
    ConvergenceError after POWER_MAX_ITER steps."""
    a = [[float(c) for c in row] for row in matrix]
    x = [1.0 / len(a)] * len(a)
    for _ in range(POWER_MAX_ITER):
        y = mat_vec(a, x)
        total = add_up(y)
        y = [v / total for v in y]
        if max(abs(s - t) for s, t in zip(y, x)) < POWER_TOL:
            return tuple(y)
        x = y
    raise ConvergenceError(
        f"power iteration did not converge in {POWER_MAX_ITER} iterations")


def _rayleigh(fam, x):
    """rho_i as (A_i x)_s / x_s, requiring the ratios constant across s."""
    rho = []
    for i in range(fam.k):
        ratios = [a / v for a, v in zip(mat_vec(fam.matrices[i], x), x)]
        mean = add_up(ratios) / len(ratios)
        spread = max(ratios) - min(ratios)
        if mean <= 0 or spread > RAYLEIGH_REL_TOL * mean:
            raise NonConstantRatioError(
                f"Rayleigh ratios for matrix {i + 1} vary by {spread:.3e}; "
                f"family is not irreducible-with-eigenvector as claimed")
        rho.append(mean)
    return tuple(rho)


def _reconstruct_exact(fam, rho):
    """Try to certify rational Perron data.  With L the lcm of the entry
    denominators, L*A_i has integer entries, so by the rational root
    theorem a rational rho_i is an integer over L: the candidate is
    round(L*rho_i)/L.  x solves the stacked exact system
    (A_i - rho_i I) x = 0, sum x = 1.  Returns (rho_exact, x_exact) or None;
    a successful return is exactly verified, so false positives are
    impossible."""
    L = math.lcm(*(Fraction(entry).denominator for m in fam.matrices
                   for row in m for entry in row))
    try:
        cand = [Fraction(round(L * r), L) for r in rho]
    except (OverflowError, ValueError):
        return None
    rows = [[Fraction(a) - c * d for a, d in zip(row, id_row)]
            for m, c in zip(fam.matrices, cand)
            for row, id_row in zip(m, identity(fam.size))]
    rhs = [Fraction(0)] * len(rows) + [Fraction(1)]
    sol = solve_exact(rows + [[Fraction(1)] * fam.size], rhs)
    if sol is None or any(v <= 0 for v in sol):
        return None
    if any(mat_vec(m, sol) != [c * v for v in sol]
           for m, c in zip(fam.matrices, cand)):
        return None
    return tuple(cand), tuple(sol)


def perron_data(fam):
    """The unimodular Perron eigenvector and spectral radii of the family."""
    found = find_positive_F(fam)
    if found is None:
        raise NotIrreducibleError(
            "no box sum of powers is entrywise positive within the bound, "
            "or a coordinate matrix is zero; family is not irreducible")
    N, F, a_f = found
    x = power_iteration(a_f)
    rho = _rayleigh(fam, x)
    exact = _reconstruct_exact(fam, rho)
    rho_exact, x_exact = exact if exact else (None, None)
    return PerronData(labels=fam.labels, rho=rho, x=x,
                      rho_exact=rho_exact, x_exact=x_exact,
                      F=F, F_bound=N)


class SubinvarianceReport(Record):
    subinvariant: bool
    violations: tuple      # (matrix index, label, lhs, rhs) when not
    y_positive: bool
    lambda_dominates_rho: bool
    equals_eigenvector: bool  # None unless lambda = rho and |y|_1 = 1


def verify_subinvariance(fam, y, lam, pd):
    """Check A_i y <= lam_i y and report the structural consequences: a
    nonzero nonnegative subinvariant y must be strictly positive with every
    lam_i >= rho_i, and when lam = rho and |y|_1 = 1 it must equal the
    eigenvector."""
    if len(y) != fam.size or len(lam) != fam.k:
        raise InputFormatError("vector/lambda shapes do not match the family")
    if not all(abs(v) < math.inf for v in (*y, *lam)):
        raise InputFormatError("y and lambda must be finite")
    if any(v < 0 for v in y) or not any(v > 0 for v in y):
        raise InputFormatError("y must be nonnegative and nonzero")
    exact_in = all(isinstance(v, (int, Fraction)) for v in list(y) + list(lam))
    slack = 0 if exact_in else SUBINVARIANCE_TOL
    violations = []
    for i in range(fam.k):
        for r, lhs in enumerate(mat_vec(fam.matrices[i], y)):
            rhs = lam[i] * y[r]
            if lhs > rhs + slack:
                violations.append((i + 1, fam.labels[r], float(lhs),
                                   float(rhs)))
    subinvariant = not violations
    y_positive = all(v > 0 for v in y)
    lam_dom = all(float(l) >= rho - SUBINVARIANCE_TOL
                  for l, rho in zip(lam, pd.rho))
    equals = None
    norm = add_up(map(float, y))
    if subinvariant and abs(norm - 1.0) <= SUBINVARIANCE_TOL and \
            all(abs(float(l) - rho) <= SUBINVARIANCE_TOL
                for l, rho in zip(lam, pd.rho)):
        equals = all(abs(float(y[r]) - pd.x[r]) <= 1e-8
                     for r in range(fam.size))
    return SubinvarianceReport(subinvariant=subinvariant,
                               violations=tuple(violations),
                               y_positive=y_positive,
                               lambda_dominates_rho=lam_dom,
                               equals_eigenvector=equals)


class SpectralCheckReport(Record):
    n: tuple
    oracle_power: float
    predicted_power: float
    power_error: float
    oracle_box: float
    predicted_box: float
    box_error: float


def spectral_radius_power_check(fam, n, oracle, pd):
    """Compare an independent spectral-radius oracle against the product and
    box-sum predictions rho(A^n) = prod rho_i^{n_i} and
    rho(A_F) = sum_{m in F} prod rho_i^{m_i}."""
    got_power = float(oracle(fam.power(n)))
    want_power = dg.rho_power(pd.rho, n)
    a_f, _ = fam.box_sum(pd.F_bound)
    got_box = float(oracle(a_f))
    want_box = add_up(dg.rho_power(pd.rho, m) for m in pd.F)
    return SpectralCheckReport(
        n=tuple(n),
        oracle_power=got_power, predicted_power=want_power,
        power_error=abs(got_power - want_power),
        oracle_box=got_box, predicted_box=want_box,
        box_error=abs(got_box - want_box))
