"""Exact scalar helpers: Gaussian rationals and small Fraction linear algebra.

The KMS-state formulas take values in Q[i] whenever the Perron data is rational
and the character is a quarter turn; QQi keeps those computations exact.  The
row-reduction solver backs the exact reconstruction of Perron eigenvectors.

Where exactness is chosen: PerronData.exact (rational Perron data) and
StateSpec.is_exact (rational weights, quarter-turn rotations) pick the
representation of masses and of psi values, and KMSStates._zero decides
whether a measure and a state together are exact.  Everything else reads
operand types: QQi combined with an int or Fraction stays a QQi, and
combined with a float or complex gives the complex result, so other modules
use plain operators and test isinstance(value, QQi).
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import reduce

from .errors import InputFormatError, Record

_ZERO = Fraction(0)     # QQi.of's im, shared: a Fraction is immutable


class QQi(Record):
    """A Gaussian rational re + im*i with Fraction components, both given:
    Record's constructor builds it, and QQi.of takes one exact value."""

    __slots__ = ("re", "im")
    re: Fraction
    im: Fraction

    @staticmethod
    def of(value):
        """Coerce an int/Fraction/QQi to QQi.  Floats are refused: coercion
        is not arithmetic, and a float has no exact value to coerce to
        (the operators below do mix with floats, into complex)."""
        if isinstance(value, QQi):
            return value
        if isinstance(value, (int, Fraction)):
            return QQi(Fraction(value), _ZERO)
        raise TypeError(f"cannot coerce {type(value).__name__} to QQi")

    # i**t for t mod 4; the only roots of unity available exactly.
    @staticmethod
    def quarter_turn(t):
        return QUARTER_TURNS[t % 4]

    # The operators take a QQi, int or Fraction to a QQi, and a float or
    # complex to complex(self) <op> complex(other).  Reflected + and * and
    # a - b = a + -b give the same bits, because complex + and * commute,
    # x - y = x + -y in floats, and complex(QQi) has no negative zero.
    def __add__(self, other):
        if isinstance(other, QQi):
            return QQi(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return QQi(self.re + other, self.im)
        if isinstance(other, (float, complex)):
            return complex(self) + complex(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        if isinstance(other, (float, complex)):
            return complex(other) - complex(self)
        return -self + other

    def __mul__(self, other):
        if isinstance(other, QQi):
            return QQi(self.re * other.re - self.im * other.im,
                       self.re * other.im + self.im * other.re)
        if isinstance(other, (int, Fraction)):
            return QQi(self.re * other, self.im * other)
        if isinstance(other, (float, complex)):
            return complex(self) * complex(other)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self):
        return QQi(self.re, -self.im)

    def abs2(self):
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __eq__(self, other):
        if isinstance(other, QQi):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    # equal values hash equal: a QQi with im == 0 as its real part
    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        return f"({self.re}+{self.im}i)"


QUARTER_TURNS = tuple(QQi(Fraction(re), Fraction(im))
                      for re, im in ((1, 0), (0, 1), (-1, 0), (0, -1)))


def coerce_scalar(c):
    """A coefficient as a QQi when it is exact, as a complex otherwise."""
    if isinstance(c, (float, complex)):
        return complex(c)
    return QQi.of(c)


def add_up(values, start=0):
    """start + v_1 + v_2 + ...: sum() compensates floats from Python 3.12."""
    return reduce(operator.add, values, start)


def is_zero(value, tol):
    """Exactly zero for a QQi, int or Fraction; else |value| <= tol."""
    if isinstance(value, (QQi, int, Fraction)):
        return not value
    return abs(value) <= tol


# the checks' default tolerances, kept here so cli need not import the checks
KMS_TOL = 1e-12
TOEPLITZ_TOL = 1e-9
CONSISTENCY_TOL = 1e-10


def check_real(value, name):
    """value, if it is a finite int, Fraction or float; bools refused."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, Fraction, float)) and abs(value) < math.inf):
        raise InputFormatError(f"{name} {value!r} is not a finite number")
    return value


def check_tol(value, name="tol"):
    """Refuse a tolerance, or another numeric option, that is negative or
    that check_real refuses; a NaN or infinite float gets this message."""
    if isinstance(value, float) and not 0 <= value < math.inf or \
            check_real(value, name) < 0:
        raise InputFormatError(
            f"{name} must be finite and nonnegative, not {value}")


def check_count(value, name):
    """Refuse a level, bound or other count that is not an int >= 0; type
    is not int refuses bools."""
    if type(value) is not int or value < 0:
        raise InputFormatError(f"{name} must be an int >= 0, not {value!r}")


def format_fraction(value):
    """Canonical string for an exact rational: "p" or "p/q"."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_number(text):
    """Exact Fraction when the literal is one, a float otherwise; refused
    past sys.float_info.max in magnitude, so its float() is finite.  A
    digit separator is refused: Fraction reads "1_0" from Python 3.11 on,
    so 3.10 would turn it into a float."""
    if "_" in text:
        raise InputFormatError(f"bad number {text!r}")
    try:
        value = Fraction(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            raise InputFormatError(f"bad number {text!r}") from None
    except ZeroDivisionError:
        raise InputFormatError(f"zero denominator in {text!r}") from None
    if not abs(value) <= sys.float_info.max:
        raise InputFormatError(f"number {text!r} is not a finite float")
    return value


def solve_exact(rows, rhs):
    """Solve an (overdetermined) linear system exactly over Fraction.

    rows: list of coefficient rows, rhs: list of right-hand values.  Returns
    the unique solution as a tuple of Fractions, or None if the system is
    inconsistent or underdetermined.
    """
    m = [[Fraction(c) for c in row] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    nrow = len(m)
    ncol = len(m[0]) - 1 if m else 0
    pivots = []
    r = 0
    for c in range(ncol):
        pick = next((i for i in range(r, nrow) if m[i][c] != 0), None)
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        piv = m[r][c]
        m[r] = [v / piv for v in m[r]]
        for i in range(nrow):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrow:
            break
    # Inconsistent if any zero row has nonzero rhs.
    for i in range(r, nrow):
        if m[i][ncol] != 0:
            return None
    if len(pivots) < ncol:
        return None  # underdetermined
    sol = [Fraction(0)] * ncol
    for i, c in enumerate(pivots):
        sol[c] = m[i][ncol]
    return tuple(sol)
