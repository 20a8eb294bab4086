"""Exact cyclotomic scalars and small linear solves."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from kgraphs.errors import InputFormatError
from kgraphs.kms import parse_state
from kgraphs.scalars import (QQi, coerce_scalar, format_fraction, is_zero,
                             parse_number, solve_exact)

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
qqis = st.builds(QQi, small_fracs, small_fracs)
exact_reals = st.one_of(st.integers(-5, 5), small_fracs)
inexact = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.complex_numbers(allow_nan=False, allow_infinity=False))


def test_quarter_turns():
    one = QQi.quarter_turn(0)
    i = QQi.quarter_turn(1)
    assert one == QQi.of(1)
    assert i * i == QQi.of(-1)
    assert QQi.quarter_turn(2) == QQi.of(-1)
    assert QQi.quarter_turn(3) == i.conjugate()
    assert QQi.quarter_turn(7) == QQi.quarter_turn(-1)


def test_arithmetic_and_mixing():
    a = QQi(Fraction(1, 2), Fraction(1, 3))
    assert a + 1 == QQi(Fraction(3, 2), Fraction(1, 3))
    assert a * Fraction(2) == QQi(Fraction(1), Fraction(2, 3))
    assert not (a - a)
    assert a.abs2() == Fraction(1, 4) + Fraction(1, 9)
    z = complex(a)
    assert z == pytest.approx(complex(0.5, 1 / 3))
    assert a * 0.5 == complex(0.25, 1 / 6)
    assert coerce_scalar(2) == QQi.of(2) and coerce_scalar(0.5) == 0.5 + 0j
    with pytest.raises(TypeError):
        QQi.of(0.5)
    with pytest.raises(TypeError):
        coerce_scalar("1")


def test_conjugate_against_cmath():
    a = QQi(Fraction(2, 7), Fraction(-3, 5))
    assert complex(a.conjugate()) == pytest.approx(complex(a).conjugate())
    assert complex(QQi.quarter_turn(1)) == pytest.approx(
        cmath.exp(2j * cmath.pi * 0.25))


def test_format_fraction():
    assert format_fraction(Fraction(1, 2)) == "1/2"
    assert format_fraction(Fraction(4, 2)) == "2"
    assert format_fraction(3) == "3"
    assert format_fraction(Fraction(-3, 4)) == "-3/4"


def test_solve_exact():
    # x + y = 1, x - y = 1/3  ->  x = 2/3, y = 1/3
    sol = solve_exact([[1, 1], [1, -1]], [1, Fraction(1, 3)])
    assert sol == (Fraction(2, 3), Fraction(1, 3))


@given(qqis, qqis, qqis)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(qqis)
def test_abs2_is_norm(a):
    assert a.abs2() == (a * a.conjugate()).re
    assert (a.abs2() == 0) == (not a)


def test_qqi_is_built_by_the_record_constructor():
    """QQi writes no __init__: the one in its namespace is the one Record
    compiles, which takes both parts, and QQi.of takes one exact value."""
    assert vars(QQi)["__init__"].__code__.co_filename == "<string>"
    with pytest.raises(TypeError):
        QQi(Fraction(1, 2))
    assert QQi.of(3) == QQi(Fraction(3), Fraction(0)) == QQi(im=0, re=3)
    assert QQi.of(Fraction(1, 2)).im == 0 and QQi.of(7).re == Fraction(7)


@given(exact_reals)
def test_a_real_qqi_hashes_as_the_rational_it_equals(r):
    q = QQi.of(r)
    assert q == r and r == q and hash(q) == hash(r) == hash(Fraction(r))
    assert r in {q} and q in {r} and {q: 1}[r] == {r: 1}[q] == 1
    assert len({q, r, Fraction(r)}) == 1
    assert QQi(Fraction(r), Fraction(1)) not in {r}


def test_qqi_zero_is_falsy():
    assert not QQi.of(0) and not QQi(Fraction(0), Fraction(0))
    assert QQi(Fraction(0), Fraction(1)) and QQi.of(Fraction(-1, 3))


@given(qqis)
def test_qqi_truth_agrees_with_equality_to_zero(z):
    assert bool(z) == (z != 0) == (z.re != 0 or z.im != 0)


@given(qqis, exact_reals)
def test_exact_real_operands_stay_exact(a, r):
    q = QQi.of(r)
    for got, want in ((a + r, a + q), (r + a, q + a), (a - r, a - q),
                      (r - a, q - a), (a * r, a * q), (r * a, q * a)):
        assert type(got) is QQi and got == want


@given(qqis, inexact)
@example(QQi(Fraction(0), Fraction(-1)), -0.0)
@example(QQi(Fraction(-1), Fraction(0)), complex(-0.0, -0.0))
def test_inexact_operands_give_the_complex_result(a, z):
    # bit for bit, signed zeros included (repr shows them)
    za, zz = complex(a), complex(z)
    for got, want in ((a + z, za + zz), (z + a, zz + za), (a - z, za - zz),
                      (z - a, zz - za), (a * z, za * zz), (z * a, zz * za)):
        assert type(got) is complex and repr(got) == repr(want)


def test_is_zero_is_exact_on_qqi_and_tolerant_on_complex():
    tiny = QQi.of(Fraction(1, 10 ** 30))
    assert is_zero(QQi.of(0), 1e-12) and not is_zero(tiny, 1e-12)
    assert is_zero(complex(tiny), 1e-12) and is_zero(0j, 0.0)
    assert not is_zero(1e-11j, 1e-12) and not is_zero(complex(tiny), 0.0)


@pytest.mark.parametrize("text", ["1_0", "0.2_5", "1_000/3", "1e1_0"])
def test_digit_separators_are_refused(text):
    # Fraction reads "1_0" from Python 3.11 on and float always does, so
    # accepting it would give 3.10 a float where later versions are exact
    with pytest.raises(InputFormatError):
        parse_number(text)
    with pytest.raises(InputFormatError):
        parse_state(f"z={text},0")
