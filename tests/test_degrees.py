"""Degree-vector lattice arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kgraphs import degrees as dg
from kgraphs.errors import InputFormatError

vecs = st.lists(st.integers(-6, 6), min_size=1, max_size=4)


def pairs(draw_len=3):
    return st.tuples(st.lists(st.integers(-6, 6), min_size=draw_len,
                              max_size=draw_len),
                     st.lists(st.integers(-6, 6), min_size=draw_len,
                              max_size=draw_len))


def test_basics():
    assert dg.zero(3) == (0, 0, 0)
    assert dg.unit(3, 2) == (0, 1, 0)
    assert dg.add((1, 2), (3, 4)) == (4, 6)
    assert dg.sub((1, 2), (3, 4)) == (-2, -2)
    assert dg.neg((1, -2)) == (-1, 2)
    assert dg.join((1, 5), (2, 3)) == (2, 5)
    assert dg.total((2, 3, 4)) == 9
    assert dg.scale(3, (1, 2)) == (3, 6)


def test_order():
    assert dg.leq((1, 1), (1, 2))
    assert not dg.leq((2, 0), (1, 2))


def test_parts():
    g = (2, -3, 0)
    assert dg.pos_part(g) == (2, 0, 0)
    assert dg.neg_part(g) == (0, 3, 0)
    assert dg.sub(dg.pos_part(g), dg.neg_part(g)) == g


def test_box_is_lex_sorted_and_complete():
    b = dg.box((0, 0), (2, 1))
    assert b == sorted(b)
    assert len(b) == 6
    assert dg.degrees_below((2, 1)) == b


def test_parse_and_format():
    assert dg.parse_degree("1,0", 2) == (1, 0)
    with pytest.raises(InputFormatError):
        dg.parse_degree("1", 2)
    with pytest.raises(InputFormatError):
        dg.parse_degree("a,b", 2)
    with pytest.raises(InputFormatError):
        dg.parse_degree("-1,0", 2)


def test_rho_power_exact_and_float():
    assert dg.rho_power((Fraction(2), Fraction(3)), (2, 1)) == Fraction(12)
    assert dg.rho_power((Fraction(2),), (-3,)) == Fraction(1, 8)
    assert dg.rho_power((2.0,), (3,)) == pytest.approx(8.0)


@given(pairs())
def test_lattice_laws(mn):
    m, n = map(tuple, mn)
    meet = tuple(map(min, m, n))
    assert dg.join(m, n) == dg.join(n, m)
    assert dg.add(dg.join(m, n), meet) == dg.add(m, n)
    assert dg.leq(meet, dg.join(m, n))


@given(vecs)
def test_part_decomposition(v):
    g = tuple(v)
    p, q = dg.pos_part(g), dg.neg_part(g)
    assert min(p + q) >= 0
    assert dg.sub(p, q) == g
    assert tuple(map(min, p, q)) == dg.zero(len(g))
