"""Degree vectors for rank-k graphs.

Degrees (elements of N^k) and group elements (Z^k) are plain int tuples; the
functions here give them the componentwise order and lattice operations used
throughout the package.  Color indices are 1-based externally (matching the
JSON schema) and 0-based wherever a tuple is indexed.
"""

from __future__ import annotations

import itertools
import math

from .errors import InputFormatError


def zero(k):
    return (0,) * k


def unit(k, color):
    """Standard basis vector e_color (color is 1-based)."""
    if not 1 <= color <= k:
        raise InputFormatError(f"color {color} outside 1..{k}")
    return tuple(1 if i == color - 1 else 0 for i in range(k))


def add(m, n):
    return tuple(a + b for a, b in zip(m, n))


def sub(m, n):
    return tuple(a - b for a, b in zip(m, n))


def neg(m):
    return tuple(-a for a in m)


def join(m, n):
    """Componentwise max (the least upper bound m ∨ n)."""
    return tuple(max(a, b) for a, b in zip(m, n))


def leq(m, n):
    """Componentwise m <= n."""
    return all(a <= b for a, b in zip(m, n))


def check_vector(g, k, what="difference"):
    """g, if it is in Z^k: a k-tuple of ints, bools refused."""
    if type(g) is tuple and len(g) == k and all(type(c) is int for c in g):
        return g
    raise InputFormatError(f"{what} {g!r} is not in Z^{k}")


def check_degree(n, k, what="degree"):
    """n, if it is in N^k: a k-tuple of ints >= 0, bools refused."""
    if type(n) is tuple and len(n) == k and all(
            type(c) is int and c >= 0 for c in n):
        return n
    raise InputFormatError(f"{what} {n!r} is not in N^{k}")


def pos_part(g):
    return tuple(max(a, 0) for a in g)


def neg_part(g):
    """g = pos_part(g) - neg_part(g), both in N^k."""
    return tuple(max(-a, 0) for a in g)


def total(m):
    """|m|_1, the total number of edges in a path of this degree."""
    return sum(m)


def scale(c, m):
    return tuple(c * a for a in m)


def box(lo, hi):
    """All integer vectors v with lo <= v <= hi componentwise, sorted
    lexicographically.  lo and hi are tuples of equal length."""
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return [tuple(v) for v in itertools.product(*ranges)]


def degrees_below(n):
    """All degrees m with 0 <= m <= n, sorted lexicographically."""
    return box(zero(len(n)), n)


def parse_degree(text, k):
    """Parse a comma-separated degree literal like "1,0" into N^k."""
    parts = text.split(",")
    if len(parts) != k:
        raise InputFormatError(f"degree literal {text!r} has {len(parts)} "
                               f"components, graph has rank {k}")
    try:
        vec = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InputFormatError(f"bad degree literal {text!r}") from exc
    if min(vec) < 0:
        raise InputFormatError(f"degree literal {text!r} must be nonnegative")
    return vec


def rho_power(rho, m):
    """prod_i rho_i**m_i with exponents in Z.  Exact for Fraction rho."""
    return math.prod(r ** e for r, e in zip(rho, m))
