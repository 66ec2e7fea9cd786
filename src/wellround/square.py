"""Counting sublattices of the square lattice by geometric type.

Similar sublattices of Z[i] of index n are the points u >= 1, v >= 0 of
its norm form u^2 + v^2 = n, as many as the divisor sum of chi_-4.
Rhombic, centred rectangular and square sublattices come in pairs of
equal-norm generators z1, z2 with z1 + z2 = p z and z1 - z2 = i q z for a
primitive z, giving index pq|z|^2 / 2; restricting p/q to the band where
z1, z2 stay shortest (q^2 between p^2/3 and 3 p^2) yields exactly the
well-rounded ones.  All window inequalities are decided by integer
squaring; the boundary q^2 = 3 p^2 has no integer solutions.
The counts are `dirichlet.Preset`'s identity on the data `SQUARE`:
`a_square(N)` gives every count to N; `a_square_summatory(xs)` gives the
partial sums A(x) from the same factors on plain-Python tables of about
x^0.6 coefficients, with no array of length x and no numpy
(`asympt --lattice square`).
"""

from __future__ import annotations

from typing import Sequence

from .dirichlet import ArithSeq, Preset

SQUARE = Preset(cross=0, r=3, w=2, shift=2, even=None, odd=2)


def b_square(N: int) -> ArithSeq:
    """Similar sublattices of the square lattice by index: the points of u^2 + v^2."""
    return SQUARE.similar(N)


def b_square_primitive(N: int) -> ArithSeq:
    """Primitive similar sublattices (similar count with square factors removed)."""
    return SQUARE.primitive(N)


def a_square(N: int) -> ArithSeq:
    """Well-rounded sublattices of the square lattice by index."""
    return SQUARE.counts(N)


def a_square_summatory(xs: Sequence[int]) -> list[int]:
    """A(x) = a(1) + ... + a(x) of `a_square` for each x in xs, exact:
    A(x) = B_4(x) + 2 S(x // 2; bpr, w_3) + 2 S(x; alt_2 * bpr, w_3^odd),
    each S the partial sum of a convolution by `hyperbola_sum`, on tables of
    about max(xs)^0.6 coefficients."""
    return SQUARE.summatory(xs)
