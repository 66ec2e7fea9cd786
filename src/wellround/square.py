"""Counting sublattices of the square lattice by geometric type.

Similar sublattices of Z[i] of index n are counted by the divisor sum of
the quadratic character mod 4.  Rhombic, centred rectangular and square
sublattices come in pairs of equal-norm generators z1, z2 with z1 + z2 = p z
and z1 - z2 = i q z for a primitive z, giving index pq|z|^2 / 2; restricting
p/q to the band where z1, z2 stay shortest (q^2 between p^2/3 and 3 p^2)
yields exactly the well-rounded ones.  All window inequalities are decided
by integer squaring; the boundary q^2 = 3 p^2 has no integer solutions.
`a_square(N)` gives every count to N; `a_square_summatory(xs)` gives the
partial sums A(x) from the same factors on tables of about x^(2/3)
coefficients, with no array of length x (`asympt --lattice square`).
"""

from __future__ import annotations

from typing import Sequence

from .dirichlet import (
    CHI_MINUS4,
    ArithSeq,
    alt_euler_factor,
    alt_powers,
    band_summatory,
    character_seq,
    convolve,
    divisor_summatory,
    hyperbola_sum,
    inv_zeta_2s,
    ones_seq,
    pair_band,
    shift_support,
    sparse_times,
    squares_moebius,
    summatory_length,
)


def b_square(N: int) -> ArithSeq:
    """Similar sublattices of the square lattice by index: sum of chi_4 over divisors."""
    return convolve(ones_seq(N), character_seq(CHI_MINUS4, N))


def b_square_primitive(N: int) -> ArithSeq:
    """Primitive similar sublattices (similar count with square factors removed)."""
    return convolve(inv_zeta_2s(N), b_square(N))


def a_square(N: int) -> ArithSeq:
    """Well-rounded sublattices of the square lattice by index."""
    bpr = b_square_primitive(N)
    even = shift_support(convolve(pair_band(N, 3), bpr), 2).scale(2)
    odd = convolve(
        convolve(alt_euler_factor(2, N), pair_band(N, 3, odd=True)), bpr
    ).scale(2)
    return b_square(N) + even + odd


def a_square_summatory(xs: Sequence[int]) -> list[int]:
    """A(x) = a(1) + ... + a(x) of `a_square` for each x in xs, exact:
    A(x) = B_4(x) + 2 S(x // 2; bpr, w_3) + 2 S(x; alt_2 * bpr, w_3^odd),
    each S the partial sum of a convolution by `hyperbola_sum`, on tables of
    about max(xs)^(2/3) coefficients."""
    x = max(xs)
    N = summatory_length(x)
    B = divisor_summatory(CHI_MINUS4, b_square(N))
    bpr = b_square_primitive(N)
    primitive = sparse_times(*squares_moebius(x), B, bpr)
    off_two = sparse_times(*alt_powers(2, x), primitive, convolve(alt_euler_factor(2, N), bpr))
    band, band_odd = band_summatory(N, 3), band_summatory(N, 3, odd=True)
    return [
        B(t) + 2 * hyperbola_sum(t // 2, primitive, band) + 2 * hyperbola_sum(t, off_two, band_odd)
        for t in xs
    ]
