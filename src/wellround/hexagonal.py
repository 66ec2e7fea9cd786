"""Counting sublattices of the hexagonal lattice by geometric type.

Similar sublattices of the Eisenstein integers are counted by the divisor
sum of the quadratic character mod 3.  Well-rounded sublattices decompose
into the hexagonal ones (exactly the similar sublattices here; square type
is impossible) and rhombic ones parametrized by p, q of equal parity with
p < q < 3p and a primitive generator z, giving index pq|z|^2 (even case
scaled by 4) with a three-fold orientation multiplicity.  The parameter
pairs (p, q, z) and (3q, p, w) describe the same sublattice, which is
absorbed by restricting z away from the ramified prime, the 1/(1 + 3^{-s})
factor below.  `a_hex(N)` gives every count to N; `a_hex_summatory(xs)`
gives the partial sums A(x) from the same factors on tables of about
x^(2/3) coefficients, with no array of length x (`asympt --lattice hex`).
"""

from __future__ import annotations

from typing import Sequence

from .dirichlet import (
    CHI_MINUS3,
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


def b_hex(N: int) -> ArithSeq:
    """Similar sublattices of the hexagonal lattice by index."""
    return convolve(ones_seq(N), character_seq(CHI_MINUS3, N))


def b_hex_primitive(N: int) -> ArithSeq:
    return convolve(inv_zeta_2s(N), b_hex(N))


def a_hex(N: int) -> ArithSeq:
    """Well-rounded sublattices of the hexagonal lattice by index."""
    bpr_off_ramified = convolve(alt_euler_factor(3, N), b_hex_primitive(N))
    even = shift_support(convolve(pair_band(N, 9), bpr_off_ramified), 4).scale(3)
    odd = convolve(pair_band(N, 9, odd=True), bpr_off_ramified).scale(3)
    return b_hex(N) + even + odd


def a_hex_summatory(xs: Sequence[int]) -> list[int]:
    """A(x) = a(1) + ... + a(x) of `a_hex` for each x in xs, exact:
    A(x) = B_3(x) + 3 S(x // 4; bpr', w_9) + 3 S(x; bpr', w_9^odd) with
    bpr' = alt_3 * bpr, each S the partial sum of a convolution by
    `hyperbola_sum`, on tables of about max(xs)^(2/3) coefficients."""
    x = max(xs)
    N = summatory_length(x)
    B = divisor_summatory(CHI_MINUS3, b_hex(N))
    bpr = b_hex_primitive(N)
    primitive = sparse_times(*squares_moebius(x), B, bpr)
    off_ramified = sparse_times(*alt_powers(3, x), primitive, convolve(alt_euler_factor(3, N), bpr))
    band, band_odd = band_summatory(N, 9), band_summatory(N, 9, odd=True)
    return [
        B(t) + 3 * hyperbola_sum(t // 4, off_ramified, band) + 3 * hyperbola_sum(t, off_ramified, band_odd)
        for t in xs
    ]
