"""Counting sublattices of the hexagonal lattice by geometric type.

Similar sublattices of the Eisenstein integers are counted by the divisor
sum of the quadratic character mod 3.  Well-rounded sublattices decompose
into the hexagonal ones (exactly the similar sublattices here; square type
is impossible) and rhombic ones parametrized by p, q of equal parity with
p < q < 3p and a primitive generator z, giving index pq|z|^2 (even case
scaled by 4) with a three-fold orientation multiplicity.  The parameter
pairs (p, q, z) and (3q, p, w) describe the same sublattice, which is
absorbed by restricting z away from the ramified prime, the 1/(1 + 3^{-s})
factor below.
"""

from __future__ import annotations

from .dirichlet import (
    CHI_MINUS3,
    ArithSeq,
    alt_euler_factor,
    character_seq,
    convolve,
    inv_zeta_2s,
    ones_seq,
    pair_band,
    shift_support,
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
