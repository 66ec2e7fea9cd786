"""Counting sublattices of the hexagonal lattice by geometric type.

Similar sublattices of the Eisenstein integers of index n are the points
u >= 1, v >= 0 of their norm form u^2 + uv + v^2 = n, as many as the
divisor sum of chi_-3.  Well-rounded sublattices decompose into the
hexagonal ones (exactly the similar sublattices here; square type is
impossible) and rhombic ones parametrized by p, q of equal parity with
p < q < 3p and a primitive generator z, giving index pq|z|^2 (even case
scaled by 4) with a three-fold orientation multiplicity.  The parameter
pairs (p, q, z) and (3q, p, w) describe the same sublattice, which is
absorbed by restricting z away from the ramified prime, the 1/(1 + 3^{-s})
factor below.  The counts are `dirichlet.Preset`'s identity on the data
`HEXAGONAL`: `a_hex(N)` gives every count to N; `a_hex_summatory(xs)`
gives the partial sums A(x) from the same factors on plain-Python tables of
about x^0.6 coefficients, with no array of length x and no numpy
(`asympt --lattice hex`).
"""

from __future__ import annotations

from typing import Sequence

from .dirichlet import ArithSeq, Preset

HEXAGONAL = Preset(cross=1, r=9, w=3, shift=4, even=3, odd=3)


def b_hex(N: int) -> ArithSeq:
    """Similar sublattices of the hexagonal lattice by index: the points of u^2 + uv + v^2."""
    return HEXAGONAL.similar(N)


def b_hex_primitive(N: int) -> ArithSeq:
    return HEXAGONAL.primitive(N)


def a_hex(N: int) -> ArithSeq:
    """Well-rounded sublattices of the hexagonal lattice by index."""
    return HEXAGONAL.counts(N)


def a_hex_summatory(xs: Sequence[int]) -> list[int]:
    """A(x) = a(1) + ... + a(x) of `a_hex` for each x in xs, exact:
    A(x) = B_3(x) + 3 S(x // 4; bpr', w_9) + 3 S(x; bpr', w_9^odd) with
    bpr' = alt_3 * bpr, each S the partial sum of a convolution by
    `hyperbola_sum`, on tables of about max(xs)^0.6 coefficients."""
    return HEXAGONAL.summatory(xs)
