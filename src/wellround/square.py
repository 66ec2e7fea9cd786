"""Counting sublattices of the square lattice by geometric type.

Similar sublattices of Z[i] of index n are counted by the divisor sum of
the quadratic character mod 4.  Rhombic, centred rectangular and square
sublattices come in pairs of equal-norm generators z1, z2 with z1 + z2 = p z
and z1 - z2 = i q z for a primitive z, giving index pq|z|^2 / 2; restricting
p/q to the band where z1, z2 stay shortest (q^2 between p^2/3 and 3 p^2)
yields exactly the well-rounded ones.  All window inequalities are decided
by integer squaring; the boundary q^2 = 3 p^2 has no integer solutions.
"""

from __future__ import annotations

import numpy as np

from .dirichlet import (
    CHI_MINUS4,
    ArithSeq,
    alt_euler_factor,
    character_seq,
    convolve,
    delta_seq,
    inv_zeta_2s,
    ones_seq,
    pair_band,
    shift_support,
)


def b_square(N: int) -> ArithSeq:
    """Similar sublattices of the square lattice by index: sum of chi_4 over divisors."""
    return convolve(ones_seq(N), character_seq(CHI_MINUS4, N))


def b_square_primitive(N: int) -> ArithSeq:
    """Primitive similar sublattices (similar count with square factors removed)."""
    return convolve(inv_zeta_2s(N), b_square(N))


def rhombic_square_series(N: int) -> dict[str, ArithSeq]:
    """Counts of rhombic, centred rectangular and square sublattices combined.

    Returns the even-index stream, the odd-index stream, their sum, and the
    primitive-only variant of the sum.
    """
    bpr = b_square_primitive(N)
    zeta2 = convolve(ones_seq(N), ones_seq(N))
    base = convolve(zeta2, bpr)
    even = shift_support(base, 2)
    # odd indices: both generators odd, primitive part restricted to odd norm
    odd_zeta = ArithSeq(np.arange(1, N + 1) % 2)
    odd = convolve(
        convolve(odd_zeta, odd_zeta), convolve(alt_euler_factor(2, N), bpr)
    )
    total = even + odd
    primitive = convolve(inv_zeta_2s(N), total)
    return {"even": even, "odd": odd, "all": total, "primitive": primitive}


def primitive_type_series(N: int) -> dict[str, ArithSeq]:
    """Primitive square, rhombic-or-centred-rectangular and rectangular counts."""
    bpr = b_square_primitive(N)
    zeta2_over_zeta2s = convolve(convolve(ones_seq(N), ones_seq(N)), inv_zeta_2s(N))
    rect_factor = zeta2_over_zeta2s - delta_seq(N)
    rectangular = convolve(rect_factor, bpr)
    rhombic = rhombic_square_series(N)["primitive"] - bpr
    return {"square": bpr, "rhombic_cr": rhombic, "rectangular": rectangular}


def a_square(N: int) -> ArithSeq:
    """Well-rounded sublattices of the square lattice by index."""
    bpr = b_square_primitive(N)
    even = shift_support(convolve(pair_band(N, 3), bpr), 2).scale(2)
    odd = convolve(
        convolve(alt_euler_factor(2, N), pair_band(N, 3, odd=True)), bpr
    ).scale(2)
    return b_square(N) + even + odd


def fukshansky_superset_member(n: int) -> bool:
    """Membership in the larger candidate index set {pq|z|^2 : q <= p <= sqrt(3) q}."""
    return _in_index_family(n, require_odd=False)


def is_admissible_index_square(n: int) -> bool:
    """True iff some well-rounded sublattice of the square lattice has index n."""
    if n % 2 == 0:
        return _in_index_family(n // 2, require_odd=False)
    return _in_index_family(n, require_odd=True)


def _sum_of_two_squares(n: int) -> bool:
    # n = |z|^2 solvable iff every prime 3 mod 4 divides n evenly
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if p % 4 == 3 and e % 2:
                return False
        p += 1
    return not (n % 4 == 3)


def _in_index_family(n: int, require_odd: bool) -> bool:
    """n = p*q*m with q <= p <= sqrt(3) q (p^2 <= 3 q^2) and m a norm |z|^2."""
    if require_odd and n % 2 == 0:
        return False
    for m in range(1, n + 1):
        if n % m or not _sum_of_two_squares(m):
            continue
        r = n // m
        q = 1
        while q * q <= r:
            if r % q == 0:
                p = r // q
                if p * p <= 3 * q * q:
                    return True
            q += 1
    return False
