"""Planar lattices as exact 2x2 Gram forms.

A lattice is represented by the Gram matrix [[a, b], [b, c]] of some basis
(v, w), with a = |v|^2, b = (v, w), c = |w|^2 given as Scalars.
Lagrange (two-dimensional Gauss) reduction brings any positive definite form
to the canonical chain 0 <= 2b <= a <= c, from which the geometric type
(general / rectangular / centred rectangular / rhombic / square / hexagonal)
is read off the equality pattern.  A planar lattice is well-rounded exactly
when its reduced form has a = c.

Every exact computation enters through `_checked_pairs`: it scales the form
by the common denominator L of its six rational parts, writes each entry
x + y sqrt(D) as a pair (x, y) of integers, and refuses a form that is not
positive definite or whose entries lie in two fields.  There is one
reduction loop per field on these pairs: `_reduce_int` on plain ints for
forms over Q, and `_reduce_pair` on integer pairs for forms over
Q(sqrt(D)), which decides signs by `_sign_pair` (integer squaring) and
round(b/a) by `_floor_pair`, the one exact floor of (p + q sqrt(D)) / w; the
window rows of `general` use it too.  Since sqrt(D) is irrational, two
pairs are equal exactly when their components are, so `_classify_pair`
reads the type off component-wise.  The census inlines the loop over Q and
calls `_reduce_pair`; `gauss_reduce` divides the reduced pairs by L again
to give Scalars.
`general` decides the lattice's rationality class on the same pairs.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction

from .scalar import MixedRadicandError, Scalar

Pair = tuple[int, int]


class NotPositiveDefiniteError(ValueError):
    """Gram form with a <= 0 or ac - b^2 <= 0."""


class LatticeType(enum.Enum):
    # members are singletons compared by identity, so the identity hash agrees
    # with ==; it spares each dict lookup (one per census sublattice over
    # Q(sqrt(D))) the Python-level Enum.__hash__
    __hash__ = object.__hash__

    GENERAL = "general"
    RECTANGULAR = "rectangular"
    CENTRED_RECTANGULAR = "centred_rectangular"
    RHOMBIC = "rhombic"
    SQUARE = "square"
    HEXAGONAL = "hexagonal"


class GramForm(namedtuple("GramForm", "a b c")):
    """Symmetric positive definite form; only the three distinct entries."""

    __slots__ = ()

    @staticmethod
    def of(a, b, c) -> "GramForm":
        return GramForm(Scalar.of(a), Scalar.of(b), Scalar.of(c))

    def to_json(self) -> dict:
        return {"a": self.a.to_json(), "b": self.b.to_json(), "c": self.c.to_json()}

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.b}, {self.c}]]"


def _sign_pair(x: int, y: int, D: int | None) -> int:
    """Exact sign of x + y sqrt(D) for integers x, y, by integer squaring;
    D may be None when y = 0."""
    if x >= 0 and y >= 0:
        return 1 if x or y else 0
    if x <= 0 and y <= 0:
        return -1
    # opposite signs; x^2 = y^2 D is impossible for squarefree D > 1, y != 0
    d = x * x - y * y * D
    return (d > 0) - (d < 0) if x > 0 else (d < 0) - (d > 0)


def _join(r: int | None, s: int | None) -> int | None:
    """The radicand of a sum or product of values over sqrt(r) and sqrt(s),
    None standing for Q."""
    if r and s and r != s:
        raise MixedRadicandError(f"cannot mix sqrt({r}) and sqrt({s})")
    return r or s


def _checked_pairs(g: GramForm) -> tuple[int | None, int, tuple[Pair, Pair, Pair]]:
    """(D, L, pairs): g's entries scaled by the common denominator L of their
    rational parts, each entry x + y sqrt(D) as a pair (x, y) of integers; D
    is None for a form over Q (every y is then 0).

    The one way into exact work.  It refuses, in this order, a <= 0, an a c
    whose two factors lie in two fields, an a c and a b^2 that lie in two
    fields, ac - b^2 <= 0 (NotPositiveDefiniteError; signs by `_sign_pair`
    on the pairs times L^2), and last three entries from two fields
    (MixedRadicandError, naming the first two radicands in entry order).
    Scaling a form by L > 0 changes no reduction step and no equality, so
    the pairs have the form's type.
    """
    a, b, c = g
    L = math.lcm(*(part.denominator for e in g for part in (e.rat, e.irr)))
    pairs = tuple((int(e.rat * L), int(e.irr * L)) for e in g)
    (ax, ay), (bx, by), (cx, cy) = pairs
    if _sign_pair(ax, ay, a.root) <= 0:
        raise NotPositiveDefiniteError(f"not positive definite: {g}")
    # a c and b^2, each in its own field until they are subtracted
    D = _join(a.root, c.root)
    acx, acy = ax * cx + ay * cy * (D or 0), ax * cy + ay * cx
    bbx, bby = bx * bx + by * by * (b.root or 0), 2 * bx * by
    D = _join(D if acy else None, b.root if bby else None)
    if _sign_pair(acx - bbx, acy - bby, D) <= 0:
        raise NotPositiveDefiniteError(f"not positive definite: {g}")
    return _join(_join(a.root, b.root), c.root), L, pairs


def _reduced_pairs(g: GramForm) -> tuple[int | None, int, tuple[int, ...]]:
    """(D, L, (ax, ay, bx, by, cx, cy)): the reduced form of g's integer
    pairs, by `_reduce_int` over Q and by `_reduce_pair` over Q(sqrt(D))."""
    D, L, ((ax, ay), (bx, by), (cx, cy)) = _checked_pairs(g)
    if D is None:
        a, b, c = _reduce_int(ax, bx, cx)
        return D, L, (a, 0, b, 0, c, 0)
    return D, L, _reduce_pair(ax, ay, bx, by, cx, cy, D)


def gauss_reduce(g: GramForm) -> GramForm:
    """Lagrange-reduce g: the form 0 <= 2b <= a <= c of the same lattice.

    Scaling by L > 0 commutes with every step of the reduction on g's
    integer pairs, so dividing the result by L gives the reduced form of g.
    """
    D, L, r = _reduced_pairs(g)
    return GramForm(*(Scalar(Fraction(x, L), Fraction(y, L), D) for x, y in zip(r[::2], r[1::2])))


def _reduce_int(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Lagrange reduction of an integer form (a, b, c).

    Loop: swap so a <= c, shear w <- w - round(b/a) v, flip the sign of w to
    make b >= 0.  The first entry strictly decreases whenever a step changes
    it, and takes values in a discrete set, so the loop terminates with
    0 <= 2b <= a <= c.
    """
    while True:
        if a > c:
            a, c = c, a
        # round(b/a) = floor(b/a + 1/2)
        m = (2 * b + a) // (2 * a)
        if m:
            b, c = b - m * a, c - 2 * m * b + m * m * a
        if b < 0:
            b = -b
        if a <= c and 2 * b <= a:
            return a, b, c


def _floor_pair(p: int, q: int, w: int, D: int | None) -> int:
    """floor((p + q sqrt(D)) / w) for w > 0, exactly; D may be None when q = 0.

    floor((p + y) / w) = (p + floor(y)) // w for real y, and floor(q sqrt(D))
    is an integer square root: q^2 D is not a square for q != 0, so it is
    isqrt(q^2 D) for q >= 0 and -isqrt(q^2 D) - 1 for q < 0.
    """
    if not q:
        return p // w
    root = math.isqrt(q * q * D)
    return (p + (root if q > 0 else -root - 1)) // w


def _round_half_pair(bx: int, by: int, ax: int, ay: int, D: int) -> int:
    """round(b/a) = floor((2b + a) / 2a) for a > 0, exactly.

    Multiplying by the conjugate of a gives (p + q sqrt(D)) / w with integers
    p, q and w = 2 N(a) != 0, whose floor `_floor_pair` takes once w > 0.
    The result m satisfies (2m - 1)a <= 2b < (2m + 1)a.
    """
    ux, uy = 2 * bx + ax, 2 * by + ay
    p = ux * ax - uy * ay * D
    q = uy * ax - ux * ay
    w = 2 * (ax * ax - ay * ay * D)
    if w < 0:
        p, q, w = -p, -q, -w
    return _floor_pair(p, q, w, D)


def _reduce_pair(
    ax: int, ay: int, bx: int, by: int, cx: int, cy: int, D: int
) -> tuple[int, int, int, int, int, int]:
    """_reduce_int over Z[sqrt(D)]: entries are integer pairs (x, y) = x + y sqrt(D).

    After the shear, -a <= 2b < a, so once b is made nonnegative 2b <= a
    holds and only a <= c is left to test.
    """
    while True:
        if _sign_pair(ax - cx, ay - cy, D) > 0:
            ax, ay, cx, cy = cx, cy, ax, ay
        m = _round_half_pair(bx, by, ax, ay, D)
        if m:
            bx, by, cx, cy = (
                bx - m * ax,
                by - m * ay,
                cx - 2 * m * bx + m * m * ax,
                cy - 2 * m * by + m * m * ay,
            )
        if _sign_pair(bx, by, D) < 0:
            bx, by = -bx, -by
        if _sign_pair(ax - cx, ay - cy, D) <= 0:
            return ax, ay, bx, by, cx, cy


def _classify_pair(ax: int, ay: int, bx: int, by: int, cx: int, cy: int) -> LatticeType:
    """Geometric type of a reduced form of integer pairs, from the equality
    pattern of its entries, compared component-wise."""
    a_is_c = ax == cx and ay == cy
    if not (bx or by):
        return LatticeType.SQUARE if a_is_c else LatticeType.RECTANGULAR
    a_is_2b = ax == 2 * bx and ay == 2 * by
    if a_is_c:
        # |v - w|^2 = 2a - 2b equals a exactly when a = 2b
        return LatticeType.HEXAGONAL if a_is_2b else LatticeType.RHOMBIC
    return LatticeType.CENTRED_RECTANGULAR if a_is_2b else LatticeType.GENERAL


def classify(g: GramForm) -> LatticeType:
    return _classify_pair(*_reduced_pairs(g)[2])


SQUARE_GRAM = GramForm.of(1, 0, 1)
HEXAGONAL_GRAM = GramForm.of(2, 1, 2)
