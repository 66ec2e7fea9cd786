"""Planar lattices as exact 2x2 Gram forms.

A lattice is represented by the Gram matrix [[a, b], [b, c]] of some basis
(v, w), with a = |v|^2, b = (v, w), c = |w|^2 stored as exact Scalars.
Lagrange (two-dimensional Gauss) reduction brings any positive definite form
to the canonical chain 0 <= 2b <= a <= c, from which the geometric type
(general / rectangular / centred rectangular / rhombic / square / hexagonal)
is read off the equality pattern.  A planar lattice is well-rounded exactly
when its reduced form has a = c.

There is one reduction loop per field, on integer data (`_integer_pairs`: the
form scaled by the common denominator L of its six rational parts, each entry
x + y sqrt(D) with integers x, y): `_reduce_int` on plain ints for forms over
Q, and `_reduce_pair` on integer pairs for forms over Q(sqrt(D)), which
decides signs by integer squaring and round(b/a) by `_floor_pair`, the one
exact floor of (p + q sqrt(D)) / w; the window rows of `general` use it too.
Since sqrt(D) is irrational, two pairs are equal exactly when their
components are, so `_classify_pair` reads the type off component-wise.  The
census calls the loops directly; `gauss_reduce` is their Scalar-facing
wrapper, which divides the reduced entries by L again.  `general` decides
the lattice's rationality class on the same pairs.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction

from .scalar import MixedRadicandError, Rat, Scalar, _sign_pair


class NotPositiveDefiniteError(ValueError):
    """Gram form with a <= 0 or ac - b^2 <= 0."""


class LatticeType(enum.Enum):
    # members are singletons compared by identity, so the identity hash agrees
    # with ==; it spares each dict lookup (one per census tally) the
    # Python-level Enum.__hash__
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

    def discriminant(self) -> Scalar:
        return self.a * self.c - self.b * self.b

    def check_positive_definite(self) -> None:
        if self.a.sign() <= 0 or self.discriminant().sign() <= 0:
            raise NotPositiveDefiniteError(f"not positive definite: {self}")

    def scale(self, factor) -> "GramForm":
        f = Scalar.of(factor)
        return GramForm(self.a * f, self.b * f, self.c * f)

    def value(self, x: int | Rat, y: int | Rat) -> Scalar:
        """Quadratic form value a x^2 + 2b xy + c y^2."""
        return self.a * x * x + self.b * (2 * x * y) + self.c * y * y

    def transform(self, U: tuple) -> "GramForm":
        """Gram form of the basis with columns of the 2x2 integer matrix
        U = ((p, q), (r, s)): U^T G U."""
        (p, q), (r, s) = U
        a = self.value(p, r)
        c = self.value(q, s)
        b = self.a * (p * q) + self.b * (p * s + q * r) + self.c * (r * s)
        return GramForm(a, b, c)

    def to_json(self) -> dict:
        return {"a": self.a.to_json(), "b": self.b.to_json(), "c": self.c.to_json()}

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.b}, {self.c}]]"


def gauss_reduce(g: GramForm) -> GramForm:
    """Lagrange-reduce g: the form 0 <= 2b <= a <= c of the same lattice.

    The reduction runs on g's integer pairs, by `_reduce_int` over Q and by
    `_reduce_pair` over Q(sqrt(D)); scaling by L > 0 commutes with every
    step, so dividing the result by L gives the reduced form of g.
    """
    g.check_positive_definite()
    D, L, ((ax, ay), (bx, by), (cx, cy)) = _integer_pairs((g.a, g.b, g.c))
    if D is None:
        return GramForm(*(Scalar(Fraction(x, L)) for x in _reduce_int(ax, bx, cx)))
    r = _reduce_pair(ax, ay, bx, by, cx, cy, D)
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


def _integer_pairs(
    entries: tuple[Scalar, ...],
) -> tuple[int | None, int, tuple[tuple[int, int], ...]]:
    """(D, L, pairs): the entries scaled by the common denominator L of their
    rational parts, each entry x + y sqrt(D) as a pair (x, y) of integers.

    D is None for entries in Q (every y is then 0).  Scaling a form by L > 0
    changes no reduction step and no equality, so the scaled form has the
    form's type.  Entries from two different fields raise MixedRadicandError.
    """
    roots = list(dict.fromkeys(e.root for e in entries if e.root is not None))
    if len(roots) > 1:
        raise MixedRadicandError(f"cannot mix sqrt({roots[0]}) and sqrt({roots[1]})")
    L = math.lcm(*(part.denominator for e in entries for part in (e.rat, e.irr)))
    pairs = tuple((int(e.rat * L), int(e.irr * L)) for e in entries)
    return (roots[0] if roots else None), L, pairs


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


def _type_of(a_is_c: bool, b_is_0: bool, a_is_2b: bool) -> LatticeType:
    """Geometric type from the equality pattern of a reduced form."""
    if b_is_0:
        return LatticeType.SQUARE if a_is_c else LatticeType.RECTANGULAR
    if a_is_c:
        # |v - w|^2 = 2a - 2b equals a exactly when a = 2b
        return LatticeType.HEXAGONAL if a_is_2b else LatticeType.RHOMBIC
    return LatticeType.CENTRED_RECTANGULAR if a_is_2b else LatticeType.GENERAL


def classify_reduced(a, b, c) -> LatticeType:
    """Geometric type from reduced entries satisfying 0 <= 2b <= a <= c."""
    return _type_of(a == c, b == 0, a == b * 2)


def _classify_pair(ax: int, ay: int, bx: int, by: int, cx: int, cy: int) -> LatticeType:
    """classify_reduced for integer-pair entries, compared component-wise."""
    return _type_of(ax == cx and ay == cy, bx == 0 and by == 0, ax == 2 * bx and ay == 2 * by)


def classify(g: GramForm) -> LatticeType:
    r = gauss_reduce(g)
    return classify_reduced(r.a, r.b, r.c)


SQUARE_GRAM = GramForm.of(1, 0, 1)
HEXAGONAL_GRAM = GramForm.of(2, 1, 2)
