"""Planar lattices as exact 2x2 Gram forms.

A lattice is represented by the Gram matrix [[a, b], [b, c]] of some basis
(v, w), with a = |v|^2, b = (v, w), c = |w|^2 stored as exact Scalars.
Lagrange (two-dimensional Gauss) reduction brings any positive definite form
to the canonical chain 0 <= 2b <= a <= c, from which the geometric type
(general / rectangular / centred rectangular / rhombic / square / hexagonal)
is read off the equality pattern.  A planar lattice is well-rounded exactly
when its reduced form has a = c.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .scalar import Rat, Scalar


class NotPositiveDefiniteError(ValueError):
    """Gram form with a <= 0 or ac - b^2 <= 0."""


class LatticeType(enum.Enum):
    GENERAL = "general"
    RECTANGULAR = "rectangular"
    CENTRED_RECTANGULAR = "centred_rectangular"
    RHOMBIC = "rhombic"
    SQUARE = "square"
    HEXAGONAL = "hexagonal"


WELL_ROUNDED_TYPES = frozenset(
    {LatticeType.RHOMBIC, LatticeType.SQUARE, LatticeType.HEXAGONAL}
)


@dataclass(frozen=True)
class GramForm:
    """Symmetric positive definite form; only the three distinct entries."""

    a: Scalar
    b: Scalar
    c: Scalar

    @staticmethod
    def of(a, b, c) -> "GramForm":
        return GramForm(Scalar.of(a), Scalar.of(b), Scalar.of(c))

    @staticmethod
    def from_matrix(rows) -> "GramForm":
        (a, b), (b2, c) = rows
        if Scalar.of(b) != Scalar.of(b2):
            raise ValueError("Gram matrix must be symmetric")
        return GramForm.of(a, b, c)

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

    def inner(self, u, v) -> Scalar:
        """Bilinear form of coordinate vectors u, v."""
        return (
            self.a * (u[0] * v[0])
            + self.b * (u[0] * v[1] + u[1] * v[0])
            + self.c * (u[1] * v[1])
        )

    def transform(self, U: "Unimodular | tuple") -> "GramForm":
        """Gram form of the basis with columns of U: U^T G U."""
        m = U.m if isinstance(U, Unimodular) else U
        (p, q), (r, s) = m
        a = self.value(p, r)
        c = self.value(q, s)
        b = self.a * (p * q) + self.b * (p * s + q * r) + self.c * (r * s)
        return GramForm(a, b, c)

    def is_integral(self) -> bool:
        return all(
            e.is_rational and e.rat.denominator == 1 for e in (self.a, self.b, self.c)
        )

    def to_json(self) -> dict:
        return {"a": self.a.to_json(), "b": self.b.to_json(), "c": self.c.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "GramForm":
        return GramForm(
            Scalar.from_json(obj["a"]),
            Scalar.from_json(obj["b"]),
            Scalar.from_json(obj["c"]),
        )

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.b}, {self.c}]]"


@dataclass(frozen=True)
class Unimodular:
    """2x2 integer matrix with determinant +-1 (basis-change bookkeeping)."""

    m: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        (p, q), (r, s) = self.m
        if abs(p * s - q * r) != 1:
            raise ValueError(f"not unimodular: {self.m}")

    @staticmethod
    def identity() -> "Unimodular":
        return Unimodular(((1, 0), (0, 1)))

    def __matmul__(self, other: "Unimodular") -> "Unimodular":
        (a, b), (c, d) = self.m
        (e, f), (g, h) = other.m
        return Unimodular(((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)))


_SWAP = Unimodular(((0, 1), (1, 0)))
_FLIP = Unimodular(((1, 0), (0, -1)))


def gauss_reduce(g: GramForm) -> tuple[GramForm, Unimodular]:
    """Lagrange-reduce g; returns (reduced form, U) with U^T g U reduced.

    Loop: swap so a <= c, shear w <- w - round(b/a) v, flip the sign of w to
    make b >= 0.  The first entry strictly decreases whenever a step changes
    it, and takes values in a discrete set, so the loop terminates with
    0 <= 2b <= a <= c.
    """
    g.check_positive_definite()
    a, b, c = g.a, g.b, g.c
    U = Unimodular.identity()
    while True:
        if (a - c).sign() > 0:
            a, c = c, a
            U = U @ _SWAP
        m = (b / a).round_half()
        if m != 0:
            # w' = w - m v
            b2 = b - a * m
            c = c - b * (2 * m) + a * (m * m)
            b = b2
            U = U @ Unimodular(((1, -m), (0, 1)))
        if b.sign() < 0:
            b = -b
            U = U @ _FLIP
        if (a - c).sign() <= 0 and (b * 2 - a).sign() <= 0:
            return GramForm(a, b, c), U


def _reduce_int(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Fast path of gauss_reduce for plain integer entries, no basis tracking."""
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


def classify_reduced(a, b, c) -> LatticeType:
    """Geometric type from reduced entries satisfying 0 <= 2b <= a <= c."""
    eq_ac = a == c
    if b == 0:
        return LatticeType.SQUARE if eq_ac else LatticeType.RECTANGULAR
    if eq_ac:
        # |v - w|^2 = 2a - 2b equals a exactly when a = 2b
        return LatticeType.HEXAGONAL if a == b * 2 else LatticeType.RHOMBIC
    return LatticeType.CENTRED_RECTANGULAR if a == b * 2 else LatticeType.GENERAL


def classify(g: GramForm) -> LatticeType:
    r, _ = gauss_reduce(g)
    return classify_reduced(r.a, r.b, r.c)


def is_well_rounded(g: GramForm) -> bool:
    return classify(g) in WELL_ROUNDED_TYPES


def discriminant(g: GramForm) -> Scalar:
    return g.discriminant()


def is_rational(g: GramForm) -> bool:
    """True iff some positive multiple of g has all-rational entries.

    Scaling by 1/a makes the first entry 1, so the class is rational exactly
    when b/a and c/a are both rational.
    """
    return (g.b / g.a).is_rational and (g.c / g.a).is_rational


def rational_normalize(g: GramForm) -> tuple[GramForm, Fraction]:
    """Scale a rational-class form to integral entries with gcd 1.

    Returns (integral primitive form, applied scale factor as a Fraction of
    the normalized-by-a form); raises NotRationalError via as_fraction if the
    class is not rational.
    """
    from math import gcd

    ba = (g.b / g.a).as_fraction()
    ca = (g.c / g.a).as_fraction()
    lcm = ba.denominator * ca.denominator // gcd(ba.denominator, ca.denominator)
    a, b, c = lcm, ba * lcm, ca * lcm
    ints = [int(a), int(b), int(c)]
    d = gcd(gcd(abs(ints[0]), abs(ints[1])), abs(ints[2]))
    ints = [v // d for v in ints]
    return GramForm.of(*ints), Fraction(lcm, d)


SQUARE_GRAM = GramForm.of(1, 0, 1)
HEXAGONAL_GRAM = GramForm.of(2, 1, 2)
