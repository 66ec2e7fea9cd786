"""Exact scalars of the form r + i*sqrt(D).

All lattice data in this package (Gram entries, squared lengths, window
bounds) lives in a single real quadratic extension Q(sqrt(D)) with D a fixed
squarefree positive integer, or in Q itself.  Every comparison is decided
exactly by case analysis and integer squaring; no floating point enters any
counting path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


class MixedRadicandError(ValueError):
    """Raised when combining scalars from different quadratic extensions."""


class NotRationalError(ValueError):
    """Raised when an exact rational value is required but absent."""


def _is_squarefree(n: int) -> bool:
    if n <= 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


class Scalar:
    """Immutable exact number r + i*sqrt(D), with r, i rational.

    ``D`` is None for pure rationals.  Arithmetic is closed within one
    extension; mixing two distinct D values raises MixedRadicandError.
    """

    __slots__ = ("rat", "irr", "root")

    def __init__(self, rat: Rat = 0, irr: Rat = 0, root: int | None = None):
        rat = Fraction(rat)
        irr = Fraction(irr)
        if irr == 0:
            root = None
        elif root is None:
            raise ValueError("irrational part requires a radicand D")
        elif not _is_squarefree(root) or root == 1:
            raise ValueError(f"radicand must be squarefree and > 1, got {root}")
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "irr", irr)
        object.__setattr__(self, "root", root)

    def __setattr__(self, *args):
        raise AttributeError("Scalar is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def of(x: "Scalar | Rat") -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(Fraction(x))

    @staticmethod
    def sqrt(D: int, coeff: Rat = 1) -> "Scalar":
        """coeff * sqrt(D) for squarefree D > 1."""
        return Scalar(0, coeff, D)

    # -- predicates -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.irr == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise NotRationalError(f"{self} is irrational")
        return self.rat

    # -- arithmetic -----------------------------------------------------------

    def _join_root(self, other: "Scalar") -> int | None:
        if self.root is None:
            return other.root
        if other.root is None or other.root == self.root:
            return self.root
        raise MixedRadicandError(
            f"cannot mix sqrt({self.root}) and sqrt({other.root})"
        )

    def __add__(self, other):
        other = Scalar.of(other)
        root = self._join_root(other)
        return Scalar(self.rat + other.rat, self.irr + other.irr, root)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.rat, -self.irr, self.root)

    def __sub__(self, other):
        return self + (-Scalar.of(other))

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __mul__(self, other):
        other = Scalar.of(other)
        root = self._join_root(other)
        D = root if root is not None else 0
        rat = self.rat * other.rat + self.irr * other.irr * D
        irr = self.rat * other.irr + self.irr * other.rat
        return Scalar(rat, irr, root if irr != 0 else None)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.of(other)
        if other.sign() == 0:
            raise ZeroDivisionError("division by zero Scalar")
        # multiply by the conjugate: 1/(r + i sqrt D) = (r - i sqrt D)/(r^2 - i^2 D)
        D = other.root if other.root is not None else 0
        norm = other.rat * other.rat - other.irr * other.irr * D
        conj = Scalar(other.rat / norm, -other.irr / norm, other.root)
        return self * conj

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    # -- exact ordering -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        r, i = self.rat, self.irr
        if i == 0:
            return (r > 0) - (r < 0)
        if r == 0:
            return 1 if i > 0 else -1
        D = self.root
        if r > 0 and i > 0:
            return 1
        if r < 0 and i < 0:
            return -1
        # opposite signs: compare r^2 against i^2 D
        lhs, rhs = r * r, i * i * D
        if r > 0:  # i < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if rhs > lhs else (-1 if rhs < lhs else 0)

    def _cmp(self, other) -> int:
        return (self - Scalar.of(other)).sign()

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except (MixedRadicandError, TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.irr == 0:
            return hash(self.rat)
        return hash((self.rat, self.irr, self.root))

    # -- integer part ---------------------------------------------------------

    def __float__(self) -> float:
        v = float(self.rat)
        if self.irr != 0:
            v += float(self.irr) * math.sqrt(self.root)
        return v

    def floor(self) -> int:
        """Exact floor, via a float seed corrected by exact comparisons."""
        if self.irr == 0:
            return self.rat.numerator // self.rat.denominator
        f = math.floor(float(self))
        while self._cmp(f) < 0:
            f -= 1
        while self._cmp(f + 1) >= 0:
            f += 1
        return f

    def isqrt(self) -> int:
        """Exact floor of the square root; ValueError for a negative value.

        floor(sqrt(v)) = isqrt(floor(v)) for every real v >= 0, so the exact
        floor above settles it, and floor(v) < 0 exactly when v < 0.
        """
        return math.isqrt(self.floor())

    def is_square_rational(self) -> bool:
        """True iff the value is the square of a rational."""
        if not self.is_rational or self.rat < 0:
            return False
        p, q = self.rat.numerator, self.rat.denominator
        return math.isqrt(p) ** 2 == p and math.isqrt(q) ** 2 == q

    def sqrt_rational(self) -> Fraction:
        """Exact rational square root; caller must check is_square_rational."""
        p, q = self.rat.numerator, self.rat.denominator
        return Fraction(math.isqrt(p), math.isqrt(q))

    # -- formatting / serialization ------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if self.irr == 0:
            return str(self.rat)
        tail = f"sqrt({self.root})" if abs(self.irr) == 1 else f"{abs(self.irr)}*sqrt({self.root})"
        sgn = "-" if self.irr < 0 else ("+" if self.rat != 0 else "")
        if self.rat == 0:
            return f"{sgn}{tail}"
        return f"{self.rat}{sgn if sgn else '+'}{tail}"

    def to_json(self):
        """Exact JSON form: "p/q" for rationals, object with D otherwise."""
        if self.irr == 0:
            return str(self.rat)
        return {"rat": str(self.rat), "irr": str(self.irr), "D": self.root}

    @staticmethod
    def from_json(obj) -> "Scalar":
        if isinstance(obj, dict):
            return Scalar(Fraction(obj["rat"]), Fraction(obj["irr"]), int(obj["D"]))
        if isinstance(obj, str):
            return Scalar.parse(obj)
        return Scalar(Fraction(obj))

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse "p/q", "sqrt(D)", "r/s*sqrt(D)", "c*sqrt(D)/s" and sums like
        "1+2*sqrt(2)" or "1+sqrt(5)/2"."""
        text = text.strip().replace(" ", "")
        if not text:
            raise ValueError("empty scalar")
        # split into at most two signed terms; a sign after e or E is an exponent's
        terms = []
        start = 0
        for pos in range(1, len(text)):
            if text[pos] in "+-" and text[pos - 1] not in "+-*/(eE":
                terms.append(text[start:pos])
                start = pos
        terms.append(text[start:])
        total = Scalar(0)
        for term in terms:
            total = total + Scalar._parse_term(term)
        return total

    @staticmethod
    def _parse_term(term: str) -> "Scalar":
        neg = term.startswith("-")
        term = term.lstrip("+-")
        try:
            if "sqrt" in term:
                coeff_part, _, root_part = term.partition("sqrt")
                root_part, _, divisor = root_part.partition("/")
                coeff = Fraction(coeff_part.rstrip("*") or 1) / Fraction(divisor or 1)
                val = Scalar(0, coeff, int(root_part.strip("()")))
            else:
                val = Scalar(Fraction(term))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {term!r}") from None
        return -val if neg else val

