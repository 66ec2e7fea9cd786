"""Exact scalars of the form r + i*sqrt(D), as they are read and printed.

All lattice data in this package (Gram entries, squared lengths, window
bounds) lives in a single real quadratic extension Q(sqrt(D)) with D a fixed
squarefree integer, 1 < D <= MAX_RADICAND, or in Q itself.  A `Scalar` is
one such value at the edges of a computation: parsed from the command line
or JSON, printed, serialized, or turned into a float.  It has no arithmetic.
Every exact decision runs on integer pairs x + y sqrt(D) over one common
denominator, which `gram._checked_pairs` makes from a Gram form's three
Scalars; comparisons there are decided by integer squaring, and no floating
point enters any counting path.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

Rat = int | Fraction

# the largest radicand D accepted; the squarefree test runs on every Scalar
# construction and takes about sqrt(D) trial divisions, a few ms at 10^9
MAX_RADICAND = 10**9
# the decimal exponent of a literal such as "2.5e-3", as Fraction reads it
_EXPONENT = r"[eE]([-+]?\d+(?:_\d+)*)\s*$"


class MixedRadicandError(ValueError):
    """Raised when combining scalars from different quadratic extensions."""


class NotRationalError(ValueError):
    """Raised when an exact rational value is required but absent."""


class InvariantError(ValueError):
    """An identity of the counting theory failed; the computation is wrong."""


def _fraction(value) -> Fraction:
    """Fraction(value), refusing a decimal exponent above the interpreter's
    integer string limit (4300 digits by default) before Fraction builds a
    power of ten that large, and an infinite or NaN float, which Fraction
    refuses with an OverflowError or a ValueError of its own.  The pattern
    is compiled only for a string with an e in it."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite value {value}")
    m = isinstance(value, str) and "e" in value.lower() and re.search(_EXPONENT, value)
    if m:
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if abs(int(m[1])) > limit:
            raise ValueError(f"exponent of {value!r} is above {limit}")
    return Fraction(value)


def _json_number(value) -> Fraction:
    """A JSON number, or a string as `_fraction` reads it, as a Fraction.  A
    boolean is refused, and so is a float that is not an integer: JSON
    carries it as a binary fraction, not as the decimal it was written as."""
    if isinstance(value, bool):
        raise ValueError(f"boolean entry {str(value).lower()}")
    if isinstance(value, float) and math.isfinite(value) and not value.is_integer():
        raise ValueError(f'non-exact entry {value}; pass a string like "3/2" or "sqrt(2)"')
    return _fraction(value)


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
    """Immutable exact number r + i*sqrt(D), with r, i rational: the value
    of one Gram entry as it is read and printed.

    ``D`` is None for pure rationals.  The representation is canonical (an
    irrational part of 0 drops the radicand), so two Scalars are equal
    exactly when their parts are.  Exact work runs on integer pairs
    (`gram._checked_pairs`), not on Scalars; this class parses, prints and
    serializes one entry, and gives its float value.
    """

    __slots__ = ("rat", "irr", "root")

    def __init__(self, rat: Rat = 0, irr: Rat = 0, root: int | None = None):
        rat = Fraction(rat)
        irr = Fraction(irr)
        if irr == 0:
            root = None
        elif root is None:
            raise ValueError("irrational part requires a radicand D")
        elif root > MAX_RADICAND:
            raise ValueError(f"radicand must be at most {MAX_RADICAND}, got {root}")
        elif not _is_squarefree(root) or root == 1:
            raise ValueError(f"radicand must be squarefree and > 1, got {root}")
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "irr", irr)
        object.__setattr__(self, "root", root)

    def __setattr__(self, *args):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def of(x: "Scalar | Rat") -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(Fraction(x))

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.rat == other.rat and self.irr == other.irr and self.root == other.root

    def __hash__(self):
        if self.irr == 0:
            return hash(self.rat)
        return hash((self.rat, self.irr, self.root))

    # -- float value ----------------------------------------------------------

    def __float__(self) -> float:
        v = float(self.rat)
        if self.irr != 0:
            v += float(self.irr) * math.sqrt(self.root)
        return v

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
        """Read `to_json`'s forms, or a bare JSON number (`_json_number`)."""
        if isinstance(obj, dict):
            D = obj["D"]
            if isinstance(D, bool) or isinstance(D, float) and not D.is_integer():
                raise ValueError(f"radicand must be an integer, got {D}")
            return Scalar(_json_number(obj["rat"]), _json_number(obj["irr"]), int(D))
        if isinstance(obj, str):
            return Scalar.parse(obj)
        return Scalar(_json_number(obj))

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse "p/q", "sqrt(D)", "r/s*sqrt(D)", "c*sqrt(D)/s" and sums like
        "1+2*sqrt(2)" or "1+sqrt(5)/2".  The terms are added in order; a
        running sum with an irrational part takes only terms of its own
        radicand."""
        text = text.strip().replace(" ", "")
        if not text:
            raise ValueError("empty scalar")
        # split into signed terms; a sign after e or E is an exponent's
        terms = []
        start = 0
        for pos in range(1, len(text)):
            if text[pos] in "+-" and text[pos - 1] not in "+-*/(eE":
                terms.append(text[start:pos])
                start = pos
        terms.append(text[start:])
        total = Scalar(0)
        for term in terms:
            t = Scalar._parse_term(term)
            if total.root and t.root and total.root != t.root:
                raise MixedRadicandError(f"cannot mix sqrt({total.root}) and sqrt({t.root})")
            total = Scalar(total.rat + t.rat, total.irr + t.irr, total.root or t.root)
        return total

    @staticmethod
    def _parse_term(term: str) -> "Scalar":
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("+-")
        try:
            if "sqrt" in term:
                coeff_part, _, root_part = term.partition("sqrt")
                root_part, _, divisor = root_part.partition("/")
                coeff = _fraction(coeff_part.rstrip("*") or 1) / _fraction(divisor or 1)
                return Scalar(0, sign * coeff, int(root_part.strip("()")))
            return Scalar(sign * _fraction(term))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {term!r}") from None
