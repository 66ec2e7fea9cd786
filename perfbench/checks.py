"""Output checks for the benchmark, computed apart from the program.

Nothing here imports wellround: divisor sums, character sums, exact
changes of basis in Q(sqrt D) and the reference constants (through mpmath)
are all computed from scratch.  Every check raises CheckFailed with a
message naming the first bad value.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import re
from fractions import Fraction

import mpmath

PAPER_C_SQUARE = 0.6272237
PAPER_C_TRIANGLE = 0.4915036
# the paper quotes both constants to seven decimals
PAPER_DIGITS_TOL = 5e-8
RESIDUAL_LIMIT = 0.02
RESIDUE_REL_TOL = 1e-3
CHI_MINUS4 = (0, 1, 0, -1)
CHI_MINUS3 = (0, 1, -1)

CENSUS_COLUMNS = [
    "n", "total", "general", "rectangular", "centred_rect",
    "rhombic", "square", "hexagonal", "well_rounded",
]


class CheckFailed(Exception):
    """A program output disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- parsing ------------------------------------------------------------------


def parse_table(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of the CLI's CSV output."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(len(rows) >= 1, "empty CSV output")
    return rows[0], rows[1:]


def parse_census(text: str) -> list[list[int]]:
    header, rows = parse_table(text)
    _require(header == CENSUS_COLUMNS, f"unexpected census header {header}")
    return [[int(v) for v in row] for row in rows]


def parse_formula(text: str) -> list[int]:
    """Well-rounded counts of `census --mode formula`, index 1 first."""
    header, rows = parse_table(text)
    _require(header == ["n", "well_rounded"], f"unexpected formula header {header}")
    for i, row in enumerate(rows, start=1):
        _require(int(row[0]) == i, f"formula row {i} has index {row[0]}")
    return [int(row[1]) for row in rows]


def parse_asympt(text: str) -> list[dict]:
    header, rows = parse_table(text)
    _require(header[:3] == ["x", "A", "model"], f"unexpected asympt header {header}")
    return [
        {"x": int(row[0]), "A": int(row[1]), "model": float(row[2])} for row in rows
    ]


def parse_constants(text: str) -> dict[str, tuple[float, float]]:
    header, rows = parse_table(text)
    _require(header == ["name", "value", "abs_error"], f"unexpected constants header {header}")
    return {row[0]: (float(row[1]), float(row[2])) for row in rows}


_PLUS_MINUS = re.compile(r"^(value|residue) = (\S+) ± (\S+)$")


def parse_epstein(text: str) -> tuple[float, float]:
    """(value, stated error) of an `epstein` text line."""
    match = _PLUS_MINUS.match(text.strip())
    _require(match is not None, f"unexpected epstein output {text.strip()!r}")
    return float(match.group(2)), float(match.group(3))


# -- independent arithmetic ----------------------------------------------------


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def sigma1(n: int) -> int:
    return sum(divisors(n))


def chi_divisor_sum(n: int, chi: tuple[int, ...]) -> int:
    return sum(chi[d % len(chi)] for d in divisors(n))


class QuadraticEntry:
    """r + i*sqrt(D) with rational r, i, enough for a change of basis."""

    def __init__(self, rat, irr=0, root: int | None = None):
        self.rat = Fraction(rat)
        self.irr = Fraction(irr)
        self.root = root if self.irr else None

    def __float__(self) -> float:
        return float(self.rat) + (float(self.irr) * math.sqrt(self.root) if self.irr else 0.0)

    def text(self) -> str:
        """Spelling that the CLI's scalar parser accepts."""
        if not self.irr:
            return str(self.rat)
        tail = f"{abs(self.irr)}*sqrt({self.root})"
        if not self.rat:
            return ("-" if self.irr < 0 else "") + tail
        return f"{self.rat}{'-' if self.irr < 0 else '+'}{tail}"


def combine(terms: list[tuple[int, QuadraticEntry]]) -> QuadraticEntry:
    """Integer combination sum(k * e) of entries sharing one radicand."""
    roots = {e.root for _, e in terms if e.root is not None}
    _require(len(roots) <= 1, f"mixed radicands {sorted(roots)}")
    rat = sum((k * e.rat for k, e in terms), Fraction(0))
    irr = sum((k * e.irr for k, e in terms), Fraction(0))
    return QuadraticEntry(rat, irr, roots.pop() if roots else None)


def transform(form, U) -> tuple[QuadraticEntry, QuadraticEntry, QuadraticEntry]:
    """Entries of U^T G U for G = [[a, b], [b, c]] and U = [[p, q], [r, s]]."""
    a, b, c = form
    (p, q), (r, s) = U
    return (
        combine([(p * p, a), (2 * p * r, b), (r * r, c)]),
        combine([(p * q, a), (p * s + q * r, b), (r * s, c)]),
        combine([(q * q, a), (2 * q * s, b), (s * s, c)]),
    )


def gram_json(form) -> str:
    a, b, c = (e.text() for e in form)
    return f'[["{a}", "{b}"], ["{b}", "{c}"]]'


# -- reference constants (mpmath) ---------------------------------------------


@functools.lru_cache(maxsize=None)
def reference_constants() -> dict[str, float]:
    """The closed forms `constants` reports, evaluated by mpmath at 30 digits."""
    with mpmath.workdps(30):
        def log_derivative(chi):
            return mpmath.dirichlet(1, chi, 1) / mpmath.dirichlet(1, chi)

        values = {
            "L1_chi4": mpmath.pi / 4,
            "L1_chi3": mpmath.pi / (3 * mpmath.sqrt(3)),
            "Lp_over_L_chi4": log_derivative(list(CHI_MINUS4)),
            "Lp_over_L_chi3": log_derivative(list(CHI_MINUS3)),
            "euler_gamma": +mpmath.euler,
            "zeta2": mpmath.zeta(2),
            "zetap2_over_zeta2": mpmath.zeta(2, derivative=1) / mpmath.zeta(2),
            # sum' (m^2 + n^2)^-2 and sum' (2(m^2 + mn + n^2))^-2
            "epstein_square_s2": 4 * mpmath.zeta(2) * mpmath.catalan,
            "epstein_hex_s2": 1.5 * mpmath.zeta(2) * mpmath.dirichlet(2, list(CHI_MINUS3)),
        }
        return {k: float(v) for k, v in values.items()}


# -- checks ----------------------------------------------------------------------


def check_census_rows(rows: list[list[int]], N: int) -> None:
    """Rows 1..N; each row's total and its type columns sum to sigma_1(n)."""
    _require(len(rows) == N, f"census has {len(rows)} rows, expected {N}")
    for n, row in enumerate(rows, start=1):
        _require(row[0] == n, f"census row {n} has index {row[0]}")
        s = sigma1(n)
        _require(row[1] == s, f"census total at n={n} is {row[1]}, sigma_1 is {s}")
        _require(sum(row[2:8]) == s, f"census types at n={n} sum to {sum(row[2:8])}, sigma_1 is {s}")
        _require(row[8] == sum(row[5:8]), f"census well_rounded at n={n} is not rhombic+square+hexagonal")


def check_well_rounded_matches_formula(rows: list[list[int]], formula: list[int]) -> None:
    _require(len(formula) == len(rows), f"formula has {len(formula)} rows, census {len(rows)}")
    for n, (row, f) in enumerate(zip(rows, formula), start=1):
        _require(row[8] == f, f"n={n}: census well_rounded {row[8]} != formula {f}")


def check_similar_column(rows: list[list[int]], column: str, chi, upto: int) -> None:
    """The square (or hexagonal) column is the divisor sum of chi up to `upto`."""
    j = CENSUS_COLUMNS.index(column)
    _require(len(rows) >= upto, f"census stops at {len(rows)} < {upto}")
    for n in range(1, upto + 1):
        want = chi_divisor_sum(n, chi)
        _require(rows[n - 1][j] == want, f"n={n}: {column} column {rows[n - 1][j]} != {want}")


def check_same_rows(rows: list[list[int]], other: list[list[int]]) -> None:
    """A change of basis leaves every census row unchanged."""
    _require(len(rows) == len(other), "census lengths differ after change of basis")
    for row, row2 in zip(rows, other):
        _require(row == row2, f"n={row[0]}: rows {row} and {row2} differ after change of basis")


def check_asympt_at_bound(asympt_rows: list[dict], rows: list[list[int]]) -> None:
    """A(N) from asympt equals the census's summed well-rounded counts to N."""
    N = len(rows)
    at = [r for r in asympt_rows if r["x"] == N]
    _require(len(at) == 1, f"asympt has no checkpoint at the census bound {N}")
    total = sum(row[8] for row in rows)
    _require(at[0]["A"] == total, f"A({N}) = {at[0]['A']}, census sums to {total}")


def check_all_zero(rows: list[list[int]], formula: list[int], asympt_rows: list[dict]) -> None:
    """A lattice without well-rounded sublattices counts zero everywhere."""
    for row in rows:
        _require(row[8] == 0, f"n={row[0]}: census counts {row[8]} well-rounded")
    for n, f in enumerate(formula, start=1):
        _require(f == 0, f"n={n}: formula counts {f} well-rounded")
    for r in asympt_rows:
        _require(r["A"] == 0, f"x={r['x']}: asympt A = {r['A']}")


def check_growth_residual(asympt_rows: list[dict], limit: float = RESIDUAL_LIMIT) -> None:
    """|A(x) - model(x)| / (x^(3/4) log x) stays within `limit`."""
    for r in asympt_rows:
        x = r["x"]
        scaled = abs(r["A"] - r["model"]) / (x**0.75 * math.log(x))
        _require(scaled <= limit, f"x={x}: scaled residual {scaled:.4g} > {limit}")


def check_c1(asympt_rows: list[dict], c1: float) -> None:
    """The model's x log x coefficient, solved from two checkpoints."""
    _require(len(asympt_rows) >= 2, "need two checkpoints to read c1")
    (x1, m1), (x2, m2) = ((r["x"], r["model"]) for r in (asympt_rows[0], asympt_rows[-1]))
    got = (m1 / x1 - m2 / x2) / (math.log(x1) - math.log(x2))
    _require(math.isclose(got, c1, rel_tol=1e-9), f"model c1 = {got!r}, expected {c1!r}")


def c1_square() -> float:
    return math.log(3) / (2 * math.pi)


def c1_hex() -> float:
    return 3 * math.sqrt(3) * math.log(3) / (8 * math.pi)


def check_constants(table: dict[str, tuple[float, float]]) -> None:
    """Each closed-form constant within its stated error of mpmath; the two
    lattice constants within the paper's last digit plus their stated error."""
    ref = reference_constants()
    for name in ("L1_chi4", "L1_chi3", "Lp_over_L_chi4", "Lp_over_L_chi3",
                 "euler_gamma", "zeta2", "zetap2_over_zeta2"):
        _require(name in table, f"constants lacks {name}")
        value, err = table[name]
        _require(abs(value - ref[name]) <= err, f"{name} = {value!r}, mpmath {ref[name]!r} ± {err}")
    for name, paper in (("c_square", PAPER_C_SQUARE), ("c_triangle", PAPER_C_TRIANGLE)):
        _require(name in table, f"constants lacks {name}")
        value, err = table[name]
        _require(abs(value - paper) <= PAPER_DIGITS_TOL + err, f"{name} = {value!r}, paper {paper}")


def check_epstein_value(value: float, err: float, reference: str) -> None:
    want = reference_constants()[reference]
    _require(abs(value - want) <= err, f"epstein value {value!r} not within {err} of {want!r}")


def check_residue(value: float, form) -> None:
    """Residue at s=1 within 1e-3 relative of pi / sqrt(ac - b^2)."""
    a, b, c = (float(e) for e in form)
    want = math.pi / math.sqrt(a * c - b * b)
    _require(abs(value - want) <= RESIDUE_REL_TOL * want, f"residue {value!r}, expected {want!r}")
