"""The benchmark's workloads: which `wellround` calls a round makes, and how
their outputs are checked.

A workload is built from its name and a seed.  The seed picks the change of
basis used for the invariance check and, in `rational`, two of the lattices;
every other input is fixed, so that the work done per round depends little
on the seed.  Each Epstein residue call scales its radius so that every form
sums the same grid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
from checks import QuadraticEntry as Q

SETUP_ARGS = ("classify", "--preset", "square")

# The classes of call that the end-to-end metrics sum over.
CENSUS, COUNTS, ANALYTIC = "census", "counts", "analytic"

EPSTEIN_RADIUS = 1.0e6
SQUARE_HEX_N = 600
SQUARE_CHECKPOINTS = (SQUARE_HEX_N, 10_000, 100_000, 1_000_000)
HEX_CHECKPOINTS = (SQUARE_HEX_N, 10_000, 100_000, 500_000)
SIMILAR_COLUMN_UPTO = 200
RATIONAL_N = 400
RATIONAL_CHECKPOINTS = (RATIONAL_N, 1000, 1500)
# seed-drawn rational forms have a discriminant in this range; their
# counting-formula cost at RATIONAL_N stays within about 20% of each other
RATIONAL_DISC = range(6, 12)
IRRATIONAL_N = 36
IRRATIONAL_CHECKPOINTS = (IRRATIONAL_N, 1000, 5000)


@dataclass(frozen=True)
class Call:
    key: str
    kind: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Check:
    """A check over the outputs of the calls named by `keys`."""

    name: str
    keys: tuple[str, ...]
    run: Callable[..., None]


@dataclass(frozen=True)
class Lattice:
    key: str
    spec: tuple[str, str]  # ("--preset", name) or ("--gram", text)
    form: tuple[Q, Q, Q]  # Gram entries a, b, c

    @property
    def form_arg(self) -> str:
        return ",".join(e.text() for e in self.form)


@dataclass
class Workload:
    name: str
    calls: list[Call]
    checks: list[Check]


def _gram_lattice(key: str, form) -> Lattice:
    return Lattice(key, ("--gram", checks.gram_json(form)), tuple(form))


SQUARE = Lattice("square", ("--preset", "square"), (Q(1), Q(0), Q(1)))
HEXAGONAL = Lattice("hexagonal", ("--preset", "hexagonal"), (Q(2), Q(1), Q(2)))

HALF = Fraction(1, 2)
IRRATIONAL = [
    # TraceRationalOnly
    Lattice("diag-1-sqrt2", ("--gram", "diag(1,sqrt(2))"), (Q(1), Q(0), Q(0, 1, 2))),
    Lattice("t1-nsqrt3", ("--gram", '{"t":"1","n":"sqrt(3)"}'), (Q(1), Q(HALF), Q(0, 1, 3))),
    # NormConditionHolds
    Lattice("tsqrt2-n4", ("--gram", '{"t":"sqrt(2)","n":"4"}'), (Q(1), Q(0, HALF, 2), Q(4))),
    Lattice("tsqrt5-n3sqrt5", ("--gram", '{"t":"sqrt(5)","n":"3+sqrt(5)"}'),
            (Q(1), Q(0, HALF, 5), Q(3, 1, 5))),
    # NoWellRounded
    Lattice("tsqrt2-n3", ("--gram", '{"t":"sqrt(2)","n":"3"}'), (Q(1), Q(0, HALF, 2), Q(3))),
]
NO_WELL_ROUNDED = "tsqrt2-n3"
IRRATIONAL_TRANSFORMED = "tsqrt5-n3sqrt5"

RATIONAL_FIXED = [
    _gram_lattice("1-0-2", (Q(1), Q(0), Q(2))),
    _gram_lattice("2-1-3", (Q(2), Q(1), Q(3))),
]
RATIONAL_TRANSFORMED = "2-1-3"


def unimodular(rng: random.Random) -> tuple[tuple[int, int], tuple[int, int]]:
    """One upper and one lower shear by +-1 or +-2 in random order, then a
    random signed permutation: entries stay at most 5 in size."""
    up = ((1, rng.choice((-2, -1, 1, 2))), (0, 1))
    low = ((1, 0), (rng.choice((-2, -1, 1, 2)), 1))
    first, second = (up, low) if rng.random() < 0.5 else (low, up)
    perm = rng.choice((((1, 0), (0, 1)), ((0, 1), (1, 0))))
    signs = ((rng.choice((-1, 1)), 0), (0, rng.choice((-1, 1))))
    U = ((1, 0), (0, 1))
    for M in (first, second, perm, signs):
        U = _matmul(U, M)
    return U


def _matmul(A, B):
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def rational_pool() -> list[tuple[int, int, int]]:
    """Reduced primitive integral forms (0 <= 2b <= a <= c) with a
    discriminant in RATIONAL_DISC."""
    pool = []
    for a in range(1, RATIONAL_DISC.stop):
        for b in range(0, a // 2 + 1):
            for c in range(a, RATIONAL_DISC.stop + b * b):
                if a * c - b * b in RATIONAL_DISC and math.gcd(a, b, c) == 1:
                    pool.append((a, b, c))
    return pool


# -- calls and checks per lattice --------------------------------------------


def _census_calls(lat: Lattice, N: int, transformed: Lattice | None = None) -> list[Call]:
    calls = [
        Call(f"census:{lat.key}", CENSUS, ("census", *lat.spec, "--max", str(N), "--mode", "bruteforce")),
        Call(f"formula:{lat.key}", COUNTS, ("census", *lat.spec, "--max", str(N), "--mode", "formula")),
    ]
    if transformed is not None:
        calls.append(Call(f"census:{transformed.key}", CENSUS,
                          ("census", *transformed.spec, "--max", str(N), "--mode", "bruteforce")))
    return calls


def _asympt_call(lat: Lattice, checkpoints, lattice_arg: str = "custom") -> Call:
    args = ["asympt", "--lattice", lattice_arg, "--checkpoints", ",".join(map(str, checkpoints))]
    if lattice_arg == "custom":
        args += ["--gram", lat.spec[1]]
    return Call(f"asympt:{lat.key}", COUNTS, tuple(args))


def _residue_call(lat: Lattice) -> Call:
    """Epstein residue with the radius scaled by the form's smallest
    eigenvalue, so that every form sums the same grid as `1,0,1` does at the
    default radius 10^6 (coordinate bound about 1000)."""
    a, b, c = (float(e) for e in lat.form)
    lam_min = ((a + c) - math.sqrt((a - c) ** 2 + 4 * b * b)) / 2
    radius = repr(EPSTEIN_RADIUS * lam_min)
    return Call(f"residue:{lat.key}", ANALYTIC,
                ("epstein", "--form", lat.form_arg, "--residue", "--radius", radius))


def _census_checks(lat: Lattice, N: int, transformed: Lattice | None = None) -> list[Check]:
    census, formula = f"census:{lat.key}", f"formula:{lat.key}"
    out = [
        Check(f"sigma1:{lat.key}", (census,),
              lambda c: checks.check_census_rows(checks.parse_census(c), N)),
        Check(f"formula:{lat.key}", (census, formula),
              lambda c, f: checks.check_well_rounded_matches_formula(
                  checks.parse_census(c), checks.parse_formula(f))),
    ]
    if transformed is not None:
        other = f"census:{transformed.key}"
        out.append(Check(f"basis-change:{lat.key}", (census, other),
                         lambda c, t: checks.check_same_rows(checks.parse_census(c), checks.parse_census(t))))
    return out


def _asympt_at_bound_check(lat: Lattice) -> Check:
    return Check(f"asympt-bound:{lat.key}", (f"asympt:{lat.key}", f"census:{lat.key}"),
                 lambda a, c: checks.check_asympt_at_bound(checks.parse_asympt(a), checks.parse_census(c)))


def _residue_check(lat: Lattice) -> Check:
    return Check(f"residue:{lat.key}", (f"residue:{lat.key}",),
                 lambda r: checks.check_residue(checks.parse_epstein(r)[0], lat.form))


def _transformed(lat: Lattice, rng: random.Random) -> Lattice:
    return _gram_lattice(f"{lat.key}-U", checks.transform(lat.form, unimodular(rng)))


# -- the workloads ----------------------------------------------------------------


def square_hex(rng: random.Random) -> Workload:
    hex_u = _transformed(HEXAGONAL, rng)
    calls = (
        _census_calls(SQUARE, SQUARE_HEX_N)
        + _census_calls(HEXAGONAL, SQUARE_HEX_N, hex_u)
        + [
            _asympt_call(SQUARE, SQUARE_CHECKPOINTS, "square"),
            _asympt_call(HEXAGONAL, HEX_CHECKPOINTS, "hex"),
            Call("constants", ANALYTIC, ("constants",)),
            Call("s2:square", ANALYTIC, ("epstein", "--form", SQUARE.form_arg, "--s", "2")),
            Call("s2:hexagonal", ANALYTIC, ("epstein", "--form", HEXAGONAL.form_arg, "--s", "2")),
            _residue_call(SQUARE),
            _residue_call(HEXAGONAL),
        ]
    )
    found = (
        _census_checks(SQUARE, SQUARE_HEX_N)
        + _census_checks(HEXAGONAL, SQUARE_HEX_N, hex_u)
        + [
            Check("similar:square", ("census:square",), lambda c: checks.check_similar_column(
                checks.parse_census(c), "square", checks.CHI_MINUS4, SIMILAR_COLUMN_UPTO)),
            Check("similar:hexagonal", ("census:hexagonal",), lambda c: checks.check_similar_column(
                checks.parse_census(c), "hexagonal", checks.CHI_MINUS3, SIMILAR_COLUMN_UPTO)),
            _asympt_at_bound_check(SQUARE),
            _asympt_at_bound_check(HEXAGONAL),
            Check("residual:square", ("asympt:square",),
                  lambda a: checks.check_growth_residual(checks.parse_asympt(a))),
            Check("residual:hexagonal", ("asympt:hexagonal",),
                  lambda a: checks.check_growth_residual(checks.parse_asympt(a))),
            Check("c1:square", ("asympt:square",),
                  lambda a: checks.check_c1(checks.parse_asympt(a), checks.c1_square())),
            Check("c1:hexagonal", ("asympt:hexagonal",),
                  lambda a: checks.check_c1(checks.parse_asympt(a), checks.c1_hex())),
            Check("constants", ("constants",),
                  lambda t: checks.check_constants(checks.parse_constants(t))),
            Check("s2:square", ("s2:square",),
                  lambda e: checks.check_epstein_value(*checks.parse_epstein(e), "epstein_square_s2")),
            Check("s2:hexagonal", ("s2:hexagonal",),
                  lambda e: checks.check_epstein_value(*checks.parse_epstein(e), "epstein_hex_s2")),
            _residue_check(SQUARE),
            _residue_check(HEXAGONAL),
        ]
    )
    return Workload("square-hex", calls, found)


def rational(rng: random.Random) -> Workload:
    drawn = [_gram_lattice("-".join(map(str, abc)), tuple(Q(v) for v in abc))
             for abc in rng.sample(rational_pool(), 2)]
    lattices = RATIONAL_FIXED + drawn
    calls: list[Call] = []
    found: list[Check] = []
    for lat in lattices:
        moved = _transformed(lat, rng) if lat.key == RATIONAL_TRANSFORMED else None
        calls += _census_calls(lat, RATIONAL_N, moved) + [_residue_call(lat)]
        found += _census_checks(lat, RATIONAL_N, moved) + [_residue_check(lat)]
    for lat in RATIONAL_FIXED:
        calls.append(_asympt_call(lat, RATIONAL_CHECKPOINTS))
        found.append(_asympt_at_bound_check(lat))
    return Workload("rational", calls, found)


def irrational(rng: random.Random) -> Workload:
    calls: list[Call] = []
    found: list[Check] = []
    for lat in IRRATIONAL:
        moved = _transformed(lat, rng) if lat.key == IRRATIONAL_TRANSFORMED else None
        calls += _census_calls(lat, IRRATIONAL_N, moved) + [
            _asympt_call(lat, IRRATIONAL_CHECKPOINTS), _residue_call(lat)]
        found += _census_checks(lat, IRRATIONAL_N, moved) + [
            _asympt_at_bound_check(lat), _residue_check(lat)]
    zero = NO_WELL_ROUNDED
    found.append(Check(f"no-well-rounded:{zero}", (f"census:{zero}", f"formula:{zero}", f"asympt:{zero}"),
                       lambda c, f, a: checks.check_all_zero(
                           checks.parse_census(c), checks.parse_formula(f), checks.parse_asympt(a))))
    return Workload("irrational", calls, found)


WORKLOADS = {"square-hex": square_hex, "rational": rational, "irrational": irrational}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
