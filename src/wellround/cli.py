"""Command-line frontend.

Subcommands: reduce, classify, census, series, asympt, constants, exists,
frames, epstein.  Output is CSV (RFC 4180) or JSON via --format.  Exit
codes: 0 ok, 2 bad input, 3 invariant breach, 4 unsupported domain.
Config precedence: flags over WELLROUND_* environment variables over the
documented defaults (max index 1000, checkpoints 1000/10000/100000).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import TYPE_CHECKING

from .general import InvariantError
from .gram import (
    HEXAGONAL_GRAM,
    SQUARE_GRAM,
    GramForm,
    NotPositiveDefiniteError,
    classify,
    gauss_reduce,
    is_rational,
)
from .scalar import MixedRadicandError, NotRationalError, Scalar
from .sublattices import _CSV_HEADER, wr_census_bruteforce

if TYPE_CHECKING:
    from .dirichlet import ArithSeq

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INVARIANT = 3
EXIT_UNSUPPORTED = 4

DEFAULT_MAX = 1000
# the largest index bound accepted (--max, --checkpoints); a_square(10^7)
# peaks at about 750 MB, and the census allocates six lists of this length
MAX_INDEX = 10**7
DEFAULT_CHECKPOINTS = (1000, 10_000, 100_000)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _env(name: str, default):
    return os.environ.get(f"WELLROUND_{name}", default)


def _parse_gram(text: str) -> GramForm:
    """Accept a JSON matrix, an {a,b,c} object, a {t,n} shape descriptor,
    or the diag(x,y) shorthand; entries may be exact scalar strings."""
    text = text.strip().replace("√", "sqrt")
    try:
        if text.startswith("diag(") and text.endswith(")"):
            u, v = text[5:-1].split(",")
            return GramForm(Scalar.parse(u), Scalar(0), Scalar.parse(v))
        obj = json.loads(text)
        if isinstance(obj, list):
            (a, b), (b2, c) = obj
            g = GramForm(_scalar(a), _scalar(b), _scalar(c))
            if _scalar(b2) != g.b:
                raise ValueError("matrix is not symmetric")
            return g
        if "t" in obj or "n" in obj:
            # shape descriptor: a = 1, t = 2b/a, n = c/a
            t = _scalar(obj.get("t", "0"))
            n = _scalar(obj.get("n", "1"))
            return GramForm(Scalar(1), t / Scalar(2), n)
        return GramForm.from_json(obj)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError, MixedRadicandError) as e:
        raise CliError(f"cannot parse Gram form {text!r}: {e}", EXIT_BAD_INPUT)


def _scalar(v) -> Scalar:
    if isinstance(v, str):
        v = v.strip().replace("√", "sqrt")
        if v.startswith("sqrt") and not v.startswith("sqrt("):
            v = f"sqrt({v[4:]})"
        return Scalar.parse(v)
    if isinstance(v, dict):
        return Scalar.from_json(v)
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"non-exact entry {v}; pass a string like \"3/2\" or \"sqrt(2)\"")
    return Scalar.of(int(v) if isinstance(v, float) else v)


def _spec_gram(args) -> GramForm:
    preset = getattr(args, "preset", None)
    gram = getattr(args, "gram", None)
    if preset and gram:
        raise CliError("give either --preset or --gram, not both", EXIT_BAD_INPUT)
    if preset == "square":
        return SQUARE_GRAM
    if preset == "hexagonal":
        return HEXAGONAL_GRAM
    if gram:
        return _parse_gram(gram)
    raise CliError("a lattice is required: --preset or --gram", EXIT_BAD_INPUT)


def _positive_max(args) -> int:
    if args.max < 1:
        raise CliError("--max must be at least 1", EXIT_BAD_INPUT)
    if args.max > MAX_INDEX:
        raise CliError(f"--max must be at most {MAX_INDEX}", EXIT_BAD_INPUT)
    return args.max


def _emit_rows(args, header: list[str], rows: list[list]) -> None:
    if args.format == "json":
        print(json.dumps({"columns": header, "rows": rows}))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())


def _float_field(value: float, abs_error: float) -> dict:
    return {"value": value, "abs_error": abs_error}


# -- subcommands --------------------------------------------------------------


def cmd_reduce(args) -> int:
    g = _spec_gram(args)
    reduced = gauss_reduce(g)
    kind = classify(g).value.replace("_", " ")
    if args.format == "json":
        print(json.dumps({"gram": reduced.to_json(), "type": kind}))
    else:
        print(f"[[{reduced.a}, {reduced.b}], [{reduced.b}, {reduced.c}]] ({kind})")
    return EXIT_OK


def cmd_classify(args) -> int:
    g = _spec_gram(args)
    kind = classify(g).value
    if args.format == "json":
        print(json.dumps({"type": kind}))
    else:
        print(kind)
    return EXIT_OK


def _formula_counts(g: GramForm, N: int, preset: str | None) -> ArithSeq:
    from .dirichlet import ArithSeq
    from .general import (
        ExistenceVerdict,
        count_wr_nonrational,
        count_wr_rational,
        existence,
    )
    from .hexagonal import a_hex
    from .square import a_square

    if preset == "square":
        return a_square(N)
    if preset == "hexagonal":
        return a_hex(N)
    if is_rational(g):
        return count_wr_rational(g, N)
    verdict = existence(g)
    if verdict == ExistenceVerdict.NO_WELL_ROUNDED:
        return ArithSeq([0] * N)
    return count_wr_nonrational(g, N)


def cmd_census(args) -> int:
    g = _spec_gram(args)
    N = _positive_max(args)
    if args.mode == "formula":
        counts = _formula_counts(g, N, args.preset)
        _emit_rows(
            args,
            ["n", "well_rounded"],
            [[n, counts[n]] for n in range(1, N + 1)],
        )
        return EXIT_OK
    report = wr_census_bruteforce(g, N)
    if args.mode == "bruteforce":
        if args.format == "json":
            print(report.to_json())
        else:
            sys.stdout.write(report.to_csv())
        return EXIT_OK
    # mode both: brute force columns plus formula count and diff
    counts = _formula_counts(g, N, args.preset)
    header = _CSV_HEADER + ["formula", "diff"]
    rows = [
        report.row(n) + [counts[n], counts[n] - report.well_rounded(n)]
        for n in range(1, N + 1)
    ]
    _emit_rows(args, header, rows)
    n = next((row[0] for row in rows if row[-1]), None)
    if n is not None:
        print(
            f"census mismatch at n={n}: census {report.well_rounded(n)}, formula {counts[n]}",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


_SERIES = {
    "a_square": lambda N: _lazy("square", "a_square")(N),
    "b_square": lambda N: _lazy("square", "b_square")(N),
    "b_square_primitive": lambda N: _lazy("square", "b_square_primitive")(N),
    "a_hex": lambda N: _lazy("hexagonal", "a_hex")(N),
    "b_hex": lambda N: _lazy("hexagonal", "b_hex")(N),
    "b_hex_primitive": lambda N: _lazy("hexagonal", "b_hex_primitive")(N),
}


def _lazy(module: str, name: str):
    import importlib

    return getattr(importlib.import_module(f".{module}", __package__), name)


def cmd_series(args) -> int:
    if args.name not in _SERIES:
        raise CliError(
            f"unknown series {args.name!r}; choose from {sorted(_SERIES)}",
            EXIT_BAD_INPUT,
        )
    seq = _SERIES[args.name](_positive_max(args))
    prefix = seq.summatory_all()
    _emit_rows(
        args,
        ["n", "a", "A"],
        [[n, seq[n], prefix[n - 1]] for n in range(1, args.max + 1)],
    )
    return EXIT_OK


def cmd_asympt(args) -> int:
    from . import asympt

    checkpoints = args.checkpoints
    if not checkpoints or min(checkpoints) < 2:
        raise CliError("--checkpoints entries must be at least 2", EXIT_BAD_INPUT)
    N = max(checkpoints)
    if N > MAX_INDEX:
        raise CliError(f"--checkpoints entries must be at most {MAX_INDEX}", EXIT_BAD_INPUT)
    if args.lattice == "square":
        from .square import a_square

        counts, model = a_square(N), asympt.square_model()
    elif args.lattice == "hex":
        from .hexagonal import a_hex

        counts, model = a_hex(N), asympt.hexagonal_model()
    else:
        g = _spec_gram(args)
        counts = _formula_counts(g, N, None)
        model = _fit_model(counts, checkpoints)
    rows = asympt.model_report(counts, model, checkpoints)
    _emit_rows(
        args,
        list(rows[0].keys()),
        [[r[k] for k in rows[0]] for r in rows],
    )
    return EXIT_OK


def _fit_model(counts: ArithSeq, checkpoints):
    """Least-squares fit of c1 x log x + c2 x through the checkpoints;
    purely empirical, no claim about the true growth law."""
    import math

    import numpy as np

    prefix = counts.summatory_all()
    xs = np.array([float(x) for x in checkpoints])
    ys = np.array([float(prefix[x - 1]) for x in checkpoints])
    design = np.column_stack([xs * np.log(xs), xs])
    (c1, c2), *_ = np.linalg.lstsq(design, ys, rcond=None)
    from .asympt import AsymptoticModel

    return AsymptoticModel(max(c1, 0.0), c2, description="empirical fit")


def cmd_constants(args) -> int:
    from .asympt import constants_table

    table = constants_table().to_json()
    if args.format == "json":
        print(json.dumps(table))
    else:
        rows = [[k, v["value"], v["abs_error"]] for k, v in table.items()]
        _emit_rows(args, ["name", "value", "abs_error"], rows)
    return EXIT_OK


def cmd_exists(args) -> int:
    from .general import existence

    g = _spec_gram(args)
    verdict = existence(g)
    if args.format == "json":
        print(json.dumps({"verdict": verdict.value}))
    else:
        print(verdict.value)
    return EXIT_OK


def cmd_frames(args) -> int:
    from .general import enumerate_frames

    g = _spec_gram(args)
    if args.bound < 0:
        raise CliError("--bound must be nonnegative", EXIT_BAD_INPUT)
    frames = enumerate_frames(g, args.bound)
    if args.format == "json":
        print(json.dumps([f.to_json() for f in frames]))
    else:
        rows = [
            [f.w[0], f.w[1], f.z[0], f.z[1], f.sigma, str(f.kappa_sq), f.parity]
            for f in frames
        ]
        _emit_rows(args, ["w0", "w1", "z0", "z1", "sigma", "kappa_sq", "parity"], rows)
    return EXIT_OK


def cmd_epstein(args) -> int:
    from .asympt import DomainError, _disk_sum, _disk_values, _ladder_extrapolants

    try:
        form = tuple(float(Scalar.parse(v)) for v in args.form.split(","))
    except (ValueError, AttributeError) as e:
        raise CliError(f"cannot parse form {args.form!r}: {e}", EXIT_BAD_INPUT)
    if len(form) != 3:
        raise CliError("--form needs three entries a,b,c", EXIT_BAD_INPUT)
    if not args.radius > 0:
        raise CliError("--radius must be positive", EXIT_BAD_INPUT)
    R = args.radius
    try:
        if not args.residue and args.s <= 1:
            raise DomainError("need s > 1")
        # one disk serves R and R/4: its values <= R/4 are the disk of R/4, in order
        disk = _disk_values(form, R)
        coarse = disk[disk <= R / 4]
        if args.residue:
            # truncation error (R against R/4) plus extrapolation error (e_7 against e_6)
            value, previous = _ladder_extrapolants(disk, form, R)
            rough, _ = _ladder_extrapolants(coarse, form, R / 4)
            payload = {"residue": _float_field(value, abs(value - rough) + abs(value - previous))}
        else:
            value = _disk_sum(disk, form, args.s, R)
            error = abs(value - _disk_sum(coarse, form, args.s, R / 4))
            payload = {"value": _float_field(value, error), "s": args.s}
    except DomainError as e:
        raise CliError(str(e), EXIT_BAD_INPUT)
    if args.format == "json":
        print(json.dumps(payload))
    else:
        key, field = next(iter(payload.items()))
        print(f"{key} = {field['value']} ± {field['abs_error']:.3g}")
    return EXIT_OK


# -- argument plumbing --------------------------------------------------------


def _add_lattice_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=["square", "hexagonal"])
    p.add_argument("--gram", help="Gram matrix JSON, {a,b,c} JSON, {t,n} JSON, or diag(x,y)")


def _checkpoint_list(text: str) -> list[int]:
    try:
        return [int(float(part)) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad checkpoint list {text!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=["csv", "json"],
        default=_env("FORMAT", "csv"),
        help="output format (default csv; WELLROUND_FORMAT)",
    )
    parser = argparse.ArgumentParser(
        prog="wellround",
        description="Count and model well-rounded sublattices of planar lattices.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    default_max = int(_env("MAX", str(DEFAULT_MAX)))
    default_checkpoints = _checkpoint_list(
        _env("CHECKPOINTS", ",".join(str(c) for c in DEFAULT_CHECKPOINTS))
    )

    for name in ("reduce", "classify", "exists"):
        p = sub.add_parser(name, parents=[common])
        _add_lattice_args(p)

    p = sub.add_parser("census", parents=[common])
    _add_lattice_args(p)
    p.add_argument("--max", type=int, default=default_max)
    p.add_argument("--mode", choices=["bruteforce", "formula", "both"], default="bruteforce")

    p = sub.add_parser("series", parents=[common])
    p.add_argument("--name", required=True)
    p.add_argument("--max", type=int, default=default_max)

    p = sub.add_parser("asympt", parents=[common])
    p.add_argument("--lattice", choices=["square", "hex", "custom"], default="square")
    p.add_argument("--gram")
    p.add_argument("--preset", help=argparse.SUPPRESS)
    p.add_argument("--checkpoints", type=_checkpoint_list, default=default_checkpoints)

    sub.add_parser("constants", parents=[common])

    p = sub.add_parser("frames", parents=[common])
    _add_lattice_args(p)
    p.add_argument("--bound", type=int, default=1)

    p = sub.add_parser("epstein", parents=[common])
    p.add_argument("--form", required=True, help="a,b,c of the form a x^2 + 2 b x y + c y^2")
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--radius", type=float, default=1.0e6)
    p.add_argument("--residue", action="store_true")
    return parser


_COMMANDS = {
    "reduce": cmd_reduce,
    "classify": cmd_classify,
    "census": cmd_census,
    "series": cmd_series,
    "asympt": cmd_asympt,
    "constants": cmd_constants,
    "exists": cmd_exists,
    "frames": cmd_frames,
    "epstein": cmd_epstein,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (NotRationalError, NotImplementedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InvariantError as e:
        print(f"invariant breach: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (NotPositiveDefiniteError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
