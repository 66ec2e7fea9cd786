"""Command-line frontend.

Subcommands: reduce, classify, census, series, asympt, constants, exists,
frames, epstein.  Output is CSV (RFC 4180) or JSON via --format.  Exit
codes: 0 ok, 2 bad input, 3 invariant breach, 4 unsupported domain.
Flags not given take the documented defaults (max index 1000, checkpoints
1000/10000/100000).  Each subcommand imports the layers it runs inside its
own function, so a call loads only those: a brute-force census, for one,
loads neither `general` nor numpy.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import math
import os
import sys
from fractions import Fraction
from itertools import islice

from .scalar import InvariantError, MixedRadicandError, NotRationalError, Scalar, _fraction

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INVARIANT = 3
EXIT_UNSUPPORTED = 4

DEFAULT_MAX = 1000
# the largest index bound of every path that builds an array of that length
# (--max, and --checkpoints of asympt --lattice custom): a_square(10^7) peaks
# at about 750 MB, and the census allocates six lists of this length
MAX_INDEX = 10**7
# the largest --checkpoints entry of asympt --lattice square|hex, whose A(x)
# come from plain-Python tables of about x^0.6 entries: at 10^9 a call takes
# 0.4-0.5 s and peaks at 81 MB (2-CPU VM)
MAX_SUMMATORY_INDEX = 10**9
# the largest --bound of frames; the frame list grows as its square, and at
# 700 `frames --format json` peaks at 345 MB on the square lattice and 688 MB
# on [[1,0],[0,1000]]
MAX_FRAME_BOUND = 700
DEFAULT_CHECKPOINTS = (1000, 10_000, 100_000)
# the largest --max whose preset formula counts come from `general.count_wr`,
# not the Dirichlet identity and its numpy import; CLI wall times, identity /
# count_wr (medians of 11, 2-CPU VM), square: 0.137 / 0.089 s at 600, 0.141 /
# 0.098 s at 10^4, 0.167 / 0.240 s at 4*10^4; hexagonal 0.139 / 0.067,
# 0.147 / 0.118 and 0.168 / 0.300 s
PRESET_IDENTITY_FROM = 10**4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_gram(text: str) -> GramForm:
    """Accept a JSON matrix, an {a,b,c} object, a {t,n} shape descriptor,
    or the diag(x,y) shorthand; entries may be exact scalar strings.  The
    form must be positive definite, with its entries in one field: it is
    checked by `gram._checked_pairs`, as every exact computation is."""
    from .gram import GramForm, _checked_pairs

    text = text.strip().replace("√", "sqrt")
    try:
        if text.startswith("diag(") and text.endswith(")"):
            u, v = text[5:-1].split(",")
            g = GramForm(Scalar.parse(u), Scalar(0), Scalar.parse(v))
        elif isinstance(obj := json.loads(text, parse_float=_json_float), list):
            (a, b), (b2, c) = obj
            g = GramForm(_scalar(a), _scalar(b), _scalar(c))
            if _scalar(b2) != g.b:
                raise ValueError("matrix is not symmetric")
        elif not isinstance(obj, str) and ("t" in obj or "n" in obj):
            # shape descriptor: a = 1, t = 2b/a, n = c/a
            t = _scalar(obj.get("t", "0"))
            n = _scalar(obj.get("n", "1"))
            g = GramForm(Scalar(1), Scalar(t.rat / 2, t.irr / 2, t.root), n)
        else:
            g = GramForm(_scalar(obj["a"]), _scalar(obj["b"]), _scalar(obj["c"]))
    except (ValueError, KeyError, TypeError, json.JSONDecodeError, MixedRadicandError) as e:
        raise CliError(f"cannot parse Gram form {text!r} of --gram: {e}", EXIT_BAD_INPUT)
    _checked_pairs(g)
    return g


def _json_float(literal: str) -> float:
    """A JSON float literal as its double, refused unless that is the
    literal's exact decimal: 1e-400 is not 0."""
    value = float(literal)
    if math.isfinite(value) and _fraction(literal) != value:
        raise ValueError(f'non-exact entry {literal}; pass a string like "3/2" or "sqrt(2)"')
    return value


def _scalar(v) -> Scalar:
    if isinstance(v, str):
        v = v.strip().replace("√", "sqrt")
        if v.startswith("sqrt") and not v.startswith("sqrt("):
            v = f"sqrt({v[4:]})"
        return Scalar.parse(v)
    return Scalar.from_json(v)


def _spec_gram(args) -> GramForm:
    from .gram import HEXAGONAL_GRAM, SQUARE_GRAM

    if args.preset and args.gram:
        raise CliError("give either --preset or --gram, not both", EXIT_BAD_INPUT)
    if args.preset == "square":
        return SQUARE_GRAM
    if args.preset == "hexagonal":
        return HEXAGONAL_GRAM
    if args.gram:
        return _parse_gram(args.gram)
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


def _emit(args, payload, text: str) -> None:
    print(json.dumps(payload) if args.format == "json" else text)


def _float_field(value: float, abs_error: float) -> dict:
    return {"value": value, "abs_error": abs_error}


# -- subcommands --------------------------------------------------------------


def cmd_reduce(args) -> int:
    from .gram import classify, gauss_reduce

    g = _spec_gram(args)
    reduced = gauss_reduce(g)
    kind = classify(reduced).value.replace("_", " ")
    text = f"[[{reduced.a}, {reduced.b}], [{reduced.b}, {reduced.c}]] ({kind})"
    _emit(args, {"gram": reduced.to_json(), "type": kind}, text)
    return EXIT_OK


def cmd_classify(args) -> int:
    from .gram import classify

    g = _spec_gram(args)
    kind = classify(g).value
    _emit(args, {"type": kind}, kind)
    return EXIT_OK


def _formula_counts(g: GramForm, N: int, preset: str | None) -> list[int]:
    """Well-rounded counts by index 1..N; a(n) is at position n - 1.  A
    preset above PRESET_IDENTITY_FROM takes its Dirichlet identity (numpy);
    every other call takes `general.count_wr`, which gives the same counts."""
    if preset and N > PRESET_IDENTITY_FROM:
        if preset == "square":
            from .square import a_square as counts
        else:
            from .hexagonal import a_hex as counts
        return list(counts(N))
    from .general import count_wr

    return count_wr(g, N)


def cmd_census(args) -> int:
    g = _spec_gram(args)
    N = _positive_max(args)
    if args.mode == "formula":
        counts = _formula_counts(g, N, args.preset)
        _emit_rows(
            args,
            ["n", "well_rounded"],
            [[n, counts[n - 1]] for n in range(1, N + 1)],
        )
        return EXIT_OK
    from .sublattices import _CSV_HEADER, wr_census_bruteforce

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
        report.row(n) + [counts[n - 1], counts[n - 1] - report.well_rounded(n)]
        for n in range(1, N + 1)
    ]
    _emit_rows(args, header, rows)
    n = next((row[0] for row in rows if row[-1]), None)
    if n is not None:
        print(
            f"census mismatch at n={n}: census {report.well_rounded(n)}, formula {counts[n - 1]}",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


# series name -> the module that defines it, imported on use
_SERIES = {
    "a_square": "square",
    "b_square": "square",
    "b_square_primitive": "square",
    "a_hex": "hexagonal",
    "b_hex": "hexagonal",
    "b_hex_primitive": "hexagonal",
}


def cmd_series(args) -> int:
    if args.name not in _SERIES:
        raise CliError(
            f"unknown series {args.name!r}; choose from {sorted(_SERIES)}",
            EXIT_BAD_INPUT,
        )
    N = _positive_max(args)
    module = importlib.import_module(f".{_SERIES[args.name]}", __package__)
    seq = getattr(module, args.name)(N)
    prefix = seq.summatory_all()
    _emit_rows(
        args,
        ["n", "a", "A"],
        [[n, seq[n], prefix[n - 1]] for n in range(1, args.max + 1)],
    )
    return EXIT_OK


def _summatory_points(counts: list[int], checkpoints) -> list[tuple[int, int]]:
    """(x, A(x)) for each checkpoint, in one pass over the counts."""
    it, done, total, at = iter(counts), 0, 0, {}
    for x in sorted(set(checkpoints)):
        total += sum(islice(it, x - done))
        done, at[x] = x, total
    return [(x, at[x]) for x in checkpoints]


def cmd_asympt(args) -> int:
    from .growth import fit_model, model_report

    if args.gram and args.lattice != "custom":
        raise CliError(f"--gram needs --lattice custom, not {args.lattice}", EXIT_BAD_INPUT)
    checkpoints = args.checkpoints
    if not checkpoints or min(checkpoints) < 2:
        raise CliError("--checkpoints entries must be at least 2", EXIT_BAD_INPUT)
    cap = MAX_INDEX if args.lattice == "custom" else MAX_SUMMATORY_INDEX
    if max(checkpoints) > cap:
        raise CliError(f"--checkpoints entries must be at most {cap}", EXIT_BAD_INPUT)
    if args.lattice == "custom":
        if not args.gram:
            raise CliError("--lattice custom needs --gram", EXIT_BAD_INPUT)
        from .general import count_wr

        points = _summatory_points(count_wr(_parse_gram(args.gram), max(checkpoints)), checkpoints)
        model = fit_model(points)
    else:
        from .asympt import preset_model

        if args.lattice == "square":
            from .square import SQUARE as preset
        else:
            from .hexagonal import HEXAGONAL as preset
        model = preset_model(preset)
        points = list(zip(checkpoints, preset.summatory(checkpoints)))
    rows = model_report(points, model)
    _emit_rows(
        args,
        list(rows[0].keys()),
        [[r[k] for k in rows[0]] for r in rows],
    )
    return EXIT_OK


def cmd_constants(args) -> int:
    from .asympt import constants_table

    table = constants_table()
    if args.format == "json":
        print(json.dumps({k: _float_field(*v) for k, v in table.items()}))
    else:
        _emit_rows(args, ["name", "value", "abs_error"], [[k, *v] for k, v in table.items()])
    return EXIT_OK


def cmd_exists(args) -> int:
    from .general import existence

    g = _spec_gram(args)
    verdict = existence(g)
    _emit(args, {"verdict": verdict.value}, verdict.value)
    return EXIT_OK


def cmd_frames(args) -> int:
    from .general import enumerate_frames

    g = _spec_gram(args)
    if args.bound < 0:
        raise CliError("--bound must be nonnegative", EXIT_BAD_INPUT)
    if args.bound > MAX_FRAME_BOUND:
        raise CliError(f"--bound must be at most {MAX_FRAME_BOUND}", EXIT_BAD_INPUT)
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


def _radical_product(u: dict[int, Fraction], v: dict[int, Fraction]) -> dict[int, Fraction]:
    """u v, by sqrt(m) sqrt(n) = g sqrt(mn/g^2) with g = gcd(m, n), which
    keeps every radicand squarefree."""
    out: dict[int, Fraction] = {}
    for m, s in u.items():
        for n, t in v.items():
            g = math.gcd(m, n)
            key = m * n // (g * g)
            out[key] = out.get(key, 0) + g * s * t
    return out


def _radical_sign(x: dict[int, Fraction]) -> int:
    """Exact sign of the sum of c sqrt(m) over distinct squarefree m, which
    is 0 only when every c is, since the square roots of distinct squarefree
    integers are linearly independent over Q.  Otherwise the bounds
    isqrt(m s^2)/s <= sqrt(m) < (isqrt(m s^2) + 1)/s narrow, s squaring,
    until their sum leaves out 0."""
    terms = [(c, m) for m, c in x.items() if c]
    if not terms:
        return 0
    s = 1 << 64
    while True:
        low = high = Fraction(0)
        for c, m in terms:
            root = math.isqrt(m * s * s)
            low += c * Fraction(root + (c < 0), s)
            high += c * Fraction(root + (c > 0), s)
        if low > 0 or high < 0:
            return 1 if low > 0 else -1
        s *= s


def cmd_epstein(args) -> int:
    """Z(s) on the float entries (a result outside the float range exits 2
    through `main`), or the residue at s = 1 on the exact ones.  --radius is
    checked and read by nothing."""
    from .asympt import epstein_residue, epstein_value

    try:
        entries = [Scalar.parse(v) for v in args.form.split(",")]
    except (ValueError, AttributeError) as e:
        raise CliError(f"cannot parse form {args.form!r}: {e}", EXIT_BAD_INPUT)
    if len(entries) != 3:
        raise CliError("--form needs three entries a,b,c", EXIT_BAD_INPUT)
    if not 0 < args.radius < math.inf:
        raise CliError("--radius must be finite and above 0", EXIT_BAD_INPUT)
    if not (args.residue or 1 < args.s < math.inf):
        raise CliError(f"--s must be finite and above 1, not {args.s:g}", EXIT_BAD_INPUT)
    # the exact a c - b^2 as {m: c}, the sum of c sqrt(m) over squarefree m:
    # positive definiteness is decided on the exact entries, in up to two fields
    a, b, c = ({1: e.rat, e.root: e.irr} if e.root else {1: e.rat} for e in entries)
    det = _radical_product(a, c)
    for m, t in _radical_product(b, b).items():
        det[m] = det.get(m, 0) - t
    if _radical_sign(a) <= 0 or _radical_sign(det) <= 0:
        raise CliError("form must be positive definite", EXIT_BAD_INPUT)
    if args.residue:
        payload = {"residue": _float_field(*epstein_residue(det))}
    else:
        try:
            form = tuple(map(float, entries))
            fdet = form[0] * form[2] - form[1] * form[1]
        except OverflowError:
            form, fdet = (), math.inf
        if not (math.isfinite(sum(form) + fdet) and fdet > 0):
            message = "a, b, c and a*c - b^2 must be finite as floats, and a*c - b^2 above 0"
            raise CliError(f"form {args.form!r} is outside the float range: {message}", EXIT_BAD_INPUT)
        payload = {"value": _float_field(*epstein_value(form, args.s)), "s": args.s}
    key, field = next(iter(payload.items()))
    _emit(args, payload, f"{key} = {field['value']} ± {field['abs_error']:.3g}")
    return EXIT_OK


# -- argument plumbing --------------------------------------------------------


def _add_lattice_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=["square", "hexagonal"])
    p.add_argument("--gram", help="Gram matrix JSON, {a,b,c} JSON, {t,n} JSON, or diag(x,y)")


def _checkpoint_list(text: str) -> list[int]:
    # exactly: 1e3 is 1000, and 1000.00000000000001 is no integer
    try:
        values = [_fraction(part) for part in text.split(",") if part]
        if all(v.denominator == 1 for v in values):
            return [int(v) for v in values]
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad checkpoint list {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellround",
        description="Count and model well-rounded sublattices of planar lattices.",
    )
    common = argparse.ArgumentParser(add_help=False)
    # the top-level --format defaults to csv; a subcommand's has no default,
    # so that it replaces the top-level value only when given
    for p, default in ((parser, "csv"), (common, argparse.SUPPRESS)):
        p.add_argument(
            "--format", choices=["csv", "json"], default=default, help="output format (default csv)"
        )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("reduce", "classify", "exists"):
        p = sub.add_parser(name, parents=[common])
        _add_lattice_args(p)

    p = sub.add_parser("census", parents=[common])
    _add_lattice_args(p)
    p.add_argument("--max", type=int, default=DEFAULT_MAX)
    p.add_argument("--mode", choices=["bruteforce", "formula", "both"], default="bruteforce")

    p = sub.add_parser("series", parents=[common])
    p.add_argument("--name", required=True)
    p.add_argument("--max", type=int, default=DEFAULT_MAX)

    p = sub.add_parser("asympt", parents=[common])
    p.add_argument("--lattice", choices=["square", "hex", "custom"], default="square")
    p.add_argument("--gram")
    p.add_argument("--checkpoints", type=_checkpoint_list, default=list(DEFAULT_CHECKPOINTS))

    sub.add_parser("constants", parents=[common])

    p = sub.add_parser("frames", parents=[common])
    _add_lattice_args(p)
    p.add_argument("--bound", type=int, default=1)

    p = sub.add_parser("epstein", parents=[common])
    p.add_argument("--form", required=True, help="a,b,c of the form a x^2 + 2 b x y + c y^2")
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--radius", type=float, default=1.0e6, help="not read; finite and above 0")
    p.add_argument("--residue", action="store_true", help="the exact residue at s = 1")
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
    # no wellround code calls BLAS, so the OpenBLAS worker pool that numpy's
    # import starts would only cost start-up time; set here, not at import,
    # so that a library user's numpy keeps its threads, and a value the user
    # gave is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
