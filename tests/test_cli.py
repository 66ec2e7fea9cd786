import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from itertools import accumulate
from pathlib import Path

import mpmath
import pytest

import wellround
from wellround.cli import main
from wellround.gram import GramForm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassifyReduce:
    def test_classify_hexagonal(self, capsys):
        code, out, _ = run(capsys, "classify", "--gram", "[[2,1],[1,2]]")
        assert code == 0
        assert out.strip() == "hexagonal"

    def test_classify_square(self, capsys):
        code, out, _ = run(capsys, "classify", "--gram", "[[1,0],[0,1]]")
        assert code == 0
        assert out.strip() == "square"

    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "--gram", "[[5,4],[4,5]]")
        assert code == 0
        assert out.strip() == "[[2, 1], [1, 5]] (centred rectangular)"

    def test_bad_gram_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--gram", "not json")
        assert code == 2
        assert "cannot parse" in err

    def test_not_positive_definite_exits_2(self, capsys):
        code, _, _ = run(capsys, "classify", "--gram", "[[1,2],[2,1]]")
        assert code == 2

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--gram", "[[5,4],[4,5]]", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["gram"] == {"a": "2", "b": "1", "c": "5"}


# [[1, sqrt(5)/2], [sqrt(5)/2, 3]] over Q(sqrt 5), in the basis (2, 1), (1, 1)
_Q5_SKEWED = '[["7+2*sqrt(5)", "5+3/2*sqrt(5)"], ["5+3/2*sqrt(5)", "4+sqrt(5)"]]'


@pytest.mark.parametrize(
    "lattice, expected",
    [
        (
            ["--preset", "square"],
            [
                "[[1, 0], [0, 1]] (square)\n",
                '{"gram": {"a": "1", "b": "0", "c": "1"}, "type": "square"}\n',
                "square\n",
                '{"type": "square"}\n',
            ],
        ),
        (
            ["--preset", "hexagonal"],
            [
                "[[2, 1], [1, 2]] (hexagonal)\n",
                '{"gram": {"a": "2", "b": "1", "c": "2"}, "type": "hexagonal"}\n',
                "hexagonal\n",
                '{"type": "hexagonal"}\n',
            ],
        ),
        (
            ["--gram", "[[2,1],[1,3]]"],
            [
                "[[2, 1], [1, 3]] (centred rectangular)\n",
                '{"gram": {"a": "2", "b": "1", "c": "3"}, "type": "centred rectangular"}\n',
                "centred_rectangular\n",
                '{"type": "centred_rectangular"}\n',
            ],
        ),
        (
            ["--gram", '[[1,"1/2"],["1/2","1/3"]]'],
            [
                "[[1/3, 1/6], [1/6, 1/3]] (hexagonal)\n",
                '{"gram": {"a": "1/3", "b": "1/6", "c": "1/3"}, "type": "hexagonal"}\n',
                "hexagonal\n",
                '{"type": "hexagonal"}\n',
            ],
        ),
        (
            ["--gram", "diag(1,sqrt(2))"],
            [
                "[[1, 0], [0, sqrt(2)]] (rectangular)\n",
                '{"gram": {"a": "1", "b": "0", "c": {"rat": "0", "irr": "1", "D": 2}}, "type": "rectangular"}\n',
                "rectangular\n",
                '{"type": "rectangular"}\n',
            ],
        ),
        (
            ["--gram", _Q5_SKEWED],
            [
                "[[1, -1+1/2*sqrt(5)], [-1+1/2*sqrt(5), 4-sqrt(5)]] (general)\n",
                '{"gram": {"a": "1", "b": {"rat": "-1", "irr": "1/2", "D": 5}, "c": {"rat": "4", "irr": "-1", "D": 5}}, "type": "general"}\n',
                "general\n",
                '{"type": "general"}\n',
            ],
        ),
    ],
)
def test_reduce_classify_golden_output(capsys, lattice, expected):
    # recorded from the Scalar reduction loop, before gauss_reduce wrapped the
    # integer loops: reduce and classify, csv and json
    got = [
        run(capsys, command, *lattice, "--format", fmt)
        for command in ("reduce", "classify")
        for fmt in ("csv", "json")
    ]
    assert got == [(0, out, "") for out in expected]


@pytest.mark.parametrize(
    "command",
    [
        "reduce",
        "classify",
        "exists",
        "census",
        "census --mode formula",
        "census --mode both",
        "asympt --lattice custom",
        "frames",
    ],
)
def test_mixed_fields_exit_2(capsys, command):
    # entries from two fields lie outside the package's domain Q(sqrt D);
    # the roots are named in entry order, as the census names them
    gram = '[[1,"sqrt(2)/2"],["sqrt(2)/2","sqrt(3)"]]'
    assert run(capsys, *command.split(), "--gram", gram) == (2, "", "error: cannot mix sqrt(2) and sqrt(3)\n")


@pytest.mark.parametrize("preset", ["square", "hexagonal"])
def test_format_before_the_subcommand_is_honoured(capsys, preset):
    before = run(capsys, "--format", "json", "reduce", "--preset", preset)
    after = run(capsys, "reduce", "--format", "json", "--preset", preset)
    assert before == after
    assert before[0] == 0 and json.loads(before[1])["gram"]
    # given in both places, the subcommand's wins
    assert run(capsys, "--format", "json", "reduce", "--format", "csv", "--preset", preset) == run(
        capsys, "reduce", "--preset", preset
    )


def test_oversized_radicand_is_refused_at_once():
    # the squarefree test of a radicand of 21 digits would take hours
    argv = [sys.executable, "-m", "wellround.cli", "exists", "--gram", "diag(1,sqrt(100000000000000000039))"]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=_child_env(), timeout=30)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "radicand must be at most 1000000000" in proc.stderr
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--gram", "diag(1,1e1000000000)"],
        ["census", "--gram", '{"a": 1, "b": 0, "c": "2e-1000000000"}', "--max", "5"],
        ["epstein", "--form", "1,0,1e1000000000"],
    ],
)
def test_huge_exponent_is_refused_at_once(argv):
    # Fraction("1e1000000000") would build a 415 MB integer before any check
    argv = [sys.executable, "-m", "wellround.cli", *argv]
    proc = subprocess.run(argv, capture_output=True, text=True, env=_child_env(), timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: cannot parse") and "is above 4300" in proc.stderr


class TestCensus:
    def test_both_mode_square(self, capsys):
        code, out, _ = run(
            capsys, "census", "--preset", "square", "--max", "30", "--mode", "both"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[-1] == "diff"
        assert all(line.split(",")[-1] == "0" for line in lines[1:])

    def test_formula_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "census",
            "--preset",
            "hexagonal",
            "--max",
            "5",
            "--mode",
            "formula",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0] == [1, 1]

    def test_nonrational_both(self, capsys):
        code, out, _ = run(
            capsys,
            "census",
            "--gram",
            "diag(1,sqrt(2))",
            "--max",
            "30",
            "--mode",
            "both",
        )
        assert code == 0
        assert all(line.split(",")[-1] == "0" for line in out.strip().splitlines()[1:])

    def test_root_with_divisor_parses(self, capsys):
        code, out, _ = run(
            capsys, "census", "--gram", "diag(1,sqrt(3)/2)", "--max", "30", "--mode", "both"
        )
        assert code == 0
        assert all(line.split(",")[-1] == "0" for line in out.strip().splitlines()[1:])

    def test_invariant_error_exits_3(self, capsys, monkeypatch):
        from wellround import cli
        from wellround.general import InvariantError

        def breach(g, N, preset):
            raise InvariantError("frame set inconsistent")

        monkeypatch.setattr(cli, "_formula_counts", breach)
        code, _, err = run(
            capsys, "census", "--preset", "square", "--max", "5", "--mode", "formula"
        )
        assert code == 3
        assert err == "invariant breach: frame set inconsistent\n"

    def test_mismatch_exits_3(self, capsys, monkeypatch):
        from wellround import cli

        # the square census is 1, 1, 0, 1, 2; the formula is wrong from n = 4 on
        monkeypatch.setattr(cli, "_formula_counts", lambda g, N, preset: [1, 1, 0, 99, 7])
        code, _, err = run(
            capsys, "census", "--preset", "square", "--max", "5", "--mode", "both"
        )
        assert code == 3
        assert err == "census mismatch at n=4: census 1, formula 99\n"

    def test_bad_max_exits_2(self, capsys):
        code, _, _ = run(capsys, "census", "--preset", "square", "--max", "0")
        assert code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["asympt", "--checkpoints", "1"], "--checkpoints"),
        (["asympt", "--checkpoints", "0,100"], "--checkpoints"),
        (["series", "--name", "a_square", "--max", "-3"], "--max"),
        (["series", "--name", "a_square", "--max", "0"], "--max"),
        (["epstein", "--form", "1,0,1", "--radius", "-5"], "--radius"),
        (["epstein", "--form", "1,0,1", "--radius", "0", "--residue"], "--radius"),
        (["frames", "--preset", "square", "--bound", "-1"], "--bound"),
        (["epstein", "--form", "1,0,1", "--radius", "inf", "--residue"], "--radius"),
        (["epstein", "--form", "1,0,1", "--radius", "nan"], "--radius"),
        # index bounds past cli.MAX_INDEX are refused before any array is built
        (["series", "--name", "a_square", "--max", "10000001"], "--max"),
        (["census", "--preset", "square", "--mode", "formula", "--max", "10000001"], "--max"),
        (["asympt", "--lattice", "custom", "--gram", "[[2,1],[1,3]]", "--checkpoints", "1000,10000001"], "--checkpoints"),
        (["epstein", "--form", "1,0,1", "--s", "nan"], "--s"),
        (["epstein", "--form", "1,0,1", "--s", "1"], "--s"),
        (["epstein", "--form", "1,0,1", "--s", "inf"], "--s"),
        # a^-s overflows: no inf value, nor a NaN error
        (["epstein", "--form", "0.5,0,0.5", "--s", "2000"], "s = 2000.0"),
        # a --gram that asympt would otherwise ignore
        (["asympt", "--lattice", "square", "--gram", "[[1,0],[0,2]]"], "--gram"),
        (["asympt", "--lattice", "hex", "--gram", "[[1,0],[0,2]]"], "--gram"),
        (["classify", "--gram", "not json"], "--gram"),
        # the summatory path of the two presets stops at cli.MAX_SUMMATORY_INDEX
        (["asympt", "--checkpoints", "1000,1000000001"], "--checkpoints"),
        (["asympt", "--lattice", "hex", "--checkpoints", "1000000001"], "--checkpoints"),
    ],
)
def test_bad_flag_value_exits_2(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize(
    "argv",
    [
        # radii of every size, and a thin form: no value is truncated
        ["--form", "1,0,1", "--radius", "1e12"],
        ["--form", "1,0,1", "--s", "3", "--radius", "1e-200"],
        ["--form", "1,0,1", "--s", "2", "--radius", "1e-320"],
        ["--form", "1,0,1/1000000000000"],
        ["--form", "1,0,1e-12", "--radius", "1e-6"],
    ],
)
def test_epstein_value_reads_no_radius(capsys, argv):
    # each call prints a value, the one of the same call without --radius
    code, out, err = run(capsys, "epstein", *argv)
    if "--radius" in argv:
        i = argv.index("--radius")
        argv = argv[:i] + argv[i + 2 :]
    assert (code, err) == (0, "") and out.startswith("value = ")
    assert run(capsys, "epstein", *argv) == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["frames", "--gram", "[[1,2],[2,4]]", "--bound", "2"],
        ["census", "--gram", "[[1,2],[2,4]]", "--max", "5", "--mode", "formula"],
        ["frames", "--gram", "[[1,2],[2,1]]", "--bound", "2"],
        ["census", "--gram", "[[-1,0],[0,-2]]", "--max", "5", "--mode", "formula"],
        ["census", "--gram", "[[0,1],[1,0]]", "--max", "5", "--mode", "formula"],
        ["asympt", "--lattice", "custom", "--gram", "[[0,1],[1,0]]"],
        ["frames", "--gram", "[[0,1],[1,0]]"],
    ],
)
def test_not_positive_definite_exits_2(capsys, argv):
    # refused when --gram is parsed, before any frame or count is made
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: not positive definite")


def test_frame_bound_is_refused_before_any_walk(capsys, monkeypatch):
    from wellround import cli, general

    def no_walk(g, H):
        raise AssertionError("enumerate_frames called")

    monkeypatch.setattr(general, "enumerate_frames", no_walk)
    code, out, err = run(capsys, "frames", "--preset", "square", "--bound", str(cli.MAX_FRAME_BOUND + 1))
    assert (code, out) == (2, "")
    assert err == f"error: --bound must be at most {cli.MAX_FRAME_BOUND}\n"
    monkeypatch.setattr(general, "enumerate_frames", lambda g, H: [])
    code, out, _ = run(capsys, "frames", "--preset", "square", "--bound", str(cli.MAX_FRAME_BOUND))
    assert (code, out) == (0, "w0,w1,z0,z1,sigma,kappa_sq,parity\r\n")


def test_asympt_has_no_preset_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["asympt", "--lattice", "custom", "--preset", "square"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --preset" in capsys.readouterr().err
    # without --gram, the error names only the flag asympt has
    assert main(["asympt", "--lattice", "custom"]) == 2
    err = capsys.readouterr().err
    assert "--gram" in err and "--preset" not in err


def test_asympt_presets_read_past_the_array_cap(capsys):
    # A(10^7) of the square lattice, the value a_square(10^7) gives, from
    # tables of about 10^(14/3) entries
    code, out, _ = run(capsys, "asympt", "--checkpoints", "1000,10000000", "--format", "json")
    assert code == 0
    assert [row[:2] for row in json.loads(out)["rows"]] == [[1000, 1663], [10**7, 32_706_462]]


# read exactly: 1000.00000000000001 would be 1000 as a float
@pytest.mark.parametrize("checkpoints", ["inf", "100.9,2000", "abc", "1000.00000000000001", "1e99999"])
def test_bad_checkpoint_list_exits_2(capsys, checkpoints):
    # refused by argparse while parsing, before any count is made
    with pytest.raises(SystemExit) as exc:
        main(["asympt", "--checkpoints", checkpoints])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert "argument --checkpoints: bad checkpoint list" in out.err


def test_checkpoint_list_reads_exponents():
    from wellround.cli import _checkpoint_list

    assert _checkpoint_list("1e3,1e9,2000.0,30") == [1000, 10**9, 2000, 30]


@pytest.mark.parametrize(
    "gram",
    ['[[1.1, 0], [0, 1]]', '{"a": 1.1, "b": 0, "c": 1}', '{"t": 0, "n": 1.1}'],
)
def test_inexact_gram_entry_exits_2(capsys, gram):
    # all three JSON forms refuse a float that is not an integer
    code, out, err = run(capsys, "classify", "--gram", gram)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse Gram form") and "non-exact entry 1.1" in err


def test_json_float_literal_of_an_integer_is_read_exactly(capsys):
    # 2.0 and 1e22 are their doubles exactly, and so integers
    assert run(capsys, "classify", "--gram", "[[2.0,0],[0,1e22]]") == (0, "rectangular\n", "")
    assert run(capsys, "classify", "--gram", "[[1e22,0],[0,1e22]]") == (0, "square\n", "")


@pytest.mark.parametrize(
    "command, gram, entry",
    [
        # a float part of an exact entry is read as JSON's binary value
        ("reduce", '[[{"rat":0.1,"irr":"0","D":2},0],[0,1]]', "non-exact entry 0.1"),
        # a literal whose double is another number (0 and 2) is refused, not
        # read as that double, which gives another lattice
        ("classify", "[[1,1e-400],[1e-400,1]]", "non-exact entry 1e-400; "),
        ("classify", "[[2,1],[1,2.0000000000000000001]]", "non-exact entry 2.0000000000000000001; "),
        ("classify", '{"a":1,"b":1e-400,"c":1}', "non-exact entry 1e-400; "),
        ("classify", '{"t":1e-400,"n":1}', "non-exact entry 1e-400; "),
        ("reduce", '[[{"rat":1e-400,"irr":"1","D":2},0],[0,2]]', "non-exact entry 1e-400; "),
        ("classify", '[[true,0],[0,true]]', "boolean entry true"),
        ("classify", '{"t":true,"n":2}', "boolean entry true"),
    ],
)
def test_boolean_or_inexact_json_part_exits_2(capsys, command, gram, entry):
    code, out, err = run(capsys, command, "--gram", gram)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot parse Gram form {gram!r} of --gram: {entry}")


_FLOAT_RANGE = (
    "is outside the float range: a, b, c and a*c - b^2 must be finite as floats, "
    "and a*c - b^2 above 0\n"
)


@pytest.mark.parametrize(
    "form",
    [
        # float(1e400) overflows; 1e-400 rounds to 0; a*c = 1e600 overflows
        "1e400,0,1",
        "1e-400,0,1",
        "1e300,0,1e300",
    ],
)
def test_epstein_form_outside_the_float_range_exits_2(capsys, form):
    # each form is positive definite; its floats are not
    assert run(capsys, "epstein", "--form", form, "--s", "2") == (2, "", f"error: form {form!r} {_FLOAT_RANGE}")


@pytest.mark.parametrize(
    "form, det", [("1e300,0,1e300", "1e600"), ("1e-400,0,1", "1e-400"), ("1e308,0,1e308", "1e616")]
)
def test_epstein_residue_needs_no_float_form(capsys, form, det):
    # a residue reads only the exact a c - b^2, here outside the float range,
    # while pi/sqrt(a c - b^2) is a normal float; pi 10^-308 has an error
    # of a few units below the normal floats
    code, out, err = run(capsys, "epstein", "--form", form, "--residue", "--format", "json")
    assert (code, err) == (0, "")
    residue = json.loads(out)["residue"]
    with mpmath.workdps(30):
        exact = mpmath.pi / mpmath.sqrt(mpmath.mpf(det))
        assert abs(residue["value"] - exact) <= residue["abs_error"] < 1e-14 * exact


@pytest.mark.parametrize("form", ["1e-700,0,1e-700", "1e400,0,1e400"])
def test_epstein_residue_outside_the_float_range_exits_2(capsys, form):
    # pi 10^700 overflows, and pi 10^-400 is below the normal floats
    code, out, err = run(capsys, "epstein", "--form", form, "--residue")
    assert (code, out, err) == (2, "", "error: the residue of the form is outside the float range\n")


@pytest.mark.parametrize(
    "form",
    [
        "1,1,1",
        "1/3,1/3,1/3",
        "0,0,1",
        "2,3,4",
        # a c = 7 = b^2 exactly, over two fields
        "3+sqrt(2),sqrt(7),3-sqrt(2)",
        "1e-400,1e-400,1e-400",
    ],
)
def test_epstein_positive_definiteness_is_exact(capsys, form):
    assert run(capsys, "epstein", "--form", form) == (2, "", "error: form must be positive definite\n")


def test_epstein_form_over_two_fields(capsys):
    # a c - b^2 = 7 - (sqrt(7) - 10^-25)^2 > 0 is decided exactly; in floats
    # it is -1.8e-15, so a value is refused as outside the float range, while
    # the residue reads only the exact a c - b^2 = 2 sqrt(7)/10^25 - 10^-50
    form = "3+sqrt(2),sqrt(7)-1/10000000000000000000000000,3-sqrt(2)"
    assert run(capsys, "epstein", "--form", form, "--s", "2") == (2, "", f"error: form {form!r} {_FLOAT_RANGE}")
    code, out, err = run(capsys, "epstein", "--form", form, "--residue", "--format", "json")
    assert (code, err) == (0, "")
    residue = json.loads(out)["residue"]
    with mpmath.workdps(60):
        det = 2 * mpmath.sqrt(7) / mpmath.mpf(10) ** 25 - mpmath.mpf(10) ** -50
        assert abs(residue["value"] - mpmath.pi / mpmath.sqrt(det)) <= residue["abs_error"]
    assert run(capsys, "epstein", "--form", "1,sqrt(2)/2,sqrt(3)", "--radius", "1e4")[0] == 0


@pytest.mark.parametrize("k", [150, 155])
def test_epstein_residue_refuses_a_det_within_its_roundings(capsys, k):
    # a = x - y sqrt(2) > 0 with parts near 10^k, and a c - b^2 = a^2 cancels
    # from terms near 10^(2k): within their float roundings, and at k = 155
    # beyond the float range
    y = 10**k + 7
    a = f"{math.isqrt(2 * y * y) + 1}-{y}*sqrt(2)"
    code, out, err = run(capsys, "epstein", "--form", f"{a},0,{a}", "--residue")
    assert (code, out, err) == (2, "", "error: a*c - b^2 of the form is not above the roundings of its float terms\n")


@pytest.mark.parametrize("gram", ['"tn"', '"t"', '"n"', '"abc"', "5", "null"])
def test_gram_of_another_json_type_exits_2(capsys, gram):
    # a JSON string holding t or n is no {t, n} descriptor
    code, out, err = run(capsys, "classify", "--gram", gram)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot parse Gram form {gram!r} of --gram: ")


@pytest.mark.parametrize(
    "entry, message",
    [
        ('{"rat": "0", "irr": "1", "D": 2.5}', "radicand must be an integer, got 2.5"),
        ('{"rat": "0", "irr": "1", "D": 1e999}', "radicand must be an integer, got inf"),
        ('{"rat": 1e999, "irr": "1", "D": 2}', "non-finite value inf"),
        ('{"rat": "0", "irr": NaN, "D": 2}', "non-finite value nan"),
        ("Infinity", "non-finite value inf"),
        ("NaN", "non-finite value nan"),
    ],
)
def test_json_entry_with_a_non_integral_radicand_exits_2(capsys, entry, message):
    code, out, err = run(capsys, "classify", "--gram", f"[[{entry}, 0], [0, 1]]")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse Gram form") and err.endswith(f": {message}\n")
    # an integral radicand given as 2.0 is read as 2
    assert run(capsys, "classify", "--gram", '[[{"rat": "0", "irr": "1", "D": 2.0}, 0], [0, 1]]') == (
        0,
        "rectangular\n",
        "",
    )


@pytest.mark.parametrize("command", ["reduce", "classify", "exists", "census", "frames"])
@pytest.mark.parametrize(
    "gram, err",
    [
        # exactly singular over Q(sqrt 2)
        ('[[1,"sqrt(2)"],["sqrt(2)",2]]', "error: not positive definite: [[1, sqrt(2)], [sqrt(2), 2]]\n"),
        ('[["sqrt(2)",1],[1,"sqrt(2)/2"]]', "error: not positive definite: [[sqrt(2), 1], [1, 1/2*sqrt(2)]]\n"),
        # a c mixes two fields before b is read
        ('[["sqrt(3)","sqrt(2)"],["sqrt(2)","sqrt(5)"]]', "error: cannot mix sqrt(3) and sqrt(5)\n"),
        # a c = 3 and b^2 = 5 are rational: not positive definite across fields
        ('[["sqrt(3)","sqrt(5)"],["sqrt(5)","sqrt(3)"]]', "error: not positive definite: [[sqrt(3), sqrt(5)], [sqrt(5), sqrt(3)]]\n"),
    ],
)
def test_singular_and_mixed_forms_exit_2(capsys, command, gram, err):
    assert run(capsys, command, "--gram", gram) == (2, "", err)


class TestSeries:
    def test_series_csv(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "b_square", "--max", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,a,A"
        assert lines[1] == "1,1,1"
        assert lines[5] == "5,2,5"

    def test_unknown_series_exits_2(self, capsys):
        code, _, _ = run(capsys, "series", "--name", "nope", "--max", "5")
        assert code == 2

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("a_square", "7d4e11a1e82d2385ddccbbfa214dcac13292bd9d350d2c3241ccb1ef591a78ab"),
            ("a_hex", "9cca98d5a12b1ab2423c89c795068aeed65e4fe6df63ecb1965a056fd652a389"),
            ("b_square", "414b640f4cd9083d5226d4f51c718c731fbc8cebdd8495329d7df703cb9f3ead"),
            ("b_hex", "69a023dc222e1b9f5cf19aaa8868648c9870130cd6aed3843ceabbbdaad41b66"),
            ("b_square_primitive", "47ad9a42ead5656138cd32eb7f0e39cbb2e6b68805b82254c050cde58cf72dd6"),
            ("b_hex_primitive", "1f5c7a335c520e8d68818e9bccc5f8959c8ca6961dfc00958d9b15a67a0b8f8e"),
        ],
    )
    def test_output_is_pinned(self, capsys, name, digest):
        # sha256 of the csv to 10^4: any change to a count or to the format shows
        code, out, err = run(capsys, "series", "--name", name, "--max", "10000")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("N", [1, 600, 10_000, 10_001])
@pytest.mark.parametrize("preset, gram", [("square", "[[1,0],[0,1]]"), ("hexagonal", "[[2,1],[1,2]]")])
def test_preset_formula_equals_its_gram_spelling(capsys, preset, gram, N):
    # count_wr on both sides up to PRESET_IDENTITY_FROM, the Dirichlet
    # identity against count_wr past it
    for fmt in ("csv", "json"):
        argv = ["--format", fmt, "census", "--max", str(N), "--mode", "formula"]
        assert run(capsys, *argv, "--preset", preset) == run(capsys, *argv, "--gram", gram)


class TestCensusPinned:
    @pytest.mark.parametrize(
        "lattice, N, fmt, digest",
        [
            ("--preset square", 600, "csv", "19d64227765ce145e947568a1a93694be8faf0574d7013d1666941db3813831a"),
            ("--preset square", 600, "json", "503ded3a3eb2240c7838dbd11c510ab6c0c27d95204a2d4dca15c03aba814e4c"),
            ("--preset hexagonal", 600, "csv", "73047089ed80c4289e704ca8c4c81f65c997ffb4420dab50c460e2940db22223"),
            ("--preset hexagonal", 600, "json", "527f479d57bf64ea5fedce907bf5395f68c4469d9f3d5b5a0d9f72e1eea79861"),
            ("--gram [[2,1],[1,3]]", 600, "csv", "3966416a08a3b5d3447ab95daeb9614e1fc1532a7acd2a97717a40690ad43a5b"),
            ("--gram [[2,1],[1,3]]", 600, "json", "8255d06b9b4851de2d872d1a26237bb64e5f0a265187cf2cfb25bcd4baf3a4ef"),
            # a basis of the hexagonal lattice that folds only where 7 | l: the same census
            ("--gram [[14,5],[5,2]]", 600, "csv", "73047089ed80c4289e704ca8c4c81f65c997ffb4420dab50c460e2940db22223"),
            ("--gram [[14,5],[5,2]]", 600, "json", "527f479d57bf64ea5fedce907bf5395f68c4469d9f3d5b5a0d9f72e1eea79861"),
            ("--gram diag(1,sqrt(2))", 60, "csv", "a96a8a096b1cb3c769034afd66cd7101def08598dd916700c48e0c8191b8c0cf"),
            ("--gram diag(1,sqrt(2))", 60, "json", "f2b97f550852d5f1981f94a1cd8c23622179f6d3af473b7b3c7385b82ba32c4d"),
        ],
    )
    def test_output_is_pinned(self, capsys, lattice, N, fmt, digest):
        # sha256 of the census: any change to a tally, to the walk's window
        # or to the format shows
        code, out, err = run(capsys, "--format", fmt, "census", *lattice.split(), "--max", str(N))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_census_csv_shape(capsys):
    code, out, _ = run(capsys, "census", "--preset", "square", "--max", "3")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0].split(",") == [
        "n",
        "total",
        "general",
        "rectangular",
        "centred_rect",
        "rhombic",
        "square",
        "hexagonal",
        "well_rounded",
    ]
    assert len(lines) == 5  # header + 3 rows + trailing newline


def _whole_table(header: list[str], rows: list[list]) -> tuple[str, str]:
    """The CSV and the JSON of a table, each written at once."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue(), json.dumps({"columns": header, "rows": rows}) + "\n"


@pytest.mark.parametrize("block", [None, 4])
@pytest.mark.parametrize("N", [1, 4, 5, 4096, 4097, 8197])
def test_streamed_table_equals_the_whole_table(capsys, monkeypatch, block, N):
    # rows are written as they come, JSON in blocks of JSON_BLOCK rows; the
    # output is that of one csv.writer and one json.dumps of the whole table,
    # at and across each block boundary
    from wellround.general import count_wr
    from wellround.square import b_square

    if block:
        monkeypatch.setattr("wellround.cli.JSON_BLOCK", block)
    a, wr = list(b_square(N)), count_wr(GramForm.of(2, 1, 3), N)
    tables = {
        ("series", "--name", "b_square"): (["n", "a", "A"], list(map(list, zip(range(1, N + 1), a, accumulate(a))))),
        ("census", "--gram", "[[2,1],[1,3]]", "--mode", "formula"): (["n", "well_rounded"], list(map(list, zip(range(1, N + 1), wr)))),
    }
    for argv, table in tables.items():
        for fmt, expected in zip(("csv", "json"), _whole_table(*table)):
            assert run(capsys, "--format", fmt, *argv, "--max", str(N)) == (0, expected, "")


def test_closed_stdout_ends_quietly():
    # `wellround series --name a_square --max 1000000 | head -c 10`: the reader
    # closes the pipe long before the table ends
    argv = [sys.executable, "-m", "wellround.cli", "series", "--name", "a_square", "--max", "1000000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err, head) == (0, b"", b"n,a,A\r\n1,1")


class TestOtherCommands:
    def test_exists_verdicts(self, capsys):
        code, out, _ = run(capsys, "exists", "--gram", '{"t": "sqrt(2)", "n": "3"}')
        assert code == 0
        assert out.strip() == "NoWellRounded"
        code, out, _ = run(capsys, "exists", "--preset", "square")
        assert out.strip() == "RationalLattice"

    def test_frames_json(self, capsys):
        code, out, _ = run(
            capsys, "frames", "--preset", "square", "--bound", "1", "--format", "json"
        )
        assert code == 0
        frames = json.loads(out)
        assert len(frames) == 2
        assert {f["sigma"] for f in frames} == {1, 2}

    def test_frames_nonrational_exits_4(self, capsys):
        code, _, _ = run(capsys, "frames", "--gram", "diag(1,sqrt(2))")
        assert code == 4

    def test_constants_within_stated_error(self, capsys):
        import mpmath

        code, out, _ = run(capsys, "constants", "--format", "json")
        assert code == 0
        table = json.loads(out)
        assert list(table) == [
            "L1_chi4", "L1_chi3", "Lp_over_L_chi4", "Lp_over_L_chi3", "euler_gamma",
            "zeta2", "zetap2_over_zeta2", "c_square", "c_triangle",
        ]
        with mpmath.workdps(30):
            # the characters mod 4 and mod 3, as mpmath's periodic tables
            chi4, chi3 = [0, 1, 0, -1], [0, 1, -1]
            reference = {
                "L1_chi4": mpmath.dirichlet(1, chi4),
                "L1_chi3": mpmath.dirichlet(1, chi3),
                "Lp_over_L_chi4": mpmath.dirichlet(1, chi4, 1) / mpmath.dirichlet(1, chi4),
                "Lp_over_L_chi3": mpmath.dirichlet(1, chi3, 1) / mpmath.dirichlet(1, chi3),
                "euler_gamma": +mpmath.euler,
                "zeta2": mpmath.zeta(2),
                "zetap2_over_zeta2": mpmath.zeta(2, derivative=1) / mpmath.zeta(2),
            }
        # each abs_error is an estimate of roundings and truncation, not a
        # floor: it bounds the distance and stays below 1e-13
        for name, want in reference.items():
            entry = table[name]
            assert abs(entry["value"] - float(want)) <= entry["abs_error"] < 1e-13, name
        # the paper's seven decimals: within half of the last digit
        for name, paper in (("c_square", 0.6272237), ("c_triangle", 0.4915036)):
            entry = table[name]
            assert abs(entry["value"] - paper) <= 5e-8 + entry["abs_error"], name

    @pytest.mark.parametrize(
        "form, closed_form",
        [
            # 4 zeta(2) G with Catalan's G, and (3/2) zeta(2) L(2, chi_-3)
            ("1,0,1", lambda: 4 * mpmath.zeta(2) * mpmath.catalan),
            ("2,1,2", lambda: 1.5 * mpmath.zeta(2) * mpmath.dirichlet(2, [0, 1, -1])),
        ],
    )
    def test_epstein_value(self, capsys, form, closed_form):
        code, out, _ = run(capsys, "epstein", "--form", form, "--s", "2", "--format", "json")
        assert code == 0
        value = json.loads(out)["value"]
        with mpmath.workdps(30):
            assert abs(value["value"] - closed_form()) <= value["abs_error"] < 1e-13 * value["value"]

    @pytest.mark.parametrize(
        "form, det",
        [
            ("1,0,1", lambda: 1),
            ("2,1,2", lambda: 3),
            ("1,sqrt(2)/2,4", lambda: mpmath.mpf(7) / 2),
            # over two fields
            ("1,sqrt(2)/2,sqrt(3)", lambda: mpmath.sqrt(3) - mpmath.mpf(1) / 2),
            # near-singular: in floats, 1 - 0.999999999999^2 errs by 1.1e-5, relative
            ("1,999999999999/1000000000000,1", lambda: mpmath.mpf(1999999999999) / 10**24),
        ],
        ids=["square", "hexagonal", "sqrt2", "two-fields", "near-singular"],
    )
    def test_epstein_residue_error_covers_true_error(self, capsys, form, det):
        # the residue at s = 1 is pi / sqrt(ac - b^2), on the exact ac - b^2
        code, out, _ = run(capsys, "epstein", "--form", form, "--residue", "--format", "json")
        assert code == 0
        residue = json.loads(out)["residue"]
        with mpmath.workdps(30):
            distance = abs(residue["value"] - mpmath.pi / mpmath.sqrt(det()))
        assert distance <= residue["abs_error"] < 1e-14 * residue["value"]

    @pytest.mark.parametrize(
        "args, expected",
        [
            (
                ["--residue", "--format", "csv"],
                "residue = 3.141592653589793 ± 3.49e-15\n",
            ),
            (
                ["--residue", "--format", "json"],
                '{"residue": {"value": 3.141592653589793, "abs_error": 3.4878684980086337e-15}}\n',
            ),
            (
                ["--s", "2", "--format", "csv"],
                "value = 6.02681203969194 ± 4.78e-14\n",
            ),
            (
                ["--s", "2", "--format", "json"],
                '{"value": {"value": 6.02681203969194, "abs_error": 4.783709291909603e-14}, "s": 2.0}\n',
            ),
        ],
    )
    def test_epstein_golden_output(self, capsys, args, expected):
        # the values recorded from the Chowla-Selberg series, `asympt.epstein_value`;
        # the residue is pi / sqrt(ac - b^2); neither reads --radius
        argv = ["epstein", "--form", "1,0,1", "--radius", "1e4", *args]
        assert run(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize(
        "form, s, closed_form",
        [
            # 4 zeta(s) L(s, chi_-4), and 6 2^-s zeta(s) L(s, chi_-3)
            ("1,0,1", "200", lambda s: 4 * mpmath.zeta(s) * mpmath.dirichlet(s, [0, 1, 0, -1])),
            ("2,1,2", "171", lambda s: 6 * mpmath.mpf(2) ** -s * mpmath.zeta(s) * mpmath.dirichlet(s, [0, 1, -1])),
            ("2,1,2", "100", lambda s: 6 * mpmath.mpf(2) ** -s * mpmath.zeta(s) * mpmath.dirichlet(s, [0, 1, -1])),
        ],
    )
    def test_epstein_value_at_large_s(self, capsys, form, s, closed_form):
        # past the series' reach the lattice sum in shells states the smaller error
        code, out, _ = run(capsys, "epstein", "--form", form, "--s", s, "--format", "json")
        assert code == 0
        value = json.loads(out)["value"]
        with mpmath.workdps(30):
            assert abs(value["value"] - closed_form(mpmath.mpf(s))) <= value["abs_error"] < 1e-12 * value["value"]

    def test_epstein_bad_form_exits_2(self, capsys):
        code, _, _ = run(capsys, "epstein", "--form", "1,0")
        assert code == 2

    def test_asympt_custom_fit(self, capsys):
        code, out, _ = run(
            capsys,
            "asympt",
            "--lattice",
            "custom",
            "--gram",
            "diag(1,2)",
            "--checkpoints",
            "50,100,200",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("x,")


def _child_env(**extra: str) -> dict[str, str]:
    """The environment for a `wellround` child process that imports this tree."""
    src = str(Path(wellround.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **extra}


def test_exact_commands_load_neither_numpy_nor_mpmath():
    # the counting formulas too: census in every mode on a rational and a
    # non-rational lattice, and the fitted growth model on each verdict
    calls = [
        ["classify", "--preset", "square"],
        ["census", "--preset", "square", "--max", "30"],
        # a preset's formula counts up to PRESET_IDENTITY_FROM come from count_wr
        *(["census", "--preset", preset, "--max", "600", "--mode", mode]
          for preset in ["square", "hexagonal"] for mode in ["formula", "both"]),
        *(
            ["census", "--gram", gram, "--max", "30", "--mode", mode]
            for gram in ["[[2,1],[1,3]]", "diag(1,sqrt(2))"]
            for mode in ["bruteforce", "formula", "both"]
        ),
        *(
            ["asympt", "--lattice", "custom", "--gram", gram, "--checkpoints", "30,100"]
            for gram in ["[[2,1],[1,3]]", "diag(1,sqrt(2))", '{"t":"sqrt(2)","n":"4"}', '{"t":"sqrt(2)","n":"3"}']
        ),
        # an Epstein residue over Q, over Q(sqrt 2) and over two fields
        *(["epstein", "--form", form, "--residue"] for form in ["2,1,2", "1,sqrt(2)/2,4", "1,sqrt(2)/2,sqrt(3)"]),
        # an Epstein value over Q and over two fields
        *(["epstein", "--form", form, "--s", "2"] for form in ["2,1,2", "1,sqrt(2)/2,sqrt(3)"]),
        # the constants' band-gap limits are cone sums in plain math
        ["constants"],
        ["constants", "--format", "json"],
        # the preset A(x) are sums past plain-Python tables
        *(["asympt", "--lattice", lattice, "--format", fmt] for lattice in ["square", "hex"] for fmt in ["csv", "json"]),
    ]
    script = (
        "import json, sys\n"
        "import wellround.cli\n"
        "seen = [sorted(sys.modules.keys() & {'numpy', 'mpmath'})]\n"
        f"codes = [wellround.cli.main(argv) for argv in {calls!r}]\n"
        "seen.append(sorted(sys.modules.keys() & {'numpy', 'mpmath'}))\n"
        "print(json.dumps([codes, seen]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0] * len(calls), [[], []]]


def _modules_loaded_by(argv: list[str] | None) -> list[str]:
    """The modules that `import wellround.cli` and `main(argv)` load in a
    fresh interpreter; with argv None, those of a bare `import wellround`."""
    run_main = "import wellround\n" if argv is None else (
        f"import wellround.cli\nassert wellround.cli.main({argv!r}) == 0\n"
    )
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{run_main}"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--preset", "square"],
        ["census", "--gram", "[[2,1],[1,3]]", "--max", "20"],
        ["census", "--gram", "diag(1,sqrt(2))", "--max", "20"],
    ],
)
def test_census_and_classify_load_no_counting_theory(argv):
    loaded = _modules_loaded_by(argv)
    assert "wellround.gram" in loaded
    assert not {"wellround.general", "dataclasses"} & set(loaded)


@pytest.mark.parametrize("preset", ["square", "hexagonal"])
def test_preset_formula_past_the_switch_loads_the_identity(preset):
    from wellround.cli import PRESET_IDENTITY_FROM

    loaded = _modules_loaded_by(["census", "--preset", preset, "--max", str(PRESET_IDENTITY_FROM + 1), "--mode", "formula"])
    assert {"wellround.dirichlet", "numpy"} <= set(loaded)
    assert "wellround.general" not in loaded


@pytest.mark.parametrize(
    "lattice, module, other",
    [("square", "wellround.square", "wellround.hexagonal"), ("hex", "wellround.hexagonal", "wellround.square")],
)
def test_asympt_preset_loads_its_own_lattice(lattice, module, other):
    loaded = _modules_loaded_by(["asympt", "--lattice", lattice, "--checkpoints", "30,100"])
    assert module in loaded
    assert not {other, "wellround.general", "wellround.gram", "numpy"} & set(loaded)


def test_epstein_loads_only_the_float_layer():
    # a value reduces its form by `gram.gauss_reduce`; neither call loads numpy
    for argv in (["epstein", "--form", "1,0,1", "--s", "2"], ["epstein", "--form", "1,0,1", "--residue"]):
        loaded = _modules_loaded_by(argv)
        gram = ["wellround.gram"] if "--s" in argv else []
        assert [m for m in loaded if m.startswith("wellround.")] == ["wellround.asympt", "wellround.cli", *gram, "wellround.scalar"]
        assert "numpy" not in loaded


def test_bare_import_loads_no_submodule():
    assert [m for m in _modules_loaded_by(None) if m.startswith("wellround")] == ["wellround"]
    # dir() lists every public name before any of them is loaded
    script = "import json, wellround\nprint(json.dumps(sorted(set(wellround.__all__) - set(dir(wellround)))))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_every_public_name_resolves():
    assert wellround.__all__ == sorted(set(wellround.__all__))
    for name in wellround.__all__:
        assert getattr(wellround, name) is getattr(sys.modules[getattr(wellround, name).__module__], name)
    # a moved test-only name is gone, with no alias
    for name in (
        "unique_frame", "g_star", "Unimodular", "is_well_rounded", "is_admissible_index_square", "classify_reduced"
    ):
        assert not hasattr(wellround, name)
    from wellround import general, scalar

    assert general.InvariantError is scalar.InvariantError


def test_environment_sets_no_defaults():
    # WELLROUND_* variables are not read: malformed values change nothing
    env = _child_env(WELLROUND_MAX="abc", WELLROUND_FORMAT="xml", WELLROUND_CHECKPOINTS="x")
    argv = [sys.executable, "-m", "wellround.cli", "classify", "--preset", "square"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "square\n", "")


ON_LINUX = sys.platform.startswith("linux") and os.path.isdir("/proc/self/task")


def _numpy_child(env: dict) -> list:
    """[exit code, threads, OPENBLAS_NUM_THREADS] after `main` ran a series
    of the square lattice, which loads numpy."""
    script = (
        "import json, os, sys\n"
        "import wellround.cli\n"
        "code = wellround.cli.main(['series', '--name', 'a_square', '--max', '20'])\n"
        "assert 'numpy' in sys.modules\n"
        "print(json.dumps([code, len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(not ON_LINUX, reason="counts threads in /proc/self/task")
def test_cli_starts_no_blas_thread_pool():
    # numpy's import starts OpenBLAS workers, which no wellround code uses
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    assert _numpy_child(env) == [0, 1, "1"]
    # a value the user gave is kept
    code, _, given = _numpy_child(_child_env(OPENBLAS_NUM_THREADS="2"))
    assert (code, given) == (0, "2")


@pytest.mark.skipif(not ON_LINUX, reason="ru_maxrss is in kilobytes on Linux")
def test_epstein_value_peak_rss():
    # the series holds a few terms and loads no numpy; a small Python starts
    # the call, because on Linux a child's peak RSS starts from that of the
    # process that spawned it
    argv = [sys.executable, "-m", "wellround.cli", "epstein", "--form", "1,0,1", "--s", "2"]
    script = (
        "import os, sys\n"
        f"pid = os.posix_spawn(sys.executable, {argv!r}, os.environ)\n"
        "_, status, usage = os.wait4(pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_child_env())
    code, peak_kb = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0
    assert peak_kb / 1024 <= 60
