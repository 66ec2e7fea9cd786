import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
        payload = json.loads(out)
        g = GramForm.from_json(payload["gram"])
        assert g == GramForm.of(2, 1, 5)


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


@pytest.mark.parametrize("command", ["reduce", "classify"])
def test_mixed_fields_exit_2(capsys, command):
    # the roots are named in entry order, as the census names them
    gram = '[[1,"sqrt(2)/2"],["sqrt(2)/2","sqrt(3)"]]'
    assert run(capsys, command, "--gram", gram) == (2, "", "error: cannot mix sqrt(2) and sqrt(3)\n")


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
        from wellround.dirichlet import ArithSeq

        # the square census is 1, 1, 0, 1, 2; the formula is wrong from n = 4 on
        monkeypatch.setattr(
            cli, "_formula_counts", lambda g, N, preset: ArithSeq([1, 1, 0, 99, 7])
        )
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
        # grids past asympt.MAX_GRID_POINTS are refused before they are built
        (["epstein", "--form", "1,0,1", "--radius", "1e12"], "--radius"),
        (["epstein", "--form", "1,0,1", "--radius", "inf", "--residue"], "--radius"),
        (["epstein", "--form", "1,0,1/1000000000000"], "--radius"),
        (["epstein", "--form", "1,0,1/100000000000000000", "--residue"], "--radius"),
        (["epstein", "--form", "1,0,1e-12"], "--radius"),
        # index bounds past cli.MAX_INDEX are refused before any array is built
        (["series", "--name", "a_square", "--max", "10000001"], "--max"),
        (["census", "--preset", "square", "--mode", "formula", "--max", "10000001"], "--max"),
        (["asympt", "--checkpoints", "1000,10000001"], "--checkpoints"),
    ],
)
def test_bad_flag_value_exits_2(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err


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

    def test_epstein_value(self, capsys):
        code, out, _ = run(
            capsys,
            "epstein",
            "--form",
            "1,0,1",
            "--s",
            "2",
            "--radius",
            "1e4",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"]["value"] == pytest.approx(6.0268, abs=0.01)
        assert payload["value"]["abs_error"] >= 0

    @pytest.mark.parametrize("form, det", [("1,0,1", 1), ("2,1,2", 3)])
    def test_epstein_residue_error_covers_true_error(self, capsys, form, det):
        # the residue at s = 1 is pi / sqrt(ac - b^2)
        code, out, _ = run(
            capsys, "epstein", "--form", form, "--residue", "--radius", "1e4", "--format", "json"
        )
        assert code == 0
        residue = json.loads(out)["residue"]
        assert residue["abs_error"] >= abs(residue["value"] - math.pi / math.sqrt(det))

    @pytest.mark.parametrize(
        "args, expected",
        [
            (
                ["--residue", "--format", "csv"],
                "residue = 3.1415483094221743 ± 0.000135\n",
            ),
            (
                ["--residue", "--format", "json"],
                '{"residue": {"value": 3.1415483094221743, "abs_error": 0.0001354870727618973}}\n',
            ),
            (
                ["--s", "2", "--format", "csv"],
                "value = 6.026812049804921 ± 1.46e-06\n",
            ),
            (
                ["--s", "2", "--format", "json"],
                '{"value": {"value": 6.026812049804921, "abs_error": 1.4617986590081955e-06}, "s": 2.0}\n',
            ),
        ],
    )
    def test_epstein_golden_output(self, capsys, args, expected):
        # recorded from the meshgrid implementation, which built one grid per sum
        argv = ["epstein", "--form", "1,0,1", "--radius", "1e4", *args]
        assert run(capsys, *argv) == (0, expected, "")

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

    def test_env_format_precedence(self, capsys, monkeypatch):
        monkeypatch.setenv("WELLROUND_FORMAT", "json")
        code, out, _ = run(capsys, "classify", "--preset", "square")
        assert json.loads(out) == {"type": "square"}
        # explicit flag beats the environment
        code, out, _ = run(
            capsys, "classify", "--preset", "square", "--format", "csv"
        )
        assert out.strip() == "square"


def test_exact_commands_load_neither_numpy_nor_mpmath():
    script = (
        "import json, sys\n"
        "import wellround.cli\n"
        "seen = [sorted(sys.modules.keys() & {'numpy', 'mpmath'})]\n"
        "wellround.cli.main(['classify', '--preset', 'square'])\n"
        "wellround.cli.main(['census', '--preset', 'square', '--max', '30'])\n"
        "seen.append(sorted(sys.modules.keys() & {'numpy', 'mpmath'}))\n"
        "print(json.dumps(seen))\n"
    )
    src = str(Path(wellround.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]
