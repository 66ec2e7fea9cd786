"""Benchmark of the `wellround` command line.

    python3 perfbench/run.py --workload square-hex --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  A workload is a closed loop of
`wellround` CLI calls, one at a time from this process, each in its own
Python process (`python3 -m wellround.cli`, with `src` on PYTHONPATH and
every WELLROUND_* variable removed, so the defaults hold).  One set-up call
comes first; then whole rounds of the workload's calls repeat until
--seconds have passed, and every output is checked against a computation
made apart from the program.

The last line of standard output is one JSON object.  With --trace 0 it
holds the end-to-end metrics (the median over rounds of each class's summed
wall time, and each class's largest peak RSS); with --trace 1 every call
runs under perfbench/tracecli.py and it holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
# every call must end well inside the 180 s a run may take; calls due after
# RUN_BUDGET_S are not started and count as failed
CALL_TIMEOUT_S = 150.0
RUN_BUDGET_S = 170.0
CLASSES = (workloads.CENSUS, workloads.COUNTS, workloads.ANALYTIC)
END_TO_END = ["setup_s", *(f"{k}_s" for k in CLASSES), *(f"{k}_peak_mb" for k in CLASSES)]


@dataclass
class CallResult:
    wall_s: float
    peak_mb: float
    code: int
    stdout: str
    stderr: str
    trace: dict | None


class Runner:
    """Starts each CLI call as a child process and waits for it with wait4,
    which gives that child's own peak RSS."""

    def __init__(self, root: Path, trace: bool):
        self.root = root
        self.trace = trace
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("WELLROUND_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        OUT_DIR.mkdir(exist_ok=True)
        self.trace_path = OUT_DIR / f"call-trace-{os.getpid()}.json"
        if trace:
            self.env["PERFBENCH_TRACE_OUT"] = str(self.trace_path)
            self.prefix = [sys.executable, str(BENCH_DIR / "tracecli.py")]
        else:
            self.prefix = [sys.executable, "-m", "wellround.cli"]

    def call(self, args, timeout: float) -> CallResult:
        out_path = OUT_DIR / f"stdout-{os.getpid()}"
        err_path = OUT_DIR / f"stderr-{os.getpid()}"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([*self.prefix, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode()
            stderr = err.read().decode()
        trace = None
        if self.trace and self.trace_path.exists():
            trace = json.loads(self.trace_path.read_text())
            self.trace_path.unlink()
        out_path.unlink()
        err_path.unlink()
        return CallResult(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr, trace)


def run(workload: workloads.Workload, runner: Runner, seconds: float) -> dict:
    started = time.perf_counter()
    attempted = failed = 0
    errors: list[str] = []

    def call(args):
        nonlocal attempted, failed
        attempted += 1
        remaining = RUN_BUDGET_S - (time.perf_counter() - started)
        if remaining <= 0:
            result = CallResult(0.0, 0.0, -1, "", "not started: the run's time budget is spent", None)
        else:
            result = runner.call(args, timeout=min(CALL_TIMEOUT_S, remaining))
        if result.code != 0:
            failed += 1
            print(f"call failed ({result.code}): wellround {' '.join(args)}\n{result.stderr.strip()}",
                  file=sys.stderr)
        return result

    setup = call(workloads.SETUP_ARGS)
    traces = [("setup", setup.trace)]
    rounds = []
    deadline = started + seconds
    while True:
        t_round = time.perf_counter()
        outputs: dict[str, str] = {}
        wall = dict.fromkeys(CLASSES, 0.0)
        peak = dict.fromkeys(CLASSES, 0.0)
        for c in workload.calls:
            result = call(c.args)
            wall[c.kind] += result.wall_s
            peak[c.kind] = max(peak[c.kind], result.peak_mb)
            traces.append((c.kind, result.trace))
            if result.code == 0:
                outputs[c.key] = result.stdout
        errors += run_checks(workload, outputs)
        rounds.append((wall, peak))
        print(f"round {len(rounds)}: {time.perf_counter() - t_round:.1f} s, "
              + ", ".join(f"{k} {v:.3f} s" for k, v in wall.items()), file=sys.stderr)
        if time.perf_counter() >= deadline:
            break
    return {
        "setup": setup,
        "rounds": rounds,
        "traces": traces,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "wall_s": time.perf_counter() - started,
    }


def run_checks(workload: workloads.Workload, outputs: dict[str, str]) -> list[str]:
    """Messages of the checks that fail; checks whose calls failed are skipped."""
    errors = []
    for check in workload.checks:
        if not all(k in outputs for k in check.keys):
            continue
        try:
            check.run(*(outputs[k] for k in check.keys))
        except checks.CheckFailed as e:
            errors.append(f"{check.name}: {e}")
    return errors


def end_to_end(result: dict) -> dict:
    walls = [w for w, _ in result["rounds"]]
    peaks = [p for _, p in result["rounds"]]
    metrics = {"setup_s": (result["setup"].wall_s, "s")}
    for kind in CLASSES:
        metrics[f"{kind}_s"] = (statistics.median(w[kind] for w in walls), "s")
        metrics[f"{kind}_peak_mb"] = (max(p[kind] for p in peaks), "MB")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wellround" / "cli.py").is_file():
        print(f"error: no wellround sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed)
    runner = Runner(root, trace=bool(args.trace))
    result = run(workload, runner, args.seconds)
    for message in result["errors"]:
        print(f"check failed: {message}", file=sys.stderr)

    if args.trace:
        report = layers.report(result["traces"], len(result["rounds"]))
        metrics = report["metrics"]
        layers.print_breakdown(report)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(report, indent=1))
    else:
        metrics = end_to_end(result)
    print(f"attempted {result['attempted']} calls, failed {result['failed']}; "
          f"run took {result['wall_s']:.1f} s")
    line = {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(line) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
