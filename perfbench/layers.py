"""Per-layer metrics from the span aggregates that tracecli.py writes.

A layer is a wellround module; a function's layer is the first part of its
traced name (`scalar.Scalar.__add__` is in `scalar`).  Every metric is per
round: summed over the run's traced calls, the set-up call included, and
divided by the number of rounds.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("cli", "scalar", "gram", "sublattices", "dirichlet", "square", "hexagonal", "general", "asympt")

SCALAR_OPS = {
    f"scalar.Scalar.{m}"
    for m in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "sign", "_cmp", "__eq__", "__lt__", "__le__",
              "__gt__", "__ge__", "floor", "round_half")
}
WINDOWS = {"general._window_hits_even", "general._window_hits_odd"}
# groups timed by their outermost calls (a member called by a member is inside it)
GROUPS = {
    "general.frames_s": {"general._frames_for_count", "general.unique_frame"},
    "general.window_s": WINDOWS,
    "asympt.constants_s": {"asympt.constants_table", "asympt.c_square_eval", "asympt.c_triangle_eval"},
    "asympt.epstein_s": {"asympt.epstein_truncated", "asympt.epstein_residue_estimate"},
}
# name -> (functions whose calls are counted)
CALL_COUNTS = {
    "scalar.calls": SCALAR_OPS,
    "scalar.constructions": {"scalar.Scalar.__init__"},
    "gram.reductions": {"gram.gauss_reduce", "gram._reduce_int"},
    "sublattices.classified": {"sublattices.CensusReport.tally"},
    "dirichlet.convolve_calls": {"dirichlet.convolve"},
    "general.frames_tested": {"general._frame_from_w"},
}
# name -> counters written by tracecli.py
COUNTERS = {
    "dirichlet.convolve_coeffs": ("dirichlet.convolve_coeffs",),
    "general.frames_used": ("general._window_hits_even#started",),
    "general.window_hits": tuple(f"{w}#yielded" for w in sorted(WINDOWS)),
    "asympt.epstein_grid_points": ("asympt.epstein_grid_points",),
}

# (name, unit) of every per-layer metric, in the order they are printed
METRICS = (
    [("cli.self_s", "s")]
    + [("scalar.self_s", "s"), ("scalar.calls", "count"), ("scalar.constructions", "count")]
    + [("gram.self_s", "s"), ("gram.reductions", "count")]
    + [("sublattices.self_s", "s"), ("sublattices.classified", "count")]
    + [("dirichlet.self_s", "s"), ("dirichlet.convolve_calls", "count"), ("dirichlet.convolve_coeffs", "count")]
    + [("square.self_s", "s"), ("hexagonal.self_s", "s")]
    + [("general.self_s", "s"), ("general.frames_s", "s"), ("general.frames_tested", "count"),
       ("general.frames_used", "count"), ("general.window_s", "s"), ("general.window_points", "count"),
       ("general.window_hits", "count")]
    + [("asympt.self_s", "s"), ("asympt.constants_s", "s"), ("asympt.epstein_s", "s"),
       ("asympt.epstein_grid_points", "count")]
)


def layer_of(function: str) -> str:
    return function.split(".", 1)[0]


def metrics_of(traces: list[dict]) -> dict[str, float]:
    """Unscaled metrics summed over the given call traces."""
    out: dict[str, float] = defaultdict(float)
    for trace in traces:
        counters = trace["counters"]
        for function, parent, calls, total, self_s in trace["spans"]:
            out[f"{layer_of(function)}.self_s"] += self_s
            for name, members in GROUPS.items():
                if function in members and parent not in members:
                    out[name] += total
            for name, members in CALL_COUNTS.items():
                if function in members:
                    out[name] += calls
            # each tested window point makes two exact sign tests
            if function == "scalar.Scalar.sign" and parent in WINDOWS:
                out["general.window_points"] += calls / 2
        for name, keys in COUNTERS.items():
            out[name] += sum(counters.get(k, 0) for k in keys)
    return out


def report(traces: list[tuple[str, dict | None]], rounds: int) -> dict:
    """Per-round metrics, plus self time by class of call and layer."""
    present = [t for _, t in traces if t is not None]
    totals = metrics_of(present)
    metrics = {name: (totals.get(name, 0.0) / rounds, unit) for name, unit in METRICS}
    by_kind: dict[str, dict[str, float]] = {}
    top: dict[str, list] = {}
    for kind in dict.fromkeys(k for k, _ in traces):
        kind_traces = [t for k, t in traces if k == kind and t is not None]
        m = metrics_of(kind_traces)
        by_kind[kind] = {layer: m.get(f"{layer}.self_s", 0.0) / rounds for layer in LAYERS}
        self_by_function: dict[str, float] = defaultdict(float)
        for t in kind_traces:
            for function, _, _, _, self_s in t["spans"]:
                self_by_function[function] += self_s / rounds
        top[kind] = sorted(self_by_function.items(), key=lambda kv: -kv[1])[:8]
    return {"rounds": rounds, "metrics": metrics, "self_s_by_class": by_kind, "top_functions": top}


def print_breakdown(rep: dict) -> None:
    """Self seconds per round by class of call (rows) and layer (columns)."""
    print("self s/round " + " ".join(f"{layer:>11}" for layer in LAYERS))
    for kind, row in rep["self_s_by_class"].items():
        print(f"{kind:>12} " + " ".join(f"{row[layer]:11.4f}" for layer in LAYERS))
    for kind, funcs in rep["top_functions"].items():
        print(f"top self time, {kind}: " + ", ".join(f"{f} {s:.3f}" for f, s in funcs[:5]))
