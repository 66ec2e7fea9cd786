"""Run one `wellround` CLI call with every wellround function timed.

    PERFBENCH_TRACE_OUT=trace.json python3 perfbench/tracecli.py <wellround arguments>

An import hook rebinds, as each wellround module is loaded, the functions in
its namespace and the methods of its classes to timing wrappers; the module
body itself is timed as `<layer>.<module>`.  Each call is a span with its
function, start, end and parent.  Spans are aggregated in memory by
(function, parent function), so millions of Scalar calls use constant memory,
and written as JSON when the call ends.  A span's self time is its duration
minus that of its child spans; time spent in fractions, numpy or mpmath
counts toward the wellround function that called it.
"""

from __future__ import annotations

import enum
import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import os
import sys
import time

PACKAGE = "wellround"
ROOT = "cli.<main>"
# hooks that turn a call's result into counter increments
HOOKS = {
    "dirichlet.convolve": lambda result: {"dirichlet.convolve_coeffs": len(result)},
    # epstein grids are (2B+1)^2 points for the coordinate bound B
    "asympt._bound_for_radius": lambda result: {"asympt.epstein_grid_points": (2 * result + 1) ** 2},
}
_UNWRAPPED = {"__setattr__", "__delattr__", "__getattribute__", "__getattr__", "__new__"}


class Tracer:
    def __init__(self):
        self.stack = [[ROOT, 0.0]]  # [function, seconds spent in child spans]
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total s, self s]
        self.counters: dict[str, int] = {}

    def _count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def _close(self, frame, parent, dt: float) -> None:
        parent[1] += dt
        rec = self.spans.get((frame[0], parent[0]))
        if rec is None:
            rec = self.spans[(frame[0], parent[0])] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[1]

    def span(self, name: str, fn, *args, **kwargs):
        stack = self.stack
        parent = stack[-1]
        frame = [name, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            self._close(frame, parent, dt)

    def wrap(self, name: str, fn):
        span, count = self.span, self._count
        if inspect.isgeneratorfunction(fn):
            # each resumption of the generator is one span
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                count(f"{name}#started")
                inner = fn(*args, **kwargs)
                while True:
                    try:
                        item = span(name, next, inner)
                    except StopIteration:
                        return
                    count(f"{name}#yielded")
                    yield item

            return generator
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = span(name, fn, *args, **kwargs)
            if hook is not None:
                for key, k in hook(result).items():
                    count(key, k)
            return result

        return wrapper

    def instrument(self, module) -> None:
        """Rebind the functions and class methods defined in `module`."""
        layer = module.__name__.rpartition(".")[2]
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere: already wrapped there
            if inspect.isfunction(obj):
                setattr(module, attr, self.wrap(f"{layer}.{obj.__qualname__}", obj))
            elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                self._instrument_class(layer, obj)

    def _instrument_class(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr in _UNWRAPPED:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, property) and obj.fget is not None:
                setattr(cls, attr, property(self.wrap(name, obj.fget), obj.fset, obj.fdel, obj.__doc__))

    def to_json(self) -> dict:
        return {
            "spans": [[f, p, *rec] for (f, p), rec in self.spans.items()],
            "counters": self.counters,
        }


class _InstrumentingFinder(importlib.abc.MetaPathFinder):
    """Times each wellround submodule's body, then instruments it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer
        layer = fullname.rpartition(".")[2]

        def traced_exec(module):
            tracer.span(f"{layer}.<module>", exec_module, module)
            tracer.instrument(module)

        spec.loader.exec_module = traced_exec
        return spec


def main(argv: list[str]) -> int:
    out_path = os.environ["PERFBENCH_TRACE_OUT"]
    tracer = Tracer()
    sys.meta_path.insert(0, _InstrumentingFinder(tracer))
    t0 = time.perf_counter()
    code = 0
    try:
        from wellround import cli

        code = cli.main(argv)
    except SystemExit as e:  # argparse rejects its input this way
        code = e.code if isinstance(e.code, int) else 2
    finally:
        wall = time.perf_counter() - t0
        root = tracer.stack[0]
        tracer.spans[(ROOT, "")] = [1, wall, wall - root[1]]
        sys.stdout.flush()
        with open(out_path, "w") as f:
            json.dump(tracer.to_json(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
