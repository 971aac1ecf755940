"""Span tracing of massimpute's public functions, installed from outside.

``Tracer.install`` wraps each function named in ``LAYERS`` and rebinds the
wrapper on every massimpute module attribute, and every module-level dict
value, that refers to the original.  ``from .x import f`` binds ``f`` again in
the importing module (``bootstrap.solve_quasi_score``, ``cli.load_sample``)
and the CLI dispatches through its ``_COMMANDS`` table, so patching only the
defining module would miss most calls.  Nothing under ``src/`` is edited.

Spans are kept in memory, one stack per thread, and written when the run
ends.  A layer's self time is its span minus the time its direct child spans
cover.  Counts are taken from return values and file sizes, so they repeat
exactly for the same inputs.

Run as a script it stands in for ``python -m massimpute.cli``, one process
per subcommand as before, and writes the process's peak memory and, with
``--trace``, its spans to a report file when the subcommand ends:

    python perfbench/spans.py REPORT.json [--trace] -- fit --train b.csv ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import resource
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "data_model": ("load_sample", "build_design_matrix"),
    "mean_model": ("fit_model", "solve_quasi_score", "predict_all"),
    "estimators": (
        "fit_propensity",
        "mass_imputation_estimate",
        "ipw_estimate",
        "naive_mean",
    ),
    "variance": ("linearized_variance",),
    "bootstrap": (
        "replicate_weights",
        "bootstrap_refit",
        "build_replicates",
        "replicate_estimates",
        "write_augmented_dataset",
        "read_augmented_dataset",
    ),
    "simulation": (
        "generate_population",
        "draw_srs",
        "draw_stratified_b",
        "run_monte_carlo",
    ),
    "cli": ("cmd_fit", "cmd_impute", "cmd_estimate", "cmd_bootstrap", "cmd_simulate"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _file_bytes(bound) -> dict:
    return {"bytes": os.path.getsize(bound.arguments["path"])}


# Exact counts per traced function: (needs bound arguments, extractor).
# Binding arguments costs microseconds, so only functions called a few times
# per run read them.
COUNTERS = {
    "data_model.load_sample": (False, lambda bound, out: {"rows": out.n}),
    "mean_model.solve_quasi_score": (
        False, lambda bound, out: {"newton_iters": out[1]}
    ),
    "estimators.fit_propensity": (
        False, lambda bound, out: {"newton_iters": out.iterations}
    ),
    "bootstrap.bootstrap_refit": (
        True,
        lambda bound, out: {"redraws": out[1], "replicates": bound.arguments["L"]},
    ),
    "bootstrap.write_augmented_dataset": (True, lambda bound, out: _file_bytes(bound)),
    "bootstrap.read_augmented_dataset": (True, lambda bound, out: _file_bytes(bound)),
}


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        # (name, span_id, parent_id, start, end); parent 0 is the root
        self.spans: list[tuple[str, int, int, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._counts_lock = threading.Lock()
        self._restore: list = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        needs_args, extract = COUNTERS.get(name, (False, None))
        signature = inspect.signature(fn) if needs_args else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((name, span_id, parent, start, end))
            if extract is not None:
                bound = signature.bind(*args, **kwargs) if needs_args else None
                found = extract(bound, out)
                with self._counts_lock:
                    for key, value in found.items():
                        self.counts[f"{name}.{key}"] += int(value)
            return out

        return traced

    def install(self) -> None:
        for mod_name in LAYERS:
            importlib.import_module(f"massimpute.{mod_name}")
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "massimpute" or key.startswith("massimpute.")
        ]
        for mod_name, fn_names in LAYERS.items():
            home = sys.modules[f"massimpute.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((vars(mod), attr, original))
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is original:
                                    value[key] = wrapper
                                    self._restore.append((value, key, original))

    def uninstall(self) -> None:
        for table, key, original in reversed(self._restore):
            table[key] = original
        self._restore.clear()


def peak_rss_mib() -> float:
    """High-water resident memory of this process image, in MiB.

    VmHWM starts afresh at exec.  ru_maxrss does not: it also holds the
    high-water memory of the process that spawned this one.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def write_report(path, tracer: Tracer | None) -> None:
    doc = {"peak_rss_mib": peak_rss_mib(), "spans": [], "counts": {}}
    if tracer is not None:
        doc.update(spans=tracer.spans, counts=dict(tracer.counts))
    with open(path, "w") as fh:
        json.dump(doc, fh)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds.

    Span ids are unique within one process only, so summarize each process's
    spans separately and add the results with :func:`merge`.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, _, parent, start, end in spans:
        if parent:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for name, span_id, _, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[span_id]
    return out


def merge(into: dict, summary: dict) -> None:
    for name, row in summary.items():
        acc = into.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key, value in row.items():
            acc[key] += value


def main(argv: list[str]) -> int:
    trace = argv[1:2] == ["--trace"]
    if len(argv) < 2 or argv[1 + trace] != "--":
        print("usage: spans.py REPORT.json [--trace] -- <massimpute arguments>",
              file=sys.stderr)
        return 2
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    cli = importlib.import_module("massimpute.cli")
    try:
        return cli.run_cli(argv[2 + trace:])
    finally:
        write_report(argv[0], tracer)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
