"""Benchmark for the superrsk library and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload insert-long --seed 1 --seconds 30 --trace 0

Everything runs in this one process and thread, on the standard library
alone, against the package under ``src/`` next to this directory.

``--trace 0`` measures the end-to-end metrics.  Set-up (import, input
generation from the seed, expected-count loading) is repeated and its median
reported.  Then whole units of the workload (see ``workloads.py``) run until
``--seconds`` have passed, each op timed on its own and its output checked.
Times are reported at reference speed (see ``speed.py``): a timer samples
a fixed kernel every 10 ms, and each op's wall time is scaled by how fast the
core ran while it did.  The details line also gives the plain wall-clock
figures.

``--trace 1`` measures the per-layer metrics.  It runs a fixed number of
units with spans around the library's public functions, so that every count
repeats exactly for a seed, and the same units untraced before and after, for
the tracing overhead.  The spans are written to ``perfbench/out/`` when the
run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds provenance and details: which percentile ``op_tail_ms`` is, the op
count, the error rate, and where the spans went.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

# run as a script, so this directory is first on sys.path
from speed import SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
MAX_REPORTED_ERRORS = 3

# per-layer metrics of the traced run: name -> unit
PER_LAYER = {
    "alphabet.rank.calls": "count",
    "insertion.insert_word.calls": "count",
    "insertion.insert_word.self_s": "s",
    "insertion.letters": "count",
    "insertion.steps": "count",
    "insertion.steps_per_letter": "ratio",
    "bijection.reverse_word.calls": "count",
    "bijection.reverse_word.self_s": "s",
    "bijection.change_shuffle.calls": "count",
    "bijection.change_shuffle.self_s": "s",
    "tableau.is_valid.calls": "count",
    "tableau.is_valid.self_s": "s",
    "tableau.classify_regions.calls": "count",
    "tableau.classify_regions.self_s": "s",
    "schur.enumerate_ssyt.calls": "count",
    "schur.enumerate_ssyt.self_s": "s",
    "schur.enumerate_ssyt.fillings": "count",
    "schur.hook_schur.calls": "count",
    "schur.hook_schur.self_s": "s",
    "polynomial.arith.calls": "count",
    "polynomial.arith.self_s": "s",
    "verify.check.self_s": "s",
    "verify.align_traces.calls": "count",
    "verify.align_traces.self_s": "s",
    "verify.insert_calls_per_case": "ratio",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The library under ``src/`` cannot be loaded or its inputs made."""


def import_library() -> SimpleNamespace:
    """Import superrsk afresh from ``src/``, dropping any earlier import."""
    if not (SRC / "superrsk" / "__init__.py").is_file():
        raise SetupError(f"no superrsk package under {SRC}")
    for name in [m for m in sys.modules if m == "superrsk" or m.startswith("superrsk.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("superrsk")
    if Path(pkg.__file__).resolve().parent != SRC / "superrsk":
        raise SetupError(f"superrsk imported from {pkg.__file__}, not from {SRC}")
    cli = importlib.import_module("superrsk.cli")
    return SimpleNamespace(pkg=pkg, cli=cli)


def set_up(workload, seed: int, size: str, repeats: int):
    """Import and generate inputs ``repeats`` times; keep the last.

    Returns the (start, end) interval of each repeat.
    """
    intervals = []
    for _ in range(repeats):
        start = time.perf_counter()
        lib = import_library()
        inputs = workload.prepare(lib, random.Random(seed), workload.sizes[size])
        intervals.append((start, time.perf_counter()))
    return lib, inputs, intervals


def settle_heap() -> None:
    """Collect what the set-up repeats left behind and freeze the survivors.

    Old copies of the library from the repeated imports would otherwise be
    collected inside some op, and the input pool, which a user's process
    does not hold, would be traversed by every full collection.
    """
    gc.collect()
    gc.freeze()


def run_units(workload, inputs, *, seconds=None, units=None, tracer=None):
    """Run whole units until ``seconds`` have passed or ``units`` are done.

    Records the (start, end) interval of every op and of the whole loop.
    """
    op_intervals: list[tuple[float, float]] = []
    failed = 0
    tally: Counter = Counter()
    errors: list[str] = []
    done = 0
    start = time.perf_counter()
    while True:
        unit = workload.unit(inputs, done)
        outputs = []
        for call in unit.calls:
            span = tracer.op() if tracer is not None else nullcontext()
            began = time.perf_counter()
            with span:
                try:
                    out = call()
                except Exception as exc:  # a failing op is counted, and the run goes on
                    out = exc
                    if len(errors) < MAX_REPORTED_ERRORS:
                        errors.append(traceback.format_exc())
            op_intervals.append((began, time.perf_counter()))
            outputs.append(out)
        with tracer.suspended() if tracer is not None else nullcontext():
            try:
                ok = unit.check(outputs, tally)
            except Exception:
                ok = [False] * len(outputs)
                if len(errors) < MAX_REPORTED_ERRORS:
                    errors.append(traceback.format_exc())
        failed += sum(1 for good in ok if not good)
        done += 1
        if units is not None and done >= units:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    end = time.perf_counter()
    for text in errors:
        print(text, file=sys.stderr)
    return SimpleNamespace(
        op_intervals=op_intervals,
        interval=(start, end),
        wall=end - start,
        failed=failed,
        units=done,
        tally=tally,
    )


def nearest_rank(sorted_values: list[float], percentile: float) -> tuple[float, int]:
    """The percentile by nearest rank, and how many values lie beyond it."""
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def measure_end_to_end(workload, seed: int, seconds: float, size: str = "full"):
    with SpeedProbe() as probe:
        _, inputs, setup_intervals = set_up(workload, seed, size, SETUP_REPEATS)
        settle_heap()
        run = run_units(workload, inputs, seconds=seconds)
    ops = len(run.op_intervals)
    op_times = sorted(probe.normalized(a, b) for a, b in run.op_intervals)
    tail, beyond = nearest_rank(op_times, workload.tail_percentile)
    setup_times = [probe.normalized(a, b) for a, b in setup_intervals]
    wall_times = sorted(b - a for a, b in run.op_intervals)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    metrics = {
        "ops_per_s": (ops / probe.normalized(*run.interval), "1/s"),
        "op_p50_ms": (statistics.median(op_times) * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
    }
    details = {
        "timed_s": run.wall,
        "units": run.units,
        "ops": ops,
        "op_tail_percentile": workload.tail_percentile,
        "op_tail_ops_beyond": beyond,
        "error_rate": run.failed / ops,
        "wall_ops_per_s": ops / run.wall,
        "wall_op_p50_ms": statistics.median(wall_times) * 1000,
        "wall_op_tail_ms": nearest_rank(wall_times, workload.tail_percentile)[0] * 1000,
        "wall_setup_s": statistics.median(b - a for a, b in setup_intervals),
        "probe_samples": len(probe.costs),
        "probe_kernel_median_ms": statistics.median(probe.costs) * 1000,
    }
    return ops, run.failed, metrics, details


def measure_per_layer(workload, seed: int, size: str = "full", spans_path: Path | None = None):
    _, inputs, _ = set_up(workload, seed, size, 1)
    settle_heap()
    # untraced runs on both sides of the traced one, so that drift in the
    # machine's speed does not show up as tracing overhead
    before = run_units(workload, inputs, units=workload.trace_units)
    tracer = Tracer()
    tracer.install(sys.modules)
    try:
        traced = run_units(workload, inputs, units=workload.trace_units, tracer=tracer)
    finally:
        tracer.uninstall()
    after = run_units(workload, inputs, units=workload.trace_units)
    untraced_s = (before.wall + after.wall) / 2
    counts = tracer.totals()
    self_s = tracer.self_times()
    cases = traced.tally["verify.cases"]
    values = {name: counts[name] for name, unit in PER_LAYER.items() if unit == "count"}
    values.update(
        {name: self_s.get(name[: -len(".self_s")], 0.0) for name in PER_LAYER if name.endswith(".self_s")}
    )
    values["insertion.steps_per_letter"] = (
        counts["insertion.steps"] / counts["insertion.letters"] if counts["insertion.letters"] else 0.0
    )
    values["verify.insert_calls_per_case"] = (
        counts["insertion.insert_word.calls"] / cases if cases else 0.0
    )
    values["trace.overhead_s"] = traced.wall - untraced_s
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    details = {
        "units": traced.units,
        "ops": len(traced.op_intervals),
        "untraced_s": untraced_s,
        "traced_s": traced.wall,
        "spans": len(tracer.spans),
        "verify_cases": cases,
    }
    if spans_path is not None:
        tracer.write(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    runs = (before, traced, after)
    attempted = sum(len(run.op_intervals) for run in runs)
    return attempted, sum(run.failed for run in runs), metrics, details


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "superrsk").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "src_lines": src_lines,
    }


def result_line(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            attempted, failed, metrics, details = measure_per_layer(
                workload, args.seed, spans_path=spans_path
            )
        else:
            attempted, failed, metrics, details = measure_end_to_end(
                workload, args.seed, args.seconds
            )
        about = provenance(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": about, "details": details}))
    print(json.dumps(result_line(attempted, failed, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
