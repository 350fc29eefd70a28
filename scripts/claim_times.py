"""Time each op of the benchmark's verify-exhaustive unit in process.

    python3 scripts/claim_times.py [--repeats 30] [--src DIR]

Reads the full-size ``verify-exhaustive`` grid from
``perfbench/workloads.py``, loaded by file path and left as it is, and runs
each of its ops, a ``verify --theorem TOKEN --mode exhaustive`` call, through
the ``superrsk`` CLI in this process, against the package under ``DIR``
(default: this checkout's ``src/``), with standard output captured.  One warm-up round runs first.
Each later round runs every op once in the grid's order, so the ops
interleave and a slow spell of the machine reaches them alike.  An op's time
is its best over the rounds.

Prints one line per op (claim token, variant, n, case count, best time in ms),
then the unit: the sum of the ops' bests and the best round's total, and
last the process's peak resident set size after every round, a figure for a
fixed number of units (``--repeats`` + 1 rounds of the grid).  Exits 1
if an op exits non-zero, reports failures or counts other than the
workload's closed form.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """``perfbench/workloads.py`` as a module (its dataclasses look their
    module up in ``sys.modules`` while they are built)."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    workloads = load_workloads()
    sys.path.insert(0, str(args.src.resolve()))
    from superrsk.cli import main as cli_main

    size = workloads.VerifyExhaustive.sizes["full"]
    k, l = size["k"], size["l"]
    ops = []
    for token, variant, n in size["grid"]:
        argv_ = [
            "--k", str(k), "--l", str(l), "--variant", variant, "--format", "json",
            "verify", "--theorem", token, "--n", str(n), "--mode", "exhaustive",
        ]
        ops.append((f"{token} {variant} n={n}", argv_, workloads.closed_form_cases(token, k, l, n)))

    def run(argv_) -> tuple[float, int, dict]:
        captured = io.StringIO()
        with redirect_stdout(captured):
            start = time.perf_counter()
            code = cli_main(argv_)
            elapsed = time.perf_counter() - start
        return elapsed, code, json.loads(captured.getvalue())

    best = [float("inf")] * len(ops)
    best_round = float("inf")
    for round_ in range(args.repeats + 1):
        total = 0.0
        for m, (name, argv_, expected) in enumerate(ops):
            elapsed, code, report = run(argv_)
            if code != 0 or report["failures"] or report["cases"] != expected:
                print(f"error: {name}: exit {code}, {len(report['failures'])} failures, "
                      f"{report['cases']} cases (expected {expected})", file=sys.stderr)
                return 1
            total += elapsed
            if round_:  # the first round warms up
                best[m] = min(best[m], elapsed)
        if round_:
            best_round = min(best_round, total)
    print(f"k={k} l={l}, best of {args.repeats} interleaved rounds, in process")
    for (name, _, expected), seconds in zip(ops, best):
        print(f"{name:<22} {expected:>7} cases {seconds * 1000:8.2f} ms")
    print(f"{'unit (sum of bests)':<36} {sum(best) * 1000:8.2f} ms")
    print(f"{'unit (best round)':<36} {best_round * 1000:8.2f} ms")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{f'peak RSS, {args.repeats + 1} rounds':<36} {peak_mb:8.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
