"""Time each op of the benchmark's verify-exhaustive unit in process.

    python3 scripts/claim_times.py [--repeats 30] [--src DIR]

Reads the full-size ``verify-exhaustive`` grid from
``perfbench/workloads.py``, loaded by file path and left as it is, and runs
each of its ops, a ``verify --theorem TOKEN --mode exhaustive`` call, through
the ``superrsk`` CLI in this process, against the package under ``DIR``
(default: this checkout's ``src/``), with standard output and error
captured.  One warm-up round runs first.
Each later round runs every op once in the grid's order, so the ops
interleave and a slow spell of the machine reaches them alike.  An op's time
is its best over the rounds.

Each round also runs ``converse``, ``mimicry``, ``cor4`` and ``identity`` at
k=l=2, n=4 under reg-reg, four claims that no benchmark workload runs.

Prints one line per op (claim token, variant, n, case count, best time in ms),
then the unit: the sum of the ops' bests and the best round's total; then
one line per extra claim, timed as the ops are but not summed into the unit;
and last the process's peak resident set size after every round, a figure
for a fixed number of units (``--repeats`` + 1 rounds of the grid and the
extra claims).  Exits 1, with one ``error:`` line, if an op or extra claim
exits non-zero, reports failures or counts other than its closed form: the
workload's for an op, and its ``EXTRA`` row's for an extra claim.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# claims no benchmark workload runs, timed beside the unit:
# (token, variant, k, l, n, closed-form case count)
EXTRA = (
    # (k+l)^n C(k+l, k): the (P, Q) pairs of n cells, and the words, under each shuffle
    ("converse", "reg-reg", 2, 2, 4, 4**4 * comb(4, 2)),
    ("mimicry", "reg-reg", 2, 2, 4, 4**4 * comb(4, 2)),
    # p(n) (C(k+l, k) - 1): each shape of n cells under every shuffle but the first
    ("cor4", "reg-reg", 2, 2, 4, 5 * (comb(4, 2) - 1)),
    # C(k+l, k) x 4: each shuffle under every variant
    ("identity", "reg-reg", 2, 2, 4, comb(4, 2) * 4),
)


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

    def op(token, variant, k, l, n, expected):
        argv_ = [
            "--k", str(k), "--l", str(l), "--variant", variant, "--format", "json",
            "verify", "--theorem", token, "--n", str(n), "--mode", "exhaustive",
        ]
        return f"{token} {variant} n={n}", argv_, expected

    ops = [op(token, variant, k, l, n, workloads.closed_form_cases(token, k, l, n))
           for token, variant, n in size["grid"]]
    unit = len(ops)
    ops += [op(*row) for row in EXTRA]

    def run(argv_, expected) -> tuple[float, str | None]:
        """The op's time, and why it did not pass with its closed-form count."""
        captured, errors = io.StringIO(), io.StringIO()
        with redirect_stdout(captured), redirect_stderr(errors):
            start = time.perf_counter()
            code = cli_main(argv_)
            elapsed = time.perf_counter() - start
        if code not in (0, 1):  # bad input: stdout is empty, and stderr says why
            why = errors.getvalue().partition("\n")[0].removeprefix("error: ")
            return elapsed, f"exit {code}: {why}"
        report = json.loads(captured.getvalue())
        if code or report["failures"] or report["cases"] != expected:
            return elapsed, (f"exit {code}, {len(report['failures'])} failures, "
                             f"{report['cases']} cases (expected {expected})")
        return elapsed, None

    best = [float("inf")] * len(ops)
    best_round = float("inf")
    for round_ in range(args.repeats + 1):
        total = 0.0
        for m, (name, argv_, expected) in enumerate(ops):
            elapsed, fault = run(argv_, expected)
            if fault is not None:
                print(f"error: {name}: {fault}", file=sys.stderr)
                return 1
            total += elapsed if m < unit else 0.0
            if round_:  # the first round warms up
                best[m] = min(best[m], elapsed)
        if round_:
            best_round = min(best_round, total)
    print(f"k={k} l={l}, best of {args.repeats} interleaved rounds, in process")
    for (name, _, expected), seconds in zip(ops[:unit], best):
        print(f"{name:<22} {expected:>7} cases {seconds * 1000:8.2f} ms")
    print(f"{'unit (sum of bests)':<36} {sum(best[:unit]) * 1000:8.2f} ms")
    print(f"{'unit (best round)':<36} {best_round * 1000:8.2f} ms")
    for (name, _, expected), (_, _, k_, l_, _, _), seconds in zip(ops[unit:], EXTRA, best[unit:]):
        print(f"{name:<22} {expected:>7} cases {seconds * 1000:8.2f} ms  (k={k_} l={l_}, "
              "not in the unit)")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{f'peak RSS, {args.repeats + 1} rounds':<36} {peak_mb:8.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
