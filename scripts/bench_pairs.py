"""Compare two checkouts of this repository on the benchmark, in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json \
        [--pairs 10] [--seconds 30] [--first-seed 1]

``--pairs`` below 2 is refused before any run: each side's quartiles need
two runs.

Each checkout must hold ``perfbench/`` and ``src/``.  Pair i runs every
workload of ``BENCHMARK.json`` with seed ``first-seed + i`` once per checkout,
the parent first in even pairs and the change first in odd ones, using
``python3 perfbench/run.py --trace 0``.  Afterwards one ``--trace 1`` run per
workload and checkout, with the first seed, gives the per-layer counts.  The
output holds every run's end-to-end values, each side's median and quartiles,
the change's wins per metric, failed/attempted op totals and the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns its provenance/details line and result line."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    about, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return {"about": about, "result": result}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    side_p, side_c = quartiles(parent), quartiles(change)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": side_p,
        "change": side_c,
        "change_over_parent": side_c["median"] / side_p["median"],
        "change_wins": wins,
        "parent_iqr": side_p["q3"] - side_p["q1"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    runs = {w: {side: [] for side in sides} for w in workloads}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                out = run_bench(sides[side], workload, seed, args.seconds, 0)
                runs[workload][side].append(out)
                values = {k: round(v["value"], 4) for k, v in out["result"]["metrics"].items()}
                print(f"pair {i + 1} seed {seed} {workload} {side}: {values}", file=sys.stderr)

    report = {
        "command": (
            f"python3 scripts/bench_pairs.py --parent PARENT --change CHANGE --out {args.out.name}"
            f" --pairs {args.pairs} --seconds {args.seconds:g} --first-seed {args.first_seed}"
        ),
        "bench_command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "seeds": seeds,
        "sides": {},
        "workloads": {},
        "per_layer": {},
    }
    for workload in workloads:
        per_side = runs[workload]
        entry = {
            "failed_over_attempted": {
                side: [
                    sum(r["result"]["failed"] for r in per_side[side]),
                    sum(r["result"]["attempted"] for r in per_side[side]),
                ]
                for side in sides
            },
            "metrics": {},
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {
                side: [r["result"]["metrics"][name]["value"] for r in per_side[side]]
                for side in sides
            }
            entry["metrics"][name] = summarize(metric, values["parent"], values["change"])
        report["workloads"][workload] = entry
        report["per_layer"][workload] = {}
        for side, checkout in sides.items():
            out = run_bench(checkout, workload, seeds[0], args.seconds, 1)
            report["per_layer"][workload][side] = {
                "seed": seeds[0],
                "failed_over_attempted": [out["result"]["failed"], out["result"]["attempted"]],
                "metrics": {k: v["value"] for k, v in out["result"]["metrics"].items()},
            }
    for side in sides:
        about = runs[workloads[0]][side][0]["about"]["provenance"]
        report["sides"][side] = {
            key: about[key] for key in ("git_commit", "src_lines", "python", "nproc")
        }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
