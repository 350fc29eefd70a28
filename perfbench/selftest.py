"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is reported with its
unit, that the traced run's counts repeat exactly for one seed, that the
insertion-free workload really runs no insertion, and that corrupted library
outputs are counted as failed ops rather than passed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (after the path insert above)
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def tiny_units(workload, patch=None):
    """Run every unit of the tiny input pool, optionally with a library patch."""
    lib, inputs, _ = run.set_up(workload, SEED, "tiny", 1)
    units = workload.sizes["tiny"]["pool_units"]
    if patch is None:
        return run.run_units(workload, inputs, units=units)
    target, attr, make = patch(lib)
    with mock.patch.object(target, attr, make(getattr(target, attr))):
        return run.run_units(workload, inputs, units=units)


class BenchmarkSelfTest(unittest.TestCase):
    def test_workloads_match_declaration(self):
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(WORKLOADS))

    def test_every_layer_metric_has_a_prediction(self):
        layers = json.loads((run.HERE / "layers.json").read_text(encoding="utf-8"))["layers"]
        mapped = [name for layer in layers for name in layer["metrics"]]
        self.assertEqual(sorted(mapped), sorted(declared("per_layer")))
        for layer in layers:
            for workload in list(layer["moves"]) + layer["unmoved"]:
                self.assertIn(workload, WORKLOADS)

    def test_end_to_end_metrics_reported(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                attempted, failed, metrics, details = run.measure_end_to_end(
                    workload, SEED, 0.001, size="tiny"
                )
                self.assertEqual(failed, 0)
                self.assertGreaterEqual(attempted, 1)
                self.assertEqual({k: unit for k, (_, unit) in metrics.items()}, declared("end_to_end"))
                for name, (value, _) in metrics.items():
                    self.assertGreater(value, 0, name)
                self.assertEqual(details["error_rate"], 0.0)
                line = json.loads(json.dumps(run.result_line(attempted, failed, metrics)))
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})

    def test_per_layer_metrics_reported_and_counts_repeat(self):
        counted = {name for name, unit in run.PER_LAYER.items() if unit in ("count", "ratio")}
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                spans = run.OUT / f"selftest-spans-{workload.name}.tsv"
                first = run.measure_per_layer(workload, SEED, size="tiny", spans_path=spans)
                second = run.measure_per_layer(workload, SEED, size="tiny")
                self.assertEqual(first[1], 0)
                metrics = first[2]
                self.assertEqual({k: unit for k, (_, unit) in metrics.items()}, declared("per_layer"))
                for name in counted:
                    self.assertEqual(metrics[name][0], second[2][name][0], name)
                lines = spans.read_text(encoding="utf-8").splitlines()
                self.assertEqual(len(lines) - 1, first[3]["spans"])
                if workload.name == "hook-schur":
                    self.assertEqual(metrics["insertion.insert_word.calls"][0], 0)
                else:
                    self.assertGreater(metrics["insertion.insert_word.calls"][0], 0)

    def test_mutated_recovered_word_fails(self):
        def patch(lib):
            def make(reverse_word):
                def corrupt(*args):
                    word = reverse_word(*args)
                    first = word[0]
                    swapped = lib.pkg.u(1) if first.kind == "t" else lib.pkg.t(1)
                    return lib.pkg.Word((swapped,) + word.letters[1:])

                return corrupt

            return lib.pkg, "reverse_word", make

        result = tiny_units(WORKLOADS["insert-long"], patch)
        self.assertEqual(result.failed, len(result.op_intervals))

    def test_wrong_case_count_fails(self):
        def patch(lib):
            def make(check):
                def corrupt(*args, **kwargs):
                    report = check(*args, **kwargs)
                    return dataclasses.replace(report, cases_run=report.cases_run + 1)

                return corrupt

            return lib.cli, "check_shape_invariance", make

        result = tiny_units(WORKLOADS["verify-exhaustive"], patch)
        shape_ops = sum(1 for token, _, _ in WORKLOADS["verify-exhaustive"]._grid if token in ("2", "5"))
        units = WORKLOADS["verify-exhaustive"].sizes["tiny"]["pool_units"]
        self.assertEqual(result.failed, shape_ops * units)

    def test_shuffle_dependent_polynomial_fails(self):
        def patch(lib):
            def make(hook_schur):
                def corrupt(shape, alphabet, shuffle):
                    poly = hook_schur(shape, alphabet, shuffle)
                    # one shuffle in three disagrees on one shape
                    if shuffle.order[0].kind == "t" and shape == (2, 1):
                        mono = lib.pkg.Monomial((1,) * alphabet.k, (0,) * alphabet.l)
                        return poly + lib.pkg.Polynomial({mono: 1})
                    return poly

                return corrupt

            return lib.pkg, "hook_schur", make

        result = tiny_units(WORKLOADS["hook-schur"], patch)
        self.assertEqual(result.failed, WORKLOADS["hook-schur"].sizes["tiny"]["pool_units"])

    def test_missing_library_is_a_setup_error(self):
        with mock.patch.object(run, "SRC", run.ROOT / "no-such-src"):
            with self.assertRaises(run.SetupError):
                run.import_library()


if __name__ == "__main__":
    unittest.main()
