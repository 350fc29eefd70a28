"""The benchmark's workloads: input generation, ops and output checks.

Every workload is run in *units*: a group of ops whose mix is the same in
every unit.  The timed loop only stops between units, so per-op percentiles
always describe the same mix of op kinds, whatever the machine's speed.

Inputs come from ``random.Random(seed)`` inside the benchmark; the library
only ever receives the generated words, shuffles, shapes and argument lists.
Ops look library functions up through the module at call time, so the traced
run's wrappers see them.  Checks use references taken before tracing starts,
so the benchmark's own validation is never counted as library work.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from math import comb, perm
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

EXPECTED_CASES_FILE = Path(__file__).with_name("expected_cases.json")


@dataclass
class Unit:
    """Ops that run back to back, then one check over all their outputs.

    ``check(outputs, tally)`` returns one bool per op (True when correct) and
    may add work counts from the outputs to ``tally``.  An output that is an
    exception has already failed and is passed through for completeness.
    """

    calls: list[Callable[[], object]]
    check: Callable[[list, Counter], list[bool]]


class Workload:
    name: str
    # Fixed per workload so that runs of every commit report the same
    # percentile: about the highest one with at least ten ops beyond it on
    # the seed code, at the full sizes and the benchmark's run length, and
    # inside one band of op kinds rather than on the edge between two.
    tail_percentile: int
    # Units the traced run executes; fixed so that its counts repeat exactly.
    trace_units: int
    sizes: dict[str, dict]

    def prepare(self, lib: SimpleNamespace, rng, size: dict):
        """Set-up: make the pool of inputs from ``rng`` for ``lib``."""
        raise NotImplementedError

    def unit(self, inputs, i: int) -> Unit:
        """The i-th unit to run, drawn in turn from the pool."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# insert-long: insert_word then reverse_word on long random words


class InsertLong(Workload):
    name = "insert-long"
    tail_percentile = 90
    trace_units = 4
    sizes = {
        "full": {"k": 5, "l": 5, "length": 300, "pool_units": 64},
        "tiny": {"k": 2, "l": 2, "length": 12, "pool_units": 3},
    }

    def prepare(self, lib, rng, size):
        pkg = lib.pkg
        alphabet = pkg.Alphabet(size["k"], size["l"])
        letters = alphabet.letters()
        # shuffles dealt from a seeded permutation rather than drawn with
        # replacement, so that every run covers the orders evenly
        shuffles = pkg.all_shuffles(alphabet)
        rng.shuffle(shuffles)
        cases = []
        for u in range(size["pool_units"]):
            unit = []
            for v, variant in enumerate(pkg.VARIANTS):
                word = pkg.Word(tuple(rng.choice(letters) for _ in range(size["length"])))
                shuffle = shuffles[(u * len(pkg.VARIANTS) + v) % len(shuffles)]
                unit.append((word, shuffle, variant))
            cases.append(unit)
        return SimpleNamespace(
            pkg=pkg,
            cases=cases,
            is_valid=pkg.is_valid,
            is_standard=pkg.is_standard,
            variant_profile=pkg.variant_profile,
        )

    def unit(self, inputs, i):
        pkg = inputs.pkg
        cases = inputs.cases[i % len(inputs.cases)]

        def round_trip(word, shuffle, variant):
            result = pkg.insert_word(word, shuffle, variant)
            return result, pkg.reverse_word(result.p, result.q, shuffle, variant)

        def check(outputs, tally):
            ok = []
            for (word, shuffle, variant), out in zip(cases, outputs):
                if isinstance(out, BaseException):
                    ok.append(False)
                    continue
                result, back = out
                ok.append(
                    back == word
                    and inputs.is_valid(result.p, shuffle, inputs.variant_profile(variant))
                    and inputs.is_standard(result.q)
                )
            return ok

        return Unit(
            calls=[lambda c=c: round_trip(*c) for c in cases],
            check=check,
        )


# ---------------------------------------------------------------------------
# verify-exhaustive: the acceptance suite's claim grids through the CLI


def closed_form_cases(token: str, k: int, l: int, n: int) -> int:
    """Case count a `verify --theorem <token> --mode exhaustive` report must give."""
    letters = k + l
    shuffles = comb(k + l, k)
    words = letters**n
    if token in ("2", "5"):  # words x unordered shuffle pairs
        return words * comb(shuffles, 2)
    if token == "lemma2.6":  # words x shuffles x restriction letters
        return words * shuffles * letters
    if token == "lemma2.15":
        # words x unordered shuffle pairs one adjacent t/u swap apart; a
        # shuffle has on average 2kl/(k+l) adjacent t/u neighbours, so there
        # are C(k+l, k) * kl/(k+l) = C(k+l-1, k-1) * l such pairs
        return words * comb(k + l - 1, k - 1) * l
    if token == "lemma3.2":  # words with pairwise distinct u's x shuffles
        distinct_u = sum(comb(n, j) * perm(l, j) * k ** (n - j) for j in range(min(l, n) + 1))
        return distinct_u * shuffles
    if token == "theorem3":
        # ordered pairs of distinct shuffles x (P, Q) pairs of n cells, and
        # the (P, Q) pairs of n cells are counted by the words of length n
        return shuffles * (shuffles - 1) * words
    raise ValueError(f"no closed form for claim token {token!r}")


class VerifyExhaustive(Workload):
    name = "verify-exhaustive"
    tail_percentile = 75
    trace_units = 1
    _grid = (
        ("2", "reg-reg", 5),
        ("5", "reg-dual", 4),
        ("5", "dual-reg", 4),
        ("5", "dual-dual", 4),
        ("lemma2.6", "reg-reg", 4),
        ("lemma2.15", "reg-reg", 4),
        ("lemma3.2", "reg-reg", 5),
        ("theorem3", "reg-reg", 4),
    )
    sizes = {
        "full": {"k": 2, "l": 2, "grid": _grid, "pool_units": 16},
        "tiny": {
            "k": 2,
            "l": 2,
            "grid": tuple((token, variant, 2) for token, variant, _ in _grid),
            "pool_units": 2,
        },
    }

    def prepare(self, lib, rng, size):
        k, l = size["k"], size["l"]
        pinned = json.loads(EXPECTED_CASES_FILE.read_text(encoding="utf-8"))
        ops = []
        for token, variant, n in size["grid"]:
            expected = closed_form_cases(token, k, l, n)
            key = f"k={k} l={l} {token} {variant} n={n}"
            if key in pinned["cases"] and pinned["cases"][key] != expected:
                raise RuntimeError(
                    f"{key}: pinned count {pinned['cases'][key]} != closed form {expected}"
                )
            argv = [
                "--k", str(k), "--l", str(l), "--variant", variant, "--format", "json",
                "verify", "--theorem", token, "--n", str(n), "--mode", "exhaustive",
            ]
            ops.append((argv, expected))
        orders = []
        for _ in range(size["pool_units"]):
            order = list(ops)
            rng.shuffle(order)
            orders.append(order)
        return SimpleNamespace(cli=lib.cli, orders=orders)

    def unit(self, inputs, i):
        ops = inputs.orders[i % len(inputs.orders)]

        def run_cli(argv):
            captured = io.StringIO()
            with redirect_stdout(captured):
                code = inputs.cli.main(argv)
            return code, captured.getvalue()

        def check(outputs, tally):
            ok = []
            for (_, expected), out in zip(ops, outputs):
                if isinstance(out, BaseException):
                    ok.append(False)
                    continue
                code, text = out
                try:
                    report = json.loads(text)
                except json.JSONDecodeError:
                    ok.append(False)
                    continue
                tally["verify.cases"] += report.get("cases", 0)
                ok.append(code == 0 and report.get("failures") == [] and report.get("cases") == expected)
            return ok

        return Unit(
            calls=[lambda argv=argv: run_cli(argv) for argv, _ in ops],
            check=check,
        )


# ---------------------------------------------------------------------------
# hook-schur: hook Schur polynomials of every shape under every shuffle


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n, largest parts first."""
    if n == 0:
        return [()]
    found = []
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                found.append((first,) + rest)
    return found


class HookSchur(Workload):
    name = "hook-schur"
    # p99 has only 12 ops beyond it at 4 passes and moves by a third of the
    # bound between runs; p98 sits deeper inside the slowest shape's band
    tail_percentile = 98
    trace_units = 1
    sizes = {
        "full": {"k": 3, "l": 3, "n": 7, "pool_units": 8},
        "tiny": {"k": 1, "l": 2, "n": 3, "pool_units": 2},
    }

    def prepare(self, lib, rng, size):
        pkg = lib.pkg
        alphabet = pkg.Alphabet(size["k"], size["l"])
        shapes = partitions(size["n"])
        shuffles = pkg.all_shuffles(alphabet)
        ops = [(shape, s) for shape in shapes for s in shuffles]
        orders = []
        for _ in range(size["pool_units"]):
            order = list(ops)
            rng.shuffle(order)
            orders.append(order)
        return SimpleNamespace(
            pkg=pkg,
            alphabet=alphabet,
            orders=orders,
            standard_counts={shape: pkg.count_syt(shape) for shape in shapes},
            words=alphabet.size ** size["n"],
        )

    def unit(self, inputs, i):
        pkg = inputs.pkg
        ops = inputs.orders[i % len(inputs.orders)]

        def check(outputs, tally):
            # Corollary 4: one polynomial per shape, whatever the shuffle.
            keys = [
                None if isinstance(out, BaseException) else tuple(out.sorted_terms())
                for out in outputs
            ]
            by_shape: dict[tuple, Counter] = {}
            for (shape, _), key in zip(ops, keys):
                if key is not None:
                    by_shape.setdefault(shape, Counter())[key] += 1
            reference = {shape: seen.most_common(1)[0][0] for shape, seen in by_shape.items()}
            ok = [key is not None and key == reference[shape] for (shape, _), key in zip(ops, keys)]
            # Counting identity: sum over shapes of HS(1,...,1) * #SYT = (k+l)^n.
            total = sum(
                sum(coeff for _, coeff in terms) * inputs.standard_counts[shape]
                for shape, terms in reference.items()
            )
            if total != inputs.words or len(reference) != len(inputs.standard_counts):
                return [False] * len(ops)
            return ok

        return Unit(
            calls=[
                lambda shape=shape, s=s: pkg.hook_schur(shape, inputs.alphabet, s)
                for shape, s in ops
            ],
            check=check,
        )


WORKLOADS = {w.name: w for w in (InsertLong(), VerifyExhaustive(), HookSchur())}
