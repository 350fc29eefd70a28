"""Write the same-output matrix of one checkout to a file.

    python3 scripts/verify_outputs.py --out FILE [--src DIR]

Runs the `superrsk` CLI in process, against the package under ``DIR``
(default: this checkout's ``src/``), over a fixed matrix:

- ``--format json verify`` for the 14 claim tokens below, each with every
  variant it honours (and ``cor4`` with every variant, which checkouts that
  check it under reg-reg only refuse), at (k, l) in {(2, 2), (2, 1), (1, 2)}
  and n in {0, 3, 4}, exhaustive and, where the token honours it,
  ``--mode sample --samples 7 --seed 5``;
- every token once more at (k, l) in {(2, 0), (0, 2)} and n in {0, 3};
- ``--format json enumerate`` for every shape of 1 to 4 cells under every
  shuffle and variant at (k, l) in {(2, 2), (2, 1)};
- ``standardize --side u|t`` on three fixed words under every shuffle at
  (2, 2), in both output formats;
- ``standardize --side u|t`` in both output formats on three seeded
  12-letter words and the empty word under every shuffle at (3, 3), and
  likewise at (0, 3) and (3, 0), where one side has no letters to relabel;
- ``hook-schur`` for every shape of 1 to 5 cells under every shuffle at
  (k, l) in {(2, 2), (2, 1), (1, 2)}, in both output formats, and once with
  a shuffle holding a letter outside the alphabet;
- ``--format json hook-schur`` for every shape of 6 and 7 cells under every
  shuffle at (k, l) = (3, 3), the benchmark's hook-schur grid and one size
  below it, first with no ``--variant`` (reg-reg) and then under each other
  variant;
- ``hook-schur`` for every shape of 1 to 8 cells under every shuffle at
  (k, l) in {(3, 0), (0, 3), (3, 1)}, in both output formats, where one
  alphabet side is empty or short and the exponent fields are 1 to 4 bits
  wide;
- ``--format json hook-schur`` for every shape of 1 to 4 cells under every
  shuffle and variant at (k, l) in {(2, 2), (2, 1)} (checkouts that count
  reg-reg fillings only refuse the other variants);
- ``trace`` in both output formats for every ordered pair of adjacent
  shuffles at (k, l) in {(2, 2), (2, 1), (1, 2)}, on each of three fixed
  words inside the alphabet (``TRACE_WORDS``) and the empty word, and at
  (3, 2) on three seeded 12-letter words, whose witness tables are large;
- ``--format json verify --theorem lemma2.15`` at (k, l) = (3, 2), n = 4, and
  at (2, 2), n = 7 with ``--mode sample --samples 300 --seed 7``;
- ``--format json verify --theorem 2``, and ``--theorem 5`` under every
  variant, at (k, l) = (3, 3), n = 3 and at (3, 2), n = 4, where many
  shuffles give many pairs per word;
- every ``lemma2.15`` row above once more, and the first ``trace`` row of
  each alphabet.  A checkout that keeps an alphabet's
  ``lemma2.15`` step states for the process first runs each ``lemma2.15``
  row on the states that alphabet's earlier rows left (none at its first
  row), and then on those the whole matrix left, or on none where other
  alphabets have evicted them; the repeated ``trace`` rows run after every
  grid.  Either way the output must not change;
- ``insert`` in both output formats on each of the three fixed words and the
  empty word under every shuffle and variant at (2, 2), on three seeded
  60-letter words under seeded shuffles and every variant at (5, 5), and at
  (5, 5) on one seeded 300-letter word per variant under a seeded shuffle.
  Each JSON output is written to a temporary file and fed through ``--in``
  to ``reverse`` and to ``phi`` (every other shuffle as ``--shuffle-b`` at
  (2, 2), one seeded shuffle at (5, 5)), both in both formats;
- ``reverse`` and ``phi`` on each bad (P, Q) of ``BAD_PQ`` under every
  variant at (2, 2), each of which exits 2.

Each line of the output is one run: its argv, exit code and JSON payload with
``elapsed_ms`` removed, its text output, or its error line when it exits 2.
An ``--in`` file is shown in the argv as ``IN``.  Two checkouts whose output
agrees give identical files, so comparing them takes one ``diff``.  A
checkout whose claim registry holds a token that ``TOKENS`` lacks is refused
with exit 2, so a new claim cannot skip the matrix unnoticed; once its token
is added here, older checkouts that lack it can no longer run the matrix.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

TOKENS = (
    "2", "5", "cor4", "lemma2.6", "lemma2.15", "lemma3.2", "theorem3", "identity",
    "paths", "cells", "region1", "round-trip", "mimicry", "converse",
)
VARIANTS = ("reg-reg", "reg-dual", "dual-reg", "dual-dual")
# tokens run under every variant even where a checkout does not honour
# --variant for them (it exits 2 there), so that checkouts from before and
# after they honoured it run one matrix
ALWAYS_VARIED = ("cor4",)
SAMPLE = ("--mode", "sample", "--samples", "7", "--seed", "5")
SHAPES = ("1", "2", "1,1", "3", "2,1", "1,1,1", "4", "3,1", "2,2", "2,1,1", "1,1,1,1")
WORDS = ("t2,u2,u1,u1,t1", "u1,t1,u1,t2,t1,u2,u1", "t1,t1,t2,t1")
TRACE_WORDS = {  # per (k, l): fixed words whose letters all lie in the alphabet
    (2, 2): WORDS,
    (2, 1): ("t2,u1,u1,t1", "u1,t1,u1,t2,t1,t2,u1", "t1,t1,t2,t1"),
    (1, 2): ("t1,u2,u1,u1,t1", "u1,t1,u1,u2,t1,u2,u1", "u2,t1,u2,u1"),
}
BAD_PQ = (  # (P rows, Q rows) that reverse and phi refuse, with what is wrong
    ([["t1", "t2", "u2"], ["u1"]], [[1, 2, 2], [4]]),  # a duplicate label
    ([["t1", "t2", "u2"], ["u1"]], [[0, 1, 2], [3]]),  # label 0
    ([["t1", "t2", "u2"], ["u1"]], [[1, 2, 5], [4]]),  # a label above n
    ([["t1", "t2", "u2"], ["u1"]], [[1, 3, 2], [4]]),  # a row that decreases
    ([["t1", "t2", "u2"], ["u1"]], [[2, 3, 4], [1]]),  # a column that decreases
    ([["t1", "t2", "u2"], ["u1"]], [[1, 2], [3, 4]]),  # shapes differ
    ([["t2", "t1", "u2"], ["u1"]], [[1, 2, 3], [4]]),  # P not valid
    ([["t3"]], [[1]]),  # a letter outside the alphabet in a lone cell
    ([["t1", "t3"], ["u1"]], [[1, 2], [3]]),  # and in a P of several cells
)
HOOK_SHAPES = SHAPES + ("5", "4,1", "3,2", "3,1,1", "2,2,1", "2,1,1,1", "1,1,1,1,1")


def partitions(n: int, cap: int) -> list[tuple[int, ...]]:
    """The partitions of n with parts at most cap, largest parts first."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, cap), 0, -1)
            for rest in partitions(n - first, first)]


def chains(k: int, l: int) -> list[str]:
    """Every shuffle of t1..tk with u1..ul, written as an order chain."""
    out = []
    for places in combinations(range(k + l), k):
        ts, us = iter(range(1, k + 1)), iter(range(1, l + 1))
        out.append("<".join(f"t{next(ts)}" if p in places else f"u{next(us)}"
                            for p in range(k + l)))
    return out


def adjacent(a: str, b: str) -> bool:
    """Whether two order chains differ by swapping one neighbouring t/u pair."""
    x, y = a.split("<"), b.split("<")
    diff = [i for i, (p, q) in enumerate(zip(x, y)) if p != q]
    return (len(diff) == 2 and diff[1] == diff[0] + 1
            and x[diff[0]] == y[diff[1]] and x[diff[1]] == y[diff[0]])


def matrix(claims: dict) -> list[list[str]]:
    """The argv of every run, in a fixed order."""
    runs = []
    for k, l in ((2, 2), (2, 1), (1, 2)):
        for n in (0, 3, 4):
            for token in TOKENS:
                honours, _ = claims[token]
                varied = "variant" in honours or token in ALWAYS_VARIED
                variants = VARIANTS if varied else ("reg-reg",)
                modes = ((), SAMPLE) if "mode" in honours else ((),)
                for variant in variants:
                    for mode in modes:
                        runs.append([
                            "--k", str(k), "--l", str(l), "--variant", variant,
                            "--format", "json", "verify", "--theorem", token, "--n", str(n),
                            *mode,
                        ])
    for k, l in ((2, 0), (0, 2)):
        for n in (0, 3):
            for token in TOKENS:
                runs.append([
                    "--k", str(k), "--l", str(l), "--format", "json",
                    "verify", "--theorem", token, "--n", str(n),
                ])
    for k, l in ((2, 2), (2, 1)):
        for chain in chains(k, l):
            for variant in VARIANTS:
                for shape in SHAPES:
                    runs.append([
                        "--k", str(k), "--l", str(l), "--shuffle", chain, "--variant", variant,
                        "--format", "json", "enumerate", "--shape", shape,
                    ])
    for chain in chains(2, 2):
        for word in WORDS:
            for side in ("u", "t"):
                for fmt in ("json", "text"):
                    runs.append([
                        "--k", "2", "--l", "2", "--shuffle", chain, "--format", fmt,
                        "standardize", "--word", word, "--side", side,
                    ])
    rng = random.Random(3)
    for k, l in ((3, 3), (0, 3), (3, 0)):
        letters = [f"t{i}" for i in range(1, k + 1)] + [f"u{j}" for j in range(1, l + 1)]
        words = [",".join(rng.choice(letters) for _ in range(12)) for _ in range(3)]
        for chain in chains(k, l):
            for word in (*words, ""):
                for side in ("u", "t"):
                    for fmt in ("json", "text"):
                        runs.append([
                            "--k", str(k), "--l", str(l), "--shuffle", chain, "--format", fmt,
                            "standardize", "--word", word, "--side", side,
                        ])
    for k, l in ((2, 2), (2, 1), (1, 2)):
        for chain in chains(k, l):
            for shape in HOOK_SHAPES:
                for fmt in ("json", "text"):
                    runs.append([
                        "--k", str(k), "--l", str(l), "--shuffle", chain, "--format", fmt,
                        "hook-schur", "--shape", shape,
                    ])
    runs.append([
        "--k", "2", "--l", "2", "--shuffle", "t1<u1<t2<u3", "hook-schur", "--shape", "2,1",
    ])
    for variant in VARIANTS:  # reg-reg rows carry no --variant
        varied = [] if variant == "reg-reg" else ["--variant", variant]
        for n in (6, 7):
            for shape in partitions(n, n):
                for chain in chains(3, 3):
                    runs.append([
                        "--k", "3", "--l", "3", "--shuffle", chain, *varied, "--format", "json",
                        "hook-schur", "--shape", ",".join(map(str, shape)),
                    ])
    for k, l in ((3, 0), (0, 3), (3, 1)):
        for chain in chains(k, l):
            for n in range(1, 9):
                for shape in partitions(n, n):
                    for fmt in ("json", "text"):
                        runs.append([
                            "--k", str(k), "--l", str(l), "--shuffle", chain, "--format", fmt,
                            "hook-schur", "--shape", ",".join(map(str, shape)),
                        ])
    for k, l in ((2, 2), (2, 1)):
        for chain in chains(k, l):
            for variant in VARIANTS:
                for shape in SHAPES:
                    runs.append([
                        "--k", str(k), "--l", str(l), "--shuffle", chain, "--variant", variant,
                        "--format", "json", "hook-schur", "--shape", shape,
                    ])
    trace_words = {kl: (*words, "") for kl, words in TRACE_WORDS.items()}
    rng = random.Random(20)
    trace_words[3, 2] = [",".join(rng.choice(("t1", "t2", "t3", "u1", "u2")) for _ in range(12))
                         for _ in range(3)]
    for (k, l), words in trace_words.items():
        for a in chains(k, l):
            for b in chains(k, l):
                if not adjacent(a, b):
                    continue
                for word in words:
                    for fmt in ("json", "text"):
                        runs.append([
                            "--k", str(k), "--l", str(l), "--shuffle", a, "--format", fmt,
                            "trace", "--word", word, "--shuffle-b", b,
                        ])
    runs.append([
        "--k", "3", "--l", "2", "--format", "json", "verify", "--theorem", "lemma2.15",
        "--n", "4",
    ])
    runs.append([
        "--k", "2", "--l", "2", "--format", "json", "verify", "--theorem", "lemma2.15",
        "--n", "7", "--mode", "sample", "--samples", "300", "--seed", "7",
    ])
    for (k, l), n in (((3, 3), 3), ((3, 2), 4)):
        for token, variants in (("2", ("reg-reg",)), ("5", VARIANTS)):
            for variant in variants:
                runs.append([
                    "--k", str(k), "--l", str(l), "--variant", variant, "--format", "json",
                    "verify", "--theorem", token, "--n", str(n),
                ])
    # lemma2.15's step states are kept per alphabet for the process, so its
    # rows run again after every other alphabet and n, and a trace row per
    # alphabet after every grid
    again = [run for run in runs if "lemma2.15" in run]
    firsts: dict[tuple[str, str], list[str]] = {}
    for run in runs:
        if "trace" in run:
            firsts.setdefault((run[1], run[3]), run)
    return runs + again + list(firsts.values())


def pq_runs(main, folder: Path):
    """The entries of the insert, reverse and phi runs, in a fixed order.

    Each (P, Q) input is written to a file in ``folder`` that is passed as
    ``--in`` and shown as ``IN``.
    """
    path = folder / "pq.json"

    def fed(argv: list[str], pq: dict) -> dict:
        path.write_text(json.dumps(pq), encoding="utf-8")
        return record(main, argv + ["--in", str(path)], shown=argv + ["--in", "IN"])

    rng = random.Random(14)
    letters = [f"t{i}" for i in range(1, 6)] + [f"u{j}" for j in range(1, 6)]
    long_words = [",".join(rng.choice(letters) for _ in range(60)) for _ in range(3)]
    five = chains(5, 5)
    cases = [(2, chain, (*WORDS, ""), [b for b in chains(2, 2) if b != chain], VARIANTS)
             for chain in chains(2, 2)]
    cases += [(5, rng.choice(five), (word,), [rng.choice(five)], VARIANTS) for word in long_words]
    # long enough that a dual rule's bumps meet runs of equal entries
    cases += [
        (5, rng.choice(five), (",".join(rng.choice(letters) for _ in range(300)),),
         [rng.choice(five)], (variant,))
        for variant in VARIANTS
    ]
    for k, chain, words, targets, variants in cases:
        for variant in variants:
            head = ["--k", str(k), "--l", str(k), "--shuffle", chain, "--variant", variant]
            for word in words:
                entry = record(main, head + ["--format", "json", "insert", "--word", word])
                yield entry
                yield record(main, head + ["insert", "--word", word])
                pq = entry["report"]
                for fmt in ("json", "text"):
                    yield fed(head + ["--format", fmt, "reverse"], pq)
                    for b in targets:
                        yield fed(head + ["--format", fmt, "phi", "--shuffle-b", b], pq)
    for p, q in BAD_PQ:
        pq = {"p": {"rows": p}, "q": {"rows": q}}
        for variant in VARIANTS:
            head = ["--k", "2", "--l", "2", "--shuffle", "t1<t2<u1<u2", "--variant", variant]
            yield fed(head + ["reverse"], pq)
            yield fed(head + ["phi", "--shuffle-b", "u1<u2<t1<t2"], pq)

def record(main, argv: list[str], shown: list[str] | None = None) -> dict:
    """Run the CLI on argv; the entry shows ``shown`` as its argv if given."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    entry = {"argv": argv if shown is None else shown, "exit": code}
    if out.getvalue() and "json" in argv:
        report = json.loads(out.getvalue())
        if isinstance(report, dict):  # hook-schur prints a list of terms
            report.pop("elapsed_ms", None)
        entry["report"] = report
    elif out.getvalue():
        entry["output"] = out.getvalue()
    else:
        entry["error"] = err.getvalue().splitlines()[:1]
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parent.parent / "src"
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from superrsk.cli import _CLAIMS, main as cli_main

    unlisted = [token for token in _CLAIMS if token not in TOKENS]
    if unlisted:
        print(f"error: claim tokens {', '.join(unlisted)} are not in TOKENS; add them to "
              f"the matrix", file=sys.stderr)
        return 2
    codes: dict[int, int] = {}
    with tempfile.TemporaryDirectory() as folder, args.out.open("w", encoding="utf-8") as handle:

        def entries():
            for run in matrix(_CLAIMS):
                yield record(cli_main, run)
            yield from pq_runs(cli_main, Path(folder))

        for entry in entries():
            codes[entry["exit"]] = codes.get(entry["exit"], 0) + 1
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"{sum(codes.values())} runs, exit codes {dict(sorted(codes.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
