"""Span tracing for the benchmark's traced run.

Spans are recorded around calls into the library's public functions by
rebinding those functions, in every ``superrsk`` module namespace that holds
them, to timing wrappers.  Nothing in the library is edited on disk, and the
untraced run never installs the wrappers.

Each span keeps its name, start, end, parent span and the id of the benchmark
op that caused it.  Spans stay in memory and are written out once, when the
run ends.  A layer's self time is the duration of its spans minus the part of
each covered by direct child spans; calls are single-threaded and properly
nested, so that part is the sum of the children's durations.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (span name, module, attribute) — the attribute's current value is wrapped
# wherever any superrsk module binds it.
FUNCTION_SPANS = (
    ("insertion.insert_word", "superrsk.insertion", "insert_word"),
    ("bijection.reverse_word", "superrsk.bijection", "reverse_word"),
    ("bijection.change_shuffle", "superrsk.bijection", "change_shuffle"),
    ("tableau.is_valid", "superrsk.tableau", "is_valid"),
    ("tableau.classify_regions", "superrsk.tableau", "classify_regions"),
    ("schur.enumerate_ssyt", "superrsk.schur", "enumerate_ssyt"),
    ("schur.hook_schur", "superrsk.schur", "hook_schur"),
    ("verify.align_traces", "superrsk.verify", "align_traces"),
    ("cli.main", "superrsk.cli", "main"),
)

# Polynomial construction and arithmetic share one span name.
POLYNOMIAL_METHODS = ("__init__", "__add__", "__mul__", "__eq__")

OP_SPAN = "bench.op"


class Tracer:
    """In-memory span recorder plus exact event counters."""

    def __init__(self) -> None:
        # span: [op_id, name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = 0
        self._patches: list[tuple[object, str, object]] = []
        # count-only counters: name -> one-element list, bumped without spans
        self._boxes: dict[str, list[int]] = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._op_id, name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self):
        """Root span of one benchmark op; its children share the op's id."""
        self._op_id += 1
        index = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, observe=None):
        """A wrapper that records a span and a call count around ``fn``.

        ``observe(counts, args, result)`` may add work counters derived from
        the call's arguments and result.
        """
        counts = self.counts
        calls = name + ".calls"

        def traced(*args, **kwargs):
            counts[calls] += 1
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, name: str, fn):
        """A wrapper that only counts calls; for functions too hot for spans."""
        box = self._boxes.setdefault(name + ".calls", [0])

        def counted(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def totals(self) -> Counter:
        """Span-side counters merged with the count-only ones."""
        merged = Counter(self.counts)
        for key, box in self._boxes.items():
            merged[key] += box[0]
        return merged

    @contextmanager
    def suspended(self):
        """Keep count-only counters unchanged by the benchmark's own checks."""
        saved = {key: box[0] for key, box in self._boxes.items()}
        try:
            yield
        finally:
            for key, box in self._boxes.items():
                box[0] = saved[key]

    # -- installing and removing wrappers ----------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict) -> None:
        """Wrap the traced functions in every loaded superrsk module."""
        package = [m for name, m in modules.items() if name.split(".")[0] == "superrsk"]
        for span_name, module_name, attr in FUNCTION_SPANS:
            original = getattr(modules[module_name], attr)
            wrapper = self.wrap(span_name, original, OBSERVERS.get(span_name))
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        verify = modules["superrsk.verify"]
        for key, value in list(vars(verify).items()):
            if key.startswith("check_") and callable(value):
                wrapper = self.wrap("verify.check", value)
                for module in package:
                    if vars(module).get(key) is value:
                        self._set(module, key, wrapper)
        polynomial = modules["superrsk.polynomial"].Polynomial
        for method in POLYNOMIAL_METHODS:
            self._set(polynomial, method, self.wrap("polynomial.arith", vars(polynomial)[method]))
        shuffle = modules["superrsk.alphabet"].Shuffle
        self._set(shuffle, "rank", self.count_calls("alphabet.rank", shuffle.rank))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus time covered by direct children."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for i, (_, name, start, end, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[i]
        return totals

    def write(self, path: Path) -> None:
        """One span per line: id, op id, name, start, end, parent id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\top\tname\tstart_s\tend_s\tparent\n")
            for i, (op_id, name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    f"{i}\t{op_id}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n"
                )


def _observe_insert(counts: Counter, args: tuple, result) -> None:
    counts["insertion.letters"] += len(args[0])
    counts["insertion.steps"] += result.trace.total


def _observe_enumerate(counts: Counter, args: tuple, result) -> None:
    counts["schur.enumerate_ssyt.fillings"] += len(result)


OBSERVERS = {
    "insertion.insert_word": _observe_insert,
    "schur.enumerate_ssyt": _observe_enumerate,
}
