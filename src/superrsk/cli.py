"""Command-line front end: insertion, reversal, bijections, enumeration,
polynomials, step traces, and the verification harness."""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .alphabet import Alphabet, Shuffle, kl_shuffle, parse_shuffle, shuffle_to_json
from .bijection import change_shuffle, reverse_word, standardize_t, standardize_u
from .insertion import (
    REGULAR_REGULAR,
    VARIANTS,
    Variant,
    _insert_traced,
    parse_variant,
    parse_word,
)
from .schur import enumerate_ssyt, hook_schur
from .polynomial import polynomial_to_json
from .tableau import (
    check_shape,
    recording_from_json,
    recording_to_json,
    render_recording,
    render_tableau,
    tableau_from_json,
    tableau_to_json,
)
from . import verify
from .verify import AlignmentError, Sample, align_traces

# verifiable claims exposed via --theorem: token -> (the options it honours
# besides --n, its checker's name in ``verify``, looked up when it runs).
# "mode" covers --mode/--samples/--seed, "variant" covers --variant; an option
# a token honours reaches its checker by keyword, one it does not is refused.
_CLAIMS = {
    "2": (("mode",), "check_shape_invariance"),
    "5": (("mode", "variant"), "check_shape_invariance"),
    "cor4": (("variant",), "check_hook_schur_invariance"),
    "lemma2.6": (("mode",), "check_restriction_subtableau_grid"),
    "lemma2.15": (("mode",), "check_trace_alignment_grid"),
    "lemma3.2": (("mode",), "check_dual_regular_agreement_grid"),
    "theorem3": ((), "check_weight_preserving_bijection_grid"),
    "identity": ((), "check_counting_identity"),
    "paths": (("mode", "variant"), "check_path_monotonicity_grid"),
    "cells": (("mode", "variant"), "check_cell_monotonicity_grid"),
    "region1": (("mode",), "check_region1_agreement_grid"),
    "round-trip": (("mode", "variant"), "check_round_trip_grid"),
    "mimicry": (("mode",), "check_standardization_mimicry_grid"),
    "converse": ((), "check_converse_round_trip_grid"),
}


@cache  # built on first use, not at import; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superrsk",
        description="Shuffle-parameterized super-RSK insertion toolkit",
    )
    parser.add_argument("--k", type=int, default=None, help="number of t-letters")
    parser.add_argument("--l", type=int, default=None, help="number of u-letters")
    parser.add_argument("--shuffle", default=None, help='order chain, e.g. "t1<u1<t2"')
    parser.add_argument(
        "--variant",
        default="reg-reg",
        choices=[v.name for v in VARIANTS],
    )
    parser.add_argument("--format", default="text", choices=["text", "json"])

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, help=help)
        subparser.set_defaults(run=run)
        return subparser

    p_insert = command("insert", _cmd_insert, "insert a word; print P, Q, path lengths")
    p_insert.add_argument("--word", required=True)

    p_reverse = command("reverse", _cmd_reverse, "recover the word from P,Q JSON")
    p_reverse.add_argument("--in", dest="infile", default=None, help="JSON file (default stdin)")

    p_phi = command("phi", _cmd_phi, "transport P across a shuffle change, Q fixed")
    p_phi.add_argument("--in", dest="infile", default=None, help="JSON file (default stdin)")
    p_phi.add_argument("--shuffle-b", required=True, help="target order chain")

    p_std = command("standardize", _cmd_standardize, "relabel repeated letters distinctly")
    p_std.add_argument("--word", required=True)
    p_std.add_argument("--side", default="u", choices=["u", "t"])

    p_enum = command("enumerate", _cmd_enumerate, "list all valid fillings of a shape")
    p_enum.add_argument("--shape", required=True, help='row lengths, e.g. "3,1"')

    p_hs = command("hook-schur", _cmd_hook_schur, "weight generating polynomial of a shape")
    p_hs.add_argument("--shape", required=True)

    p_verify = command("verify", _cmd_verify, "run a claim checker; nonzero exit on failure")
    p_verify.add_argument("--theorem", required=True, choices=list(_CLAIMS))
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--mode", default="exhaustive", choices=["exhaustive", "sample"])
    p_verify.add_argument("--samples", type=int, default=None, help="with --mode sample: 100")
    p_verify.add_argument("--seed", type=int, default=None, help="with --mode sample: 0")
    p_verify.add_argument("--out", default=None)

    p_trace = command("trace", _cmd_trace, "align the step traces of two adjacent orders")
    p_trace.add_argument("--word", required=True)
    p_trace.add_argument("--shuffle-b", required=True)

    return parser


def _refuse(given: bool, option: str, why: str) -> None:
    """Refuse an option that was given where the command would drop it."""
    if given:
        raise ValueError(f"{why}; drop {option}")


def _alphabet(args) -> Alphabet:
    if args.k is None or args.l is None:
        raise ValueError("--k and --l are required for this command")
    return Alphabet(args.k, args.l)


def _options(args) -> tuple[Alphabet, Shuffle, Variant]:
    """--k and --l, --shuffle (by default every t below every u) and --variant,
    read in that order, so the first bad one is the one reported."""
    alphabet = _alphabet(args)
    chain = args.shuffle
    shuffle = kl_shuffle(alphabet) if chain is None else parse_shuffle(chain, alphabet)
    return alphabet, shuffle, parse_variant(args.variant)


def _parse_shape(text: str) -> tuple[int, ...]:
    """A comma-separated list of row lengths; the empty string is the empty shape."""
    if text == "":
        return ()
    parts = text.split(",")
    if any(not part.strip() for part in parts):
        raise ValueError(f"--shape {text!r} has an empty part")
    return check_shape(int(part) for part in parts)


def _load_json(handle):
    try:
        return json.load(handle)
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ValueError("input JSON is nested too deeply") from None


def _read_pq(args):
    if args.infile is None:
        data = _load_json(sys.stdin)
    else:
        try:
            with open(args.infile, encoding="utf-8") as handle:
                data = _load_json(handle)
        except OSError as exc:
            raise ValueError(f"cannot read {args.infile}: {exc.strerror}") from None
    try:
        return tableau_from_json(data["p"]), recording_from_json(data["q"])
    except (KeyError, TypeError):
        raise ValueError(
            'input must be a JSON object {"p": {"rows": [...]}, "q": {"rows": [...]}}'
        ) from None


def _render(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# Each command returns (exit code, JSON payload, text), the payload and the
# text as zero-argument callables, so that only the one --format chooses is
# built; ``main`` alone writes it.
def _cmd_insert(args):
    alphabet, shuffle, variant = _options(args)
    word = parse_word(args.word, alphabet)
    result = _insert_traced(word, shuffle, variant)

    def payload():
        return {
            "p": tableau_to_json(result.p),
            "q": recording_to_json(result.q),
            "path_lengths": list(result.trace.path_lengths),
        }

    def text():
        lengths = " ".join(str(x) for x in result.trace.path_lengths)
        parts = ["P:", render_tableau(result.p), "Q:", render_recording(result.q),
                 f"path lengths: {lengths}"]
        return "\n".join(part for part in parts if part != "")

    return 0, payload, text


def _cmd_reverse(args):
    _, shuffle, variant = _options(args)
    p, q = _read_pq(args)
    word = reverse_word(p, q, shuffle, variant)
    return 0, lambda: {"word": [letter.name for letter in word]}, lambda: str(word)


def _cmd_phi(args):
    alphabet, source, variant = _options(args)
    target = parse_shuffle(args.shuffle_b, alphabet)
    p, q = _read_pq(args)
    image = change_shuffle(p, q, source, target, variant)
    return 0, lambda: {"p": tableau_to_json(image)}, lambda: render_tableau(image)


def _cmd_standardize(args):
    _refuse(args.variant != REGULAR_REGULAR.name, "--variant", "standardize takes no --variant")
    alphabet, shuffle, _ = _options(args)
    word = parse_word(args.word, alphabet)
    std = standardize_u(word, shuffle) if args.side == "u" else standardize_t(word, shuffle)

    def payload():
        return {
            "word": [letter.name for letter in std.word],
            "shuffle": shuffle_to_json(std.shuffle),
            "letter_map": {str(i): x.name for i, x in enumerate(std.word, 1)},
        }

    def text():
        mapping = " ".join(f"{i}:{x.name}" for i, x in enumerate(std.word, 1))
        return f"w: {std.word}\nshuffle: {std.shuffle}\nmap: {mapping}"

    return 0, payload, text


def _cmd_enumerate(args):
    alphabet, shuffle, variant = _options(args)
    shape = _parse_shape(args.shape)
    tableaux = enumerate_ssyt(shape, alphabet, shuffle, variant)
    return (
        0,
        lambda: {"count": len(tableaux), "tableaux": [tableau_to_json(t) for t in tableaux]},
        lambda: "\n\n".join([f"count: {len(tableaux)}", *map(render_tableau, tableaux)]),
    )


def _cmd_hook_schur(args):
    alphabet, shuffle, variant = _options(args)
    shape = _parse_shape(args.shape)
    poly = hook_schur(shape, alphabet, shuffle, variant)
    return 0, lambda: polynomial_to_json(poly), poly.render


def _cmd_verify(args):
    alphabet = _alphabet(args)
    honours, checker = _CLAIMS[args.theorem]
    claim = f"--theorem {args.theorem}"
    sampled, varied = args.mode != "exhaustive", args.variant != REGULAR_REGULAR.name
    _refuse(sampled and "mode" not in honours, "--mode sample", f"{claim} has no sampled grid")
    for option, value in (("--samples", args.samples), ("--seed", args.seed)):
        _refuse(value is not None and not sampled, option, f"only --mode sample reads {option}")
    _refuse(varied and "variant" not in honours, "--variant", f"{claim} checks reg-reg only")
    _refuse(args.shuffle is not None, "--shuffle", f"{claim} runs every shuffle")
    samples = 100 if args.samples is None else args.samples  # 0 is refused by Sample
    mode = Sample(samples, args.seed or 0) if sampled else "exhaustive"
    options = {"mode": mode, "variant": parse_variant(args.variant)}
    report = getattr(verify, checker)(alphabet, args.n, **{o: options[o] for o in honours})

    payload = report.to_json_dict()
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(_render(payload) + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None

    def text():
        status = "ok" if report.passed else "FAILED" if report.failures else "no cases"
        return (f"check: {report.check_name}\ncases: {report.cases_run}\n"
                f"failures: {len(report.failures)}\nstatus: {status}")

    return (0 if report.passed else 1), lambda: payload, text


def _cmd_trace(args):
    _refuse(args.variant != REGULAR_REGULAR.name, "--variant", "trace aligns reg-reg only")
    alphabet, shuffle_a, _ = _options(args)
    shuffle_b = parse_shuffle(args.shuffle_b, alphabet)
    word = parse_word(args.word, alphabet)
    trace_a = _insert_traced(word, shuffle_a, REGULAR_REGULAR).trace
    trace_b = _insert_traced(word, shuffle_b, REGULAR_REGULAR).trace
    alignment = align_traces(trace_a, shuffle_a, trace_b, shuffle_b)

    def payload():
        return {
            "s_a": trace_a.total,
            "s_b": trace_b.total,
            "alignment": [list(pq) for pq in alignment.pairs],
            "equivalent": [True] * len(alignment.pairs),
            "witnesses": alignment.witness_count,
        }

    def text():  # state_after replays step snapshots, which JSON output never reads
        lines = [f"s_a: {trace_a.total}", f"s_b: {trace_b.total}"]
        lines.append("alignment: " + " -> ".join(f"({p},{q})" for p, q in alignment.pairs))
        for p, q in alignment.pairs:
            lines.append(f"step {p} ~ step {q}: equivalent")
            lines.append("a:")
            lines.append(render_tableau(trace_a.state_after(p)))
            lines.append("b:")
            lines.append(render_tableau(trace_b.state_after(q)))
        lines.append(f"witnesses: {alignment.witness_count}")
        return "\n".join(lines)

    return 0, payload, text


def main(argv: list[str] | None = None) -> int:
    """Run one command; its output, JSON or text, is written here and only here."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, text = args.run(args)
        out = _render(payload()) if args.format == "json" else text()
    except (ValueError, AlignmentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'superrsk {args.command} --help' for usage", file=sys.stderr)
        return 2
    sys.stdout.write(out + "\n" if out and not out.endswith("\n") else out)
    return code


if __name__ == "__main__":
    sys.exit(main())
