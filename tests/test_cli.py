import importlib.util
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import claim_cases
import superrsk
from superrsk import VARIANTS
from superrsk.cli import _CLAIMS, main

README = Path(__file__).resolve().parent.parent / "README.md"


def load_script(name: str):
    """A module of ``scripts/``, loaded by path; its ``main`` is not run."""
    path = README.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestInsert:
    def test_four_letter_word_text(self, capsys):
        code, out = run(
            capsys,
            "--k", "2", "--l", "2", "--shuffle", "t1<t2<u1<u2",
            "insert", "--word", "u2,t1,t2,u1",
        )
        assert code == 0
        assert out == "P:\nt1 t2 u2\nu1\nQ:\n1 2 3\n4\npath lengths: 1 2 2 1\n"

    def test_dual_variant_text(self, capsys):
        code, out = run(
            capsys,
            "--k", "2", "--l", "1", "--shuffle", "u1<t1<t2", "--variant", "reg-dual",
            "insert", "--word", "u1,t1,t2,u1",
        )
        assert code == 0
        assert out.startswith("P:\nu1 u1 t2\nt1\n")

    def test_empty_word(self, capsys):
        code, out = run(capsys, "--k", "1", "--l", "1", "insert", "--word", "")
        assert code == 0
        assert out == "P:\nQ:\npath lengths: \n"

    def test_json_round_trips(self, capsys):
        code, out = run(
            capsys,
            "--k", "2", "--l", "2", "--format", "json",
            "insert", "--word", "u2,t1,t2,u1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == {"rows": [["t1", "t2", "u2"], ["u1"]]}
        assert payload["q"] == {"rows": [[1, 2, 3], [4]]}
        assert payload["path_lengths"] == [1, 2, 2, 1]

    def test_default_shuffle_is_t_then_u(self, capsys):
        code, out = run(capsys, "--k", "1", "--l", "1", "insert", "--word", "t1,u1")
        assert code == 0
        assert out == "P:\nt1\nu1\nQ:\n1\n2\npath lengths: 1 1\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_one_insertion_per_letter(self, capsys, monkeypatch, fmt):
        # P, Q and the path lengths all come from one logged insertion
        import superrsk.insertion as insertion

        calls = []
        original = insertion._insert_rank

        def counted(*args):
            calls.append(args[-1] is not None)
            return original(*args)

        monkeypatch.setattr(insertion, "_insert_rank", counted)
        code, out = run(capsys, "--k", "2", "--l", "2", "--format", fmt,
                        "insert", "--word", "t1,u1,t2,u2,t1")
        lengths = json.loads(out)["path_lengths"] if fmt == "json" else out.splitlines()[-1]
        assert code == 0 and lengths in ([1, 1, 1, 1, 3], "path lengths: 1 1 1 1 3")
        assert calls == [True] * 5  # each letter once, with a log

    def test_byte_identical_output(self, capsys):
        argv = ["--k", "2", "--l", "2", "insert", "--word", "u2,t1,t2,u1"]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second


class TestReverse:
    PAYLOAD = {"p": {"rows": [["t1", "t2", "u2"], ["u1"]]}, "q": {"rows": [[1, 2, 3], [4]]}}

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "pq.json"
        path.write_text(json.dumps(self.PAYLOAD), encoding="utf-8")
        code, out = run(
            capsys,
            "--k", "2", "--l", "2", "--shuffle", "t1<t2<u1<u2",
            "reverse", "--in", str(path),
        )
        assert code == 0
        assert out == "u2,t1,t2,u1\n"

    def test_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(self.PAYLOAD)))
        code, out = run(
            capsys,
            "--k", "2", "--l", "2", "--shuffle", "t1<t2<u1<u2", "--format", "json",
            "reverse",
        )
        assert code == 0
        assert json.loads(out) == {"word": ["u2", "t1", "t2", "u1"]}


class TestPhi:
    def test_transport_to_other_order(self, capsys, tmp_path):
        path = tmp_path / "pq.json"
        path.write_text(json.dumps(TestReverse.PAYLOAD), encoding="utf-8")
        code, out = run(
            capsys,
            "--k", "2", "--l", "2", "--shuffle", "t1<t2<u1<u2",
            "phi", "--in", str(path), "--shuffle-b", "u1<u2<t1<t2",
        )
        assert code == 0
        assert out == "u1 u2 t2\nt1\n"


class TestStandardize:
    def test_u_side_text(self, capsys):
        code, out = run(
            capsys,
            "--k", "2", "--l", "2", "--shuffle", "t1<t2<u1<u2",
            "standardize", "--word", "t2,u2,u1,u1,t1",
        )
        assert code == 0
        assert out == (
            "w: t2,u3,u2,u1,t1\n"
            "shuffle: t1<t2<u1<u2<u3\n"
            "map: 1:t2 2:u3 3:u2 4:u1 5:t1\n"
        )

    def test_t_side_json(self, capsys):
        code, out = run(
            capsys,
            "--k", "1", "--l", "1", "--shuffle", "t1<u1", "--format", "json",
            "standardize", "--word", "t1,t1,u1", "--side", "t",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["word"] == ["t1", "t2", "u1"]
        assert payload["shuffle"] == ["t1", "t2", "u1"]
        assert payload["letter_map"] == {"1": "t1", "2": "t2", "3": "u1"}


class TestEnumerateAndHookSchur:
    def test_enumerate_text(self, capsys):
        code, out = run(
            capsys, "--k", "1", "--l", "1", "enumerate", "--shape", "2"
        )
        assert code == 0
        assert out == "count: 2\n\nt1 t1\n\nt1 u1\n"

    def test_hook_schur_text(self, capsys):
        code, out = run(capsys, "--k", "1", "--l", "1", "hook-schur", "--shape", "1")
        assert code == 0
        assert out == "x1 + y1\n"

    def test_hook_schur_json(self, capsys):
        code, out = run(
            capsys, "--k", "1", "--l", "1", "--format", "json",
            "hook-schur", "--shape", "2",
        )
        assert code == 0
        assert json.loads(out) == [
            {"x": [2], "y": [0], "coeff": 1},
            {"x": [1], "y": [1], "coeff": 1},
        ]


    @pytest.mark.parametrize(
        "variant,expected",
        [
            ("reg-reg", "x1^2 + x1 y1\n"),
            ("reg-dual", "x1^2 + x1 y1 + y1^2\n"),
            ("dual-reg", "x1 y1\n"),
            ("dual-dual", "x1 y1 + y1^2\n"),
        ],
        ids=["reg-reg", "reg-dual", "dual-reg", "dual-dual"],
    )
    def test_hook_schur_honours_the_variant(self, capsys, variant, expected):
        # one row of two: t1 t1 and t1 u1 under reg-reg; a dual t is strict
        # in rows and a dual u weak, so dual-dual fills it with t1 u1 and u1 u1
        argv = ["--k", "1", "--l", "1", "--variant", variant]
        assert run(capsys, *argv, "hook-schur", "--shape", "2") == (0, expected)
        code, out = run(capsys, *argv, "enumerate", "--shape", "2")
        assert int(out.split()[1]) == expected.count("+") + 1

    @pytest.mark.parametrize("command,expected", [("enumerate", "count: 1\n\n"), ("hook-schur", "1\n")])
    def test_an_empty_shape_text_is_the_empty_shape(self, capsys, command, expected):
        assert run(capsys, "--k", "1", "--l", "1", command, "--shape", "") == (0, expected)

    def test_blanks_around_parts_are_allowed(self, capsys):
        spaced = run(capsys, "--k", "1", "--l", "1", "enumerate", "--shape", " 2 , 1 ")
        assert spaced == run(capsys, "--k", "1", "--l", "1", "enumerate", "--shape", "2,1")


class TestVerify:
    def test_claim_2_exhaustive(self, capsys):
        code, out = run(
            capsys,
            "--k", "2", "--l", "2", "--format", "json",
            "verify", "--theorem", "2", "--n", "4", "--mode", "exhaustive",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["check"] == "shape-invariance"
        assert payload["failures"] == []
        assert payload["cases"] == 256 * 15

    def test_text_summary(self, capsys):
        code, out = run(
            capsys, "--k", "1", "--l", "1",
            "verify", "--theorem", "identity", "--n", "3",
        )
        assert code == 0
        assert "status: ok" in out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _ = run(
            capsys,
            "--k", "1", "--l", "1",
            "verify", "--theorem", "lemma3.2", "--n", "2", "--out", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["check"] == "dual-regular-agreement"
        assert payload["failures"] == []

    def test_out_file_holds_the_printed_json(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run(
            capsys,
            "--k", "2", "--l", "1", "--format", "json",
            "verify", "--theorem", "round-trip", "--n", "3", "--out", str(path),
        )
        assert code == 0
        assert path.read_bytes() == out.encode("utf-8")

    def test_sampled_mode(self, capsys):
        code, out = run(
            capsys,
            "--k", "2", "--l", "2", "--format", "json",
            "verify", "--theorem", "lemma2.15", "--n", "6",
            "--mode", "sample", "--samples", "10", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["mode"] == "sample"
        assert payload["params"]["seed"] == 3
        assert payload["failures"] == []

    def test_sampled_mode_defaults(self, capsys):
        code, out = run(
            capsys,
            "--k", "1", "--l", "1", "--format", "json",
            "verify", "--theorem", "2", "--n", "2", "--mode", "sample",
        )
        assert code == 0
        params = json.loads(out)["params"]
        assert (params["samples"], params["seed"]) == (100, 0)

    def test_failures_exit_nonzero(self, capsys, monkeypatch):
        import superrsk.verify as verify
        from superrsk.verify import CaseFailure, Report

        def fake_checker(alphabet, n, variant=None, mode="exhaustive"):
            failure = CaseFailure("w", "s", "v", "x", "y")
            return Report("shape-invariance", {}, 1, (failure,), 0.0)

        monkeypatch.setattr(verify, "check_shape_invariance", fake_checker)
        code, out = run(
            capsys, "--k", "1", "--l", "1", "verify", "--theorem", "2", "--n", "1"
        )
        assert code == 1
        assert "FAILED" in out

    @pytest.mark.parametrize("mode", [[], ["--mode", "sample", "--samples", "5"]],
                             ids=["exhaustive", "sampled"])
    def test_negative_n_message(self, capsys, mode):
        code = main(["--k", "2", "--l", "2", "verify", "--theorem", "2", "--n", "-3", *mode])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines()[0] == "error: n must be non-negative"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--k", "2", "--l", "0", "verify", "--theorem", "2", "--n", "3"],
            ["--k", "1", "--l", "0", "verify", "--theorem", "lemma2.15", "--n", "3"],
            ["--k", "0", "--l", "2", "verify", "--theorem", "theorem3", "--n", "2"],
            ["--k", "2", "--l", "2", "verify", "--theorem", "lemma3.2", "--n", "5",
             "--mode", "sample", "--samples", "1"],
        ],
        ids=["one-shuffle-pairs", "no-adjacent-pairs", "no-shuffle-changes", "all-filtered"],
    )
    def test_no_cases_exit_1(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 1
        assert "cases: 0\n" in out
        assert out.endswith("status: no cases\n")

    @pytest.mark.parametrize(
        "token,variant,check",
        [
            ("paths", "reg-reg", "path-monotonicity"),
            ("cells", "reg-reg", "cell-monotonicity"),
            ("region1", "reg-reg", "region1-agreement"),
            ("round-trip", "dual-dual", "round-trip"),
            ("cor4", "dual-reg", "hook-schur-invariance"),
            ("mimicry", "reg-reg", "standardization-mimicry"),
            ("converse", "reg-reg", "converse-round-trip"),
        ],
    )
    def test_table_reaches_every_grid(self, capsys, token, variant, check):
        code, out = run(
            capsys,
            "--k", "2", "--l", "2", "--variant", variant, "--format", "json",
            "verify", "--theorem", token, "--n", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["check"] == check
        assert payload["cases"] == claim_cases(token, 2, 2, 3)
        assert payload["failures"] == []
        assert payload["params"].get("variant", variant) == variant

    def test_options_are_refused_exactly_where_not_honoured(self):
        assert [t for t, (honours, _) in _CLAIMS.items() if "mode" not in honours] == list(
            EXHAUSTIVE_ONLY
        )
        assert [t for t, (honours, _) in _CLAIMS.items() if "variant" not in honours] == list(
            REG_REG_ONLY
        )

    @pytest.mark.parametrize("token", list(_CLAIMS))
    def test_explicit_defaults_accepted_by_every_token(self, capsys, token):
        # the benchmark spells out --variant reg-reg and --mode exhaustive
        code, _ = run(
            capsys,
            "--k", "2", "--l", "2", "--variant", "reg-reg", "--format", "json",
            "verify", "--theorem", token, "--n", "2", "--mode", "exhaustive",
        )
        assert code == 0

    def test_refusal_names_the_option(self, capsys):
        code = main(["--k", "2", "--l", "2", "--format", "json", "verify", "--theorem",
                     "theorem3", "--n", "2", "--mode", "sample", "--samples", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines()[0] == (
            "error: --theorem theorem3 has no sampled grid; drop --mode sample"
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--shuffle", "garbage", "verify", "--theorem", "2", "--n", "1"],
             "--theorem 2 runs every shuffle; drop --shuffle"),
            (["--variant", "dual-dual", "standardize", "--word", "t1,u1,u1"],
             "standardize takes no --variant; drop --variant"),
            (["verify", "--theorem", "2", "--n", "1", "--seed", "3"],
             "only --mode sample reads --seed; drop --seed"),
            (["verify", "--theorem", "lemma2.15", "--n", "1", "--mode", "exhaustive",
              "--samples", "5"],
             "only --mode sample reads --samples; drop --samples"),
            (["verify", "--theorem", "theorem3", "--n", "1", "--samples", "5", "--seed", "0"],
             "only --mode sample reads --samples; drop --samples"),
        ],
        ids=["verify-shuffle", "standardize-variant", "verify-seed", "verify-samples",
             "exhaustive-only-samples"],
    )
    def test_dropped_options_are_refused_by_name(self, capsys, argv, message):
        code = main(["--k", "2", "--l", "2", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines()[0] == f"error: {message}"

    @pytest.mark.parametrize(
        "token,variant",
        [
            (token, variant)
            for token, (honours, _) in _CLAIMS.items()
            for variant in ([v.name for v in VARIANTS] if "variant" in honours else ["reg-reg"])
        ],
    )
    def test_grids_build_no_step_snapshots(self, capsys, monkeypatch, token, variant):
        # snapshots are for trace output and step readers; a grid that reads
        # trace.steps or state_after would call _replay and fail here
        def refuse(*args):
            raise AssertionError("a Step snapshot was built")

        monkeypatch.setattr("superrsk.insertion._replay", refuse)
        code, _ = run(
            capsys,
            "--k", "2", "--l", "2", "--variant", variant, "--format", "json",
            "verify", "--theorem", token, "--n", "2",
        )
        assert code == 0

    def test_readme_marks_honoured_options(self, capsys):
        text = README.read_text(encoding="utf-8")
        section = text.split("### Claim registry", 1)[1].split("\n\n", 2)[1]
        header, _, *rows = section.splitlines()
        assert header.startswith("| token | checker |")
        assert header.endswith("| `--variant` | `--mode sample` |")
        for row in rows:
            cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
            token = cells[0].strip("`")
            honours, _ = _CLAIMS[token]
            _, out = run(capsys, "--k", "1", "--l", "1", "--format", "json",
                         "verify", "--theorem", token, "--n", "0")
            assert cells[1] == json.loads(out)["check"]
            assert cells[3] == ("yes" if "variant" in honours else "")
            assert cells[4] == ("yes" if "mode" in honours else "")

    @pytest.mark.parametrize("token", list(_CLAIMS))
    def test_report_params_follow_the_readme_rule(self, capsys, token):
        # k, l and n always; mode (and samples, seed when sampled) where the
        # token honours --mode sample; variant where its checker takes one
        import superrsk.verify as verify

        honours, checker = _CLAIMS[token]
        takes_variant = "variant" in inspect.signature(getattr(verify, checker)).parameters
        assert takes_variant == ("variant" in honours or token == "2")
        runs = [([], {"mode"})]
        if "mode" in honours:
            runs.append((["--mode", "sample", "--samples", "2", "--seed", "0"],
                         {"mode", "samples", "seed"}))
        for extra, mode_keys in runs:
            _, out = run(capsys, "--k", "1", "--l", "1", "--format", "json",
                         "verify", "--theorem", token, "--n", "1", *extra)
            expected = {"k", "l", "n"}
            if "mode" in honours:
                expected |= mode_keys
            if takes_variant:
                expected.add("variant")
            assert set(json.loads(out)["params"]) == expected

    def test_readme_table_lists_every_token(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("### Claim registry", 1)[1].split("\n\n", 2)[1]
        tokens = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
        assert tokens == list(_CLAIMS)

    def test_output_matrix_lists_every_token(self):
        # loaded by path and never run: its TOKENS must cover every claim
        module = load_script("verify_outputs")
        assert len(set(module.TOKENS)) == len(module.TOKENS)
        assert set(module.TOKENS) == set(_CLAIMS)

    def test_the_cli_mirrors_no_checker(self):
        # a claim's checker is looked up on verify by name, never copied into
        # cli; cli's one check_ name is tableau's shape check
        import superrsk.cli as cli
        import superrsk.verify as verify

        assert [name for name in vars(cli) if name.startswith("check_")] == ["check_shape"]
        assert not hasattr(verify, "check_shape")
        assert {checker for _, checker in _CLAIMS.values()} <= set(verify.__all__)


class TestTrace:
    def test_two_letter_word(self, capsys):
        code, out = run(
            capsys,
            "--k", "1", "--l", "1", "--shuffle", "t1<u1", "--format", "json",
            "trace", "--word", "t1,u1", "--shuffle-b", "u1<t1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["s_a"] == 2 and payload["s_b"] == 3
        assert payload["alignment"] == [[1, 1], [2, 3]]
        assert payload["witnesses"] == 1

    def test_text_rendering(self, capsys):
        code, out = run(
            capsys,
            "--k", "1", "--l", "1", "--shuffle", "t1<u1",
            "trace", "--word", "t1,u1", "--shuffle-b", "u1<t1",
        )
        assert code == 0
        assert "step 1 ~ step 1: equivalent" in out
        assert "step 2 ~ step 3: equivalent" in out


class TestOutputPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ["insert", "--word", "u2,t1,t2,u1,t1"],
            ["--shuffle", "t1<t2<u1<u2", "trace", "--word", "u2,t1,t2,u1,t1",
             "--shuffle-b", "t1<u1<t2<u2"],
        ],
        ids=["insert", "trace"],
    )
    def test_json_builds_no_step_snapshots(self, capsys, monkeypatch, argv):
        # the text is rendered only for --format text; trace text reads
        # state_after, which would call _replay and fail here
        def refuse(*args):
            raise AssertionError("a Step snapshot was built")

        monkeypatch.setattr("superrsk.insertion._replay", refuse)
        code, out = run(capsys, "--k", "2", "--l", "2", "--format", "json", *argv)
        assert code == 0 and json.loads(out)
        if argv[-2] == "--shuffle-b":  # the patch is where trace text would reach
            with pytest.raises(AssertionError, match="a Step snapshot was built"):
                main(["--k", "2", "--l", "2", *argv])


class TestErrors:
    def test_unknown_letter_exits_2(self, capsys):
        code = main(["--k", "1", "--l", "1", "insert", "--word", "t9"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["--k", "1", "--l", "1", "insert"])
        assert exc.value.code == 2

    def test_missing_alphabet_exits_2(self, capsys):
        code = main(["insert", "--word", "t1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--k and --l" in captured.err

    def test_bad_shuffle_chain_exits_2(self, capsys):
        code = main(["--k", "2", "--l", "0", "--shuffle", "t2<t1", "insert", "--word", "t1"])
        assert code == 2


class TestModuleEntryPoint:
    """``python -m superrsk`` runs the CLI in a fresh interpreter."""

    @staticmethod
    def run_module(*argv):
        package_root = str(Path(superrsk.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": package_root + (os.pathsep + path if path else "")}
        return subprocess.run(
            [sys.executable, "-m", "superrsk", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_help_exits_0(self):
        done = self.run_module("--help")
        assert done.returncode == 0
        assert done.stdout.startswith("usage: superrsk")
        assert done.stderr == ""

    def test_bad_k_exits_2_with_one_error_line(self):
        done = self.run_module("--k", "-1", "--l", "1", "insert", "--word", "t1")
        assert done.returncode == 2
        assert done.stdout == ""
        errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
        assert errors == ["error: alphabet sizes must be non-negative"]
        assert "Traceback" not in done.stderr


# verify tokens that would otherwise drop --mode sample / a non-default --variant
EXHAUSTIVE_ONLY = ("cor4", "theorem3", "identity", "converse")
REG_REG_ONLY = (
    "2", "lemma2.6", "lemma2.15", "lemma3.2", "theorem3", "identity", "region1", "mimicry",
    "converse",
)

# commands that honour no --variant but reg-reg and refuse any other
UNVARIED_COMMANDS = (
    ["trace", "--word", "t1,u1", "--shuffle-b", "u1<t1"],
    ["standardize", "--word", "t1,u1,u1"],
)
OTHER_VARIANTS = ("reg-dual", "dual-reg", "dual-dual")

# --shape values with an empty or blank part, which once ran as the shape without it
SHAPES_WITH_EMPTY_PARTS = ("2,,1", "3,", ",2", " ", "2, ,1", ",")


class TestBadInputExitCodes:
    @staticmethod
    def _fail_alignment(*args):
        from superrsk.verify import AlignmentError

        raise AlignmentError("no alignment reaches (2, 3)")

    @pytest.mark.parametrize(
        "argv,payload,misalign",
        [
            (["reverse", "--in", "{missing}"], None, False),
            (["phi", "--in", "{missing}", "--shuffle-b", "u1<t1"], None, False),
            (["reverse", "--in", "{file}"], {"p": {"rows": [["t1"]]}}, False),
            (["phi", "--in", "{file}", "--shuffle-b", "u1<t1"], {"q": {"rows": [[1]]}}, False),
            (["reverse", "--in", "{file}"], [1, 2], False),
            (["reverse", "--in", "{file}"], {"p": {}, "q": {"rows": [[1]]}}, False),
            (["reverse", "--in", "{file}"], {"p": {"rows": [[1]]}, "q": {"rows": [[1]]}}, False),
            (["phi", "--in", "{file}", "--shuffle-b", "u1<t1"],
             {"p": {"rows": [[None]]}, "q": {"rows": [[1]]}}, False),
            *[(["reverse", "--in", "{file}"], {"p": {"rows": [["t1", "u1"]]}, "q": {"rows": [q]}},
               False) for q in ([1.9, 2.2], [True, "2"], [1, 2.0], [1, None], [1, False])],
            (["reverse", "--in", "{file}"], "[" * 100_000, False),
            (["phi", "--shuffle-b", "u1<t1"], "[" * 100_000, False),
            (["trace", "--word", "t1,u1", "--shuffle-b", "u1<t1"], None, True),
            (["verify", "--theorem", "2", "--n", "2", "--mode", "sample", "--samples", "-3"],
             None, False),
            (["verify", "--theorem", "2", "--n", "2", "--mode", "sample", "--samples", "0"],
             None, False),
            (["verify", "--theorem", "2", "--n", "-3", "--mode", "sample", "--samples", "5"],
             None, False),
            (["verify", "--theorem", "2", "--n", "-3"], None, False),
            (["verify", "--theorem", "2", "--n", "2", "--out", "{missing}/r.json"], None, False),
            *[(["verify", "--theorem", token, "--n", "2", "--mode", "sample", "--samples", "1"],
               None, False) for token in EXHAUSTIVE_ONLY],
            *[(["--variant", "dual-reg", "verify", "--theorem", token, "--n", "2"], None, False)
              for token in REG_REG_ONLY],
            *[([command, "--shape", shape], None, False)
              for command in ("enumerate", "hook-schur") for shape in SHAPES_WITH_EMPTY_PARTS],
            *[(["--variant", variant, *command], None, False)
              for command in UNVARIED_COMMANDS for variant in OTHER_VARIANTS],
            *[(["--shuffle", "garbage", "verify", "--theorem", token, "--n", "1"], None, False)
              for token in _CLAIMS],
        ],
        ids=[
            "reverse-missing-file",
            "phi-missing-file",
            "reverse-json-without-q",
            "phi-json-without-p",
            "reverse-json-not-an-object",
            "reverse-tableau-without-rows",
            "reverse-letter-not-a-string",
            "phi-letter-null",
            *[f"reverse-q-entry-{name}" for name in ("floats", "bool-and-string", "float-2.0",
                                                      "null", "false")],
            "reverse-json-nested-too-deeply",
            "phi-stdin-json-nested-too-deeply",
            "trace-alignment-error",
            "verify-negative-samples",
            "verify-zero-samples",
            "verify-negative-n-sampled",
            "verify-negative-n-exhaustive",
            "verify-out-in-missing-dir",
            *[f"verify-{token}-sampled" for token in EXHAUSTIVE_ONLY],
            *[f"verify-{token}-variant" for token in REG_REG_ONLY],
            *[f"{command}-shape-{shape!r}" for command in ("enumerate", "hook-schur")
              for shape in SHAPES_WITH_EMPTY_PARTS],
            *[f"{command[0]}-{variant}" for command in UNVARIED_COMMANDS
              for variant in OTHER_VARIANTS],
            *[f"verify-{token}-shuffle" for token in _CLAIMS],
        ],
    )
    def test_exits_2_with_one_error_line(
        self, capsys, tmp_path, monkeypatch, argv, payload, misalign
    ):
        import superrsk.cli as cli

        path = tmp_path / "pq.json"
        if payload is not None:  # a str payload is written as given
            text = payload if isinstance(payload, str) else json.dumps(payload)
            path.write_text(text, encoding="utf-8")
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        if misalign:
            monkeypatch.setattr(cli, "align_traces", self._fail_alignment)
        argv = [arg.format(missing=tmp_path / "absent.json", file=path) for arg in argv]
        # verify runs every shuffle and refuses --shuffle, which would hide
        # the error a verify row is about
        shuffle = [] if "verify" in argv else ["--shuffle", "t1<u1"]
        code = main(["--k", "1", "--l", "1", *shuffle, *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        error_lines = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(error_lines) == 1
        assert "Traceback" not in captured.err


# per command: its arguments with every command input bad (a word outside
# the alphabet, a shape with an empty part, a missing --in file, a --shuffle-b
# outside the alphabet)
BAD_INPUTS = {
    "insert": ["insert", "--word", "t9"],
    "reverse": ["reverse", "--in", "{missing}"],
    "phi": ["phi", "--in", "{missing}", "--shuffle-b", "t1<t9"],
    "standardize": ["standardize", "--word", "t9"],
    "enumerate": ["enumerate", "--shape", "2,,1"],
    "hook-schur": ["hook-schur", "--shape", "2,,1"],
    "trace": ["trace", "--word", "t9", "--shuffle-b", "t1<t9"],
}
# --shuffle values refused at (k, l) = (1, 1), with their errors
BAD_SHUFFLES = {
    "garbage": "cannot parse letter 'garbage' (expected e.g. 't1' or 'u2')",
    "u1<t2": "letter t2 outside alphabet (k=1, l=1)",
    "t1<t1": "shuffle over (k=1, l=1) must contain each letter exactly once",
}


class TestRefusalOrder:
    """Which refusal a command reports when several of its options are bad:
    a non-default --variant where one is refused, then a missing --k or --l,
    then --shuffle, then the command's own input."""

    @staticmethod
    def error(capsys, tmp_path, argv):
        code = main([arg.format(missing=tmp_path / "absent.json") for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        return captured.err.splitlines()[0]

    @pytest.mark.parametrize("command", BAD_INPUTS)
    def test_each_command_input_is_refused_on_its_own(self, capsys, tmp_path, command):
        message = self.error(capsys, tmp_path, ["--k", "1", "--l", "1", *BAD_INPUTS[command]])
        assert message.startswith("error: ")
        assert message[len("error: "):] not in BAD_SHUFFLES.values()

    @pytest.mark.parametrize("given", [[], ["--l", "1"], ["--k", "1"]])
    @pytest.mark.parametrize("command", BAD_INPUTS)
    def test_a_missing_alphabet_is_reported_first(self, capsys, tmp_path, command, given):
        argv = [*given, "--shuffle", "garbage", *BAD_INPUTS[command]]
        message = self.error(capsys, tmp_path, argv)
        assert message == "error: --k and --l are required for this command"

    @pytest.mark.parametrize("shuffle", BAD_SHUFFLES)
    @pytest.mark.parametrize("command", BAD_INPUTS)
    def test_a_bad_shuffle_is_reported_before_the_input(self, capsys, tmp_path, command, shuffle):
        argv = ["--k", "1", "--l", "1", "--shuffle", shuffle, *BAD_INPUTS[command]]
        assert self.error(capsys, tmp_path, argv) == f"error: {BAD_SHUFFLES[shuffle]}"

    @pytest.mark.parametrize("variant", OTHER_VARIANTS)
    @pytest.mark.parametrize(
        "command,why",
        [("standardize", "standardize takes no --variant"), ("trace", "trace aligns reg-reg only")],
    )
    def test_a_refused_variant_is_reported_first(self, capsys, tmp_path, command, why, variant):
        argv = ["--variant", variant, "--shuffle", "garbage", *BAD_INPUTS[command]]
        assert self.error(capsys, tmp_path, argv) == f"error: {why}; drop --variant"


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_bench_pairs_refuses_fewer_than_two_pairs(capsys, monkeypatch, tmp_path, pairs):
    # refused before any benchmark process starts
    module = load_script("bench_pairs")

    def start(*args, **kwargs):
        raise AssertionError("a benchmark process was started")

    monkeypatch.setattr(module.subprocess, "run", start)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        module.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                     "--out", str(out), "--pairs", pairs])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("--pairs must be at least 2")
    assert not out.exists()
