"""Command line tests: exit codes, payload shapes, byte-stable golden output."""

import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleact import certify, cli, coaction
from circleact.certify import ConstraintViolation, certify_duality
from circleact.cli import MAX_N, main
from circleact.coaction import ConjugatePair, LinearObject
from circleact.linalg import NoConvergence
from circleact.solver import SOLVE_MAX_N, SolverConfig, sample_classical

GOLDEN = Path(__file__).parent / "golden"

IDENTITY2 = LinearObject(2, np.eye(2), np.zeros((2, 2)))
SHIFT2 = LinearObject(2, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


def run_cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


class TestGolden:
    def test_check_identity_matches_committed_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["check", "--input", str(GOLDEN / "identity_object.json"), "--reproducible"],
        )
        assert code == 0
        assert out == (GOLDEN / "check_identity.json").read_text(encoding="utf-8")

    def test_snake_matches_committed_bytes(self, capsys):
        code, out, _ = run_cli(capsys, ["snake", "--n", "2", "--reproducible"])
        assert code == 0
        assert out == (GOLDEN / "snake_n2.json").read_text(encoding="utf-8")

    def test_conjugate_matches_committed_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["conjugate", "--input", str(GOLDEN / "identity_object.json"), "--reproducible"],
        )
        assert code == 0
        assert out == (GOLDEN / "conjugate_identity.json").read_text(encoding="utf-8")

    def test_certify_of_conjugate_output_matches_committed_bytes(self, capsys, monkeypatch):
        _, conjugated, _ = run_cli(
            capsys,
            ["conjugate", "--input", str(GOLDEN / "identity_object.json"), "--reproducible"],
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(conjugated))
        code, out, _ = run_cli(capsys, ["certify", "--reproducible"])
        assert code == 0
        assert out == (GOLDEN / "certify_identity.json").read_text(encoding="utf-8")
        assert len(json.loads(out)["report"]["checks"]) == 51

    def test_fuse_matches_committed_bytes(self, capsys):
        identity = str(GOLDEN / "identity_object.json")
        code, out, _ = run_cli(capsys, ["fuse", identity, identity, "--reproducible"])
        assert code == 0
        assert out == (GOLDEN / "fuse_identity.json").read_text(encoding="utf-8")

    def test_reproducible_runs_are_byte_identical(self, capsys, tmp_path):
        argv = ["sample", "--n", "2", "--seed", "5", "--reproducible"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_timestamp_present_without_reproducible(self, capsys):
        code, out, _ = run_cli(capsys, ["snake", "--n", "1"])
        assert code == 0
        assert "timestamp" in json.loads(out)

    def test_timestamp_absent_with_reproducible(self, capsys):
        _, out, _ = run_cli(capsys, ["snake", "--n", "1", "--reproducible"])
        assert "timestamp" not in json.loads(out)


class TestExitCodes:
    def test_valid_object_exits_zero(self, capsys, tmp_path):
        path = write_json(tmp_path / "obj.json", IDENTITY2.to_json())
        code, out, _ = run_cli(capsys, ["check", "--input", path])
        assert code == 0
        assert json.loads(out)["report"]["overall_pass"] is True

    def test_failing_object_exits_one(self, capsys, tmp_path):
        path = write_json(tmp_path / "obj.json", SHIFT2.to_json())
        code, out, _ = run_cli(capsys, ["check", "--input", path])
        assert code == 1
        assert json.loads(out)["report"]["overall_pass"] is False

    def test_malformed_input_exits_two_and_names_path(self, capsys, tmp_path):
        payload = IDENTITY2.to_json()
        del payload["B"]
        path = write_json(tmp_path / "obj.json", payload)
        code, out, err = run_cli(capsys, ["check", "--input", path])
        assert code == 2
        assert out == ""
        assert "input.B" in err
        assert "Traceback" not in err

    def test_unreadable_input_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["check", "--input", str(tmp_path / "missing.json")]
        )
        assert code == 2
        assert "cannot read input" in err

    def test_invalid_json_exits_two_with_location(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"n\": 2,\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["check", "--input", str(path)])
        assert code == 2
        assert "invalid JSON" in err

    def test_bad_solver_config_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["solve", "--n", "1", "--restarts", "0"])
        assert code == 2
        assert "config" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["snake", "--n", "2", "--tol"], "--tol"),
            (["solve", "--n", "1", "--restarts", "1", "--character-tol"], "--character-tol"),
        ],
    )
    def test_bad_tolerance_exits_two_naming_flag(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, argv + [value])
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", ["snake", "sample", "solve"])
    def test_non_positive_n_exits_two_naming_flag(self, capsys, command, value):
        code, out, err = run_cli(capsys, [command, "--n", value])
        assert code == 2
        assert out == ""
        assert "--n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, stdin, field",
        [
            (["snake", "--n", str(MAX_N + 1)], "", "--n"),
            (["sample", "--n", str(MAX_N + 1)], "", "--n"),
            (["snake"], json.dumps({"n": MAX_N + 1}), "input.n"),
            (["snake"], json.dumps({"n": True}), "input.n"),
        ],
    )
    def test_n_outside_range_exits_two_naming_field(self, capsys, monkeypatch, argv, stdin, field):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert field in err and str(MAX_N) in err

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["sample", "--n", "2"], None),
            (["solve", "--n", "1", "--restarts", "1"], None),
            (["fuse", "obj", "obj"], None),
            (["decompose", "--input", "obj"], "valid"),
            (["decompose", "--input", "obj"], "shift"),
            (["certify", "--input", "pair"], "valid"),
            (["certify", "--input", "pair"], "broken"),
        ],
    )
    def test_negative_seed_exits_two_naming_flag(self, capsys, tmp_path, argv, doc):
        pair = sample_classical(2, seed=0).to_json()
        broken = json.loads(json.dumps(pair))
        broken["C"]["data"][0][0] += 0.25
        docs = {
            "obj": (SHIFT2 if doc == "shift" else IDENTITY2).to_json(),
            "pair": broken if doc == "broken" else pair,
        }
        argv = [write_json(tmp_path / f"{a}.json", docs[a]) if a in docs else a for a in argv]
        # The same input passes or fails on its own merits at seed 0.
        assert run_cli(capsys, argv)[0] == (1 if doc in ("shift", "broken") else 0)
        code, out, err = run_cli(capsys, argv + ["--seed", "-1"])
        assert (code, out) == (2, "")
        assert err == "error: --seed: expected a non-negative integer, got -1\n"

    def test_large_seed_is_accepted(self, capsys):
        code, _, _ = run_cli(capsys, ["sample", "--n", "2", "--seed", str(2**80)])
        assert code == 0

    def test_deeply_nested_json_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 200000))
        code, out, err = run_cli(capsys, ["check"])
        assert code == 2
        assert out == ""
        assert "nested too deeply" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("via_file", [True, False])
    def test_oversized_integer_exits_two_naming_source(
        self, capsys, monkeypatch, tmp_path, via_file
    ):
        # 5001 digits, past Python's 4300-digit limit on int parsing
        text = '{"n": 1' + "0" * 5000 + "}"
        if via_file:
            path = tmp_path / "big.json"
            path.write_text(text, encoding="utf-8")
            argv, where = ["check", "--input", str(path)], str(path)
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            argv, where = ["check"], "stdin"
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {where}: ")

    def test_no_convergence_exits_one(self, capsys, monkeypatch, tmp_path):
        def fail(*_args, **_kwargs):
            raise NoConvergence("eigh did not converge")

        monkeypatch.setattr("circleact.cli._classical_form", fail)
        path = write_json(tmp_path / "pair.json", sample_classical(2, seed=0).to_json())
        code, _, err = run_cli(capsys, ["certify", "--input", path])
        assert code == 1
        assert "did not converge" in err

    def test_decompose_below_noise_floor_exits_one(self, capsys, tmp_path):
        # At this tolerance the homomorphism equations' rounding residuals
        # already fail, so decompose refuses before either route runs.
        path = write_json(tmp_path / "obj.json", sample_classical(3, seed=1).object.to_json())
        code, out, _ = run_cli(capsys, ["decompose", "--input", path, "--tol", "1e-30"])
        assert code == 1
        payload = json.loads(out)
        assert "error" in payload
        assert "decomposition" not in payload

    def test_decompose_non_homomorphism_exits_one_naming_equations(self, capsys, tmp_path):
        path = write_json(tmp_path / "obj.json", SHIFT2.to_json())
        code, out, err = run_cli(capsys, ["decompose", "--input", path])
        assert code == 1
        payload = json.loads(out)
        assert "decomposition" not in payload
        assert payload["error"].startswith("object fails the homomorphism equations AA*+BB*-I")
        assert "max residual 1.000e+00" in payload["error"]
        assert "Traceback" not in err

    def test_solve_without_converged_restart_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, ["solve", "--n", "2", "--restarts", "2", "--max-iters", "5", "--reproducible"]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["run"]["summary"]["converged"] == 0
        assert payload["counterexamples"] == []


class TestStdio:
    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(IDENTITY2.to_json())))
        code, out, _ = run_cli(capsys, ["check"])
        assert code == 0
        assert json.loads(out)["kind"] == "check"

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, ["snake", "--n", "2", "--output", str(out_path), "--reproducible"]
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["kind"] == "snake"

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "circleact.cli", "sample", "--n", "1", "--reproducible"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["kind"] == "sample"
        assert payload["pair"]["n"] == 1


class TestSubcommands:
    def test_conjugate_payload_keys(self, capsys, tmp_path):
        path = write_json(tmp_path / "obj.json", sample_classical(2, seed=1).object.to_json())
        code, out, _ = run_cli(capsys, ["conjugate", "--input", path])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"kind", "pair", "matrix_report", "raw_report"}
        assert payload["matrix_report"]["overall_pass"] is True
        assert payload["raw_report"]["overall_pass"] is True

    def test_conjugate_on_invalid_object_stops_early(self, capsys, tmp_path):
        path = write_json(tmp_path / "obj.json", SHIFT2.to_json())
        code, out, _ = run_cli(capsys, ["conjugate", "--input", path])
        assert code == 1
        payload = json.loads(out)
        assert "pair" not in payload

    def test_certify_full_chain_on_sample(self, capsys, tmp_path):
        path = write_json(tmp_path / "pair.json", sample_classical(2, seed=0).to_json())
        code, out, _ = run_cli(capsys, ["certify", "--input", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["overall_pass"] is True
        assert len(payload["report"]["checks"]) == 51
        assert len(payload["classical"]["characters"]) == 2

    def test_certify_rejects_broken_pair(self, capsys, tmp_path):
        pair = sample_classical(2, seed=0)
        payload_in = pair.to_json()
        payload_in["C"]["data"][0][0] += 0.25  # corrupt one real entry
        path = write_json(tmp_path / "pair.json", payload_in)
        code, out, _ = run_cli(capsys, ["certify", "--input", path])
        assert code == 1
        payload = json.loads(out)
        assert payload["report"]["overall_pass"] is False
        assert "classical" not in payload

    def test_solve_exit_zero_and_deterministic(self, capsys, tmp_path):
        argv = [
            "solve", "--n", "1", "--restarts", "3", "--seed", "11", "--reproducible",
        ]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["counterexamples"] == []
        assert payload["run"]["summary"]["converged"] == 3

    def test_decompose_reducible_object(self, capsys, tmp_path):
        obj = sample_classical(3, seed=2).object
        path = write_json(tmp_path / "obj.json", obj.to_json())
        code, out, _ = run_cli(capsys, ["decompose", "--input", path])
        assert code == 0
        summands = json.loads(out)["decomposition"]["summands"]
        assert len(summands) == 3
        assert all(s["object"]["n"] == 1 for s in summands)

    def test_fuse_two_files(self, capsys, tmp_path):
        lam, mu = np.exp(0.4j), np.exp(0.9j)
        a = write_json(
            tmp_path / "a.json",
            LinearObject(1, np.array([[lam]]), np.zeros((1, 1))).to_json(),
        )
        b = write_json(
            tmp_path / "b.json",
            LinearObject(1, np.array([[mu]]), np.zeros((1, 1))).to_json(),
        )
        code, out, _ = run_cli(capsys, ["fuse", a, b])
        assert code == 0
        payload = json.loads(out)
        assert payload["product"]["n"] == 1
        got = complex(*payload["product"]["A"]["data"][0])
        assert got == pytest.approx(lam * mu)
        assert len(payload["decomposition"]["summands"]) == 1

    def test_fuse_stdin_array(self, capsys, monkeypatch):
        objs = [sample_classical(1, seed=s).object.to_json() for s in (0, 1)]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(objs)))
        code, out, _ = run_cli(capsys, ["fuse"])
        assert code == 0
        assert json.loads(out)["kind"] == "fuse"

    def test_fuse_wrong_arity_exits_two(self, capsys, tmp_path):
        path = write_json(tmp_path / "a.json", IDENTITY2.to_json())
        code, _, err = run_cli(capsys, ["fuse", path])
        assert code == 2
        assert "two input paths" in err

    def test_snake_scaled_vector_exits_one(self, capsys, monkeypatch):
        payload = {"n": 1, "s": {"dim": 1, "data": [[2.0, 0.0]]}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, out, _ = run_cli(capsys, ["snake"])
        assert code == 1
        assert json.loads(out)["report"]["overall_pass"] is False

    def test_sample_output_feeds_certify(self, capsys, tmp_path):
        # subcommand composability: the sample envelope is valid certify input
        pair_path = tmp_path / "pair.json"
        code, _, _ = run_cli(
            capsys, ["sample", "--n", "2", "--seed", "3", "--output", str(pair_path)]
        )
        assert code == 0
        code, out, _ = run_cli(capsys, ["certify", "--input", str(pair_path)])
        assert code == 0
        assert json.loads(out)["report"]["overall_pass"] is True

    def test_fuse_output_feeds_decompose(self, capsys, tmp_path):
        a = write_json(
            tmp_path / "a.json",
            LinearObject(1, np.array([[1j]]), np.zeros((1, 1))).to_json(),
        )
        fused_path = tmp_path / "fused.json"
        code, _, _ = run_cli(capsys, ["fuse", a, a, "--output", str(fused_path)])
        assert code == 0
        code, out, _ = run_cli(capsys, ["decompose", "--input", str(fused_path)])
        assert code == 0
        assert json.loads(out)["decomposition"]["summands"][0]["object"]["n"] == 1

    def test_envelope_without_object_exits_two(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, ["snake", "--n", "2", "--output", str(report_path)])
        assert code == 0
        code, _, err = run_cli(capsys, ["check", "--input", str(report_path)])
        assert code == 2
        assert "no object" in err

    def test_sample_seed_changes_output(self, capsys):
        _, out1, _ = run_cli(capsys, ["sample", "--n", "2", "--seed", "0", "--reproducible"])
        _, out2, _ = run_cli(capsys, ["sample", "--n", "2", "--seed", "1", "--reproducible"])
        assert out1 != out2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out, _ = capsys.readouterr()
        assert "circleact" in out


def pair_doc(n=2):
    return sample_classical(n, seed=0).to_json()


class TestInputContract:
    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d.update(n=True), "input.n"),
            (lambda d: d["A"].update(rows=True), "input.A.rows"),
            (lambda d: d["B"].update(cols=True), "input.B.cols"),
            (lambda d: d.update(s={"dim": True, "data": [[1.0, 0.0]]}), "input.s.dim"),
        ],
    )
    def test_bool_in_integer_field_exits_two_naming_it(self, capsys, tmp_path, mutate, field):
        doc = pair_doc(1)
        mutate(doc)
        path = write_json(tmp_path / "pair.json", doc)
        code, out, err = run_cli(capsys, ["certify", "--input", path])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field}: expected a ")

    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "-1" + "0" * 400, "1e309", "-1e309"])
    def test_number_beyond_float_range_exits_two(self, capsys, tmp_path, literal):
        doc = pair_doc()
        doc["A"]["data"][0] = ["HERE", 0]
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc).replace('"HERE"', literal), encoding="utf-8")
        code, out, err = run_cli(capsys, ["certify", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert err == "error: input.A.data[0]: non-finite entries are not admitted\n"

    def test_solve_n_above_cap_exits_two_before_solving(self, capsys, monkeypatch):
        def refuse(_config):
            raise AssertionError("solve must not run")

        monkeypatch.setattr("circleact.cli.solve", refuse)
        code, out, err = run_cli(capsys, ["solve", "--n", str(SOLVE_MAX_N + 1)])
        assert code == 2
        assert out == ""
        assert "--n" in err and str(SOLVE_MAX_N) in err

    def test_solver_config_rejects_n_above_cap(self):
        SolverConfig(n=SOLVE_MAX_N, restarts=1)
        with pytest.raises(ValueError, match=f"at most {SOLVE_MAX_N}"):
            SolverConfig(n=SOLVE_MAX_N + 1, restarts=1)

    def test_memory_error_exits_two_without_traceback(self, capsys, monkeypatch, tmp_path):
        def exhaust(*_args, **_kwargs):
            raise MemoryError

        monkeypatch.setattr("circleact.cli.check_conjugate_raw", exhaust)
        path = write_json(tmp_path / "pair.json", pair_doc())
        code, out, err = run_cli(capsys, ["certify", "--input", path])
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory")


def fresh_run(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "circleact.cli", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestProcessState:
    def test_import_leaves_scipy_unloaded(self):
        code = "import sys, circleact.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_reused_parser_matches_fresh_runs(self, capsys):
        calls = [
            ["snake", "--n", "2", "--reproducible"],
            ["solve", "--restarts", "x"],
            ["check", "--input", str(GOLDEN / "identity_object.json"), "--reproducible"],
        ]
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err) == fresh_run(argv)


def dumps(x):
    return json.dumps(x, indent=2, sort_keys=True)


def outcome(encode, x):
    """What ``encode(x)`` returns, or the type and message it raises."""
    try:
        return encode(x)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300]),
)
PLAIN_FLOATS = st.one_of(
    FINITE_FLOATS, st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf")])
)
FLOATS = st.one_of(PLAIN_FLOATS, st.floats().map(np.float64))
TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800", "/"]),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT)


def pair_lists(floats):
    return st.lists(st.lists(floats, min_size=2, max_size=2), min_size=1, max_size=4)


# One item among finite float pairs that the fast path must refuse the list for.
ODD_ITEMS = st.one_of(
    st.tuples(st.integers(), FINITE_FLOATS).map(list),
    st.tuples(FINITE_FLOATS, st.booleans()).map(list),
    st.lists(FINITE_FLOATS, min_size=3, max_size=3),
    st.tuples(FINITE_FLOATS, FINITE_FLOATS),
    st.lists(FLOATS, min_size=2, max_size=2),
    FLOATS,
)
NEAR_PAIRS = st.builds(
    lambda pairs, i, odd: pairs[:i] + [odd] + pairs[i:],
    pair_lists(FINITE_FLOATS),
    st.integers(0, 4),
    ODD_ITEMS,
)
# One key type per dict: json.dumps cannot sort mixed ones either.
KEYS = [TEXT, st.integers(), PLAIN_FLOATS, st.booleans(), st.none()]
JSON_TREES = st.recursive(
    st.one_of(SCALARS, pair_lists(FINITE_FLOATS), pair_lists(PLAIN_FLOATS), NEAR_PAIRS),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        *(st.dictionaries(key, children, max_size=3) for key in KEYS),
    ),
    max_leaves=12,
)


# One argv per subcommand and outcome; a name in PAYLOAD_DOCS stands for
# the path of that document.
PAYLOAD_ARGVS = [
    ["check", "--input", "obj"],
    ["conjugate", "--input", "obj"],
    ["conjugate", "--input", "shift"],
    ["certify", "--input", "pair"],
    ["certify", "--input", "broken"],
    ["solve", "--n", "2", "--restarts", "2", "--seed", "3"],
    ["decompose", "--input", "obj"],
    ["decompose", "--input", "shift"],
    ["sample", "--n", "3", "--seed", "4"],
    ["fuse", "obj", "x"],
    ["snake", "--n", "3"],
]


def payload_docs():
    pair = sample_classical(2, seed=0)
    broken = pair.to_json()
    broken["C"]["data"][0][0] += 0.25
    return {
        "pair": pair.to_json(),
        "broken": broken,
        "obj": sample_classical(3, seed=2).object.to_json(),
        "x": sample_classical(2, seed=1).object.to_json(),
        "shift": SHIFT2.to_json(),
    }


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(JSON_TREES)
    def test_matches_json_dumps(self, tree):
        assert outcome(cli._encode, tree) == outcome(dumps, tree)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(pair_lists(PLAIN_FLOATS), NEAR_PAIRS), st.integers(0, 3))
    def test_pair_lists_match_json_dumps(self, pairs, depth):
        tree = pairs
        for _ in range(depth):
            tree = {"data": tree}
        assert outcome(cli._encode, tree) == outcome(dumps, tree)

    @pytest.mark.parametrize(
        "bad", [object(), np.int64(1), 1j, {1, 2}, [1.0, object()], {(1,): 2}, {"a": b"x"}]
    )
    def test_refuses_what_json_dumps_refuses(self, bad):
        assert outcome(cli._encode, bad) == outcome(dumps, bad)
        assert isinstance(outcome(cli._encode, bad), tuple)

    @pytest.mark.parametrize("argv", PAYLOAD_ARGVS, ids=lambda argv: "-".join(argv[:3]))
    def test_every_subcommand_payload(self, monkeypatch, capsys, tmp_path, argv):
        docs = payload_docs()
        argv = [write_json(tmp_path / f"{a}.json", docs[a]) if a in docs else a for a in argv]
        payloads = []

        def spy(payload, path, reproducible):
            payloads.append(payload)
            write(payload, path, reproducible)

        write = cli._write_payload
        monkeypatch.setattr(cli, "_write_payload", spy)
        main(argv)
        out, _ = capsys.readouterr()
        (payload,) = payloads
        assert cli._encode(payload) == dumps(payload)
        timestamp = json.loads(out)["timestamp"]
        assert out == dumps(payload | {"timestamp": timestamp}) + "\n"


# JSON values of every type; a replacement is drawn among those whose
# type differs from the value it replaces (an int and a float inside a
# [re, im] pair count as one type).
WRONG_VALUES = [None, True, False, 0, 7, 1.5, 2.0, "x", "2", [], [1.0, 0.0], {}, {"rows": 2}]
REQUIRED = {"rows", "cols", "data", "dim", "n", "A", "B", "C", "D"}
REMOVE = object()


def json_type(value, in_pair):
    if in_pair and type(value) in (int, float):
        return "number"
    return type(value).__name__


def locations(doc, where=()):
    """(path, value) for every value in doc."""
    yield where, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from locations(value, where + (key,))


def replaced(doc, where, value):
    """A copy of doc with the value at ``where`` replaced, or removed."""
    if not where:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if value is REMOVE:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    return doc


@st.composite
def malformed(draw, doc):
    """A document that breaks ``doc``'s schema in one place."""
    named = lambda *names: [(w, v) for w, v in locations(doc) if w and w[-1] in names]
    # A wrong type has the most places to go: it is drawn three times as often.
    kind = draw(st.sampled_from(["type"] * 3 + ["missing", "count", "length", "envelope", "root"]))
    if kind == "type":
        # Walk down to a depth drawn first, so that every level of the
        # document (root, object, matrix, entry, number) is drawn as often.
        where, value, in_pair = (), doc, False
        for _ in range(draw(st.integers(0, 4))):
            if not isinstance(value, (dict, list)):
                break
            keys = list(value) if isinstance(value, dict) else range(len(value))
            in_pair = isinstance(value, list) and where[-2:-1] == ("data",)
            where += (draw(st.sampled_from(keys)),)
            value = value[where[-1]]
        wrong = [w for w in WRONG_VALUES if json_type(w, in_pair) != json_type(value, in_pair)]
        return replaced(doc, where, draw(st.sampled_from(wrong)))
    if kind == "missing":
        where, _ = draw(st.sampled_from(named(*REQUIRED)))
        return replaced(doc, where, REMOVE)
    if kind == "count":
        where, value = draw(st.sampled_from(named("rows", "cols", "dim")))
        return replaced(doc, where, draw(st.integers(0, 9).filter(lambda k: k != value)))
    if kind == "length":
        where, value = draw(st.sampled_from(named("data")))
        return replaced(doc, where, draw(st.sampled_from([value[:-1], value + [[0.0, 0.0]]])))
    if kind == "envelope":
        keys = TEXT.filter(lambda k: k not in ("pair", "product"))
        rest = draw(st.dictionaries(keys, st.sampled_from(WRONG_VALUES), max_size=2))
        return rest | {"kind": draw(st.sampled_from(WRONG_VALUES + ["sample", "fuse"]))}
    return draw(st.sampled_from([w for w in WRONG_VALUES if not isinstance(w, dict)]))


PAIR_DOC = sample_classical(2, seed=0).to_json()
OBJECT_DOC = sample_classical(2, seed=1).object.to_json()


class TestMalformedInput:
    @settings(max_examples=300, deadline=None)
    @given(
        command=st.sampled_from(["check", "certify", "decompose", "fuse"]),
        data=st.data(),
        wrapped=st.booleans(),
        second=st.booleans(),
    )
    def test_exits_two_naming_an_input_path(self, command, data, wrapped, second):
        doc = data.draw(malformed(PAIR_DOC if command == "certify" else OBJECT_DOC))
        if wrapped:
            doc = {"kind": "sample", "pair": doc}
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            bad = write_json(Path(tmp) / "bad.json", doc)
            good = write_json(Path(tmp) / "good.json", OBJECT_DOC)
            inputs = [good, bad] if second else [bad, good]
            argv = ["fuse", *inputs] if command == "fuse" else [command, "--input", bad]
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        assert (code, out.getvalue()) == (2, ""), (doc, err.getvalue())
        assert err.getvalue().startswith("error: input"), (doc, err.getvalue())
        assert err.getvalue().count("\n") == 1


# A placeholder that ``reader_input`` writes as the literal 1e999, which
# json.loads reads as inf.
NON_FINITE = "NON-FINITE"
PAIR1 = sample_classical(1, seed=0).to_json()
OBJECT1 = sample_classical(1, seed=1).object.to_json()
WIDE = {"rows": 1, "cols": 2, "data": [[0.0, 0.0], [0.0, 0.0]]}
LONG = {"dim": 2, "data": [[1.0, 0.0], [0.0, 0.0]]}
# Counts that numpy cannot shape a complex array by, even with no entries.
HUGE, BIG = ({"rows": 0, "cols": cols, "data": []} for cols in (10**30, 2**62))

# (command, location broken, value put there, the whole stderr).  check
# reads an object document (and a matrix one at input.A), certify a pair
# document (and vector ones at input.s and input.t); snake has its own
# rule for "n".
READER_MESSAGES = [
    ("check", ("A",), [1.0], "input.A: expected an object, got list"),
    ("check", ("A", "cols"), REMOVE, "input.A.cols: missing"),
    ("check", ("A", "rows"), True, "input.A.rows: expected a non-negative integer"),
    ("check", ("A", "cols"), -1, "input.A.cols: expected a non-negative integer"),
    ("check", ("B", "data"), [], "input.B.data: expected a list of 1 entries"),
    ("check", ("A", "data", 0), [1.0], "input.A.data[0]: expected a [re, im] pair of numbers"),
    ("check", ("B", "data", 0, 1), NON_FINITE, "input.B.data[0]: non-finite entries are not admitted"),
    ("certify", ("s",), "x", "input.s: expected an object, got str"),
    ("certify", ("t", "dim"), REMOVE, "input.t.dim: missing"),
    ("certify", ("s", "dim"), False, "input.s.dim: expected a non-negative integer"),
    ("certify", ("t", "dim"), -2, "input.t.dim: expected a non-negative integer"),
    ("certify", ("s", "data"), LONG["data"], "input.s.data: expected a list of 1 entries"),
    ("certify", ("s", "data", 0), None, "input.s.data[0]: expected a [re, im] pair of numbers"),
    ("certify", ("t", "data", 0, 0), NON_FINITE, "input.t.data[0]: non-finite entries are not admitted"),
    ("check", (), [], "input: expected an object"),
    ("check", ("B",), REMOVE, "input.B: missing"),
    ("check", ("n",), True, "input.n: expected a positive integer"),
    ("check", ("n",), -1, "input.n: expected a positive integer"),
    ("check", ("A",), WIDE, "input: expected two 1x1 matrices, got (1, 2) and (1, 1)"),
    ("check", ("n",), 2, "input: expected two 2x2 matrices, got (1, 1) and (1, 1)"),
    ("certify", (), "x", "input: expected an object"),
    ("certify", ("D",), REMOVE, "input.D: missing"),
    ("certify", ("n",), False, "input.n: expected a positive integer"),
    ("certify", ("A",), WIDE, "input: expected two 1x1 matrices, got (1, 2) and (1, 1)"),
    ("certify", ("D",), WIDE, "input: expected two 1x1 matrices, got (1, 1) and (1, 2)"),
    ("certify", ("s",), LONG, "input: s: expected length 1, got 2"),
    ("certify", ("t",), LONG, "input: t: expected length 1, got 2"),
    ("snake", (), [], "input: expected an object with an 'n' field"),
    ("snake", ("n",), REMOVE, "input: expected an object with an 'n' field"),
    ("snake", ("n",), True, f"input.n: expected an integer from 1 to {MAX_N}"),
    ("snake", ("s", "dim"), -1, "input.s.dim: expected a non-negative integer"),
    ("snake", ("t", "data", 0), None, "input.t.data[0]: expected a [re, im] pair of numbers"),
    ("snake", ("s",), LONG, "input: s: expected length 1, got 2"),
    ("check", ("A",), HUGE, f"input.A.cols: {10**30} is too large for an array"),
    ("check", ("A",), BIG, f"input.A.cols: {2**62} is too large for an array"),
    ("certify", ("s", "dim"), 10**30, f"input.s.dim: {10**30} is too large for an array"),
]


def reader_input(tmp_path, command, where, value, wrapped=False):
    """The path of the command's document broken at ``where``."""
    doc = replaced(OBJECT1 if command == "check" else PAIR1, where, value)
    if wrapped:
        doc = {"kind": "sample", "pair": doc}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace(f'"{NON_FINITE}"', "1e999"), encoding="utf-8")
    return str(path)


class TestReaderMessages:
    @pytest.mark.parametrize("command, where, value, message", READER_MESSAGES)
    def test_exact_message(self, capsys, tmp_path, command, where, value, message):
        path = reader_input(tmp_path, command, where, value)
        assert run_cli(capsys, [command, "--input", path]) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command, where, value, message", READER_MESSAGES)
    def test_envelope_gives_the_same_message(self, capsys, tmp_path, command, where, value, message):
        path = reader_input(tmp_path, command, where, value, wrapped=True)
        assert run_cli(capsys, [command, "--input", path]) == (2, "", f"error: {message}\n")


class TestSnakeInput:
    def test_sample_envelope_feeds_snake(self, capsys, monkeypatch):
        _, sampled, _ = run_cli(capsys, ["sample", "--n", "3", "--seed", "1"])
        monkeypatch.setattr("sys.stdin", io.StringIO(sampled))
        code, out, _ = run_cli(capsys, ["snake", "--reproducible"])
        bare = json.dumps(json.loads(sampled)["pair"])
        monkeypatch.setattr("sys.stdin", io.StringIO(bare))
        assert run_cli(capsys, ["snake", "--reproducible"]) == (0, out, "")
        assert code == 0

    def test_snake_output_is_not_snake_input(self, capsys, monkeypatch):
        _, report, _ = run_cli(capsys, ["snake", "--n", "2"])
        monkeypatch.setattr("sys.stdin", io.StringIO(report))
        code, out, err = run_cli(capsys, ["snake"])
        assert (code, out) == (2, "")
        assert err == "error: input: a 'snake' output carries no object to re-read\n"


def certify_pair(capsys, tmp_path, pair):
    path = write_json(tmp_path / "pair.json", pair.to_json())
    code, out, err = run_cli(capsys, ["certify", "--input", path])
    assert err == ""
    payload = json.loads(out)
    return code, payload, {c["name"] for c in payload["report"]["checks"]}


class TestCanonicalBoundary:
    """certify runs the canonical step exactly on the pairs certify_duality accepts."""

    CANONICAL = {"canonical:C-conj(A)", "canonical:D-transp(B)"}

    def with_s(self, scale=1.0, shift=0.0):
        """A sampled pair whose s is scaled, then has one entry moved by shift."""
        pair = sample_classical(3, seed=4)
        s = scale * pair.s
        s[0] += shift
        return ConjugatePair(pair.object, pair.C, pair.D, s=s, t=pair.t)

    def test_scaled_s_skips_the_canonical_step(self, capsys, tmp_path):
        code, payload, names = certify_pair(capsys, tmp_path, self.with_s(scale=2.0))
        assert code == 0
        assert payload["canonical_skipped"] == "non-standard pairing vectors"
        assert "classical" in payload
        assert not any(name.startswith("canonical:") for name in names)

    def test_s_within_the_standard_threshold_is_canonical(self, capsys, tmp_path):
        code, payload, names = certify_pair(capsys, tmp_path, self.with_s(shift=1e-13))
        assert code == 0
        assert "canonical_skipped" not in payload
        assert self.CANONICAL <= names

    def test_s_beyond_the_standard_threshold_is_skipped_and_refused(self, capsys, tmp_path):
        pair = self.with_s(shift=1e-11)
        code, payload, names = certify_pair(capsys, tmp_path, pair)
        assert code == 0
        assert payload["canonical_skipped"] == "non-standard pairing vectors"
        assert not names & self.CANONICAL
        with pytest.raises(ConstraintViolation, match="requires the standard pairing vectors"):
            certify_duality(pair)


def count_calls(monkeypatch, functions):
    """Count calls of each function through every circleact module that binds it."""
    counts = dict.fromkeys(functions, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "circleact"]:
        for name, fn in functions.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    return counts


class TestEachCheckOnce:
    """One certify, conjugate or fuse op evaluates each check once, whatever imports it."""

    FUNCTIONS = {
        "check_homomorphism": coaction.check_homomorphism,
        "check_conjugate_matrix": coaction.check_conjugate_matrix,
        "check_conjugate_raw": coaction.check_conjugate_raw,
        "certify_commutativity": certify.certify_commutativity,
    }

    def test_certify(self, capsys, monkeypatch, tmp_path):
        counts = count_calls(monkeypatch, self.FUNCTIONS)
        code, payload, _ = certify_pair(capsys, tmp_path, sample_classical(4, seed=2))
        assert code == 0 and "classical" in payload
        assert counts == dict.fromkeys(self.FUNCTIONS, 1)

    def test_conjugate(self, capsys, monkeypatch, tmp_path):
        counts = count_calls(monkeypatch, self.FUNCTIONS)
        path = write_json(tmp_path / "obj.json", sample_classical(4, seed=2).object.to_json())
        assert run_cli(capsys, ["conjugate", "--input", path])[0] == 0
        assert counts == {**dict.fromkeys(self.FUNCTIONS, 1), "certify_commutativity": 0}

    def test_fuse(self, capsys, monkeypatch, tmp_path):
        counts = count_calls(monkeypatch, self.FUNCTIONS)
        paths = [write_json(tmp_path / f"{k}.json", sample_classical(n, seed=k).object.to_json())
                 for k, n in ((1, 3), (2, 4))]
        code, out, _ = run_cli(capsys, ["fuse", *paths])
        assert code == 0 and len(json.loads(out)["decomposition"]["summands"]) == 12
        assert counts == {"check_homomorphism": 1, "check_conjugate_matrix": 0,
                          "check_conjugate_raw": 0, "certify_commutativity": 1}
