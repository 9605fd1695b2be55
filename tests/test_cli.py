import argparse
import itertools
import json
import math
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from gausspair import GaussianParams, MixerConfig, NonPhysicalStateError, transform_blocks
from gausspair import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseComplex:
    def test_real_only(self):
        assert cli.parse_complex("1.5") == 1.5 + 0j

    def test_pair(self):
        assert cli.parse_complex("0.3,-0.1") == 0.3 - 0.1j

    def test_spaces_tolerated(self):
        assert cli.parse_complex(" 2 , 3 ") == 2 + 3j

    def test_garbage_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_complex("a,b")
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_complex("1,2,3")


class TestCheck:
    def test_entangled_state(self, capsys):
        code, out, _ = run_cli(
            ["check", "--n1", "2", "--n2", "2", "--mc", "1.8", "--r", "1"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["physical"] is True
        assert payload["separable"] is False
        assert payload["p_representable"] is False
        assert 0 < payload["fidelity"] <= 1
        assert payload["bures"] == pytest.approx(2 - 2 * math.sqrt(payload["fidelity"]))
        assert payload["degree"] > 0

    def test_vacuum_is_classical(self, capsys):
        code, out, _ = run_cli(["check", "--n1", "0.5", "--n2", "0.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["separable"] is True
        assert payload["p_representable"] is True

    def test_nonphysical_exits_2(self, capsys):
        code, out, err = run_cli(["check", "--n1", "1", "--n2", "1", "--mc", "1.8"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "NonPhysicalStateError"

    def test_overflowing_reference_exits_2(self, capsys):
        code, out, err = run_cli(["check", "--n1", "1", "--n2", "1", "--r", "1e3"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "NumericDomainError"

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--n1", "oops", "--n2", "1"])
        assert exc.value.code == 1

    def test_missing_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_usage_error_is_json(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["check", "--n1", "oops", "--n2", "1"])
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "UsageError"
        assert "--n1" in payload["message"]
        assert payload["usage"].startswith("usage: gausspair check")

    def test_nan_tol_exits_2(self, capsys):
        code, out, err = run_cli(["check", "--n1", "2", "--n2", "2", "--tol", "nan"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "ValueError", "message": "tol must be positive and finite"}

    def test_overflowing_moments_exit_2(self, capsys):
        code, out, err = run_cli(
            ["check", "--n1", "1e200", "--n2", "1e200", "--mc", "1e200"], capsys
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "NumericDomainError"

    def test_overflowing_overlap_exits_2(self, capsys):
        code, out, err = run_cli(["check", "--n1", "1e100", "--n2", "1e200"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "NumericDomainError"


class TestRunCheck:
    def test_composition_matches_library(self):
        p = GaussianParams(n1=2, n2=2, m_c=1.4)
        payload = cli.run_check(p, 1.0)
        assert payload["separable"] is True
        assert payload["p_representable"] is True

    def test_nonphysical_raises(self):
        with pytest.raises(NonPhysicalStateError):
            cli.run_check(GaussianParams(n1=1, n2=1, m_c=1.8), 1.0)


class TestTransform:
    def write_state(self, tmp_path, **kwargs):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(kwargs), encoding="utf-8")
        return str(path)

    def test_balanced_splitter_output(self, tmp_path, capsys):
        path = self.write_state(tmp_path, n1=2.0, n2=2.0, mc=[1.8, 0.0])
        code, out, _ = run_cli(
            ["transform", "--state", path, "--theta", str(math.pi / 4)], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["decoupled"] is True
        assert payload["mode1"]["n"] == pytest.approx(2.0)
        assert payload["mode1"]["m"] == pytest.approx([-1.8, 0.0])
        assert payload["mode2"]["m"] == pytest.approx([1.8, 0.0])
        blocks = transform_blocks(
            GaussianParams(n1=2, n2=2, m_c=1.8), MixerConfig(theta=math.pi / 4)
        )
        flat = [x for pair in payload["v1p"] for x in pair]
        want = np.array(flat[0::2]) + 1j * np.array(flat[1::2])
        assert np.abs(want.reshape(2, 2) - blocks.v1p).max() < 1e-12

    def test_residuals_reported(self, tmp_path, capsys):
        path = self.write_state(tmp_path, n1=1.0, n2=1.0, m1=[0.3, 0.0], m2=[0.5, 0.0])
        code, out, _ = run_cli(
            ["transform", "--state", path, "--theta", str(math.pi / 4)], capsys
        )
        payload = json.loads(out)
        assert payload["residuals"]["anomalous"] == pytest.approx([0.2, 0.0], abs=1e-12)
        assert payload["decoupled"] is False

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(
            ["transform", "--state", "/nonexistent.json", "--theta", "0"], capsys
        )
        assert code == 2
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("text, fragment", [
        ('{"n1": 2.0}', "'n2'"),
        ('{"n2": 2.0}', "'n1'"),
        ("[2.0, 2.0]", "JSON object, not list"),
        ('"state"', "JSON object, not str"),
        ('{"n1": 2.0, "n2": null}', "'n2'"),
        ('{"n1": 2.0, "n2": 2.0, "mc": [null, 1.0]}', "complex"),
    ])
    def test_malformed_state_file_names_the_problem(self, tmp_path, capsys, text, fragment):
        path = tmp_path / "state.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["transform", "--state", str(path), "--theta", "0.5"], capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert fragment in payload["message"]

    def test_nan_tol_exits_2(self, tmp_path, capsys):
        path = self.write_state(tmp_path, n1=2.0, n2=2.0, mc=[1.8, 0.0])
        code, out, err = run_cli(
            ["transform", "--state", path, "--theta", "0.7", "--tol", "nan"], capsys
        )
        assert code == 2
        assert out == ""
        assert "tol" in json.loads(err)["message"]


class TestTmtssCommand:
    def test_valid_point_emits_state_file_format(self, tmp_path, capsys):
        code, out, _ = run_cli(["tmtss", "--d", "0.5", "--r", "-0.3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["n1"] == pytest.approx(0.7502248434956464)
        assert payload["mc"][0] == pytest.approx(0.2925930025060872)
        assert payload["p1"] == pytest.approx(-0.1)
        assert payload["p2"] == pytest.approx(1.1)
        # output doubles as a transform input
        path = tmp_path / "model.json"
        path.write_text(out, encoding="utf-8")
        code, out2, _ = run_cli(
            ["transform", "--state", str(path), "--theta", str(math.pi / 4)], capsys
        )
        assert code == 0
        assert json.loads(out2)["decoupled"] is True

    def test_model_validity_error_carries_raw_values(self, capsys):
        code, out, err = run_cli(["tmtss", "--d", "0.1", "--r", "0.5", "--nbar", "0"], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ModelValidityError"
        assert payload["n"] == pytest.approx(-0.0604, abs=1e-3)

    def test_degenerate_at_zero_squeezing(self, capsys):
        code, _, err = run_cli(["tmtss", "--d", "0.3", "--r", "0"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "DegenerateStateError"


class TestSweep:
    def test_csv_shape_and_anchors(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--r", "1",
            "--n-min", repr(math.cosh(2) / 2), "--n-max", "3.5", "--n-steps", "3",
            "--m-min", "0", "--m-max", repr(math.sinh(2) / 2), "--m-steps", "2",
            "--out", str(out_path),
        ]
        assert run_cli(argv, capsys)[0] == 0
        lines = out_path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "n,m,class,E"
        assert len(lines) == 2 + 3 * 2  # header + rows + trailing newline
        first = lines[1].split(",")
        assert first[2] == "separable"
        assert float(first[3]) == pytest.approx(0.0, abs=1e-9)
        second = lines[2].split(",")
        assert second[2] == "entangled"
        assert float(second[3]) == pytest.approx(1.0, abs=1e-9)

    def test_nonphysical_rows_have_empty_degree(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--n-min", "0.5", "--n-max", "1.0", "--n-steps", "2",
             "--m-min", "1.7", "--m-max", "1.9", "--m-steps", "2"], capsys
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            n_s, m_s, label, e_s = line.split(",")
            assert label == "nonphysical"
            assert e_s == ""

    def test_byte_deterministic(self, tmp_path, capsys):
        paths = []
        for name in ("a.csv", "b.csv"):
            out_path = tmp_path / name
            argv = ["sweep", "--n-steps", "12", "--m-steps", "9", "--out", str(out_path)]
            assert run_cli(argv, capsys)[0] == 0
            paths.append(out_path.read_bytes())
        assert paths[0] == paths[1]
        assert b"\r" not in paths[0]

    def test_matrix_format(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--format", "matrix", "--n-steps", "4", "--m-steps", "3",
             "--m-min", "1.7", "--m-max", "1.9"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 4
        header = lines[0].split()
        assert header[0] == "3"
        assert len(lines[1].split()) == 1 + 3
        assert "nan" in lines[1].split()  # low-n rows are nonphysical at these m

    def test_bad_config_exits_2(self, capsys):
        code, _, err = run_cli(["sweep", "--r", "0"], capsys)
        assert code == 2
        assert "error" in json.loads(err)
        code, _, _ = run_cli(["sweep", "--n-steps", "1"], capsys)
        assert code == 2


class TestOracleCommand:
    def test_fock(self, capsys):
        code, out, _ = run_cli(["oracle", "fock", "--l1", "0.5", "--l2", "0"], capsys)
        assert code == 0
        assert json.loads(out)["overlap"] == pytest.approx(0.75)

    def test_eigmin(self, tmp_path, capsys):
        path = tmp_path / "vac.json"
        path.write_text(json.dumps({"n1": 0.5, "n2": 0.5}), encoding="utf-8")
        code, out, _ = run_cli(["oracle", "eigmin", "--state", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["eig_min"] == pytest.approx(0.0, abs=1e-12)
        code, out, _ = run_cli(
            ["oracle", "eigmin", "--state", str(path), "--which", "prep"], capsys
        )
        assert json.loads(out)["eig_min"] == pytest.approx(0.0, abs=1e-12)

    def test_quad(self, tmp_path, capsys):
        path = tmp_path / "vac.json"
        path.write_text(json.dumps({"n1": 0.5, "n2": 0.5}), encoding="utf-8")
        code, out, _ = run_cli(
            ["oracle", "quad", "--state-a", str(path), "--state-b", str(path)], capsys
        )
        assert code == 0
        assert json.loads(out)["overlap"] == pytest.approx(1.0, abs=1e-6)


FUZZ_PLAIN = ["0.2", "0.5", "1.5", "2", "3"]
FUZZ_EXTREME = ["0", "-1", "1e-300", "1e100", "1e154", "1e200", "1e308", "inf", "-inf", "nan", "oops"]


def _fuzz_value(rng) -> str:
    # mostly ordinary values, so that successes are fuzzed as well as failures
    return rng.choice(FUZZ_PLAIN if rng.random() < 0.7 else FUZZ_EXTREME)

FUZZ_STATE_FILES = [
    "", "{", "null", "3", "[]", '"n1"', "{}", '{"n1": 2}', '{"n1": 2, "n2": "x"}',
    '{"n1": 2, "n2": []}', '{"n1": 2, "n2": {}}', '{"n1": NaN, "n2": 2}',
    '{"n1": Infinity, "n2": 2}', '{"n1": 2, "n2": 2, "m1": "x"}', '{"n1": 2, "n2": 2, "m1": [1]}',
    '{"n1": 2, "n2": 2, "ms": [1, 2, 3]}', '{"n1": 2, "n2": 2, "mc": {"re": 1}}',
    '{"n1": 1e308, "n2": 1e308, "mc": [1e308, 1e308]}', '{"n1": 1e200, "n2": 0, "ms": 1e200}',
    '{"n1": 2, "n2": 2, "m1": [1e308, -1e308], "m2": 1e-320}',
]


def _run_guarded(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_clean_outcome(argv, code, out, err) -> int:
    if code == 0:
        json.loads(out)
        assert err == "", argv
    else:
        assert code in (1, 2), argv
        assert out == "", argv
        assert "error" in json.loads(err), argv
    return code


@pytest.mark.filterwarnings("error")
class TestCliFuzz:
    """Extreme, non-finite and malformed inputs end in JSON, never a traceback."""

    def test_check_flags(self, capsys):
        rng = random.Random(7)
        codes = Counter()
        flags = ["--n1", "--n2", "--m1", "--m2", "--ms", "--mc", "--r", "--tol"]
        for _ in range(400):
            argv = ["check"]
            for flag in flags:
                if flag in ("--n1", "--n2") or rng.random() < 0.5:
                    value = _fuzz_value(rng)
                    if flag.startswith("--m") and rng.random() < 0.3:
                        value += "," + _fuzz_value(rng)
                    argv.append(f"{flag}={value}")
            codes[_assert_clean_outcome(argv, *_run_guarded(argv, capsys))] += 1
        assert min(codes.values()) >= 10, codes

    def test_transform_flags(self, tmp_path, capsys):
        rng = random.Random(8)
        codes = Counter()
        keys = ["n1", "n2", "m1", "m2", "ms", "mc"]
        path = tmp_path / "state.json"
        for _ in range(300):
            state = {}
            for key in keys:
                if rng.random() < 0.9:
                    value = float(_fuzz_value(rng).replace("oops", "7"))
                    if key.startswith("m") and rng.random() < 0.5:
                        value = [value, float(_fuzz_value(rng).replace("oops", "7"))]
                    state[key] = value
            path.write_text(json.dumps(state), encoding="utf-8")
            argv = ["transform", "--state", str(path), f"--theta={_fuzz_value(rng)}"]
            for flag in ("--phi0", "--phi1", "--tol"):
                if rng.random() < 0.3:
                    argv.append(f"{flag}={_fuzz_value(rng)}")
            codes[_assert_clean_outcome(argv, *_run_guarded(argv, capsys))] += 1
        assert min(codes.values()) >= 10, codes

    def test_malformed_state_files(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        for text, command in itertools.product(FUZZ_STATE_FILES, ("transform", "eigmin")):
            path.write_text(text, encoding="utf-8")
            if command == "transform":
                argv = ["transform", "--state", str(path), "--theta", "0.7853981633974483"]
            else:
                argv = ["oracle", "eigmin", "--state", str(path)]
            _assert_clean_outcome(argv, *_run_guarded(argv, capsys))


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "gausspair", "check", "--n1", "0.5", "--n2", "0.5"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["physical"] is True
