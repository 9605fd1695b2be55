import argparse
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import random
import stat
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gausspair import GaussianParams, MixerConfig, NonPhysicalStateError, coupling_residuals
from gausspair import transform_blocks
from gausspair import classicality, cli, covariance, measures, oracle

from conftest import GOLDEN, joint_band_states, moments


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
        assert payload["r"] == 1.0  # the default reference squeezing

    def test_nearly_unmixed_pure_state_is_physical(self, capsys):
        # two squeezed vacua mixed at theta ~ pi: a pure state whose party-1
        # pivot determinant is small (4.1e-5) but well above tol
        code, out, err = run_cli(
            ["check", "--n1", "5.342053764874023", "--n2", "9.072061149472587",
             "--m1=-4.688136277448173,-2.5117474950552143",
             "--m2=-6.465308095890433,6.3444498211445035",
             "--ms=0.001741191353638349,-0.000859844744277263",
             "--mc=5.392288178736597e-05,0.006705231957812285"], capsys
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["physical"] is True
        assert payload["separable"] is False

    def test_nonphysical_exits_2(self, capsys):
        code, out, err = run_cli(["check", "--n1", "1", "--n2", "1", "--mc", "1.8"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "NonPhysicalStateError"

    def test_a_party_1_pivot_of_exactly_zero_is_nonphysical(self, capsys):
        # n1 + Re m1 + tol is exactly 0.0 in float64: the kernel's first pivot
        # rejects it before dividing by it
        argv = ["check", "--n1", "0.5", "--n2", "0.5", "--m1=-0.5000000009313226",
                "--tol", "9.313225746154785e-10"]
        assert 0.5 + -0.5000000009313226 + 9.313225746154785e-10 == 0.0
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "NonPhysicalStateError",
                                   "message": "state violates the uncertainty principle"}

    TIE = 2.0 ** -30  # tol; 1/2 - TIE + TIE is exactly 1/2

    @pytest.mark.parametrize("state, pivot", [
        # d1 = n1 + tol - (1/2)^2 / (n1 + tol)
        ({"n1": 0.5 - TIE, "n2": 1.0}, (0.5 - TIE + TIE) - 0.25 / (0.5 - TIE + TIE)),
        # d2 = n2 + Re m2 + tol, the parties uncoupled
        ({"n1": 1.0, "n2": 0.5, "m2": -0.5000000009313226}, 0.5 + -0.5000000009313226 + TIE),
        # d3 = n2 + tol - (1/2)^2 / (n2 + tol), the mirror's d3 the same
        ({"n1": 1.0, "n2": 0.5 - TIE}, (0.5 - TIE + TIE) - 0.25 / (0.5 - TIE + TIE)),
    ], ids=["pivot-1", "pivot-2", "pivot-3-and-mirror"])
    def test_a_later_pivot_of_exactly_zero_is_nonphysical(self, state, pivot, capsys):
        # the kernel's pivot 1, 2 or 3 is exactly 0.0 in float64 and is
        # rejected, not divided by or read as positive
        assert pivot == 0.0
        p = GaussianParams(**state)
        assert not covariance.is_physical(p, self.TIE)
        assert covariance._elimination_verdicts(p, self.TIE, 0.5) == (False, False)
        argv = ["check", *(f"--{key}={value!r}" for key, value in state.items()),
                f"--tol={self.TIE!r}"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "NonPhysicalStateError",
                                   "message": "state violates the uncertainty principle"}

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

    def test_oracle_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "fock", "--l1", "0.5", "--l2", "0"])
        assert exc.value.code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "UsageError"
        assert payload["usage"] == "usage: gausspair [-h] {check,transform,sweep,tmtss} ..."

    def test_usage_error_is_json(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["check", "--n1", "oops", "--n2", "1"])
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "UsageError"
        assert "--n1" in payload["message"]
        assert payload["usage"].startswith("usage: gausspair check")

    @pytest.mark.parametrize("command, usage", [
        ("check", "usage: gausspair check [-h] --n1 N1 --n2 N2 [--m1 M1] [--m2 M2] [--ms MS]\n"
                  "                       [--mc MC] [--r R] [--tol TOL]"),
        ("transform", "usage: gausspair transform [-h] --state STATE --theta THETA [--phi0 PHI0]\n"
                      "                           [--phi1 PHI1] [--tol TOL]"),
        ("sweep", "usage: gausspair sweep [-h] [--r R] [--n-min N_MIN] [--n-max N_MAX]\n"
                  "                       [--n-steps N_STEPS] [--m-min M_MIN] [--m-max M_MAX]\n"
                  "                       [--m-steps M_STEPS] [--tol TOL] [--format {csv,matrix}]\n"
                  "                       [--out OUT]"),
        ("tmtss", "usage: gausspair tmtss [-h] --d D --r R [--nbar NBAR] [--tol TOL]"),
    ])
    def test_usage_lines_are_pinned(self, command, usage, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
        with pytest.raises(SystemExit):
            cli.main([command, "--tol", "oops"])
        assert json.loads(capsys.readouterr().err)["usage"] == usage

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

    @pytest.mark.parametrize("r, error, message", [
        ("nan", "NumericDomainError", "reference squeezing r=nan is not a number"),
        ("-1", "DegenerateStateError", "reference squeezing r=-1 must be positive"),
    ])
    def test_bad_reference_squeezing_is_named(self, r, error, message, capsys):
        code, out, err = run_cli(["check", "--n1", "1", "--n2", "1", "--r", r], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": error, "message": message}

    def test_bool_reference_squeezing_is_refused(self):
        with pytest.raises(TypeError, match="expected a number, got bool"):
            cli.run_check(GaussianParams(n1=2.0, n2=2.0, m_c=1.8), True)

    def test_large_squeezing_fidelity_is_exact(self, capsys):
        # the 4x4 determinant overflowed here, though the fidelity fits float64
        argv = ["check", "--n1", "0.9110725829205775", "--n2", "0.9110725829205775",
                "--mc", "0.5818413952215067", "--r", "131.62532012840828"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert err == ""
        want = pytest.approx(2.8525193945858743e-114, rel=1e-12, abs=0.0)
        assert json.loads(out)["fidelity"] == want

    def test_general_state_at_large_squeezing(self, capsys):
        # the 4x4 determinant gave 1.12e-44 here
        argv = ["check", "--n1", "2.86", "--n2", "1.78", "--m1=0.5,0.2", "--m2=-0.49,0",
                "--ms=-0.19,0.04", "--mc=-1.29,0.19", "--r", "35"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert err == ""
        want = pytest.approx(8.1659336160079279e-31, rel=1e-12, abs=0.0)
        assert json.loads(out)["fidelity"] == want

    def test_physical_state_at_large_moments_is_accepted(self, capsys):
        # two squeezed vacua (z ~ 3.5 and z < 1) through a random mixer, plus
        # 2e-9 on both occupations: the smallest eigenvalue of V + Sigma/2 is
        # +2.0e-9, where the rounding of a Schur bound at n1 ~ 485 exceeds tol
        code, out, err = run_cli([
            "check", "--n1", "484.5842236044795", "--n2", "183.67283004782493",
            "--m1=299.11760473778344,-381.2462648612739",
            "--m2=-181.42747680380808,28.60009314617195",
            "--ms=-65.68975018225811,-168.3912593479519",
            "--mc=92.43799735460354,155.33042193512333",
        ], capsys)
        assert code == 0, err
        assert json.loads(out)["physical"] is True

    def test_overflowing_overlap_exits_2(self, capsys):
        code, out, err = run_cli(["check", "--n1", "1e100", "--n2", "1e200"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "NumericDomainError"


def _exit_output(parse, argv, capsys):
    # the exit code, stdout and stderr of a parse that exits
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--n-steps", "2", "--m-steps", "2", "extra"],
        ["check", "--n1", "2"],
        ["bogus"],
        [],
        ["check", "--help"],
        ["transform", "--help"],
        ["sweep", "--help"],
        ["tmtss", "--help"],
    ])
    def test_bytes_are_the_full_parsers(self, argv, capsys, monkeypatch):
        # main's reused parser prints what a new full parser would
        monkeypatch.setenv("COLUMNS", "80")
        want = _exit_output(cli.build_parser().parse_args, argv, capsys)
        assert _exit_output(cli.main, argv, capsys) == want

    def test_usage_error_after_a_command_names_every_command(self, capsys):
        code, _, err = _exit_output(cli.main, ["sweep", "--n-steps", "2", "--m-steps", "2",
                                               "extra"], capsys)
        assert code == 1
        payload = json.loads(err)
        assert payload["message"] == "gausspair: unrecognized arguments: extra"
        assert payload["usage"] == "usage: gausspair [-h] {check,transform,sweep,tmtss} ..."

    def test_main_builds_its_parser_once(self, capsys):
        cli._parser.cache_clear()
        for argv in (["tmtss", "--d", "0.5", "--r", "-0.3"], ["check", "--n1", "0.5",
                     "--n2", "0.5"], ["bogus"]):
            with contextlib.suppress(SystemExit):
                cli.main(argv)
        capsys.readouterr()
        assert cli._parser.cache_info().misses == 1

    def test_a_reused_parser_carries_nothing_between_calls(self, capsys, monkeypatch):
        # a usage error, help, a flag and the same command without it, in one
        # process: each gives what a new full parser gives, and --tol's
        # default comes back
        monkeypatch.setenv("COLUMNS", "80")
        tols = []
        run_check = cli.run_check
        monkeypatch.setattr(cli, "run_check",
                            lambda p, r, tol: tols.append(tol) or run_check(p, r, tol))
        state = ["--n1", "2", "--n2", "2", "--mc", "1.8"]
        for argv in (["check", "--n1", "2"], ["sweep", "--help"],
                     ["check", *state, "--tol", "1e-6"], ["check", *state]):
            try:
                args = cli.build_parser().parse_args(argv)
            except SystemExit as exc:
                captured = capsys.readouterr()
                want = exc.code, captured.out, captured.err
                assert _exit_output(cli.main, argv, capsys) == want
                continue
            want = 0, json.dumps(args.run(args), sort_keys=True) + "\n", ""
            assert run_cli(argv, capsys) == want
        assert tols == [1e-6, 1e-6, covariance.DEFAULT_TOL, covariance.DEFAULT_TOL]


def _value_flags():
    # (command argv, flag) for every float, int and complex flag of every
    # command, after the command's required flags
    required = {"check": ["--n1", "2", "--n2", "2"], "transform": ["--state", "STATE"],
                "sweep": ["--n-steps", "3", "--m-steps", "3"], "tmtss": ["--d", "0.5", "--r", "0.3"]}
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [([command, *required[command]], flag)
            for command, parser in sub.choices.items() for action in parser._actions
            if action.type in (float, int, cli.parse_complex) for flag in action.option_strings]


class TestNegativeValues:
    """A value that starts with "-" reads after a space as it does after "="."""

    @pytest.mark.parametrize("argv, flag", _value_flags())
    @pytest.mark.parametrize("value", ["-1e-3", "-.5", "-0.19,0.04", "-2E+1,-1e-1", "-inf"])
    def test_space_form_is_the_equals_form(self, argv, flag, value, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text('{"n1": 2.0, "n2": 2.0, "mc": [1.8, 0.0]}', encoding="utf-8")
        argv = [str(state) if arg == "STATE" else arg for arg in argv]
        spaced = _run_guarded([*argv, flag, value], capsys)
        assert spaced == _run_guarded([*argv, f"{flag}={value}"], capsys)
        assert "expected one argument" not in spaced[2]

    @pytest.mark.parametrize("argv", [
        ["check", "--n1", "-1e-3", "--n2", "1"],
        ["check", "--n1", "2.86", "--n2", "1.78", "--m1", "0.5,0.2", "--m2", "-0.49",
         "--ms", "-0.19,0.04", "--mc", "-1.29,0.19"],
        ["tmtss", "--d", "0.5", "--r", "-3e-1"],
        ["sweep", "--n-min", "-1e-1", "--n-steps", "3", "--m-steps", "3"],
    ])
    def test_negative_values_parse(self, argv):
        args = cli.build_parser().parse_args(argv)
        for flag, text in zip(argv[1::2], argv[2::2]):
            want = cli.parse_complex(text) if "," in text else float(text)
            assert getattr(args, flag[2:].replace("-", "_")) == want

    @pytest.mark.parametrize("argv", [["check", "--n1", "2", "--n2", "2", "--ms", "-x"],
                                      ["check", "--n1", "-x", "--n2", "2"],
                                      ["sweep", "--r", "-r"]])
    def test_a_non_number_stays_a_usage_error(self, argv, capsys):
        code, out, err = _run_guarded(argv, capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "UsageError"


class TestRunCheck:
    def test_composition_matches_library(self):
        p = GaussianParams(n1=2, n2=2, m_c=1.4)
        payload = cli.run_check(p, 1.0)
        assert payload["separable"] is True
        assert payload["p_representable"] is True

    def test_nonphysical_raises(self):
        with pytest.raises(NonPhysicalStateError, match="violates the uncertainty principle"):
            cli.run_check(GaussianParams(n1=1, n2=1, m_c=1.8), 1.0)

    @pytest.mark.parametrize("p, verdicts", [
        (GaussianParams(n1=2, n2=2, m1=0.3, m2=0.2j, m_s=0.4, m_c=1.2), [True, True]),
        (GaussianParams(n1=2, n2=2, m1=0.3, m2=0.2j, m_s=0.4, m_c=1.5), [False, False]),
        # nonphysical, with a physical party-2 mirror
        (GaussianParams(n1=2, n2=2, m_s=1.8), None),
        # separable, with a squeezed party 1 that is not classical
        (GaussianParams(n1=1.1, n2=0.5, m1=0.8660254037844386), [True, False]),
    ], ids=["separable", "entangled", "nonphysical", "separable-nonclassical"])
    def test_each_pass_runs_at_most_once(self, kernel_passes, p, verdicts):
        # one uncertainty pass decides the state and its party-2 mirror at the
        # checked tol; the joint pass runs once, and only on a physical
        # separable state, since joint classicality implies both; verdicts
        # are (separable, p_representable)
        if verdicts is None:
            with pytest.raises(NonPhysicalStateError):
                cli.run_check(p, 1.0, Fraction(1, 10**6))
        else:
            payload = cli.run_check(p, 1.0, Fraction(1, 10**6))
            assert [payload["separable"], payload["p_representable"]] == verdicts
        separable = bool(verdicts and verdicts[0])
        assert kernel_passes == [(1e-6, 0.5)] + [(1e-6 - 0.5, 0.0)] * separable
        assert all(type(shift) is float for shift, _ in kernel_passes)

    def test_matrix_route_stays_off_the_check_path(self, monkeypatch):
        # the overlap and the joint test come from the moments: with every
        # matrix route refusing, a general state still gets its referee values
        p = GaussianParams(n1=2.86, n2=1.78, m1=0.5 + 0.2j, m2=-0.49,
                           m_s=-0.19 + 0.04j, m_c=-1.29 + 0.19j)
        fidelity = oracle.reference_overlap_decimal(p, 1.0)
        joint = oracle.is_p_representable_joint_eig(covariance.build_covariance(p))

        def refuse(*args, **kwargs):
            raise AssertionError("matrix route called")

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gausspair"]
        for route in (covariance.build_covariance, measures.trace_overlap):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is route:
                        monkeypatch.setattr(module, attr, refuse)
        monkeypatch.setattr(np.linalg, "det", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        overlaps = []
        original = measures._reference_overlap
        monkeypatch.setattr(measures, "_reference_overlap",
                            lambda *a: overlaps.append(a) or original(*a))
        payload = cli.run_check(p, 1.0)
        assert len(overlaps) == 1
        assert payload["fidelity"] == pytest.approx(fidelity, rel=1e-12, abs=0.0)
        assert payload["p_representable"] is joint

    @staticmethod
    def assert_payload_is_the_report(p, r):
        # the measures are entanglement_degree's report, p_representable is
        # is_p_representable_joint, and a nonphysical state raises in both
        # routes and is not classical
        try:
            report = measures.entanglement_degree(p, r)
        except NonPhysicalStateError:
            with pytest.raises(NonPhysicalStateError):
                cli.run_check(p, r)
            assert classicality.is_p_representable_joint(p) is False
            return
        payload = cli.run_check(p, r)
        assert [payload[key] for key in ("fidelity", "bures", "degree", "separable", "r")] == [
            report.fidelity, report.bures, report.degree, report.separable, r]
        assert payload["p_representable"] is classicality.is_p_representable_joint(p)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(0.5, 4.0), st.floats(0.5, 4.0), moments(2.0), moments(2.0),
           moments(2.0), moments(2.0), st.floats(1e-6, 170.0))
    def test_payload_is_the_entanglement_degree_report(self, n1, n2, m1, m2, m_s, m_c, r):
        self.assert_payload_is_the_report(
            GaussianParams(n1=n1, n2=n2, m1=m1, m2=m2, m_s=m_s, m_c=m_c), r)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(joint_band_states(near_vacuum=False), joint_band_states(near_vacuum=True)),
           st.floats(1e-6, 170.0))
    def test_payload_is_the_report_in_the_joint_tol_band(self, p, r):
        self.assert_payload_is_the_report(p, r)

    def test_warm_reference_is_not_recomputed(self, monkeypatch):
        p = GaussianParams(n1=2.86, n2=1.78, m1=0.5 + 0.2j, m2=-0.49,
                           m_s=-0.19 + 0.04j, m_c=-1.29 + 0.19j)
        measures._reference.cache_clear()
        cold = cli.run_check(p, 1.0)
        info = measures._reference.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        assert cli.run_check(p, 1.0) == cold
        info = measures._reference.cache_info()
        assert (info.hits, info.misses) == (1, 1)


OVERFLOWING_STATE_FILES = [
    '{"n1": 2.0, "n2": 2.0, "m1": [0.5, -1.0], "m2": [0.2, -1.0], "ms": [1e+308, 0.2], "mc": 1e-300}',
    '{"n1": 2.0, "n2": 2.0, "ms": [1e+308, 0.0]}',
]


class TestTransform:
    def write_state(self, tmp_path, **kwargs):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(kwargs), encoding="utf-8")
        return str(path)

    @staticmethod
    def payload(state, angles):
        # the command's payload for a state-file object at (theta, phi0, phi1),
        # each angle written with repr
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/state.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(state, fh)
            argv = ["transform", "--state", path,
                    *(f"--{name}={x!r}" for name, x in zip(("theta", "phi0", "phi1"), angles))]
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0
        return json.loads(out.getvalue())

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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=10, max_size=10),
           st.lists(st.floats(-7.0, 7.0), min_size=3, max_size=3))
    def test_residuals_are_those_of_coupling_residuals(self, moments, angles):
        # the command reads them off the output cross moments: the same bits
        # in the normal range; below it halving rounds, and a zero may flip sign
        n1, n2, *parts = moments
        state = {"n1": n1, "n2": n2}
        for key, re, im in zip(("m1", "m2", "ms", "mc"), parts[0::2], parts[1::2]):
            state[key] = [re, im]
        payload = self.payload(state, angles)
        p = GaussianParams(n1, n2, *(complex(re, im) for re, im in zip(parts[0::2], parts[1::2])))
        r1, r2 = coupling_residuals(p, MixerConfig(*angles))
        got = payload["residuals"]["anomalous"] + payload["residuals"]["balance"]
        for read, want in zip(got, (r1.real, r1.imag, r2.real, r2.imag)):
            if abs(want) >= 2.0 ** -1021:
                assert read.hex() == want.hex()
            else:
                assert abs(read - want) <= 2.0 ** -1074
        assert payload["decoupled"] == (max(abs(r1), abs(r2)) < cli.DEFAULT_TOL)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.lists(moments(1e3), min_size=4, max_size=4),
           st.lists(st.floats(-7.0, 7.0), min_size=3, max_size=3))
    @example(2.86, 1.78, [0.5 + 0.2j, -0.49 + 0j, -0.19 + 0.04j, -1.29 + 0.19j], [0.7, 0.3, -1.1])
    @example(2.0, 2.0, [0.3 + 0j, -0.3 + 0j, 0j, 0j], [-0.0, 0.3, -1.1])  # anomalous -0.0 + 0j
    def test_output_is_transform_blocks_bit_for_bit(self, n1, n2, parts, angles):
        # the blocks as transform_blocks gives them, the port modes as
        # mode_params reads them off and the residuals as -2 m_c and 2 m_s of
        # cp; json.dumps keeps the sign of zero
        p = GaussianParams(n1, n2, *parts)
        payload = self.payload(cli.state_to_json(p), angles)
        blocks = transform_blocks(p, MixerConfig(*angles))
        want = {key: [[z.real, z.imag] for row in getattr(blocks, key) for z in row]
                for key in ("v1p", "v2p", "cp")}
        for key, block in (("mode1", blocks.v1p), ("mode2", blocks.v2p)):
            md = classicality.mode_params(block)
            want[key] = {"n": md.n, "m": [md.m.real, md.m.imag]}
        (ms, mc), _ = blocks.cp
        want["residuals"] = {"anomalous": [(-2.0 * mc).real, (-2.0 * mc).imag],
                             "balance": [(2.0 * ms).real, (2.0 * ms).imag]}
        got = [payload[key] for key in want]
        assert json.dumps(got, sort_keys=True) == json.dumps(list(want.values()), sort_keys=True)

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
        pytest.param('{"n1": ' + "[" * 200_000 + "]" * 200_000 + ', "n2": 1}', "nested too deeply",
                     id="nested-200000-levels"),
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

    @pytest.mark.parametrize("text, fragment", [
        ('{"n1": true, "n2": 1.0, "mc": [false, 0.5]}', "real value 'n1'"),
        ('{"n1": 1.0, "n2": false}', "real value 'n2'"),
        ('{"n1": "1.5", "n2": 1.0}', "real value 'n1'"),
        ('{"n1": [1.5], "n2": 1.0}', "real value 'n1'"),
        ('{"n1": 1.0, "n2": 1.0, "mc": [false, 0.5]}', "complex value 'mc'"),
        ('{"n1": 1.0, "n2": 1.0, "ms": true}', "complex value 'ms'"),
        ('{"n1": 1.0, "n2": 1.0, "m1": "0.3"}', "complex value 'm1'"),
        ('{"n1": 1.0, "n2": 1.0, "m2": ["0.3", 0.1]}', "complex value 'm2'"),
        ('{"n1": 1.0, "n2": 1.0, "m2": [0.3, null]}', "complex value 'm2'"),
        ('{"n1": 1.0, "n2": 1.0, "mc": [[0.3], 0.1]}', "complex value 'mc'"),
        ('{"n1": 1' + "0" * 400 + ', "n2": 1.0}', "real value 'n1'"),
        ('{"n1": 1.0, "n2": 1.0, "ms": [1' + "0" * 400 + ', 0]}', "complex value 'ms'"),
        ('{"n1": NaN, "n2": 1.0}', "real value 'n1' from nan"),
        ('{"n1": 1.0, "n2": 1.0, "mc": [0.5, -Infinity]}', "complex value 'mc'"),
    ])
    def test_only_json_numbers_are_read(self, tmp_path, capsys, text, fragment):
        path = tmp_path / "state.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["transform", "--state", str(path), "--theta", "0.3"], capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert fragment in payload["message"]

    @pytest.mark.parametrize("text", OVERFLOWING_STATE_FILES)
    @pytest.mark.parametrize("flags", [["--theta=2", "--phi1=2"], ["--theta=0"]])
    def test_overflowing_residuals_exit_2(self, tmp_path, capsys, text, flags):
        # a residual past float64: a finite one whose abs overflows at the
        # first flags, inf + nan j at the second
        path = tmp_path / "state.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["transform", "--state", str(path), *flags], capsys)
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["error"] == "NumericDomainError"
        assert "residuals are not finite" in payload["message"]

    def test_phase_beyond_half_max_float_is_accepted(self, tmp_path, capsys):
        # 2 phi1 passes float64, and e^{2 i phi1} is sigma squared
        path = self.write_state(tmp_path, n1=3.0, n2=3.0)
        code, out, err = run_cli(
            ["transform", "--state", path, "--theta=0", "--phi1=1e308"], capsys
        )
        assert (code, err) == (0, "")
        payload = _strict_json(out)
        assert payload["decoupled"] is True
        assert payload["mode1"] == {"n": 3.0, "m": [0.0, 0.0]}

    def test_mixer_overflow_is_named(self, tmp_path, capsys):
        path = self.write_state(tmp_path, n1=1e308, n2=-1e308, ms=[1e308, 0])
        code, out, err = run_cli(["transform", "--state", path, "--theta=0.7"], capsys)
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["error"] == "NumericDomainError"
        assert "mixer" in payload["message"]

    @pytest.mark.parametrize("theta", ["1e308", "-1e308", "8.99e307"])
    def test_angle_whose_double_overflows_is_named(self, tmp_path, capsys, theta):
        path = self.write_state(tmp_path, n1=2.0, n2=2.0, mc=[1.8, 0.0])
        code, out, err = run_cli(["transform", "--state", path, f"--theta={theta}"], capsys)
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["error"] == "NumericDomainError"
        assert "mixer angle theta" in payload["message"]

    def test_json_integers_read_as_floats(self, tmp_path, capsys):
        argv = ["transform", "--theta", "0.3", "--state"]
        ints = self.write_state(tmp_path, n1=2, n2=3, m1=1, mc=[1, -1])
        _, want, _ = run_cli(argv + [ints], capsys)
        floats = self.write_state(tmp_path, n1=2.0, n2=3.0, m1=[1.0, 0.0], mc=[1.0, -1.0])
        code, out, _ = run_cli(argv + [floats], capsys)
        assert code == 0
        assert out == want

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

    @pytest.mark.parametrize("flags", [
        ["--d", "1", "--r", "400"],  # exp(-p) of p = d -/+ 2r below about -709 overflows
        ["--d", "0", "--r", "-400"],
        ["--d", "1e300", "--r", "1e300"],
        ["--d", "1e308", "--r", "1", "--nbar", "1e308"],  # infinite envelope factors: NaN n and m
    ])
    def test_float64_overflow_is_typed(self, flags, capsys):
        code, out, err = run_cli(["tmtss", *flags], capsys)
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["error"] == "NumericDomainError"
        assert "overflow" in payload["message"]


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

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_nonpositive_r_is_the_check_error(self, r, capsys):
        # one rule for the reference squeezing: measures.separable_distance's
        code, out, err = run_cli(["sweep", "--r", r], capsys)
        assert (code, out) == (2, "")
        assert run_cli(["check", "--n1", "1", "--n2", "1", "--r", r], capsys) == (code, out, err)
        assert json.loads(err) == {"error": "DegenerateStateError",
                                   "message": f"reference squeezing r={r} must be positive"}

    @pytest.mark.parametrize("flag", ["--r", "--n-min", "--n-max", "--m-min", "--m-max", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_field_has_one_message(self, flag, value, capsys):
        code, out, err = run_cli(["sweep", f"{flag}={value}", "--n-steps", "3", "--m-steps", "3"],
                                 capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "sweep parameters must be finite"}

    def test_unallocatable_grid_exits_2(self, tmp_path, capsys, monkeypatch):
        # a grid too large for memory is a JSON error, not a traceback; no
        # real grid is allocated
        def refuse(cfg):
            raise MemoryError("Unable to allocate 22.4 GiB for an array")
        monkeypatch.setattr(cli, "sweep_grid", refuse)
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(["sweep", "--n-steps", "3000000000", "--out", str(out_path)],
                                 capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "MemoryError",
                                   "message": "Unable to allocate 22.4 GiB for an array"}
        assert not out_path.exists()

    # --out rewrites an existing file in place and cuts it to the bytes written

    @pytest.mark.parametrize("fmt", ["csv", "matrix"])
    @pytest.mark.parametrize("old", [b"x" * 2_000_000, b"x" * 10], ids=["longer", "shorter"])
    def test_an_existing_file_becomes_the_golden_bytes(self, fmt, old, tmp_path, capsys):
        out_path = tmp_path / "surface"
        out_path.write_bytes(old)
        assert run_cli(["sweep", "--format", fmt, "--out", str(out_path)], capsys) == (0, "", "")
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == GOLDEN[f"default_{fmt}"]

    def test_dev_null_is_written_as_a_stream(self, capsys):
        # a character device has no length to cut
        assert run_cli(["sweep", "--out", os.devnull], capsys) == (0, "", "")

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_dev_stdout_into_a_pipe_gives_the_plain_bytes(self):
        # stdout is a pipe, which cannot seek: no cut, and the stream's bytes
        argv = [sys.executable, "-m", "gausspair", "sweep"]
        plain = subprocess.run(argv, capture_output=True, timeout=120)
        via_out = subprocess.run([*argv, "--out", "/dev/stdout"], capture_output=True, timeout=120)
        assert (via_out.returncode, via_out.stderr) == (0, b"")
        assert via_out.stdout == plain.stdout
        assert hashlib.sha256(plain.stdout).hexdigest() == GOLDEN["default_csv"]

    def test_a_failed_write_leaves_no_stale_tail(self, tmp_path, capsys, monkeypatch):
        # the disk fills after the header and the first row block
        written = []
        write_csv = cli.write_sweep_csv

        class FullDisk:
            def __init__(self, stream):
                self.stream = stream

            def write(self, chunk):
                if len(written) == 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                written.append(bytes(chunk))
                return self.stream.write(chunk)

        monkeypatch.setattr(cli, "write_sweep_csv",
                            lambda result, fh: write_csv(result, FullDisk(fh)))
        out_path = tmp_path / "surface.csv"
        out_path.write_bytes(b"x" * 2_000_000)
        code, out, err = run_cli(["sweep", "--out", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "OSError",
                                   "message": f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"}
        assert len(written) == 2 and written[0] == b"n,m,class,E\n"
        assert out_path.read_bytes() == b"".join(written)

    def test_a_failing_grid_leaves_an_existing_file_as_it_was(self, tmp_path, capsys, monkeypatch):
        def refuse(cfg):
            raise MemoryError("Unable to allocate 22.4 GiB for an array")
        monkeypatch.setattr(cli, "sweep_grid", refuse)
        out_path = tmp_path / "surface.csv"
        old = b"n,m,class,E\n" + b"x" * 100_000
        out_path.write_bytes(old)
        code, out, _ = run_cli(["sweep", "--n-steps", "3000000000", "--out", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert out_path.read_bytes() == old

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_new_file_is_created_with_the_umask_mode(self, umask, tmp_path, capsys):
        out_path = tmp_path / "surface.csv"
        previous = os.umask(umask)
        try:
            code = run_cli(["sweep", "--n-steps", "3", "--m-steps", "3", "--out", str(out_path)],
                           capsys)[0]
        finally:
            os.umask(previous)
        assert code == 0
        assert stat.S_IMODE(out_path.stat().st_mode) == 0o666 & ~umask


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
    '{"n1": 1, "n2": 1, "mc": ' + "[" * 200_000 + "]" * 200_000 + "}",
    '{"n1": 3.0, "n2": 3.0}', '{"n1": 1e308, "n2": -1e308, "ms": [1e308, 0]}',
    *OVERFLOWING_STATE_FILES,
]


def _run_guarded(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strict_json(text):
    # json.loads also reads Infinity and NaN, which are not JSON
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _assert_clean_outcome(argv, code, out, err) -> int:
    if code == 0:
        _strict_json(out)
        assert err == "", argv
    else:
        assert code in (1, 2), argv
        assert out == "", argv
        assert "error" in _strict_json(err), argv
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

    def test_tmtss_flags(self, capsys):
        rng = random.Random(9)
        codes = Counter()
        for _ in range(400):
            argv = ["tmtss"]
            for flag in ("--d", "--r", "--nbar", "--tol"):
                if flag in ("--d", "--r") or rng.random() < 0.5:
                    value = _fuzz_value(rng)
                    if flag == "--r" and rng.random() < 0.3:
                        value = "-" + value  # negative squeezing is a valid model input
                    argv.append(f"{flag}={value}")
            codes[_assert_clean_outcome(argv, *_run_guarded(argv, capsys))] += 1
        assert min(codes.values()) >= 10, codes

    def test_sweep_flags(self, tmp_path, capsys):
        # only 0, -1, 2 and 3 parse as ints, so every grid is tiny
        rng = random.Random(10)
        codes = Counter()
        out_path = tmp_path / "sweep.txt"
        flags = ["--r", "--n-min", "--n-max", "--m-min", "--m-max", "--tol"]
        for _ in range(800):
            out_path.unlink(missing_ok=True)
            argv = ["sweep", f"--format={rng.choice(['csv', 'matrix'])}", f"--out={out_path}",
                    f"--n-steps={_fuzz_value(rng)}", f"--m-steps={_fuzz_value(rng)}"]
            argv += [f"{flag}={_fuzz_value(rng)}" for flag in flags if rng.random() < 0.5]
            code, out, err = _run_guarded(argv, capsys)
            if code == 0:
                assert (out, err) == ("", ""), argv
                assert out_path.stat().st_size > 0, argv
            else:
                _assert_clean_outcome(argv, code, out, err)
                assert not out_path.exists(), argv
            codes[code] += 1
        assert min(codes.values()) >= 10, codes

    def test_malformed_state_files(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        argv = ["transform", "--state", str(path), "--theta", "0.7853981633974483"]
        for text in FUZZ_STATE_FILES:
            path.write_text(text, encoding="utf-8")
            _assert_clean_outcome(argv, *_run_guarded(argv, capsys))


HALF_MAX = sys.float_info.max / 2  # the largest angle whose double is finite
PAST_HALF_MAX = math.nextafter(HALF_MAX, math.inf)
CORPUS_ANGLES = ["0", "-0", "0.7853981633974483", "-1.5707963267948966", "1e-300", "5e-324",
                 "1e308", "-1e308", "8.99e307", repr(HALF_MAX), repr(-HALF_MAX),
                 repr(PAST_HALF_MAX), repr(-PAST_HALF_MAX), "nan", "-nan", "inf", "-inf",
                 "1e400", "oops", "1,2", ""]
CORPUS_TOLS = ["1e-9", "0", "-0", "1e-300", "0.5", "1e308", "-1", "nan", "inf", "1e400", "oops"]
# JSON values no state-file key admits
CORPUS_GARBAGE = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400, '"x"',
                  "true", "null", "[]", "[1]", "[1, 2, 3]", "{}", "[NaN, 0]", '["1", 0]']
CORPUS_FILES = ["", "{", "null", "[]", "3", '{"n1": 2}']


def _corpus_number(rng, huge) -> str:
    # a JSON number: ordinary, up to 1e308 either sign, a signed zero or a
    # subnormal; past 1e300 where huge
    kind = rng.random()
    if huge:
        x = math.copysign(10.0 ** rng.uniform(300.0, 308.0), kind - 0.5)
    elif kind < 0.5:
        x = rng.uniform(-3.0, 3.0)
    elif kind < 0.75:
        x = rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.5, 2.0,
                        1e154, 1e308, -1e308, sys.float_info.max])
    else:
        x = math.copysign(10.0 ** rng.uniform(-323.0, 308.0), rng.random() - 0.5)
    return repr(x)


def _corpus_state(rng) -> str | None:
    # a state file's text, None for no file: each key missing, garbage, a
    # number or, for a moment, [re, im]
    if rng.random() < 0.04:
        return rng.choice(CORPUS_FILES + [None])
    huge, items = rng.random() < 0.15, []
    for key in ("n1", "n2", "m1", "m2", "ms", "mc"):
        pick = rng.random()
        if pick < 0.08:
            continue
        if pick < 0.12:
            value = rng.choice(CORPUS_GARBAGE)
        elif key.startswith("m") and pick < 0.6:
            value = f"[{_corpus_number(rng, huge)}, {_corpus_number(rng, huge)}]"
        else:
            value = _corpus_number(rng, huge)
        items.append(f'"{key}": {value}')
    return "{" + ", ".join(items) + "}"


def _corpus_flag(rng, flag, value) -> list:
    # "--flag=value", or "--flag value", where a leading "-" must read as a number
    return [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]


def test_transform_corpus_bytes(tmp_path, monkeypatch, capsys):
    """3,000 seeded ``transform`` runs, hashed: exit code, stdout and stderr,
    with the state file's path as ``<state>``.

    States hold moments up to 1e308, signed zeros, subnormals, missing keys
    and garbage values; angles sit at ``sys.float_info.max / 2`` and one ulp
    past it; angles, phases and ``tol`` take ``nan``, ``inf``, ``1e400`` and
    garbage too.  The hash pins CPython's float formatting and libm, and
    argparse's usage line at 80 columns.  After a change meant to move these
    bytes, the failure prints the new hash for ``GOLDEN``:
    ``PYTHONPATH=src python -m pytest -q tests/test_cli.py -k transform_corpus``.
    """
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(45)
    path = tmp_path / "state.json"
    digest, codes, refused = hashlib.sha256(), Counter(), 0
    for _ in range(3000):
        text = _corpus_state(rng)
        if text is None:
            path.unlink(missing_ok=True)
        else:
            path.write_text(text, encoding="utf-8")
        argv = ["transform", "--state", str(path)]
        argv += _corpus_flag(rng, "--theta", rng.choice(CORPUS_ANGLES) if rng.random() < 0.6
                             else repr(rng.uniform(-7.0, 7.0)))
        for flag in ("--phi0", "--phi1"):
            if rng.random() < 0.4:
                argv += _corpus_flag(rng, flag, rng.choice(CORPUS_ANGLES) if rng.random() < 0.5
                                     else repr(rng.uniform(-7.0, 7.0)))
        if rng.random() < 0.3:
            argv += _corpus_flag(rng, "--tol", rng.choice(CORPUS_TOLS))
        code, out, err = _run_guarded(argv, capsys)
        digest.update(f"{code}\n{out}\n{err}\n".replace(str(path), "<state>").encode())
        codes[code] += 1
        refused += "2 theta overflows" in err
    assert min(codes[0], codes[1], codes[2], refused) >= 100, (codes, refused)
    assert digest.hexdigest() == GOLDEN["transform_corpus"], digest.hexdigest()


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "gausspair", "check", "--n1", "0.5", "--n2", "0.5"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["physical"] is True


def test_readme_command_line_block_runs_as_written(tmp_path):
    # the README's "Command line" block verbatim, in an empty directory, with
    # `python -m gausspair` standing in for the console script
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    script = 'gausspair() { "$PY" -m gausspair "$@"; }\n' + block
    env = {**os.environ, "PY": sys.executable, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run(["sh", "-e", "-c", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for name, key in (("surface.csv", "default_csv"), ("surface.dat", "default_matrix")):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == GOLDEN[key]


class TestUnwritableStdout:
    """A stdout that cannot be written is a JSON error with exit 2, never a traceback."""

    COMMANDS = {
        "check": ["check", "--n1", "0.5", "--n2", "0.5"],
        "transform": ["transform", "--state", "{state}", "--theta", "0.7853981633974483"],
        "sweep": ["sweep", "--n-steps", "3", "--m-steps", "3"],
        "tmtss": ["tmtss", "--d", "0.5", "--r=-0.3"],
        "help": ["--help"],
        "sweep-help": ["sweep", "--help"],
    }

    @pytest.fixture
    def argv(self, request, tmp_path):
        state = tmp_path / "state.json"
        state.write_text('{"n1": 2.0, "n2": 2.0, "mc": [1.8, 0.0]}', encoding="utf-8")
        return [arg.replace("{state}", str(state)) for arg in self.COMMANDS[request.param]]

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", list(COMMANDS), indirect=True)
    def test_closed_pipe(self, argv, unbuffered):
        # the pipe's read end is closed first, so every write meets EPIPE,
        # where a reader that exits on its own (| true) would race
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run([sys.executable, "-m", "gausspair", *argv], stdout=write,
                                    stderr=subprocess.PIPE, text=True, timeout=120, env=env)
        finally:
            os.close(write)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert "Exception ignored" not in result.stderr
        assert json.loads(result.stderr) == {"error": "BrokenPipeError",
                                             "message": "[Errno 32] Broken pipe"}

    @pytest.mark.parametrize("argv", ["check", "sweep", "help"], indirect=True)
    def test_closed_stdout(self, argv):
        # started with fd 1 closed, the interpreter's sys.stdout is None
        result = subprocess.run(["sh", "-c", 'exec "$0" -m gausspair "$@" >&-', sys.executable,
                                 *argv], stderr=subprocess.PIPE, text=True, timeout=120)
        assert result.returncode == 2, result.stderr
        assert json.loads(result.stderr) == {"error": "OSError", "message": "stdout is closed"}
