import ast
import cmath
import copy
import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gausspair
from gausspair import (
    DegenerateStateError,
    GaussianParams,
    MixerConfig,
    NonPhysicalStateError,
    NumericDomainError,
    build_covariance,
    coupling_residuals,
    is_physical,
    is_separable,
    is_ssld,
    local_normal_form,
    mix_params,
    solve_decoupling_phases,
    transform_blocks,
)
from gausspair import cli, mixer, oracle
from gausspair.oracle import (
    COMMUTATOR_SIGNATURE, build_mixer, local_operation_matrix, mixer_inverse, transform_full,
)

from conftest import block_error, draw_mixer, draw_params, draw_physical

BS5050 = MixerConfig(theta=math.pi / 4)
ANGLE_MESSAGE = "^mixer angle theta is too large: 2 theta overflows float64$"


class TestBuildMixer:
    def test_identity_at_zero_angle(self):
        assert np.allclose(build_mixer(MixerConfig(theta=0.0)), np.eye(4), atol=1e-15)

    def test_balanced_splitter(self):
        m = build_mixer(BS5050)
        want = np.block([[np.eye(2), np.eye(2)], [-np.eye(2), np.eye(2)]]) / math.sqrt(2)
        assert np.allclose(m, want, atol=1e-15)

    def test_full_swap_at_right_angle(self):
        m = build_mixer(MixerConfig(theta=math.pi / 2))
        want = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
        assert np.allclose(m, want, atol=1e-15)

    def test_preserves_commutator_signature(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            cfg = draw_mixer(rng)
            m = build_mixer(cfg)
            mi = mixer_inverse(cfg)
            assert np.abs(m @ mi - np.eye(4)).max() < 1e-14
            assert np.abs(m @ COMMUTATOR_SIGNATURE @ mi - COMMUTATOR_SIGNATURE).max() < 1e-12
            assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-12

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(ValueError):
            MixerConfig(theta=math.inf)


class TestTransformFull:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(22)
        v = build_covariance(draw_params(rng))
        assert np.abs(transform_full(v, MixerConfig(theta=0.0)) - v).max() < 1e-15

    def test_vacuum_invariant(self):
        v = 0.5 * np.eye(4, dtype=complex)
        rng = np.random.default_rng(23)
        for _ in range(20):
            out = transform_full(v, draw_mixer(rng))
            assert np.abs(out - v).max() < 1e-14

    def test_symmetric_example_through_balanced_splitter(self):
        v = build_covariance(GaussianParams(n1=2, n2=2, m_c=1.8))
        out = transform_full(v, BS5050)
        want1 = np.array([[2.0, -1.8], [-1.8, 2.0]])
        want2 = np.array([[2.0, 1.8], [1.8, 2.0]])
        assert np.abs(out[:2, :2] - want1).max() < 1e-12
        assert np.abs(out[2:, 2:] - want2).max() < 1e-12
        assert np.abs(out[:2, 2:]).max() < 1e-12

    def test_inverse_config_recovers_input(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            v = build_covariance(draw_params(rng))
            cfg = draw_mixer(rng)
            back = transform_full(transform_full(v, cfg), cfg.inverse)
            assert np.abs(back - v).max() < 1e-10

    def test_output_stays_hermitian(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            out = transform_full(build_covariance(draw_params(rng)), draw_mixer(rng))
            assert np.abs(out - out.conj().T).max() < 1e-12


class TestTransformBlocks:
    def test_zero_angle_passthrough(self):
        rng = np.random.default_rng(26)
        p = draw_params(rng)
        b = transform_blocks(p, MixerConfig(theta=0.0))
        v = build_covariance(p)
        assert np.abs(b.v1p - v[:2, :2]).max() < 1e-15
        assert np.abs(b.v2p - v[2:, 2:]).max() < 1e-15
        assert np.abs(b.cp - v[:2, 2:]).max() < 1e-15

    def test_symmetric_class_splits_into_opposite_moments(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            n = rng.uniform(0.5, 4.0)
            m = rng.uniform(0, 2.0) * np.exp(2j * np.pi * rng.uniform())
            b = transform_blocks(GaussianParams(n1=n, n2=n, m_c=m), BS5050)
            assert abs(b.v1p[0][0] - n) < 1e-12
            assert abs(b.v1p[0][1] - (-m)) < 1e-12
            assert abs(b.v2p[0][1] - m) < 1e-12
            assert np.abs(b.cp).max() < 1e-12
            # the output m_c is cos(pi/2) m_c, with cos(pi/2) = 6.1e-17 in
            # float64; cos^2 - sin^2 at the same angle leaves 2.2e-16
            assert abs(b.cp[0][1]) <= 1e-16 * abs(m)

    def test_mixing_uncorrelated_unequal_modes_creates_correlation(self):
        p = GaussianParams(n1=2.0, n2=1.0)
        b = transform_blocks(p, BS5050)
        v1 = np.diag([2.0, 2.0])
        v2 = np.diag([1.0, 1.0])
        assert np.abs(b.cp - (v1 - v2) / 2).max() < 1e-12

    def test_blockwise_matches_full_transform(self):
        rng = np.random.default_rng(28)
        for _ in range(500):
            p = draw_params(rng, m_hi=2.0)
            cfg = draw_mixer(rng)
            full = transform_full(build_covariance(p), cfg)
            assert block_error(full, transform_blocks(p, cfg)) < 1e-10

    def test_blocks_are_nested_tuples_of_the_covariance_entries(self):
        # np.asarray of each block is the matching slice of the output
        # covariance, bit for bit, and every entry is a Python complex
        rng = np.random.default_rng(41)
        for _ in range(200):
            p, cfg = draw_params(rng, m_hi=2.0), draw_mixer(rng)
            b = transform_blocks(p, cfg)
            v = build_covariance(mix_params(p, cfg))
            for blk, want in ((b.v1p, v[:2, :2]), (b.v2p, v[2:, 2:]), (b.cp, v[:2, 2:])):
                assert type(blk) is tuple and [type(row) for row in blk] == [tuple, tuple]
                assert [type(x) for row in blk for x in row] == [complex] * 4
                got = np.asarray(blk)
                assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()

    def test_blocks_hermitian_with_real_diagonal(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            b = transform_blocks(draw_params(rng), draw_mixer(rng))
            for blk in map(np.asarray, (b.v1p, b.v2p)):
                assert np.abs(blk - blk.conj().T).max() < 1e-12
                assert abs(blk[0, 0].imag) < 1e-14


def _fields(p: GaussianParams) -> np.ndarray:
    return np.array([p.n1, p.n2, p.m1, p.m2, p.m_s, p.m_c])


def _phys_eig(p: GaussianParams) -> float:
    return oracle.eig_min_hermitian(build_covariance(p) + 0.5 * COMMUTATOR_SIGNATURE)


class TestMixParams:
    def test_matches_full_conjugation(self):
        rng = np.random.default_rng(35)
        for _ in range(1000):
            p = draw_params(rng, m_hi=2.0)
            cfg = draw_mixer(rng)
            want = oracle.transform_full(build_covariance(p), cfg)
            got = build_covariance(mix_params(p, cfg))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_inverse_config_round_trip(self):
        rng = np.random.default_rng(36)
        for _ in range(500):
            p = draw_params(rng)
            cfg = draw_mixer(rng)
            back = mix_params(mix_params(p, cfg), cfg.inverse)
            assert np.abs(_fields(back) - _fields(p)).max() <= 1e-12 * np.abs(_fields(p)).max()

    def test_mixers_chain_by_adding_angles(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            p = draw_params(rng)
            a, b = rng.uniform(-np.pi, np.pi, size=2)
            chained = mix_params(mix_params(p, MixerConfig(a)), MixerConfig(b))
            direct = mix_params(p, MixerConfig(a + b))
            assert np.abs(_fields(chained) - _fields(direct)).max() <= 1e-12 * np.abs(_fields(p)).max()

    def test_residuals_are_the_output_cross_moments(self):
        rng = np.random.default_rng(38)
        for _ in range(500):
            p = draw_params(rng, m_hi=2.0)
            cfg = draw_mixer(rng)
            q = mix_params(p, cfg)
            assert coupling_residuals(p, cfg) == (-2.0 * q.m_c, 2.0 * q.m_s)

    def test_overflowing_output_moments_are_a_domain_error(self):
        # the residuals stay finite; the output m1 is 2e308
        p = GaussianParams(n1=1.0, n2=1.0, m1=1e308, m2=1e308, m_c=-1e308)
        with pytest.raises(NumericDomainError, match="mixer output moments overflow"):
            mix_params(p, BS5050)
        with pytest.raises(NumericDomainError, match="mixer output moments overflow"):
            transform_blocks(p, BS5050)

    def test_preserves_physicality(self):
        # the mixer commutes with the commutator signature, so V + Sigma/2 is
        # only rotated: its spectrum and the physicality verdict carry over
        rng = np.random.default_rng(39)
        for i in range(400):
            p = draw_params(rng, m_hi=1.2 if i % 2 else 5.0)
            q = mix_params(p, draw_mixer(rng))
            e_in, e_out = _phys_eig(p), _phys_eig(q)
            assert abs(e_out - e_in) <= 1e-11 * max(1.0, np.abs(_fields(p)).max())
            if abs(e_in) > 1e-7:
                assert is_physical(q) == is_physical(p) == (e_in > 0)

    def test_blocks_are_the_mixed_moments(self):
        rng = np.random.default_rng(40)
        p, cfg = draw_params(rng), draw_mixer(rng)
        assert block_error(build_covariance(mix_params(p, cfg)), transform_blocks(p, cfg)) == 0.0


def _hex(z) -> tuple[str, str]:
    # (real, imag) as exact hex strings, so -0.0 and 0.0 differ
    return complex(z).real.hex(), complex(z).imag.hex()


def _outcome(entry, p, cfg):
    # the result, or the message of the domain error raised instead
    try:
        return entry(p, cfg)
    except NumericDomainError as err:
        return str(err)


# states of the overflow tests, each with the configs that reach its error
_OVERFLOW_CASES = [
    (GaussianParams(n1=1.0, n2=1.0, m1=1e308, m2=1e308, m_c=-1e308), BS5050),  # output m1
    (GaussianParams(n1=1e308, n2=-1e308, m_s=1e308), MixerConfig(0.7)),  # output n1
    (GaussianParams(n1=2.0, n2=2.0, m_s=1e308), MixerConfig(0.0)),  # residual inf + nan j
    (GaussianParams(n1=2.0, n2=2.0, m1=0.5 - 1j, m2=0.2 - 1j, m_s=1e308 + 0.2j, m_c=1e-300),
     MixerConfig(2.0, phi1=2.0)),  # residual modulus
    (GaussianParams(n1=2.0, n2=2.0, m_s=1e307), MixerConfig(0.0)),  # large but finite
    (GaussianParams(n1=2.0, n2=2.0, m_c=1.8), MixerConfig(sys.float_info.max / 2)),
]
_SIGNED_ZEROS = (0j, -0j, complex(-0.0, 0.0), complex(0.0, -0.0))


def _parity_cases():
    """2,400 seeded (state, config) pairs for the block parity, plus the
    overflow cases: angles 0, -0, pi/4 and random, phases 0, -0 and random,
    moments drawn, set to signed zeros, or scaled up to 1e300."""
    rng = np.random.default_rng(44)
    for i in range(2400):
        p = draw_params(rng, m_hi=(0.5, 2.0, 5.0)[i % 3])
        if i % 4 == 1:  # signed zeros in place of some moments and occupations
            zeros = [_SIGNED_ZEROS[j] for j in rng.integers(0, 4, 4)]
            keep = rng.random(4) < 0.5
            moments = [z if k else m for z, k, m in zip(zeros, keep, (p.m1, p.m2, p.m_s, p.m_c))]
            p = GaussianParams(rng.choice([p.n1, 0.0, -0.0]), p.n2, *moments)
        elif i % 4 == 2:  # moments up to the float64 range
            scale = 10.0 ** rng.uniform(-3.0, 300.0)
            p = GaussianParams(*(scale * x for x in (p.n1, p.n2, p.m1, p.m2, p.m_s, p.m_c)))
        theta, phi0, phi1 = rng.uniform(-np.pi, np.pi, 3).tolist()
        theta = (0.0, -0.0, math.pi / 4, -math.pi / 4, theta, theta)[i % 6]
        phi0, phi1 = [(0.0, -0.0, x)[j] if rng.random() < 0.3 else x
                      for j, x in zip(rng.integers(0, 3, 2), (phi0, phi1))]
        yield p, MixerConfig(theta, phi0, phi1)
    yield from _OVERFLOW_CASES


class TestBlockParity:
    """``transform_blocks`` and ``mix_params`` share one kernel: the blocks
    are the covariance layout of the mixed moments, bit for bit, and the two
    raise the same domain errors."""

    def test_blocks_are_the_layout_of_the_mixed_moments_bit_for_bit(self):
        blocks_checked = errors = 0
        for p, cfg in _parity_cases():
            q, blocks = _outcome(mix_params, p, cfg), _outcome(transform_blocks, p, cfg)
            if isinstance(q, str):
                assert blocks == q, (p, cfg)
                errors += 1
                continue
            got = [z for block in (blocks.v1p, blocks.v2p, blocks.cp) for row in block for z in row]
            assert all(type(z) is complex for z in got)
            want = [q.n1, q.m1, q.m1.conjugate(), q.n1, q.n2, q.m2, q.m2.conjugate(), q.n2,
                    q.m_s, q.m_c, q.m_c.conjugate(), q.m_s.conjugate()]
            assert [_hex(z) for z in got] == [_hex(z) for z in want], (p, cfg)
            blocks_checked += 1
        assert blocks_checked > 2000 and errors >= 4

    def test_finite_moments_whose_sum_overflows_pass(self):
        # n1 + n2 passes float64, but each output moment is finite
        p = GaussianParams(n1=1e308, n2=1e308, m1=1e308, m2=-1e308j)
        for theta in (0.0, -0.0):
            cfg = MixerConfig(theta)
            assert mix_params(p, cfg) == p
            assert transform_blocks(p, cfg).v1p[0] == (1e308 + 0j, 1e308 + 0j)

    def test_the_overflow_cases_raise_each_error(self):
        messages = {_outcome(mix_params, p, cfg) for p, cfg in _OVERFLOW_CASES}
        assert {m for m in messages if isinstance(m, str)} == {
            "mixer output moments overflow float64",
            "mixer residuals are not finite in float64",
        }


class TestConfigTerms:
    """A ``MixerConfig`` computes its angle terms once, outside its value."""

    ANGLES = [0.0, -0.0, math.pi / 4, -math.pi / 2, 1e-300, 5e-324, 2.0 ** 1000, 1e308 / 2,
              sys.float_info.max / 2]

    def test_terms_are_the_math_calls_bit_for_bit(self):
        rng = np.random.default_rng(45)
        angles = self.ANGLES + rng.uniform(-10.0, 10.0, 1000).tolist()
        phases = [0.0, -0.0, 1e308, -(2.0 ** 1000)] + rng.uniform(-10.0, 10.0, 1000).tolist()
        for k, theta in enumerate(angles):
            phi0, phi1 = phases[k % len(phases)], phases[-1 - k % len(phases)]
            terms = MixerConfig(theta, phi0, phi1)._terms
            want = (math.cos(theta), math.sin(theta), math.sin(2.0 * theta), math.cos(2.0 * theta),
                    cmath.exp(1j * phi0), cmath.exp(1j * phi1))
            assert [type(t) for t in terms] == [float] * 4 + [complex] * 2
            assert [_hex(t) for t in terms] == [_hex(t) for t in want], (theta, phi0, phi1)

    @pytest.mark.parametrize("theta", [
        1e308, -1e308, 8.99e307, sys.float_info.max, np.float64(1e308),
        math.nextafter(sys.float_info.max / 2, math.inf),  # one ulp past the largest usable
        -math.nextafter(sys.float_info.max / 2, math.inf),
    ])
    def test_an_overflowing_double_angle_is_refused(self, theta):
        with pytest.raises(NumericDomainError, match=ANGLE_MESSAGE):
            MixerConfig(theta, 0.3)
        with pytest.raises(NumericDomainError, match=ANGLE_MESSAGE):
            dataclasses.replace(MixerConfig(0.7, 0.2), theta=theta)

    def test_the_terms_stay_out_of_the_value(self):
        cfg = MixerConfig(0.7, 0.2, -0.5)
        assert cfg == MixerConfig(0.7, 0.2, -0.5) != MixerConfig(0.7, 0.2, 0.5)
        assert hash(cfg) == hash((0.7, 0.2, -0.5))
        assert repr(cfg) == "MixerConfig(theta=0.7, phi0=0.2, phi1=-0.5)"
        assert [f.name for f in dataclasses.fields(cfg)] == ["theta", "phi0", "phi1"]
        moved = dataclasses.replace(cfg, phi1=1)
        assert moved._terms == MixerConfig(0.7, 0.2, 1.0)._terms != cfg._terms
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg._terms = None
        for twin in (pickle.loads(pickle.dumps(cfg)), copy.copy(cfg), copy.deepcopy(cfg)):
            assert twin == cfg and vars(twin).keys() == vars(cfg).keys()
            assert [_hex(t) for t in twin._terms] == [_hex(t) for t in cfg._terms]


class TestOracleSplit:
    PACKAGE_DIR = Path(gausspair.__file__).parent
    PRODUCT_MODULES = tuple(sorted(f.stem for f in PACKAGE_DIR.glob("*.py") if f.stem != "oracle"))

    @classmethod
    def _package_imports(cls, module: str) -> set[str]:
        tree = ast.parse((cls.PACKAGE_DIR / f"{module}.py").read_text())
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level == 0 and not base.startswith("gausspair"):
                    continue
                base = base.removeprefix("gausspair").lstrip(".")
                if base:
                    found.add(base.split(".")[0])
                else:
                    found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("gausspair."):
                        found.add(alias.name.split(".")[1])
        return found

    def test_decision_modules_never_reach_the_oracle(self):
        # every module of the package but the oracle itself: the decision
        # modules, the CLI, the entry point and the package's __init__
        assert {"__init__", "cli", "covariance", "mixer"} <= set(self.PRODUCT_MODULES)
        for start in self.PRODUCT_MODULES:
            seen, todo = set(), [start]
            while todo:
                name = todo.pop()
                if name not in seen:
                    seen.add(name)
                    todo.extend(self._package_imports(name))
            assert "oracle" not in seen, f"{start} imports the oracle"

    def test_import_scan_sees_the_oracle_import(self):
        # positive control: the scan does see a relative import of a sibling
        assert "mixer" in self._package_imports("oracle")

    def test_importing_the_package_leaves_the_oracle_unloaded(self):
        code = "import sys, gausspair, gausspair.cli; print('gausspair.oracle' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(self.PACKAGE_DIR.parent)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_matrix_routes_live_in_the_oracle(self):
        for name in ("transform_full", "build_mixer", "mixer_inverse", "_half_blocks"):
            assert not hasattr(mixer, name)
            assert not hasattr(gausspair, name)
            assert hasattr(oracle, name)

    def test_matrix_helpers_live_in_the_oracle(self):
        # the moment layout has one writer, covariance._blocks, which only
        # mixer imports (the transform command prints transform_blocks); cli
        # and classicality take the kernel's verdicts from covariance._verdicts;
        # the one-mode and local-operation matrices are referee code
        owners = (mixer.OutputBlocks, mixer.LocalOperations, mixer, gausspair.classicality,
                  cli, gausspair)
        for owner in owners:
            for name in ("assemble", "matrix", "_rotation", "_squeeze", "mode_covariance",
                         "_output_blocks"):
                assert not hasattr(owner, name), (owner, name)
        layout = gausspair.covariance._blocks
        holders = {name for name, module in sys.modules.items() if name.split(".")[0] == "gausspair"
                   and any(value is layout for value in vars(module).values())}
        assert holders == {"gausspair.covariance", "gausspair.mixer"}
        for module in (cli, gausspair.classicality):
            for name in ("_blocks", "_elimination_verdicts", "_joint_verdict"):
                assert not hasattr(module, name), (module, name)
        assert "mode_covariance" not in gausspair.__all__
        assert hasattr(oracle, "mode_covariance") and hasattr(oracle, "local_operation_matrix")

    def test_matrix_partial_transpose_lives_in_the_oracle(self):
        assert not hasattr(gausspair.covariance, "partial_transpose")
        assert not hasattr(gausspair, "partial_transpose")
        assert hasattr(oracle, "partial_transpose")


class TestColdStart:
    """Only the sweep and the array-returning functions import numpy.

    The scalar commands and the library's mixer pipeline, from the normal
    form to each output port's classicality, run without it.
    """

    ENV = {**os.environ, "PYTHONPATH": str(TestOracleSplit.PACKAGE_DIR.parent)}
    STATE = {"n1": 1.6, "n2": 1.9, "m1": [0.3, 0.2], "m2": [-0.2, 0.1], "ms": [0.2, -0.3], "mc": [0.4, 0.1]}
    COMMANDS = {
        "check": ["check", "--n1", "1.6", "--n2", "1.9", "--m1", "0.3,0.2", "--m2=-0.2,0.1",
                  "--ms", "0.2,-0.3", "--mc", "0.4,0.1"],
        "transform": ["transform", "--state", "{state}", "--theta", "0.7", "--phi0", "0.2"],
        "tmtss": ["tmtss", "--d", "0.5", "--r", "-0.3"],
        "sweep": ["sweep", "--n-steps", "2", "--m-steps", "2"],
    }

    def _run(self, command: str, tmp_path) -> tuple[str, set[str]]:
        # a fresh `python -m gausspair`
        path = tmp_path / "state.json"
        path.write_text(json.dumps(self.STATE), encoding="utf-8")
        argv = [arg.format(state=path) for arg in self.COMMANDS[command]]
        return self._importtime("-m", "gausspair", *argv)

    def _importtime(self, *args: str) -> tuple[str, set[str]]:
        # a fresh interpreter under -X importtime, which logs every module
        # the process imports on stderr as "self | cumulative | name"
        result = subprocess.run(
            [sys.executable, "-X", "importtime", *args],
            capture_output=True, text=True, timeout=120, env=self.ENV,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stderr.splitlines()
        assert lines and all(line.startswith("import time:") for line in lines), result.stderr
        return result.stdout, {line.rsplit("|", 1)[-1].strip().split(".")[0] for line in lines}

    @pytest.mark.parametrize("command", ["check", "transform", "tmtss"])
    def test_scalar_commands_leave_numpy_unloaded(self, command, tmp_path):
        out, loaded = self._run(command, tmp_path)
        assert json.loads(out)
        assert "gausspair" in loaded
        assert "numpy" not in loaded

    def test_sweep_loads_numpy(self, tmp_path):
        # positive control: the scan does see numpy where it is imported
        out, loaded = self._run("sweep", tmp_path)
        assert out.startswith("n,m,class,E\n")
        assert "numpy" in loaded

    def test_mixer_pipeline_leaves_numpy_unloaded(self):
        # the paper's theorem through the library on one SSLD state: normal
        # form, 50:50 decoupling phases, output blocks and port classicality
        code = (
            "import math, gausspair as gp; "
            "p = gp.GaussianParams(1.5, 1.5, 0.3j, 0.3, 0.2, 0.5); "
            "normal, _ = gp.local_normal_form(p); "
            "cfg = gp.MixerConfig(math.pi / 4, *gp.solve_decoupling_phases(normal)); "
            "blocks = gp.transform_blocks(normal, cfg); "
            "ports = [gp.is_p_representable_mode(gp.mode_params(b)) for b in (blocks.v1p, blocks.v2p)]; "
            "print(gp.is_ssld(p), gp.is_separable(p), *ports)"
        )
        out, loaded = self._importtime("-c", code)
        ssld, *verdicts = out.split()
        assert ssld == "True" and len(set(verdicts)) == 1 and len(verdicts) == 3
        assert "gausspair" in loaded
        assert "numpy" not in loaded

    @pytest.mark.parametrize("call, want", [
        # the scalar class reads its port mode's one-mode criteria
        ("classify_symmetric(2.0, 1.4)", "separable"),
        # and the scalar measures are float math, also where they admit or guard
        ("round(symmetric_degree(2.0, 1.4, 1.0), 3)", "0.224"),
        ("round(separable_distance(1.0), 3)", "1.393"),
        ("bures_from_fidelity(0.25)", "1.0"),
        ("compose_bures(1.0, 1.0)", "1.5"),
        ("output_port_fidelity(gp.ModeParams(0.5), 0.0)", "1.0"),
    ], ids=["classify_symmetric", "symmetric_degree", "separable_distance",
            "bures_from_fidelity", "compose_bures", "output_port_fidelity"])
    def test_scalar_calls_leave_numpy_unloaded(self, call, want):
        out, loaded = self._importtime(
            "-c", f"import gausspair as gp; from gausspair import *; print({call})")
        assert out.split() == [want]
        assert "gausspair" in loaded
        assert "numpy" not in loaded

    def _fresh(self, code: str) -> str:
        # stdout of a fresh `python -c code`
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=self.ENV,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_run_check_leaves_argparse_json_and_numpy_unloaded(self):
        # only main parses argv and writes JSON; a module a bare interpreter
        # already holds (a site hook may load one) does not count
        bare = set(self._fresh("import sys; print(*sys.modules)").split())
        code = (
            "import sys, gausspair, gausspair.cli; "
            "p = gausspair.GaussianParams(1.6, 1.9, 0.3+0.2j, -0.2+0.1j, 0.2-0.3j, 0.4+0.1j); "
            "report = gausspair.cli.run_check(p, 1.0); "
            "print(report['degree'] > 0, *sys.modules)"
        )
        positive, *loaded = self._fresh(code).split()
        assert positive == "True"
        assert "gausspair.cli" in loaded
        assert [name for name in ("argparse", "gettext", "json", "numpy")
                if name in loaded and name not in bare] == []

    def test_parser_works_before_main(self):
        # the tests build the parser and parse values without main
        code = "\n".join([
            "import gausspair.cli as cli",
            "args = cli.build_parser().parse_args(['check', '--n1', '1.6', '--n2=1.9', '--mc', '-0.4,0.1'])",
            "print(args.command, args.n1, args.n2, args.mc, args.r, args.run is cli.cmd_check)",
            "try:",
            "    cli.parse_complex('a,b')",
            "except Exception as err:",
            "    print(type(err).__module__, type(err).__name__)",
        ])
        assert self._fresh(code).splitlines() == [
            "check 1.6 1.9 (-0.4+0.1j) 1.0 True", "argparse ArgumentTypeError"]

    def test_sweep_names_are_the_sweep_modules(self):
        # README documents them on cli, the tests patch cli.sweep_grid and
        # bench/spans.py wraps cli.sweep_grid and cli.write_sweep_csv
        from gausspair import sweep
        for name in ("SweepConfig", "sweep_grid", "write_sweep_csv", "write_sweep_matrix"):
            assert getattr(cli, name) is getattr(sweep, name)
        assert "__getattr__" not in vars(cli)

    def test_bench_traced_names_resolve(self):
        # bench/spans.py wraps getattr(gausspair.<layer>, name) for each pair
        # of its TRACED table once gausspair and gausspair.cli are imported;
        # the table is read without importing the bench
        spans = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
        traced = next(
            ast.literal_eval(node.value) for node in ast.parse(spans.read_text(encoding="utf-8")).body
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
        )
        assert len(traced) > 0
        code = (
            "import sys, gausspair, gausspair.cli; "
            f"print([(layer, name) for layer, name in {traced!r} "
            "if not hasattr(sys.modules['gausspair.' + layer], name)])"
        )
        assert self._fresh(code).strip() == "[]"


class TestCouplingResiduals:
    def test_symmetric_class_any_phases(self):
        rng = np.random.default_rng(30)
        for _ in range(30):
            p = GaussianParams(n1=1.3, n2=1.3, m_c=rng.uniform(0, 2))
            cfg = MixerConfig(math.pi / 4, rng.uniform(-3, 3), rng.uniform(-3, 3))
            r1, r2 = coupling_residuals(p, cfg)
            assert abs(r1) < 1e-12 and abs(r2) < 1e-12

    def test_equal_anomalous_moments_with_cancelling_phase_sum(self):
        p = GaussianParams(n1=1.2, n2=1.2, m1=0.3, m2=0.3)
        r1, r2 = coupling_residuals(p, MixerConfig(math.pi / 4, phi0=0.7, phi1=-0.7))
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12

    def test_unequal_anomalous_moments(self):
        r1, r2 = coupling_residuals(
            GaussianParams(n1=1, n2=1, m1=0.3, m2=0.5), BS5050
        )
        assert r1 == pytest.approx(0.2, abs=1e-12)
        assert abs(r2) < 1e-12

    def test_residuals_vanish_iff_cross_block_does(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            p = draw_params(rng, m_hi=2.0)
            cfg = draw_mixer(rng)
            r1, r2 = coupling_residuals(p, cfg)
            cp = transform_blocks(p, cfg).cp
            small_res = max(abs(r1), abs(r2)) < 1e-9
            small_cp = np.abs(cp).max() < 1e-9
            assert small_res == small_cp

    @pytest.mark.parametrize("p, cfg", [
        # a finite residual whose modulus passes float64
        (GaussianParams(n1=2.0, n2=2.0, m1=0.5 - 1j, m2=0.2 - 1j, m_s=1e308 + 0.2j, m_c=1e-300),
         MixerConfig(2.0, phi1=2.0)),
        # inf + nan j, from m_s + conj(m_s) and m_s - conj(m_s) at zero angle
        (GaussianParams(n1=2.0, n2=2.0, m_s=1e308), MixerConfig(0.0)),
    ], ids=["modulus-overflow", "inf-nan"])
    def test_non_finite_residuals_are_a_domain_error(self, p, cfg):
        with pytest.raises(NumericDomainError, match="residuals are not finite"):
            coupling_residuals(p, cfg)

    def test_large_finite_residuals_pass(self):
        r1, r2 = coupling_residuals(GaussianParams(n1=2.0, n2=2.0, m_s=1e307), MixerConfig(0.0))
        assert (r1, r2) == (0j, 2e307 + 0j)

    @pytest.mark.parametrize("theta", [1e308, -1e308, 8.99e307, sys.float_info.max])
    def test_angle_whose_double_overflows_is_a_domain_error(self, theta):
        # the residuals need sin and cos of 2 theta, so the config refuses the angle
        with pytest.raises(NumericDomainError, match=ANGLE_MESSAGE):
            MixerConfig(theta)

    def test_largest_angle_with_a_finite_double_passes(self):
        cfg = MixerConfig(sys.float_info.max / 2, 0.3)  # 2 theta is exactly the largest float
        p = GaussianParams(n1=2.0, n2=2.0, m_c=1.8)
        for twin in (cfg, cfg.inverse):  # the inverse at -theta
            q = mix_params(p, twin)
            assert coupling_residuals(p, twin) == (-2.0 * q.m_c, 2.0 * q.m_s)
            assert all(cmath.isfinite(z) for z in (q.n1, q.n2, q.m1, q.m2, q.m_s, q.m_c))
        assert cfg.inverse.inverse == cfg

    @pytest.mark.parametrize("phase", [1e308, -1e308, 9e307, 2.0 ** 1000])
    def test_any_finite_phase_is_accepted(self, phase):
        p = GaussianParams(n1=3.0, n2=2.0, m1=0.3j, m2=0.2, m_s=0.4 - 0.1j, m_c=0.5)
        for cfg in (MixerConfig(0.3, phi0=phase), MixerConfig(0.3, phi1=phase),
                    MixerConfig(0.3, phase, phase)):
            r1, r2 = coupling_residuals(p, cfg)
            q = mix_params(p, cfg)
            assert (r1, r2) == (-2.0 * q.m_c, 2.0 * q.m_s)
            assert all(cmath.isfinite(z) for z in (r1, r2, q.m1, q.m2))


class TestSolveDecouplingPhases:
    def test_symmetric_class_accepts_zero_phases(self):
        assert solve_decoupling_phases(GaussianParams(n1=2, n2=2, m_c=1.8)) == (0.0, 0.0)

    def test_equal_real_anomalous_moments(self):
        p = GaussianParams(n1=1.5, n2=1.5, m1=0.3, m2=0.3, m_c=0.4)
        assert solve_decoupling_phases(p) == (0.0, 0.0)

    def test_overflowing_residuals_are_a_domain_error(self):
        with pytest.raises(NumericDomainError):
            solve_decoupling_phases(GaussianParams(n1=2.0, n2=2.0, m_s=1e308))

    @pytest.mark.parametrize("moments", [
        {"m_s": complex(1.5e308, 1.5e308)},
        {"m1": complex(1.5e308, 1.5e308)},
        {"m1": complex(1.5e308, 1.5e308), "m2": complex(1.5e308, 1.5e308)},
    ], ids=["m_s", "m1", "m1-and-m2"])
    def test_a_modulus_past_float64_is_a_domain_error(self, moments):
        # each part is finite, so the state is admitted; its modulus is not
        with pytest.raises(NumericDomainError, match="decoupling phases"):
            solve_decoupling_phases(GaussianParams(n1=1.0, n2=1.0, **moments))

    @pytest.mark.parametrize("moments", [
        (3.0, 3.0, 0j, 0j, 2.5 + 5e-324j, 0.1),
        (3.0, 3.0, 2.5 + 5e-324j, 2.5 + 0j, 0j, 0.1),
    ], ids=["m_s", "m1"])
    def test_a_subnormal_imaginary_part_is_its_real_moment(self, moments):
        # the phase of 5e-324j / 2.5 underflows: cmath.phase raised a range
        # error there, read as an overflow of the moments
        real = [z.real if isinstance(z, complex) else z for z in moments]
        assert solve_decoupling_phases(GaussianParams(*moments)) == (0.0, 0.0)
        assert solve_decoupling_phases(GaussianParams(*real)) == (0.0, 0.0)

    def test_unequal_magnitudes_unsolvable(self):
        assert solve_decoupling_phases(GaussianParams(n1=1.5, n2=1.5, m1=0.3, m2=0.5)) is None

    def test_unequal_occupations_unsolvable(self):
        assert solve_decoupling_phases(GaussianParams(n1=1.0, n2=2.0)) is None

    def test_cross_moment_phase_found_by_root_search(self):
        p = GaussianParams(n1=1.7, n2=1.7, m_s=0.4 * np.exp(1.1j))
        phases = solve_decoupling_phases(p)
        assert phases is not None
        r1, r2 = coupling_residuals(p, MixerConfig(math.pi / 4, *phases))
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12

    @pytest.mark.parametrize(
        "arg", [0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, math.pi - 1e-15]
    )
    @pytest.mark.parametrize("mag", [0.4, 3e-9])
    def test_cross_moment_phase_closed_form(self, arg, mag):
        # psi = arg(m_s) mod pi, including the branch cut and moments just above tol
        p = GaussianParams(n1=1.7, n2=1.7, m_s=mag * complex(math.cos(arg), math.sin(arg)))
        phases = solve_decoupling_phases(p)
        assert phases is not None
        assert 0.0 <= 2.0 * phases[0] <= math.pi
        r1, r2 = coupling_residuals(p, MixerConfig(math.pi / 4, *phases))
        assert abs(r1) < 1e-9 and abs(r2) < 1e-9

    def test_cross_moment_below_tol_keeps_zero_phases(self):
        p = GaussianParams(n1=1.7, n2=1.7, m_s=-5e-10)
        assert solve_decoupling_phases(p) == (0.0, 0.0)

    def test_solved_phases_decouple_ssld_states(self):
        rng = np.random.default_rng(32)
        solved = 0
        for _ in range(200):
            n = rng.uniform(0.6, 3.0)
            mag = rng.uniform(0.0, 0.4)
            p = GaussianParams(
                n1=n, n2=n,
                m1=mag * np.exp(2j * np.pi * rng.uniform()),
                m2=mag * np.exp(2j * np.pi * rng.uniform()),
                m_c=0.3 * np.exp(2j * np.pi * rng.uniform()),
            )
            phases = solve_decoupling_phases(p)
            if phases is None:
                continue
            solved += 1
            cp = transform_blocks(p, MixerConfig(math.pi / 4, *phases)).cp
            assert np.abs(cp).max() <= 1e-9
        assert solved > 50


def _documented_psi(p):
    # the phase sum of solve_decoupling_phases' docstring, None where
    # |m1| != |m2| leaves no phases to try
    tol = 1e-9
    if abs(abs(p.m1) - abs(p.m2)) > tol:
        return None
    if abs(p.m1) <= tol and abs(p.m2) <= tol:
        return cmath.phase(p.m_s) % math.pi if abs(p.m_s) > tol else 0.0
    return 0.5 * (cmath.phase(p.m1) - cmath.phase(p.m2))


def _threshold_states(n=1.7):
    # one residual at (1 + k) tol, the other far below it: r2 = n1 - n2 for
    # a symmetric-class m_c, r1 = -2 cos(pi/2) m_c for equal occupations
    for k in (-0.5, -1e-3, -1e-6, 0.0, 1e-6, 1e-3, 0.5):  # k tol above an ulp of n
        yield GaussianParams(n1=n + (1.0 + k) * 1e-9, n2=n, m_c=0.4)
        yield GaussianParams(n1=n, n2=n, m_c=(1.0 + k) * 1e-9 / (2.0 * math.cos(math.pi / 2)))


class TestResidualKernel:
    """``mix_params``, ``coupling_residuals`` and the 50:50 solver share one kernel."""

    P = GaussianParams(n1=2.0, n2=1.5, m1=0.3j, m2=0.2, m_s=0.2, m_c=0.4)
    CFG = MixerConfig(0.3, 0.1, -0.2)

    def test_solver_agrees_with_the_public_route(self):
        rng = np.random.default_rng(33)
        states = list(_threshold_states())
        for _ in range(300):
            n2, mag = rng.uniform(1.0, 3.0), rng.uniform(0.0, 0.5)
            m1 = mag * np.exp(2j * np.pi * rng.uniform())
            mag2 = mag if rng.uniform() < 0.5 else rng.uniform(0.0, 0.5)
            m2 = mag2 * np.exp(2j * np.pi * rng.uniform())
            n1 = math.sqrt(n2 * n2 - abs(m2) ** 2 + abs(m1) ** 2)  # equal local determinants
            p = GaussianParams(n1=n1, n2=n2, m1=m1, m2=m2,
                               m_s=0.2 * np.exp(2j * np.pi * rng.uniform()) * (rng.uniform() < 0.5),
                               m_c=0.3 * np.exp(2j * np.pi * rng.uniform()))
            states += [p, local_normal_form(p)[0]] if is_physical(p) else [p]
        found = 0
        for p in states:
            psi = _documented_psi(p)
            want = None
            if psi is not None:
                r1, r2 = coupling_residuals(p, MixerConfig(math.pi / 4, psi / 2, psi / 2))
                want = (psi / 2, psi / 2) if abs(r1) < 1e-9 and abs(r2) < 1e-9 else None
            assert solve_decoupling_phases(p) == want
            found += want is not None
        assert 100 < found < len(states) - 100

    def test_threshold_states_straddle_tol(self):
        verdicts = [solve_decoupling_phases(p) is not None for p in _threshold_states()]
        assert verdicts == [True] * 6 + [False] * 8

    def test_one_kernel_call_per_mix(self, mixer_calls):
        mix_params(self.P, self.CFG)
        transform_blocks(self.P, self.CFG)
        assert mixer_calls == ["_residuals"] * 2
        mixer_calls.clear()
        mixer.coupling_residuals(self.P, self.CFG)  # the binding the fixture wraps
        assert mixer_calls == ["coupling_residuals", "_residuals"]

    @pytest.mark.parametrize("p", [
        GaussianParams(n1=2.0, n2=2.0, m_c=1.8),
        GaussianParams(n1=1.7, n2=1.7, m_s=0.4j),
        GaussianParams(n1=1.5, n2=1.5, m1=0.3j, m2=0.3, m_c=0.4),
    ], ids=["symmetric", "cross-moment", "phase-sum"])
    def test_solver_builds_no_config(self, mixer_calls, p):
        assert solve_decoupling_phases(p) is not None
        assert mixer_calls == ["_residuals"]

    def test_normal_form_checks_physicality_once(self, mixer_calls):
        local_normal_form(self.P)
        assert mixer_calls == ["is_physical"]


class TestIsSsld:
    def test_symmetric_class(self):
        assert is_ssld(GaussianParams(n1=1.5, n2=1.5, m_c=0.7))

    def test_equal_determinants_with_different_blocks(self):
        p = GaussianParams(n1=2, n2=math.sqrt(3.5), m1=1.0, m2=math.sqrt(0.5))
        assert is_ssld(p)

    def test_unequal_occupations(self):
        assert not is_ssld(GaussianParams(n1=2, n2=1))

    def test_overflowing_moments_are_a_domain_error(self):
        with pytest.raises(NumericDomainError):
            is_ssld(GaussianParams(n1=1e200, n2=1, m1=1e155))

    @staticmethod
    def _equal_eigenvalue_states(scale, seed, offset=0.0, count=2000):
        # n1, m1 and m2 drawn at the moment scale, and n2 set so that party 2's
        # symplectic eigenvalue is party 1's plus offset, up to the rounding of n2
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n1 = scale * rng.uniform(0.5, 1.0)
            m1 = n1 * rng.uniform(0.0, 0.9) * cmath.exp(2j * math.pi * rng.uniform())
            m2 = scale * rng.uniform() * cmath.exp(2j * math.pi * rng.uniform())
            nu = math.sqrt(n1 * n1 - abs(m1) ** 2) + offset
            yield GaussianParams(n1=n1, n2=math.sqrt(nu * nu + abs(m2) ** 2), m1=m1, m2=m2)

    @pytest.mark.parametrize("scale", [3e3, 1e6])
    def test_equal_eigenvalues_at_large_moments(self, scale):
        # comparing the determinants refused 353 (3e3) and 1,407 (1e6) of these:
        # their rounding grows like eps scale^2, past tol
        states = self._equal_eigenvalue_states(scale, seed=66)
        assert [p for p in states if not is_ssld(p)] == []

    @pytest.mark.parametrize("scale", [1.0, 3e3, 1e6])
    @pytest.mark.parametrize("offset", [-10e-9, 10e-9])
    def test_eigenvalues_ten_tol_apart_are_refused(self, scale, offset):
        states = self._equal_eigenvalue_states(scale, seed=67, offset=offset, count=500)
        assert [p for p in states if is_ssld(p, 1e-9)] == []

    def test_a_negative_determinant_never_equals_a_positive_one(self):
        # det = -3e-24 and +3e-24: equal within tol, and equal eigenvalue moduli
        negative, positive = (1e-12, 2e-12), (2e-12, 1e-12)
        assert not is_ssld(GaussianParams(n1=negative[0], m1=negative[1],
                                          n2=positive[0], m2=positive[1]))
        assert not is_ssld(GaussianParams(n1=positive[0], m1=positive[1],
                                          n2=negative[0], m2=negative[1]))
        assert is_ssld(GaussianParams(n1=negative[0], m1=negative[1],
                                      n2=negative[0], m2=1j * negative[1]))


class TestLocalNormalForm:
    def test_symmetric_input_unchanged(self):
        p = GaussianParams(n1=1.5, n2=1.5, m_c=0.4)
        q, ops = local_normal_form(p)
        assert q == p
        assert ops.rotation1 == ops.squeeze1 == ops.rotation2 == ops.squeeze2 == 0.0
        assert np.allclose(local_operation_matrix(ops, 1), np.eye(2))

    def test_real_anomalous_moment_squeezed_away(self):
        q, _ = local_normal_form(GaussianParams(n1=1.0, n2=0.5, m1=0.5))
        assert q.n1 == pytest.approx(math.sqrt(0.75), abs=1e-12)
        assert q.m1 == 0

    def test_complex_phase_removed_first(self):
        q, _ = local_normal_form(
            GaussianParams(n1=1.0, n2=0.5, m1=0.5 * np.exp(1j * math.pi / 3))
        )
        assert q.n1 == pytest.approx(math.sqrt(0.75), abs=1e-12)
        assert q.m1 == 0

    def test_preserves_verdicts(self):
        rng = np.random.default_rng(33)
        for p in draw_physical(rng, 300, m_hi=1.0):
            q, _ = local_normal_form(p)
            assert is_physical(q)
            assert is_separable(p) == is_separable(q)

    def test_ssld_input_equalizes_occupations(self):
        p = GaussianParams(n1=2, n2=math.sqrt(3.5), m1=1.0, m2=math.sqrt(0.5), m_c=0.2)
        q, _ = local_normal_form(p)
        assert q.n1 == pytest.approx(q.n2, abs=1e-12)

    def test_matches_explicit_congruence(self):
        rng = np.random.default_rng(34)
        for p in draw_physical(rng, 50, m_hi=1.0):
            q, ops = local_normal_form(p)
            loc = np.block([
                [local_operation_matrix(ops, 1), np.zeros((2, 2))],
                [np.zeros((2, 2)), local_operation_matrix(ops, 2)],
            ])
            want = loc.conj().T @ build_covariance(p) @ loc
            assert np.abs(build_covariance(q) - want).max() < 1e-10

    def test_cross_moments_match_matrix_congruence(self):
        rng = np.random.default_rng(41)
        for p in draw_physical(rng, 300, m_hi=1.0):
            q, ops = local_normal_form(p)
            c = np.array([[p.m_s, p.m_c], [p.m_c.conjugate(), p.m_s.conjugate()]])
            cp = local_operation_matrix(ops, 1).conj().T @ c @ local_operation_matrix(ops, 2)
            scale = max(1.0, float(np.abs(cp).max()))
            assert abs(q.m_s - cp[0, 0]) <= 1e-12 * scale
            assert abs(q.m_c - cp[0, 1]) <= 1e-12 * scale

    def test_nonphysical_rejected(self):
        with pytest.raises(NonPhysicalStateError):
            local_normal_form(GaussianParams(n1=1, n2=1, m_c=1.8))

    def test_singular_block_rejected(self):
        with pytest.raises(DegenerateStateError):
            local_normal_form(GaussianParams(n1=0.5, n2=1.0, m1=0.5))

    def test_overflowing_moments_are_a_domain_error(self):
        with pytest.raises(NumericDomainError):
            local_normal_form(GaussianParams(n1=1e200, n2=1, m1=1e155))

    def test_a_subnormal_imaginary_part_is_its_real_moment(self):
        # cmath.phase raised an untyped OverflowError where its value underflows
        assert local_normal_form(GaussianParams(3.0, 1.0, 2.5 + 5e-324j)) == local_normal_form(
            GaussianParams(3.0, 1.0, 2.5))


def test_atan2_phases_are_cmath_phase_on_the_bench_mixer_states(monkeypatch):
    # the normal form and the decoupling phases take each phase as
    # atan2(imag, real); on the SSLD states of the mixer-theorem workload
    # (bench/inputs.py at the bench's default seed and count), bit for bit
    # what cmath.phase gives wherever it returns
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import inputs
    cases = [c for c in inputs.mixer_ensemble(np.random.default_rng(0), 1200) if not c.angles]
    assert len(cases) == 800
    solved = 0
    for case in cases:
        p = GaussianParams(*case.moments)
        normal, ops = local_normal_form(p)
        target = p if case.kind == "phase-sum" else normal
        for z in (p.m1, p.m2, target.m1, target.m2, target.m_s):
            assert math.atan2(z.imag, z.real).hex() == cmath.phase(z).hex()
        for rotation, m in ((ops.rotation1, p.m1), (ops.rotation2, p.m2)):
            assert rotation.hex() == (0.5 * cmath.phase(m) if m else 0.0).hex()
        phases = solve_decoupling_phases(target)
        if phases is not None:
            solved += 1
            assert phases[0].hex() == phases[1].hex() == (0.5 * _documented_psi(target)).hex()
    assert solved > 400
