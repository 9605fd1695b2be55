import ast
import math
from pathlib import Path

import numpy as np
import pytest

import gausspair
from gausspair import (
    DegenerateStateError,
    GaussianParams,
    MixerConfig,
    NonPhysicalStateError,
    build_covariance,
    build_mixer,
    coupling_residuals,
    is_physical,
    is_separable,
    is_ssld,
    local_normal_form,
    mix_params,
    mixer_inverse,
    solve_decoupling_phases,
    transform_blocks,
    transform_full,
)
from gausspair import mixer, oracle
from gausspair.covariance import COMMUTATOR_SIGNATURE

from conftest import draw_mixer, draw_params, draw_physical

BS5050 = MixerConfig(theta=math.pi / 4)


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
            assert abs(b.v1p[0, 0] - n) < 1e-12
            assert abs(b.v1p[0, 1] - (-m)) < 1e-12
            assert abs(b.v2p[0, 1] - m) < 1e-12
            assert np.abs(b.cp).max() < 1e-12

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
            assembled = transform_blocks(p, cfg).assemble()
            assert np.abs(full - assembled).max() < 1e-10

    def test_blocks_hermitian_with_real_diagonal(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            b = transform_blocks(draw_params(rng), draw_mixer(rng))
            for blk in (b.v1p, b.v2p):
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
            r1, r2 = coupling_residuals(p, cfg)
            scale = np.abs(_fields(p)).max()
            assert abs(r1 + 2.0 * q.m_c) <= 1e-12 * scale
            assert abs(r2 - 2.0 * q.m_s) <= 1e-12 * scale

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
        assert np.array_equal(
            transform_blocks(p, cfg).assemble(), build_covariance(mix_params(p, cfg))
        )


class TestOracleSplit:
    DECISION_MODULES = ("covariance", "measures", "mixer", "tmtss", "classicality")

    @staticmethod
    def _package_imports(module: str) -> set[str]:
        tree = ast.parse((Path(gausspair.__file__).parent / f"{module}.py").read_text())
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
        for start in self.DECISION_MODULES:
            seen, todo = set(), [start]
            while todo:
                name = todo.pop()
                if name not in seen:
                    seen.add(name)
                    todo.extend(self._package_imports(name))
            assert "oracle" not in seen, f"{start} imports the oracle"

    def test_import_scan_sees_the_cli_import(self):
        assert "oracle" in self._package_imports("cli")

    def test_matrix_routes_live_in_the_oracle(self):
        for name in ("transform_full", "build_mixer", "mixer_inverse", "_half_blocks"):
            assert not hasattr(mixer, name)
            assert hasattr(oracle, name)
        assert gausspair.transform_full is oracle.transform_full


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


class TestSolveDecouplingPhases:
    def test_symmetric_class_accepts_zero_phases(self):
        assert solve_decoupling_phases(GaussianParams(n1=2, n2=2, m_c=1.8)) == (0.0, 0.0)

    def test_equal_real_anomalous_moments(self):
        p = GaussianParams(n1=1.5, n2=1.5, m1=0.3, m2=0.3, m_c=0.4)
        assert solve_decoupling_phases(p) == (0.0, 0.0)

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


class TestIsSsld:
    def test_symmetric_class(self):
        assert is_ssld(GaussianParams(n1=1.5, n2=1.5, m_c=0.7))

    def test_equal_determinants_with_different_blocks(self):
        p = GaussianParams(n1=2, n2=math.sqrt(3.5), m1=1.0, m2=math.sqrt(0.5))
        assert is_ssld(p)

    def test_unequal_occupations(self):
        assert not is_ssld(GaussianParams(n1=2, n2=1))


class TestLocalNormalForm:
    def test_symmetric_input_unchanged(self):
        p = GaussianParams(n1=1.5, n2=1.5, m_c=0.4)
        q, ops = local_normal_form(p)
        assert q == p
        assert ops.rotation1 == ops.squeeze1 == ops.rotation2 == ops.squeeze2 == 0.0
        assert np.allclose(ops.matrix(1), np.eye(2))

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
                [ops.matrix(1), np.zeros((2, 2))],
                [np.zeros((2, 2)), ops.matrix(2)],
            ])
            want = loc.conj().T @ build_covariance(p) @ loc
            assert np.abs(build_covariance(q) - want).max() < 1e-10

    def test_cross_moments_match_matrix_congruence(self):
        rng = np.random.default_rng(41)
        for p in draw_physical(rng, 300, m_hi=1.0):
            q, ops = local_normal_form(p)
            c = np.array([[p.m_s, p.m_c], [p.m_c.conjugate(), p.m_s.conjugate()]])
            cp = ops.matrix(1).conj().T @ c @ ops.matrix(2)
            scale = max(1.0, float(np.abs(cp).max()))
            assert abs(q.m_s - cp[0, 0]) <= 1e-12 * scale
            assert abs(q.m_c - cp[0, 1]) <= 1e-12 * scale

    def test_nonphysical_rejected(self):
        with pytest.raises(NonPhysicalStateError):
            local_normal_form(GaussianParams(n1=1, n2=1, m_c=1.8))

    def test_singular_block_rejected(self):
        with pytest.raises(DegenerateStateError):
            local_normal_form(GaussianParams(n1=0.5, n2=1.0, m1=0.5))
