import math

import numpy as np
import pytest

from gausspair import (
    GaussianParams,
    ModeParams,
    NumericDomainError,
    build_covariance,
    mode_covariance,
    trace_overlap,
)
from gausspair.oracle import QuadratureSpec, eig_min_hermitian, overlap_fock_tmsv, overlap_numint

from conftest import reference_states


class TestEigMinHermitian:
    def test_diagonal(self):
        assert eig_min_hermitian(np.diag([1.0, -2.0, 3.0, 4.0]).astype(complex)) == pytest.approx(-2.0, abs=1e-12)

    def test_vacuum_uncertainty_matrix(self):
        h = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
        assert eig_min_hermitian(h) == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_closed_form(self):
        h = np.array([[2.0, 1.8], [1.8, 2.0]], dtype=complex)
        assert eig_min_hermitian(h) == pytest.approx(0.2, abs=1e-12)

    def test_against_library_eigensolver(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = a + a.conj().T
            assert eig_min_hermitian(h) == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-10)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(72)
        stack = []
        for _ in range(40):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            stack.append(a + a.conj().T)
        stack = np.array(stack)
        batched = eig_min_hermitian(stack)
        singles = np.array([eig_min_hermitian(h) for h in stack])
        assert np.abs(batched - singles).max() < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_min_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig_min_hermitian(np.zeros((2, 3), dtype=complex))


class TestOverlapFockTmsv:
    def test_self_overlap_is_one(self):
        for lam in (0.0, 0.3, 0.9):
            assert overlap_fock_tmsv(lam, lam) == pytest.approx(1.0, abs=1e-12)

    def test_against_vacuum(self):
        assert overlap_fock_tmsv(0.5, 0.0) == pytest.approx(0.75, abs=1e-14)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            l1, l2 = rng.uniform(-0.95, 0.95, 2)
            want = (1 - l1 * l1) * (1 - l2 * l2) / (1 - l1 * l2) ** 2
            assert overlap_fock_tmsv(l1, l2) == pytest.approx(want, abs=1e-12)

    def test_matches_determinant_route(self):
        l1, l2 = math.tanh(1.0), 0.5
        va = build_covariance(reference_states(1.0).tmsv)
        vb = build_covariance(reference_states(math.atanh(l2)).tmsv)
        assert abs(overlap_fock_tmsv(l1, l2) - trace_overlap(va, vb)) <= 1e-10

    def test_rejects_unit_ratio(self):
        with pytest.raises(ValueError):
            overlap_fock_tmsv(1.0, 0.2)


class TestOverlapNumint:
    def test_vacuum(self):
        v = build_covariance(GaussianParams(n1=0.5, n2=0.5))
        assert overlap_numint(v, v) == pytest.approx(1.0, abs=1e-6)

    def test_thermal_with_vacuum_partner(self):
        v = build_covariance(GaussianParams(n1=1.0, n2=0.5))
        assert overlap_numint(v, v) == pytest.approx(0.5, abs=1e-6)

    def test_single_mode_thermal(self):
        v = mode_covariance(ModeParams(n=1.0))
        assert overlap_numint(v, v) == pytest.approx(0.5, abs=1e-6)

    def test_twin_beam_against_traced_reference(self):
        refs = reference_states(0.8)
        va = build_covariance(refs.tmsv)
        vb = build_covariance(refs.sep)
        assert overlap_numint(va, vb) == pytest.approx(trace_overlap(va, vb), abs=1e-6)

    def test_fixed_scale_grid(self):
        v = build_covariance(GaussianParams(n1=0.5, n2=0.5))
        got = overlap_numint(v, v, QuadratureSpec(nodes=24, scale=1.0))
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_rejects_non_decaying_integrand(self):
        bad = np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex)
        with pytest.raises(NumericDomainError):
            overlap_numint(bad, np.zeros((4, 4), dtype=complex))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            overlap_numint(np.eye(2), np.eye(4))
