import math
from fractions import Fraction

import numpy as np
import pytest

from gausspair import (
    GaussianParams,
    LocalOperations,
    MixerConfig,
    ModeParams,
    NumericDomainError,
    build_covariance,
    trace_overlap,
)
from gausspair.oracle import (
    QuadratureSpec, eig_min_hermitian, is_p_representable_joint_eig, local_operation_matrix,
    mode_covariance, overlap_fock_tmsv, overlap_minors_exact, overlap_numint, partial_transpose,
    reference_overlap_decimal, reference_overlap_minors, transform_full,
)

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


class TestOverlapMinorsExact:
    def test_thermal_state_is_diagonal_in_the_frame(self):
        # V = n I, so M = diag(n + b, n + a, n + a, n + b) and its leading
        # minors in the order 1, 2, 0, 3 are exact products
        n, a, b = 1.25, 0.1, 2.5
        x, y = Fraction(n) + Fraction(a), Fraction(n) + Fraction(b)
        got = overlap_minors_exact(GaussianParams(n1=n, n2=n), a, b)
        assert got == (x, x * x, x * x * y, x * x * y * y)
        assert all(type(m) is Fraction for m in got)

    def test_determinant_is_the_decimal_referee_s(self):
        # with the reference's a and b, det M is the summed covariance's
        # determinant up to the rounding of the frame entries
        p = GaussianParams(n1=2.86, n2=1.78, m1=0.5 + 0.2j, m2=-0.49,
                           m_s=-0.19 + 0.04j, m_c=-1.29 + 0.19j)
        a, b = 0.5 * math.exp(-2.0), 0.5 * math.exp(2.0)
        want = reference_overlap_decimal(p, 1.0)
        assert 1.0 / math.sqrt(overlap_minors_exact(p, a, b)[-1]) == pytest.approx(
            want, rel=1e-15, abs=0.0)

    def test_a_nonphysical_state_is_not_positive_definite(self):
        # n = 1/2 with |m_c| = 3/4: the first pivot is exactly 0 at a = 1/4
        assert overlap_minors_exact(GaussianParams(0.5, 0.5, m_c=0.75), 0.25, 1.0)[0] == 0


# a state whose x1 variance 6 and p1 variance -4 leave one negative
# eigenvalue in the sum with any reference
_INDEFINITE = GaussianParams(1.0, 1.0, m1=5.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: local_operation_matrix(LocalOperations(0.1, 0.2, 0.3, 0.4), 3), ValueError,
     "party must be 1 or 2"),
    (lambda: transform_full(np.eye(2), MixerConfig(0.3)), ValueError,
     r"expected a 4x4 matrix, got shape \(2, 2\)"),
    (lambda: partial_transpose(np.eye(3)), ValueError,
     r"expected a 4x4 matrix, got shape \(3, 3\)"),
    (lambda: is_p_representable_joint_eig(np.eye(4)[:, :3]), ValueError,
     r"expected a 4x4 matrix, got shape \(4, 3\)"),
    (lambda: reference_overlap_decimal(_INDEFINITE, 0.5), NumericDomainError,
     "summed covariance is not positive definite"),
    (lambda: reference_overlap_minors(GaussianParams(1e300, 1e300), 0.5, 0.5),
     NumericDomainError, "overlap determinant is not finite in float64"),
    (lambda: reference_overlap_minors(_INDEFINITE, 0.5, 0.5), NumericDomainError,
     "overlap determinant is not positive"),
], ids=["party", "transform-shape", "transpose-shape", "joint-eig-shape", "decimal-det",
        "minors-overflow", "minors-det"])
def test_referees_refuse_what_they_cannot_judge(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
