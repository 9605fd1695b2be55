import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gausspair import (
    DEFAULT_TOL,
    GaussianParams,
    NonPhysicalStateError,
    NumericDomainError,
    build_covariance,
    is_physical,
    is_separable,
    params_from_matrix,
    partial_transpose,
    schur_terms,
)
from gausspair.covariance import COMMUTATOR_SIGNATURE, _schur_bound
from gausspair import oracle

from conftest import draw_params, draw_physical

VACUUM = GaussianParams(n1=0.5, n2=0.5)


class TestBuildCovariance:
    def test_vacuum_is_half_identity(self):
        assert np.array_equal(build_covariance(VACUUM), 0.5 * np.eye(4))

    def test_cross_moment_layout(self):
        v = build_covariance(GaussianParams(n1=2, n2=2, m_c=1.8))
        assert v[0, 3] == 1.8
        assert v[1, 2] == np.conj(1.8)
        assert v[3, 0] == np.conj(v[0, 3])

    def test_anomalous_moment_hermiticity(self):
        v = build_covariance(GaussianParams(n1=1, n2=1, m1=0.3j))
        assert v[0, 1] == 0.3j
        assert v[1, 0] == -0.3j
        assert np.allclose(v, v.conj().T, atol=1e-12)

    def test_roundtrip_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = draw_params(rng)
            assert params_from_matrix(build_covariance(p)) == p

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            GaussianParams(n1=math.nan, n2=0.5)
        with pytest.raises(ValueError):
            GaussianParams(n1=0.5, n2=0.5, m_c=complex(math.inf, 0))


class TestParamsFromMatrix:
    def test_rejects_non_hermitian(self):
        v = build_covariance(VACUUM).copy()
        v[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            params_from_matrix(v)

    def test_rejects_wrong_layout(self):
        with pytest.raises(ValueError, match="layout"):
            params_from_matrix(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            params_from_matrix(np.eye(2))


class TestPartialTranspose:
    def test_vacuum_unchanged(self):
        v = build_covariance(VACUUM)
        assert np.array_equal(partial_transpose(v), v)

    def test_moves_conjugate_cross_moment(self):
        v = build_covariance(GaussianParams(n1=2, n2=2, m_c=1.8))
        vt = partial_transpose(v)
        assert vt[0, 2] == 1.8
        assert vt[0, 3] == 0.0

    def test_involution(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            v = build_covariance(draw_params(rng))
            assert np.array_equal(partial_transpose(partial_transpose(v)), v)


class TestSchurTerms:
    def test_symmetric_example(self):
        t = schur_terms(GaussianParams(n1=2, n2=2, m_c=1.8))
        assert t.s == pytest.approx(6.48, abs=1e-12)
        assert t.c == 0
        assert t.d == pytest.approx(3.75, abs=1e-12)

    def test_vacuum(self):
        t = schur_terms(VACUUM)
        assert (t.s, t.c, t.d) == (0.0, 0j, 0.0)

    def test_mixed_moments(self):
        t = schur_terms(GaussianParams(n1=1, n2=1, m1=0.5, m_c=0.5, m_s=0.5))
        assert t.s == pytest.approx(0.25, abs=1e-12)
        assert t.c == pytest.approx(0.25, abs=1e-12)
        assert t.d == pytest.approx(0.5, abs=1e-12)


class TestIsPhysical:
    def test_vacuum_boundary_via_degenerate_pivot(self):
        # d = 0 for the vacuum, so this exercises the eigenvalue fallback
        assert is_physical(VACUUM)

    def test_symmetric_examples(self):
        assert is_physical(GaussianParams(n1=2, n2=2, m_c=1.8))
        assert not is_physical(GaussianParams(n1=1, n2=1, m_c=1.8))

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            is_physical(VACUUM, tol=0.0)

    def test_pure_party_one_with_correlation(self):
        # party 1 pure fixes d = 0; adding correlation breaks physicality
        n1 = math.sqrt(0.6 ** 2 + 0.25)
        assert is_physical(GaussianParams(n1=n1, n2=1.0, m1=0.6))
        assert not is_physical(GaussianParams(n1=n1, n2=1.0, m1=0.6, m_c=0.3))


class TestIsSeparable:
    def test_boundary_state_counts_as_separable(self):
        # the closed-form bound meets n2 exactly at this point
        assert is_separable(GaussianParams(n1=1, n2=1, m_c=0.5))

    def test_symmetric_examples(self):
        assert not is_separable(GaussianParams(n1=2, n2=2, m_c=1.8))
        assert is_separable(GaussianParams(n1=2, n2=2, m_c=1.4))

    def test_nonphysical_input_raises(self):
        with pytest.raises(NonPhysicalStateError):
            is_separable(GaussianParams(n1=1, n2=1, m_c=1.8))


class TestAgainstEigenvalueOracle:
    def test_physicality_matches_oracle_sign(self):
        rng = np.random.default_rng(13)
        checked = 0
        for i in range(2000):
            p = draw_params(rng, m_hi=5.0 if i % 2 else 1.2)
            h = build_covariance(p) + 0.5 * COMMUTATOR_SIGNATURE
            e = oracle.eig_min_hermitian(h)
            if abs(e) < 1e-7:
                continue
            checked += 1
            assert is_physical(p) == (e > 0), (p, e)
        assert checked > 1500

    def test_separability_matches_oracle_sign(self):
        rng = np.random.default_rng(14)
        checked = 0
        for p in draw_physical(rng, 400):
            h = partial_transpose(build_covariance(p)) + 0.5 * COMMUTATOR_SIGNATURE
            e = oracle.eig_min_hermitian(h)
            if abs(e) < 1e-7:
                continue
            checked += 1
            assert is_separable(p) == (e > 0), (p, e)
        assert checked > 300


class TestSymmetricClassClosedForms:
    def test_boundary_identities(self):
        rng = np.random.default_rng(15)
        for _ in range(2000):
            n = rng.uniform(0.5, 5.0)
            m = rng.uniform(0.0, 5.0)
            p = GaussianParams(n1=n, n2=n, m_c=m)
            phys_margin = n - math.sqrt(m * m + 0.25)
            sep_margin = n - m - 0.5
            if abs(phys_margin) > 1e-8:
                assert is_physical(p) == (phys_margin > 0)
            if phys_margin > 1e-8 and abs(sep_margin) > 1e-8:
                assert is_separable(p) == (sep_margin > 0)

    def test_pure_boundary_accepted(self):
        for r in (0.2, 0.9, 1.7):
            n = 0.5 * math.cosh(2 * r)
            m = 0.5 * math.sinh(2 * r)
            assert is_physical(GaussianParams(n1=n, n2=n, m_c=m))


def moments(hi):
    """Complex moments of magnitude up to ``hi``, with exact zeros mixed in."""
    polar = st.builds(
        lambda mag, arg: mag * cmath.exp(1j * arg),
        st.floats(0.0, hi), st.floats(-math.pi, math.pi),
    )
    return st.one_of(st.just(0j), polar)


def tol_offsets():
    """A few ``tol`` either side of a boundary, the boundary itself included."""
    return st.one_of(st.just(0.0), st.floats(-5.0, 5.0)).map(lambda k: k * DEFAULT_TOL)


@st.composite
def pivot_band_states(draw, cross_hi):
    """``n1`` within a few tol of the party-1 pivot bound ``sqrt(|m1|^2 + 1/4)``.

    A singular pivot leaves a state physical only if the cross moments are
    of order ``sqrt(tol)`` or smaller, hence ``cross_hi``.
    """
    m1 = draw(moments(10.0))
    return GaussianParams(
        n1=math.sqrt(abs(m1) ** 2 + 0.25) + draw(tol_offsets()),
        n2=draw(st.floats(0.5, 12.0)),
        m1=m1, m2=draw(moments(2.0)), m_s=draw(moments(cross_hi)), m_c=draw(moments(cross_hi)),
    )


@st.composite
def schur_band_states(draw, shift):
    """``n2`` within a few tol of the Schur bound (shift -1: physicality, +1: PPT)."""
    m1 = draw(moments(2.0))
    base = GaussianParams(
        n1=math.sqrt(abs(m1) ** 2 + 0.25) + draw(st.floats(1e-3, 3.0)),
        n2=1.0,
        m1=m1, m2=draw(moments(2.0)), m_s=draw(moments(2.0)), m_c=draw(moments(2.0)),
    )
    bound = _schur_bound(base, schur_terms(base), shift)
    return replace(base, n2=bound + draw(tol_offsets()))


def _eig(h: np.ndarray) -> float:
    return float(oracle.eig_min_hermitian(h))


def _consistent(verdict: bool, e: float, p: GaussianParams) -> bool:
    # Accepting needs the smallest eigenvalue no lower than -tol, rejecting
    # needs it below 0; the slack covers rounding in both routes.
    slack = 1e-11 * max(1.0, float(np.abs(build_covariance(p)).max()))
    return e >= -DEFAULT_TOL - slack if verdict else e < slack


class TestBoundaryBands:
    """Verdicts near the pivot and Schur boundaries, refereed by the Jacobi oracle."""

    def test_pivot_within_tol_below_bound_is_rejected(self):
        p = GaussianParams(n1=math.sqrt(100.25) - 5e-10, n2=3, m1=10, m_c=5)
        assert _eig(build_covariance(p) + 0.5 * COMMUTATOR_SIGNATURE) < -3.0
        assert not is_physical(p)
        with pytest.raises(NonPhysicalStateError):
            is_separable(p)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pivot_band_states(cross_hi=2.0))
    def test_physicality_at_the_pivot_bound(self, p):
        e = _eig(build_covariance(p) + 0.5 * COMMUTATOR_SIGNATURE)
        assert _consistent(is_physical(p), e, p), e

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pivot_band_states(cross_hi=1e-5))
    def test_separability_at_the_pivot_bound(self, p):
        assume(is_physical(p))
        e = _eig(partial_transpose(build_covariance(p)) + 0.5 * COMMUTATOR_SIGNATURE)
        assert _consistent(is_separable(p), e, p), e

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(schur_band_states(-1.0))
    def test_physicality_at_the_schur_bound(self, p):
        e = _eig(build_covariance(p) + 0.5 * COMMUTATOR_SIGNATURE)
        assert _consistent(is_physical(p), e, p), e

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(schur_band_states(+1.0))
    def test_separability_at_the_schur_bound(self, p):
        assume(is_physical(p))
        e = _eig(partial_transpose(build_covariance(p)) + 0.5 * COMMUTATOR_SIGNATURE)
        assert _consistent(is_separable(p), e, p), e


class TestTolAndOverflow:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            is_physical(VACUUM, tol)
        with pytest.raises(ValueError, match="tol"):
            is_separable(VACUUM, tol)

    @pytest.mark.parametrize("big", [1e120, 1e160, 1e200, 1e300])
    def test_overflowing_moments_are_a_domain_error(self, big):
        p = GaussianParams(n1=2.0 * big, n2=2.0 * big, m_c=big)
        with pytest.raises(NumericDomainError):
            is_physical(p)

    def test_overflowing_pivot_bound_is_a_domain_error(self):
        with pytest.raises(NumericDomainError):
            is_physical(GaussianParams(n1=1e200, n2=1.0, m1=1e200))
