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
    ModeParams,
    NonPhysicalStateError,
    NumericDomainError,
    build_covariance,
    classify_symmetric,
    is_p_representable_joint,
    is_p_representable_mode,
    is_physical,
    is_separable,
    is_ssld,
    mirror_party2,
    mix_params,
    mode_is_physical,
    schur_terms,
    solve_decoupling_phases,
)
from gausspair import oracle
from gausspair.oracle import COMMUTATOR_SIGNATURE, partial_transpose

from conftest import draw_mixer, draw_params, draw_physical, rand_complex

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

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            GaussianParams(n1=math.nan, n2=0.5)
        with pytest.raises(ValueError):
            GaussianParams(n1=0.5, n2=0.5, m_c=complex(math.inf, 0))


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
        s, c, d = schur_terms(GaussianParams(n1=2, n2=2, m_c=1.8), 0.0)
        assert s == pytest.approx(6.48, abs=1e-12)
        assert c == 0
        assert d == pytest.approx(3.75, abs=1e-12)

    def test_vacuum(self):
        assert schur_terms(VACUUM, 0.0) == (0.0, 0j, 0.0)

    def test_mixed_moments(self):
        s, c, d = schur_terms(GaussianParams(n1=1, n2=1, m1=0.5, m_c=0.5, m_s=0.5), 0.0)
        assert s == pytest.approx(0.25, abs=1e-12)
        assert c == pytest.approx(0.25, abs=1e-12)
        assert d == pytest.approx(0.5, abs=1e-12)


class TestIsPhysical:
    def test_vacuum_boundary_via_degenerate_pivot(self):
        # d = 0 for the vacuum; only the tol shift of the pivot makes it positive
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

    def test_mixed_squeezed_vacua_are_physical(self):
        # pure states: the smallest eigenvalue is 0, so every one is inside
        # the tol band; half the mixers sit near theta = 0 or pi, where the
        # party-1 port stays nearly pure and the pivot determinant is small
        rng = np.random.default_rng(16)
        for i in range(2000):
            z1, z2 = (rand_complex(rng, 2.0) for _ in range(2))
            vacua = GaussianParams(
                n1=0.5 * math.cosh(2 * abs(z1)), n2=0.5 * math.cosh(2 * abs(z2)),
                m1=0.5 * math.sinh(2 * abs(z1)) * cmath.exp(1j * cmath.phase(z1)),
                m2=0.5 * math.sinh(2 * abs(z2)) * cmath.exp(1j * cmath.phase(z2)),
            )
            cfg = draw_mixer(rng)
            if i % 2:
                offset = rng.choice([-1, 1]) * 10 ** rng.uniform(-5, 0)
                cfg = replace(cfg, theta=math.pi * rng.integers(2) + offset)
            assert is_physical(mix_params(vacua, cfg)), (vacua, cfg)


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
def schur_band_states(draw, mirrored):
    """``n2`` within a few tol of the Schur bound of the state (physicality)
    or of its party-2 mirror (PPT)."""
    m1 = draw(moments(2.0))
    base = GaussianParams(
        n1=math.sqrt(abs(m1) ** 2 + 0.25) + draw(st.floats(1e-3, 3.0)),
        n2=1.0,
        m1=m1, m2=draw(moments(2.0)), m_s=draw(moments(2.0)), m_c=draw(moments(2.0)),
    )
    target = mirror_party2(base) if mirrored else base
    s, c, d = schur_terms(target, 0.0)
    k = abs(target.m_c) ** 2 - abs(target.m_s) ** 2
    bound = s / d + math.sqrt((k / d - 1.0) ** 2 / 4 + abs(target.m2 - c / d) ** 2)
    return replace(base, n2=bound + draw(tol_offsets()))


def _eig(h: np.ndarray) -> float:
    return float(oracle.eig_min_hermitian(h))


def _consistent(verdict: bool, e: float, p: GaussianParams) -> bool:
    # Accepting needs the smallest eigenvalue no lower than -tol, rejecting
    # needs it below -tol; the slack covers rounding in both routes.
    slack = 1e-11 * max(1.0, float(np.abs(build_covariance(p)).max()))
    return e >= -DEFAULT_TOL - slack if verdict else e < -DEFAULT_TOL + slack


class TestMirrorParty2:
    """The partial transpose on the moments, refereed by the matrix route."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.builds(
        GaussianParams,
        n1=st.floats(-10.0, 10.0), n2=st.floats(-10.0, 10.0),
        m1=moments(10.0), m2=moments(10.0), m_s=moments(10.0), m_c=moments(10.0),
    ))
    def test_matches_matrix_partial_transpose_and_is_an_involution(self, p):
        assert np.array_equal(
            build_covariance(mirror_party2(p)), oracle.partial_transpose(build_covariance(p))
        )
        assert mirror_party2(mirror_party2(p)) == p


class TestSchurTermsAgainstMatrixRoute:
    """The terms of ``V + tol I``, refereed by the 2x2 block products."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.builds(
            GaussianParams,
            n1=st.floats(-10.0, 10.0), n2=st.floats(-10.0, 10.0),
            m1=moments(10.0), m2=moments(10.0), m_s=moments(10.0), m_c=moments(10.0),
        ),
        st.sampled_from([0.0, DEFAULT_TOL, 0.3]),
    )
    def test_terms_match_the_matrix_route(self, p, tol):
        # A and C are the party-1 and cross blocks of V + tol I + Sigma/2
        h = build_covariance(p) + tol * np.eye(4) + 0.5 * COMMUTATOR_SIGNATURE
        a, cross = h[:2, :2], h[:2, 2:]
        adj = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
        reduced = cross.conj().T @ adj @ cross
        s, c, d = schur_terms(p, tol)
        k = abs(p.m_c) ** 2 - abs(p.m_s) ** 2
        want = np.array([[s + k / 2, c], [np.conj(c), s - k / 2]])
        scale = float(np.abs(a).max()) * float(np.abs(cross).max()) ** 2
        assert np.abs(reduced - want).max() <= 1e-12 * max(1.0, scale)
        det = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real
        assert abs(d - det) <= 1e-12 * max(1.0, float(np.abs(a).max()) ** 2)


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
    @given(schur_band_states(mirrored=False))
    def test_physicality_at_the_schur_bound(self, p):
        e = _eig(build_covariance(p) + 0.5 * COMMUTATOR_SIGNATURE)
        assert _consistent(is_physical(p), e, p), e

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(schur_band_states(mirrored=True))
    def test_separability_at_the_schur_bound(self, p):
        assume(is_physical(p))
        e = _eig(partial_transpose(build_covariance(p)) + 0.5 * COMMUTATOR_SIGNATURE)
        assert _consistent(is_separable(p), e, p), e


#: every public function taking ``tol`` that does not reach it through is_physical
TOL_TAKERS = {
    "mode_is_physical": lambda tol: mode_is_physical(ModeParams(1.0, 0.1), tol),
    "is_p_representable_mode": lambda tol: is_p_representable_mode(ModeParams(1.0, 0.1), tol),
    "classify_symmetric": lambda tol: classify_symmetric(1.0, 0.1, tol),
    "is_ssld": lambda tol: is_ssld(GaussianParams(1, 1), tol),
    "solve_decoupling_phases": lambda tol: solve_decoupling_phases(GaussianParams(1, 1, m_s=0.3), tol),
    "is_p_representable_joint": lambda tol: is_p_representable_joint(
        build_covariance(GaussianParams(1, 1)), tol
    ),
}


class TestTolAndOverflow:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            is_physical(VACUUM, tol)
        with pytest.raises(ValueError, match="tol"):
            is_separable(VACUUM, tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
    @pytest.mark.parametrize("name", sorted(TOL_TAKERS))
    def test_bad_tol_rejected_everywhere(self, name, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            TOL_TAKERS[name](tol)

    @pytest.mark.parametrize("big", [1e120, 1e160, 1e200, 1e300])
    def test_overflowing_moments_are_a_domain_error(self, big):
        p = GaussianParams(n1=2.0 * big, n2=2.0 * big, m_c=big)
        with pytest.raises(NumericDomainError):
            is_physical(p)

    def test_overflowing_pivot_bound_is_a_domain_error(self):
        with pytest.raises(NumericDomainError):
            is_physical(GaussianParams(n1=1e200, n2=1.0, m1=1e200))
