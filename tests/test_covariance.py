import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gausspair import (
    DEFAULT_TOL,
    GaussianParams,
    MixerConfig,
    ModeParams,
    NonPhysicalStateError,
    NumericDomainError,
    build_covariance,
    classify_symmetric,
    entanglement_degree,
    is_p_representable_joint,
    is_p_representable_mode,
    is_physical,
    is_separable,
    is_ssld,
    mix_params,
    mode_is_physical,
    schur_terms,
    solve_decoupling_phases,
)
from gausspair import covariance, oracle
from gausspair.cli import run_check
from gausspair.oracle import COMMUTATOR_SIGNATURE, partial_transpose

from conftest import (
    draw_mixer, draw_params, draw_physical, moments, rand_complex, tol_consistent, tol_offsets,
)

VACUUM = GaussianParams(n1=0.5, n2=0.5)
_A = 0.5 - 1e-9 + 2**-53  # party 1's x1 variance in the constructed overflow state


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

    @pytest.mark.parametrize("p", [
        GaussianParams(1e200, 1.0, m1=1e200),  # n1 ** 2 raises OverflowError
        GaussianParams(1e154, 1.0, m_s=1e154, m_c=1e154),  # n1 (|m_c|^2 + |m_s|^2) is inf
    ], ids=["raised", "inf"])
    def test_overflow_is_a_domain_error(self, p):
        with pytest.raises(NumericDomainError, match="overflow float64 in the Schur terms"):
            schur_terms(p, 1e-9)

    @pytest.mark.parametrize("tol", [0.0, 0, np.float64(0.0), np.float32(0.0)])
    def test_tol_is_taken_as_a_python_float(self, tol):
        # a numpy tol once made the terms numpy scalars, whose powers overflow
        # with a warning first
        terms = schur_terms(GaussianParams(2.0, 2.0, m_c=1.8), tol)
        assert terms == schur_terms(GaussianParams(2.0, 2.0, m_c=1.8), 0.0)
        assert [type(x) for x in terms] == [float, complex, float]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError, match="overflow float64 in the Schur terms"):
                schur_terms(GaussianParams(1e200, 1.0), tol)

    @pytest.mark.parametrize("tol, error", [
        (math.nan, ValueError), (math.inf, ValueError), (True, TypeError), ("0", TypeError),
    ])
    def test_tol_is_admitted_by_the_value_rule(self, tol, error):
        with pytest.raises(error):
            schur_terms(VACUUM, tol)

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


class TestPasses:
    @pytest.mark.parametrize("p", [GaussianParams(n1=2, n2=2, m_c=1.4),
                                   GaussianParams(n1=2, n2=2, m_c=1.8)], ids=["separable", "entangled"])
    def test_physicality_and_separability_run_the_uncertainty_pass_alone(self, kernel_passes, p):
        is_physical(p, 1e-6)
        is_separable(p, 1e-6)
        entanglement_degree(p, 1.0, 1e-6)
        assert kernel_passes == [(1e-6, 0.5)] * 3

    @pytest.mark.parametrize("p, joint", [
        (GaussianParams(n1=2, n2=2, m_c=1.4), True),
        (GaussianParams(n1=2, n2=2, m_c=1.8), False),  # entangled
        (GaussianParams(n1=1, n2=1, m_c=1.8), False),  # nonphysical
    ], ids=["separable", "entangled", "nonphysical"])
    def test_joint_classicality_runs_the_joint_pass_on_separable_states_only(
            self, kernel_passes, p, joint):
        is_p_representable_joint(p)
        assert kernel_passes == [(DEFAULT_TOL, 0.5)] + [(DEFAULT_TOL - 0.5, 0.0)] * joint

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.builds(
            GaussianParams,
            n1=st.floats(-1e3, 1e3), n2=st.floats(-1e3, 1e3),
            m1=moments(1e3), m2=moments(1e3), m_s=moments(1e3), m_c=moments(1e3),
        ),
        st.one_of(st.sampled_from([DEFAULT_TOL - 0.5, DEFAULT_TOL]), st.floats(-1e3, 1e3)),
    )
    def test_without_the_symplectic_term_the_mirror_verdict_is_the_same(self, p, shift):
        # at half = 0 the mirror's last pivot is the state's, bit for bit
        physical, mirrored = covariance._elimination_verdicts(p, shift, 0.0)
        assert physical is mirrored


class TestDrawParams:
    @pytest.mark.parametrize("m_hi, n_lo, n_hi", [(5.0, 0.5, 5.0), (1.2, 0.5, 5.0), (2.0, 0.3, 1.7)])
    def test_matches_the_scalar_recipe(self, m_hi, n_lo, n_hi):
        # the recipe draw_params replaces: one rng.uniform() per real number
        def scalar_draw(rng):
            def rand(hi):
                return hi * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            return GaussianParams(
                n1=rng.uniform(n_lo, n_hi), n2=rng.uniform(n_lo, n_hi),
                m1=rand(m_hi), m2=rand(m_hi), m_s=rand(m_hi), m_c=rand(m_hi),
            )

        old, new = np.random.default_rng(16), np.random.default_rng(16)
        for _ in range(2000):
            assert repr(draw_params(new, m_hi, n_lo, n_hi)) == repr(scalar_draw(old))
        assert old.random() == new.random()


class TestAgainstEigenvalueOracle:
    def test_physicality_matches_oracle_sign(self):
        rng = np.random.default_rng(13)
        params = [draw_params(rng, m_hi=5.0 if i % 2 else 1.2) for i in range(2000)]
        stack = np.stack([build_covariance(p) for p in params])
        checked = 0
        for p, e in zip(params, oracle.eig_min_hermitian(stack + 0.5 * COMMUTATOR_SIGNATURE)):
            if abs(e) < 1e-7:
                continue
            checked += 1
            assert is_physical(p) == (e > 0), (p, e)
        assert checked > 1500

    def test_separability_matches_oracle_sign(self):
        rng = np.random.default_rng(14)
        params = draw_physical(rng, 400)
        stack = np.stack([partial_transpose(build_covariance(p)) for p in params])
        checked = 0
        for p, e in zip(params, oracle.eig_min_hermitian(stack + 0.5 * COMMUTATOR_SIGNATURE)):
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


#: moment scales of the band states: up to |V| ~ 1e4, where the slack of
#: tol_consistent reaches tol and the contract stops being checkable
BAND_SCALES = [1.0, 30.0, 300.0]


@st.composite
def pivot_band_states(draw, cross_hi):
    """``n1`` within a few tol of the party-1 pivot bound ``sqrt(|m1|^2 + 1/4)``.

    A singular pivot leaves a state physical only if the cross moments are
    of order ``sqrt(tol)`` or smaller, hence ``cross_hi``.
    """
    scale = draw(st.sampled_from(BAND_SCALES))
    m1 = draw(moments(10.0 * scale))
    return GaussianParams(
        n1=math.sqrt(abs(m1) ** 2 + 0.25) + draw(tol_offsets()),
        n2=draw(st.floats(0.5, 12.0)) * scale,
        m1=m1, m2=draw(moments(2.0 * scale)),
        m_s=draw(moments(cross_hi)), m_c=draw(moments(cross_hi)),
    )


@st.composite
def schur_band_states(draw, mirrored):
    """``n2`` within a few tol of the Schur bound of the state (physicality)
    or of its party-2 mirror (PPT)."""
    scale = draw(st.sampled_from(BAND_SCALES))
    m1 = draw(moments(2.0 * scale))
    base = GaussianParams(
        n1=math.sqrt(abs(m1) ** 2 + 0.25) + draw(st.floats(1e-3, 3.0)) * scale,
        n2=1.0,
        m1=m1, m2=draw(moments(2.0 * scale)),
        m_s=draw(moments(2.0 * scale)), m_c=draw(moments(2.0 * scale)),
    )
    target = replace(base, m2=base.m2.conjugate(), m_s=base.m_c, m_c=base.m_s) if mirrored else base
    s, c, d = schur_terms(target, 0.0)
    k = abs(target.m_c) ** 2 - abs(target.m_s) ** 2
    bound = s / d + math.sqrt((k / d - 1.0) ** 2 / 4 + abs(target.m2 - c / d) ** 2)
    state = replace(base, n2=bound + draw(tol_offsets()))
    assume(np.abs(build_covariance(state)).max() <= 1e4)  # a small d can make the bound huge
    return state


def _eig(h: np.ndarray) -> float:
    return float(oracle.eig_min_hermitian(h))


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
        assert tol_consistent(is_physical(p), e, p), e

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pivot_band_states(cross_hi=1e-5))
    def test_separability_at_the_pivot_bound(self, p):
        assume(is_physical(p))
        e = _eig(partial_transpose(build_covariance(p)) + 0.5 * COMMUTATOR_SIGNATURE)
        assert tol_consistent(is_separable(p), e, p), e

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(schur_band_states(mirrored=False))
    def test_physicality_at_the_schur_bound(self, p):
        e = _eig(build_covariance(p) + 0.5 * COMMUTATOR_SIGNATURE)
        assert tol_consistent(is_physical(p), e, p), e

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(schur_band_states(mirrored=True))
    def test_separability_at_the_schur_bound(self, p):
        assume(is_physical(p))
        e = _eig(partial_transpose(build_covariance(p)) + 0.5 * COMMUTATOR_SIGNATURE)
        assert tol_consistent(is_separable(p), e, p), e


@st.composite
def shifted_pure_states(draw):
    """Two squeezed vacua (``z1`` up to 5, ``z2`` up to 1) through a mixer,
    with both occupations shifted by ``k tol``.

    A pure state's smallest eigenvalue of ``V`` plus half the commutator
    signature is 0, and the shift moves every eigenvalue by ``k tol``, so the
    exact referee is ``k >= -1``; the moments round by ~1e-16 ``|V|``, with
    ``|V|`` up to ~1e4 at ``z1 = 5``.
    """
    # 5 - z: hypothesis leans toward small floats, and the large moments matter
    z1 = draw(st.floats(0.0, 5.0).map(lambda z: 5.0 - z))
    z2 = draw(st.floats(0.0, 1.0))
    a1, a2 = draw(st.floats(-math.pi, math.pi)), draw(st.floats(-math.pi, math.pi))
    vacua = GaussianParams(
        n1=0.5 * math.cosh(2 * z1), n2=0.5 * math.cosh(2 * z2),
        m1=0.5 * math.sinh(2 * z1) * cmath.exp(1j * a1),
        m2=0.5 * math.sinh(2 * z2) * cmath.exp(1j * a2),
    )
    angles = [draw(st.floats(-math.pi, math.pi)) for _ in range(3)]
    q = mix_params(vacua, MixerConfig(*angles))
    k = draw(st.sampled_from([-5.0, -2.0, -1.5, -0.5, 0.0, 0.5, 2.0, 5.0]))
    return replace(q, n1=q.n1 + k * DEFAULT_TOL, n2=q.n2 + k * DEFAULT_TOL), k


class TestPureStatesAtLargeMoments:
    """Physicality within tol of pure states, where large moments cancel."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(shifted_pure_states())
    def test_verdict_is_the_sign_of_the_shift(self, case):
        p, k = case
        assert is_physical(p) is (k >= -1.0), k


#: public functions taking ``tol``: the two criteria, ``cli.run_check`` and each
#: of the others that does not reach it through is_physical
TOL_TAKERS = {
    "is_physical": lambda tol: is_physical(GaussianParams(1, 1), tol),
    "is_separable": lambda tol: is_separable(GaussianParams(1, 1), tol),
    "run_check": lambda tol: run_check(GaussianParams(1, 1), 1.0, tol),
    "mode_is_physical": lambda tol: mode_is_physical(ModeParams(1.0, 0.1), tol),
    "is_p_representable_mode": lambda tol: is_p_representable_mode(ModeParams(1.0, 0.1), tol),
    "classify_symmetric": lambda tol: classify_symmetric(1.0, 0.1, tol),
    "is_ssld": lambda tol: is_ssld(GaussianParams(1, 1), tol),
    "solve_decoupling_phases": lambda tol: solve_decoupling_phases(GaussianParams(1, 1, m_s=0.3), tol),
    "is_p_representable_joint": lambda tol: is_p_representable_joint(GaussianParams(1, 1), tol),
}


class TestTolAndOverflow:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9,
                                     pytest.param(10**400, id="int-1e400")])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            is_physical(VACUUM, tol)
        with pytest.raises(ValueError, match="tol"):
            is_separable(VACUUM, tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9,
                                     pytest.param(10**400, id="int-1e400")])
    @pytest.mark.parametrize("name", sorted(TOL_TAKERS))
    def test_bad_tol_rejected_everywhere(self, name, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            TOL_TAKERS[name](tol)

    @pytest.mark.parametrize("tol", [True, "1e-9", np.array(1e-9), np.array([1e-9, 1e-9])],
                             ids=["bool", "str", "0d-array", "array"])
    @pytest.mark.parametrize("name", sorted(TOL_TAKERS))
    def test_non_numbers_are_refused_and_left_unchanged(self, name, tol):
        # the value types' rule: an admitted array would reach the passes'
        # arithmetic (GaussianParams(1, 1) is physical and separable, so the
        # joint pass runs too)
        before = np.copy(tol) if isinstance(tol, np.ndarray) else tol
        with pytest.raises(TypeError, match="expected a number"):
            TOL_TAKERS[name](tol)
        if isinstance(tol, np.ndarray):
            assert np.array_equal(tol, before)

    @pytest.mark.parametrize("big", [1e160, 1e200, 1e300])
    def test_overflowing_moments_are_a_domain_error(self, big):
        # the squared cross moments of the elimination overflow float64
        p = GaussianParams(n1=2.0 * big, n2=2.0 * big, m_c=big)
        for criterion in (is_physical, is_separable, is_p_representable_joint):
            with pytest.raises(NumericDomainError):
                criterion(p)

    def test_overflowing_last_pivot_is_a_domain_error(self):
        # only the (x2, p2) entry squares past float64, in the last pivot
        p = GaussianParams(n1=1.0, n2=2e160, m2=1e160j)
        for criterion in (is_physical, is_separable, is_p_representable_joint):
            with pytest.raises(NumericDomainError):
                criterion(p)

    @pytest.mark.parametrize("p", [
        GaussianParams(n1=2.5056335437078565, n2=2.098755842496256e+155,
                       m1=-0.04419672761320343+0.11372090257179766j,
                       m2=-3.842965543965563e+154+1.876840699868657e+153j,
                       m_s=-9.9369209575596e+75-7.002017070411702e+76j,
                       m_c=2.111244639981269e+77-1.6441723955791086e+77j),
        GaussianParams((_A + 1) / 2, 1e301, m1=(_A - 1) / 2, m_s=-0.5e150j, m_c=0.5e150j),
    ], ids=["random", "constructed"])
    def test_joint_overflow_stays_out_of_physicality_and_separability(self, p):
        # the uncertainty pass holds these states and the joint pass overflows;
        # eps |V| exceeds every eigenvalue margin here, so the verdicts pin the
        # routes' behaviour, not a referee's
        assert (is_physical(p), is_separable(p)) == (True, True)
        with pytest.raises(NumericDomainError, match="in the elimination"):
            is_p_representable_joint(p)
        with pytest.raises(NumericDomainError, match="in the elimination"):
            run_check(p, 1.0)

    @pytest.mark.parametrize("p, eig_min", [
        # symmetric class: the smallest eigenvalue is n - sqrt(m^2 + 1/4)
        (GaussianParams(n1=2e120, n2=2e120, m_c=1e120), 1e120),
        # uncoupled parties, party 1 on its pivot bound: the smallest eigenvalue
        # n1 - sqrt(|m1|^2 + 1/4) is -1/4 / (n1 + sqrt(|m1|^2 + 1/4)) ~ -1e-201
        (GaussianParams(n1=1e200, n2=1.0, m1=1e200), -0.25 / 2e200),
    ], ids=["1e120", "pivot-bound-1e200"])
    def test_huge_moments_the_elimination_holds_get_the_tol_verdict(self, p, eig_min):
        assert is_physical(p) is (eig_min >= -DEFAULT_TOL)
        assert is_separable(p) is True  # both mirrors are physical by far or within tol
