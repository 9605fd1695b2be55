import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausspair import (
    DegenerateStateError,
    GaussianParams,
    MeasureReport,
    MixerConfig,
    ModeParams,
    NonPhysicalStateError,
    NumericDomainError,
    build_covariance,
    bures_from_fidelity,
    classify_symmetric,
    compose_bures,
    entanglement_degree,
    is_physical,
    is_separable,
    mix_params,
    output_port_fidelity,
    separable_distance,
    symmetric_degree,
    trace_overlap,
)
from gausspair import cli, measures, oracle
from gausspair.oracle import mode_covariance, transform_full

from conftest import draw_physical, draw_symmetric_physical, reference_states

# determinant-route values confirmed against the Fock-series and quadrature
# oracles before being frozen here
F_SEP_R1 = 0.092033681304735
DB_SEP_R1 = 1.3932589306640435
ANCHOR_F = 0.3995827299880586
ANCHOR_DB = 0.7357488699027259
ANCHOR_E = 0.4719223729992103


class TestReferenceStates:
    def test_twin_beam_sits_on_purity_boundary(self):
        for r in (0.1, 0.7, 1.0, 2.3):
            refs = reference_states(r)
            assert refs.tmsv.n1 ** 2 - abs(refs.tmsv.m_c) ** 2 == pytest.approx(0.25, abs=1e-9)
            assert refs.omss.n == refs.tmsv.n1
            assert refs.lam == pytest.approx(math.tanh(r))

    def test_traced_out_reference_drops_correlations_only(self):
        refs = reference_states(0.8)
        assert refs.sep.n1 == refs.tmsv.n1
        assert refs.sep.m_c == 0

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ValueError):
            reference_states(-0.1)


class TestTraceOverlap:
    def test_vacuum_self_overlap(self):
        v = 0.5 * np.eye(4, dtype=complex)
        assert trace_overlap(v, v) == pytest.approx(1.0, abs=1e-14)

    def test_thermal_purity(self):
        for nbar in (0.0, 0.5, 2.0):
            v = mode_covariance(ModeParams(n=nbar + 0.5))
            assert trace_overlap(v, v) == pytest.approx(1.0 / (2 * nbar + 1), abs=1e-12)

    def test_twin_beam_pair_matches_fock_series(self):
        l1, l2 = math.tanh(1.0), 0.5
        va = build_covariance(reference_states(1.0).tmsv)
        vb = build_covariance(reference_states(math.atanh(l2)).tmsv)
        got = trace_overlap(va, vb)
        assert got == pytest.approx(oracle.overlap_fock_tmsv(l1, l2), abs=1e-10)
        want = (1 - l1 * l1) * (1 - l2 * l2) / (1 - l1 * l2) ** 2
        assert got == pytest.approx(want, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            trace_overlap(np.eye(2), np.eye(4))

    @pytest.mark.parametrize("vb, message", [
        (np.array([[math.nan, 0.0], [0.0, 1.0]]), "not finite in float64"),
        (np.array([[1j, 0.0], [0.0, 0.0]]), "not real"),
    ], ids=["nan", "complex"])
    def test_non_finite_and_complex_determinants_are_domain_errors(self, vb, message):
        with pytest.raises(NumericDomainError, match=f"overlap determinant is {message}"):
            trace_overlap(np.eye(2), vb)

    def test_nonpositive_determinant_rejected(self):
        bad = np.diag([-1.0, 1.0, 1.0, 1.0]).astype(complex)
        with pytest.raises(NumericDomainError):
            trace_overlap(bad, np.zeros((4, 4)))


class TestOutputPortFidelity:
    def test_reference_self_fidelity(self):
        for r in (0.3, 1.0, 2.0):
            refs = reference_states(r)
            assert output_port_fidelity(refs.omss, r) == pytest.approx(1.0, abs=1e-12)

    def test_nonclassical_port_value(self):
        got = output_port_fidelity(ModeParams(n=2, m=1.8), 1.0)
        assert got == pytest.approx(0.2576605968421409, abs=1e-12)
        assert got == pytest.approx(0.25766, abs=1e-5)

    def test_vacuum_against_unsqueezed_reference(self):
        assert output_port_fidelity(ModeParams(n=0.5), 0.0) == 1.0

    def test_matches_determinant_overlap(self):
        rng = np.random.default_rng(51)
        for _ in range(1000):
            n = rng.uniform(0.5, 5.0)
            m = rng.uniform(0, math.sqrt(n * n - 0.25)) * np.exp(2j * np.pi * rng.uniform())
            r = rng.uniform(0.0, 3.0)
            md = ModeParams(n=n, m=m)
            ref = reference_states(r).omss
            direct = trace_overlap(mode_covariance(md), mode_covariance(ref))
            assert abs(output_port_fidelity(md, r) - direct) <= 1e-12

    def test_nonpositive_bracket_rejected(self):
        with pytest.raises(NumericDomainError):
            output_port_fidelity(ModeParams(n=0.1, m=5.0), 0.0)

    def test_nonpositive_squeezing_is_a_reference(self):
        assert output_port_fidelity(ModeParams(n=0.5), -0.0) == 1.0
        got = output_port_fidelity(ModeParams(n=2, m=-1.8), -1.0)
        assert got == output_port_fidelity(ModeParams(n=2, m=1.8), 1.0)

    @pytest.mark.parametrize("md, r", [
        (ModeParams(n=2.0, m=1.8), math.nan),
        (ModeParams(n=2.0, m=1.8), 360.0),
        (ModeParams(n=2.0, m=1.8), -360.0),
        (ModeParams(n=1e200), 1.0),
        (ModeParams(n=1e200, m=1e200), 1.0),
        (ModeParams(n=1e154), 350.0),  # n cosh(2r) is inf, no OverflowError
    ])
    def test_non_finite_bracket_is_a_typed_error(self, md, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError, match="not finite"):
                output_port_fidelity(md, r)


class TestBures:
    def test_endpoints(self):
        assert bures_from_fidelity(1.0) == 0.0
        assert bures_from_fidelity(0.25) == 1.0
        assert bures_from_fidelity(1) == 0.0
        assert bures_from_fidelity(np.float64(0.25)) == 1.0

    def test_separable_reference_distance(self):
        assert bures_from_fidelity(0.092034) == pytest.approx(1.39326, abs=1e-5)

    def test_domain(self):
        for bad in (0.0, -0.5, 1.5, math.nan, math.inf, np.float64(math.nan), 2, 10**400, -10**400):
            with pytest.raises(NumericDomainError):
                bures_from_fidelity(bad)

    def test_fixed_slack_past_one(self):
        # a fidelity up to 1e-12 past 1, its end included, is read as 1
        assert bures_from_fidelity(1.0 + 1e-12) == 0.0
        assert bures_from_fidelity(math.nextafter(1.0, 2.0)) == 0.0
        with pytest.raises(NumericDomainError, match=r"^fidelity must lie in \(0, 1\]$"):
            bures_from_fidelity(math.nextafter(1.0 + 1e-12, 2.0))

    @pytest.mark.parametrize("bad", ["0.5", True, False, np.True_, None])
    def test_strings_and_bools_are_refused(self, bad):
        # float() reads "0.5" and True as fidelities
        with pytest.raises(TypeError, match="expected a number"):
            bures_from_fidelity(bad)


class TestComposeBures:
    def test_untouched_port_passes_through(self):
        for d in (0.0, 0.4, 1.7):
            assert compose_bures(0.0, d) == d
            assert compose_bures(d, 0.0) == d

    def test_quarter_fidelities(self):
        assert compose_bures(1.0, 1.0) == pytest.approx(1.5, abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300, 2.0000000000000004,
                                     1e308])
    def test_distance_outside_0_2_is_a_domain_error(self, bad):
        # NaN, an infinity and (1e308, 1e308) used to come back as NaN
        assert compose_bures(2.0, 2.0) == 2.0  # the ends of the range are distances
        for args in ((bad, 0.5), (0.5, bad), (bad, bad)):
            with pytest.raises(NumericDomainError, match=r"must lie in \[0, 2\]"):
                compose_bures(*args)

    @pytest.mark.parametrize("args", [(np.float64("nan"), 0.0), (0.5, 10**400)],
                             ids=["numpy-nan", "int-1e400"])
    def test_non_finite_numbers_of_other_types_are_a_domain_error(self, args):
        # not exact floats, so admitted by the value types' rule, which finds
        # them not finite
        with pytest.raises(NumericDomainError, match=r"must lie in \[0, 2\]"):
            compose_bures(*args)

    @pytest.mark.parametrize("bad", ["0.5", True, False, np.True_, None])
    def test_strings_and_bools_are_refused(self, bad):
        for args in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(TypeError, match="expected a number"):
                compose_bures(*args)

    def test_other_numbers_are_distances(self):
        assert compose_bures(1, 0) == 1.0
        assert compose_bures(np.float64(1.0), np.float32(1.0)) == 1.5

    def test_matches_fidelity_product(self):
        rng = np.random.default_rng(52)
        for _ in range(1000):
            f1, f2 = rng.uniform(1e-6, 1.0, 2)
            lhs = compose_bures(bures_from_fidelity(f1), bures_from_fidelity(f2))
            rhs = bures_from_fidelity(f1 * f2)
            assert abs(lhs - rhs) <= 1e-12

    def test_factorizes_on_product_states(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            ns = rng.uniform(0.5, 3, 2)
            mds = [
                ModeParams(n, rng.uniform(0, math.sqrt(n * n - 0.25)))
                for n in ns
            ]
            refs = [reference_states(rng.uniform(0, 1.5)).omss for _ in range(2)]
            v = np.zeros((4, 4), dtype=complex)
            v[:2, :2] = mode_covariance(mds[0])
            v[2:, 2:] = mode_covariance(mds[1])
            w = np.zeros((4, 4), dtype=complex)
            w[:2, :2] = mode_covariance(refs[0])
            w[2:, 2:] = mode_covariance(refs[1])
            d_joint = bures_from_fidelity(trace_overlap(v, w))
            parts = [
                bures_from_fidelity(trace_overlap(mode_covariance(md), mode_covariance(ref)))
                for md, ref in zip(mds, refs)
            ]
            assert abs(d_joint - compose_bures(*parts)) <= 1e-12


class TestFidelityFactorization:
    def test_joint_output_against_product_reference(self):
        # decoupled mixer outputs against per-port pure references: the
        # 4x4 determinant overlap must equal the product of the 2x2 ones
        rng = np.random.default_rng(54)
        bs = MixerConfig(theta=math.pi / 4)
        from gausspair import transform_blocks
        for p in draw_symmetric_physical(rng, 200):
            blocks = transform_blocks(p, bs)
            ref1 = reference_states(rng.uniform(0.1, 1.5)).omss
            ref2 = reference_states(rng.uniform(0.1, 1.5)).omss
            w = np.zeros((4, 4), dtype=complex)
            w[:2, :2] = mode_covariance(ref1)
            w[2:, 2:] = mode_covariance(ref2)
            joint = trace_overlap(build_covariance(mix_params(p, bs)), w)
            parts = (
                trace_overlap(blocks.v1p, mode_covariance(ref1))
                * trace_overlap(blocks.v2p, mode_covariance(ref2))
            )
            assert abs(joint - parts) <= 1e-10


class TestUntouchedPort:
    def test_single_port_measurement_sees_the_joint_distance(self):
        # pure twin-beam input, one port compared against a different pure
        # squeezed reference, the other left as it came out of the mixer:
        # the input-side overlap equals the measured port's overlap
        cfg = MixerConfig(theta=math.pi / 4, phi0=0.3, phi1=-0.2)
        v_in = build_covariance(reference_states(0.7).tmsv)
        v_out = transform_full(v_in, cfg)
        assert np.abs(v_out[:2, 2:]).max() < 1e-12
        ref1 = mode_covariance(
            ModeParams(n=0.5 * math.cosh(0.8), m=-0.5 * math.sinh(0.8) * np.exp(0.9j))
        )
        sigma_out = np.zeros((4, 4), dtype=complex)
        sigma_out[:2, :2] = ref1
        sigma_out[2:, 2:] = v_out[2:, 2:]
        sigma_in = transform_full(sigma_out, cfg.inverse)
        f_in = trace_overlap(v_in, sigma_in)
        f_port = trace_overlap(v_out[:2, :2], ref1)
        assert abs(f_in - f_port) <= 1e-12
        assert abs(bures_from_fidelity(f_in) - bures_from_fidelity(f_port)) <= 1e-12


class TestEntanglementDegree:
    def test_twin_beam_reference_scores_one(self):
        refs = reference_states(1.0)
        assert entanglement_degree(refs.tmsv, 1.0).degree == pytest.approx(1.0, abs=1e-12)

    def test_traced_out_reference_scores_zero(self):
        refs = reference_states(1.0)
        assert entanglement_degree(refs.sep, 1.0).degree == pytest.approx(0.0, abs=1e-12)

    def test_anchor_point(self):
        n = math.cosh(2.0) / 2
        report = entanglement_degree(GaussianParams(n1=n, n2=n, m_c=1.6), 1.0)
        assert report.fidelity == pytest.approx(ANCHOR_F, abs=1e-12)
        assert report.bures == pytest.approx(ANCHOR_DB, abs=1e-12)
        assert report.degree == pytest.approx(ANCHOR_E, abs=1e-12)
        assert report.fidelity == pytest.approx(0.39958, abs=1e-5)
        assert report.bures == pytest.approx(0.73574, abs=1e-5)
        assert report.degree == pytest.approx(0.4719, abs=1e-4)
        assert not report.separable

    def test_separable_normalizer_value(self):
        refs = reference_states(1.0)
        f = trace_overlap(build_covariance(refs.sep), build_covariance(refs.tmsv))
        assert f == pytest.approx(F_SEP_R1, abs=1e-12)
        assert f == pytest.approx(1.0 / (math.cosh(2.0) ** 2 - math.sinh(2.0) ** 2 / 4), abs=1e-14)
        assert bures_from_fidelity(f) == pytest.approx(DB_SEP_R1, abs=1e-12)

    def test_bures_consistent_with_fidelity(self):
        report = entanglement_degree(GaussianParams(n1=2, n2=2, m_c=1.8), 1.0)
        assert report.bures == 2.0 - 2.0 * math.sqrt(report.fidelity)

    def test_anchors_hold_across_squeezings(self):
        for r in (0.25, 1.0, 2.0, 3.0):
            refs = reference_states(r)
            assert entanglement_degree(refs.tmsv, r).degree == pytest.approx(1.0, abs=1e-9)
            assert entanglement_degree(refs.sep, r).degree == pytest.approx(0.0, abs=1e-12)

    def test_correlation_phase_does_not_matter(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            n = rng.uniform(0.8, 3.0)
            mag = rng.uniform(0.0, math.sqrt(n * n - 0.25))
            base = entanglement_degree(GaussianParams(n1=n, n2=n, m_c=mag), 1.0).degree
            rotated = entanglement_degree(
                GaussianParams(n1=n, n2=n, m_c=mag * np.exp(2j * np.pi * rng.uniform())), 1.0
            ).degree
            assert rotated == pytest.approx(base, abs=1e-10)

    def test_strictly_increasing_in_cross_moment(self):
        n = math.cosh(2.0) / 2
        m_max = math.sqrt(n * n - 0.25)
        degrees = [
            entanglement_degree(GaussianParams(n1=n, n2=n, m_c=m), 1.0).degree
            for m in np.linspace(0.0, m_max, 60)
        ]
        assert all(b > a for a, b in zip(degrees, degrees[1:]))

    def test_nonphysical_rejected(self):
        with pytest.raises(NonPhysicalStateError):
            entanglement_degree(GaussianParams(n1=1, n2=1, m_c=1.8), 1.0)

    def test_zero_reference_rejected(self):
        # the degree and both symmetric-class closed forms share the guard
        for r in (0.0, -1.0):
            with pytest.raises(DegenerateStateError, match="must be positive"):
                entanglement_degree(GaussianParams(n1=1, n2=1), r)
            with pytest.raises(DegenerateStateError, match="must be positive"):
                separable_distance(r)
            with pytest.raises(DegenerateStateError, match="must be positive"):
                symmetric_degree(2.0, 1.0, r)


class TestSeparableDistance:
    def test_matches_determinant_route(self):
        for r in (0.05, 0.3, 0.5, 1.0, 2.0, 4.0):
            refs = reference_states(r)
            f = trace_overlap(build_covariance(refs.sep), build_covariance(refs.tmsv))
            assert separable_distance(r) == pytest.approx(bures_from_fidelity(f), rel=1e-12)

    def test_value_at_unit_squeezing(self):
        assert separable_distance(1.0) == pytest.approx(DB_SEP_R1, abs=1e-12)

    def test_small_squeezing_keeps_relative_precision(self):
        # d_sep = 2 (1 - F)/(1 + sqrt F) with 1 - F = 3M^2/(1 + 3M^2), M = sinh(2r)/2
        for r in (1e-8, 1e-6, 1e-4, 1e-2):
            m = math.sinh(2 * r) / 2
            excess = 3 * m * m
            want = 2 * (excess / (1 + excess)) / (1 + 1 / math.sqrt(1 + excess))
            assert separable_distance(r) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_extremes_raise_typed_errors(self):
        for r in (1e-160, 178.0, 400.0, math.nan):
            with pytest.raises(NumericDomainError):
                separable_distance(r)


# states within the default tol below the vacuum, each with its fidelity past
# 1 + 1e-12 against the reference at r: the first has F = 1.000000001998998,
# the others are derandomized joint_band_states draws (conftest)
VACUUM_BAND = [
    (GaussianParams(0.49999999900000097, 0.49999999900000097), 1e-6),
    (GaussianParams(0.49999999900000985, 0.49999999900000985), 1e-6),
    (GaussianParams(0.4999999990000071, 0.4999999990000071), 1e-6),
    (GaussianParams(0.49999999900006104, 0.49999999900006104), 1e-6),
    (GaussianParams(0.49999999974100157, 0.49999999974200154), 1e-6),
    (GaussianParams(0.49999999940083434, 0.49999999940083434), 1e-6),
    (GaussianParams(0.49999999900000996, 0.49999999900000996), 1e-6),
    (GaussianParams(0.49999999909999987, 0.49999999909999987, m1=1e-10 + 1e-20j), 1e-6),
    (GaussianParams(0.4999999991291402, 0.4999999991291402,
                    m1=-1.1321872458599571e-10 - 6.211880602292124e-11j), 1e-6),
    (GaussianParams(0.49999999900000675, 0.49999999900000675, m2=-0j), 1e-6),
    (GaussianParams(0.4999999990000095, 0.4999999990000095), 9.592280006176652e-06),
]


def _twin_beam_below(r, d):
    # the twin-beam reference at r with both occupations lowered by d
    n = 0.5 * math.cosh(2.0 * r) - d
    return GaussianParams(n, n, m_c=0.5 * math.sinh(2.0 * r))


class TestFidelitySlack:
    """A fidelity past 1 is read as 1 up to the bound that tol admits."""

    @pytest.mark.parametrize("p, r", VACUUM_BAND)
    def test_accepted_states_have_a_payload(self, p, r):
        _, _, _, a, b = measures._reference_terms(r)
        assert 1.0 + 1e-12 < measures._reference_overlap(p, a, b) <= (a / (a - 1e-9)) ** 2
        assert is_physical(p)
        report = entanglement_degree(p, r)
        assert report == MeasureReport(1.0, 0.0, 1.0, True)
        payload = cli.run_check(p, r)
        assert [payload[key] for key in ("fidelity", "bures", "degree")] == [1.0, 0.0, 1.0]

    def test_bound_follows_tol(self):
        # at r = 1 and tol = 1e-3 the bound is 1.030; F = 1.0068 here
        p = _twin_beam_below(1.0, 9e-4)
        assert is_physical(p, 1e-3) and not is_physical(p)
        assert entanglement_degree(p, 1.0, 1e-3).fidelity == 1.0
        assert cli.run_check(p, 1.0, 1e-3)["fidelity"] == 1.0

    def test_past_the_bound_is_a_domain_error(self):
        p, r = VACUUM_BAND[0]
        assert measures._degree_terms(p, r, 1e-9)[0] == 1.0
        with pytest.raises(NumericDomainError, match=r"^fidelity must lie in \(0, 1\]$"):
            measures._degree_terms(p, r, 1e-12)

    def test_no_bound_where_a_is_within_tol(self):
        # at r = 4, a = e^-8/2 = 1.7e-4 <= tol = 1e-3: F = 1.05 stays an error
        p = _twin_beam_below(4.0, 1.7e-5)
        assert is_physical(p, 1e-3)
        for call in (lambda: entanglement_degree(p, 4.0, 1e-3), lambda: cli.run_check(p, 4.0, 1e-3)):
            with pytest.raises(NumericDomainError, match=r"^fidelity must lie in \(0, 1\]$"):
                call()


def _uncached_report(p, r):
    # entanglement_degree's arithmetic with the reference terms recomputed
    d_sep, _, _, a, b = measures._reference.__wrapped__(r)
    fid = measures._reference_overlap(p, a, b)
    bures = bures_from_fidelity(fid)
    return MeasureReport(fid, bures, 1.0 - bures / d_sep, is_separable(p))


def _uncached_symmetric_degree(n, m, r):
    d_sep, *terms = measures._reference.__wrapped__(r)
    return 1.0 - measures._symmetric_distance(n, m, *terms) / d_sep


class TestReferenceCache:
    """The terms that depend on r alone are computed once per r."""

    R_VALUES = (1e-9, 1e-3, 1.0, 50.0, 170.0)

    def test_cached_routes_match_the_uncached_formulas(self):
        measures._reference.cache_clear()
        p = GaussianParams(n1=2.86, n2=1.78, m1=0.5 + 0.2j, m2=-0.49,
                           m_s=-0.19 + 0.04j, m_c=-1.29 + 0.19j)
        rng = np.random.default_rng(58)
        order = [r for _ in range(3) for r in rng.permutation(self.R_VALUES)]
        for r in map(float, order):  # the first pass misses, the others hit
            assert separable_distance(r) == measures._reference.__wrapped__(r)[0]
            assert symmetric_degree(1.3, 0.6, r) == _uncached_symmetric_degree(1.3, 0.6, r)
            assert entanglement_degree(p, r) == _uncached_report(p, r)
        info = measures._reference.cache_info()
        assert info.misses == len(self.R_VALUES) and info.currsize == len(self.R_VALUES)

    @pytest.mark.parametrize("r", [1, np.float64(1.0)])
    def test_numeric_types_give_the_bits_of_the_float(self, r):
        p = GaussianParams(n1=2.0, n2=2.0, m1=0.3, m_c=1.5)
        measures._reference.cache_clear()
        assert separable_distance(r) == separable_distance(1.0)
        measures._reference.cache_clear()
        assert symmetric_degree(2.0, 1.8, r) == symmetric_degree(2.0, 1.8, 1.0)
        measures._reference.cache_clear()
        assert entanglement_degree(p, r) == entanglement_degree(p, 1.0)
        assert measures._reference.cache_info().currsize == 1

    @pytest.mark.parametrize("r, error", [
        (0, DegenerateStateError), (-1, DegenerateStateError),
        (math.nan, NumericDomainError), (200, NumericDomainError),
    ])
    def test_bad_squeezing_raises_on_every_call(self, r, error):
        p = GaussianParams(n1=1.0, n2=1.0)
        measures._reference.cache_clear()
        for _ in range(2):
            with pytest.raises(error):
                separable_distance(r)
            with pytest.raises(error):
                symmetric_degree(1.0, 0.0, r)
            with pytest.raises(error):
                entanglement_degree(p, r)
        assert measures._reference.cache_info().currsize == 0

    R_CALLS = pytest.mark.parametrize("call", [
        lambda r: entanglement_degree(GaussianParams(n1=1.0, n2=1.0), r),
        lambda r: separable_distance(r),
        lambda r: symmetric_degree(1.0, 0.0, r),
        lambda r: output_port_fidelity(ModeParams(n=1.0), r),
    ], ids=["entanglement_degree", "separable_distance", "symmetric_degree",
            "output_port_fidelity"])

    @pytest.mark.parametrize("r", [10**400, -10**400])
    @R_CALLS
    def test_int_beyond_float64_is_a_typed_error(self, call, r):
        measures._reference.cache_clear()
        with pytest.raises(NumericDomainError, match="int beyond float64"):
            call(r)
        assert measures._reference.cache_info().currsize == 0

    @pytest.mark.parametrize("r", [True, False, np.True_, np.array(True)])
    @R_CALLS
    def test_bools_are_refused(self, call, r):
        # float() reads True as r = 1.0, which the value types refuse
        measures._reference.cache_clear()
        with pytest.raises(TypeError, match="expected a number"):
            call(r)
        assert measures._reference.cache_info().currsize == 0

    @pytest.mark.parametrize("r", [np.array(1.0), np.array([1.0])], ids=["0-d", "1-d"])
    @R_CALLS
    def test_arrays_are_refused(self, call, r):
        # numbers only, as the value types admit them: GaussianParams refuses
        # an ndarray too
        measures._reference.cache_clear()
        with pytest.raises(TypeError, match="expected a number, got ndarray"):
            call(r)
        assert measures._reference.cache_info().currsize == 0

    def test_string_squeezing_stays_a_type_error(self):
        p = GaussianParams(n1=1.0, n2=1.0)
        for call in (lambda: separable_distance("1.0"),
                     lambda: symmetric_degree(1.0, 0.0, "1.0"),
                     lambda: entanglement_degree(p, "1.0")):
            with pytest.raises(TypeError):
                call()


class TestExtremeSqueezing:
    def test_tiny_squeezing_gives_a_finite_degree(self):
        report = entanglement_degree(GaussianParams(n1=1.0, n2=1.0, m_c=0.5), 1e-9)
        assert math.isfinite(report.degree) and report.degree < 0.0

    @pytest.mark.parametrize("r", [178.0, 400.0, 1e3])
    def test_overflowing_reference_is_a_typed_error(self, r):
        with pytest.raises(NumericDomainError):
            entanglement_degree(GaussianParams(n1=1.0, n2=1.0), r)

    def test_large_squeezing_overlap_is_exact_without_warning(self):
        # the 4x4 determinant overflowed here, though the fidelity fits float64
        p = GaussianParams(n1=0.9110725829205775, n2=0.9110725829205775, m_c=0.5818413952215067)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = entanglement_degree(p, 131.62532012840828)
        assert report.fidelity == pytest.approx(2.8525193945858743e-114, rel=1e-12, abs=0.0)

    def test_degree_and_bures_agree_at_the_reference(self):
        # an overlap rounding just above 1 clamps to distance 0 and degree 1 in both fields
        for r in (1e-3, 0.1, 0.5, 1.0, 3.0):
            report = entanglement_degree(reference_states(r).tmsv, r)
            assert report.bures >= 0.0 and report.degree <= 1.0
            assert report.degree == 1.0 - report.bures / separable_distance(r)
            assert report.degree == pytest.approx(1.0, abs=1e-9)


class TestSymmetricDegree:
    def test_matches_entanglement_degree(self):
        rng = np.random.default_rng(56)
        for p in draw_symmetric_physical(rng, 200, complex_phase=False):
            r = rng.uniform(0.05, 3.0)
            want = entanglement_degree(p, r).degree
            assert symmetric_degree(p.n1, p.m_c.real, r) == pytest.approx(want, abs=1e-10)

    def test_reference_anchors(self):
        # the traced-out reference scores exactly 0: its distance is the normalizer
        for r in (0.1, 0.5, 1.0, 3.0):
            refs = reference_states(r)
            assert symmetric_degree(refs.sep.n1, 0.0, r) == 0.0
            assert symmetric_degree(refs.tmsv.n1, -refs.tmsv.m_c.real, r) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n, m, r, what", [
        (0.1, 2.0, 1.0, "not positive"),  # nonphysical: its square root was complex
        (1e-320, 0.5, 5.435746025958607e-48, "not positive"),  # det rounds to 0
        (1e-320, 1.7976931348623157e308, 170.0, "not finite in float64"),  # det is -inf
    ])
    def test_unscorable_float_points_are_domain_errors(self, n, m, r, what):
        with pytest.raises(NumericDomainError, match=f"^overlap determinant is {what}$"):
            symmetric_degree(n, m, r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the typed error alone, no numpy warning first
            with pytest.raises(NumericDomainError, match=f"^overlap determinant is {what}$"):
                symmetric_degree(np.float64(n), np.float64(m), r)
        # an array point too, whatever numpy error state the caller has set
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            with pytest.raises(NumericDomainError, match="^float64 arithmetic failed: "):
                symmetric_degree(np.array([n]), np.array([m]), r)

    @pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "float64"])
    def test_overflowing_distance_is_a_domain_error(self, kind):
        # below 3 M^2 < 1 the distance's excess is inf - inf at these moments,
        # where the determinant is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError,
                               match="^Bures distance is not finite in float64$"):
                symmetric_degree(kind(1e300), kind(1e300), 1e-6)

    @pytest.mark.parametrize("n, m, error", [
        (0.0, 10**400, ValueError), (math.nan, 1.0, ValueError), (1.0, math.inf, ValueError),
        (1.0, -0.5, ValueError), (True, 0.0, TypeError), (np.True_, 0.0, TypeError), ("1.0", 0.0, TypeError),
    ])
    def test_scalar_points_are_admitted_as_classify_symmetric_admits_them(self, n, m, error):
        with pytest.raises(error) as caught:
            classify_symmetric(n, m)
        with pytest.raises(error, match=f"^{re.escape(str(caught.value))}$"):
            symmetric_degree(n, m, 1.0)


@st.composite
def general_physical_states(draw):
    """Squeezed thermal modes through a general mixer: every moment nonzero."""
    modes = []
    for _ in range(2):
        nu, z = draw(st.floats(0.5, 3.0)), draw(st.floats(0.0, 1.0))
        arg = draw(st.floats(-math.pi, math.pi))
        modes.append((nu * math.cosh(2 * z), nu * math.sinh(2 * z) * cmath.exp(1j * arg)))
    (n1, m1), (n2, m2) = modes
    angles = [draw(st.floats(-math.pi, math.pi)) for _ in range(3)]
    return mix_params(GaussianParams(n1=n1, n2=n2, m1=m1, m2=m2), MixerConfig(*angles))


# The measured worst relative errors of the overlap on the draws of
# TestGeneralOverlap, rounded up in the second digit: against the exact
# determinant of its frame entries and against the former minor-sum route on
# the scaled states, and against the decimal referee on the near-pure states.
# Hypothesis seeds its derandomized draws from a test's source and its own
# version, so an edit to that test or another hypothesis asks for the bound
# to be measured again (these are from hypothesis 6.155.2).
EXACT_FRAME_REL = 2.1e-15  # measured 2.10e-15
MINOR_SUM_REL = 1.8e-14  # measured 1.80e-14
NEAR_PURE_REL = 4.9e-11  # measured 4.87e-11


@st.composite
def scaled_states(draw):
    """Moments of magnitude up to one scale from 1e-3 to 1e3, at any phase,
    and occupations from 1/2 to 1/2 + 4 scale; physical or not."""
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    m1, m2, m_s, m_c = (scale * draw(st.floats(0.0, 1.0)) * cmath.exp(1j * draw(st.floats(
        -math.pi, math.pi))) for _ in range(4))
    n1, n2 = (0.5 + scale * draw(st.floats(0.0, 4.0)) for _ in range(2))
    return GaussianParams(n1=n1, n2=n2, m1=m1, m2=m2, m_s=m_s, m_c=m_c)


class TestGeneralOverlap:
    """The overlap of general states with the aligned reference, against other routes."""

    def test_matches_the_determinant_route(self):
        # where the 4x4 determinant is still accurate
        rng = np.random.default_rng(57)
        for p in draw_physical(rng, 300):
            r = rng.uniform(0.05, 3.0)
            big_n, big_m = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
            phase = cmath.exp(1j * cmath.phase(p.m_c)) if p.m_c != 0 else 1.0
            sigma = GaussianParams(n1=big_n, n2=big_n, m_c=big_m * phase)
            want = trace_overlap(build_covariance(p), build_covariance(sigma))
            assert entanglement_degree(p, r).fidelity == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(general_physical_states(), st.floats(0.05, 170.0))
    def test_matches_the_decimal_referee(self, p, r):
        want = oracle.reference_overlap_decimal(p, r)
        assert entanglement_degree(p, r).fidelity == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(scaled_states(), st.floats(math.log(1e-6), math.log(170.0)).map(math.exp))
    def test_is_the_exact_determinant_of_its_frame(self, p, r):
        # the elimination against the exact determinant of the same float
        # frame entries: within the measured worst case where the sum is
        # positive definite, a typed error where it is not; the former
        # minor-sum route, a second referee, within its own bound
        _, _, _, a, b = measures._reference(r)
        minors = oracle.overlap_minors_exact(p, a, b)
        if not all(m > 0 for m in minors):
            with pytest.raises(NumericDomainError, match="overlap determinant is not positive"):
                measures._reference_overlap(p, a, b)
            return
        got = measures._reference_overlap(p, a, b)
        want = 1.0 / math.sqrt(minors[-1])
        assert abs(got - want) / want <= EXACT_FRAME_REL
        assert abs(got - oracle.reference_overlap_minors(p, a, b)) / want <= MINOR_SUM_REL

    def test_a_zero_pivot_is_a_typed_error(self):
        # a = 1/4 and b = 1 at r = ln(2)/2, where the first pivot v1 + a is
        # -1/4 + 1/4 = 0 exactly; dividing by it would be a ZeroDivisionError
        _, _, _, a, b = measures._reference(math.log(2.0) / 2.0)
        assert (a, b) == (0.25, 1.0)
        p = GaussianParams(0.5, 0.5, m_c=0.75)
        assert oracle.overlap_minors_exact(p, a, b)[0] == 0
        with pytest.raises(NumericDomainError, match="overlap determinant is not positive"):
            measures._reference_overlap(p, a, b)

    def test_an_overflow_is_a_typed_error(self):
        # physical states whose determinant passes float64
        _, _, _, a, b = measures._reference(1.0)
        for p in (GaussianParams(1e200, 1e200), GaussianParams(1e155, 1e155, m_c=0.5e155),
                  GaussianParams(1e300, 1e300, m1=0.5e300, m_s=0.5e300j)):
            with pytest.raises(NumericDomainError, match="not finite in float64"):
                measures._reference_overlap(p, a, b)

    def test_near_pure_states_at_the_measured_bound(self):
        # two squeezed vacua (z up to 4, so moments up to ~750) through a
        # random mixer: near-pure general states, whose principal minors
        # cancel; judged against the decimal referee.  Neither determinant
        # route keeps full relative precision here: the former minor sum
        # has the same worst case on these states
        rng = np.random.default_rng(61)
        worst, kept = 0.0, 0
        while kept < 1000:
            z1, z2 = rng.uniform(0.0, 4.0, 2).tolist()
            f1, f2 = rng.uniform(-math.pi, math.pi, 2).tolist()
            vacua = GaussianParams(n1=math.cosh(2 * z1) / 2, n2=math.cosh(2 * z2) / 2,
                                   m1=math.sinh(2 * z1) / 2 * cmath.exp(1j * f1),
                                   m2=math.sinh(2 * z2) / 2 * cmath.exp(1j * f2))
            p = mix_params(vacua, MixerConfig(*rng.uniform(-math.pi, math.pi, 3).tolist()))
            r = rng.uniform(0.05, 5.0)
            if not is_physical(p):
                continue
            kept += 1
            want = oracle.reference_overlap_decimal(p, r)
            worst = max(worst, abs(entanglement_degree(p, r).fidelity - want) / want)
        assert worst <= NEAR_PURE_REL
