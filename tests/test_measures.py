import math
import warnings

import numpy as np
import pytest

from gausspair import (
    DegenerateStateError,
    GaussianParams,
    MixerConfig,
    ModeParams,
    NonPhysicalStateError,
    NumericDomainError,
    build_covariance,
    bures_from_fidelity,
    compose_bures,
    entanglement_degree,
    mode_covariance,
    output_port_fidelity,
    separable_distance,
    symmetric_degree,
    trace_overlap,
)
from gausspair import measures, oracle
from gausspair.oracle import transform_full

from conftest import draw_symmetric_physical, reference_states

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


class TestBures:
    def test_endpoints(self):
        assert bures_from_fidelity(1.0) == 0.0
        assert bures_from_fidelity(0.25) == 1.0

    def test_separable_reference_distance(self):
        assert bures_from_fidelity(0.092034) == pytest.approx(1.39326, abs=1e-5)

    def test_domain(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(NumericDomainError):
                bures_from_fidelity(bad)


class TestComposeBures:
    def test_untouched_port_passes_through(self):
        for d in (0.0, 0.4, 1.7):
            assert compose_bures(0.0, d) == d
            assert compose_bures(d, 0.0) == d

    def test_quarter_fidelities(self):
        assert compose_bures(1.0, 1.0) == pytest.approx(1.5, abs=1e-15)

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
            joint = trace_overlap(blocks.assemble(), w)
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
            assert separable_distance(r) == pytest.approx(want, rel=1e-14)

    def test_extremes_raise_typed_errors(self):
        for r in (1e-160, 178.0, 400.0, math.nan):
            with pytest.raises(NumericDomainError):
                separable_distance(r)


class TestExtremeSqueezing:
    def test_tiny_squeezing_gives_a_finite_degree(self):
        report = entanglement_degree(GaussianParams(n1=1.0, n2=1.0, m_c=0.5), 1e-9)
        assert math.isfinite(report.degree) and report.degree < 0.0

    @pytest.mark.parametrize("r", [178.0, 400.0, 1e3])
    def test_overflowing_reference_is_a_typed_error(self, r):
        with pytest.raises(NumericDomainError):
            entanglement_degree(GaussianParams(n1=1.0, n2=1.0), r)

    def test_overflowing_overlap_determinant_is_typed_without_warning(self):
        p = GaussianParams(n1=0.9110725829205775, n2=0.9110725829205775, m_c=0.5818413952215067)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError, match="overflow encountered in det"):
                entanglement_degree(p, 131.62532012840828)

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

    def test_one_determinant_overlap_per_degree(self, monkeypatch):
        calls = []
        original = measures.trace_overlap
        monkeypatch.setattr(measures, "trace_overlap", lambda *a: calls.append(a) or original(*a))
        entanglement_degree(GaussianParams(n1=2, n2=2, m_c=1.8), 1.0)
        assert len(calls) == 1
