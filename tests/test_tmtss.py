import math

import numpy as np
import pytest

from gausspair import (
    DegenerateStateError,
    GaussianParams,
    ModelValidityError,
    ModeParams,
    TmtssInputs,
    classify_symmetric,
    is_p_representable_mode,
    is_physical,
    is_separable,
    is_ssld,
    mode_is_physical,
    sweep,
    tmtss_params,
)
from gausspair.tmtss import SYMMETRIC_CLASSES, _decay_ratio


class TestInputs:
    def test_rate_products_recomputable(self):
        inputs = TmtssInputs(d=0.5, r=-0.3, nbar=0.25)
        assert inputs.p1 == pytest.approx(0.5 - 0.6)
        assert inputs.p2 == pytest.approx(0.5 + 0.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            TmtssInputs(d=-0.1, r=0.0)
        with pytest.raises(ValueError):
            TmtssInputs(d=0.1, r=0.0, nbar=-1.0)
        with pytest.raises(ValueError):
            TmtssInputs(d=math.nan, r=0.0)


class TestDecayRatio:
    def test_limit_at_zero(self):
        assert _decay_ratio(0.0) == 1.0

    def test_small_argument_matches_series(self):
        for p in (1e-8, -1e-8, 1e-5, -3e-5):
            series = 1.0 - p / 2.0 + p * p / 6.0
            assert _decay_ratio(p) == pytest.approx(series, abs=1e-12)

    def test_large_argument(self):
        assert _decay_ratio(50.0) == pytest.approx(1.0 / 50.0, rel=1e-12)


class TestTmtssParams:
    def test_zero_squeezing_degenerate(self):
        with pytest.raises(DegenerateStateError):
            tmtss_params(TmtssInputs(d=0.0, r=0.0))
        with pytest.raises(DegenerateStateError):
            tmtss_params(TmtssInputs(d=0.3, r=0.0))

    def test_nonphysical_region_reports_raw_values(self):
        with pytest.raises(ModelValidityError) as err:
            tmtss_params(TmtssInputs(d=0.1, r=0.5, nbar=0.0))
        assert err.value.n == pytest.approx(-0.060427047986377, abs=1e-9)
        assert err.value.m == pytest.approx(-0.402589031895361, abs=1e-9)

    def test_entangled_operating_point(self):
        p = tmtss_params(TmtssInputs(d=0.5, r=-0.3))
        assert p.n1 == pytest.approx(0.7502248434956464, abs=1e-12)
        assert p.m_c.real == pytest.approx(0.2925930025060872, abs=1e-12)
        assert classify_symmetric(p.n1, abs(p.m_c)) == "entangled"

    def test_separable_operating_point(self):
        p = tmtss_params(TmtssInputs(d=2.0, r=-0.5, nbar=0.5))
        assert classify_symmetric(p.n1, abs(p.m_c)) == "separable"

    def test_output_is_symmetric_class(self):
        rng = np.random.default_rng(61)
        produced = 0
        for _ in range(200):
            inputs = TmtssInputs(
                d=rng.uniform(0.0, 3.0), r=-rng.uniform(0.05, 1.0), nbar=rng.uniform(0.0, 2.0)
            )
            try:
                p = tmtss_params(inputs)
            except (DegenerateStateError, ModelValidityError):
                continue
            produced += 1
            assert p.n1 == p.n2
            assert p.m1 == p.m2 == p.m_s == 0
            assert p.m_c.imag == 0
            assert is_ssld(p)
            assert is_physical(p)
        assert produced > 100

    def test_near_zero_rate_argument_is_stable(self):
        # p2 passes through zero here; the stabilized ratio keeps the
        # envelope finite
        inputs = TmtssInputs(d=0.5, r=0.2499995)
        assert abs(inputs.p2) < 1e-5
        with pytest.raises((ModelValidityError, DegenerateStateError)):
            tmtss_params(inputs)


class TestClassifySymmetric:
    def test_examples(self):
        assert classify_symmetric(2.0, 1.8) == "entangled"
        assert classify_symmetric(2.0, 1.4) == "separable"
        assert classify_symmetric(1.0, 1.8) == "nonphysical"

    def test_codes_are_one_byte(self):
        # the grid n in {1, 2, 3} x m in {1.4, 1.8}, each class in one column
        cfg = sweep.SweepConfig(n_min=1.0, n_max=3.0, n_steps=3, m_min=1.4, m_max=1.8, m_steps=2)
        codes = sweep.sweep_grid(cfg).codes
        assert codes.dtype == np.uint8
        assert codes.tolist() == [[0, 0], [2, 1], [2, 2]]
        assert [SYMMETRIC_CLASSES[c] for c in codes[:, 1]] == ["nonphysical", "entangled", "separable"]

    def test_an_exact_tie_with_both_bounds_is_separable(self):
        # at m = 0, tol = 2**-30 and n = 1/2 - tol tie both bounds exactly in
        # float64; boundary points classify on the accepting side
        tol = 2.0 ** -30
        n = 0.5 - tol
        assert n == math.hypot(0.0, 0.5) - tol == 0.0 + 0.5 - tol
        assert classify_symmetric(n, 0.0, tol) == "separable"
        cfg = sweep.SweepConfig(n_min=n, n_steps=2, m_min=0.0, m_steps=2, tol=tol)
        assert (cfg.n_values()[0], cfg.m_values()[0]) == (n, 0.0)
        assert sweep.sweep_grid(cfg).codes[0, 0] == 2

    @pytest.mark.parametrize("draw", ["uniform", "log-uniform"])
    def test_placed_ties_agree_with_port_criteria_and_sweep(self, draw):
        # n at each bound's float tie, hypot(m, 1/2) - tol and m + 1/2 - tol,
        # and one ulp either side: the scalar class, the port mode's two
        # criteria and the sweep's array pass must agree point for point.
        # Where math.hypot and libm's hypot differ in the last ulp (a few m in
        # a thousand), bounds whose roots come from different hypots split here.
        rng = np.random.default_rng(34)
        m = np.sort(rng.uniform(0.0, 10.0, 1000) if draw == "uniform"
                    else 10.0 ** rng.uniform(-8.0, 8.0, 1000))
        assert m[0] > 0.0
        tol = 1e-9

        def port_class(n, mj):
            port = ModeParams(n, complex(mj))
            physical = mode_is_physical(port, tol)
            return SYMMETRIC_CLASSES[physical + (physical and is_p_representable_mode(port, tol))]

        for tie in (np.hypot(m, 0.5) - tol, m + 0.5 - tol):
            for n in (np.nextafter(tie, -np.inf), tie, np.nextafter(tie, np.inf)):
                points = list(zip(n.tolist(), m.tolist()))  # n increases with m
                for point in points:
                    assert classify_symmetric(*point, tol) == port_class(*point), point
                # a 2x2 grid's four corners are exact: point i is its (n_min,
                # m_min) corner and point -1 - i its (n_max, m_max) corner
                for (n_lo, m_lo), (n_hi, m_hi) in zip(points, reversed(points[len(points) // 2:])):
                    cfg = sweep.SweepConfig(n_min=n_lo, n_max=n_hi, n_steps=2, m_min=m_lo,
                                            m_max=m_hi, m_steps=2, tol=tol)
                    assert cfg.n_values().tolist() == [n_lo, n_hi]
                    assert cfg.m_values().tolist() == [m_lo, m_hi]
                    codes = sweep.sweep_grid(cfg).codes.tolist()
                    assert [SYMMETRIC_CLASSES[c] for row in codes for c in row] == [
                        port_class(a, b) for a in (n_lo, n_hi) for b in (m_lo, m_hi)], (n_lo, m_lo)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            classify_symmetric(1.0, -0.1)

    @pytest.mark.parametrize("n, m", [
        (math.nan, 0.5), (2.0, math.nan), (math.inf, math.inf), (math.inf, 0.5), (2.0, math.inf),
        (10**400, 0.5), (2.0, -10**400),
    ])
    def test_non_finite_point_rejected(self, n, m):
        with pytest.raises(ValueError, match="^n and m must be finite$"):
            classify_symmetric(n, m)

    @pytest.mark.parametrize("bad", [True, False, np.True_, "2.0"])
    def test_bools_and_strings_are_refused(self, bad):
        # float() reads each of these; True would classify as n = 1
        for args in ((bad, 0.5), (2.0, bad)):
            with pytest.raises(TypeError, match="expected a number"):
                classify_symmetric(*args)

    def test_bound_does_not_square_the_moment(self):
        # m^2 overflows float64; the state is physical and separable
        assert classify_symmetric(3e154, 2e154) == "separable"
        assert classify_symmetric(2e154, 3e154) == "nonphysical"

    def test_agrees_with_covariance_criteria(self):
        rng = np.random.default_rng(62)
        for _ in range(2000):
            n = rng.uniform(0.5, 5.0)
            m = rng.uniform(0.0, 5.0)
            label = classify_symmetric(n, m)
            p = GaussianParams(n1=n, n2=n, m_c=m)
            if label == "nonphysical":
                assert not is_physical(p)
            else:
                assert is_physical(p)
                assert is_separable(p) == (label == "separable")

    def test_pure_twin_beam_sits_on_physicality_boundary(self):
        for r in np.linspace(0.05, 3.0, 25):
            n = 0.5 * math.cosh(2 * r)
            m = 0.5 * math.sinh(2 * r)
            assert n == pytest.approx(math.sqrt(m * m + 0.25), abs=1e-9)
            assert classify_symmetric(n, m) == "entangled"
