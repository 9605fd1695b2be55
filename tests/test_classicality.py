import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausspair import (
    GaussianParams,
    MixerConfig,
    ModeParams,
    build_covariance,
    is_p_representable_joint,
    is_p_representable_mode,
    is_separable,
    local_normal_form,
    mix_params,
    mode_covariance,
    mode_is_physical,
    mode_params,
    nonclassicality_margin,
    solve_decoupling_phases,
    transform_blocks,
)
from gausspair.oracle import COMMUTATOR_SIGNATURE, partial_transpose

from conftest import draw_mixer, draw_physical, draw_symmetric_physical

BS5050 = MixerConfig(theta=math.pi / 4)


def test_mode_params_roundtrip():
    md = ModeParams(n=1.2, m=0.3 - 0.4j)
    assert mode_params(mode_covariance(md)) == md


def test_mode_params_rejects_bad_shape():
    with pytest.raises(ValueError):
        mode_params(np.eye(4))


class TestJoint:
    def test_vacuum_on_boundary(self):
        assert is_p_representable_joint(0.5 * np.eye(4, dtype=complex))

    def test_thermal_pair(self):
        v = build_covariance(GaussianParams(n1=1.0, n2=1.0))
        assert is_p_representable_joint(v)

    def test_mixed_entangled_output_fails(self):
        out = transform_blocks(GaussianParams(n1=2, n2=2, m_c=1.8), BS5050).assemble()
        assert not is_p_representable_joint(out)

    def test_joint_implies_modes_on_block_diagonal(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            md1 = ModeParams(rng.uniform(0.5, 3), rng.uniform(0, 1.5) * np.exp(2j * np.pi * rng.uniform()))
            md2 = ModeParams(rng.uniform(0.5, 3), rng.uniform(0, 1.5) * np.exp(2j * np.pi * rng.uniform()))
            v = np.zeros((4, 4), dtype=complex)
            v[:2, :2] = mode_covariance(md1)
            v[2:, 2:] = mode_covariance(md2)
            if is_p_representable_joint(v):
                assert is_p_representable_mode(md1)
                assert is_p_representable_mode(md2)


class TestMode:
    def test_vacuum_boundary(self):
        assert is_p_representable_mode(ModeParams(n=0.5, m=0))

    def test_nonclassical_mode(self):
        assert not is_p_representable_mode(ModeParams(n=2, m=1.8))

    def test_classical_mode(self):
        assert is_p_representable_mode(ModeParams(n=2, m=1.4))


class TestOverflow:
    def test_one_mode_bound_does_not_square_the_moment(self):
        # |m|^2 overflows float64, n > |m| still decides the bound
        assert mode_is_physical(ModeParams(1e200, 1e160))
        assert not mode_is_physical(ModeParams(1e160, 1e200))


class TestMargin:
    def test_vacuum(self):
        assert nonclassicality_margin(ModeParams(n=0.5, m=0)) == 0.0

    def test_signed_values(self):
        assert nonclassicality_margin(ModeParams(n=2, m=1.8)) == pytest.approx(0.3)
        assert nonclassicality_margin(ModeParams(n=2, m=1.4)) == pytest.approx(-0.1)


class TestCentralTheorem:
    def test_separability_equals_output_classicality(self):
        # symmetric-class states through the balanced mixer: input
        # separability and either output port's classicality must coincide
        rng = np.random.default_rng(42)
        checked = 0
        for p in draw_symmetric_physical(rng, 2000):
            if abs(p.n1 - abs(p.m_c) - 0.5) < 1e-7:
                continue
            blocks = transform_blocks(p, BS5050)
            md1 = mode_params(blocks.v1p)
            md2 = mode_params(blocks.v2p)
            sep = is_separable(p)
            assert sep == is_p_representable_mode(md1)
            assert sep == is_p_representable_mode(md2)
            checked += 1
        assert checked > 1900

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.floats(0.5, 5.0),
        purity=st.floats(0.0, 1.0),
        arg=st.floats(-math.pi, math.pi),
        ops=st.one_of(
            st.just((0.0, 0.0, 0.0, 0.0)),
            st.tuples(*[st.floats(-math.pi, math.pi), st.floats(-1.0, 1.0)] * 2),
        ),
    )
    def test_port_margin_is_the_partial_transpose_defect(self, n, purity, arg, ops):
        # Symmetric-class states, as they are or behind local symplectics
        # that the normal form removes: at the 50:50 decoupling phases the
        # larger port margin is 1/2 minus the smallest symplectic eigenvalue
        # of the partial transpose
        m = purity * math.sqrt(n * n - 0.25) * cmath.exp(1j * arg)
        local = np.zeros((4, 4), dtype=complex)
        for i, (phi, z) in enumerate((ops[:2], ops[2:])):
            rotation = np.diag([cmath.exp(1j * phi), cmath.exp(-1j * phi)])
            squeeze = np.array([[math.cosh(z), math.sinh(z)], [math.sinh(z), math.cosh(z)]])
            local[2 * i:2 * i + 2, 2 * i:2 * i + 2] = rotation @ squeeze
        v = local.conj().T @ build_covariance(GaussianParams(n1=n, n2=n, m_c=m)) @ local
        p = GaussianParams(n1=v[0, 0].real, n2=v[2, 2].real, m1=v[0, 1], m2=v[2, 3],
                           m_s=v[0, 2], m_c=v[0, 3])
        normal, _ = local_normal_form(p)
        phases = solve_decoupling_phases(normal)
        assert phases is not None
        q = mix_params(normal, MixerConfig(math.pi / 4, *phases))
        margin = max(nonclassicality_margin(ModeParams(q.n1, q.m1)),
                     nonclassicality_margin(ModeParams(q.n2, q.m2)))
        nu = np.abs(np.linalg.eigvals(COMMUTATOR_SIGNATURE @ partial_transpose(v))).min()
        assert abs(margin - (0.5 - nu)) <= 1e-12, (margin, 0.5 - nu)


class TestOutputPhysicality:
    def test_transformed_modes_stay_physical(self):
        rng = np.random.default_rng(43)
        for p in draw_physical(rng, 200):
            blocks = transform_blocks(p, draw_mixer(rng))
            assert mode_is_physical(mode_params(blocks.v1p))
            assert mode_is_physical(mode_params(blocks.v2p))
