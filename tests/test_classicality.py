import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausspair import (
    DEFAULT_TOL,
    GaussianParams,
    MixerConfig,
    ModeParams,
    NumericDomainError,
    build_covariance,
    is_p_representable_joint,
    is_p_representable_mode,
    is_physical,
    is_separable,
    local_normal_form,
    mix_params,
    mode_is_physical,
    mode_params,
    nonclassicality_margin,
    solve_decoupling_phases,
    transform_blocks,
)
from gausspair.oracle import (
    COMMUTATOR_SIGNATURE,
    is_p_representable_joint_eig,
    mode_covariance,
    partial_transpose,
)
from gausspair.cli import run_check

from conftest import (
    draw_mixer, draw_params, draw_physical, draw_symmetric_physical, joint_band_states, joint_eig,
    tol_consistent,
)

BS5050 = MixerConfig(theta=math.pi / 4)


def test_mode_params_roundtrip():
    md = ModeParams(n=1.2, m=0.3 - 0.4j)
    assert mode_params(mode_covariance(md)) == md


def test_mode_params_rejects_bad_shape():
    with pytest.raises(ValueError):
        mode_params(np.eye(4))


def _bits(md):
    return md.n.hex(), md.m.real.hex(), md.m.imag.hex()


def test_mode_params_reads_tuples_lists_and_arrays_alike():
    p = GaussianParams(1.3, 0.9, 0.2 - 0.1j, -0.3j, 0.1 + 0.2j, 0.4)
    blocks = transform_blocks(p, MixerConfig(0.7, 0.2, -0.5))
    for block in (blocks.v1p, blocks.v2p):
        read = [mode_params(b) for b in (block, [list(row) for row in block], np.asarray(block))]
        assert read[0] == read[1] == read[2]
        assert len({_bits(md) for md in read}) == 1
        assert all(type(md.n) is float and type(md.m) is complex for md in read)
        assert _bits(read[0]) == _bits(ModeParams(block[0][0].real, block[0][1]))


@pytest.mark.parametrize("block", [
    np.eye(4), np.zeros(2), np.zeros((2, 2, 1)), [[1, 2], [3]], "ab", None,
], ids=["eye4", "vector", "deep", "ragged", "str", "None"])
def test_mode_params_rejects_non_2x2_blocks(block):
    with pytest.raises(ValueError, match="expected a 2x2 block"):
        mode_params(block)


def test_mode_params_refuses_a_str_entry_as_mode_params_does():
    with pytest.raises(TypeError, match="expected a number, got str"):
        mode_params([["1.2", 0j], [0j, "1.2"]])


@pytest.mark.parametrize("n, m", [(1.5, 0.25), (1.5, -0.25), (2, 0), (0.5, -0.0), (3, -1)])
def test_mode_params_reads_real_entries_as_complex_ones(n, m):
    # floats and ints, in tuples, lists or arrays, read as the complex entries
    # an OutputBlocks holds
    entries = [[complex(n), complex(m)], [complex(m), complex(n)]]
    want = mode_params(tuple(map(tuple, entries)))
    for block in (((n, m), (m, n)), [[n, m], [m, n]], np.array([[n, m], [m, n]]), entries,
                  np.asarray(entries)):
        read = mode_params(block)
        assert read == want and _bits(read) == _bits(want)
        assert type(read.n) is float and type(read.m) is complex


class _Row(complex):
    """A complex with a length, as a row of a deeper array has."""

    def __len__(self):
        return 2


def test_mode_params_checks_a_complex_subclass_as_any_entry():
    # a complex with a length is a row of a deeper array, as any such entry is
    with pytest.raises(ValueError, match="expected a 2x2 block"):
        mode_params(((_Row(1.5), 0j), (0j, 1.5 + 0j)))
    with pytest.raises(ValueError, match="expected a 2x2 block"):
        mode_params(((1.5 + 0j, 0j), (0j, _Row(1.5))))

    class Plain(complex):
        pass
    read = mode_params(((Plain(1.5), Plain(0.25j)), (Plain(-0.25j), Plain(1.5))))
    assert read == ModeParams(1.5, 0.25j) and type(read.m) is complex


@pytest.mark.parametrize("block, error, message", [
    (((1j, 2j, 3j), (4j, 5j, 6j)), ValueError, "expected a 2x2 block, got ((1j, 2j, 3j), (4j, 5j, 6j))"),
    (np.zeros((2, 3), complex), ValueError, "expected a 2x2 block, got shape (2, 3)"),
    ("ab", ValueError, "expected a 2x2 block, got 'ab'"),
    (((1j, "x"), (1j, 1j)), TypeError, "expected a number, got str"),
], ids=["2x3-tuples", "2x3-array", "str", "str-entry"])
def test_mode_params_errors_keep_their_messages(block, error, message):
    with pytest.raises(error) as info:
        mode_params(block)
    assert str(info.value) == message


class TestJoint:
    def test_vacuum_on_boundary(self):
        assert is_p_representable_joint(GaussianParams(0.5, 0.5))

    def test_thermal_pair(self):
        assert is_p_representable_joint(GaussianParams(n1=1.0, n2=1.0))

    def test_mixed_entangled_output_fails(self):
        assert not is_p_representable_joint(mix_params(GaussianParams(n1=2, n2=2, m_c=1.8), BS5050))

    def test_joint_implies_modes_on_block_diagonal(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            md1 = ModeParams(rng.uniform(0.5, 3), rng.uniform(0, 1.5) * np.exp(2j * np.pi * rng.uniform()))
            md2 = ModeParams(rng.uniform(0.5, 3), rng.uniform(0, 1.5) * np.exp(2j * np.pi * rng.uniform()))
            if is_p_representable_joint(GaussianParams(md1.n, md2.n, md1.m, md2.m)):
                assert is_p_representable_mode(md1)
                assert is_p_representable_mode(md2)

    def test_matches_the_eigenvalue_referee(self):
        # physical states and their mixer outputs, away from the tol band
        rng = np.random.default_rng(44)
        checked = 0
        for p in draw_physical(rng, 300):
            for q in (p, mix_params(p, draw_mixer(rng))):
                e = joint_eig(q)
                if abs(e + DEFAULT_TOL) < 1e-7:
                    continue
                checked += 1
                want = is_p_representable_joint_eig(build_covariance(q))
                assert is_p_representable_joint(q) == want, q
        assert checked > 550

    def test_nonphysical_states_are_not_classical(self):
        # the joint pass runs only on states the uncertainty pass accepts as
        # physical and separable; the referee agrees that the rejected ones
        # are not classical
        rng = np.random.default_rng(45)
        checked = 0
        while checked < 200:
            p = draw_params(rng)
            if is_physical(p):
                continue
            checked += 1
            assert is_p_representable_joint(p) is False
            assert not is_p_representable_joint_eig(build_covariance(p)), p

    def test_classical_states_are_separable_on_the_shared_boundary(self):
        # on the symmetric class the joint and PPT boundaries coincide, at
        # n = |m| + 1/2 - tol, and the two passes round differently there: run
        # on every physical state, the joint pass accepted 640 of the 2,463
        # points below that the PPT test rejects, calling entangled states
        # classical
        checked = 0
        for i in range(1, 2001):
            m = i / 1000
            for p in (GaussianParams(m + 0.5 - DEFAULT_TOL, m + 0.5 - DEFAULT_TOL, m_c=m),
                      GaussianParams(m + 0.5 - DEFAULT_TOL, m + 0.5 - DEFAULT_TOL, m_c=1j * m)):
                separable = is_separable(p)
                checked += not separable
                assert is_p_representable_joint(p) <= separable, p
                check = run_check(p, 1.0)
                assert check["p_representable"] <= check["separable"], p
        assert checked > 2000

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(joint_band_states(near_vacuum=False))
    def test_tol_band(self, p):
        e = joint_eig(p)
        assert tol_consistent(is_p_representable_joint(p), e, p), e

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(joint_band_states(near_vacuum=True))
    def test_tol_band_with_a_near_vacuum_party(self, p):
        e = joint_eig(p)
        assert tol_consistent(is_p_representable_joint(p), e, p), e


class TestMode:
    def test_vacuum_boundary(self):
        assert is_p_representable_mode(ModeParams(n=0.5, m=0))

    def test_nonclassical_mode(self):
        assert not is_p_representable_mode(ModeParams(n=2, m=1.8))

    def test_classical_mode(self):
        assert is_p_representable_mode(ModeParams(n=2, m=1.4))

    def test_an_exact_tie_with_both_bounds_is_accepted(self):
        # tol = 2**-30 and n = 1/2 - tol: in float64 n equals hypot(0, 1/2) - tol
        # and 0 + 1/2 - tol exactly, and boundary states are accepted
        tol = 2.0 ** -30
        md = ModeParams(n=0.5 - tol, m=0j)
        assert md.n == math.hypot(0.0, 0.5) - tol == 0.0 + 0.5 - tol
        assert mode_is_physical(md, tol) is True
        assert is_p_representable_mode(md, tol) is True


class TestOverflow:
    def test_one_mode_bound_does_not_square_the_moment(self):
        # |m|^2 overflows float64, n > |m| still decides the bound
        assert mode_is_physical(ModeParams(1e200, 1e160))
        assert not mode_is_physical(ModeParams(1e160, 1e200))

    @pytest.mark.parametrize("n", [1.0, 1.7e308, -1.7e308])
    def test_a_modulus_past_float64_is_neither_physical_nor_classical(self, n):
        # both parts are finite, so the mode is admitted; |m| exceeds every finite n
        md = ModeParams(n, complex(1.5e308, 1.5e308))
        assert mode_is_physical(md) is False
        assert is_p_representable_mode(md) is False
        with pytest.raises(NumericDomainError, match="nonclassicality margin"):
            nonclassicality_margin(md)


class TestMargin:
    def test_vacuum(self):
        assert nonclassicality_margin(ModeParams(n=0.5, m=0)) == 0.0

    @pytest.mark.parametrize("n, m", [(-1e308, 1e308), (-1.7e308, 1e307), (-1e308, 1e308 - 1e308j)])
    def test_a_margin_past_float64_is_a_domain_error(self, n, m):
        # |m| is finite, but |m| + 1/2 - n is not; the verdicts compare, so they stand
        md = ModeParams(n, m)
        assert is_p_representable_mode(md) is False
        with pytest.raises(NumericDomainError, match="nonclassicality margin"):
            nonclassicality_margin(md)

    def test_the_largest_finite_margins_pass(self):
        assert nonclassicality_margin(ModeParams(-8e307, 8e307)) == 1.6e308
        assert nonclassicality_margin(ModeParams(1.7e308, 0j)) == 0.5 - 1.7e308

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
