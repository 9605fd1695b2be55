"""The library's error contract, over every public function.

Each call returns a finite result, or raises ``TypeError`` or ``ValueError``
(the four typed errors of :mod:`gausspair.errors` are ``ValueError``
subclasses), and no warning escapes.  Inputs mix Python floats and ints,
numpy ``float64`` and ``float32`` scalars, 0-d arrays, signed zeros,
subnormals (also as imaginary parts), values up to 1.8e308 and the
non-finite ones, and numpy ``complex64`` and ``complex128`` scalars and
arrays and a ``longdouble`` past float64, in float parameters too.  The
value types a function takes are built from finite inputs, since their
constructors are called with the raw ones on their own; the mixer entries
build their ``MixerConfig`` in the call, since it refuses finite angles too.
``symmetric_degree`` is called on scalar points and on 1-element arrays of
the same numbers, which are held to the same contract, and on 1-element
``int8``, ``uint8``, ``int16``, ``uint16``, ``float16`` and ``float32``
arrays, each with the outcome of the ``float64`` array of its values.
``trace_overlap`` is called on complex matrices, and on bool and string
matrices, which are a ``TypeError``.
"""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gausspair
from gausspair import (
    DEFAULT_TOL, GaussianParams, MixerConfig, ModeParams, TmtssInputs, build_covariance,
)
from gausspair.cli import run_check
from gausspair.sweep import SweepConfig, SweepResult, sweep_grid

BIG = 1.7976931348623157e308
SPECIAL = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-160, 1e-6, 0.25, 0.5, 1.0,
           1.5, 3.0, 177.0, 1e154, 1.5e154, 1e160, 1e200, 1e300, 1e308, BIG]
FLOATS = st.one_of(
    st.sampled_from(SPECIAL + [-x for x in SPECIAL[2:]]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
# finite numbers as a caller may pass them; float32 only where it represents the value
FINITE = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.sampled_from([0, 1, 2]),
)
COMPLEX = st.one_of(FINITE, st.builds(complex, FLOATS, FLOATS),
                    st.builds(complex, FLOATS, FLOATS).map(np.complex128))


def _either(common, other):
    # half of the draws from each: st.one_of flattens nested one_ofs into one
    # list of branches, so that a branch's share depends on its nesting
    return st.booleans().flatmap(lambda pick: other if pick else common)


# any argument a scalar parameter may meet: the finite numbers, or the
# non-finite ones, ints and a longdouble beyond float64, 0-d arrays and numpy
# complex scalars, which a float parameter must refuse, not read as real
NUMBERS = _either(FINITE, st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(math.inf),
                     10**400, -10**400, np.longdouble("1e400")]),
    FLOATS.map(np.array),
    st.complex_numbers(width=64, allow_nan=False, allow_infinity=False).map(np.complex64),
    st.builds(complex, FLOATS, FLOATS).map(np.complex128),
    st.builds(complex, FLOATS, FLOATS).map(np.array),
))
# tol and r as they are mostly passed, or any number
TOLS = _either(st.just(DEFAULT_TOL), NUMBERS)
RS = _either(st.floats(1e-3, 5.0), NUMBERS)
MOMENTS = st.one_of(st.sampled_from([0j, -0.0 + 5e-324j, 5e-324 - 0.0j, 1e-300j, 1e154 + 0j]),
                    st.builds(complex, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)))


@st.composite
def physical_params(draw):
    """States with ``V >= I/2``, so physical: each occupation is 1/2 plus its
    party's moment moduli, plus a margin of up to 1e308."""
    m1, m2, m_s, m_c = (draw(MOMENTS) for _ in range(4))
    cross = abs(m_s) + abs(m_c)
    n1, n2 = (0.5 + abs(m) + cross + abs(float(draw(FINITE))) for m in (m1, m2))
    return GaussianParams(n1, n2, m1, m2, m_s, m_c)


PARAMS = _either(st.builds(GaussianParams, FINITE, FINITE, COMPLEX, COMPLEX, COMPLEX, COMPLEX),
                 physical_params())
MODES = st.builds(ModeParams, FINITE, COMPLEX)
POINTS = NUMBERS.map(lambda x: np.array([x]))  # a symmetric_degree array of one point
# the angles of a MixerConfig, which the mixer entries build in the call, so
# that an angle it refuses is a typed outcome of the entry
MIXERS = st.tuples(FINITE, FINITE, FINITE)
MODELS = st.builds(lambda d, r, nbar: TmtssInputs(abs(d), r, abs(nbar)), FINITE, FINITE, FINITE)
def _blocks(entries):
    # 2x2 nested lists of entries
    return st.lists(st.lists(entries, min_size=2, max_size=2), min_size=2, max_size=2)


BLOCKS = st.one_of(_blocks(st.one_of(COMPLEX, NUMBERS)),
                   st.builds(lambda p: build_covariance(p)[:2, :2], PARAMS))
COMPLEX_MATRICES = _blocks(COMPLEX).map(lambda b: np.asarray(b, dtype=complex))
# a bool or a string matrix beside a complex one, in either order: refused by
# the type rule, where a cast to complex read True as 1 and "0.5" as 0.5
NON_NUMERIC_MATRICES = st.tuples(
    st.one_of(_blocks(st.booleans()).map(np.array), _blocks(FLOATS.map(str)).map(np.array)),
    COMPLEX_MATRICES,
).flatmap(lambda pair: st.sampled_from([pair, pair[::-1]]))
MATRICES = st.one_of(
    st.tuples(PARAMS, PARAMS).map(lambda ps: tuple(map(build_covariance, ps))),
    st.tuples(COMPLEX_MATRICES, COMPLEX_MATRICES),
    NON_NUMERIC_MATRICES,
)
# symmetric_degree's points as 1-element arrays of one narrower dtype, any
# value it holds, at any r
NARROW_POINTS = st.sampled_from([np.int8, np.uint8, np.int16, np.uint16, np.float16,
                                 np.float32]).flatmap(
    lambda dtype: st.tuples(hnp.arrays(dtype, 1), hnp.arrays(dtype, 1), RS))


def _sorted_pair(lo, hi):
    # compared as Python floats: numpy would cast a float to a float32 operand
    return (lo, hi) if float(lo) <= float(hi) else (hi, lo)


@st.composite
def sweep_configs(draw):
    """Grids that construct, at most 4 steps an axis; ``r`` up to the cap."""
    n_min, n_max = _sorted_pair(draw(FINITE), draw(FINITE))
    m_min, m_max = _sorted_pair(abs(draw(FINITE)), abs(draw(FINITE)))
    r = draw(st.one_of(st.sampled_from([1e-150, 1e-6, 1e-3, 0.1, 1.0, 177.0]),
                       st.floats(1e-150, 177.0)))
    tol = draw(st.one_of(st.just(1e-9), FINITE.map(abs)))
    steps = st.integers(2, 4)
    try:
        return SweepConfig(r, n_min, n_max, draw(steps), m_min, m_max, draw(steps), tol)
    except ValueError:
        return None


CONFIGS = sweep_configs().filter(lambda cfg: cfg is not None)


def _mixing(entry):
    # a mixer entry called on a state and the angles of its config
    return lambda p, angles: entry(p, MixerConfig(*angles))


# each public function, and the sweep's and the CLI's library entry points,
# with the arguments they are called on
CALLS = {
    "GaussianParams": (GaussianParams,
                       st.tuples(NUMBERS, NUMBERS, *[st.one_of(COMPLEX, NUMBERS)] * 4)),
    "ModeParams": (ModeParams, st.tuples(NUMBERS, st.one_of(COMPLEX, NUMBERS))),
    "MixerConfig": (MixerConfig, st.tuples(NUMBERS, NUMBERS, NUMBERS)),
    "TmtssInputs": (TmtssInputs, st.tuples(NUMBERS, NUMBERS, NUMBERS)),
    "SweepConfig": (SweepConfig, st.tuples(RS, NUMBERS, NUMBERS, st.integers(0, 4), NUMBERS,
                                           NUMBERS, st.integers(0, 4), TOLS)),
    "build_covariance": (gausspair.build_covariance, st.tuples(PARAMS)),
    "bures_from_fidelity": (gausspair.bures_from_fidelity,
                            st.tuples(st.one_of(NUMBERS, st.floats(0.0, 1.0)))),
    "classify_symmetric": (gausspair.classify_symmetric, st.tuples(NUMBERS, NUMBERS, TOLS)),
    "compose_bures": (gausspair.compose_bures,
                      st.tuples(*[st.one_of(NUMBERS, st.floats(0.0, 2.0))] * 2)),
    "coupling_residuals": (_mixing(gausspair.coupling_residuals), st.tuples(PARAMS, MIXERS)),
    "entanglement_degree": (gausspair.entanglement_degree, st.tuples(PARAMS, RS, TOLS)),
    "is_p_representable_joint": (gausspair.is_p_representable_joint, st.tuples(PARAMS, TOLS)),
    "is_p_representable_mode": (gausspair.is_p_representable_mode, st.tuples(MODES, TOLS)),
    "is_physical": (gausspair.is_physical, st.tuples(PARAMS, TOLS)),
    "is_separable": (gausspair.is_separable, st.tuples(PARAMS, TOLS)),
    "is_ssld": (gausspair.is_ssld, st.tuples(PARAMS, TOLS)),
    "local_normal_form": (gausspair.local_normal_form, st.tuples(PARAMS, TOLS)),
    "mix_params": (_mixing(gausspair.mix_params), st.tuples(PARAMS, MIXERS)),
    "mode_is_physical": (gausspair.mode_is_physical, st.tuples(MODES, TOLS)),
    "mode_params": (gausspair.mode_params, st.tuples(BLOCKS)),
    "nonclassicality_margin": (gausspair.nonclassicality_margin, st.tuples(MODES)),
    "output_port_fidelity": (gausspair.output_port_fidelity, st.tuples(MODES, RS)),
    "schur_terms": (gausspair.schur_terms, st.tuples(PARAMS, TOLS)),
    "separable_distance": (gausspair.separable_distance, st.tuples(RS)),
    "solve_decoupling_phases": (gausspair.solve_decoupling_phases, st.tuples(PARAMS, TOLS)),
    "symmetric_degree": (gausspair.symmetric_degree,
                         _either(st.tuples(NUMBERS, NUMBERS, RS), st.tuples(POINTS, POINTS, RS))),
    "tmtss_params": (gausspair.tmtss_params, st.tuples(MODELS, TOLS)),
    "trace_overlap": (gausspair.trace_overlap, MATRICES),
    "transform_blocks": (_mixing(gausspair.transform_blocks), st.tuples(PARAMS, MIXERS)),
    "sweep.sweep_grid": (sweep_grid, st.tuples(CONFIGS)),
    "SweepConfig.n_values": (SweepConfig.n_values, st.tuples(CONFIGS)),
    "SweepConfig.m_values": (SweepConfig.m_values, st.tuples(CONFIGS)),
    "cli.run_check": (run_check, st.tuples(PARAMS, RS, TOLS)),
}

# names of __all__ that are no function of numbers: the default tol, the
# error types, and the records the library returns, which store what they
# are given
NOT_CALLED = {"DEFAULT_TOL", "DegenerateStateError", "ModelValidityError",
              "NonPhysicalStateError", "NumericDomainError", "LocalOperations", "MeasureReport",
              "OutputBlocks"}


def _finite(value) -> bool:
    if value is None or isinstance(value, (bool, np.bool_, str)):
        return True
    if isinstance(value, (int, float, complex, np.number)):
        return cmath.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, SweepResult):
        # degree is NaN exactly where a point is nonphysical (code 0)
        return (_finite(value.n) and _finite(value.m) and value.codes.max() <= 2
                and (np.isfinite(value.degree) == (value.codes != 0)).all())
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    raise AssertionError(f"unexpected result type {type(value).__name__}")


def test_every_public_function_is_called():
    assert set(gausspair.__all__) - NOT_CALLED <= set(CALLS)
    assert set(gausspair.__all__) & NOT_CALLED == NOT_CALLED


def _check(name, args):
    function = CALLS[name][0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = function(*args)
        except (TypeError, ValueError):
            return
    assert _finite(result), (name, args, result)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_finite_result_or_typed_error(name, data):
    _check(name, data.draw(CALLS[name][1], label="args"))


def _outcome(function, *args):
    # the bytes of the result, or the type and message of the error raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return function(*args).tobytes()
        except (TypeError, ValueError) as err:
            return type(err), str(err)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(point=NARROW_POINTS)
# n + m wrapped to 44 in uint8
@example(point=(np.array([200], np.uint8), np.array([100], np.uint8), 1.0))
def test_narrow_arrays_have_the_outcome_of_float64(point):
    n, m, r = point
    want = _outcome(gausspair.symmetric_degree, n.astype(float), m.astype(float), r)
    assert _outcome(gausspair.symmetric_degree, n, m, r) == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pair=NON_NUMERIC_MATRICES)
def test_non_numeric_matrices_are_type_errors(pair):
    with pytest.raises(TypeError, match="^expected a number, got (bool|str)$"):
        gausspair.trace_overlap(*pair)


# only these examples run: inputs that once escaped the contract, in regions
# that random draws reach rarely
@settings(phases=[Phase.explicit])
@given(call=st.sampled_from(sorted(CALLS)).flatmap(
    lambda name: CALLS[name][1].map(lambda args: (name, args))))
# a span past float64, a last step that rounds past it, and a degree whose
# small-r excess overflows, on a grid
@example(call=("sweep.sweep_grid", (SweepConfig(n_min=-1e308, n_max=1e308, n_steps=3,
                                                m_steps=3),)))
@example(call=("sweep.sweep_grid", (SweepConfig(1e-6, 1e300, 1.1e300, 3, 0.0, 1e300, 3),)))
@example(call=("SweepConfig.n_values", (SweepConfig(n_min=-1e308, n_max=1e308, n_steps=3,
                                                    m_steps=3),)))
@example(call=("SweepConfig.m_values", (SweepConfig(m_max=BIG, m_steps=4),)))
# the same excess at a scalar point, Python's and numpy's, and an int point
# beyond float64
@example(call=("symmetric_degree", (1e300, 1e300, 1e-6)))
@example(call=("symmetric_degree", (np.float64(1e300), np.float64(1e300), 1e-6)))
@example(call=("symmetric_degree", (0.0, 10**400, 1.0)))
# a separable array point whose determinant overflows
@example(call=("symmetric_degree", (np.array([1e200]), np.array([1e199]), 1.0)))
# numpy complex scalars in float fields, which numpy's __float__ read without
# their imaginary part
@example(call=("classify_symmetric", (np.complex128(2 + 0.5j), 0.5)))
@example(call=("GaussianParams", (np.complex128(2 + 0.5j), 2.0)))
# a numpy tol that the Schur terms' powers overflow with
@example(call=("schur_terms", (GaussianParams(1e200, 1.0), np.float64(0.0))))
# a phase of a subnormal imaginary part that underflows
@example(call=("local_normal_form", (GaussianParams(3.0, 1.0, 2.5 + 5e-324j), 1e-9)))
def test_pinned_escapes(call):
    _check(*call)
