"""The contract of the converting value types.

``GaussianParams``, ``ModeParams``, ``MixerConfig``, ``TmtssInputs`` and
``SweepConfig`` admit their fields through one rule: real numbers for a
float field and complex ones for a complex field (a string, a bool, a
``Decimal`` or a complex in a float field is a ``TypeError``), each converted
to ``float`` or ``complex``, a non-finite one rejected with one message per
type.  They are frozen dataclasses: equality, hashing, ``repr``,
``dataclasses.replace``/``fields``, pickling and copying all work on the
converted fields.  ``SweepConfig``'s int fields, the grid steps, are held
at their defaults here.  Each type's field defaults, which the CLI's flags
take, are its constructor's.
"""

import copy
import dataclasses
import inspect
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausspair import (
    GaussianParams, MixerConfig, ModeParams, mix_params, mode_params, transform_blocks,
)
from gausspair.cli import SweepConfig
from gausspair.mixer import LocalOperations, OutputBlocks
from gausspair.sweep import SweepResult
from gausspair.tmtss import TmtssInputs

REALS = st.floats(-1e6, 1e6)
NONNEGATIVE = st.floats(0.0, 1e6)


class Spec:
    """A value type, its converted fields ``(name, kind, values)`` in order,
    their non-finite message, valid ``base`` values for them, and the fields
    it has besides (``held``), which keep their defaults."""

    def __init__(self, cls, fields, message, base=None, held=()):
        self.cls = cls
        self.names = [name for name, _, _ in fields]
        self.kinds = [kind for _, kind, _ in fields]
        self.values = [values for _, _, values in fields]
        self.message = message
        self.base = base or [kind(1.0) for kind in self.kinds]  # exact types: the fast path
        self.held = held

    def __repr__(self):
        return self.cls.__name__

    @property
    def defaults(self):
        return {f.name: f.default for f in dataclasses.fields(self.cls)
                if f.default is not dataclasses.MISSING}

    def args(self, values):
        """All positional arguments: ``values`` for the converted fields, the
        defaults for the held ones."""
        given = iter(values)
        return [f.default if f.name in self.held else next(given)
                for f in dataclasses.fields(self.cls)]


SPECS = [
    Spec(GaussianParams, [
        ("n1", float, REALS), ("n2", float, REALS), ("m1", complex, REALS),
        ("m2", complex, REALS), ("m_s", complex, REALS), ("m_c", complex, REALS),
    ], "Gaussian parameters must be finite"),
    Spec(ModeParams, [("n", float, REALS), ("m", complex, REALS)], "mode parameters must be finite"),
    Spec(MixerConfig, [("theta", float, REALS), ("phi0", float, REALS), ("phi1", float, REALS)],
         "mixer angles must be finite"),
    Spec(TmtssInputs, [("d", float, NONNEGATIVE), ("r", float, REALS), ("nbar", float, NONNEGATIVE)],
         "model inputs must be finite"),
    # ranges keep every draw, its int twin and a replaced 2 a valid grid:
    # r in (0, 177], n_min < n_max, 0 <= m_min < m_max, tol > 0
    Spec(SweepConfig, [
        ("r", float, st.floats(1.0, 100.0)), ("n_min", float, st.floats(-1e6, 0.0)),
        ("n_max", float, st.floats(3.0, 1e6)), ("m_min", float, st.floats(0.0, 1.0)),
        ("m_max", float, st.floats(3.0, 1e6)), ("tol", float, st.floats(1.0, 1e3)),
    ], "sweep parameters must be finite", base=[1.0, 0.5, 3.5, 0.0, 3.0, 1e-9],
        held=("n_steps", "m_steps")),
]


def _as_input(data, kind, real, imag):
    """One field value in a type a caller may pass: Python or numpy, int or float."""
    choices = [real, int(real), np.float64(real), np.int64(int(real))]
    if kind is complex:
        choices += [complex(real, imag), np.complex128(complex(real, imag))]
    return data.draw(st.sampled_from(choices))


def _draw_inputs(data, spec):
    return [
        _as_input(data, kind, data.draw(values), data.draw(REALS))
        for kind, values in zip(spec.kinds, spec.values)
    ]


def _bits(x):
    # (real, imag) as exact hex strings, so -0.0 and 0.0 differ
    return complex(x).real.hex(), complex(x).imag.hex()


@pytest.mark.parametrize("spec", SPECS, ids=repr)
class TestValueTypeContract:
    def test_fields_keep_their_order_and_names(self, spec):
        names = [f.name for f in dataclasses.fields(spec.cls)]
        assert [name for name in names if name not in spec.held] == spec.names
        assert set(spec.held) <= set(names)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_positional_keyword_and_default_construction_agree(self, spec, data):
        args = _draw_inputs(data, spec)
        positional = spec.cls(*spec.args(args))
        assert spec.cls(**dict(zip(spec.names, args))) == positional
        required = spec.args(args)[: len(dataclasses.fields(spec.cls)) - len(spec.defaults)]
        assert spec.cls(*required) == spec.cls(*required, *spec.defaults.values())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_fields_convert_to_exact_builtin_types(self, spec, data):
        args = _draw_inputs(data, spec)
        obj = spec.cls(*spec.args(args))
        for name, kind, arg in zip(spec.names, spec.kinds, args):
            value = getattr(obj, name)
            assert type(value) is kind, (name, type(arg))
            assert _bits(value) == _bits(kind(arg))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, -10**400],
                             ids=["nan", "inf", "-inf", "int-1e400", "-int-1e400"])
    def test_each_non_finite_field_is_rejected(self, spec, bad):
        # an int beyond float64 has no complex twin: complex() overflows on it
        base = spec.base
        for i, kind in enumerate(spec.kinds):
            twins = kind is complex and isinstance(bad, float)
            bads = [bad] + ([complex(bad, 0.0), complex(0.0, bad)] if twins else [])
            for value in bads:
                args = base[:i] + [value] + base[i + 1:]
                with pytest.raises(ValueError) as info:
                    spec.cls(*spec.args(args))
                assert str(info.value) == spec.message, (spec.names[i], value)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.data())
    def test_fields_cannot_be_assigned(self, spec, data):
        obj = spec.cls(*spec.args(_draw_inputs(data, spec)))
        for name in spec.names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 1.0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.data())
    def test_replace_pickle_and_deepcopy_round_trip(self, spec, data):
        obj = spec.cls(*spec.args(_draw_inputs(data, spec)))
        copies = [
            dataclasses.replace(obj),
            pickle.loads(pickle.dumps(obj)),
            copy.deepcopy(obj),
        ]
        for other in copies:
            assert other == obj
            assert hash(other) == hash(obj)
            assert [_bits(getattr(other, n)) for n in spec.names] == [
                _bits(getattr(obj, n)) for n in spec.names
            ]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.data())
    def test_replace_converts_the_new_field(self, spec, data):
        obj = spec.cls(*spec.args(_draw_inputs(data, spec)))
        name = data.draw(st.sampled_from(spec.names))
        changed = dataclasses.replace(obj, **{name: 2})
        assert type(getattr(changed, name)) is spec.kinds[spec.names.index(name)]
        assert getattr(changed, name) == 2


@pytest.mark.parametrize("spec", SPECS, ids=repr)
@pytest.mark.parametrize("bad", ["1.5", "1+2j", b"1", True, False, np.True_, Decimal("1.5")],
                         ids=["str", "complex-str", "bytes", "True", "False", "numpy-bool",
                              "Decimal"])
def test_strings_and_bools_are_refused(spec, bad):
    # float() and complex() read these; the value types take numbers only
    base = spec.base
    obj = spec.cls(*spec.args(base))
    for i, name in enumerate(spec.names):
        with pytest.raises(TypeError, match="expected a number"):
            spec.cls(*spec.args(base[:i] + [bad] + base[i + 1:]))
        with pytest.raises(TypeError, match="expected a number"):
            spec.cls(**{**dict(zip(spec.names, base)), name: bad})
        with pytest.raises(TypeError, match="expected a number"):
            dataclasses.replace(obj, **{name: bad})


@pytest.mark.parametrize("spec", SPECS, ids=repr)
@pytest.mark.parametrize("bad", [2 + 0.5j, np.complex128(2 + 0.5j), np.complex64(2 + 0.5j),
                                 np.clongdouble(2 + 0.5j)],
                         ids=["complex", "complex128", "complex64", "clongdouble"])
def test_complex_numbers_are_refused_in_float_fields(spec, bad):
    # float() drops a numpy complex's imaginary part with a warning, and
    # refuses a Python complex with its own message
    base = spec.base
    for i, kind in enumerate(spec.kinds):
        if kind is float:
            with pytest.raises(TypeError) as info:
                spec.cls(*spec.args(base[:i] + [bad] + base[i + 1:]))
            assert str(info.value) == f"expected a number, got {type(bad).__name__}"


@pytest.mark.parametrize("cls", [spec.cls for spec in SPECS], ids=lambda cls: cls.__name__)
def test_field_defaults_are_the_constructor_defaults(cls):
    # the CLI takes each flag's default from the field, a Python caller gets
    # the constructor's: the two must not drift apart
    params = inspect.signature(cls).parameters
    assert list(params) == [f.name for f in dataclasses.fields(cls)]
    for f in dataclasses.fields(cls):
        default = params[f.name].default
        if f.default is dataclasses.MISSING:
            assert default is inspect.Parameter.empty, f.name
        else:
            assert (type(default), default) == (type(f.default), f.default), f.name


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_other_numbers_still_convert(spec):
    # 3/2, 3, 9/2, ...: increasing, so a valid sweep grid too
    values = [Fraction(3, 2) * k for k in range(1, len(spec.names) + 1)]
    obj = spec.cls(*spec.args(values))
    assert [getattr(obj, name) for name in spec.names] == [float(v) for v in values]


@pytest.mark.parametrize("obj, text", [
    (GaussianParams(1, 2, 0.5j, 3, -1, 1 + 2j),
     "GaussianParams(n1=1.0, n2=2.0, m1=0.5j, m2=(3+0j), m_s=(-1+0j), m_c=(1+2j))"),
    (GaussianParams(n1=0.5, n2=0.5), "GaussianParams(n1=0.5, n2=0.5, m1=0j, m2=0j, m_s=0j, m_c=0j)"),
    (ModeParams(2), "ModeParams(n=2.0, m=0j)"),
    (ModeParams(n=np.float64(1.5), m=np.complex128(0.25 - 1j)), "ModeParams(n=1.5, m=(0.25-1j))"),
    (MixerConfig(1), "MixerConfig(theta=1.0, phi0=0.0, phi1=0.0)"),
    (MixerConfig(0.5, phi1=-2), "MixerConfig(theta=0.5, phi0=0.0, phi1=-2.0)"),
    (TmtssInputs(0.5, -0.3), "TmtssInputs(d=0.5, r=-0.3, nbar=0.0)"),
    (TmtssInputs(d=1, r=2, nbar=3), "TmtssInputs(d=1.0, r=2.0, nbar=3.0)"),
    (SweepConfig(r=2, n_steps=np.int64(3), m_max=4),
     "SweepConfig(r=2.0, n_min=0.5, n_max=3.5, n_steps=3, m_min=0.0, m_max=4.0, m_steps=121, "
     "tol=1e-09)"),
], ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_repr_is_pinned(obj, text):
    assert repr(obj) == text


@pytest.mark.parametrize("cls, message, kwargs", [
    (TmtssInputs, "diffusion must be nonnegative", {"d": -0.1, "r": 1.0}),
    (TmtssInputs, "thermal occupation must be nonnegative", {"d": 0.1, "r": 1.0, "nbar": -1}),
    (TmtssInputs, "model inputs must be finite", {"d": -math.inf, "r": 1.0}),
    (TmtssInputs, "model inputs must be finite", {"d": -1.0, "r": math.nan}),
    # tmtss --d 1e400: the flag's float() overflows to inf
    (TmtssInputs, "model inputs must be finite", {"d": float("1e400"), "r": 1.0}),
])
def test_finiteness_is_checked_before_signs(cls, message, kwargs):
    with pytest.raises(ValueError) as info:
        cls(**kwargs)
    assert str(info.value) == message


def test_records_store_their_fields_as_given():
    ops = LocalOperations(0.1, 0.2, rotation2=0.3, squeeze2=0.4)
    assert ops == LocalOperations(rotation1=0.1, squeeze1=0.2, rotation2=0.3, squeeze2=0.4)
    assert [getattr(ops, f.name) for f in dataclasses.fields(ops)] == [0.1, 0.2, 0.3, 0.4]
    blocks = OutputBlocks(np.eye(2), np.zeros((2, 2)), cp=np.ones((2, 2)))
    assert [f.name for f in dataclasses.fields(blocks)] == ["v1p", "v2p", "cp"]
    for obj, name in ((ops, "squeeze1"), (blocks, "cp")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)


@pytest.mark.parametrize("make", [
    lambda: OutputBlocks(np.eye(2), np.zeros((2, 2)), cp=np.ones((2, 2))),
    lambda: SweepResult(n=np.zeros(2), m=np.zeros(3), codes=np.zeros((2, 3), np.uint8),
                        degree=np.zeros((2, 3))),
], ids=["OutputBlocks", "SweepResult"])
def test_array_records_compare_and_hash_by_identity(make):
    # fields that are arrays have no truth value, so a fieldwise == would raise
    record, twin = make(), make()
    assert record == record and record != twin
    assert hash(record) == hash(record) != hash(twin)
    assert record in [twin, record] and twin not in [record]
    assert record in {record} and twin not in {record}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=10, max_size=10),
    st.lists(st.floats(-7.0, 7.0), min_size=3, max_size=3),
)
def test_port_modes_of_the_blocks_equal_those_of_the_moments(moments, angles):
    n1, n2, *parts = moments
    p = GaussianParams(n1, n2, *(complex(re, im) for re, im in zip(parts[0::2], parts[1::2])))
    cfg = MixerConfig(*angles)
    q = mix_params(p, cfg)
    blocks = transform_blocks(p, cfg)
    for block, n, m in ((blocks.v1p, q.n1, q.m1), (blocks.v2p, q.n2, q.m2)):
        read, want = mode_params(block), ModeParams(n, m)
        assert read == want
        assert (_bits(read.n), _bits(read.m)) == (_bits(want.n), _bits(want.m))
        assert type(read.n) is float and type(read.m) is complex
