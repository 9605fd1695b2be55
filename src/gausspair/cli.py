"""Command-line surface: state checking, mixing, the thermal model and sweeps.

Exit codes: 0 on success, 1 on usage errors, and 2 on a domain or model
error, when memory runs out, when stdout is closed or cannot be written (help
included), and for a sweep grid too large to index.
Complex-valued flags accept ``re`` or ``re,im``.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from typing import TYPE_CHECKING

from . import measures, mixer, tmtss
from .covariance import DEFAULT_TOL, GaussianParams, _block_entries, _check_tol
from .covariance import _finite_numbers
from .errors import ModelValidityError, NumericDomainError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, init=False)
class SweepConfig:
    """Grid description for the entanglement-degree surface."""

    r: float = 1.0
    n_min: float = 0.5
    n_max: float = 3.5
    n_steps: int = 141
    m_min: float = 0.0
    m_max: float = 3.0
    m_steps: int = 121
    tol: float = DEFAULT_TOL

    def __init__(self, r=1.0, n_min=0.5, n_max=3.5, n_steps=141, m_min=0.0, m_max=3.0,
                 m_steps=121, tol=DEFAULT_TOL):
        r, n_min, n_max, m_min, m_max, tol = _finite_numbers(
            "sweep parameters", (float,) * 6, r, n_min, n_max, m_min, m_max, tol)
        # ints only, Python's or numpy's, not bool: 2.5 steps would fail
        # later in np.linspace, untyped
        for steps in (n_steps, m_steps):
            if isinstance(steps, bool) or not hasattr(steps, "__index__"):
                raise TypeError(f"grid steps must be ints, got {type(steps).__name__}")
        n_steps, m_steps = int(n_steps), int(m_steps)
        if r <= 0.0:
            raise ValueError("reference squeezing r must be positive")
        if n_steps < 2 or m_steps < 2:
            raise ValueError("grids need at least 2 steps per axis")
        # the padded CSV table holds 63 bytes a point, so its size must stay an
        # index-sized int; past that numpy fails untyped, not with MemoryError
        if n_steps * m_steps * 64 > sys.maxsize:
            raise ValueError("sweep grid is too large")
        if not (n_max > n_min and m_max > m_min):
            raise ValueError("grid maxima must exceed minima")
        if m_min < 0.0:
            raise ValueError("m must be nonnegative (phase removed)")
        _check_tol(tol)
        measures.separable_distance(r)  # typed error where r over- or underflows
        self.__dict__.update(r=r, n_min=n_min, n_max=n_max, n_steps=n_steps, m_min=m_min,
                             m_max=m_max, m_steps=m_steps, tol=tol)  # past the frozen __setattr__

    def n_values(self) -> np.ndarray:
        import numpy as np
        return np.linspace(self.n_min, self.n_max, self.n_steps)

    def m_values(self) -> np.ndarray:
        import numpy as np
        return np.linspace(self.m_min, self.m_max, self.m_steps)


@dataclass(frozen=True)
class SweepResult:
    """The surface over the grid: ``label[i, j]`` and ``degree[i, j]`` belong
    to the point ``(n[i], m[j])``; ``degree`` is NaN where nonphysical."""

    n: np.ndarray
    m: np.ndarray
    label: np.ndarray
    degree: np.ndarray


def sweep_grid(cfg: SweepConfig) -> SweepResult:
    """Classify and score every grid point in one array pass."""
    import numpy as np
    n, m = cfg.n_values(), cfg.m_values()
    codes = tmtss.symmetric_class_codes(n[:, None], m, cfg.tol)  # (n_steps, m_steps)
    i, j = np.nonzero(codes)  # the physical points
    degree = np.full(codes.shape, np.nan)
    degree[i, j] = measures.symmetric_degree(n[i], m[j], cfg.r)
    label = np.array(tmtss.SYMMETRIC_CLASSES)[codes]
    return SweepResult(n=n, m=m, label=label, degree=degree)


def run_check(p: GaussianParams, r: float, tol: float = DEFAULT_TOL) -> dict:
    """Full classification of one state: criteria flags plus the measure chain.

    Raises :class:`NonPhysicalStateError` for a nonphysical state.
    """
    fidelity, bures, degree, separable, classical = measures._degree_terms(p, r, tol)
    return {
        "physical": True,
        "separable": separable,
        "p_representable": classical,
        "fidelity": fidelity,
        "bures": bures,
        "degree": degree,
        "r": float(r),
    }


# 10^0 .. 10^22, each exact in float64
_POW10 = tuple(float(10 ** i) for i in range(23))
_CELL = 16  # bytes per formatted cell: "-1.00000000e+308" is the longest


def _sci_table(values) -> np.ndarray:
    """``f"{v:.8e}"`` for every float64 ``v``, as the rows of a NUL-padded
    ``(size, 16)`` uint8 table.

    Where ``k = floor(log10|v|)`` lies in [-14, 30], ``10^|8-k|`` is exact, so
    ``y = |v| 10^(8-k)`` carries one rounding of less than 6e-8 and
    ``rint(y)`` is the correctly rounded 9-digit mantissa unless ``y`` lies
    within 1e-6 of a half-integer or outside [1e8, 1e9) (a log10 miss).  Those
    values, zeros, subnormals, other exponents, inf and nan go through
    ``f"{v:.8e}"`` itself.  Positive rows start with a NUL, not a sign.
    """
    import numpy as np
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    with np.errstate(all="ignore"):  # log10 of 0, inf and nan
        k = np.floor(np.log10(a))
        fast = (k >= -14.0) & (k <= 30.0)
        k = np.where(fast, k, 0.0).astype(np.int64)
        pow10 = np.array(_POW10)
        y = a * pow10[np.maximum(8 - k, 0)] / pow10[np.maximum(k - 8, 0)]
        q = np.rint(y)
        fast &= (y >= 1e8) & (q < 1e9) & (np.abs(y - np.floor(y) - 0.5) > 1e-6)
        q = np.where(fast, q, 0.0).astype(np.uint32)
    table = np.zeros((v.size, _CELL), np.uint8)
    table[:, 0] = np.where(np.signbit(v), ord("-"), 0)  # sets no FP flag; -0.0, -nan rows are slow
    table[:, 2] = ord(".")
    for col in (10, 9, 8, 7, 6, 5, 4, 3, 1):  # the mantissa's digits, last first
        rest = q // 10
        table[:, col] = q - 10 * rest + ord("0")
        q = rest
    table[:, 11] = ord("e")
    table[:, 12] = np.where(k < 0, ord("-"), ord("+"))
    k = np.abs(k)
    table[:, 13] = k // 10 + ord("0")
    table[:, 14] = k % 10 + ord("0")
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = [f"{x:.8e}" for x in v[slow].tolist()]
        table[slow] = np.array(cells, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    return table


def _table(shape, *parts):
    # a bytearray holding a uint8 table of the given shape whose last axis
    # joins the parts: arrays broadcasting to shape + (width,), strings of
    # separator bytes, or the int width of a zero slot the caller fills; returns
    # the buffer and each part's slot, a view into it
    import numpy as np
    widths = [p if isinstance(p, int) else len(p) if isinstance(p, str) else p.shape[-1]
              for p in parts]
    row = sum(widths)
    buf = bytearray(math.prod(shape) * row)
    table = np.frombuffer(buf, np.uint8).reshape(*shape, row)
    slots, start = [], 0
    for part, width in zip(parts, widths):
        slot = table[..., start:start + width]
        if not isinstance(part, int):
            slot[...] = np.frombuffer(part.encode(), np.uint8) if isinstance(part, str) else part
        slots.append(slot)
        start += width
    return buf, slots


def _write(stream, *chunks) -> None:
    # ASCII bytes as they are to a binary stream, decoded for a text one
    text = isinstance(stream, io.TextIOBase)
    for chunk in chunks:
        stream.write(chunk.decode("ascii") if text else chunk)


def write_sweep_csv(result: SweepResult, stream) -> None:
    # '\n' endings, empty E column for nonphysical rows; stream is binary or text
    import numpy as np
    shape = result.degree.shape
    # the labels' code points, cast to bytes as their slot is filled
    label = np.ascontiguousarray(result.label).view(np.uint32).reshape(*shape, -1)
    buf, (*_, e_cells, _) = _table(shape, _sci_table(result.n)[:, None], ",",
                                   _sci_table(result.m), ",", label, ",", _CELL, "\n")
    physical = ~np.isnan(result.degree)
    e_cells[physical] = _sci_table(result.degree[physical])
    _write(stream, b"n,m,class,E\n", buf.translate(None, b"\0"))


def write_sweep_matrix(result: SweepResult, stream) -> None:
    # gnuplot nonuniform-matrix block: first row holds the m coordinates,
    # each following row is n followed by the E values (nan where nonphysical);
    # stream is binary or text
    import numpy as np
    rows, cols = result.degree.shape
    head = str(cols).encode()
    e_cells = _sci_table(result.degree)  # before the table: its scratch arrays are the peak
    sep = np.full((cols + 1, 1), ord(" "), np.uint8)
    sep[-1] = ord("\n")
    buf, (cells, _) = _table((rows + 1, cols + 1), _CELL, sep)
    cells[0, 0, :len(head)] = list(head)
    cells[0, 1:] = _sci_table(result.m)
    cells[1:, 0] = _sci_table(result.n)
    cells[1:, 1:] = e_cells.reshape(rows, cols, _CELL)
    _write(stream, buf.translate(None, b"\0"))


def parse_complex(text: str) -> complex:
    parts = [chunk.strip() for chunk in text.split(",")]
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _pair(z: complex) -> list[float]:  # a float z gives [z, 0.0]
    return [z.real, z.imag]


# Each value-type field is a flag of its own name, with "_" written as "-",
# and each GaussianParams field is also a state-file key.  These fields are
# spelled differently in both places.
_KEYS = {"m_s": "ms", "m_c": "mc"}
_TYPES = {"float": float, "int": int, "complex": parse_complex}


def _key(f) -> str:
    # the flag's dest and the state-file key of field f
    return _KEYS.get(f.name, f.name)


def _from_args(cls, args):
    return cls(**{f.name: getattr(args, _key(f)) for f in fields(cls)})


def _json_value(data: dict, f) -> float | complex:
    # field f of a state file: a JSON number, or for a complex field also a
    # list of two numbers [re, im], admitted by the value types' rule (so not
    # true or false, which load as bool, nor NaN, Infinity or an integer
    # literal beyond float64)
    key = _key(f)
    if key not in data:
        if f.default is MISSING:
            raise ValueError(f"state file has no {key!r}")
        return f.default
    value = data[key]
    is_complex = f.type == "complex"
    parts = value if is_complex and isinstance(value, list) and len(value) == 2 else [value]
    try:
        parts = _finite_numbers(key, (float,) * len(parts), *parts)
    except (TypeError, ValueError):
        kind = "complex" if is_complex else "real"
        raise ValueError(f"cannot read {kind} value {key!r} from {value!r}") from None
    return complex(*parts) if is_complex else parts[0]


def load_state(path: str) -> GaussianParams:
    """Read a state file: a JSON object with ``n1``, ``n2`` and optional moments.

    ``n1`` and ``n2`` are JSON numbers; each moment is a number or a list of
    two numbers ``[re, im]``, all finite.  Raises ValueError naming the wrong
    top-level type, nesting too deep to parse, the missing key or the key
    whose value is anything else.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("state file is nested too deeply to parse as JSON") from None
    if not isinstance(data, dict):
        raise ValueError(f"state file must hold a JSON object, not {type(data).__name__}")
    return GaussianParams(**{f.name: _json_value(data, f) for f in fields(GaussianParams)})


def state_to_json(p: GaussianParams) -> dict:
    out = {}
    for f in fields(p):
        value = getattr(p, f.name)
        out[_key(f)] = _pair(value) if f.type == "complex" else value
    return out


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's writer drops a failed write; this one lets it reach main,
        # where a closed or unwritable stdout is exit 2, as for the commands
        out = _stdout() if file is None else file
        out.write(self.format_help())
        out.flush()

    def error(self, message):
        # usage errors are JSON on stderr too, with exit code 1
        payload = {"error": "UsageError", "message": f"{self.prog}: {message}",
                   "usage": self.format_usage().strip()}
        self.exit(1, json.dumps(payload, sort_keys=True) + "\n")


def _add_fields(parser: argparse.ArgumentParser, cls) -> None:
    # one flag per field of the value type cls, required where it has no default
    for f in fields(cls):
        required = f.default is MISSING
        parser.add_argument("--" + _key(f).replace("_", "-"), type=_TYPES[f.type],
                            required=required, default=None if required else f.default,
                            help=f.metadata.get("help"))


def build_parser() -> _Parser:
    # the parser with a subparser for each command of _COMMANDS
    parser = _Parser(prog="gausspair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, run, *flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flag in flags:
            if isinstance(flag, type):
                _add_fields(command, flag)
            else:
                command.add_argument(flag[0], **flag[1])
        command.set_defaults(run=run)
    return parser


# main's parser, built on its first call and reused: parse_args does not
# modify a parser
_parser = functools.cache(build_parser)


def cmd_check(args) -> dict:
    return run_check(_from_args(GaussianParams, args), args.r, args.tol)


def cmd_transform(args) -> dict:
    _check_tol(args.tol)
    p = load_state(args.state)
    cfg = _from_args(mixer.MixerConfig, args)
    q = mixer.mix_params(p, cfg)
    entries = [_pair(z) for z in _block_entries(q)]
    r1, r2 = -2.0 * q.m_c, 2.0 * q.m_s  # mix_params stores them halved
    return {
        "v1p": entries[:4],
        "v2p": entries[4:8],
        "cp": entries[8:],
        "mode1": {"n": q.n1, "m": _pair(q.m1)},
        "mode2": {"n": q.n2, "m": _pair(q.m2)},
        "residuals": {"anomalous": _pair(r1), "balance": _pair(r2)},
        "decoupled": bool(max(abs(r1), abs(r2)) < args.tol),
    }


def cmd_sweep(args) -> None:
    # writes its own output; sweep_grid and write_sweep_csv are looked up as
    # module globals here, where a tracer may wrap them
    import numpy as np
    cfg = _from_args(SweepConfig, args)
    # numpy overflow and invalid results become errors, not warnings on stderr
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        result = sweep_grid(cfg)
    writer = write_sweep_csv if args.format == "csv" else write_sweep_matrix
    if args.out:
        with open(args.out, "wb") as fh:
            writer(result, fh)
    else:
        # the bytes go to stdout's binary buffer, where it has one, after what
        # its text layer still holds
        out = _stdout()
        out.flush()
        stream = getattr(out, "buffer", out)
        writer(result, stream)
        stream.flush()


def cmd_tmtss(args) -> dict:
    inputs = _from_args(tmtss.TmtssInputs, args)
    p = tmtss.tmtss_params(inputs, args.tol)
    out = state_to_json(p)
    out["p1"] = inputs.p1
    out["p2"] = inputs.p2
    return out


_TOL = ("--tol", {"type": float, "default": DEFAULT_TOL})

# name: (help line, run, then in usage order each flag as (flag, add_argument
# keywords) or a value type, whose fields are flags); the usage line lists
# the commands in this order
_COMMANDS = {
    "check": ("classify one state and report its measures", cmd_check, GaussianParams,
              ("--r", {"type": float, "default": 1.0, "help": "reference squeezing"}), _TOL),
    "transform": ("push a state file through the mixer", cmd_transform,
                  ("--state", {"required": True, "help": "JSON state file"}),
                  mixer.MixerConfig, _TOL),
    "sweep": ("entanglement-degree surface over the (n, m) grid", cmd_sweep, SweepConfig,
              ("--format", {"choices": ("csv", "matrix"), "default": "csv"}),
              ("--out", {"help": "output file (stdout when omitted)"})),
    "tmtss": ("thermal squeezed pair parameters", cmd_tmtss, tmtss.TmtssInputs, _TOL),
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)  # help is written here
        payload = args.run(args)  # None where the command wrote its own output
        if payload is not None:
            print(json.dumps(payload, sort_keys=True), file=_stdout(), flush=True)
    except BrokenPipeError as err:
        # stdout's reader has exited: fd 1 goes to devnull, so that the
        # interpreter's flush at exit does not fail on the same bytes again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        _print_error(err)
        return 2
    except ModelValidityError as err:
        _print_error(err, n=err.n, m=err.m)
        return 2
    except (ValueError, OSError) as err:  # the typed errors all subclass ValueError
        _print_error(err)
        return 2
    except FloatingPointError as err:
        _print_error(NumericDomainError(f"float64 arithmetic failed: {err}"))
        return 2
    except MemoryError as err:  # numpy raises a private subclass
        _print_error(MemoryError(str(err) or "out of memory"))
        return 2
    return 0


def _stdout():
    # None where the process started with fd 1 closed
    if sys.stdout is None:
        raise OSError("stdout is closed")
    return sys.stdout


def _print_error(err: Exception, **extra) -> None:
    payload = {"error": type(err).__name__, "message": str(err)}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
