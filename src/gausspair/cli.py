"""Command-line surface: state checking, mixing, the thermal model and sweeps.

Exit codes: 0 on success, 1 on usage errors, and 2 on a domain or model
error, when memory runs out, when stdout is closed or cannot be written (help
included), and for a sweep grid too large to index.
Complex-valued flags accept ``re`` or ``re,im``.
"""

from __future__ import annotations

import functools
import os
import stat  # loaded by os already
import sys
from dataclasses import MISSING, fields
from typing import TYPE_CHECKING

from . import classicality, measures, mixer, tmtss
from .covariance import DEFAULT_TOL, GaussianParams, _check_tol, _finite_numbers, _verdicts
from .errors import ModelValidityError, NonPhysicalStateError
from .sweep import SweepConfig, sweep_grid, write_sweep_csv, write_sweep_matrix

# argparse and json are imported in the functions that use them, so importing
# this module and calling run_check load neither; main loads both
if TYPE_CHECKING:
    import argparse


def run_check(p: GaussianParams, r: float, tol: float = DEFAULT_TOL) -> dict:
    """Full classification of one state: criteria flags plus the measure chain.

    Raises :class:`NonPhysicalStateError` for a nonphysical state.
    """
    physical, separable, classical = _verdicts(p, tol)
    if not physical:
        raise NonPhysicalStateError("state violates the uncertainty principle")
    fidelity, bures, degree = measures._degree_terms(p, r, tol)
    return {
        "physical": True,
        "separable": separable,
        "p_representable": classical,
        "fidelity": fidelity,
        "bures": bures,
        "degree": degree,
        "r": float(r),
    }


def parse_complex(text: str) -> complex:
    parts = [chunk.strip() for chunk in text.split(",")]
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    import argparse
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
    import json
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


def _add_fields(parser: argparse.ArgumentParser, cls) -> None:
    # one flag per field of the value type cls, required where it has no default
    for f in fields(cls):
        required = f.default is MISSING
        parser.add_argument("--" + _key(f).replace("_", "-"), type=_TYPES[f.type],
                            required=required, default=None if required else f.default,
                            help=f.metadata.get("help"))


def build_parser() -> argparse.ArgumentParser:
    # the parser with a subparser for each command of _COMMANDS
    import argparse
    import re

    class _Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # an argument that starts as a negative number does, "-" then a
            # digit, ".digit", inf or nan, is a value, as in --n1 -1e-3 or
            # --ms -0.19,0.04, just as after "="; argparse's own pattern admits
            # only -5 and -0.5 forms before Python 3.13.  The subparsers are of
            # this class too.
            self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

        def print_help(self, file=None):
            # argparse's writer drops a failed write; this one lets it reach
            # main, where a closed or unwritable stdout is exit 2, as for the
            # commands
            out = _stdout() if file is None else file
            out.write(self.format_help())
            out.flush()

        def error(self, message):
            # usage errors are JSON on stderr too, with exit code 1
            import json
            payload = {"error": "UsageError", "message": f"{self.prog}: {message}",
                       "usage": self.format_usage().strip()}
            self.exit(1, json.dumps(payload, sort_keys=True) + "\n")

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
    tol = _check_tol(args.tol)
    p = load_state(args.state)
    cfg = _from_args(mixer.MixerConfig, args)
    b = mixer.transform_blocks(p, cfg)
    mode1, mode2 = classicality.mode_params(b.v1p), classicality.mode_params(b.v2p)
    (ms, mc), _ = b.cp
    r1, r2 = -2.0 * mc, 2.0 * ms  # the mixing kernel stores them halved
    v1p, v2p, cp = ([_pair(z) for row in block for z in row] for block in (b.v1p, b.v2p, b.cp))
    return {
        "v1p": v1p,
        "v2p": v2p,
        "cp": cp,
        "mode1": {"n": mode1.n, "m": _pair(mode1.m)},
        "mode2": {"n": mode2.n, "m": _pair(mode2.m)},
        "residuals": {"anomalous": _pair(r1), "balance": _pair(r2)},
        "decoupled": bool(max(abs(r1), abs(r2)) < tol),
    }


def cmd_sweep(args) -> None:
    # writes its own output; sweep_grid and write_sweep_csv are looked up as
    # module globals here, where a tracer may wrap them
    result = sweep_grid(_from_args(SweepConfig, args))
    writer = write_sweep_csv if args.format == "csv" else write_sweep_matrix
    if args.out:
        # rewritten in place, then cut at the last byte written: a truncating
        # open frees the old blocks only for the rewrite to allocate them
        # again.  A target that is not a regular file (/dev/null, a pipe) is
        # written as a stream and not cut, as O_TRUNC leaves it.
        fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "wb") as fh:
            try:
                writer(result, fh)
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()  # flushes, then cuts at the descriptor's offset
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
            import json
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
    import json
    payload = {"error": type(err).__name__, "message": str(err)}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
