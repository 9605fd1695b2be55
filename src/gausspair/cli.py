"""Command-line surface: state checking, mixing, the thermal model and sweeps.

Exit codes: 0 on success, 1 on usage errors, 2 on domain or model errors.
Complex-valued flags accept ``re`` or ``re,im``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import classicality, measures, mixer, tmtss
from .covariance import DEFAULT_TOL, GaussianParams, _check_tol
from .errors import ModelValidityError, NumericDomainError

if TYPE_CHECKING:
    import numpy as np


def _finite(x) -> bool:
    # math.isfinite, which raises OverflowError for an int beyond float64
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
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

    def __post_init__(self):
        if self.r <= 0.0 or not _finite(self.r):
            raise ValueError("reference squeezing r must be positive and finite")
        if self.n_steps < 2 or self.m_steps < 2:
            raise ValueError("grids need at least 2 steps per axis")
        bounds = (self.n_min, self.n_max, self.m_min, self.m_max)
        if not all(map(_finite, bounds)):
            raise ValueError("grid bounds must be finite")
        if not (self.n_max > self.n_min and self.m_max > self.m_min):
            raise ValueError("grid maxima must exceed minima")
        if self.m_min < 0.0:
            raise ValueError("m must be nonnegative (phase removed)")
        _check_tol(self.tol)
        measures.separable_distance(self.r)  # typed error where r over- or underflows

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
    nn, mm = np.meshgrid(n, m, indexing="ij")
    codes = tmtss.symmetric_class_codes(nn, mm, cfg.tol)
    physical = codes > 0
    degree = np.full(nn.shape, np.nan)
    degree[physical] = measures.symmetric_degree(nn[physical], mm[physical], cfg.r)
    label = np.array(tmtss.SYMMETRIC_CLASSES)[codes]
    return SweepResult(n=n, m=m, label=label, degree=degree)


def run_check(p: GaussianParams, r: float, tol: float = DEFAULT_TOL) -> dict:
    """Full classification of one state: criteria flags plus the measure chain.

    Raises :class:`NonPhysicalStateError` for a nonphysical state.
    """
    fidelity, bures, degree, separable = measures._degree_terms(p, r, tol)
    return {
        "physical": True,
        "separable": separable,
        "p_representable": classicality.is_p_representable_joint(p, tol),
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


def _lines(shape, *parts) -> str:
    # the text of a uint8 table of the given shape whose last axis joins the
    # parts (arrays broadcasting to shape + (width,), or single characters),
    # with its NUL padding dropped
    import numpy as np
    parts = [np.frombuffer(p.encode(), np.uint8) if isinstance(p, str) else p for p in parts]
    table = np.concatenate([np.broadcast_to(p, (*shape, p.shape[-1])) for p in parts], axis=-1)
    return table.tobytes().translate(None, b"\0").decode("ascii")


def write_sweep_csv(result: SweepResult, stream) -> None:
    # '\n' endings, empty E column for nonphysical rows
    import numpy as np
    shape = result.degree.shape
    label = np.ascontiguousarray(result.label).view(np.uint32).reshape(*shape, -1).astype(np.uint8)
    degree = result.degree.ravel()
    physical = ~np.isnan(degree)
    e_cells = np.zeros((degree.size, _CELL), np.uint8)
    e_cells[physical] = _sci_table(degree[physical])
    stream.write("n,m,class,E\n" + _lines(
        shape, _sci_table(result.n)[:, None], ",", _sci_table(result.m), ",",
        label, ",", e_cells.reshape(*shape, _CELL), "\n",
    ))


def write_sweep_matrix(result: SweepResult, stream) -> None:
    # gnuplot nonuniform-matrix block: first row holds the m coordinates,
    # each following row is n followed by the E values (nan where nonphysical)
    import numpy as np
    rows, cols = result.degree.shape
    head = str(cols).encode()
    cells = np.zeros((rows + 1, cols + 1, _CELL), np.uint8)
    cells[0, 0, :len(head)] = list(head)
    cells[0, 1:] = _sci_table(result.m)
    cells[1:, 0] = _sci_table(result.n)
    cells[1:, 1:] = _sci_table(result.degree).reshape(rows, cols, _CELL)
    sep = np.full((cols + 1, 1), ord(" "), np.uint8)
    sep[-1] = ord("\n")
    stream.write(_lines(cells.shape[:2], cells, sep))


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


def _json_float(value) -> float | None:
    # a JSON number as a float, else None: true and false load as bool, an
    # int subclass, and an integer literal beyond float64 cannot convert
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    return None


def _complex_from_json(data: dict, key: str) -> complex:
    value = data.get(key, 0.0)
    pair = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    re, im = map(_json_float, pair)
    if re is None or im is None:
        raise ValueError(f"cannot read complex value {key!r} from {value!r}")
    return complex(re, im)


def _real_from_json(data: dict, key: str) -> float:
    if key not in data:
        raise ValueError(f"state file has no {key!r}")
    x = _json_float(data[key])
    if x is None:
        raise ValueError(f"cannot read real value {key!r} from {data[key]!r}")
    return x


def load_state(path: str) -> GaussianParams:
    """Read a state file: a JSON object with ``n1``, ``n2`` and optional moments.

    ``n1`` and ``n2`` are JSON numbers; each moment is a number or a list of
    two numbers ``[re, im]``.  Raises ValueError naming the wrong top-level
    type, the missing key or the key whose value is anything else.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"state file must hold a JSON object, not {type(data).__name__}")
    return GaussianParams(
        n1=_real_from_json(data, "n1"),
        n2=_real_from_json(data, "n2"),
        m1=_complex_from_json(data, "m1"),
        m2=_complex_from_json(data, "m2"),
        m_s=_complex_from_json(data, "ms"),
        m_c=_complex_from_json(data, "mc"),
    )


def state_to_json(p: GaussianParams) -> dict:
    return {
        "n1": p.n1,
        "n2": p.n2,
        "m1": _pair(p.m1),
        "m2": _pair(p.m2),
        "ms": _pair(p.m_s),
        "mc": _pair(p.m_c),
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage errors are JSON on stderr too, with exit code 1
        payload = {"error": "UsageError", "message": f"{self.prog}: {message}",
                   "usage": self.format_usage().strip()}
        self.exit(1, json.dumps(payload, sort_keys=True) + "\n")


def _add_state_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n1", type=float, required=True)
    parser.add_argument("--n2", type=float, required=True)
    parser.add_argument("--m1", type=parse_complex, default=0j)
    parser.add_argument("--m2", type=parse_complex, default=0j)
    parser.add_argument("--ms", type=parse_complex, default=0j)
    parser.add_argument("--mc", type=parse_complex, default=0j)


def build_parser() -> _Parser:
    parser = _Parser(prog="gausspair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="classify one state and report its measures")
    _add_state_flags(check)
    check.add_argument("--r", type=float, default=1.0, help="reference squeezing")
    check.add_argument("--tol", type=float, default=DEFAULT_TOL)

    transform = sub.add_parser("transform", help="push a state file through the mixer")
    transform.add_argument("--state", required=True, help="JSON state file")
    transform.add_argument("--theta", type=float, required=True, help="mixing angle, radians")
    transform.add_argument("--phi0", type=float, default=0.0)
    transform.add_argument("--phi1", type=float, default=0.0)
    transform.add_argument("--tol", type=float, default=DEFAULT_TOL)

    sweep = sub.add_parser("sweep", help="entanglement-degree surface over the (n, m) grid")
    sweep.add_argument("--r", type=float, default=1.0)
    sweep.add_argument("--n-min", type=float, default=0.5)
    sweep.add_argument("--n-max", type=float, default=3.5)
    sweep.add_argument("--n-steps", type=int, default=141)
    sweep.add_argument("--m-min", type=float, default=0.0)
    sweep.add_argument("--m-max", type=float, default=3.0)
    sweep.add_argument("--m-steps", type=int, default=121)
    sweep.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sweep.add_argument("--format", choices=("csv", "matrix"), default="csv")
    sweep.add_argument("--out", help="output file (stdout when omitted)")

    model = sub.add_parser("tmtss", help="thermal squeezed pair parameters")
    model.add_argument("--d", type=float, required=True, help="diffusion, gamma*t")
    model.add_argument("--r", type=float, required=True, help="squeezing, kappa*t")
    model.add_argument("--nbar", type=float, default=0.0)
    model.add_argument("--tol", type=float, default=DEFAULT_TOL)

    return parser


def cmd_check(args) -> dict:
    p = GaussianParams(n1=args.n1, n2=args.n2, m1=args.m1, m2=args.m2,
                       m_s=args.ms, m_c=args.mc)
    return run_check(p, args.r, args.tol)


def cmd_transform(args) -> dict:
    _check_tol(args.tol)
    p = load_state(args.state)
    cfg = mixer.MixerConfig(theta=args.theta, phi0=args.phi0, phi1=args.phi1)
    q = mixer.mix_params(p, cfg)
    entries = [_pair(z) for z in mixer._block_entries(q)]
    r1, r2 = mixer.coupling_residuals(p, cfg)
    mode1, mode2 = classicality.ModeParams(q.n1, q.m1), classicality.ModeParams(q.n2, q.m2)
    return {
        "v1p": entries[:4],
        "v2p": entries[4:8],
        "cp": entries[8:],
        "mode1": {"n": mode1.n, "m": _pair(mode1.m)},
        "mode2": {"n": mode2.n, "m": _pair(mode2.m)},
        "residuals": {"anomalous": _pair(r1), "balance": _pair(r2)},
        "decoupled": bool(max(abs(r1), abs(r2)) < args.tol),
    }


def cmd_sweep(args) -> int:
    import numpy as np
    cfg = SweepConfig(
        r=args.r,
        n_min=args.n_min, n_max=args.n_max, n_steps=args.n_steps,
        m_min=args.m_min, m_max=args.m_max, m_steps=args.m_steps,
        tol=args.tol,
    )
    # numpy overflow and invalid results become errors, not warnings on stderr
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        result = sweep_grid(cfg)
    writer = write_sweep_csv if args.format == "csv" else write_sweep_matrix
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer(result, fh)
    else:
        writer(result, sys.stdout)
    return 0


def cmd_tmtss(args) -> dict:
    inputs = tmtss.TmtssInputs(d=args.d, r=args.r, nbar=args.nbar)
    p = tmtss.tmtss_params(inputs, args.tol)
    out = state_to_json(p)
    out["p1"] = inputs.p1
    out["p2"] = inputs.p2
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            payload = cmd_check(args)
        elif args.command == "transform":
            payload = cmd_transform(args)
        elif args.command == "sweep":
            return cmd_sweep(args)
        else:
            payload = cmd_tmtss(args)
    except ModelValidityError as err:
        _print_error(err, n=err.n, m=err.m)
        return 2
    except (ValueError, OSError) as err:  # the typed errors all subclass ValueError
        _print_error(err)
        return 2
    except FloatingPointError as err:
        _print_error(NumericDomainError(f"float64 arithmetic failed: {err}"))
        return 2
    print(json.dumps(payload, sort_keys=True))
    return 0


def _print_error(err: Exception, **extra) -> None:
    payload = {"error": type(err).__name__, "message": str(err)}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
