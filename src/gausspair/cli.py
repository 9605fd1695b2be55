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

import numpy as np

from . import classicality, measures, mixer, tmtss
from .covariance import DEFAULT_TOL, GaussianParams, _check_tol, build_covariance
from .errors import ModelValidityError, NumericDomainError


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
        if self.r <= 0.0 or not math.isfinite(self.r):
            raise ValueError("reference squeezing r must be positive")
        if self.n_steps < 2 or self.m_steps < 2:
            raise ValueError("grids need at least 2 steps per axis")
        bounds = (self.n_min, self.n_max, self.m_min, self.m_max)
        if not all(map(math.isfinite, bounds)):
            raise ValueError("grid bounds must be finite")
        if not (self.n_max > self.n_min and self.m_max > self.m_min):
            raise ValueError("grid maxima must exceed minima")
        if self.m_min < 0.0:
            raise ValueError("m must be nonnegative (phase removed)")
        _check_tol(self.tol)
        measures.separable_distance(self.r)  # typed error where r over- or underflows

    def n_values(self) -> np.ndarray:
        return np.linspace(self.n_min, self.n_max, self.n_steps)

    def m_values(self) -> np.ndarray:
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
    report = measures.entanglement_degree(p, r, tol)
    v = build_covariance(p)
    return {
        "physical": True,
        "separable": report.separable,
        "p_representable": classicality.is_p_representable_joint(v, tol),
        "fidelity": report.fidelity,
        "bures": report.bures,
        "degree": report.degree,
        "r": float(r),
    }


def _cells(values: np.ndarray) -> list[str]:
    # 9 significant digits; NaN formats as "nan"
    return [f"{x:.8e}" for x in values.tolist()]


def write_sweep_csv(result: SweepResult, stream) -> None:
    # '\n' endings, empty E column for nonphysical rows
    m_cells = _cells(result.m)
    lines = ["n,m,class,E\n"]
    for n_cell, labels, degrees in zip(_cells(result.n), result.label.tolist(), result.degree.tolist()):
        lines += [
            f"{n_cell},{m_cell},{label},{'' if e != e else f'{e:.8e}'}\n"
            for m_cell, label, e in zip(m_cells, labels, degrees)
        ]
    stream.write("".join(lines))


def write_sweep_matrix(result: SweepResult, stream) -> None:
    # gnuplot nonuniform-matrix block: first row holds the m coordinates,
    # each following row is n followed by the E values (nan where nonphysical)
    lines = [" ".join([str(result.m.size)] + _cells(result.m)) + "\n"]
    for n_cell, degrees in zip(_cells(result.n), result.degree):
        lines.append(" ".join([n_cell] + _cells(degrees)) + "\n")
    stream.write("".join(lines))


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


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _matrix_pairs(a: np.ndarray) -> list[list[float]]:
    return [_pair(complex(x)) for x in np.asarray(a).ravel(order="C")]


def _complex_from_json(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value, 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return complex(float(value[0]), float(value[1]))
        except (TypeError, ValueError):
            pass
    raise ValueError(f"cannot read complex value from {value!r}")


def _real_from_json(data: dict, key: str) -> float:
    if key not in data:
        raise ValueError(f"state file has no {key!r}")
    try:
        return float(data[key])
    except (TypeError, ValueError):
        raise ValueError(f"cannot read real value {key!r} from {data[key]!r}") from None


def load_state(path: str) -> GaussianParams:
    """Read a state file: a JSON object with ``n1``, ``n2`` and optional moments.

    Raises ValueError naming the missing key or the wrong top-level type.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"state file must hold a JSON object, not {type(data).__name__}")
    return GaussianParams(
        n1=_real_from_json(data, "n1"),
        n2=_real_from_json(data, "n2"),
        m1=_complex_from_json(data.get("m1", 0.0)),
        m2=_complex_from_json(data.get("m2", 0.0)),
        m_s=_complex_from_json(data.get("ms", 0.0)),
        m_c=_complex_from_json(data.get("mc", 0.0)),
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
    blocks = mixer.transform_blocks(p, cfg)
    r1, r2 = mixer.coupling_residuals(p, cfg)
    mode1 = classicality.mode_params(blocks.v1p)
    mode2 = classicality.mode_params(blocks.v2p)
    return {
        "v1p": _matrix_pairs(blocks.v1p),
        "v2p": _matrix_pairs(blocks.v2p),
        "cp": _matrix_pairs(blocks.cp),
        "mode1": {"n": mode1.n, "m": _pair(mode1.m)},
        "mode2": {"n": mode2.n, "m": _pair(mode2.m)},
        "residuals": {"anomalous": _pair(r1), "balance": _pair(r2)},
        "decoupled": bool(max(abs(r1), abs(r2)) < args.tol),
    }


def cmd_sweep(args) -> int:
    cfg = SweepConfig(
        r=args.r,
        n_min=args.n_min, n_max=args.n_max, n_steps=args.n_steps,
        m_min=args.m_min, m_max=args.m_max, m_steps=args.m_steps,
        tol=args.tol,
    )
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
        # numpy overflow and invalid results become errors, not warnings on stderr
        with np.errstate(over="raise", divide="raise", invalid="raise"):
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
