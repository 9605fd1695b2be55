"""gausspair benchmark: three seeded closed-loop workloads with referee-checked outputs.

Run from the repository root:

    python3 bench/run.py --workload check-ensemble --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1     # the three workloads in turn
    python3 bench/run.py --quick        # every workload and referee on tiny inputs

Workloads (one client and one thread of load; the next operation starts
only when the previous one has returned and been checked; an untraced run
measures in ``WORKERS`` fresh processes one after another):

* ``sweep-surface``: ``cli.main(["sweep", "--out", file])`` on the default
  141x121 grid at r = 1.  An item is a grid point.
* ``check-ensemble``: ``cli.run_check(p, 1.0)`` over general states, one
  third each nonphysical, entangled and separable.  An item is a state.
* ``mixer-theorem``: the ``transform`` pipeline; a third general states at
  random angles, two thirds SSLD states through the local normal form and
  the 50:50 decoupling phases.  An item is a state.

``--trace 0`` prints the end-to-end metrics (set-up time, items per second,
per-input latency, peak RSS); ``--trace 1`` prints the per-layer metrics
from a run with every traced public function wrapped (see ``spans.py``).
README.md in this directory defines each metric.  Input
generation and every check run outside the timed region.  Every run checks
the golden SHA-256 of the sweep outputs and shows that the referees catch a
corrupted verdict, value and CSV byte.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The check-ensemble run also pushes two probe slices through ``run_check``
after its timed loop: states within a few ``tol`` of the pivot and PPT
bounds, and symmetric states at extreme squeezing.  They are scored by the
same referee and their failures are printed by kind, but they are neither
timed nor counted in ``attempted``/``failed``, so the gated loop holds only
inputs on which every operation must succeed.
"""

from __future__ import annotations

import os

# one thread of load: keep the BLAS pool of the numpy build to one thread,
# here and in every process started from here
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import math
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import inputs as gen
from measure import CAL_NOMINAL_NS, calibrate, items_per_s, measure
from spans import import_breakdown
from workloads import (GRID, MAX_EXAMPLES, TOL, CheckEnsemble, MixerTheorem, SweepSurface, Tally,
                       check_expectation, grid_axes, log, score_check, score_sweep_csv, sha256)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep-surface", "check-ensemble", "mixer-theorem")
#: fresh measuring processes per untraced run; each is one set-up sample and
#: gets an equal share of the run's seconds (memory layout differs per
#: process, which moves a single process's speed by several percent)
WORKERS = 8
IMPORT_LAUNCHES = 3
ANCHORED_ARGS = [
    "--r", "1.0", "--n-min", repr(math.cosh(2.0) / 2), "--n-max", "3.5", "--n-steps", "3",
    "--m-min", "0.0", "--m-max", repr(math.sinh(2.0) / 2), "--m-steps", "2",
]


def load_package():
    if not (SRC / "gausspair" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'gausspair'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    gp = importlib.import_module("gausspair")
    if Path(gp.__file__).resolve().parent != (SRC / "gausspair").resolve():
        raise SystemExit(f"bench: imported gausspair from {gp.__file__}, not from {SRC}")
    return gp, importlib.import_module("gausspair.cli")


def launch(args: list[str], timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=False)


def run_worker(workload: str, workdir: Path, index: int, seconds: float, trace: bool) -> dict:
    """One measuring process; adds its set-up time, raw and at the nominal speed."""
    before = calibrate()
    start = time.perf_counter()
    proc = launch([str(BENCH_DIR / "worker.py"), str(SRC), str(workdir), workload, str(index),
                   repr(seconds), "1" if trace else "0"])
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index} failed: {proc.stderr.strip()[-600:]}")
    with open(workdir / f"result-{index}.pkl", "rb") as fh:
        result = pickle.load(fh)
    result["setup_raw"] = result["setup_done"] - start
    result["setup_norm"] = result["setup_raw"] * CAL_NOMINAL_NS / (0.5 * (before + result["setup_cal"]))
    return result


def import_seconds(workload: str, workdir: Path, launches: int) -> dict[str, float]:
    runs = []
    for _ in range(launches):
        proc = launch(["-X", "importtime", str(BENCH_DIR / "first_op.py"), str(SRC), workload, str(workdir)])
        if proc.returncode != 0:
            raise RuntimeError(f"import-time launch failed: {proc.stderr.strip()[-400:]}")
        runs.append(import_breakdown(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def merge_tallies(tallies) -> Tally:
    total = Tally()
    for t in tallies:
        total.attempted += t.attempted
        total.kinds.update(t.kinds)
        total.examples += t.examples[: max(0, MAX_EXAMPLES - len(total.examples))]
    return total


# ---------------------------------------------------------------- golden and negative checks


def sweep_bytes(cli, workdir: Path, args: list[str]) -> bytes:
    out = workdir / "golden_probe.out"
    code = cli.main(["sweep", *args, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"sweep {args} exited {code}")
    return out.read_bytes()


def golden_outputs(cli, workdir: Path, include_default: bool = True) -> dict[str, bytes]:
    outputs = {"sweep_anchored_csv": sweep_bytes(cli, workdir, ANCHORED_ARGS)}
    if include_default:
        outputs["sweep_default_csv"] = sweep_bytes(cli, workdir, [])
        outputs["sweep_default_matrix"] = sweep_bytes(cli, workdir, ["--format", "matrix"])
    return outputs


def golden_problems(outputs: dict[str, bytes], golden: dict) -> list[str]:
    return [f"{name} SHA-256 {sha256(data)[:16]}... differs from golden {golden[name][:16]}..."
            for name, data in outputs.items() if sha256(data) != golden[name]]


def negative_checks(gp, cli, csv_text: str) -> list[str]:
    """Feed the referees one corrupted verdict, value and CSV byte; return what went uncaught."""
    missed = []
    case = gen.CheckCase((1.6, 1.9, 0.3 + 0.2j, -0.2 + 0.1j, 0.2 - 0.3j, 0.4 + 0.1j), 1.0,
                         "separable", "negative-check")
    ref = check_expectation(case)
    good = cli.run_check(gp.GaussianParams(*case.moments), case.r, TOL)
    if score_check(case, ref, ("ok", good), gp.NonPhysicalStateError) is not None:
        missed.append("referee rejects the uncorrupted run_check result")
    flipped = dict(good, separable=not good["separable"])
    if (score_check(case, ref, ("ok", flipped), gp.NonPhysicalStateError) or ("",))[0] != "verdict":
        missed.append("corrupted verdict not caught")
    nudged = dict(good, degree=good["degree"] * (1 + 1e-6) + 1e-9)
    if (score_check(case, ref, ("ok", nudged), gp.NonPhysicalStateError) or ("",))[0] != "value":
        missed.append("corrupted value not caught")
    if csv_text:
        n_axis, m_axis = grid_axes()
        lines = csv_text.split("\n")
        row = next(k for k, line in enumerate(lines[1:], 1) if ",separable," in line)
        fields = lines[row].split(",")
        digit = fields[3][2]
        fields[3] = fields[3][:2] + ("1" if digit != "1" else "2") + fields[3][3:]
        lines[row] = ",".join(fields)
        corrupted = "\n".join(lines)
        if not score_sweep_csv(corrupted, n_axis, m_axis, GRID["r"]):
            missed.append("corrupted CSV byte not caught by the closed-form referee")
        if sha256(corrupted.encode()) == sha256(csv_text.encode()):
            missed.append("corrupted CSV byte not caught by the golden hash")
    return missed


# ---------------------------------------------------------------- provenance


def provenance(seed) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, env=env, timeout=10, check=False).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "gausspair").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


# ---------------------------------------------------------------- driver


def build_workload(name, rng, workdir: Path, golden: dict, quick: bool = False):
    if name == "sweep-surface":
        return SweepSurface(str(workdir / "sweep.csv"), golden["sweep_default_csv"])
    if name == "check-ensemble":
        if quick:
            return CheckEnsemble(rng, per_class=4, probe_sizes=(16, 8))
        return CheckEnsemble(rng, per_class=400)
    return MixerTheorem(rng, count=12 if quick else 1200)


def prepare(name, seed, gp, cli, workdir, golden, quick=False):
    """Build the seeded workload, hand it to the workers, and check one pass here."""
    job = build_workload(name, np.random.default_rng(seed), workdir, golden, quick)
    with open(workdir / "workload.pkl", "wb") as fh:
        pickle.dump(job, fh)
    job.bind(gp, cli)
    reference = Tally()
    if name != "sweep-surface":  # the golden checks below run the default sweep
        measure(job, 0.0, reference)
    return job, reference


def in_workdir(body):
    """Run ``body(workdir)`` with a private scratch directory inside the checkout."""
    workdir = ROOT / ".bench_work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return body(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run(args) -> dict:
    gp, cli = load_package()
    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    return in_workdir(lambda workdir: run_in(args, gp, cli, golden, workdir))


def run_in(args, gp, cli, golden, workdir) -> dict:
    log("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    problems: list[str] = []
    metrics: dict[str, dict] = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        log(f"{args.workload} {name} = {value:.6g} {unit}{'  (' + note + ')' if note else ''}")

    job, reference = prepare(args.workload, args.seed, gp, cli, workdir, golden)
    if reference.failed:
        problems.append(f"{reference.failed} failures in the untimed reference pass")

    if args.trace:
        for pkg, value in import_seconds(args.workload, workdir, IMPORT_LAUNCHES).items():
            put(f"import.{pkg}_s", value, "s", f"median of {IMPORT_LAUNCHES} -X importtime launches")
        results = [run_worker(args.workload, workdir, 0, args.seconds, trace=True)]
        res = results[0]
        plain, traced = res["plain"], res["traced"]
        for name, (value, unit) in res["layers"].items():
            put(name, value, unit)
        rate = items_per_s(job, traced.passes(traced.op_norm))
        plain_rate = items_per_s(job, plain.passes(plain.op_norm))
        wall = float(traced.op_raw.sum()) / 1e9
        put("trace.items_per_s", rate, "items/s", f"median of {len(traced.pass_ends)} traced passes")
        put("trace.untraced_items_per_s", plain_rate, "items/s",
            f"same process, tracing off, median of {len(plain.pass_ends)} passes")
        put("trace.overhead_share", 1.0 - rate / plain_rate, "ratio")
        put("trace.op_wall_s", wall, "s", f"raw wall time of {len(traced.op_ns)} traced ops")
        put("trace.span_self_s", res["span_self_s"], "s", "sum of self time over all spans")
        put("trace.remainder_s", wall - res["span_self_s"], "s", "op time outside every span")
        put("trace.calibration_ms", statistics.median(traced.calibration) / 1e6, "ms",
            f"calibration kernel; nominal {CAL_NOMINAL_NS / 1e6:g} ms")
    else:
        results = [run_worker(args.workload, workdir, k, args.seconds / WORKERS, trace=False)
                   for k in range(WORKERS)]
        samples = [r["sample"] for r in results]
        # each input's median over its repetitions, so the percentiles
        # describe the inputs rather than the machine's momentary speed
        n = len(job)
        norm = np.median(np.concatenate([s.op_norm.reshape(-1, n) for s in samples]), axis=0)
        raw = np.median(np.concatenate([s.op_raw.reshape(-1, n) for s in samples]), axis=0)
        reps = sum(len(s.op_ns) for s in samples) // n
        p50, p99 = np.percentile(norm / 1e3, [50, 99])
        raw50, raw99 = np.percentile(raw / 1e3, [50, 99])
        passes = np.concatenate([s.passes(s.op_norm) for s in samples])
        kernel = statistics.median(c for s in samples for c in s.calibration)
        log(f"timed metrics are stated at the nominal speed (calibration kernel "
            f"{CAL_NOMINAL_NS / 1e6:g} ms); this run's kernel median is {kernel / 1e6:.4g} ms")
        put("setup_s", statistics.median(r["setup_norm"] for r in results), "s",
            f"median of {WORKERS} fresh processes; raw {statistics.median(r['setup_raw'] for r in results):.4g} s")
        put("items_per_s", items_per_s(job, passes), "items/s",
            f"median over {passes.size} passes of {len(job) * job.items_per_op} items "
            f"in {WORKERS} processes")
        put("op_p50_us", float(p50), "us",
            f"over {n} inputs, each the median of {reps} timings; raw {raw50:.6g}")
        put("op_p99_us", float(p99), "us",
            f"over {n} inputs ({int(n * 0.01)} beyond), each the median of {reps} timings; raw {raw99:.6g}")
        put("peak_rss_mb", statistics.median(r["rss_mb"] for r in results), "MB",
            f"median of {WORKERS} processes' peak resident set after the timed loop")

    tally = merge_tallies(r["tally"] for r in results)
    warm_failed = sum(r["warm_failed"] for r in results)
    if warm_failed:
        problems.append(f"{warm_failed} failures in the workers' warm-up passes")
    job.properties()
    tally.report(f"{args.workload} timed ops")
    if isinstance(job, CheckEnsemble):
        job.run_probes()

    outputs = golden_outputs(cli, workdir)
    bad = golden_problems(outputs, golden)
    problems += bad
    log(f"golden SHA-256: {len(outputs) - len(bad)} of {len(outputs)} outputs match")
    csv_text = outputs["sweep_default_csv"].decode()
    csv_problems = score_sweep_csv(csv_text, *grid_axes(), GRID["r"])
    problems += [f"sweep CSV referee: {kind}: {msg}" for kind, msg in csv_problems]
    missed = negative_checks(gp, cli, csv_text)
    problems += missed
    log(f"negative checks: {3 - len(missed)} of 3 corruptions caught (verdict, value, CSV byte)")
    for line in problems:
        log(f"PROBLEM {line}")
    return {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def quick(args) -> dict:
    """Every workload, the worker path and every referee on tiny inputs, plus the negative checks."""
    gp, cli = load_package()
    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))

    def body(workdir):
        problems, attempted, failed = [], 0, 0
        for name in ("check-ensemble", "mixer-theorem"):
            job, reference = prepare(name, args.seed, gp, cli, workdir, golden, quick=True)
            job.properties()
            reference.report(f"quick {name} (in process)")
            res = run_worker(name, workdir, 0, 0.0, trace=False)
            res["tally"].report(f"quick {name} (worker, set-up {res['setup_raw']:.3f} s)")
            for tally in (reference, res["tally"]):
                attempted, failed = attempted + tally.attempted, failed + tally.failed
            if isinstance(job, CheckEnsemble):
                job.run_probes()
        small = ["--n-steps", "11", "--m-steps", "9"]
        text = sweep_bytes(cli, workdir, small).decode()
        n_axis = np.linspace(GRID["n_min"], GRID["n_max"], 11)
        m_axis = np.linspace(GRID["m_min"], GRID["m_max"], 9)
        sweep_issues = score_sweep_csv(text, n_axis, m_axis, GRID["r"])
        attempted += 1
        failed += bool(sweep_issues)
        problems += [f"{k}: {m}" for k, m in sweep_issues]
        log(f"quick sweep-surface: 11x9 grid scored by the closed form, {len(sweep_issues)} problems")
        problems += golden_problems(golden_outputs(cli, workdir, include_default=False), golden)
        missed = negative_checks(gp, cli, sweep_bytes(cli, workdir, []).decode())
        log(f"negative checks: {3 - len(missed)} of 3 corruptions caught (verdict, value, CSV byte)")
        problems += missed
        for line in problems:
            log(f"PROBLEM {line}")
        return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
                "metrics": {}}

    return in_workdir(body)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, every referee, then exit")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.quick:
        result = quick(args)
        print(json.dumps(result, sort_keys=True))
        return 0 if result["correct"] else 1
    # a completed run exits 0 and reports its verdict in "correct"
    if args.workload != "all":
        print(json.dumps(run(args), sort_keys=True))
        return 0
    results = {}
    for name in WORKLOADS:
        args.workload = name
        results[name] = run(args)
        print(json.dumps({name: results[name]}, sort_keys=True))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": value for name, r in results.items()
                    for key, value in r["metrics"].items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
