"""Before-and-after benchmark pairs: BASE against HEAD on one workload.

Usage: python3 tools/pairs.py BASE HEAD --workload W [--pairs N] [--seed S]

BASE and HEAD are each a directory, used as it is, or a revision of the git
repository that holds this script, exported with ``git archive`` into a
temporary directory.  Each pair runs ``bench/run.py --workload W --seed S``
once in each tree, each run in a fresh process, and alternates which tree runs
first.  The last line of a run's standard output is its JSON result.

For each end-to-end metric of ``BENCHMARK.json`` it prints every pair's
values, BASE's median and quartiles, HEAD's median, the pairs in which HEAD is
better, and the median gap in units of BASE's quartile spread (positive where
HEAD is better).  BASE equal to HEAD gives the run-to-run noise floor.

Exit status: 0 when every run completes and reports ``correct``, 1 when a run
fails or is not correct (the runs stop there), 2 on a usage error.  Standard
library only; nothing under ``bench/`` is modified.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def checkout(spec: str, scratch: Path) -> Path:
    """The tree of ``spec``: a directory as it is, or a revision exported into ``scratch``."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", spec],
                             capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(f"pairs: {spec!r} is neither a directory nor a revision: "
                         + archive.stderr.decode(errors="replace"))
        raise SystemExit(2)
    tree = Path(tempfile.mkdtemp(prefix="tree-", dir=scratch))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def bench(tree: Path, workload: str, seed: int) -> dict | None:
    """One ``bench/run.py`` run in a fresh process: its JSON result, or None
    where the run failed or is not correct."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    run = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None or not result.get("correct"):
        sys.stderr.write(f"pairs: {' '.join(argv[1:])} in {tree} failed (exit {run.returncode})\n"
                         + run.stdout[-2000:] + run.stderr[-2000:])
        return None
    return result


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(metric: dict, pairs: list[tuple[float, float]]) -> list[str]:
    """The table of one metric over the pairs (BASE value, HEAD value)."""
    name, unit, better = metric["name"], metric["unit"], metric["better"]
    sign = 1.0 if better == "lower" else -1.0  # sign * (base - head) > 0 where HEAD is better
    base = [b for b, _ in pairs]
    base_median = statistics.median(base)
    head_median = statistics.median(h for _, h in pairs)
    q1, q3 = quartiles(base)
    wins = sum(sign * (b - h) > 0 for b, h in pairs)
    gap = sign * (base_median - head_median)
    spread = q3 - q1
    if spread:
        scaled = gap / spread
    else:
        scaled = math.copysign(math.inf, gap) if gap else 0.0
    change = (head_median / base_median - 1.0) * 100.0 if base_median else float("nan")
    return [
        f"{name} [{unit}, {better} is better]",
        "  pairs (BASE -> HEAD): " + ", ".join(f"{b:.6g} -> {h:.6g}" for b, h in pairs),
        f"  BASE median {base_median:.6g} [{q1:.6g}, {q3:.6g}] -> HEAD median "
        f"{head_median:.6g} ({change:+.2f}%)",
        f"  HEAD better in {wins} of {len(pairs)} pairs; median gap {scaled:+.2f} "
        "of BASE's quartile spread",
    ]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE", help="directory or git revision")
    parser.add_argument("head", metavar="HEAD", help="directory or git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # each with its name, unit and better direction
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        trees = {"BASE": checkout(args.base, Path(scratch)),
                 "HEAD": checkout(args.head, Path(scratch))}
        print(f"# BASE {args.base} ({trees['BASE']}), HEAD {args.head} ({trees['HEAD']}), "
              f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs", flush=True)
        runs: list[dict[str, dict]] = []
        for index in range(args.pairs):
            order = ("BASE", "HEAD") if index % 2 == 0 else ("HEAD", "BASE")
            pair = {}
            for side in order:
                pair[side] = bench(trees[side], args.workload, args.seed)
                if pair[side] is None:
                    return 1
            print(f"# pair {index + 1} of {args.pairs} done ({order[0]} first)", flush=True)
            runs.append(pair)
    for metric in metrics:
        name = metric["name"]
        if not all(name in run[side]["metrics"] for run in runs for side in run):
            print(f"{name}: not reported by every run")
            continue
        pairs = [(run["BASE"]["metrics"][name]["value"], run["HEAD"]["metrics"][name]["value"])
                 for run in runs]
        print("\n".join(report(metric, pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
