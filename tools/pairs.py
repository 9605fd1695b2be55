"""Before-and-after benchmark pairs: BASE against HEAD on one workload.

Usage: python3 tools/pairs.py BASE HEAD --workload W [--pairs N] [--seed S] [--json PATH]

BASE and HEAD are each a directory, used as it is, or a revision of the git
repository that holds this script, exported with ``git archive`` into a
temporary directory.  Each pair runs ``bench/run.py --workload W --seed S``
once in each tree, each run in a fresh process, and alternates which tree runs
first.  The last line of a run's standard output is its JSON result.

For each end-to-end metric of ``BENCHMARK.json`` it prints every pair's
values, BASE's median and quartiles, HEAD's median, the pairs in which HEAD is
better, the median gap in units of BASE's quartile spread (positive where
HEAD is better), and whether the comparison resolves the change: it does
when it ran at least 10 pairs, one side is better in at least 9 of 10 of
them, ties counting for neither, and the median gap in its favour exceeds
BASE's quartile spread.  Fewer pairs resolve nothing: at 5, a step of the
workers' memory between two exports wins 5 of 5 and clears the spread.
BASE equal to HEAD gives the run-to-run noise of one tree.

A resolved ``peak_rss_mb`` is not by itself evidence of a code effect: the
resident high-water mark also follows the layout of the code.  A prototype of
an in-place degree kernel read -0.91% on sweep-surface, better in 10 of 10
pairs, while ``VmHWM`` after 30 ops in one process did not move; and
check-ensemble, whose ops run none of that kernel, read +0.40%, worse in 10
of 10, a step that a different import order removes.

With ``--json PATH`` the comparison is also recorded in PATH, a JSON object
whose ``comparisons`` list gains one entry per call, so that one file holds
every run of a change: the specs (with the commit of a revision), each
side's provenance line, the workload and seed, every pair's values, and each
metric's summary, ``resolved`` included.  A non-finite summary number (a
gap over a zero spread) is written as null.

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


def commit(spec: str) -> str | None:
    """The commit a revision names; None for a directory."""
    if Path(spec).is_dir():
        return None
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", spec + "^{commit}"],
                         capture_output=True, text=True)
    return rev.stdout.strip() or None


def bench(tree: Path, workload: str, seed: int) -> dict | None:
    """One ``bench/run.py`` run in a fresh process: its JSON result, with its
    provenance line under ``provenance``, or None where the run failed or is
    not correct."""
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
    result["provenance"] = next((json.loads(line.split(" ", 2)[2]) for line in lines
                                 if line.startswith("# provenance ")), None)
    return result


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(metric: dict, pairs: list[tuple[float, float]]) -> dict:
    """One metric over the pairs (BASE value, HEAD value): BASE's median and
    quartiles, HEAD's median, the % change, HEAD's wins, the median gap in
    units of BASE's quartile spread (positive where HEAD is better), and
    whether the pairs resolve the change: at least 10 pairs, one side better
    in at least 9 of 10 of them, ties counting for neither, with the gap in
    its favour above 1."""
    # sign * (base - head) > 0 where HEAD is better
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base = [b for b, _ in pairs]
    base_median = statistics.median(base)
    head_median = statistics.median(h for _, h in pairs)
    q1, q3 = quartiles(base)
    gap = sign * (base_median - head_median)
    spread = q3 - q1
    if spread:
        scaled = gap / spread
    else:
        scaled = math.copysign(math.inf, gap) if gap else 0.0
    change = (head_median / base_median - 1.0) * 100.0 if base_median else math.nan
    wins = sum(sign * (b - h) > 0 for b, h in pairs)
    losses = sum(sign * (b - h) < 0 for b, h in pairs)
    resolved = len(pairs) >= 10 and (10 * wins >= 9 * len(pairs) and scaled > 1.0
                                     or 10 * losses >= 9 * len(pairs) and scaled < -1.0)
    return {
        "name": metric["name"], "unit": metric["unit"], "better": metric["better"],
        "base_median": base_median, "base_q1": q1, "base_q3": q3, "head_median": head_median,
        "change_pct": change, "wins": wins, "pairs": len(pairs), "scaled_gap": scaled,
        "resolved": resolved,
    }


def report(s: dict, pairs: list[tuple[float, float]]) -> list[str]:
    """The table of one metric's summary ``s`` over its pairs."""
    return [
        f"{s['name']} [{s['unit']}, {s['better']} is better]",
        "  pairs (BASE -> HEAD): " + ", ".join(f"{b:.6g} -> {h:.6g}" for b, h in pairs),
        f"  BASE median {s['base_median']:.6g} [{s['base_q1']:.6g}, {s['base_q3']:.6g}] -> HEAD "
        f"median {s['head_median']:.6g} ({s['change_pct']:+.2f}%)",
        f"  HEAD better in {s['wins']} of {s['pairs']} pairs; median gap {s['scaled_gap']:+.2f} "
        f"of BASE's quartile spread: {'resolved' if s['resolved'] else 'unresolved'}",
    ]


def values(result: dict, metrics: list[dict]) -> dict:
    """One run's operation counts and end-to-end metric values."""
    out = {"attempted": result["attempted"], "failed": result["failed"]}
    out.update((m["name"], result["metrics"][m["name"]]["value"])
               for m in metrics if m["name"] in result["metrics"])
    return out


def record(path: Path, comparison: dict) -> None:
    """Append ``comparison`` to the ``comparisons`` of the JSON file at ``path``."""
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"comparisons": []}
    data["comparisons"].append(comparison)
    path.write_text(json.dumps(data, indent=1, allow_nan=False) + "\n", encoding="utf-8")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE", help="directory or git revision")
    parser.add_argument("head", metavar="HEAD", help="directory or git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also append the comparison to this JSON record")
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
    summaries = []
    for metric in metrics:
        name = metric["name"]
        if not all(name in run[side]["metrics"] for run in runs for side in run):
            print(f"{name}: not reported by every run")
            continue
        pairs = [(run["BASE"]["metrics"][name]["value"], run["HEAD"]["metrics"][name]["value"])
                 for run in runs]
        summaries.append(summary(metric, pairs))
        print("\n".join(report(summaries[-1], pairs)))
    if args.json:
        specs = {"base": args.base, "head": args.head}
        record(args.json, {
            **{side: {"spec": spec, "commit": commit(spec),
                      "provenance": runs[0][side.upper()]["provenance"]}
               for side, spec in specs.items()},
            "workload": args.workload,
            "seed": args.seed,
            "pairs": [{"first": next(iter(run)), "base": values(run["BASE"], metrics),
                       "head": values(run["HEAD"], metrics)} for run in runs],
            # strict JSON: a gap over a zero spread, or a change from a zero
            # median, as null
            "summary": [{key: None if isinstance(v, float) and not math.isfinite(v) else v
                         for key, v in s.items()} for s in summaries],
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
