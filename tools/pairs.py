"""Before-and-after benchmark pairs: BASE against HEAD on one workload.

Usage: python3 tools/pairs.py BASE HEAD --workload W [--pairs N] [--seed S] [--json PATH]

BASE and HEAD are each a directory, used as it is, or a revision of the git
repository that holds this script, exported with ``git archive`` into a
temporary directory.  Each pair runs ``bench/run.py --workload W --seed S``
once in each tree, each run in a fresh process, and alternates which tree runs
first.  The last line of a run's standard output is its JSON result.

For each end-to-end metric of ``BENCHMARK.json`` it prints every pair's
values, BASE's median and quartiles, HEAD's median, the pairs in which HEAD is
better, and the median gap in units of BASE's quartile spread (positive where
HEAD is better).  BASE equal to HEAD gives the run-to-run noise floor.

With ``--json PATH`` the comparison is also recorded in PATH, a JSON object
whose ``comparisons`` list gains one entry per call, so that one file holds
every run of a change: the specs (with the commit of a revision), each
side's provenance line, the workload and seed, every pair's values, and each
metric's summary.  A non-finite summary number (a gap over a zero spread) is
written as null.

When that record already holds an A/A comparison of the workload (the same
commit, or the same directory, on both sides), the latest one is the noise
floor: next to each metric's gap the table prints that run's % change, and a
change no larger in size reads ``unresolved``.  The recorded summary then
holds the same two fields, ``aa_change_pct`` and ``resolved``.

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


def _tree_name(side: dict) -> str:
    # a recorded side's commit, or its directory
    return side["commit"] or side["spec"]


def noise_floor(path: Path, workload: str) -> dict | None:
    """The latest A/A comparison of ``workload`` in the record at ``path``,
    or None: one whose two sides name the same commit, or the same directory."""
    if not path.exists():
        return None
    comparisons = json.loads(path.read_text(encoding="utf-8"))["comparisons"]
    same = [c for c in comparisons
            if c["workload"] == workload and _tree_name(c["base"]) == _tree_name(c["head"])]
    return same[-1] if same else None


def summary(metric: dict, pairs: list[tuple[float, float]], floor: dict | None = None) -> dict:
    """One metric over the pairs (BASE value, HEAD value): BASE's median and
    quartiles, HEAD's median, the % change, HEAD's wins and the median gap in
    units of BASE's quartile spread (positive where HEAD is better).  With an
    A/A comparison ``floor`` that reports the metric, also that run's % change
    and whether this change is larger in size; an A/A change recorded as null
    resolves nothing."""
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
    out = {
        "name": metric["name"], "unit": metric["unit"], "better": metric["better"],
        "base_median": base_median, "base_q1": q1, "base_q3": q3, "head_median": head_median,
        "change_pct": change, "wins": sum(sign * (b - h) > 0 for b, h in pairs),
        "pairs": len(pairs), "scaled_gap": scaled,
    }
    noise = {s["name"]: s["change_pct"] for s in floor["summary"]} if floor else {}
    if metric["name"] in noise:
        aa = noise[metric["name"]]
        out["aa_change_pct"] = aa
        out["resolved"] = aa is not None and abs(change) > abs(aa)
    return out


def report(s: dict, pairs: list[tuple[float, float]]) -> list[str]:
    """The table of one metric's summary ``s`` over its pairs."""
    return [
        f"{s['name']} [{s['unit']}, {s['better']} is better]",
        "  pairs (BASE -> HEAD): " + ", ".join(f"{b:.6g} -> {h:.6g}" for b, h in pairs),
        f"  BASE median {s['base_median']:.6g} [{s['base_q1']:.6g}, {s['base_q3']:.6g}] -> HEAD "
        f"median {s['head_median']:.6g} ({s['change_pct']:+.2f}%)",
        f"  HEAD better in {s['wins']} of {s['pairs']} pairs; median gap {s['scaled_gap']:+.2f} "
        "of BASE's quartile spread" + _resolution(s),
    ]


def _resolution(s: dict) -> str:
    # the A/A comparison's change beside the gap, where there is one
    if "resolved" not in s:
        return ""
    aa = "n/a" if s["aa_change_pct"] is None else f"{s['aa_change_pct']:+.2f}%"
    return f"; A/A change {aa}: {'resolved' if s['resolved'] else 'unresolved'}"


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
    floor = noise_floor(args.json, args.workload) if args.json else None
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        trees = {"BASE": checkout(args.base, Path(scratch)),
                 "HEAD": checkout(args.head, Path(scratch))}
        print(f"# BASE {args.base} ({trees['BASE']}), HEAD {args.head} ({trees['HEAD']}), "
              f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs", flush=True)
        if floor:
            print(f"# A/A noise floor: {_tree_name(floor['base'])} on both sides, "
                  f"seed {floor['seed']}, {len(floor['pairs'])} pairs", flush=True)
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
        summaries.append(summary(metric, pairs, floor))
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
