"""tools/pairs.py on two stub trees whose bench/run.py prints fixed JSON."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PAIRS = ROOT / "tools" / "pairs.py"
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

# a bench/run.py that logs its tree and argv, then prints a progress line and
# the JSON result of its next call: values.json holds one value a call for
# every metric, and "correct" is false once the values run out
STUB = """\
import json, sys
from pathlib import Path
tree = Path(__file__).resolve().parent.parent
calls = tree / "calls"
call = int(calls.read_text()) if calls.exists() else 0
calls.write_text(str(call + 1))
with open(tree.parent / "order.log", "a") as fh:
    fh.write(tree.name + " " + " ".join(sys.argv[1:]) + "\\n")
values = json.loads((tree / "values.json").read_text())
correct = all(call < len(v) for v in values.values())
metrics = {name: {"value": v[min(call, len(v) - 1)], "unit": "u"} for name, v in values.items()}
print("# a progress line")
print(json.dumps({"correct": correct, "attempted": 5, "failed": 0, "metrics": metrics}))
"""


def _tree(path: Path, values: dict) -> Path:
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(STUB, encoding="utf-8")
    (path / "values.json").write_text(json.dumps(values), encoding="utf-8")
    return path


def _pairs(tmp_path, base: dict, head: dict, *args: str) -> subprocess.CompletedProcess:
    trees = [_tree(tmp_path / "base", base), _tree(tmp_path / "head", head)]
    return subprocess.run([sys.executable, str(PAIRS), *map(str, trees), *args],
                          capture_output=True, text=True, timeout=120)


def _values(lower: list[float], higher: list[float]) -> dict:
    # one series for every end-to-end metric, in its better direction
    return {m["name"]: lower if m["better"] == "lower" else higher for m in METRICS}


def test_pairs_alternate_and_report_each_metric(tmp_path):
    base = _values([1.0, 2.0, 3.0, 4.0, 5.0], [10.0, 20.0, 30.0, 40.0, 50.0])
    head = _values([0.5, 1.5, 2.5, 3.5, 6.0], [15.0, 25.0, 35.0, 45.0, 40.0])
    result = _pairs(tmp_path, base, head, "--workload", "check-ensemble", "--pairs", "5", "--seed", "7")
    assert result.returncode == 0, result.stderr
    order = (tmp_path / "order.log").read_text().splitlines()
    assert [line.split()[0] for line in order] == ["base", "head", "head", "base", "base", "head",
                                                   "head", "base", "base", "head"]
    assert {line.split(maxsplit=1)[1] for line in order} == {"--workload check-ensemble --seed 7"}
    out = result.stdout
    for metric in METRICS:
        assert f"{metric['name']} [{metric['unit']}, {metric['better']} is better]" in out
    # lower is better: base median 3 [2, 4], head median 2.5, gap 0.5 / 2
    assert "pairs (BASE -> HEAD): 1 -> 0.5, 2 -> 1.5, 3 -> 2.5, 4 -> 3.5, 5 -> 6" in out
    assert "BASE median 3 [2, 4] -> HEAD median 2.5 (-16.67%)" in out
    assert "HEAD better in 4 of 5 pairs; median gap +0.25 of BASE's quartile spread" in out
    # higher is better: base median 30 [20, 40], head median 35, gap 5 / 20
    assert "BASE median 30 [20, 40] -> HEAD median 35 (+16.67%)" in out
    assert out.count("HEAD better in 4 of 5 pairs; median gap +0.25") == len(METRICS)


def test_same_tree_gives_zero_gap(tmp_path):
    values = _values([2.0, 2.0, 2.0], [3.0, 3.0, 3.0])
    result = _pairs(tmp_path, values, values, "--workload", "sweep-surface", "--pairs", "3")
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("HEAD better in 0 of 3 pairs; median gap +0.00") == len(METRICS)


def test_a_run_that_is_not_correct_fails(tmp_path):
    # HEAD's values run out on its second call, which is then not correct
    result = _pairs(tmp_path, _values([1.0] * 3, [1.0] * 3), _values([1.0], [1.0]),
                    "--workload", "mixer-theorem", "--pairs", "3")
    assert result.returncode == 1
    assert "failed" in result.stderr
    assert "HEAD better" not in result.stdout
    # pair 1 runs base, head; pair 2 stops at its first run, head's second
    assert [line.split()[0] for line in (tmp_path / "order.log").read_text().splitlines()] == [
        "base", "head", "head"]


def test_a_spec_that_is_neither_directory_nor_revision_is_refused(tmp_path):
    missing = tmp_path / "no-such-tree"
    result = subprocess.run([sys.executable, str(PAIRS), str(missing), str(missing),
                             "--workload", "check-ensemble"], capture_output=True, text=True, timeout=120)
    assert result.returncode == 2
    assert "neither a directory nor a revision" in result.stderr


def test_json_records_every_pair_and_summary(tmp_path):
    # two calls append two comparisons to one record; stub trees are
    # directories, so no commit, and their runs print no provenance line
    base = _values([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
    head = _values([0.5, 1.5, 4.0], [15.0, 25.0, 20.0])
    path = tmp_path / "BENCH.json"
    first = _pairs(tmp_path, base, head, "--workload", "sweep-surface", "--pairs", "3",
                   "--seed", "4", "--json", str(path))
    assert first.returncode == 0, first.stderr
    comparisons = json.loads(path.read_text())["comparisons"]
    assert len(comparisons) == 1
    c = comparisons[0]
    assert c["base"] == {"spec": str(tmp_path / "base"), "commit": None, "provenance": None}
    assert c["head"]["spec"] == str(tmp_path / "head")
    assert (c["workload"], c["seed"]) == ("sweep-surface", 4)
    assert [p["first"] for p in c["pairs"]] == ["BASE", "HEAD", "BASE"]
    items = [(p["base"]["items_per_s"], p["head"]["items_per_s"]) for p in c["pairs"]]
    assert items == [(10.0, 15.0), (20.0, 25.0), (30.0, 20.0)]
    assert {p["base"]["attempted"] for p in c["pairs"]} == {5}
    assert [s["name"] for s in c["summary"]] == [m["name"] for m in METRICS]
    by_name = {s["name"]: s for s in c["summary"]}
    # higher is better: base median 20 [15, 25], head median 20, gap 0
    assert by_name["items_per_s"] == {
        "name": "items_per_s", "unit": "items/s", "better": "higher", "base_median": 20.0,
        "base_q1": 15.0, "base_q3": 25.0, "head_median": 20.0, "change_pct": 0.0, "wins": 2,
        "pairs": 3, "scaled_gap": 0.0, "resolved": False}
    # lower is better: base median 2 [1.5, 2.5], head median 1.5, gap 0.5 / 1
    assert by_name["op_p50_us"]["change_pct"] == -25.0
    assert (by_name["op_p50_us"]["wins"], by_name["op_p50_us"]["scaled_gap"]) == (2, 0.5)
    # the printed tables are those of the record
    assert "HEAD better in 2 of 3 pairs; median gap +0.50 of BASE's quartile spread" in first.stdout

    # a zero spread gives an infinite gap, recorded as null
    for side in ("base", "head"):
        (tmp_path / side / "calls").unlink()
    flat = _values([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
    (tmp_path / "base" / "values.json").write_text(json.dumps(flat))
    (tmp_path / "head" / "values.json").write_text(json.dumps(_values([1.0] * 3, [3.0] * 3)))
    argv = [sys.executable, str(PAIRS), str(tmp_path / "base"), str(tmp_path / "head"),
            "--workload", "check-ensemble", "--pairs", "3", "--json", str(path)]
    second = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert second.returncode == 0, second.stderr
    comparisons = json.loads(path.read_text())["comparisons"]
    assert [c["workload"] for c in comparisons] == ["sweep-surface", "check-ensemble"]
    assert {s["scaled_gap"] for s in comparisons[1]["summary"]} == {None}
    assert "median gap +inf" in second.stdout


def test_an_aa_record_does_not_resolve_the_change(tmp_path):
    # an A/A run of one tree moves every metric by +0.02% (BASE takes calls 0,
    # 3, 4 and HEAD calls 1, 2, 5); then HEAD is better in 2 of 5 pairs by
    # -0.16% (higher is better) or +0.16% (lower is better), a change larger
    # than the A/A one, and well inside BASE's quartile spread
    path = tmp_path / "BENCH.json"
    aa_series = [100.0, 100.02, 100.02, 100.0, 100.0, 100.02]
    aa = _tree(tmp_path / "aa", _values(aa_series, aa_series))
    first = subprocess.run([sys.executable, str(PAIRS), str(aa), str(aa), "--pairs", "3",
                            "--workload", "mixer-theorem", "--json", str(path)],
                           capture_output=True, text=True, timeout=120)
    assert first.returncode == 0, first.stderr
    base = [101.0, 99.0, 100.0, 102.0, 98.0]
    lower = [100.5, 99.5, 100.16, 101.5, 98.5]  # 2 of 5 lower than BASE
    higher = [101.5, 98.5, 99.84, 102.5, 97.5]  # 2 of 5 higher than BASE
    second = _pairs(tmp_path, _values(base, base), _values(lower, higher),
                    "--workload", "mixer-theorem", "--pairs", "5", "--json", str(path))
    assert second.returncode == 0, second.stderr
    assert "A/A" not in second.stdout
    assert second.stdout.count("HEAD better in 2 of 5 pairs") == len(METRICS)
    assert second.stdout.count(": unresolved") == len(METRICS)
    assert ": resolved" not in second.stdout
    aa_run, change = json.loads(path.read_text())["comparisons"]
    for old, new in zip(aa_run["summary"], change["summary"]):
        # the rule of comparing with the A/A change would read this resolved
        assert abs(new["change_pct"]) > abs(old["change_pct"]) > 0
        assert new["resolved"] is False
        assert "aa_change_pct" not in new


@pytest.mark.parametrize("wins, ties, resolved", [(10, 0, True), (9, 1, True), (9, 0, True),
                                                   (8, 2, False), (8, 0, False)])
def test_resolution_is_read_from_the_pairs(tmp_path, wins, ties, resolved):
    # no --json record, so no A/A run: HEAD better by a tenth in `wins` pairs,
    # equal in `ties` and worse by a tenth in the rest; BASE's values 100 to
    # 109 have a quartile spread of 4.5, so every gap below is beyond it
    base = [100.0 + i for i in range(10)]
    step = [0.1 * b for b in base]
    lower = [b - s if i < wins else b if i < wins + ties else b + s
             for i, (b, s) in enumerate(zip(base, step))]
    higher = [2 * b - low for b, low in zip(base, lower)]
    result = _pairs(tmp_path, _values(base, base), _values(lower, higher),
                    "--workload", "sweep-surface", "--pairs", "10")
    assert result.returncode == 0, result.stderr
    assert result.stdout.count(f"HEAD better in {wins} of 10 pairs") == len(METRICS)
    verdict = ": resolved" if resolved else ": unresolved"
    assert result.stdout.count(verdict) == len(METRICS)


def test_fewer_than_ten_pairs_resolve_nothing(tmp_path):
    # HEAD better in 5 of 5 pairs by a tenth, far beyond BASE's quartile
    # spread of 2: at 5 pairs, a step between two exports looks like this
    base = [100.0 + i for i in range(5)]
    result = _pairs(tmp_path, _values(base, base),
                    _values([0.9 * b for b in base], [1.1 * b for b in base]),
                    "--workload", "sweep-surface", "--pairs", "5")
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("HEAD better in 5 of 5 pairs") == len(METRICS)
    assert result.stdout.count(": unresolved") == len(METRICS)


def test_a_resolved_loss_reads_resolved(tmp_path):
    base = [100.0 + i for i in range(10)]
    worse = [1.1 * b for b in base]
    better = [0.9 * b for b in base]
    result = _pairs(tmp_path, _values(base, base), _values(worse, better),
                    "--workload", "sweep-surface", "--pairs", "10")
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("HEAD better in 0 of 10 pairs") == len(METRICS)
    assert result.stdout.count(": resolved") == len(METRICS)
