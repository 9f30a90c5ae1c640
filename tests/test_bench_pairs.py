"""tools/bench_pairs.py on stub checkouts whose benchmark prints a fixed result line."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = {"work_per_s": {"value": 2.0, "unit": "1/s"}}
GOOD = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": METRICS})


def stub_checkout(root: Path, last_line: str, names=("work_per_s",)) -> Path:
    """A checkout whose perfbench/run.py exits 0 after printing an info line and `last_line`.

    Its BENCHMARK.json lists the end-to-end metrics `names`.
    """
    (root / "perfbench").mkdir(parents=True)
    info = "info " + json.dumps({"environment": {"host": "stub"}})
    (root / "perfbench" / "run.py").write_text(f"print({info!r})\nprint({last_line!r})\n")
    bench = {"run_seconds": 1, "end_to_end": [{"name": n, "unit": "1", "better": "higher"} for n in names]}
    (root / "BENCHMARK.json").write_text(json.dumps(bench))
    return root


def test_run_once_reads_a_result_line(tmp_path):
    assert bench_pairs.run_once(stub_checkout(tmp_path, GOOD), "w", 1) == ({"work_per_s": 2.0}, {"host": "stub"})


def test_run_once_fails_a_malformed_result_line(tmp_path):
    for i, line in enumerate(("done", '{"correct": tr', "[1, 2]")):
        checkout = stub_checkout(tmp_path / str(i), line)
        assert bench_pairs.run_once(checkout, "w", 1) == (None, "malformed result line")


def test_malformed_side_keeps_the_pairs_run(tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent", GOOD)
    change = stub_checkout(tmp_path / "change", "Traceback: not a result")
    out = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--workloads", "w", "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    report = json.loads(out.read_text())
    assert report["environment"] == {"host": "stub"}
    assert [(f["seed"], f["side"], f["reason"]) for f in report["failures"]] == [
        (1000, "change", "malformed result line"),
        (1001, "change", "malformed result line"),
    ]
    assert report["workloads"]["w"]["work_per_s"]["pairs"] == 0
    assert "parent work_per_s=2" in capsys.readouterr().err


def test_run_once_fails_a_result_of_the_wrong_shape(tmp_path):
    results = (
        {"correct": True, "attempted": 1, "failed": 0},
        {"correct": True, "metrics": [2.0]},
        {"correct": True, "metrics": {"work_per_s": 2.0}},
        {"correct": True, "metrics": {"work_per_s": {"unit": "1/s"}}},
        {"correct": True, "metrics": {"work_per_s": {"value": "fast"}}},
        {"correct": True, "metrics": {"work_per_s": {"value": None}}},
    )
    for i, result in enumerate(results):
        checkout = stub_checkout(tmp_path / str(i), json.dumps(result))
        assert bench_pairs.run_once(checkout, "w", 1) == (None, "malformed result line")


def test_result_without_a_benchmark_metric_is_a_failure(tmp_path, capsys):
    names = ("work_per_s", "peak_rss_mb")
    full = json.dumps({"correct": True, "metrics": {**METRICS, "peak_rss_mb": {"value": 100.0, "unit": "MB"}}})
    parent = stub_checkout(tmp_path / "parent", full, names)
    change = stub_checkout(tmp_path / "change", GOOD, names)
    assert bench_pairs.run_once(change, "w", 1) == ({"work_per_s": 2.0}, {"host": "stub"})
    assert bench_pairs.run_once(change, "w", 1, names) == (None, "malformed result line")
    out = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--workloads", "w", "--pairs", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    report = json.loads(out.read_text())
    assert [(f["side"], f["reason"]) for f in report["failures"]] == [("change", "malformed result line")]
    assert report["workloads"]["w"]["peak_rss_mb"]["pairs"] == 0
    assert "parent work_per_s=2" in capsys.readouterr().err


def test_output_keeps_the_pairs_finished_before_a_crash(tmp_path, monkeypatch):
    parent = stub_checkout(tmp_path / "parent", GOOD)
    change = stub_checkout(tmp_path / "change", GOOD)
    out = tmp_path / "bench.json"
    run_once, calls = bench_pairs.run_once, []

    def crashing(*args):
        calls.append(args)
        if len(calls) > 2:
            raise KeyboardInterrupt
        return run_once(*args)

    monkeypatch.setattr(bench_pairs, "run_once", crashing)
    argv = [str(parent), str(change), "--workloads", "w", "--pairs", "3", "--out", str(out)]
    with pytest.raises(KeyboardInterrupt):
        bench_pairs.main(argv)
    entry = json.loads(out.read_text())["workloads"]["w"]["work_per_s"]
    assert entry["pairs"] == 1
    assert entry["parent"]["values"] == entry["change"]["values"] == [2.0]


def test_steal_share_of_each_paired_run(tmp_path, monkeypatch):
    # each stub run advances a fake /proc/stat by 80 user and 20 steal jiffies, a steal share of 0.2
    stat = tmp_path / "stat"
    stat.write_text("cpu  100 0 50 800 10 0 5 35 7 0\n")
    advance = (f"import pathlib\np = pathlib.Path({str(stat)!r})\nv = p.read_text().split()\n"
               "v[1] = str(int(v[1]) + 80)\nv[8] = str(int(v[8]) + 20)\np.write_text(' '.join(v))\n")
    parent = stub_checkout(tmp_path / "parent", GOOD)
    change = stub_checkout(tmp_path / "change", GOOD)
    for checkout in (parent, change):
        run = checkout / "perfbench" / "run.py"
        run.write_text(advance + run.read_text())
    monkeypatch.setattr(bench_pairs, "PROC_STAT", stat)
    out = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--workloads", "w", "--pairs", "3", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["steal_share"] == {"parent": [0.2] * 3, "change": [0.2] * 3}
    assert entry["work_per_s"]["pairs"] == 3

    monkeypatch.setattr(bench_pairs, "PROC_STAT", tmp_path / "absent")
    assert bench_pairs.main(argv) == 0
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["steal_share"] == {"parent": [None] * 3, "change": [None] * 3}
