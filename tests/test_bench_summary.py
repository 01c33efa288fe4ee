"""tools/bench_summary.py on synthetic result files of perfbench/run.py."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_summary", ROOT / "tools" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

BENCHMARK = {"end_to_end": [
    {"name": "chunks_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "chunk_p50_ms", "unit": "ms", "better": "lower", "bound": 0.15},
]}


def _result(path, seed, fingerprint, chunks_per_s, p50_ms, failed=0):
    env = {"workload": "coalescent", "seed": seed, "seconds": 36.0,
           "trace": 0, "nproc": 2, "python": "3.11.7",
           "source_fingerprint": fingerprint, "digest": f"d{seed}",
           "problems": [], "missing": {}, "raw": {"setup_s": 0.3}}
    result = {"correct": failed == 0, "attempted": 100, "failed": failed,
              "metrics": {"chunks_per_s": {"value": chunks_per_s, "unit": "1/s"},
                          "chunk_p50_ms": {"value": p50_ms, "unit": "ms"}}}
    path.write_text(json.dumps({"env": env, "result": result}))
    return str(path)


def test_two_result_files_make_one_pair(tmp_path):
    parent = _result(tmp_path / "parent.json", 7, "fp-parent", 40.0, 25.0)
    change = _result(tmp_path / "change.json", 7, "fp-change", 44.0, 26.0,
                     failed=1)
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    out = tmp_path / "BENCH_99.json"
    assert bench_summary.main(["--pr", "99", "--parent-commit", "abc1234",
                               "--benchmark", str(bench), "--out", str(out),
                               f"change={change}", f"parent={parent}"]) == 0
    summary = json.loads(out.read_text())
    assert summary["pr"] == 99 and summary["parent_commit"] == "abc1234"
    assert summary["run_order"] == [["change", "coalescent", 7],
                                    ["parent", "coalescent", 7]]
    assert summary["environment"] == {"seconds": 36.0, "trace": 0, "nproc": 2,
                                      "python": "3.11.7"}
    assert summary["source_fingerprints"] == {"parent": ["fp-parent"],
                                              "change": ["fp-change"]}
    w = summary["workloads"]["coalescent"]
    assert w["seeds"] == [7]
    assert w["first_side_per_pair"] == ["change_first"]
    assert w["digest_equal_in_every_pair"] is True
    assert w["failed"] == {"parent": 0, "change": 1}
    assert w["correct"] == {"parent": True, "change": False}
    rate = w["metrics"]["chunks_per_s"]
    assert rate["parent"] == {"median": 40.0, "q1": 40.0, "q3": 40.0,
                              "runs": [40.0]}
    assert (rate["change_wins"], rate["change_losses"]) == (1, 0)
    assert rate["median_rel_change"] == 0.1
    # lower is better for latency: a longer chunk is a loss
    p50 = w["metrics"]["chunk_p50_ms"]
    assert (p50["change_wins"], p50["change_losses"]) == (0, 1)
    assert p50["bound"] == 0.15


def test_quartiles_are_inclusive_and_digests_compared():
    runs = []
    for seed, (p, c) in enumerate([(10.0, 11.0), (20.0, 19.0), (30.0, 33.0),
                                   (40.0, 40.0), (50.0, 55.0)]):
        for side, value in (("parent", p), ("change", c)):
            env = {"workload": "w", "seed": seed, "trace": 0,
                   "source_fingerprint": side, "problems": [],
                   "digest": "x" if (seed, side) != (3, "change") else "y"}
            runs.append((side, env, {"correct": True, "attempted": 1,
                                     "failed": 0, "metrics": {
                                         "chunks_per_s": {"value": value},
                                         "chunk_p50_ms": {"value": value}}}))
    w = bench_summary.summarize(runs, BENCHMARK, 1)["workloads"]["w"]
    rate = w["metrics"]["chunks_per_s"]
    assert (rate["parent"]["q1"], rate["parent"]["median"],
            rate["parent"]["q3"]) == (20.0, 30.0, 40.0)
    assert (rate["change_wins"], rate["change_losses"]) == (3, 1)
    assert w["digest_equal_in_every_pair"] is False


def test_unpaired_run_is_an_error(tmp_path, capsys):
    parent = _result(tmp_path / "parent.json", 7, "fp", 40.0, 25.0)
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    assert bench_summary.main(["--pr", "1", "--benchmark", str(bench),
                               "--out", str(tmp_path / "x.json"),
                               f"parent={parent}"]) == 2
    assert capsys.readouterr().err.startswith("error: runs without a partner")
    assert not (tmp_path / "x.json").exists()
