import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import bench_record  # noqa: E402


def _run(correct=True, failed=0, **values):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


METRICS = [{"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25}]


def test_median_min_and_max_of_each_metric():
    runs = [_run(op_p50_s=0.4, ops_per_s=2.0), _run(op_p50_s=0.3, ops_per_s=3.5),
            _run(op_p50_s=0.5, ops_per_s=2.5)]
    summary = bench_record.summarize(runs, METRICS)
    assert summary["runs"] == 3 and summary["all_correct"]
    assert summary["failed"] == [0, 0, 0] and summary["attempted"] == [10, 10, 10]
    assert summary["metrics"]["op_p50_s"] == {
        "median": 0.4, "min": 0.3, "max": 0.5, "unit": "s", "better": "lower",
        "values": [0.4, 0.3, 0.5]}
    assert summary["metrics"]["ops_per_s"]["median"] == 2.5
    assert summary["metrics"]["ops_per_s"]["better"] == "higher"
    json.dumps(summary, allow_nan=False)


def test_even_run_count_takes_the_middle_mean_and_flags_failures():
    runs = [_run(op_p50_s=1.0, ops_per_s=1.0), _run(op_p50_s=2.0, ops_per_s=1.0),
            _run(False, 1, op_p50_s=4.0, ops_per_s=1.0),
            _run(op_p50_s=3.0, ops_per_s=1.0)]
    summary = bench_record.summarize(runs, METRICS)
    assert summary["metrics"]["op_p50_s"]["median"] == 2.5
    assert not summary["all_correct"]
    assert summary["failed"] == [0, 0, 1, 0]


def test_every_declared_end_to_end_metric_is_summarized():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    runs = [_run(**{m["name"]: float(i) for m in declared}) for i in range(3)]
    summary = bench_record.summarize(runs, declared)
    assert sorted(summary["metrics"]) == sorted(m["name"] for m in declared)


def test_source_lines_counts_like_wc(tmp_path):
    package = tmp_path / "src" / "mfctrl"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("")
    (package / "c.py").write_text("no final newline\nz = 3")
    (package / "data.json").write_text("{}\n")
    (package / "fixtures").mkdir()
    (package / "fixtures" / "d.py").write_text("w = 4\n")
    assert bench_record.source_lines(str(tmp_path)) == {
        "files": {"a.py": 2, "b.py": 0, "c.py": 1}, "total": 3}


def test_cold_start_takes_the_spread_of_the_wall_times():
    timings = [{"wall_s": w, "exit_code": code, "summary": ""}
               for w, code in [(0.4, 0), (0.3, 0), (0.9, 0), (0.35, 2), (0.5, 0)]]
    assert bench_record.summarize_cold(timings) == {
        "runs": 5, "exit_codes": [0, 0, 0, 2, 0],
        "wall_s": {"median": 0.4, "min": 0.3, "max": 0.9,
                   "values": [0.4, 0.3, 0.9, 0.35, 0.5]}}


def test_cold_start_runs_each_command_in_fresh_processes():
    result = bench_record.cold_start(ROOT, 1, log=lambda msg: None)
    assert sorted(result) == ["riccati lq_mean_variance.json", "riccati lq_multivariate.json",
                              "solve-finite finite_mean_reverting.json"]
    for entry in result.values():
        assert entry["runs"] == 1 and entry["exit_codes"] == [0]
        assert 0 < entry["wall_s"]["min"] <= entry["wall_s"]["median"] <= entry["wall_s"]["max"]


@pytest.mark.parametrize("key", ["long_horizon", "long_horizon_fresh", "long_horizon_moving"])
def test_long_horizon_times_in_process_solves(key):
    assert sorted(bench_record.LONG_SCENARIOS) == ["long_horizon", "long_horizon_fresh",
                                                   "long_horizon_moving"]
    result = bench_record.long_horizon(ROOT, 3, 2, log=lambda msg: None, key=key)
    assert result["horizon"] == 3 and result["runs"] == 2
    wall = result["wall_s"]
    assert len(wall["values"]) == 2
    assert 0 < wall["min"] <= wall["median"] <= wall["max"]


def _law_paths(horizon):
    from mfctrl import dpp
    from mfctrl.fixtures import load_fixture
    from mfctrl.measure import DiscreteMeasure
    from mfctrl.model import finite_model_from_config

    paths = {}
    for key, (fixture, replaced) in bench_record.LONG_SCENARIOS.items():
        scenario = load_fixture(fixture)
        scenario["model"] |= replaced(horizon) | {"horizon": horizon}
        paths[key] = dpp.solve(finite_model_from_config(scenario["model"]),
                               DiscreteMeasure.from_json(scenario["initial_law"])
                               ).optimal_law_path
    return paths


def test_the_moving_long_horizon_law_changes_at_every_stage():
    changes = {key: [not np.array_equal(a, b) for a, b in zip(path[1:], path[2:])]
               for key, path in _law_paths(200).items()}
    assert not any(changes["long_horizon"])
    assert all(changes["long_horizon_moving"]) and all(changes["long_horizon_fresh"])


def test_the_fresh_long_horizon_law_never_returns():
    # a cache over the laws of all earlier stages finds none of the fresh table's:
    # every stage's law has its own rounded key, where the moving law repeats keys
    from conftest import node_key

    keys = {key: [node_key(w) for w in path] for key, path in _law_paths(200).items()}
    assert len(set(keys["long_horizon_fresh"])) == 201
    assert len(set(keys["long_horizon_moving"])) < 201
