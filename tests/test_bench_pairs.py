import json
import os
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import bench_pairs  # noqa: E402


def test_quartiles_of_one_and_of_several_values():
    assert bench_pairs.quartiles([2.0]) == [2.0, 2.0, 2.0]
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == [2.0, 3.0, 4.0]


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    parent, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0]
    lower = bench_pairs.compare(parent, change, "lower")
    assert (lower["wins"], lower["losses"], lower["pairs"]) == (2, 1, 4)
    higher = bench_pairs.compare(parent, change, "higher")
    assert (higher["wins"], higher["losses"]) == (1, 2)
    assert lower["median_paired_diff"] == higher["median_paired_diff"] == -0.25
    assert lower["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "values": parent}
    assert not lower["gain"] and not higher["gain"]


def test_a_gain_needs_ten_pairs_nine_tenths_won_and_a_lead_beyond_the_parent_spread():
    parent = [10.0 + 0.1 * i for i in range(10)]   # interquartile range 0.45
    assert bench_pairs.compare(parent, [p - 1.0 for p in parent], "lower")["gain"]
    assert not bench_pairs.compare(parent, [p - 0.2 for p in parent], "lower")["gain"]
    eight = [p - 1.0 for p in parent[:8]] + parent[8:]
    assert not bench_pairs.compare(parent, eight, "lower")["gain"]
    assert not bench_pairs.compare(parent, [p - 1.0 for p in parent], "higher")["gain"]
    assert not bench_pairs.compare(parent[:9], [p - 1.0 for p in parent[:9]], "lower")["gain"]


def _clone(tmp_path):
    """A clone of the repository, to which the tool adds its worktrees."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        pytest.skip("needs the git history of the repository")
    clone = tmp_path / "repo"
    subprocess.run(["git", "clone", "--quiet", ROOT, str(clone)], check=True)
    return clone


def _worktrees(clone):
    return subprocess.run(["git", "worktree", "list"], cwd=clone, capture_output=True,
                          text=True, check=True).stdout.strip().splitlines()


def _argv(seconds):
    return [sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"), "HEAD", "HEAD",
            "--workload", "dpp-sweep", "--pairs", "1", "--seed", "1", "--seconds", seconds]


def test_one_pair_of_the_same_commit(tmp_path):
    clone = _clone(tmp_path)
    proc = subprocess.run(_argv("0.01"), cwd=clone, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    path = proc.stdout.strip().splitlines()[-1]
    with open(path) as fh:
        payload = json.load(fh)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=clone, capture_output=True,
                          text=True, check=True).stdout.strip()
    assert os.path.basename(path) == f"PAIRS_{head[:7]}.json"
    assert payload["parent"] == payload["change"] == head
    entry = payload["entries"]["dpp-sweep seed 1"]
    assert entry["pairs"] == 1 and entry["seconds"] == 0.01
    assert [run["first"] for run in entry["runs"]["parent"]] == [True]
    assert [run["first"] for run in entry["runs"]["change"]] == [False]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert sorted(entry["metrics"]) == sorted(names)
    for summary in entry["metrics"].values():
        assert summary["wins"] + summary["losses"] <= 1 and not summary["gain"]
    assert len(_worktrees(clone)) == 1


def test_big_tree_pairs_of_two_commits(tmp_path):
    clone = _clone(tmp_path)
    commits = subprocess.run(["git", "rev-parse", "HEAD~1", "HEAD"], cwd=clone,
                             capture_output=True, text=True, check=True).stdout.split()
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"),
                           "HEAD~1", "HEAD", "--scenario", "big_tree", "--horizon", "2",
                           "--pairs", "2"],
                          cwd=clone, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    path = proc.stdout.strip().splitlines()[-1]
    assert os.path.basename(path) == f"PAIRS_{commits[1][:7]}.json"
    with open(path) as fh:
        payload = json.load(fh)
    assert [payload["parent"], payload["change"]] == commits
    entry = payload["entries"]["big_tree horizon 2"]
    assert (entry["scenario"], entry["horizon"], entry["pairs"]) == ("big_tree", 2, 2)
    assert [run["first"] for run in entry["runs"]["parent"]] == [True, False]
    assert [run["first"] for run in entry["runs"]["change"]] == [False, True]
    for run in entry["runs"]["parent"] + entry["runs"]["change"]:
        assert run["nodes_per_stage"] == [1, 16, 256]
        assert run["wall_s"] > 0 and run["peak_rss_mb"] > 0
    assert sorted(entry["metrics"]) == ["peak_rss_mb", "wall_s"]
    for summary in entry["metrics"].values():
        assert summary["pairs"] == 2 and summary["better"] == "lower" and not summary["gain"]
    assert len(_worktrees(clone)) == 1


def test_long_horizon_pairs_of_two_commits(tmp_path):
    clone = _clone(tmp_path)
    commits = subprocess.run(["git", "rev-parse", "HEAD~1", "HEAD"], cwd=clone,
                             capture_output=True, text=True, check=True).stdout.split()
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"),
                           "HEAD~1", "HEAD", "--scenario", "long_horizon", "--horizon", "20",
                           "--pairs", "2"],
                          cwd=clone, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    path = proc.stdout.strip().splitlines()[-1]
    assert os.path.basename(path) == f"PAIRS_{commits[1][:7]}.json"
    with open(path) as fh:
        payload = json.load(fh)
    assert [payload["parent"], payload["change"]] == commits
    entry = payload["entries"]["long_horizon horizon 20"]
    assert (entry["scenario"], entry["horizon"], entry["pairs"]) == ("long_horizon", 20, 2)
    assert [run["first"] for run in entry["runs"]["parent"]] == [True, False]
    assert [run["first"] for run in entry["runs"]["change"]] == [False, True]
    for run in entry["runs"]["parent"] + entry["runs"]["change"]:
        assert sorted(run) == ["first", "wall_s"] and run["wall_s"] > 0
    assert sorted(entry["metrics"]) == ["wall_s"]
    summary = entry["metrics"]["wall_s"]
    assert summary["pairs"] == 2 and summary["better"] == "lower" and not summary["gain"]
    assert len(_worktrees(clone)) == 1


def test_a_scenario_run_defaults_to_its_own_horizon(monkeypatch):
    calls = []

    def pairs(root, parent, change, scenario, n, horizon, log):
        calls.append((scenario, horizon))
        raise SystemExit(0)

    monkeypatch.setattr(bench_pairs, "run_scenario_pairs", pairs)
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda signum, handler: None)
    monkeypatch.chdir(ROOT)
    for scenario in ("big_tree", "long_horizon", "long_horizon_moving", "long_horizon_fresh"):
        with pytest.raises(SystemExit):
            bench_pairs.main(["HEAD", "HEAD", "--scenario", scenario])
    assert calls == [("big_tree", bench_pairs.bench_record.BIG_TREE_HORIZON)] + [
        (key, bench_pairs.bench_record.LONG_HORIZON)
        for key in ("long_horizon", "long_horizon_moving", "long_horizon_fresh")]


def test_a_workload_run_needs_a_seed(capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(["HEAD", "HEAD", "--workload", "dpp-sweep"])
    assert "--workload needs --seed" in capsys.readouterr().err


def test_a_terminated_run_removes_its_worktrees(tmp_path):
    clone = _clone(tmp_path)
    proc = subprocess.Popen(_argv("600"), cwd=clone, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while len(_worktrees(clone)) < 3 and time.monotonic() < deadline:
            time.sleep(0.2)
        assert len(_worktrees(clone)) == 3
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=120) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert len(_worktrees(clone)) == 1
    # no PAIRS_*.json is written or changed: the clone is as it was checked out
    assert subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                          cwd=clone, capture_output=True, text=True,
                          check=True).stdout == ""


def _commit(clone, path, text, message):
    """Append ``text`` to ``path`` in ``clone`` and commit it; return the commit."""
    with open(os.path.join(clone, path), "a") as fh:
        fh.write(text)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["commit", "--quiet", "-am", message], cwd=clone, check=True)
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=clone, capture_output=True,
                          text=True, check=True).stdout.strip()


def _outputs(clone, parent, change):
    return subprocess.run([sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"),
                           parent, change, "--outputs", "--workload", "dpp-sweep",
                           "--seed", "1"],
                          cwd=clone, capture_output=True, text=True, timeout=600)


def test_outputs_of_two_commits(tmp_path):
    # a commit that changes no output, then one that writes a line to stderr
    clone = _clone(tmp_path)
    quiet = _commit(clone, "README.md", "\n", "Touch the README")
    loud = _commit(clone, os.path.join("src", "mfctrl", "__init__.py"),
                   "\nimport sys\nsys.stderr.write('loud\\n')\n", "Write to stderr")
    same = _outputs(clone, "HEAD~2", quiet)
    assert same.returncode == 0, same.stderr
    assert same.stdout == "dpp-sweep seed 1: 0 of 10 ops differ\n"
    differ = _outputs(clone, quiet, loud)
    assert differ.returncode == 1, differ.stderr
    lines = differ.stdout.splitlines()
    assert lines[-1] == "dpp-sweep seed 1: 10 of 10 ops differ"
    assert len(lines) == 11 and all(line.endswith(": stderr differ") for line in lines[:-1])
    assert len(_worktrees(clone)) == 1
    assert subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                          cwd=clone, capture_output=True, text=True,
                          check=True).stdout == ""


def test_outputs_need_a_workload(capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(["HEAD", "HEAD", "--outputs", "--scenario", "big_tree"])
    assert "--outputs needs --workload" in capsys.readouterr().err
