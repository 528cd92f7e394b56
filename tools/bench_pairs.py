"""Compare two commits on one benchmark workload in alternating pairs of runs.

Run from the repository root::

    python3 tools/bench_pairs.py PARENT CHANGE --workload riccati-long --pairs 10 --seed 1
    python3 tools/bench_pairs.py PARENT CHANGE --scenario big_tree --pairs 10
    python3 tools/bench_pairs.py PARENT CHANGE --scenario long_horizon --pairs 10
    python3 tools/bench_pairs.py PARENT CHANGE --outputs --workload dpp-sweep --seed 1

Both revisions are checked out with ``git worktree`` into a temporary
directory, and each run is made in each checkout, once per side per pair; the
parent runs first in even pairs and the change in odd ones.  A ``--workload``
run is ``benchmarks/run.py --trace 0`` for ``--seconds`` (default 15), and
must read ``correct: true``.  A ``--scenario`` run is the in-process
scenario of ``tools/bench_record.py`` of that name at ``--horizon`` stages,
``LONG_RUNS`` solves in one fresh process with the checkout's ``src`` on
``PYTHONPATH`` as an absolute path.  ``big_tree`` solves the ``dpp-tree``
scenario of seed ``bench_record.SEED``, by default at ``BIG_TREE_HORIZON``
stages; its metrics are the median wall time of its solves and the peak RSS
of its process.  ``long_horizon``, ``long_horizon_moving`` and
``long_horizon_fresh`` solve the ``LONG_SCENARIOS`` entry of that key, by
default at ``LONG_HORIZON`` stages; their metric is the median wall time.
``PAIRS_<change>.json`` at the root gets one entry per workload and seed, or
per scenario and horizon: each run's metrics and, per metric (those of
``BENCHMARK.json`` for a workload), each side's median and quartiles, the
pairs the change wins (ties count for neither), the median paired difference
(change minus parent) and whether a gain is shown: at least ``MIN_PAIRS``
pairs, nine tenths of them won, and the medians apart by more than the
parent's interquartile range.  Runs are sequential; run nothing else
meanwhile.

With ``--outputs`` nothing is timed or recorded: the ops of the workload at
``--seed``, from ``benchmarks/workloads.build`` of the repository root, are
written once into a temporary directory, and each op is run once by the
command line of each checkout (``python -m mfctrl.cli``).  The tool lists
every op whose exit code, standard output, standard error or output bytes
differ, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile

import bench_record
from bench_record import _git

SECONDS = 15   # benchmark run length, as BENCHMARK.json's run_seconds
MIN_PAIRS = 10   # the fewest pairs that can show a gain
# the metrics of each in-process scenario, with the direction that is better
SCENARIOS = {"big_tree": {"wall_s": "lower", "peak_rss_mb": "lower"}} | {
    key: {"wall_s": "lower"} for key in bench_record.LONG_SCENARIOS}


def quartiles(values):
    """First quartile, median and third quartile of ``values``."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(parent, change, better):
    """The summary of one metric: ``parent`` and ``change`` are its values,
    pair by pair, and ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1.0 if better == "higher" else -1.0
    sides = {}
    for side, values in (("parent", parent), ("change", change)):
        q1, median, q3 = quartiles(values)
        sides[side] = {"median": median, "q1": q1, "q3": q3, "values": values}
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    lead = sign * (sides["change"]["median"] - sides["parent"]["median"])
    spread = sides["parent"]["q3"] - sides["parent"]["q1"]
    return dict(sides, better=better, pairs=len(parent), wins=wins, losses=losses,
                median_paired_diff=statistics.median(c - p for p, c in zip(parent, change)),
                gain=len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent) and lead > spread)


@contextlib.contextmanager
def _worktrees(root, parent, change):
    """The commits ``parent`` and ``change`` resolved, and a worktree of each,
    by side; the worktrees are removed on exit."""
    commits = {"parent": _git(root, "rev-parse", "--verify", parent + "^{commit}"),
               "change": _git(root, "rev-parse", "--verify", change + "^{commit}")}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: os.path.join(tmp, side) for side in commits}
        try:
            for side, commit in commits.items():
                _git(root, "worktree", "add", "--detach", trees[side], commit)
            yield commits, trees
        finally:
            for tree in trees.values():
                if os.path.isdir(tree):
                    _git(root, "worktree", "remove", "--force", tree)
            _git(root, "worktree", "prune")


def _alternate(root, parent, change, pairs, run, label, log):
    """The commits ``parent`` and ``change`` resolved, and each side's results of
    ``run(tree)`` in a worktree of its commit, over ``pairs`` alternating pairs."""
    runs = {"parent": [], "change": []}
    with _worktrees(root, parent, change) as (commits, trees):
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                log(f"{label}: pair {i + 1}/{pairs}, {side}")
                runs[side].append(run(trees[side]) | {"first": side == order[0]})
    return commits, runs


def _summaries(runs, metrics):
    """The :func:`compare` summary of each metric of ``metrics``, a mapping of
    name to the direction that is better, over the runs of both sides."""
    return {name: compare([r[name] for r in runs["parent"]],
                          [r[name] for r in runs["change"]], better)
            for name, better in metrics.items()}


def run_pairs(root, parent, change, workload, pairs, seed, seconds, log=print):
    """The :func:`compare` summary of every end-to-end metric over ``pairs``
    alternating runs of ``workload`` at the commits ``parent`` and ``change``,
    with each run's metrics."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    def run(tree):
        result = bench_record._benchmark(tree, workload, seed, seconds, 0)
        if not result["correct"]:
            raise RuntimeError(f"a run of {workload} in {tree} is not correct")
        return {name: m["value"] for name, m in result["metrics"].items()}

    commits, runs = _alternate(root, parent, change, pairs, run, f"{workload} seed {seed}", log)
    return {"parent": commits["parent"], "change": commits["change"], "workload": workload,
            "seed": seed, "seconds": seconds, "pairs": pairs, "runs": runs,
            "metrics": _summaries(runs, metrics)}


def run_scenario_pairs(root, parent, change, scenario, pairs, horizon, log=print):
    """The :func:`compare` summary of each metric of ``SCENARIOS[scenario]`` over
    ``pairs`` alternating runs of that ``bench_record`` scenario at ``horizon``
    stages at the commits ``parent`` and ``change``, with each run's metrics
    (and, for ``big_tree``, its nodes per stage)."""
    def run(tree):
        if scenario != "big_tree":
            out = bench_record.long_horizon(tree, horizon, bench_record.LONG_RUNS,
                                            log=lambda msg: None, key=scenario)
            return {"wall_s": out["wall_s"]["median"]}
        out = bench_record.big_tree(tree, horizon, bench_record.LONG_RUNS, log=lambda msg: None)
        return {"wall_s": out["wall_s"]["median"], "peak_rss_mb": out["peak_rss_mb"],
                "nodes_per_stage": out["nodes_per_stage"]}

    commits, runs = _alternate(root, parent, change, pairs, run,
                               f"{scenario} horizon {horizon}", log)
    return {"parent": commits["parent"], "change": commits["change"], "scenario": scenario,
            "horizon": horizon, "solves": bench_record.LONG_RUNS, "pairs": pairs, "runs": runs,
            "metrics": _summaries(runs, SCENARIOS[scenario])}


def _run_op(tree, op):
    """The exit code, standard output, standard error and output bytes (``None``
    for no output file) of the op ``op`` run by the command line of ``tree``."""
    if os.path.exists(op.out):
        os.remove(op.out)
    proc = subprocess.run([sys.executable, "-m", "mfctrl.cli", *op.argv], cwd=tree,
                          env=bench_record._src_env(tree), capture_output=True)
    output = None
    if os.path.exists(op.out):
        with open(op.out, "rb") as fh:
            output = fh.read()
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "output": output}


def compare_outputs(root, parent, change, workload, seed, log=print):
    """The ops of ``workload`` at ``seed``, each run once at the commits ``parent``
    and ``change``: the label of each op, mapped to the fields of
    :func:`_run_op` that differ between the two (none when it is the same)."""
    sys.path.insert(0, os.path.join(root, "benchmarks"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    differ = {}
    with _worktrees(root, parent, change) as (commits, trees), \
            tempfile.TemporaryDirectory() as run_dir:
        for op in workloads.build(workload, seed, run_dir):
            results = {}
            for side, tree in trees.items():
                log(f"{workload} seed {seed}: {op.label}, {side}")
                results[side] = _run_op(tree, op)
            differ[op.label] = [field for field, value in results["parent"].items()
                                if results["change"][field] != value]
    return differ


def record(path, key, entry, machine):
    """Add ``entry`` to the ``PAIRS_*.json`` file ``path`` under ``key``,
    replacing an earlier entry of the same pair of commits."""
    payload = {"parent": entry["parent"], "change": entry["change"], "entries": {}}
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
        if (previous["parent"], previous["change"]) == (entry["parent"], entry["change"]):
            payload = previous
    payload["machine"] = machine
    payload["entries"][key] = entry
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--scenario", choices=sorted(SCENARIOS))
    parser.add_argument("--outputs", action="store_true",
                        help="compare each op's exit code and bytes out, once per side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, help="required with --workload")
    parser.add_argument("--seconds", type=float, default=SECONDS)
    parser.add_argument("--horizon", type=int,
                        help="stages of a --scenario run (default: LONG_HORIZON, or "
                             "BIG_TREE_HORIZON for big_tree)")
    args = parser.parse_args(argv)
    if args.workload and args.seed is None:
        parser.error("--workload needs --seed")
    if args.outputs and not args.workload:
        parser.error("--outputs needs --workload")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        sys.exit("run from the repository root (BENCHMARK.json not found)")
    if args.pairs < 1:
        sys.exit("--pairs must be at least 1")
    # a terminated run still removes its worktrees and stops its benchmark
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    def log(msg):
        print(msg, file=sys.stderr)

    if args.outputs:
        differ = compare_outputs(root, args.parent, args.change, args.workload, args.seed, log)
        for label, fields in differ.items():
            if fields:
                print(f"{label}: {', '.join(fields)} differ")
        bad = sum(map(bool, differ.values()))
        print(f"{args.workload} seed {args.seed}: {bad} of {len(differ)} ops differ")
        return 1 if bad else 0
    if args.scenario:
        if args.horizon is None:
            args.horizon = (bench_record.BIG_TREE_HORIZON if args.scenario == "big_tree"
                            else bench_record.LONG_HORIZON)
        entry = run_scenario_pairs(root, args.parent, args.change, args.scenario, args.pairs,
                                   args.horizon, log)
        key = f"{args.scenario} horizon {args.horizon}"
    else:
        entry = run_pairs(root, args.parent, args.change, args.workload, args.pairs, args.seed,
                          args.seconds, log)
        key = f"{args.workload} seed {args.seed}"
    machine = {name: value for name, value in bench_record.machine(root).items()
               if name not in ("commit", "dirty")}
    path = os.path.join(root, f"PAIRS_{entry['change'][:7]}.json")
    record(path, key, entry, machine)
    for name, summary in entry["metrics"].items():
        print(f"{name:12s} parent {summary['parent']['median']:.6g} "
              f"change {summary['change']['median']:.6g} "
              f"wins {summary['wins']}/{summary['pairs']} gain {summary['gain']}")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
