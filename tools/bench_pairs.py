"""Compare two commits on one benchmark workload in alternating pairs of runs.

Run from the repository root::

    python3 tools/bench_pairs.py PARENT CHANGE --workload riccati-long --pairs 10 --seed 1

Both revisions are checked out with ``git worktree`` into a temporary
directory, and ``benchmarks/run.py --trace 0`` runs in each checkout for
``--seconds`` (default 15), once per side per pair; the parent runs first in
even pairs and the change in odd ones.  Every run must read ``correct:
true``.  ``PAIRS_<change>.json`` at the root gets one entry per workload and
seed: each run's end-to-end metrics and, per metric of ``BENCHMARK.json``,
each side's median and quartiles, the pairs the change wins (ties count for
neither), the median paired difference (change minus parent) and whether a
gain is shown: at least ``MIN_PAIRS`` pairs, nine tenths of them won, and
the medians apart by more than the parent's interquartile range.  Runs are
sequential; run nothing else meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import tempfile

import bench_record
from bench_record import _git

SECONDS = 15   # benchmark run length, as BENCHMARK.json's run_seconds
MIN_PAIRS = 10   # the fewest pairs that can show a gain


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


def run_pairs(root, parent, change, workload, pairs, seed, seconds, log=print):
    """The :func:`compare` summary of every end-to-end metric over ``pairs``
    alternating runs of ``workload`` at the commits ``parent`` and ``change``,
    with each run's metrics."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    commits = {"parent": _git(root, "rev-parse", "--verify", parent + "^{commit}"),
               "change": _git(root, "rev-parse", "--verify", change + "^{commit}")}
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: os.path.join(tmp, side) for side in commits}
        try:
            for side, commit in commits.items():
                _git(root, "worktree", "add", "--detach", trees[side], commit)
            for i in range(pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    log(f"{workload} seed {seed}: pair {i + 1}/{pairs}, {side}")
                    result = bench_record._benchmark(trees[side], workload, seed, seconds, 0)
                    if not result["correct"]:
                        raise RuntimeError(f"{side} run {i + 1} of {workload} is not correct")
                    runs[side].append({name: m["value"] for name, m in result["metrics"].items()}
                                      | {"first": side == order[0]})
        finally:
            for tree in trees.values():
                if os.path.isdir(tree):
                    _git(root, "worktree", "remove", "--force", tree)
            _git(root, "worktree", "prune")
    return {"parent": commits["parent"], "change": commits["change"], "workload": workload,
            "seed": seed, "seconds": seconds, "pairs": pairs, "runs": runs,
            "metrics": {m["name"]: compare([r[m["name"]] for r in runs["parent"]],
                                           [r[m["name"]] for r in runs["change"]], m["better"])
                        for m in metrics}}


def record(path, entry, machine):
    """Add ``entry`` to the ``PAIRS_*.json`` file ``path`` under its workload and
    seed, replacing an earlier entry of the same pair of commits."""
    payload = {"parent": entry["parent"], "change": entry["change"], "entries": {}}
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
        if (previous["parent"], previous["change"]) == (entry["parent"], entry["change"]):
            payload = previous
    payload["machine"] = machine
    payload["entries"][f"{entry['workload']} seed {entry['seed']}"] = entry
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SECONDS)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        sys.exit("run from the repository root (BENCHMARK.json not found)")
    if args.pairs < 1:
        sys.exit("--pairs must be at least 1")
    # a terminated run still removes its worktrees and stops its benchmark
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    entry = run_pairs(root, args.parent, args.change, args.workload, args.pairs, args.seed,
                      args.seconds, log=lambda msg: print(msg, file=sys.stderr))
    machine = {key: value for key, value in bench_record.machine(root).items()
               if key not in ("commit", "dirty")}
    path = os.path.join(root, f"PAIRS_{entry['change'][:7]}.json")
    record(path, entry, machine)
    for name, summary in entry["metrics"].items():
        print(f"{name:12s} parent {summary['parent']['median']:.6g} "
              f"change {summary['change']['median']:.6g} "
              f"wins {summary['wins']}/{summary['pairs']} gain {summary['gain']}")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
