"""Record one point of the benchmark trajectory as ``BENCH_<short-sha>.json``.

Run from the repository root::

    python3 tools/bench_record.py

For every workload of ``BENCHMARK.json`` it runs ``benchmarks/run.py`` ``RUNS``
times at ``--trace 0`` and once at ``--trace 1``, at seed ``SEED`` and for
``run_seconds`` each. It also times ``mfctrl verify --quick`` and the Tier-1
suite, the end-to-end workloads the benchmark does not cover, the cold
start: ``COLD_RUNS`` fresh processes of each command of ``COLD_START``, and
the long horizon: ``LONG_RUNS`` calls of ``cli.main solve-finite`` on each
scenario of ``LONG_SCENARIOS`` at ``LONG_HORIZON`` stages, in one process. The file
holds, per workload, the median, min and max of each end-to-end metric with
every run's value, the traced run's per-layer metrics, those two wall times,
the same spread of the cold-start and long-horizon wall times, the line
counts of ``src/mfctrl/*.py`` and the machine: CPUs, Python, numpy and the
commit. Runs are sequential; run nothing else meanwhile.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

RUNS = 3   # untraced runs per workload
SEED = 1
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
VERIFY = [sys.executable, "-c", "import sys; from mfctrl.cli import main; "
                                "sys.exit(main(['verify', '--quick']))"]
COLD_RUNS = 5   # fresh processes per cold-start command
COLD_START = {f"{command} {name}": [sys.executable, "-m", "mfctrl.cli", command,
                                    os.path.join("src", "mfctrl", "fixtures", name)]
              for command, name in [("solve-finite", "finite_mean_reverting.json"),
                                    ("riccati", "lq_multivariate.json"),
                                    ("riccati", "lq_mean_variance.json")]}
LONG_RUNS = 3   # in-process calls of the long-horizon solve
LONG_HORIZON = 10**4
FRESH_SEED = 7   # draws the stage blocks of long_horizon_fresh


def fresh_table(horizon):
    """Model fields of one action on four states and a ``table`` kernel whose
    ``horizon`` stage blocks are drawn from ``FRESH_SEED``."""
    import numpy as np
    rows = np.random.default_rng(FRESH_SEED).dirichlet(np.ones(4), size=(horizon, 4, 1))
    return {"states": [[-1.0], [0.0], [1.0], [2.0]], "actions": [[0.0]],
            "kernel": {"tag": "table", "params": {"rows": rows.tolist()}}}


# key -> (fixture, function of the horizon giving the model fields replaced).
# On finite_zero the law repeats from stage to stage; with one action the
# mean-reverting law differs from the one before at every stage but settles
# near a fixed point; the fresh table's law never returns
LONG_SCENARIOS = {"long_horizon": ("finite_zero.json", lambda horizon: {}),
                  "long_horizon_moving": ("finite_mean_reverting.json",
                                          lambda horizon: {"actions": [[0.0]]}),
                  "long_horizon_fresh": ("finite_mean_reverting.json", fresh_table)}
# times cli.main solve-finite on the scenario argv[1], writing argv[2], argv[3] times
_LONG = """import json, sys, time
from mfctrl.cli import main
times = []
for _ in range(int(sys.argv[3])):
    start = time.perf_counter()
    if main(["solve-finite", sys.argv[1], "--out", sys.argv[2]]) != 0:
        sys.exit("solve-finite failed")
    times.append(time.perf_counter() - start)
print(json.dumps(times))
"""


def spread(values):
    """Median, min and max of ``values``, with the values themselves."""
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "values": values}


def summarize(runs, metrics):
    """Median, min and max of each end-to-end metric over ``runs``, the parsed
    last lines of ``benchmarks/run.py --trace 0``; ``metrics`` are the
    ``end_to_end`` entries of ``BENCHMARK.json``."""
    summary = {"runs": len(runs),
               "all_correct": all(run["correct"] for run in runs),
               "failed": [run["failed"] for run in runs],
               "attempted": [run["attempted"] for run in runs],
               "metrics": {}}
    for metric in metrics:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        summary["metrics"][metric["name"]] = dict(
            spread(values), unit=metric["unit"], better=metric["better"])
    return summary


def summarize_cold(timings):
    """The spread of the wall times of ``timings``, results of :func:`_timed`
    for fresh processes of one command, with their exit codes."""
    return {"runs": len(timings), "exit_codes": [t["exit_code"] for t in timings],
            "wall_s": spread([t["wall_s"] for t in timings])}


def source_lines(root):
    """Line count of each ``src/mfctrl/*.py`` file, by file name, and their total,
    as ``wc -l`` counts them."""
    files = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "mfctrl", "*.py"))):
        with open(path, "rb") as fh:
            files[os.path.basename(path)] = fh.read().count(b"\n")
    return {"files": files, "total": sum(files.values())}


def _git(root, *args):
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine(root):
    """The machine and the commit a record was made on."""
    import numpy
    return {"cpus": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "commit": _git(root, "rev-parse", "HEAD"),
            "dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no"))}


def _benchmark(root, workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed(root, argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": elapsed, "exit_code": proc.returncode, "summary": lines[-1] if lines else ""}


def record(root, runs, seed, log=print):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    result = {"machine": machine(root), "seed": seed, "seconds": seconds,
              "src_lines": source_lines(root), "workloads": {}}
    for entry in bench["workloads"]:
        name = entry["name"]
        plain = []
        for i in range(runs):
            log(f"{name}: run {i + 1}/{runs}")
            plain.append(_benchmark(root, name, seed, seconds, 0))
        log(f"{name}: traced run")
        traced = _benchmark(root, name, seed, seconds, 1)
        result["workloads"][name] = dict(
            summarize(plain, bench["end_to_end"]),
            traced={"correct": traced["correct"], "failed": traced["failed"],
                    "metrics": {k: v["value"] for k, v in traced["metrics"].items()}})
    log("mfctrl verify --quick")
    result["verify_quick"] = _timed(root, VERIFY)
    log("Tier-1 suite")
    result["tier1"] = _timed(root, TIER1)
    result["cold_start"] = cold_start(root, COLD_RUNS, log)
    for key in LONG_SCENARIOS:
        result[key] = long_horizon(root, LONG_HORIZON, LONG_RUNS, log, key)
    return result


def cold_start(root, runs, log=print):
    """:func:`summarize_cold` of ``runs`` fresh processes of each ``COLD_START``
    command, by its key; outputs go to a temporary file."""
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        for key, argv in COLD_START.items():
            log(f"cold start: {key}")
            result[key] = summarize_cold([_timed(root, argv + ["--out", out])
                                          for _ in range(runs)])
    return result


def long_horizon(root, horizon, runs, log=print, key="long_horizon"):
    """The spread of the wall times of ``runs`` calls of ``cli.main
    solve-finite`` on the scenario ``LONG_SCENARIOS[key]`` set to ``horizon``
    stages, made one after another in one fresh process."""
    fixture, replaced = LONG_SCENARIOS[key]
    log(f"{key}: {fixture} at {horizon} stages")
    with open(os.path.join(root, "src", "mfctrl", "fixtures", fixture)) as fh:
        scenario = json.load(fh)
    scenario["model"] |= replaced(horizon) | {"horizon": horizon}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        timed = _timed(root, [sys.executable, "-c", _LONG, path,
                              os.path.join(tmp, "out.json"), str(runs)])
    if timed["exit_code"] != 0:
        raise RuntimeError(f"long-horizon solve failed with exit code {timed['exit_code']}")
    return {"horizon": horizon, "runs": runs, "wall_s": spread(json.loads(timed["summary"]))}


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        sys.exit("run from the repository root (BENCHMARK.json not found)")
    result = record(root, RUNS, SEED, log=lambda msg: print(msg, file=sys.stderr))
    path = os.path.join(root, f"BENCH_{result['machine']['commit'][:7]}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
