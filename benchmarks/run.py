#!/usr/bin/env python3
"""Closed-loop benchmark of the ``mfctrl`` command line.

Run from the repository root::

    python3 benchmarks/run.py --workload dpp-tree --seed 1 --seconds 15 --trace 0

One client drives ``mfctrl.cli.main`` in this process, one operation at a
time, in whole rounds over the workload's seeded scenarios until the
operations have been busy for ``--seconds``.  Every output is checked against
the references in ``reference.py`` outside the timed phase.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``tracing.py`` with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
THREAD_VARS = ("MFCTRL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads():
    """Cap the BLAS pools at the CPUs this process may run on (before numpy loads)."""
    n = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = n


def timed_setup(workload, seed, run_dir):
    """Import the ``mfctrl`` CLI and write the workload's scenarios.

    Returns the elapsed seconds, the CLI module and the operations.
    """
    start = time.perf_counter()
    import mfctrl.cli
    import workloads
    ops = workloads.build(workload, seed, run_dir)
    return time.perf_counter() - start, mfctrl.cli, ops


def setup_sample(workload, seed, run_dir, root):
    """Seconds of one set-up in a fresh interpreter."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import run; "
            "print(run.timed_setup(sys.argv[3], int(sys.argv[4]), sys.argv[5])[0])")
    proc = subprocess.run(
        [sys.executable, "-c", code, HERE, os.path.join(root, "src"), workload, str(seed), run_dir],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def in_child(fn, *args):
    """Return ``fn(*args)`` computed in a forked child process."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            try:
                result = (True, fn(*args))
            except BaseException as exc:
                result = (False, repr(exc))
            with os.fdopen(write_end, "wb") as fh:
                pickle.dump(result, fh)
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"the child computing {fn.__name__} died")
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"{fn.__name__} failed in the child: {value}")
    return value


def exact_cost(op, riccati_out, rng):
    """Problems with the Riccati policy in ``riccati_out`` and the exact cost
    of the policy that the simulation ``op`` uses."""
    import reference
    if riccati_out is None:
        ref = reference.FiniteReference(op.scenario)
        return [], ref.rollout([op.extra["policy_idx"]] * ref.n)[0]
    payload = reference.load_strict(riccati_out)
    problems = reference.check_lq(op.scenario, payload, rng)
    policy = reference.affine_policy(payload["policy"])
    return problems, reference.lq_exact_cost(op.scenario, policy)[0]


def verify(op, exact, rng):
    """Problems with the output of ``op`` against its reference."""
    import reference
    try:
        payload = reference.load_strict(op.out)
        if op.kind == "finite":
            return reference.check_finite(op.scenario, payload)
        if op.kind == "meanvariance":
            return reference.check_meanvariance(op.scenario["model"], payload)
        if op.kind == "lq":
            return reference.check_lq(op.scenario, payload, rng)
        return reference.check_simulate(exact, payload,
                                        int(op.argv[op.argv.index("--n-particles") + 1]),
                                        op.extra["seed"], op.extra["closure"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


class Runner:
    """Runs operations, checks their outputs, and keeps the counts."""

    def __init__(self, cli, ops, seed):
        import numpy as np
        self.cli = cli
        self.ops = ops
        self.rng = np.random.default_rng([seed, 7])
        self.first_hash = {}
        self.runs = {op.label: 0 for op in ops}
        self.attempted = self.failed = self.wrong = 0
        self.problems = []
        self.exact = {}

    def call(self, argv):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    def prepare(self):
        """Reference figures that need a program run: the exact cost of the
        policy each simulation uses, the Riccati one checked first."""
        for op in self.ops:
            if op.kind != "simulate":
                continue
            out = None
            if op.extra.get("policy_idx") is None:
                out = op.out + ".riccati.json"
                if self.call(["riccati", op.argv[1], "--out", out]) != 0:
                    raise RuntimeError(f"riccati failed on the {op.label} scenario")
            problems, self.exact[op.label] = in_child(exact_cost, op, out, self.rng.spawn(1)[0])
            if problems:
                raise RuntimeError(f"{op.label}: Riccati policy fails its check: {problems}")

    def check(self, op):
        """Problems with the output of ``op``; empty when it is correct.

        The first output of an operation is checked in a child process, so
        that the memory the check takes stays out of ``peak_rss_mb``; later
        outputs must be byte-identical to it.
        """
        with open(op.out, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        if op.label in self.first_hash:
            if digest != self.first_hash[op.label]:
                return ["output differs from an earlier run of the same operation"]
            return []
        problems = in_child(verify, op, self.exact.get(op.label), self.rng.spawn(1)[0])
        if not problems:
            self.first_hash[op.label] = digest
        return problems

    def run_op(self, op):
        """Run one operation; returns its latency.  Checking is not timed."""
        start = time.perf_counter()
        code = self.call(op.argv)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        self.runs[op.label] += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"{op.label}: exit code {code}")
            return elapsed
        problems = self.check(op)
        if problems:
            self.failed += 1
            self.wrong += 1
            self.problems.extend(f"{op.label}: {p}" for p in problems)
        return elapsed

    def rerun_singletons(self):
        """Simulations must reproduce bit for bit; rerun any that ran once."""
        for op in self.ops:
            if op.kind == "simulate" and self.runs[op.label] == 1 and op.label in self.first_hash:
                self.run_op(op)


def measure(runner, seconds):
    """Whole rounds until the operations have been busy for ``seconds``."""
    latencies, busy = [], 0.0
    while busy < seconds:
        gc.collect()
        for op in runner.ops:
            latencies.append(runner.run_op(op))
            busy += latencies[-1]
    return latencies, busy


def measure_traced(runner, seconds, tracer):
    """After one warm-up round, alternate untraced and traced rounds; returns
    the traced op count, their output bytes and the traced-to-untraced
    wall-time ratio."""
    for op in runner.ops:
        runner.run_op(op)
    plain = traced = 0.0
    n_traced = out_bytes = 0
    while plain + traced < seconds or traced == 0.0:
        gc.collect()
        for op in runner.ops:
            plain += runner.run_op(op)
        gc.collect()
        tracer.install()
        try:
            for op in runner.ops:
                tracer.op = n_traced
                traced += runner.run_op(op)
                n_traced += 1
                if os.path.exists(op.out):
                    out_bytes += os.path.getsize(op.out)
        finally:
            tracer.uninstall()
    return n_traced, out_bytes, traced / plain


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mfctrl", "__init__.py")):
        print("benchmark: run from the repository root (src/mfctrl not found)", file=sys.stderr)
        return 2
    cap_threads()
    sys.path[:0] = [HERE, os.path.join(root, "src")]
    out_dir = os.path.join(HERE, "out")
    run_dir = os.path.join(out_dir, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        elapsed, cli, ops = timed_setup(args.workload, args.seed, os.path.join(run_dir, "main"))
        setups = [elapsed] + [setup_sample(args.workload, args.seed,
                                           os.path.join(run_dir, f"probe{i}"), root)
                              for i in range(SETUP_SAMPLES - 1)]
        runner = Runner(cli, ops, args.seed)
        runner.prepare()
        if args.trace:
            from tracing import Tracer
            import mfctrl
            tracer = Tracer(mfctrl)
            n_traced, out_bytes, overhead = measure_traced(runner, args.seconds, tracer)
            runner.rerun_singletons()
            metrics = tracer.metrics(n_traced, out_bytes, overhead)
            tracer.write(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl"))
        else:
            latencies, busy = measure(runner, args.seconds)
            runner.rerun_singletons()
            completed = len(latencies) - runner.failed
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "ops_per_s": {"value": completed / busy, "unit": "ops/s"},
                "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "unit": "MB"},
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {"correct": runner.wrong == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    for line in runner.problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
