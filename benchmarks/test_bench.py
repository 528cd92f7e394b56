"""The benchmark counts a corrupted output as a failed operation.

Run from the repository root::

    python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import os
import pathlib
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import mfctrl.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class CorruptingRunner(run.Runner):
    """Runs the real CLI, then rewrites its output with ``corrupt``."""

    def __init__(self, ops, corrupt=None):
        super().__init__(mfctrl.cli, ops, seed=0)
        self.corrupt = corrupt
        self.measured = {tuple(op.argv) for op in ops}

    def call(self, argv):
        code = super().call(argv)
        if code == 0 and self.corrupt is not None and tuple(argv) in self.measured:
            path = argv[argv.index("--out") + 1]
            with open(path) as fh:
                payload = json.load(fh)
            self.corrupt(payload)
            with open(path, "w") as fh:
                json.dump(payload, fh)
        return code


def _finite_op(tmp_path):
    scenario = dict(workloads.sweep_scenarios(np.random.default_rng(5)))["meanrev3-quad"]
    return workloads.make_op(str(tmp_path), "meanrev3-quad", "finite", scenario, [])


def _mv_op(tmp_path):
    params = workloads.mean_variance_params(np.random.default_rng(6), 50)
    return workloads.make_op(str(tmp_path), "mv", "meanvariance",
                             {"kind": "meanvariance", "model": params}, [])


def _sim_op(tmp_path):
    blocks = workloads.random_lq(np.random.default_rng(7), 3, 2, 5)
    return workloads.make_op(str(tmp_path), "sim", "simulate", workloads.lq_json(blocks),
                             ["--n-particles", "20000", "--seed", "11", "--policy", "riccati",
                              "--closure", "oracle-law"],
                             stored=blocks, closure="oracle-law", seed=11)


def _shift_v0(p):
    p["v0"] += 1e-6


def _perturb_law_weight(p):
    w = p["law_trajectory"][-1]["weights"]
    w[0] += 1e-6
    w[-1] -= 1e-6


def _perturb_var_weight(p):
    p["solution"]["var_weight"][3][0][0] *= 1.0 + 1e-6


def _wrong_estimate(p):
    p["estimate"] += 10.0 * p["std_error"]


def _nan_std_error(p):
    p["std_error"] = float("nan")


@pytest.mark.parametrize("make_op, corrupt", [
    (_finite_op, _shift_v0),
    (_finite_op, _perturb_law_weight),
    (_mv_op, _perturb_var_weight),
    (_sim_op, _wrong_estimate),
    (_sim_op, _nan_std_error),
])
def test_corrupted_output_counts_as_failed(tmp_path, make_op, corrupt):
    op = make_op(tmp_path)
    clean = CorruptingRunner([op])
    clean.prepare()
    clean.run_op(op)
    assert (clean.attempted, clean.failed, clean.wrong) == (1, 0, 0), clean.problems

    bad = CorruptingRunner([op], corrupt)
    bad.prepare()
    bad.run_op(op)
    assert (bad.attempted, bad.failed, bad.wrong) == (1, 1, 1)


def test_output_that_changes_between_rounds_counts_as_failed(tmp_path):
    op = _finite_op(tmp_path)
    runner = CorruptingRunner([op])
    runner.run_op(op)
    runner.corrupt = _shift_v0
    runner.run_op(op)
    assert (runner.attempted, runner.failed, runner.wrong) == (2, 1, 1)


def test_nonzero_exit_counts_as_failed_but_not_wrong(tmp_path):
    op = _finite_op(tmp_path)
    op.argv[1] = str(tmp_path / "missing.json")
    runner = CorruptingRunner([op])
    runner.run_op(op)
    assert (runner.attempted, runner.failed, runner.wrong) == (1, 1, 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_scenarios_depend_only_on_the_seed(tmp_path, workload):
    a = workloads.build(workload, 3, str(tmp_path / "a"))
    b = workloads.build(workload, 3, str(tmp_path / "b"))
    c = workloads.build(workload, 4, str(tmp_path / "c"))
    read = lambda op: pathlib.Path(op.argv[1]).read_text()
    assert [read(x) for x in a] == [read(x) for x in b]
    assert [read(x) for x in a] != [read(x) for x in c]


def test_traced_nodes_equal_tree_size_and_originals_come_back(tmp_path):
    import mfctrl
    import tracing
    op = _finite_op(tmp_path)
    runner = CorruptingRunner([op])
    original = mfctrl.measure.pushforward
    tracer = tracing.Tracer(mfctrl)
    tracer.install()
    try:
        assert mfctrl.dpp.pushforward is not original
        runner.run_op(op)
    finally:
        tracer.uninstall()
    assert mfctrl.dpp.pushforward is original and mfctrl.measure.pushforward is original
    metrics = tracer.metrics(1, 0, 1.0)
    assert list(metrics) == [name for name, _, _ in tracing.METRICS]
    tree_size = json.loads(pathlib.Path(op.out).read_text())["tree_size"]
    assert metrics["dpp.nodes"]["value"] == tree_size
    assert 0.0 < metrics["dpp.tree_fill"]["value"] <= 1.0
    assert runner.failed == 0
