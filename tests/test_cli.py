import argparse
import contextlib
import copy
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "benchmarks"))

import workloads  # noqa: E402
from mfctrl import cli, moments
from mfctrl.cli import main
from mfctrl.dpp import BudgetExceeded
from mfctrl.fixtures import fixture_text, list_fixtures
from mfctrl.lq import (
    AffinePolicy,
    ConditionsNotMet,
    LQModel,
    NotPositiveDefinite,
    RiccatiSolution,
    array_fields,
    explicit_control_coefficients,
    mean_variance_closed_form,
    mean_variance_model,
    optimal_policy,
    solve_riccati,
    value_at,
)
from mfctrl.measure import DiscreteMeasure
from mfctrl.particles import simulate


def _stage(tmp_path, name):
    path = tmp_path / name
    path.write_text(fixture_text(name))
    return str(path)


class TestMeanVariance:
    def test_reference_values(self, tmp_path):
        out = tmp_path / "mv.json"
        code = main(["meanvariance", "--gamma", "1", "--b", "0.5", "--sigma", "1",
                     "--delta", "1", "--n", "2", "--x0", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["value_at_initial"] == pytest.approx(-1.28125, abs=1e-14)
        assert payload["policy"]["offset"][0][0] == pytest.approx(0.625, abs=1e-14)

    def test_solution_round_trips(self, tmp_path):
        # the artifact holds the closed form, its policy and controls, bit for bit
        out = tmp_path / "mv.json"
        assert main(["meanvariance", "--gamma", "2", "--b", "0.2", "--sigma", "0.5",
                     "--delta", "0.1", "--n", "5", "--x0", "0.7",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        model = mean_variance_model(2.0, 0.2, 0.5, 0.1, 5, 0.7)
        closed = mean_variance_closed_form(2.0, 0.2, 0.5, 0.1, 5)
        policy = optimal_policy(model, closed)
        assert payload == {
            "params": {"gamma": 2.0, "b": 0.2, "sigma": 0.5, "delta": 0.1, "n": 5, "x0": 0.7},
            "solution": closed.to_json(),
            "policy": policy.to_json(),
            "explicit_controls": explicit_control_coefficients(model, closed, policy).to_json(),
            "value_at_initial": value_at(closed, 0, DiscreteMeasure.dirac([0.7])),
        }
        # and the recursion agrees with the closed form to tolerance
        direct = solve_riccati(model)
        for name in ("var_weight", "mean_weight", "linear", "constant"):
            np.testing.assert_allclose(payload["solution"][name], getattr(direct, name),
                                       atol=1e-12)


class TestSolveFinite:
    def test_zero_cost_fixture(self, tmp_path, capsys):
        cfg = _stage(tmp_path, "finite_zero.json")
        out = tmp_path / "solve.json"
        csv_path = tmp_path / "traj.csv"
        code = main(["solve-finite", cfg, "--out", str(out),
                     "--trajectory-csv", str(csv_path)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["v0"] == 0.0
        assert payload["tree_size"] >= 1
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "stage,state_index,state,weight"
        # horizon 2, 3 grid states: 3 stages x 3 rows
        assert len(lines) == 1 + 3 * 3

    def test_artifact_round_trips_against_direct_solve(self, tmp_path):
        from conftest import load_finite
        from mfctrl import dpp
        from mfctrl.measure import TabularMap

        cfg = _stage(tmp_path, "finite_mean_reverting.json")
        out = tmp_path / "solve.json"
        assert main(["solve-finite", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        model, mu0 = load_finite("finite_mean_reverting.json")
        result = dpp.solve(model, mu0)
        assert payload["v0"] == result.v0
        assert payload["tree_size"] == result.reachable_tree_size
        for got, direct in zip(payload["policy_sequence"], result.optimal_policy_sequence):
            parsed = TabularMap.from_json(got)
            assert np.array_equal(parsed.values, direct.values)
        _, trajectory = dpp.rollforward(model, mu0, result.optimal_policy_sequence)
        for got, direct in zip(payload["law_trajectory"], trajectory):
            parsed = DiscreteMeasure.from_json(got)
            assert np.array_equal(parsed.weights, direct.weights)
            assert np.array_equal(parsed.support, direct.support)

    @pytest.mark.parametrize("case", sorted(n for n in list_fixtures()
                                            if n.startswith(("finite_", "fo_")))
                             + [f"{w}:{seed}" for w in ("dpp-sweep", "dpp-tree")
                                for seed in (1, 2024)])
    def test_law_trajectory_is_the_scalar_rollout_within_one_key_quantum(self, tmp_path, case):
        # a shipped fixture, or every scenario of a benchmark workload at one seed
        from conftest import node_key
        from mfctrl import dpp
        from mfctrl.model import finite_model_from_config

        if case.endswith(".json"):
            runs = [(json.loads(fixture_text(case)), ["solve-finite", _stage(tmp_path, case)])]
        else:
            workload, seed = case.split(":")
            runs = [(op.scenario, op.argv[:2])
                    for op in workloads.build(workload, int(seed), str(tmp_path))]
        out, flow = tmp_path / "solve.json", tmp_path / "flow.csv"
        for scenario, argv in runs:
            assert main(argv + ["--out", str(out), "--trajectory-csv", str(flow)]) == 0
            laws = [DiscreteMeasure.from_json(law)
                    for law in json.loads(out.read_text())["law_trajectory"]]
            with open(flow) as fh:
                rows = [(int(r["stage"]), int(r["state_index"]), float(r["weight"]))
                        for r in csv.DictReader(fh)]
            model = finite_model_from_config(scenario["model"])
            mu0 = DiscreteMeasure.from_json(scenario["initial_law"])
            result = dpp.solve(model, mu0)
            _, rollout = dpp.rollforward(model, mu0, result.optimal_policy_sequence)
            assert len(laws) == len(rollout) == model.horizon + 1
            for k, (got, direct) in enumerate(zip(laws, rollout)):
                assert np.array_equal(got.support, direct.support)
                assert np.max(np.abs(got.weights - direct.weights)) <= 1e-12
                keys = map(node_key, result.laws[k])
                assert node_key(got.weights_on_grid(model.states)) in keys
            grid = [law.weights_on_grid(model.states) for law in laws]
            assert [(k, i) for k, i, _ in rows] == [(k, i) for k in range(len(laws))
                                                    for i in range(model.n_states)]
            assert max(abs(w - grid[k][i]) for k, i, w in rows) <= 1e-12

    def test_node_budget_failure_is_numerical(self, tmp_path):
        cfg = _stage(tmp_path, "finite_mean_reverting.json")
        assert main(["solve-finite", cfg, "--node-budget", "1",
                     "--out", str(tmp_path / "x.json")]) == 3

    def test_wrong_kind_rejected(self, tmp_path):
        cfg = _stage(tmp_path, "lq_mean_variance.json")
        assert main(["solve-finite", cfg, "--out", str(tmp_path / "x.json")]) == 2

    def test_budget_message_reports_full_tree_bound(self, tmp_path, capsys):
        cfg = _stage(tmp_path, "finite_mean_reverting.json")   # S=3, M=2, n=3
        assert main(["solve-finite", cfg, "--node-budget", "10",
                     "--out", str(tmp_path / "x.json")]) == 3
        assert "worst-case bound 585 nodes" in capsys.readouterr().err

    def test_budget_exceeded_at_a_long_horizon_is_numerical(self, tmp_path, capsys):
        # the worst-case bound of this tree, sum(8**j for j <= 5000), has 4516 digits
        data = json.loads(fixture_text("finite_mean_reverting.json"))
        data["model"]["horizon"] = 5000
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "x.json"
        assert main(["solve-finite", str(cfg), "--node-budget", "10", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: node budget 10 exceeded")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["0", "-5"])
    def test_budget_below_one_is_config_error(self, tmp_path, capsys, flag):
        cfg = _stage(tmp_path, "finite_mean_reverting.json")
        out = tmp_path / "x.json"
        assert main(["solve-finite", cfg, "--out", str(out), "--node-budget", flag]) == 2
        assert "node budget must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("states, actions", [
        ([[-1.0, 0.5], [0.0, 0.0], [1.0, -0.5]], [[0.0], [1.0]]),
        ([[-1.0], [0.0], [1.0]], [[0.0, 0.0], [1.0, -1.0]]),
    ], ids=["states_2d", "actions_2d"])
    def test_multi_coordinate_grids(self, tmp_path, states, actions):
        from mfctrl import dpp
        from mfctrl.model import finite_model_from_config

        data = json.loads(fixture_text("finite_mean_reverting.json"))
        data["model"].update(states=states, actions=actions, horizon=2)
        data["model"]["stage_cost"] = {"tag": "quadratic", "params": {
            "qx": 0.3, "qm": 0.2, "qv": 0.1, "cxm": -0.2, "ra": 0.2, "rm": 0.1, "cam": -0.3}}
        data["initial_law"] = {"support": states, "weights": [0.2, 0.3, 0.5]}
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "solve.json"
        assert main(["solve-finite", str(cfg), "--out", str(out),
                     "--trajectory-csv", str(tmp_path / "flow.csv")]) == 0
        payload = json.loads(out.read_text())
        model = finite_model_from_config(data["model"])
        mu0 = DiscreteMeasure.from_json(data["initial_law"])
        assert payload["v0"] == pytest.approx(dpp.brute_force_value(model, mu0), abs=1e-10)


class TestRiccati:
    def test_multivariate_round_trip(self, tmp_path):
        cfg = _stage(tmp_path, "lq_multivariate.json")
        out = tmp_path / "riccati.json"
        assert main(["riccati", cfg, "--out", str(out),
                     "--stages-csv", str(tmp_path / "stages.csv")]) == 0
        payload = json.loads(out.read_text())
        model = LQModel.from_json(json.loads(fixture_text("lq_multivariate.json"))["model"])
        direct = solve_riccati(model)
        # every field of the solution, bit for bit
        assert payload["solution"] == direct.to_json()
        assert set(payload["solution"]) == set(array_fields(direct))
        assert payload["policy"] == optimal_policy(model, direct).to_json()
        assert (tmp_path / "stages.csv").exists()

    def test_condition_failure_exit_code(self, tmp_path):
        data = json.loads(fixture_text("lq_multivariate.json"))
        for stage in data["model"]["stages"]:
            stage["cost_control"] = np.zeros((2, 2)).tolist()
            stage["cost_control_mean"] = np.zeros((2, 2)).tolist()
            stage["drift_control"] = np.zeros((2, 2)).tolist()
            stage["noise_control"] = np.zeros((2, 2)).tolist()
        cfg = tmp_path / "degenerate.json"
        cfg.write_text(json.dumps(data))
        assert main(["riccati", str(cfg), "--out", str(tmp_path / "x.json")]) == 3


class TestSimulate:
    def test_mean_variance_riccati_policy(self, tmp_path):
        cfg = _stage(tmp_path, "lq_mean_variance.json")
        out = tmp_path / "sim.json"
        code = main(["simulate", cfg, "--n-particles", "20000", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
        result = simulate(model, optimal_policy(model, solve_riccati(model)), 20000, 5)
        assert payload == result.to_json()
        assert abs(payload["estimate"] - (-1.28125)) <= 4 * payload["std_error"]

    def test_deterministic_given_seed(self, tmp_path):
        cfg = _stage(tmp_path, "lq_mean_variance.json")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["simulate", cfg, "--n-particles", "3000", "--seed", "11",
                         "--out", str(out)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_lq_simulation_with_zero_policy(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", _stage(tmp_path, "lq_mean_variance.json"), "--n-particles",
                     "20000", "--seed", "5", "--policy", "zero", "--closure", "oracle-law",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
        zero = AffinePolicy.zero(model.horizon, model.state_dim, model.control_dim)
        assert payload == simulate(model, zero, 20000, 5, closure="oracle-law").to_json()
        assert abs(payload["estimate"] - moments.exact_cost(model, zero)) <= 4 * payload["std_error"]

    def test_finite_simulation_with_zero_policy(self, tmp_path):
        cfg = _stage(tmp_path, "finite_mean_clamp.json")
        out = tmp_path / "sim.json"
        code = main(["simulate", cfg, "--n-particles", "2000", "--seed", "2",
                     "--policy", "zero", "--closure", "oracle-law",
                     "--out", str(out), "--stages-csv", str(tmp_path / "s.csv")])
        assert code == 0
        assert (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("count", ["1", "0"])
    def test_too_few_particles_is_config_error(self, tmp_path, capsys, count):
        cfg = _stage(tmp_path, "lq_mean_variance.json")
        out = tmp_path / "sim.json"
        assert main(["simulate", cfg, "--n-particles", count, "--seed", "3",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "n-particles" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("closure", ["empirical", "oracle-law"])
    @pytest.mark.parametrize("row", [[0.4, 0.2, 0.1], [1.2, -0.3, 0.1]], ids=["mass", "negative"])
    def test_bad_kernel_row_is_config_error(self, tmp_path, capsys, closure, row):
        data = json.loads(fixture_text("finite_classical_table.json"))
        data["model"]["kernel"]["params"]["rows"][0][0] = row    # state 0, action 0
        out = tmp_path / "sim.json"
        code = main(["simulate", _scenario(tmp_path, data), "--n-particles", "1000",
                     "--seed", "1", "--policy", "zero", "--closure", closure, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "kernel row is not a probability vector at stage 0, state index 0" in err
        assert not out.exists()

    def test_riccati_policy_invalid_for_finite(self, tmp_path):
        cfg = _stage(tmp_path, "finite_mean_clamp.json")
        assert main(["simulate", cfg, "--n-particles", "10", "--seed", "1",
                     "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("command, name", [
    ("solve-finite", "finite_zero.json"), ("riccati", "lq_mean_variance.json"),
    ("simulate", "lq_multivariate.json")])
@pytest.mark.parametrize("run", [{"node_budget": 100, "outputs": {"json": "from_config.json",
                                                                  "csv": "from_config.csv"}},
                                 {}, [1]], ids=["paths", "empty", "list"])
def test_run_block_is_rejected_and_nothing_is_written(tmp_path, capsys, monkeypatch, command,
                                                      name, run):
    # a scenario that still names its outputs must not send them to stdout instead
    monkeypatch.chdir(tmp_path)
    data = json.loads(fixture_text(name)) | {"run": run}
    (tmp_path / "scenario.json").write_text(json.dumps(data))
    argv = [command, "scenario.json"]
    argv += ["--n-particles", "10", "--seed", "1"] if command == "simulate" else []
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: config field 'run' is not supported")
    for flag in ("--node-budget", "--out", "--trajectory-csv", "--stages-csv"):
        assert flag in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["scenario.json"]


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_non_finite_output_is_numerical_failure_and_writes_nothing(tmp_path, capsys, to_file):
    # finite parameters whose closed-form constant overflows
    out = tmp_path / "mv.json"
    with np.errstate(over="ignore", divide="ignore"):
        code = main(["meanvariance", "--gamma", "1", "--b", "1e100", "--sigma", "1",
                     "--delta", "1", "--n", "2", "--x0", "1",
                     "--out", str(out) if to_file else "-"])
    assert code == 3
    captured = capsys.readouterr()
    assert "not finite" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("form", ["array", "list"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_non_finite_entry_deep_in_a_tensor_writes_nothing(tmp_path, capsys, monkeypatch,
                                                           to_file, bad, form):
    # the last entry of the (n + 1, d, d) var_weight tensor: an array is written
    # in one block, a nested list through the recursive path
    def poisoned(record):
        arrays = array_fields(record)
        if isinstance(record, RiccatiSolution):
            weights = arrays["var_weight"].copy()
            weights[-1, -1, -1] = bad
            arrays["var_weight"] = weights if form == "array" else weights.tolist()
        return arrays

    monkeypatch.setattr("mfctrl.lq.array_fields", poisoned)
    out = tmp_path / "lq.json"
    code = main(["riccati", _stage(tmp_path, "lq_multivariate.json"),
                 "--out", str(out) if to_file else "-"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: output is not finite")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


class TestErrors:
    def test_unreadable_config(self, tmp_path):
        assert main(["riccati", str(tmp_path / "missing.json")]) == 2

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["solve-finite", str(cfg)]) == 2

    def test_unknown_kind(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": "mystery", "model": {}}))
        assert main(["solve-finite", str(cfg)]) == 2

    def test_missing_initial_law(self, tmp_path):
        data = json.loads(fixture_text("finite_zero.json"))
        del data["initial_law"]
        cfg = tmp_path / "nolaw.json"
        cfg.write_text(json.dumps(data))
        assert main(["solve-finite", str(cfg)]) == 2

    def test_riccati_on_a_finite_scenario(self, tmp_path, capsys):
        assert main(["riccati", _stage(tmp_path, "finite_zero.json")]) == 2
        assert capsys.readouterr().err == ("config error: riccati needs an lq/meanvariance "
                                           "scenario, got 'finite'\n")

    def test_policy_path_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert main(["simulate", _stage(tmp_path, "lq_mean_variance.json"), "--n-particles",
                     "10", "--seed", "1", "--policy", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read policy file {str(tmp_path)!r}: ")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("shape, message", [
        ((3, 1, 1), "policy and model horizons differ"),
        ((2, 2, 1), "policy dimensions do not match the model"),
    ], ids=["horizon", "dimensions"])
    def test_lq_policy_file_must_fit_the_model(self, tmp_path, capsys, shape, message):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(AffinePolicy.zero(*shape).to_json()))
        out = tmp_path / "sim.json"
        assert main(["simulate", _stage(tmp_path, "lq_mean_variance.json"), "--n-particles",
                     "10", "--seed", "1", "--policy", str(policy), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_lq_control_blocks_that_are_vectors(self, tmp_path, capsys):
        data = json.loads(fixture_text("lq_multivariate.json"))
        for stage in data["model"]["stages"]:
            stage["drift_control"] = [1.0, 2.0]
        assert main(["riccati", _scenario(tmp_path, data)]) == 2
        err = capsys.readouterr().err
        assert "drift_control has shape (3, 2), expected (3, 2, 2)" in err
        assert "Traceback" not in err

    # (path into the scenario's model, value, message after "bad LQ model config: ")
    LQ_LEAVES = [
        (["stages", 1, "drift_state", 0, 0], "0.3287",
         "field 'drift_state' at stage 1 must hold only numbers, got '0.3287'"),
        (["stages", 1, "drift_state", 0, 0], True,
         "field 'drift_state' at stage 1 must hold only numbers, got True"),
        (["stages", 0, "cost_state", 0, 0], None,
         "field 'cost_state' at stage 0 must hold only numbers, got None"),
        (["terminal", "cost_state", 0, 0], "1.0",
         "terminal field 'cost_state' must hold only numbers, got '1.0'"),
        (["initial_law", "mean", 0], True,
         "initial_law field 'mean' must hold only numbers, got True"),
        (["stages", 2, "drift_state", 1], [0.1, 0.2, 0.3],
         "field 'drift_state' at stage 2 has rows of lengths [2, 3]"),
        (["stages", 2, "drift_state"], [[0.1, 0.2]],
         "field 'drift_state' at stage 2 has shape (1, 2), against (2, 2) at stage 0"),
    ]

    @pytest.mark.parametrize("path, value, message", LQ_LEAVES,
                             ids=["str", "bool", "null", "terminal", "mean", "row", "stage"])
    def test_lq_blocks_take_only_numbers(self, tmp_path, capsys, path, value, message):
        data = json.loads(fixture_text("lq_multivariate.json"))
        parent = data["model"]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        out = tmp_path / "lq.json"
        assert main(["riccati", _scenario(tmp_path, data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: bad LQ model config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("gain_state", "0.5", "policy field 'gain_state' at stage 1 must hold only numbers, "
                              "got '0.5'"),
        ("offset", False, "policy field 'offset' at stage 1 must hold only numbers, got False"),
    ])
    def test_lq_policy_files_take_only_numbers(self, tmp_path, capsys, field, value, message):
        policy = AffinePolicy.zero(2, 1, 1).to_json()
        leaf = policy[field][1]
        while isinstance(leaf[0], list):
            leaf = leaf[0]
        leaf[0] = value
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(policy))
        assert main(["simulate", _stage(tmp_path, "lq_mean_variance.json"), "--n-particles",
                     "10", "--seed", "1", "--policy", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    # (path into the finite scenario, value, message after "config error: ")
    FINITE_LEAVES = [
        (["model", "kernel", "params", "theta"], "0.4",
         "bad finite model config: kernel param 'theta' must hold only numbers, got '0.4'"),
        (["model", "kernel", "params", "theta"], None,
         "bad finite model config: kernel param 'theta' must hold only numbers, got None"),
        (["model", "stage_cost", "params", "qx"], [0.3, [True]],
         "bad finite model config: stage_cost param 'qx' must hold only numbers, got True"),
        (["model", "states", 0], ["-1.0"],
         "bad finite model config: states must hold only numbers, got '-1.0'"),
        (["model", "actions", 1], [False],
         "bad finite model config: actions must hold only numbers, got False"),
        (["model", "mean_field_free"], "false",
         "bad finite model config: mean_field_free must be true or false, got 'false'"),
        (["model", "mean_field_free"], 1,
         "bad finite model config: mean_field_free must be true or false, got 1"),
        (["initial_law", "weights", 0], "0.2",
         "bad initial_law: field 'weights' must hold only numbers, got '0.2'"),
        (["initial_law", "support", 2], [None],
         "bad initial_law: field 'support' must hold only numbers, got None"),
    ]

    @pytest.mark.parametrize("path, value, message", FINITE_LEAVES,
                             ids=["str-param", "null-param", "bool-in-list", "str-state",
                                  "bool-action", "str-flag", "int-flag", "str-weight",
                                  "null-support"])
    def test_finite_scenarios_take_only_numbers(self, tmp_path, capsys, path, value, message):
        data = json.loads(fixture_text("finite_mean_reverting.json"))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        out = tmp_path / "solve.json"
        assert main(["solve-finite", _scenario(tmp_path, data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    FINITE_RANKS = [
        (["initial_law"], {"support": 0.0, "weights": 1},
         "bad initial_law: field 'support' must be a list of points, got 0.0"),
        (["initial_law", "weights"], [[0.5], [0.5]],
         "bad initial_law: field 'weights' must be a flat list of numbers, got [[0.5], [0.5]]"),
        (["model", "actions"], 0.0,
         "bad finite model config: actions must be a list of points, got 0.0"),
        (["model", "states"], 5, "bad finite model config: states must be a list of points, got 5"),
        (["model", "states"], [-1.0, 0.0, 1.0],
         "bad finite model config: states must be a list of points, got [-1.0, 0.0, 1.0]"),
    ]

    @pytest.mark.parametrize("path, value, message", FINITE_RANKS,
                             ids=["number-law", "nested-weights", "number-actions",
                                  "number-states", "flat-states"])
    def test_finite_fields_have_their_rank(self, tmp_path, capsys, path, value, message):
        data = json.loads(fixture_text("finite_zero.json"))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        out = tmp_path / "solve.json"
        assert main(["solve-finite", _scenario(tmp_path, data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("policy, message", [
        ({"domain": 0.0, "values": 0.0}, "field 'domain' must be a list of points, got 0.0"),
        ({"domain": [[-1.0], [0.0], [1.0]], "values": [0.0, 1.0, 0.0]},
         "field 'values' must be a list of points, got [0.0, 1.0, 0.0]"),
    ], ids=["numbers", "flat-values"])
    def test_finite_policy_fields_have_their_rank(self, tmp_path, capsys, policy, message):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(policy))
        assert main(["simulate", _stage(tmp_path, "finite_zero.json"), "--n-particles", "10",
                     "--seed", "1", "--policy", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_finite_policy_files_take_only_numbers(self, tmp_path, capsys):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"domain": [["-1.0"], [0.0], [1.0]],
                                    "values": [[0.0], [1.0], [0.0]]}))
        assert main(["simulate", _stage(tmp_path, "finite_mean_reverting.json"), "--n-particles",
                     "10", "--seed", "1", "--policy", str(path)]) == 2
        assert capsys.readouterr().err == ("config error: field 'domain' must hold only numbers, "
                                           "got '-1.0'\n")

    @pytest.mark.parametrize("text, message", [
        ("{", "is not valid JSON: Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1)"),
        ("[1, 2]", "must be a JSON object, got list"),
    ], ids=["not-json", "list"])
    def test_a_bad_policy_file_is_named(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        out = tmp_path / "sim.json"
        assert main(["simulate", _stage(tmp_path, "lq_mean_variance.json"), "--n-particles",
                     "10", "--seed", "1", "--policy", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: policy file {str(path)!r} {message}\n"
        assert not out.exists()


DEEP = "[" * 100_000 + "]" * 100_000   # past any recursion limit of a JSON decoder


class TestDeeplyNestedInput:
    @staticmethod
    def _assert_config_error(capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_scenario_file(self, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text(DEEP)
        self._assert_config_error(capsys, ["solve-finite", str(cfg)])

    def test_cost_param(self, tmp_path, capsys):
        # shallow enough to decode, deep enough to exhaust a recursive walk
        text = fixture_text("finite_mean_reverting.json").replace(
            '"qx": 0.3', '"qx": ' + "[" * 450 + "0.3" + "]" * 450, 1)
        assert len(text) < 2000
        cfg = tmp_path / "deep.json"
        cfg.write_text(text)
        self._assert_config_error(capsys, ["solve-finite", str(cfg)])

    def test_policy_file(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text(DEEP)
        self._assert_config_error(capsys, [
            "simulate", _stage(tmp_path, "lq_mean_variance.json"), "--n-particles", "10",
            "--seed", "1", "--policy", str(policy), "--out", str(tmp_path / "sim.json")])


def _nested(depth):
    value = 0
    for _ in range(depth):
        value = [value]
    return value


class TestLongValuesInErrors:
    """An error that quotes a JSON value quotes a shortened form of it."""

    @pytest.mark.parametrize("value", [_nested(400), list(range(10**6))],
                             ids=["nested-400", "list-1e6"])
    @pytest.mark.parametrize("fixture, path", [
        ("finite_zero.json", ("kind",)),
        ("finite_zero.json", ("model", "horizon")),
        ("finite_zero.json", ("model", "kernel", "tag")),
        ("finite_zero.json", ("model", "stage_cost", "tag")),
        ("finite_zero.json", ("model", "terminal_cost", "tag")),
        ("lq_mean_variance.json", ("model", "gamma")),
        ("lq_mean_variance.json", ("model", "n")),
    ], ids=lambda v: v if isinstance(v, str) else ".".join(v))
    def test_one_line_of_at_most_200_characters(self, tmp_path, capsys, value, fixture, path):
        data = json.loads(fixture_text(fixture))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        command = "solve-finite" if fixture.startswith("finite") else "riccati"
        out = tmp_path / "out.json"
        assert main([command, _scenario(tmp_path, data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert err.count("\n") == 1 and err.endswith("\n") and len(err) <= 201
        assert path[-1] in err          # the message names the field
        assert not out.exists()


VERIFY_ROWS = [
    "measure.pushforward_mass", "measure.image_mean_identity", "measure.variance_form_psd",
    "measure.pushforward_mixture_linearity", "model.lifted_cost_mixture_affine",
    "model.validate_fixtures", "dpp.solve_equals_brute_force", "dpp.rollforward_reproduces_v0",
    "dpp.one_step_consistency", "dpp.monotone_constant_shift", "dpp.random_policies_suboptimal",
    "dpp.classical_factorization", "dpp.first_order_factorization", "lq.closed_form_agreement",
    "lq.conditions", "lq.verification_identity", "lq.weights_psd", "lq.stationarity",
    "lq.perturbation_optimality", "mc.matches_exact_cost", "mc.seed_determinism",
    "mc.moment_chain_consistency", "mc.propagated_cov_psd", "mc.mean_tracking",
    "mc.finite_oracle_law",
]


def test_verify_quick_passes(capsys):
    assert main(["verify", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "25/25 checks passed" in out
    assert [line.split()[1] for line in out.splitlines()[:-2]] == VERIFY_ROWS


_WRITERS = {
    "solve-finite": ("finite_mean_reverting.json", ["--out", "--trajectory-csv"]),
    "riccati": ("lq_multivariate.json", ["--out", "--stages-csv"]),
    "meanvariance": (None, ["--out"]),
    "simulate": ("lq_mean_variance.json", ["--out", "--stages-csv"]),
}


def _writer_argv(tmp_path, command):
    """``command`` on its ``_WRITERS`` fixture, without outputs."""
    fixture, _ = _WRITERS[command]
    if fixture is None:
        return [command, "--gamma", "1", "--b", "0.5", "--sigma", "1", "--delta", "1",
                "--n", "2", "--x0", "1"]
    argv = [command, _stage(tmp_path, fixture)]
    return argv + (["--n-particles", "10", "--seed", "1"] if command == "simulate" else [])


@pytest.mark.parametrize("target", ["directory", "missing_parent"])
@pytest.mark.parametrize("command, flag", [(c, f) for c, (_, flags) in _WRITERS.items()
                                           for f in flags])
def test_unwritable_output_path_is_config_error(tmp_path, capsys, command, flag, target):
    argv = _writer_argv(tmp_path, command)
    bad = tmp_path / "missing" / "x.out" if target == "missing_parent" else tmp_path
    if flag != "--out":
        argv += ["--out", str(tmp_path / "ok.json")]
    argv += [flag, str(bad)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "cannot write output" in captured.err and "Traceback" not in captured.err
    # every output is opened before any is written, so none is left behind
    assert not (tmp_path / "ok.json").exists()
    assert captured.out == ""


@pytest.mark.parametrize("command, flag", [(c, f) for c, (_, flags) in _WRITERS.items()
                                           for f in flags if f != "--out"])
def test_unwritable_table_leaves_standard_output_empty(tmp_path, capsys, command, flag):
    argv = [command, _stage(tmp_path, _WRITERS[command][0]), "--out", "-",
            flag, str(tmp_path / "missing" / "x.csv")]
    if command == "simulate":
        argv += ["--n-particles", "10", "--seed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "cannot write output" in captured.err and captured.out == ""


def test_one_path_for_two_outputs_is_config_error(tmp_path, capsys):
    out = tmp_path / "both.out"
    assert main(["solve-finite", _stage(tmp_path, "finite_mean_reverting.json"),
                 "--out", str(out), "--trajectory-csv", str(out)]) == 2
    assert "is given twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["null", "file"])
@pytest.mark.parametrize("failure", ["unwritable", "twice"])
def test_a_failed_run_keeps_a_linked_output(tmp_path, capsys, failure, target):
    # a link stays, whether to a device or to a file; only regular files are removed
    dest = os.devnull if target == "null" else tmp_path / "kept.json"
    link = tmp_path / "out.json"
    link.symlink_to(dest)
    table = tmp_path / "missing" / "t.csv" if failure == "unwritable" else link
    assert main(["solve-finite", _stage(tmp_path, "finite_mean_reverting.json"),
                 "--out", str(link), "--trajectory-csv", str(table)]) == 2
    assert capsys.readouterr().out == ""
    assert link.is_symlink() and os.readlink(link) == str(dest)


@pytest.mark.parametrize("out_kind", ["link", "file"])
def test_an_unopenable_later_output_keeps_an_earlier_one(tmp_path, capsys, out_kind):
    # the run fails before it writes anything, so it changes nothing it did not create
    kept, out = tmp_path / "kept.json", tmp_path / "out.json"
    kept.write_text('{"old": 1}')
    if out_kind == "link":
        out.symlink_to(kept)
    else:
        out.write_text('{"old": 1}')
    assert main(["solve-finite", _stage(tmp_path, "finite_mean_reverting.json"),
                 "--out", str(out), "--trajectory-csv", str(tmp_path / "missing" / "t.csv")]) == 2
    assert "cannot write output" in capsys.readouterr().err
    assert kept.read_bytes() == out.read_bytes() == b'{"old": 1}'
    assert out.is_symlink() == (out_kind == "link")


@pytest.mark.parametrize("old", [b"x" * 100_000, b"x" * 10], ids=["longer", "shorter"])
@pytest.mark.parametrize("command", list(_WRITERS))
def test_a_rerun_over_an_old_output_writes_the_same_bytes(tmp_path, command, old):
    flags = _WRITERS[command][1]
    fresh = [tmp_path / f"fresh{i}" for i in range(len(flags))]
    over = [tmp_path / f"over{i}" for i in range(len(flags))]
    for path in over:
        path.write_bytes(old)
    for paths in (fresh, over):
        argv = _writer_argv(tmp_path, command)
        for flag, path in zip(flags, paths):
            argv += [flag, str(path)]
        assert main(argv) == 0
    for a, b in zip(fresh, over):
        assert a.read_bytes() == b.read_bytes() and len(b.read_bytes()) > 10


@pytest.mark.parametrize("out_kind", ["link", "file"])
def test_a_failure_mid_write_removes_a_file_and_empties_a_linked_one(tmp_path, capsys,
                                                                        out_kind):
    # the closed-form constant overflows while the output is written
    target, out = tmp_path / "target.json", tmp_path / "mv.json"
    target.write_bytes(b"x" * 100_000)
    if out_kind == "link":
        out.symlink_to(target)
    else:
        target.rename(out)
    with np.errstate(over="ignore", divide="ignore"):
        assert main(["meanvariance", "--gamma", "1", "--b", "1e100", "--sigma", "1",
                     "--delta", "1", "--n", "2", "--x0", "1", "--out", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err
    if out_kind == "link":
        assert out.is_symlink() and target.read_bytes() == b""
    else:
        assert not out.exists() and not target.exists()


def test_a_device_given_through_a_link_is_written(tmp_path, capsys):
    link = tmp_path / "null.json"
    link.symlink_to(os.devnull)
    assert main(["solve-finite", _stage(tmp_path, "finite_zero.json"), "--out", str(link)]) == 0
    assert capsys.readouterr().out == ""
    assert link.is_symlink()


@pytest.mark.parametrize("command", list(_WRITERS))
def test_no_output_is_opened_with_truncation(tmp_path, monkeypatch, command):
    flags = _WRITERS[command][1]
    paths = [str(tmp_path / f"out{i}") for i in range(len(flags))]
    for path in paths[1:]:   # one output is created, the others exist already
        with open(path, "w") as fh:
            fh.write("old")
    opened = []
    real = os.open

    def recorded(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return real(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recorded)
    argv = _writer_argv(tmp_path, command)
    for flag, path in zip(flags, paths):
        argv += [flag, path]
    assert main(argv) == 0
    assert sorted(path for path, _ in opened if path in paths) == sorted(paths)
    assert not any(flags & os.O_TRUNC for path, flags in opened if path in paths)


@pytest.mark.parametrize("spelling, existed", [("dot", False), ("dot", True),
                                               ("absolute", False), ("absolute", True),
                                               ("hard_link", True)])
def test_one_file_under_two_spellings_is_config_error(tmp_path, capsys, monkeypatch, spelling,
                                                       existed):
    # whichever spelling created the file, nothing is left that was not there before
    monkeypatch.chdir(tmp_path)
    scenario = _stage(tmp_path, "finite_mean_reverting.json")
    if existed:
        (tmp_path / "out.json").write_text('{"old": 1}')
    table = {"dot": "./out.json", "absolute": str(tmp_path / "out.json"),
             "hard_link": "linked.json"}[spelling]
    if spelling == "hard_link":
        os.link("out.json", "linked.json")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["solve-finite", scenario, "--out", "out.json", "--trajectory-csv", table]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output ") and "is given twice" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    assert main(["meanvariance", "--gamma", "1", "--b", "0.5", "--sigma", "1", "--delta",
                 "1", "--n", "2", "--x0", "1", "--out", str(tmp_path / "mv.json")]) == 0
    once = len(built)
    assert once > 0
    assert main(["solve-finite", _stage(tmp_path, "finite_zero.json"),
                 "--out", str(tmp_path / "finite.json")]) == 0
    assert len(built) == once


def _scenario(tmp_path, data, name="scenario.json"):
    cfg = tmp_path / name
    cfg.write_text(json.dumps(data))
    return str(cfg)


class TestNonFiniteInput:
    def test_meanvariance_nan_x0_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "mv.json"
        code = main(["meanvariance", "--gamma", "1", "--b", "0.5", "--sigma", "1",
                     "--delta", "1", "--n", "2", "--x0", "nan", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_simulate_nan_x0_scenario_is_config_error(self, tmp_path, capsys):
        data = json.loads(fixture_text("lq_mean_variance.json"))
        data["model"]["x0"] = float("nan")
        out = tmp_path / "sim.json"
        code = main(["simulate", _scenario(tmp_path, data), "--n-particles", "10",
                     "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_riccati_nan_cost_state_is_config_error(self, tmp_path, capsys):
        data = json.loads(fixture_text("lq_multivariate.json"))
        data["model"]["stages"][1]["cost_state"][0][0] = float("nan")
        code = main(["riccati", _scenario(tmp_path, data), "--out", str(tmp_path / "x.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cost_state has non-finite entries" in err and "not PSD" not in err

    @pytest.mark.parametrize("where", ["states", "initial_law"])
    def test_finite_nan_grid_or_law_is_config_error(self, tmp_path, capsys, where):
        data = json.loads(fixture_text("finite_mean_reverting.json"))
        if where == "states":
            data["model"]["states"][1] = [float("inf")]
        else:
            data["initial_law"]["weights"][0] = float("nan")
        code = main(["solve-finite", _scenario(tmp_path, data),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "finite" in capsys.readouterr().err


    def test_simulate_infinite_cost_param_is_config_error(self, tmp_path, capsys):
        text = fixture_text("finite_mean_reverting.json").replace('"qx": 0.3', '"qx": Infinity', 1)
        assert "Infinity" in text
        cfg = tmp_path / "scenario.json"
        cfg.write_text(text)
        out = tmp_path / "sim.json"
        code = main(["simulate", str(cfg), "--n-particles", "100", "--seed", "1",
                     "--policy", "zero", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == ("config error: bad finite model config: "
                                           "stage_cost param 'qx' has non-finite entries\n")
        assert not out.exists()


class TestNonFinitePolicy:
    @pytest.mark.parametrize("field, value", [("gain_state", math.nan),
                                              ("gain_mean", math.inf), ("offset", -math.inf)])
    def test_simulate_non_finite_policy_file_is_config_error(self, tmp_path, capsys,
                                                             monkeypatch, field, value):
        policy = AffinePolicy.zero(2, 1, 1).to_json()
        policy[field] = np.full(np.shape(policy[field]), value).tolist()
        path = tmp_path / "p.json"
        path.write_text(json.dumps(policy))
        out = tmp_path / "sim.json"

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated with a non-finite policy")

        monkeypatch.setattr("mfctrl.particles.simulate", no_simulation)
        code = main(["simulate", _stage(tmp_path, "lq_mean_variance.json"), "--n-particles",
                     "10", "--seed", "1", "--policy", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"policy {field} has non-finite entries" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("cls, old_base", [
    (ConditionsNotMet, ValueError),
    (NotPositiveDefinite, RuntimeError),
    (BudgetExceeded, RuntimeError),
], ids=lambda v: v.__name__)
def test_numerical_failure_classes_are_arithmetic_errors(cls, old_base):
    # ``cli.main`` maps every ArithmeticError to exit 3 without naming these
    # classes; each keeps its old base for the callers that catch it
    assert cls.__bases__ == (ArithmeticError, old_base)
    error = cls.__new__(cls)
    assert isinstance(error, ArithmeticError) and isinstance(error, old_base)


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
def test_overflowing_recursion_is_numerical_failure(tmp_path, capsys, force):
    # stage 0's control Hessian overflows: a numerical failure, not a config error
    data = json.loads(fixture_text("lq_multivariate.json"))
    stage = data["model"]["stages"][0]
    stage["drift_control"] = (np.asarray(stage["drift_control"]) * 1e200).tolist()
    out = tmp_path / "x.json"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["riccati", _scenario(tmp_path, data), "--out", str(out), *force])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "at stage 0" in err and "Traceback" not in err
    assert not out.exists()


def test_overflow_prints_only_the_stage_error(tmp_path, capsys):
    # NumPy's overflow warnings stay silent even when warnings are errors
    data = json.loads(fixture_text("lq_multivariate.json"))
    stage = data["model"]["stages"][0]
    stage["drift_control"] = (np.asarray(stage["drift_control"]) * 1e200).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["riccati", _scenario(tmp_path, data), "--out", str(tmp_path / "x.json")])
    assert code == 3
    assert capsys.readouterr().err == ("numerical failure: Riccati recursion not finite "
                                       "at stage 0\n")


def test_overflowing_simulation_prints_only_the_output_error(tmp_path, capsys):
    policy = AffinePolicy(np.zeros((2, 1, 1)), np.full((2, 1, 1), 1e200), np.zeros((2, 1)))
    path = tmp_path / "p.json"
    path.write_text(json.dumps(policy.to_json()))
    out = tmp_path / "sim.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", _stage(tmp_path, "lq_mean_variance.json"), "--n-particles",
                     "10", "--seed", "1", "--policy", str(path), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: output is not finite") and err.count("\n") == 1
    assert not out.exists()


def _overflowing_finite(tmp_path, qx):
    """``finite_mean_reverting.json`` whose stage cost has the state weight ``qx``:
    finite per cell, but the costs it sums overflow."""
    data = json.loads(fixture_text("finite_mean_reverting.json"))
    data["model"]["stage_cost"]["params"]["qx"] = qx
    return _scenario(tmp_path, data)


@pytest.mark.parametrize("closure", ["empirical", "oracle-law"])
def test_overflowing_finite_simulation_prints_only_the_output_error(tmp_path, capsys, closure):
    out = tmp_path / "sim.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", _overflowing_finite(tmp_path, 1e308), "--policy", "zero",
                     "--n-particles", "1000", "--seed", "1", "--closure", closure,
                     "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: output is not finite") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("qx, stage", [(1e308, 0), (1.7e308, 1)])
def test_overflowing_finite_solve_prints_only_the_stage_error(tmp_path, capsys, qx, stage):
    out = tmp_path / "x.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve-finite", _overflowing_finite(tmp_path, qx), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (f"config error: non-finite candidate value "
                                       f"at stage {stage}\n")
    assert not out.exists()


def test_out_of_memory_is_numerical_failure(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000000,)")

    monkeypatch.setattr("mfctrl.particles.simulate", no_memory)
    out = tmp_path / "sim.json"
    code = main(["simulate", _stage(tmp_path, "lq_mean_variance.json"), "--n-particles",
                 "10", "--seed", "1", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == ("numerical failure: out of memory: Unable to allocate "
                                       "7.45 GiB for an array with shape (1000000000,)\n")
    assert not out.exists()


def test_stage_csv_cells_are_plain_floats(tmp_path):
    cfg = _stage(tmp_path, "lq_mean_variance.json")
    riccati_csv, simulate_csv = tmp_path / "riccati.csv", tmp_path / "simulate.csv"
    assert main(["riccati", cfg, "--out", str(tmp_path / "r.json"),
                 "--stages-csv", str(riccati_csv)]) == 0
    assert main(["simulate", cfg, "--n-particles", "100", "--seed", "1",
                 "--out", str(tmp_path / "s.json"), "--stages-csv", str(simulate_csv)]) == 0
    for path in (riccati_csv, simulate_csv):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        cells = [cell for row in rows for cell in row if cell]
        assert len(cells) > len(rows)
        for cell in cells:
            float(cell)


def test_meanvariance_division_by_zero_is_numerical_failure(capsys):
    # sigma^2 underflows to 0, so the closed form divides by zero
    code = main(["meanvariance", "--gamma", "1", "--b", "1", "--sigma", "1e-200",
                 "--delta", "1", "--n", "2", "--x0", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err


class TestNonObjectScenario:
    def test_top_level_array(self, tmp_path, capsys):
        cfg = _scenario(tmp_path, [json.loads(fixture_text("finite_zero.json"))])
        assert main(["solve-finite", cfg]) == 2
        err = capsys.readouterr().err
        assert "JSON object" in err and "Traceback" not in err

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_meanvariance_horizon_not_integral_is_not_truncated(self, tmp_path, capsys, n):
        data = json.loads(fixture_text("lq_mean_variance.json"))
        data["model"]["n"] = n
        out = tmp_path / "out.json"
        assert main(["riccati", _scenario(tmp_path, data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: mean-variance model field 'n' must be an integer")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["gamma", "b", "sigma", "delta", "x0"])
    def test_meanvariance_float_fields_take_only_numbers(self, tmp_path, capsys, field):
        data = json.loads(fixture_text("lq_mean_variance.json"))
        out = tmp_path / "out.json"
        for bad in ("1.0", True):
            data["model"][field] = bad
            assert main(["riccati", _scenario(tmp_path, data), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(
                f"config error: mean-variance model field {field!r} must be a number")
            assert not out.exists()
        outs = []
        for good in (1, 1.0):
            data["model"][field] = good
            outs.append(tmp_path / f"mv-{good!r}.json")
            assert main(["riccati", _scenario(tmp_path, data), "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_integral_floats_count_as_integers(self, tmp_path):
        data = json.loads(fixture_text("lq_mean_variance.json"))
        outs = []
        for n in (2, 2.0):
            data["model"]["n"] = n
            outs.append(tmp_path / f"mv-{n!r}.json")
            assert main(["riccati", _scenario(tmp_path, data), "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("command", ["riccati", "simulate"])
    @pytest.mark.parametrize("field, value", [
        ("horizon", 3.5), ("horizon", "3"), ("horizon", True), ("state_dim", "2"),
        ("state_dim", 2.9), ("control_dim", False), ("control_dim", None)])
    def test_lq_integer_fields_are_not_truncated(self, tmp_path, capsys, command, field, value):
        data = json.loads(fixture_text("lq_multivariate.json"))
        data["model"][field] = value
        out = tmp_path / "out.json"
        argv = [command, _scenario(tmp_path, data), "--out", str(out)]
        argv += ["--n-particles", "10", "--seed", "1"] if command == "simulate" else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad LQ model config: {field} must be an integer, "
                              f"got {value!r}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["riccati", "simulate"])
    def test_lq_integral_float_fields_count_as_integers(self, tmp_path, command):
        data = json.loads(fixture_text("lq_multivariate.json"))
        outs = []
        for cast in (int, float):
            for field in ("horizon", "state_dim", "control_dim"):
                data["model"][field] = cast(data["model"][field])
            outs.append(tmp_path / f"{command}-{cast.__name__}.json")
            argv = [command, _scenario(tmp_path, data), "--out", str(outs[-1])]
            argv += ["--n-particles", "10", "--seed", "1"] if command == "simulate" else []
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @staticmethod
    def _finite_argv(command, path, out):
        tail = ["--n-particles", "10", "--seed", "1", "--policy", "zero"]
        return [command, path, "--out", str(out)] + (tail if command == "simulate" else [])

    @pytest.mark.parametrize("command", ["solve-finite", "simulate"])
    @pytest.mark.parametrize("value", [2.5, "2", True, None])
    def test_finite_horizon_is_not_truncated(self, tmp_path, capsys, command, value):
        data = json.loads(fixture_text("finite_zero.json"))
        data["model"]["horizon"] = value
        out = tmp_path / "out.json"
        assert main(self._finite_argv(command, _scenario(tmp_path, data), out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad finite model config: horizon must be an "
                              f"integer, got {value!r}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve-finite", "simulate"])
    def test_finite_integral_float_horizon_counts_as_integer(self, tmp_path, command):
        data = json.loads(fixture_text("finite_zero.json"))
        outs = []
        for horizon in (2, 2.0):
            data["model"]["horizon"] = horizon
            outs.append(tmp_path / f"{command}-{horizon!r}.json")
            assert main(self._finite_argv(command, _scenario(tmp_path, data), outs[-1])) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestSizeGuards:
    """Sizes above the fixed maxima exit 2 on the arguments alone; nothing that
    would allocate them is reached."""

    @staticmethod
    def _unreachable(*args, **kwargs):
        raise AssertionError("reached past the size guard")

    def test_maxima_lie_far_above_every_test_and_benchmark_size(self):
        assert cli.MAX_STAGES >= 100 * workloads.MV_STAGES
        assert cli.MAX_PARTICLES >= 100 * workloads.N_PARTICLES

    @pytest.mark.parametrize("excess", [1, 10**12])
    def test_meanvariance_horizon_above_the_maximum(self, tmp_path, capsys, monkeypatch,
                                                    excess):
        monkeypatch.setattr("mfctrl.lq.mean_variance_model", self._unreachable)
        monkeypatch.setattr("mfctrl.lq.mean_variance_closed_form", self._unreachable)
        out = tmp_path / "mv.json"
        assert main(["meanvariance", "--gamma", "1", "--b", "0.5", "--sigma", "1", "--delta",
                     "1", "--n", str(cli.MAX_STAGES + excess), "--x0", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --n must be at most {cli.MAX_STAGES}")
        assert not out.exists()

    @pytest.mark.parametrize("excess", [1, 10**12])
    def test_simulate_particles_above_the_maximum(self, tmp_path, capsys, monkeypatch, excess):
        monkeypatch.setattr(cli, "_load_scenario", self._unreachable)
        monkeypatch.setattr("mfctrl.particles.simulate", self._unreachable)
        out = tmp_path / "sim.json"
        assert main(["simulate", _stage(tmp_path, "lq_mean_variance.json"), "--n-particles",
                     str(cli.MAX_PARTICLES + excess), "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --n-particles must be from 2")
        assert str(cli.MAX_PARTICLES) in err and not out.exists()

    @staticmethod
    def _finite_horizon_argv(tmp_path, command, horizon):
        data = json.loads(fixture_text("finite_zero.json"))
        data["model"]["horizon"] = horizon
        argv = [command, _scenario(tmp_path, data), "--out", str(tmp_path / "out.json")]
        return argv + (["--n-particles", "10", "--seed", "1", "--policy", "zero"]
                       if command == "simulate" else [])

    @pytest.mark.parametrize("command", ["solve-finite", "simulate"])
    @pytest.mark.parametrize("excess", [1, 10**12])
    def test_finite_horizon_above_the_maximum(self, tmp_path, capsys, monkeypatch, command,
                                              excess):
        monkeypatch.setattr(cli.dpp, "solve", self._unreachable)
        monkeypatch.setattr("mfctrl.particles.simulate", self._unreachable)
        horizon = cli.MAX_STAGES + excess
        assert main(self._finite_horizon_argv(tmp_path, command, horizon)) == 2
        assert capsys.readouterr().err == (f"config error: finite model field 'horizon' must "
                                           f"be at most {cli.MAX_STAGES}, got {horizon}\n")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["riccati", "simulate"])
    @pytest.mark.parametrize("excess", [1, 10**12])
    def test_mean_variance_scenario_horizon_above_the_maximum(self, tmp_path, capsys,
                                                              monkeypatch, command, excess):
        monkeypatch.setattr("mfctrl.lq.mean_variance_model", self._unreachable)
        monkeypatch.setattr("mfctrl.particles.simulate", self._unreachable)
        data = json.loads(fixture_text("lq_mean_variance.json"))
        n = data["model"]["n"] = cli.MAX_STAGES + excess
        out = tmp_path / "out.json"
        argv = [command, _scenario(tmp_path, data), "--out", str(out)]
        if command == "simulate":
            argv += ["--n-particles", "10", "--seed", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: mean-variance model field 'n' must be at "
                                f"most {cli.MAX_STAGES}, got {n}\n")
        assert captured.out == "" and not out.exists()

    def test_the_maxima_themselves_pass(self, tmp_path, capsys, monkeypatch):
        def reached(*args, **kwargs):
            raise ValueError("reached")

        monkeypatch.setattr("mfctrl.lq.mean_variance_model", reached)
        monkeypatch.setattr("mfctrl.particles.simulate", reached)
        monkeypatch.setattr(cli.dpp, "solve", reached)
        assert main(["meanvariance", "--gamma", "1", "--b", "0.5", "--sigma", "1", "--delta",
                     "1", "--n", str(cli.MAX_STAGES), "--x0", "1"]) == 2
        assert main(["simulate", _stage(tmp_path, "lq_mean_variance.json"), "--n-particles",
                     str(cli.MAX_PARTICLES), "--seed", "1", "--out",
                     str(tmp_path / "sim.json")]) == 2
        for command in ("solve-finite", "simulate"):
            assert main(self._finite_horizon_argv(tmp_path, command, cli.MAX_STAGES)) == 2
        data = json.loads(fixture_text("lq_mean_variance.json"))
        data["model"]["n"] = cli.MAX_STAGES
        assert main(["riccati", _scenario(tmp_path, data)]) == 2
        assert capsys.readouterr().err == "config error: reached\n" * 5


# -- CLI contract fuzz ---------------------------------------------------------

_REPLACEMENTS = [None, True, "x", -1, 0.5, [], {}, [[1.0]], [1.0, 2.0]]


def _json_paths(node, prefix=()):
    """Every path into a JSON tree, the root first."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _mutate(draw, data, rounds):
    """Drop, retype, NaN/Inf, empty or reshape ``rounds`` nodes of ``data``."""
    for _ in range(rounds):
        path = draw(st.sampled_from(list(_json_paths(data))))
        kind = draw(st.sampled_from(["drop", "retype", "nan", "empty", "reshape"]))
        if kind == "drop" and path:
            new = None
        elif kind == "retype":
            new = copy.deepcopy(draw(st.sampled_from(_REPLACEMENTS)))
        elif kind == "nan":
            new = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        elif kind == "empty":
            new = []
        else:
            old = data
            for key in path:
                old = old[key]
            new = copy.deepcopy(draw(st.sampled_from([
                [old], old[:-1] if isinstance(old, list) else old,
                old + old[-1:] if isinstance(old, list) and old else [old, old]])))
        if not path:
            data = new
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return data


@st.composite
def _mutated_scenarios(draw):
    name = draw(st.sampled_from(list_fixtures()))
    data = json.loads(fixture_text(name))
    data = _mutate(draw, data, draw(st.integers(1, 2)))
    finite = name.startswith(("finite_", "fo_"))
    command = draw(st.sampled_from(["solve-finite" if finite else "riccati", "simulate"]))
    return data, command, finite


def _strict(constant):
    raise ValueError(f"non-standard JSON token {constant}")


def _assert_contract(files, argv):
    """Run ``argv`` in a scratch directory holding ``files``: exit 0, 2 or 3,
    no traceback, every output strict JSON."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative output paths land here
        try:
            for name, data in files.items():
                with open(name, "w") as fh:
                    json.dump(data, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    np.errstate(all="ignore"):
                code = main(argv + ["--out", "out.json"])
            assert code in (0, 2, 3), (code, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 0:
                assert os.path.exists("out.json")
            for path in os.listdir("."):
                if path.endswith(".json") and path not in files:
                    with open(path) as fh:
                        json.load(fh, parse_constant=_strict)
            return code
        finally:
            os.chdir(cwd)


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_mutated_scenarios())
def test_cli_contract_on_mutated_fixtures(case):
    """Mutated shipped scenarios either succeed with strict-JSON output or fail
    with a config (2) or numerical (3) exit code, never with a traceback."""
    data, command, finite = case
    argv = [command, "scenario.json"]
    if command == "solve-finite":
        argv += ["--node-budget", "100000", "--trajectory-csv", "out.csv"]
    else:
        argv += ["--stages-csv", "out.csv"]
    if command == "simulate":
        argv += ["--n-particles", "20", "--seed", "1"]
        argv += ["--policy", "zero"] if finite else []
    _assert_contract({"scenario.json": data}, argv)


@functools.cache
def _finite_zero_tree_size():
    from conftest import load_finite
    from mfctrl import dpp
    return dpp.solve(*load_finite("finite_zero.json")).reachable_tree_size


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.integers(), st.integers(-3, 12),
                 st.sampled_from([0, -1, 2**63, -(2**63), 10**100, -(10**100)])))
def test_cli_contract_on_node_budget_flag(budget):
    """``solve-finite --node-budget`` on a small fixture: budgets below 1 exit 2,
    budgets below the tree size exit 3, and any larger budget solves it; a
    huge budget only lifts the cap, so nothing larger than the tree is built."""
    data = json.loads(fixture_text("finite_zero.json"))
    code = _assert_contract({"scenario.json": data},
                            ["solve-finite", "scenario.json", "--node-budget", str(budget)])
    assert code == (2 if budget < 1 else 3 if budget < _finite_zero_tree_size() else 0)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["lq_mean_variance.json", "lq_multivariate.json",
                        "finite_mean_reverting.json"]),
       st.one_of(st.integers(-3, 10**4), st.sampled_from([-(2**63), 0, 1, 2, 10**4])),
       st.one_of(st.integers(0, 2**32), st.integers(),
                 st.sampled_from([-1, 0, 2**64 - 1, 2**64, -(2**64)])))
def test_cli_contract_on_simulate_flags(name, n_particles, seed):
    """``simulate --n-particles/--seed`` on small fixtures, at most 10^4
    particles: counts below 2 and seeds outside [0, 2^64) exit 2, the rest run."""
    argv = ["simulate", "scenario.json", f"--n-particles={n_particles}", f"--seed={seed}"]
    argv += ["--policy", "zero"] if name.startswith("finite_") else []
    code = _assert_contract({"scenario.json": json.loads(fixture_text(name))}, argv)
    assert code == (0 if n_particles >= 2 and 0 <= seed < 2**64 else 2)


# three draws in four lie in the model's domain
_MV_FLOATS = st.one_of(*[st.floats(0.05, 4.0)] * 3, st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-200, 1e200, 1.7e308])))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({flag: _MV_FLOATS for flag in ("gamma", "b", "sigma", "delta",
                                                            "x0")}),
       st.one_of(st.integers(1, 1000), st.integers(-2, 0)))
def test_cli_contract_on_meanvariance_flags(params, n):
    """The ``meanvariance`` float flags, NaN and infinities included, at horizons
    of at most 10^3, keep the contract; parameters outside the model's domain
    exit 2 (so do those whose model coefficients overflow)."""
    argv = ["meanvariance", f"--n={n}"] + [f"--{flag}={value!r}" for flag, value in params.items()]
    code = _assert_contract({}, argv)
    if not (all(map(math.isfinite, params.values())) and n >= 1
            and min(params["gamma"], params["sigma"], params["delta"]) > 0):
        assert code == 2


@functools.lru_cache(maxsize=None)
def _policy_files():
    """The policy blocks ``riccati`` and ``solve-finite`` write for two fixtures."""
    with tempfile.TemporaryDirectory() as tmp:
        policies = {}
        for command, name, key in [("riccati", "lq_multivariate.json", "policy"),
                                   ("solve-finite", "finite_mean_reverting.json",
                                    "policy_sequence")]:
            cfg, out = os.path.join(tmp, name), os.path.join(tmp, "out.json")
            with open(cfg, "w") as fh:
                fh.write(fixture_text(name))
            assert main([command, cfg, "--out", out]) == 0
            with open(out) as fh:
                policy = json.load(fh)[key]
            policies[name] = policy[0] if command == "solve-finite" else policy
        return json.dumps(policies)


@st.composite
def _mutated_policies(draw):
    name = draw(st.sampled_from(["lq_multivariate.json", "finite_mean_reverting.json"]))
    policy = json.loads(_policy_files())[name]
    return name, _mutate(draw, policy, 1)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_mutated_policies())
def test_cli_contract_on_mutated_policy_files(case):
    """``simulate --policy`` on a mutated ``AffinePolicy`` or ``TabularMap`` file
    keeps the same contract as mutated scenarios."""
    name, policy = case
    _assert_contract({"scenario.json": json.loads(fixture_text(name)), "policy.json": policy},
                     ["simulate", "scenario.json", "--n-particles", "20", "--seed", "1",
                      "--policy", "policy.json"])


# -- JSON output layout --------------------------------------------------------

_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7, 0.1, 1.0 / 3.0]
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGE_FLOATS))


@st.composite
def _float_tensors(draw):
    """A rectangular tensor of depth 1-4, zero-length axes included: a nested
    list of floats or of ``np.float64``, or a float or int NumPy array."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    size = math.prod(shape)
    values = draw(st.lists(_FLOATS, min_size=size, max_size=size))
    tensor = np.array(values, dtype=float).reshape(shape)
    kind = draw(st.sampled_from(["floats", "np.float64", "array", "int array"]))
    if kind == "floats":
        return tensor.tolist()
    if kind == "np.float64":
        return tensor.astype(object).tolist()
    return tensor if kind == "array" else np.arange(size).reshape(shape)


_STRINGS = ["", "\u00e9\u4e2d\U0001f600", '"\\/\b\f\n\r\t\x00\x1f\x7f']
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS,
                     st.builds(np.float64, _FLOATS), st.builds(np.array, _FLOATS),
                     st.text(), st.sampled_from(_STRINGS))
_KEYS = st.one_of(st.text(), st.sampled_from(_STRINGS))
_PAYLOADS = st.recursive(
    st.one_of(_SCALARS, _float_tensors(), st.lists(st.one_of(st.integers(), _FLOATS))),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_KEYS, children, max_size=4)),
    max_leaves=12)


def _lists(value):
    """``value`` with each NumPy array replaced by its ``tolist()``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _lists(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_lists(item) for item in value]
    return value


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(payload=_PAYLOADS)
def test_json_writer_matches_the_standard_library(capsys, payload):
    text = json.dumps(_lists(payload), indent=2, allow_nan=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        with open(path, "w") as fh:
            cli._write_json(fh, payload)
        with open(path, "rb") as fh:
            assert fh.read() == text.encode("ascii")
    capsys.readouterr()
    cli._write_json(sys.stdout, payload)
    assert capsys.readouterr().out == text + "\n"


@pytest.mark.parametrize("payload", [{1: 0.5}, {"a": {None: 1}}, [(1.0, 2.0)]],
                         ids=["int key", "None key", "tuple"])
def test_json_writer_takes_only_str_keys_and_lists(payload):
    with pytest.raises(TypeError):
        cli._write_json(sys.stdout, payload)


def _fixture_runs():
    for name in list_fixtures():
        kind = json.loads(fixture_text(name))["kind"]
        if kind == "finite":
            yield name, ["solve-finite"]
            yield name, ["simulate", "--n-particles", "50", "--seed", "3", "--policy", "zero"]
        else:
            yield name, ["riccati", "--force"]
            yield name, ["simulate", "--n-particles", "50", "--seed", "3"]
        if kind == "meanvariance":
            yield name, ["meanvariance"]


@pytest.mark.parametrize("name, command", list(_fixture_runs()),
                         ids=lambda v: v if isinstance(v, str) else v[0])
def test_cli_outputs_keep_the_indent_2_layout(tmp_path, capsys, name, command):
    """Every output is exactly what ``json.dumps(..., indent=2, allow_nan=False)``
    makes of its own parse; standard output adds one newline."""
    cfg = _stage(tmp_path, name)
    if command[0] == "meanvariance":
        model = json.loads(fixture_text(name))["model"]
        argv = command + [a for key in ("gamma", "b", "sigma", "delta", "n", "x0")
                          for a in (f"--{key}", str(model[key]))]
    else:
        argv = command[:1] + [cfg] + command[1:]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, allow_nan=False)
    capsys.readouterr()
    assert main(argv + ["--out", "-"]) == 0
    assert capsys.readouterr().out == text + "\n"


def test_lq_outputs_are_the_to_json_payloads(tmp_path):
    """``riccati`` and ``meanvariance`` write their arrays as they reach them;
    the bytes are those of the ``to_json()`` lists."""
    model = LQModel.from_json(json.loads(fixture_text("lq_multivariate.json"))["model"])
    sol = solve_riccati(model)
    policy = optimal_policy(model, sol)
    expected = {"solution": sol.to_json(), "policy": policy.to_json(),
                "explicit_controls": explicit_control_coefficients(model, sol, policy).to_json(),
                "value_at_initial": value_at(sol, 0, (model.initial_mean, model.initial_cov))}
    out = tmp_path / "riccati.json"
    assert main(["riccati", _stage(tmp_path, "lq_multivariate.json"), "--out", str(out)]) == 0
    assert out.read_text() == json.dumps(expected, indent=2, allow_nan=False)

    params = {"gamma": 2.0, "b": 0.2, "sigma": 0.5, "delta": 0.1, "n": 5, "x0": 0.7}
    model = mean_variance_model(**params)
    closed = mean_variance_closed_form(*list(params.values())[:5])
    policy = optimal_policy(model, closed)
    expected = {"params": params, "solution": closed.to_json(), "policy": policy.to_json(),
                "explicit_controls": explicit_control_coefficients(model, closed,
                                                                   policy).to_json(),
                "value_at_initial": value_at(closed, 0, model.initial_measure)}
    out = tmp_path / "mv.json"
    assert main(["meanvariance", *(a for k, v in params.items() for a in (f"--{k}", str(v))),
                 "--out", str(out)]) == 0
    assert out.read_text() == json.dumps(expected, indent=2, allow_nan=False)
