import json

import numpy as np
import pytest

from mfctrl.cli import main
from mfctrl.fixtures import fixture_text
from mfctrl.lq import (
    AffinePolicy,
    RiccatiSolution,
    mean_variance_closed_form,
    mean_variance_model,
    optimal_policy,
    solve_riccati,
)
from mfctrl.particles import SimulationResult


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
        # the artifact holds the closed form; re-parsing must be bit-exact
        out = tmp_path / "mv.json"
        assert main(["meanvariance", "--gamma", "2", "--b", "0.2", "--sigma", "0.5",
                     "--delta", "0.1", "--n", "5", "--x0", "0.7",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        sol = RiccatiSolution.from_json(payload["solution"])
        model = mean_variance_model(2.0, 0.2, 0.5, 0.1, 5, 0.7)
        closed = mean_variance_closed_form(2.0, 0.2, 0.5, 0.1, 5)
        for name in ("var_weight", "mean_weight", "linear", "constant"):
            assert np.array_equal(getattr(sol, name), getattr(closed, name))
        pol = AffinePolicy.from_json(payload["policy"])
        direct_pol = optimal_policy(model, closed)
        assert np.array_equal(pol.gain_state, direct_pol.gain_state)
        assert np.array_equal(pol.offset, direct_pol.offset)
        # and the recursion agrees with the closed form to tolerance
        direct = solve_riccati(model)
        for name in ("var_weight", "mean_weight", "linear", "constant"):
            np.testing.assert_allclose(getattr(sol, name), getattr(direct, name),
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
        from mfctrl.measure import DiscreteMeasure, TabularMap

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

    @pytest.mark.parametrize("flag, run_budget", [("0", None), ("-5", None), (None, 0)])
    def test_budget_below_one_is_config_error(self, tmp_path, capsys, flag, run_budget):
        data = json.loads(fixture_text("finite_mean_reverting.json"))
        if run_budget is not None:
            data["run"] = {"node_budget": run_budget}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "x.json"
        argv = ["solve-finite", str(cfg), "--out", str(out)]
        if flag is not None:
            argv += ["--node-budget", flag]
        assert main(argv) == 2
        assert "node budget must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("states, actions", [
        ([[-1.0, 0.5], [0.0, 0.0], [1.0, -0.5]], [[0.0], [1.0]]),
        ([[-1.0], [0.0], [1.0]], [[0.0, 0.0], [1.0, -1.0]]),
    ], ids=["states_2d", "actions_2d"])
    def test_multi_coordinate_grids(self, tmp_path, states, actions):
        from mfctrl import dpp
        from mfctrl.measure import DiscreteMeasure
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
        from mfctrl.lq import LQModel
        model = LQModel.from_json(json.loads(fixture_text("lq_multivariate.json"))["model"])
        direct = solve_riccati(model)
        sol = RiccatiSolution.from_json(payload["solution"])
        for name in ("var_weight", "mean_weight", "linear", "constant",
                     "dev_hessian", "mean_hessian", "dev_cross", "mean_cross",
                     "mean_transition"):
            assert np.array_equal(getattr(sol, name), getattr(direct, name)), name
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
        result = SimulationResult.from_json(json.loads(out.read_text()))
        assert abs(result.estimate - (-1.28125)) <= 4 * result.std_error

    def test_deterministic_given_seed(self, tmp_path):
        cfg = _stage(tmp_path, "lq_mean_variance.json")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["simulate", cfg, "--n-particles", "3000", "--seed", "11",
                         "--out", str(out)]) == 0
        assert out1.read_text() == out2.read_text()

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

    def test_riccati_policy_invalid_for_finite(self, tmp_path):
        cfg = _stage(tmp_path, "finite_mean_clamp.json")
        assert main(["simulate", cfg, "--n-particles", "10", "--seed", "1",
                     "--out", str(tmp_path / "x.json")]) == 2


def test_run_block_output_paths(tmp_path):
    data = json.loads(fixture_text("finite_zero.json"))
    out = tmp_path / "from_config.json"
    csv_path = tmp_path / "from_config.csv"
    data["run"] = {"outputs": {"json": str(out), "csv": str(csv_path)}}
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(data))
    assert main(["solve-finite", str(cfg)]) == 0
    assert json.loads(out.read_text())["v0"] == 0.0
    assert csv_path.exists()


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_non_finite_output_is_numerical_failure_and_writes_nothing(tmp_path, capsys, to_file):
    out = tmp_path / "mv.json"
    code = main(["meanvariance", "--gamma", "1", "--b", "0.5", "--sigma", "1",
                 "--delta", "1", "--n", "2", "--x0", "nan",
                 "--out", str(out) if to_file else "-"])
    assert code == 3
    captured = capsys.readouterr()
    assert "not finite" in captured.err and "Traceback" not in captured.err
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


def test_verify_quick_passes(capsys):
    assert main(["verify", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out
