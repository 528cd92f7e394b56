import numpy as np
import pytest

from conftest import load_finite
from mfctrl.fixtures import list_fixtures
from mfctrl.measure import DiscreteMeasure
from mfctrl.model import (
    FiniteMFModel,
    finite_model_from_config,
    lifted_stage_cost,
    lifted_terminal_cost,
    validate,
)


def _simple_model(stage_cost, terminal_cost, states=(1.0, 3.0), actions=(0.0, 2.0)):
    states = np.asarray(states, dtype=float).reshape(-1, 1)
    S = len(states)
    return FiniteMFModel(
        states=states,
        actions=np.asarray(actions, dtype=float).reshape(-1, 1),
        horizon=2,
        kernel=lambda k, i, mu, a, lam: np.eye(S)[i],
        stage_cost=stage_cost,
        terminal_cost=terminal_cost,
    )


class TestLiftedCosts:
    def test_zero_cost(self):
        model = _simple_model(lambda k, i, mu, a, lam: 0.0, lambda i, mu: 0.0)
        mu = DiscreteMeasure(model.states, [0.5, 0.5])
        policy = model.tabular_policy([0, 1])
        assert lifted_stage_cost(model, 0, mu, policy) == 0.0

    def test_action_cost_reduces_to_image_mean(self):
        model = _simple_model(
            lambda k, i, mu, a, lam: float(model.actions[a][0]), lambda i, mu: 0.0)
        mu = DiscreteMeasure(model.states, [0.25, 0.75])
        policy = model.tabular_policy([0, 1])
        # actions are 0 and 2 with weights 0.25 / 0.75
        assert lifted_stage_cost(model, 0, mu, policy) == pytest.approx(1.5, abs=1e-15)

    def test_state_times_mean(self):
        model = _simple_model(
            lambda k, i, mu, a, lam: float(model.states[i][0] * mu.mean()[0]),
            lambda i, mu: 0.0)
        mu = DiscreteMeasure([1.0, 3.0], [0.5, 0.5])
        policy = model.tabular_policy([0, 0])
        assert lifted_stage_cost(model, 0, mu, policy) == pytest.approx(4.0, abs=1e-14)

    def test_stage_out_of_range(self):
        model = _simple_model(lambda k, i, mu, a, lam: 0.0, lambda i, mu: 0.0)
        mu = DiscreteMeasure(model.states, [0.5, 0.5])
        policy = model.tabular_policy([0, 0])
        with pytest.raises(ValueError, match="out of range"):
            lifted_stage_cost(model, 2, mu, policy)

    def test_terminal_constant(self):
        model = _simple_model(lambda k, i, mu, a, lam: 0.0, lambda i, mu: 4.25)
        mu = DiscreteMeasure(model.states, [0.3, 0.7])
        assert lifted_terminal_cost(model, mu) == pytest.approx(4.25, abs=1e-15)

    def test_terminal_square(self):
        model = _simple_model(lambda k, i, mu, a, lam: 0.0,
                              lambda i, mu: float(model.states[i][0] ** 2),
                              states=(-1.0, 1.0))
        mu = DiscreteMeasure(model.states, [0.5, 0.5])
        assert lifted_terminal_cost(model, mu) == pytest.approx(1.0, abs=1e-15)

    def test_terminal_centered_square_is_variance(self):
        model = _simple_model(
            lambda k, i, mu, a, lam: 0.0,
            lambda i, mu: float((model.states[i][0] - mu.mean()[0]) ** 2),
            states=(-1.0, 0.0, 2.0))
        mu = DiscreteMeasure(model.states, [0.2, 0.3, 0.5])
        assert lifted_terminal_cost(model, mu) == pytest.approx(1.56, abs=1e-14)

    def test_affine_in_mixture_when_costs_ignore_measures(self):
        model = _simple_model(
            lambda k, i, mu, a, lam: float(model.states[i][0] + model.actions[a][0] ** 2),
            lambda i, mu: 0.0)
        wa, wb, alpha = np.array([0.2, 0.8]), np.array([0.7, 0.3]), 0.35
        policy = model.tabular_policy([1, 0])
        mix = DiscreteMeasure(model.states, alpha * wa + (1 - alpha) * wb)
        lhs = lifted_stage_cost(model, 0, mix, policy)
        rhs = (alpha * lifted_stage_cost(model, 0, DiscreteMeasure(model.states, wa), policy)
               + (1 - alpha) * lifted_stage_cost(model, 0, DiscreteMeasure(model.states, wb),
                                                 policy))
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestValidate:
    def test_identity_chain_clean(self):
        model = _simple_model(lambda k, i, mu, a, lam: 0.0, lambda i, mu: 0.0)
        assert validate(model).ok

    def test_row_mass_violation(self):
        model = _simple_model(lambda k, i, mu, a, lam: 0.0, lambda i, mu: 0.0)
        bad = FiniteMFModel(model.states, model.actions, 1,
                            kernel=lambda k, i, mu, a, lam: np.array([0.5, 0.6]),
                            stage_cost=model.stage_cost,
                            terminal_cost=model.terminal_cost)
        report = validate(bad)
        assert not report.ok
        assert any(v["kind"] == "row_mass" for v in report.violations)

    def test_row_negative_violation(self):
        model = _simple_model(lambda k, i, mu, a, lam: 0.0, lambda i, mu: 0.0)
        bad = FiniteMFModel(model.states, model.actions, 1,
                            kernel=lambda k, i, mu, a, lam: np.array([1.1, -0.1]),
                            stage_cost=model.stage_cost,
                            terminal_cost=model.terminal_cost)
        report = validate(bad)
        assert any(v["kind"] == "row_negative" for v in report.violations)

    def test_all_shipped_fixtures_validate(self):
        names = [n for n in list_fixtures() if n.startswith(("finite_", "fo_"))]
        assert names
        for name in names:
            model, mu0 = load_finite(name)
            report = validate(model, extra_measures=[mu0])
            assert report.ok, f"{name}: {report.summary()}"


class TestConfig:
    def test_unknown_kernel_tag(self):
        with pytest.raises(ValueError, match="kernel tag"):
            finite_model_from_config({
                "states": [[0.0]], "actions": [[0.0]], "horizon": 1,
                "kernel": {"tag": "nope"},
                "stage_cost": {"tag": "zero"},
                "terminal_cost": {"tag": "zero"}})

    def test_first_order_betas_must_stay_in_unit_interval(self):
        with pytest.raises(ValueError, match="leaves"):
            finite_model_from_config({
                "states": [[0.0], [1.0]], "actions": [[0.0], [1.0]], "horizon": 1,
                "kernel": {"tag": "first_order",
                           "params": {"beta0": 0.9, "beta_x": 0.2, "beta_y": 0.0,
                                      "beta_a": 0.0, "beta_b": 0.0}},
                "stage_cost": {"tag": "zero"},
                "terminal_cost": {"tag": "fo_bilinear", "params": {}}})

    def test_table_kernel_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            finite_model_from_config({
                "states": [[0.0], [1.0]], "actions": [[0.0]], "horizon": 1,
                "kernel": {"tag": "table", "params": {"rows": [[[1.0]]]}},
                "stage_cost": {"tag": "zero"},
                "terminal_cost": {"tag": "zero"}})

    def test_stage_indexed_table_must_match_horizon(self):
        row = [[0.5, 0.5], [0.5, 0.5]]
        with pytest.raises(ValueError, match="stage blocks"):
            finite_model_from_config({
                "states": [[0.0], [1.0]], "actions": [[0.0], [1.0]], "horizon": 3,
                "kernel": {"tag": "table", "params": {"rows": [[row, row]] * 2}},
                "stage_cost": {"tag": "zero"},
                "terminal_cost": {"tag": "zero"}})

    def test_horizon_positive(self):
        with pytest.raises(ValueError, match="horizon"):
            finite_model_from_config({
                "states": [[0.0]], "actions": [[0.0]], "horizon": 0,
                "kernel": {"tag": "identity"},
                "stage_cost": {"tag": "zero"},
                "terminal_cost": {"tag": "zero"}})

    def test_first_order_fixture_roundtrips_kernel_and_pairwise_form(self):
        model, mu0 = load_finite("fo_coupled_costs.json")
        fo = model.first_order
        lam = DiscreteMeasure(model.actions, [0.4, 0.6])
        # mixing the pairwise kernel over y against mu reproduces the model kernel
        for i in range(2):
            for a in range(2):
                mixed = sum(w * fo.ptilde(0, i, iy, a, 0)
                            for iy, w in enumerate(mu0.weights_on_grid(model.states)))
                np.testing.assert_allclose(
                    mixed, model.kernel(0, i, mu0, a, lam), atol=1e-14)


@pytest.mark.parametrize("field", ["states", "actions"])
def test_coinciding_grid_points_rejected(field):
    grids = {"states": [[-1.0], [0.0], [1.0]], "actions": [[0.0], [1.0]]}
    grids[field] = grids[field] + [[1e-10]]
    with pytest.raises(ValueError, match=f"{field} .* coincide"):
        FiniteMFModel(grids["states"], grids["actions"], 1,
                      lambda k, i, mu, a, lam: np.full(len(grids["states"]),
                                                       1.0 / len(grids["states"])),
                      lambda k, i, mu, a, lam: 0.0, lambda i, mu: 0.0)
