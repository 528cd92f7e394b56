import numpy as np
import pytest

from conftest import load_finite
from mfctrl import dpp
from mfctrl.model import FiniteMFModel, FirstOrderSpec, lifted_terminal_cost

FO_FIXTURES = ("fo_coupled_costs.json", "fo_degenerate.json", "fo_kernel_coupled.json")


def test_terminal_tensor_with_state_only_pair_cost():
    # pairwise terminal cost depending on the first argument only: the stage-n
    # tensor is x itself and its integral is the mean
    model, mu0 = load_finite("fo_degenerate.json")
    fo = model.first_order
    spec = FirstOrderSpec(ptilde=fo.ptilde, ftilde=fo.ftilde,
                          gtilde=lambda ix, iy: float(model.states[ix][0]))
    probe = FiniteMFModel(model.states, model.actions, model.horizon, model.kernel,
                          model.stage_cost,
                          lambda i, mu: float(model.states[i][0]),
                          first_order=spec)
    tensor = dpp.first_order_value_tensors(probe)[probe.horizon]
    np.testing.assert_allclose(tensor, [[0.0, 0.0], [1.0, 1.0]], atol=1e-15)
    integral = dpp._integrate_tensor(tensor, mu0.weights_on_grid(model.states))
    assert integral == pytest.approx(float(mu0.mean()[0]), abs=1e-15)
    assert integral == pytest.approx(lifted_terminal_cost(probe, mu0), abs=1e-15)


def test_tensor_shapes():
    model, _ = load_finite("fo_coupled_costs.json")
    tensors = dpp.first_order_value_tensors(model)
    n, S = model.horizon, model.n_states
    for k, tensor in enumerate(tensors):
        assert tensor.shape == (S,) * (2 ** (n - k + 1))


@pytest.mark.parametrize("name", FO_FIXTURES)
def test_fixture_discrepancy_below_tolerance_at_every_stage(name):
    model, mu0 = load_finite(name)
    report = dpp.first_order_check(model, mu0)
    assert set(report.per_stage) == set(range(model.horizon + 1))
    for stage, disc in report.per_stage.items():
        assert disc <= 1e-10, f"{name} stage {stage}: {disc:.3e}"


def test_degenerate_fixture_reduces_to_classical():
    # no pair coupling in kernel or terminal cost: the classical per-state
    # table must integrate to the same values
    model, mu0 = load_finite("fo_degenerate.json")
    classical = FiniteMFModel(model.states, model.actions, model.horizon,
                              model.kernel, model.stage_cost, model.terminal_cost,
                              mean_field_free=True)
    report = dpp.classical_factorization_check(classical, mu0)
    assert report.max_discrepancy <= 1e-12


def test_refuses_model_without_decomposition():
    model, mu0 = load_finite("finite_mean_reverting.json")
    with pytest.raises(ValueError, match="first-order"):
        dpp.first_order_check(model, mu0)


def test_size_guard():
    model, mu0 = load_finite("fo_coupled_costs.json")
    big = FiniteMFModel(model.states, model.actions, 4, model.kernel,
                        model.stage_cost, model.terminal_cost,
                        first_order=model.first_order)
    with pytest.raises(dpp.BudgetExceeded):
        dpp.first_order_value_tensors(big)
