import dataclasses
import itertools

import numpy as np
import pytest

from conftest import load_finite
from mfctrl import dpp
from mfctrl.measure import DiscreteMeasure
from mfctrl.fixtures import list_fixtures, load_fixture
from mfctrl.model import FiniteMFModel, finite_model_from_config, lifted_terminal_cost

FO_FIXTURES = ("fo_coupled_costs.json", "fo_degenerate.json", "fo_kernel_coupled.json")


@pytest.mark.parametrize("name", FO_FIXTURES)
def test_components_are_double_mixtures_of_their_dirac_values(name):
    # the first-order case: each component at (mu, lam) is the mixture over
    # y ~ mu and b ~ lam of its value at the Dirac laws, the pairwise form
    # that first_order_value_tensors reads
    model, mu0 = load_finite(name)
    ys, bs = ([DiscreteMeasure.dirac(p) for p in grid] for grid in (model.states, model.actions))
    rng = np.random.default_rng(5)
    laws = [mu0.weights_on_grid(model.states), np.eye(2)[1]] + list(rng.dirichlet([1, 1], 2))
    for wy, wb in itertools.product(laws, laws):
        mu, lam = DiscreteMeasure(model.states, wy), DiscreteMeasure(model.actions, wb)
        for k, i, a in itertools.product(range(model.horizon), range(2), range(2)):
            pairs = [(wy[y] * wb[b], ys[y], bs[b]) for y in range(2) for b in range(2)]
            np.testing.assert_allclose(sum(w * model.kernel(k, i, y, a, b) for w, y, b in pairs),
                                       model.kernel(k, i, mu, a, lam), rtol=0, atol=1e-14)
            assert sum(w * model.stage_cost(k, i, y, a, b) for w, y, b in pairs) == \
                pytest.approx(model.stage_cost(k, i, mu, a, lam), rel=0, abs=1e-14)
        for i in range(2):
            assert sum(wy[y] * model.terminal_cost(i, ys[y]) for y in range(2)) == \
                pytest.approx(model.terminal_cost(i, mu), rel=0, abs=1e-14)


@pytest.mark.parametrize("name", [n for n in list_fixtures() if n.startswith(("fo_", "finite_"))])
def test_a_config_is_first_order_exactly_with_the_first_order_kernel(name):
    data = load_fixture(name)
    model = finite_model_from_config(data["model"])
    assert model.first_order is (data["model"]["kernel"]["tag"] == "first_order")
    assert model.first_order is name.startswith("fo_")


def test_terminal_tensor_with_state_only_pair_cost():
    # pairwise terminal cost depending on the first argument only: the stage-n
    # tensor is x itself and its integral is the mean
    model, mu0 = load_finite("fo_degenerate.json")
    probe = FiniteMFModel(model.states, model.actions, model.horizon, model.kernel,
                          model.stage_cost,
                          lambda i, mu: float(model.states[i][0]),
                          first_order=True)
    tensor = dpp.first_order_value_tensors(probe)[probe.horizon]
    np.testing.assert_allclose(tensor, [[0.0, 0.0], [1.0, 1.0]], atol=1e-15)
    integral = dpp._integrate_tensor(tensor, mu0.weights_on_grid(model.states))
    assert integral == pytest.approx(float(mu0.mean()[0]), abs=1e-15)
    assert integral == pytest.approx(lifted_terminal_cost(probe, mu0), abs=1e-15)


def test_a_model_wrongly_declared_first_order_fails_the_check():
    # Var(mu) is no mixture of its Dirac values, which all vanish: the tensor
    # recursion then misses the variance term, and the check shows the gap
    model, mu0 = load_finite("fo_coupled_costs.json")
    assert dpp.first_order_check(model, mu0).max_discrepancy <= 1e-15
    planted = dataclasses.replace(model, terminal_cost=lambda i, mu: mu.variance_form(1.0))
    assert dpp.first_order_check(planted, mu0).max_discrepancy > 0.1


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
