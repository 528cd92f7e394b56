import numpy as np
import pytest

from conftest import (load_finite, node_key, random_classical_model, random_finite_model,
                      random_initial_law)
from mfctrl import dpp
from mfctrl.measure import DiscreteMeasure, pushforward
from mfctrl.model import FiniteMFModel, lifted_stage_cost


def test_zero_costs_value_zero_and_lexicographic_argmin():
    model, mu0 = load_finite("finite_zero.json")
    result = dpp.solve(model, mu0)
    assert result.v0 == 0.0
    # every policy optimal: the first map in lexicographic order must be returned
    for policy in result.optimal_policy_sequence:
        assert np.array_equal(model.policy_action_indices(policy), [0, 0, 0])


def test_one_step_no_interaction_matches_classical_formula(rng):
    model = random_classical_model(rng, 3, 2, 1)
    mu0 = random_initial_law(rng, model)
    result = dpp.solve(model, mu0)
    mu = DiscreteMeasure.uniform(model.states)
    lam = DiscreteMeasure.uniform(model.actions)
    expected = 0.0
    for i, w in enumerate(mu0.weights_on_grid(model.states)):
        best = min(
            model.stage_cost(0, i, mu, a, lam)
            + np.asarray(model.kernel(0, i, mu, a, lam))
            @ [model.terminal_cost(j, mu) for j in range(model.n_states)]
            for a in range(model.n_actions))
        expected += w * best
    assert result.v0 == pytest.approx(expected, abs=1e-12)


def test_mean_reverting_fixture_matches_brute_force():
    model, mu0 = load_finite("finite_mean_reverting.json")
    result = dpp.solve(model, mu0)
    assert result.v0 == pytest.approx(dpp.brute_force_value(model, mu0), abs=1e-10)


def test_rollforward_reproduces_v0():
    model, mu0 = load_finite("finite_mean_reverting.json")
    result = dpp.solve(model, mu0)
    cost, trajectory = dpp.rollforward(model, mu0, result.optimal_policy_sequence)
    assert cost == pytest.approx(result.v0, abs=1e-12)
    assert len(trajectory) == model.horizon + 1


def test_tree_nodes_satisfy_one_step_recursion():
    model, mu0 = load_finite("finite_mean_reverting.json")
    result = dpp.solve(model, mu0)
    assert len(result.laws) == len(result.values) == len(result.maps) + 1 == model.horizon + 1
    for k, (laws, values, maps) in enumerate(zip(result.laws, result.values, result.maps)):
        # the scalar pushforward of each argmin child rounds to the key of a node
        rows = {node_key(law): row for row, law in enumerate(result.laws[k + 1])}
        for law, value, acts in zip(laws, values,
                                    dpp._map_actions(maps, model.n_states, model.n_actions)):
            mu, policy = DiscreteMeasure(model.states, law), model.tabular_policy(acts)
            child = pushforward(mu, policy, model, k).weights_on_grid(model.states)
            child_value = result.values[k + 1][rows[node_key(child)]]
            recomputed = lifted_stage_cost(model, k, mu, policy) + child_value
            assert value == pytest.approx(recomputed, abs=1e-12)


def test_constant_terminal_shift_moves_value_exactly():
    model, mu0 = load_finite("finite_mean_reverting.json")
    shift = 0.8125
    shifted = FiniteMFModel(
        model.states, model.actions, model.horizon, model.kernel, model.stage_cost,
        lambda i, mu: model.terminal_cost(i, mu) + shift)
    assert dpp.solve(shifted, mu0).v0 == pytest.approx(
        dpp.solve(model, mu0).v0 + shift, abs=1e-12)


def test_random_policy_sequences_are_suboptimal(rng):
    model, mu0 = load_finite("finite_mean_reverting.json")
    v0 = dpp.solve(model, mu0).v0
    for _ in range(100):
        seq = [model.tabular_policy(rng.integers(0, model.n_actions, model.n_states))
               for _ in range(model.horizon)]
        cost, _ = dpp.rollforward(model, mu0, seq)
        assert cost >= v0 - 1e-10


def test_node_budget_enforced():
    model, mu0 = load_finite("finite_mean_reverting.json")
    with pytest.raises(dpp.BudgetExceeded, match="node budget"):
        dpp.solve(model, mu0, node_budget=3)


def test_brute_force_cap_enforced(monkeypatch):
    model, mu0 = load_finite("finite_mean_reverting.json")
    monkeypatch.setattr(dpp, "ENUMERATION_CAP", 10)
    with pytest.raises(dpp.BudgetExceeded, match="cap 10$"):
        dpp.brute_force_value(model, mu0)


def test_solve_rejects_invalid_model():
    states = np.array([[0.0], [1.0]])
    bad = FiniteMFModel(states, np.array([[0.0]]), 1,
                        kernel=lambda k, i, mu, a, lam: np.array([0.7, 0.7]),
                        stage_cost=lambda k, i, mu, a, lam: 0.0,
                        terminal_cost=lambda i, mu: 0.0)
    with pytest.raises(ValueError, match="invalid model"):
        dpp.solve(bad, DiscreteMeasure(states, [0.5, 0.5]))


_TWO_STATES = np.array([[0.0], [1.0]])


def _two_state_model(actions, kernel, stage_cost=lambda k, i, mu, a, lam: 0.0,
                     terminal_cost=lambda i, mu: 0.0):
    return FiniteMFModel(_TWO_STATES, np.array(actions), 1, kernel, stage_cost, terminal_cost)


def _pole(i, mu):
    """A terminal cost infinite only at a law of mean 0.75."""
    with np.errstate(divide="ignore"):
        return 1.0 / (mu.mean()[0] - 0.75)


def test_oracles_check_a_kernel_row_by_the_engines_rule():
    model = _two_state_model([[0.0]], lambda k, i, mu, a, lam: np.array([0.5, 0.5]) if i == 0
                             else np.array([np.nan, np.nan]))
    mu0, named = DiscreteMeasure.uniform(_TWO_STATES), "stage 0, state index 1$"
    with pytest.raises(ValueError, match="stage 0 state 1: row mass nan"):
        dpp.solve(model, mu0)
    with pytest.raises(ValueError, match=f"^kernel row is not a probability vector at {named}"):
        dpp.rollforward(model, mu0, [model.tabular_policy([0, 0])])
    with pytest.raises(ValueError, match=f"^kernel row is not a probability vector at {named}"):
        dpp.brute_force_value(model, mu0)


@pytest.mark.parametrize("case", ["stage-cost", "terminal-cost"])
def test_oracles_refuse_a_non_finite_lifted_cost(case):
    mu0 = DiscreteMeasure.uniform(_TWO_STATES)
    if case == "stage-cost":   # NaN at state 1 under action 1, which solve's validate sees
        model = _two_state_model([[0.0], [1.0]], lambda k, i, mu, a, lam: np.eye(2)[i],
                                 lambda k, i, mu, a, lam: np.nan if (i, a) == (1, 1) else 0.0)
        solved, refused = "invalid model: .*non-finite stage cost", "stage cost at stage 0"
        sequence = [model.tabular_policy([0, 1])]
    else:                      # infinite only at the stage-1 law, mean 0.75
        model = _two_state_model([[0.0]], lambda k, i, mu, a, lam: np.array([0.25, 0.75]),
                                 terminal_cost=_pole)
        solved, refused = "^non-finite terminal value at stage 1$", "terminal cost at stage 1"
        sequence = [model.tabular_policy([0, 0])]
    with pytest.raises(ValueError, match=solved):
        dpp.solve(model, mu0)
    for oracle in (lambda: dpp.rollforward(model, mu0, sequence),
                   lambda: dpp.brute_force_value(model, mu0)):
        with pytest.raises(ValueError, match=f"^non-finite lifted {refused}$"):
            oracle()


def test_rollforward_needs_one_map_per_stage():
    model, mu0 = load_finite("finite_mean_reverting.json")
    policy = model.tabular_policy([0] * model.n_states)
    with pytest.raises(ValueError, match=f"^need {model.horizon} maps, got 1$"):
        dpp.rollforward(model, mu0, [policy])


def test_randomized_models_solve_equals_brute_force(rng):
    for trial in range(4):
        model = random_finite_model(rng, 3 if trial % 2 else 2, 2, 2)
        mu0 = random_initial_law(rng, model)
        res = dpp.solve(model, mu0)
        assert res.v0 == pytest.approx(dpp.brute_force_value(model, mu0), abs=1e-10)
        cost, _ = dpp.rollforward(model, mu0, res.optimal_policy_sequence)
        assert cost == pytest.approx(res.v0, abs=1e-12)


class TestClassicalFactorization:
    def test_identity_square_terminal(self):
        # terminal x^2, no running cost: value 1 and zero discrepancy
        model, mu0 = load_finite("finite_classical_chain.json")
        report = dpp.classical_factorization_check(model, mu0)
        assert report.max_discrepancy <= 1e-12
        assert dpp.solve(model, mu0).v0 == pytest.approx(1.0, abs=1e-14)

    def test_table_fixture(self):
        model, mu0 = load_finite("finite_classical_table.json")
        assert dpp.classical_factorization_check(model, mu0).max_discrepancy <= 1e-12

    def test_random_no_interaction_models(self, rng):
        for _ in range(3):
            model = random_classical_model(rng, 3, 2, 3)
            mu0 = random_initial_law(rng, model)
            assert dpp.classical_factorization_check(model, mu0).max_discrepancy <= 1e-12

    def test_refuses_interacting_model(self):
        model, mu0 = load_finite("finite_mean_reverting.json")
        with pytest.raises(ValueError, match="refusing"):
            dpp.classical_factorization_check(model, mu0)
