"""The frontier DPP engine against the measure-space recursion it replaced.

:func:`mfctrl.dpp.solve` expands laws as weight vectors, with batched tag
formulas or a scalar adapter for plain callables.  Here it is held to the
recursion over ``DiscreteMeasure`` laws in ``dpp_reference``: same tree,
same argmin maps, same values.
"""

import dataclasses
import itertools
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "benchmarks"))

import workloads  # noqa: E402
from conftest import load_finite, random_classical_model, random_finite_model, random_initial_law
from dpp_reference import reference_solve
from mfctrl import dpp
from mfctrl.fixtures import list_fixtures
from mfctrl.measure import DiscreteMeasure, image_measure, pushforward
from mfctrl.model import FiniteMFModel, LawBatch, finite_model_from_config, lifted_stage_cost

FINITE_FIXTURES = sorted(name for name in list_fixtures() if name.startswith(("finite_", "fo_")))

MEAN_REVERTING = {"tag": "mean_reverting", "params": {"theta": 0.4, "eta": 0.35, "tau": 0.9}}
QUADRATIC_STAGE = {"tag": "quadratic", "params": {
    "qx": 0.3, "qm": 0.2, "qv": 0.1, "cxm": -0.2, "lx": 0.1,
    "ra": 0.2, "rm": 0.1, "cam": -0.3, "la": 0.05}}
QUADRATIC_TERMINAL = {"tag": "quadratic", "params": {"qx": 0.5, "qm": 0.1, "qv": 0.3,
                                                     "cxm": 0.2, "lx": -0.2}}
FO_BILINEAR = {"tag": "fo_bilinear", "params": {"t_xy": 0.3, "t_xx": -0.2, "t_yy": 0.4, "t_x": 0.1}}
FO_KERNEL = {"tag": "first_order", "params": {"beta0": 0.3, "beta_x": 0.1, "beta_y": 0.15,
                                              "beta_a": -0.05, "beta_b": 0.2}}


def _config(states, actions, kernel, stage_cost, terminal_cost, horizon=2):
    return {"states": states, "actions": actions, "horizon": horizon, "kernel": kernel,
            "stage_cost": stage_cost, "terminal_cost": terminal_cost}


STATES_2D = [[-1.0, 0.5], [0.0, 0.0], [1.0, -0.5]]
ACTIONS_2D = [[0.0, 0.0], [1.0, -1.0]]
TWO_D_CONFIGS = {
    "states_2d": _config(STATES_2D, [[0.0], [1.0]], MEAN_REVERTING, QUADRATIC_STAGE,
                         QUADRATIC_TERMINAL),
    "actions_2d": _config([[-1.0], [0.0], [1.0]], ACTIONS_2D, MEAN_REVERTING, QUADRATIC_STAGE,
                          QUADRATIC_TERMINAL),
}

# one model per tag formula, each tag in at least one of them
TAG_CONFIGS = {
    "identity-zero-zero": _config([[0.0], [1.0], [2.5]], [[0.0], [1.0]],
                                  {"tag": "identity"}, {"tag": "zero"}, {"tag": "zero"}),
    "table3-quadratic": _config(
        [[-1.0], [0.0], [1.0]], [[0.0], [1.0]],
        {"tag": "table", "params": {"rows": np.random.default_rng(1).dirichlet(
            np.ones(3), size=(3, 2)).tolist()}},
        QUADRATIC_STAGE, QUADRATIC_TERMINAL),
    "table4-zero": _config(
        [[0.0], [1.0]], [[-1.0], [0.0], [1.0]],
        {"tag": "table", "params": {"rows": np.random.default_rng(2).dirichlet(
            np.ones(2), size=(2, 2, 3)).tolist()}},
        {"tag": "zero"}, QUADRATIC_TERMINAL),
    "mean_reverting-2d": TWO_D_CONFIGS["states_2d"],
    "mean_reverting-actions-2d": TWO_D_CONFIGS["actions_2d"],
    "mean_clamp": _config([[0.0], [1.0]], [[0.0], [1.0]],
                          {"tag": "mean_clamp", "params": {"shift": 0.25}},
                          QUADRATIC_STAGE, QUADRATIC_TERMINAL),
    "first_order-fo_pinned": _config(
        [[0.0], [1.0]], [[0.0], [1.0]], FO_KERNEL,
        {"tag": "fo_pinned", "params": {"kappa": 1.5, "pinned": [1, 0], "p_xy": 0.2,
                                        "p_a": -0.1, "p_ay": 0.3, "p_x": 0.05}},
        FO_BILINEAR),
    "first_order-zero": _config([[0.0], [1.0]], [[0.0], [1.0]], FO_KERNEL, {"tag": "zero"},
                                FO_BILINEAR),
}


def _action_indices(model, result):
    return [model.policy_action_indices(p).tolist() for p in result.optimal_policy_sequence]


def assert_matches_reference(model, mu0):
    result = dpp.solve(model, mu0)
    ref = reference_solve(model, mu0)
    assert result.reachable_tree_size == ref.reachable_tree_size
    assert _action_indices(model, result) == _action_indices(model, ref)
    assert result.v0 == pytest.approx(ref.v0, abs=1e-12)
    assert set(result.value_cache) == set(ref.value_cache)
    for key, node in ref.value_cache.items():
        got = result.value_cache[key]
        assert got.stage == node.stage
        assert got.value == pytest.approx(node.value, abs=1e-12)
        if node.argmin_policy is None:
            assert got.argmin_policy is None
        else:
            assert np.array_equal(got.argmin_policy.values, node.argmin_policy.values)


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_fixture_matches_reference(name):
    assert_matches_reference(*load_finite(name))


def test_shipped_fixture_count():
    assert len(FINITE_FIXTURES) == 8


@pytest.mark.parametrize("seed", range(4))
def test_random_models_match_reference(seed):
    rng = np.random.default_rng(seed)
    model = random_finite_model(rng, 2 + seed % 2, 2, 2)
    assert_matches_reference(model, random_initial_law(rng, model))
    model = random_classical_model(rng, 3, 2, 2)
    assert_matches_reference(model, random_initial_law(rng, model))


@pytest.mark.parametrize("name", sorted(TWO_D_CONFIGS))
def test_two_dimensional_grids_match_reference(name):
    model = finite_model_from_config(TWO_D_CONFIGS[name])
    mu0 = DiscreteMeasure(model.states, [0.2, 0.3, 0.5])
    assert_matches_reference(model, mu0)


def test_mixed_batched_and_scalar_components_match_reference():
    # tag kernel and stage cost take the batched path, the lambda the adapter
    model, mu0 = load_finite("finite_mean_reverting.json")
    g = model.terminal_cost
    mixed = FiniteMFModel(model.states, model.actions, model.horizon, model.kernel,
                          model.stage_cost, lambda i, mu: g(i, mu) + 0.25 * i)
    assert not hasattr(mixed.terminal_cost, "batched")
    assert_matches_reference(mixed, mu0)


def test_value_nodes_hold_the_measure_of_their_key():
    model, mu0 = load_finite("finite_mean_reverting.json")
    result = dpp.solve(model, mu0)
    for (k, key), node in result.value_cache.items():
        assert node.measure.key_on_grid(model.states) == key
        assert node.stage == k
    assert result.node(0, mu0, model.states).value == result.v0


def test_solve_result_and_value_node_are_dataclasses():
    model, mu0 = load_finite("finite_mean_reverting.json")
    result = dpp.solve(model, mu0)
    assert [f.name for f in dataclasses.fields(result)] == [
        "v0", "optimal_policy_sequence", "reachable_tree_size", "value_cache"]
    assert [f.name for f in dataclasses.fields(dpp.ValueNode)] == [
        "stage", "measure", "value", "argmin_policy"]
    # equality and replace read the value cache like any other field
    copy = dataclasses.replace(result)
    assert copy == result and copy.value_cache is result.value_cache
    assert dataclasses.replace(result, value_cache={}) != result
    node = result.node(0, mu0, model.states)
    node.measure = mu0
    assert result.node(0, mu0, model.states).measure is mu0
    rebuilt = dpp.SolveResult(result.v0, result.optimal_policy_sequence,
                              result.reachable_tree_size, dict(result.value_cache))
    assert rebuilt == result


def test_one_step_lookup_holds_on_a_dpp_tree_scenario():
    # the one-step check recomputes each argmin child with the scalar pushforward
    # and finds its node by key, as `mfctrl verify` does
    scenario = workloads.tree_scenario(np.random.default_rng([401, 0]))
    model = finite_model_from_config(scenario["model"])
    mu0 = DiscreteMeasure.from_json(scenario["initial_law"])
    result = dpp.solve(model, mu0)
    assert result.reachable_tree_size == workloads.tree_bound(4, 2, 3)
    kern = model.transition_kernel()
    for (k, _key), node in result.value_cache.items():
        if node.argmin_policy is None:
            continue
        child = pushforward(node.measure, node.argmin_policy, kern, k)
        recomputed = (lifted_stage_cost(model, k, node.measure, node.argmin_policy)
                      + result.node(k + 1, child, model.states).value)
        assert node.value == pytest.approx(recomputed, abs=1e-12)


# ---------------------------------------------------------------------------
# batched tag formulas against their scalar callables
# ---------------------------------------------------------------------------

def _random_laws(rng, n_states, count=6):
    laws = rng.dirichlet(np.ones(n_states), size=count)
    laws[0] = np.eye(n_states)[0]              # a Dirac
    if n_states > 2:
        laws[1, 1] = 0.0                       # a law missing one state
    return laws / laws.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("name", sorted(TAG_CONFIGS))
def test_batched_forms_match_scalar_callables(name):
    model = finite_model_from_config(TAG_CONFIGS[name])
    S, M = model.n_states, model.n_actions
    maps = np.array(list(itertools.product(range(M), repeat=S)))
    laws = _random_laws(np.random.default_rng(11), S)
    weights = np.repeat(laws, len(maps), axis=0)
    action = np.tile(maps, (len(laws), 1))
    batch = LawBatch.of(model, weights, action)
    terminal = np.broadcast_to(model.terminal_cost.batched(LawBatch.of(model, laws)),
                               laws.shape)
    for k in range(model.horizon):
        rows = np.broadcast_to(model.kernel.batched(k, batch), (len(weights), S, S))
        costs = np.broadcast_to(model.stage_cost.batched(k, batch), (len(weights), S))
        for p, (w, a) in enumerate(zip(weights, action)):
            mu = DiscreteMeasure(model.states, w)
            lam = image_measure(mu, model.tabular_policy(a))
            for i in range(S):
                np.testing.assert_allclose(rows[p, i], model.kernel(k, i, mu, a[i], lam),
                                           rtol=0, atol=1e-12)
                assert costs[p, i] == pytest.approx(model.stage_cost(k, i, mu, a[i], lam),
                                                    abs=1e-12)
    for law, w in enumerate(laws):
        mu = DiscreteMeasure(model.states, w)
        for i in range(S):
            assert terminal[law, i] == pytest.approx(model.terminal_cost(i, mu), abs=1e-12)


# ---------------------------------------------------------------------------
# row checks, non-finite values, budgets
# ---------------------------------------------------------------------------

def _two_state_model(kernel=None, stage_cost=None):
    """Uniform start, one map class per action; the stage-1 law is (0.2, 0.8)."""
    states = np.array([[0.0], [1.0]])
    return FiniteMFModel(
        states, np.array([[0.0], [1.0]]), 2,
        kernel or (lambda k, i, mu, a, lam: np.array([0.2, 0.8])),
        stage_cost or (lambda k, i, mu, a, lam: 0.1 * a),
        lambda i, mu: float(i)), DiscreteMeasure(states, [0.5, 0.5])


def _off_validation_sample(mu):
    # validate samples Diracs and uniform laws only; the reachable (0.2, 0.8) is not among them
    return 0.6 < mu.weights_on_grid(np.array([[0.0], [1.0]]))[1] < 0.9


@pytest.mark.parametrize("bad_row", [np.array([0.9, 0.9]), np.array([1.2, -0.2]),
                                     np.array([0.2, 0.3, 0.5]), np.array([np.nan, 1.0])])
def test_callable_kernel_bad_row_on_supported_state_raises(bad_row):
    def kernel(k, i, mu, a, lam):
        return bad_row if _off_validation_sample(mu) else np.array([0.2, 0.8])

    model, mu0 = _two_state_model(kernel=kernel)
    with pytest.raises(ValueError, match="kernel row is not a probability vector at stage 1"):
        dpp.solve(model, mu0)


def test_bad_row_off_the_support_is_not_checked():
    # the stage-1 law has no mass on state 0 after this kernel, so its row there is unused
    def kernel(k, i, mu, a, lam):
        if mu.weights_on_grid(np.array([[0.0], [1.0]]))[0] == 0.0 and i == 0:
            return np.array([7.0, 7.0])
        return np.array([0.0, 1.0])

    model, mu0 = _two_state_model(kernel=kernel)
    result = dpp.solve(model, mu0, check_model=False)
    assert result.v0 == pytest.approx(1.0, abs=1e-15)


def test_batched_kernel_bad_row_raises():
    config = TAG_CONFIGS["table3-quadratic"]
    rows = np.array(config["kernel"]["params"]["rows"])
    rows[2, 1] = [0.5, 0.5, 0.5]
    config = config | {"kernel": {"tag": "table", "params": {"rows": rows.tolist()}}}
    model = finite_model_from_config(config)
    mu0 = DiscreteMeasure(model.states, [0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match="kernel row is not a probability vector at stage 0, "
                                         "state index 2"):
        dpp.solve(model, mu0, check_model=False)



def _with_batched(component, batched):
    def wrapped(*args):
        return component(*args)
    wrapped.batched = batched
    return wrapped


@pytest.mark.parametrize("part,batched", [
    ("kernel", lambda k, b: np.full(3, 1.0 / 3.0)),                  # one row for all states
    ("kernel", lambda k, b: np.full((1, 1, 3), 1.0 / 3.0)),          # state axis missing
    ("kernel", lambda k, b: 1.0 / 3.0),                              # a constant
    ("stage_cost", lambda k, b: np.zeros(3)),                        # pair axis missing
    ("terminal_cost", lambda b: np.zeros((1, 1))),                   # state axis missing
])
def test_batched_form_of_the_wrong_shape_raises(part, batched):
    model = finite_model_from_config(TAG_CONFIGS["table3-quadratic"])
    parts = {name: getattr(model, name) for name in ("kernel", "stage_cost", "terminal_cost")}
    parts[part] = _with_batched(parts[part], batched)
    model = FiniteMFModel(model.states, model.actions, model.horizon, **parts)
    mu0 = DiscreteMeasure(model.states, [0.2, 0.3, 0.5])
    name = part.replace("_", " ")
    with pytest.raises(ValueError, match=f"batched {name} has shape"):
        dpp.solve(model, mu0, check_model=False)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_candidate_raises_naming_the_stage(bad):
    def stage_cost(k, i, mu, a, lam):
        return bad if a == 1 and _off_validation_sample(mu) else 0.1 * a

    model, mu0 = _two_state_model(stage_cost=stage_cost)
    with pytest.raises(ValueError, match="non-finite candidate value at stage 1"):
        dpp.solve(model, mu0)


def test_budget_message_reports_the_full_tree_bound():
    model, mu0 = load_finite("finite_mean_reverting.json")   # S=3, M=2, n=3
    with pytest.raises(dpp.BudgetExceeded, match=r"worst-case bound 585 nodes"):
        dpp.solve(model, mu0, node_budget=10)


def test_budget_raises_iff_distinct_nodes_exceed_it():
    model, mu0 = load_finite("finite_mean_reverting.json")
    size = dpp.solve(model, mu0).reachable_tree_size
    assert dpp.solve(model, mu0, node_budget=size).reachable_tree_size == size
    with pytest.raises(dpp.BudgetExceeded):
        dpp.solve(model, mu0, node_budget=size - 1)
    with pytest.raises(dpp.BudgetExceeded):
        dpp.solve(model, mu0, node_budget=0)


def test_expansion_in_small_chunks_gives_the_same_tree(monkeypatch):
    model, mu0 = load_finite("finite_mean_reverting.json")
    whole = dpp.solve(model, mu0)
    monkeypatch.setattr(dpp, "EXPANSION_ENTRIES", 3 * model.n_states ** 2)
    chunked = dpp.solve(model, mu0)
    assert chunked.reachable_tree_size == whole.reachable_tree_size
    assert chunked.v0 == whole.v0
    assert {k: n.value for k, n in chunked.value_cache.items()} == \
        {k: n.value for k, n in whole.value_cache.items()}


# ---------------------------------------------------------------------------
# quantized keys
# ---------------------------------------------------------------------------

# adjacent doubles on either side of a 12-decimal rounding boundary
BELOW, ABOVE = 0.3000000000005, 0.30000000000050003


def _boundary_model(second_row_weight):
    rows = [[[BELOW, 1.0 - BELOW], [second_row_weight, 1.0 - second_row_weight]],
            [[0.5, 0.5], [0.5, 0.5]]]
    return finite_model_from_config(_config(
        [[0.0], [1.0]], [[0.0], [1.0]], {"tag": "table", "params": {"rows": rows}},
        {"tag": "quadratic", "params": {"ra": 0.1}},
        {"tag": "quadratic", "params": {"qx": 0.7, "qm": 2.0, "qv": 1.5}}, horizon=1))


def test_split_key_costs_a_duplicate_node_never_a_wrong_value():
    assert ABOVE - BELOW < 1e-16
    model = _boundary_model(ABOVE)
    mu0 = DiscreteMeasure(model.states, [1.0, 0.0])   # only state 0's action matters
    result = dpp.solve(model, mu0)
    leaves = [node for (k, _), node in result.value_cache.items() if k == 1]
    # the two children differ by one ulp but round to different keys: two nodes
    assert result.reachable_tree_size == 3 and len(leaves) == 2
    assert abs(leaves[0].value - leaves[1].value) <= 1e-12
    assert result.v0 == pytest.approx(dpp.brute_force_value(model, mu0), abs=1e-12)
    # with the same row under both actions the children share one key
    merged = dpp.solve(_boundary_model(BELOW), mu0)
    assert merged.reachable_tree_size == 2
    assert result.v0 == pytest.approx(merged.v0, abs=1e-12)
    assert_matches_reference(model, mu0)


def test_node_lookup_takes_the_neighbouring_key_of_a_law_off_by_one_ulp():
    model = _boundary_model(BELOW)
    mu0 = DiscreteMeasure(model.states, [1.0, 0.0])
    result = dpp.solve(model, mu0)
    (key, leaf), = [(key, node) for (k, key), node in result.value_cache.items() if k == 1]
    above = DiscreteMeasure(model.states, [ABOVE, 1.0 - ABOVE])
    assert (1, above.key_on_grid(model.states)) not in result.value_cache
    assert result.node(1, above, model.states) is leaf
    far = DiscreteMeasure(model.states, [BELOW + 1e-11, 1.0 - BELOW - 1e-11])
    with pytest.raises(KeyError):
        result.node(1, far, model.states)
