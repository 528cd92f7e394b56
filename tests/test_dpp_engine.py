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
import tracemalloc

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "benchmarks"))

import workloads  # noqa: E402
from conftest import (load_finite, node_key, random_classical_model, random_finite_model,
                      random_initial_law, scalar_only)
from dpp_reference import reference_node_order, reference_solve
from mfctrl import dpp, verify
from mfctrl import model as mfctrl_model
from mfctrl.fixtures import list_fixtures
from mfctrl.measure import DiscreteMeasure, image_measure
from mfctrl.model import (FiniteMFModel, LawBatch, ValidationReport, evaluate,
                          finite_model_from_config, sum_last)

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


def _nodes(result, k):
    """Stage ``k``'s nodes as key -> (value, number of the minimizing map)."""
    maps = result.maps[k].tolist() if k < len(result.maps) else [None] * len(result.laws[k])
    nodes = {node_key(law): (value, m)
             for law, value, m in zip(result.laws[k], result.values[k].tolist(), maps)}
    assert len(nodes) == len(result.laws[k])   # no two nodes share a key
    return nodes


def assert_matches_reference(model, mu0):
    result = dpp.solve(model, mu0)
    ref = reference_solve(model, mu0)
    assert result.reachable_tree_size == ref.reachable_tree_size
    assert _action_indices(model, result) == _action_indices(model, ref)
    assert result.v0 == pytest.approx(ref.v0, abs=1e-12)
    assert len(result.optimal_law_path) == model.horizon + 1
    np.testing.assert_allclose(result.optimal_law_path, ref.optimal_law_path, rtol=0, atol=1e-12)
    assert len(result.laws) == len(result.values) == len(ref.laws) == model.horizon + 1
    assert len(result.maps) == len(ref.maps) == model.horizon
    for k in range(model.horizon + 1):
        got, expected = _nodes(result, k), _nodes(ref, k)
        assert got.keys() == expected.keys()
        for key, (value, m) in expected.items():
            assert got[key][0] == pytest.approx(value, abs=1e-12)
            assert got[key][1] == m


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


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_scalar_only_components_match_reference(name):
    # every component through the scalar adapter
    model, mu0 = load_finite(name)
    assert_matches_reference(scalar_only(model), mu0)


def test_stage_arrays_hold_one_row_per_node_and_the_optimal_path():
    model, mu0 = load_finite("finite_mean_reverting.json")
    result = dpp.solve(model, mu0)
    S, M, n = model.n_states, model.n_actions, model.horizon
    for k, (laws, values) in enumerate(zip(result.laws, result.values)):
        assert laws.shape == (len(values), S) and values.shape == (len(laws),)
        assert not laws.flags.writeable
        assert np.all(laws >= 0) and np.allclose(laws.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        if k < n:
            assert result.maps[k].shape == values.shape
            assert np.all((0 <= result.maps[k]) & (result.maps[k] < M ** S))
    assert result.laws[0].tobytes() == mu0.weights_on_grid(model.states).tobytes()
    assert result.node_at(0, mu0.weights_on_grid(model.states)) == 0
    assert result.values[0][0] == result.v0
    # the law path visits node rows, and the optimal maps are their argmin maps
    for k, weights in enumerate(result.optimal_law_path):
        row = result.node_at(k, weights)
        assert result.laws[k][row].tobytes() == weights.tobytes()
        if k < n:
            assert dpp._map_actions(result.maps[k][row:row + 1], S, M)[0].tolist() == \
                model.policy_action_indices(result.optimal_policy_sequence[k]).tolist()


def test_solve_result_is_a_dataclass():
    model, mu0 = load_finite("finite_mean_reverting.json")
    result = dpp.solve(model, mu0)
    assert [f.name for f in dataclasses.fields(result)] == [
        "v0", "optimal_policy_sequence", "optimal_law_path", "reachable_tree_size",
        "laws", "values", "maps"]
    # replace keeps the stage arrays; a result compares by identity, never by its arrays
    copy = dataclasses.replace(result)
    assert copy != result and copy == copy
    assert all(getattr(copy, f.name) is getattr(result, f.name)
               for f in dataclasses.fields(result))
    rebuilt = dpp.SolveResult(result.v0, result.optimal_policy_sequence,
                              result.optimal_law_path, result.reachable_tree_size,
                              list(result.laws), list(result.values), list(result.maps))
    for name in ("laws", "values", "maps"):
        pairs = zip(getattr(rebuilt, name), getattr(result, name), strict=True)
        assert all(a is b for a, b in pairs)


def test_one_step_lookup_holds_on_a_dpp_tree_scenario():
    # the one-step check of `mfctrl verify` recomputes each argmin child with
    # the scalar pushforward and finds its node with `node_at`
    scenario = workloads.tree_scenario(np.random.default_rng([401, 0]))
    model = finite_model_from_config(scenario["model"])
    mu0 = DiscreteMeasure.from_json(scenario["initial_law"])
    assert dpp.solve(model, mu0).reachable_tree_size == workloads.tree_bound(4, 2, 3)
    assert verify.one_step_gap(model, mu0) <= 1e-12


@pytest.mark.parametrize("case", FINITE_FIXTURES + [f"{w}:{seed}" for w in ("dpp-sweep", "dpp-tree")
                                                     for seed in (1, 2024)])
def test_nodes_per_stage_sum_to_the_tree_size_within_the_map_bound(tmp_path, case):
    # a shipped fixture, or every scenario of a benchmark workload at one seed
    if case.endswith(".json"):
        cases = [load_finite(case)]
    else:
        workload, seed = case.split(":")
        cases = [(finite_model_from_config(op.scenario["model"]),
                  DiscreteMeasure.from_json(op.scenario["initial_law"]))
                 for op in workloads.build(workload, int(seed), str(tmp_path))]
    for model, mu0 in cases:
        result = dpp.solve(model, mu0)
        sizes = [len(laws) for laws in result.laws]
        assert len(sizes) == model.horizon + 1
        assert sum(sizes) == result.reachable_tree_size
        n_maps = model.n_actions ** model.n_states
        assert all(1 <= size <= n_maps ** k for k, size in enumerate(sizes))
        if case.startswith("dpp-tree"):
            assert sizes == [1, 16, 256, 4096]


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


def _skip_validation(monkeypatch):
    """Let ``dpp.solve`` run on a model its up-front validation would reject,
    so the checks made during the expansion itself are what is tested."""
    monkeypatch.setattr(dpp, "validate", lambda model, extra_measures=(): ValidationReport())


def test_bad_row_off_the_support_is_not_checked(monkeypatch):
    # the stage-1 law has no mass on state 0 after this kernel, so its row there is unused
    def kernel(k, i, mu, a, lam):
        if mu.weights_on_grid(np.array([[0.0], [1.0]]))[0] == 0.0 and i == 0:
            return np.array([7.0, 7.0])
        return np.array([0.0, 1.0])

    model, mu0 = _two_state_model(kernel=kernel)
    _skip_validation(monkeypatch)
    result = dpp.solve(model, mu0)
    assert result.v0 == pytest.approx(1.0, abs=1e-15)


def test_batched_kernel_bad_row_raises(monkeypatch):
    config = TAG_CONFIGS["table3-quadratic"]
    rows = np.array(config["kernel"]["params"]["rows"])
    rows[2, 1] = [0.5, 0.5, 0.5]
    config = config | {"kernel": {"tag": "table", "params": {"rows": rows.tolist()}}}
    model = finite_model_from_config(config)
    mu0 = DiscreteMeasure(model.states, [0.2, 0.3, 0.5])
    _skip_validation(monkeypatch)
    with pytest.raises(ValueError, match="kernel row is not a probability vector at stage 0, "
                                         "state index 2"):
        dpp.solve(model, mu0)



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
def test_batched_form_of_the_wrong_shape_raises(monkeypatch, part, batched):
    model = finite_model_from_config(TAG_CONFIGS["table3-quadratic"])
    parts = {name: getattr(model, name) for name in ("kernel", "stage_cost", "terminal_cost")}
    parts[part] = _with_batched(parts[part], batched)
    model = FiniteMFModel(model.states, model.actions, model.horizon, **parts)
    mu0 = DiscreteMeasure(model.states, [0.2, 0.3, 0.5])
    name = part.replace("_", " ")
    _skip_validation(monkeypatch)
    with pytest.raises(ValueError, match=f"batched {name} has shape"):
        dpp.solve(model, mu0)


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


# (law, map) pairs per chunk: with 8 maps per law, 3 and 20 split stages
# unevenly and 8 makes one chunk per law
@pytest.mark.parametrize("pairs", [3, 8, 20])
def test_budget_raises_iff_distinct_nodes_exceed_it(monkeypatch, pairs):
    model, mu0 = load_finite("finite_mean_reverting.json")
    size = dpp.solve(model, mu0).reachable_tree_size
    monkeypatch.setattr(dpp, "EXPANSION_ENTRIES", pairs * model.n_states ** 2)
    assert dpp.solve(model, mu0, node_budget=size).reachable_tree_size == size
    with pytest.raises(dpp.BudgetExceeded):
        dpp.solve(model, mu0, node_budget=size - 1)
    with pytest.raises(dpp.BudgetExceeded):
        dpp.solve(model, mu0, node_budget=0)


@pytest.mark.parametrize("pairs", [1, 3, 20])
@pytest.mark.parametrize("scenario", ["finite_mean_reverting", "tree"])
def test_budget_stops_at_the_first_overflowing_chunk(monkeypatch, scenario, pairs):
    # the chunks' distinct rows are merged only at a stage end or near the
    # budget, yet the raise follows the first chunk after which the distinct
    # keys of the tree so far outnumber the budget
    if scenario == "tree":
        tree = workloads.tree_scenario(np.random.default_rng(1))
        model = finite_model_from_config(tree["model"])
        mu0 = DiscreteMeasure.from_json(tree["initial_law"])
    else:
        model, mu0 = load_finite("finite_mean_reverting.json")
    size = dpp.solve(model, mu0).reachable_tree_size
    monkeypatch.setattr(dpp, "EXPANSION_ENTRIES", pairs * model.n_states ** 2)
    expand, chunks = dpp._expand, []

    def recording(model, k, laws, maps):
        children, cost = expand(model, k, laws, maps)
        chunks.append((k, children))
        return children, cost

    monkeypatch.setattr(dpp, "_expand", recording)
    running = []   # the distinct (stage, key) nodes after each chunk, filled below

    def check(budget):
        chunks.clear()
        with pytest.raises(dpp.BudgetExceeded):
            dpp.solve(model, mu0, node_budget=budget)
        return len(chunks)

    expanded = check(size - 1)   # expands every chunk
    seen = set()
    for k, children in chunks:
        seen.update((k + 1, node_key(child)) for child in children)
        running.append(1 + len(seen))
    assert running[-1] == size and expanded == len(running)
    # the counts after each stage's last chunk and after a quarter of the chunks, and one less
    ends = [c for c, (k, _) in enumerate(chunks) if c + 1 == len(chunks) or chunks[c + 1][0] > k]
    marks = [running[c] for c in ends + [len(running) // 4]]
    for budget in sorted({1, *marks, *(count - 1 for count in marks)} - {size}):
        # every budget is below the tree size, so some chunk overflows it
        assert check(budget) == next(c for c, count in enumerate(running, 1) if count > budget)


def test_the_last_merge_holds_the_tree_and_four_copies_of_the_last_stage(monkeypatch):
    # with 64 pairs per chunk the last stage of this 69 905-node tree merges 1024
    # parts.  Over what the tree keeps, the merge holds the parts' concatenation, its
    # rounded bits, the bit-for-bit check's gathered copy, and the stage's child and
    # cost arrays with the sort's index arrays; keeping the parts during the merge or
    # evaluating the terminal costs on the whole stage at once peaks about 3 MB higher
    tree = workloads.tree_scenario(np.random.default_rng(1))
    tree["model"]["horizon"] = 4
    model = finite_model_from_config(tree["model"])
    mu0 = DiscreteMeasure.from_json(tree["initial_law"])
    result = dpp.solve(model, mu0)   # first-call allocations stay out of the count
    assert result.reachable_tree_size == 69_905
    kept = sum(a.nbytes for arrays in (result.laws, result.values, result.maps) for a in arrays)
    monkeypatch.setattr(dpp, "EXPANSION_ENTRIES", 64 * model.n_states ** 2)
    tracemalloc.start()
    try:
        dpp.solve(model, mu0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kept + 4 * result.laws[-1].nbytes, peak


def _bits(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _same_tree(result, whole, model):
    """``result`` equals ``whole``: node order, values, law path and maps, bit for bit."""
    assert result.reachable_tree_size == whole.reachable_tree_size
    assert result.v0 == whole.v0
    assert _bits(result.laws) == _bits(whole.laws)
    assert _bits(result.values) == _bits(whole.values)
    assert _bits(result.maps) == _bits(whole.maps)
    assert _bits(result.optimal_law_path) == _bits(whole.optimal_law_path)
    assert [model.policy_action_indices(p).tolist() for p in result.optimal_policy_sequence] == \
        [model.policy_action_indices(p).tolist() for p in whole.optimal_policy_sequence]


# (law, map) pairs per chunk.  With 8 maps per law (S = 3, M = 2), 3 splits
# every stage unevenly, 8 makes one chunk per law and 20 leaves a short last
# chunk; children shared across chunks must merge into one node.
@pytest.mark.parametrize("pairs", [3, 8, 20])
@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_expansion_in_small_chunks_gives_the_same_tree(monkeypatch, name, pairs):
    model, mu0 = load_finite(name)
    whole = dpp.solve(model, mu0)
    monkeypatch.setattr(dpp, "EXPANSION_ENTRIES", pairs * model.n_states ** 2)
    _same_tree(dpp.solve(model, mu0), whole, model)


@pytest.mark.parametrize("pairs", [3, 1 << 18])
@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_the_array_path_numbers_every_chunk(monkeypatch, name, pairs):
    # with no hash collision among the children, no chunk needs the dict
    model, mu0 = load_finite(name)
    whole = dpp.solve(model, mu0)
    monkeypatch.setattr(dpp, "EXPANSION_ENTRIES", pairs * model.n_states ** 2)
    monkeypatch.setattr(dpp, "DICT_ROWS", 0)
    monkeypatch.setattr(dpp, "_dict_ids",
                        lambda bits: pytest.fail("a chunk or merge was numbered through the dict"))
    _same_tree(dpp.solve(model, mu0), whole, model)


@pytest.mark.parametrize("pairs", [3, 1 << 18])
def test_hash_collisions_give_the_same_tree(monkeypatch, pairs):
    # a hash that sends every row to one of two values: each chunk then
    # groups unequal rows under one hash and is numbered through the dict
    model, mu0 = load_finite("finite_mean_reverting.json")
    whole = dpp.solve(model, mu0)
    monkeypatch.setattr(dpp, "EXPANSION_ENTRIES", pairs * model.n_states ** 2)
    monkeypatch.setattr(dpp, "DICT_ROWS", 0)
    monkeypatch.setattr(dpp, "_row_hash", lambda bits: bits[:, 0] & np.uint64(1))
    _same_tree(dpp.solve(model, mu0), whole, model)


@pytest.mark.parametrize("name", FINITE_FIXTURES + ["below", "above"])
@pytest.mark.parametrize("dict_rows", [dpp.DICT_ROWS, 0])
def test_node_order_is_the_first_occurrence_order(monkeypatch, name, dict_rows):
    if name in ("below", "above"):
        model = _boundary_model(BELOW if name == "below" else ABOVE)
        mu0 = DiscreteMeasure(model.states, [1.0, 0.0])
    else:
        model, mu0 = load_finite(name)
    monkeypatch.setattr(dpp, "DICT_ROWS", dict_rows)
    assert _bits(dpp.solve(model, mu0).laws) == _bits(reference_node_order(model, mu0))


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
    # the two children differ by one ulp but round to different keys: two nodes
    assert result.reachable_tree_size == 3 and len(result.laws[1]) == 2
    assert len(set(map(node_key, result.laws[1]))) == 2
    assert abs(result.values[1][0] - result.values[1][1]) <= 1e-12
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
    leaf, = result.laws[1]
    above = DiscreteMeasure(model.states, [ABOVE, 1.0 - ABOVE]).weights_on_grid(model.states)
    assert node_key(above) != node_key(leaf)
    assert result.node_at(1, above) == 0
    far = DiscreteMeasure(model.states, [BELOW + 1e-11, 1.0 - BELOW - 1e-11])
    with pytest.raises(KeyError):
        result.node_at(1, far.weights_on_grid(model.states))


def _distinct_by_keys(children):
    """The distinct rows of ``children`` and the number of each row, by a dict of node keys."""
    index = {}
    ids = [index.setdefault(node_key(row), len(index)) for row in children]
    _, first = np.unique(ids, return_index=True)
    return children[first], np.array(ids)


def _rows_with_duplicates(size, rng):
    """``size`` rows drawn with repeats from a pool holding -0.0 beside 0.0, the
    rounding neighbours BELOW and ABOVE, and two rows of one key but other bits."""
    special = np.array([[0.0, 0.5, 0.5], [-0.0, 0.5, 0.5], [BELOW, 1.0 - BELOW, 0.0],
                        [ABOVE, 1.0 - ABOVE, 0.0], [0.2, 0.3, 0.5],
                        [0.2 + 1e-15, 0.3, 0.5 - 1e-15]])
    pool = np.concatenate([special, rng.dirichlet(np.ones(3), size=size // 4 + 1)])
    return rng.permutation(np.concatenate([special, pool[rng.integers(0, len(pool), size)]]))[:size]


@pytest.mark.parametrize("size", [1, dpp.DICT_ROWS - 1, dpp.DICT_ROWS, dpp.DICT_ROWS + 1, 4096])
@pytest.mark.parametrize("path", ["shipped", "array", "colliding"])
def test_distinct_rows_match_a_dict_of_keys(monkeypatch, size, path):
    if path != "shipped":
        monkeypatch.setattr(dpp, "DICT_ROWS", 0)
    if path == "array":
        monkeypatch.setattr(dpp, "_dict_ids", lambda bits: pytest.fail("rows went through the dict"))
    if path == "colliding":   # every row hashes to one of two values
        monkeypatch.setattr(dpp, "_row_hash", lambda bits: bits[:, 0] & np.uint64(1))
    children = _rows_with_duplicates(size, np.random.default_rng(size))
    rows, ids = dpp._distinct(children)
    assert _bits([rows, ids]) == _bits(_distinct_by_keys(children))
    assert [node_key(row) for row in rows[ids]] == [node_key(row) for row in children]


# ---------------------------------------------------------------------------
# the law x map grid against per-pair rows
# ---------------------------------------------------------------------------

def _tag_pairings():
    """Every tag kernel with every stage and terminal cost that serves it, on
    one-dimensional grids, and the two-dimensional grids."""
    table = {"tag": "table", "params": {"rows": np.random.default_rng(3).dirichlet(
        np.ones(3), size=(2, 3, 2)).tolist()}}
    three = ([[-1.0], [0.0], [1.5]], [[0.0], [1.0]])
    two = ([[0.0], [1.0]], [[0.0], [1.0]])
    kernels = {"identity": ({"tag": "identity"}, three), "table": (table, three),
               "mean_reverting": (MEAN_REVERTING, three),
               "mean_clamp": ({"tag": "mean_clamp", "params": {"shift": 0.25}}, two)}
    for (name, (kernel, grids)), (cname, cost), (tname, terminal) in itertools.product(
            kernels.items(), [("zero", {"tag": "zero"}), ("quadratic", QUADRATIC_STAGE)],
            [("zero", {"tag": "zero"}), ("quadratic", QUADRATIC_TERMINAL)]):
        yield f"{name}-{cname}-{tname}", _config(*grids, kernel, cost, terminal)
    pinned = {"tag": "fo_pinned", "params": {"kappa": 1.5, "pinned": [1, 0], "p_xy": 0.2,
                                              "p_a": -0.1, "p_ay": 0.3, "p_x": 0.05}}
    for cname, cost in [("zero", {"tag": "zero"}), ("fo_pinned", pinned)]:
        yield f"first_order-{cname}-fo_bilinear", _config(*two, FO_KERNEL, cost, FO_BILINEAR)
    yield from TWO_D_CONFIGS.items()


TAG_PAIRINGS = dict(_tag_pairings())


def _initial_laws(S):
    """A uniform law, a Dirac, a law with one zero weight and a random full one."""
    missing = np.full(S, 1.0 / (S - 1))
    missing[S // 2] = 0.0
    return [np.full(S, 1.0 / S), np.eye(S)[-1], missing,
            np.random.default_rng(S).dirichlet(np.ones(S))]


def _undeclared(kernel):
    """``kernel`` with its ``batched`` form as a plain attribute: rows per (law, map)."""
    return _with_batched(kernel, lambda k, b: kernel.batched(k, b))


def test_the_tag_pairings_cover_every_tag():
    assert len(TAG_PAIRINGS) == 18 + len(TWO_D_CONFIGS)
    tags = {(part, cfg[part]["tag"]) for cfg in TAG_PAIRINGS.values()
            for part in ("kernel", "stage_cost", "terminal_cost")}
    assert {tag for part, tag in tags if part == "kernel"} == set(mfctrl_model._KERNELS)
    assert {tag for part, tag in tags if part == "stage_cost"} == set(mfctrl_model._STAGE_COSTS)
    assert ({tag for part, tag in tags if part == "terminal_cost"}
            == set(mfctrl_model._TERMINAL_COSTS))


@pytest.mark.parametrize("name", sorted(TAG_PAIRINGS))
def test_grid_expansion_equals_the_pair_path_bit_for_bit(name):
    # the four kernels that read no action law go through the (law, state,
    # action) rows; an undeclared batched form of the same formula gives one
    # row per (law, map) pair, and so does the scalar adapter.  The scalar
    # callables take their moments as `weights @ support`, another summation
    # than the batched forms', so they may differ from both in the last bit
    model = finite_model_from_config(TAG_PAIRINGS[name])
    declared = getattr(model.kernel.batched, "action_law_free", False)
    assert declared == (TAG_PAIRINGS[name]["kernel"]["tag"] != "first_order")
    pairwise = dataclasses.replace(model, kernel=_undeclared(model.kernel))
    assert not hasattr(pairwise.kernel.batched, "action_law_free")
    for weights in _initial_laws(model.n_states):
        mu0 = DiscreteMeasure(model.states, weights)
        grid = dpp.solve(model, mu0)
        _same_tree(dpp.solve(pairwise, mu0), grid, model)
        scalar = dpp.solve(scalar_only(model), mu0)
        assert scalar.reachable_tree_size == grid.reachable_tree_size
        assert [list(map(node_key, laws)) for laws in scalar.laws] == \
            [list(map(node_key, laws)) for laws in grid.laws]
        assert _action_indices(model, scalar) == _action_indices(model, grid)
        assert _bits(scalar.maps) == _bits(grid.maps)
        assert scalar.v0 == pytest.approx(grid.v0, abs=1e-12)
        np.testing.assert_allclose(scalar.optimal_law_path, grid.optimal_law_path,
                                   rtol=0, atol=1e-12)


def _table_model(rows, kernel=None):
    model = finite_model_from_config(_config(
        [[-1.0], [0.0], [1.0]], [[0.0], [1.0]], {"tag": "table", "params": {"rows": rows}},
        QUADRATIC_STAGE, QUADRATIC_TERMINAL))
    return model if kernel is None else dataclasses.replace(model, kernel=kernel)


@pytest.mark.parametrize("bad_row", [[np.nan, 0.5, 0.5], [0.9, 0.9, 0.9], [1.2, -0.2, 0.0]],
                         ids=["nan", "mass", "negative"])
@pytest.mark.parametrize("w0", [[0.0, 0.3, 0.7], [0.2, 0.3, 0.5]], ids=["zero", "full"])
def test_a_bad_row_at_a_state_of_weight_zero_is_never_seen(monkeypatch, bad_row, w0):
    # no row leads to state 0, so after stage 0 every law has weight 0 there;
    # this declared kernel returns a bad row exactly at such (law, state) cells
    rows = np.random.default_rng(4).dirichlet(np.ones(2), size=(2, 3, 2))
    rows = np.concatenate([np.zeros((2, 3, 2, 1)), rows], axis=-1)
    model = _table_model(rows.tolist())
    S = model.n_states
    table = model.kernel.batched

    def batched(k, b):
        weight = sum_last(b.mass * (b.state[..., None] == np.arange(S)))
        return np.where((weight == 0.0)[..., None], np.array(bad_row), table(k, b))
    batched.action_law_free = True
    hidden = _table_model(rows.tolist(), _with_batched(model.kernel, batched))
    _skip_validation(monkeypatch)
    mu0 = DiscreteMeasure(model.states, w0)
    _same_tree(dpp.solve(hidden, mu0), dpp.solve(model, mu0), model)
    maps = dpp._map_actions(np.arange(model.n_actions ** S), S, model.n_actions)
    laws = np.array([w0, [0.0, 0.5, 0.5], [0.0, 1.0, 0.0]])
    for k in range(model.horizon):
        children, costs = dpp._expand(hidden, k, laws, maps)
        expected_children, expected_costs = dpp._expand(model, k, laws, maps)
        assert children.tobytes() == expected_children.tobytes()
        assert costs.tobytes() == expected_costs.tobytes()
        grid = laws[:, None, :]
        ev = evaluate(hidden, k, grid, grid > 0, maps)
        assert not np.logical_or(*ev.bad).any()
        assert ev.checked() is ev


@pytest.mark.parametrize("kernel", ["declared", "undeclared", "scalar"])
def test_the_first_bad_row_in_pair_order_is_named(monkeypatch, kernel):
    # bad rows at (state 1, action 1) and (state 2, action 1): the first map,
    # all zeros, reaches neither; map 1 = (0, 0, 1) reaches state 2's first,
    # though state 1's row comes first among the (law, state, action) rows
    rows = np.random.default_rng(5).dirichlet(np.ones(3), size=(2, 3, 2))
    rows[0, 1, 1] = rows[0, 2, 1] = [0.5, 0.5, 0.5]
    model = _table_model(rows.tolist())
    model = {"declared": model, "undeclared": _table_model(rows.tolist(),
                                                           _undeclared(model.kernel)),
             "scalar": scalar_only(model)}[kernel]
    _skip_validation(monkeypatch)
    with pytest.raises(ValueError, match=r"^kernel row is not a probability vector at stage 0, "
                                         r"state index 2$"):
        dpp.solve(model, DiscreteMeasure(model.states, [0.2, 0.3, 0.5]))
