import math

import numpy as np
import pytest

from conftest import load_finite, random_finite_model, scalar_only
from test_dpp_engine import TAG_CONFIGS
from validate_reference import reference_validate
import mfctrl.model
from mfctrl.fixtures import list_fixtures, load_fixture
from mfctrl.measure import DiscreteMeasure
from mfctrl.model import (
    FiniteMFModel,
    LawBatch,
    evaluate,
    finite_model_from_config,
    lifted_stage_cost,
    lifted_terminal_cost,
    sum_last,
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

    @pytest.mark.parametrize("row, kind, detail", [
        ([0.5, 0.6], "row_mass", "row mass 1.1"),
        ([np.nan, 1.0], "row_mass", "row mass nan"),
        ([1.0, 0.0, 0.0], "row_shape", "row shape (3,)"),
        ([1.5, -0.5], "row_negative", "negative entry -5.000e-01"),
    ], ids=["mass", "nan", "shape", "negative"])
    def test_bad_rows_are_reported_with_plain_numbers(self, row, kind, detail):
        model = _simple_model(lambda k, i, mu, a, lam: 0.0, lambda i, mu: 0.0)
        bad = FiniteMFModel(model.states, model.actions, 1,
                            kernel=lambda k, i, mu, a, lam: np.array(row),
                            stage_cost=model.stage_cost,
                            terminal_cost=model.terminal_cost)
        report = validate(bad)
        # every sampled tuple has the bad row, and a misshapen row is reported only as such
        assert report.checked == 36 + 6     # (stage, state, action, law, action law) + terminal
        assert [v["kind"] for v in report.violations] == [kind] * 36
        assert report.violations[0] == {"kind": kind, "stage": 0, "state": 0, "action": 0,
                                         "detail": f"stage 0 state 0: {detail}"}

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_stage_and_terminal_costs(self, bad):
        model = _simple_model(lambda k, i, mu, a, lam: bad if a == 1 else 0.0,
                              lambda i, mu: bad if mu.mass_at(model.states[1]) == 1.0 else 0.0)
        report = validate(model)
        costs = [v for v in report.violations if v["kind"] == "cost"]
        assert costs and all(v["action"] == 1 for v in costs)
        assert costs[0]["detail"].endswith(": non-finite stage cost")
        terminal = [v for v in report.violations if v["kind"] == "terminal"]
        # the Dirac at the second state, seen from both states
        assert [(v["stage"], v["state"], v["detail"]) for v in terminal] == [
            (2, 0, "terminal state 0: non-finite cost"),
            (2, 1, "terminal state 1: non-finite cost")]

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


@pytest.mark.parametrize("field", ["states", "actions"])
def test_coinciding_grid_points_rejected(field):
    grids = {"states": [[-1.0], [0.0], [1.0]], "actions": [[0.0], [1.0]]}
    grids[field] = grids[field] + [[1e-10]]
    with pytest.raises(ValueError, match=f"{field} .* coincide"):
        FiniteMFModel(grids["states"], grids["actions"], 1,
                      lambda k, i, mu, a, lam: np.full(len(grids["states"]),
                                                       1.0 / len(grids["states"])),
                      lambda k, i, mu, a, lam: 0.0, lambda i, mu: 0.0)


@pytest.mark.parametrize("states, message", [
    ([[-1.0], [float("nan")]], "non-finite"),
    ([], "empty"),
    ([[], []], "no coordinates"),
], ids=["nan", "empty", "no-coordinates"])
def test_bad_state_grids_rejected(states, message):
    with pytest.raises(ValueError, match=f"states grid .*{message}"):
        FiniteMFModel(states, [[0.0]], 1, lambda k, i, mu, a, lam: np.ones(1),
                      lambda k, i, mu, a, lam: 0.0, lambda i, mu: 0.0)
    config = load_fixture("finite_mean_reverting.json")["model"]
    config["states"] = states
    with pytest.raises(ValueError, match=f"states grid .*{message}"):
        finite_model_from_config(config)


@pytest.mark.parametrize("params", [[], None, 1.0])
def test_non_object_params_rejected(params):
    config = load_fixture("finite_mean_reverting.json")["model"]
    config["kernel"]["params"] = params
    with pytest.raises(ValueError, match="kernel must be an object"):
        finite_model_from_config(config)


_S2, _S3 = [[0.0], [1.0]], [[0.0], [1.0], [2.0]]
_ZERO, _FO_BILINEAR = {"tag": "zero"}, {"tag": "fo_bilinear"}
_FO = {"tag": "first_order", "params": {"beta0": 0.5}}
_ROW = [[0.5, 0.5], [0.5, 0.5]]


def _tag_config(kernel, stage_cost=_ZERO, terminal_cost=_ZERO, states=_S2):
    return {"states": states, "actions": _S2, "horizon": 2, "kernel": kernel,
            "stage_cost": stage_cost, "terminal_cost": terminal_cost}


def _table(rows):
    return {"tag": "table", "params": {"rows": rows}}


def _fo_pinned(pinned):
    return {"tag": "fo_pinned", "params": {"kappa": 1.0, "pinned": pinned}}


@pytest.mark.parametrize("config, message", [
    (_tag_config({"tag": "nope"}, {"tag": "nope"}), "unknown kernel tag 'nope'"),
    (_tag_config({"tag": "identity"}, {"tag": "nope"}), "unknown stage cost tag 'nope'"),
    (_tag_config({"tag": "identity"}, _ZERO, {"tag": "nope"}),
     "unknown terminal cost tag 'nope'"),
    (_tag_config({"tag": "identity"}, _fo_pinned([0, 1])), "unknown stage cost tag 'fo_pinned'"),
    (_tag_config({"tag": "identity"}, _ZERO, _FO_BILINEAR),
     "unknown terminal cost tag 'fo_bilinear'"),
    (_tag_config(_FO, {"tag": "quadratic"}, _FO_BILINEAR),
     "first_order kernel needs a pairwise stage cost, got tag 'quadratic'"),
    (_tag_config(_FO, {"tag": "nope"}, {"tag": "nope"}),
     "first_order kernel needs a pairwise stage cost, got tag 'nope'"),
    (_tag_config(_FO, _ZERO, _ZERO),
     "first_order kernel needs terminal tag 'fo_bilinear', got 'zero'"),
    (_tag_config(_table([[[1.0, 0.0]]]), {"tag": "nope"}),
     "table kernel has shape (1, 1, 2), expected (2, 2, 2)"),
    (_tag_config(_table([[_ROW], [_ROW]])),
     "table kernel has shape (2, 1, 2, 2), expected (n, 2, 2, 2)"),
    (_tag_config(_table([[_ROW, _ROW]] * 3)), "table kernel has 3 stage blocks, expected exactly 2"),
    (_tag_config(_table(_ROW)), "table kernel needs a 3- or 4-dimensional 'rows' array"),
    (_tag_config({"tag": "mean_reverting", "params": {"tau": 0.0}}),
     "mean_reverting kernel needs tau > 0"),
    (_tag_config({"tag": "mean_clamp"}, states=_S3), "mean_clamp kernel needs exactly 2 states"),
    (_tag_config(_FO, _ZERO, _FO_BILINEAR, states=_S3),
     "first_order kernel needs 2 states and 2 actions"),
    (_tag_config(_FO, _fo_pinned([0]), _ZERO), "fo_pinned needs one pinned action index per state"),
], ids=["unknown-kernel", "unknown-stage", "unknown-terminal", "fo_pinned-plain-kernel",
        "fo_bilinear-plain-kernel", "first_order-quadratic", "first_order-unknown-stage",
        "first_order-zero-terminal", "table-3d-shape", "table-4d-block", "table-stage-count",
        "table-2d", "mean_reverting-tau", "mean_clamp-3-states", "first_order-3-states",
        "fo_pinned-length"])
def test_config_tag_errors_keep_their_text(config, message):
    # a component is checked and built before the next one is looked at
    with pytest.raises(ValueError) as exc:
        finite_model_from_config(config)
    assert str(exc.value) == message


FINITE_FIXTURES =sorted(name for name in list_fixtures() if name.startswith(("finite_", "fo_")))


@pytest.mark.parametrize("name", FINITE_FIXTURES + ["tag:" + name for name in sorted(TAG_CONFIGS)])
def test_scalar_adapter_validates_alike(name):
    if name.startswith("tag:"):
        model, extra = finite_model_from_config(TAG_CONFIGS[name[4:]]), []
    else:
        model, mu0 = load_finite(name)
        extra = [mu0]
    report = validate(model, extra_measures=extra)
    assert report.ok
    assert report == validate(scalar_only(model), extra_measures=extra)


# one non-finite entry in each tag's params: (fixture, block, path into params, value)
NON_FINITE_PARAMS = [
    ("finite_classical_table.json", "kernel", ("rows", 2, 1, 0), math.nan),
    ("finite_mean_reverting.json", "kernel", ("theta",), math.inf),
    ("finite_mean_clamp.json", "kernel", ("shift",), -math.inf),
    ("fo_coupled_costs.json", "kernel", ("beta_y",), math.nan),
    ("finite_mean_reverting.json", "stage_cost", ("qx",), math.inf),
    ("finite_mean_reverting.json", "terminal_cost", ("qv",), math.nan),
    ("fo_coupled_costs.json", "stage_cost", ("kappa",), math.inf),
    ("fo_coupled_costs.json", "terminal_cost", ("t_xy",), -math.inf),
]


@pytest.mark.parametrize("fixture, block, path, value", NON_FINITE_PARAMS,
                         ids=[f"{b}-{p[0]}" for _, b, p, _ in NON_FINITE_PARAMS])
def test_non_finite_params_rejected(fixture, block, path, value):
    config = load_fixture(fixture)["model"]
    target = config[block]["params"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValueError, match=f"{block} param '{path[0]}' has non-finite entries"):
        finite_model_from_config(config)


def _injected(model, rows=None, costs=None, terminal=None):
    """``model`` with the kernel row ``rows[k, i, a]``, the stage cost ``costs[k, i, a]``
    and the terminal cost ``terminal[i]`` put in at the listed cells."""
    rows, costs, terminal = rows or {}, costs or {}, terminal or {}

    def kernel(k, i, mu, a, lam):
        return np.array(rows[k, i, a]) if (k, i, a) in rows else model.kernel(k, i, mu, a, lam)

    def stage_cost(k, i, mu, a, lam):
        return costs.get((k, i, a), model.stage_cost(k, i, mu, a, lam))

    def terminal_cost(i, mu):
        return terminal.get(i, model.terminal_cost(i, mu))

    return FiniteMFModel(model.states, model.actions, model.horizon, kernel, stage_cost,
                         terminal_cost)


def _validate_cases():
    base = random_finite_model(np.random.default_rng(5), 4, 3, 3)   # 720 stage tuples
    cases = {}
    for name in FINITE_FIXTURES:
        model, mu0 = load_finite(name)
        cases[name] = (model, [mu0])
    cases["injected:rows_costs"] = (_injected(
        base,
        rows={(0, 1, 0): [0.5, 0.6, 0.1, 0.0], (1, 3, 2): [1.2, -0.3, 0.1, 0.0],
              (2, 0, 1): [1.2, -0.3, 0.5, 0.0], (2, 2, 2): [np.nan, 1.0, 0.0, 0.0]},
        costs={(0, 2, 1): np.inf, (1, 3, 2): np.nan, (2, 0, 0): -np.inf},
        terminal={1: np.nan}), [])
    cases["injected:misshapen"] = (_injected(
        base,
        rows={(0, 0, 1): [1.0, 0.0], (1, 2, 0): [[0.25] * 4], (2, 3, 2): [0.7, 0.7, 0.0, 0.0]},
        costs={(0, 0, 1): np.inf, (2, 3, 2): np.nan}), [DiscreteMeasure.uniform(base.states)])
    # rows whose mass is off 1 by an amount that depends on the law and the action law
    cases["injected:law_scaled"] = (FiniteMFModel(
        base.states, base.actions, base.horizon,
        lambda k, i, mu, a, lam: base.kernel(k, i, mu, a, lam) * (
            1.0 + 0.1 * (float(lam.mean()[0]) + float(mu.mean()[0]) ** 2)),
        base.stage_cost, base.terminal_cost), [])
    # tag models: a stage-free 3-D table with a negative entry and a row of
    # mass off 1, a 4-D table with a bad row at stage 2 only, a quadratic
    # cost that overflows at the states away from 0
    rows = np.random.default_rng(6).dirichlet(np.ones(3), size=(3, 2))
    rows[1, 0], rows[2, 1] = [1.25, -0.25, 0.0], [0.5, 0.6, 0.0]
    cases["tag:table3_bad_rows"] = (finite_model_from_config(
        _tag_config(_table(rows.tolist()), states=_S3) | {"horizon": 4}), [])
    rows = np.random.default_rng(7).dirichlet(np.ones(3), size=(3, 3, 2))
    rows[2, 0, 1] = [0.2, 0.2, 0.2]
    cases["tag:table4_bad_stage"] = (finite_model_from_config(
        _tag_config(_table(rows.tolist()), states=_S3) | {"horizon": 3}),
        [DiscreteMeasure(_S3, [0.2, 0.3, 0.5])])
    cases["tag:quadratic_overflow"] = (finite_model_from_config(_tag_config(
        {"tag": "identity"}, {"tag": "quadratic", "params": {"qx": 1e308, "ra": 1.0}},
        states=[[0.0], [-2.0], [1.5]]) | {"horizon": 5}), [])
    return cases


VALIDATE_CASES = _validate_cases()
VIOLATION_KINDS = {"injected:rows_costs": {"row_mass", "row_negative", "cost", "terminal"},
                   "injected:misshapen": {"row_shape", "row_mass", "cost"},
                   "injected:law_scaled": {"row_mass"},
                   "tag:table3_bad_rows": {"row_negative", "row_mass"},
                   "tag:table4_bad_stage": {"row_mass"},
                   "tag:quadratic_overflow": {"cost"}}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")   # the overflow case
@pytest.mark.parametrize("max_tuples", [5, 64, 512, 10**6])
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", sorted(VALIDATE_CASES))
def test_validate_draws_and_reports_like_the_tuple_lists(monkeypatch, name, seed, max_tuples):
    model, extra = VALIDATE_CASES[name]
    monkeypatch.setattr(mfctrl.model, "VALIDATE_TUPLES", max_tuples)
    monkeypatch.setattr(mfctrl.model, "VALIDATE_SEED", seed)
    report = validate(model, extra_measures=extra)
    assert report == reference_validate(model, extra_measures=extra, max_tuples=max_tuples,
                                        seed=seed)
    if max_tuples >= 512:
        assert report.ok == (name not in VIOLATION_KINDS)
    if max_tuples == 10**6 and name in VIOLATION_KINDS:
        assert {v["kind"] for v in report.violations} == VIOLATION_KINDS[name]
        # a misshapen row hides the non-finite cost at its cell
        assert not any(v["kind"] == "cost" and (v["stage"], v["state"], v["action"]) == (0, 0, 1)
                       for v in report.violations)
        if name == "tag:table4_bad_stage":
            assert {v["stage"] for v in report.violations} == {2}


def _counted_stages(monkeypatch):
    """The stages of the :func:`evaluate` calls made from here on, in order."""
    stages = []

    def counted(model, k, *args, evaluate=mfctrl.model.evaluate):
        stages.append(k)
        return evaluate(model, k, *args)

    monkeypatch.setattr(mfctrl.model, "evaluate", counted)
    return stages


@pytest.mark.parametrize("name", sorted(TAG_CONFIGS))
def test_validate_reads_a_stage_free_model_at_stage_zero(monkeypatch, name):
    # every stage is drawn; a 4-D table reads its stage, so it is evaluated at each
    stage_free = name != "table4-zero"
    config = TAG_CONFIGS[name] | ({"horizon": 3} if stage_free else {})
    model = finite_model_from_config(config)
    n = model.horizon
    stages = _counted_stages(monkeypatch)
    report = validate(model)
    assert stages == ([0, n] if stage_free else list(range(n + 1)))
    stages.clear()
    assert validate(scalar_only(model)) == report
    assert stages == list(range(n + 1))


def test_validate_evaluates_only_the_stages_it_drew(monkeypatch):
    # at horizon 10^6 the 512 tuples fall on at most 512 stages; a loop over
    # every stage made the same calls but took about 5 s (0.07 s on the drawn
    # stages alone, on a 2-CPU VM), hence the generous time bound.  The tag
    # model is stage-free, so it is read at stage 0; its scalar form is read
    # at each drawn stage
    import time

    config = load_fixture("finite_zero.json")["model"] | {"horizon": 10**6}
    model = finite_model_from_config(config)
    stages = _counted_stages(monkeypatch)
    for part in (model, scalar_only(model)):
        stages.clear()
        start = time.perf_counter()
        report = validate(part)
        assert time.perf_counter() - start < 1.0
        assert report.ok and report.checked == 512 + model.n_states * (model.n_states + 1)
        assert len(stages) <= 513 and stages[-1] == model.horizon
        assert stages[:-1] == sorted(set(stages[:-1]))
    assert len(stages) > 2


# ---------------------------------------------------------------------------
# Short-axis reductions
# ---------------------------------------------------------------------------

def _reduction_models(S, rng):
    """A mean_reverting model and a table model with negative entries, S states."""
    states = [[float(x)] for x in np.sort(rng.uniform(-2.0, 2.0, S)) + np.arange(S)]
    actions = [[-0.5], [0.5]]
    rows = rng.uniform(-0.05, 1.0, (S, 2, S))
    mean_reverting = {"tag": "mean_reverting", "params": {"theta": 0.4, "eta": 0.7, "tau": 0.3}}
    return [finite_model_from_config({
        "states": states, "actions": actions, "horizon": 1, "kernel": kernel,
        "stage_cost": {"tag": "zero"}, "terminal_cost": {"tag": "zero"}})
        for kernel in (mean_reverting, {"tag": "table", "params": {"rows": rows.tolist()}})]


def _random_pairs(S, rng, P=50):
    weights = rng.dirichlet(np.ones(S), P)
    weights[: P // 2] *= rng.random((P // 2, S)) < 0.5    # some laws off full support
    weights[np.arange(P), rng.integers(0, S, P)] += 0.1
    return weights / weights.sum(axis=1, keepdims=True), rng.integers(0, 2, (P, S))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("S", [1, 2, 4, 9])
def test_row_minimum_is_that_of_the_rows_as_returned(S):
    # the rows hold no -0.0: numpy's own min may return either zero on a
    # (0.0, -0.0) tie, and the sign of a zero minimum is read nowhere
    rng = np.random.default_rng(S)
    weights, action = _random_pairs(S, rng)
    for model in _reduction_models(S, rng):
        returned = model.kernel.batched(0, LawBatch.of(model, weights, action))
        returned = np.broadcast_to(returned, (len(weights), S, S))
        ev = evaluate(model, 0, weights, weights > 0, action)
        expected = np.where(weights > 0, np.min(returned, axis=-1), 0.0)
        assert np.array_equal(_bits(ev.low), _bits(expected))


@pytest.mark.parametrize("S", [1, 2, 4, 9])
def test_mean_reverting_rows_keep_the_max_shift_formula(S):
    rng = np.random.default_rng(10 + S)
    weights, action = _random_pairs(S, rng)
    model = _reduction_models(S, rng)[0]
    grid, acts = model.states[:, 0], model.actions[:, 0]

    def formula(i, a, mbar):    # the kernel as written with numpy's max
        target = (1.0 - 0.4) * grid[i] + 0.4 * mbar + 0.7 * acts[a]
        logits = -((grid - target[..., None]) ** 2) / 0.3
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return w / sum_last(w)[..., None]

    batch = LawBatch.of(model, weights, action)
    assert np.array_equal(_bits(model.kernel.batched(0, batch)),
                          _bits(formula(batch.state, action, batch.mean[..., 0])))
    for p, i in [(0, 0), (len(weights) - 1, S - 1)]:
        mu, a = DiscreteMeasure(model.states, weights[p]), int(action[p, i])
        assert np.array_equal(_bits(model.kernel(0, i, mu, a, None)),
                              _bits(formula(i, a, mu.mean()[0])))
