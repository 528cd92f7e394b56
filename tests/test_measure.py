import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfctrl.measure import (
    MERGE_TOL,
    REPR_CHARS,
    DiscreteMeasure,
    WEIGHT_FLOOR,
    TabularMap,
    grid_laws_json,
    image_measure,
    match_indices,
    pushforward,
    short_repr,
)
from mfctrl.model import FiniteMFModel, _canonical


@pytest.mark.parametrize("value", [
    2.5, -0.0, 1e300, 7, 10**30, True, None, "nope", "it's", "a...b",
    [1.0, 2.0], [[1, 2], [3]], {"tag": "zero", "params": {}}, {"b": [1], "a": {"y": 2, "x": 1}},
    "x" * 50, list(range(6))])
def test_short_values_quote_as_repr(value):
    assert short_repr(value) == repr(value)


@pytest.mark.parametrize("value", [
    "x" * 10**6, list(range(10**5)), {str(i): i for i in range(1000)}, [["x" * 100] * 6] * 6,
    10**1000], ids=["string", "list", "object", "lists-of-strings", "integer"])
def test_long_values_quote_short(value):
    text = short_repr(value)
    assert len(text) <= REPR_CHARS and "..." in text


def test_deep_nesting_quotes_short():
    value = 0
    for _ in range(10**5):     # deeper than any recursive repr can go
        value = [value]
    assert short_repr(value) == "[[[[...]]]]"


class TestMoments:
    def test_mean_dirac(self):
        assert DiscreteMeasure.dirac(3.0).mean()[0] == 3.0

    def test_mean_symmetric_pair(self):
        mu = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        assert mu.mean()[0] == pytest.approx(0.5, abs=1e-15)

    def test_mean_hand_sum(self):
        mu = DiscreteMeasure([-1.0, 0.0, 2.0], [0.2, 0.3, 0.5])
        assert mu.mean()[0] == pytest.approx(0.8, abs=1e-15)

    def test_variance_dirac_zero(self):
        mu = DiscreteMeasure.dirac([1.7])
        assert mu.variance_form([[4.2]]) == pytest.approx(0.0, abs=1e-15)

    def test_variance_two_point(self):
        mu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        assert mu.variance_form([[1.0]]) == pytest.approx(1.0, abs=1e-15)

    def test_quadratic_and_variance_hand_values(self):
        mu = DiscreteMeasure([-1.0, 0.0, 2.0], [0.2, 0.3, 0.5])
        assert mu.quadratic_moment([[2.0]]) == pytest.approx(4.4, abs=1e-14)
        assert mu.variance_form([[2.0]]) == pytest.approx(3.12, abs=1e-14)

    def test_rejects_nonsymmetric_form(self):
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        with pytest.raises(ValueError, match="symmetric"):
            mu.quadratic_moment([[1.0, 0.5], [0.0, 1.0]])

    def test_covariance_matches_variance_form(self):
        rng = np.random.default_rng(0)
        mu = DiscreteMeasure(rng.normal(size=(5, 2)), rng.dirichlet(np.ones(5)))
        lam = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert mu.variance_form(lam) == pytest.approx(
            float(np.trace(lam @ mu.covariance())), abs=1e-12)


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteMeasure([0.0, 1.0], [0.5, 0.6])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteMeasure([0.0, 1.0], [1.1, -0.1])

    @pytest.mark.parametrize("support, weights", [
        ([[0.0], [1.0]], [float("nan"), 1.0]),
        ([[0.0], [float("inf")]], [0.5, 0.5]),
        ([[], []], [0.5, 0.5]),
    ], ids=["nan-weight", "inf-point", "no-coordinates"])
    def test_non_finite_or_empty_input_rejected(self, support, weights):
        with pytest.raises(ValueError):
            DiscreteMeasure(support, weights)

    def test_close_points_merge(self):
        mu = DiscreteMeasure([0.0, 1e-10, 1.0], [0.25, 0.25, 0.5])
        assert len(mu) == 2
        assert mu.mass_at(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_tiny_weights_pruned_and_renormalized(self):
        mu = DiscreteMeasure([0.0, 1.0, 2.0], [0.5, 0.5 - 1e-16, 1e-16])
        assert len(mu) == 2
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_immutable(self):
        mu = DiscreteMeasure([0.0], [1.0])
        with pytest.raises(AttributeError):
            mu.weights = np.array([1.0])
        with pytest.raises(ValueError):
            mu.support[0, 0] = 2.0

    def test_value_types_are_frozen_and_compared_by_identity(self):
        mu = DiscreteMeasure(weights=[0.25, 0.75], support=[[0.0], [1.0]])
        policy = TabularMap(values=[[5.0], [6.0]], domain=[[0.0], [1.0]])
        for value, name in ((mu, "support"), (mu, "weights"), (policy, "domain"),
                            (policy, "values"), (mu, "extra"), (policy, "extra")):
            with pytest.raises(AttributeError):
                setattr(value, name, np.zeros((2, 1)))
        assert not hasattr(mu, "__dict__") and not hasattr(policy, "__dict__")
        twin = DiscreteMeasure(mu.support, mu.weights)
        assert mu == mu and mu != twin and hash(mu) != hash(twin)
        assert TabularMap(policy.domain, policy.values) != policy
        assert repr(mu) == "DiscreteMeasure(2 points, d=1)"

    def test_json_round_trip(self):
        mu = DiscreteMeasure([[-1.0], [0.5]], [0.3, 0.7])
        back = DiscreteMeasure.from_json(mu.to_json())
        assert np.array_equal(back.support, mu.support)
        assert np.array_equal(back.weights, mu.weights)


class TestImageMeasure:
    def test_constant_map_gives_dirac(self):
        mu = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        policy = TabularMap([0.0, 1.0], [2.5, 2.5])
        img = image_measure(mu, policy)
        assert len(img) == 1
        assert img.mean()[0] == pytest.approx(2.5)

    def test_identity_map_preserves_measure(self):
        mu = DiscreteMeasure([-1.0, 0.0, 2.0], [0.2, 0.3, 0.5])
        policy = TabularMap(mu.support, mu.support)
        img = image_measure(mu, policy)
        assert np.allclose(img.support, mu.support)
        assert np.allclose(img.weights, mu.weights)

    def test_weight_merge(self):
        mu = DiscreteMeasure([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        policy = TabularMap([0.0, 1.0, 2.0], [7.0, 9.0, 7.0])
        img = image_measure(mu, policy)
        assert img.mass_at(7.0) == pytest.approx(0.7, abs=1e-15)
        assert img.mass_at(9.0) == pytest.approx(0.3, abs=1e-15)

    def test_missing_domain_point_named(self):
        mu = DiscreteMeasure([0.0, 5.0], [0.5, 0.5])
        policy = TabularMap([0.0], [1.0])
        with pytest.raises(ValueError, match="5.0"):
            image_measure(mu, policy)


def _model(states, actions, rows):
    return FiniteMFModel(states, actions, 4, rows, lambda k, i, mu, a, lam: 0.0,
                         lambda i, mu: 0.0)


class TestPushforward:
    def test_identity_kernel_fixes_measure(self):
        states = [0.0, 1.0]
        model = _model(states, [0.0], lambda k, i, mu, a, lam: np.eye(2)[i])
        mu = DiscreteMeasure(states, [0.3, 0.7])
        policy = TabularMap(states, [0.0, 0.0])
        out = pushforward(mu, policy, model, 0)
        assert np.allclose(out.weights_on_grid(model.states), [0.3, 0.7], atol=1e-15)

    def test_single_row_uniform(self):
        states = [0.0, 1.0]
        model = _model(states, [0.0], lambda k, i, mu, a, lam: np.array([0.5, 0.5]))
        mu = DiscreteMeasure.dirac(0.0)
        policy = TabularMap([0.0], [0.0])
        out = pushforward(mu, policy, model, 0)
        assert np.allclose(out.weights_on_grid(model.states), [0.5, 0.5], atol=1e-15)

    def test_mean_clamp_row(self):
        # next weight on the second state equals the current mean, for every row
        states = [0.0, 1.0]

        def rows(k, i, mu, a, lam):
            p = float(np.clip(mu.mean()[0], 0.0, 1.0))
            return np.array([1.0 - p, p])

        model = _model(states, [0.0], rows)
        mu = DiscreteMeasure(states, [0.25, 0.75])
        policy = TabularMap(states, [0.0, 0.0])
        out = pushforward(mu, policy, model, 0)
        assert np.allclose(out.weights_on_grid(model.states), [0.25, 0.75], atol=1e-15)

    def test_invalid_row_names_stage_and_state(self):
        states = [0.0, 1.0]
        model = _model(states, [0.0], lambda k, i, mu, a, lam: np.array([0.5, 0.6]))
        mu = DiscreteMeasure(states, [0.5, 0.5])
        policy = TabularMap(states, [0.0, 0.0])
        with pytest.raises(ValueError, match="stage 3, state index 0"):
            pushforward(mu, policy, model, 3)

    def test_a_nan_row_is_not_a_probability_vector(self):
        # NaN fails the mass check as it does in model.evaluate, not the measure's finite check
        states = [0.0, 1.0]
        model = _model(states, [0.0], lambda k, i, mu, a, lam: np.array([0.5, 0.5]) if i == 0
                       else np.array([np.nan, np.nan]))
        mu = DiscreteMeasure(states, [0.5, 0.5])
        with pytest.raises(ValueError, match="^kernel row is not a probability vector at "
                                             "stage 0, state index 1$"):
            pushforward(mu, TabularMap(states, [0.0, 0.0]), model, 0)

    def test_mixture_linearity_for_measure_free_kernel(self):
        states = [0.0, 1.0, 2.0]
        table = np.array([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2], [0.1, 0.1, 0.8]])
        model = _model(states, [0.0], lambda k, i, mu, a, lam: table[i])
        policy = TabularMap(states, [0.0, 0.0, 0.0])
        wa = np.array([0.5, 0.2, 0.3])
        wb = np.array([0.1, 0.6, 0.3])
        alpha = 0.4
        mix = DiscreteMeasure(states, alpha * wa + (1 - alpha) * wb)
        lhs = pushforward(mix, policy, model, 0).weights_on_grid(model.states)
        rhs = (alpha * pushforward(DiscreteMeasure(states, wa), policy, model, 0)
               .weights_on_grid(model.states)
               + (1 - alpha) * pushforward(DiscreteMeasure(states, wb), policy, model, 0)
               .weights_on_grid(model.states))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestTabularMap:
    def test_lookup_and_index(self):
        policy = TabularMap([[0.0], [1.0]], [[5.0], [6.0]])
        assert policy(1.0)[0] == 6.0
        assert policy.index_of(0.0) == 0

    def test_lookup_tolerates_rounding_noise(self):
        policy = TabularMap([[0.1 + 0.2]], [[1.0]])  # 0.30000000000000004
        assert policy(0.3)[0] == 1.0

    def test_total_map_required(self):
        policy = TabularMap([[0.0]], [[1.0]])
        with pytest.raises(ValueError, match="not defined"):
            policy(2.0)

    def test_json_round_trip(self):
        policy = TabularMap([[0.0], [1.0]], [[5.0], [6.0]])
        back = TabularMap.from_json(policy.to_json())
        assert np.array_equal(back.domain, policy.domain)
        assert np.array_equal(back.values, policy.values)


def _first_hits(points, grid):
    """Per-point reference: the first grid row within MERGE_TOL, or None."""
    out = []
    for p in points:
        hits = [j for j, g in enumerate(grid) if np.max(np.abs(g - p)) <= MERGE_TOL]
        out.append(hits[0] if hits else None)
    return out


# offsets on and around the MERGE_TOL boundary
_NEAR = [0.0, 0.5 * MERGE_TOL, MERGE_TOL, 1.5 * MERGE_TOL, 2.5 * MERGE_TOL]


@st.composite
def _near_grid_points(draw):
    d = draw(st.integers(1, 2))
    coords = st.tuples(*[st.integers(-2, 2)] * d)
    jitter = st.tuples(*[st.sampled_from(_NEAR + [-x for x in _NEAR])] * d)
    grid = np.array([np.multiply(c, 0.25) + j for c, j in
                     draw(st.lists(st.tuples(coords, jitter), min_size=1, max_size=6))])
    rows = draw(st.lists(st.tuples(st.integers(0, len(grid) - 1), jitter),
                         min_size=1, max_size=8))
    points = np.array([grid[i] + j for i, j in rows])
    if draw(st.booleans()):  # one point far from every row
        at = draw(st.integers(0, len(points)))
        points = np.insert(points, at, np.full(d, 7.0), axis=0)
    return grid, points


@given(_near_grid_points())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_lookups_match_a_per_point_first_hit_loop(case):
    grid, points = case
    values = np.arange(len(grid), dtype=float)[:, None] * 10.0
    policy = TabularMap(grid, values)
    ref = _first_hits(points, grid)
    if None in ref:
        missing = points[ref.index(None)].tolist()
        with pytest.raises(ValueError, match=re.escape(f"point {missing} is not on the grid")):
            match_indices(points, grid)
        with pytest.raises(ValueError, match=re.escape(f"map is not defined at point {missing}")):
            policy.at(points)
        return
    assert match_indices(points, grid).tolist() == ref
    assert np.array_equal(policy.at(points), values[ref])
    assert [policy.index_of(p) for p in points] == ref
    assert [policy(p)[0] for p in points] == values[ref, 0].tolist()


def test_repeated_domain_point_resolves_to_the_first_listed():
    policy = TabularMap([[0.0], [1.0], [0.0]], [[10.0], [11.0], [12.0]])
    assert policy.index_of(0.0) == 0
    assert policy(0.0)[0] == 10.0
    assert policy.at([[1.0], [0.0]]).tolist() == [[11.0], [10.0]]
    # within MERGE_TOL of both rows: the first listed wins over the exact match
    near = TabularMap([[0.0], [0.9 * MERGE_TOL]], [[10.0], [11.0]])
    assert near.index_of(0.9 * MERGE_TOL) == 0
    assert near.at([[0.9 * MERGE_TOL]]).tolist() == [[10.0]]


def test_match_indices_names_missing_point():
    with pytest.raises(ValueError, match="not on the grid"):
        match_indices(np.array([[9.0]]), np.array([[0.0], [1.0]]))


weights_strategy = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6)


@given(weights_strategy)
@settings(max_examples=60, deadline=None)
def test_weights_always_renormalized(raw):
    w = np.asarray(raw) / np.sum(raw)
    mu = DiscreteMeasure(np.arange(len(w), dtype=float), w)
    assert abs(mu.weights.sum() - 1.0) <= 1e-12


@given(weights_strategy, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_variance_form_psd_property(raw, seed):
    w = np.asarray(raw) / np.sum(raw)
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(len(w), 2))
    mu = DiscreteMeasure(pts, w)
    root = rng.normal(size=(2, 2))
    assert mu.variance_form(root.T @ root) >= -1e-12


@given(weights_strategy, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_image_measure_mean_identity(raw, seed):
    w = np.asarray(raw) / np.sum(raw)
    rng = np.random.default_rng(seed)
    pts = np.arange(len(w), dtype=float).reshape(-1, 1)
    actions = rng.normal(size=(len(w), 1))
    mu = DiscreteMeasure(pts, w)
    policy = TabularMap(pts, actions)
    img = image_measure(mu, policy)
    assert abs(img.weights.sum() - 1.0) <= 1e-12
    assert np.allclose(img.mean(), mu.weights @ actions, atol=1e-12)


def test_single_points_with_several_coordinates():
    point = [1.0, -0.5]
    mu = DiscreteMeasure.dirac(point)
    assert mu.support.shape == (1, 2)
    grid = DiscreteMeasure([[0.0, 0.0], point], [0.25, 0.75])
    assert grid.mass_at(point) == pytest.approx(0.75, abs=1e-15)
    policy = TabularMap([[0.0, 0.0], point], [[0.0], [1.0]])
    assert policy.index_of(point) == 1
    assert policy(np.array(point))[0] == 1.0


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("S", range(1, 13))
def test_grid_laws_json_is_the_measures_json(S, dim):
    # grids in no lexicographic order; rows as the DPP makes them (canonical,
    # zeros where a weight fell below the floor) and rows that still hold
    # weights below it.  Past numpy's 8-wide pairwise block a sum over a row
    # that keeps its zeros can differ in the last bit from the measure's sum
    # over the kept weights.
    rng = np.random.default_rng([S, dim])
    for _ in range(10):
        grid = rng.permutation(rng.choice(60, S * dim, replace=False).reshape(S, dim) * 0.1 - 3.0)
        raw = rng.exponential(size=(30, S))
        raw[rng.random(raw.shape) < 0.25] = 0.0
        raw[rng.random(raw.shape) < 0.15] = rng.uniform(0.0, 2 * WEIGHT_FLOOR)
        raw[:, rng.integers(S)] += 0.1
        rows = np.vstack([_canonical(raw), raw / raw.sum(axis=1, keepdims=True)])
        laws = grid_laws_json(grid, rows)
        assert repr(laws) == repr([DiscreteMeasure(grid, w).to_json() for w in rows])


def test_points_of_more_than_two_axes_are_rejected():
    with pytest.raises(ValueError, match=r"at most 2-dimensional, got shape \(1, 1, 1\)"):
        DiscreteMeasure(np.zeros((1, 1, 1)), [1.0])


def test_a_quadratic_form_of_the_wrong_shape_is_rejected():
    mu = DiscreteMeasure([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"quadratic form has shape \(1, 1\), expected \(2, 2\)"):
        mu.quadratic_moment(1.0)
