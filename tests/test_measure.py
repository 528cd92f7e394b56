import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfctrl.measure import (
    DiscreteMeasure,
    TabularMap,
    image_measure,
    match_indices,
    pushforward,
)
from mfctrl.model import TransitionKernel


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


def _kernel(states, actions, rows):
    return TransitionKernel(np.asarray(states, dtype=float).reshape(-1, 1),
                            np.asarray(actions, dtype=float).reshape(-1, 1),
                            rows)


class TestPushforward:
    def test_identity_kernel_fixes_measure(self):
        states = [0.0, 1.0]
        kern = _kernel(states, [0.0], lambda k, i, mu, a, lam: np.eye(2)[i])
        mu = DiscreteMeasure(states, [0.3, 0.7])
        policy = TabularMap(states, [0.0, 0.0])
        out = pushforward(mu, policy, kern, 0)
        assert np.allclose(out.weights_on_grid(kern.states), [0.3, 0.7], atol=1e-15)

    def test_single_row_uniform(self):
        states = [0.0, 1.0]
        kern = _kernel(states, [0.0], lambda k, i, mu, a, lam: np.array([0.5, 0.5]))
        mu = DiscreteMeasure.dirac(0.0)
        policy = TabularMap([0.0], [0.0])
        out = pushforward(mu, policy, kern, 0)
        assert np.allclose(out.weights_on_grid(kern.states), [0.5, 0.5], atol=1e-15)

    def test_mean_clamp_row(self):
        # next weight on the second state equals the current mean, for every row
        states = [0.0, 1.0]

        def rows(k, i, mu, a, lam):
            p = float(np.clip(mu.mean()[0], 0.0, 1.0))
            return np.array([1.0 - p, p])

        kern = _kernel(states, [0.0], rows)
        mu = DiscreteMeasure(states, [0.25, 0.75])
        policy = TabularMap(states, [0.0, 0.0])
        out = pushforward(mu, policy, kern, 0)
        assert np.allclose(out.weights_on_grid(kern.states), [0.25, 0.75], atol=1e-15)

    def test_invalid_row_names_stage_and_state(self):
        states = [0.0, 1.0]
        kern = _kernel(states, [0.0], lambda k, i, mu, a, lam: np.array([0.5, 0.6]))
        mu = DiscreteMeasure(states, [0.5, 0.5])
        policy = TabularMap(states, [0.0, 0.0])
        with pytest.raises(ValueError, match="stage 3, state index 0"):
            pushforward(mu, policy, kern, 3)

    def test_mixture_linearity_for_measure_free_kernel(self):
        states = [0.0, 1.0, 2.0]
        table = np.array([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2], [0.1, 0.1, 0.8]])
        kern = _kernel(states, [0.0], lambda k, i, mu, a, lam: table[i])
        policy = TabularMap(states, [0.0, 0.0, 0.0])
        wa = np.array([0.5, 0.2, 0.3])
        wb = np.array([0.1, 0.6, 0.3])
        alpha = 0.4
        mix = DiscreteMeasure(states, alpha * wa + (1 - alpha) * wb)
        lhs = pushforward(mix, policy, kern, 0).weights_on_grid(kern.states)
        rhs = (alpha * pushforward(DiscreteMeasure(states, wa), policy, kern, 0)
               .weights_on_grid(kern.states)
               + (1 - alpha) * pushforward(DiscreteMeasure(states, wb), policy, kern, 0)
               .weights_on_grid(kern.states))
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
