import numpy as np
import pytest

from mfctrl.lq import (
    AffinePolicy,
    mean_variance_model,
    optimal_policy,
    solve_riccati,
    value_at,
)
from mfctrl.moments import (
    GaussianState,
    exact_cost,
    exact_moment_step,
    exact_trajectory,
    initial_state,
    stage_cost_moments,
    terminal_cost_moments,
)
from mfctrl.verify import random_lq_model
from mfctrl.particles import simulate
from test_lq import scalar_lq


class TestGaussianState:
    def test_validates_symmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])

    def test_validates_psd(self):
        with pytest.raises(ValueError, match="semidefinite"):
            GaussianState([0.0], [[-1.0]])

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="shape"):
            GaussianState([0.0, 1.0], [[1.0]])


class TestMomentStep:
    def test_identity_drift_keeps_state(self):
        model = scalar_lq(n=1, B=1.0, R=1.0, x0=0.3, var0=0.7)
        policy = AffinePolicy.zero(1, 1, 1)
        out = exact_moment_step(model, 0, initial_state(model), policy)
        assert out.mean[0] == pytest.approx(0.3, abs=1e-15)
        assert out.cov[0, 0] == pytest.approx(0.7, abs=1e-15)

    def test_state_noise_from_dirac_origin_stays_deterministic(self):
        model = scalar_lq(n=1, D=1.0, R=1.0, x0=0.0, var0=0.0)
        policy = AffinePolicy.zero(1, 1, 1)
        out = exact_moment_step(model, 0, initial_state(model), policy)
        assert out.cov[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_wealth_step_formula(self):
        b, sigma, delta = 0.5, 1.0, 0.25
        g, gm, c = -0.7, 0.2, 0.4
        model = mean_variance_model(1.0, b, sigma, delta, 2, 0.0)
        policy = AffinePolicy(np.full((2, 1, 1), g), np.full((2, 1, 1), gm),
                              np.full((2, 1), c))
        mean, var = 0.3, 0.4
        state = GaussianState([mean], [[var]])
        out = exact_moment_step(model, 0, state, policy)
        abar = gm * mean + c
        assert out.mean[0] == pytest.approx(mean + b * delta * abar, abs=1e-14)
        expected_var = (var * (1.0 + (b * delta * g) ** 2 + 2.0 * b * delta * g)
                        + sigma**2 * delta * (g**2 * var + abar**2))
        assert out.cov[0, 0] == pytest.approx(expected_var, abs=1e-14)

    def test_wealth_step_against_particle_oracle(self):
        b, sigma, delta = 0.5, 1.0, 0.25
        model = mean_variance_model(1.0, b, sigma, delta, 1, 0.0)
        payload = model.to_json()
        payload["initial_law"] = {"mean": [0.3], "cov": [[0.4]]}
        from mfctrl.lq import LQModel
        model = LQModel.from_json(payload)
        policy = AffinePolicy([[[-0.7]]], [[[0.2]]], [[0.4]])
        out = exact_moment_step(model, 0, initial_state(model), policy)

        sim = simulate(model, policy, 1_000_000, seed=1, keep_clouds=True)
        cloud = sim.clouds[-1].positions[:, 0]
        n = cloud.size
        se_mean = cloud.std(ddof=1) / np.sqrt(n)
        assert abs(cloud.mean() - out.mean[0]) <= 3 * se_mean
        centered = cloud - cloud.mean()
        sample_var = centered @ centered / (n - 1)
        se_var = np.sqrt((np.mean(centered**4) - sample_var**2) / n)
        assert abs(sample_var - out.cov[0, 0]) <= 3 * se_var

    def test_dimension_mismatch(self):
        model = scalar_lq(n=1, B=1.0, R=1.0)
        policy = AffinePolicy.zero(1, 1, 1)
        with pytest.raises(ValueError):
            exact_moment_step(model, 0, GaussianState([0.0, 0.0], np.eye(2)), policy)

    def test_covariance_stays_psd_along_random_policies(self):
        rng = np.random.default_rng(2)
        model = random_lq_model(rng, 3, 2, 5)
        policy = AffinePolicy(rng.normal(size=(5, 2, 3)), rng.normal(size=(5, 2, 3)),
                              rng.normal(size=(5, 2)))
        for state in exact_trajectory(model, policy):
            assert float(np.linalg.eigvalsh(state.cov).min()) >= -1e-10


class TestExactCost:
    def test_zero_costs(self):
        model = scalar_lq(n=2, B=1.0, C=1.0, R=0.0, Q=0.0)
        policy = AffinePolicy.zero(2, 1, 1)
        # make conditions irrelevant: evaluate the functional directly
        assert exact_cost(model, policy) == 0.0

    def test_deterministic_rollout(self):
        model = scalar_lq(n=1, B=1.0, C=1.0, QT=1.0, x0=1.5)
        policy = AffinePolicy.zero(1, 1, 1)
        assert exact_cost(model, policy) == pytest.approx(1.5**2, abs=1e-14)

    def test_optimal_mean_variance_cost_equals_value(self):
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
        sol = solve_riccati(model)
        policy = optimal_policy(model, sol)
        assert exact_cost(model, policy) == pytest.approx(-1.28125, abs=1e-9)

    def test_stagewise_decomposition_consistent(self):
        rng = np.random.default_rng(4)
        model = random_lq_model(rng, 2, 2, 4)
        policy = optimal_policy(model, solve_riccati(model))
        states = exact_trajectory(model, policy)
        total = sum(stage_cost_moments(model, k, states[k], policy)
                    for k in range(model.horizon))
        total += terminal_cost_moments(model, states[-1])
        assert total == pytest.approx(exact_cost(model, policy), abs=1e-12)

    def test_policy_horizon_checked(self):
        model = scalar_lq(n=2, B=1.0, R=1.0)
        with pytest.raises(ValueError, match="horizon"):
            exact_cost(model, AffinePolicy.zero(1, 1, 1))


class TestOneStepValueIdentity:
    def test_value_recursion_under_optimal_policy(self):
        # value at a law equals stage cost plus value at the propagated law
        rng = np.random.default_rng(6)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            n = int(rng.integers(1, 6))
            model = random_lq_model(rng, d, m, n)
            sol = solve_riccati(model)
            policy = optimal_policy(model, sol)
            for k in range(n):
                root = rng.normal(size=(d, d))
                state = GaussianState(rng.normal(size=d), root @ root.T)
                lhs = value_at(sol, k, state)
                rhs = (stage_cost_moments(model, k, state, policy)
                       + value_at(sol, k + 1, exact_moment_step(model, k, state, policy)))
                assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("stage", [-1, 2])
def test_a_moment_step_needs_a_stage_of_the_model(stage):
    model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
    with pytest.raises(ValueError, match=rf"stage {stage} out of range \[0, 2\)"):
        exact_moment_step(model, stage, initial_state(model), AffinePolicy.zero(2, 1, 1))
