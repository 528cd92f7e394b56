import dataclasses
import math

import numpy as np
import pytest

from mfctrl import lq, moments
from mfctrl.fixtures import load_fixture
from mfctrl.lq import (
    AffinePolicy,
    ConditionsNotMet,
    LQModel,
    NotPositiveDefinite,
    RiccatiSolution,
    check_conditions,
    explicit_control_coefficients,
    mean_variance_closed_form,
    mean_variance_model,
    optimal_policy,
    solve_riccati,
    stationarity_residual,
    value_at,
)
from mfctrl.measure import DiscreteMeasure
from mfctrl.verify import SOLUTION_FIELDS, random_lq_model
import lq_reference

PARITY_RTOL = 1e-12


def scalar_lq(n=1, **over):
    """d = m = 1 model with named scalar coefficients (default all zero)."""
    names = dict(B=0.0, Bbar=0.0, C=0.0, Cbar=0.0, D=0.0, Dbar=0.0, H=0.0, Hbar=0.0,
                 Q=0.0, Qbar=0.0, R=0.0, Rbar=0.0, L=0.0, Lbar=0.0,
                 QT=0.0, QTbar=0.0, LT=0.0, LTbar=0.0, x0=0.0, var0=0.0)
    names.update(over)
    g = lambda key: np.full((n, 1, 1), names[key])
    v = lambda key: np.full((n, 1), names[key])
    return LQModel(
        drift_state=g("B"), drift_state_mean=g("Bbar"),
        drift_control=g("C"), drift_control_mean=g("Cbar"),
        noise_state=g("D"), noise_state_mean=g("Dbar"),
        noise_control=g("H"), noise_control_mean=g("Hbar"),
        cost_state=g("Q"), cost_state_mean=g("Qbar"),
        cost_control=g("R"), cost_control_mean=g("Rbar"),
        cost_linear=v("L"), cost_linear_mean=v("Lbar"),
        terminal_state=[[names["QT"]]], terminal_state_mean=[[names["QTbar"]]],
        terminal_linear=[names["LT"]], terminal_linear_mean=[names["LTbar"]],
        initial_mean=[names["x0"]], initial_cov=[[names["var0"]]])


class TestRiccatiRecursion:
    def test_hand_computed_single_step(self):
        model = scalar_lq(B=1.0, C=1.0, Q=0.0, R=1.0, QT=1.0)
        sol = solve_riccati(model)
        assert sol.dev_hessian[0, 0, 0] == pytest.approx(2.0, abs=1e-15)
        assert sol.mean_hessian[0, 0, 0] == pytest.approx(2.0, abs=1e-15)
        assert sol.dev_cross[0, 0, 0] == pytest.approx(1.0, abs=1e-15)
        assert sol.mean_cross[0, 0, 0] == pytest.approx(1.0, abs=1e-15)
        assert sol.var_weight[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
        assert sol.mean_weight[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
        assert sol.linear[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert sol.constant[0] == pytest.approx(0.0, abs=1e-15)

    def test_zero_costs_propagate_zero(self):
        model = scalar_lq(n=3, B=0.7, C=0.4, R=1.0, Rbar=0.5)
        sol = solve_riccati(model)
        for name in ("var_weight", "mean_weight", "linear", "constant"):
            np.testing.assert_allclose(getattr(sol, name), 0.0, atol=1e-15)
        policy = optimal_policy(model, sol)
        np.testing.assert_allclose(policy.gain_state, 0.0, atol=1e-15)
        np.testing.assert_allclose(policy.gain_mean, 0.0, atol=1e-15)
        np.testing.assert_allclose(policy.offset, 0.0, atol=1e-15)

    def test_terminal_values(self):
        model = scalar_lq(n=2, B=1.0, C=1.0, R=1.0, QT=2.0, QTbar=-0.5,
                          LT=0.25, LTbar=0.5)
        sol = solve_riccati(model)
        assert sol.var_weight[2, 0, 0] == 2.0
        assert sol.mean_weight[2, 0, 0] == 1.5
        assert sol.linear[2, 0] == 0.75
        assert sol.constant[2] == 0.0

    def test_coefficient_lists_must_match_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            LQModel(
                drift_state=np.ones((2, 1, 1)), drift_state_mean=np.zeros((3, 1, 1)),
                drift_control=np.ones((2, 1, 1)), drift_control_mean=np.zeros((2, 1, 1)),
                noise_state=np.zeros((2, 1, 1)), noise_state_mean=np.zeros((2, 1, 1)),
                noise_control=np.zeros((2, 1, 1)), noise_control_mean=np.zeros((2, 1, 1)),
                cost_state=np.zeros((2, 1, 1)), cost_state_mean=np.zeros((2, 1, 1)),
                cost_control=np.ones((2, 1, 1)), cost_control_mean=np.zeros((2, 1, 1)),
                cost_linear=np.zeros((2, 1)), cost_linear_mean=np.zeros((2, 1)),
                terminal_state=[[1.0]], terminal_state_mean=[[0.0]],
                terminal_linear=[0.0], terminal_linear_mean=[0.0],
                initial_mean=[0.0], initial_cov=[[0.0]])

    def test_asymmetric_cost_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            LQModel(
                drift_state=np.ones((1, 2, 2)), drift_state_mean=np.zeros((1, 2, 2)),
                drift_control=np.ones((1, 2, 1)), drift_control_mean=np.zeros((1, 2, 1)),
                noise_state=np.zeros((1, 2, 2)), noise_state_mean=np.zeros((1, 2, 2)),
                noise_control=np.zeros((1, 2, 1)), noise_control_mean=np.zeros((1, 2, 1)),
                cost_state=[[[1.0, 0.3], [0.0, 1.0]]], cost_state_mean=np.zeros((1, 2, 2)),
                cost_control=np.ones((1, 1, 1)), cost_control_mean=np.zeros((1, 1, 1)),
                cost_linear=np.zeros((1, 2)), cost_linear_mean=np.zeros((1, 2)),
                terminal_state=np.eye(2), terminal_state_mean=np.zeros((2, 2)),
                terminal_linear=np.zeros(2), terminal_linear_mean=np.zeros(2),
                initial_mean=np.zeros(2), initial_cov=np.zeros((2, 2)))

    def test_adjoint_linear_recursion_multivariate(self):
        # the linear coefficient must propagate through the transpose of the
        # closed-loop mean transition; the verification identity breaks otherwise
        rng = np.random.default_rng(11)
        model = random_lq_model(rng, 3, 2, 4)
        sol = solve_riccati(model)
        pol = optimal_policy(model, sol)
        cost = moments.exact_cost(model, pol)
        value = value_at(sol, 0, (model.initial_mean, model.initial_cov))
        assert cost == pytest.approx(value, abs=1e-10)
        for k in range(model.horizon):
            expected = (model.cost_linear[k] + model.cost_linear_mean[k]
                        + sol.mean_transition[k].T @ sol.linear[k + 1])
            np.testing.assert_allclose(sol.linear[k], expected, atol=1e-12)


class TestMeanVariance:
    def test_closed_form_terminal(self):
        sol = mean_variance_closed_form(1.0, 0.5, 1.0, 1.0, 2)
        assert sol.var_weight[2, 0, 0] == pytest.approx(0.5)
        assert sol.constant[2] == 0.0
        assert sol.mean_weight[2, 0, 0] == 0.0
        assert sol.linear[2, 0] == -1.0

    def test_closed_form_reference_point(self):
        sol = mean_variance_closed_form(1.0, 0.5, 1.0, 1.0, 2)
        np.testing.assert_allclose(sol.var_weight.ravel(), [0.32, 0.4, 0.5], atol=1e-15)
        np.testing.assert_allclose(sol.constant, [-0.28125, -0.125, 0.0], atol=1e-15)
        np.testing.assert_allclose(sol.mean_weight, 0.0, atol=1e-15)
        np.testing.assert_allclose(sol.linear, -1.0, atol=1e-15)

    def test_no_drift_leaves_terminal_profile(self):
        sol = mean_variance_closed_form(2.0, 0.0, 1.0, 0.5, 4)
        np.testing.assert_allclose(sol.var_weight, 1.0, atol=1e-15)
        np.testing.assert_allclose(sol.constant, 0.0, atol=1e-15)

    def test_recursion_matches_closed_form(self):
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
        sol = solve_riccati(model)
        closed = mean_variance_closed_form(1.0, 0.5, 1.0, 1.0, 2)
        for name in SOLUTION_FIELDS:
            np.testing.assert_allclose(getattr(sol, name), getattr(closed, name),
                                       atol=1e-12)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            mean_variance_closed_form(-1.0, 0.5, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            mean_variance_model(1.0, 0.5, 0.0, 1.0, 2, 1.0)

    def test_optimal_gain_and_offset(self):
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
        policy = optimal_policy(model, solve_riccati(model))
        assert policy.gain_state[0, 0, 0] == pytest.approx(-0.4, abs=1e-15)
        assert policy.gain_mean[0, 0, 0] == pytest.approx(0.0, abs=1e-15)
        assert policy.offset[0, 0] == pytest.approx(0.625, abs=1e-14)

    def test_value_at_initial_dirac(self):
        sol = mean_variance_closed_form(1.0, 0.5, 1.0, 1.0, 2)
        assert value_at(sol, 0, DiscreteMeasure.dirac([1.0])) == pytest.approx(
            -1.28125, abs=1e-14)


class TestConditions:
    def test_mean_variance_passes_every_stage(self):
        report = check_conditions(mean_variance_model(1.0, 0.5, 1.0, 1.0, 4, 1.0))
        assert report.ok
        for row in report.stages:
            assert row.nonneg_ok and row.dev_coercive_ok and row.mean_coercive_ok and row.hessians_pd
            assert row.dev_coercive_via in ("drift_rank", "noise_rank")

    def test_degenerate_stage_rejected_by_name(self):
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 3, 1.0)
        payload = model.to_json()
        payload["stages"][1]["drift_control"] = [[0.0]]
        payload["stages"][1]["noise_control"] = [[0.0]]
        degenerate = LQModel.from_json(payload)
        report = check_conditions(degenerate)
        assert not report.ok
        assert report.first_failure[0] == 1
        with pytest.raises(ConditionsNotMet, match="stage 1"):
            solve_riccati(degenerate)

    def test_strengthened_condition_passes(self):
        rng = np.random.default_rng(3)
        model = random_lq_model(rng, 2, 2, 3)  # PD control costs, PSD state costs
        report = check_conditions(model)
        assert report.ok
        assert all(r.dev_coercive_via == "control_cost" and r.mean_coercive_via == "control_cost"
                   for r in report.stages)

    def test_forced_solve_still_guards_hessians(self):
        model = scalar_lq(n=1, B=1.0)  # everything else zero: both Hessians are 0
        with pytest.raises(NotPositiveDefinite, match="stage 0"):
            solve_riccati(model, force=True)

    @pytest.mark.parametrize("costs, message", [
        (dict(R=0.0), "centered control Hessian not positive definite at stage 0"),
        (dict(R=1.0, Rbar=-1.0), "mean control Hessian not positive definite at stage 0"),
        # both Hessians factor, but their eigenvalue 1e-11 is inside the margin
        (dict(R=1e-11), "control Hessian not positive definite at stage 0"),
    ], ids=["centered", "mean", "margin"])
    def test_forced_solve_names_the_failing_hessian(self, costs, message):
        model = scalar_lq(n=2, B=1.0, C=1.0, R=1.0, QT=1.0)
        payload = model.to_json()
        payload["stages"][0]["drift_control"] = [[0.0]]
        payload["stages"][0]["cost_control"] = [[costs["R"]]]
        payload["stages"][0]["cost_control_mean"] = [[costs.get("Rbar", 0.0)]]
        with pytest.raises(NotPositiveDefinite, match=f"^{message}$"):
            solve_riccati(LQModel.from_json(payload), force=True)

    @pytest.mark.parametrize("coefficients, stage", [
        (dict(C=1e200, R=1.0, Q=1.0), 1),  # the stage-1 control Hessian overflows
        (dict(B=1e200, R=1.0, LT=1e200), 2),  # only the linear part overflows
    ], ids=["hessian", "linear"])
    def test_non_finite_recursion_names_the_stage(self, coefficients, stage):
        model = scalar_lq(n=3, **coefficients)
        for solve in (check_conditions, solve_riccati, lambda m: solve_riccati(m, force=True)):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                    FloatingPointError, match=f"^Riccati recursion not finite at stage {stage}$"):
                solve(model)

    def test_one_backward_pass_per_solve(self, monkeypatch):
        calls = []
        stage_matrix = lq._stage_matrix
        monkeypatch.setattr(lq, "_stage_matrix", lambda *a: calls.append(1) or stage_matrix(*a))
        solve_riccati(random_lq_model(np.random.default_rng(5), 2, 2, 5))
        assert len(calls) == 5

    def test_eigenvalue_calls_do_not_grow_with_the_horizon(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda *a, **k: calls.append(1) or eigvalsh(*a, **k))
        counts = []
        for n in (2, 5, 40):
            calls.clear()
            solve_riccati(random_lq_model(np.random.default_rng(5), 2, 2, n))
            counts.append(len(calls))
        assert counts == [counts[0]] * 3

    def test_refusal_carries_the_checked_report(self):
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 3, 1.0)
        payload = model.to_json()
        payload["stages"][1]["drift_control"] = [[0.0]]
        payload["stages"][1]["noise_control"] = [[0.0]]
        degenerate = LQModel.from_json(payload)
        with pytest.raises(ConditionsNotMet) as info:
            solve_riccati(degenerate)
        assert info.value.report == check_conditions(degenerate)

    def test_a_failure_of_the_terminal_cost_alone_names_the_last_stage(self):
        payload = mean_variance_model(1.0, 0.5, 1.0, 1.0, 3, 1.0).to_json()
        payload["terminal"]["cost_state"] = [[-0.1]]
        payload["terminal"]["cost_state_mean"] = [[0.0]]
        for stage in payload["stages"]:
            stage["cost_control"] = [[1.0]]
        model = LQModel.from_json(payload)
        report = check_conditions(model)
        assert [lq._stage_failures(row) for row in report.stages] == [[], [], []]
        assert not report.terminal_ok
        with pytest.raises(ConditionsNotMet, match="^conditions violated at stage 3: terminal "
                                                   "state cost not PSD; terminal state\\+mean "
                                                   "cost not PSD$"):
            solve_riccati(model)
        forced = solve_riccati(model, force=True)
        for name in SOLUTION_FIELDS:
            np.testing.assert_allclose(getattr(forced, name), getattr(
                lq_reference.solve_riccati(model, force=True), name), rtol=PARITY_RTOL, atol=0)

    def test_stages_before_a_failed_hessian_are_unevaluated(self):
        payload = scalar_lq(n=4, B=1.0, C=1.0, R=1.0, QT=1.0).to_json()
        payload["stages"][2]["drift_control"] = [[0.0]]
        payload["stages"][2]["cost_control"] = [[0.0]]
        payload["stages"][0]["cost_state"] = [[-1.0]]
        payload["stages"][0]["cost_state_mean"] = [[2.0]]
        report = check_conditions(LQModel.from_json(payload))
        assert [row.evaluated for row in report.stages] == [False, False, True, True]
        assert not report.stages[2].hessians_pd and report.stages[3].hessians_pd
        assert report.stages[0].nonneg_failures == ["state cost not PSD"]
        assert report.stages[1].nonneg_ok
        assert report.first_failure == (0, "state cost not PSD")

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_row_rank_shortcut_matches_the_svd(self, m):
        # a 1 x m matrix has one singular value, the row's 2-norm
        def by_svd(mats):
            sv = np.linalg.svd(mats, compute_uv=False)
            return (sv[..., 0] != 0.0) & (sv[..., 0] >= lq.RANK_REL_TOL * sv[..., 0])

        rng = np.random.default_rng(m)
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, 1.0])
        sparse = rng.standard_normal((200, 2, 1, m)) * (rng.random((200, 2, 1, m)) < 0.5)
        for mats in (rng.standard_normal((50, 2, 1, m)), sparse,
                     rng.choice(edges, size=(400, 2, 1, m))):
            assert np.array_equal(lq._full_row_rank(mats), by_svd(mats))
        for row, full in (([0.0] * m, False), ([5e-324] + [0.0] * (m - 1), True),
                          ([1e308] * m, True), ([np.inf] * m, False),
                          ([-np.inf] + [1.0] * (m - 1), False)):
            mats = np.array(row).reshape(1, 1, m)
            assert lq._full_row_rank(mats).tolist() == by_svd(mats).tolist() == [full]


class TestPolicyAndValues:
    def test_classical_gain_when_noise_is_control_free(self):
        rng = np.random.default_rng(8)
        model = random_lq_model(rng, 2, 2, 3)
        payload = model.to_json()
        for stage in payload["stages"]:
            stage["noise_control"] = np.zeros((2, 2)).tolist()
            stage["noise_control_mean"] = np.zeros((2, 2)).tolist()
            stage["noise_state"] = np.zeros((2, 2)).tolist()
            stage["noise_state_mean"] = np.zeros((2, 2)).tolist()
        model = LQModel.from_json(payload)
        sol = solve_riccati(model)
        pol = optimal_policy(model, sol)
        for k in range(model.horizon):
            lam = sol.var_weight[k + 1]
            B, C = model.drift_state[k], model.drift_control[k]
            R = model.cost_control[k]
            expected = -np.linalg.solve(R + C.T @ lam @ C, C.T @ lam @ B)
            np.testing.assert_allclose(pol.gain_state[k], expected, atol=1e-12)

    def test_value_at_terminal_dirac(self):
        model = scalar_lq(n=1, B=1.0, C=1.0, R=1.0, QT=2.0, QTbar=0.5)
        sol = solve_riccati(model)
        x = 1.3
        assert value_at(sol, 1, DiscreteMeasure.dirac([x])) == pytest.approx(
            2.5 * x * x, abs=1e-13)

    def test_value_at_gaussian_trace_identity(self):
        d = 3
        sol = RiccatiSolution(
            var_weight=np.stack([np.eye(d)]), mean_weight=np.zeros((1, d, d)),
            linear=np.zeros((1, d)), constant=np.zeros(1),
            dev_hessian=np.zeros((0, 1, 1)), mean_hessian=np.zeros((0, 1, 1)),
            dev_cross=np.zeros((0, d, 1)), mean_cross=np.zeros((0, d, 1)),
            mean_transition=np.zeros((0, d, d)))
        assert value_at(sol, 0, (np.zeros(d), np.eye(d))) == pytest.approx(float(d))

    def test_value_at_dimension_mismatch(self):
        sol = mean_variance_closed_form(1.0, 0.5, 1.0, 1.0, 2)
        with pytest.raises(ValueError, match="dimensions"):
            value_at(sol, 0, (np.zeros(2), np.eye(2)))

    def test_stationarity_residual_vanishes_at_optimum(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            model = random_lq_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                                    int(rng.integers(1, 5)))
            sol = solve_riccati(model)
            pol = optimal_policy(model, sol)
            for k in range(model.horizon):
                mean = rng.normal(size=model.state_dim)
                x = mean + rng.normal(size=model.state_dim)
                res = stationarity_residual(model, sol, pol, k, x, mean)
                assert np.max(np.abs(res)) <= 1e-9

    def test_perturbation_second_difference_nonnegative(self):
        # cost along a perturbation ray is convex: the centered second
        # difference in the scale can never go negative
        rng = np.random.default_rng(29)
        for _ in range(2):
            model = random_lq_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                                    int(rng.integers(1, 5)))
            pol = optimal_policy(model, solve_riccati(model))
            base = moments.exact_cost(model, pol)
            for _ in range(20):
                direction = AffinePolicy(rng.normal(size=pol.gain_state.shape),
                                         rng.normal(size=pol.gain_mean.shape),
                                         rng.normal(size=pol.offset.shape))
                for eps in (1e-3, 1e-2):
                    j1 = moments.exact_cost(model, pol.perturbed(direction, eps))
                    j2 = moments.exact_cost(model, pol.perturbed(direction, 2 * eps))
                    assert j1 >= base - 1e-9
                    assert j2 - 2 * j1 + base >= -1e-9

    def test_weights_psd_under_conditions(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            model = random_lq_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                                    int(rng.integers(1, 6)))
            sol = solve_riccati(model)
            assert float(np.linalg.eigvalsh(sol.var_weight).min()) >= -1e-10
            assert float(np.linalg.eigvalsh(sol.mean_weight).min()) >= -1e-10


class TestExplicitControls:
    def test_stage_zero_constant_uses_initial_mean(self):
        rng = np.random.default_rng(17)
        model = random_lq_model(rng, 2, 2, 3)
        sol = solve_riccati(model)
        pol = optimal_policy(model, sol)
        controls = explicit_control_coefficients(model, sol, pol)
        np.testing.assert_allclose(controls.state_means[0], model.initial_mean)
        x = rng.normal(size=2)
        np.testing.assert_allclose(controls.action(0, x),
                                   pol.action(0, x, model.initial_mean), atol=1e-13)

    def test_reproduces_policy_along_optimal_flow(self):
        rng = np.random.default_rng(19)
        model = random_lq_model(rng, 3, 2, 5)
        sol = solve_riccati(model)
        pol = optimal_policy(model, sol)
        controls = explicit_control_coefficients(model, sol, pol)
        states = moments.exact_trajectory(model, pol)
        for k in range(model.horizon):
            np.testing.assert_allclose(controls.state_means[k], states[k].mean,
                                       atol=1e-12)
            x = rng.normal(size=3)
            np.testing.assert_allclose(controls.action(k, x),
                                       pol.action(k, x, states[k].mean), atol=1e-12)

    def test_mean_variance_state_constant_at_every_stage(self):
        # the explicit rule is stage-independent: -c [x - x0 - r^n / gamma]
        gamma, b, sigma, delta, n, x0 = 1.0, 0.5, 1.0, 1.0, 2, 1.0
        model = mean_variance_model(gamma, b, sigma, delta, n, x0)
        sol = solve_riccati(model)
        controls = explicit_control_coefficients(model, sol, optimal_policy(model, sol))
        c = b / (sigma**2 + b**2 * delta)
        target = x0 + (1.0 / gamma) * (1.0 + b**2 * delta / sigma**2) ** n
        for k in range(n):
            assert controls.feedback[k, 0, 0] == pytest.approx(-c, abs=1e-14)
            assert controls.constant[k, 0] == pytest.approx(c * target, abs=1e-14)

    def test_scalar_means_equal_the_matmul_recursion_bit_for_bit(self):
        # a 1x1 model propagates its mean on Python floats
        models = [model for model, _ in _parity_models() if model.state_dim == 1]
        models += [mean_variance_model(g, b, 1.0, 0.01, 50, x0)
                   for g, b, x0 in [(1.0, 0.5, 1.0), (2.0, -0.5, 0.0), (0.5, 0.0, -0.0)]]
        solved = 0
        for model in models:
            sol, error = _outcome(solve_riccati, model, force=True)
            if error:
                continue
            solved += 1
            policy = optimal_policy(model, sol)
            got = explicit_control_coefficients(model, sol, policy).state_means
            drive = np.einsum("kdm,km->kd", model.drift_control + model.drift_control_mean,
                              policy.offset)
            want = np.zeros_like(got)
            want[0] = model.initial_mean
            for k in range(model.horizon):
                want[k + 1] = sol.mean_transition[k] @ want[k] + drive[k]
            assert got.tobytes() == want.tobytes()
        assert solved >= 30

    def test_continuous_time_limit(self):
        gamma, b, sigma, x0, T = 1.0, 0.5, 1.0, 1.0, 1.0
        n = 10_000
        model = mean_variance_model(gamma, b, sigma, T / n, n, x0)
        sol = solve_riccati(model)
        controls = explicit_control_coefficients(model, sol, optimal_policy(model, sol))
        fb_limit = -b / sigma**2
        const_limit = (b / sigma**2) * (x0 + math.exp(b**2 / sigma**2 * T) / gamma)
        assert abs(controls.feedback[0, 0, 0] - fb_limit) <= 1e-2 * abs(fb_limit)
        assert abs(controls.constant[0, 0] - const_limit) <= 1e-2 * abs(const_limit)


class TestSerialization:
    def test_model_round_trip(self):
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
        back = LQModel.from_json(model.to_json())
        for key in LQModel._STAGE_KEYS:
            np.testing.assert_array_equal(getattr(back, key), getattr(model, key))
        np.testing.assert_array_equal(back.initial_mean, model.initial_mean)

    def test_policy_round_trip(self):
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
        pol = optimal_policy(model, solve_riccati(model))
        back = AffinePolicy.from_json(pol.to_json())
        np.testing.assert_array_equal(back.gain_state, pol.gain_state)
        np.testing.assert_array_equal(back.offset, pol.offset)

    @pytest.mark.parametrize("field", ["gain_state", "gain_mean", "offset"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_policy_coefficients_rejected(self, field, value):
        coefficients = AffinePolicy.zero(3, 2, 1).to_json()
        arr = np.asarray(coefficients[field])
        arr.flat[-1] = value
        coefficients[field] = arr
        with pytest.raises(ValueError, match=f"policy {field} has non-finite entries"):
            AffinePolicy(**coefficients)
        with pytest.raises(ValueError, match="non-finite"):
            AffinePolicy.from_json(coefficients | {field: arr.tolist()})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_coefficients_rejected(self, value):
        payload = scalar_lq(n=2, B=1.0, C=1.0, R=1.0, QT=1.0).to_json()
        payload["stages"][1]["cost_state"] = [[value]]
        with pytest.raises(ValueError, match="cost_state has non-finite entries"):
            LQModel.from_json(payload)

    @pytest.mark.parametrize("param", ["gamma", "b", "sigma", "delta", "x0"])
    def test_non_finite_mean_variance_parameters_rejected(self, param):
        params = dict(gamma=1.0, b=0.5, sigma=1.0, delta=1.0, n=2, x0=1.0)
        params[param] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            mean_variance_model(**params)

    def test_declared_dims_cross_checked(self):
        payload = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0).to_json()
        payload["state_dim"] = 2
        with pytest.raises(ValueError, match="declared dims"):
            LQModel.from_json(payload)
        payload = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0).to_json()
        payload["horizon"] = 5
        with pytest.raises(ValueError, match="declared horizon"):
            LQModel.from_json(payload)


def _staged_lq(n, stages, **coefficients):
    """``scalar_lq(n, **coefficients)`` with some fields of some stages replaced:
    ``stages`` maps a stage to ``{field: value}``."""
    payload = scalar_lq(n=n, **coefficients).to_json()
    for k, replaced in stages.items():
        for name, value in replaced.items():
            payload["stages"][k][name] = [[value]]
    return LQModel.from_json(payload)


def _not_finite_at(k):
    return FloatingPointError, f"Riccati recursion not finite at stage {k}"


def _failure_order_models():
    """Models where two stages fail, or a stage turns non-finite, each with the
    error of a forced solve: the highest failing stage decides, and there a
    non-finite stage matrix comes before the eigenvalue margin."""
    base = dict(B=1.0, C=1.0, R=1.0, QT=1.0)
    # both Hessians are 1e-11: Cholesky factors them, the margin fails
    margin = dict(drift_control=0.0, cost_control=1e-11)
    at_2 = (NotPositiveDefinite, "control Hessian not positive definite at stage 2")
    # d = 1, m = 3: the control cost passes the margin (its smallest
    # eigenvalue computes to 0.35) but has no Cholesky factor
    no_factor = np.eye(3)[None].repeat(3, axis=0)
    no_factor[1] = [[2739301022055814.5, -980057451425627.9, 6960444662946534.0],
                    [-980057451425627.9, 1058488305830348.9, -1975269408288238.2],
                    [6960444662946534.0, -1975269408288238.2, 1.8060899824724184e+16]]
    drift_control = np.ones((3, 1, 3))
    drift_control[1] = 0.0
    zeros = lambda *shape: np.zeros((3,) + shape)
    return [
        (_staged_lq(4, {2: margin}, **base), at_2),
        # the stage-3 Hessian overflows, above a margin failure at stage 1
        (_staged_lq(4, {3: dict(drift_control=1e200), 1: margin}, **base), _not_finite_at(3)),
        # the stage-0 Hessian overflows, below the margin failure at stage 2
        (_staged_lq(4, {2: margin, 0: dict(drift_control=1e200)}, **base), at_2),
        # both Hessians of stage 2 are exactly 0.0, below a margin failure at stage 1
        (_staged_lq(4, {2: dict(drift_control=0.0, cost_control=0.0), 1: margin}, **base),
         (NotPositiveDefinite, "centered control Hessian not positive definite at stage 2")),
        # the mean Hessian of stage 2 is 1e-11, and the update that divides by
        # it overflows, so the weights below the margin failure are not finite
        (_staged_lq(3, {2: dict(drift_state=1e150, cost_control_mean=-2.0)},
                    QTbar=1e-11, **base), at_2),
        # the mean Schur complement of stage 2 overflows to -inf, which stage 1,
        # with no state drift, multiplies by 0: its stage matrix holds NaN
        (_staged_lq(3, {2: dict(drift_state=1e150, cost_control_mean=-2.0),
                        1: dict(drift_state=0.0)}, QTbar=1e-9, **base), _not_finite_at(1)),
        (LQModel(drift_state=np.ones((3, 1, 1)), drift_state_mean=zeros(1, 1),
                 drift_control=drift_control, drift_control_mean=zeros(1, 3),
                 noise_state=zeros(1, 1), noise_state_mean=zeros(1, 1),
                 noise_control=zeros(1, 3), noise_control_mean=zeros(1, 3),
                 cost_state=zeros(1, 1), cost_state_mean=zeros(1, 1),
                 cost_control=no_factor, cost_control_mean=zeros(3, 3),
                 cost_linear=zeros(1), cost_linear_mean=zeros(1),
                 terminal_state=[[1.0]], terminal_state_mean=[[0.0]], terminal_linear=[1.0],
                 terminal_linear_mean=[0.0], initial_mean=[0.0], initial_cov=[[0.0]]),
         (np.linalg.LinAlgError, "3-th leading minor of the array is not positive definite")),
    ]


def _parity_models():
    """``(model, error)`` pairs: both LQ fixtures and 200 seeded random models,
    with ``error`` None, then :func:`_failure_order_models`.  Every other
    random model has one stage's control cost, or its mean part, rescaled by a
    factor in [-8, 1], which makes conditions and often control Hessians fail."""
    mv = load_fixture("lq_mean_variance.json")["model"]
    models = [mean_variance_model(**mv),
              LQModel.from_json(load_fixture("lq_multivariate.json")["model"])]
    rng = np.random.default_rng(20260601)
    for i in range(200):
        model = random_lq_model(rng, *(int(v) for v in rng.integers(1, 4, size=2)),
                                int(rng.integers(1, 7)))
        if i % 2:
            name = ("cost_control", "cost_control_mean")[i // 2 % 2]
            coefficients = getattr(model, name).copy()
            coefficients[rng.integers(model.horizon)] *= rng.uniform(-8.0, 1.0)
            model = dataclasses.replace(model, **{name: coefficients})
        models.append(model)
    return [(model, None) for model in models] + _failure_order_models()


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # the parity check compares the exceptions themselves
        return None, (type(exc), str(exc))


def _assert_close(got, want):
    scale = float(np.max(np.abs(want), initial=0.0))
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want), initial=0.0)) <= PARITY_RTOL * scale


class TestReferenceParity:
    """The stacked LAPACK pass against the per-stage ``cho_factor`` recursion
    of ``lq_reference``: equal reports and exceptions, coefficients within
    1e-12 relative."""

    @pytest.fixture(scope="class")
    def models(self):
        return _parity_models()

    def test_reports_and_exceptions_match(self, models):
        outcomes = set()
        for model, expected in models:
            if expected is not None and expected[0] is FloatingPointError:
                # beyond the reference: every solve names the non-finite stage
                for solve in (check_conditions, solve_riccati,
                              lambda m: solve_riccati(m, force=True)):
                    with np.errstate(over="ignore", invalid="ignore"):
                        assert _outcome(solve, model)[1] == expected
                outcomes.add((FloatingPointError, "Riccati recursion not finite"))
                continue
            assert _outcome(check_conditions, model) == _outcome(
                lq_reference.check_conditions, model)
            for force in (False, True):
                error = _outcome(solve_riccati, model, force=force)[1]
                assert error == _outcome(lq_reference.solve_riccati, model, force=force)[1]
                if force and expected is not None:
                    assert error == expected
                outcomes.add(error and (error[0], error[1].split(" at stage")[0]))
        # the set exercises every way a solve can end
        assert outcomes == {None, (ConditionsNotMet, "conditions violated"),
                            (NotPositiveDefinite, "centered control Hessian not positive definite"),
                            (NotPositiveDefinite, "mean control Hessian not positive definite"),
                            (NotPositiveDefinite, "control Hessian not positive definite"),
                            (np.linalg.LinAlgError,
                             "3-th leading minor of the array is not positive definite"),
                            (FloatingPointError, "Riccati recursion not finite")}

    def test_solutions_policies_and_controls_match(self, models):
        solved = 0
        for model, _ in models:
            sol, error = _outcome(solve_riccati, model, force=True)
            if error:
                continue
            solved += 1
            ref = lq_reference.solve_riccati(model, force=True)
            for name in SOLUTION_FIELDS:
                _assert_close(getattr(sol, name), getattr(ref, name))
            policy, ref_policy = optimal_policy(model, sol), lq_reference.optimal_policy(model, ref)
            for name in ("gain_state", "gain_mean", "offset"):
                _assert_close(getattr(policy, name), getattr(ref_policy, name))
            controls = explicit_control_coefficients(model, sol, policy)
            ref_constant, ref_means = lq_reference.explicit_controls(model, ref, ref_policy)
            _assert_close(controls.constant, ref_constant)
            _assert_close(controls.state_means, ref_means)
        assert solved >= len(models) // 2


class TestFloatLoop:
    """Models whose every block is 1x1 run the recursion on Python floats;
    the array loop on the same models gives the same reports and exceptions,
    and coefficients within ``PARITY_RTOL``."""

    @staticmethod
    def _pass(monkeypatch, model, loop):
        """The outcome of ``_backward_pass(model)`` with ``loop`` in place of
        the float loop, and the names of the loops it ran."""
        ran = []
        with monkeypatch.context() as patch:
            patch.setattr(lq, "_float_loop",
                          lambda *args: ran.append(loop.__name__) or loop(*args))
            with np.errstate(over="ignore", invalid="ignore"):
                return _outcome(lq._backward_pass, model), ran

    def test_both_loops_agree_on_every_scalar_parity_model(self, monkeypatch):
        scalar = [model for model, _ in _parity_models()
                  if model.state_dim == model.control_dim == 1]
        assert len(scalar) == 30
        ends = set()
        for model in scalar:
            (floats, raised), ran = self._pass(monkeypatch, model, lq._float_loop)
            (arrays, array_raised), array_ran = self._pass(monkeypatch, model, lq._array_loop)
            assert (ran, array_ran) == (["_float_loop"], ["_array_loop"])
            assert raised == array_raised
            if raised:
                ends.add(raised[0])
                continue
            (report, sol, error), (array_report, array_sol, array_error) = floats, arrays
            assert report == array_report
            assert (type(error), str(error)) == (type(array_error), str(array_error))
            ends.add(type(error) if error else None)
            for name in SOLUTION_FIELDS if sol else ():
                _assert_close(getattr(sol, name), getattr(array_sol, name))
        assert ends == {None, NotPositiveDefinite, FloatingPointError}

    def test_mean_variance_at_ten_thousand_stages_matches_the_closed_form(self):
        n = 10**4
        sol = solve_riccati(mean_variance_model(1.0, 0.5, 1.0, 1.0 / n, n, 1.0))
        closed = mean_variance_closed_form(1.0, 0.5, 1.0, 1.0 / n, n)
        for name in SOLUTION_FIELDS:
            want = getattr(closed, name)
            # rounding accumulates over the stages: n eps is about 2e-12
            assert np.max(np.abs(getattr(sol, name) - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("model, ok", [
        (scalar_lq(n=4, B=1.0, C=1.0, R=1.0, QT=1.0), True),
        (_staged_lq(4, {1: dict(cost_state=-0.5)}, B=1.0, C=1.0, R=1.0, QT=1.0), False),
        (_staged_lq(4, {2: dict(drift_control=0.0, cost_control=0.0),
                        0: dict(cost_state=-1.0, cost_state_mean=2.0)},
                    B=1.0, C=1.0, R=1.0, QT=1.0), False),
        (random_lq_model(np.random.default_rng(4), 2, 3, 5), True),
    ], ids=["passing", "conditions-not-met", "not-positive-definite", "matrix-blocks"])
    def test_report_rows_are_built_on_first_read(self, model, ok):
        report = check_conditions(model)
        assert "stages" not in report.__dict__   # cached_property's storage
        rows = report.stages
        assert report.__dict__["stages"] is rows and report.stages is rows
        assert rows == lq_reference.check_conditions(model).stages
        failures = [(k, "; ".join(f)) for k, f in
                    enumerate([lq._stage_failures(row) for row in rows]
                              + [report.terminal_failures]) if f]
        assert report.first_failure == (failures[0] if failures else None)
        assert report.ok is ok
