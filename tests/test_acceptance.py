"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the table.
"""

import math
import time

import numpy as np
import pytest

from conftest import load_finite, random_classical_model, random_finite_model, random_initial_law
from mfctrl import dpp, verify
from mfctrl.lq import (
    ConditionsNotMet,
    check_conditions,
    explicit_control_coefficients,
    mean_variance_model,
    optimal_policy,
    solve_riccati,
)
from mfctrl.moments import exact_cost
from mfctrl.particles import simulate

MV_GRID = [(gamma, b, sigma, n)
           for gamma in (0.5, 1.0, 2.0)
           for b in (0.2, 0.5)
           for sigma in (0.5, 1.0)
           for n in (2, 5, 10)]          # delta = T/n with T = 1


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(num, ok, detail, timer, limit=None):
    status = "PASS" if ok else "FAIL"
    bound = f", limit {limit:.0f}s" if limit else ""
    print(f"criterion {num}: {status} ({detail}; {timer.elapsed:.2f}s{bound})")
    assert ok, f"criterion {num} failed: {detail}"
    if limit is not None:
        assert timer.elapsed < limit, f"criterion {num} exceeded {limit}s runtime"


@pytest.fixture(scope="module")
def lq_model_suite():
    """Mean-variance grid plus 20 randomized multivariate models, all passing
    the convexity conditions (shared by criteria 2 and 3)."""
    models = []
    for gamma, b, sigma, n in MV_GRID:
        models.append(mean_variance_model(gamma, b, sigma, 1.0 / n, n, 1.0))
    rng = np.random.default_rng(987654321)
    while len(models) < len(MV_GRID) + 20:
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 6))
        model = verify.random_lq_model(rng, d, m, n)
        if check_conditions(model).ok:
            models.append(model)
    return models


def test_criterion_1_mean_variance_closed_form():
    with _Timer() as timer:
        worst = verify.closed_form_gap(MV_GRID)
    _report(1, worst <= 1e-12,
            f"{len(MV_GRID)} parameter tuples, max componentwise dev {worst:.2e}",
            timer, limit=1.0)


def test_criterion_2_verification_identity(lq_model_suite):
    with _Timer() as timer:
        worst = verify.verification_gap(lq_model_suite)
    _report(2, worst <= 1e-9,
            f"{len(lq_model_suite)} models, max |cost - value| {worst:.2e}",
            timer, limit=5.0)


def test_criterion_3_perturbation_optimality(lq_model_suite):
    with _Timer() as timer:
        worst_gap = verify.perturbation_gap(lq_model_suite, np.random.default_rng(2468), 50)
    _report(3, worst_gap >= -1e-9,
            f"{len(lq_model_suite)} models x 50 perturbations x 2 scales, "
            f"min cost increase {worst_gap:.2e}", timer, limit=30.0)


def test_criterion_4_finite_dpp_vs_brute_force():
    with _Timer() as timer:
        rng = np.random.default_rng(1357)
        shapes = [(2, 2, 2), (3, 2, 2), (2, 2, 3), (3, 2, 3)]
        cases = []
        for trial in range(10):
            model = random_finite_model(rng, *shapes[trial % len(shapes)])
            cases.append((model, random_initial_law(rng, model)))
        worst_value = verify.brute_force_gap(cases)
        worst_roll = verify.rollforward_gap(cases)
    _report(4, worst_value <= 1e-10 and worst_roll <= 1e-12,
            f"10 randomized models, max |solve - brute| {worst_value:.2e}, "
            f"max roll-forward dev {worst_roll:.2e}", timer, limit=60.0)


def test_criterion_5_classical_factorization():
    with _Timer() as timer:
        rng = np.random.default_rng(8642)
        cases = [load_finite("finite_classical_chain.json"),
                 load_finite("finite_classical_table.json")]
        for _ in range(3):
            model = random_classical_model(rng, 3, 2, 3)
            cases.append((model, random_initial_law(rng, model)))
        worst = verify.classical_gap(cases)
    _report(5, worst <= 1e-12, f"5 no-interaction fixtures, max discrepancy {worst:.2e}",
            timer)


def test_criterion_6_first_order_interaction():
    with _Timer() as timer:
        names = ("fo_coupled_costs.json", "fo_degenerate.json", "fo_kernel_coupled.json")
        cases = [load_finite(name) for name in names]
        for model, mu0 in cases:
            assert model.n_states == 2 and model.n_actions == 2 and model.horizon == 2
            assert set(dpp.first_order_check(model, mu0).per_stage) == {0, 1, 2}
        worst = verify.first_order_gap(cases)
    _report(6, worst <= 1e-10,
            f"3 pairwise-interaction fixtures, max discrepancy over all stages {worst:.2e}",
            timer)


def test_criterion_7_monte_carlo_consistency():
    with _Timer() as timer:
        model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
        policy = optimal_policy(model, solve_riccati(model))
        exact = exact_cost(model, policy)

        misses = 0
        for seed in range(10):
            sim = simulate(model, policy, 100_000, seed=seed)
            if abs(sim.estimate - exact) > 4 * sim.std_error:
                misses += 1

        sizes = [100, 1000, 10_000, 100_000]
        rms = []
        for j, n in enumerate(sizes):
            errs = [simulate(model, policy, n, seed=1000 + 20 * j + r).estimate - exact
                    for r in range(20)]
            rms.append(float(np.sqrt(np.mean(np.square(errs)))))
        slope = float(np.polyfit(np.log(sizes), np.log(rms), 1)[0])
    _report(7, misses == 0 and abs(slope + 0.5) <= 0.15,
            f"10/10 seeds within 4 s.e. (misses {misses}), "
            f"log error slope {slope:.3f} vs -0.5 +/- 0.15", timer, limit=60.0)


def test_criterion_8_continuous_time_limit():
    with _Timer() as timer:
        gamma, b, sigma, x0, T = 1.0, 0.5, 1.0, 1.0, 1.0
        n = 10_000
        model = mean_variance_model(gamma, b, sigma, T / n, n, x0)
        sol = solve_riccati(model)
        controls = explicit_control_coefficients(model, sol, optimal_policy(model, sol))
        fb = controls.feedback[0, 0, 0]
        const = controls.constant[0, 0]
        fb_limit = -b / sigma**2
        const_limit = (b / sigma**2) * (x0 + math.exp(b**2 / sigma**2 * T) / gamma)
        rel_fb = abs(fb - fb_limit) / abs(fb_limit)
        rel_const = abs(const - const_limit) / abs(const_limit)
    _report(8, rel_fb <= 1e-2 and rel_const <= 1e-2,
            f"n = 10^4: feedback rel err {rel_fb:.2e}, constant rel err {rel_const:.2e}",
            timer)


def test_criterion_9_condition_checker():
    with _Timer() as timer:
        good = check_conditions(mean_variance_model(1.0, 0.5, 1.0, 1.0, 3, 1.0))
        degenerate = verify.degenerate_mean_variance_model()
        bad = check_conditions(degenerate)
        rejected_at_stage = (not bad.ok) and bad.first_failure[0] == 1
        try:
            solve_riccati(degenerate)
            raised = False
        except ConditionsNotMet as exc:
            raised = "stage 1" in str(exc)
    _report(9, good.ok and rejected_at_stage and raised,
            f"mean-variance passes all stages: {good.ok}; degenerate rejected "
            f"naming stage 1: {rejected_at_stage and raised}", timer)
