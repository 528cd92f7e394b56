"""Cross-oracle invariants, shared by ``mfctrl verify`` and the acceptance tests.

Each invariant is one function that measures it over the cases (and the
random generator) it is given and returns the worst value seen; the caller
applies the tolerance.  :func:`rows` builds the ``mfctrl verify`` table from
them, drawing every random case from one seeded generator in a fixed order.
"""

import dataclasses

import numpy as np

from . import dpp, fixtures, moments
from .lq import (AffinePolicy, LQModel, check_conditions, explicit_control_coefficients,
                 mean_variance_closed_form, mean_variance_model, optimal_policy,
                 solve_riccati, stationarity_residual, value_at)
from .measure import DiscreteMeasure, image_measure, pushforward
from .model import finite_model_from_config, lifted_stage_cost, validate
from .particles import simulate

SOLUTION_FIELDS = ("var_weight", "mean_weight", "linear", "constant", "dev_hessian",
                   "mean_hessian", "dev_cross", "mean_cross", "mean_transition")


def load_finite(name):
    """Model and initial law of a shipped finite fixture."""
    data = fixtures.load_fixture(name)
    return finite_model_from_config(data["model"]), DiscreteMeasure.from_json(data["initial_law"])


def random_lq_model(rng, d, m, n):
    """Random LQ model with PSD state costs and PD control costs."""
    def mat(a, b, scale=0.6):
        return rng.uniform(-scale, scale, size=(a, b))

    def psd(k, scale):
        A = rng.uniform(-1.0, 1.0, size=(k, k))
        return scale * (A @ A.T)

    return LQModel(
        drift_state=np.stack([mat(d, d) for _ in range(n)]),
        drift_state_mean=np.stack([0.3 * mat(d, d) for _ in range(n)]),
        drift_control=np.stack([mat(d, m) for _ in range(n)]),
        drift_control_mean=np.stack([0.3 * mat(d, m) for _ in range(n)]),
        noise_state=np.stack([0.4 * mat(d, d) for _ in range(n)]),
        noise_state_mean=np.stack([0.2 * mat(d, d) for _ in range(n)]),
        noise_control=np.stack([0.4 * mat(d, m) for _ in range(n)]),
        noise_control_mean=np.stack([0.2 * mat(d, m) for _ in range(n)]),
        cost_state=np.stack([psd(d, 0.5) for _ in range(n)]),
        cost_state_mean=np.stack([psd(d, 0.3) for _ in range(n)]),
        cost_control=np.stack([psd(m, 0.4) + 0.2 * np.eye(m) for _ in range(n)]),
        cost_control_mean=np.stack([psd(m, 0.2) + 0.1 * np.eye(m) for _ in range(n)]),
        cost_linear=rng.uniform(-1.0, 1.0, size=(n, d)),
        cost_linear_mean=rng.uniform(-1.0, 1.0, size=(n, d)),
        terminal_state=psd(d, 0.5),
        terminal_state_mean=psd(d, 0.3),
        terminal_linear=rng.uniform(-1.0, 1.0, d),
        terminal_linear_mean=rng.uniform(-1.0, 1.0, d),
        initial_mean=rng.uniform(-1.0, 1.0, d),
        initial_cov=psd(d, 0.4),
    )


def degenerate_mean_variance_model():
    """The n = 3 mean-variance model with no control at stage 1, where the conditions fail."""
    payload = mean_variance_model(1.0, 0.5, 1.0, 1.0, 3, 1.0).to_json()
    payload["stages"][1]["drift_control"] = [[0.0]]
    payload["stages"][1]["noise_control"] = [[0.0]]
    return LQModel.from_json(payload)


def measure_gaps(model, rng, draws):
    """Worst ``(|mass - 1|, image-mean deviation, variance-form negativity)`` on random laws."""
    mass, image, negativity = 0.0, 0.0, 0.0
    for _ in range(draws):
        mu = DiscreteMeasure(model.states, rng.dirichlet(np.ones(model.n_states)))
        policy = model.tabular_policy(rng.integers(0, model.n_actions, model.n_states))
        nxt = pushforward(mu, policy, model, int(rng.integers(0, model.horizon)))
        mass = max(mass, abs(nxt.weights.sum() - 1.0))
        acts = policy.at(mu.support)
        image = max(image, float(np.max(np.abs(
            image_measure(mu, policy).mean() - mu.weights @ acts))))
        root = rng.normal(size=(mu.dim, mu.dim))
        negativity = max(negativity, -mu.variance_form(root.T @ root))
    return mass, image, negativity


def mixture_gaps(model, policy, weights_a, weights_b, alpha):
    """Deviation of the stage-0 pushforward from linearity and of the lifted
    cost from affinity on the mixture of two laws (measure-free models)."""
    grid = model.states
    mu_a, mu_b = DiscreteMeasure(grid, weights_a), DiscreteMeasure(grid, weights_b)
    mix = DiscreteMeasure(grid, alpha * mu_a.weights_on_grid(grid)
                          + (1 - alpha) * mu_b.weights_on_grid(grid))

    def push(mu):
        return pushforward(mu, policy, model, 0).weights_on_grid(grid)

    push_gap = np.max(np.abs(push(mix) - (alpha * push(mu_a) + (1 - alpha) * push(mu_b))))
    cost_gap = abs(lifted_stage_cost(model, 0, mix, policy)
                   - alpha * lifted_stage_cost(model, 0, mu_a, policy)
                   - (1 - alpha) * lifted_stage_cost(model, 0, mu_b, policy))
    return push_gap, cost_gap


def brute_force_gap(cases):
    """Largest ``|solve - brute force|`` over ``(model, initial law)`` cases."""
    return max(abs(dpp.solve(m, mu).v0 - dpp.brute_force_value(m, mu)) for m, mu in cases)


def rollforward_gap(cases):
    """Largest gap between ``v0`` and the cost of rolling its argmin maps forward."""
    worst = 0.0
    for m, mu in cases:
        res = dpp.solve(m, mu)
        worst = max(worst, abs(dpp.rollforward(m, mu, res.optimal_policy_sequence)[0] - res.v0))
    return worst


def one_step_gap(model, mu0):
    """Largest gap between a node's value and its argmin cost plus its child's value."""
    res = dpp.solve(model, mu0)
    worst = 0.0
    for k, (laws, values, maps) in enumerate(zip(res.laws, res.values, res.maps)):
        actions = dpp._map_actions(maps, model.n_states, model.n_actions)
        for law, value, acts in zip(laws, values.tolist(), actions):
            mu, policy = DiscreteMeasure(model.states, law), model.tabular_policy(acts)
            child = pushforward(mu, policy, model, k).weights_on_grid(model.states)
            recomputed = (lifted_stage_cost(model, k, mu, policy)
                          + res.values[k + 1][res.node_at(k + 1, child)])
            worst = max(worst, abs(value - recomputed))
    return worst


def shift_gap(model, mu0, shift):
    """Deviation of ``v0`` from ``v0 + shift`` when the terminal cost is shifted."""
    g0 = model.terminal_cost
    shifted = dataclasses.replace(model, terminal_cost=lambda i, mu: g0(i, mu) + shift)
    return abs(dpp.solve(shifted, mu0).v0 - dpp.solve(model, mu0).v0 - shift)


def random_policy_gap(model, mu0, rng, count):
    """Smallest cost increase over ``v0`` of ``count`` random map sequences."""
    v0 = dpp.solve(model, mu0).v0
    worst = np.inf
    for _ in range(count):
        seq = [model.tabular_policy(rng.integers(0, model.n_actions, model.n_states))
               for _ in range(model.horizon)]
        worst = min(worst, dpp.rollforward(model, mu0, seq)[0] - v0)
    return worst


def classical_gap(cases):
    """Largest discrepancy of the per-state factorization (no interaction)."""
    return max(dpp.classical_factorization_check(m, mu).max_discrepancy for m, mu in cases)


def first_order_gap(cases):
    """Largest discrepancy of the pairwise tensor recursion (first-order models)."""
    return max(dpp.first_order_check(m, mu).max_discrepancy for m, mu in cases)


def _solved(models):
    for m in models:
        sol = solve_riccati(m)
        yield m, sol, optimal_policy(m, sol)


def closed_form_gap(grid):
    """Largest gap between Riccati and the mean-variance closed form, ``delta = 1/n``."""
    worst = 0.0
    for gamma, b, sigma, n in grid:
        sol = solve_riccati(mean_variance_model(gamma, b, sigma, 1.0 / n, n, 1.0))
        closed = mean_variance_closed_form(gamma, b, sigma, 1.0 / n, n)
        for name in SOLUTION_FIELDS:
            worst = max(worst, float(np.max(np.abs(getattr(sol, name) - getattr(closed, name)))))
    return worst


def verification_gap(models):
    """Largest ``|exact cost of the optimal policy - value at the initial law|``."""
    return max(abs(moments.exact_cost(m, pol)
                   - value_at(sol, 0, (m.initial_mean, m.initial_cov)))
               for m, sol, pol in _solved(models))


def weight_negativity(models):
    """Most negative eigenvalue of the propagated value weights, negated."""
    worst = 0.0
    for sol in map(solve_riccati, models):
        worst = max(worst, -float(np.linalg.eigvalsh(sol.var_weight).min()),
                    -float(np.linalg.eigvalsh(sol.mean_weight).min()))
    return worst


def stationarity_gap(models, rng):
    """Largest first-order residual of the optimal policy, one random point a stage."""
    worst = 0.0
    for m, sol, pol in _solved(models):
        for k in range(m.horizon):
            mean = rng.normal(size=m.state_dim)
            x = mean + rng.normal(size=m.state_dim)
            residual = stationarity_residual(m, sol, pol, k, x, mean)
            worst = max(worst, float(np.max(np.abs(residual))))
    return worst


def perturbation_gap(models, rng, directions):
    """Smallest exact-cost increase over random perturbations of the optimal policy."""
    worst = np.inf
    for m, _, pol in _solved(models):
        base = moments.exact_cost(m, pol)
        for _ in range(directions):
            direction = AffinePolicy(rng.normal(size=pol.gain_state.shape),
                                     rng.normal(size=pol.gain_mean.shape),
                                     rng.normal(size=pol.offset.shape))
            for eps in (1e-3, 1e-2):
                worst = min(worst, moments.exact_cost(m, pol.perturbed(direction, eps)) - base)
    return worst


def moment_chain_gaps(model, policy):
    """Gap between the summed per-stage moment costs and ``exact_cost``, and the
    most negative eigenvalue (negated) of the propagated covariances."""
    states = moments.exact_trajectory(model, policy)
    total = sum(moments.stage_cost_moments(model, k, states[k], policy)
                for k in range(model.horizon)) + moments.terminal_cost_moments(model, states[-1])
    negativity = max(-float(np.linalg.eigvalsh(s.cov).min()) for s in states)
    return abs(total - moments.exact_cost(model, policy)), negativity


def mean_tracking_excess(sim, controls):
    """Largest excess of the particle means over the optimal mean flow beyond
    4 s.e., over stages 1..n: stage 0 is the initial law, which the particles
    match exactly when it is a Dirac, so it would pin the maximum at 0."""
    spread = 4 * np.sqrt(sim.stage_variances) / np.sqrt(sim.n_particles)
    return float(np.max((np.abs(sim.stage_means - controls.state_means) - spread)[1:]))


def rows(quick=False):
    """The ``mfctrl verify`` table: one ``(name, passed, detail)`` per check."""
    table = []

    def check(name, ok, detail):
        table.append((name, bool(ok), detail))

    def bounded(name, gap, tol, label):
        check(name, gap <= tol, f"{label} {gap:.2e}")

    rng = np.random.default_rng(20240817)
    n_mc = 5_000 if quick else 20_000

    model, mu0 = load_finite("finite_mean_reverting.json")
    mass, image, negativity = measure_gaps(model, rng, 20)
    bounded("measure.pushforward_mass", mass, 1e-12, "max |mass-1|")
    bounded("measure.image_mean_identity", image, 1e-12, "max dev")
    bounded("measure.variance_form_psd", negativity, 1e-12, "max negativity")

    free, _ = load_finite("finite_classical_table.json")
    push, cost = mixture_gaps(free, free.tabular_policy([0, 1, 0]),
                              [0.6, 0.1, 0.3], [0.2, 0.5, 0.3], 0.35)
    bounded("measure.pushforward_mixture_linearity", push, 1e-12, "max dev")
    bounded("model.lifted_cost_mixture_affine", cost, 1e-12, "dev")

    bad = [name for name in fixtures.list_fixtures()
           if name.startswith(("finite_", "fo_")) and not validate(load_finite(name)[0]).ok]
    check("model.validate_fixtures", not bad, f"failing: {bad}" if bad else "all pass")

    cases = map(load_finite, ("finite_mean_reverting.json", "finite_mean_clamp.json"))
    bounded("dpp.solve_equals_brute_force", brute_force_gap(cases), 1e-10, "max dev")
    bounded("dpp.rollforward_reproduces_v0", rollforward_gap([(model, mu0)]), 1e-12, "dev")
    bounded("dpp.one_step_consistency", one_step_gap(model, mu0), 1e-12, "max dev")
    bounded("dpp.monotone_constant_shift", shift_gap(model, mu0, 0.375), 1e-12, "dev")
    gap = random_policy_gap(model, mu0, rng, 100)
    check("dpp.random_policies_suboptimal", gap >= -1e-10, f"min gap {gap:.2e}")
    cases = map(load_finite, ("finite_classical_chain.json", "finite_classical_table.json"))
    bounded("dpp.classical_factorization", classical_gap(cases), 1e-12, "max disc")
    cases = map(load_finite, ("fo_coupled_costs.json", "fo_degenerate.json",
                              "fo_kernel_coupled.json"))
    bounded("dpp.first_order_factorization", first_order_gap(cases), 1e-10, "max disc")

    bounded("lq.closed_form_agreement", closed_form_gap(
        [(1.0, 0.5, 1.0, 2), (2.0, 0.2, 0.5, 5), (0.5, 0.5, 1.0, 10)]), 1e-12, "max dev")
    mv = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
    rep, rep_bad = check_conditions(mv), check_conditions(degenerate_mean_variance_model())
    check("lq.conditions", rep.ok and (not rep_bad.ok) and rep_bad.first_failure[0] == 1,
          f"mv: {rep.ok}, degenerate: {rep_bad.message()}")
    models = [mv] + [random_lq_model(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                                     int(rng.integers(1, 6))) for _ in range(3)]
    bounded("lq.verification_identity", verification_gap(models), 1e-9, "max dev")
    bounded("lq.weights_psd", weight_negativity(models), 1e-10, "worst negativity")
    bounded("lq.stationarity", stationarity_gap(models, rng), 1e-9, "max residual")
    gap = perturbation_gap(models[:2], rng, 20)
    check("lq.perturbation_optimality", gap >= -1e-9, f"min gap {gap:.2e}")

    sol = solve_riccati(mv)
    pol = optimal_policy(mv, sol)
    sim = simulate(mv, pol, n_mc, seed=7)
    dev = abs(sim.estimate - moments.exact_cost(mv, pol))
    check("mc.matches_exact_cost", dev <= 4 * sim.std_error,
          f"dev {dev:.2e} vs 4se {4 * sim.std_error:.2e}")
    sim2 = simulate(mv, pol, n_mc, seed=7)
    check("mc.seed_determinism", sim.estimate == sim2.estimate
          and np.array_equal(sim.stage_means, sim2.stage_means), "bit-identical rerun")
    gap, negativity = moment_chain_gaps(mv, pol)
    bounded("mc.moment_chain_consistency", gap, 1e-12, "dev")
    bounded("mc.propagated_cov_psd", negativity, 1e-10, "worst negativity")
    bounded("mc.mean_tracking", mean_tracking_excess(
        sim, explicit_control_coefficients(mv, sol, pol)), 0.0, "max excess")

    first = dpp.solve(model, mu0).optimal_policy_sequence[0]
    fsim = simulate(model, first, n_mc, seed=11, closure="oracle-law", initial_law=mu0)
    dev = abs(fsim.estimate - dpp.rollforward(model, mu0, [first] * model.horizon)[0])
    check("mc.finite_oracle_law", dev <= 4 * fsim.std_error,
          f"dev {dev:.2e} vs 4se {4 * fsim.std_error:.2e}")
    return table
