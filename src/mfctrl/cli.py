"""Scenario runner: finite DPP solves, Riccati solves, the mean-variance
preset, Monte Carlo simulation, and the cross-oracle verification table.

Exit codes: 0 success, 1 verification failure, 2 malformed config or usage,
3 numerical failure.
"""

import os

_cap = os.environ.get("MFCTRL_THREADS")
if _cap:
    # must happen before numpy links its thread pools
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _cap)

import argparse
import csv
import json
import sys

import numpy as np

from . import dpp, fixtures, lq, moments, particles
from .lq import (
    AffinePolicy,
    ConditionsNotMet,
    LQModel,
    NotPositiveDefinite,
    check_conditions,
    explicit_control_coefficients,
    mean_variance_closed_form,
    mean_variance_model,
    optimal_policy,
    solve_riccati,
    value_at,
)
from .measure import DiscreteMeasure, TabularMap, image_measure, pushforward
from .model import finite_model_from_config, lifted_stage_cost, validate
from .particles import simulate

CONFIG_ERROR = 2
NUMERICAL_ERROR = 3


class ConfigError(ValueError):
    pass


class NonFiniteOutput(ArithmeticError):
    """A result holds NaN or Inf, which strict JSON cannot carry."""


def _load_scenario(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    kind = data.get("kind")
    if kind not in ("finite", "lq", "meanvariance"):
        raise ConfigError(f"config field 'kind' must be finite|lq|meanvariance, got {kind!r}")
    if "model" not in data:
        raise ConfigError("config is missing the 'model' field")
    return data


def _finite_from_scenario(data):
    try:
        model = finite_model_from_config(data["model"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad finite model config: {exc}") from exc
    law = data.get("initial_law")
    if law is None:
        raise ConfigError("finite scenario is missing the 'initial_law' field")
    try:
        mu0 = DiscreteMeasure.from_json(law)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad initial_law: {exc}") from exc
    return model, mu0


def _mv_params(payload):
    try:
        return {k: float(payload[k]) for k in ("gamma", "b", "sigma", "delta", "x0")} | {
            "n": int(payload["n"])}
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"mean-variance model needs gamma, b, sigma, delta, n, x0: {exc}")


def _lq_from_scenario(data):
    if data["kind"] == "meanvariance":
        p = _mv_params(data["model"])
        return mean_variance_model(p["gamma"], p["b"], p["sigma"], p["delta"],
                                   p["n"], p["x0"])
    try:
        return LQModel.from_json(data["model"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad LQ model config: {exc}") from exc


def _write_json(path, payload):
    """Write strict JSON; a NaN or Inf in ``payload`` leaves no output behind.

    Files are streamed, since outputs reach megabytes, and removed if the
    encoding fails; standard output gets the text once all of it is encoded.
    """
    to_stdout = path == "-" or path is None
    try:
        if to_stdout:
            text = json.dumps(payload, indent=2, allow_nan=False)
        else:
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2, allow_nan=False)
    except ValueError as exc:
        if not to_stdout and os.path.exists(path):
            os.remove(path)
        raise NonFiniteOutput(f"output is not finite: {exc}") from exc
    if to_stdout:
        sys.stdout.write(text + "\n")


def _output_paths(args, data, json_attr, csv_attr):
    """Flag values win; the scenario's run block provides defaults."""
    outputs = data.get("run", {}).get("outputs", {})
    json_path = getattr(args, json_attr)
    if json_path == "-" and "json" in outputs:
        json_path = outputs["json"]
    csv_path = getattr(args, csv_attr)
    if csv_path is None and "csv" in outputs:
        csv_path = outputs["csv"]
    return json_path, csv_path


def _state_label(point):
    return ";".join(repr(float(c)) for c in point)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_solve_finite(args):
    data = _load_scenario(args.config)
    if data["kind"] != "finite":
        raise ConfigError(f"solve-finite needs a finite scenario, got kind {data['kind']!r}")
    model, mu0 = _finite_from_scenario(data)
    budget = args.node_budget
    if budget is None:
        budget = int(data.get("run", {}).get("node_budget", dpp.DEFAULT_NODE_BUDGET))
    if budget < 1:
        raise ConfigError(f"node budget must be at least 1, got {budget}")
    result = dpp.solve(model, mu0, node_budget=budget)
    _, trajectory = dpp.rollforward(model, mu0, result.optimal_policy_sequence)
    payload = {
        "v0": result.v0,
        "tree_size": result.reachable_tree_size,
        "policy_sequence": [p.to_json() for p in result.optimal_policy_sequence],
        "law_trajectory": [mu.to_json() for mu in trajectory],
    }
    out_json, out_csv = _output_paths(args, data, "out", "trajectory_csv")
    _write_json(out_json, payload)
    if out_csv:
        with open(out_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["stage", "state_index", "state", "weight"])
            for k, mu in enumerate(trajectory):
                weights = mu.weights_on_grid(model.states)
                for i, w in enumerate(weights):
                    writer.writerow([k, i, _state_label(model.states[i]), repr(float(w))])
    return 0


def _cmd_riccati(args):
    data = _load_scenario(args.config)
    if data["kind"] not in ("lq", "meanvariance"):
        raise ConfigError(f"riccati needs an lq/meanvariance scenario, got {data['kind']!r}")
    model = _lq_from_scenario(data)
    sol = solve_riccati(model, force=args.force)
    policy = optimal_policy(model, sol)
    controls = explicit_control_coefficients(model, sol)
    payload = {
        "solution": sol.to_json(),
        "policy": policy.to_json(),
        "explicit_controls": controls.to_json(),
        "value_at_initial": value_at(sol, 0, (model.initial_mean, model.initial_cov)),
    }
    out_json, out_csv = _output_paths(args, data, "out", "stages_csv")
    _write_json(out_json, payload)
    if out_csv:
        with open(out_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["stage", "var_weight", "mean_weight", "linear", "constant",
                             "gain_state", "gain_mean", "offset"])
            for k in range(model.horizon + 1):
                row = [k,
                       ";".join(map(repr, sol.var_weight[k].ravel())),
                       ";".join(map(repr, sol.mean_weight[k].ravel())),
                       ";".join(map(repr, sol.linear[k].ravel())),
                       repr(float(sol.constant[k]))]
                if k < model.horizon:
                    row += [";".join(map(repr, policy.gain_state[k].ravel())),
                            ";".join(map(repr, policy.gain_mean[k].ravel())),
                            ";".join(map(repr, policy.offset[k].ravel()))]
                else:
                    row += ["", "", ""]
                writer.writerow(row)
    return 0


def _cmd_meanvariance(args):
    model = mean_variance_model(args.gamma, args.b, args.sigma, args.delta,
                                args.n, args.x0)
    closed = mean_variance_closed_form(args.gamma, args.b, args.sigma,
                                       args.delta, args.n)
    policy = optimal_policy(model, closed)
    controls = explicit_control_coefficients(model, closed)
    payload = {
        "params": {"gamma": args.gamma, "b": args.b, "sigma": args.sigma,
                   "delta": args.delta, "n": args.n, "x0": args.x0},
        "solution": closed.to_json(),
        "policy": policy.to_json(),
        "explicit_controls": controls.to_json(),
        "value_at_initial": value_at(closed, 0, DiscreteMeasure.dirac([args.x0])),
    }
    _write_json(args.out, payload)
    return 0


def _load_policy(args, model, data):
    source = args.policy
    if isinstance(model, LQModel):
        if source == "riccati":
            return optimal_policy(model, solve_riccati(model))
        if source == "zero":
            return AffinePolicy.zero(model.horizon, model.state_dim, model.control_dim)
        with open(source) as fh:
            return AffinePolicy.from_json(json.load(fh))
    if source == "riccati":
        raise ConfigError("policy source 'riccati' needs an lq/meanvariance scenario")
    if source == "zero":
        return model.tabular_policy(np.zeros(model.n_states, dtype=int))
    with open(source) as fh:
        return TabularMap.from_json(json.load(fh))


def _cmd_simulate(args):
    if args.n_particles < 2:
        raise ConfigError(f"--n-particles must be at least 2 for a standard error, "
                          f"got {args.n_particles}")
    data = _load_scenario(args.config)
    if data["kind"] in ("lq", "meanvariance"):
        model = _lq_from_scenario(data)
        initial_law = None
    else:
        model, initial_law = _finite_from_scenario(data)
    try:
        policy = _load_policy(args, model, data)
    except OSError as exc:
        raise ConfigError(f"cannot read policy file: {exc}") from exc
    result = simulate(model, policy, args.n_particles, args.seed,
                      closure=args.closure, initial_law=initial_law)
    out_json, out_csv = _output_paths(args, data, "out", "stages_csv")
    _write_json(out_json, result.to_json())
    if out_csv:
        with open(out_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["stage", "mean", "variance"])
            for k in range(result.stage_means.shape[0]):
                writer.writerow([k,
                                 ";".join(map(repr, result.stage_means[k])),
                                 ";".join(map(repr, result.stage_variances[k]))])
    return 0


# ---------------------------------------------------------------------------
# Cross-oracle verification battery
# ---------------------------------------------------------------------------

def _load_finite_fixture(name):
    data = fixtures.load_fixture(name)
    model = finite_model_from_config(data["model"])
    mu0 = DiscreteMeasure.from_json(data["initial_law"])
    return model, mu0


def _random_policies(model, count, rng):
    for _ in range(count):
        yield [model.tabular_policy(rng.integers(0, model.n_actions, model.n_states))
               for _ in range(model.horizon)]


def _random_lq(rng, d, m, n):
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


def _verify_rows(quick=False):
    rows = []

    def check(name, ok, detail=""):
        rows.append((name, bool(ok), detail))

    rng = np.random.default_rng(20240817)
    n_mc = 5_000 if quick else 20_000

    # measure-level invariants on the mean-reverting fixture
    model, mu0 = _load_finite_fixture("finite_mean_reverting.json")
    kern = model.transition_kernel()
    worst_mass, worst_img, worst_var = 0.0, 0.0, 0.0
    for _ in range(20):
        w = rng.dirichlet(np.ones(model.n_states))
        mu = DiscreteMeasure(model.states, w)
        policy = model.tabular_policy(rng.integers(0, model.n_actions, model.n_states))
        nxt = pushforward(mu, policy, kern, int(rng.integers(0, model.horizon)))
        worst_mass = max(worst_mass, abs(nxt.weights.sum() - 1.0))
        img = image_measure(mu, policy)
        acts = np.array([policy(x) for x in mu.support])
        worst_img = max(worst_img, float(np.max(np.abs(
            img.mean() - mu.weights @ acts))))
        root = rng.normal(size=(mu.dim, mu.dim))
        worst_var = max(worst_var, -mu.variance_form(root.T @ root))
    check("measure.pushforward_mass", worst_mass <= 1e-12, f"max |mass-1| {worst_mass:.2e}")
    check("measure.image_mean_identity", worst_img <= 1e-12, f"max dev {worst_img:.2e}")
    check("measure.variance_form_psd", worst_var <= 1e-12, f"max negativity {worst_var:.2e}")

    # mixture linearity for a measure-free kernel / cost
    free_model, free_mu0 = _load_finite_fixture("finite_classical_table.json")
    fkern = free_model.transition_kernel()
    policy = free_model.tabular_policy([0, 1, 0])
    muA = DiscreteMeasure(free_model.states, [0.6, 0.1, 0.3])
    muB = DiscreteMeasure(free_model.states, [0.2, 0.5, 0.3])
    alpha = 0.35
    mix = DiscreteMeasure(free_model.states,
                          alpha * muA.weights_on_grid(free_model.states)
                          + (1 - alpha) * muB.weights_on_grid(free_model.states))
    lhs = pushforward(mix, policy, fkern, 0).weights_on_grid(free_model.states)
    rhs = (alpha * pushforward(muA, policy, fkern, 0).weights_on_grid(free_model.states)
           + (1 - alpha) * pushforward(muB, policy, fkern, 0).weights_on_grid(free_model.states))
    check("measure.pushforward_mixture_linearity", np.max(np.abs(lhs - rhs)) <= 1e-12,
          f"max dev {np.max(np.abs(lhs - rhs)):.2e}")
    lin = abs(lifted_stage_cost(free_model, 0, mix, policy)
              - alpha * lifted_stage_cost(free_model, 0, muA, policy)
              - (1 - alpha) * lifted_stage_cost(free_model, 0, muB, policy))
    check("model.lifted_cost_mixture_affine", lin <= 1e-12, f"dev {lin:.2e}")

    # fixture validation
    bad = [name for name in fixtures.list_fixtures()
           if name.startswith(("finite_", "fo_"))
           and not validate(_load_finite_fixture(name)[0]).ok]
    check("model.validate_fixtures", not bad, f"failing: {bad}" if bad else "all pass")

    # DPP oracles
    worst = 0.0
    for name in ("finite_mean_reverting.json", "finite_mean_clamp.json"):
        m, mu = _load_finite_fixture(name)
        res = dpp.solve(m, mu)
        worst = max(worst, abs(res.v0 - dpp.brute_force_value(m, mu)))
    check("dpp.solve_equals_brute_force", worst <= 1e-10, f"max dev {worst:.2e}")

    res = dpp.solve(model, mu0)
    cost, _ = dpp.rollforward(model, mu0, res.optimal_policy_sequence)
    check("dpp.rollforward_reproduces_v0", abs(cost - res.v0) <= 1e-12,
          f"dev {abs(cost - res.v0):.2e}")

    worst = 0.0
    for (k, _key), node in res.value_cache.items():
        if node.argmin_policy is None:
            continue
        child = pushforward(node.measure, node.argmin_policy, kern, k)
        child_node = res.node(k + 1, child, model.states)
        recomputed = lifted_stage_cost(model, k, node.measure, node.argmin_policy) \
            + child_node.value
        worst = max(worst, abs(node.value - recomputed))
    check("dpp.one_step_consistency", worst <= 1e-12, f"max dev {worst:.2e}")

    shift = 0.375
    g0 = model.terminal_cost
    shifted = dpp.solve(
        type(model)(states=model.states, actions=model.actions, horizon=model.horizon,
                    kernel=model.kernel, stage_cost=model.stage_cost,
                    terminal_cost=lambda i, mu: g0(i, mu) + shift,
                    mean_field_free=model.mean_field_free),
        mu0)
    check("dpp.monotone_constant_shift", abs(shifted.v0 - res.v0 - shift) <= 1e-12,
          f"dev {abs(shifted.v0 - res.v0 - shift):.2e}")

    worst = np.inf
    for seq in _random_policies(model, 100, rng):
        c, _ = dpp.rollforward(model, mu0, seq)
        worst = min(worst, c - res.v0)
    check("dpp.random_policies_suboptimal", worst >= -1e-10, f"min gap {worst:.2e}")

    worst = 0.0
    for name in ("finite_classical_chain.json", "finite_classical_table.json"):
        m, mu = _load_finite_fixture(name)
        worst = max(worst, dpp.classical_factorization_check(m, mu).max_discrepancy)
    check("dpp.classical_factorization", worst <= 1e-12, f"max disc {worst:.2e}")

    worst = 0.0
    for name in ("fo_coupled_costs.json", "fo_degenerate.json", "fo_kernel_coupled.json"):
        m, mu = _load_finite_fixture(name)
        worst = max(worst, dpp.first_order_check(m, mu).max_discrepancy)
    check("dpp.first_order_factorization", worst <= 1e-10, f"max disc {worst:.2e}")

    # LQ: closed forms, conditions, verification identity, optimality
    worst = 0.0
    for (gamma, b, sigma, n) in [(1.0, 0.5, 1.0, 2), (2.0, 0.2, 0.5, 5), (0.5, 0.5, 1.0, 10)]:
        mv = mean_variance_model(gamma, b, sigma, 1.0 / n, n, 1.0)
        sol = solve_riccati(mv)
        closed = mean_variance_closed_form(gamma, b, sigma, 1.0 / n, n)
        for field_name in ("var_weight", "mean_weight", "linear", "constant",
                           "dev_hessian", "mean_hessian", "dev_cross", "mean_cross",
                           "mean_transition"):
            worst = max(worst, float(np.max(np.abs(
                getattr(sol, field_name) - getattr(closed, field_name)))))
    check("lq.closed_form_agreement", worst <= 1e-12, f"max dev {worst:.2e}")

    mv = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
    rep = check_conditions(mv)
    degenerate = mean_variance_model(1.0, 0.5, 1.0, 1.0, 3, 1.0)
    degenerate = LQModel.from_json(degenerate.to_json())
    payload = degenerate.to_json()
    payload["stages"][1]["drift_control"] = [[0.0]]
    payload["stages"][1]["noise_control"] = [[0.0]]
    degenerate = LQModel.from_json(payload)
    rep_bad = check_conditions(degenerate)
    check("lq.conditions", rep.ok and (not rep_bad.ok) and rep_bad.first_failure[0] == 1,
          f"mv: {rep.ok}, degenerate: {rep_bad.message()}")

    models = [mv] + [_random_lq(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                                int(rng.integers(1, 6))) for _ in range(3)]
    worst = 0.0
    worst_stat = 0.0
    worst_eig = 0.0
    for m in models:
        sol = solve_riccati(m)
        pol = optimal_policy(m, sol)
        worst = max(worst, abs(moments.exact_cost(m, pol)
                               - value_at(sol, 0, (m.initial_mean, m.initial_cov))))
        worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(sol.var_weight).min()),
                        -float(np.linalg.eigvalsh(sol.mean_weight).min()))
        for k in range(m.horizon):
            mean = rng.normal(size=m.state_dim)
            x = mean + rng.normal(size=m.state_dim)
            worst_stat = max(worst_stat, float(np.max(np.abs(
                lq.stationarity_residual(m, sol, pol, k, x, mean)))))
    check("lq.verification_identity", worst <= 1e-9, f"max dev {worst:.2e}")
    check("lq.weights_psd", worst_eig <= 1e-10, f"worst negativity {worst_eig:.2e}")
    check("lq.stationarity", worst_stat <= 1e-9, f"max residual {worst_stat:.2e}")

    worst = np.inf
    for m in models[:2]:
        sol = solve_riccati(m)
        pol = optimal_policy(m, sol)
        base = moments.exact_cost(m, pol)
        for _ in range(20):
            direction = AffinePolicy(
                rng.normal(size=pol.gain_state.shape),
                rng.normal(size=pol.gain_mean.shape),
                rng.normal(size=pol.offset.shape))
            for eps in (1e-3, 1e-2):
                worst = min(worst, moments.exact_cost(m, pol.perturbed(direction, eps)) - base)
    check("lq.perturbation_optimality", worst >= -1e-9, f"min gap {worst:.2e}")

    # Monte Carlo cross-oracles
    sol = solve_riccati(mv)
    pol = optimal_policy(mv, sol)
    exact = moments.exact_cost(mv, pol)
    sim = simulate(mv, pol, n_mc, seed=7)
    dev = abs(sim.estimate - exact)
    check("mc.matches_exact_cost", dev <= 4 * sim.std_error,
          f"dev {dev:.2e} vs 4se {4 * sim.std_error:.2e}")
    sim2 = simulate(mv, pol, n_mc, seed=7)
    check("mc.seed_determinism", sim.estimate == sim2.estimate
          and np.array_equal(sim.stage_means, sim2.stage_means), "bit-identical rerun")

    states = moments.exact_trajectory(mv, pol)
    total = sum(moments.stage_cost_moments(mv, k, states[k], pol)
                for k in range(mv.horizon)) + moments.terminal_cost_moments(mv, states[-1])
    check("mc.moment_chain_consistency", abs(total - exact) <= 1e-12,
          f"dev {abs(total - exact):.2e}")
    worst_eig = max(-float(np.linalg.eigvalsh(s.cov).min()) for s in states)
    check("mc.propagated_cov_psd", worst_eig <= 1e-10, f"worst negativity {worst_eig:.2e}")

    controls = explicit_control_coefficients(mv, sol)
    worst = 0.0
    for k in range(mv.horizon + 1):
        spread = 4 * np.sqrt(sim.stage_variances[k]) / np.sqrt(sim.n_particles)
        dev = np.abs(sim.stage_means[k] - controls.state_means[k])
        worst = max(worst, float(np.max(dev - spread)))
    check("mc.mean_tracking", worst <= 0.0, f"max excess {worst:.2e}")

    m, mu = _load_finite_fixture("finite_mean_reverting.json")
    res = dpp.solve(m, mu)
    cost0, _ = dpp.rollforward(m, mu, res.optimal_policy_sequence)
    fsim = simulate(m, res.optimal_policy_sequence[0], n_mc, seed=11,
                    closure="oracle-law", initial_law=mu)
    seq_cost, _ = dpp.rollforward(m, mu, [res.optimal_policy_sequence[0]] * m.horizon)
    dev = abs(fsim.estimate - seq_cost)
    check("mc.finite_oracle_law", dev <= 4 * fsim.std_error,
          f"dev {dev:.2e} vs 4se {4 * fsim.std_error:.2e}")

    return rows


def _cmd_verify(args):
    rows = _verify_rows(quick=args.quick)
    width = max(len(name) for name, _, _ in rows)
    failures = 0
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{status}  {name:<{width}}  {detail}")
    print(f"\n{len(rows) - failures}/{len(rows)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="mfctrl",
        description="Solvers and Monte Carlo validation for discrete-time "
                    "mean-field optimal control")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-finite", help="exact DPP solve of a finite scenario")
    p.add_argument("config")
    p.add_argument("--out", default="-", help="output JSON path (default stdout)")
    p.add_argument("--trajectory-csv", default=None)
    p.add_argument("--node-budget", type=int, default=None)
    p.set_defaults(handler=_cmd_solve_finite)

    p = sub.add_parser("riccati", help="backward Riccati solve of an LQ scenario")
    p.add_argument("config")
    p.add_argument("--out", default="-")
    p.add_argument("--stages-csv", default=None)
    p.add_argument("--force", action="store_true",
                   help="run even when the convexity conditions fail")
    p.set_defaults(handler=_cmd_riccati)

    p = sub.add_parser("meanvariance", help="closed-form mean-variance solution")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_meanvariance)

    p = sub.add_parser("simulate", help="N-particle Monte Carlo estimate")
    p.add_argument("config")
    p.add_argument("--n-particles", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--policy", default="riccati",
                   help="riccati | zero | path to a policy JSON")
    p.add_argument("--closure", choices=("empirical", "oracle-law"),
                   default="empirical")
    p.add_argument("--out", default="-")
    p.add_argument("--stages-csv", default=None)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="run the cross-oracle check table")
    p.add_argument("--quick", action="store_true", help="smaller particle counts")
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (ConditionsNotMet, NotPositiveDefinite, dpp.BudgetExceeded,
            np.linalg.LinAlgError, NonFiniteOutput) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
