"""Seeded scenario generation for the benchmark workloads.

Every scenario file, policy file and particle seed is derived from the
workload seed alone, with numpy only: nothing here imports ``mfctrl``.  A
workload is a list of operations (one ``mfctrl`` CLI invocation each); a
round runs every operation of the list once.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("dpp-tree", "dpp-sweep", "riccati-long", "particles-1e6")

N_PARTICLES = 1_000_000
MV_STAGES = 10_000
LQ_LONG_STAGES = 2_000
LAW_FLOOR = 0.05          # least weight of a state in an initial law
COST_SCALE = 0.4          # quadratic cost coefficients are drawn within this scale


@dataclass
class Op:
    """One CLI operation and what its checker needs to know about it."""

    label: str
    kind: str                 # finite | meanvariance | lq | simulate
    argv: list
    out: str
    scenario: dict            # the scenario as written (LQ blocks as arrays)
    extra: dict = field(default_factory=dict)


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _grid(values):
    return [[float(v) for v in np.atleast_1d(p)] for p in values]


def _law(rng, S):
    w = rng.dirichlet(np.ones(S))
    w = LAW_FLOOR + (1.0 - LAW_FLOOR * S) * w
    return (w / w.sum()).tolist()


def _quadratic(rng, stage=True):
    keys = ("qx", "qm", "qv", "cxm", "lx") + (("ra", "rm", "cam", "la") if stage else ())
    return {k: float(rng.uniform(-COST_SCALE, COST_SCALE)) if k in ("cxm", "lx", "cam", "la")
            else float(rng.uniform(0.0, COST_SCALE)) for k in keys}


def _finite(states, actions, horizon, kernel, stage_cost, terminal_cost, w0):
    return {
        "kind": "finite",
        "model": {"states": _grid(states), "actions": _grid(actions), "horizon": horizon,
                  "kernel": kernel, "stage_cost": stage_cost,
                  "terminal_cost": terminal_cost, "mean_field_free": False},
        "initial_law": {"support": _grid(states), "weights": w0},
    }


def _mean_reverting(rng, S):
    states = np.sort(rng.uniform(-1.0, 1.0, S)) + np.arange(S) * 0.8
    states -= states.mean()
    kernel = {"tag": "mean_reverting",
              "params": {"theta": float(rng.uniform(0.2, 0.6)),
                         "eta": float(rng.uniform(0.3, 0.7)),
                         "tau": float(rng.uniform(0.6, 1.2))}}
    return states, kernel


def _table_rows(rng, shape):
    rows = rng.uniform(0.05, 1.0, shape)
    return (rows / rows.sum(axis=-1, keepdims=True)).tolist()


def _fo_betas(rng):
    # every one of the 16 indicator sums stays inside [0.04, 0.9]
    b0 = float(rng.uniform(0.2, 0.3))
    rest = rng.uniform(-0.04, 0.15, 4)
    return {"beta0": b0, "beta_x": float(rest[0]), "beta_y": float(rest[1]),
            "beta_a": float(rest[2]), "beta_b": float(rest[3])}


def tree_scenario(rng):
    """S=4, M=2, n=3 mean-reverting scenario whose reachable tree is full."""
    states, kernel = _mean_reverting(rng, 4)
    actions = np.array([-0.5, 0.5]) + rng.uniform(-0.2, 0.2)
    return _finite(states, actions, 3, kernel,
                   {"tag": "quadratic", "params": _quadratic(rng)},
                   {"tag": "quadratic", "params": _quadratic(rng, stage=False)},
                   _law(rng, 4))


def sweep_scenarios(rng):
    """Small scenarios covering every kernel and cost tag (S <= 3, n <= 3)."""
    out = []
    a01 = np.array([0.0, 1.0])
    # identity kernel: every map leads to the same child
    out.append(("identity-quad", _finite(
        [-1.0, 0.0, 1.0], a01, 3, {"tag": "identity"},
        {"tag": "quadratic", "params": _quadratic(rng)},
        {"tag": "quadratic", "params": _quadratic(rng, stage=False)}, _law(rng, 3))))
    out.append(("identity-zero", _finite(
        [0.0, 1.0], a01, 1, {"tag": "identity"}, {"tag": "zero"},
        {"tag": "quadratic", "params": _quadratic(rng, stage=False)}, _law(rng, 2))))
    # stationary and stage-dependent tables
    out.append(("table3-quad", _finite(
        [-1.0, 0.0, 1.0], a01, 2,
        {"tag": "table", "params": {"rows": _table_rows(rng, (3, 2, 3))}},
        {"tag": "quadratic", "params": _quadratic(rng)},
        {"tag": "quadratic", "params": _quadratic(rng, stage=False)}, _law(rng, 3))))
    out.append(("table4-zero-M3", _finite(
        [0.0, 1.0], [-1.0, 0.0, 1.0], 2,
        {"tag": "table", "params": {"rows": _table_rows(rng, (2, 2, 3, 2))}},
        {"tag": "zero"},
        {"tag": "quadratic", "params": _quadratic(rng, stage=False)}, _law(rng, 2))))
    # mean-reverting interaction
    states, kernel = _mean_reverting(rng, 3)
    out.append(("meanrev3-quad", _finite(
        states, a01, 2, kernel, {"tag": "quadratic", "params": _quadratic(rng)},
        {"tag": "quadratic", "params": _quadratic(rng, stage=False)}, _law(rng, 3))))
    states, kernel = _mean_reverting(rng, 2)
    out.append(("meanrev2-quad", _finite(
        states, a01, 3, kernel, {"tag": "quadratic", "params": _quadratic(rng)},
        {"tag": "quadratic", "params": _quadratic(rng, stage=False)}, _law(rng, 2))))
    # mean clamp: children collapse (fully so with shift 0).  Which ones
    # collapse depends on the shift and the initial law, so both are fixed:
    # the tree has 48 nodes whatever the seed.
    out.append(("clamp-shift", _finite(
        [0.0, 1.0], a01, 3, {"tag": "mean_clamp", "params": {"shift": 0.25}},
        {"tag": "quadratic", "params": _quadratic(rng)},
        {"tag": "quadratic", "params": {"qv": float(rng.uniform(0.5, 1.5))}},
        [0.6, 0.4])))
    out.append(("clamp-zero", _finite(
        [0.0, 1.0], a01, 3, {"tag": "mean_clamp", "params": {"shift": 0.0}},
        {"tag": "zero"}, {"tag": "quadratic", "params": {"qv": 1.0}}, _law(rng, 2))))
    # first-order pairwise interactions
    fo_term = {"tag": "fo_bilinear",
               "params": {k: float(rng.uniform(-0.5, 0.5)) for k in ("t_xy", "t_xx", "t_yy", "t_x")}}
    out.append(("fo-pinned", _finite(
        [0.0, 1.0], a01, 3, {"tag": "first_order", "params": _fo_betas(rng)},
        {"tag": "fo_pinned",
         "params": {"kappa": float(rng.uniform(0.5, 2.0)),
                    "pinned": [int(v) for v in rng.integers(0, 2, 2)],
                    **{k: float(rng.uniform(-0.3, 0.3)) for k in ("p_xy", "p_a", "p_ay", "p_x")}}},
        fo_term, _law(rng, 2))))
    out.append(("fo-zero", _finite(
        [0.0, 1.0], a01, 3, {"tag": "first_order", "params": _fo_betas(rng)},
        {"tag": "zero"},
        {"tag": "fo_bilinear",
         "params": {k: float(rng.uniform(-0.5, 0.5)) for k in ("t_xy", "t_xx", "t_yy", "t_x")}},
        _law(rng, 2))))
    return out


def random_lq(rng, d, m, n):
    """Stable LQ coefficients: contractive drifts, PD control costs.

    Blocks are drawn per stage, so the Riccati recursion sees a different
    stage every step.  Mean-field blocks are kept small, which keeps the
    empirical-closure Monte Carlo error close to its reported standard error.
    """
    def contract(shape, norm):
        a = rng.uniform(-1.0, 1.0, shape)
        return norm * a / np.linalg.norm(a, ord=2, axis=(-2, -1), keepdims=True)

    def psd(shape, scale, ridge=0.0):
        a = rng.uniform(-1.0, 1.0, shape)
        out = scale * a @ a.swapaxes(-1, -2) / shape[-1]
        out = 0.5 * (out + out.swapaxes(-1, -2))
        return out + ridge * np.eye(shape[-1])

    return {
        "drift_state": contract((n, d, d), 0.7),
        "drift_state_mean": contract((n, d, d), 0.1),
        "drift_control": rng.uniform(-0.5, 0.5, (n, d, m)),
        "drift_control_mean": rng.uniform(-0.05, 0.05, (n, d, m)),
        "noise_state": contract((n, d, d), 0.3),
        "noise_state_mean": contract((n, d, d), 0.05),
        "noise_control": rng.uniform(-0.2, 0.2, (n, d, m)),
        "noise_control_mean": rng.uniform(-0.02, 0.02, (n, d, m)),
        "cost_state": psd((n, d, d), 0.5),
        "cost_state_mean": psd((n, d, d), 0.05),
        "cost_control": psd((n, m, m), 0.4, ridge=0.2),
        "cost_control_mean": psd((n, m, m), 0.05, ridge=0.02),
        "cost_linear": rng.uniform(-1.0, 1.0, (n, d)),
        "cost_linear_mean": rng.uniform(-0.1, 0.1, (n, d)),
        "terminal_state": psd((d, d), 0.5),
        "terminal_state_mean": psd((d, d), 0.05),
        "terminal_linear": rng.uniform(-1.0, 1.0, d),
        "terminal_linear_mean": rng.uniform(-0.1, 0.1, d),
        "initial_mean": rng.uniform(-1.0, 1.0, d),
        "initial_cov": psd((d, d), 0.4, ridge=0.05),
    }


STAGE_KEYS = (
    "drift_state", "drift_state_mean", "drift_control", "drift_control_mean",
    "noise_state", "noise_state_mean", "noise_control", "noise_control_mean",
    "cost_state", "cost_state_mean", "cost_control", "cost_control_mean",
    "cost_linear", "cost_linear_mean",
)


def lq_json(blocks):
    """Scenario payload in the ``kind: lq`` layout of the README."""
    n, d, m = blocks["drift_control"].shape
    return {
        "kind": "lq",
        "model": {
            "state_dim": d, "control_dim": m, "horizon": n,
            "stages": [{key: blocks[key][k].tolist() for key in STAGE_KEYS}
                       for k in range(n)],
            "terminal": {"cost_state": blocks["terminal_state"].tolist(),
                         "cost_state_mean": blocks["terminal_state_mean"].tolist(),
                         "cost_linear": blocks["terminal_linear"].tolist(),
                         "cost_linear_mean": blocks["terminal_linear_mean"].tolist()},
            "initial_law": {"mean": blocks["initial_mean"].tolist(),
                            "cov": blocks["initial_cov"].tolist()},
        },
    }


def mean_variance_params(rng, n):
    horizon_time = float(rng.uniform(0.5, 2.0))
    return {"gamma": float(rng.uniform(0.5, 2.0)), "b": float(rng.uniform(0.2, 0.8)),
            "sigma": float(rng.uniform(0.5, 1.5)), "delta": horizon_time / n, "n": n,
            "x0": float(rng.uniform(0.5, 2.0))}


def make_op(run_dir, label, kind, scenario, argv_tail, stored=None, **extra):
    """Write ``scenario`` into ``run_dir`` and return the operation that runs it.

    ``stored`` replaces the scenario in the checker's view (LQ blocks as arrays).
    """
    path = os.path.join(run_dir, f"{label}.json")
    out = os.path.join(run_dir, f"{label}.out.json")
    _write(path, scenario)
    cmd = {"finite": "solve-finite", "meanvariance": "riccati", "lq": "riccati",
           "simulate": "simulate"}[kind]
    return Op(label, kind, [cmd, path, *argv_tail, "--out", out], out,
              stored if stored is not None else scenario, extra)


def build(workload, seed, run_dir):
    """Write the workload's scenario files into ``run_dir``; return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    os.makedirs(run_dir, exist_ok=True)
    ops = []

    def add(*args, **kwargs):
        ops.append(make_op(run_dir, *args, **kwargs))

    if workload == "dpp-tree":
        for j in range(2):
            add(f"tree{j}", "finite", tree_scenario(rng), [])
    elif workload == "dpp-sweep":
        for label, scenario in sweep_scenarios(rng):
            add(label, "finite", scenario, [])
    elif workload == "riccati-long":
        params = mean_variance_params(rng, MV_STAGES)
        add("mv", "meanvariance", {"kind": "meanvariance", "model": params}, [])
        blocks = random_lq(rng, 3, 2, LQ_LONG_STAGES)
        add("lq", "lq", lq_json(blocks), [], stored=blocks)
    else:
        blocks = random_lq(rng, 3, 2, 5)
        sim_seed = int(rng.integers(0, 2**31))
        for closure in ("empirical", "oracle-law"):
            add(f"lq-{closure}", "simulate", lq_json(blocks),
                ["--n-particles", str(N_PARTICLES), "--seed", str(sim_seed),
                 "--policy", "riccati", "--closure", closure],
                stored=blocks, closure=closure, seed=sim_seed)
        states, kernel = _mean_reverting(rng, 3)
        scenario = _finite(states, [0.0, 1.0], 3, kernel,
                           {"tag": "quadratic", "params": _quadratic(rng)},
                           {"tag": "quadratic", "params": _quadratic(rng, stage=False)},
                           _law(rng, 3))
        policy_idx = [int(v) for v in rng.integers(0, 2, 3)]
        actions = scenario["model"]["actions"]
        policy_path = os.path.join(run_dir, "finite-policy.json")
        _write(policy_path, {"domain": scenario["model"]["states"],
                             "values": [actions[i] for i in policy_idx]})
        add("finite-tabular", "simulate", scenario,
            ["--n-particles", str(N_PARTICLES), "--seed", str(sim_seed),
             "--policy", policy_path, "--closure", "oracle-law"],
            closure="oracle-law", seed=sim_seed, policy_idx=policy_idx)
    return ops


def tree_bound(n_states, n_actions, horizon):
    """Nodes of the full law tree: sum over stages of (M^S)^k."""
    maps = n_actions ** n_states
    return sum(maps ** k for k in range(horizon + 1))


def all_maps(n_states, n_actions):
    """Every feedback map as action indices, lexicographic in state order."""
    return np.array(list(itertools.product(range(n_actions), repeat=n_states)), dtype=int)
