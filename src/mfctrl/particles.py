"""Seeded N-particle Monte Carlo evaluation of the cost functional.

Particles interact through the empirical measures of the cloud: at each stage
the empirical state law (and the empirical action law) is substituted for the
theoretical marginals in the dynamics and the costs.  An alternate
``oracle-law`` closure substitutes the exact propagated moments instead,
isolating pure sampling error.

Randomness is counter-based: every draw comes from a Philox generator keyed
by ``(seed, stream)`` where the stream id encodes its role (stage noise,
initial-law component, kernel draws).  All draws are made in particle-index
order with one vectorized call per stream, so trajectories are bit-identical
for a given ``(seed, n_particles)`` regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import ndtri

from .lq import AffinePolicy, LQModel
from .measure import DiscreteMeasure, TabularMap, image_measure, match_indices, pushforward
from .model import FiniteMFModel
from .moments import exact_trajectory

_STREAM_STAGE_NOISE = 0          # + stage
_STREAM_INIT_COMPONENT = 2**32   # + coordinate index
_STREAM_INIT_DISCRETE = 2**33
_STREAM_KERNEL = 2**34           # + stage


def _raw(seed: int, stream: int, count: int) -> np.ndarray:
    gen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    return gen.random_raw(count)


def uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """Deterministic uniforms in (0, 1) from the (seed, stream) counter stream."""
    bits = _raw(seed, stream, count) >> np.uint64(11)
    return (bits.astype(np.float64) + 0.5) * 2.0**-53


def normals(seed: int, stream: int, count: int) -> np.ndarray:
    """Deterministic standard normals via the inverse CDF of the uniforms."""
    return ndtri(uniforms(seed, stream, count))


@dataclass
class ParticleCloud:
    """Positions of an interacting particle system at one stage."""

    positions: np.ndarray   # (N, d)
    stage: int
    seed: int

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    def mean(self) -> np.ndarray:
        return self.positions.mean(axis=0)

    def empirical_measure(self) -> DiscreteMeasure:
        n = self.n_particles
        return DiscreteMeasure(self.positions, np.full(n, 1.0 / n))


@dataclass
class SimulationResult:
    estimate: float
    std_error: float
    n_particles: int
    seed: int
    closure: str
    stage_means: np.ndarray       # (n+1, d)
    stage_variances: np.ndarray   # (n+1, d), per-coordinate sample variances
    clouds: Optional[list] = None

    def to_json(self) -> dict:
        return {
            "estimate": float(self.estimate),
            "std_error": float(self.std_error),
            "n_particles": int(self.n_particles),
            "seed": int(self.seed),
            "closure": self.closure,
            "stage_means": self.stage_means.tolist(),
            "stage_variances": self.stage_variances.tolist(),
        }

    @classmethod
    def from_json(cls, payload) -> "SimulationResult":
        return cls(
            estimate=float(payload["estimate"]),
            std_error=float(payload["std_error"]),
            n_particles=int(payload["n_particles"]),
            seed=int(payload["seed"]),
            closure=payload["closure"],
            stage_means=np.asarray(payload["stage_means"], dtype=float),
            stage_variances=np.asarray(payload["stage_variances"], dtype=float),
        )


def _sample_initial_lq(model: LQModel, n: int, seed: int) -> np.ndarray:
    if model.initial_measure is not None:
        mu = model.initial_measure
        cum = np.cumsum(mu.weights)
        u = uniforms(seed, _STREAM_INIT_DISCRETE, n)
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
        return mu.support[idx]
    d = model.state_dim
    z = np.column_stack([normals(seed, _STREAM_INIT_COMPONENT + j, n) for j in range(d)])
    evals, evecs = np.linalg.eigh(model.initial_cov)
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    return model.initial_mean + z @ root.T


def _variance(x: np.ndarray) -> np.ndarray:
    if x.shape[0] < 2:
        return np.zeros(x.shape[1])
    return x.var(axis=0, ddof=1)


def _finalize(costs: np.ndarray, means, variances, n: int, seed: int,
              closure: str, clouds) -> SimulationResult:
    estimate = float(np.sum(costs) / n)   # fixed index order, pairwise summation
    if n >= 2:
        se = float(np.std(costs, ddof=1) / np.sqrt(n))
    else:
        se = float("nan")
    return SimulationResult(estimate, se, n, seed, closure,
                            np.array(means), np.array(variances), clouds)


def _simulate_lq(model: LQModel, policy: AffinePolicy, n: int, seed: int,
                 closure: str, keep_clouds: bool) -> SimulationResult:
    if policy.horizon != model.horizon:
        raise ValueError("policy and model horizons differ")
    if policy.state_dim != model.state_dim or policy.control_dim != model.control_dim:
        raise ValueError("policy dimensions do not match the model")
    oracle = exact_trajectory(model, policy) if closure == "oracle-law" else None
    x = _sample_initial_lq(model, n, seed)
    costs = np.zeros(n)
    means, variances, clouds = [], [], ([] if keep_clouds else None)
    for k in range(model.horizon):
        means.append(x.mean(axis=0))
        variances.append(_variance(x))
        if keep_clouds:
            clouds.append(ParticleCloud(x.copy(), k, seed))
        ref_mean = oracle[k].mean if oracle is not None else x.mean(axis=0)
        a = policy.action(k, x, ref_mean)
        ref_abar = (policy.mean_action(k, ref_mean) if oracle is not None
                    else a.mean(axis=0))

        Q = model.cost_state[k]
        Qm = model.cost_state_mean[k]
        R = model.cost_control[k]
        Rm = model.cost_control_mean[k]
        costs += np.einsum("ij,jk,ik->i", x, Q, x)
        costs += float(ref_mean @ Qm @ ref_mean)
        costs += x @ model.cost_linear[k]
        costs += float(model.cost_linear_mean[k] @ ref_mean)
        costs += np.einsum("ij,jk,ik->i", a, R, a)
        costs += float(ref_abar @ Rm @ ref_abar)

        eps = normals(seed, _STREAM_STAGE_NOISE + k, n)
        drift = (x @ model.drift_state[k].T + ref_mean @ model.drift_state_mean[k].T
                 + a @ model.drift_control[k].T + ref_abar @ model.drift_control_mean[k].T)
        scale = (x @ model.noise_state[k].T + ref_mean @ model.noise_state_mean[k].T
                 + a @ model.noise_control[k].T + ref_abar @ model.noise_control_mean[k].T)
        x = drift + scale * eps[:, None]

    means.append(x.mean(axis=0))
    variances.append(_variance(x))
    if keep_clouds:
        clouds.append(ParticleCloud(x.copy(), model.horizon, seed))
    ref_mean = oracle[-1].mean if oracle is not None else x.mean(axis=0)
    costs += np.einsum("ij,jk,ik->i", x, model.terminal_state, x)
    costs += float(ref_mean @ model.terminal_state_mean @ ref_mean)
    costs += x @ model.terminal_linear
    costs += float(model.terminal_linear_mean @ ref_mean)
    return _finalize(costs, means, variances, n, seed, closure, clouds)


def _oracle_flow_finite(model: FiniteMFModel, policy: TabularMap, mu0: DiscreteMeasure):
    kern = model.transition_kernel()
    flow = [mu0]
    for k in range(model.horizon):
        flow.append(pushforward(flow[-1], policy, kern, k))
    return flow


def _simulate_finite(model: FiniteMFModel, policy: TabularMap, n: int, seed: int,
                     closure: str, keep_clouds: bool,
                     initial_law: Optional[DiscreteMeasure]) -> SimulationResult:
    if initial_law is None:
        raise ValueError("finite-model simulation needs an initial law")
    pol_idx = model.policy_action_indices(policy)
    S = model.n_states
    oracle = (_oracle_flow_finite(model, policy, initial_law)
              if closure == "oracle-law" else None)

    cum0 = np.cumsum(initial_law.weights)
    u0 = uniforms(seed, _STREAM_INIT_DISCRETE, n)
    pick = np.minimum(np.searchsorted(cum0, u0, side="right"), len(cum0) - 1)
    support_to_grid = match_indices(initial_law.support, model.states)
    idx = support_to_grid[pick]

    costs = np.zeros(n)
    means, variances, clouds = [], [], ([] if keep_clouds else None)
    for k in range(model.horizon):
        pos = model.states[idx]
        means.append(pos.mean(axis=0))
        variances.append(_variance(pos))
        if keep_clouds:
            clouds.append(ParticleCloud(pos.copy(), k, seed))
        if oracle is not None:
            mu_ref = oracle[k]
        else:
            mu_ref = DiscreteMeasure(model.states,
                                     np.bincount(idx, minlength=S) / n)
        lam_ref = image_measure(mu_ref, policy)

        present = np.unique(idx)
        stage_costs = np.zeros(S)
        rows = {}
        for s in present:
            stage_costs[s] = model.stage_cost(k, int(s), mu_ref, int(pol_idx[s]), lam_ref)
            rows[int(s)] = np.cumsum(np.clip(np.asarray(
                model.kernel(k, int(s), mu_ref, int(pol_idx[s]), lam_ref),
                dtype=float), 0.0, None))
        costs += stage_costs[idx]

        u = uniforms(seed, _STREAM_KERNEL + k, n)
        new_idx = np.empty_like(idx)
        for s in present:
            members = idx == s
            new_idx[members] = np.minimum(
                np.searchsorted(rows[int(s)], u[members], side="right"), S - 1)
        idx = new_idx

    pos = model.states[idx]
    means.append(pos.mean(axis=0))
    variances.append(_variance(pos))
    if keep_clouds:
        clouds.append(ParticleCloud(pos.copy(), model.horizon, seed))
    if oracle is not None:
        mu_ref = oracle[-1]
    else:
        mu_ref = DiscreteMeasure(model.states, np.bincount(idx, minlength=S) / n)
    terminal = np.array([model.terminal_cost(int(s), mu_ref) for s in range(S)])
    costs += terminal[idx]
    return _finalize(costs, means, variances, n, seed, closure, clouds)


def simulate(model: Union[LQModel, FiniteMFModel], policy, n_particles: int,
             seed: int, closure: str = "empirical", keep_clouds: bool = False,
             initial_law: Optional[DiscreteMeasure] = None) -> SimulationResult:
    """Simulate the N-particle system and estimate the cost functional.

    Parameters
    ----------
    model : LQModel or FiniteMFModel
    policy : AffinePolicy (linear-quadratic) or TabularMap (finite)
    n_particles : int
        Cloud size; standard errors need at least 2.
    seed : int
        Stream key; identical ``(seed, n_particles)`` reproduce trajectories
        bit for bit.
    closure : "empirical" or "oracle-law"
        What stands in for the theoretical marginals: the cloud's empirical
        measures, or the exactly propagated law.
    keep_clouds : bool
        Return a copy of every stage's cloud in ``clouds`` (``None`` when
        off); at large ``n_particles`` the copies dominate memory.
    initial_law : DiscreteMeasure, optional
        Required for finite models; ignored for LQ models (their initial law
        is part of the model).
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be a nonnegative 64-bit integer, got {seed}")
    if closure not in ("empirical", "oracle-law"):
        raise ValueError(f"unknown closure {closure!r}")
    if isinstance(model, LQModel):
        if not isinstance(policy, AffinePolicy):
            raise TypeError("linear-quadratic models need an AffinePolicy")
        return _simulate_lq(model, policy, n_particles, seed, closure, keep_clouds)
    if isinstance(model, FiniteMFModel):
        if not isinstance(policy, TabularMap):
            raise TypeError("finite models need a TabularMap policy")
        return _simulate_finite(model, policy, n_particles, seed, closure,
                                keep_clouds, initial_law)
    raise TypeError(f"unsupported model type {type(model).__name__}")
