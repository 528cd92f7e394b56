"""Exact cost evaluation of affine policies by second-moment propagation.

Under an affine feedback rule the mean and covariance of the state law evolve
in closed form, and every term of the quadratic cost is a function of those
two moments.  This gives an exact evaluator of the cost functional that is
independent of the Monte Carlo simulator in :mod:`mfctrl.particles`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lq import PSD_EIG_TOL, AffinePolicy, LQModel
from .measure import SYM_TOL, ValueRecord


@dataclass(frozen=True, eq=False)
class GaussianState(ValueRecord):
    """Mean and covariance of a (Gaussian-compatible) state law."""

    mean: np.ndarray
    cov: np.ndarray

    def _arrays(self) -> dict:
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov has shape {cov.shape}, expected {(mean.size,) * 2}")
        if np.max(np.abs(cov - cov.T)) > SYM_TOL:
            raise ValueError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        if float(np.linalg.eigvalsh(cov).min()) < PSD_EIG_TOL:
            raise ValueError("covariance is not positive semidefinite")
        return {"mean": mean, "cov": cov}

    @property
    def dim(self) -> int:
        return self.mean.size


def initial_state(model: LQModel) -> GaussianState:
    return GaussianState(model.initial_mean, model.initial_cov)


def exact_moment_step(model: LQModel, stage: int, state: GaussianState,
                      policy: AffinePolicy) -> GaussianState:
    """One-step propagation of (mean, cov) under an affine feedback rule.

    With ``P`` the closed-loop drift deviation matrix, ``U`` the closed-loop
    noise deviation matrix and ``s`` the mean noise vector:

        mean' = (drifts summed) mean + (control drifts summed) mean-action
        cov'  = P cov P' + U cov U' + s s'

    The noise is a scalar unit-variance factor on the noise vector, so the
    covariance gains exactly one rank-one term plus the propagated spread.
    """
    if not 0 <= stage < model.horizon:
        raise ValueError(f"stage {stage} out of range [0, {model.horizon})")
    if state.dim != model.state_dim:
        raise ValueError("state dimension does not match the model")
    G = policy.gain_state[stage]
    abar = policy.mean_action(stage, state.mean)
    B = model.drift_state[stage]
    Bq = B + model.drift_state_mean[stage]
    C = model.drift_control[stage]
    Cq = C + model.drift_control_mean[stage]
    D = model.noise_state[stage]
    Dq = D + model.noise_state_mean[stage]
    H = model.noise_control[stage]
    Hq = H + model.noise_control_mean[stage]

    new_mean = Bq @ state.mean + Cq @ abar
    P = B + C @ G
    U = D + H @ G
    s = Dq @ state.mean + Hq @ abar
    new_cov = P @ state.cov @ P.T + U @ state.cov @ U.T + np.outer(s, s)
    return GaussianState(new_mean, 0.5 * (new_cov + new_cov.T))


def stage_cost_moments(model: LQModel, stage: int, state: GaussianState,
                       policy: AffinePolicy) -> float:
    """Expected stage cost from (mean, cov) under an affine feedback rule."""
    G = policy.gain_state[stage]
    abar = policy.mean_action(stage, state.mean)
    Q = model.cost_state[stage]
    Qq = Q + model.cost_state_mean[stage]
    R = model.cost_control[stage]
    Rq = R + model.cost_control_mean[stage]
    lin = model.cost_linear[stage] + model.cost_linear_mean[stage]
    x = state.mean
    return float(np.trace(Q @ state.cov) + x @ Qq @ x + lin @ x
                 + np.trace(R @ (G @ state.cov @ G.T)) + abar @ Rq @ abar)


def terminal_cost_moments(model: LQModel, state: GaussianState) -> float:
    Qq = model.terminal_state + model.terminal_state_mean
    lin = model.terminal_linear + model.terminal_linear_mean
    x = state.mean
    return float(np.trace(model.terminal_state @ state.cov) + x @ Qq @ x + lin @ x)


def exact_trajectory(model: LQModel, policy: AffinePolicy) -> list:
    """States (mean, cov) at stages 0..n under the policy."""
    if policy.horizon != model.horizon:
        raise ValueError("policy and model horizons differ")
    states = [initial_state(model)]
    for k in range(model.horizon):
        states.append(exact_moment_step(model, k, states[-1], policy))
    return states


def exact_cost(model: LQModel, policy: AffinePolicy) -> float:
    """Exact cost functional of an affine feedback rule."""
    states = exact_trajectory(model, policy)
    total = sum(stage_cost_moments(model, k, states[k], policy)
                for k in range(model.horizon))
    return float(total + terminal_cost_moments(model, states[-1]))
