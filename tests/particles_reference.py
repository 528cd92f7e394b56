"""Reference particle simulators, one full-cloud pass per term or state.

LQ: the cloud is an ``(N, d)`` array; each stage evaluates the policy's
actions, adds every cost term with its own ``einsum`` or matrix product, and
builds the drift and the noise scale from separate products.  The tests hold
:mod:`mfctrl.particles`, which folds the policy into each stage's coefficients
and makes one blocked pass over a ``(d, N)`` cloud, to it: the same draws, and
estimates, standard errors, stage moments and kept clouds within rounding.

Finite: each stage calls the scalar kernel and stage cost once per state
present, on ``DiscreteMeasure`` laws (the empirical law, or the oracle flow
of scalar pushforwards), and draws each state's particles with a masked
``searchsorted``.  :mod:`mfctrl.particles` evaluates the model through
:func:`mfctrl.model.evaluate` once per stage instead, on the same streams.
"""

import numpy as np

from mfctrl.measure import DiscreteMeasure, image_measure, match_indices, pushforward
from mfctrl.moments import exact_trajectory
from mfctrl.particles import (_STREAM_INIT_COMPONENT, _STREAM_INIT_DISCRETE, _STREAM_KERNEL,
                              _STREAM_STAGE_NOISE, ParticleCloud, _finalize, normals, uniforms)


def sample_initial_lq(model, n, seed):
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


def _variance(x):
    if x.shape[0] < 2:
        return np.zeros(x.shape[1])
    return x.var(axis=0, ddof=1)


def simulate_lq(model, policy, n, seed, closure="empirical", keep_clouds=False):
    oracle = exact_trajectory(model, policy) if closure == "oracle-law" else None
    x = sample_initial_lq(model, n, seed)
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


def _oracle_flow_finite(model, policy, mu0):
    flow = [mu0]
    for k in range(model.horizon):
        flow.append(pushforward(flow[-1], policy, model, k))
    return flow


def simulate_finite(model, policy, n, seed, closure="empirical", keep_clouds=False,
                    initial_law=None):
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
