"""Reference Riccati pass: the per-stage recursion with SciPy's Cholesky.

Each stage forms its two control Hessians and cross terms from separate
matrix products, tests the coercivity alternatives against the freshly
propagated weights, and factors and solves with ``cho_factor``/``cho_solve``;
the policy is built stage by stage the same way.  The tests hold
:mod:`mfctrl.lq`, which stacks each stage into one matrix, calls LAPACK
directly and solves the policy in one batch, to it: equal condition reports,
equal exceptions, and coefficients within rounding.  A recursion that leaves
the finite numbers is out of its scope: here SciPy's finiteness check raises
``ValueError``, where the engine names the stage.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from mfctrl.lq import (PD_EIG_TOL, PSD_EIG_TOL, RANK_REL_TOL, AffinePolicy, ConditionReport,
                       ConditionsNotMet, NotPositiveDefinite, RiccatiSolution, StageConditions)


def _sym(mat):
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def _min_eig(mats):
    return np.linalg.eigvalsh(_sym(mats)).min(axis=-1)


def _is_pd(mat):
    return float(_min_eig(mat)) > PD_EIG_TOL


def _full_row_rank(mats):
    n, d, m = mats.shape
    if m < d:
        return np.zeros(n, dtype=bool)
    sv = np.linalg.svd(mats, compute_uv=False)
    return (sv[:, 0] != 0.0) & (sv[:, d - 1] >= RANK_REL_TOL * sv[:, 0])


def _coercive_via(cost_pd, drift_rank, drift_weight, noise_rank, noise_weight):
    if cost_pd:
        return "control_cost"
    if drift_rank and _is_pd(drift_weight):
        return "drift_rank"
    if noise_rank and _is_pd(noise_weight):
        return "noise_rank"
    return None


def _hessian_error(k, dev_hess, mean_hess):
    for name, hess in (("centered control", dev_hess), ("mean control", mean_hess)):
        try:
            cho_factor(hess, lower=True)
        except np.linalg.LinAlgError:
            return NotPositiveDefinite(f"{name} Hessian not positive definite at stage {k}")
    return NotPositiveDefinite(f"control Hessian not positive definite at stage {k}")


def _stage_failures(row):
    failures = list(row.nonneg_failures)
    if row.evaluated:
        if not row.dev_coercive_ok:
            failures.append("per-state control minimization not coercive")
        if not row.mean_coercive_ok:
            failures.append("mean control minimization not coercive")
        if not row.hessians_pd:
            failures.append("control Hessian not positive definite")
    return failures


def backward_pass(model):
    """``(report, solution, error)`` as :func:`mfctrl.lq._backward_pass`."""
    n, d, m = model.horizon, model.state_dim, model.control_dim
    var_weight = np.zeros((n + 1, d, d))
    mean_weight = np.zeros((n + 1, d, d))
    linear = np.zeros((n + 1, d))
    constant = np.zeros(n + 1)
    dev_hessian = np.zeros((n, m, m))
    mean_hessian = np.zeros((n, m, m))
    dev_cross = np.zeros((n, d, m))
    mean_cross = np.zeros((n, d, m))
    mean_transition = np.zeros((n, d, d))
    var_weight[n] = model.terminal_state
    mean_weight[n] = model.terminal_state + model.terminal_state_mean
    linear[n] = model.terminal_linear + model.terminal_linear_mean

    terminal_failures = [what for what, mat in (
        ("terminal state cost not PSD", var_weight[n]),
        ("terminal state+mean cost not PSD", mean_weight[n]))
        if not _min_eig(mat) >= PSD_EIG_TOL]
    B, C = model.drift_state, model.drift_control
    D, H = model.noise_state, model.noise_control
    Bq, Cq = B + model.drift_state_mean, C + model.drift_control_mean
    Dq, Hq = D + model.noise_state_mean, H + model.noise_control_mean
    R, Rq = model.cost_control, model.cost_control + model.cost_control_mean
    Qq = model.cost_state + model.cost_state_mean
    r_eig, rq_eig = _min_eig(R), _min_eig(Rq)
    psd = {"state cost not PSD": _min_eig(model.cost_state) >= PSD_EIG_TOL,
           "state+mean cost not PSD": _min_eig(Qq) >= PSD_EIG_TOL,
           "control cost not PSD": r_eig >= PSD_EIG_TOL,
           "control+mean cost not PSD": rq_eig >= PSD_EIG_TOL}
    nonneg_failures = [[what for what, ok in psd.items() if not ok[k]] for k in range(n)]
    r_pd, rq_pd = r_eig > PD_EIG_TOL, rq_eig > PD_EIG_TOL
    c_rank, cq_rank, h_rank, hq_rank = map(_full_row_rank, (C, Cq, H, Hq))

    rows = [None] * n
    error, unevaluated = None, 0
    for k in range(n - 1, -1, -1):
        lam, gam = var_weight[k + 1], mean_weight[k + 1]
        dev_via = _coercive_via(r_pd[k], c_rank[k], lam, h_rank[k], lam)
        mean_via = _coercive_via(rq_pd[k], cq_rank[k], gam, hq_rank[k], lam)
        dev_hess = _sym(R[k] + H[k].T @ lam @ H[k] + C[k].T @ lam @ C[k])
        mean_hess = _sym(Rq[k] + Cq[k].T @ gam @ Cq[k] + Hq[k].T @ lam @ Hq[k])
        cross_dev = D[k].T @ lam @ H[k] + B[k].T @ lam @ C[k]
        cross_mean = Dq[k].T @ lam @ Hq[k] + Bq[k].T @ gam @ Cq[k]
        hessians_pd = _is_pd(dev_hess) and _is_pd(mean_hess)
        rows[k] = StageConditions(
            stage=k, nonneg_ok=not nonneg_failures[k], nonneg_failures=nonneg_failures[k],
            dev_coercive_ok=dev_via is not None, dev_coercive_via=dev_via,
            mean_coercive_ok=mean_via is not None, mean_coercive_via=mean_via,
            hessians_pd=hessians_pd, evaluated=True)
        if not hessians_pd:
            error, unevaluated = _hessian_error(k, dev_hess, mean_hess), k
            break

        chol_dev = cho_factor(dev_hess, lower=True)
        chol_mean = cho_factor(mean_hess, lower=True)
        mean_gain = cho_solve(chol_mean, cross_mean.T)
        var_weight[k] = _sym(model.cost_state[k] + B[k].T @ lam @ B[k] + D[k].T @ lam @ D[k]
                             - cross_dev @ cho_solve(chol_dev, cross_dev.T))
        mean_weight[k] = _sym(Qq[k] + Bq[k].T @ gam @ Bq[k] + Dq[k].T @ lam @ Dq[k]
                              - cross_mean @ mean_gain)
        mean_transition[k] = Bq[k] - Cq[k] @ mean_gain
        linear[k] = (model.cost_linear[k] + model.cost_linear_mean[k]
                     + mean_transition[k].T @ linear[k + 1])
        constant[k] = constant[k + 1] - 0.25 * float(
            linear[k + 1] @ Cq[k] @ cho_solve(chol_mean, Cq[k].T @ linear[k + 1]))
        dev_hessian[k] = dev_hess
        mean_hessian[k] = mean_hess
        dev_cross[k] = cross_dev
        mean_cross[k] = cross_mean
    rows[:unevaluated] = [StageConditions(k, not f, f, False, None, False, None, False, False)
                          for k, f in enumerate(nonneg_failures[:unevaluated])]

    failures = [_stage_failures(row) for row in rows] + [terminal_failures]
    first_failure = next(((k, "; ".join(f)) for k, f in enumerate(failures) if f), None)
    report = ConditionReport(lambda: rows, not terminal_failures, terminal_failures, first_failure)
    if error is not None:
        return report, None, error
    return report, RiccatiSolution(var_weight, mean_weight, linear, constant,
                                   dev_hessian, mean_hessian, dev_cross, mean_cross,
                                   mean_transition), None


def check_conditions(model):
    return backward_pass(model)[0]


def solve_riccati(model, force=False):
    report, sol, error = backward_pass(model)
    if not (force or report.ok):
        raise ConditionsNotMet(report)
    if error is not None:
        raise error
    return sol


def optimal_policy(model, sol):
    n, d, m = model.horizon, model.state_dim, model.control_dim
    gain_state = np.zeros((n, m, d))
    gain_mean = np.zeros((n, m, d))
    offset = np.zeros((n, m))
    for k in range(n):
        chol_dev = cho_factor(sol.dev_hessian[k], lower=True)
        chol_mean = cho_factor(sol.mean_hessian[k], lower=True)
        Cq = model.drift_control[k] + model.drift_control_mean[k]
        gain_state[k] = -cho_solve(chol_dev, sol.dev_cross[k].T)
        gain_mean[k] = -cho_solve(chol_mean, sol.mean_cross[k].T)
        offset[k] = -0.5 * cho_solve(chol_mean, Cq.T @ sol.linear[k + 1])
    return AffinePolicy(gain_state, gain_mean, offset)


def explicit_controls(model, sol, policy):
    """``(constant, state_means)`` of the explicit controls, stage by stage."""
    n, d, m = model.horizon, model.state_dim, model.control_dim
    means = np.zeros((n + 1, d))
    means[0] = model.initial_mean
    constant = np.zeros((n, m))
    for k in range(n):
        Cq = model.drift_control[k] + model.drift_control_mean[k]
        means[k + 1] = sol.mean_transition[k] @ means[k] + Cq @ policy.offset[k]
        constant[k] = ((policy.gain_mean[k] - policy.gain_state[k]) @ means[k]
                       + policy.offset[k])
    return constant, means
