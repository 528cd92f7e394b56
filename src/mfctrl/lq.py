"""Linear-quadratic mean-field control solved in closed loop.

The state follows a linear recursion driven by the state, the control, their
means, and a scalar standard normal multiplying a state/control-dependent
vector.  The cost is quadratic in the state, the control, and their means,
plus linear terms.  The value function is quadratic in (dispersion, mean):

    value_k(mu) = Var(mu)(var_weight_k) + mean' mean_weight_k mean
                  + linear_k' mean + constant_k

and the four coefficient sequences satisfy a backward Riccati system.  The
per-stage minimization is convex and coercive when the semidefiniteness and
rank conditions checked by :func:`check_conditions` hold; positive
definiteness of the two control Hessians is asserted at every stage anyway.

One backward pass propagates the weights from the terminal cost:
:func:`check_conditions` returns its report and :func:`solve_riccati` its
solution.  The dynamics are stacked once as ``Z = [[B C]; [D H]]``; each stage
builds one symmetrized matrix ``K + Z' W Z`` holding both control Hessians,
cross terms and next-weight parts, and solves it through Cholesky factors: by
LAPACK ``potrf``/``potrs``, or on Python floats when the state and the control
are scalars, where every block is 1x1 and a factor is a square root.  The loop
runs only this recursion.  After it, one batch tests the stored stage matrices
for finiteness and their Hessians for the eigenvalue margin, and the
coercivity conditions, which never feed the recursion; the report's rows per
stage are built when first read.  :func:`optimal_policy` solves every stage
at once.

Matrix inverses are never formed: the recursion solves through Cholesky
factors, the policy through batched linear solves.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .measure import (SYM_TOL, ArrayRecord, DiscreteMeasure, ValueRecord, _numbers,
                      array_fields, as_integer)

PSD_EIG_TOL = -1e-10   # least eigenvalue of a PSD matrix, here and in moments
PD_EIG_TOL = 1e-10
RANK_REL_TOL = 1e-10


class ConditionsNotMet(ArithmeticError, ValueError):
    """The convexity/coercivity conditions fail; carries the full report."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.message())


class NotPositiveDefinite(ArithmeticError, RuntimeError):
    """A control Hessian lost positive definiteness at a named stage."""


def _sym(mat):
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def _check_sym(name, mat):
    if np.max(np.abs(mat - mat.swapaxes(-1, -2))) > SYM_TOL:
        raise ValueError(f"{name} is not symmetric within {SYM_TOL}")
    return _sym(mat)


def _min_eig(mats) -> np.ndarray:
    """Smallest eigenvalue of each symmetrized matrix of a stack."""
    return np.linalg.eigvalsh(_sym(mats)).min(axis=-1)


def _full_row_rank(mats) -> np.ndarray:
    """Per matrix of a ``(..., d, m)`` stack: rank ``d`` within ``RANK_REL_TOL``."""
    d, m = mats.shape[-2:]
    if m < d:
        return np.zeros(mats.shape[:-2], dtype=bool)
    if d == 1:   # the one singular value is the row's 2-norm
        return (mats != 0.0).any(axis=(-2, -1)) & np.isfinite(mats).all(axis=(-2, -1))
    sv = np.linalg.svd(mats, compute_uv=False)
    return (sv[..., 0] != 0.0) & (sv[..., d - 1] >= RANK_REL_TOL * sv[..., 0])


# The shape of each array of an :class:`LQModel`, as its axes over the horizon
# ``n`` and the state and control dimensions ``d`` and ``m``.
_SHAPES = {
    "drift_state": "ndd", "drift_state_mean": "ndd",
    "drift_control": "ndm", "drift_control_mean": "ndm",
    "noise_state": "ndd", "noise_state_mean": "ndd",
    "noise_control": "ndm", "noise_control_mean": "ndm",
    "cost_state": "ndd", "cost_state_mean": "ndd",
    "cost_control": "nmm", "cost_control_mean": "nmm",
    "cost_linear": "nd", "cost_linear_mean": "nd",
    "terminal_state": "dd", "terminal_state_mean": "dd",
    "terminal_linear": "d", "terminal_linear_mean": "d",
    "initial_mean": "d", "initial_cov": "dd",
}


def _stacked(column, what) -> np.ndarray:
    """:func:`_numbers` of ``column``, a list of one value per stage; an error
    names the first stage that is bad alone or whose shape is not stage 0's."""
    try:
        return _numbers(column, what)
    except ValueError:
        if type(column) is not list:
            raise
        shapes = [_numbers(value, f"{what} at stage {k}").shape for k, value in enumerate(column)]
        k = next(k for k, shape in enumerate(shapes) if shape != shapes[0])
        raise ValueError(f"{what} at stage {k} has shape {shapes[k]}, "
                         f"against {shapes[0]} at stage 0") from None


@dataclass(frozen=True, eq=False)
class LQModel(ValueRecord):
    """Coefficients of a linear-quadratic mean-field model, of the shapes in ``_SHAPES``.

    Per stage, ``drift_<x>`` and ``drift_<x>_mean`` act on ``x`` (the state or
    the control) and on its mean in the drift; ``noise_*`` build the vector
    multiplied by the scalar unit-variance noise the same way.  The costs
    ``cost_<x>`` and ``cost_<x>_mean`` weigh them likewise, the quadratic ones
    through symmetric matrices; ``cost_linear*`` are the linear terms.
    Terminal analogues carry the ``terminal_`` prefix.  The initial law is
    given by mean and covariance (optionally backed by a discrete measure used
    when sampling particles).
    """

    drift_state: np.ndarray
    drift_state_mean: np.ndarray
    drift_control: np.ndarray
    drift_control_mean: np.ndarray
    noise_state: np.ndarray
    noise_state_mean: np.ndarray
    noise_control: np.ndarray
    noise_control_mean: np.ndarray
    cost_state: np.ndarray
    cost_state_mean: np.ndarray
    cost_control: np.ndarray
    cost_control_mean: np.ndarray
    cost_linear: np.ndarray
    cost_linear_mean: np.ndarray
    terminal_state: np.ndarray
    terminal_state_mean: np.ndarray
    terminal_linear: np.ndarray
    terminal_linear_mean: np.ndarray
    initial_mean: np.ndarray
    initial_cov: np.ndarray
    initial_measure: Optional[DiscreteMeasure] = None

    def _arrays(self) -> dict:
        arrays = {name: np.asarray(getattr(self, name), dtype=float) for name in _SHAPES}
        for name, value in arrays.items():
            if not np.isfinite(value).all():
                raise ValueError(f"{name} has non-finite entries")
        n, d, _ = arrays["drift_state"].shape
        dims = {"n": n, "d": d, "m": arrays["drift_control"].shape[-1]}
        for name, axes in _SHAPES.items():
            shape = tuple(dims[axis] for axis in axes)
            if arrays[name].shape != shape:
                raise ValueError(f"{name} has shape {arrays[name].shape}, expected {shape} "
                                 "(stage lists must have exactly horizon entries)")
        for name in ["cost_state", "cost_state_mean", "cost_control", "cost_control_mean",
                     "terminal_state", "terminal_state_mean", "initial_cov"]:
            arrays[name] = _check_sym(name, arrays[name])
        return arrays

    @property
    def horizon(self) -> int:
        return self.drift_state.shape[0]

    @property
    def state_dim(self) -> int:
        return self.drift_state.shape[1]

    @property
    def control_dim(self) -> int:
        return self.drift_control.shape[2]

    # -- serialization --------------------------------------------------------
    # the keys of a JSON stage block, and the key in the JSON ``terminal``
    # block of each terminal field: ``cost_<x>`` for ``terminal_<x>``
    _STAGE_KEYS = tuple(name for name, axes in _SHAPES.items() if axes.startswith("n"))
    _TERMINAL_KEYS = {name: "cost_" + name.removeprefix("terminal_")
                      for name in _SHAPES if name.startswith("terminal_")}

    def to_json(self) -> dict:
        payload = {
            "state_dim": self.state_dim,
            "control_dim": self.control_dim,
            "horizon": self.horizon,
            "stages": [
                {key: getattr(self, key)[k].tolist() for key in self._STAGE_KEYS}
                for k in range(self.horizon)
            ],
            "terminal": {key: getattr(self, name).tolist()
                         for name, key in self._TERMINAL_KEYS.items()},
            "initial_law": {"mean": self.initial_mean.tolist(), "cov": self.initial_cov.tolist()},
        }
        if self.initial_measure is not None:
            payload["initial_law"]["measure"] = self.initial_measure.to_json()
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "LQModel":
        stages = payload["stages"]
        fields = {key: _stacked([s[key] for s in stages], f"field {key!r}")
                  for key in cls._STAGE_KEYS}
        declared = {key: as_integer(payload[key], key)
                    for key in ("horizon", "state_dim", "control_dim") if key in payload}
        if declared.get("horizon", len(stages)) != len(stages):
            raise ValueError(f"declared horizon {declared['horizon']} but "
                             f"{len(stages)} stage blocks")
        dims = (declared.get("state_dim"), declared.get("control_dim"))
        got = fields["drift_control"].shape[1:]
        if any(v is not None and v != g for v, g in zip(dims, got)):
            raise ValueError(f"declared dims {dims} do not match stage blocks {got}")
        init = payload["initial_law"]
        measure = None
        if "measure" in init:
            measure = DiscreteMeasure.from_json(init["measure"])
            mean, cov = measure.mean(), measure.covariance()
        else:
            mean, cov = (_numbers(init[key], f"initial_law field {key!r}")
                         for key in ("mean", "cov"))
        term = payload["terminal"]
        terminal = {name: _numbers(term[key], f"terminal field {key!r}")
                    for name, key in cls._TERMINAL_KEYS.items()}
        return cls(
            initial_mean=mean,
            initial_cov=cov,
            initial_measure=measure,
            **fields,
            **terminal,
        )


def _check_mean_variance_params(gamma, b, sigma, delta, n, x0=0.0):
    if not all(map(math.isfinite, (gamma, b, sigma, delta, x0))):
        raise ValueError("mean-variance parameters must be finite")
    if gamma <= 0 or sigma <= 0 or delta <= 0:
        raise ValueError("need gamma > 0, sigma > 0, delta > 0")
    if n < 1:
        raise ValueError("need n >= 1")


def mean_variance_model(gamma: float, b: float, sigma: float, delta: float,
                        n: int, x0: float) -> LQModel:
    """Wealth model for the mean-variance objective, encoded as an LQModel.

    One risky asset with rate of return ``b`` and volatility ``sigma`` over
    steps of length ``delta``; the control is the invested amount; the
    objective is ``(gamma/2) Var(X_n) - E[X_n]``.
    """
    _check_mean_variance_params(gamma, b, sigma, delta, n, x0)
    zs = np.zeros((n, 1, 1))
    zv = np.zeros((n, 1))
    return LQModel(
        drift_state=np.ones((n, 1, 1)), drift_state_mean=zs,
        drift_control=np.full((n, 1, 1), b * delta), drift_control_mean=zs,
        noise_state=zs, noise_state_mean=zs,
        noise_control=np.full((n, 1, 1), sigma * math.sqrt(delta)), noise_control_mean=zs,
        cost_state=zs, cost_state_mean=zs, cost_control=zs, cost_control_mean=zs,
        cost_linear=zv, cost_linear_mean=zv,
        terminal_state=[[gamma / 2.0]], terminal_state_mean=[[-gamma / 2.0]],
        terminal_linear=[0.0], terminal_linear_mean=[-1.0],
        initial_mean=[x0], initial_cov=[[0.0]], initial_measure=DiscreteMeasure.dirac([x0]),
    )


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def _stacked_stages(model: LQModel):
    """``Z = [[B C]; [D H]]``, shape ``(n, 2, 2d, d+m)``, and ``K = blkdiag(Q, R)``,
    shape ``(n, 2, d+m, d+m)``, of every stage; index 1 holds ``B + Bbar`` etc."""
    n, d, m = model.horizon, model.state_dim, model.control_dim
    dyn, cost = np.empty((n, 2, 2 * d, d + m)), np.zeros((n, 2, d + m, d + m))
    lo, hi = slice(None, d), slice(d, None)
    for out, rows, cols, name in ((dyn, lo, lo, "drift_state"), (dyn, lo, hi, "drift_control"),
                                  (dyn, hi, lo, "noise_state"), (dyn, hi, hi, "noise_control"),
                                  (cost, lo, lo, "cost_state"), (cost, hi, hi, "cost_control")):
        out[:, 0, rows, cols] = getattr(model, name)
        np.add(getattr(model, name), getattr(model, name + "_mean"), out=out[:, 1, rows, cols])
    return dyn, cost


def _stage_matrix(cost, dyn, weights, out):
    """Write ``_sym(K + Z' W Z)`` of one stage, ``W = blkdiag(lam, lam | gam, lam)``, into
    ``out``: per component, the next weights' quadratic part, cross term and control Hessian."""
    full = cost + dyn.swapaxes(-1, -2) @ weights @ dyn
    np.multiply(0.5, np.add(full, full.swapaxes(-1, -2), out=out), out=out)


def _not_finite(k: int) -> FloatingPointError:
    return FloatingPointError(f"Riccati recursion not finite at stage {k}")


@dataclass(frozen=True, eq=False)
class RiccatiSolution(ArrayRecord):
    """Backward coefficient sequences of the quadratic value function.

    ``var_weight[k]`` weighs the dispersion of the law, ``mean_weight[k]`` the
    quadratic in the mean, ``linear[k]`` and ``constant[k]`` the affine part.
    Per-stage intermediates: the two control Hessians (``dev_hessian`` for the
    centered component, ``mean_hessian`` for the mean component), the two
    cross-term matrices, and the closed-loop mean transition matrix.
    """

    var_weight: np.ndarray      # (n+1, d, d)
    mean_weight: np.ndarray     # (n+1, d, d)
    linear: np.ndarray          # (n+1, d)
    constant: np.ndarray        # (n+1,)
    dev_hessian: np.ndarray     # (n, m, m)
    mean_hessian: np.ndarray    # (n, m, m)
    dev_cross: np.ndarray       # (n, d, m)
    mean_cross: np.ndarray      # (n, d, m)
    mean_transition: np.ndarray  # (n, d, d)

    @property
    def horizon(self) -> int:
        return self.dev_hessian.shape[0]

    @property
    def state_dim(self) -> int:
        return self.var_weight.shape[1]

    @property
    def control_dim(self) -> int:
        return self.dev_hessian.shape[1]


@dataclass
class StageConditions:
    stage: int
    nonneg_ok: bool
    nonneg_failures: list
    dev_coercive_ok: bool
    dev_coercive_via: Optional[str]
    mean_coercive_ok: bool
    mean_coercive_via: Optional[str]
    hessians_pd: bool
    evaluated: bool


@dataclass(eq=False)
class ConditionReport:
    """The conditions at every stage and at the terminal cost.

    ``ok`` and ``first_failure`` are set by the backward pass; the
    :class:`StageConditions` rows of ``stages`` are built by ``build_rows`` on
    first read, since a solve reads only ``first_failure``.  Equality compares them too.
    """

    build_rows: Callable[[], list] = field(repr=False)
    terminal_ok: bool
    terminal_failures: list
    first_failure: Optional[tuple]

    stages = cached_property(lambda self: self.build_rows())

    def __eq__(self, other):
        key = lambda r: (r.stages, r.terminal_ok, r.terminal_failures, r.first_failure)
        return type(other) is ConditionReport and key(self) == key(other)

    @property
    def ok(self) -> bool:
        return self.first_failure is None

    def message(self) -> str:
        if self.ok:
            return "all conditions hold at every stage"
        stage, what = self.first_failure
        return f"conditions violated at stage {stage}: {what}"


def _coercive_via(cost_pd, drift_ok, noise_ok):
    """First coercivity alternative that holds: PD control cost, or full row
    rank of the control-to-drift (then control-to-noise) matrix and a PD weight."""
    return ("control_cost" if cost_pd else "drift_rank" if drift_ok
            else "noise_rank" if noise_ok else None)


def _hessian_error(k: int, hessians) -> NotPositiveDefinite:
    """The error a forced solve raises at stage ``k``, the first stage whose
    control Hessians fail the eigenvalue margin: named after the first
    Hessian whose Cholesky factorization fails, if one does."""
    from scipy.linalg.lapack import dpotrf
    for name, hess in zip(("centered control", "mean control"), hessians):
        if dpotrf(hess, lower=1, clean=0)[1] > 0:
            return NotPositiveDefinite(f"{name} Hessian not positive definite at stage {k}")
    return NotPositiveDefinite(f"control Hessian not positive definite at stage {k}")


def _stage_failures(row: StageConditions) -> list:
    failures = list(row.nonneg_failures)
    if row.evaluated:
        if not row.dev_coercive_ok:
            failures.append("per-state control minimization not coercive")
        if not row.mean_coercive_ok:
            failures.append("mean control minimization not coercive")
        if not row.hessians_pd:
            failures.append("control Hessian not positive definite")
    return failures


# The two stage loops of :func:`_backward_pass`.  Each runs the recursion from
# the last stage down, writes every stage matrix it forms into ``stages`` and
# the coefficients of every stage it solves into the other arrays, and returns
# ``(low, info)``: the stage where a control Hessian had no Cholesky factor
# and the ``potrf`` info, or ``(0, 0)``.

def _array_loop(dyn, cost, cost_linear, weight, linear, constant, mean_transition, stages):
    """The loop on arrays, each stage solved by LAPACK ``potrf``/``potrs``."""
    from scipy.linalg.lapack import dpotrf, dpotrs   # here, so a 1x1 model skips SciPy
    n, d, m = len(dyn), weight.shape[-1], stages.shape[-1] - weight.shape[-1]
    weights = np.zeros((2, 2 * d, 2 * d))
    rhs, gains = np.zeros((m, d + 1)), np.zeros((2, m, d))
    for k in range(n - 1, -1, -1):
        (lam, gam), ell, stage = weight[k + 1], linear[k + 1], stages[k]
        weights[0, :d, :d] = weights[:, d:, d:] = lam
        weights[1, :d, :d] = gam
        _stage_matrix(cost[k], dyn[k], weights, stage)
        dev_factor, dev_info = dpotrf(stage[0, d:, d:], lower=1, clean=0)
        mean_factor, mean_info = dpotrf(stage[1, d:, d:], lower=1, clean=0)
        if dev_info or mean_info:
            return k, dev_info or mean_info
        # the mean solve carries the offset's right-hand side as one more column
        mean_control = dyn[k, 1, :d, d:]
        rhs[:, :d] = stage[1, d:, :d]
        rhs[:, d] = ell @ mean_control
        gains[0] = dpotrs(dev_factor, stage[0, d:, :d], lower=1)[0]
        mean_gain = dpotrs(mean_factor, rhs, lower=1)[0]
        gains[1] = mean_gain[:, :d]
        weight[k] = _sym(stage[:, :d, :d] - stage[:, :d, d:] @ gains)
        mean_transition[k] = dyn[k, 1, :d, :d] - mean_control @ gains[1]
        linear[k] = cost_linear[k] + ell @ mean_transition[k]
        constant[k] = constant[k + 1] - 0.25 * float(rhs[:, d] @ mean_gain[:, d])
    return 0, 0


def _float_stage(b, c, dn, h, q, r, top, bottom):
    """The flattened ``_stage_matrix`` of one component when every block is
    1x1: ``Z = [[b c]; [dn h]]``, ``K = diag(q, r)`` and ``W = diag(top,
    bottom)``.  The diagonal is symmetrized too, so it overflows where
    ``_sym`` does."""
    bt, dw, ct, hw = b * top, dn * bottom, c * top, h * bottom
    corner, hess = q + (bt * b + dw * dn), r + (ct * c + hw * h)
    cross = 0.5 * ((bt * c + dw * h) + (ct * b + hw * dn))
    return 0.5 * (corner + corner), cross, cross, 0.5 * (hess + hess)


def _float_loop(dyn, cost, cost_linear, weight, linear, constant, mean_transition, stages):
    """The loop on Python floats when every block is 1x1: ``potrf`` of a 1x1
    matrix ``h`` fails unless ``h > 0`` and else is ``sqrt(h)``, and
    ``potrs`` multiplies twice by its reciprocal, as OpenBLAS does.  The
    results go to flat ``array('d')`` buffers, written into the arrays once."""
    n = len(dyn)
    # per stage from the last: b c dn h of each component, q r of each, the linear cost
    columns = np.empty((13, n))
    columns[:8] = dyn.reshape(n, 8)[::-1].T
    columns[8:12] = cost.reshape(n, 8)[::-1, (0, 3, 4, 7)].T
    columns[12] = cost_linear[::-1, 0]
    mats, coefficients = array("d"), array("d")
    (lam, gam), ell, chi = weight[n, :, 0, 0].tolist(), float(linear[n, 0]), 0.0
    low = info = 0
    for k, b, c, dn, h, bq, cq, dq, hq, q, r, qq, rq, cl in zip(
            range(n - 1, -1, -1), *map(memoryview, columns)):
        dev = _float_stage(b, c, dn, h, q, r, lam, lam)
        mean = _float_stage(bq, cq, dq, hq, qq, rq, gam, lam)
        mats.extend(dev)
        mats.extend(mean)
        if not (dev[3] > 0.0 and mean[3] > 0.0):   # NaN fails too, as in potrf
            low, info = k, 1
            break
        dev_inv, mean_inv, drive = 1.0 / math.sqrt(dev[3]), 1.0 / math.sqrt(mean[3]), ell * cq
        dev_gain, mean_gain = dev[2] * dev_inv * dev_inv, mean[2] * mean_inv * mean_inv
        lam, gam = dev[0] - dev[1] * dev_gain, mean[0] - mean[1] * mean_gain
        lam, gam = 0.5 * (lam + lam), 0.5 * (gam + gam)
        transition = bq - cq * mean_gain
        ell = cl + ell * transition
        chi -= 0.25 * (drive * (drive * mean_inv * mean_inv))
        coefficients.extend((lam, gam, ell, chi, transition))
    stages[n - len(mats) // 8:] = np.frombuffer(mats).reshape(-1, 2, 2, 2)[::-1]
    solved = np.frombuffer(coefficients).reshape(-1, 5)[::-1]
    top = slice(n - len(solved), n)
    weight[top, :, 0, 0] = solved[:, :2]
    linear[top, 0], constant[top], mean_transition[top, 0, 0] = solved[:, 2:].T
    return low, info


@np.errstate(over="ignore", invalid="ignore")   # a non-finite stage raises below
def _backward_pass(model: LQModel):
    """The backward Riccati recursion together with its condition report.

    Returns ``(report, solution, error)``: the solution when every control
    Hessian passes the eigenvalue margin, else the
    :class:`NotPositiveDefinite` error for the first stage (from the end)
    where one fails; earlier stages are then reported unevaluated.  A stage
    matrix or coefficient that is not finite raises ``FloatingPointError``
    naming its stage.
    """
    n, d, m = model.horizon, model.state_dim, model.control_dim
    weight = np.zeros((n + 1, 2, d, d))   # per stage, var_weight and mean_weight
    linear, constant = np.zeros((n + 1, d)), np.zeros(n + 1)
    mean_transition, stages = np.zeros((n, d, d)), np.zeros((n, 2, d + m, d + m))
    weight[n] = model.terminal_state, model.terminal_state + model.terminal_state_mean
    linear[n] = model.terminal_linear + model.terminal_linear_mean

    # the conditions on the model alone, each batched over the stages
    terminal_failures = [what for what, mat in zip(
        ("terminal state cost not PSD", "terminal state+mean cost not PSD"), weight[n])
        if not _min_eig(mat) >= PSD_EIG_TOL]
    dyn, cost = _stacked_stages(model)
    control_eig = _min_eig(cost[:, :, d:, d:])
    psd = np.concatenate([_min_eig(cost[:, :, :d, :d]), control_eig], axis=1) >= PSD_EIG_TOL
    control_pd = control_eig > PD_EIG_TOL
    drift_rank, noise_rank = _full_row_rank(dyn[:, :, :d, d:]), _full_row_rank(dyn[:, :, d:, d:])
    cost_linear = model.cost_linear + model.cost_linear_mean

    loop = _float_loop if d == m == 1 else _array_loop
    low, info = loop(dyn, cost, cost_linear, weight, linear, constant, mean_transition, stages)

    # the stage tests, in the order of the recursion: the highest failing stage
    # decides, a non-finite stage matrix before its margin; eigvalsh sees no NaN
    finite = np.isfinite(stages[low:]).all(axis=(1, 2, 3))
    failed = ~finite
    failed[finite] = ~(np.linalg.eigvalsh(stages[low:][finite, :, d:, d:]).min(axis=(1, 2))
                       > PD_EIG_TOL)
    first, error = 0, None
    if failed.any():
        first = low + int(np.flatnonzero(failed)[-1])
        if not finite[first - low]:
            raise _not_finite(first)
        error = _hessian_error(first, stages[first, :, d:, d:])
        weight[:first + 1] = linear[:first + 1] = constant[:first + 1] = 0.0
    elif info:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    finite = np.isfinite(linear).all(axis=1) & np.isfinite(constant)
    finite &= np.isfinite(weight).all(axis=(1, 2, 3))
    if not finite.all():
        raise _not_finite(int(np.flatnonzero(~finite)[-1]))

    # the coercivity alternatives meet the weights of the next stage; stages
    # before a failed Hessian have no weights to test against
    weight_pd = np.zeros((n, 2), dtype=bool)
    weight_pd[first:] = _min_eig(weight[first + 1:]) > PD_EIG_TOL
    # per stage and component: PD control cost, drift rank, noise rank (which
    # meets var_weight in both components)
    alternatives = np.stack([control_pd, drift_rank & weight_pd,
                             noise_rank & weight_pd[:, :1]], axis=2)
    coercive = alternatives.any(axis=2).all(axis=1)
    failing = ~psd.all(axis=1)
    failing[first:] |= ~coercive[first:]
    failing[first] |= error is not None
    labels = [f"{what} cost not PSD" for what in ("state", "state+mean", "control", "control+mean")]

    def rows(lo, hi):
        """The report rows of stages ``lo`` to ``hi - 1``."""
        built = []
        for k, oks, (dev, mean) in zip(range(lo, hi), psd[lo:hi].tolist(),
                                       alternatives[lo:hi].tolist()):
            nonneg = [what for what, ok in zip(labels, oks) if not ok]
            if k < first:
                built.append(StageConditions(k, not nonneg, nonneg, False, None, False, None,
                                             False, False))
                continue
            dev_via, mean_via = _coercive_via(*dev), _coercive_via(*mean)
            built.append(StageConditions(
                stage=k, nonneg_ok=not nonneg, nonneg_failures=nonneg,
                dev_coercive_ok=dev_via is not None, dev_coercive_via=dev_via,
                mean_coercive_ok=mean_via is not None, mean_coercive_via=mean_via,
                hessians_pd=error is None or k > first, evaluated=True))
        return built

    first_failure = None
    if failing.any():
        k = int(np.flatnonzero(failing)[0])
        first_failure = (k, "; ".join(_stage_failures(rows(k, k + 1)[0])))
    elif terminal_failures:
        first_failure = (n, "; ".join(terminal_failures))
    report = ConditionReport(lambda: rows(0, n), not terminal_failures, terminal_failures,
                             first_failure)
    if error is not None:
        return report, None, error
    parts = stages.swapaxes(0, 1)   # the stage matrices by component, (2, n, d+m, d+m)
    return report, RiccatiSolution(*weight.swapaxes(0, 1), linear, constant, *parts[..., d:, d:],
                                   *parts[..., :d, d:], mean_transition), None


def check_conditions(model: LQModel) -> ConditionReport:
    """Per-stage report of the nonnegativity and coercivity conditions.

    The nonnegativity block requires PSD state/control cost matrices and
    mean-augmented sums (terminal included).  The coercivity alternatives at
    stage ``k`` are: positive definite control cost, or full row rank of the
    control-to-drift (resp. control-to-noise) matrix combined with positive
    definiteness of the backward weight matrix it meets: the weights
    propagated from the terminal cost, which they are at ``k = n-1``.  The
    control Hessians are tested directly; when one fails, earlier stages
    cannot be evaluated.  :func:`solve_riccati` runs the same pass.
    """
    return _backward_pass(model)[0]


def solve_riccati(model: LQModel, force: bool = False) -> RiccatiSolution:
    """Backward Riccati recursion for the quadratic value function.

    One backward pass computes the weights and the condition report of
    :func:`check_conditions`.  A failed report raises
    :class:`ConditionsNotMet` unless ``force`` is set; positive definiteness
    of both control Hessians is required at every stage even then
    (:class:`NotPositiveDefinite`).  A recursion that leaves the finite
    numbers raises ``FloatingPointError`` naming the stage.  The weight
    matrices are re-symmetrized after each update.
    """
    report, sol, error = _backward_pass(model)
    if not (force or report.ok):
        raise ConditionsNotMet(report)
    if error is not None:
        raise error
    return sol


def mean_variance_closed_form(gamma: float, b: float, sigma: float, delta: float,
                              n: int) -> RiccatiSolution:
    """Closed-form coefficient sequences for the mean-variance wealth model.

    With ``r = (sigma^2 + b^2 delta) / sigma^2``:

    * ``var_weight[k] = (gamma/2) r^-(n-k)``
    * ``mean_weight[k] = 0``, ``linear[k] = -1``
    * ``constant[k] = -(1/(2 gamma)) (r^(n-k) - 1)``

    The per-stage intermediates follow from the same sequences.
    """
    _check_mean_variance_params(gamma, b, sigma, delta, n)
    ratio = sigma**2 / (sigma**2 + b**2 * delta)
    ks = np.arange(n + 1)
    lam = (gamma / 2.0) * ratio ** (n - ks)
    chi = -(1.0 / (2.0 * gamma)) * ((1.0 / ratio) ** (n - ks) - 1.0)
    lam_next = lam[1:]
    dev = (sigma**2 * delta + b**2 * delta**2) * lam_next
    mean_h = sigma**2 * delta * lam_next
    cross = b * delta * lam_next
    return RiccatiSolution(
        var_weight=lam.reshape(-1, 1, 1), mean_weight=np.zeros((n + 1, 1, 1)),
        linear=np.full((n + 1, 1), -1.0), constant=chi,
        dev_hessian=dev.reshape(-1, 1, 1), mean_hessian=mean_h.reshape(-1, 1, 1),
        dev_cross=cross.reshape(-1, 1, 1), mean_cross=np.zeros((n, 1, 1)),
        mean_transition=np.ones((n, 1, 1)),
    )


# ---------------------------------------------------------------------------
# Policies and values
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AffinePolicy(ArrayRecord):
    """Per-stage affine feedback ``a = G (x - xbar) + Gbar xbar + c``.

    ``gain_state`` acts on the deviation from the current state mean,
    ``gain_mean`` on the mean itself, ``offset`` is the constant part.
    """

    gain_state: np.ndarray   # (n, m, d)
    gain_mean: np.ndarray    # (n, m, d)
    offset: np.ndarray       # (n, m)

    def _arrays(self) -> dict:
        arrays = {name: np.asarray(v, dtype=float) for name, v in array_fields(self).items()}
        n, m, d = arrays["gain_state"].shape
        if arrays["gain_mean"].shape != (n, m, d) or arrays["offset"].shape != (n, m):
            raise ValueError("inconsistent policy coefficient shapes")
        for name, value in arrays.items():
            if not np.isfinite(value).all():
                raise ValueError(f"policy {name} has non-finite entries")
        return arrays

    @property
    def horizon(self) -> int:
        return self.gain_state.shape[0]

    @property
    def control_dim(self) -> int:
        return self.gain_state.shape[1]

    @property
    def state_dim(self) -> int:
        return self.gain_state.shape[2]

    @classmethod
    def zero(cls, n: int, d: int, m: int) -> "AffinePolicy":
        return cls(np.zeros((n, m, d)), np.zeros((n, m, d)), np.zeros((n, m)))

    def action(self, stage: int, x, mean):
        """Action at ``x`` (shape (d,) or (N, d)) given the current state mean."""
        x = np.asarray(x, dtype=float)
        mean = np.asarray(mean, dtype=float)
        dev = x - mean
        return (dev @ self.gain_state[stage].T + mean @ self.gain_mean[stage].T
                + self.offset[stage])

    def mean_action(self, stage: int, mean):
        mean = np.asarray(mean, dtype=float)
        return mean @ self.gain_mean[stage].T + self.offset[stage]

    def perturbed(self, other: "AffinePolicy", eps: float) -> "AffinePolicy":
        return AffinePolicy(self.gain_state + eps * other.gain_state,
                            self.gain_mean + eps * other.gain_mean,
                            self.offset + eps * other.offset)

    @classmethod
    def from_json(cls, payload: dict) -> "AffinePolicy":
        return cls(*(_stacked(payload[name], f"policy field {name!r}")
                     for name in ("gain_state", "gain_mean", "offset")))


def optimal_policy(model: LQModel, sol: RiccatiSolution) -> AffinePolicy:
    """Minimizing affine feedback, including the offset driven by the linear
    coefficient of the value function, solved for every stage at once."""
    mean_control = model.drift_control + model.drift_control_mean
    offset_rhs = sol.linear[1:, None, :] @ mean_control
    gain_state = -np.linalg.solve(sol.dev_hessian, sol.dev_cross.swapaxes(1, 2))
    gain_mean = -np.linalg.solve(sol.mean_hessian, sol.mean_cross.swapaxes(1, 2))
    offset = -0.5 * np.linalg.solve(sol.mean_hessian, offset_rhs.swapaxes(1, 2))[..., 0]
    return AffinePolicy(gain_state, gain_mean, offset)


@dataclass(frozen=True, eq=False)
class ExplicitControls(ArrayRecord):
    """Stage coefficients expressing the optimal control from the state alone.

    ``action_k(x) = feedback[k] @ x + constant[k]``, with ``constant`` built
    from the optimal mean flow ``state_means`` (the closed-loop mean
    propagated from the initial mean, offsets included).
    """

    feedback: np.ndarray     # (n, m, d)
    constant: np.ndarray     # (n, m)
    state_means: np.ndarray  # (n+1, d)

    def action(self, stage: int, x):
        x = np.asarray(x, dtype=float)
        return x @ self.feedback[stage].T + self.constant[stage]


def explicit_control_coefficients(model: LQModel, sol: RiccatiSolution,
                                  policy: AffinePolicy) -> ExplicitControls:
    """Optimal control as a function of the state realization only.

    Substitutes the deterministic optimal mean flow into the feedback rule
    ``policy = optimal_policy(model, sol)``: the mean follows
    ``mean_{k+1} = mean_transition[k] @ mean_k + (drift_control +
    drift_control_mean) @ offset_k``, starting from the initial mean, so the
    returned coefficients reproduce the feedback policy along the optimal
    flow for every state realization.
    """
    n, d = model.horizon, model.state_dim
    drive = np.einsum("kdm,km->kd", model.drift_control + model.drift_control_mean,
                      policy.offset)
    means = np.zeros((n + 1, d))
    means[0] = model.initial_mean
    if d == 1:   # on Python floats, as the 1x1 matmul computes
        a, b = sol.mean_transition[:, 0, 0].tolist(), drive[:, 0].tolist()
        m = [float(means[0, 0])]
        for k in range(n):
            # the matmul's sum starts at 0.0, which turns a -0.0 product into 0.0
            m.append((0.0 + a[k] * m[k]) + b[k])
        means[:, 0] = m
    else:
        for k in range(n):
            means[k + 1] = sol.mean_transition[k] @ means[k] + drive[k]
    constant = np.einsum("kmd,kd->km", policy.gain_mean - policy.gain_state,
                         means[:-1]) + policy.offset
    return ExplicitControls(policy.gain_state, constant, means)


def value_at(sol: RiccatiSolution, stage: int, law) -> float:
    """Quadratic value at a law given as ``(mean, cov)``, a GaussianState-like
    object (``.mean``/``.cov``), or a :class:`DiscreteMeasure`."""
    if not 0 <= stage <= sol.horizon:
        raise ValueError(f"stage {stage} out of range [0, {sol.horizon}]")
    if isinstance(law, DiscreteMeasure):
        disp = law.variance_form(sol.var_weight[stage])
        mean = law.mean()
    else:
        mean, cov = (law.mean, law.cov) if hasattr(law, "mean") and hasattr(law, "cov") else law
        mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
        if mean.shape != (sol.state_dim,) or cov.shape != (sol.state_dim,) * 2:
            raise ValueError("law dimensions do not match the solution")
        disp = float(np.trace(sol.var_weight[stage] @ cov))
    return float(disp + mean @ sol.mean_weight[stage] @ mean
                 + sol.linear[stage] @ mean + sol.constant[stage])


def stationarity_residual(model: LQModel, sol: RiccatiSolution,
                          policy: AffinePolicy, stage: int, x, mean) -> np.ndarray:
    """Gradient of the per-stage control functional at ``policy``, at point ``x``.

    Vanishes identically (for every ``x``) at the minimizing feedback.
    """
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    a = policy.action(stage, x, mean)
    abar = policy.mean_action(stage, mean)
    Cq = model.drift_control[stage] + model.drift_control_mean[stage]
    return (2.0 * sol.dev_hessian[stage] @ a
            + 2.0 * (sol.mean_hessian[stage] - sol.dev_hessian[stage]) @ abar
            + 2.0 * sol.dev_cross[stage].T @ (x - mean)
            + 2.0 * sol.mean_cross[stage].T @ mean
            + Cq.T @ sol.linear[stage + 1])
