"""Finite-state, finite-action mean-field control models.

A :class:`FiniteMFModel` bundles the state grid, the action set, the horizon,
a measure-dependent transition kernel and the stage/terminal costs.  Kernels
and costs are callables over grid indices plus measure arguments: the measure
dependence makes full tabulation impossible in general.

The module also provides the lifted costs (expected stage/terminal cost as a
functional of the law and the feedback map), a sampling validator, and a JSON
config loader with a small set of documented kernel/cost families.  Each
family's callables also carry a ``batched`` form that evaluates the same
formula for many (law, feedback map) pairs at once from a :class:`LawBatch`
of moments; the DPP engine uses it when present.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .measure import (
    MASS_TOL,
    MERGE_TOL,
    DiscreteMeasure,
    TabularMap,
    _as_points,
    image_measure,
    match_indices,
)

KernelFn = Callable[[int, int, DiscreteMeasure, int, DiscreteMeasure], np.ndarray]
StageCostFn = Callable[[int, int, DiscreteMeasure, int, DiscreteMeasure], float]
TerminalCostFn = Callable[[int, DiscreteMeasure], float]


@dataclass(frozen=True)
class TransitionKernel:
    """Row-stochastic kernel over a state grid, exposed for measure pushforwards.

    ``rows(stage, state_index, mu, action_index, lam)`` returns the probability
    vector of the next state over ``states``.
    """

    states: np.ndarray
    actions: np.ndarray
    rows: KernelFn

    def __call__(self, stage, state_index, mu, action_index, lam):
        return self.rows(stage, state_index, mu, action_index, lam)


@dataclass(frozen=True)
class FirstOrderSpec:
    """Pairwise decomposition of a model with first-order interactions.

    ``ptilde(stage, ix, iy, ia, ib)`` is the next-state row for the pair
    ``(x_ix, y_iy)`` with actions ``(a_ia, b_ib)``; ``ftilde`` and ``gtilde``
    are the pairwise stage and terminal costs.
    """

    ptilde: Callable[[int, int, int, int, int], np.ndarray]
    ftilde: Callable[[int, int, int, int, int], float]
    gtilde: Callable[[int, int], float]


@dataclass(frozen=True)
class FiniteMFModel:
    """Finite mean-field control model.

    Parameters
    ----------
    states : (S, d) array
        Ordered state grid.
    actions : (M, q) array
        Ordered action set.
    horizon : int
        Number of stages ``n >= 1``.
    kernel, stage_cost, terminal_cost : callables
        Indexed by grid indices; measures are passed as
        :class:`~mfctrl.measure.DiscreteMeasure` (state law, action law).
        A callable may carry a ``batched`` attribute computing the same
        values from a :class:`LawBatch` (see the config families below):
        kernel rows of shape ``(P, S, S)``, costs of shape ``(P, S)``, where
        the leading axis may be 1 and a cost may be one constant.
    mean_field_free : bool
        Declares that kernel and costs ignore the measure arguments.
    first_order : FirstOrderSpec, optional
        Pairwise decomposition, when the model has first-order interactions.
    """

    states: np.ndarray
    actions: np.ndarray
    horizon: int
    kernel: KernelFn
    stage_cost: StageCostFn
    terminal_cost: TerminalCostFn
    mean_field_free: bool = False
    first_order: Optional[FirstOrderSpec] = None
    config: Optional[dict] = None

    def __post_init__(self):
        object.__setattr__(self, "states", _as_points(self.states))
        object.__setattr__(self, "actions", _as_points(self.actions))
        self.states.setflags(write=False)
        self.actions.setflags(write=False)
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        # a law is a weight vector over the grid, one entry per point
        for name, grid in (("states", self.states), ("actions", self.actions)):
            first = match_indices(grid, grid)
            if np.any(first != np.arange(len(grid))):
                i = int(np.flatnonzero(first != np.arange(len(grid)))[0])
                raise ValueError(f"{name} {i} and {int(first[i])} coincide "
                                 f"(max-norm distance <= {MERGE_TOL:g})")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def transition_kernel(self) -> TransitionKernel:
        return TransitionKernel(self.states, self.actions, self.kernel)

    def tabular_policy(self, action_indices: Sequence[int]) -> TabularMap:
        """Feedback map over the full state grid from per-state action indices."""
        idx = np.asarray(action_indices, dtype=int)
        if idx.shape != (self.n_states,):
            raise ValueError(f"need one action index per state, got shape {idx.shape}")
        return TabularMap(self.states, self.actions[idx])

    def policy_action_indices(self, policy: TabularMap) -> np.ndarray:
        """Per-state action indices of a tabular policy on this model's grids."""
        pts = np.array([policy(x) for x in self.states])
        return match_indices(pts, self.actions)


def lifted_stage_cost(model: FiniteMFModel, stage: int, mu: DiscreteMeasure,
                      policy: TabularMap) -> float:
    """Expected stage cost of the law ``mu`` under the feedback map ``policy``."""
    if not 0 <= stage < model.horizon:
        raise ValueError(f"stage {stage} out of range [0, {model.horizon})")
    state_idx = match_indices(mu.support, model.states)
    lam = image_measure(mu, policy)
    action_idx = match_indices(np.array([policy(x) for x in mu.support]), model.actions)
    total = 0.0
    for w, i, a in zip(mu.weights, state_idx, action_idx):
        total += w * float(model.stage_cost(stage, int(i), mu, int(a), lam))
    return total


def lifted_terminal_cost(model: FiniteMFModel, mu: DiscreteMeasure) -> float:
    """Expected terminal cost of the law ``mu``."""
    state_idx = match_indices(mu.support, model.states)
    return float(sum(w * model.terminal_cost(int(i), mu)
                     for w, i in zip(mu.weights, state_idx)))


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"ok ({self.checked} sampled tuples)"
        head = "; ".join(v["detail"] for v in self.violations[:5])
        return f"{len(self.violations)} violations in {self.checked} tuples: {head}"


def validate(model: FiniteMFModel, extra_measures=(), max_tuples: int = 512,
             seed: int = 0) -> ValidationReport:
    """Spot-check row-stochasticity and cost finiteness on sampled argument tuples.

    Sampled laws are the Diracs at each grid point, the uniform law, and any
    ``extra_measures``; action laws are the Diracs and the uniform over actions.
    """
    report = ValidationReport()
    S, M, n = model.n_states, model.n_actions, model.horizon
    mus = [DiscreteMeasure.dirac(x) for x in model.states]
    mus.append(DiscreteMeasure.uniform(model.states))
    mus.extend(extra_measures)
    lams = [DiscreteMeasure.dirac(a) for a in model.actions]
    lams.append(DiscreteMeasure.uniform(model.actions))

    combos = list(itertools.product(range(n), range(S), range(M)))
    pairs = list(itertools.product(range(len(mus)), range(len(lams))))
    rng = np.random.default_rng(seed)
    tuples = [(k, i, a, mi, li) for (k, i, a) in combos for (mi, li) in pairs]
    if len(tuples) > max_tuples:
        pick = rng.choice(len(tuples), size=max_tuples, replace=False)
        tuples = [tuples[j] for j in pick]

    for k, i, a, mi, li in tuples:
        mu, lam = mus[mi], lams[li]
        report.checked += 1
        row = np.asarray(model.kernel(k, i, mu, a, lam), dtype=float)
        if row.shape != (S,):
            report.violations.append({
                "kind": "row_shape", "stage": k, "state": i, "action": a,
                "detail": f"stage {k} state {i}: row shape {row.shape}"})
            continue
        if np.any(row < -MASS_TOL):
            report.violations.append({
                "kind": "row_negative", "stage": k, "state": i, "action": a,
                "detail": f"stage {k} state {i}: negative entry {row.min():.3e}"})
        if abs(row.sum() - 1.0) > MASS_TOL:
            report.violations.append({
                "kind": "row_mass", "stage": k, "state": i, "action": a,
                "detail": f"stage {k} state {i}: row mass {row.sum()!r}"})
        c = model.stage_cost(k, i, mu, a, lam)
        if not np.isfinite(c):
            report.violations.append({
                "kind": "cost", "stage": k, "state": i, "action": a,
                "detail": f"stage {k} state {i}: non-finite stage cost"})
    for i in range(S):
        for mi, mu in enumerate(mus):
            report.checked += 1
            g = model.terminal_cost(i, mu)
            if not np.isfinite(g):
                report.violations.append({
                    "kind": "terminal", "stage": n, "state": i, "action": None,
                    "detail": f"terminal state {i}: non-finite cost"})
    return report


# ---------------------------------------------------------------------------
# Batched moments
# ---------------------------------------------------------------------------

def sum_last(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right.

    Every entry is summed in the same order wherever it sits in the batch,
    so (law, map) pairs with equal inputs get bit-equal results and exact
    ties between maps survive.  Over a short last axis this is also several
    times faster than ``a.sum(axis=-1)``.
    """
    total = a[..., 0]
    for j in range(1, a.shape[-1]):
        total = total + a[..., j]
    return total


@dataclass(frozen=True)
class LawBatch:
    """Moments of ``P`` state laws on a model's grid, each under one feedback map.

    The batched form of a tag formula evaluates it at every grid state for
    every law, so its per-state values have shape ``(P, S)``.  To broadcast
    against them the moments keep a singleton state axis, and vector moments
    a trailing coordinate axis.  Terminal batches carry no map: their action
    fields are ``None``.
    """

    state: np.ndarray                    # (1, S) grid index of each column
    action: Optional[np.ndarray]         # (P, S) action index the map picks per state
    mass: np.ndarray                     # (P, 1, S) state-law weights
    mean: np.ndarray                     # (P, 1, d) state-law mean
    second: np.ndarray                   # (P, 1) second moment sum_i w_i |x_i|^2
    variance: np.ndarray                 # (P, 1) trace of the covariance
    action_mass: Optional[np.ndarray]    # (P, 1, M) action-law weights
    action_mean: Optional[np.ndarray]    # (P, 1, q) action-law mean

    @classmethod
    def of(cls, model: FiniteMFModel, weights: np.ndarray,
           action: Optional[np.ndarray] = None) -> "LawBatch":
        """Moments of the laws ``weights`` (P, S) under the maps ``action`` (P, S).

        The action law of each pair is a ``bincount`` of its map's action
        indices weighted by the state law.
        """
        P, S = weights.shape
        mean = sum_last(weights[:, None, :] * model.states.T)
        second = sum_last(weights * sum_last(model.states * model.states))
        action_mass = action_mean = None
        if action is not None:
            M = model.n_actions
            flat = (np.arange(P)[:, None] * M + action).ravel()
            lam = np.bincount(flat, weights=weights.ravel(), minlength=P * M).reshape(P, M)
            action_mass = lam[:, None, :]
            action_mean = sum_last(lam[:, None, :] * model.actions.T)[:, None, :]
        return cls(
            state=np.arange(S)[None, :],
            action=action,
            mass=weights[:, None, :],
            mean=mean[:, None, :],
            second=second[:, None],
            variance=(second - sum_last(mean * mean))[:, None],
            action_mass=action_mass,
            action_mean=action_mean,
        )


# ---------------------------------------------------------------------------
# Declarative kernel / cost families (see README for the formulas)
#
# Each tag writes its formula once, broadcasting over grid indices and law
# moments.  The scalar callable computes the moments from its measure
# arguments; its ``batched`` attribute reads them from a :class:`LawBatch`
# (kernels and stage costs take ``(stage, batch)``, terminal costs take
# ``batch``).  The DPP engine evaluates a component through ``batched`` when
# it has one.
# ---------------------------------------------------------------------------

def _first_coord(v) -> float:
    return float(np.asarray(v, dtype=float).reshape(-1)[0])


def _dot(u, v):
    """Inner product over the trailing (coordinate) axis."""
    return sum_last(u * v)


def _two_state_rows(p):
    """Rows ``[1 - p, p]`` over a two-state grid."""
    return np.stack([1.0 - p, p], axis=-1)


def _kernel_identity(states, actions, params):
    eye = np.eye(len(states))

    def rows(k, i, mu, a, lam):
        return eye[i]
    rows.batched = lambda k, b: eye[b.state]
    return rows


def _kernel_table(states, actions, params, horizon=None):
    table = np.asarray(params["rows"], dtype=float)
    S, M = len(states), len(actions)
    if table.ndim == 3:
        if table.shape != (S, M, S):
            raise ValueError(f"table kernel has shape {table.shape}, expected {(S, M, S)}")

        def formula(k, i, a):
            return table[i, a]
    elif table.ndim == 4:
        if table.shape[1:] != (S, M, S):
            raise ValueError(f"table kernel has shape {table.shape}, expected (n, {S}, {M}, {S})")
        if horizon is not None and table.shape[0] != horizon:
            raise ValueError(f"table kernel has {table.shape[0]} stage blocks, "
                             f"expected exactly {horizon}")

        def formula(k, i, a):
            return table[k, i, a]
    else:
        raise ValueError("table kernel needs a 3- or 4-dimensional 'rows' array")

    def rows(k, i, mu, a, lam):
        return formula(k, i, a)
    rows.batched = lambda k, b: formula(k, b.state, b.action)
    return rows


def _kernel_mean_reverting(states, actions, params):
    theta = float(params.get("theta", 0.5))
    eta = float(params.get("eta", 0.0))
    tau = float(params.get("tau", 1.0))
    if tau <= 0:
        raise ValueError("mean_reverting kernel needs tau > 0")
    grid = np.array([_first_coord(x) for x in states])
    acts = np.array([_first_coord(a) for a in actions])

    def formula(i, a, mbar):
        target = (1.0 - theta) * grid[i] + theta * mbar + eta * acts[a]
        logits = -((grid - target[..., None]) ** 2) / tau
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return w / sum_last(w)[..., None]

    def rows(k, i, mu, a, lam):
        return formula(i, a, _first_coord(mu.mean()))
    rows.batched = lambda k, b: formula(b.state, b.action, b.mean[..., 0])
    return rows


def _kernel_mean_clamp(states, actions, params):
    if len(states) != 2:
        raise ValueError("mean_clamp kernel needs exactly 2 states")
    shift = float(params.get("shift", 0.0))
    acts = np.array([_first_coord(a) for a in actions])

    def formula(a, mbar):
        return _two_state_rows(np.clip(mbar + shift * acts[a], 0.0, 1.0))

    def rows(k, i, mu, a, lam):
        return formula(a, _first_coord(mu.mean()))
    rows.batched = lambda k, b: formula(b.action, b.mean[..., 0])
    return rows


def _check_first_order_betas(betas):
    b0, bx, by, ba, bb = betas
    margin = 1e-6
    for ix, iy, ia, ib in itertools.product((0, 1), repeat=4):
        p = b0 + bx * ix + by * iy + ba * ia + bb * ib
        if not margin < p < 1.0 - margin:
            raise ValueError(
                f"first_order kernel leaves (0,1): p={p!r} at indicators {(ix, iy, ia, ib)}")


def _kernel_first_order(states, actions, params):
    if len(states) != 2 or len(actions) != 2:
        raise ValueError("first_order kernel needs 2 states and 2 actions")
    betas = tuple(float(params.get(k, 0.0))
                  for k in ("beta0", "beta_x", "beta_y", "beta_a", "beta_b"))
    _check_first_order_betas(betas)
    b0, bx, by, ba, bb = betas
    second_state = states[1]
    second_action = actions[1]

    def formula(i, a, mass_y, mass_b):
        # mass_y, mass_b: weights of the second state / action under mu, lam
        return _two_state_rows(b0 + bx * (i == 1) + ba * (a == 1) + by * mass_y + bb * mass_b)

    def rows(k, i, mu, a, lam):
        return formula(i, a, mu.mass_at(second_state), lam.mass_at(second_action))
    rows.batched = lambda k, b: formula(b.state, b.action, b.mass[..., 1],
                                        b.action_mass[..., 1])

    def ptilde(k, ix, iy, ia, ib):
        p = b0 + bx * (ix == 1) + by * (iy == 1) + ba * (ia == 1) + bb * (ib == 1)
        return np.array([1.0 - p, p])

    return rows, ptilde


_KERNEL_TAGS = {
    "identity": _kernel_identity,
    "table": _kernel_table,
    "mean_reverting": _kernel_mean_reverting,
    "mean_clamp": _kernel_mean_clamp,
}


def _cost_zero(states, actions, params):
    def f(k, i, mu, a, lam):
        return 0.0
    f.batched = lambda k, b: 0.0
    return f


def _terminal_zero():
    def g(i, mu):
        return 0.0
    g.batched = lambda b: 0.0
    return g


def _cost_quadratic(states, actions, params):
    qx = float(params.get("qx", 0.0))
    qm = float(params.get("qm", 0.0))
    qv = float(params.get("qv", 0.0))
    cxm = float(params.get("cxm", 0.0))
    lx = float(params.get("lx", 0.0))
    ra = float(params.get("ra", 0.0))
    rm = float(params.get("rm", 0.0))
    cam = float(params.get("cam", 0.0))
    la = float(params.get("la", 0.0))
    states = _as_points(states)
    actions = _as_points(actions)
    eye_s = np.eye(states.shape[1])

    def formula(x, act, mbar, var, lbar):
        return (qx * _dot(x, x) + qm * _dot(mbar, mbar) + qv * var
                + cxm * _dot(x, mbar) + lx * sum_last(x)
                + ra * _dot(act, act) + rm * _dot(lbar, lbar)
                + cam * _dot(act, lbar) + la * sum_last(act))

    def f(k, i, mu, a, lam):
        return float(formula(states[i], actions[a], mu.mean(), mu.variance_form(eye_s),
                             lam.mean()))
    f.batched = lambda k, b: formula(states[b.state], actions[b.action], b.mean,
                                     b.variance, b.action_mean)
    return f


def _terminal_quadratic(states, params):
    qx = float(params.get("qx", 0.0))
    qm = float(params.get("qm", 0.0))
    qv = float(params.get("qv", 0.0))
    cxm = float(params.get("cxm", 0.0))
    lx = float(params.get("lx", 0.0))
    states = _as_points(states)
    eye_s = np.eye(states.shape[1])

    def formula(x, mbar, var):
        return (qx * _dot(x, x) + qm * _dot(mbar, mbar) + qv * var
                + cxm * _dot(x, mbar) + lx * sum_last(x))

    def g(i, mu):
        return float(formula(states[i], mu.mean(), mu.variance_form(eye_s)))
    g.batched = lambda b: formula(states[b.state], b.mean, b.variance)
    return g


def _cost_fo_pinned(states, actions, params):
    kappa = float(params["kappa"])
    pinned = np.asarray(params["pinned"], dtype=int)
    p_xy = float(params.get("p_xy", 0.0))
    p_a = float(params.get("p_a", 0.0))
    p_ay = float(params.get("p_ay", 0.0))
    p_x = float(params.get("p_x", 0.0))
    xs = np.array([_first_coord(x) for x in states])
    acts = np.array([_first_coord(a) for a in actions])
    if pinned.shape != (len(states),):
        raise ValueError("fo_pinned needs one pinned action index per state")

    def formula(i, a, mbar):
        return (kappa * (acts[a] - acts[pinned[i]]) ** 2
                + p_xy * xs[i] * mbar + p_a * acts[a] + p_ay * acts[a] * mbar + p_x * xs[i])

    def f(k, i, mu, a, lam):
        return float(formula(i, a, _first_coord(mu.mean())))
    f.batched = lambda k, b: formula(b.state, b.action, b.mean[..., 0])

    def ftilde(k, ix, iy, ia, ib):
        return (kappa * (acts[ia] - acts[pinned[ix]]) ** 2
                + p_xy * xs[ix] * xs[iy] + p_a * acts[ia]
                + p_ay * acts[ia] * xs[iy] + p_x * xs[ix])
    return f, ftilde


def _terminal_fo_bilinear(states, params):
    t_xy = float(params.get("t_xy", 0.0))
    t_xx = float(params.get("t_xx", 0.0))
    t_yy = float(params.get("t_yy", 0.0))
    t_x = float(params.get("t_x", 0.0))
    xs = np.array([_first_coord(x) for x in states])
    eye_s = np.eye(_as_points(states).shape[1])

    def formula(i, mbar, m2):
        return t_xy * xs[i] * mbar + t_xx * xs[i] ** 2 + t_yy * m2 + t_x * xs[i]

    def g(i, mu):
        return float(formula(i, _first_coord(mu.mean()), mu.quadratic_moment(eye_s)))
    g.batched = lambda b: formula(b.state, b.mean[..., 0], b.second)

    def gtilde(ix, iy):
        return t_xy * xs[ix] * xs[iy] + t_xx * xs[ix] ** 2 + t_yy * xs[iy] ** 2 + t_x * xs[ix]
    return g, gtilde


def finite_model_from_config(config) -> FiniteMFModel:
    """Build a :class:`FiniteMFModel` from its declarative JSON description.

    See the README for the recognized kernel and cost tags and their formulas.
    """
    if isinstance(config, str):
        config = json.loads(config)
    states = _as_points(config["states"])
    actions = _as_points(config["actions"])
    horizon = int(config["horizon"])
    ktag = config["kernel"]["tag"]
    kparams = config["kernel"].get("params", {})
    ctag = config["stage_cost"]["tag"]
    cparams = config["stage_cost"].get("params", {})
    ttag = config["terminal_cost"]["tag"]
    tparams = config["terminal_cost"].get("params", {})

    first_order = None
    if ktag == "first_order":
        rows, ptilde = _kernel_first_order(states, actions, kparams)
        if ctag == "zero":
            f = _cost_zero(states, actions, cparams)
            ftilde = lambda k, ix, iy, ia, ib: 0.0
        elif ctag == "fo_pinned":
            f, ftilde = _cost_fo_pinned(states, actions, cparams)
        else:
            raise ValueError(f"first_order kernel needs a pairwise stage cost, got tag {ctag!r}")
        if ttag != "fo_bilinear":
            raise ValueError(f"first_order kernel needs terminal tag 'fo_bilinear', got {ttag!r}")
        g, gtilde = _terminal_fo_bilinear(states, tparams)
        first_order = FirstOrderSpec(ptilde=ptilde, ftilde=ftilde, gtilde=gtilde)
    else:
        if ktag not in _KERNEL_TAGS:
            raise ValueError(f"unknown kernel tag {ktag!r}")
        if ktag == "table":
            rows = _kernel_table(states, actions, kparams, horizon=horizon)
        else:
            rows = _KERNEL_TAGS[ktag](states, actions, kparams)
        if ctag == "zero":
            f = _cost_zero(states, actions, cparams)
        elif ctag == "quadratic":
            f = _cost_quadratic(states, actions, cparams)
        else:
            raise ValueError(f"unknown stage cost tag {ctag!r}")
        if ttag == "zero":
            g = _terminal_zero()
        elif ttag == "quadratic":
            g = _terminal_quadratic(states, tparams)
        else:
            raise ValueError(f"unknown terminal cost tag {ttag!r}")

    return FiniteMFModel(
        states=states,
        actions=actions,
        horizon=horizon,
        kernel=rows,
        stage_cost=f,
        terminal_cost=g,
        mean_field_free=bool(config.get("mean_field_free", False)),
        first_order=first_order,
        config=config,
    )
