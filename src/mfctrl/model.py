"""Finite-state, finite-action mean-field control models.

A :class:`FiniteMFModel` bundles the state grid, the action set, the horizon,
a measure-dependent transition kernel and the stage/terminal costs.  Kernels
and costs are callables over grid indices plus measure arguments: the measure
dependence makes full tabulation impossible in general.

The module also provides the lifted costs (expected stage/terminal cost as a
functional of the law and the feedback map), a sampling validator, and a JSON
config loader with a small set of documented kernel/cost families.  Each
family writes its formula once, over a :class:`LawBatch` of moments for many
(law, feedback map) pairs at once; the loader wraps it into the scalar
callable, which evaluates it at one cell and carries it as its ``batched``
form.  :func:`evaluate` evaluates a model's components on laws given as
weight vectors, through ``batched`` when present; the DPP engine, the finite
particle pass and :func:`validate` all go through it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .measure import (
    MASS_TOL,
    MERGE_TOL,
    WEIGHT_FLOOR,
    DiscreteMeasure,
    TabularMap,
    _as_points,
    _feedback,
    _numbers,
    as_integer,
    match_indices,
    short_repr,
)

KernelFn = Callable[[int, int, DiscreteMeasure, int, DiscreteMeasure], np.ndarray]
StageCostFn = Callable[[int, int, DiscreteMeasure, int, DiscreteMeasure], float]
TerminalCostFn = Callable[[int, DiscreteMeasure], float]

VALIDATE_TUPLES = 512   # stage tuples :func:`validate` checks at most
VALIDATE_SEED = 0       # seed of its draw when there are more


def _check_grid(name: str, grid: np.ndarray) -> None:
    if grid.size == 0:
        raise ValueError(f"{name} grid is empty or its points have no coordinates")
    if not np.isfinite(grid).all():
        raise ValueError(f"{name} grid has non-finite entries")


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
        the pair axis ``P`` may be several axes, any of them 1, and a cost
        may be one constant (see :func:`evaluate` for ``action_law_free``
        and :func:`validate` for ``stage_free``).
    mean_field_free : bool
        Declares that kernel and costs ignore the measure arguments.
    first_order : bool
        Declares first-order interactions: kernel and costs are their values
        at Dirac laws ``(delta_y, delta_b)``, the pairwise forms, integrated
        over ``y ~ mu`` and ``b ~ lam``.
    """

    states: np.ndarray
    actions: np.ndarray
    horizon: int
    kernel: KernelFn
    stage_cost: StageCostFn
    terminal_cost: TerminalCostFn
    mean_field_free: bool = False
    first_order: bool = False

    def __post_init__(self):
        object.__setattr__(self, "states", _as_points(self.states))
        object.__setattr__(self, "actions", _as_points(self.actions))
        self.states.setflags(write=False)
        self.actions.setflags(write=False)
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        # a law is a weight vector over the grid, one entry per point
        for name, grid in (("states", self.states), ("actions", self.actions)):
            _check_grid(name, grid)
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

    def tabular_policy(self, action_indices: Sequence[int]) -> TabularMap:
        """Feedback map over the full state grid from per-state action indices."""
        idx = np.asarray(action_indices, dtype=int)
        if idx.shape != (self.n_states,):
            raise ValueError(f"need one action index per state, got shape {idx.shape}")
        return TabularMap(self.states, self.actions[idx])

    def policy_action_indices(self, policy: TabularMap) -> np.ndarray:
        """Per-state action indices of a tabular policy on this model's grids."""
        return match_indices(policy.at(self.states), self.actions)


def lifted_stage_cost(model: FiniteMFModel, stage: int, mu: DiscreteMeasure,
                      policy: TabularMap) -> float:
    """Expected stage cost of the law ``mu`` under the feedback map ``policy``."""
    if not 0 <= stage < model.horizon:
        raise ValueError(f"stage {stage} out of range [0, {model.horizon})")
    state_idx, lam, action_idx = _feedback(mu, policy, model)
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


def validate(model: FiniteMFModel, extra_measures=()) -> ValidationReport:
    """Spot-check row-stochasticity and cost finiteness on sampled argument tuples.

    Sampled laws are the Diracs at each grid point, the uniform law, and any
    ``extra_measures`` (which must live on the state grid); action laws are
    the Diracs and the uniform over actions.  A draw of ``VALIDATE_TUPLES``
    tuple numbers seeded by ``VALIDATE_SEED`` (C order over stage, state,
    action, law and action law) is decoded by index arithmetic.  The drawn
    tuples of one (stage, law, action law, action) are the cells of one pair,
    and each stage's pairs are evaluated in one :func:`evaluate` call.  When
    the ``batched`` forms of both the kernel and the stage cost declare
    ``stage_free`` (they read no stage), every drawn stage is read at stage 0,
    so the model is evaluated once at stage 0 and once at the terminal stage.
    """
    S, M, n = model.n_states, model.n_actions, model.horizon
    laws = np.vstack([np.eye(S), np.full(S, 1.0 / S)]
                     + [mu.weights_on_grid(model.states) for mu in extra_measures])
    action_laws = np.vstack([np.eye(M), np.full(M, 1.0 / M)])
    shape = (n, S, M, len(laws), len(action_laws))
    total = math.prod(shape)
    pick = (np.random.default_rng(VALIDATE_SEED).choice(total, VALIDATE_TUPLES, replace=False)
            if total > VALIDATE_TUPLES else np.arange(total))
    stage, i, a, mi, li = np.unravel_index(pick, shape)
    report = ValidationReport(checked=len(pick))

    def violation(kind, k, i, a, detail):
        report.violations.append({"kind": kind, "stage": k, "state": i, "action": a,
                                  "detail": detail})

    stage_free = all(getattr(getattr(part, "batched", None), "stage_free", False)
                     for part in (model.kernel, model.stage_cost))
    read = np.zeros_like(stage) if stage_free else stage     # the stage each tuple is read at
    # tuple j is the cell (pair[j], i[j]); pairs are numbered in C order over
    # (stage read, law, action law, action), so each stage's pairs are a run
    pair_shape = (n, len(laws), len(action_laws), M)
    keys, pair = np.unique(np.ravel_multi_index((read, mi, li, a), pair_shape),
                           return_inverse=True)
    pk, pm, pl, pa = np.unravel_index(keys, pair_shape)
    starts = [0, *(np.flatnonzero(pk[1:] != pk[:-1]) + 1).tolist(), len(keys)]
    evals, slot = {}, np.empty(len(pick), dtype=int)   # tuple j is pair slot[j] of its stage read
    flags = np.zeros((3, len(pick)), dtype=bool)       # negative entry, mass, cost
    for lo, hi in zip(starts, starts[1:]):
        k = int(pk[lo])
        at = np.flatnonzero(read == k)
        p = slot[at] = pair[at] - lo
        cells = np.zeros((hi - lo, S), dtype=bool)
        cells[p, i[at]] = True
        ev = evals[k] = evaluate(model, k, laws[pm[lo:hi]], cells,
                                 np.repeat(pa[lo:hi, None], S, axis=1), action_laws[pl[lo:hi]])
        flags[:, at] = [bad[p, i[at]] for bad in (*ev.bad, ~np.isfinite(ev.costs))]
    # a misshapen row is evaluated as zeros, so it is among the tuples flagged
    for j in np.flatnonzero(flags.any(axis=0)).tolist():
        k, p, ij, aj = int(stage[j]), int(slot[j]), int(i[j]), int(a[j])
        ev, where = evals[int(read[j])], f"stage {k} state {ij}"
        if (p, ij) in ev.shapes:
            violation("row_shape", k, ij, aj, f"{where}: row shape {ev.shapes[p, ij]}")
            continue
        negative, off_mass, cost = flags[:, j]
        if negative:
            violation("row_negative", k, ij, aj, f"{where}: negative entry {ev.low[p, ij]:.3e}")
        if off_mass:
            violation("row_mass", k, ij, aj, f"{where}: row mass {float(ev.mass[p, ij])!r}")
        if cost:
            violation("cost", k, ij, aj, f"{where}: non-finite stage cost")

    terminal = evaluate(model, n, laws, np.ones(laws.shape, bool)).costs
    report.checked += terminal.size
    for i, _ in np.argwhere(~np.isfinite(terminal.T)).tolist():
        violation("terminal", n, i, None, f"terminal state {i}: non-finite cost")
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


def fold_last(op, a: np.ndarray) -> np.ndarray:
    """``op`` folded over the last axis, left to right, as :func:`sum_last` adds.
    With ``np.minimum`` or ``np.maximum`` this is ``a.min(-1)`` or ``a.max(-1)``
    bit for bit, but for the sign of a zero where ``0.0`` and ``-0.0`` tie."""
    total = a[..., 0]
    for j in range(1, a.shape[-1]):
        total = op(total, a[..., j])
    return total


@dataclass(frozen=True)
class LawBatch:
    """Moments of ``P`` state laws on a model's grid, each under one feedback map.

    The batched form of a tag formula evaluates it at every grid state for
    every law, so its per-state values have shape ``(P, S)``.  To broadcast
    against them the moments keep a singleton state axis, and vector moments
    a trailing coordinate axis.  Terminal batches carry no map: their action
    fields are ``None``.

    The pair axis ``P`` may be several: on a grid of ``L`` laws under ``N``
    maps (see :func:`evaluate`) it is ``(L, N)``, the moments have the law
    axis only, ``(L, 1, ...)``, and ``action`` the map axis only, ``(N, S)``.
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
    def of(cls, model: FiniteMFModel, weights: np.ndarray, action: Optional[np.ndarray] = None,
           action_law: Optional[np.ndarray] = None) -> "LawBatch":
        """Moments of the laws ``weights`` (P, S) under the maps ``action`` (P, S).

        Laws ``(L, 1, S)`` under maps ``(N, S)`` are the grid of every law
        under every map.  The action law of each pair is ``action_law``
        (P, M) when given, else a ``bincount`` of its map's action indices
        weighted by the state law.
        """
        S = weights.shape[-1]
        mean = sum_last(weights[..., None, :] * model.states.T)
        second = sum_last(weights * sum_last(model.states * model.states))
        if action_law is None and action is not None:
            M = model.n_actions
            # on a grid (L, 1, S) x (N, S), the weights of every pair
            w = weights if weights.ndim == 2 else weights.repeat(len(action), axis=-2)
            pairs = w.shape[:-1]
            P = w.size // S
            flat = (np.arange(P).reshape(pairs + (1,)) * M + action).ravel()
            action_law = np.bincount(flat, weights=w.ravel(), minlength=P * M).reshape(pairs + (M,))
        lam = None if action_law is None else action_law[..., None, :]
        return cls(
            state=np.arange(S)[None, :],
            action=action,
            mass=weights[..., None, :],
            mean=mean[..., None, :],
            second=second[..., None],
            variance=(second - sum_last(mean * mean))[..., None],
            action_mass=lam,
            action_mean=None if lam is None else sum_last(lam * model.actions.T)[..., None, :],
        )


# ---------------------------------------------------------------------------
# Evaluation on weight vectors
#
# The one place that decides how a model's components meet laws given as
# weight vectors: through a component's ``batched`` form when it has one,
# otherwise by calling the plain callable at each evaluated cell with
# ``DiscreteMeasure`` arguments.  ``dpp.solve``, the finite particle pass and
# ``validate`` all evaluate here.
# ---------------------------------------------------------------------------

def _canonical(weights: np.ndarray) -> np.ndarray:
    """Normalize rows, zero entries below ``WEIGHT_FLOOR``, renormalize.

    This is what :class:`DiscreteMeasure` does to the weights a pushforward
    hands it, so keys and tree sizes match the measure representation.
    """
    weights = weights / sum_last(weights)[:, None]
    weights[weights < WEIGHT_FLOOR] = 0.0
    return weights / sum_last(weights)[:, None]


def _from_batched(values, shape, what):
    """The values of a ``batched`` form, broadcast to ``shape = (*pairs, S, ...)``.

    The values keep the state axes and at least one pair axis; a pair axis
    may be a singleton, or missing in front, for values equal along it.  A
    cost may be one constant.  Any other shape is an error.
    """
    values = np.asarray(values, dtype=float)
    if values.shape == shape:
        return values
    tail = 2 if what == "kernel" else 1     # the state axes
    if (values.ndim or what == "kernel") and (
            not tail < values.ndim <= len(shape) or values.shape[-tail:] != shape[-tail:]
            or not all(v in (1, s) for v, s in zip(values.shape[-tail - 1::-1],
                                                   shape[-tail - 1::-1]))):
        raise ValueError(f"batched {what} has shape {values.shape}, expected {shape}")
    return np.broadcast_to(values, shape)


def _cells(cells, shape):
    """The index tuples of the cells marked in ``cells`` broadcast to ``shape``, in C order."""
    return map(tuple, np.argwhere(np.broadcast_to(cells, shape)).tolist())


def _costs(component, batched_args, scalar_args, cells, shape, what):
    """A cost component at every cell, shape ``(P, S)``; zero elsewhere."""
    batched = getattr(component, "batched", None)
    if batched is not None:
        return np.where(cells, _from_batched(batched(*batched_args), shape, what), 0.0)
    costs = np.zeros(shape)
    for c in _cells(cells, shape):
        costs[c] = float(component(*scalar_args(c)))
    return costs


@dataclass
class Evaluation:
    """A model's components on the (pair, state) cells of a batch of laws.

    ``costs`` has the shape of the cells, ``(P, S)`` or ``(L, N, S)`` on a
    grid, and holds zeros off the evaluated ones.  ``rows`` holds one kernel
    row per cell, unless ``at`` numbers the row of each cell among ``rows``
    taken flat: then it holds each distinct row once.  ``low``, ``mass`` and
    ``weights`` have one entry per row.  A row off the evaluated cells is
    zeros, with mass 1.  At the terminal stage there are no kernel rows:
    ``rows``, ``low`` and ``mass`` are ``None``.
    """

    stage: int
    costs: np.ndarray                     # stage or terminal cost
    rows: Optional[np.ndarray] = None     # kernel rows, entries below 0 clipped to 0
    low: Optional[np.ndarray] = None      # smallest entry of each row as returned
    mass: Optional[np.ndarray] = None     # entry sum of each row as returned
    shapes: dict = field(default_factory=dict)   # cell -> shape of a misshapen row
    weights: Optional[np.ndarray] = None  # the state-law weight of the state of each row
    at: Optional[np.ndarray] = None       # the row number of each cell, or None

    @property
    def bad(self):
        """The row check per row: (an entry below ``-MASS_TOL``, mass off 1 by more
        than ``MASS_TOL``).  A misshapen row is evaluated as zeros, so fails the mass."""
        return self.low < -MASS_TOL, ~(np.abs(self.mass - 1.0) <= MASS_TOL)

    def checked(self) -> "Evaluation":
        """This evaluation; raises ``ValueError`` naming the first cell, in pair
        order, whose row is bad."""
        bad = np.logical_or(*self.bad) if self.rows is not None else np.zeros(0, bool)
        if bad.any():
            if self.at is not None:
                bad = np.take(bad.ravel(), self.at)
            cells = np.argwhere(bad.reshape(-1, bad.shape[-1]))
            if len(cells):
                raise ValueError(f"kernel row is not a probability vector at stage "
                                 f"{self.stage}, state index {int(cells[0][1])}")
        return self

    def push(self) -> np.ndarray:
        """Canonical next laws ``(P, S)`` of the evaluated pairs, the pair axes flattened.

        As in :func:`~mfctrl.measure.pushforward`, the next weights accumulate
        state by state.
        """
        moved = self.weights[..., None] * self.rows
        S = moved.shape[-1]
        if self.at is not None:
            moved = np.take(moved.reshape(-1, S), self.at, axis=0)
        total = moved[..., 0, :]
        for i in range(1, S):
            total = total + moved[..., i, :]
        return _canonical(total.reshape(-1, S))


def evaluate(model: FiniteMFModel, stage: int, weights: np.ndarray, cells: np.ndarray,
             action: Optional[np.ndarray] = None,
             action_law: Optional[np.ndarray] = None) -> Evaluation:
    """Kernel rows and stage costs at ``cells``, or terminal costs at ``stage == horizon``.

    Pair ``p`` is the state law ``weights[p]`` (a weight vector over the grid)
    under the action indices ``action[p]`` (one per state).  Its action law
    is the image of the state law under them, unless ``action_law[p]``
    (weights over the actions) gives it.  ``cells`` (P, S) marks the states
    evaluated for each pair.  A component with a ``batched`` form is
    evaluated once for all pairs; a plain callable is called at each cell,
    with each distinct law built once as a ``DiscreteMeasure``.  Every
    evaluated kernel row is checked (see :attr:`Evaluation.bad`).

    Laws ``weights`` and ``cells`` of shape ``(L, 1, S)`` under maps
    ``action`` of shape ``(N, S)`` are the grid of every law under every
    map, pair axes ``(L, N)``.  On such a grid a kernel whose ``batched``
    form is declared ``action_law_free`` (it reads no action law) is
    evaluated once per (law, state, action), as rows ``(L, S, M, S)``; each
    pair takes at state ``i`` the row of its action there.
    """
    batch = LawBatch.of(model, weights, action, action_law)
    grid = weights.ndim == 3
    shape = (len(weights), len(action), weights.shape[-1]) if grid else cells.shape
    built = {}

    def measure(points, w):
        key = (points is model.states, w.tobytes())
        if key not in built:
            built[key] = DiscreteMeasure(points, w)
        return built[key]

    def law(pair):
        return measure(model.states, np.broadcast_to(weights, shape)[pair])

    if stage == model.horizon:
        return Evaluation(stage, _costs(model.terminal_cost, (batch,),
                                        lambda c: (c[-1], law(c[:-1])),
                                        cells, shape, "terminal cost"))

    def args(c):
        return (stage, c[-1], law(c[:-1]), int(np.broadcast_to(batch.action, shape)[c]),
                measure(model.actions, batch.action_mass[c[:-1]][0]))

    S, M = model.n_states, model.n_actions
    shapes, row_weights, row_cells, at = {}, weights, cells, None
    batched = getattr(model.kernel, "batched", None)
    if grid and getattr(batched, "action_law_free", False):
        L = len(weights)     # the laws' moments on the (law, state, action) cells
        rows = batched(stage, LawBatch(np.arange(S)[None, :, None], np.arange(M), batch.mass,
                                       batch.mean, batch.second, batch.variance, None, None))
        if rows.shape != (L, S, M, S):
            rows = np.broadcast_to(rows, (L, S, M, S))
        row_weights, row_cells = weights.reshape(L, S, 1), cells.reshape(L, S, 1)
        at = np.arange(0, L * S * M, S * M)[:, None, None] + (action + np.arange(0, S * M, M))
    elif batched is not None:
        rows = _from_batched(batched(stage, batch), shape + (S,), "kernel")
    else:
        rows = np.zeros(shape + (S,))
        for c in _cells(cells, shape):
            row = np.asarray(model.kernel(*args(c)), dtype=float)
            if row.shape == (S,):
                rows[c] = row
            else:
                shapes[c] = row.shape
    if batched is not None and not row_cells.all():
        rows = np.where(row_cells[..., None], rows, 0.0)
    low, mass = fold_last(np.minimum, rows), np.where(row_cells, rows.sum(axis=-1), 1.0)
    if (low < 0.0).any():
        rows = np.maximum(rows, 0.0)
    return Evaluation(stage, _costs(model.stage_cost, (stage, batch), args, cells, shape,
                                    "stage cost"),
                      rows, low, mass, shapes, row_weights, at)


# ---------------------------------------------------------------------------
# Declarative kernel / cost families (see README for the formulas)
#
# Each tag writes its formula once, broadcasting over grid indices and law
# moments read from a :class:`LawBatch`: kernels and stage costs take
# ``(stage, batch)``, terminal costs take ``batch``.  A builder takes
# ``(states, actions, horizon, params)``, the grids as float arrays, and
# returns the formula, which becomes the component's ``batched`` form.  A
# kernel formula that reads no action law declares ``action_law_free``, and
# is then evaluated once per (law, state, action); a kernel or stage cost
# formula that reads no stage (all but a 4-D ``table``) declares
# ``stage_free``, and :func:`validate` reads such a model at stage 0 only.
# The loader wraps each formula into the scalar callable, which evaluates it
# at one :class:`_Cell`.
# ---------------------------------------------------------------------------

class _Cell:
    """One cell of a scalar call, with the fields of a :class:`LawBatch`.

    ``state`` and ``action`` are grid indices.  Each moment is computed from
    the cell's :class:`DiscreteMeasure` laws, the state law ``mu`` and the
    action law ``lam``, when the formula reads it.
    """

    def __init__(self, states, actions, state, mu, action=None, lam=None):
        self.state, self.action = state, action
        self._grids, self._mu, self._lam = (states, actions), mu, lam

    mean = property(lambda self: self._mu.mean())
    second = property(lambda self: self._mu.quadratic_moment(np.eye(self._grids[0].shape[1])))
    variance = property(lambda self: self._mu.variance_form(np.eye(self._grids[0].shape[1])))
    mass = property(lambda self: np.array([self._mu.mass_at(x) for x in self._grids[0]]))
    action_mass = property(lambda self: np.array([self._lam.mass_at(b) for b in self._grids[1]]))
    action_mean = property(lambda self: self._lam.mean())


def _scalar_callables(states, actions, rows, f, g):
    """The kernel, stage cost and terminal cost of the formulas ``rows``, ``f``
    and ``g``: each evaluates its formula at one cell, and carries it as its
    ``batched`` form."""
    def kernel(k, i, mu, a, lam):
        return rows(k, _Cell(states, actions, i, mu, a, lam))

    def stage_cost(k, i, mu, a, lam):
        return float(f(k, _Cell(states, actions, i, mu, a, lam)))

    def terminal_cost(i, mu):
        return float(g(_Cell(states, actions, i, mu)))

    kernel.batched, stage_cost.batched, terminal_cost.batched = rows, f, g
    return kernel, stage_cost, terminal_cost


def _declared(formula, action_law_free=False, stage_free=False):
    """``formula`` with its declarations set."""
    formula.action_law_free, formula.stage_free = action_law_free, stage_free
    return formula


def _dot(u, v):
    """Inner product over the trailing (coordinate) axis."""
    return sum_last(u * v)


def _two_state_rows(p):
    """Rows ``[1 - p, p]`` over a two-state grid."""
    return np.stack([1.0 - p, p], axis=-1)


def _kernel_identity(states, actions, horizon, params):
    eye = np.eye(len(states))
    return _declared(lambda k, b: eye[b.state], action_law_free=True, stage_free=True)


def _kernel_table(states, actions, horizon, params):
    table = np.asarray(params["rows"], dtype=float)
    S, M = len(states), len(actions)
    stationary = table.ndim == 3
    if stationary:
        if table.shape != (S, M, S):
            raise ValueError(f"table kernel has shape {table.shape}, expected {(S, M, S)}")
        table = np.broadcast_to(table, (horizon,) + table.shape)   # the same rows at every stage
    elif table.ndim == 4:
        if table.shape[1:] != (S, M, S):
            raise ValueError(f"table kernel has shape {table.shape}, expected (n, {S}, {M}, {S})")
        if table.shape[0] != horizon:
            raise ValueError(f"table kernel has {table.shape[0]} stage blocks, "
                             f"expected exactly {horizon}")
    else:
        raise ValueError("table kernel needs a 3- or 4-dimensional 'rows' array")
    return _declared(lambda k, b: table[k, b.state, b.action], action_law_free=True,
                     stage_free=stationary)


def _kernel_mean_reverting(states, actions, horizon, params):
    theta = float(params.get("theta", 0.5))
    eta = float(params.get("eta", 0.0))
    tau = float(params.get("tau", 1.0))
    if tau <= 0:
        raise ValueError("mean_reverting kernel needs tau > 0")
    grid = states[:, 0]
    acts = actions[:, 0]

    def rows(k, b):
        target = (1.0 - theta) * grid[b.state] + theta * b.mean[..., 0] + eta * acts[b.action]
        logits = -((grid - target[..., None]) ** 2) / tau
        w = np.exp(logits - fold_last(np.maximum, logits)[..., None])
        return w / sum_last(w)[..., None]
    return _declared(rows, action_law_free=True, stage_free=True)


def _kernel_mean_clamp(states, actions, horizon, params):
    if len(states) != 2:
        raise ValueError("mean_clamp kernel needs exactly 2 states")
    shift = float(params.get("shift", 0.0))
    acts = actions[:, 0]

    def rows(k, b):
        return _two_state_rows(np.clip(b.mean[..., 0] + shift * acts[b.action], 0.0, 1.0))
    return _declared(rows, action_law_free=True, stage_free=True)


def _check_first_order_betas(betas):
    b0, bx, by, ba, bb = betas
    margin = 1e-6
    for ix, iy, ia, ib in itertools.product((0, 1), repeat=4):
        p = b0 + bx * ix + by * iy + ba * ia + bb * ib
        if not margin < p < 1.0 - margin:
            raise ValueError(
                f"first_order kernel leaves (0,1): p={p!r} at indicators {(ix, iy, ia, ib)}")


def _kernel_first_order(states, actions, horizon, params):
    if len(states) != 2 or len(actions) != 2:
        raise ValueError("first_order kernel needs 2 states and 2 actions")
    betas = tuple(float(params.get(k, 0.0))
                  for k in ("beta0", "beta_x", "beta_y", "beta_a", "beta_b"))
    _check_first_order_betas(betas)
    b0, bx, by, ba, bb = betas

    def rows(k, b):
        # the masses are the weights of the second state and action under mu and lam
        return _two_state_rows(b0 + bx * (b.state == 1) + ba * (b.action == 1)
                               + by * b.mass[..., 1] + bb * b.action_mass[..., 1])
    return _declared(rows, stage_free=True)


def _zero(states, actions, horizon, params):
    return _declared(lambda *args: 0.0, stage_free=True)


def _quadratic_state_terms(params):
    """The state terms of both ``quadratic`` costs, a formula of ``(x, mbar, var)``."""
    qx, qm, qv, cxm, lx = (float(params.get(k, 0.0)) for k in ("qx", "qm", "qv", "cxm", "lx"))

    def terms(x, mbar, var):
        return (qx * _dot(x, x) + qm * _dot(mbar, mbar) + qv * var
                + cxm * _dot(x, mbar) + lx * sum_last(x))
    return terms


def _cost_quadratic(states, actions, horizon, params):
    state_terms = _quadratic_state_terms(params)
    ra, rm, cam, la = (float(params.get(k, 0.0)) for k in ("ra", "rm", "cam", "la"))

    def f(k, b):
        act, lbar = actions[b.action], b.action_mean
        return (state_terms(states[b.state], b.mean, b.variance) + ra * _dot(act, act)
                + rm * _dot(lbar, lbar) + cam * _dot(act, lbar) + la * sum_last(act))
    return _declared(f, stage_free=True)


def _terminal_quadratic(states, actions, horizon, params):
    state_terms = _quadratic_state_terms(params)
    return lambda b: state_terms(states[b.state], b.mean, b.variance)


def _cost_fo_pinned(states, actions, horizon, params):
    kappa = float(params["kappa"])
    pinned = np.asarray(params["pinned"], dtype=int)
    p_xy = float(params.get("p_xy", 0.0))
    p_a = float(params.get("p_a", 0.0))
    p_ay = float(params.get("p_ay", 0.0))
    p_x = float(params.get("p_x", 0.0))
    xs = states[:, 0]
    acts = actions[:, 0]
    if pinned.shape != (len(states),):
        raise ValueError("fo_pinned needs one pinned action index per state")

    def f(k, b):
        i, a, mbar = b.state, b.action, b.mean[..., 0]
        return (kappa * (acts[a] - acts[pinned[i]]) ** 2
                + p_xy * xs[i] * mbar + p_a * acts[a] + p_ay * acts[a] * mbar + p_x * xs[i])
    return _declared(f, stage_free=True)


def _terminal_fo_bilinear(states, actions, horizon, params):
    t_xy = float(params.get("t_xy", 0.0))
    t_xx = float(params.get("t_xx", 0.0))
    t_yy = float(params.get("t_yy", 0.0))
    t_x = float(params.get("t_x", 0.0))
    xs = states[:, 0]

    def g(b):
        x = xs[b.state]
        return t_xy * x * b.mean[..., 0] + t_xx * x ** 2 + t_yy * b.second + t_x * x
    return g


# One table per component kind: tag -> builder, with, for a cost, the kernels
# it serves (True: ``first_order``, the one first-order kernel).
_KERNELS = {
    "identity": _kernel_identity,
    "table": _kernel_table,
    "mean_reverting": _kernel_mean_reverting,
    "mean_clamp": _kernel_mean_clamp,
    "first_order": _kernel_first_order,
}
_STAGE_COSTS = {
    "zero": (_zero, (False, True)),
    "quadratic": (_cost_quadratic, (False,)),
    "fo_pinned": (_cost_fo_pinned, (True,)),
}
_TERMINAL_COSTS = {
    "zero": (_zero, (False,)),
    "quadratic": (_terminal_quadratic, (False,)),
    "fo_bilinear": (_terminal_fo_bilinear, (True,)),
}


def _cost_builder(table, tag, first_order, kind, needs):
    """The builder of the ``kind`` cost ``tag`` if it serves the kernel, else a
    ``ValueError``: the tag is unknown, or, after a ``first_order`` kernel,
    ``needs`` names what that kernel needs."""
    # a JSON list or object as the tag is unknown too, not an unhashable key
    build, serves = table.get(tag, (None, ())) if isinstance(tag, str) else (None, ())
    if first_order not in serves:
        raise ValueError(f"first_order kernel needs {needs} {short_repr(tag)}" if first_order
                         else f"unknown {kind} tag {short_repr(tag)}")
    return build


def _check_leaves(value, what):
    """Raise ``ValueError`` unless every leaf of a JSON value, nested lists and
    objects included, is a finite number: a bool, string or null is none.

    The walk keeps its own stack, so no nesting depth exhausts the interpreter's.
    """
    pending = [value]
    while pending:
        value = pending.pop()
        if isinstance(value, (dict, list)):
            pending.extend(value.values() if isinstance(value, dict) else value)
        elif value is None or isinstance(value, (bool, str)):
            raise ValueError(f"{what} must hold only numbers, got {short_repr(value)}")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{what} has non-finite entries")


def _tagged(config: dict, name: str):
    """The ``tag`` and ``params`` of a kernel or cost block."""
    block = config[name]
    params = block.get("params", {}) if isinstance(block, dict) else None
    if not isinstance(params, dict):
        raise ValueError(f"{name} must be an object with a 'params' object")
    for key, value in params.items():
        _check_leaves(value, f"{name} param {short_repr(key)}")
    return block["tag"], params


def finite_model_from_config(config: dict) -> FiniteMFModel:
    """Build a :class:`FiniteMFModel` from its parsed declarative JSON description.

    See the README for the recognized kernel and cost tags and their formulas.
    The kernel, the stage cost and the terminal cost are each looked up in
    their table and built, in that order.  The model is first-order exactly
    when its kernel is the ``first_order`` tag.
    """
    if not isinstance(config, dict):
        raise ValueError(f"model config must be an object, got {type(config).__name__}")
    states = _as_points(_numbers(config["states"], "states"))
    actions = _as_points(_numbers(config["actions"], "actions"))
    _check_grid("states", states)
    _check_grid("actions", actions)
    horizon = as_integer(config["horizon"], "horizon")
    ktag, kparams = _tagged(config, "kernel")
    ctag, cparams = _tagged(config, "stage_cost")
    ttag, tparams = _tagged(config, "terminal_cost")
    mean_field_free = config.get("mean_field_free", False)
    if not isinstance(mean_field_free, bool):
        raise ValueError(f"mean_field_free must be true or false, got {short_repr(mean_field_free)}")

    if not isinstance(ktag, str) or ktag not in _KERNELS:   # a list tag is unknown too
        raise ValueError(f"unknown kernel tag {short_repr(ktag)}")
    rows = _KERNELS[ktag](states, actions, horizon, kparams)
    first_order = ktag == "first_order"
    f = _cost_builder(_STAGE_COSTS, ctag, first_order, "stage cost",
                      "a pairwise stage cost, got tag")(states, actions, horizon, cparams)
    g = _cost_builder(_TERMINAL_COSTS, ttag, first_order, "terminal cost",
                      "terminal tag 'fo_bilinear', got")(states, actions, horizon, tparams)
    return FiniteMFModel(states, actions, horizon, *_scalar_callables(states, actions, rows, f, g),
                         mean_field_free=mean_field_free, first_order=first_order)
