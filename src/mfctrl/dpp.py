"""Exact dynamic programming on the space of laws of a finite mean-field model.

For a finite state grid the lifted problem lives on the simplex: a law is a
weight vector over the ``S`` grid states and a feedback map is a vector of
``S`` action indices, one of the ``M^S`` maps.  :func:`solve` expands the
tree of laws reachable from the initial one stage by stage: every frontier
law is pushed through every map at once, children sharing a quantized weight
key become one node, and the backward pass takes the minimum over maps.

Oracles
-------
* :func:`brute_force_value` minimizes the total lifted cost over all feedback
  map sequences directly, with no value caching.
* :func:`classical_factorization_check` compares against per-state backward
  induction when the model has no mean-field interaction.
* :func:`first_order_check` compares against the pairwise tensor recursion
  when the model declares first-order interactions.

All three evaluate the model through its scalar callables and
:class:`~mfctrl.measure.DiscreteMeasure` laws, independently of the batched
path :func:`solve` takes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measure import (
    KEY_DECIMALS,
    MASS_TOL,
    WEIGHT_FLOOR,
    DiscreteMeasure,
    TabularMap,
    pushforward,
)
from .model import (
    FiniteMFModel,
    LawBatch,
    lifted_stage_cost,
    lifted_terminal_cost,
    sum_last,
    validate,
)

DEFAULT_NODE_BUDGET = 2_000_000
DEFAULT_ENUMERATION_CAP = 10_000_000
# kernel-tensor entries per expansion chunk: a chunk takes
# EXPANSION_ENTRIES // S^2 (law, map) pairs, so its (pairs, S, S) tensor
# stays near 2 MB whatever the tree size
EXPANSION_ENTRIES = 1 << 18


class BudgetExceeded(RuntimeError):
    """Raised when a reachable tree or an enumeration outgrows its budget."""


@dataclass
class ValueNode:
    stage: int
    measure: DiscreteMeasure
    value: float
    argmin_policy: Optional[TabularMap]  # None at the terminal stage


class _BuiltOnRead:
    """Dataclass field whose value may be given as a function building it.

    The function runs on the first read, and its result replaces it.
    """

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.slot)      # the field has no default
        value = getattr(obj, self.slot)
        if callable(value):
            value = value()
            setattr(obj, self.slot, value)
        return value

    def __set__(self, obj, value):
        setattr(obj, self.slot, value)


@dataclass
class SolveResult:
    """Value and optimal maps from the initial law, and every node of the tree.

    ``value_cache`` maps ``(stage, key_on_grid)`` to the :class:`ValueNode`
    of each node.  :func:`solve` builds it on first read, since most callers
    read only ``v0`` and the policy sequence.
    """

    v0: float
    optimal_policy_sequence: list
    reachable_tree_size: int
    value_cache: dict = _BuiltOnRead()

    def node(self, stage: int, mu: DiscreteMeasure, grid) -> ValueNode:
        """The node of ``mu`` at ``stage``.

        A law computed along another path than the solver's, such as a
        scalar pushforward of a node's measure, may differ from the stored
        law in its last bits and round to a neighbouring key.  When the key
        of ``mu`` is missing, the node whose key lies nearest to ``mu``,
        within one rounding unit, is returned.
        """
        key = mu.key_on_grid(grid)
        node = self.value_cache.get((stage, key))
        if node is not None:
            return node
        weights = mu.weights_on_grid(grid)
        gap, node = min(((np.max(np.abs(np.asarray(other) - weights)), near)
                         for (k, other), near in self.value_cache.items() if k == stage),
                        key=lambda hit: hit[0], default=(np.inf, None))
        if gap > 10.0 ** -KEY_DECIMALS:
            raise KeyError((stage, key))
        return node


def _policies(model: FiniteMFModel):
    """All tabular maps, lexicographic in (state index, action index)."""
    tuples = list(itertools.product(range(model.n_actions), repeat=model.n_states))
    return tuples, [model.tabular_policy(t) for t in tuples]


def _map_actions(index: np.ndarray, n_states: int, n_actions: int) -> np.ndarray:
    """Action indices, shape ``(len(index), S)``, of the maps numbered ``index``.

    Maps are numbered in the lexicographic order of :func:`_policies`: the
    first state's action is the most significant digit.
    """
    powers = n_actions ** np.arange(n_states - 1, -1, -1)
    return (index[:, None] // powers) % n_actions


def _canonical(weights: np.ndarray) -> np.ndarray:
    """Normalize rows, zero entries below ``WEIGHT_FLOOR``, renormalize.

    This is what :class:`DiscreteMeasure` does to the weights a pushforward
    hands it, so keys and tree sizes match the measure representation.
    """
    weights = weights / sum_last(weights)[:, None]
    weights[weights < WEIGHT_FLOOR] = 0.0
    return weights / sum_last(weights)[:, None]


class _ScalarLaws:
    """``DiscreteMeasure`` arguments for the scalar callables of a chunk.

    ``mu`` is built once per law and ``lam`` once per (law, map) pair, on
    first use.
    """

    def __init__(self, model, laws, law_index, batch):
        self.model, self.laws, self.batch = model, laws, batch
        self.law_index = law_index.tolist()
        self._mu: dict = {}
        self._lam: dict = {}

    def mu(self, p):
        law = self.law_index[p]
        if law not in self._mu:
            self._mu[law] = DiscreteMeasure(self.model.states, self.laws[law])
        return self._mu[law]

    def lam(self, p):
        if p not in self._lam:
            self._lam[p] = DiscreteMeasure(self.model.actions, self.batch.action_mass[p, 0])
        return self._lam[p]


def _from_batched(values, shape, what):
    """The values of a ``batched`` form, broadcast to ``shape = (P, S, ...)``.

    The pair axis may be a singleton, for values equal under every law and
    map, and a cost may be one constant; any other shape is an error.
    """
    values = np.asarray(values, dtype=float)
    if values.shape not in (shape, (1,) + shape[1:]) and (values.ndim or what == "kernel"):
        raise ValueError(f"batched {what} has shape {values.shape}, expected {shape}")
    return np.broadcast_to(values, shape)


def _kernel_rows(model, k, batch, supported, scalar):
    """Kernel rows, shape ``(P, S, S)``, checked on every supported state.

    Rows at unsupported states are zero; small negative entries are clipped.
    """
    P, S = supported.shape
    batched = getattr(model.kernel, "batched", None)
    if batched is not None:
        rows = _from_batched(batched(k, batch), (P, S, S), "kernel")
        if not supported.all():
            rows = np.where(supported[..., None], rows, 0.0)
    else:
        rows = np.zeros((P, S, S))
        for p, i in np.argwhere(supported).tolist():
            row = np.asarray(model.kernel(k, i, scalar.mu(p), int(batch.action[p, i]),
                                          scalar.lam(p)), dtype=float)
            if row.shape != (S,):
                _bad_row(k, i)
            rows[p, i] = row
    # row masses only meet a tolerance here, so a BLAS sum is fine
    bad = ~(np.abs(rows.reshape(-1, S) @ np.ones(S) - 1.0) <= MASS_TOL).reshape(P, S)
    if rows.min() < 0.0:
        bad |= rows.min(axis=-1) < -MASS_TOL
        rows = np.maximum(rows, 0.0)
    bad &= supported
    if bad.any():
        _bad_row(k, np.argwhere(bad)[0][1])
    return rows


def _bad_row(k, i):
    raise ValueError(f"kernel row is not a probability vector at stage {k}, state index {int(i)}")


def _stage_costs(model, k, batch, supported, scalar):
    """Stage cost at every supported state, shape ``(P, S)``; zero elsewhere."""
    batched = getattr(model.stage_cost, "batched", None)
    if batched is not None:
        costs = _from_batched(batched(k, batch), supported.shape, "stage cost")
        return np.where(supported, costs, 0.0)
    costs = np.zeros(supported.shape)
    for p, i in np.argwhere(supported).tolist():
        costs[p, i] = float(model.stage_cost(k, i, scalar.mu(p), int(batch.action[p, i]),
                                             scalar.lam(p)))
    return costs


def _terminal_values(model, laws):
    """Lifted terminal cost of every law, shape ``(L,)``."""
    supported = laws > 0
    batched = getattr(model.terminal_cost, "batched", None)
    if batched is not None:
        costs = _from_batched(batched(LawBatch.of(model, laws)), laws.shape, "terminal cost")
        costs = np.where(supported, costs, 0.0)
    else:
        costs = np.zeros(laws.shape)
        for law, weights in enumerate(laws):
            mu = DiscreteMeasure(model.states, weights)
            for i in np.flatnonzero(supported[law]).tolist():
                costs[law, i] = float(model.terminal_cost(i, mu))
    return sum_last(laws * costs)


def _expand(model, k, laws, pairs, n_maps):
    """Children (canonical weights) and lifted stage costs of (law, map) pairs.

    Pair ``p`` is law ``p // n_maps`` under map ``p % n_maps``.
    """
    law_index = pairs // n_maps
    weights = laws[law_index]
    action = _map_actions(pairs % n_maps, model.n_states, model.n_actions)
    batch = LawBatch.of(model, weights, action)
    scalar = _ScalarLaws(model, laws, law_index, batch)
    supported = weights > 0
    rows = _kernel_rows(model, k, batch, supported, scalar)
    # as in measure.pushforward, the next weights accumulate state by state
    children = _canonical(sum_last(np.moveaxis(weights[:, :, None] * rows, 1, -1)))
    costs = sum_last(weights * _stage_costs(model, k, batch, supported, scalar))
    return children, costs


@dataclass
class _Stage:
    laws: np.ndarray                      # (L, S) canonical weights, one row per node
    keys: list                            # value-cache key of each row
    child: Optional[np.ndarray] = None    # (L * M^S,) child node of each (law, map)
    cost: Optional[np.ndarray] = None     # (L * M^S,) lifted stage cost of each (law, map)
    values: Optional[np.ndarray] = None   # (L,) value of each node
    best: Optional[np.ndarray] = None     # (L,) number of each node's minimizing map


def _value_cache(model, stages, policy) -> dict:
    """The :class:`ValueNode` of every node of a solved tree."""
    n = len(stages) - 1
    cache = {}
    for k, stage in enumerate(stages):
        best = stage.best.tolist() if k < n else [None] * len(stage.keys)
        cache.update({(k, key): ValueNode(k, DiscreteMeasure(model.states, law), value,
                                          None if m is None else policy(m))
                      for key, law, value, m in zip(stage.keys, stage.laws,
                                                    stage.values.tolist(), best)})
    return cache


def solve(model: FiniteMFModel, mu0: DiscreteMeasure,
          node_budget: int = DEFAULT_NODE_BUDGET,
          check_model: bool = True) -> SolveResult:
    """Backward value recursion over the tree of laws reachable from ``mu0``.

    The tree is expanded stage by stage on weight vectors, every map of a
    frontier law at once; children whose weights agree to ``KEY_DECIMALS``
    decimals are one node.  Ties between minimizing maps break toward the
    lexicographically smallest map in (state index, action index) order, so
    outputs are deterministic.

    Raises
    ------
    BudgetExceeded
        If the number of distinct (stage, law) nodes exceeds ``node_budget``.
    ValueError
        If ``check_model`` and the model fails validation, if a kernel row at
        a supported state is not a probability vector, or if a candidate
        value is not finite.
    """
    if check_model:
        report = validate(model, extra_measures=[mu0])
        if not report.ok:
            raise ValueError(f"invalid model: {report.summary()}")
    S, M, n = model.n_states, model.n_actions, model.horizon
    n_maps = M ** S
    chunk = max(1, EXPANSION_ENTRIES // (S * S))

    def check_budget(nodes):
        if nodes > node_budget:
            bound = sum(n_maps ** j for j in range(n + 1))
            raise BudgetExceeded(
                f"node budget {node_budget} exceeded; the reachable tree needs more "
                f"(worst-case bound {bound} nodes)")

    root = mu0.weights_on_grid(model.states)[None, :]
    root.setflags(write=False)
    stages = [_Stage(root, [tuple(np.round(root[0], KEY_DECIMALS).tolist())])]
    nodes = 1
    check_budget(nodes)
    for k in range(n):
        stage = stages[k]
        total = len(stage.laws) * n_maps
        stage.child = np.empty(total, dtype=np.intp)
        stage.cost = np.empty(total)
        index: dict = {}     # key -> node number at stage k + 1
        reps = []            # weights of the new nodes, in node order
        for p0 in range(0, total, chunk):
            p1 = min(p0 + chunk, total)
            children, stage.cost[p0:p1] = _expand(model, k, stage.laws,
                                                  np.arange(p0, p1), n_maps)
            known = len(index)
            ids = np.array([index.setdefault(key, len(index))
                            for key in map(tuple, np.round(children, KEY_DECIMALS).tolist())])
            stage.child[p0:p1] = ids
            if len(index) > known:
                # ids are handed out in order of first occurrence
                _, first = np.unique(ids, return_index=True)
                reps.append(children[first[known - len(index):]])
            check_budget(nodes + len(index))
        nodes += len(index)
        laws = np.concatenate(reps)
        laws.setflags(write=False)
        stages.append(_Stage(laws, list(index)))

    values = _terminal_values(model, stages[n].laws)
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite terminal value at stage {n}")
    stages[n].values = values
    for k in range(n - 1, -1, -1):
        stage = stages[k]
        cand = (stage.cost.reshape(-1, n_maps)
                + stages[k + 1].values[stage.child].reshape(-1, n_maps))
        if not np.isfinite(cand).all():
            raise ValueError(f"non-finite candidate value at stage {k}")
        stage.best = cand.argmin(axis=1)   # first minimum: lexicographic tie-break
        stage.values = cand[np.arange(len(stage.best)), stage.best]

    policies: dict = {}

    def policy(m):
        if m not in policies:
            policies[m] = model.tabular_policy(_map_actions(np.array([m]), S, M)[0])
        return policies[m]

    seq = []
    law = 0
    for stage in stages[:n]:
        m = int(stage.best[law])
        seq.append(policy(m))
        law = int(stage.child[law * n_maps + m])
    for stage in stages:
        stage.child = stage.cost = None      # the value cache needs only the rest
    return SolveResult(
        v0=float(stages[0].values[0]),
        optimal_policy_sequence=seq,
        reachable_tree_size=nodes,
        value_cache=lambda: _value_cache(model, stages, policy),
    )


def rollforward(model: FiniteMFModel, mu0: DiscreteMeasure, policy_sequence):
    """Total lifted cost and law trajectory of a feedback-map sequence."""
    if len(policy_sequence) != model.horizon:
        raise ValueError(
            f"need {model.horizon} maps, got {len(policy_sequence)}")
    kern = model.transition_kernel()
    mu = mu0
    trajectory = [mu]
    total = 0.0
    for k, policy in enumerate(policy_sequence):
        total += lifted_stage_cost(model, k, mu, policy)
        mu = pushforward(mu, policy, kern, k)
        trajectory.append(mu)
    total += lifted_terminal_cost(model, mu)
    return float(total), trajectory


def brute_force_value(model: FiniteMFModel, mu0: DiscreteMeasure,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Exact minimum of the lifted cost over all feedback-map sequences.

    Enumerates the full ``M^(S*n)`` product with no caching, so it is an
    oracle independent of :func:`solve`.
    """
    n = model.horizon
    count = model.n_actions ** (model.n_states * n)
    if count > cap:
        raise BudgetExceeded(
            f"{count} policy sequences exceed the enumeration cap {cap}")
    _, policies = _policies(model)
    best = np.inf
    for seq in itertools.product(policies, repeat=n):
        cost, _ = rollforward(model, mu0, list(seq))
        if cost < best:
            best = cost
    return float(best)


# ---------------------------------------------------------------------------
# No-interaction factorization
# ---------------------------------------------------------------------------

@dataclass
class FactorizationReport:
    max_discrepancy: float
    per_stage: dict
    state_values: np.ndarray      # per-state backward table, shape (n+1, S)
    tree_size: int


def classical_state_values(model: FiniteMFModel) -> np.ndarray:
    """Per-state backward induction table for a model with no interaction."""
    if not model.mean_field_free:
        raise ValueError("model does not declare mean_field_free; refusing")
    S, M, n = model.n_states, model.n_actions, model.horizon
    # the callables ignore the measure arguments; any valid laws will do
    mu = DiscreteMeasure.uniform(model.states)
    lam = DiscreteMeasure.uniform(model.actions)
    table = np.zeros((n + 1, S))
    for i in range(S):
        table[n, i] = model.terminal_cost(i, mu)
    for k in range(n - 1, -1, -1):
        for i in range(S):
            best = np.inf
            for a in range(M):
                row = np.asarray(model.kernel(k, i, mu, a, lam), dtype=float)
                cand = model.stage_cost(k, i, mu, a, lam) + row @ table[k + 1]
                best = min(best, cand)
            table[k, i] = best
    return table


def classical_factorization_check(model: FiniteMFModel, mu0: DiscreteMeasure,
                                  node_budget: int = DEFAULT_NODE_BUDGET) -> FactorizationReport:
    """Compare measure-space values with the integrated per-state table.

    For every reachable node ``(k, mu)`` the report records
    ``|v_k(mu) - sum_i w_i vtable_k(x_i)|``; both sides vanish together only
    when the model has no mean-field interaction, which the model must
    declare (via ``mean_field_free``) for this check to run.
    """
    table = classical_state_values(model)
    result = solve(model, mu0, node_budget=node_budget)
    per_stage: dict = {}
    worst = 0.0
    for (k, _key), node in result.value_cache.items():
        w = node.measure.weights_on_grid(model.states)
        disc = abs(node.value - float(w @ table[k]))
        per_stage[k] = max(per_stage.get(k, 0.0), disc)
        worst = max(worst, disc)
    return FactorizationReport(worst, per_stage, table, result.reachable_tree_size)


# ---------------------------------------------------------------------------
# First-order interactions
# ---------------------------------------------------------------------------

@dataclass
class FirstOrderReport:
    max_discrepancy: float
    per_stage: dict
    tree_size: int


def _first_order_guard(model: FiniteMFModel, max_states: int, max_horizon: int,
                       max_entries: int):
    if model.first_order is None:
        raise ValueError("model does not declare a first-order decomposition; refusing")
    S, n = model.n_states, model.horizon
    if S > max_states or n > max_horizon:
        raise BudgetExceeded(
            f"first-order tensors limited to S <= {max_states}, n <= {max_horizon}; "
            f"got S={S}, n={n}")
    entries = S ** (2 ** (n + 1))
    if entries > max_entries:
        raise BudgetExceeded(
            f"stage-0 tensor would hold {entries} entries (cap {max_entries})")


def first_order_value_tensors(model: FiniteMFModel, max_states: int = 3,
                              max_horizon: int = 3,
                              max_entries: int = 1_000_000) -> list:
    """All pairwise value tensors, index ``k`` of the list holding stage ``k``.

    The stage-``k`` tensor has ``2**(n-k+1)`` axes of length ``S``; axes are
    ordered ``(x_1..x_p, y_1..y_p)``.  Each entry minimizes, over all tabular
    maps, the pairwise stage cost of the leading pair plus the contraction of
    the next tensor with one pairwise kernel row per axis.
    """
    _first_order_guard(model, max_states, max_horizon, max_entries)
    fo = model.first_order
    S, M, n = model.n_states, model.n_actions, model.horizon
    maps = list(itertools.product(range(M), repeat=S))

    terminal = np.array([[fo.gtilde(ix, iy) for iy in range(S)] for ix in range(S)])
    tensors = [None] * (n + 1)
    tensors[n] = terminal
    for k in range(n - 1, -1, -1):
        vnext = tensors[k + 1]
        pairs = vnext.ndim
        per_map = []
        for m in maps:
            kern = np.array([[fo.ptilde(k, ix, iy, m[ix], m[iy]) for iy in range(S)]
                             for ix in range(S)])            # (x, y, x')
            fmat = np.array([[fo.ftilde(k, ix, iy, m[ix], m[iy]) for iy in range(S)]
                             for ix in range(S)])            # (x1, y1)
            res = vnext
            for _ in range(pairs):
                # contract the leading next-state axis; appends (x_i, y_i) axes
                res = np.tensordot(res, kern, axes=([0], [2]))
            res = res + fmat.reshape((S, S) + (1,) * (2 * pairs - 2))
            per_map.append(res)
        interleaved = np.min(np.stack(per_map), axis=0)
        perm = list(range(0, 2 * pairs, 2)) + list(range(1, 2 * pairs, 2))
        tensors[k] = np.transpose(interleaved, perm)
    return tensors


def first_order_value_tensor(model: FiniteMFModel, stage: int, **kwargs) -> np.ndarray:
    """Pairwise value tensor at one stage (see :func:`first_order_value_tensors`)."""
    if not 0 <= stage <= model.horizon:
        raise ValueError(f"stage {stage} out of range [0, {model.horizon}]")
    return first_order_value_tensors(model, **kwargs)[stage]


def _integrate_tensor(tensor: np.ndarray, weights: np.ndarray) -> float:
    res = tensor
    while res.ndim > 0:
        res = np.tensordot(res, weights, axes=([res.ndim - 1], [0]))
    return float(res)


def first_order_check(model: FiniteMFModel, mu0: DiscreteMeasure,
                      node_budget: int = DEFAULT_NODE_BUDGET, **kwargs) -> FirstOrderReport:
    """Compare measure-space values against product-measure tensor integrals.

    For every reachable node ``(k, mu)``, records
    ``|v_k(mu) - <vtensor_k, mu tensorized over all axes>|``.
    """
    tensors = first_order_value_tensors(model, **kwargs)
    result = solve(model, mu0, node_budget=node_budget)
    per_stage: dict = {}
    worst = 0.0
    for (k, _key), node in result.value_cache.items():
        w = node.measure.weights_on_grid(model.states)
        disc = abs(node.value - _integrate_tensor(tensors[k], w))
        per_stage[k] = max(per_stage.get(k, 0.0), disc)
        worst = max(worst, disc)
    return FirstOrderReport(worst, per_stage, result.reachable_tree_size)
