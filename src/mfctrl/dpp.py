"""Exact dynamic programming on the space of laws of a finite mean-field model.

For a finite state grid the lifted problem lives on the simplex: a law is a
weight vector over the ``S`` grid states and a feedback map is a vector of
``S`` action indices, one of the ``M^S`` maps.  :func:`solve` expands the
tree of laws reachable from the initial one stage by stage: every frontier
law is pushed through every map at once, children sharing a quantized weight
key become one node, and the backward pass takes the minimum over maps.  The
result keeps the tree as these stage arrays: each stage's node weights, their
values and the numbers of their minimizing maps.

A stage is expanded in chunks, each a grid of laws × maps laid out for
:func:`~mfctrl.model.evaluate`: law moments are computed once per law, and
a kernel that reads no action law is evaluated once per (law, state, action)
rather than once per (law, map, state).  :func:`_distinct` numbers each
chunk's children, and once more the chunks' distinct rows together at the
stage end, or earlier once their count passes the node budget; the parts are
freed once joined for that merge, and the sort's arrays before its check.
Terminal costs are evaluated in chunks of ``EXPANSION_ENTRIES // S`` laws.

Oracles
-------
* :func:`brute_force_value` minimizes the total lifted cost over all feedback
  map sequences directly, with no value caching.
* :func:`classical_factorization_check` compares against per-state backward
  induction when the model has no mean-field interaction.
* :func:`first_order_check` compares against the pairwise tensor recursion
  when the model declares first-order interactions, reading the pairwise
  kernel and costs as the model's own at Dirac laws.

All three evaluate the model through its scalar callables and
:class:`~mfctrl.measure.DiscreteMeasure` laws, independently of the batched
path :func:`solve` takes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measure import KEY_DECIMALS, DiscreteMeasure, pushforward, read_only
from .model import (
    FiniteMFModel,
    evaluate,
    lifted_stage_cost,
    lifted_terminal_cost,
    sum_last,
    validate,
)

DEFAULT_NODE_BUDGET = 2_000_000
# the most map sequences brute_force_value enumerates
ENUMERATION_CAP = 10_000_000
# the largest models first_order_value_tensors takes, and its stage-0 tensor size
FIRST_ORDER_MAX_STATES = 3
FIRST_ORDER_MAX_HORIZON = 3
FIRST_ORDER_MAX_ENTRIES = 1_000_000
# kernel-tensor entries per expansion chunk: a chunk takes at most
# EXPANSION_ENTRIES // S^2 (law, map) pairs, so the (pairs, S, S) tensor of
# their weighted kernel rows stays near 2 MB whatever the tree size
EXPANSION_ENTRIES = 1 << 18
# at most this many rows are deduplicated through a dict, faster on so few
DICT_ROWS = 32


class BudgetExceeded(ArithmeticError, RuntimeError):
    """Raised when a reachable tree or an enumeration outgrows its budget."""


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Value and optimal maps from the initial law, and every node of the tree.

    ``optimal_law_path`` holds the ``(S,)`` grid weights of the node laws the
    optimal maps visit, stages ``0..n``.  The tree is kept as :func:`solve`
    builds it, one read-only array per stage ``k``: ``laws[k]`` holds the
    ``(L_k, S)`` canonical weights of its nodes, in node order, ``values[k]``
    their ``(L_k,)`` values and, for ``k < n``, ``maps[k]`` the ``(L_k,)``
    numbers of their minimizing maps, in the order of :func:`_map_actions`.
    """

    v0: float
    optimal_policy_sequence: list
    optimal_law_path: list
    reachable_tree_size: int
    laws: list
    values: list
    maps: list

    def node_at(self, stage: int, weights) -> int:
        """The row of ``laws[stage]`` nearest to the grid weights ``weights``.

        A law computed along another path than the solver's, such as a
        scalar pushforward of a node's law, may differ from the stored law
        in its last bits and round to a neighbouring key.  The nearest row in
        max-norm is returned if it lies within one rounding unit.
        """
        gaps = np.max(np.abs(self.laws[stage] - weights), axis=1)
        row = int(np.argmin(gaps))
        if gaps[row] > 10.0 ** -KEY_DECIMALS:
            raise KeyError(f"no node of stage {stage} within {gaps[row]:.1e} of the law")
        return row


def _policies(model: FiniteMFModel):
    """All tabular maps, lexicographic in (state index, action index)."""
    return [model.tabular_policy(t)
            for t in itertools.product(range(model.n_actions), repeat=model.n_states)]


def _map_actions(index: np.ndarray, n_states: int, n_actions: int) -> np.ndarray:
    """Action indices, shape ``(len(index), S)``, of the maps numbered ``index``.

    Maps are numbered in the lexicographic order of :func:`_policies`: the
    first state's action is the most significant digit.
    """
    powers = n_actions ** np.arange(n_states - 1, -1, -1)
    return (index[:, None] // powers) % n_actions


def _expand(model, k, laws, maps):
    """Children (canonical weights) and lifted stage costs of every law of
    ``laws`` (L, S) under every map of ``maps`` (N, S), law-major."""
    grid = laws[:, None, :]
    ev = evaluate(model, k, grid, grid > 0, maps).checked()
    return ev.push(), sum_last(grid * ev.costs).ravel()


@dataclass
class _Stage:
    laws: np.ndarray                      # (L, S) canonical weights, one row per node
    child: Optional[np.ndarray] = None    # (L * M^S,) child node of each (law, map)
    cost: Optional[np.ndarray] = None     # (L * M^S,) lifted stage cost of each (law, map)
    values: Optional[np.ndarray] = None   # (L,) value of each node
    best: Optional[np.ndarray] = None     # (L,) number of each node's minimizing map


def _row_hash(bits):
    """A 64-bit hash of each row of ``bits`` (P, S), equal for equal rows."""
    h = bits[:, 0]
    for j in range(1, bits.shape[1]):
        h = h * np.uint64(0x9E3779B97F4A7C15) + bits[:, j]
    return h


def _dict_ids(bits):
    """The number of each row of ``bits`` by first occurrence, and where each first occurs."""
    index, ids, first = {}, [], []
    for p, row in enumerate(map(tuple, bits.tolist())):
        m = index.setdefault(row, len(index))
        if m == len(first):
            first.append(p)
        ids.append(m)
    return np.array(ids, dtype=np.intp), first


def _distinct(children):
    """The distinct rows of ``children`` (P, S), in order of first occurrence,
    and the number of each row of ``children`` among them.

    Rows are one when their weights rounded to ``KEY_DECIMALS`` decimals have
    the same bits (``+ 0.0`` makes ``-0.0`` equal ``0.0``).  Over ``DICT_ROWS``
    rows are grouped by a sort on a row hash, then checked bit for bit against
    their group's first row; fewer rows, or a hash collision, go through a dict.
    """
    bits = (np.round(children, KEY_DECIMALS) + 0.0).view(np.uint64)
    if len(bits) > DICT_ROWS:
        h = _row_hash(bits)
        order = np.argsort(h)
        start = np.concatenate(([True], h[order[1:]] != h[order[:-1]]))   # opens a group
        first = np.minimum.reduceat(order, np.flatnonzero(start))         # in hash order
        slot = np.zeros(len(bits), np.intp)
        slot[first] = 1
        reps = np.flatnonzero(slot)                 # the first occurrences, in row order
        slot[reps] = np.arange(len(reps))
        ids = np.empty(len(bits), np.intp)
        ids[order] = slot[first][np.cumsum(start) - 1]
        del h, order, start, first, slot   # freed before the check, which holds a copy of bits
        if not np.any(np.take(bits, reps[ids], axis=0) != bits):   # no hash collision
            return np.take(children, reps, axis=0), ids
    ids, reps = _dict_ids(bits)
    return children[reps], ids


def solve(model: FiniteMFModel, mu0: DiscreteMeasure,
          node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
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
        If the model fails validation, if a kernel row at a supported state
        is not a probability vector, or if a candidate value is not finite.
    """
    report = validate(model, extra_measures=[mu0])
    if not report.ok:
        raise ValueError(f"invalid model: {report.summary()}")
    S, M, n = model.n_states, model.n_actions, model.horizon
    n_maps = M ** S
    # a chunk is a block of whole laws under every map, or one law under a block of maps
    chunk = max(1, EXPANSION_ENTRIES // (S * S))
    laws_per_chunk, maps_per_chunk = max(1, chunk // n_maps), min(chunk, n_maps)
    all_maps = _map_actions(np.arange(n_maps), S, M) if n_maps <= chunk else None

    def check_budget(nodes):
        if nodes > node_budget:
            # the bound sum(n_maps**j, j <= n) is written out below 30 digits only:
            # str() refuses ints of over 4300 digits, which long horizons reach
            digits = n * math.log10(n_maps)
            bound = (sum(n_maps ** j for j in range(n + 1)) if digits < 30
                     else f"more than 10^{math.floor(digits)}")
            raise BudgetExceeded(
                f"node budget {node_budget} exceeded; the reachable tree needs more "
                f"(worst-case bound {bound} nodes)")

    stages = [_Stage(read_only(mu0.weights_on_grid(model.states)[None, :]))]
    nodes = 1
    check_budget(nodes)
    for k in range(n):
        stage = stages[k]
        total = len(stage.laws) * n_maps
        stage.child = np.empty(total, dtype=np.intp)
        stage.cost = np.empty(total)
        parts, count = [], 0   # each chunk's distinct children; count bounds their nodes
        for l0 in range(0, len(stage.laws), laws_per_chunk):
            block = stage.laws[l0:l0 + laws_per_chunk]
            for m0 in range(0, n_maps, maps_per_chunk):
                maps = all_maps if all_maps is not None else _map_actions(
                    np.arange(m0, min(m0 + maps_per_chunk, n_maps)), S, M)
                p0 = l0 * n_maps + m0
                p1 = p0 + len(block) * len(maps)
                children, stage.cost[p0:p1] = _expand(model, k, block, maps)
                part, ids = _distinct(children)
                stage.child[p0:p1] = ids + count
                parts.append(part)
                count += len(part)
                # merge at the stage end, or for the budget to count nodes exactly
                if len(parts) > 1 and (p1 == total or nodes + count > node_budget):
                    parts[:] = [np.concatenate(parts)]   # frees the parts before the merge
                    merged, ids = _distinct(parts.pop())
                    stage.child[:p1] = ids[stage.child[:p1]]
                    parts, count = [merged], len(merged)
                check_budget(nodes + count)
        nodes += count
        stages.append(_Stage(read_only(*parts)))   # the stage's one merged part

    last, rows = stages[n].laws, max(1, EXPANSION_ENTRIES // S)
    values = np.empty(len(last))
    for l0 in range(0, len(last), rows):   # terminal costs, in chunks of rows
        block = last[l0:l0 + rows]
        values[l0:l0 + rows] = sum_last(block * evaluate(model, n, block, block > 0).costs)
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite terminal value at stage {n}")
    stages[n].values = values
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow raises below
        for k in range(n - 1, -1, -1):
            stage = stages[k]
            cand = (stage.cost.reshape(-1, n_maps)
                    + stages[k + 1].values[stage.child].reshape(-1, n_maps))
            if not np.isfinite(cand).all():
                raise ValueError(f"non-finite candidate value at stage {k}")
            stage.best = cand.argmin(axis=1)   # first minimum: lexicographic tie-break
            stage.values = cand[np.arange(len(stage.best)), stage.best]

    seq, path, law = [], [stages[0].laws[0]], 0
    policies: dict = {}   # one TabularMap per optimal map number
    for stage, after in zip(stages[:n], stages[1:]):
        m = int(stage.best[law])
        if m not in policies:
            policies[m] = model.tabular_policy(_map_actions(np.array([m]), S, M)[0])
        seq.append(policies[m])
        law = int(stage.child[law * n_maps + m])
        path.append(after.laws[law])
    return SolveResult(
        v0=float(stages[0].values[0]),
        optimal_policy_sequence=seq,
        optimal_law_path=path,
        reachable_tree_size=nodes,
        laws=[stage.laws for stage in stages],
        values=[read_only(stage.values) for stage in stages],
        maps=[read_only(stage.best) for stage in stages[:n]],
    )


def _finite(cost: float, what: str, k: int) -> float:
    if not math.isfinite(cost):
        raise ValueError(f"non-finite lifted {what} cost at stage {k}")
    return cost


def rollforward(model: FiniteMFModel, mu0: DiscreteMeasure, policy_sequence):
    """Total lifted cost and law trajectory of a feedback-map sequence (scalar
    oracle); a lifted stage or terminal cost that is not finite raises ``ValueError``."""
    if len(policy_sequence) != model.horizon:
        raise ValueError(
            f"need {model.horizon} maps, got {len(policy_sequence)}")
    mu, trajectory, total = mu0, [mu0], 0.0
    for k, policy in enumerate(policy_sequence):
        total += _finite(lifted_stage_cost(model, k, mu, policy), "stage", k)
        mu = pushforward(mu, policy, model, k)
        trajectory.append(mu)
    total += _finite(lifted_terminal_cost(model, mu), "terminal", model.horizon)
    return float(total), trajectory


def brute_force_value(model: FiniteMFModel, mu0: DiscreteMeasure) -> float:
    """Exact minimum of the lifted cost over all feedback-map sequences.

    Enumerates the full ``M^(S*n)`` product with no caching, so it is an
    oracle independent of :func:`solve`.
    """
    n = model.horizon
    count = model.n_actions ** (model.n_states * n)
    if count > ENUMERATION_CAP:
        raise BudgetExceeded(
            f"{count} policy sequences exceed the enumeration cap {ENUMERATION_CAP}")
    policies = _policies(model)
    best = np.inf
    for seq in itertools.product(policies, repeat=n):
        cost, _ = rollforward(model, mu0, list(seq))
        if cost < best:
            best = cost
    return float(best)


@dataclass
class GapReport:
    """Largest gap between the values of the reachable nodes and a reference,
    overall and per stage, and the number of nodes."""
    max_discrepancy: float
    per_stage: dict
    tree_size: int


def _node_gaps(model: FiniteMFModel, mu0: DiscreteMeasure, reference) -> GapReport:
    """``|v_k(mu) - reference(k, w)|`` over the nodes ``(k, mu)`` of the tree
    from ``mu0``, ``w`` being the weight row of ``mu``."""
    result = solve(model, mu0)
    per_stage = {k: max(abs(value - reference(k, w)) for w, value in zip(laws, values.tolist()))
                 for k, (laws, values) in enumerate(zip(result.laws, result.values))}
    return GapReport(max(per_stage.values()), per_stage, result.reachable_tree_size)


# ---------------------------------------------------------------------------
# No-interaction factorization
# ---------------------------------------------------------------------------

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


def classical_factorization_check(model: FiniteMFModel, mu0: DiscreteMeasure) -> GapReport:
    """Compare measure-space values with the integrated per-state table.

    For every reachable node ``(k, mu)`` the report records
    ``|v_k(mu) - sum_i w_i vtable_k(x_i)|``; both sides vanish together only
    when the model has no mean-field interaction, which the model must
    declare (via ``mean_field_free``) for this check to run.
    """
    table = classical_state_values(model)
    return _node_gaps(model, mu0, lambda k, w: float(w @ table[k]))


# ---------------------------------------------------------------------------
# First-order interactions
# ---------------------------------------------------------------------------

def first_order_value_tensors(model: FiniteMFModel) -> list:
    """All pairwise value tensors, index ``k`` of the list holding stage ``k``.

    The stage-``k`` tensor has ``2**(n-k+1)`` axes of length ``S``; axes are
    ordered ``(x_1..x_p, y_1..y_p)``.  Each entry minimizes, over all tabular
    maps, the pairwise stage cost of the leading pair plus the contraction of
    the next tensor with one pairwise kernel row per axis.  The pairwise
    kernel and costs of ``(x, y, a, b)`` are the model's own kernel and costs
    at ``x`` and ``a`` under the Dirac laws at ``y`` and ``b``.
    """
    if not model.first_order:
        raise ValueError("model does not declare a first-order decomposition; refusing")
    S, M, n = model.n_states, model.n_actions, model.horizon
    if S > FIRST_ORDER_MAX_STATES or n > FIRST_ORDER_MAX_HORIZON:
        raise BudgetExceeded(
            f"first-order tensors limited to S <= {FIRST_ORDER_MAX_STATES}, "
            f"n <= {FIRST_ORDER_MAX_HORIZON}; got S={S}, n={n}")
    entries = S ** (2 ** (n + 1))
    if entries > FIRST_ORDER_MAX_ENTRIES:
        raise BudgetExceeded(
            f"stage-0 tensor would hold {entries} entries (cap {FIRST_ORDER_MAX_ENTRIES})")
    maps = list(itertools.product(range(M), repeat=S))
    ys, bs = ([DiscreteMeasure.dirac(p) for p in grid] for grid in (model.states, model.actions))

    terminal = np.array([[model.terminal_cost(ix, ys[iy]) for iy in range(S)] for ix in range(S)])
    tensors = [None] * (n + 1)
    tensors[n] = terminal
    for k in range(n - 1, -1, -1):
        vnext = tensors[k + 1]
        pairs = vnext.ndim
        per_map = []
        for m in maps:
            kern = np.array([[model.kernel(k, ix, ys[iy], m[ix], bs[m[iy]]) for iy in range(S)]
                             for ix in range(S)])            # (x, y, x')
            fmat = np.array([[model.stage_cost(k, ix, ys[iy], m[ix], bs[m[iy]])
                              for iy in range(S)] for ix in range(S)])   # (x1, y1)
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


def _integrate_tensor(tensor: np.ndarray, weights: np.ndarray) -> float:
    res = tensor
    while res.ndim > 0:
        res = np.tensordot(res, weights, axes=([res.ndim - 1], [0]))
    return float(res)


def first_order_check(model: FiniteMFModel, mu0: DiscreteMeasure) -> GapReport:
    """Compare measure-space values against product-measure tensor integrals.

    For every reachable node ``(k, mu)``, records
    ``|v_k(mu) - <vtensor_k, mu tensorized over all axes>|``.
    """
    tensors = first_order_value_tensors(model)
    return _node_gaps(model, mu0, lambda k, w: _integrate_tensor(tensors[k], w))
