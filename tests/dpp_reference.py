"""Reference DPP solver: the memoized recursion over ``DiscreteMeasure`` laws.

It enumerates every feedback map at every node as a ``TabularMap``, pushes
the law with :func:`mfctrl.measure.pushforward`, prices it with
:func:`mfctrl.model.lifted_stage_cost`, and memoizes values on the grid
weights rounded to ``KEY_DECIMALS`` decimals.  The tests hold
:func:`mfctrl.dpp.solve`, which works on weight vectors with batched kernels
and costs, to it.

:func:`reference_node_order` numbers the children of each stage through a
dict of rounded weight tuples, the order :func:`mfctrl.dpp.solve` keeps.
"""

import numpy as np

from conftest import node_key
from mfctrl.dpp import BudgetExceeded, SolveResult, _expand, _map_actions, _policies
from mfctrl.measure import pushforward
from mfctrl.model import lifted_stage_cost, lifted_terminal_cost


def reference_solve(model, mu0, node_budget=2_000_000):
    """A :class:`~mfctrl.dpp.SolveResult` whose stage arrays hold the nodes in
    the order the recursion first finishes them."""
    n = model.horizon
    policies = _policies(model)
    cache = {}   # (stage, key) -> (grid weights, value, number of the minimizing map)

    def node(k, mu):
        weights = mu.weights_on_grid(model.states)
        key = (k, node_key(weights))
        hit = cache.get(key)
        if hit is not None:
            return hit
        if len(cache) >= node_budget:
            raise BudgetExceeded(f"node budget {node_budget} exceeded")
        if k == n:
            hit = (weights, lifted_terminal_cost(model, mu), None)
        else:
            best = np.inf
            best_map = None
            for m, policy in enumerate(policies):
                child = pushforward(mu, policy, model, k)
                cand = lifted_stage_cost(model, k, mu, policy) + node(k + 1, child)[1]
                if cand < best:
                    best = cand
                    best_map = m
            hit = (weights, float(best), best_map)
        cache[key] = hit
        return hit

    v0 = node(0, mu0)[1]
    seq = []
    mu = mu0
    path = [mu.weights_on_grid(model.states)]
    for k in range(n):
        policy = policies[cache[(k, node_key(mu.weights_on_grid(model.states)))][2]]
        seq.append(policy)
        mu = pushforward(mu, policy, model, k)
        path.append(mu.weights_on_grid(model.states))
    stages = [[hit for (j, _), hit in cache.items() if j == k] for k in range(n + 1)]
    return SolveResult(v0=v0, optimal_policy_sequence=seq, optimal_law_path=path,
                       reachable_tree_size=len(cache),
                       laws=[np.array([w for w, _, _ in hits]) for hits in stages],
                       values=[np.array([v for _, v, _ in hits]) for hits in stages],
                       maps=[np.array([m for _, _, m in hits]) for hits in stages[:n]])


def reference_node_order(model, mu0):
    """The ``(L_k, S)`` laws of every stage, in node order: each stage's (law,
    map) pairs are expanded in one batch, and a child whose rounded weight
    tuple is new becomes the next node, in order of first occurrence."""
    S, M = model.n_states, model.n_actions
    maps = _map_actions(np.arange(M ** S), S, M)
    laws = mu0.weights_on_grid(model.states)[None, :]
    order = [laws]
    for k in range(model.horizon):
        children, _ = _expand(model, k, laws, maps)
        index = {}
        ids = [index.setdefault(key, len(index)) for key in map(node_key, children)]
        _, first = np.unique(ids, return_index=True)
        laws = children[first]
        order.append(laws)
    return order
