"""Reference DPP solver: the memoized recursion over ``DiscreteMeasure`` laws.

It enumerates every feedback map at every node as a ``TabularMap``, pushes
the law with :func:`mfctrl.measure.pushforward`, prices it with
:func:`mfctrl.model.lifted_stage_cost`, and memoizes values on
``key_on_grid``.  The tests hold :func:`mfctrl.dpp.solve`, which works on
weight vectors with batched kernels and costs, to it.

:func:`reference_node_order` numbers the children of each stage through a
dict of rounded weight tuples, the order :func:`mfctrl.dpp.solve` keeps.
"""

import numpy as np

from mfctrl.dpp import BudgetExceeded, SolveResult, ValueNode, _expand, _map_actions, _policies
from mfctrl.measure import KEY_DECIMALS, pushforward
from mfctrl.model import lifted_stage_cost, lifted_terminal_cost


def reference_solve(model, mu0, node_budget=2_000_000):
    n = model.horizon
    policies = _policies(model)
    cache = {}

    def value(k, mu):
        key = (k, mu.key_on_grid(model.states))
        hit = cache.get(key)
        if hit is not None:
            return hit
        if len(cache) >= node_budget:
            raise BudgetExceeded(f"node budget {node_budget} exceeded")
        if k == n:
            node = ValueNode(k, mu, lifted_terminal_cost(model, mu), None)
        else:
            best = np.inf
            best_policy = None
            for policy in policies:
                child = pushforward(mu, policy, model, k)
                cand = lifted_stage_cost(model, k, mu, policy) + value(k + 1, child).value
                if cand < best:
                    best = cand
                    best_policy = policy
            node = ValueNode(k, mu, float(best), best_policy)
        cache[key] = node
        return node

    root = value(0, mu0)
    seq = []
    mu = mu0
    path = [mu.weights_on_grid(model.states)]
    for k in range(n):
        node = cache[(k, mu.key_on_grid(model.states))]
        seq.append(node.argmin_policy)
        mu = pushforward(mu, node.argmin_policy, model, k)
        path.append(mu.weights_on_grid(model.states))
    return SolveResult(v0=root.value, optimal_policy_sequence=seq, optimal_law_path=path,
                       reachable_tree_size=len(cache), value_cache=cache)


def reference_node_order(model, mu0):
    """The ``(stage, key)`` of every node, in node order: each stage's (law,
    map) pairs are expanded in one batch, and a child whose rounded weight
    tuple is new becomes the next node, in order of first occurrence."""
    S, M = model.n_states, model.n_actions
    maps = _map_actions(np.arange(M ** S), S, M)
    laws = mu0.weights_on_grid(model.states)[None, :]
    order = [(0, tuple(np.round(laws[0], KEY_DECIMALS).tolist()))]
    for k in range(model.horizon):
        children, _ = _expand(model, k, laws, maps)
        index = {}
        ids = [index.setdefault(key, len(index))
               for key in map(tuple, np.round(children, KEY_DECIMALS).tolist())]
        _, first = np.unique(ids, return_index=True)
        laws = children[first]
        order.extend((k + 1, key) for key in index)
    return order
