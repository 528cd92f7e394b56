"""Reference DPP solver: the memoized recursion over ``DiscreteMeasure`` laws.

It enumerates every feedback map at every node as a ``TabularMap``, pushes
the law with :func:`mfctrl.measure.pushforward`, prices it with
:func:`mfctrl.model.lifted_stage_cost`, and memoizes values on
``key_on_grid``.  The tests hold :func:`mfctrl.dpp.solve`, which works on
weight vectors with batched kernels and costs, to it.
"""

import numpy as np

from mfctrl.dpp import BudgetExceeded, SolveResult, ValueNode, _policies
from mfctrl.measure import pushforward
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
