"""Reference sampler for :func:`mfctrl.model.validate`: the tuple lists built with ``itertools``.

It lists every (stage, state, action, law, action law) tuple with
``itertools.product``, draws ``max_tuples`` of them with the same seeded
``rng.choice`` call, and walks the drawn tuples one by one.  The tests hold
:func:`mfctrl.model.validate`, which draws the same tuples by index
arithmetic and flags them as arrays, to it.
"""

import itertools

import numpy as np

from mfctrl.model import ValidationReport, evaluate


def reference_validate(model, extra_measures=(), max_tuples=512, seed=0):
    report = ValidationReport()
    S, M, n = model.n_states, model.n_actions, model.horizon
    laws = np.vstack([np.eye(S), np.full(S, 1.0 / S)]
                     + [mu.weights_on_grid(model.states) for mu in extra_measures])
    action_laws = np.vstack([np.eye(M), np.full(M, 1.0 / M)])

    combos = list(itertools.product(range(n), range(S), range(M)))
    pairs = list(itertools.product(range(len(laws)), range(len(action_laws))))
    rng = np.random.default_rng(seed)
    tuples = [(k, i, a, mi, li) for (k, i, a) in combos for (mi, li) in pairs]
    if len(tuples) > max_tuples:
        pick = rng.choice(len(tuples), size=max_tuples, replace=False)
        tuples = [tuples[j] for j in pick]

    def violation(kind, k, i, a, detail):
        report.violations.append({"kind": kind, "stage": k, "state": i, "action": a,
                                  "detail": detail})

    tuples = np.array(tuples).reshape(-1, 5)
    evals, slot = {}, np.empty(len(tuples), dtype=int)   # tuple j is pair slot[j] of its stage
    for k in range(n):
        at = np.flatnonzero(tuples[:, 0] == k)
        if len(at):
            _, i, a, mi, li = tuples[at].T
            slot[at] = np.arange(len(at))
            cells = np.zeros((len(at), S), dtype=bool)
            cells[slot[at], i] = True
            ev = evaluate(model, k, laws[mi], cells, np.repeat(a[:, None], S, axis=1),
                          action_laws[li])
            evals[k] = (ev, *ev.bad)
    for (k, i, a, _, _), p in zip(tuples.tolist(), slot.tolist()):
        report.checked += 1
        ev, negative, off_mass = evals[k]
        where = f"stage {k} state {i}"
        if (p, i) in ev.shapes:
            violation("row_shape", k, i, a, f"{where}: row shape {ev.shapes[p, i]}")
            continue
        if negative[p, i]:
            violation("row_negative", k, i, a, f"{where}: negative entry {ev.low[p, i]:.3e}")
        if off_mass[p, i]:
            violation("row_mass", k, i, a, f"{where}: row mass {float(ev.mass[p, i])!r}")
        if not np.isfinite(ev.costs[p, i]):
            violation("cost", k, i, a, f"{where}: non-finite stage cost")

    terminal = evaluate(model, n, laws, np.ones(laws.shape, bool)).costs
    report.checked += terminal.size
    for i, _ in np.argwhere(~np.isfinite(terminal.T)).tolist():
        violation("terminal", n, i, None, f"terminal state {i}: non-finite cost")
    return report
