import dataclasses

import numpy as np
import pytest

from mfctrl.measure import KEY_DECIMALS, DiscreteMeasure
from mfctrl.model import FiniteMFModel
from mfctrl.verify import load_finite  # noqa: F401  (re-exported to the test modules)


def node_key(weights):
    """The key of the DPP node of grid weights: each rounded to ``KEY_DECIMALS`` decimals."""
    return tuple(np.round(weights, KEY_DECIMALS).tolist())


def random_finite_model(rng, n_states, n_actions, horizon):
    """Random mean-field model: softmax kernels and costs coupled to the
    state/action means, so rows stay strictly stochastic for every law."""
    states = np.linspace(-1.0, 1.0, n_states).reshape(-1, 1)
    actions = np.linspace(0.0, 1.0, n_actions).reshape(-1, 1)
    base = rng.normal(size=(horizon, n_states, n_actions, n_states))
    wmu = 0.8 * rng.normal(size=(horizon, n_states, n_actions, n_states))
    wlam = 0.8 * rng.normal(size=(horizon, n_states, n_actions, n_states))
    xs, acts = states[:, 0], actions[:, 0]
    c = rng.normal(size=7)
    t = rng.normal(size=4)
    eye = np.eye(1)

    def kernel(k, i, mu, a, lam):
        logits = (base[k, i, a] + wmu[k, i, a] * float(mu.mean()[0])
                  + wlam[k, i, a] * float(lam.mean()[0]))
        w = np.exp(logits - logits.max())
        return w / w.sum()

    def stage_cost(k, i, mu, a, lam):
        mbar = float(mu.mean()[0])
        lbar = float(lam.mean()[0])
        return (c[0] * xs[i] ** 2 + c[1] * acts[a] ** 2 + c[2] * xs[i] * mbar
                + c[3] * acts[a] * lbar + c[4] * mu.variance_form(eye)
                + c[5] * xs[i] + c[6] * mbar ** 2)

    def terminal_cost(i, mu):
        return (t[0] * xs[i] ** 2 + t[1] * xs[i] * float(mu.mean()[0])
                + t[2] * mu.variance_form(eye) + t[3] * float(mu.mean()[0]))

    return FiniteMFModel(states, actions, horizon, kernel, stage_cost, terminal_cost)


def random_classical_model(rng, n_states, n_actions, horizon):
    """Random model with no mean-field interaction (table kernel, plain costs)."""
    states = np.linspace(-1.0, 1.0, n_states).reshape(-1, 1)
    actions = np.linspace(0.0, 1.0, n_actions).reshape(-1, 1)
    rows = rng.dirichlet(np.ones(n_states), size=(horizon, n_states, n_actions))
    xs, acts = states[:, 0], actions[:, 0]
    c = rng.normal(size=3)
    t = rng.normal(size=2)

    def kernel(k, i, mu, a, lam):
        return rows[k, i, a]

    def stage_cost(k, i, mu, a, lam):
        return c[0] * xs[i] ** 2 + c[1] * acts[a] ** 2 + c[2] * xs[i]

    def terminal_cost(i, mu):
        return t[0] * xs[i] ** 2 + t[1] * xs[i]

    return FiniteMFModel(states, actions, horizon, kernel, stage_cost, terminal_cost,
                         mean_field_free=True)


def scalar_only(model):
    """``model`` with the same kernel and costs, stripped of their ``batched`` forms,
    so every evaluation goes through the scalar adapter."""
    def plain(component):
        return lambda *args: component(*args)
    return dataclasses.replace(model, kernel=plain(model.kernel),
                               stage_cost=plain(model.stage_cost),
                               terminal_cost=plain(model.terminal_cost))


def random_initial_law(rng, model):
    return DiscreteMeasure(model.states, rng.dirichlet(np.ones(model.n_states)))


@pytest.fixture
def rng():
    return np.random.default_rng(123)
