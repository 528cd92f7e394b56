"""The value records own their arrays, the engines' results are frozen, and the
package exports work as the README shows.

Each record keeps a read-only float64 copy of every array it is given: building
one leaves the caller's array writable and unchanged, a later write to that
array does not reach the record, and no field can be assigned.  An engine's
result freezes the arrays it builds in place.  Records and results alike compare
by identity, so ``==`` never compares arrays.
"""

import dataclasses
import os
import re

import numpy as np
import pytest

from mfctrl import dpp
from mfctrl.lq import (
    AffinePolicy,
    ExplicitControls,
    mean_variance_closed_form,
    mean_variance_model,
    optimal_policy,
    solve_riccati,
)
from mfctrl.measure import DiscreteMeasure, TabularMap
from mfctrl.model import FiniteMFModel
from mfctrl.moments import GaussianState
from mfctrl.particles import simulate
from mfctrl.verify import load_finite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _finite_model(states):
    return FiniteMFModel(states, [[0.0], [1.0]], 1, lambda k, i, mu, a, lam: np.eye(2)[i],
                         lambda k, i, mu, a, lam: 0.0, lambda i, mu: 0.0)


# record name: (the caller's array, the field it fills, the record built from it)
RECORDS = {
    "DiscreteMeasure": (np.array([[0.0], [1.0]]), "support",
                        lambda a: DiscreteMeasure(a, [0.5, 0.5])),
    "TabularMap": (np.array([[0.0], [1.0]]), "domain",
                   lambda a: TabularMap(a, [[1.0], [0.0]])),
    "FiniteMFModel": (np.array([[0.0], [1.0]]), "states", _finite_model),
    "LQModel": (np.ones((2, 1, 1)), "drift_state",
                lambda a: dataclasses.replace(mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0),
                                              drift_state=a)),
    "GaussianState": (np.array([0.5, -0.5]), "mean", lambda a: GaussianState(a, np.eye(2))),
    "RiccatiSolution": (np.array(mean_variance_closed_form(1.0, 0.5, 1.0, 1.0, 2).var_weight),
                        "var_weight",
                        lambda a: dataclasses.replace(
                            mean_variance_closed_form(1.0, 0.5, 1.0, 1.0, 2), var_weight=a)),
    "AffinePolicy": (np.full((2, 1, 1), 0.5), "gain_state",
                     lambda a: AffinePolicy(a, np.zeros((2, 1, 1)), np.zeros((2, 1)))),
    "ExplicitControls": (np.full((2, 1, 1), 0.5), "feedback",
                         lambda a: ExplicitControls(a, np.zeros((2, 1)), np.zeros((3, 1)))),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_owns_read_only_copies_of_its_arrays(name):
    given, field, build = RECORDS[name]
    before = given.copy()
    record = build(given)
    kept = getattr(record, field).copy()
    assert given.flags.writeable
    np.testing.assert_array_equal(given, before)

    given += 1.0   # the caller's array is still its own
    np.testing.assert_array_equal(getattr(record, field), kept)

    arrays = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)
              if isinstance(getattr(record, f.name), np.ndarray)}
    assert field in arrays
    for value in arrays.values():
        assert not value.flags.writeable and value.dtype == np.float64
        assert not np.shares_memory(value, given)
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, given)
    # compared by identity: a record built from equal arrays is another record
    assert (record == record) is True
    assert (record != build(given)) is True


def _solve(seed):
    # the DPP draws nothing: every run is the same solve
    return dpp.solve(*load_finite("finite_mean_reverting.json"))


def _simulate(seed):
    model = mean_variance_model(1.0, 0.5, 1.0, 1.0, 2, 1.0)
    return simulate(model, optimal_policy(model, solve_riccati(model)), 64, seed, keep_clouds=True)


# result name: a run of its engine at a seed
RESULTS = {
    "SolveResult": _solve,
    "SimulationResult": _simulate,
    "ParticleCloud": lambda seed: _simulate(seed).clouds[0],
}


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_an_engine_result_is_frozen_with_read_only_arrays(name):
    run = RESULTS[name]
    result = run(7)
    arrays = []
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        items = value if isinstance(value, list) else [value]
        arrays += [item for item in items if isinstance(item, np.ndarray)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, f.name, value)
    assert arrays
    for value in arrays:
        assert not value.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0
    # two runs of the same seed are two results
    assert (result == run(7)) is False
    assert (result == result) is True


def test_the_readme_library_example_runs_through_the_package_exports():
    # the README's ``from mfctrl import (...)`` resolves each name lazily
    text = open(os.path.join(ROOT, "README.md")).read()
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    assert "from mfctrl import (" in block
    scope = {}
    exec(block, scope)
    model, sol, policy = scope["model"], scope["sol"], scope["policy"]
    assert scope["exact_cost"](model, policy) == pytest.approx(-1.28125, abs=1e-12)
    assert scope["value_at"](sol, 0, (model.initial_mean, model.initial_cov)) == \
        pytest.approx(-1.28125, abs=1e-12)
