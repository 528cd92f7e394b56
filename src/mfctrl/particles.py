"""Seeded N-particle Monte Carlo evaluation of the cost functional.

Particles interact through the empirical measures of the cloud: at each stage
the empirical state law (and the empirical action law) is substituted for the
theoretical marginals in the dynamics and the costs.  An alternate
``oracle-law`` closure substitutes the exact propagated moments instead,
isolating pure sampling error.

Randomness is counter-based: every draw comes from a Philox generator keyed
by ``(seed, stream)`` where the stream id encodes its role (stage noise,
initial-law component, kernel draws).  Particle ``i`` always gets draw ``i``
of a stream, also when the draws are made block by block, so trajectories are
bit-identical for a given ``(seed, n_particles)`` regardless of scheduling.

The linear-quadratic cloud is a ``(d, N)`` array.  Each stage folds the affine
policy into its coefficients and makes one pass over the cloud in blocks of
``_BLOCK`` particles: one matrix product per block gives the costs and the
step, and stage moments are combined from per-block moments in block order.
Every product runs on the caller.

Both passes draw their blocks through one pipeline: one worker thread draws up
to ``_AHEAD`` blocks ahead of the one in use, and a caller that finds its block
not done draws the last queued block the worker has not started itself.  A
block's values depend only on ``(seed, stream, start, count)``, so which thread
draws it changes no byte.

A finite-model cloud is the grid index of each particle.  Each stage
evaluates the kernel rows and costs of the stage's law (the empirical one, or
the oracle law stepped like the DPP engine's) at the states present in one
:func:`~mfctrl.model.evaluate` call, then draws the moves block by block;
stage moments come from the state counts.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice
from typing import Optional, Union

import numpy as np

from .lq import AffinePolicy, LQModel
from .measure import DiscreteMeasure, TabularMap, match_indices
from .model import FiniteMFModel, evaluate
from .moments import exact_trajectory

_STREAM_STAGE_NOISE = 0          # + stage
_STREAM_INIT_COMPONENT = 2**32   # + coordinate index
_STREAM_INIT_DISCRETE = 2**33
_STREAM_KERNEL = 2**34           # + stage

_BLOCK = 2**16   # particles per block of an LQ pass; a multiple of 4
_CHUNK = 2**14   # columns per matrix product, small enough for OpenBLAS to run on one thread
_AHEAD = 2       # draws queued on the worker past the one being returned


def _raw(seed: int, stream: int, count: int, start: int) -> np.ndarray:
    if start < 0 or start % 4:
        raise ValueError(f"stream start must be a nonnegative multiple of 4, got {start}")
    gen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    gen.advance(start // 4)   # one counter step yields four outputs
    return gen.random_raw(count)


def uniforms(seed: int, stream: int, count: int, *, start: int = 0) -> np.ndarray:
    """Deterministic uniforms in (0, 1): draws ``start`` to ``start + count`` of
    the (seed, stream) counter stream; ``start`` must be a multiple of 4."""
    bits = _raw(seed, stream, count, start) >> np.uint64(11)
    return (bits.astype(np.float64) + 0.5) * 2.0**-53


def normals(seed: int, stream: int, count: int, *, start: int = 0) -> np.ndarray:
    """Deterministic standard normals via the inverse CDF of the uniforms."""
    from scipy.special import ndtri   # here, so a cold start without Gaussian draws skips SciPy
    return ndtri(uniforms(seed, stream, count, start=start))


@dataclass
class ParticleCloud:
    """Positions of an interacting particle system at one stage."""

    positions: np.ndarray   # (N, d)
    stage: int
    seed: int


@dataclass
class SimulationResult:
    estimate: float
    std_error: float
    n_particles: int
    seed: int
    closure: str
    stage_means: np.ndarray       # (n+1, d)
    stage_variances: np.ndarray   # (n+1, d), per-coordinate sample variances
    clouds: Optional[list] = None

    def to_json(self) -> dict:
        return {
            "estimate": float(self.estimate),
            "std_error": float(self.std_error),
            "n_particles": int(self.n_particles),
            "seed": int(self.seed),
            "closure": self.closure,
            "stage_means": self.stage_means.tolist(),
            "stage_variances": self.stage_variances.tolist(),
        }


def _blocks(x: np.ndarray):
    """``(start, view)`` of each block of particles (the last axis) of ``x``, in order."""
    for start in range(0, x.shape[-1], _BLOCK):
        yield start, x[..., start:start + _BLOCK]


def _ahead(pool, fn, calls):
    """``fn(*args)`` for each ``args`` of ``calls``, in order.  While one result
    is returned, the next ``_AHEAD`` calls are queued on ``pool``; a caller that
    finds its call not done runs the last queued call that the worker has not
    started, then waits."""
    calls, queue = iter(calls), deque()
    while True:
        queue.extend((args, pool.submit(fn, *args))
                     for args in islice(calls, _AHEAD + 1 - len(queue)))
        if not queue:
            return
        if not queue[0][1].done():
            for i in reversed(range(len(queue))):
                args, future = queue[i]
                if future.cancel():   # succeeds only before the worker starts it
                    queue[i] = args, _called(fn, args)
                    break
        yield queue.popleft()[1].result()


def _called(fn, args) -> Future:
    """A done future of ``fn(*args)``, run on the calling thread; an error is
    raised by ``result()``, in the order of the calls, as from the worker."""
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ b`` into ``out``, in column chunks of ``_CHUNK`` (each entry is unchanged)."""
    for start in range(0, b.shape[1], _CHUNK):
        np.matmul(a, b[:, start:start + _CHUNK], out=out[:, start:start + _CHUNK])
    return out


def _fold(moments, xb: np.ndarray):
    """Chan's update of the running ``(count, mean, M2)`` by the block ``xb``."""
    size, mean = xb.shape[1], xb.mean(axis=1)
    dev = xb - mean[:, None]
    m2 = np.square(dev, out=dev).sum(axis=1)
    if moments is None:
        return size, mean, m2
    count, prev_mean, prev_m2 = moments
    total, delta = count + size, mean - prev_mean
    return (total, prev_mean + delta * (size / total),
            prev_m2 + m2 + np.square(delta) * (count * size / total))


def _initial_draw(law: DiscreteMeasure, u: np.ndarray) -> np.ndarray:
    """Support indices drawn from ``law`` by the uniforms ``u``."""
    return np.minimum(np.searchsorted(np.cumsum(law.weights), u, side="right"), len(law) - 1)


def _sample_initial_lq(model: LQModel, n: int, seed: int, draws):
    """The initial ``(d, N)`` cloud and its moments; ``draws`` yields each block's normals."""
    x, mu, moments = np.empty((model.state_dim, n)), model.initial_measure, None
    evals, evecs = np.linalg.eigh(model.initial_cov)
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    for start, xb in _blocks(x):
        if mu is not None:
            u = uniforms(seed, _STREAM_INIT_DISCRETE, xb.shape[1], start=start)
            xb[...] = mu.support.T[:, _initial_draw(mu, u)]
        else:
            _matmul(root, np.array([next(draws) for _ in x]), xb)
            xb += model.initial_mean[:, None]
        moments = _fold(moments, xb)
    return x, moments


def _finalize(costs: np.ndarray, means, variances, n: int, seed: int,
              closure: str, clouds) -> SimulationResult:
    estimate = float(np.sum(costs) / n)   # fixed index order, pairwise summation
    if n >= 2:
        se = float(np.std(costs, ddof=1) / np.sqrt(n))
    else:
        se = float("nan")
    return SimulationResult(estimate, se, n, seed, closure,
                            np.array(means), np.array(variances), clouds)


def _stage_coefficients(model: LQModel, policy: AffinePolicy, k: int, mean: np.ndarray):
    """Stage ``k`` at the reference ``mean``, with ``a = G x + a0``: ``W = [A + B G;
    S + D G; Q + G'RG; (l + 2 G'R a0)']``, the cost constant, and the drift and
    noise-scale offsets as one column; the terminal stage has ``W = [Q; l']``."""
    if k == model.horizon:
        return (np.vstack([model.terminal_state, model.terminal_linear]),
                mean @ model.terminal_state_mean @ mean + model.terminal_linear_mean @ mean,
                None)
    G, R = policy.gain_state[k], model.cost_control[k]
    abar = policy.mean_action(k, mean)
    a0 = abar - G @ mean
    RG = R @ G
    W = np.vstack([model.drift_state[k] + model.drift_control[k] @ G,
                   model.noise_state[k] + model.noise_control[k] @ G,
                   model.cost_state[k] + G.T @ RG,
                   model.cost_linear[k] + 2.0 * a0 @ RG])
    const = (mean @ model.cost_state_mean[k] @ mean + model.cost_linear_mean[k] @ mean
             + a0 @ R @ a0 + abar @ model.cost_control_mean[k] @ abar)
    offset = (np.vstack([model.drift_state_mean[k], model.noise_state_mean[k]]) @ mean
              + np.vstack([model.drift_control[k], model.noise_control[k]]) @ a0
              + np.vstack([model.drift_control_mean[k], model.noise_control_mean[k]]) @ abar)
    return W, const, offset[:, None]


@np.errstate(over="ignore", invalid="ignore")   # overflow shows as a non-finite result
def _simulate_lq(model: LQModel, policy: AffinePolicy, n: int, seed: int,
                 closure: str, keep_clouds: bool) -> SimulationResult:
    if policy.horizon != model.horizon:
        raise ValueError("policy and model horizons differ")
    if policy.state_dim != model.state_dim or policy.control_dim != model.control_dim:
        raise ValueError("policy dimensions do not match the model")
    oracle = exact_trajectory(model, policy) if closure == "oracle-law" else None
    d = model.state_dim
    costs = np.zeros(n)
    means, variances, clouds = [], [], ([] if keep_clouds else None)
    # (stream, start) of each block's normals, in the order the pass uses them
    starts, gaussian = range(0, n, _BLOCK), model.initial_measure is None
    calls = chain(((_STREAM_INIT_COMPONENT + j, s) for s in starts for j in range(d) if gaussian),
                  ((_STREAM_STAGE_NOISE + k, s) for k in range(model.horizon) for s in starts))
    scratch = np.empty((3 * d + 1, min(n, _BLOCK)))
    with ThreadPoolExecutor(1) as pool:   # draws each block's normals during the block before
        draws = _ahead(pool, lambda stream, start: normals(
            seed, stream, min(_BLOCK, n - start), start=start), calls)
        x, moments = _sample_initial_lq(model, n, seed, draws)
        for k in range(model.horizon + 1):
            _, mean, m2 = moments
            means.append(mean)
            variances.append(m2 / (n - 1) if n > 1 else np.zeros(d))
            if keep_clouds:
                clouds.append(ParticleCloud(x.T.copy(), k, seed))
            ref = oracle[k].mean if oracle is not None else mean
            W, const, offset = _stage_coefficients(model, policy, k, ref)
            for start, xb in _blocks(x):
                y = _matmul(W, xb, scratch[:len(W), :xb.shape[1]])
                quad = np.multiply(y[-d - 1:-1], xb, out=y[-d - 1:-1])
                costs[start:start + xb.shape[1]] += quad.sum(axis=0) + (y[-1] + const)
                if offset is not None:
                    # x <- (drift + drift offset) + (scale + scale offset) * eps, in place
                    step = y[:2 * d]
                    step += offset
                    step[d:] *= next(draws)
                    np.add(step[:d], step[d:], out=xb)
                    moments = _fold(moments if start else None, xb)   # restarts at block 0
    return _finalize(costs, means, variances, n, seed, closure, clouds)


@np.errstate(over="ignore", invalid="ignore")   # overflow shows as a non-finite result
def _simulate_finite(model: FiniteMFModel, policy: TabularMap, n: int, seed: int,
                     closure: str, keep_clouds: bool,
                     initial_law: Optional[DiscreteMeasure]) -> SimulationResult:
    if initial_law is None:
        raise ValueError("finite-model simulation needs an initial law")
    action = model.policy_action_indices(policy)[None, :]
    states = model.states
    support_to_grid = match_indices(initial_law.support, states)
    idx = np.empty(n, dtype=np.intp)      # grid index of each particle
    law = initial_law.weights_on_grid(states)[None, :]   # the oracle law
    costs = np.zeros(n)
    means, variances, clouds = [], [], ([] if keep_clouds else None)
    # (stream, start) of each block's uniforms, in the order the pass uses them
    starts = range(0, n, _BLOCK)
    calls = chain(((_STREAM_INIT_DISCRETE, s) for s in starts),
                  ((_STREAM_KERNEL + k, s) for k in range(model.horizon) for s in starts))
    with ThreadPoolExecutor(1) as pool:   # draws each block's uniforms ahead of it
        draws = _ahead(pool, lambda stream, start: uniforms(
            seed, stream, min(_BLOCK, n - start), start=start), calls)
        for start, block in _blocks(idx):
            block[...] = support_to_grid[_initial_draw(initial_law, next(draws))]
        for k in range(model.horizon + 1):
            counts = np.bincount(idx, minlength=model.n_states)
            mean = counts @ states / n
            means.append(mean)
            variances.append(counts @ np.square(states - mean) / (n - 1) if n > 1
                             else np.zeros(states.shape[1]))
            if keep_clouds:
                clouds.append(ParticleCloud(states[idx], k, seed))
            if closure == "empirical":
                law = counts[None, :] / n
            # the oracle law's support is evaluated too, to step it
            ev = evaluate(model, k, law, (counts > 0) | (law > 0), action).checked()
            table = ev.costs[0]
            if k < model.horizon:
                # a particle moves to the number of entries <= u of its row's CDF without
                # the last entry: searchsorted(cdf, u, side="right") capped at S - 1
                entries = np.cumsum(ev.rows[0], axis=-1).T[:-1].copy()   # entry j of every CDF
            for start, block in _blocks(idx):
                costs[start:start + len(block)] += table[block]
                if k < model.horizon:
                    u = next(draws)
                    moved = np.zeros(len(block), dtype=np.intp)
                    for entry in entries:
                        moved += entry[block] <= u
                    block[...] = moved
            if closure == "oracle-law" and k < model.horizon:
                law = ev.push()
    return _finalize(costs, means, variances, n, seed, closure, clouds)


def simulate(model: Union[LQModel, FiniteMFModel], policy, n_particles: int,
             seed: int, closure: str = "empirical", keep_clouds: bool = False,
             initial_law: Optional[DiscreteMeasure] = None) -> SimulationResult:
    """Simulate the N-particle system and estimate the cost functional.

    Parameters
    ----------
    model : LQModel or FiniteMFModel
    policy : AffinePolicy (linear-quadratic) or TabularMap (finite)
    n_particles : int
        Cloud size; standard errors need at least 2.
    seed : int
        Stream key; identical ``(seed, n_particles)`` reproduce trajectories
        bit for bit.
    closure : "empirical" or "oracle-law"
        What stands in for the theoretical marginals: the cloud's empirical
        measures, or the exactly propagated law.
    keep_clouds : bool
        Return a copy of every stage's cloud in ``clouds`` (``None`` when
        off); at large ``n_particles`` the copies dominate memory.
    initial_law : DiscreteMeasure, optional
        Required for finite models; ignored for LQ models (their initial law
        is part of the model).
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be a nonnegative 64-bit integer, got {seed}")
    if closure not in ("empirical", "oracle-law"):
        raise ValueError(f"unknown closure {closure!r}")
    if isinstance(model, LQModel):
        if not isinstance(policy, AffinePolicy):
            raise TypeError("linear-quadratic models need an AffinePolicy")
        return _simulate_lq(model, policy, n_particles, seed, closure, keep_clouds)
    if isinstance(model, FiniteMFModel):
        if not isinstance(policy, TabularMap):
            raise TypeError("finite models need a TabularMap policy")
        return _simulate_finite(model, policy, n_particles, seed, closure,
                                keep_clouds, initial_law)
    raise TypeError(f"unsupported model type {type(model).__name__}")
