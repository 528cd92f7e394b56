"""Finite discrete probability measures and feedback maps on point sets.

A :class:`DiscreteMeasure` is an immutable probability measure supported on
finitely many points of ``R^d``.  It provides the moment functionals used
throughout the package (mean, quadratic moment, variance form), the image
measure of a tabular feedback map, and the one-step pushforward of the
measure through a controlled transition kernel.

Conventions
-----------
* Support points closer than ``MERGE_TOL`` in max-norm are merged (weights
  added), so measures have a canonical representation.
* Weights below ``WEIGHT_FLOOR`` are pruned and the remainder renormalized.
* Measures are values: every operation returns a fresh measure.
"""

from __future__ import annotations

import json
import numpy as np

MERGE_TOL = 1e-9        # max-norm radius for support dedup-merge
WEIGHT_FLOOR = 1e-15    # weights below this are pruned, remainder renormalized
MASS_TOL = 1e-12        # tolerance on total mass
SYM_TOL = 1e-10         # tolerance for symmetric matrix arguments
KEY_DECIMALS = 12       # weight quantization for hashable keys


def _as_points(points) -> np.ndarray:
    """Coerce scalars / vectors / (n, d) data to a float array of shape (n, d)."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ValueError(f"points must be at most 2-dimensional, got shape {arr.shape}")
    return arr


def _as_point(point) -> np.ndarray:
    """Coerce a scalar or a length-d vector to one point, shape ``(d,)``."""
    return np.asarray(point, dtype=float).reshape(-1)


def _merge_points(points: np.ndarray, weights: np.ndarray):
    """Merge support points within MERGE_TOL (max-norm), adding their weights.

    Sorts by first coordinate so only a sliding window needs pairwise checks;
    O(n log n) for well-separated clouds.
    """
    order = np.lexsort(points.T[::-1])
    pts, wts = points[order], weights[order]
    out_pts: list[np.ndarray] = []
    out_wts: list[float] = []
    for p, w in zip(pts, wts):
        merged = False
        for j in range(len(out_pts) - 1, -1, -1):
            if p[0] - out_pts[j][0] > MERGE_TOL:
                break
            if np.max(np.abs(p - out_pts[j])) <= MERGE_TOL:
                out_wts[j] += w
                merged = True
                break
        if not merged:
            out_pts.append(p)
            out_wts.append(float(w))
    return np.array(out_pts), np.array(out_wts)


class DiscreteMeasure:
    """Probability measure on a finite set of points in ``R^d``.

    Parameters
    ----------
    support : array-like
        Points, shape ``(n, d)`` (scalars and flat sequences are treated
        as ``d = 1``).
    weights : array-like
        Nonnegative weights summing to one within ``MASS_TOL``.

    Raises
    ------
    ValueError
        On negative weights, mass away from one, or shape mismatch.
    """

    __slots__ = ("_support", "_weights")

    def __init__(self, support, weights):
        pts = _as_points(support)
        wts = np.asarray(weights, dtype=float).reshape(-1)
        if len(pts) != len(wts):
            raise ValueError(f"{len(pts)} support points but {len(wts)} weights")
        if len(pts) == 0:
            raise ValueError("a measure needs at least one support point")
        if np.any(wts < -MASS_TOL):
            raise ValueError(f"negative weight {wts.min():.3e}")
        wts = np.clip(wts, 0.0, None)
        total = wts.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        pts, wts = _merge_points(pts, wts)
        keep = wts >= WEIGHT_FLOOR
        if not keep.all():
            pts, wts = pts[keep], wts[keep]
            if len(wts) == 0:
                raise ValueError("all weights below the pruning floor")
        wts = wts / wts.sum()
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "_support", pts)
        object.__setattr__(self, "_weights", wts)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    # -- basic accessors -----------------------------------------------------
    @property
    def support(self) -> np.ndarray:
        return self._support

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def dim(self) -> int:
        return self._support.shape[1]

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        return f"DiscreteMeasure({len(self)} points, d={self.dim})"

    # -- constructors ----------------------------------------------------------
    @classmethod
    def dirac(cls, point) -> "DiscreteMeasure":
        return cls(_as_point(point)[None, :], [1.0])

    @classmethod
    def uniform(cls, points) -> "DiscreteMeasure":
        pts = _as_points(points)
        return cls(pts, np.full(len(pts), 1.0 / len(pts)))

    # -- moments ---------------------------------------------------------------
    def mean(self) -> np.ndarray:
        """First moment, shape ``(d,)``."""
        return self._weights @ self._support

    def _check_symmetric(self, quad) -> np.ndarray:
        lam = np.asarray(quad, dtype=float)
        if lam.ndim == 0:
            lam = lam.reshape(1, 1)
        if lam.shape != (self.dim, self.dim):
            raise ValueError(f"quadratic form has shape {lam.shape}, expected {(self.dim, self.dim)}")
        if np.max(np.abs(lam - lam.T)) > SYM_TOL:
            raise ValueError("quadratic form is not symmetric")
        return lam

    def _quadratic_moment(self, lam: np.ndarray) -> float:
        return float(np.einsum("i,ij,jk,ik->", self._weights, self._support, lam, self._support))

    def quadratic_moment(self, quad) -> float:
        """``sum_i w_i x_i' Q x_i`` for a symmetric matrix ``Q``."""
        return self._quadratic_moment(self._check_symmetric(quad))

    def variance_form(self, quad) -> float:
        """Quadratic moment minus ``mean' Q mean``; nonnegative for PSD ``Q``."""
        lam = self._check_symmetric(quad)
        m = self.mean()
        return self._quadratic_moment(lam) - float(m @ lam @ m)

    def covariance(self) -> np.ndarray:
        """Second central moment matrix, shape ``(d, d)``."""
        m = self.mean()
        centered = self._support - m
        return np.einsum("i,ij,ik->jk", self._weights, centered, centered)

    def mass_at(self, point) -> float:
        """Total weight within ``MERGE_TOL`` (max-norm) of ``point``."""
        p = _as_point(point)
        hit = np.max(np.abs(self._support - p), axis=1) <= MERGE_TOL
        return float(self._weights[hit].sum())

    # -- hashable keys -----------------------------------------------------------
    def key(self) -> tuple:
        """Quantized key: support rounded to 9, weights to ``KEY_DECIMALS`` decimals."""
        return (
            tuple(map(tuple, np.round(self._support, 9))),
            tuple(np.round(self._weights, KEY_DECIMALS)),
        )

    def key_on_grid(self, grid: np.ndarray) -> tuple:
        """Weights aligned to a fixed grid and rounded to ``KEY_DECIMALS`` decimals.

        The measure must be supported on ``grid`` (within ``MERGE_TOL``).
        """
        return tuple(np.round(self.weights_on_grid(grid), KEY_DECIMALS))

    def weights_on_grid(self, grid: np.ndarray) -> np.ndarray:
        """Full weight vector over ``grid`` rows (zeros off the support)."""
        grid = _as_points(grid)
        out = np.zeros(len(grid))
        idx = match_indices(self._support, grid)
        out[idx] = self._weights
        return out

    # -- serialization ------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "support": [list(map(float, p)) for p in self._support],
            "weights": [float(w) for w in self._weights],
        }

    @classmethod
    def from_json(cls, payload) -> "DiscreteMeasure":
        if isinstance(payload, str):
            payload = json.loads(payload)
        return cls(payload["support"], payload["weights"])


def match_indices(points: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Index of each point inside ``grid`` (max-norm match within MERGE_TOL).

    Raises ``ValueError`` naming the first point that is absent from the grid.
    """
    points = _as_points(points)
    grid = _as_points(grid)
    idx = np.empty(len(points), dtype=int)
    for i, p in enumerate(points):
        hits = np.nonzero(np.max(np.abs(grid - p), axis=1) <= MERGE_TOL)[0]
        if len(hits) == 0:
            raise ValueError(f"point {p.tolist()} is not on the grid")
        idx[i] = hits[0]
    return idx


class TabularMap:
    """Total map from a finite point set to action points in ``R^m``.

    Parameters
    ----------
    domain : array-like, shape (n, d)
        Ordered domain points (a measure support or a model state grid).
    values : array-like, shape (n, m)
        One action point per domain point.
    """

    __slots__ = ("_domain", "_values", "_index")

    def __init__(self, domain, values):
        dom = _as_points(domain)
        val = _as_points(values)
        if len(dom) != len(val):
            raise ValueError(f"{len(dom)} domain points but {len(val)} values")
        dom.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "_domain", dom)
        object.__setattr__(self, "_values", val)
        object.__setattr__(self, "_index", {tuple(np.round(p, 9)): i for i, p in enumerate(dom)})

    def __setattr__(self, name, value):
        raise AttributeError("TabularMap is immutable")

    @property
    def domain(self) -> np.ndarray:
        return self._domain

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def action_dim(self) -> int:
        return self._values.shape[1]

    def __len__(self) -> int:
        return len(self._domain)

    def index_of(self, point) -> int:
        p = _as_point(point)
        i = self._index.get(tuple(np.round(p, 9)))
        if i is not None:
            return i
        # rounding can split near-identical floats across buckets; fall back to a scan
        hits = np.nonzero(np.max(np.abs(self._domain - p), axis=1) <= MERGE_TOL)[0]
        if len(hits) == 0:
            raise ValueError(f"map is not defined at point {p.tolist()}")
        return int(hits[0])

    def __call__(self, point) -> np.ndarray:
        return self._values[self.index_of(point)]

    def to_json(self) -> dict:
        return {
            "domain": [list(map(float, p)) for p in self._domain],
            "values": [list(map(float, v)) for v in self._values],
        }

    @classmethod
    def from_json(cls, payload) -> "TabularMap":
        if isinstance(payload, str):
            payload = json.loads(payload)
        return cls(payload["domain"], payload["values"])


def image_measure(mu: DiscreteMeasure, policy: TabularMap) -> DiscreteMeasure:
    """Distribution of the action when the state has law ``mu``.

    Weights of support points mapped to the same action are merged.
    """
    actions = np.array([policy(p) for p in mu.support])
    return DiscreteMeasure(actions, mu.weights)


def pushforward(mu: DiscreteMeasure, policy: TabularMap, kernel, stage: int) -> DiscreteMeasure:
    """One-step update of the state law under a feedback map and a kernel.

    The next law mixes the kernel rows with the current weights; the kernel
    sees the current law and the action law, so the update is nonlinear in
    ``mu`` in general.

    Parameters
    ----------
    mu : DiscreteMeasure
        Current law, supported on the kernel's state grid.
    policy : TabularMap
        Feedback map, total on the support of ``mu``.
    kernel : TransitionKernel
        Row-stochastic kernel over the state grid (see :mod:`mfctrl.model`).
    stage : int
        Time index passed through to the kernel.
    """
    state_idx = match_indices(mu.support, kernel.states)
    lam = image_measure(mu, policy)
    action_idx = match_indices(
        np.array([policy(p) for p in mu.support]), kernel.actions
    )
    n_states = len(kernel.states)
    new_weights = np.zeros(n_states)
    for w, i, a in zip(mu.weights, state_idx, action_idx):
        row = np.asarray(kernel(stage, int(i), mu, int(a), lam), dtype=float)
        if row.shape != (n_states,) or np.any(row < -MASS_TOL) or abs(row.sum() - 1.0) > MASS_TOL:
            raise ValueError(
                f"kernel row is not a probability vector at stage {stage}, state index {int(i)}"
            )
        new_weights += w * np.clip(row, 0.0, None)
    return DiscreteMeasure(kernel.states, new_weights / new_weights.sum())
