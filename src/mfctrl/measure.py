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

import reprlib
from dataclasses import dataclass, fields
from functools import reduce
from operator import iadd

import numpy as np

MERGE_TOL = 1e-9        # max-norm radius for support dedup-merge
WEIGHT_FLOOR = 1e-15    # weights below this are pruned, remainder renormalized
MASS_TOL = 1e-12        # tolerance on total mass
SYM_TOL = 1e-10         # symmetry tolerance of matrix arguments, here and in lq, moments
KEY_DECIMALS = 12       # weight quantization of the DPP node keys
REPR_CHARS = 100        # the longest value an error message quotes

_REPR = reprlib.Repr()
_REPR.maxlevel, _REPR.maxstring, _REPR.maxother = 3, 60, 60


def short_repr(value) -> str:
    """``repr(value)`` if short, else the start of its ``reprlib`` form, which
    elides deep nesting and long containers and strings: an error message
    quoting a JSON value stays one short line."""
    text = _REPR.repr(value)    # reprlib also sorts dict keys, so it serves only when it elides
    return repr(value) if len(text) <= REPR_CHARS and "..." not in text else text[:REPR_CHARS]


def as_integer(value, what) -> int:
    """``value`` as an int. JSON integers and integral floats pass; other
    numbers, bools and strings raise ``ValueError``, never truncated."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {short_repr(value)}")
    return int(value)


def _numbers(value, what) -> np.ndarray:
    """``value``, a JSON number or nested lists of them, as a float array of
    the shape of its nesting.  Each level is checked in one flat pass: every
    row's length, then every leaf's type, which must be ``int`` or ``float``
    (no bool, string or null)."""
    shape, level = [], [value]
    while (kinds := set(map(type, level))) == {list}:
        lengths = set(map(len, level))
        if len(lengths) > 1:
            raise ValueError(f"{what} has rows of lengths {sorted(lengths)}")
        shape.append(lengths.pop())
        level = reduce(iadd, level, [])   # one list.extend per row
    if not kinds <= {int, float}:
        bad = next(v for v in level if type(v) not in (int, float))
        raise ValueError(f"{what} must hold only numbers, got {short_repr(bad)}")
    return np.array(level, dtype=float).reshape(shape)


# The rank of each array of the finite JSON readers; an empty list passes, for its reader to name
_RANKS = {"states": 2, "actions": 2, "support": 2, "domain": 2, "values": 2, "weights": 1}


def _ranked(payload: dict, name: str, what: str) -> np.ndarray:
    """:func:`_numbers` of ``payload[name]``, of the rank ``_RANKS[name]``."""
    arr = _numbers(payload[name], what)
    if arr.ndim != _RANKS[name] and arr.shape != (0,):
        due = "a list of points" if _RANKS[name] == 2 else "a flat list of numbers"
        raise ValueError(f"{what} must be {due}, got {short_repr(payload[name])}")
    return arr


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only in place: how a record or an engine's result keeps an array."""
    arr.setflags(write=False)
    return arr


def read_only_copy(value) -> np.ndarray:
    """A read-only float64 copy of ``value``: the one way a value record keeps an array."""
    return read_only(np.array(value, dtype=float))


def array_fields(record) -> dict:
    """The fields of the dataclass ``record`` by name."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


class ValueRecord:
    """Base of the frozen dataclasses that own their arrays: ``__post_init__`` stores a
    :func:`read_only_copy` of each array ``_arrays()`` returns by field name, so no record
    aliases or freezes its caller's array; ``_arrays()`` checks them, by default all fields."""

    __slots__ = ()
    _arrays = array_fields

    def __post_init__(self):
        for name, value in self._arrays().items():
            object.__setattr__(self, name, read_only_copy(value))


class ArrayRecord(ValueRecord):
    """A value record of arrays alone, whose JSON form holds each as nested lists."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {name: value.tolist() for name, value in array_fields(self).items()}


def _as_points(points) -> np.ndarray:
    """Coerce scalars / vectors / (n, d) data to a float array of shape (n, d)."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim > 2:
        raise ValueError(f"points must be at most 2-dimensional, got shape {arr.shape}")
    return arr if arr.ndim == 2 else arr.reshape(-1, 1)


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


@dataclass(frozen=True, eq=False)
class DiscreteMeasure(ArrayRecord):
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
        On non-finite points or weights, negative weights, mass away from
        one, or shape mismatch.
    """

    # not slots=True: on Python 3.11 the class it copies leaves the frozen
    # __setattr__ raising TypeError, not AttributeError, for a name not a field
    __slots__ = ("support", "weights")
    support: np.ndarray
    weights: np.ndarray

    def _arrays(self) -> dict:
        pts = _as_points(self.support)
        wts = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(pts) != len(wts):
            raise ValueError(f"{len(pts)} support points but {len(wts)} weights")
        if pts.size == 0:
            raise ValueError("a measure needs at least one support point, "
                             "with at least one coordinate")
        if not (np.isfinite(pts).all() and np.isfinite(wts).all()):
            raise ValueError("support points and weights must be finite")
        if np.any(wts < -MASS_TOL):
            raise ValueError(f"negative weight {wts.min():.3e}")
        wts = np.clip(wts, 0.0, None)
        total = wts.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        pts, wts = _merge_points(pts, wts)
        keep = wts >= WEIGHT_FLOOR   # not all of them: they sum to 1 within MASS_TOL
        if not keep.all():
            pts, wts = pts[keep], wts[keep]
        return {"support": pts, "weights": wts / wts.sum()}

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def __len__(self) -> int:
        return len(self.weights)

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
        return self.weights @ self.support

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
        return float(np.einsum("i,ij,jk,ik->", self.weights, self.support, lam, self.support))

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
        centered = self.support - m
        return np.einsum("i,ij,ik->jk", self.weights, centered, centered)

    def mass_at(self, point) -> float:
        """Total weight within ``MERGE_TOL`` (max-norm) of ``point``."""
        p = _as_point(point)
        hit = np.max(np.abs(self.support - p), axis=1) <= MERGE_TOL
        return float(self.weights[hit].sum())

    def weights_on_grid(self, grid: np.ndarray) -> np.ndarray:
        """Full weight vector over ``grid`` rows (zeros off the support)."""
        grid = _as_points(grid)
        out = np.zeros(len(grid))
        idx = match_indices(self.support, grid)
        out[idx] = self.weights
        return out

    # -- serialization ------------------------------------------------------------
    @classmethod
    def from_json(cls, payload: dict) -> "DiscreteMeasure":
        return cls(*(_ranked(payload, name, f"field {name!r}") for name in ("support", "weights")))


def grid_laws_json(grid: np.ndarray, rows) -> list:
    """``[DiscreteMeasure(grid, w).to_json() for w in rows]``, for weight rows
    ``w`` over a grid of distinct points that each sum to one within
    ``MASS_TOL``, without building the measures: the points in ``np.lexsort``
    order, weights below ``WEIGHT_FLOOR`` dropped and the rest divided by
    their sum, which is taken over each row's kept weights alone, as the
    measure takes it."""
    order = np.lexsort(grid.T[::-1])
    points = grid[order].tolist()
    laws = []
    for w in rows:
        w = w[order]
        keep = w >= WEIGHT_FLOOR
        kept = w[keep]
        laws.append({"support": points if len(kept) == len(w) else
                     [p for p, k in zip(points, keep.tolist()) if k],
                     "weights": (kept / kept.sum()).tolist()})
    return laws


class NotOnGrid(ValueError):
    """Raised by :func:`match_indices`; ``point`` is the first point not found, as a list."""

    def __init__(self, point):
        super().__init__(f"point {point} is not on the grid")
        self.point = point


def match_indices(points: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Index of each point inside ``grid``: the first grid row within MERGE_TOL
    in max-norm.

    One comparison of every point with every row, so it holds ``n * G * d``
    floats. Raises :class:`NotOnGrid` naming the first point that is absent
    from the grid.
    """
    points = _as_points(points)
    grid = _as_points(grid)
    hits = np.max(np.abs(points[:, None, :] - grid[None, :, :]), axis=2) <= MERGE_TOL
    found = hits.any(axis=1)
    if not found.all():
        raise NotOnGrid(points[np.argmin(found)].tolist())
    return hits.argmax(axis=1)


@dataclass(frozen=True, eq=False, repr=False)
class TabularMap(ArrayRecord):
    """Total map from a finite point set to action points in ``R^m``.

    Parameters
    ----------
    domain : array-like, shape (n, d)
        Ordered domain points (a measure support or a model state grid).
    values : array-like, shape (n, m)
        One action point per domain point.
    """

    __slots__ = ("domain", "values")   # as in DiscreteMeasure
    domain: np.ndarray
    values: np.ndarray

    def _arrays(self) -> dict:
        dom, val = _as_points(self.domain), _as_points(self.values)
        if len(dom) != len(val):
            raise ValueError(f"{len(dom)} domain points but {len(val)} values")
        for name, arr in (("domain", dom), ("values", val)):
            if not np.isfinite(arr).all():
                raise ValueError(f"map {name} must be finite")
        return {"domain": dom, "values": val}

    def _indices(self, points) -> np.ndarray:
        try:
            return match_indices(points, self.domain)
        except NotOnGrid as exc:
            raise ValueError(f"map is not defined at point {exc.point}") from None

    def index_of(self, point) -> int:
        """Index of the first domain point within MERGE_TOL of ``point``."""
        return int(self._indices(_as_point(point)[None, :])[0])

    def __call__(self, point) -> np.ndarray:
        return self.values[self.index_of(point)]

    def at(self, points) -> np.ndarray:
        """Values at each of ``points`` (shape ``(n, m)``), by the rule of :meth:`index_of`."""
        return self.values[self._indices(points)]

    @classmethod
    def from_json(cls, payload: dict) -> "TabularMap":
        return cls(*(_ranked(payload, name, f"field {name!r}") for name in ("domain", "values")))


def _row_faults(low, mass):
    """The kernel row check, by each row's least entry and entry sum: (an entry
    below ``-MASS_TOL``, a mass not within ``MASS_TOL`` of 1, NaN included)."""
    return low < -MASS_TOL, ~(np.abs(mass - 1.0) <= MASS_TOL)


def image_measure(mu: DiscreteMeasure, policy: TabularMap) -> DiscreteMeasure:
    """Distribution of the action when the state has law ``mu``.

    Weights of support points mapped to the same action are merged.
    """
    return DiscreteMeasure(policy.at(mu.support), mu.weights)


def _feedback(mu: DiscreteMeasure, policy: TabularMap, model):
    """Grid indices of the support of ``mu`` in ``model.states``, the action
    law under ``policy``, and the grid indices of the actions in ``model.actions``."""
    state_idx = match_indices(mu.support, model.states)
    actions = policy.at(mu.support)
    return state_idx, DiscreteMeasure(actions, mu.weights), match_indices(actions, model.actions)


def pushforward(mu: DiscreteMeasure, policy: TabularMap, model, stage: int) -> DiscreteMeasure:
    """One-step update of the state law under a feedback map and the model's kernel.

    The next law mixes the kernel rows with the current weights; the kernel
    sees the current law and the action law, so the update is nonlinear in
    ``mu`` in general.

    Parameters
    ----------
    mu : DiscreteMeasure
        Current law, supported on ``model.states``.
    policy : TabularMap
        Feedback map, total on the support of ``mu``.
    model : FiniteMFModel
        Gives the grids ``states`` and ``actions`` and the row-stochastic
        ``kernel(stage, state_index, mu, action_index, lam)`` over ``states``
        (see :mod:`mfctrl.model`).
    stage : int
        Time index passed through to the kernel.
    """
    state_idx, lam, action_idx = _feedback(mu, policy, model)
    n_states = len(model.states)
    new_weights = np.zeros(n_states)
    for w, i, a in zip(mu.weights, state_idx, action_idx):
        row = np.asarray(model.kernel(stage, int(i), mu, int(a), lam), dtype=float)
        if row.shape != (n_states,) or any(_row_faults(row.min(), row.sum())):
            raise ValueError(f"kernel row is not a probability vector at stage {stage}, "
                             f"state index {int(i)}")
        new_weights += w * np.clip(row, 0.0, None)
    return DiscreteMeasure(model.states, new_weights / new_weights.sum())
