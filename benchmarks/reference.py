"""Reference computations made apart from ``mfctrl``, and the output checks.

Nothing here imports ``mfctrl``.  Finite models are rebuilt on weight vectors
over the state grid from the README's tag formulas and evaluated in batches
with numpy; LQ costs come from a mean/covariance propagation written here;
the mean-variance coefficients from their closed form.  Every ``check_*``
function returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import STAGE_KEYS, all_maps, tree_bound

MATCH_TOL = 1e-9          # max-norm distance at which a point is on a grid
CHECK_TOL = 1e-9          # agreement of figures, relative above 1
SIGMAS = 5.0              # standard errors a Monte Carlo estimate may be off
PERTURB_TRIALS = 3        # random policy directions tried by ``check_lq``
PERTURB_EPS = (1e-2, 1e-1)  # step sizes along each direction


def refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def load_strict(path):
    """Parse a JSON file, refusing the non-standard tokens NaN and Infinity."""
    with open(path) as fh:
        return json.load(fh, parse_constant=refuse_constant)


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= CHECK_TOL * np.maximum(1.0, np.abs(b))))


def _match(points, grid):
    """Index of each point in ``grid`` (max-norm within MATCH_TOL), or None."""
    points = np.asarray(points, dtype=float).reshape(len(points), -1)
    dist = np.max(np.abs(points[:, None, :] - grid[None, :, :]), axis=2)
    hit = dist <= MATCH_TOL
    if not hit.any(axis=1).all():
        return None
    return np.argmax(hit, axis=1)


# ---------------------------------------------------------------------------
# Finite models on weight vectors
# ---------------------------------------------------------------------------

class FiniteReference:
    """Law-space model of a finite scenario, batched over (law, map) pairs.

    ``W`` holds laws as rows of weights over the state grid and ``P`` the
    action index of every state under a feedback map, both of shape (B, S).
    """

    def __init__(self, scenario):
        model = scenario["model"]
        self.X = np.asarray(model["states"], dtype=float)
        self.A = np.asarray(model["actions"], dtype=float)
        self.S, self.M = len(self.X), len(self.A)
        self.n = int(model["horizon"])
        self.kernel = model["kernel"]
        self.stage = model["stage_cost"]
        self.terminal = model["terminal_cost"]
        law = scenario["initial_law"]
        self.w0 = np.zeros(self.S)
        self.w0[_match(law["support"], self.X)] = law["weights"]
        self.x1 = self.X[:, 0]
        self.a1 = self.A[:, 0]

    # -- laws ----------------------------------------------------------------
    def _action_mass(self, W, P):
        """Weight the action law puts on each action, shape (B, M)."""
        return np.stack([(W * (P == a)).sum(axis=1) for a in range(self.M)], axis=1)

    def rows(self, k, W, P):
        """Next-state rows, shape (B, S, S)."""
        tag, prm = self.kernel["tag"], self.kernel.get("params", {})
        B, S = W.shape
        states = np.arange(S)
        if tag == "identity":
            return np.broadcast_to(np.eye(S), (B, S, S)).copy()
        if tag == "table":
            table = np.asarray(prm["rows"], dtype=float)
            if table.ndim == 4:
                table = table[k]
            return table[states[None, :], P]
        mean1 = W @ self.x1
        if tag == "mean_reverting":
            theta, eta, tau = prm.get("theta", 0.5), prm.get("eta", 0.0), prm.get("tau", 1.0)
            target = ((1 - theta) * self.x1[None, :] + theta * mean1[:, None]
                      + eta * self.a1[P])
            logits = -(self.x1[None, None, :] - target[:, :, None]) ** 2 / tau
            e = np.exp(logits - logits.max(axis=2, keepdims=True))
            return e / e.sum(axis=2, keepdims=True)
        if tag == "mean_clamp":
            p = np.clip(mean1[:, None] + prm.get("shift", 0.0) * self.a1[P], 0.0, 1.0)
        elif tag == "first_order":
            g = {k_: prm.get(k_, 0.0) for k_ in ("beta0", "beta_x", "beta_y", "beta_a", "beta_b")}
            p = (g["beta0"] + g["beta_x"] * (states[None, :] == 1) + g["beta_a"] * (P == 1)
                 + g["beta_y"] * W[:, 1:2] + g["beta_b"] * self._action_mass(W, P)[:, 1:2])
        else:
            raise ValueError(f"unknown kernel tag {tag!r}")
        return np.stack([1.0 - p, p], axis=2)

    def _quadratic_state(self, prm, W):
        """State part of the quadratic cost, per state, shape (B, S)."""
        m = W @ self.X
        xx = np.einsum("sd,sd->s", self.X, self.X)
        var = W @ xx - np.einsum("bd,bd->b", m, m)
        per_law = prm.get("qm", 0.0) * np.einsum("bd,bd->b", m, m) + prm.get("qv", 0.0) * var
        return (prm.get("qx", 0.0) * xx[None, :] + per_law[:, None]
                + prm.get("cxm", 0.0) * (m @ self.X.T) + prm.get("lx", 0.0) * self.X.sum(axis=1)[None, :])

    def stage_cost(self, k, W, P):
        """Per-state stage cost, shape (B, S)."""
        tag, prm = self.stage["tag"], self.stage.get("params", {})
        if tag == "zero":
            return np.zeros(W.shape)
        if tag == "quadratic":
            act = self.A[P]                                   # (B, S, q)
            lbar = np.einsum("bs,bsq->bq", W, act)
            return (self._quadratic_state(prm, W)
                    + prm.get("ra", 0.0) * np.einsum("bsq,bsq->bs", act, act)
                    + prm.get("rm", 0.0) * np.einsum("bq,bq->b", lbar, lbar)[:, None]
                    + prm.get("cam", 0.0) * np.einsum("bsq,bq->bs", act, lbar)
                    + prm.get("la", 0.0) * act.sum(axis=2))
        if tag == "fo_pinned":
            a = self.a1[P]
            star = self.a1[np.asarray(prm["pinned"], dtype=int)][None, :]
            mbar = (W @ self.x1)[:, None]
            return (prm["kappa"] * (a - star) ** 2 + prm.get("p_xy", 0.0) * self.x1[None, :] * mbar
                    + prm.get("p_a", 0.0) * a + prm.get("p_ay", 0.0) * a * mbar
                    + prm.get("p_x", 0.0) * self.x1[None, :])
        raise ValueError(f"unknown stage cost tag {tag!r}")

    def terminal_cost(self, W):
        tag, prm = self.terminal["tag"], self.terminal.get("params", {})
        if tag == "zero":
            return np.zeros(W.shape)
        if tag == "quadratic":
            return self._quadratic_state(prm, W)
        if tag == "fo_bilinear":
            mbar = (W @ self.x1)[:, None]
            m2 = (W @ np.einsum("sd,sd->s", self.X, self.X))[:, None]
            x = self.x1[None, :]
            return (prm.get("t_xy", 0.0) * x * mbar + prm.get("t_xx", 0.0) * x ** 2
                    + prm.get("t_yy", 0.0) * m2 + prm.get("t_x", 0.0) * x)
        raise ValueError(f"unknown terminal cost tag {tag!r}")

    def step(self, k, W, P):
        """Lifted stage cost (B,) and next laws (B, S)."""
        cost = np.einsum("bs,bs->b", W, self.stage_cost(k, W, P))
        nxt = np.einsum("bs,bsj->bj", W, np.clip(self.rows(k, W, P), 0.0, None))
        return cost, nxt / nxt.sum(axis=1, keepdims=True)

    # -- oracles -------------------------------------------------------------
    def brute_force_min(self):
        """Minimum total cost over every feedback-map sequence."""
        maps = all_maps(self.S, self.M)
        W, total = self.w0[None, :], np.zeros(1)
        for k in range(self.n):
            B = len(W)
            Wk = np.repeat(W, len(maps), axis=0)
            cost, W = self.step(k, Wk, np.tile(maps, (B, 1)))
            total = np.repeat(total, len(maps)) + cost
        total = total + np.einsum("bs,bs->b", W, self.terminal_cost(W))
        return float(total.min())

    def rollout(self, maps_seq):
        """Total cost and law trajectory (n+1, S) of a map sequence."""
        W, total, traj = self.w0[None, :], 0.0, [self.w0]
        for k, p in enumerate(maps_seq):
            cost, W = self.step(k, W, np.asarray(p, dtype=int)[None, :])
            total += float(cost[0])
            traj.append(W[0])
        total += float(np.einsum("bs,bs->b", W, self.terminal_cost(W))[0])
        return total, np.array(traj)

    def policy_indices(self, payload):
        """Per-state action indices of a ``TabularMap`` JSON on the grids."""
        dom = _match(payload["domain"], self.X)
        act = _match(payload["values"], self.A)
        if dom is None or act is None or len(set(dom.tolist())) != self.S:
            return None
        idx = np.empty(self.S, dtype=int)
        idx[dom] = act
        return idx

    def law_on_grid(self, payload):
        idx = _match(payload["support"], self.X)
        if idx is None:
            return None
        w = np.zeros(self.S)
        np.add.at(w, idx, np.asarray(payload["weights"], dtype=float))
        return w


def check_finite(scenario, out):
    """Check a ``solve-finite`` output against exhaustive enumeration."""
    ref = FiniteReference(scenario)
    v_min = ref.brute_force_min()
    problems = []
    v0 = float(out["v0"])
    if not _close(v0, v_min):
        problems.append(f"v0 {v0!r} differs from the enumerated minimum {v_min!r}")
    bound = tree_bound(ref.S, ref.M, ref.n)
    if not ref.n + 1 <= int(out["tree_size"]) <= bound:
        problems.append(f"tree_size {out['tree_size']} outside [{ref.n + 1}, {bound}]")
    if len(out["policy_sequence"]) != ref.n or len(out["law_trajectory"]) != ref.n + 1:
        return problems + ["policy_sequence or law_trajectory has the wrong length"]
    maps = [ref.policy_indices(p) for p in out["policy_sequence"]]
    if any(m is None for m in maps):
        return problems + ["a policy is not a total map from the state grid to the actions"]
    cost, traj = ref.rollout(maps)
    if not _close(cost, v0):
        problems.append(f"returned policies cost {cost!r}, not v0 {v0!r}")
    laws = [ref.law_on_grid(law) for law in out["law_trajectory"]]
    if any(w is None for w in laws) or not _close(np.array(laws), traj):
        problems.append("law_trajectory differs from the reference rollout")
    return problems


# ---------------------------------------------------------------------------
# Linear-quadratic models
# ---------------------------------------------------------------------------

def mean_variance_closed_form(params):
    """Closed-form value coefficients from r = (sigma^2 + b^2 delta) / sigma^2."""
    g, b, s, dt, n = (params[k] for k in ("gamma", "b", "sigma", "delta", "n"))
    r = (s * s + b * b * dt) / (s * s)
    togo = n - np.arange(n + 1)
    return {"var_weight": (g / 2.0) * r ** (-togo.astype(float)),
            "linear": -np.ones(n + 1),
            "constant": -(r ** togo.astype(float) - 1.0) / (2.0 * g)}


def check_meanvariance(params, out):
    closed = mean_variance_closed_form(params)
    sol = out["solution"]
    problems = []
    for name in ("var_weight", "linear", "constant"):
        got = np.asarray(sol[name], dtype=float).reshape(-1)
        if not _close(got, closed[name]):
            problems.append(f"{name} differs from the closed form")
    if not _close(sol["mean_weight"], np.zeros_like(sol["mean_weight"], dtype=float)):
        problems.append("mean_weight is not zero")
    value = float(-params["x0"] + closed["constant"][0])
    if not _close(out["value_at_initial"], value):
        problems.append(f"value_at_initial {out['value_at_initial']!r} is not {value!r}")
    return problems


def affine_policy(payload):
    return tuple(np.asarray(payload[k], dtype=float) for k in ("gain_state", "gain_mean", "offset"))


def lq_exact_cost(blocks, policy):
    """Exact cost of ``a = G (x - xbar) + Gbar xbar + c`` by moment propagation.

    The deviation from the mean moves by ``B + C G`` in the drift and by
    ``D + H G`` in the noise; the noise also carries the mean-driven vector
    ``(D + Dm) xbar + (H + Hm) abar``.  Returns the cost and the stage means.
    """
    G, Gbar, c = policy
    mean = blocks["initial_mean"].astype(float)
    cov = blocks["initial_cov"].astype(float)
    total, means = 0.0, [mean]
    for k in range(G.shape[0]):
        b = {key: blocks[key][k] for key in STAGE_KEYS}
        abar = Gbar[k] @ mean + c[k]
        ag = G[k] @ cov @ G[k].T
        total += (np.trace(b["cost_state"] @ cov)
                  + mean @ (b["cost_state"] + b["cost_state_mean"]) @ mean
                  + (b["cost_linear"] + b["cost_linear_mean"]) @ mean
                  + np.trace(b["cost_control"] @ ag)
                  + abar @ (b["cost_control"] + b["cost_control_mean"]) @ abar)
        P = b["drift_state"] + b["drift_control"] @ G[k]
        U = b["noise_state"] + b["noise_control"] @ G[k]
        s = ((b["noise_state"] + b["noise_state_mean"]) @ mean
             + (b["noise_control"] + b["noise_control_mean"]) @ abar)
        mean = ((b["drift_state"] + b["drift_state_mean"]) @ mean
                + (b["drift_control"] + b["drift_control_mean"]) @ abar)
        cov = P @ cov @ P.T + U @ cov @ U.T + np.outer(s, s)
        means.append(mean)
    T = blocks["terminal_state"]
    total += (np.trace(T @ cov) + mean @ (T + blocks["terminal_state_mean"]) @ mean
              + (blocks["terminal_linear"] + blocks["terminal_linear_mean"]) @ mean)
    return float(total), np.array(means)


def check_lq(blocks, out, rng):
    """The returned value equals the exact cost of the returned policy, and
    random perturbations of that policy cost no less."""
    policy = affine_policy(out["policy"])
    n, m, d = policy[0].shape
    if (n, d, m) != blocks["drift_control"].shape:
        return [f"policy has shape {(n, m, d)}"]
    cost, _ = lq_exact_cost(blocks, policy)
    problems = []
    if not _close(out["value_at_initial"], cost):
        problems.append(f"value_at_initial {out['value_at_initial']!r} is not the "
                        f"policy's exact cost {cost!r}")
    worst = np.inf
    for _ in range(PERTURB_TRIALS):
        direction = [rng.normal(size=p.shape) for p in policy]
        for e in PERTURB_EPS:
            moved = tuple(p + e * q for p, q in zip(policy, direction))
            worst = min(worst, lq_exact_cost(blocks, moved)[0] - cost)
    if worst < -CHECK_TOL * max(1.0, abs(cost)):
        problems.append(f"a perturbed policy costs less by {-worst:.3e}")
    return problems


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def check_simulate(exact, out, n_particles, seed, closure):
    problems = []
    if (int(out["n_particles"]), int(out["seed"]), out["closure"]) != (n_particles, seed, closure):
        problems.append("n_particles, seed or closure do not echo the request")
    est, se = float(out["estimate"]), float(out["std_error"])
    if not (np.isfinite(est) and np.isfinite(se) and se > 0.0):
        return problems + [f"estimate {est!r} or std_error {se!r} is not finite and positive"]
    if abs(est - exact) > SIGMAS * se:
        problems.append(f"estimate {est!r} is {abs(est - exact) / se:.2f} standard errors "
                        f"from the exact cost {exact!r}")
    return problems
