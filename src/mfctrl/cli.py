"""Scenario runner: finite DPP solves, Riccati solves, the mean-variance
preset, Monte Carlo simulation, and the cross-oracle verification table.

Exit codes: 0 success, 1 verification failure, 2 malformed config or usage
(any ``ValueError``), 3 numerical failure (any ``ArithmeticError``, which each
engine's failure classes are, a ``LinAlgError`` or running out of memory).
Each engine but the finite DPP is imported by the subcommands that run it.
"""

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import dpp
from .measure import DiscreteMeasure, TabularMap, as_integer, grid_laws_json, short_repr
from .model import finite_model_from_config

CONFIG_ERROR = 2
NUMERICAL_ERROR = 3
# the largest ``meanvariance --n``, mean-variance scenario ``n``, finite scenario
# ``horizon`` and ``simulate --n-particles``, checked before any work
MAX_STAGES = 10**6
MAX_PARTICLES = 10**8


def _read_json(path, what):
    """The JSON object in the file ``path``; an error names the file as ``what``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path!r} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{what} {path!r} is nested too deeply to decode") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{what} {path!r} must be a JSON object, got {type(data).__name__}")
    return data


def _load_scenario(path):
    data = _read_json(path, "config")
    if "run" in data:
        raise ValueError("config field 'run' is not supported; use the --node-budget, --out, "
                         "--trajectory-csv and --stages-csv flags")
    kind = data.get("kind")
    if kind not in ("finite", "lq", "meanvariance"):
        raise ValueError("config field 'kind' must be finite|lq|meanvariance, "
                         f"got {short_repr(kind)}")
    if "model" not in data:
        raise ValueError("config is missing the 'model' field")
    return data


def _finite_from_scenario(data):
    try:
        model = finite_model_from_config(data["model"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"bad finite model config: {exc}") from exc
    if model.horizon > MAX_STAGES:
        raise ValueError(f"finite model field 'horizon' must be at most {MAX_STAGES}, "
                         f"got {model.horizon}")
    law = data.get("initial_law")
    if law is None:
        raise ValueError("finite scenario is missing the 'initial_law' field")
    try:
        mu0 = DiscreteMeasure.from_json(law)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad initial_law: {exc}") from exc
    return model, mu0


def _real(value, what):
    """``value`` as a float. JSON numbers pass; bools and strings are config
    errors, never converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {short_repr(value)}")
    return float(value)


def _mv_params(payload):
    try:
        fields = {k: payload[k] for k in ("gamma", "b", "sigma", "delta", "x0", "n")}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"mean-variance model needs gamma, b, sigma, delta, n, x0: {exc}")
    n = fields.pop("n")
    params = {k: _real(v, f"mean-variance model field {k!r}") for k, v in fields.items()}
    n = as_integer(n, "mean-variance model field 'n'")
    if n > MAX_STAGES:
        raise ValueError(f"mean-variance model field 'n' must be at most {MAX_STAGES}, got {n}")
    return params | {"n": n}


def _lq_from_scenario(data):
    from . import lq
    if data["kind"] == "meanvariance":
        return lq.mean_variance_model(**_mv_params(data["model"]))
    try:
        return lq.LQModel.from_json(data["model"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"bad LQ model config: {exc}") from exc


@contextlib.contextmanager
def _outputs(*paths):
    """The output streams of a run, every file opened before any is written.

    ``"-"`` is standard output and ``None`` no output.  A file is written over
    in place, not truncated first, which would free its blocks only for the
    rewrite to allocate new ones; a longer one is then cut at the end of the
    run's text.  Two outputs on one file, however spelled, are a config error.

    If the run fails, an output it created is removed; once it has begun to
    write, every output file is cut to zero length and removed if regular at
    its path, not a device or a link.  A file that existed and that the run did
    not begin to write (a later output could not be opened) stays as it was.
    """
    opened, streams, begun = {}, [], False   # (st_dev, st_ino) -> (path, stream, created, size)
    with contextlib.ExitStack() as stack:
        try:
            for path in paths:
                if path in (None, "-"):
                    streams.append(sys.stdout if path else None)
                    continue
                created = not os.path.lexists(path)
                try:
                    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
                except OSError as exc:
                    raise ValueError(f"cannot write output {path!r}: {exc}") from exc
                streams.append(stack.enter_context(open(fd, "w", newline="")))
                info = os.fstat(fd)
                first = opened.setdefault((info.st_dev, info.st_ino),
                                          (path, streams[-1], created, info.st_size))
                if first[1] is not streams[-1]:
                    raise ValueError(f"output {path!r} is given twice (first as {first[0]!r})")
            begun = True
            yield streams
            for _, stream, _, size in opened.values():
                stream.flush()
                # only a longer file is cut: a cut costs a journal write even at the same size
                if size and size > stream.buffer.tell():
                    stream.truncate()
        except BaseException:
            for path, stream, created, _ in opened.values():
                if begun or created:
                    with contextlib.suppress(OSError):   # a device or a FIFO is not cut
                        stream.truncate(0)
                    if stat.S_ISREG(os.lstat(path).st_mode):
                        os.remove(path)
            raise


def _write_csv(stream, header, rows):
    writer = csv.writer(stream)
    writer.writerow(header)
    writer.writerows(rows)


def _write_json(stream, payload):
    """Write ``json.dumps(payload, indent=2, allow_nan=False)``, byte for byte,
    where each NumPy array in ``payload`` counts as its ``tolist()``.

    A NaN or Inf in ``payload`` raises ``ArithmeticError``.  Files are
    streamed, since outputs reach megabytes; standard output gets the text,
    and a newline, once all of it is encoded.
    """
    chunks = _json_chunks(payload, 0)
    if stream is sys.stdout:
        stream.write("".join(chunks) + "\n")
    else:
        stream.writelines(chunks)


# The indent-2 layout of the standard library's pure-Python encoder, which
# ``json.dump`` always runs when given an indent. A float array, such as the
# per-stage matrices of the LQ outputs, is written in one pass from its flat
# ``ravel().tolist()``; anything else takes the recursive path below, another
# array as its ``tolist()``.

_CONTAINERS = (dict, list, np.ndarray)


def _not_finite(value):
    return ArithmeticError("output is not finite: Out of range float values are "
                           f"not JSON compliant: {value!r}")


def _scalar_text(value):
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise _not_finite(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key_text(key):
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    raise TypeError(f"keys must be str, not {type(key).__name__}")


def _json_chunks(value, level):
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64 and value.size and value.ndim:
            return iter((_block_text(value.shape, value.ravel().tolist(), level),))
        value = value.tolist()
    if isinstance(value, dict):
        return _dict_chunks(value, level)
    if isinstance(value, list):
        return _list_chunks(value, level)
    return iter((_scalar_text(value),))


def _dict_chunks(dct, level):
    if not dct:
        yield "{}"
        return
    newline = "\n" + "  " * (level + 1)
    sep = "{" + newline
    for key, value in dct.items():
        head = sep + _key_text(key) + ": "
        if isinstance(value, _CONTAINERS):
            yield head
            yield from _json_chunks(value, level + 1)
        else:
            yield head + _scalar_text(value)
        sep = "," + newline
    yield "\n" + "  " * level + "}"


def _list_chunks(lst, level):
    if not lst:
        yield "[]"
        return
    newline = "\n" + "  " * (level + 1)
    sep = "[" + newline
    for value in lst:
        if isinstance(value, _CONTAINERS):
            yield sep
            yield from _json_chunks(value, level + 1)
        else:
            yield sep + _scalar_text(value)
        sep = "," + newline
    yield "\n" + "  " * level + "]"


def _block_text(shape, items, level):
    """The text of a float array of the given shape whose values, in row-major
    order, are ``items``."""
    if not all(map(math.isfinite, items)):
        raise _not_finite(next(v for v in items if not math.isfinite(v)))
    # The separator after a value depends only on how many of the innermost
    # axes roll over there: it closes that many lists and, after the comma,
    # opens as many. After the loop, ``opening`` opens and ``close`` closes all.
    seps, close, opening = [], "", ""
    for lvl in range(level + len(shape) - 1, level - 1, -1):
        seps.append(close + ",\n" + "  " * (lvl + 1) + opening)
        close += "\n" + "  " * lvl + "]"
        opening = "[\n" + "  " * (lvl + 1) + opening
    gaps = [seps[0]] * len(items)
    period = 1
    for j, n in enumerate(reversed(shape[1:]), start=1):
        period *= n
        gaps[period - 1::period] = [seps[j]] * (len(items) // period)
    gaps[-1] = close
    # One %-format puts each value's repr (``float.__repr__`` for the exact
    # type) between the separators; unlike a join of mapped reprs, it never
    # holds every value's string at once.
    return (opening + "%r" + "%r".join(gaps)) % tuple(items)


def _joined(values):
    return ";".join(repr(float(v)) for v in values.ravel())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_solve_finite(args):
    data = _load_scenario(args.config)
    if data["kind"] != "finite":
        raise ValueError(f"solve-finite needs a finite scenario, got kind {data['kind']!r}")
    model, mu0 = _finite_from_scenario(data)
    if args.node_budget < 1:
        raise ValueError(f"node budget must be at least 1, got {args.node_budget}")
    result = dpp.solve(model, mu0, node_budget=args.node_budget)
    path = result.optimal_law_path
    payload = {
        "v0": result.v0,
        "tree_size": result.reachable_tree_size,
        "policy_sequence": [p.to_json() for p in result.optimal_policy_sequence],
        "law_trajectory": [mu0.to_json()] + grid_laws_json(model.states, path[1:]),
    }
    with _outputs(args.out, args.trajectory_csv) as (out, table):
        _write_json(out, payload)
        if table:
            _write_csv(table, ["stage", "state_index", "state", "weight"],
                       ([k, i, _joined(model.states[i]), repr(w)]
                        for k, weights in enumerate(path)
                        for i, w in enumerate(weights.tolist())))
    return 0


def _lq_payload(model, sol, initial_law):
    """The optimal policy of ``sol`` and the output fields the LQ subcommands share."""
    from . import lq
    policy = lq.optimal_policy(model, sol)
    controls = lq.explicit_control_coefficients(model, sol, policy)
    return policy, {
        "solution": lq.array_fields(sol),
        "policy": lq.array_fields(policy),
        "explicit_controls": lq.array_fields(controls),
        "value_at_initial": lq.value_at(sol, 0, initial_law),
    }


def _cmd_riccati(args):
    data = _load_scenario(args.config)
    if data["kind"] not in ("lq", "meanvariance"):
        raise ValueError(f"riccati needs an lq/meanvariance scenario, got {data['kind']!r}")
    from . import lq
    model = _lq_from_scenario(data)
    sol = lq.solve_riccati(model, force=args.force)
    policy, payload = _lq_payload(model, sol, (model.initial_mean, model.initial_cov))
    n = model.horizon
    with _outputs(args.out, args.stages_csv) as (out, table):
        _write_json(out, payload)
        if table:
            _write_csv(table, ["stage", "var_weight", "mean_weight", "linear", "constant",
                               "gain_state", "gain_mean", "offset"],
                       ([k, _joined(sol.var_weight[k]), _joined(sol.mean_weight[k]),
                         _joined(sol.linear[k]), repr(float(sol.constant[k]))]
                        + ([_joined(policy.gain_state[k]), _joined(policy.gain_mean[k]),
                            _joined(policy.offset[k])] if k < n else ["", "", ""])
                        for k in range(n + 1)))
    return 0


def _cmd_meanvariance(args):
    if args.n > MAX_STAGES:
        raise ValueError(f"--n must be at most {MAX_STAGES}, got {args.n}")
    from . import lq
    params = {key: getattr(args, key) for key in ("gamma", "b", "sigma", "delta", "n", "x0")}
    model = lq.mean_variance_model(**params)
    closed = lq.mean_variance_closed_form(args.gamma, args.b, args.sigma, args.delta, args.n)
    _, payload = _lq_payload(model, closed, DiscreteMeasure.dirac([args.x0]))
    with _outputs(args.out) as (out,):
        _write_json(out, {"params": params} | payload)
    return 0


def _load_policy(args, model):
    from . import lq
    source = args.policy
    finite = not isinstance(model, lq.LQModel)
    if source == "riccati":
        if finite:
            raise ValueError("policy source 'riccati' needs an lq/meanvariance scenario")
        return lq.optimal_policy(model, lq.solve_riccati(model))
    if source == "zero":
        return (model.tabular_policy(np.zeros(model.n_states, dtype=int)) if finite
                else lq.AffinePolicy.zero(model.horizon, model.state_dim, model.control_dim))
    return (TabularMap if finite else lq.AffinePolicy).from_json(_read_json(source, "policy file"))


def _cmd_simulate(args):
    if not 2 <= args.n_particles <= MAX_PARTICLES:
        raise ValueError(f"--n-particles must be from 2 (for a standard error) to "
                         f"{MAX_PARTICLES}, got {args.n_particles}")
    from .particles import simulate
    data = _load_scenario(args.config)
    if data["kind"] in ("lq", "meanvariance"):
        model = _lq_from_scenario(data)
        initial_law = None
    else:
        model, initial_law = _finite_from_scenario(data)
    policy = _load_policy(args, model)
    result = simulate(model, policy, args.n_particles, args.seed,
                      closure=args.closure, initial_law=initial_law)
    with _outputs(args.out, args.stages_csv) as (out, table):
        _write_json(out, result.to_json())
        if table:
            _write_csv(table, ["stage", "mean", "variance"],
                       ([k, _joined(mean), _joined(var)] for k, (mean, var)
                        in enumerate(zip(result.stage_means, result.stage_variances))))
    return 0


def _cmd_verify(args):
    from . import verify
    rows = verify.rows(args.quick)
    width = max(len(name) for name, _, _ in rows)
    for name, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    passed = sum(ok for _, ok, _ in rows)
    print(f"\n{passed}/{len(rows)} checks passed")
    return 0 if passed == len(rows) else 1


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The ``mfctrl`` parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="mfctrl",
        description="Solvers and Monte Carlo validation for discrete-time "
                    "mean-field optimal control")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-finite", help="exact DPP solve of a finite scenario")
    p.add_argument("config")
    p.add_argument("--out", default="-", help="output JSON path (default stdout)")
    p.add_argument("--trajectory-csv", default=None)
    p.add_argument("--node-budget", type=int, default=dpp.DEFAULT_NODE_BUDGET)
    p.set_defaults(handler=_cmd_solve_finite)

    p = sub.add_parser("riccati", help="backward Riccati solve of an LQ scenario")
    p.add_argument("config")
    p.add_argument("--out", default="-")
    p.add_argument("--stages-csv", default=None)
    p.add_argument("--force", action="store_true",
                   help="run even when the convexity conditions fail")
    p.set_defaults(handler=_cmd_riccati)

    p = sub.add_parser("meanvariance", help="closed-form mean-variance solution")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_meanvariance)

    p = sub.add_parser("simulate", help="N-particle Monte Carlo estimate")
    p.add_argument("config")
    p.add_argument("--n-particles", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--policy", default="riccati",
                   help="riccati | zero | path to a policy JSON")
    p.add_argument("--closure", choices=("empirical", "oracle-law"),
                   default="empirical")
    p.add_argument("--out", default="-")
    p.add_argument("--stages-csv", default=None)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="run the cross-oracle check table")
    p.add_argument("--quick", action="store_true", help="smaller particle counts")
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        # ArithmeticError covers the engines' numerical failure classes, a
        # non-finite output, overflows and divisions by zero
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"numerical failure: out of memory{detail}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
