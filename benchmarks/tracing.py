"""Spans around the calls into each ``mfctrl`` layer, and the per-layer metrics.

:class:`Tracer` wraps the layers' public functions and methods under every
name their callers bind (``mfctrl.dpp.pushforward`` as well as
``mfctrl.measure.pushforward``), records one span per call in memory, and
restores the originals on :meth:`Tracer.uninstall`.  A layer's self time is
the duration of its spans minus the part covered by their direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import defaultdict

from workloads import tree_bound

# (module, attribute, span name); methods are given as "Class.method"
SPANNED = [
    ("cli", "main", "cli.main"),
    ("model", "finite_model_from_config", "model.config"),
    ("model", "validate", "model.validate"),
    ("model", "lifted_stage_cost", "model.lifted_cost"),
    ("model", "lifted_terminal_cost", "model.lifted_cost"),
    ("measure", "pushforward", "measure.pushforward"),
    ("measure", "match_indices", "measure.match_indices"),
    ("measure", "image_measure", "measure.image_measure"),
    ("measure", "DiscreteMeasure.key_on_grid", "measure.key"),
    ("measure", "DiscreteMeasure.key", "measure.key"),
    ("dpp", "solve", "dpp.solve"),
    ("dpp", "rollforward", "dpp.rollforward"),
    ("lq", "LQModel.from_json", "lq.from_json"),
    ("lq", "mean_variance_model", "lq.mean_variance_model"),
    ("lq", "check_conditions", "lq.check_conditions"),
    ("lq", "solve_riccati", "lq.solve_riccati"),
    ("lq", "optimal_policy", "lq.policy"),
    ("lq", "explicit_control_coefficients", "lq.policy"),
    ("lq", "value_at", "lq.value_at"),
    ("lq", "AffinePolicy.action", "lq.policy_action"),
    ("lq", "AffinePolicy.mean_action", "lq.policy_action"),
    ("moments", "exact_trajectory", "moments.exact_trajectory"),
    ("moments", "exact_cost", "moments.exact_cost"),
    ("particles", "simulate", "particles.simulate"),
    ("particles", "uniforms", "particles.rng"),
    ("particles", "normals", "particles.rng"),
]

# (metric, unit, better) in report order
METRICS = [
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("model.config_s", "s", "lower"),
    ("model.validate_s", "s", "lower"),
    ("model.lifted_cost_s", "s", "lower"),
    ("model.lifted_cost_calls", "count", "lower"),
    ("model.kernel_row_calls", "count", "lower"),
    ("measure.pushforward_s", "s", "lower"),
    ("measure.pushforward_calls", "count", "lower"),
    ("measure.pushforward_us", "us", "lower"),
    ("measure.match_indices_s", "s", "lower"),
    ("measure.match_indices_calls", "count", "lower"),
    ("measure.key_s", "s", "lower"),
    ("measure.key_calls", "count", "lower"),
    ("measure.measures_built", "count", "lower"),
    ("dpp.solve_s", "s", "lower"),
    ("dpp.self_s", "s", "lower"),
    ("dpp.rollforward_s", "s", "lower"),
    ("dpp.nodes", "count", "lower"),
    ("dpp.nodes_per_s", "1/s", "higher"),
    ("dpp.tree_fill", "ratio", "lower"),
    ("dpp.cache_hit_ratio", "ratio", "higher"),
    ("lq.from_json_s", "s", "lower"),
    ("lq.check_conditions_s", "s", "lower"),
    ("lq.solve_riccati_self_s", "s", "lower"),
    ("lq.policy_s", "s", "lower"),
    ("lq.policy_action_s", "s", "lower"),
    ("lq.stages", "count", "lower"),
    ("lq.stages_per_s", "1/s", "higher"),
    ("moments.exact_trajectory_s", "s", "lower"),
    ("particles.simulate_s", "s", "lower"),
    ("particles.self_s", "s", "lower"),
    ("particles.rng_s", "s", "lower"),
    ("particles.rng_draws", "count", "lower"),
    ("particles.particle_steps", "count", "higher"),
    ("particles.particle_steps_per_s", "1/s", "higher"),
    ("particles.cloud_bytes_kept", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    """Span recorder; spans are ``(parent, name, start, end, op)`` tuples."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.op = -1
        self.patches = []

    # -- recording -------------------------------------------------------------
    def _spanned(self, name, fn, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, name, start, end, self.op)
            if after is not None:
                result = after(args, kwargs, result, sid)
            return result
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks that read results -------------------------------------------------
    def _after_config(self, args, kwargs, model, sid):
        return dataclasses.replace(model, kernel=self._counted("kernel_rows", model.kernel))

    def _after_solve(self, args, kwargs, result, sid):
        model = args[0]
        self.counts["nodes"] += result.reachable_tree_size
        self.counts["tree_bound"] += tree_bound(model.n_states, model.n_actions, model.horizon)
        # every non-terminal node looks up one child per map; the final policy
        # roll adds `horizon` pushforwards that are not lookups
        pushes = sum(1 for s in self.spans[sid + 1:]
                     if s[1] == "measure.pushforward" and s[0] == sid)
        lookups = pushes - model.horizon
        self.counts["child_lookups"] += lookups
        self.counts["child_hits"] += lookups - (result.reachable_tree_size - 1)
        return result

    def _after_riccati(self, args, kwargs, sol, sid):
        self.counts["stages"] += sol.horizon
        return sol

    def _after_check(self, args, kwargs, report, sid):
        self.counts["stages"] += args[0].horizon
        return report

    def _after_simulate(self, args, kwargs, result, sid):
        model = args[0]
        self.counts["particle_steps"] += result.n_particles * model.horizon
        self.counts["cloud_bytes"] += sum(c.positions.nbytes for c in result.clouds or ())
        return result

    def _after_uniforms(self, args, kwargs, draws, sid):
        # every normal draw is made from one uniform draw
        self.counts["rng_draws"] += draws.size
        return draws

    # -- installation -------------------------------------------------------------
    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        pkg = self.package
        modules = [m for name, m in sys.modules.items()
                   if name == pkg.__name__ or name.startswith(pkg.__name__ + ".")]
        after = {"model.finite_model_from_config": self._after_config,
                 "dpp.solve": self._after_solve,
                 "lq.solve_riccati": self._after_riccati,
                 "lq.check_conditions": self._after_check,
                 "particles.simulate": self._after_simulate,
                 "particles.uniforms": self._after_uniforms}
        for module_name, attr, span in SPANNED:
            hook = after.get(f"{module_name}.{attr}")
            owner = getattr(pkg, module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            # a name the program no longer defines is skipped; its metrics read 0
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                continue
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._spanned(span, raw.__func__, hook))
                else:
                    wrapped = self._spanned(span, raw, hook)
                self._patch(owner, attr, wrapped)
                continue
            wrapped = self._spanned(span, raw, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, name, wrapped)
        measure_cls = pkg.measure.DiscreteMeasure
        self._patch(measure_cls, "__init__",
                    self._counted("measures_built", measure_cls.__dict__["__init__"]))

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # -- reporting ------------------------------------------------------------------
    def metrics(self, n_ops, output_bytes, overhead_ratio):
        """Per-operation means over the traced operations, plus ratios."""
        total = defaultdict(float)        # inclusive time of outermost spans per name
        self_time = defaultdict(float)    # self time per span name
        calls = defaultdict(int)
        child = defaultdict(float)
        for parent, name, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (parent, name, start, end, _) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            self_time[name] += dur - child[sid]
            if parent < 0 or self.spans[parent][1] != name:
                total[name] += dur
        c = self.counts
        per = 1.0 / max(n_ops, 1)

        def ratio(a, b):
            return a / b if b else 0.0

        layer_self = defaultdict(float)
        for name, value in self_time.items():
            layer_self[name.split(".")[0]] += value
        values = {
            "cli.self_s": layer_self["cli"] * per,
            "cli.output_bytes": output_bytes * per,
            "model.config_s": total["model.config"] * per,
            "model.validate_s": total["model.validate"] * per,
            "model.lifted_cost_s": total["model.lifted_cost"] * per,
            "model.lifted_cost_calls": calls["model.lifted_cost"] * per,
            "model.kernel_row_calls": c["kernel_rows"] * per,
            "measure.pushforward_s": total["measure.pushforward"] * per,
            "measure.pushforward_calls": calls["measure.pushforward"] * per,
            "measure.pushforward_us": 1e6 * ratio(total["measure.pushforward"],
                                                  calls["measure.pushforward"]),
            "measure.match_indices_s": total["measure.match_indices"] * per,
            "measure.match_indices_calls": calls["measure.match_indices"] * per,
            "measure.key_s": total["measure.key"] * per,
            "measure.key_calls": calls["measure.key"] * per,
            "measure.measures_built": c["measures_built"] * per,
            "dpp.solve_s": total["dpp.solve"] * per,
            "dpp.self_s": layer_self["dpp"] * per,
            "dpp.rollforward_s": total["dpp.rollforward"] * per,
            "dpp.nodes": c["nodes"] * per,
            "dpp.nodes_per_s": ratio(c["nodes"], total["dpp.solve"]),
            "dpp.tree_fill": ratio(c["nodes"], c["tree_bound"]),
            "dpp.cache_hit_ratio": ratio(c["child_hits"], c["child_lookups"]),
            "lq.from_json_s": total["lq.from_json"] * per,
            "lq.check_conditions_s": total["lq.check_conditions"] * per,
            "lq.solve_riccati_self_s": self_time["lq.solve_riccati"] * per,
            "lq.policy_s": total["lq.policy"] * per,
            "lq.policy_action_s": total["lq.policy_action"] * per,
            "lq.stages": c["stages"] * per,
            "lq.stages_per_s": ratio(c["stages"], total["lq.solve_riccati"]),
            "moments.exact_trajectory_s": total["moments.exact_trajectory"] * per,
            "particles.simulate_s": total["particles.simulate"] * per,
            "particles.self_s": layer_self["particles"] * per,
            "particles.rng_s": total["particles.rng"] * per,
            "particles.rng_draws": c["rng_draws"] * per,
            "particles.particle_steps": c["particle_steps"] * per,
            "particles.particle_steps_per_s": ratio(c["particle_steps"],
                                                    total["particles.simulate"]),
            "particles.cloud_bytes_kept": c["cloud_bytes"] * per,
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}

    def write(self, path):
        """Spans as JSON lines ``[id, parent, name, start, end, op]``."""
        with open(path, "w") as fh:
            for sid, (parent, name, start, end, op) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, start, end, op]) + "\n")
