"""In-memory spans and counters for one treebsde run, recorded from outside.

``Tracer.install`` wraps the public functions of each treebsde layer at the
module and class attributes the package looks them up through, so nothing
under ``src/`` changes and the untraced program runs exactly as shipped.
A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level); spans stay in memory until ``write``.
Hot scalar entry points (``Generator.__call__``, ``implicit_step_solve``,
the model callbacks) are counted, not timed.

``layer_metrics`` turns spans and counters into the per-layer metrics of
``BENCHMARK.json``.  Inclusive times count nested spans of the same group
once; self times subtract the time covered by direct child spans.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import sys
import time

_CONDITIONS = ("beta_threshold", "contraction_profile",
               "check_main_hypothesis", "detect_counterexample")
_NORMS = ("mixed_norm_sq", "y_norm_sq", "z_norm_sq")
_CHECKS = {
    "check_identity_lemma": "identity_lemma",
    "check_apriori_estimate": "apriori",
    "check_norm_equivalence": "norm_equivalence",
    "check_lipschitz": "lipschitz",
    "check_integral_inequality": "integral_inequality",
    "check_solution_jump_identity": "jump_identity",
}
_XI_FACTORIES = ("xi_constant", "xi_jump_count", "xi_last_mark_indicator")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._cells: dict[str, list] = {}
        self._stack: list[int] = []
        self._model_keys: dict[int, str] = {}
        self._models: list = []         # keeps built models alive, so ids stay unique
        self._built: list[str] = []     # model key per build_tree call

    # -- wrappers -------------------------------------------------------------

    def timed(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def counted(self, name, fn):
        cell = self._cells.setdefault(name, [0])   # a list cell: cheaper than a dict item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name, n) -> None:
        self._cells.setdefault(name, [0])[0] += n

    @property
    def counts(self) -> dict:
        return {name: cell[0] for name, cell in self._cells.items()}

    # -- patching -------------------------------------------------------------

    def _rebind(self, fn, new):
        """Point every treebsde module attribute that holds ``fn`` at ``new``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "treebsde" or mod_name.startswith("treebsde."):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, new)

    def install(self) -> None:
        from treebsde import (cli, conditions, measure_core, norms, scenarios,
                              solver, verification)

        for name in ("cmd_solve", "cmd_verify", "cmd_sweep"):
            fn = getattr(cli, name)
            self._rebind(fn, self.timed("cli.command", fn))

        # measure_core
        orig_build = measure_core.build_tree

        def build_tree(model):
            tree = orig_build(model)
            self.count("measure_core.nodes", tree.n_nodes)
            self.count("measure_core.slots", tree.n_slots)
            self._built.append(self._model_keys.get(id(model), f"id:{id(model)}"))
            return tree

        self._rebind(orig_build, self.timed("measure_core.build_tree",
                                            functools.wraps(orig_build)(build_tree)))
        tree_cls = measure_core.ScenarioTree
        views = tree_cls.__dict__["slot_views"]
        setattr(tree_cls, "slot_views",
                  property(self.timed("measure_core.slot_views", views.fget)))
        for meth in ("doleans", "doleans_at_slot_end"):
            setattr(tree_cls, meth,
                      self.timed("measure_core.doleans", tree_cls.__dict__[meth]))

        # conditions and norms
        for name in _CONDITIONS:
            fn = getattr(conditions, name)
            self._rebind(fn, self.timed(f"conditions.{name}", fn))
        for name in _NORMS:
            fn = getattr(norms, name)
            self._rebind(fn, self.timed(f"norms.{name}", fn))

        # solver
        orig_picard = solver.picard_solve

        def picard_solve(*args, **kwargs):
            try:
                sol, rep = orig_picard(*args, **kwargs)
            except solver.NoConvergence as exc:
                if exc.report is not None:
                    self.count("solver.sweeps", exc.report.iterations)
                raise
            self.count("solver.sweeps", rep.iterations)
            return sol, rep

        self._rebind(orig_picard, self.timed("solver.picard_solve",
                                             functools.wraps(orig_picard)(picard_solve)))
        self._rebind(solver.backward_oracle,
                     self.timed("solver.backward_oracle", solver.backward_oracle))
        self._rebind(solver.implicit_step_solve,
                     self.counted("solver.implicit_steps", solver.implicit_step_solve))
        setattr(solver.BsdeProblem, "terminal_values",
                  self.timed("solver.terminal_values",
                             solver.BsdeProblem.__dict__["terminal_values"]))
        setattr(solver.Generator, "__call__",
                  self.counted("solver.generator_calls",
                               solver.Generator.__dict__["__call__"]))

        # verification
        orig_suite = verification.run_suite

        def run_suite(*args, **kwargs):
            results = orig_suite(*args, **kwargs)
            self.count("verification.checks_failed",
                       sum(1 for r in results if not r.passed))
            return results

        self._rebind(orig_suite, self.timed("verification.run_suite",
                                            functools.wraps(orig_suite)(run_suite)))
        for name in _CHECKS:
            fn = getattr(verification, name)
            self._rebind(fn, self.timed(f"verification.{name}", fn))

        # scenarios: count every callback of the models and terminals the CLI builds
        orig_spec_build = scenarios.ModelSpec.build

        def spec_build(spec):
            model = orig_spec_build(spec)
            model = dataclasses.replace(
                model,
                jump_size=self.counted("scenarios.callback_calls", model.jump_size),
                mark_law=self.counted("scenarios.callback_calls", model.mark_law))
            self._model_keys[id(model)] = json.dumps([spec.name, spec.params],
                                                     sort_keys=True, default=repr)
            self._models.append(model)
            return model

        setattr(scenarios.ModelSpec, "build", spec_build)
        for name in _XI_FACTORIES:
            factory = getattr(scenarios, name)

            def counted_factory(*args, _factory=factory, **kwargs):
                return self.counted("scenarios.callback_calls", _factory(*args, **kwargs))

            self._rebind(factory, functools.wraps(factory)(counted_factory))

    # -- results --------------------------------------------------------------

    def _inclusive(self, names) -> float:
        names = set(names)
        total = 0.0
        for name, t0, t1, parent in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += t1 - t0
        return total

    def _self(self, name) -> float:
        child_time = collections.defaultdict(float)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        return sum(t1 - t0 - child_time[i]
                   for i, (n, t0, t1, _) in enumerate(self.spans) if n == name)

    def _calls(self, prefix) -> int:
        return sum(1 for s in self.spans if s[0].startswith(prefix))

    def layer_metrics(self, report_bytes: int) -> dict:
        c = collections.Counter(self.counts)
        builds = len(self._built)
        out = {
            "measure_core.build_tree_s": self._inclusive(["measure_core.build_tree"]),
            "measure_core.build_tree_calls": builds,
            "measure_core.nodes": c["measure_core.nodes"],
            "measure_core.slots": c["measure_core.slots"],
            "measure_core.slot_views_s": self._inclusive(["measure_core.slot_views"]),
            "measure_core.doleans_s": self._inclusive(["measure_core.doleans"]),
            "measure_core.distinct_tree_ratio":
                len(set(self._built)) / builds if builds else 0.0,
            "conditions.threshold_s": self._inclusive(
                ["conditions.beta_threshold", "conditions.contraction_profile"]),
            "conditions.calls": self._calls("conditions."),
            "solver.picard_solve_s": self._inclusive(["solver.picard_solve"]),
            "solver.picard_self_s": self._self("solver.picard_solve"),
            "solver.sweeps": c["solver.sweeps"],
            "solver.generator_calls": c["solver.generator_calls"],
            "solver.backward_oracle_s": self._inclusive(["solver.backward_oracle"]),
            "solver.implicit_steps": c["solver.implicit_steps"],
            "solver.terminal_values_s": self._inclusive(["solver.terminal_values"]),
            "norms.s": self._inclusive([f"norms.{n}" for n in _NORMS]),
            "norms.calls": self._calls("norms."),
            "verification.run_suite_s": self._inclusive(["verification.run_suite"]),
        }
        for fn, short in _CHECKS.items():
            out[f"verification.{short}_s"] = self._inclusive([f"verification.{fn}"])
        out["verification.checks_failed"] = c["verification.checks_failed"]
        out["scenarios.callback_calls"] = c["scenarios.callback_calls"]
        out["cli.self_s"] = self._self("cli.command")
        out["cli.report_bytes"] = report_bytes
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts,
                       "models_built": self._built}, fh)
