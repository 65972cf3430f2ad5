"""Traced mode: per-module counts and busy times taken at module boundaries.

The tracer replaces the names each polycbf module imports from another (for
example ``polycbf.scenario._solve_scalar`` or ``polycbf.cli.write_trajectory_csv``)
with timing wrappers, and puts every original back on ``uninstall``.  Nothing
under ``src/`` changes: the wrappers live here and are installed only for the
traced ops.

Every wrapped call is a frame on a stack.  A frame's self time is its
duration minus the time of the frames it encloses.  Hot leaf calls (QP
solves, ``step``, state construction, barrier functions) are aggregated as
count, total and self time per name, so memory stays bounded; coarser calls
(op, CLI phases, experiments, ``simulate``, CSV writes) are also kept as spans
with parent ids and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path

_perf = time.perf_counter

# (owner, attribute, frame name, keep a span).  The owner is a module path,
# or a module path and a class name joined by ':'.
_PLAIN_TARGETS = (
    ("polycbf.cli", "main", "cli.main", True),
    ("polycbf.cli", "_build_parser", "cli.parse", False),
    ("polycbf.cli", "_load_config", "cli.parse", False),
    ("polycbf.cli", "_parse_config", "cli.parse", False),
    ("polycbf.cli", "_preset_text", "cli.parse", False),
    ("polycbf.cli", "experiment_invariance", "cli.experiment", True),
    ("polycbf.cli", "experiment_prediction_in_loop", "cli.experiment", True),
    ("polycbf.cli", "run_trial", "cli.replay", True),
    ("polycbf.cli", "_write_manifest", "cli.manifest", True),
    ("polycbf.scenario:VehicleSpec", "initial_state", "scenario.initial_state", False),
    ("polycbf.adaptive", "safe_control", "controller.safe_control", False),
    ("polycbf.controller", "solve_qp", "controller.solve_qp", False),
    ("polycbf.controller", "safety_value", "barrier", False),
    ("polycbf.controller", "kappa", "barrier", False),
    ("polycbf.adaptive", "safety_value", "barrier", False),
    ("polycbf.adaptive", "basis", "barrier", False),
    ("polycbf.adaptive", "kappa", "barrier", False),
    ("polycbf.learner", "safety_value", "barrier", False),
    ("polycbf.learner", "basis", "barrier", False),
    ("polycbf.learner", "hdot", "barrier", False),
    ("polycbf.scenario", "kappa", "barrier", False),
    ("polycbf.adaptive", "step", "dynamics.step", False),
    ("polycbf.dynamics:VehicleState", "__post_init__", "dynamics.state_build", False),
    ("polycbf.adaptive", "observe", "learner.observe", False),
    ("polycbf.adaptive", "observe_analytic", "learner.observe", False),
    ("polycbf.scenario", "observe", "learner.observe", False),
    ("polycbf.scenario", "observe_analytic", "learner.observe", False),
    ("polycbf.learner:StyleLearner", "add", "learner.add", False),
    ("polycbf.adaptive", "compatibility_constraint", "adaptive.compat_row", False),
    ("polycbf.adaptive", "run_adaptive_merge", "adaptive.run_adaptive_merge", True),
    ("polycbf.adaptive", "experiment_assumption_mismatch", "adaptive.mismatch", True),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Frames, spans and counters for the calls between polycbf modules."""

    def __init__(self):
        self.stack = []      # open frames: [name, start, enclosed time, span id]
        self.agg = {}        # frame name -> [count, total s, self s]
        self.spans = []
        self.counts = defaultdict(float)
        self.op_id = None
        self.missing = []    # targets absent from the code under test
        self._next_id = 0
        self._last_qp = None
        self._patches = []   # (owner, attribute, original, wrapper)
        for owner_name, attr, name, span in _PLAIN_TARGETS:
            self._add(owner_name, attr, lambda fn, n=name, s=span: self._wrap(n, fn, s))
        for owner_name in ("polycbf.scenario", "polycbf.adaptive"):
            self._add(owner_name, "simulate", self._wrap_simulate)
        for owner_name in ("polycbf.scenario", "polycbf.adaptive", "polycbf.controller"):
            self._add(owner_name, "_solve_scalar",
                      lambda fn, o=owner_name: self._wrap_qp(fn, o == "polycbf.scenario"))
        self._add("polycbf.scenario", "VehicleState", self._wrap_scenario_state)
        self._add("polycbf.learner:StyleLearner", "admits", self._wrap_admits)
        for attr in ("write_trajectory_csv", "_write_csv"):
            self._add("polycbf.cli", attr, self._wrap_csv)

    # -- installing -------------------------------------------------------

    def _add(self, owner_name, attr, make_wrapper):
        owner = _resolve(owner_name)
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner_name}.{attr}")
            return
        self._patches.append((owner, attr, original, make_wrapper(original)))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def not_restored(self):
        """Wrapped attributes that are not the original object again."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original, _ in self._patches
                if vars(owner).get(attr) is not original]

    # -- frames -----------------------------------------------------------

    def _enter(self, name, span):
        sid = None
        if span:
            self._next_id += 1
            sid = self._next_id
        frame = [name, _perf(), 0.0, sid]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = _perf()
        self.stack.pop()
        name, start, enclosed, sid = frame
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - enclosed
        if sid is not None:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            self.spans.append({"id": sid, "parent": parent, "op": self.op_id,
                               "name": name, "start": start, "end": end,
                               "self": dur - enclosed})
        return dur

    def _wrap(self, name, fn, span=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return traced

    def op(self, fn, *args):
        """Run one benchmark op as a root span."""
        self.op_id = self._next_id + 1
        frame = self._enter("op", True)
        try:
            return fn(*args)
        finally:
            self._exit(frame)
            self.op_id = None

    # -- wrappers that also count -----------------------------------------

    def _wrap_qp(self, fn, engine):
        c = self.counts

        @functools.wraps(fn)
        def traced(*args):
            rows = args[6]
            frame = self._enter("controller.qp", False)
            try:
                result = fn(*args)
            finally:
                dur = self._exit(frame)
            feasible, objective = result[2], result[3]
            if not feasible:
                path = "infeasible"
                if len(rows) > 1:  # one row takes the box-corner shortcut
                    c["controller.lp_calls"] += 1
            elif objective == 0.0:
                path = "nominal"
            else:
                path = "active"
            c["controller.calls"] += 1
            c["controller.rows"] += len(rows)
            c[f"controller.{path}_calls"] += 1
            c[f"controller.{path}_s"] += dur
            if engine:
                # simulate solves a QP again, without its appended rows, after
                # the full program came back infeasible.
                last = self._last_qp
                if (last is not None and not last[2] and args[:6] == last[0]
                        and len(rows) < len(last[1])
                        and list(rows) == list(last[1][:len(rows)])):
                    c["scenario.resolve_calls"] += 1
                self._last_qp = (args[:6], rows, feasible)
            return result
        return traced

    def _wrap_simulate(self, fn):
        def hook(h):
            return self._wrap("scenario.hook", h) if callable(h) else h

        @functools.wraps(fn)
        def traced(cfg, *args, **kwargs):
            args = [hook(a) for a in args]
            kwargs = {k: hook(v) for k, v in kwargs.items()}
            frame = self._enter("scenario.simulate", True)
            try:
                rec = fn(cfg, *args, **kwargs)
            finally:
                self._exit(frame)
            steps, vehicles = rec.log.states.shape[0] - 1, rec.log.states.shape[1]
            self.counts["scenario.vsteps"] += steps * vehicles
            return rec
        return traced

    def _wrap_scenario_state(self, cls):
        def traced(*args, **kwargs):
            # Built directly by simulate (not by initial_state): a snapshot
            # handed to the hooks.
            if self.stack and self.stack[-1][0] == "scenario.simulate":
                self.counts["scenario.snapshot_states"] += 1
            frame = self._enter("scenario.state", False)
            try:
                return cls(*args, **kwargs)
            finally:
                self._exit(frame)
        return traced

    def _wrap_admits(self, fn):
        inner = self._wrap("learner.admits", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ok = inner(*args, **kwargs)
            self.counts["learner.admitted"] += bool(ok)
            return ok
        return traced

    def _wrap_csv(self, fn):
        inner = self._wrap("cli.csv", fn, span=True)

        @functools.wraps(fn)
        def traced(path, *args, **kwargs):
            result = inner(path, *args, **kwargs)
            self.counts["cli.csv_bytes"] += Path(path).stat().st_size
            return result
        return traced

    # -- results ----------------------------------------------------------

    def _count(self, name):
        return self.agg.get(name, (0, 0.0, 0.0))[0]

    def _total(self, name):
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def _self(self, *names):
        return sum(self.agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    def qp_summary(self):
        """(QP calls, mean constraint rows, mean microseconds per QP)."""
        c = self.counts
        calls = c["controller.calls"]
        if not calls:
            return 0.0, 0.0, 0.0
        return calls, c["controller.rows"] / calls, 1e6 * self._total("controller.qp") / calls

    def scenario_self_s(self):
        return self._self("scenario.simulate", "scenario.initial_state", "scenario.state")

    def module_metrics(self, n_ops):
        """Per-module metrics, counts and seconds per op, ratios as they are."""
        c = self.counts
        per = 1.0 / n_ops
        calls, rows_mean, _ = self.qp_summary()
        vsteps = c["scenario.vsteps"]
        admits = self._count("learner.admits")
        m = {"controller.calls": calls * per, "controller.rows_mean": rows_mean}
        for path in ("nominal", "active", "infeasible", "lp"):
            m[f"controller.{path}_calls"] = c[f"controller.{path}_calls"] * per
        for path in ("nominal", "active", "infeasible"):
            m[f"controller.{path}_s"] = c[f"controller.{path}_s"] * per
        m.update({
            "controller.wrap_s": self._self("controller.safe_control",
                                            "controller.solve_qp") * per,
            "scenario.vsteps": vsteps * per,
            "scenario.self_s": self.scenario_self_s() * per,
            "scenario.self_us_per_vstep":
                1e6 * self.scenario_self_s() / vsteps if vsteps else 0.0,
            "scenario.hook_s": self._total("scenario.hook") * per,
            "scenario.snapshot_states": c["scenario.snapshot_states"] * per,
            "scenario.resolve_calls": c["scenario.resolve_calls"] * per,
            "dynamics.step_calls": self._count("dynamics.step") * per,
            "dynamics.step_s": self._total("dynamics.step") * per,
            "dynamics.state_builds": self._count("dynamics.state_build") * per,
            "barrier.calls": self._count("barrier") * per,
            "barrier.s": self._total("barrier") * per,
            "learner.observe_calls": self._count("learner.observe") * per,
            "learner.admitted": c["learner.admitted"] * per,
            "learner.admit_ratio": c["learner.admitted"] / admits if admits else 0.0,
            "learner.add_s": self._total("learner.add") * per,
            "adaptive.hook_self_s": self._self("scenario.hook") * per,
            "adaptive.compat_rows": self._count("adaptive.compat_row") * per,
            "adaptive.mismatch_self_s": self._self("adaptive.mismatch") * per,
            "cli.parse_s": self._self("cli.parse") * per,
            "cli.experiment_s": self._total("cli.experiment") * per,
            "cli.replay_s": self._total("cli.replay") * per,
            "cli.csv_s": self._total("cli.csv") * per,
            "cli.csv_bytes": c["cli.csv_bytes"] * per,
            "cli.manifest_s": self._total("cli.manifest") * per,
        })
        return m
