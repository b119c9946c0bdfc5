"""Spans around the program's public entry points, installed from outside.

`Tracer.install` replaces each traced function, wherever a signedspread
module holds a reference to it, with a wrapper that records a span, and
`uninstall` puts the originals back. Nothing inside the package changes.
A span's self time is its duration minus the durations of the spans it
encloses on the same thread; integer nanoseconds keep it exact, so it is
never negative. Spans and counts stay in memory, one table per thread
(`run_suite` runs claims on a thread pool), and are merged on read.
"""

from __future__ import annotations

import sys
import threading
import time

from signedspread import _kernels, cli, engine, graph, solver, strategies, verify

SOLVER_SPAN = "solver"


def _expand_counts(result, args, stack):
    inside_solver = any(frame[0] == SOLVER_SPAN for frame in stack)
    return {"expand.children": len(result[2]), "solver.expands": int(inside_solver)}


def _step_counts(result, args, stack):
    ctx, labels = args[0], args[1]
    n = labels.shape[0]
    # the numpy step reads the dense boolean n x n positive and negative tables
    return {"step.bytes": 2 * n * n if ctx.backend == "numpy" else 0}


def _solver_counts(result, args, stack):
    return {"solver.nodes": result.nodes}


def _frustration_counts(result, args, stack):
    g = args[0]
    return {"frustration.masks": (1 << max(0, g.n - 1)) if g.m else 0}


def _explore_counts(result, args, stack):
    return {"explore.instances": result.checked + len(result.skipped)}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # (spans, counts) per thread
        self._undo = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {}, {})  # stack, spans, counts
            with self._lock:
                self._threads.append(state[1:])
        return state

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            stack, spans, counts = self._state()
            frame = [name, 0]  # span name, nanoseconds covered by child spans
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans.setdefault(name, [0, 0, 0])  # calls, total ns, self ns
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if count is not None:
                for key, value in count(result, args, stack).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, orig, new):
        """Point every reference a signedspread module holds to orig at new."""
        for modname, mod in list(sys.modules.items()):
            if modname != "signedspread" and not modname.startswith("signedspread."):
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((setattr, mod, attr, orig))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is orig:
                            value[key] = new
                            self._undo.append((dict.__setitem__, value, key, orig))

    def install(self):
        ctx = engine.StepContext
        for attr, name, count in (("__init__", "engine.context", None),
                                  ("expand", "kernels.expand", _expand_counts),
                                  ("step", "kernels.step", _step_counts)):
            orig = vars(ctx)[attr]
            setattr(ctx, attr, self.wrap(name, orig, count))
            self._undo.append((setattr, ctx, attr, orig))
        targets = [
            (engine.run, "engine.run", None),
            (engine.trace_to_json, "engine.trace_json", None),
            (solver.exact_confusion, SOLVER_SPAN, _solver_counts),
            (solver.exact_relaxed_confusion, SOLVER_SPAN, _solver_counts),
            (solver.relaxed_via_class, SOLVER_SPAN, _solver_counts),
            (solver.min_steps, SOLVER_SPAN, _solver_counts),
            (graph.frustration_index, "graph.frustration", _frustration_counts),
            (verify.explore_conjecture, "verify.explore", _explore_counts),
            (verify.verify_claim, "verify.claim", None),
            (verify.run_suite, "verify.suite", None),
            (cli.main, "cli.main", None),
        ]
        targets += [(fn, "strategies.policy", None) for fn in strategies.POLICIES.values()]
        for kernel in ("frustration_scan_numpy", "frustration_collect_numpy",
                       "frustration_scan_numba", "frustration_collect_numba"):
            if hasattr(_kernels, kernel):
                targets.append((getattr(_kernels, kernel), "kernels.frustration", None))
        for fn, name, count in targets:
            self._replace(fn, self.wrap(name, fn, count))

    def uninstall(self):
        while self._undo:
            setter, owner, key, orig = self._undo.pop()
            setter(owner, key, orig)

    def metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        spans, counts = {}, {}
        with self._lock:
            tables = list(self._threads)
        for thread_spans, thread_counts in tables:
            for name, rec in thread_spans.items():
                acc = spans.setdefault(name, [0, 0, 0])
                for i in range(3):
                    acc[i] += rec[i]
            for key, value in thread_counts.items():
                counts[key] = counts.get(key, 0) + value

        def calls(name):
            return spans.get(name, [0, 0, 0])[0]

        def total_s(name):
            return spans.get(name, [0, 0, 0])[1] / 1e9

        def self_s(name):
            return spans.get(name, [0, 0, 0])[2] / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        expand_calls, children = calls("kernels.expand"), counts.get("expand.children", 0)
        step_calls = calls("kernels.step")
        nodes, masks = counts.get("solver.nodes", 0), counts.get("frustration.masks", 0)
        return {
            "kernels.expand.calls": (expand_calls, "count"),
            "kernels.expand.children": (children, "count"),
            "kernels.expand.self_s": (self_s("kernels.expand"), "s"),
            "kernels.expand.us_per_call": (ratio(total_s("kernels.expand") * 1e6, expand_calls), "us"),
            "kernels.expand.us_per_child": (ratio(total_s("kernels.expand") * 1e6, children), "us"),
            "kernels.step.calls": (step_calls, "count"),
            "kernels.step.self_s": (self_s("kernels.step"), "s"),
            "kernels.step.us_per_call": (ratio(total_s("kernels.step") * 1e6, step_calls), "us"),
            "kernels.step.bytes_computed": (counts.get("step.bytes", 0), "B"),
            "kernels.frustration.passes": (calls("kernels.frustration"), "count"),
            "kernels.frustration.self_s": (self_s("kernels.frustration"), "s"),
            "graph.frustration.calls": (calls("graph.frustration"), "count"),
            "graph.frustration.self_s": (self_s("graph.frustration"), "s"),
            "graph.frustration.masks": (masks, "count"),
            "graph.frustration.ns_per_mask": (ratio(total_s("graph.frustration") * 1e9, masks), "ns"),
            "engine.context.calls": (calls("engine.context"), "count"),
            "engine.context.self_s": (self_s("engine.context"), "s"),
            "engine.run.calls": (calls("engine.run"), "count"),
            "engine.run.self_s": (self_s("engine.run"), "s"),
            "engine.trace_json.self_s": (self_s("engine.trace_json"), "s"),
            "solver.calls": (calls(SOLVER_SPAN), "count"),
            "solver.nodes": (nodes, "count"),
            "solver.self_s": (self_s(SOLVER_SPAN), "s"),
            "solver.us_per_node": (ratio(total_s(SOLVER_SPAN) * 1e6, nodes), "us"),
            "solver.expands_per_node": (ratio(counts.get("solver.expands", 0), nodes), "ratio"),
            "strategies.policy.calls": (calls("strategies.policy"), "count"),
            "strategies.policy.self_s": (self_s("strategies.policy"), "s"),
            "verify.explore.instances": (counts.get("explore.instances", 0), "count"),
            "verify.explore.self_s": (self_s("verify.explore"), "s"),
            "verify.claim.self_s": (self_s("verify.claim"), "s"),
            "verify.suite.wall_s": (total_s("verify.suite"), "s"),
            "cli.main.self_s": (self_s("cli.main"), "s"),
        }
