"""Span tracer that wraps avgalg's public functions from outside the package.

``findim``, ``decide`` and ``cli`` bind names with ``from .exactlin import
...``, and hot methods live on classes, so a function is replaced in every
place it is bound: its defining module, each avgalg module holding a copy,
and the class dictionary for methods.  ``Tracer.installed()`` patches and
restores all of them.

A span's self time is its duration minus the durations of the spans it
directly encloses.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, qualified name) of every traced function
TARGETS = (
    ("exactlin", "rref"), ("exactlin", "Subspace.span"), ("exactlin", "nullspace"),
    ("exactlin", "char_poly"), ("exactlin", "Submodule.span"),
    ("exactlin", "submodule_kernel"), ("exactlin", "_hnf"), ("exactlin", "_hnf_full"),
    ("findim", "StructureAlgebra.mul_vec"), ("findim", "verify_algebra"),
    ("findim", "is_averaging"), ("findim", "check_lie"), ("findim", "lie_analysis"),
    ("findim", "derived_series"), ("findim", "lower_central_series"),
    ("findim", "nilpotency_check"), ("findim", "kernel_equals_brackets"),
    ("findim", "gamma_subalgebra"), ("findim", "induced_by_averaging"),
    ("findim", "ad_eigen"), ("findim", "check_domain"),
    ("freeavg", "FreePoly.mul"), ("freeavg", "FreePoly.add"), ("freeavg", "f_mode"),
    ("freeavg", "reduce_reynolds"), ("freeavg", "FreePoly.render"),
    ("freeavg", "eval_term"),
    ("terms", "parse_equation"), ("terms", "render"),
    ("decide", "implies_one"),
    ("cli", "main"),
)

MODULES = ("exactlin", "terms", "freeavg", "decide", "findim", "cli")


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def layer_metric_names():
    """Every per-layer metric, in report order, with its unit."""
    out = []
    for mod, qual in TARGETS:
        name = span_name(mod, qual)
        out.append((f"{name}.calls_per_op", "count"))
        out.append((f"{name}.self_ms_per_op", "ms"))
    out.append(("exactlin.rref.cells_per_op", "count"))
    out.append(("freeavg.result_terms_per_op", "count"))
    out.append(("cli.interpreter_ms", "ms"))
    out += [(f"{m}.import_ms", "ms") for m in MODULES]
    out.append(("bench.input_gen_ms", "ms"))
    out.append(("bench.trace_overhead_pct", "%"))
    return out


class Tracer:
    """Counts calls and accumulates self time per traced function."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.rref_cells = 0
        self.result_terms = 0
        self._stack = []  # [name, child seconds] per open span

    def _wrap(self, name, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + dur - frame[1]
            if name == "exactlin.rref":
                tracer.rref_cells += args[0].rows * args[0].cols
            elif name == "freeavg.eval_term" and parent != name:
                tracer.result_terms += len(result.terms)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every target; restore them on exit."""
        pkg = {m: sys.modules[f"avgalg.{m}"] for m in MODULES}
        undo = []
        try:
            for mod, qual in TARGETS:
                name = span_name(mod, qual)
                home = pkg[mod]
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    is_static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if is_static else raw
                    wrapped = self._wrap(name, fn)
                    undo.append((cls, attr, raw))
                    setattr(cls, attr, staticmethod(wrapped) if is_static else wrapped)
                    continue
                fn = getattr(home, qual)
                wrapped = self._wrap(name, fn)
                for m in pkg.values():
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            undo.append((m, key, val))
                            setattr(m, key, wrapped)
            yield self
        finally:
            for owner, key, val in reversed(undo):
                setattr(owner, key, val)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "rref_cells": self.rref_cells, "result_terms": self.result_terms}

    def merge(self, snap: dict):
        for k, v in snap["calls"].items():
            self.calls[k] = self.calls.get(k, 0) + v
        for k, v in snap["self_s"].items():
            self.self_s[k] = self.self_s.get(k, 0.0) + v
        self.rref_cells += snap["rref_cells"]
        self.result_terms += snap["result_terms"]
