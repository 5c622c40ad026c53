"""Stage timing and call spans for one benchmark pass.

A ``Recorder`` times the benchmark's stages and passes calls straight
through; timed passes use it.  It brackets every stage with host-speed
probes and keeps each stage's time both as measured and scaled to the
reference speed (``hostspeed``).  A ``Tracer`` also records a span for every
stage and for every call into the cdckit functions named in ``FUNCTIONS``.
``install`` rebinds those functions wherever cdckit's modules bind them, so
nested calls (``gabidulin`` inside ``optimal_fdrmc``, ``check_cdc`` inside
``cli.main``) get spans too.  Per-element field arithmetic is never wrapped:
its call rate would make the trace measure itself.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

from hostspeed import EXPONENT, REF_S, probe

clock = time.perf_counter

LAYERS = ("gf", "linalg", "rankmetric", "ferrers", "cdc", "theorems",
          "verify", "cli")

# (module, function) pairs wrapped in a traced pass; the span is named
# "<module>.<function>" except for check_cdc, named after its mode.
FUNCTIONS = (
    ("linalg", "rank"), ("linalg", "subspace_distance"),
    ("rankmetric", "gabidulin"), ("rankmetric", "lift"),
    ("rankmetric", "rank_distribution"),
    ("ferrers", "optimal_fdrmc"), ("ferrers", "nested_pair"),
    ("ferrers", "coset_list"),
    ("cdc", "build_coset_cdc_lists"), ("cdc", "multilevel"),
    ("theorems", "thm32_build"), ("theorems", "thm32_count"),
    ("theorems", "table11_bound"), ("theorems", "consistency_report"),
    ("verify", "check_cdc"), ("verify", "brute_force_optimum"),
    ("verify", "audit_fdrmc"),
    ("cli", "write_cdc"), ("cli", "read_cdc"), ("cli", "main"),
)


class Recorder:
    """Stage timer for untraced passes.

    ``stages`` holds each stage's time scaled to the reference host speed,
    ``raw`` the time as measured, and ``probes`` every probe time in order.
    A stage is scaled by the mean of the probe just before it and the probe
    just after it; the probe after one stage is the probe before the next.
    """

    def __init__(self):
        self.stages = {}
        self.raw = {}
        self.probes = []

    @contextmanager
    def stage(self, name):
        if not self.probes:
            probe()  # the first run in a fresh interpreter is slow; discard
            self.probes.append(probe())
        before = self.probes[-1]
        t0 = clock()
        try:
            yield
        finally:
            dt = clock() - t0
            self.probes.append(probe())
            scale = (REF_S / ((before + self.probes[-1]) / 2)) ** EXPONENT
            self.raw[name] = self.raw.get(name, 0.0) + dt
            self.stages[name] = self.stages.get(name, 0.0) + dt * scale

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(Recorder):
    """Stage timer that also keeps spans and counts in memory.

    A span is ``[name, parent index or -1, start, end]``; its index in
    ``spans`` is its id.
    """

    def __init__(self):
        super().__init__()
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           clock(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][3] = clock()
        self._stack.pop()

    @contextmanager
    def stage(self, name):
        with super().stage(name):  # probes stay outside the stage span
            sid = self._open(f"bench.{name}")
            try:
                yield
            finally:
                self._close(sid)

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name, fn, hook=None):
        """``fn`` with a span around each call; ``name`` may be a function
        of the call's arguments, ``hook(tracer, args, kwargs, result)``
        records counts."""
        def traced(*args, **kwargs):
            sid = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced


def _check_span(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "exhaustive")
    return "verify.check_sampled" if mode == "sampled" else \
        "verify.check_exhaustive"


def _count_check(tracer, args, kwargs, report):
    # sampled mode draws pairs with replacement but reports the draws as
    # pairs_checked; count them apart from exhaustively covered pairs
    key = "verify.draws" if report.mode.startswith("sampled") else \
        "verify.pairs"
    tracer.counts[key] += report.pairs_checked


def _count_bytes(tracer, args, kwargs, result):
    tracer.counts["cli.bytes"] += os.path.getsize(kwargs.get("path", args[1]))


def _gabidulin_hook(fn):
    sig = inspect.signature(fn)
    seen = set()

    def hook(tracer, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.add(tuple(bound.arguments.values()))
        tracer.counts["rankmetric.gabidulin_distinct"] = len(seen)
    return hook


def install(tracer):
    """Rebind the ``FUNCTIONS`` and two ``Subspace`` methods to traced
    versions in every loaded cdckit module.  Only for a process that runs
    a single traced pass: nothing is restored."""
    for modname in LAYERS:
        importlib.import_module(f"cdckit.{modname}")
    mods = [m for name, m in sys.modules.items()
            if name == "cdckit" or name.startswith("cdckit.")]
    for modname, attr in FUNCTIONS:
        orig = getattr(sys.modules[f"cdckit.{modname}"], attr)
        hook = None
        if attr == "check_cdc":
            name, hook = _check_span, _count_check
        else:
            name = f"{modname}.{attr}"
            if attr == "write_cdc":
                hook = _count_bytes
            elif attr == "gabidulin":
                hook = _gabidulin_hook(orig)
        traced = tracer.wrap(name, orig, hook)
        for m in mods:
            if m.__dict__.get(attr) is orig:
                setattr(m, attr, traced)
    sub = sys.modules["cdckit.linalg"].Subspace
    sub.from_matrix = classmethod(tracer.wrap(
        "linalg.from_matrix", sub.__dict__["from_matrix"].__func__))
    sub.member_mask = tracer.wrap("linalg.member_mask", sub.member_mask)


def summarize(spans, counts):
    """Self time per layer, calls and inclusive time per span name, and the
    per-layer metrics the benchmark reports."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s, calls, total, outer = Counter(), Counter(), Counter(), Counter()
    for i, (name, parent, t0, t1) in enumerate(spans):
        dur = t1 - t0
        self_s[name.split(".")[0]] += dur - child[i]
        calls[name] += 1
        total[name] += dur
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            outer[name] += dur  # not nested in a span of the same name

    def per_call(name, scale):
        return total[name] / calls[name] * scale if calls[name] else 0.0

    m = {
        "gf.field_new_ms": per_call("gf.field_new", 1e3),
        "gf.ext_new_ms": per_call("gf.ext_new", 1e3),
        "rankmetric.gabidulin_calls": calls["rankmetric.gabidulin"],
        "rankmetric.gabidulin_distinct":
            counts["rankmetric.gabidulin_distinct"],
        "verify.pairs": counts["verify.pairs"],
        "verify.draws": counts["verify.draws"],
        "cli.bytes": counts["cli.bytes"],
    }
    for name in ("linalg.from_matrix", "linalg.rank",
                 "linalg.subspace_distance", "linalg.member_mask",
                 "rankmetric.rank_distribution", "theorems.table11_bound"):
        m[f"{name}_us"] = per_call(name, 1e6)
    for name in ("rankmetric.gabidulin", "rankmetric.lift",
                 "ferrers.optimal_fdrmc", "ferrers.nested_pair",
                 "ferrers.coset_list", "cdc.build_coset_cdc_lists",
                 "cdc.multilevel", "theorems.thm32_build",
                 "theorems.thm32_count", "theorems.consistency_report",
                 "verify.check_exhaustive", "verify.check_sampled",
                 "verify.brute_force_optimum", "verify.audit_fdrmc",
                 "cli.write_cdc", "cli.read_cdc", "cli.main"):
        m[f"{name}_s"] = float(outer[name])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(self_s[layer])
    tables = {"self_s": dict(self_s), "calls": dict(calls),
              "total_s": dict(total), "counts": dict(counts)}
    return m, tables
