"""Per-layer timing of fareycf from outside the package.

`Tracer.install()` puts a timing wrapper around each function in LAYERS.
Modules import some of these functions by name (natext and kdynamics hold
their own references to `qumterval_of`, `locate_qumterval`, `orbit` and
`surd_from_periodic_cf`), so every attribute of every loaded ``fareycf.*``
module that *is* the original object is rebound, not only the one in the
defining module.  `uninstall()` puts the originals back.

Spans are kept in memory as [name, start, end, parent]; a layer's self time
is its span time minus the time of its child spans.  Hit ratios come from
`cache_info()` deltas of the original lru_cache objects.  Every per-layer
figure is reported per operation of the workload.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

perf_counter = time.perf_counter


def _letters(args, kwargs, result):
    return len(result.word)


def _orbit_steps(args, kwargs, result):
    return len(result.points) - 1


def _rects(args, kwargs, result):
    return len(result.rects)


def _mass_rects(args, kwargs, result):
    return len(args[0].rects)


def _kernel_steps(args, kwargs, result):
    steps = args[2] if len(args) > 2 else kwargs["steps"]
    burn_in = args[3] if len(args) > 3 else kwargs.get("burn_in", 1000)
    return steps + burn_in


# (module, function, counter of the work done in one call or None)
LAYERS = [
    ("cli", "main", None),
    ("bifurcation", "locate_qumterval", _letters),
    ("bifurcation", "qumterval_of", None),
    ("exactnum", "surd_from_periodic_cf", None),
    ("kdynamics", "orbit", _orbit_steps),
    ("natext", "build_attractor", _rects),
    ("natext", "attractor_corners", None),
    ("natext", "attractor_mass", _mass_rects),
    ("natext", "entropy_at", None),
    ("lyapunov", "birkhoff_log_deriv", _kernel_steps),
]
CACHED = ["bifurcation.qumterval_of", "natext.attractor_corners"]
ROOT = "op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.work: dict[str, int] = {}
        self.cache = {name: [0, 0] for name in CACHED}  # hits, misses
        self.ops = 0
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        for mod, fn, counter in LAYERS:
            module = sys.modules.get(f"fareycf.{mod}")
            if module is None:
                continue
            name = f"{mod}.{fn}"
            original = getattr(module, fn)
            self._originals[name] = original
            self._wrappers[name] = self._wrap(name, original, counter)

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if counter is not None:
                self.work[name] = self.work.get(name, 0) + counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, old_by_name, new_by_name):
        swap = {id(old_by_name[n]): new_by_name[n] for n in old_by_name}
        for modname, module in list(sys.modules.items()):
            if modname != "fareycf" and not modname.startswith("fareycf."):
                continue
            for attr, value in list(vars(module).items()):
                new = swap.get(id(value))
                if new is not None:
                    setattr(module, attr, new)

    def install(self):
        self._rebind(self._originals, self._wrappers)

    def uninstall(self):
        self._rebind(self._wrappers, self._originals)

    @contextmanager
    def op(self):
        """One traced operation: wrappers installed, a root span around it."""
        before = {n: self._originals[n].cache_info() for n in CACHED if n in self._originals}
        self.install()
        idx = len(self.spans)
        self.spans.append([ROOT, perf_counter(), 0.0, -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()
            self.uninstall()
            self.ops += 1
            for n, info in before.items():
                after = self._originals[n].cache_info()
                self.cache[n][0] += after.hits - info.hits
                self.cache[n][1] += after.misses - info.misses

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, _), c in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - c
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def summary(self) -> dict:
        """Raw totals over all traced operations (see layer_metrics)."""
        self_s, calls = self.self_times()
        op_s = sum(end - start for name, start, end, parent in self.spans if name == ROOT)
        return {
            "ops": self.ops,
            "op_s": op_s,
            "self_s": self_s,
            "calls": calls,
            "work": dict(self.work),
            "cache": {n: list(v) for n, v in self.cache.items()},
        }


def merge(summaries: list[dict]) -> dict:
    """Sum the raw totals of several tracers (one per traced CLI call)."""
    out = {"ops": 0, "op_s": 0.0, "self_s": {}, "calls": {}, "work": {}, "cache": {}}
    for s in summaries:
        out["ops"] += s["ops"]
        out["op_s"] += s["op_s"]
        for key in ("self_s", "calls", "work"):
            for k, v in s[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for k, (h, m) in s["cache"].items():
            acc = out["cache"].setdefault(k, [0, 0])
            acc[0] += h
            acc[1] += m
    return out


def layer_metrics(summary: dict, compiled: bool) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per operation, from merged raw totals.

    Layers a workload never calls report 0.  `trace.unattributed_s` is the
    part of an operation outside every wrapped layer; the layer self times
    plus it sum to `trace.op_s`.
    """
    n = max(summary["ops"], 1)
    self_s, calls, work, cache = summary["self_s"], summary["calls"], summary["work"], summary["cache"]

    def per_op(d, key):
        return d.get(key, 0) / n

    def ratio(key):
        hits, misses = cache.get(key, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    mass_rects = work.get("natext.attractor_mass", 0)
    steps = work.get("lyapunov.birkhoff_log_deriv", 0)
    m = {
        "cli.main.self_ms": (1000 * per_op(self_s, "cli.main"), "ms"),
        "bifurcation.locate_qumterval.self_s": (per_op(self_s, "bifurcation.locate_qumterval"), "s"),
        "bifurcation.locate_qumterval.calls": (per_op(calls, "bifurcation.locate_qumterval"), "count"),
        "bifurcation.locate_qumterval.letters": (per_op(work, "bifurcation.locate_qumterval"), "count"),
        "bifurcation.qumterval_of.self_s": (per_op(self_s, "bifurcation.qumterval_of"), "s"),
        "bifurcation.qumterval_of.calls": (per_op(calls, "bifurcation.qumterval_of"), "count"),
        "bifurcation.qumterval_of.hit_ratio": (ratio("bifurcation.qumterval_of"), "ratio"),
        "exactnum.surd_from_periodic_cf.self_s": (per_op(self_s, "exactnum.surd_from_periodic_cf"), "s"),
        "exactnum.surd_from_periodic_cf.calls": (per_op(calls, "exactnum.surd_from_periodic_cf"), "count"),
        "kdynamics.orbit.self_s": (per_op(self_s, "kdynamics.orbit"), "s"),
        "kdynamics.orbit.steps": (per_op(work, "kdynamics.orbit"), "count"),
        "natext.build_attractor.self_s": (per_op(self_s, "natext.build_attractor"), "s"),
        "natext.build_attractor.rects": (per_op(work, "natext.build_attractor"), "count"),
        "natext.attractor_corners.self_s": (per_op(self_s, "natext.attractor_corners"), "s"),
        "natext.attractor_corners.hit_ratio": (ratio("natext.attractor_corners"), "ratio"),
        "natext.attractor_mass.self_s": (per_op(self_s, "natext.attractor_mass"), "s"),
        "natext.attractor_mass.us_per_rect": (
            1e6 * self_s.get("natext.attractor_mass", 0) / mass_rects if mass_rects else 0.0,
            "us",
        ),
        "natext.entropy_at.self_s": (per_op(self_s, "natext.entropy_at"), "s"),
        "lyapunov.birkhoff_log_deriv.self_s": (per_op(self_s, "lyapunov.birkhoff_log_deriv"), "s"),
        "lyapunov.birkhoff_log_deriv.steps": (per_op(work, "lyapunov.birkhoff_log_deriv"), "count"),
        "lyapunov.ns_per_step": (
            1e9 * self_s.get("lyapunov.birkhoff_log_deriv", 0) / steps if steps else 0.0,
            "ns",
        ),
        "lyapunov.compiled": (1 if compiled else 0, "flag"),
        "trace.op_s": (summary["op_s"] / n, "s"),
        "trace.unattributed_s": (per_op(self_s, ROOT), "s"),
    }
    return m
