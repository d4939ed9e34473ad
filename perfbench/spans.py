"""In-memory span tracer for the benchmark's traced run.

Wraps the holderlab functions each pipeline calls, at their layer boundary,
without touching the package's source.  ``geometry`` and ``lab`` bind
``fields``/``geometry`` functions by name, so every name that refers to a
wrapped function is rebound in every holderlab module, and restored on
``uninstall``.  The benchmark's own pipeline code calls the layers through
module attributes, so it picks up whichever binding is current.

A span is (name, start, end, parent index).  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

from holderlab import exponents, fields, geometry, lab, solvers

MODULES = {"exponents": exponents, "fields": fields, "solvers": solvers,
           "geometry": geometry, "lab": lab}

# (layer, attribute path) of every call the pipelines make into a layer.
TARGETS = (
    ("exponents", "sharp_exponents"),
    ("fields", "sample"),
    ("fields", "save_field"),
    ("fields", "load_field"),
    ("fields", "_region_cells"),
    ("fields", "SpaceTimeField.__post_init__"),
    ("fields", "SpaceTimeField.interp"),
    ("fields", "SourceTerm.eval_nodes"),
    ("solvers", "solve"),
    ("solvers", "sample_reference"),
    ("geometry", "sup_oscillation"),
    ("geometry", "p_avg_norm"),
    ("geometry", "lqr_norm"),
    ("geometry", "apply_scaling"),
    ("geometry", "pparabolic_smallness"),
    ("lab", "oscillation_profile"),
    ("lab", "fit_exponent"),
)


class Tracer:
    """Records nested spans of wrapped calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []  # [span index, child time]
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used for the pipeline root)."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self):
        end = time.perf_counter()
        index, child_time = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        span[4] = duration - child_time  # self time
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def wrap_oracle(self, oracle):
        """Proxy whose ``eval`` is traced as the solver's boundary oracle."""
        return _TracedOracle(self.wrap("solvers.oracle_eval", oracle.eval))

    # -- binding -----------------------------------------------------------

    def install(self):
        """Wrap every target and rebind each name that refers to it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, path in TARGETS:
            owner, attr = _resolve(layer, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self.wrap(f"{layer}.{path}", original)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapped)
                continue
            for module in MODULES.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, original, wrapped)

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _rebind(self, owner, name, original, wrapped):
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapped)

    # -- results -----------------------------------------------------------

    def reset(self):
        """Start a new span list; the old one stays valid for its holders."""
        if self._stack:
            raise RuntimeError("cannot reset inside an open span")
        self.spans = []

    def summary(self) -> dict:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        out: dict[str, dict] = {}
        for name, start, end, _parent, self_s in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return out


def write_spans(spans, path) -> None:
    """Spans as JSON rows [name, start, end, parent index, self seconds]."""
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "self_s"], "spans": spans}, fh)


class _TracedOracle:
    def __init__(self, traced_eval):
        self.eval = traced_eval


def _resolve(layer, path):
    owner = MODULES[layer]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr
