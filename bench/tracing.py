"""Layer spans recorded from outside the library.

``Tracer.install`` wraps the public functions listed in ``LAYERS`` and
rebinds every module attribute of the package that refers to one of them
(``integrate`` lives in ``quadrature`` but is called through ``bounds`` and
``spectra``, ``l_max`` through ``bounds`` and ``spectra``, and so on).  Each
wrapper records a span (name, start, end, parent) and charges the span's
self time, its duration minus the time of its child spans, to its layer.
A call into a layer from inside the same layer (``integrate_semiinfinite``
calling ``integrate``) is part of the outer span.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# (module, function, layer)
LAYERS = (
    ("spectra", "assemble", "spectra.assemble"),
    ("spectra", "inertia_negative_count", "spectra.sturm"),
    ("spectra", "lowest_eigenvalues", "spectra.bisect"),
    ("spectra", "count_negative", "spectra.count"),
    ("spectra", "total_central_count", "spectra.count"),
    ("spectra", "quadratic_form_value", "spectra.quadform"),
    ("spectra", "kinetic_term", "spectra.quadform"),
    ("quadrature", "integrate", "quadrature.integrate"),
    ("quadrature", "integrate_semiinfinite", "quadrature.integrate"),
    ("potentials", "check_bounded_below_weighted", "potentials.hypothesis"),
    ("bounds", "l_max", "bounds.l_max"),
    ("bounds", "bound_1d", "bounds.bound"),
    ("bounds", "central_bound", "bounds.bound"),
    ("bounds", "clr_bound", "bounds.bound"),
    ("harness", "run_bound_sweep", "harness.sweep"),
    ("harness", "run_transform_identity", "harness.transform"),
    ("harness", "run_hardy_positivity", "harness.hardy"),
    ("harness", "run_existence_check", "harness.existence"),
    ("harness", "run_convergence_study", "harness.convergence"),
    ("cli", "write_json_report", "cli.report"),
    ("cli", "main", "cli"),
)


def _count_work(stats: dict, layer: str, args, result) -> None:
    """Work counters, read from the arguments and results of a call."""
    if layer == "spectra.assemble":
        stats["spectra.grid_points"] += args[1].m
    elif layer == "quadrature.integrate":
        stats["quadrature.evals"] += result.evaluations
    elif layer == "spectra.count" and isinstance(result, tuple):  # total_central_count
        table = result[1]
        stats["spectra.channels"] += len(table)
        stats["spectra.nonzero_channels"] += sum(1 for row in table if row["count"] > 0)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.stats = defaultdict(int)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [layer, span id, child seconds]

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.stats.clear()
        self.spans.clear()

    def _wrap(self, layer: str, fn, label: str = ""):
        stack = self._stack
        label = label or fn.__name__

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            parent = stack[-1][1] if stack else None
            self.spans.append(None)
            frame = [layer, span_id, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.self_s[layer] += (t1 - t0) - frame[2]
                self.calls[layer] += 1
                if stack:
                    stack[-1][2] += t1 - t0
                self.spans[span_id] = (span_id, parent, layer, label, t0, t1)
            _count_work(self.stats, layer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, label: str, fn, *args):
        """Run one benchmark operation as a root span of the "op" layer, whose
        self time is the time no layer span covers."""
        return self._wrap("op", fn, label)(*args)

    @contextlib.contextmanager
    def install(self):
        """Rebind the layer functions in every hardybounds module, and restore
        them on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hardybounds" or name.startswith("hardybounds."))]
        patched = []
        for mod_name, fn_name, layer in LAYERS:
            orig = getattr(sys.modules[f"hardybounds.{mod_name}"], fn_name)
            wrapped = self._wrap(layer, orig)
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapped)
                    patched.append((mod, fn_name, orig))
        try:
            yield self
        finally:
            for mod, fn_name, orig in patched:
                setattr(mod, fn_name, orig)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-round per-layer numbers: self times in ms and work counts."""
    ms = {layer: 1e3 * s for layer, s in tracer.self_s.items()}
    g = lambda layer: ms.get(layer, 0.0)  # noqa: E731
    calls = tracer.calls
    st = tracer.stats
    return {
        "spectra.assemble_ms": g("spectra.assemble"),
        "spectra.assemble_calls": calls["spectra.assemble"],
        "spectra.grid_points": st["spectra.grid_points"],
        "spectra.sturm_ms": g("spectra.sturm"),
        "spectra.sturm_calls": calls["spectra.sturm"],
        "spectra.bisect_ms": g("spectra.bisect"),
        "spectra.count_self_ms": g("spectra.count"),
        "spectra.channels": st["spectra.channels"],
        "spectra.nonzero_channel_ratio": (
            st["spectra.nonzero_channels"] / st["spectra.channels"] if st["spectra.channels"] else 0.0
        ),
        "spectra.quadform_ms": g("spectra.quadform"),
        "quadrature.integrate_ms": g("quadrature.integrate"),
        "quadrature.integrate_calls": calls["quadrature.integrate"],
        "quadrature.evals": st["quadrature.evals"],
        "potentials.hypothesis_ms": g("potentials.hypothesis"),
        "potentials.hypothesis_calls": calls["potentials.hypothesis"],
        "bounds.l_max_ms": g("bounds.l_max"),
        "bounds.l_max_calls": calls["bounds.l_max"],
        "bounds.bound_self_ms": g("bounds.bound"),
        "harness.sweep_ms": g("harness.sweep"),
        "harness.transform_ms": g("harness.transform"),
        "harness.hardy_ms": g("harness.hardy"),
        "harness.existence_ms": g("harness.existence"),
        "harness.convergence_ms": g("harness.convergence"),
        "cli.report_ms": g("cli.report"),
        "cli.self_ms": g("cli"),
        "trace.wall_ms": 1e3 * wall_s,
        "trace.unattributed_ms": g("op"),
    }
