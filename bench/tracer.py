"""Timing wrappers around smoothlab's public functions, for the traced run.

``Tracer.install`` wraps every public module-level function of the
smoothlab modules, the check functions in ``verify.CHECKS``,
``ModulusCurve.interp`` and ``Workbench._get``.  Modules that imported a
name directly (``moduli`` imports ``transform`` from ``spectral``) hold
their own binding, so every smoothlab module namespace is swept and each
binding of a wrapped function is replaced.  Spans (id, parent id, name,
start ns, end ns) stay in memory; ``layer_metrics`` reduces them at the
end of the run and ``dump`` writes them out.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import json
import sys
import threading
import time

MODULES = ("grid", "spectral", "moduli", "corpus", "approx", "verify", "cli")

#: bytes moved by one complex128 FFT, per grid point: read 16 B, write 16 B
FFT_BYTES_PER_POINT = 32

FFT_GROUP = {"spectral.transform": "spectral.fft", "spectral.inverse": "spectral.fft"}

#: property ids of the catalogue rows the workloads run
CHECK_IDS = (
    "P1a", "P1b", "P1c", "P2", "P4", "P5", "P6", "P7", "P8", "P9", "P10",
    "P11", "P12", "P13", "P14", "P15", "P16", "P17", "NSB", "BERN", "NIK",
    "HLN1", "HLN3",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.enabled = True
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._keys = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, points=None, namer=None):
        """Span around fn.  ``namer(args, kwargs)`` may rename the span;
        ``points(args)`` adds grid points to the FFT byte count."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                label = namer(args, kwargs) if namer else name
                tracer.spans.append((sid, parent, label, t0, t1))
                if points is not None:
                    with tracer._lock:
                        tracer.counts["fft_points"] += points(args)

        return traced

    def install(self):
        mods = {m: sys.modules[f"smoothlab.{m}"] for m in MODULES
                if f"smoothlab.{m}" in sys.modules}
        replace = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                public = not attr.startswith("_") and inspect.isfunction(fn)
                if not public or fn.__module__ != mod.__name__:
                    continue
                replace[fn] = self.wrap(f"{short}.{attr}", fn, **_special(short, attr))
        verify = mods.get("verify")
        if verify is not None:
            for pid, fn in verify.CHECKS.items():
                replace[fn] = self.wrap(f"verify.check.{pid}", fn)
            for pid in verify.CHECKS:
                verify.CHECKS[pid] = replace[verify.CHECKS[pid]]
            self._wrap_workbench(verify.Workbench)
        if "moduli" in mods:
            curve = mods["moduli"].ModulusCurve
            curve.interp = self.wrap("moduli.curve_interp", curve.interp)
        names = [n for n in sys.modules if n == "smoothlab" or n.startswith("smoothlab.")]
        for mod in [sys.modules[n] for n in names]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replace:
                    setattr(mod, attr, replace[val])

    def _wrap_workbench(self, cls):
        tracer, get = self, cls._get

        def _get(wb, key, builder):
            with tracer._lock:
                tracer.counts["workbench_requests"] += 1

            def build():
                with tracer._lock:
                    tracer.counts["workbench_builds"] += 1
                    tracer._keys.add(key)
                return builder()

            return get(wb, key, build)

        cls._get = _get

    def layer_times(self) -> dict:
        """name -> [calls, inclusive ns, self ns]; self time subtracts the
        direct children traced in the same thread."""
        child_ns = collections.Counter()
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        out = collections.defaultdict(lambda: [0, 0, 0])
        for sid, _, name, t0, t1 in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child_ns[sid]
        return dict(out)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of one traced round, by name (values only)."""
        t = self.layer_times()

        def calls(*names):
            return sum(t[n][0] for n in names if n in t)

        def secs(*names):
            return sum(t[n][1] for n in names if n in t) / 1e9

        def self_secs(name):
            return t[name][2] / 1e9 if name in t else 0.0

        interp = ("spectral.interp_V", "spectral.interp_V_2d")
        projections = ("spectral.sharp_project", "spectral.bandlimit_project",
                       "spectral.riesz_project")
        m = {
            "grid.quasi_norm_calls": calls("grid.quasi_norm"),
            "grid.quasi_norm_s": secs("grid.quasi_norm"),
            "spectral.transform_calls": calls("spectral.transform"),
            "spectral.inverse_calls": calls("spectral.inverse"),
            "spectral.fft_s": secs("spectral.transform", "spectral.inverse"),
            "spectral.fft_bytes": FFT_BYTES_PER_POINT * self.counts["fft_points"],
            "spectral.interp_v_calls": calls(*interp),
            "spectral.interp_v_s": secs(*interp),
            "spectral.directional_derivative_calls": calls("spectral.directional_derivative"),
            "spectral.directional_derivative_s": secs("spectral.directional_derivative"),
            "spectral.projection_s": secs(*projections),
            "moduli.frac_difference_calls": calls("moduli.frac_difference"),
            "moduli.frac_difference_s": secs("moduli.frac_difference"),
            "moduli.frac_difference_self_s": self_secs("moduli.frac_difference"),
            "moduli.series_difference_calls": calls("moduli.series_difference"),
            "moduli.series_difference_s": secs("moduli.series_difference"),
            "moduli.modulus_s": secs("moduli.modulus"),
            "moduli.modulus_curve_s": secs("moduli.modulus_curve"),
            "moduli.mixed_modulus_s": secs("moduli.mixed_modulus"),
            "moduli.partial_modulus_s": secs("moduli.partial_modulus"),
            "moduli.averaged_modulus_s": secs("moduli.averaged_modulus"),
            "moduli.curve_interp_calls": calls("moduli.curve_interp"),
            "moduli.curve_interp_s": secs("moduli.curve_interp"),
            "corpus.grid_function_calls": calls("corpus.grid_function"),
            "corpus.grid_function_s": secs("corpus.grid_function"),
            "approx.near_best_calls": calls("approx.near_best"),
            "approx.near_best_s": secs("approx.near_best"),
            "approx.k_functional_s": secs("approx.k_functional"),
            "approx.realization_s": secs("approx.realization"),
            "approx.sup_directional_s": secs("approx.sup_directional"),
        }
        for pid in CHECK_IDS:
            m[f"verify.check.{pid}_s"] = secs(f"verify.check.{pid}")
        m.update({
            "verify.log_integral_calls": calls("verify.log_integral"),
            "verify.log_integral_s": secs("verify.log_integral"),
            "verify.workbench_requests": self.counts["workbench_requests"],
            "verify.workbench_builds": self.counts["workbench_builds"],
            "verify.workbench_keys": len(self._keys),
            "verify.report_json_s": secs("verify.canonical_json"),
            "cli.main_s": secs("cli.main"),
            "cli.main_self_s": self_secs("cli.main"),
            "trace.spans": len(self.spans),
        })
        return m

    def top_layers(self, n: int = 5) -> list:
        """(layer, self seconds) of the n layers with the most self time;
        forward and inverse transforms count as one layer, spectral.fft."""
        grouped = collections.Counter()
        for name, row in self.layer_times().items():
            grouped[FFT_GROUP.get(name, name)] += row[2] / 1e9
        return grouped.most_common(n)

    def dump(self, path: str):
        with open(path, "w") as fh:
            fields = ["id", "parent", "name", "start_ns", "end_ns"]
            json.dump({"fields": fields, "spans": self.spans}, fh)


def _special(module: str, attr: str) -> dict:
    if module == "spectral" and attr in ("transform", "inverse"):
        return {"points": lambda args: args[0].grid.points_per_axis ** args[0].grid.dimension}
    if module == "moduli" and attr == "frac_difference":
        def namer(args, kwargs):
            method = kwargs.get("method", args[3] if len(args) > 3 else "spectral")
            return "moduli.series_difference" if method == "series" else "moduli.frac_difference"
        return {"namer": namer}
    return {}
