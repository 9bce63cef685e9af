"""Spans and counts at mixwidth's layer boundaries, recorded from outside.

`Tracer.install` replaces each traced function at every attribute of every
loaded mixwidth module that holds it, so every lookup site (``mixwidth.psi.phi``,
``mixwidth.verify.psi``, ``mixwidth.cli.load_instance``, ...) goes through
the wrapper; `uninstall` puts the originals back. Every call adds to its
name's count, total time and self time (its duration minus the part its
traced callees cover). Calls of the coarse layers are also kept as spans,
in memory, tagged with the job that caused them; hot leaf functions are
only aggregated, so tracing them stays cheap.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, function): the function as defined in that mixwidth module.
TRACED = (
    ("cli", "main"),
    ("cli", "load_instance"),
    ("psi", "psi"),
    ("psi", "psi_component"),
    ("psi", "validate_instance"),
    ("phi", "phi"),
    ("exponents", "solve_crossing"),
    ("exponents", "solve_critical_crossing"),
    ("exponents", "barycentric"),
    ("exponents", "convex_combine"),
    ("witness", "best_witness_lower_bound"),
    ("witness", "v_inclusion_scale"),
    ("witness", "v_width_lower_bound"),
    ("norms", "mixed_norm"),
    ("norms", "membership"),
    ("norms", "sample_boundary"),
    ("norms", "interpolation_check"),
    ("norms", "corollary_check"),
    ("oracles", "numeric_width_estimate"),
    ("verify", "run_suites"),
)

# Layers whose every call is kept as a span.
SPANNED = {
    "cli.main", "cli.load_instance", "psi.psi", "witness.best_witness_lower_bound",
    "oracles.numeric_width_estimate", "verify.run_suites",
}

# A call "hits" when the crossing solver admits the pair.
HIT_WHEN_NOT_NONE = ("exponents.solve_crossing", "exponents.solve_critical_crossing")

# Triple-scan components whose allocation peak is measured with tracemalloc.
PEAK_COMPONENTS = (6, 7)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.peak_mb: dict[int, float] = defaultdict(float)
        # (component, ball count) -> an instance, for measure_peaks
        self._peak_inputs: dict[tuple[int, int], object] = {}
        self._psi_component = None
        self.spans: list[tuple] = []  # (id, parent id, job, name, start, end)
        self.job = None
        self._stack: list[list] = []  # [span id or None, time covered by callees]
        self._next_id = 0
        self._patched: list[tuple] = []

    def _call(self, name: str, fn, args, kwargs):
        span_id = None
        if name in SPANNED or name.startswith("psi.component."):
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if span_id is not None:
                parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
                self.spans.append((span_id, parent, self.job, name, start, end))
        if name in HIT_WHEN_NOT_NONE and result is not None:
            self.hits[name] += 1
        return result

    def _wrapper(self, name: str, fn):
        if name == "psi.psi_component":
            self._psi_component = fn

            def component(inst, j):
                if j in PEAK_COMPONENTS:
                    self._peak_inputs.setdefault((j, len(inst.balls)), inst)
                return self._call(f"psi.component.{j}", fn, (inst, j), {})
            return component

        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        """Route every traced function through this tracer."""
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "mixwidth" or name.startswith("mixwidth.")
        ]
        for module_name, fn_name in TRACED:
            original = getattr(importlib.import_module(f"mixwidth.{module_name}"), fn_name)
            wrapped = self._wrapper(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def measure_peaks(self) -> None:
        """Allocation peak of each triple scan, once per (component, ball
        count) seen while traced, in untimed calls after the traced pass:
        tracemalloc slows the exact Fraction path several times over. The
        triple arrays grow with the ball count only."""
        for (j, _), inst in self._peak_inputs.items():
            tracemalloc.start()
            try:
                self._psi_component(inst, j)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self.peak_mb[j] = max(self.peak_mb[j], peak)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, named as in BENCHMARK.json."""
        c, t, s = self.calls, self.total, self.self_time
        out = {
            "cli.load_instance.s": t["cli.load_instance"],
            "cli.self_s": s["cli.main"],
            "psi.psi.calls": c["psi.psi"],
            "psi.psi.s": t["psi.psi"],
            "psi.self_s": s["psi.psi"],
            "psi.validate_instance.s": t["psi.validate_instance"],
        }
        for j in range(8):
            out[f"psi.component_s.{j}"] = t[f"psi.component.{j}"]
        for j in PEAK_COMPONENTS:
            out[f"psi.component_peak_mb.{j}"] = self.peak_mb[j]
        out["phi.phi.calls"] = c["phi.phi"]
        out["phi.phi.s"] = t["phi.phi"]
        out["phi.us_per_call"] = 1e6 * t["phi.phi"] / c["phi.phi"] if c["phi.phi"] else 0.0
        for name in HIT_WHEN_NOT_NONE:
            out[f"{name}.calls"] = c[name]
            out[f"{name}.hits"] = self.hits[name]
            out[f"{name}.s"] = t[name]
        pair_calls = sum(c[name] for name in HIT_WHEN_NOT_NONE)
        pair_hits = sum(self.hits[name] for name in HIT_WHEN_NOT_NONE)
        out["psi.pair_admit_ratio"] = pair_hits / pair_calls if pair_calls else 0.0
        out["exponents.barycentric.calls"] = c["exponents.barycentric"]
        out["exponents.barycentric.s"] = t["exponents.barycentric"]
        out["exponents.convex_combine.calls"] = c["exponents.convex_combine"]
        for name in ("best_witness_lower_bound", "v_inclusion_scale"):
            out[f"witness.{name}.calls"] = c[f"witness.{name}"]
            out[f"witness.{name}.s"] = t[f"witness.{name}"]
        out["witness.v_width_lower_bound.calls"] = c["witness.v_width_lower_bound"]
        for name in ("mixed_norm", "membership", "sample_boundary",
                     "interpolation_check", "corollary_check"):
            out[f"norms.{name}.calls"] = c[f"norms.{name}"]
            out[f"norms.{name}.s"] = t[f"norms.{name}"]
        out["oracles.numeric_width_estimate.calls"] = c["oracles.numeric_width_estimate"]
        out["oracles.numeric_width_estimate.s"] = t["oracles.numeric_width_estimate"]
        out["oracles.self_s"] = s["oracles.numeric_width_estimate"]
        out["verify.run_suites.s"] = t["verify.run_suites"]
        out["verify.self_s"] = s["verify.run_suites"]
        return out
