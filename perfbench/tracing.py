"""In-memory spans around the calls into gasketlab's layers.

The program itself carries no instrumentation, so the tracer replaces module
attributes with timing wrappers for the duration of a traced phase and puts
the originals back afterwards. A wrapper is installed on every module whose
namespace the call is resolved in: `pde.feynman_kac_check` looks up
`build_level_graph`, `solve_dp`, ... in `pde`'s globals, so those names are
shimmed in `pde` as well as in their home modules.

A span records name, start, end, parent span, run id, phase and the counts
its `attrs` hook derives from the call's arguments and result. The layer of
a span is the text before the first dot of its name.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
import tracemalloc
from dataclasses import dataclass, field

PEAK_PHASE = "peak"  # spans of this phase carry tracemalloc peaks; their times are not used
LAYERS = ("gasket", "exact", "harmonic", "measures", "walk", "bsde", "pde", "bounds")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: str = ""
    phase: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _level(obj) -> int:
    return int(obj.level)


def _cfg_steps(args, kwargs, result):
    cfg = args[0]
    return {"level": cfg.level, "path_steps": cfg.path_count * cfg.n_steps}


def _exit_attrs(args, kwargs, result):
    cfg, kernel = args[0], args[1]
    out = _cfg_steps(args, kwargs, result)
    # live path-steps per path: hit paths live until their hit, the rest to the horizon
    live = (result["hit_fraction"] * result.get("mean", 0.0) / kernel.dt
            + (1.0 - result["hit_fraction"]) * cfg.n_steps)
    out["live_path_steps"] = live * cfg.path_count
    return out


def _closed_form_attrs(args, kwargs, result):
    problem, kernel = args[3], args[4]
    layers = int(round(problem.horizon / kernel.dt))
    starts = kwargs.get("mc_starts") or ()
    paths = kwargs.get("mc_paths", 0) if starts else 0
    return {"level": kernel.level, "layers": layers,
            "mc_path_steps": paths * len(starts) * layers}


# (span name, modules whose attribute is replaced, attribute, attrs hook, trace peak memory)
SHIMS = (
    ("gasket.build_level_graph", ("gasket", "pde"), "build_level_graph",
     lambda a, k, r: {"level": int(a[0])}, False),
    ("exact.harmonic_restrict", ("harmonic",), "harmonic_restrict",
     lambda a, k, r: {"word_len": len(a[1])}, False),
    ("exact.kusuoka_mass", ("measures",), "kusuoka_mass",
     lambda a, k, r: {"word_len": len(a[0])}, False),
    ("harmonic.harmonic_energy", ("harmonic",), "harmonic_energy", None, False),
    ("harmonic.extend", ("harmonic", "walk"), "harmonic_extend_to_level",
     lambda a, k, r: {"level": int(a[1])}, False),
    ("harmonic.graph_energy", ("harmonic",), "graph_energy", None, False),
    ("harmonic.cell_energy_measure", ("harmonic",), "cell_energy_measure", None, False),
    ("harmonic.gradient_tables", ("pde",), "CellGradientTables",
     lambda a, k, r: {"level": _level(a[0])}, False),
    ("measures.energy_measure_table", ("measures",), "energy_measure_table",
     lambda a, k, r: {"level": int(a[1]), "cells": 3 ** int(a[1])}, False),
    ("measures.kusuoka_identity_check", ("measures",), "kusuoka_identity_check",
     lambda a, k, r: {"level": int(a[0]), "cells": 3 ** int(a[0])}, False),
    ("measures.kusuoka_measure", ("measures", "pde"), "kusuoka_measure",
     lambda a, k, r: {"level": int(a[0]), "cells": 3 ** int(a[0])}, False),
    ("walk.build_step_kernel", ("walk", "pde"), "build_step_kernel",
     lambda a, k, r: {"level": _level(a[0])}, False),
    ("walk.reflected", ("walk",), "ensemble_qv_snapshots", _cfg_steps, False),
    ("walk.killed", ("walk",), "exit_time_stats", _exit_attrs, False),
    ("walk.record", ("walk",), "simulate_paths", _cfg_steps, False),
    ("bsde.solve_dp", ("bsde", "pde"), "solve_dp",
     lambda a, k, r: {"level": _level(a[1]), "layers": r.n_steps}, True),
    ("bsde.picard_iterate", ("bsde",), "picard_iterate",
     lambda a, k, r: {"level": _level(a[1]), "sweeps": len(r["distances"])}, False),
    ("bsde.vbeta_norm", ("bsde",), "vbeta_norm", None, True),
    ("bsde.linear_closed_form", ("bsde",), "linear_closed_form", _closed_form_attrs, False),
    ("pde.feynman_kac_check", ("pde",), "feynman_kac_check", None, False),
    ("pde.solve_weak_pde", ("pde",), "solve_weak_pde",
     lambda a, k, r: {"level": r.level, "layers": r.u.shape[0] - 1}, True),
    ("pde.assemble_masses", ("pde",), "assemble_masses",
     lambda a, k, r: {"level": _level(a[0])}, False),
    ("pde.stiffness_matrix", ("pde",), "stiffness_matrix",
     lambda a, k, r: {"level": _level(a[0])}, False),
    ("bounds.fit_joint_constant", ("bounds",), "fit_joint_constant", None, False),
)


class Tracer:
    """Collects spans in memory; `install()` shims the layers, `remove()` restores them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def install(self, phase: str) -> None:
        self.phase = phase
        for name, modules, attr, hook, peak in SHIMS:
            for mod_name in modules:
                mod = importlib.import_module(f"gasketlab.{mod_name}")
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original, hook, peak))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, hook, peak):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = Span(next(self._ids), name, 0.0,
                        parent=self._stack[-1].id if self._stack else None,
                        run=self.run_id, phase=self.phase)
            own_peak = peak and self.phase == PEAK_PHASE and not tracemalloc.is_tracing()
            if own_peak:
                tracemalloc.start()
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if own_peak:
                    span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.spans.append(span)
            if hook is not None:
                span.attrs.update(hook(args, kwargs, result))
            return result

        return shim


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = s.duration - covered
    return out


MB = 1e6
LADDER = (3, 4, 5)


def layer_metrics(spans: list[Span], units: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the set-up and timed spans of `units` traced units.

    Durations per call and rates come from set-up and timed spans, and for the
    Kusuoka identity and table, which exact-certify certifies once per run,
    from check spans too; per-unit counts and self times come from timed
    spans only. A metric whose layer the
    workload never calls reads 0. Peaks come from the spans of the one unit
    run under tracemalloc: Python and numpy bytes allocated within the call,
    not SuperLU's internal allocations.
    """
    own = self_times(spans)
    used = [s for s in spans if s.phase in ("setup", "timed")]
    checked = used + [s for s in spans if s.phase == "check"]
    timed = [s for s in spans if s.phase == "timed"]
    peaked = [s for s in spans if s.phase == PEAK_PHASE]

    def pick(name, pool=used, **attrs):
        return [s for s in pool if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def per_call(ss, scale=1.0):
        return scale * sum(s.duration for s in ss) / len(ss) if ss else 0.0

    def per_item(ss, key, scale=1.0, self_time=False):
        n = sum(s.attrs[key] for s in ss)
        busy = sum(own[s.id] if self_time else s.duration for s in ss)
        return scale * busy / n if n else 0.0

    def per_unit(ss, key):
        return sum(s.attrs.get(key, 0) for s in ss) / units

    def peak_mb(name, **attrs):
        return max((s.attrs["peak_bytes"] for s in pick(name, peaked, **attrs)), default=0) / MB

    out: dict[str, tuple[float, str]] = {}
    for m in LADDER:
        out[f"gasket.build_s.m{m}"] = (per_call(pick("gasket.build_level_graph", level=m)), "s")
    out["exact.restrict_us"] = (per_call(pick("exact.harmonic_restrict", word_len=8), 1e6), "us")
    out["exact.kusuoka_mass_us"] = (per_call(pick("exact.kusuoka_mass", word_len=8), 1e6), "us")
    out["harmonic.extend_ms"] = (per_call(pick("harmonic.extend"), 1e3), "ms")
    out["harmonic.graph_energy_ms"] = (per_call(pick("harmonic.graph_energy"), 1e3), "ms")
    tables = pick("measures.energy_measure_table")
    busy = sum(s.duration for s in tables)
    out["measures.energy_table_cells_per_s"] = (
        sum(s.attrs["cells"] for s in tables) / busy if busy else 0.0, "1/s")
    for m in (5, 6, 7):
        out[f"measures.identity_check_s.m{m}"] = (
            per_call(pick("measures.kusuoka_identity_check", checked, level=m)), "s")
    for m in LADDER:
        out[f"measures.kusuoka_table_s.m{m}"] = (
            per_call(pick("measures.kusuoka_measure", checked, level=m)), "s")
    out["measures.leaf_cells"] = (sum(per_unit(pick(n, timed), "cells") for n in (
        "measures.energy_measure_table", "measures.kusuoka_identity_check",
        "measures.kusuoka_measure")), "count")
    for m in LADDER:
        out[f"walk.kernel_build_s.m{m}"] = (per_call(pick("walk.build_step_kernel", level=m)), "s")
    killed = pick("walk.killed")
    out["walk.reflected_ns_per_path_step"] = (per_item(pick("walk.reflected"), "path_steps", 1e9), "ns")
    out["walk.killed_ns_per_path_step"] = (per_item(killed, "path_steps", 1e9), "ns")
    steps = sum(s.attrs["path_steps"] for s in killed)
    out["walk.killed_live_ratio"] = (
        sum(s.attrs["live_path_steps"] for s in killed) / steps if steps else 0.0, "ratio")
    out["walk.record_ns_per_path_step"] = (per_item(pick("walk.record"), "path_steps", 1e9), "ns")
    out["walk.path_steps"] = (sum(per_unit(pick(n, timed), "path_steps") for n in (
        "walk.reflected", "walk.killed", "walk.record")), "count")
    for m in LADDER:
        dp = pick("bsde.solve_dp", level=m)
        out[f"bsde.dp_us_per_layer.m{m}"] = (per_item(dp, "layers", 1e6, self_time=True), "us")
        out[f"bsde.dp_peak_mb.m{m}"] = (peak_mb("bsde.solve_dp", level=m), "MB")
    out["bsde.dp_layers"] = (per_unit(pick("bsde.solve_dp", timed), "layers"), "count")
    closed = pick("bsde.linear_closed_form", mc_path_steps=0)
    weighted = [s for s in pick("bsde.linear_closed_form") if s.attrs["mc_path_steps"]]
    per_layer = per_item(closed, "layers")
    mc_steps = sum(s.attrs["mc_path_steps"] for s in weighted)
    mc_busy = sum(s.duration - s.attrs["layers"] * per_layer for s in weighted)
    out["bsde.mc_linear_ns_per_path_step"] = (1e9 * mc_busy / mc_steps if mc_steps else 0.0, "ns")
    out["bsde.mc_path_steps"] = (
        sum(s.attrs["mc_path_steps"] for s in weighted if s.phase == "timed") / units, "count")
    out["bsde.closed_form_us_per_layer"] = (1e6 * per_layer, "us")
    picard = pick("bsde.picard_iterate")
    out["bsde.picard_sweep_ms"] = (per_item(picard, "sweeps", 1e3, self_time=True), "ms")
    out["bsde.picard_sweeps"] = (per_unit(pick("bsde.picard_iterate", timed), "sweeps"), "count")
    vbeta = pick("bsde.vbeta_norm")
    out["bsde.vbeta_norm_ms"] = (per_call(vbeta, 1e3), "ms")
    out["bsde.vbeta_peak_mb"] = (peak_mb("bsde.vbeta_norm"), "MB")
    for m in LADDER:
        weak = pick("pde.solve_weak_pde", level=m)
        out[f"pde.us_per_layer.m{m}"] = (per_item(weak, "layers", 1e6, self_time=True), "us")
        assembly = pick("pde.assemble_masses", level=m) + pick("pde.stiffness_matrix", level=m)
        out[f"pde.assemble_s.m{m}"] = (sum(s.duration for s in assembly) / len(weak) if weak else 0.0, "s")
        out[f"pde.peak_mb.m{m}"] = (peak_mb("pde.solve_weak_pde", level=m), "MB")
    out["pde.layers"] = (per_unit(pick("pde.solve_weak_pde", timed), "layers"), "count")
    out["bounds.fit_joint_ms"] = (per_call(pick("bounds.fit_joint_constant"), 1e3), "ms")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(own[s.id] for s in timed if s.layer == layer) / units, "s")
    return out
