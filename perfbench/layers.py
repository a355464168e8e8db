"""Per-layer timing from outside the program.

:class:`LayerClock` replaces public functions, at the module attribute
their callers look them up by, with timing wrappers.  Nested wrapped
calls are charged to the innermost layer, so each layer's time is its
*self* time and the layers' times add up without overlap; whatever the
wrappers do not cover is the unattributed remainder.  The program's own
work counters come from an in-memory :mod:`repro.obs` tracer.

The service workers are separate processes, so there the BLIF reader
and writer run inside :mod:`repro.obs` spans (:func:`in_spans`) that
each job's trace carries back.  Nothing under ``src/`` changes:
:meth:`Patches.restore` puts every original function back.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

from repro import obs

#: (module, attribute, layer metric) for the in-process flows: the names
#: ``repro.flows`` and the multiple-class retiming engine call them by
FLOW_WRAPS = [
    ("repro.flows.script", "optimize", "opt.optimize_s"),
    ("repro.flows.script", "map_luts", "techmap.map_s"),
    ("repro.flows.script", "remap", "techmap.remap_s"),
    ("repro.flows.script", "analyze", "timing.sta_s"),
    ("repro.flows.script", "check_sequential", "verify.check_s"),
    ("repro.flows.script", "check_pipeline", "verify.check_s"),
    ("repro.flows.script", "check_cslow", "verify.check_s"),
    ("repro.flows.script", "insert_pipeline_layers", "pipeline.transform_s"),
    ("repro.flows.script", "cslow_transform", "pipeline.transform_s"),
    ("repro.mcretime.engine", "build_mcgraph", "mcretime.build_s"),
    ("repro.mcretime.engine", "compute_bounds", "mcretime.bounds_s"),
    ("repro.mcretime.engine", "apply_sharing_transform", "mcretime.sharing_s"),
    ("repro.mcretime.engine", "min_period", "retime.minperiod_s"),
    ("repro.mcretime.engine", "min_area", "retime.minarea_s"),
    ("repro.mcretime.engine", "relocate", "mcretime.relocate_s"),
]

#: the BLIF reader/writer at the names the service front-end, its
#: admission path and its job layer call them by
NETLIST_WRAPS = [
    ("repro.netlist", "read_blif", "netlist.parse_s"),
    ("repro.netlist", "write_blif", "netlist.write_s"),
    ("repro.service.engine", "read_blif", "netlist.parse_s"),
    ("repro.service.jobs", "read_blif", "netlist.parse_s"),
    ("repro.service.jobs", "write_blif", "netlist.write_s"),
]

#: the BLIF reader/writer at the names the service workers call them
#: by (job parse, design-cache parse, ECO base parse, output write),
#: each run inside an obs span so that every job's trace carries them
WORKER_NETLIST_SPANS = [
    ("repro.service.jobs", "read_blif", "netlist.parse"),
    ("repro.service.interning", "read_blif", "netlist.parse"),
    ("repro.service.jobs", "write_blif", "netlist.write"),
]

#: obs work counters reported as they are
COUNTERS = [
    "minarea.rounds",
    "mcf.augmentations",
    "mcf.cost",
    "minperiod.probes",
    "feas.passes",
    "bf.solves",
    "bf.rounds",
    "bf.relaxations",
    "delta.sweeps",
    "delta.refreshes",
    "relocate.local_steps",
    "relocate.global_steps",
    "pipeline.registers_inserted",
    "cslow.registers_replicated",
    "verify.lane_cycles",
    "verify.failures",
    "kernels.compile_graph",
    "kernels.intern.hit",
    "kernels.intern.miss",
]


def resolve_attempts(counters: dict[str, float]) -> float:
    """Engine re-solves: one per justification conflict or deadlock."""
    return counters.get("relocate.conflicts", 0) + counters.get(
        "relocate.deadlocks", 0
    )


class Patches:
    """Module attributes replaced by wrappers; :meth:`restore` puts the
    originals back."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []

    def replace(self, module_name: str, attr: str, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        setattr(module, attr, make_wrapper(original))
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def in_spans(wraps) -> Patches:
    """Run each (module, attribute, span name) of *wraps* inside an
    :mod:`repro.obs` span of that name."""
    patches = Patches()
    for module_name, attr, name in wraps:

        def make_wrapper(original, name=name):
            def spanned(*args, **kwargs):
                with obs.span(name):
                    return original(*args, **kwargs)

            return spanned

        patches.replace(module_name, attr, make_wrapper)
    return patches


class LayerClock(Patches):
    """Self time and call counts per layer, from wrapped functions."""

    def __init__(self) -> None:
        super().__init__()
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._tls = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, module_name: str, attr: str, layer: str) -> None:
        def make_wrapper(original):
            def timed(*args, **kwargs):
                stack = self._stack()
                frame = [0.0]  # seconds spent in wrapped callees
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    with self._lock:
                        self.seconds[layer] += elapsed - frame[0]
                        self.calls[layer] += 1

            return timed

        self.replace(module_name, attr, make_wrapper)

    def install(self, wraps) -> "LayerClock":
        for module_name, attr, layer in wraps:
            self.wrap(module_name, attr, layer)
        return self

    def attributed(self) -> float:
        return sum(self.seconds.values())
