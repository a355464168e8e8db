"""The two in-process workloads: ``table2`` and ``datapath_throughput``.

Both run the repository's synthesis flows directly, one design flow per
operation, with the flow's own refinement check switched on.  A flow
whose check fails raises :class:`repro.verify.VerificationError`; the
operation is counted as failed and the run goes on.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from collections import defaultdict

from repro import obs
from repro.flows import baseline_flow, cslow_flow, pipeline_flow, retime_flow
from repro.synth import (
    DATAPATH_NAMES,
    DESIGN_NAMES,
    build_datapath,
    build_design,
)
from repro.verify import VerificationError

from common import Op, Pass
from layers import COUNTERS, FLOW_WRAPS, LayerClock, resolve_attempts

#: the paper's Table 2 runs at this scale keep C4 (the min-area-bound
#: design) at several seconds while the whole set fits in one run
TABLE2_SCALE = 0.3
#: runs per pass of two Table 2 designs, so that both percentiles fall on
#: an input whose runs are spread over the pass: of the 59 flows, the
#: median is a C3 flow, and the 90th percentile, 6th from the top, is a
#: C7 flow below the four large designs (C4, C6, C9, C10)
REPEATS = {"C3": 45, "C7": 6}
PIPELINE_STAGES = 2
CSLOW_FACTOR = 3


def _run_op(kind: str, fn) -> Op:
    t0 = time.perf_counter()
    try:
        flow = fn()
    except VerificationError as exc:
        return Op(kind, time.perf_counter() - t0, False, error=f"verify: {exc}",
                  key=kind)
    except Exception as exc:  # noqa: BLE001 - a crashed flow is a failed op
        traceback.print_exc(file=sys.stderr)
        return Op(kind, time.perf_counter() - t0, False, error=repr(exc), key=kind)
    latency = time.perf_counter() - t0
    return Op(kind, latency, True, qor=(flow.delay, flow.n_ff, flow.n_lut), key=kind)


class InProcess:
    """Runs a fixed list of (kind, flow thunk) operations per pass.

    The kind names the input: operations of one kind run the same flow
    on the same design.
    """

    #: kinds of the small operations run once during set-up
    warmup: tuple[str, ...] = ()
    #: roughly how long one pass takes on a 2-CPU host
    pass_seconds: float

    def __init__(self, seed: int, tmp=None) -> None:
        self.seed = seed
        self.ops: list[tuple[str, object]] = []

    def _build(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def setup(self) -> None:
        self.ops = self._build()
        random.Random(self.seed).shuffle(self.ops)
        # warm-up: small whole flows, so lazy imports and first-call
        # initialisation are paid before the clock starts
        thunks = dict(self.ops)
        for kind in self.warmup:
            _run_op(kind, thunks[kind])

    def run_pass(self, index: int) -> Pass:
        t0 = time.perf_counter()
        c0 = time.process_time()
        ops = [_run_op(kind, fn) for kind, fn in self.ops]
        return Pass(time.perf_counter() - t0, time.process_time() - c0, ops)

    def traced_pass(self) -> tuple[Pass, Pass, dict[str, float]]:
        """One pass untraced, one with wrapped layers and obs counters."""
        untraced = self.run_pass(0)
        clock = LayerClock().install(FLOW_WRAPS)
        tracer = obs.start(trace_id="perfbench")
        try:
            traced = self.run_pass(1)
        finally:
            clock.restore()
            obs.stop()
        figures: dict[str, float] = defaultdict(float, clock.seconds)
        figures["timing.sta_calls"] = clock.calls["timing.sta_s"]
        figures["trace.unattributed_s"] = traced.wall - clock.attributed()
        for name in COUNTERS:
            figures[name] = tracer.counters.get(name, 0)
        figures["mcretime.resolve_attempts"] = resolve_attempts(tracer.counters)
        return untraced, traced, figures

    def check(self, passes: list[Pass]) -> list[str]:
        """Every run of an input must give the same result, and every
        pass must reproduce the first pass's results exactly."""
        errors = []
        results: dict[str, tuple] = {}
        for op in passes[0].ops:
            if results.setdefault(op.kind, (op.ok, op.qor)) != (op.ok, op.qor):
                errors.append(f"{op.kind}: runs in pass 0 give different results")
        first = [(op.kind, op.ok, op.qor) for op in passes[0].ops]
        for index, p in enumerate(passes[1:], 1):
            if [(op.kind, op.ok, op.qor) for op in p.ops] != first:
                errors.append(f"pass {index} results differ from pass 0")
        return errors

    def expected_qor(self, expected: dict) -> dict[str, float]:
        """Fixed designs: the seed only orders the operations, so the
        ``qor.*`` sums are the same for every seed."""
        return expected["qor"][self.name]

    def close(self) -> None:
        pass


class Table2(InProcess):
    """Table 2: baseline_flow -> retime_flow (min-area) -> remap, verified.

    The ten Table 2 designs, C3 and C7 run :data:`REPEATS` times a pass.
    """

    name = "table2"
    warmup = ("C3",)
    pass_seconds = 30.0

    def _build(self):
        ops = []
        for name in DESIGN_NAMES:

            def flow(circuit=build_design(name, TABLE2_SCALE).circuit):
                base = baseline_flow(circuit)
                return retime_flow(circuit, mapped=base, verify=True)

            ops += [(name, flow)] * REPEATS.get(name, 1)
        return ops


class Datapath(InProcess):
    """pipeline_flow (K=2) and cslow_flow (C=3) over the datapath family."""

    name = "datapath_throughput"
    warmup = ("NTT4/pipeline", "NTT4/cslow")
    pass_seconds = 6.0

    def _build(self):
        ops = []
        for name in DATAPATH_NAMES:
            circuit = build_datapath(name).circuit
            ops.append((
                f"{name}/pipeline",
                lambda c=circuit: pipeline_flow(c, PIPELINE_STAGES, verify=True),
            ))
            ops.append((
                f"{name}/cslow",
                lambda c=circuit: cslow_flow(c, CSLOW_FACTOR, verify=True),
            ))
        return ops
