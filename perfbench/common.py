"""Shared pieces of the benchmark workloads: op records, passes, statistics.

A workload turns its seeded input set into *operations* (one design flow,
or one service request).  One *pass* runs every operation of the input
set once; the timed phase runs whole passes while they fit in the run's
time budget.  Every metric is derived from the op and pass records here,
so all three workloads define ``wall_s``, ``latency_p50_s`` and the
``qor.*`` sums the same way.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class Op:
    """Outcome of one operation."""

    kind: str
    latency: float
    ok: bool
    #: (final STA delay, registers, LUTs) of a successful operation
    qor: tuple[float, int, int] | None = None
    #: why the operation failed (verification, 429, job error)
    error: str | None = None
    #: the input this operation ran on, when the workload repeats it;
    #: ``None`` for a one-off operation
    key: str | None = None


@dataclass
class Pass:
    """One run over the whole input set."""

    wall: float
    cpu: float
    ops: list[Op] = field(default_factory=list)


def children() -> list[int]:
    """PIDs whose parent is this process (service workers, trackers)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces: fields restart after ')'
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _proc_cpu(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return 0.0
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def tree_cpu() -> float:
    """CPU seconds of this process plus its live children."""
    return time.process_time() + sum(_proc_cpu(pid) for pid in children())


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the peaks of its live children.

    Summing per-process peaks bounds the joint peak from above.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_hwm_kb(pid) for pid in children())) / 1024.0


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least a share
    *q* of the samples at or below it.

    Unlike interpolation it never blends two operations of different
    sizes, which on a few heterogeneous flows would mix their noise.
    """
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no values")
    return data[max(0, math.ceil(q * len(data)) - 1)]


def op_latencies(ops: list[Op]) -> list[float]:
    """One latency per operation: an operation on a repeated input
    counts at the mean latency of all the runs of that input.

    The runs of an input are spread over the timed phase, so their mean
    follows the host's speed over the whole phase the way ``wall_s``
    does; a single short run samples one moment of it.  Each operation
    still counts once, so a percentile weighs inputs by their repeats.
    """
    runs: dict[str, list[float]] = {}
    for op in ops:
        if op.key is not None:
            runs.setdefault(op.key, []).append(op.latency)
    means = {key: math.fsum(values) / len(values) for key, values in runs.items()}
    return [op.latency if op.key is None else means[op.key] for op in ops]


def distinct_inputs(ops: list[Op]) -> list[Op]:
    """The first operation on each input, in order."""
    seen = set()
    first = []
    for op in ops:
        if op.key is None or op.key not in seen:
            seen.add(op.key)
            first.append(op)
    return first


def end_to_end(
    passes: list[Pass], setup_s: float, rss_mb: float
) -> dict[str, float]:
    """The end-to-end metrics of a timed phase.

    ``wall_s``/``cpu_s`` are per-pass medians; latencies span every op
    of every pass (see :func:`op_latencies`); ``qor.*`` sum the distinct
    inputs of the first pass (the seeded input set), so they repeat
    exactly for a seed however many passes fit.
    """
    ops = [op for p in passes for op in p.ops]
    latencies = op_latencies(ops)
    first = [op.qor for op in distinct_inputs(passes[0].ops) if op.qor is not None]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_p90_s": quantile(latencies, 0.9),
        # fsum is exact, so the sum does not depend on the op order
        "qor.period_sum": math.fsum(q[0] for q in first),
        "qor.ff_sum": float(sum(q[1] for q in first)),
        "qor.lut_sum": float(sum(q[2] for q in first)),
        "ok_ratio": sum(op.ok for op in ops) / len(ops),
        "peak_rss_mb": rss_mb,
    }
