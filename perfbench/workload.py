"""One benchmark run of one workload in this (fresh) process.

Started by ``run.py``; prints one JSON object as the last line of stdout:
``{"errors": [...], "attempted": n, "failed": n, "metrics": {name: value}}``
with the end-to-end metrics, or with ``--trace 1`` the per-layer ones.
Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up runs this many times per run; ``setup_s`` is the median
SETUP_REPEATS = 3


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    from inprocess import Datapath, Table2
    from service import ServiceMixed

    return {w.name: w for w in (Table2, Datapath, ServiceMixed)}


def timed_phase(workload, seconds: float):
    """As many whole passes as nominally fit in *seconds* (at least one).

    The count depends on *seconds* only, never on measured times, so
    every run of a workload aggregates the same operations.
    """
    n = max(1, int(seconds // workload.pass_seconds))
    return [workload.run_pass(index) for index in range(n)]


def expected_errors(workload, passes, metrics: dict) -> list[str]:
    """Results against ``expected.json``, at every seed.

    ``qor.*`` must match exactly.  Each pass must have at least the
    expected number of operations that passed their check: the count
    records the known defects, so a fix that raises it still passes.
    """
    expected = json.loads((HERE / "expected.json").read_text())
    errors = [
        f"{key}: {metrics[key]!r} != expected {value!r}"
        for key, value in workload.expected_qor(expected).items()
        if not math.isclose(metrics[key], value, rel_tol=1e-9)
    ]
    least = expected["ok_per_pass"][workload.name]
    for index, p in enumerate(passes):
        ok = sum(op.ok for op in p.ops)
        if ok < least:
            errors.append(f"pass {index}: {ok} of {len(p.ops)} operations "
                          f"passed, expected at least {least}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args()
    # stopped by the harness: unwind, so ``finally`` closes the service
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workloads = _import_program()
    from common import end_to_end, peak_rss_mb

    cls = workloads[args.workload]
    workload = cls(args.seed, args.tmp)
    import_s = time.perf_counter() - T_START
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)
        if args.trace:
            untraced, traced, figures = workload.traced_pass()
            passes = [untraced, traced]
        else:
            passes = timed_phase(workload, args.seconds)
        # while the service workers are still alive
        rss_mb = peak_rss_mb()
    finally:
        workload.close()
    t0 = time.perf_counter()
    errors = workload.check(passes)
    check_s = time.perf_counter() - t0

    ops = [op for p in passes for op in p.ops]
    e2e = end_to_end(passes, setup_s, rss_mb)
    errors += expected_errors(workload, passes, e2e)
    if args.trace:
        figures["trace.overhead_ratio"] = traced.wall / untraced.wall
        if getattr(workload, "explain_checked", 0):
            figures["explain.valid_ratio"] = (
                workload.explain_valid / workload.explain_checked
            )
        # a layer the workload does not run reports 0
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: float(figures.get(m["name"], 0.0)) for m in per_layer}
    else:
        metrics = e2e

    failures = Counter(
        f"{op.kind}: {op.error.splitlines()[0][:120]}" for op in ops if not op.ok
    )
    print(
        f"perfbench {cls.name}: import {import_s:.2f} s, set-ups "
        f"{', '.join(f'{s:.2f}' for s in setups)} s, checks {check_s:.2f} s",
        file=sys.stderr,
    )
    print(
        f"perfbench {cls.name}: pass walls "
        f"{', '.join(f'{p.wall:.2f}' for p in passes)} s, {len(ops)} ops, "
        f"{len(ops) - sum(failures.values())} ok, "
        f"{sum(op.latency > e2e['latency_p90_s'] for op in ops)} latencies beyond p90",
        file=sys.stderr,
    )
    by_kind = defaultdict(list)
    for op in ops:
        by_kind[op.kind.split("/")[-1]].append(op.latency)
    for kind, values in sorted(by_kind.items()):
        print(f"  {kind}: {len(values)} ops, median latency "
              f"{statistics.median(values):.3f} s", file=sys.stderr)
    for line, n in sorted(failures.items()):
        print(f"  failed x{n} {line}", file=sys.stderr)
    for line in errors:
        print(f"  CHECK FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "errors": errors,
        "attempted": len(ops),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
