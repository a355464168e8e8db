"""Benchmark: compiled kernel layer vs the dict reference engines.

Times each hot kernel (CP/Δ sweep, lazy feasibility, min-period search,
min-area LP, one LP/flow solve, STA, BLIF parse) against its dict-based
oracle and the end-to-end Table-2 retiming flow per design, old engine
vs new, asserting bit-identical results along the way.  Writes
``benchmarks/BENCH_kernels.json`` (override with
``REPRO_BENCH_KERNELS_OUT``).

Runs under pytest (``pytest benchmarks/bench_kernels.py``) or
standalone::

    PYTHONPATH=src:. python benchmarks/bench_kernels.py [--quick]
        [--designs C1,...,C10] [--scale 0.3] [--repeats 5]
        [--check-against benchmarks/BENCH_kernels.json] [--service]

``--check-against`` compares per-kernel oracle-relative speedups to a
committed baseline and exits non-zero when any dropped below baseline ÷
``REGRESSION_TOLERANCE`` — the CI perf-smoke contract.  ``--service``
also regenerates ``BENCH_service.json`` through
:mod:`benchmarks.bench_service`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

try:
    from benchmarks._ledger import append_run
except ImportError:  # standalone: python benchmarks/bench_kernels.py
    from _ledger import append_run

OUT_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_KERNELS_OUT",
        Path(__file__).resolve().parent / "BENCH_kernels.json",
    )
)

FULL_DESIGNS = ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10"]
QUICK_DESIGNS = ["C1", "C3"]

#: --check-against fails when a kernel's oracle-relative speedup drops
#: below baseline ÷ this (speedups are comparable across machines and
#: workload scales; absolute medians are not)
REGRESSION_TOLERANCE = 1.4

#: entries whose oracle median is below this are not gated: at
#: sub-millisecond scale the speedup estimate is dominated by timer
#: noise, not kernel performance
MIN_GATED_MEDIAN = 0.005


# --------------------------------------------------------------------- #
# timing helpers


def _samples(fn, repeats: int, setup=None) -> list[float]:
    out = []
    for _ in range(repeats):
        arg = setup() if setup is not None else None
        t0 = time.perf_counter()
        fn(arg) if setup is not None else fn()
        out.append(time.perf_counter() - t0)
    return out


def _stats(samples: list[float]) -> dict[str, float]:
    ordered = sorted(samples)
    p90 = ordered[min(len(ordered) - 1, int(round(0.9 * (len(ordered) - 1))))]
    return {
        "median": statistics.median(ordered),
        "p90": p90,
        "n": len(ordered),
    }


def _pair(
    repeats: int, oracle, kernel, oracle_setup=None, kernel_setup=None
) -> dict[str, object]:
    """Time *oracle* against *kernel*, one sample of each in turn, so
    host speed drifting during the run moves both sides alike."""
    oracle_samples: list[float] = []
    kernel_samples: list[float] = []
    for _ in range(repeats):
        oracle_samples += _samples(oracle, 1, oracle_setup)
        kernel_samples += _samples(kernel, 1, kernel_setup)
    o, k = _stats(oracle_samples), _stats(kernel_samples)
    return {
        "oracle": o,
        "kernel": k,
        "speedup": o["median"] / max(k["median"], 1e-12),
    }


# --------------------------------------------------------------------- #
# per-kernel micro benches


def bench_kernels(repeats: int, quick: bool) -> dict[str, object]:
    from repro import kernels
    from repro.netlist import read_blif, write_blif
    from repro.retime.feas import compute_delta
    from repro.retime.minarea import _min_area_dict
    from repro.retime.minarea import _solve_lp as dict_lp
    from repro.retime.minperiod import (
        _check_period_dict,
        _check_period_kernel,
        _min_period_dict,
        base_system,
    )
    from repro.retime.sharing_model import build_sharing_model
    from repro.kernels.minarea import _solve_lp as kernel_lp
    from repro.flows import baseline_flow
    from repro.synth import build_design
    from repro.timing import XC4000E_DELAY
    from repro.timing.sta import _analyze_dict
    from tests.retime.helpers import random_graph

    n, m = (150, 500) if quick else (400, 1400)
    graph = random_graph(11, n_vertices=n, n_edges=m)
    cg = kernels.compile_graph(graph)
    zero = [0] * cg.n
    zero_d = {v: 0 for v in graph.vertices}
    report: dict[str, object] = {}

    # CP/Δ sweep
    report["delta_sweep"] = _pair(
        repeats,
        lambda: compute_delta(graph, zero_d),
        lambda: kernels.delta_sweep(cg, zero),
    )

    # lazy feasibility at the achievable period
    phi = _min_period_dict(graph, None, 1e-6).phi
    report["check_period"] = _pair(
        repeats,
        lambda s: _check_period_dict(graph, phi, s),
        lambda s: _check_period_kernel(graph, phi, s),
        oracle_setup=lambda: base_system(graph),
        kernel_setup=lambda: base_system(graph),
    )

    # the min-period binary-search loop
    report["min_period"] = _pair(
        repeats,
        lambda: _min_period_dict(graph, None, 1e-6),
        lambda: kernels.min_period_kernel(graph, None, 1e-6),
    )

    # min-area at that period
    model = build_sharing_model(graph)
    report["min_area"] = _pair(
        repeats,
        lambda: _min_area_dict(graph, phi, None, model),
        lambda: kernels.min_area_kernel(graph, phi, None, model),
    )

    # one LP solve (difference system + min-cost flow dual)
    extended = model.graph
    ecg = kernels.compile_graph(extended)
    esystem = base_system(extended)
    supply = [0] * ecg.n
    for name, c in model.cost.items():
        supply[ecg.index[name]] = -c
    report["lp_solve"] = _pair(
        repeats,
        lambda: dict_lp(esystem, model),
        lambda cs: kernel_lp(cs, supply),
        kernel_setup=lambda: kernels.CompiledSystem.from_system(esystem, ecg),
    )

    # STA (full) and the incremental what-if update
    design = "C1" if quick else "C5"
    circuit = baseline_flow(build_design(design, 0.3).circuit).circuit
    report["sta"] = _pair(
        repeats,
        lambda: _analyze_dict(circuit, XC4000E_DELAY),
        lambda: kernels.analyze_kernel(circuit, XC4000E_DELAY),
    )
    sta = kernels.CompiledSTA(circuit, XC4000E_DELAY)
    sta.full_sweep()
    some_q = next(iter(circuit.registers.values())).q
    flip = [0.0]

    def _update():
        flip[0] = 3.0 - flip[0]  # alternate so every update does work
        sta.update({some_q: XC4000E_DELAY.clock_to_q + flip[0]})

    report["sta_incremental"] = _pair(
        repeats, lambda: _analyze_dict(circuit, XC4000E_DELAY), _update
    )

    # BLIF parse micro-bench (regex precompile + joined continuations)
    text = write_blif(circuit)
    parse = _stats(_samples(lambda: read_blif(text), repeats))
    parse["bytes"] = len(text)
    report["blif_parse"] = {"kernel": parse}
    return report


# --------------------------------------------------------------------- #
# end-to-end table-2 flow, old vs new engine


def bench_end_to_end(
    designs: list[str], scale: float, repeats: int = 3
) -> dict[str, object]:
    from repro.flows import baseline_flow
    from repro.mcretime import mc_retime
    from repro.netlist import write_blif
    from repro.synth import build_design
    from repro.timing import XC4000E_DELAY

    rows: dict[str, object] = {}
    dict_total = kernel_total = 0.0
    for name in designs:
        mapped = baseline_flow(build_design(name, scale).circuit).circuit

        new = old = None
        new_samples: list[float] = []
        old_samples: list[float] = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            new = mc_retime(mapped, XC4000E_DELAY, use_kernels=True)
            new_samples.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            old = mc_retime(mapped, XC4000E_DELAY, use_kernels=False)
            old_samples.append(time.perf_counter() - t0)

        identical = (
            new.r == old.r
            and new.period_after == old.period_after
            and new.ff_after == old.ff_after
            and write_blif(new.circuit) == write_blif(old.circuit)
        )
        t_new = statistics.median(new_samples)
        t_old = statistics.median(old_samples)
        dict_total += t_old
        kernel_total += t_new
        rows[name] = {
            "dict_seconds": t_old,
            "kernel_seconds": t_new,
            "speedup": t_old / max(t_new, 1e-12),
            "netlist_identical": identical,
        }
    rows["totals"] = {
        "dict_seconds": dict_total,
        "kernel_seconds": kernel_total,
        "speedup": dict_total / max(kernel_total, 1e-12),
    }
    return rows


# --------------------------------------------------------------------- #
# harness


def run_bench(
    quick: bool = False,
    designs: list[str] | None = None,
    scale: float | None = None,
    repeats: int | None = None,
    with_service: bool = False,
) -> dict[str, object]:
    from repro import kernels

    if designs is None:
        designs = QUICK_DESIGNS if quick else FULL_DESIGNS
    if scale is None:
        scale = 0.2 if quick else 0.3
    if repeats is None:
        repeats = 3 if quick else 5
    report = {
        "meta": {
            "quick": quick,
            "scale": scale,
            "repeats": repeats,
            "designs": designs,
            "python": platform.python_version(),
            "numpy": kernels.HAVE_NUMPY,
            "cpu_count": os.cpu_count(),
        },
        "kernels": bench_kernels(repeats, quick),
        "end_to_end": bench_end_to_end(designs, scale, 2 if quick else 5),
    }
    if not quick:
        # also record the quick-workload numbers so a CI --quick run has
        # a like-for-like baseline (speedups are scale-dependent)
        report["kernels_quick"] = bench_kernels(3, True)
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    spans: dict[str, float] = {}
    for name, entry in report["kernels"].items():
        for side in ("oracle", "kernel"):
            stats = entry.get(side)
            if stats and "median" in stats:
                spans[f"{name}.{side}"] = stats["median"]
    for name, row in report["end_to_end"].items():
        if name != "totals":
            spans[f"e2e.{name}"] = row["kernel_seconds"]
    append_run(
        "bench.kernels",
        spans,
        config=dict(report["meta"]),
        metrics={
            f"{name}.speedup": entry["speedup"]
            for name, entry in report["kernels"].items()
            if "speedup" in entry
        },
    )
    if with_service:
        import tempfile

        from benchmarks.bench_service import run_bench as run_service

        with tempfile.TemporaryDirectory() as tmp:
            run_service(designs[: min(len(designs), 4)], scale, Path(tmp))
    return report


def check_against(report: dict, baseline_path: Path) -> list[str]:
    """Compare kernel speedups to a committed baseline; returns failures.

    A kernel "regresses" when its speedup over the dict oracle (measured
    in the same process, so machine speed cancels out) drops below the
    committed baseline's speedup divided by ``REGRESSION_TOLERANCE``.
    Kernel-only entries (no oracle to normalise by) and entries whose
    oracle median is under ``MIN_GATED_MEDIAN`` (too small for the
    speedup to be a stable statistic) are skipped.
    """
    baseline = json.loads(baseline_path.read_text())
    base_kernels = baseline.get("kernels", {})
    if report["meta"]["quick"] and "kernels_quick" in baseline:
        base_kernels = baseline["kernels_quick"]
    failures = []
    for name, entry in report["kernels"].items():
        base_entry = base_kernels.get(name)
        if not base_entry or "speedup" not in base_entry:
            continue
        now = entry.get("speedup")
        ref = base_entry["speedup"]
        if now is None:
            continue
        oracle = entry.get("oracle", {})
        if oracle.get("median", 0.0) < MIN_GATED_MEDIAN:
            continue
        if now < ref / REGRESSION_TOLERANCE:
            failures.append(
                f"{name}: speedup {now:.2f}x vs baseline {ref:.2f}x "
                f"(allowed floor {ref / REGRESSION_TOLERANCE:.2f}x)"
            )
    return failures


# --------------------------------------------------------------------- #
# pytest entry


def test_kernel_bench_quick(tmp_path, monkeypatch):
    """Quick harness sanity: runs, emits JSON, results bit-identical."""
    out = tmp_path / "BENCH_kernels.json"
    monkeypatch.setattr(sys.modules[__name__], "OUT_PATH", out)
    report = run_bench(quick=True)
    assert out.exists()
    for name, row in report["end_to_end"].items():
        if name != "totals":
            assert row["netlist_identical"], name
    # identical algorithm on integer arrays: never slower than ~par on
    # the search loop (generous bound: timing noise only)
    assert report["kernels"]["min_period"]["speedup"] > 0.5


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--designs", help="comma-separated design names")
    parser.add_argument("--scale", type=float)
    parser.add_argument("--repeats", type=int)
    parser.add_argument(
        "--check-against",
        type=Path,
        help="baseline BENCH_kernels.json; exit 1 when a speedup fell "
        "below baseline / REGRESSION_TOLERANCE",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="also regenerate BENCH_service.json",
    )
    args = parser.parse_args(argv)
    report = run_bench(
        quick=args.quick,
        designs=args.designs.split(",") if args.designs else None,
        scale=args.scale,
        repeats=args.repeats,
        with_service=args.service,
    )
    print(json.dumps(report, indent=2))
    print(f"wrote {OUT_PATH}")
    bad = [
        name
        for name, row in report["end_to_end"].items()
        if name != "totals" and not row["netlist_identical"]
    ]
    if bad:
        print(f"NON-IDENTICAL kernel/dict netlists: {bad}", file=sys.stderr)
        return 2
    if args.check_against:
        failures = check_against(report, args.check_against)
        if failures:
            print("kernel perf regressions:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("no kernel regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
