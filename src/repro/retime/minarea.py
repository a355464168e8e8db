"""Minimum-area retiming for a target clock period (paper Sec. 5.1).

Solves the ILP

    min Σ c(v)·r(v)
    s.t. circuit constraints   r(u) − r(v) ≤ w(e)
         class constraints     via host edges (bounds)
         period constraints    r(u) − r(v) ≤ w(p) − 1  (lazily generated)

by min-cost flow on the LP dual: every difference constraint becomes a
flow arc u→v with cost = bound and infinite capacity; vertex supplies
are −c(v); the optimal retiming values are the negated node potentials.
Period constraints are produced lazily exactly as in min-period: solve,
sweep Δ on the retimed graph, add one constraint per violating path,
repeat until clean.

The returned objective is the Leiserson–Saxe *shared* register count of
the retimed graph (mirror-vertex model), which for multi-class graphs
that went through the separation-vertex transform is the paper's
corrected sharing estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..graph.retiming_graph import HOST, RetimingGraph
from .constraints import DifferenceSystem, InfeasibleConstraints, InfeasibleError
from .feas import compute_delta
from .mincostflow import MinCostFlow
from .minperiod import EPS, MAX_LAZY_ROUNDS, base_system
from .sharing_model import SharingModel, build_sharing_model, shared_register_count


@dataclass
class AreaResult:
    """Outcome of a min-area retiming run."""

    #: Optimal retiming values (host-normalised), real vertices only.
    r: dict[str, int]
    #: Modelled (shared) register count after retiming.
    registers: int
    #: Shared register count before retiming (same model), for deltas.
    registers_before: int
    #: Achieved clock period of the retimed graph.
    period: float
    #: Lazy-generation rounds used.
    rounds: int = 0
    #: Total constraints in the final system.
    constraints: int = 0


def _solve_lp(
    system: DifferenceSystem, model: SharingModel
) -> dict[str, int] | None:
    """One LP solve: min Σ c·r subject to *system*; None if infeasible."""
    r0 = system.solve()
    if r0 is None:
        return None
    flow = MinCostFlow()
    variables = system.variables()  # insertion-ordered: keeps node ids,
    # and therefore Dijkstra tie-breaking, reproducible across runs
    for name in variables:
        flow.add_node(name, -model.cost.get(name, 0))
    # every costed vertex must be constrained, or the LP is unbounded
    variable_set = set(variables)
    for name in model.cost:
        if name not in variable_set:
            raise InfeasibleError(f"cost on unconstrained vertex {name!r}")
    for constraint in system:
        flow.add_arc(constraint.u, constraint.v, constraint.bound)
    # π = −r0 gives non-negative reduced costs for every constraint arc
    flow.solve(initial_potentials={v: -val for v, val in r0.items()})
    potentials = flow.potentials()
    r = {v: -int(round(p)) for v, p in potentials.items()}
    shift = r.get(HOST, 0)
    return {v: val - shift for v, val in r.items()}


def min_area(
    graph: RetimingGraph,
    phi: float,
    bounds: dict[str, tuple[int, int]] | None = None,
    model: SharingModel | None = None,
    use_kernels: bool | None = None,
    capture: dict | None = None,
) -> AreaResult:
    """Minimum-area retiming achieving clock period ≤ *phi*.

    Raises :class:`InfeasibleError` if *phi* is not feasible for the
    graph under the given bounds.  *capture* is handed to
    :func:`repro.kernels.min_area_kernel`, which leaves the final flow
    in it; the dict engine leaves it empty.
    """
    from .. import kernels

    if model is None:
        model = build_sharing_model(graph)
    if not kernels.resolve(use_kernels):
        return _min_area_dict(graph, phi, bounds, model)
    result = kernels.min_area_kernel(graph, phi, bounds, model, capture)
    if kernels.kernel_check_enabled():
        oracle = _min_area_dict(graph, phi, bounds, model)
        kernels.expect_equal("min_area.r", result.r, oracle.r)
        kernels.expect_equal("min_area.registers", result.registers, oracle.registers)
        kernels.expect_equal("min_area.period", result.period, oracle.period)
        kernels.expect_equal("min_area.rounds", result.rounds, oracle.rounds)
        kernels.expect_equal(
            "min_area.constraints", result.constraints, oracle.constraints
        )
    return result


def _min_area_dict(
    graph: RetimingGraph,
    phi: float,
    bounds: dict[str, tuple[int, int]] | None,
    model: SharingModel,
) -> AreaResult:
    """Dict-based reference engine for :func:`min_area`."""
    extended = model.graph
    system = base_system(extended, bounds)

    with obs.span("minarea.solve", phi=phi) as span:
        best, rounds = _lazy_lp_rounds(graph, extended, system, model, phi)
        obs.count("minarea.rounds", rounds)
        span.set(rounds=rounds)

    real_r = {
        v: best.get(v, 0)
        for v in graph.vertices
    }
    period = compute_delta(graph, real_r).period
    return AreaResult(
        r=real_r,
        registers=shared_register_count(graph, real_r),
        registers_before=shared_register_count(graph),
        period=period,
        rounds=rounds,
        constraints=len(system),
    )


def _lazy_lp_rounds(
    graph: RetimingGraph,
    extended: RetimingGraph,
    system: DifferenceSystem,
    model: SharingModel,
    phi: float,
) -> tuple[dict[str, int], int]:
    """The lazy LP loop; returns (solution, rounds used)."""
    best: dict[str, int] | None = None
    for rounds in range(1, MAX_LAZY_ROUNDS + 1):
        r = _solve_lp(system, model)
        if r is None:
            raise InfeasibleConstraints(
                f"period {phi} infeasible for {graph.name!r}",
                system.negative_cycle() or (),
                period=phi,
            )
        violations = system.check(r)
        if violations:  # numerical/duality bug guard: never expected
            raise RuntimeError(f"LP solution violates {violations[:3]}")
        sweep = compute_delta(extended, r)
        added = False
        for v, dv in sweep.delta.items():
            if dv <= phi + EPS:
                continue
            if extended.vertices[v].kind == "mirror":
                continue
            u = sweep.trace_start(v)
            bound = r.get(u, 0) - r.get(v, 0) - 1
            if system.add(u, v, bound, tag="period"):
                added = True
        if not added:
            best = r
            break
    if best is None:
        raise RuntimeError("lazy period-constraint generation did not converge")
    return best, rounds
