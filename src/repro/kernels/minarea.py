"""Kernel implementation of min-area retiming (LP dual via flow).

Mirrors :mod:`repro.retime.minarea` on compiled structures: the
difference system solves incrementally between lazy rounds, the LP dual
runs on the integer-node flow kernel, and Δ sweeps run on the compiled
graph.  Two order-sensitivity notes:

* the flow network's arc order determines Dijkstra tie-breaking and
  hence *which* optimal dual solution is returned, so period
  constraints must enter the system in the same order the dict engine
  generates them — the topological order of each round's full sweep.
  Min-area therefore uses full (not incremental) Δ sweeps; they are
  still array-kernel fast, and the lazy rounds here are few.
* node ids follow the system's variable declaration order, exactly like
  ``system.variables()`` in the dict engine.
"""

from __future__ import annotations

from .. import obs
from ..graph.retiming_graph import RetimingGraph
from .compiled_graph import compile_graph
from .delta import delta_sweep
from .diffsys import CompiledSystem
from .mcf import IntMinCostFlow
from .minperiod import EPS, MAX_LAZY_ROUNDS


def min_area_kernel(
    graph: RetimingGraph,
    phi: float,
    bounds: dict[str, tuple[int, int]] | None,
    model,
    capture: dict | None = None,
):
    """Minimum-area retiming achieving period ≤ *phi* (kernel path).

    *model* is a prepared :class:`~repro.retime.sharing_model.
    SharingModel`; returns an ``AreaResult`` identical to the dict
    engine's.  Raises ``InfeasibleError`` when *phi* is infeasible.
    When *capture* is given, the final round's solved flow, system and
    full (mirror-inclusive) lag vector are left in it — see
    :func:`_solve_lp` — together with ``"base_tags"`` and ``"rounds"``.
    """
    from ..retime.feas import compute_delta
    from ..retime.minarea import AreaResult
    from ..retime.sharing_model import shared_register_count

    cg, csys, supply, base_tags = _setup(model, bounds)
    with obs.span("minarea.solve", phi=phi, engine="kernel") as span:
        best, rounds = _lazy_rounds(
            graph, phi, cg, csys, supply, base_tags, capture
        )
        obs.count("minarea.rounds", rounds)
        span.set(rounds=rounds)

    index = csys.index
    real_r = {v: best[index[v]] for v in graph.vertices}
    period = compute_delta(graph, real_r).period
    return AreaResult(
        r=real_r,
        registers=shared_register_count(graph, real_r),
        registers_before=shared_register_count(graph),
        period=period,
        rounds=rounds,
        constraints=len(csys),
    )


def min_area_flow(
    graph: RetimingGraph,
    phi: float,
    bounds: dict[str, tuple[int, int]] | None,
    model,
) -> dict:
    """The capture of :func:`min_area_kernel` alone, for a caller whose
    solve ran elsewhere (the dict engine).

    Runs outside the ``minarea.solve`` span and leaves ``minarea.rounds``
    alone, so a trace still shows one min-area solve per engine call.
    """
    cg, csys, supply, base_tags = _setup(model, bounds)
    capture: dict = {}
    _lazy_rounds(graph, phi, cg, csys, supply, base_tags, capture)
    return capture


def _setup(model, bounds):
    """Compiled graph, base system, supply vector and base-constraint
    tags for a min-area solve over *model*'s extended graph."""
    from ..retime.constraints import InfeasibleError
    from ..retime.minperiod import base_system

    extended = model.graph
    cg = compile_graph(extended)
    base = base_system(extended, bounds)
    # tags survive only in the dict system; keep (tag, bound) so the
    # negative-cycle certificate raised on infeasibility can name them
    base_tags = {(c.u, c.v): (c.tag, c.bound) for c in base}
    csys = CompiledSystem.from_system(base, cg)

    # dense cost vector in variable order; reject unconstrained costs
    # exactly like the dict engine
    supply = [0] * csys.n
    for name, c in model.cost.items():
        i = csys.index.get(name)
        if i is None:
            raise InfeasibleError(f"cost on unconstrained vertex {name!r}")
        supply[i] = -c
    return cg, csys, supply, base_tags


def _lazy_rounds(
    graph: RetimingGraph,
    phi: float,
    cg,
    csys: CompiledSystem,
    supply: list[int],
    base_tags: dict,
    capture: dict | None,
) -> tuple[list[int], int]:
    """The lazy LP loop; returns (solution, rounds used)."""
    n = cg.n
    is_mirror = cg.is_mirror
    for rounds in range(1, MAX_LAZY_ROUNDS + 1):
        r = _solve_lp(csys, supply, capture)
        if r is None:
            raise _infeasible(graph, phi, csys, base_tags)
        violations = csys.violated(r)
        if violations:  # numerical/duality bug guard: never expected
            names = csys.names
            shown = [(names[u], names[v], b) for u, v, b in violations[:3]]
            raise RuntimeError(f"LP solution violates {shown}")
        sweep = delta_sweep(cg, r[:n])
        delta = sweep.delta
        added = False
        limit = phi + EPS
        # dict-engine constraint order: topo order.  topo_order()
        # rather than .order — the latter is None on refreshed sweeps,
        # and this loop must stay safe if the sweep above ever becomes
        # incremental.
        for v in sweep.topo_order(cg):
            if delta[v] <= limit or is_mirror[v]:
                continue
            u = sweep.trace_start(v)
            bound = r[u] - r[v] - 1
            if csys.add(u, v, bound):
                added = True
        if not added:
            if capture is not None:
                capture.update(base_tags=base_tags, rounds=rounds)
            return r, rounds
    raise RuntimeError("lazy period-constraint generation did not converge")


def _infeasible(graph, phi, csys: CompiledSystem, base_tags: dict):
    """Build the structured infeasibility error with its certificate."""
    from ..retime.constraints import Constraint, InfeasibleConstraints

    names = csys.names
    cycle = []
    for u, v, b in csys.negative_cycle() or ():
        key = (names[u], names[v])
        # pairs added or tightened by the lazy loop are period
        # constraints, matching the dict engine's tag bookkeeping
        tag, base_bound = base_tags.get(key, ("period", None))
        cycle.append(Constraint(*key, b, "period" if b != base_bound else tag))
    return InfeasibleConstraints(
        f"period {phi} infeasible for {graph.name!r}", cycle, period=phi
    )


def _solve_lp(
    csys: CompiledSystem, supply: list[int], capture: dict | None = None
) -> list[int] | None:
    """One LP solve: min Σ c·r subject to *csys*; None if infeasible.

    When *capture* is given, the solved flow (arc slot ``2·i`` is
    constraint ``i`` of *csys*) and the host-normalised lag vector are
    left in it under ``"flow"`` / ``"r"``, and *csys* under ``"csys"``
    — the raw material of min-area dual attribution
    (:func:`repro.obs.explain.area_attribution`).
    """
    dist = csys.solve()
    if dist is None:
        return None
    flow = IntMinCostFlow(csys.n)
    flow.supply = list(supply)
    add_arc = flow.add_arc
    arc_u, arc_v, arc_b = csys.arc_u, csys.arc_v, csys.arc_b
    for slot in range(len(arc_b)):
        add_arc(arc_u[slot], arc_v[slot], arc_b[slot])
    # π = −r0 gives non-negative reduced costs for every constraint arc
    flow.solve(initial_potentials=[-d for d in dist])
    r = [-int(round(p)) for p in flow.potential]
    shift = r[csys.host] if csys.host >= 0 else 0
    if shift:
        r = [val - shift for val in r]
    if capture is not None:
        capture.update(flow=flow, r=r, csys=csys)
    return r
