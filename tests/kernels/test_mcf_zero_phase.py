"""The flow kernel's zero-phase search against the reference SSP solve.

:class:`IntMinCostFlow` finds each augmenting path with a zero-phase
search, a tail pass and a full-Dijkstra fallback; the reference solver
(:mod:`tests.kernels.ssp_reference`) runs one full ``(distance, id)``
Dijkstra per path.  On every network the two must leave identical
potentials and residual capacities and count identical augmentations.

The generated networks mix zero-reduced-cost ties (random integer
potentials with arc costs chosen so many reduced costs are 0), finite
capacities below the supplies (bottlenecks > 1), isolated nodes, demands
only reachable at a positive distance (the fallback), nodes reached
only over positive arcs (the tail) and, now and then, half-integral
potentials (which always take the fallback).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.kernels.mcf import INF, FlowInfeasibleError, IntMinCostFlow
from tests.kernels.ssp_reference import ReferenceMinCostFlow

COUNTERS = (
    "mcf.augmentations",
    "mcf.cost",
    "mcf.zero_searches",
    "mcf.tail_passes",
    "mcf.full_dijkstras",
)


def _network(rng: random.Random) -> dict:
    """A random flow network whose initial potentials are valid."""
    n = rng.randint(2, 9)
    isolated = rng.randint(0, 2)  # nodes with no arcs and no supply
    pi = [rng.randint(-4, 4) for _ in range(n + isolated)]
    if rng.random() < 0.1:
        pi = [p + 0.5 for p in pi]  # uniform shift: reduced costs unchanged
    arcs = []

    def arc(u, v):
        rc = rng.choice((0, 0, 0, 1, 2, 3))
        cap = INF if rng.random() < 0.6 else float(rng.randint(1, 4))
        arcs.append((u, v, int(pi[v] - pi[u]) + rc, cap))

    if rng.random() < 0.8:  # an uncapacitated ring keeps most feasible
        for i in range(n):
            u, v = i, (i + 1) % n
            arcs.append(
                (u, v, int(pi[v] - pi[u]) + rng.choice((0, 0, 1, 2)), INF)
            )
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        arc(u, v)
    supply = [0] * (n + isolated)
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(range(n), 2)
        amount = rng.randint(1, 4)
        supply[a] += amount
        supply[b] -= amount
    return {"supply": supply, "arcs": arcs, "potential": pi, "isolated": isolated}


def _solve(cls, spec: dict):
    flow = cls(len(spec["supply"]))
    flow.supply = list(spec["supply"])
    for u, v, cost, cap in spec["arcs"]:
        flow.add_arc(u, v, cost, cap)
    tracer = obs.start()
    try:
        flow.solve(list(spec["potential"]))
        error = None
    except FlowInfeasibleError as exc:
        error = str(exc)
    finally:
        obs.stop()
    return flow, error, {k: tracer.counters.get(k, 0) for k in COUNTERS}


def _check(spec: dict) -> dict:
    """Assert kernel == reference on *spec*; returns the kernel counters."""
    ref, ref_error, ref_counts = _solve(ReferenceMinCostFlow, spec)
    new, new_error, new_counts = _solve(IntMinCostFlow, spec)
    assert new_error == ref_error
    if ref_error is None:
        assert new.potential == ref.potential
        assert [type(p) for p in new.potential] == [
            type(p) for p in ref.potential
        ]
        assert new._cap == ref._cap
        for name in ("mcf.augmentations", "mcf.cost"):
            assert new_counts[name] == ref_counts[name], name
    return new_counts


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_zero_phase_matches_reference(rng):
    _check(_network(rng))


def test_generated_networks_cover_every_phase():
    """The generator reaches ties, bottlenecks, isolated nodes, the
    tail pass and the fallback — otherwise the property above would
    pass vacuously on some of them."""
    totals = dict.fromkeys(COUNTERS, 0)
    bottlenecks = isolated = 0
    for seed in range(300):
        spec = _network(random.Random(seed))
        counts = _check(spec)
        for name in COUNTERS:
            totals[name] += counts[name]
        isolated += spec["isolated"] > 0
        bottlenecks += any(
            cap != INF and 1 < cap < max(spec["supply"])
            for _, _, _, cap in spec["arcs"]
        )
    assert totals["mcf.zero_searches"] > 0
    assert totals["mcf.tail_passes"] > 0
    assert totals["mcf.full_dijkstras"] > 0
    assert bottlenecks > 0
    assert isolated > 0


def _hand(supply, arcs, potential=None):
    return {
        "supply": supply,
        "arcs": arcs,
        "potential": potential or [0] * len(supply),
    }


@pytest.mark.parametrize(
    "spec, phase",
    [
        # two zero-cost routes 0->1->3 and 0->2->3: the tie goes to the
        # lower id, exactly as the (0, id) heap order breaks it
        (_hand([2, 0, 0, -2], [(0, 2, 0), (0, 1, 0), (2, 3, 0), (1, 3, 0)]),
         "mcf.zero_searches"),
        # node 2 hangs off the zero set by a positive arc: its potential
        # moves by its distance while the target stays at distance 0
        (_hand([1, -1, 0], [(0, 1, 0), (0, 2, 3)]), "mcf.tail_passes"),
        # the only route to the demand costs 2: full Dijkstra
        (_hand([1, 0, -1], [(0, 1, 0), (1, 2, 2)]), "mcf.full_dijkstras"),
    ],
)
def test_hand_built_phases(spec, phase):
    spec["arcs"] = [(u, v, c, INF) for u, v, c in spec["arcs"]]
    assert _check(spec)[phase] > 0


def test_bottleneck_above_one_on_finite_arc():
    spec = _hand([3, 0, -3], [])
    spec["arcs"] = [(0, 1, 0, 2.0), (1, 2, 0, INF), (0, 2, 1, INF)]
    counts = _check(spec)
    assert counts["mcf.augmentations"] == 2  # 2 units at cost 0, 1 at 1
    assert counts["mcf.cost"] == 1


def test_unreachable_node_keeps_oracle_potential():
    # node 3 is never reached: the oracle moves it by the target's
    # distance, 0 on zero-phase paths and 1 on the fallback here
    spec = _hand([1, 0, -1, 0], [])
    spec["arcs"] = [(0, 1, 0, INF), (1, 2, 1, INF), (3, 0, 5, INF)]
    counts = _check(spec)
    assert counts["mcf.full_dijkstras"] == 1
