"""Reference successive-shortest-path solver for the flow kernel.

This is the kernel's former ``IntMinCostFlow.solve``: one full
multi-source ``(distance, node-id)`` heap Dijkstra per augmentation,
then a potential update on every node.  The production kernel finds the
same augmenting paths in far fewer steps (zero-phase search, tail pass,
fallback); the differential tests hold it to this body bit for bit.
"""

from __future__ import annotations

import heapq

from repro import obs
from repro.kernels.mcf import INF, FlowInfeasibleError, IntMinCostFlow


class ReferenceMinCostFlow(IntMinCostFlow):
    """:class:`IntMinCostFlow` with the plain one-Dijkstra-per-path solve."""

    __slots__ = ()

    def solve(self, initial_potentials: list[float] | None = None) -> None:
        n = self.n
        if sum(self.supply) != 0:
            raise FlowInfeasibleError("supplies do not balance")
        excess = list(self.supply)
        potential = (
            list(initial_potentials)
            if initial_potentials is not None
            else [0.0] * n
        )
        to, cap, cost, adj = self._to, self._cap, self._cost, self._adj
        for slot in range(0, len(to), 2):
            if cap[slot] > 0:
                u = to[slot ^ 1]
                v = to[slot]
                if cost[slot] + potential[u] - potential[v] < -1e-9:
                    raise ValueError(
                        "initial potentials leave a negative reduced cost"
                    )
        self.potential = potential
        arcs = [
            [(slot, to[slot], cost[slot]) for slot in slots] for slots in adj
        ]

        heappush, heappop = heapq.heappush, heapq.heappop
        augmentations = 0
        while True:
            sources = [i for i, e in enumerate(excess) if e > 0]
            if not sources:
                break
            dist = [INF] * n
            prev_arc = [-1] * n
            heap: list[tuple[float, int]] = []
            for s in sources:
                dist[s] = 0.0
                heappush(heap, (0.0, s))
            while heap:
                d, vi = heappop(heap)
                if d > dist[vi]:
                    continue
                pvi = potential[vi]
                for slot, t, c in arcs[vi]:
                    if cap[slot] <= 0:
                        continue
                    nd = d + c + pvi - potential[t]
                    if nd < dist[t] - 1e-12:
                        dist[t] = nd
                        prev_arc[t] = slot
                        heappush(heap, (nd, t))
            target = -1
            best = INF
            for i, e in enumerate(excess):
                if e < 0 and dist[i] < best:
                    best = dist[i]
                    target = i
            if target < 0:
                raise FlowInfeasibleError("no augmenting path to a demand")
            for i, di in enumerate(dist):
                potential[i] += di if di < INF else best
            bottleneck = -excess[target]
            node = target
            while prev_arc[node] != -1:
                slot = prev_arc[node]
                if cap[slot] < bottleneck:
                    bottleneck = cap[slot]
                node = to[slot ^ 1]
            if excess[node] < bottleneck:
                bottleneck = excess[node]
            amount = int(bottleneck)
            node = target
            while prev_arc[node] != -1:
                slot = prev_arc[node]
                cap[slot] -= amount
                cap[slot ^ 1] += amount
                node = to[slot ^ 1]
            excess[node] -= amount
            excess[target] += amount
            augmentations += 1
        if obs.enabled():
            obs.count("mcf.augmentations", augmentations)
            total = sum(
                int(cap[slot ^ 1]) * cost[slot]
                for slot in range(0, len(to), 2)
            )
            obs.count("mcf.cost", total)
