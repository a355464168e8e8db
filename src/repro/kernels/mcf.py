"""Min-cost flow on integer node ids (the min-area LP dual kernel).

Successive shortest paths over Johnson-potential reduced costs,
multi-source from all excess nodes, exactly as
:class:`repro.retime.mincostflow.MinCostFlow`: arc slots are created in
the same order, every augmentation routes along the path a ``(distance,
node-id)`` heap Dijkstra would pick, and the potentials end up
bit-identical — so the selected optimal dual solution (the min-area
lags) matches the oracle.  The augmentation itself is found in up to
three phases that do far less work than one full Dijkstra:

1. **Zero phase.**  Reduced costs are non-negative, so every ``(0, id)``
   heap entry pops before any positive one, and the whole search tree
   at distance 0 — ``prev_arc`` and the target, the first demand in
   index order reached at distance 0 — is decided by a lowest-id-first
   search over zero-reduced-cost residual arcs.  That search pops plain
   ints and scans per-node zero-arc lists, kept in adjacency order and
   rebuilt only when the potentials change.
2. **Tail.**  Nodes outside the zero set get their distances from a
   Dijkstra seeded from it.  Shortest distances are unique, so visiting
   order cannot change them, and the potentials move by exactly the
   oracle's amounts.
3. **Fallback.**  When no demand is reachable at distance 0 — or the
   data are not integral, or some residual arc has a negative reduced
   cost, where the ``(0, id)`` prefix argument does not hold — the full
   ``(distance, id)`` Dijkstra runs as before.

Integral costs and potentials keep every distance an exact float, which
is what makes "distance 0" and "unique distance" well defined.
"""

from __future__ import annotations

import heapq

from .. import obs

INF = float("inf")


class FlowInfeasibleError(Exception):
    """Raised when supplies cannot be routed to demands."""


class IntMinCostFlow:
    """Successive-shortest-path min-cost flow over dense int nodes."""

    __slots__ = ("n", "supply", "_to", "_cap", "_cost", "_adj", "potential")

    def __init__(self, n: int) -> None:
        self.n = n
        self.supply = [0] * n
        # forward/backward arc pairs at even/odd slots
        self._to: list[int] = []
        self._cap: list[float] = []
        self._cost: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(n)]
        self.potential: list[float] = []

    def add_arc(self, u: int, v: int, cost: int, capacity: float = INF) -> None:
        """Create an arc u→v."""
        slot = len(self._to)
        self._to.extend((v, u))
        self._cap.extend((capacity, 0.0))
        self._cost.extend((cost, -cost))
        self._adj[u].append(slot)
        self._adj[v].append(slot + 1)

    def flow(self, slot: int) -> int:
        """Flow routed on the forward arc at even *slot* (after solve)."""
        return int(self._cap[slot ^ 1])

    def solve(self, initial_potentials: list[float] | None = None) -> None:
        """Route all supplies; potentials are left in ``self.potential``.

        *initial_potentials* must make every reduced cost non-negative
        (the retiming caller passes the negated difference-constraint
        solution).  Raises :class:`FlowInfeasibleError` when supplies
        don't balance or cannot reach the demands.
        """
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

        # Pre-zipped adjacency: one tuple unpack per scanned arc instead
        # of three list index ops (to/cost are fixed for the whole solve;
        # only cap mutates, so it stays a slot lookup).
        arcs = [
            [(slot, to[slot], cost[slot]) for slot in slots] for slots in adj
        ]
        integral = all(
            float(x).is_integer() for x in potential
        ) and all(float(c).is_integer() for c in cost)
        index = _ZeroIndex(arcs, to, cap, potential) if integral else None

        sources = [i for i, e in enumerate(excess) if e > 0]
        demands = [i for i, e in enumerate(excess) if e < 0]
        if sources:
            # the oracle's first update turns every potential into a
            # float; do it up front, as zero-set potentials never move
            potential[:] = [p + 0.0 for p in potential]
        prev_arc = [-1] * n
        augmentations = zero_searches = tail_passes = full_dijkstras = 0
        while sources:
            target = -1
            if index is not None:
                zero_searches += 1
                target = index.search(sources, demands, prev_arc)
                if index.tailed:
                    tail_passes += 1
            zero_path = target >= 0
            if not zero_path:
                full_dijkstras += 1
                target = _full_dijkstra(
                    sources, arcs, cap, excess, potential, prev_arc
                )
                if index is not None:
                    index.stale = True
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
                if zero_path:
                    index.pushed(slot, amount)
            excess[node] -= amount
            excess[target] += amount
            if not excess[node]:
                sources.remove(node)
            if not excess[target]:
                demands.remove(target)
            augmentations += 1
            if index is not None and index.stale:
                index.refresh()
        if obs.enabled():
            obs.count("mcf.augmentations", augmentations)
            obs.count("mcf.zero_searches", zero_searches)
            obs.count("mcf.tail_passes", tail_passes)
            obs.count("mcf.full_dijkstras", full_dijkstras)
            # all arcs are INF-capacity forward slots, so routed flow
            # sits entirely on the backward (odd) slots
            total = sum(
                int(cap[slot ^ 1]) * cost[slot]
                for slot in range(0, len(to), 2)
            )
            obs.count("mcf.cost", total)


class _ZeroIndex:
    """Reduced-cost classification of the residual arcs, per node.

    For every node *v*, in adjacency order: ``zero[v]`` holds the
    ``(slot, head, cost)`` entries of ``arcs[v]`` with reduced cost 0
    (shared, not copied: the index must stay small next to the flow
    network).  ``fixed[v]`` lists the heads of v's zero arcs with
    infinite capacity (always residual) and ``live[v]``, present only
    for a node that has any, counts v's finite-capacity zero arcs with
    residual capacity per head, so the zero set is a plain set-union
    search.
    ``bad`` holds the nodes with a residual negative-reduced-cost arc:
    once one is reached, the ``(0, id)`` prefix argument fails and the
    caller runs the full Dijkstra instead.

    The lists depend on the potentials only; ``live`` also follows the
    capacities, which :meth:`pushed` keeps current along each path.
    """

    __slots__ = (
        "arcs", "to", "cap", "potential", "zero", "fixed", "live", "bad",
        "stale", "tailed", "seen", "stamp",
    )

    def __init__(self, arcs, to, cap, potential) -> None:
        n = len(arcs)
        self.arcs, self.to, self.cap, self.potential = arcs, to, cap, potential
        self.zero: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        self.fixed: list[list[int]] = [[] for _ in range(n)]
        self.live: dict[int, dict[int, int]] = {}
        self.bad: set[int] = set()
        #: nodes whose potential moved since the last classification,
        #: or True when all of them may have
        self.stale: set[int] | bool = True
        self.tailed = False
        self.seen = [0] * n  # seen[v] == stamp: reached by this _path
        self.stamp = 0
        self.refresh()

    def refresh(self) -> None:
        """Re-classify the arcs of every node a potential change touched."""
        arcs = self.arcs
        if self.stale is True:
            nodes = range(len(arcs))
        else:
            touched = set(self.stale)
            for v in self.stale:
                touched.update(t for _, t, _ in arcs[v])
            nodes = touched
        cap, potential = self.cap, self.potential
        zero, fixed, live, bad = self.zero, self.fixed, self.live, self.bad
        for v in nodes:
            pv = potential[v]
            zl = []
            fx = []
            lv: dict[int, int] = {}
            negative = False
            for arc in arcs[v]:
                slot, t, c = arc
                rc = c + pv - potential[t]
                if rc == 0:
                    zl.append(arc)
                    k = cap[slot]
                    if k == INF:
                        fx.append(t)
                    elif k > 0:
                        lv[t] = lv.get(t, 0) + 1
                elif rc < 0 and cap[slot] > 0:
                    negative = True
            zero[v], fixed[v] = zl, fx
            if lv:
                live[v] = lv
            else:
                live.pop(v, None)
            if negative:
                bad.add(v)
            else:
                bad.discard(v)
        self.stale = set()

    def pushed(self, slot: int, amount: int) -> None:
        """Track *amount* just pushed along the zero arc at *slot*."""
        cap, to, live = self.cap, self.to, self.live
        u, v = to[slot ^ 1], to[slot]
        k = cap[slot]
        if k <= 0 < k + amount:  # saturated (never for an INF arc)
            counts = live[u]
            if counts[v] > 1:
                counts[v] -= 1
            elif len(counts) > 1:
                del counts[v]
            else:
                del live[u]
        k = cap[slot ^ 1]
        if k != INF and k - amount <= 0 < k:  # reverse arc opened
            counts = live.setdefault(v, {})
            counts[u] = counts.get(u, 0) + 1

    def search(self, sources: list[int], demands: list[int], prev_arc) -> int:
        """Find the augmenting path a full Dijkstra would pick.

        Returns the target and leaves its path in *prev_arc*, after
        moving the tail nodes' potentials; returns -1 (touching
        nothing) when the full Dijkstra must run instead.  Sets
        ``tailed`` when a tail pass ran.
        """
        self.tailed = False
        fixed, live, bad = self.fixed, self.live, self.bad
        reach = set(sources)
        frontier = reach
        while frontier:
            found: set[int] = set()
            for v in frontier:
                found.update(fixed[v])
                counts = live.get(v)
                if counts:
                    found.update(counts)
            found -= reach
            reach |= found
            frontier = found
        if bad and not bad.isdisjoint(reach):
            return -1
        target = next((d for d in demands if d in reach), -1)
        if target < 0:
            return -1
        if len(reach) < len(fixed):
            dist = self._tail(reach)
            if bad and not bad.isdisjoint(dist):
                return -1
            self.tailed = True
            potential = self.potential
            for v, d in dist.items():
                potential[v] += d
            self.stale.update(dist)
        self._path(sources, target, prev_arc)
        return target

    def _tail(self, reach: set[int]) -> dict[int, float]:
        """Distances of the nodes outside the zero set *reach*.

        Shortest distances are unique, so the order in which the seeds
        and ties are visited cannot change them.  The zero set is usually
        most of the graph, so each outside node finds its cheapest
        residual arc in from the set through the reverse twins in its own
        arc list (the twin of slot ``s`` is ``s ^ 1``, with cost ``-c``).
        """
        arcs, cap, potential = self.arcs, self.cap, self.potential
        heappush, heappop = heapq.heappush, heapq.heappop
        dist: dict[int, float] = {}
        heap: list[tuple[float, int]] = []
        for t, entries in enumerate(arcs):
            if t in reach:
                continue
            pt = potential[t]
            best = INF
            for back, u, c in entries:
                if u in reach and cap[back ^ 1] > 0:
                    rc = -c + potential[u] - pt
                    if rc < best:
                        best = rc
            if best < INF:
                dist[t] = best
                heappush(heap, (best, t))
        final: dict[int, float] = {}
        while heap:
            d, v = heappop(heap)
            if v in final:
                continue
            final[v] = d
            pv = potential[v]
            for slot, t, c in arcs[v]:
                if t in reach or t in final or cap[slot] <= 0:
                    continue
                nd = d + c + pv - potential[t]
                if nd < dist.get(t, INF):
                    dist[t] = nd
                    heappush(heap, (nd, t))
        return final

    def _path(self, sources: list[int], target: int, prev_arc) -> None:
        """Lowest-id-first search over residual zero arcs, to *target*.

        Fills ``prev_arc`` exactly as the ``(0, id)`` prefix of the
        oracle's Dijkstra does, stopping once *target* is reached: an
        entry is final when set.  *sources* is ascending, which already
        makes it a valid heap.
        """
        zero, cap = self.zero, self.cap
        heappush, heappop = heapq.heappush, heapq.heappop
        self.stamp += 1
        stamp, seen = self.stamp, self.seen
        heap = list(sources)
        for s in sources:
            seen[s] = stamp
            prev_arc[s] = -1
        while heap:
            v = heappop(heap)
            for slot, t, _ in zero[v]:
                if seen[t] != stamp and cap[slot] > 0:
                    seen[t] = stamp
                    prev_arc[t] = slot
                    if t == target:
                        return
                    heappush(heap, t)
        raise AssertionError("target outside the zero set")


def _full_dijkstra(sources, arcs, cap, excess, potential, prev_arc):
    """One full ``(distance, id)`` heap Dijkstra and potential update.

    Returns the target: the demand at least distance, lowest id first.
    Raises :class:`FlowInfeasibleError` when no demand is reachable.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    n = len(potential)
    dist = [INF] * n
    prev_arc[:] = [-1] * n
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
            # float addition order matches the dict oracle:
            # ((d + cost) + potential[u]) - potential[v]
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
    return target
