"""The Source initialisation heuristic (paper §4.2, Appendix A.2, Algorithm 2).

``Source`` peels the DAG layer by layer: every iteration takes the current
source nodes (all predecessors already assigned), forms a new superstep from
them, and assigns them to processors round-robin in decreasing order of work
weight (for load balance).  The very first superstep instead clusters the
original sources — sources sharing a direct successor are grouped together —
and distributes the clusters round-robin, so that the inputs of the same
operation start out on the same processor.  After each round-robin pass, any
direct successor whose predecessors all ended up on one processor is pulled
into the current superstep on that processor (this avoids opening new
supersteps unnecessarily).

The schedule uses the lazy communication schedule.
"""

from __future__ import annotations

import numpy as np

from ..core.dag import ComputationalDAG, neighbour_lists
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from .base import Scheduler, TimeBudget

__all__ = ["SourceScheduler"]


class _UnionFind:
    """Minimal union-find used to cluster the initial source nodes."""

    def __init__(self, elements: list[int]) -> None:
        self.parent = {v: v for v in elements}

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


class SourceScheduler(Scheduler):
    """Layer-by-layer round-robin heuristic (``Source``)."""

    name = "source"

    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: TimeBudget | None = None,
    ) -> BspSchedule:
        n = dag.num_nodes
        num_procs = machine.num_procs
        succ, pred = neighbour_lists(dag)
        work = dag.work_weights.tolist()
        procs = [0] * n
        supersteps = [0] * n
        remaining_preds = dag.in_degrees().tolist()
        frontier = sorted(dag.sources())
        superstep = 0

        def mark_assigned(node: int, proc: int) -> list[int]:
            """Assign ``node`` and return successors that just became sources."""
            procs[node] = proc
            supersteps[node] = superstep
            newly_ready = []
            for child in succ[node]:
                remaining_preds[child] -= 1
                if remaining_preds[child] == 0:
                    newly_ready.append(child)
            return newly_ready

        while frontier:
            next_frontier: set[int] = set()
            if superstep == 0:
                clusters = self._cluster_initial_sources(succ, frontier)
                proc = 0
                for cluster in clusters:
                    for node in cluster:
                        next_frontier.update(mark_assigned(node, proc))
                    proc = (proc + 1) % num_procs
            else:
                proc = 0
                for node in sorted(frontier, key=lambda v: (-work[v], v)):
                    next_frontier.update(mark_assigned(node, proc))
                    proc = (proc + 1) % num_procs

            # Pull successors whose predecessors all sit on one processor into
            # the current superstep (no communication needed for them).  As in
            # the paper's Algorithm 2 this is a single pass over the direct
            # successors of the layer just assigned, not a fixpoint iteration.
            # Every node in the pass became ready because all of its
            # predecessors are assigned, so only their processors matter, and
            # the pass's order does not change any decision.
            for node in list(next_frontier):
                owners = {procs[u] for u in pred[node]}
                if len(owners) == 1:
                    next_frontier.discard(node)
                    next_frontier.update(mark_assigned(node, owners.pop()))

            frontier = sorted(next_frontier)
            superstep += 1

        return BspSchedule(
            dag,
            machine,
            np.asarray(procs, dtype=np.int64),
            np.asarray(supersteps, dtype=np.int64),
        )

    @staticmethod
    def _cluster_initial_sources(
        succ: list[list[int]], sources: list[int]
    ) -> list[list[int]]:
        """Group the initial sources: sources sharing a direct successor are merged."""
        union_find = _UnionFind(list(sources))
        source_set = set(sources)
        seen_parent_of: dict[int, int] = {}
        for source in sources:
            for child in succ[source]:
                if child in seen_parent_of:
                    other = seen_parent_of[child]
                    if other in source_set:
                        union_find.union(source, other)
                else:
                    seen_parent_of[child] = source
        clusters: dict[int, list[int]] = {}
        for source in sources:
            clusters.setdefault(union_find.find(source), []).append(source)
        return [sorted(cluster) for _, cluster in sorted(clusters.items())]
