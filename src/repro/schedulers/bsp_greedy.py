"""The BSPg greedy initialisation heuristic (paper §4.2, Appendix A.2, Algorithm 1).

BSPg builds a BSP schedule directly, superstep by superstep, while still
simulating concrete start/finish times inside each computation phase so that
the per-processor work stays balanced.  The rules are:

* a processor may only be assigned a node ``v`` when all of ``v``'s direct
  predecessors are already available to it *within the current superstep*
  (computed on the same processor, or in an earlier superstep);
* nodes that became ready but have predecessors on several processors in the
  current superstep are parked in a global ``ready_all`` set and only become
  assignable (to anybody) when the next superstep starts;
* when at least half of the processors are idle and nothing in ``ready_all``
  can be assigned without communication, the computation phase is closed and
  the next superstep begins;
* tie-breaking between assignable nodes uses a communication-saving score:
  a candidate ``v`` is preferred when its predecessors ``u`` (or their
  direct successors) already live on the target processor, weighted by
  ``c(u) / outdeg(u)``; the highest score wins, ties go to the smallest id.

The score is maintained incrementally.  ``present[p][u]`` records that ``u``
or one of its successors is assigned to ``p``; assignments are never undone,
so the flag only ever turns on.  Assigning ``w`` to ``p`` turns on
``present[p][w]`` and ``present[p][u]`` for every predecessor ``u`` of
``w``, and each flag that turns on for the first time adds
``c(u) / outdeg(u)`` to ``score[p][x]`` for every successor ``x`` of ``u``.
Every (node, processor) flag turns on at most once, so keeping the scores
costs ``O(E * P)`` per solve in total, and a pick costs one ``O(|pool|)``
scan for the maximum instead of a walk over every predecessor and every
successor of those predecessors for every ready node.

The incremental sums add the same terms as a from-scratch sum over ``v``'s
predecessors, but in the order the flags turned on, so with non-dyadic
weights (``1/3``, ``0.1``) two totals may differ in the last bit.  A pick
therefore re-scores exactly, in predecessor order, every pool node within a
relative ``TIE_TOLERANCE`` of the best incremental score (rounding drift is
about ``1e-16`` per term) and applies the rule above to those exact scores:
the decisions are those of the from-scratch score, bit for bit.

Neighbourhoods are read from per-solve neighbour lists
(:func:`repro.core.dag.neighbour_lists`).  Communication steps are not
constructed explicitly; the resulting schedule uses the lazy communication
schedule.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core.dag import ComputationalDAG, neighbour_lists
from ..core.machine import BspMachine
from ..core.schedule import BspSchedule
from .base import Scheduler, TimeBudget

__all__ = ["BspGreedyScheduler"]

#: relative width of the band below the best incremental score inside which
#: candidates are re-scored exactly (rounding drift is ~1e-16 per term)
TIE_TOLERANCE = 1e-9


class BspGreedyScheduler(Scheduler):
    """Greedy BSP-tailored initialisation heuristic (``BSPg``).

    Parameters
    ----------
    idle_fraction:
        The computation phase of the current superstep is closed once at
        least this fraction of the processors is idle and cannot receive
        further work without communication (the paper uses one half).
    """

    name = "bsp_greedy"

    def __init__(self, idle_fraction: float = 0.5) -> None:
        self.idle_fraction = idle_fraction

    # ------------------------------------------------------------------ #
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
        # c(u) / outdeg(u): what u adds to a successor's score on a processor
        # where u is present
        share = (dag.comm_weights / np.maximum(dag.out_degrees(), 1)).tolist()
        procs = [0] * n
        supersteps = [0] * n
        assigned = [False] * n
        remaining_preds = dag.in_degrees().tolist()
        # present[p][u]: u or one of its successors is assigned to p (monotone);
        # score[p][v]: sum of share[u] over the predecessors u of v present on p
        present = [bytearray(n) for _ in range(num_procs)]
        score = [[0.0] * n for _ in range(num_procs)]

        ready: set[int] = set(dag.sources())
        ready_all: set[int] = set(ready)
        ready_proc: list[set[int]] = [set() for _ in range(num_procs)]
        free = [True] * num_procs

        superstep = 0
        end_step = False
        unassigned = n
        # Heap of (finish_time, node); a sentinel node of -1 marks the
        # "time 0" entry that opens every superstep.
        finish_events: list[tuple[float, int]] = [(0.0, -1)]
        idle_threshold = max(1, int(np.ceil(self.idle_fraction * num_procs)))

        def mark_present(node: int, proc: int) -> None:
            """Record ``node`` on ``proc``: it and its predecessors become present."""
            on_proc = present[proc]
            proc_score = score[proc]
            for u in (node, *pred[node]):
                if not on_proc[u]:
                    on_proc[u] = 1
                    weight = share[u]
                    for x in succ[u]:
                        proc_score[x] += weight

        def choose_node(proc: int, pool: set[int]) -> int:
            """Pick the best node of ``pool`` for ``proc`` (Appendix A.2 score)."""
            proc_score = score[proc]
            best = max(map(proc_score.__getitem__, pool))
            if best == 0.0:
                return min(pool)
            threshold = best * (1.0 - TIE_TOLERANCE)
            candidates = [v for v in pool if proc_score[v] >= threshold]
            if len(candidates) == 1:
                return candidates[0]
            # The incremental sums may differ from a predecessor-order sum in
            # the last bit; re-score the near-ties exactly so the pick is the
            # one the from-scratch score makes (highest, then smallest id).
            on_proc = present[proc]
            best_node = -1
            best_score = -1.0
            for v in sorted(candidates):
                exact = 0.0
                for u in pred[v]:
                    if on_proc[u]:
                        exact += share[u]
                if exact > best_score:
                    best_score = exact
                    best_node = v
            return best_node

        while unassigned > 0:
            if end_step and not finish_events:
                # open the next superstep: everything that is ready becomes
                # available to every processor
                for pool in ready_proc:
                    pool.clear()
                ready_all = set(ready)
                superstep += 1
                end_step = False
                finish_events = [(0.0, -1)]

            if not finish_events:
                # Nothing running and the step was not explicitly closed:
                # force a new superstep (can happen when every ready node
                # needs cross-processor data).
                end_step = True
                continue

            time_now, _ = finish_events[0]
            # process *all* nodes finishing at this time
            while finish_events and finish_events[0][0] == time_now:
                _, node = heapq.heappop(finish_events)
                if node < 0:
                    continue
                proc = procs[node]
                free[proc] = True
                for child in succ[node]:
                    remaining_preds[child] -= 1
                    if remaining_preds[child] == 0:
                        ready.add(child)
                        # can `child` still be computed inside this superstep
                        # on the finishing node's processor?
                        if all(
                            assigned[u] and (procs[u] == proc or supersteps[u] < superstep)
                            for u in pred[child]
                        ):
                            ready_proc[proc].add(child)

            if not end_step:
                progress = True
                while progress:
                    progress = False
                    for proc in range(num_procs):
                        pool = ready_proc[proc] or ready_all
                        if not (free[proc] and pool):
                            continue
                        node = choose_node(proc, pool)
                        ready.discard(node)
                        ready_all.discard(node)
                        for pool in ready_proc:
                            pool.discard(node)
                        procs[node] = proc
                        supersteps[node] = superstep
                        assigned[node] = True
                        mark_present(node, proc)
                        unassigned -= 1
                        free[proc] = False
                        heapq.heappush(finish_events, (time_now + work[node], node))
                        progress = True

            idle_procs = sum(
                1 for proc in range(num_procs) if free[proc] and not ready_proc[proc]
            )
            if not ready_all and idle_procs >= idle_threshold:
                end_step = True

        return BspSchedule(
            dag,
            machine,
            np.asarray(procs, dtype=np.int64),
            np.asarray(supersteps, dtype=np.int64),
        )
