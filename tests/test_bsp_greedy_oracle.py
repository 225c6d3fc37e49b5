"""Differential oracle for the incremental BSPg score.

``WalkerBspGreedy.schedule`` is the BSPg loop as it stood before the score
became incremental: it re-walks every predecessor of every ready node, and
every successor of those predecessors, on every pick.  It lives here, not in
``src/``, as the reference that :class:`BspGreedyScheduler` must match
decision for decision (identical ``procs`` and ``supersteps``), including on
unit weights (many exact score ties) and non-dyadic communication weights
(0.1, 1/3), where the incremental sums drift from the walker's in the last
bit and the exact tie re-check must restore the walker's pick.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BspMachine, ComputationalDAG
from repro.core.schedule import BspSchedule
from repro.schedulers import BspGreedyScheduler
from repro.schedulers.base import TimeBudget


class WalkerBspGreedy(BspGreedyScheduler):
    """BSPg with the from-scratch per-pick score walk (the oracle)."""

    def schedule(
        self,
        dag: ComputationalDAG,
        machine: BspMachine,
        budget: TimeBudget | None = None,
    ) -> BspSchedule:
        n = dag.num_nodes
        num_procs = machine.num_procs
        procs = np.zeros(n, dtype=np.int64)
        supersteps = np.zeros(n, dtype=np.int64)
        if n == 0:
            return BspSchedule(dag, machine, procs, supersteps)

        assigned = np.zeros(n, dtype=bool)
        finished = np.zeros(n, dtype=bool)
        remaining_preds = dag.in_degrees()
        outdeg = np.maximum(dag.out_degrees(), 1)

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

        def choose_node(proc: int) -> int | None:
            """Pick the best assignable node for ``proc`` (Appendix A.2 score)."""
            pool = ready_proc[proc] if ready_proc[proc] else ready_all
            if not pool:
                return None
            best_node = None
            best_score = -1.0
            for v in pool:
                score = 0.0
                for u in dag.pred(v).tolist():
                    on_proc = assigned[u] and procs[u] == proc
                    if not on_proc:
                        on_proc = any(
                            assigned[w] and procs[w] == proc
                            for w in dag.succ(u).tolist()
                        )
                    if on_proc:
                        score += dag.comm(u) / outdeg[u]
                if score > best_score or (score == best_score and (best_node is None or v < best_node)):
                    best_score = score
                    best_node = v
            return best_node

        def assignable(proc: int) -> bool:
            return free[proc] and bool(ready_proc[proc] or ready_all)

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
                finished[node] = True
                free[int(procs[node])] = True
                for succ in dag.succ(node).tolist():
                    remaining_preds[succ] -= 1
                    if remaining_preds[succ] == 0:
                        ready.add(succ)
                        # can `succ` still be computed inside this superstep
                        # on the finishing node's processor?
                        proc = int(procs[node])
                        if all(
                            (assigned[u] and (procs[u] == proc or supersteps[u] < superstep))
                            for u in dag.pred(succ).tolist()
                        ):
                            ready_proc[proc].add(succ)

            if not end_step:
                progress = True
                while progress:
                    progress = False
                    for proc in range(num_procs):
                        if not assignable(proc):
                            continue
                        node = choose_node(proc)
                        if node is None:
                            continue
                        ready.discard(node)
                        ready_all.discard(node)
                        for pool in ready_proc:
                            pool.discard(node)
                        procs[node] = proc
                        supersteps[node] = superstep
                        assigned[node] = True
                        unassigned -= 1
                        free[proc] = False
                        heapq.heappush(finish_events, (time_now + dag.work(node), node))
                        progress = True

            idle_procs = sum(
                1 for proc in range(num_procs) if free[proc] and not ready_proc[proc]
            )
            if not ready_all and idle_procs >= idle_threshold:
                end_step = True

        return BspSchedule(dag, machine, procs, supersteps)


# ---------------------------------------------------------------------- #
# random DAGs
# ---------------------------------------------------------------------- #
#: communication-weight palettes: unit weights (many exact score ties) and
#: non-dyadic weights whose c(u)/outdeg(u) shares round differently when
#: summed in another order
COMM_PALETTES = {
    "unit": (1.0,),
    "tenth": (0.1,),
    "third": (1.0 / 3.0,),
    "mixed": (0.1, 1.0 / 3.0, 0.7, 1.0, 2.0 / 3.0),
    "integer": (1.0, 2.0, 3.0, 5.0),
}


@st.composite
def weighted_dags(draw, max_nodes: int = 48):
    """Random DAGs: forward edges over a random order or between dense layers."""
    palette = COMM_PALETTES[draw(st.sampled_from(sorted(COMM_PALETTES)))]
    unit_work = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    if draw(st.booleans()):
        num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
        layer = np.arange(num_nodes)
    else:
        width = draw(st.integers(min_value=2, max_value=12))
        depth = draw(st.integers(min_value=2, max_value=max(2, max_nodes // width)))
        num_nodes = width * depth
        layer = np.arange(num_nodes) // width
    works = np.ones(num_nodes) if unit_work else rng.integers(1, 6, num_nodes).astype(float)
    comms = rng.choice(np.asarray(palette), num_nodes)
    dag = ComputationalDAG(num_nodes, works.tolist(), comms.tolist())
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            # random order: every forward pair; layered: adjacent layers only
            if layer[j] - layer[i] in (1, j - i) and rng.random() < density:
                dag.add_edge(i, j)
    return dag


def assert_same_decisions(dag: ComputationalDAG, machine: BspMachine, idle_fraction: float):
    expected = WalkerBspGreedy(idle_fraction=idle_fraction).schedule(dag, machine)
    actual = BspGreedyScheduler(idle_fraction=idle_fraction).schedule(dag, machine)
    np.testing.assert_array_equal(actual.procs, expected.procs)
    np.testing.assert_array_equal(actual.supersteps, expected.supersteps)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    dag=weighted_dags(),
    num_procs=st.sampled_from([1, 2, 3, 8, 16]),
    idle_fraction=st.sampled_from([0.25, 0.5, 1.0]),
)
def test_incremental_score_matches_walker(dag, num_procs, idle_fraction):
    assert_same_decisions(dag, BspMachine.uniform(num_procs, g=1.0, latency=5.0), idle_fraction)


@pytest.mark.parametrize("comm", [0.1, 1.0 / 3.0])
@pytest.mark.parametrize("num_procs", [2, 3, 8])
def test_non_dyadic_layered_dag_matches_walker(comm, num_procs):
    """Dense layers: every node has many predecessors whose shares are non-dyadic."""
    width, depth = 12, 6
    n = width * depth
    for seed in range(4):
        rng = np.random.default_rng([num_procs, seed])
        dag = ComputationalDAG(n, [1.0] * n, [comm] * n)
        for layer in range(depth - 1):
            for i in range(width):
                for j in range(width):
                    if rng.random() < 0.4:
                        dag.add_edge(layer * width + i, (layer + 1) * width + j)
        for idle_fraction in (0.25, 0.5, 1.0):
            assert_same_decisions(dag, BspMachine.uniform(num_procs), idle_fraction)


# ---------------------------------------------------------------------- #
# the service_replay DAGs
# ---------------------------------------------------------------------- #
@pytest.mark.slow
@pytest.mark.parametrize("dataset", ["medium", "large"])
def test_bench_datasets_match_walker(dataset):
    from repro.dagdb import build_dataset

    machines = (
        BspMachine.uniform(8, g=1.0, latency=5.0),
        BspMachine.numa_hierarchy(16, delta=3.0, g=3.0, latency=10.0),
    )
    for inst in build_dataset(dataset, seed=1):
        for machine in machines:
            assert_same_decisions(inst.dag, machine, 0.5)
