"""Unit tests for the BSPg and Source initialisation heuristics."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import BspMachine, ComputationalDAG
from repro.schedulers import (
    BspGreedyScheduler,
    CilkScheduler,
    HDaggScheduler,
    SourceScheduler,
)

from conftest import (
    assert_valid_schedule,
    build_chain_dag,
    build_diamond_dag,
    build_fork_join_dag,
    build_paper_example_dag,
    random_dag,
)
from repro.dagdb import SparseMatrixPattern, build_cg_dag, build_dataset, build_spmv_dag


HEURISTICS = [BspGreedyScheduler, SourceScheduler]


class TestValidity:
    @pytest.mark.parametrize("scheduler_cls", HEURISTICS)
    @pytest.mark.parametrize("num_procs", [1, 2, 4, 8])
    def test_valid_on_standard_dags(self, scheduler_cls, num_procs):
        machine = BspMachine.uniform(num_procs, g=2, latency=3)
        for dag in (
            build_chain_dag(7),
            build_diamond_dag(),
            build_fork_join_dag(9),
            build_paper_example_dag(),
        ):
            assert_valid_schedule(scheduler_cls().schedule(dag, machine))

    @pytest.mark.parametrize("scheduler_cls", HEURISTICS)
    def test_valid_on_random_and_generated_dags(self, scheduler_cls):
        machine = BspMachine.uniform(4, g=3, latency=5)
        dags = [
            random_dag(40, 0.1, seed=s) for s in range(3)
        ] + [
            build_spmv_dag(SparseMatrixPattern.random(8, 0.3, seed=1)).dag,
            build_cg_dag(SparseMatrixPattern.random(5, 0.4, seed=2, ensure_diagonal=True), 2).dag,
        ]
        for dag in dags:
            assert_valid_schedule(scheduler_cls().schedule(dag, machine))

    @pytest.mark.parametrize("scheduler_cls", HEURISTICS)
    def test_empty_and_singleton(self, scheduler_cls):
        machine = BspMachine.uniform(3)
        assert scheduler_cls().schedule(ComputationalDAG(0), machine).cost() == 0.0
        single = scheduler_cls().schedule(ComputationalDAG(1, [4], [1]), machine)
        assert single.cost() == 4.0 + machine.latency

    @pytest.mark.parametrize("scheduler_cls", HEURISTICS)
    def test_numa_machines(self, scheduler_cls, numa_machine8):
        dag = random_dag(35, 0.12, seed=8)
        assert_valid_schedule(scheduler_cls().schedule(dag, numa_machine8))

    @pytest.mark.parametrize("scheduler_cls", HEURISTICS)
    def test_every_node_assigned_exactly_once(self, scheduler_cls, spmv_dag, machine4):
        schedule = scheduler_cls().schedule(spmv_dag, machine4)
        assert len(schedule.procs) == spmv_dag.num_nodes
        assert schedule.supersteps.min() >= 0


class TestBspGreedy:
    def test_uses_multiple_processors_on_wide_dags(self):
        dag = build_fork_join_dag(16)
        machine = BspMachine.uniform(4, g=1, latency=1)
        schedule = BspGreedyScheduler().schedule(dag, machine)
        assert len(set(schedule.procs.tolist())) > 1

    def test_work_balanced_within_superstep(self):
        dag = build_fork_join_dag(32)
        machine = BspMachine.uniform(4, g=0, latency=0)
        schedule = BspGreedyScheduler().schedule(dag, machine)
        breakdown = schedule.cost_breakdown()
        # the middle layer has 32 unit-work nodes over 4 procs; the maximum
        # should be close to the average (perfect would be 8)
        assert max(breakdown.work_per_superstep) <= 14

    def test_idle_fraction_parameter(self, spmv_dag, machine4):
        eager_close = BspGreedyScheduler(idle_fraction=0.25).schedule(spmv_dag, machine4)
        late_close = BspGreedyScheduler(idle_fraction=1.0).schedule(spmv_dag, machine4)
        assert_valid_schedule(eager_close)
        assert_valid_schedule(late_close)

    def test_beats_cilk_on_communication_heavy_instance(self):
        """BSPg is communication-aware, Cilk is not (paper §7.1 tendency)."""
        dag = build_spmv_dag(SparseMatrixPattern.random(10, 0.35, seed=7)).dag
        machine = BspMachine.uniform(4, g=5, latency=5)
        bspg = BspGreedyScheduler().schedule(dag, machine)
        cilk = CilkScheduler(seed=0).schedule(dag, machine)
        assert bspg.cost() <= cilk.cost()


class TestSource:
    def test_first_superstep_clusters_shared_successors(self):
        """Sources feeding the same node start on the same processor."""
        dag = ComputationalDAG(6)
        # sources 0,1 share successor 4; sources 2,3 share successor 5
        dag.add_edges([(0, 4), (1, 4), (2, 5), (3, 5)])
        machine = BspMachine.uniform(4, g=1, latency=1)
        schedule = SourceScheduler().schedule(dag, machine)
        assert schedule.proc_of(0) == schedule.proc_of(1)
        assert schedule.proc_of(2) == schedule.proc_of(3)

    def test_pulls_single_owner_successors_into_superstep(self):
        """The pull rule merges a node into its single owner's superstep (Algorithm 2)."""
        dag = ComputationalDAG(3)
        dag.add_edges([(0, 1), (1, 2)])
        machine = BspMachine.uniform(2, g=1, latency=1)
        schedule = SourceScheduler().schedule(dag, machine)
        # node 1 is pulled next to node 0; node 2 (successor of a pulled node,
        # not of a source) starts the next superstep
        assert schedule.superstep_of(1) == schedule.superstep_of(0)
        assert schedule.proc_of(1) == schedule.proc_of(0)
        assert schedule.num_supersteps == 2

    def test_star_successors_follow_their_source(self):
        """Successors of one source are pulled onto its processor (no communication)."""
        dag = ComputationalDAG(9, [1, 8, 7, 6, 5, 4, 3, 2, 1])
        dag.add_edges([(0, i) for i in range(1, 9)])
        machine = BspMachine.uniform(4, g=0, latency=0)
        schedule = SourceScheduler().schedule(dag, machine)
        assert all(schedule.proc_of(v) == schedule.proc_of(0) for v in range(1, 9))
        assert schedule.num_supersteps == 1

    def test_round_robin_balances_by_decreasing_work(self):
        """A layer whose nodes depend on several processors is spread round-robin."""
        # four independent chains A_i -> B_i (distinct processors), then a layer
        # of nodes with decreasing work that each depend on two different chains
        # (so the pull rule cannot absorb them)
        works = [1] * 8 + [8, 7, 6, 5, 4, 3, 2, 1]
        dag = ComputationalDAG(16, works)
        for i in range(4):
            dag.add_edge(i, 4 + i)
        for j in range(8):
            dag.add_edge(4 + (j % 4), 8 + j)
            dag.add_edge(4 + ((j + 1) % 4), 8 + j)
        machine = BspMachine.uniform(4, g=0, latency=0)
        schedule = SourceScheduler().schedule(dag, machine)
        layer_step = schedule.superstep_of(8)
        breakdown = schedule.cost_breakdown()
        # decreasing-order round-robin keeps the maximum close to the mean (36/4 = 9)
        assert breakdown.work_per_superstep[layer_step] <= 12

    def test_good_for_shallow_spmv(self):
        """The paper finds Source effective on shallow spmv DAGs."""
        dag = build_spmv_dag(SparseMatrixPattern.random(12, 0.3, seed=11)).dag
        machine = BspMachine.uniform(4, g=1, latency=5)
        source = SourceScheduler().schedule(dag, machine)
        cilk = CilkScheduler(seed=0).schedule(dag, machine)
        assert source.cost() <= cilk.cost()
        assert source.num_supersteps <= 4


class TestPinnedDecisions:
    """``(procs, supersteps)`` digests recorded before the heuristics moved from
    per-call CSR slices to per-solve neighbour lists; any change of decision on
    the ``small`` bench dataset changes a digest."""

    MACHINES = {
        "uniform8": lambda: BspMachine.uniform(8, g=1.0, latency=5.0),
        "numa16": lambda: BspMachine.numa_hierarchy(16, delta=3.0, g=3.0, latency=10.0),
    }
    DIGESTS = {
        ("source", "uniform8"): "402202243b53083a36cc00088f4d4533070f5245fde1d9ff4edfc557b9587253",
        ("source", "numa16"): "81edb4483a3497bc8ef6fef8c3e36c5cf76d49e2639d1374e146ae7da4ca0a8c",
        ("hdagg", "uniform8"): "4641ce531126a7d6829c9e27dc91597cf8097487aa6cf801a3e5d30afc3efed6",
        ("hdagg", "numa16"): "d081e5a1c0a415fe88809987cbe11ef778461247b06d3e660e940a86835a9473",
        ("bsp_greedy", "uniform8"): "8cca90d10fe6ac1553502a9ca010dfee317832b8a98faf11458aa40dfa54ab14",
        ("bsp_greedy", "numa16"): "1ca187c06b458f3538751ea7e5d960345e5b684e41b1806aadbc2037967ccb38",
    }
    SCHEDULERS = {
        "source": SourceScheduler,
        "hdagg": HDaggScheduler,
        "bsp_greedy": BspGreedyScheduler,
    }

    @pytest.fixture(scope="class")
    def instances(self):
        return build_dataset("small")

    @pytest.mark.parametrize("scheduler_name, machine_label", sorted(DIGESTS))
    def test_decisions_match_recorded_digest(self, instances, scheduler_name, machine_label):
        scheduler = self.SCHEDULERS[scheduler_name]()
        machine = self.MACHINES[machine_label]()
        digest = hashlib.sha256()
        for inst in instances:
            schedule = scheduler.schedule(inst.dag, machine)
            digest.update(inst.name.encode())
            digest.update(np.asarray(schedule.procs, dtype=np.int64).tobytes())
            digest.update(np.asarray(schedule.supersteps, dtype=np.int64).tobytes())
        assert digest.hexdigest() == self.DIGESTS[scheduler_name, machine_label]
