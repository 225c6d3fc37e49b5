"""Unit tests for the structured workload families (elimination, FFT, stencil)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BspMachine, ConfigurationError, DagError
from repro.core.validation import schedule_violations
from repro.dagdb import (
    STRUCTURED_GENERATORS,
    SparseMatrixPattern,
    WEIGHT_MODELS,
    apply_weight_model,
    amd_ordering,
    build_amd_elimination_dag,
    build_elimination_dag,
    build_fft4_dag,
    build_fft_dag,
    build_rcm_elimination_dag,
    build_stencil2d_dag,
    build_stencil2d_rect_dag,
    build_stencil3d_dag,
    build_stencil_dag,
    rcm_ordering,
)
from repro.dagdb.reference import symbolic_fill_uplooking_reference
from repro.dagdb.structured import symbolic_fill_csr, symbolic_fill_structure
from repro.schedulers import SchedulingPipeline, create_scheduler


def _arrowhead(n: int) -> SparseMatrixPattern:
    coords = [(0, j) for j in range(n)] + [(i, 0) for i in range(n)]
    coords += [(i, i) for i in range(n)]
    return SparseMatrixPattern.from_coordinates(n, coords)


#: fill-differential inputs: random patterns at three densities plus the
#: structural extremes (no fill, complete fill, no off-diagonal, no columns)
FILL_PATTERNS = {
    "random-sparse": lambda: SparseMatrixPattern.random(
        60, 0.03, seed=11, ensure_diagonal=True
    ),
    "random-medium": lambda: SparseMatrixPattern.random(
        60, 0.1, seed=12, ensure_diagonal=True
    ),
    "random-dense": lambda: SparseMatrixPattern.random(
        60, 0.3, seed=13, ensure_diagonal=True
    ),
    "tridiagonal": lambda: SparseMatrixPattern.tridiagonal(40),
    "arrowhead": lambda: _arrowhead(12),
    "diagonal": lambda: SparseMatrixPattern.from_coordinates(
        7, [(i, i) for i in range(7)]
    ),
    "empty": lambda: SparseMatrixPattern(0, ()),
}


@pytest.mark.parametrize("name", sorted(FILL_PATTERNS))
def test_quotient_fill_matches_uplooking_reference(name):
    """The production quotient fill is bit-identical to the up-looking pass."""
    pattern = FILL_PATTERNS[name]()
    sym = pattern.symmetrized()
    expected = symbolic_fill_uplooking_reference(sym.indptr, sym.indices, sym.size)
    got = symbolic_fill_csr(pattern)
    for label, g, e in zip(("indptr", "indices", "parents"), got, expected):
        assert g.dtype == e.dtype == np.int64, label
        assert np.array_equal(g, e), label


class TestEliminationDag:
    def test_tridiagonal_has_no_fill(self):
        """A tridiagonal matrix factors without fill: the DAG is the chain."""
        result = build_elimination_dag(SparseMatrixPattern.tridiagonal(8))
        assert result.dag.num_nodes == 8
        assert result.dag.num_edges == 7
        assert result.dag.depth() == 8

    def test_fill_structure_matches_dense_elimination(self):
        """The symbolic structures equal a brute-force elimination on the dense graph."""
        pattern = SparseMatrixPattern.random(14, 0.2, seed=5, ensure_diagonal=True)
        structures, parents = symbolic_fill_structure(pattern)
        adj = pattern.symmetrized().to_dense().astype(bool)
        n = pattern.size
        for j in range(n):
            higher = set(np.flatnonzero(adj[j]).tolist()) - set(range(j + 1))
            # brute force: eliminating j connects its remaining neighbours
            for i in sorted(higher):
                adj[i, list(higher - {i})] = True
                adj[list(higher - {i}), i] = True
            assert structures[j].tolist() == sorted(higher), j
            expected_parent = min(higher) if higher else -1
            assert parents[j] == expected_parent

    def test_arrowhead_fills_completely(self):
        """Row/column 0 dense: eliminating column 0 connects everything."""
        n = 6
        result = build_elimination_dag(_arrowhead(n))
        assert result.dag.num_edges == n * (n - 1) // 2  # complete fill
        assert result.dag.depth() == n

    def test_kind_validation_and_roles(self):
        pattern = SparseMatrixPattern.tridiagonal(4)
        lu = build_elimination_dag(pattern, kind="lu")
        assert set(lu.roles.values()) == {"eliminate:lu"}
        with pytest.raises(DagError):
            build_elimination_dag(pattern, kind="qr")

    def test_empty_and_diagonal_patterns(self):
        empty = build_elimination_dag(SparseMatrixPattern(0, ()))
        assert empty.dag.num_nodes == 0
        diag = build_elimination_dag(
            SparseMatrixPattern.from_coordinates(5, [(i, i) for i in range(5)])
        )
        assert diag.dag.num_nodes == 5
        assert diag.dag.num_edges == 0


class TestFftDag:
    def test_structure(self):
        result = build_fft_dag(8)
        dag = result.dag
        assert dag.num_nodes == 8 * 4  # 3 stages + inputs
        assert dag.num_edges == 8 * 3 * 2
        assert dag.depth() == 4
        assert len(result.nodes_with_role("input:x")) == 8
        assert len(result.nodes_with_role("butterfly")) == 24
        # every butterfly node combines exactly two operands
        indeg = dag.in_degrees()
        assert (indeg[8:] == 2).all()

    def test_butterfly_partners(self):
        dag = build_fft_dag(4).dag
        # stage 1, lane 0 reads lanes 0 and 1 of the inputs
        assert sorted(dag.predecessors(4)) == [0, 1]
        # stage 2, lane 0 reads lanes 0 and 2 of stage 1
        assert sorted(dag.predecessors(8)) == [4, 6]

    @pytest.mark.parametrize("bad", [0, 1, 3, 6, 12])
    def test_rejects_non_powers_of_two(self, bad):
        with pytest.raises(DagError):
            build_fft_dag(bad)


class TestStencilDag:
    def test_2d_structure(self):
        result = build_stencil_dag((3, 4), 2)
        dag = result.dag
        assert dag.num_nodes == 12 * 3
        assert dag.depth() == 3
        # interior cell of a 3x4 grid: self + 4 face neighbours
        interior = 12 + 1 * 4 + 1  # layer 1, cell (1, 1)
        assert dag.in_degree(interior) == 5
        # corner cell: self + 2 neighbours
        corner = 12 + 0
        assert dag.in_degree(corner) == 3

    def test_3d_structure(self):
        dag = build_stencil3d_dag(3, 1).dag
        assert dag.num_nodes == 27 * 2
        center = 27 + 13  # cell (1,1,1) of layer 1
        assert dag.in_degree(center) == 7

    def test_validation(self):
        with pytest.raises(DagError):
            build_stencil_dag((4,), 1)  # 1D unsupported
        with pytest.raises(DagError):
            build_stencil_dag((2, 2, 2, 2), 1)
        with pytest.raises(DagError):
            build_stencil_dag((0, 3), 1)
        with pytest.raises(DagError):
            build_stencil_dag((3, 3), 0)

    def test_wrappers(self):
        assert build_stencil2d_dag(4, 2).dag.num_nodes == 16 * 3
        assert build_stencil3d_dag(2, 2).dag.num_nodes == 8 * 3


class TestWeightModels:
    def test_registry_contents(self):
        assert {"paper", "unit", "indegree"} <= set(WEIGHT_MODELS)

    def test_unit_model(self):
        dag = build_fft_dag(4, weight_model="unit").dag
        assert (dag.work_weights == 1.0).all()
        assert (dag.comm_weights == 1.0).all()

    def test_indegree_model(self):
        dag = build_fft_dag(4, weight_model="indegree").dag
        assert (dag.work_weights[4:] == 2.0).all()
        assert (dag.work_weights[:4] == 1.0).all()

    def test_paper_model_default(self):
        dag = build_stencil2d_dag(3, 1).dag
        indeg = dag.in_degrees()
        expected = np.where(indeg == 0, 1.0, np.maximum(indeg - 1, 1))
        assert np.array_equal(dag.work_weights, expected)

    def test_unknown_model_rejected(self):
        dag = build_fft_dag(4).dag
        with pytest.raises(ConfigurationError):
            apply_weight_model(dag, "quadratic")


class TestSchedulableEndToEnd:
    """Acceptance: every new family schedules cleanly with >= 2 schedulers."""

    def instances(self):
        pattern = SparseMatrixPattern.random(20, 0.15, seed=6, ensure_diagonal=True)
        yield build_elimination_dag(pattern).dag
        yield build_rcm_elimination_dag(pattern).dag
        yield build_amd_elimination_dag(pattern).dag
        yield build_fft_dag(16).dag
        yield build_fft4_dag(16).dag
        yield build_stencil2d_dag(4, 3).dag
        yield build_stencil2d_rect_dag(6, 3, 2).dag
        yield build_stencil3d_dag(3, 2).dag

    @pytest.mark.parametrize("scheduler_name", ["bsp_greedy", "hdagg", "cilk", "bl_est"])
    def test_schedules_validate(self, scheduler_name):
        machine = BspMachine.uniform(4, g=1, latency=2)
        for dag in self.instances():
            scheduler = create_scheduler(scheduler_name)
            schedule = scheduler.schedule(dag, machine)
            violations = schedule_violations(
                dag, machine, schedule.procs, schedule.supersteps,
                sorted(schedule.comm_schedule),
            )
            assert violations == [], (scheduler_name, dag.name, violations)

    def test_pipeline_end_to_end(self):
        machine = BspMachine.uniform(2, g=1, latency=2)
        pipeline = SchedulingPipeline.heuristics_only(local_search_seconds=0.2)
        for dag in self.instances():
            schedule = pipeline.schedule(dag, machine)
            assert schedule.cost() > 0
            violations = schedule_violations(
                dag, machine, schedule.procs, schedule.supersteps,
                sorted(schedule.comm_schedule),
            )
            assert violations == [], dag.name

    def test_registry_names(self):
        assert set(STRUCTURED_GENERATORS) == {
            "cholesky",
            "cholesky_amd",
            "cholesky_rcm",
            "fft",
            "fft4",
            "stencil2d",
            "stencil2d_rect",
            "stencil3d",
        }


class TestScenarioVariants:
    """The PR-4 diversity additions: radix-4 FFT, rectangular stencils, RCM."""

    def test_fft4_structure(self):
        result = build_fft4_dag(64)
        stages = 3  # log4(64)
        assert result.dag.num_nodes == 64 * (stages + 1)
        assert result.dag.num_edges == 64 * stages * 4  # four-way fan-in
        assert result.dag.depth() == stages + 1
        assert result.dag.is_acyclic()

    def test_fft4_rejects_non_power_of_four(self):
        for bad in (2, 8, 32, 12):
            with pytest.raises(DagError):
                build_fft4_dag(bad)

    def test_fft_radix2_unchanged_by_radix_parameter(self):
        base = build_fft_dag(16)
        explicit = build_fft_dag(16, radix=2)
        assert np.array_equal(base.dag.succ_indptr, explicit.dag.succ_indptr)
        assert np.array_equal(base.dag.succ_indices, explicit.dag.succ_indices)
        assert base.roles == explicit.roles

    def test_rect_stencil_aspect_ratio(self):
        result = build_stencil2d_rect_dag(8, 2, 3)
        assert result.dag.num_nodes == 8 * 2 * 4
        assert result.dag.is_acyclic()
        # a 1 x n strip degenerates to coupled chains and must still build
        strip = build_stencil2d_rect_dag(5, 1, 2)
        assert strip.dag.num_nodes == 5 * 3
        assert strip.dag.is_acyclic()

    def test_rcm_ordering_is_permutation_and_reduces_band_fill(self):
        band = SparseMatrixPattern.banded(40, 2)
        scramble = np.random.default_rng(1).permutation(40)
        scrambled = band.permuted(scramble)
        order = rcm_ordering(scrambled)
        assert sorted(order.tolist()) == list(range(40))
        natural = build_elimination_dag(scrambled)
        rcm = build_rcm_elimination_dag(scrambled)
        assert rcm.dag.num_nodes == natural.dag.num_nodes == 40
        # RCM restores a narrow band, so the fill graph has far fewer edges
        assert rcm.dag.num_edges < natural.dag.num_edges

    def test_rcm_deterministic(self):
        pattern = SparseMatrixPattern.random(25, 0.15, seed=4, ensure_diagonal=True)
        first = build_rcm_elimination_dag(pattern)
        second = build_rcm_elimination_dag(pattern)
        assert np.array_equal(first.dag.succ_indptr, second.dag.succ_indptr)
        assert np.array_equal(first.dag.succ_indices, second.dag.succ_indices)

    def test_elimination_ordering_validation(self):
        pattern = SparseMatrixPattern.tridiagonal(5)
        with pytest.raises(DagError):
            build_elimination_dag(pattern, ordering="colamd")

    def test_amd_ordering_is_permutation_and_reduces_fill(self):
        pattern = SparseMatrixPattern.random(40, 0.15, seed=9, ensure_diagonal=True)
        order = amd_ordering(pattern)
        assert sorted(order.tolist()) == list(range(40))
        natural = build_elimination_dag(pattern)
        amd = build_amd_elimination_dag(pattern)
        assert amd.dag.num_nodes == natural.dag.num_nodes == 40
        # minimum degree greedily suppresses fill; on a random pattern it
        # must not do worse than the natural order
        assert amd.dag.num_edges <= natural.dag.num_edges
        assert amd.dag.is_acyclic()

    def test_amd_deterministic(self):
        pattern = SparseMatrixPattern.random(25, 0.2, seed=2, ensure_diagonal=True)
        first = build_amd_elimination_dag(pattern)
        second = build_amd_elimination_dag(pattern)
        assert np.array_equal(first.dag.succ_indptr, second.dag.succ_indptr)
        assert np.array_equal(first.dag.succ_indices, second.dag.succ_indices)

    def test_amd_handles_disconnected_and_tiny_patterns(self):
        # a diagonal-only pattern has no fill under any ordering
        diag = SparseMatrixPattern.from_coordinates(4, [(i, i) for i in range(4)])
        assert sorted(amd_ordering(diag).tolist()) == list(range(4))
        assert build_amd_elimination_dag(diag).dag.num_edges == 0
        empty = SparseMatrixPattern(0)
        assert amd_ordering(empty).size == 0

    def test_permuted_validates_order(self):
        pattern = SparseMatrixPattern.tridiagonal(4)
        with pytest.raises(DagError):
            pattern.permuted([0, 1, 1, 2])
        identity = pattern.permuted([0, 1, 2, 3])
        assert identity == pattern
