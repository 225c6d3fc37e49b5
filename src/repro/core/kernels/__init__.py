"""Kernel-dispatch layer for the refinement/coarsening/symbolic hot loops.

Two interchangeable backends implement the hot loops of the pipeline —
the HC refinement pass, the HCcs window walk (serial and batched-front
flavours), the Pearce–Kelly dynamic-order acyclicity probe of the
coarsener, and the quotient-graph symbolic factorisation.  Each kernel
serves exactly one production path; the algorithms they superseded live
on as reference code that only tests and benchmark floors call — the
exact-DFS coarsener (whose probe is the :func:`coarsen_reach` kernel, kept
dispatched so the reference runs the same compiled code on every backend)
and the up-looking symbolic fill in :mod:`repro.dagdb.reference`.  The
:data:`KERNELS` registry lists every dispatched kernel with a one-line
summary; the ``repro kernels`` CLI prints it, so a new kernel only needs
the :func:`_dispatched` decorator to show up everywhere:

* ``numpy`` — the vectorized reference implementation, extracted unchanged
  from the scheduler/dagdb modules.  Always available.
* ``numba`` — the same loops compiled with ``@njit(nogil=True, cache=True)``
  (:mod:`repro.core.kernels.numba_impl`).  Selected automatically when a
  working numba is importable; a missing or broken install silently falls
  back to ``numpy``.

The ``REPRO_KERNEL_BACKEND`` environment variable overrides the automatic
choice (``numpy`` or ``numba``; forcing ``numba`` without a working install
raises :class:`KernelBackendError` instead of silently degrading, so CI
matrix legs cannot pass vacuously).  The undocumented value ``loops`` runs
the *uncompiled* loop bodies of :mod:`repro.core.kernels.loops` — the exact
code numba compiles — which is how the backend-parity suite pins the
compiled backend's semantics on machines without numba.

Both backends are pinned to the retained seed references by the existing
differential suites; on the repository's integer/dyadic-weight instances
they are bit-identical, not merely equal within tolerance.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from . import loops, numba_impl, numpy_impl
from .state import HccsState

__all__ = [
    "ENV_VAR",
    "KERNELS",
    "KernelBackendError",
    "HccsState",
    "available_backends",
    "backend_info",
    "get_backend",
    "warmup",
    "hc_pass",
    "hccs_pass",
    "hccs_pass_fronts",
    "coarsen_reach",
    "pk_order",
    "symbolic_fill_quotient",
]

#: Environment knob selecting the kernel backend.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Public backend names ("loops" additionally accepted for parity testing).
_PUBLIC = ("numpy", "numba")
_NAMES = ("numpy", "numba", "loops")

#: Node/window chunk between budget checks when a wall-clock budget is
#: active: large enough to amortise the kernel-call overhead, small enough
#: that an expired budget stops a pass promptly.
_BUDGET_CHUNK = 2048

_EPS = 1e-9


class KernelBackendError(RuntimeError):
    """An explicitly requested kernel backend cannot be honoured."""


def get_backend() -> str:
    """The active backend name, honouring ``REPRO_KERNEL_BACKEND``.

    Without the override: ``numba`` when a working install is importable,
    else ``numpy``.  An unknown forced name, or forcing ``numba`` where it
    is unavailable, raises :class:`KernelBackendError` with the reason.
    """
    forced = os.environ.get(ENV_VAR)
    if forced is not None and forced.strip():
        name = forced.strip().lower()
        if name not in _NAMES:
            raise KernelBackendError(
                f"unknown kernel backend {forced!r} (from {ENV_VAR}): "
                f"expected one of {', '.join(repr(n) for n in _PUBLIC)}"
            )
        if name == "numba" and not numba_impl.available():
            raise KernelBackendError(
                f"{ENV_VAR}=numba was forced but the numba backend is "
                f"unavailable ({numba_impl.unavailable_reason()}); install "
                f"the 'speed' extra (pip install repro-bsp-scheduling[speed]) or "
                f"unset {ENV_VAR}"
            )
        return name
    return "numba" if numba_impl.available() else "numpy"


def available_backends() -> tuple[str, ...]:
    """The backend names usable in this interpreter (public names only)."""
    return _PUBLIC if numba_impl.available() else ("numpy",)


def backend_info() -> dict:
    """Diagnostic snapshot for the ``repro kernels`` CLI subcommand."""
    forced = os.environ.get(ENV_VAR)
    try:
        active: str | None = get_backend()
        error = None
    except KernelBackendError as exc:
        active = None
        error = str(exc)
    return {
        "active": active,
        "forced": forced,
        "error": error,
        "available": list(available_backends()),
        "numba_available": numba_impl.available(),
        "numba_version": numba_impl.version(),
        "numba_unavailable_reason": numba_impl.unavailable_reason(),
    }


def warmup() -> float:
    """Pre-compile the active backend's kernels; returns seconds spent.

    A no-op (0.0) unless the numba backend is active — the numpy and loops
    backends have nothing to compile.
    """
    if get_backend() == "numba":
        return numba_impl.warmup()
    return 0.0


# ---------------------------------------------------------------------- #
# dispatched kernels
# ---------------------------------------------------------------------- #
#: Registry of every dispatched kernel: name -> one-line summary.  Filled
#: by the ``_dispatched`` decorator, so the ``repro kernels`` listing (and
#: anything else enumerating the kernel surface) can never fall behind.
KERNELS: dict[str, str] = {}


def _dispatched(fn):
    """Register a dispatch function in :data:`KERNELS` (summary = doc line 1)."""
    KERNELS[fn.__name__] = (fn.__doc__ or "").strip().splitlines()[0].rstrip(".")
    return fn


def _loop_fn(numba_name: str, loops_fn):
    """The compiled kernel for the active backend ('numba' vs 'loops')."""
    backend = get_backend()
    if backend == "numba":
        return getattr(numba_impl, numba_name)
    return loops_fn


def _compiled_pass(fn, args, width, start, stop, max_accept, eps, budget):
    """Drive a compiled pass kernel over ``[start, stop)`` in budget chunks.

    ``fn(*args, pos, end, cap, eps, moves_out)`` walks ``[pos, end)``,
    accepts at most ``cap`` moves (``< 0`` = unlimited) and writes them as
    ``width``-column rows of ``moves_out``, returning how many it wrote.
    One call cannot observe the wall clock, so a timed ``budget`` splits
    the range into :data:`_BUDGET_CHUNK`-sized calls checked in between;
    the accept cap carries over across chunks.
    """
    timed = budget is not None and budget.seconds is not None
    chunk = _BUDGET_CHUNK if timed else max(stop - start, 1)
    accepted = 0
    moves: list[tuple[int, ...]] = []
    pos = start
    while pos < stop:
        if budget is not None and budget.expired():
            break
        cap = -1 if max_accept < 0 else max_accept - accepted
        if max_accept >= 0 and cap <= 0:
            break
        end = min(pos + chunk, stop)
        moves_out = np.empty((max(end - pos, 1), width), dtype=np.int64)
        got = int(fn(*args, pos, end, cap, eps, moves_out))
        moves.extend(map(tuple, moves_out[:got].tolist()))
        accepted += got
        pos = end
    return accepted, moves


@_dispatched
def hc_pass(tracker, start, stop, max_accept=-1, eps=_EPS, budget=None):
    """One HC refinement pass over nodes ``[start, stop)`` of a tracker.

    Dispatches to the active backend; returns ``(accepted, moves)`` where
    ``moves`` lists the accepted ``(node, new_proc, new_step)`` triples in
    acceptance order.  ``max_accept < 0`` (or ``None``) means unlimited; a
    wall-clock ``budget`` is checked per node (numpy backend) or between
    node chunks (compiled backends — one kernel call cannot observe the
    clock mid-flight).
    """
    if max_accept is None:
        max_accept = -1
    if get_backend() == "numpy":
        return numpy_impl.hc_pass_numpy(tracker, start, stop, max_accept, eps, budget)
    dag = tracker.dag
    machine = tracker.machine
    args = (
        dag.succ_indptr,
        dag.succ_indices,
        dag.pred_indptr,
        dag.pred_indices,
        dag.work_weights,
        dag.comm_weights,
        machine.numa,
        float(machine.g),
        tracker.procs,
        tracker.supersteps,
        tracker.work,
        tracker.send,
        tracker.recv,
        tracker._work_max,
        tracker._comm_max,
        tracker.need_min,
        tracker.need_cnt,
    )
    fn = _loop_fn("hc_pass_jit", loops.hc_pass_loops)
    return _compiled_pass(fn, args, 3, start, stop, max_accept, eps, budget)


@_dispatched
def hccs_pass(state: HccsState, start, stop, max_accept=-1, eps=_EPS, budget=None):
    """One HCcs pass over ``state.movable[start:stop]``.

    Returns ``(accepted, moves)`` with the accepted ``(window_index,
    new_phase)`` pairs in acceptance order; budget/cap semantics as in
    :func:`hc_pass`.
    """
    if max_accept is None:
        max_accept = -1
    if get_backend() == "numpy":
        return numpy_impl.hccs_pass_numpy(state, start, stop, max_accept, eps, budget)
    args = (
        state.send,
        state.recv,
        state.comm_max,
        state.choices,
        state.movable,
        state.srcs,
        state.tgts,
        state.earliest,
        state.latest,
        state.volumes,
    )
    fn = _loop_fn("hccs_pass_jit", loops.hccs_pass_loops)
    return _compiled_pass(fn, args, 2, start, stop, max_accept, eps, budget)


@_dispatched
def coarsen_reach(graph, u, v):
    """Alternative-path probe of the exact-DFS reference coarsener.

    ``graph`` is a flat-adjacency working graph (``succ_pool``/``succ_start``
    /``succ_len`` plus reusable DFS scratch).  Returns ``1`` when another
    ``u -> v`` route exists (not contractable), ``0`` when none does.
    Production coarsening probes with :func:`pk_order` instead; this DFS
    backs :func:`~repro.schedulers.multilevel.coarsen.coarsen_dag_dfs_reference`.
    """
    backend = get_backend()
    if backend == "numpy":
        # Python-native mirror of the loop body (identical visit order) —
        # much faster than the un-jitted array DFS
        return numpy_impl.coarsen_reach_numpy(graph, u, v)
    fn = _loop_fn("coarsen_reach_jit", loops.coarsen_reach_loops)
    return int(
        fn(
            graph.succ_pool,
            graph.succ_start,
            graph.succ_len,
            u,
            v,
            graph.dfs_stack,
            graph.dfs_seen,
            graph.next_stamp(),
        )
    )


@_dispatched
def pk_order(graph, op, u, v):
    """Pearce–Kelly dynamic topological order: contraction probe / edge insert.

    ``graph`` is a flat-adjacency working graph carrying an ``order`` array
    (node -> position; dead nodes leave permanent holes) plus the shared DFS
    scratch.  ``op == 0`` answers "does an alternative ``u -> v`` path
    exist?" for an existing edge by a DFS pruned to ``order < order[v]`` —
    exact because a valid order confines every alternative path to that
    strip.  ``op == 1`` inserts edge ``u -> v``: the affected region
    (forward from ``v``, backward from ``u``, both bounded by the violated
    position interval) is discovered and reassigned in place, touching
    ``O(affected region)`` nodes instead of the whole graph.  Returns ``1``
    for "alternative path" / "would close a cycle", else ``0``.
    """
    backend = get_backend()
    if backend == "numpy":
        return numpy_impl.pk_order_numpy(graph, op, u, v)
    fn = _loop_fn("pk_order_jit", loops.pk_order_loops)
    return int(
        fn(
            graph.succ_pool,
            graph.succ_start,
            graph.succ_len,
            graph.pred_pool,
            graph.pred_start,
            graph.pred_len,
            graph.order,
            op,
            u,
            v,
            graph.dfs_stack,
            graph.f_buf,
            graph.b_buf,
            graph.dfs_seen,
            graph.next_stamp(),
        )
    )


#: Fronts smaller than this finish the pass serially: the batched sweep's
#: fixed overhead (concatenated-interval bookkeeping or a compiled call)
#: is not worth paying for a handful of windows.
_FRONT_SERIAL_TAIL = 8

#: A front must also cover at least this fraction of the remaining windows
#: to keep batching.  When many windows contend for few traffic rows the
#: scan-order-greedy disjoint front degenerates (down to size one), and the
#: per-round conflict scan would make the pass *slower* than the serial
#: walk; falling back keeps fronts a strict no-regression optimisation.
_FRONT_MIN_FRACTION = 64


@_dispatched
def hccs_pass_fronts(state: HccsState, eps=_EPS, budget=None):
    """One HCcs pass over all movable windows in batched row-disjoint fronts.

    Repeatedly extracts the scan-order-greedy maximal set of windows with
    pairwise-disjoint feasible phase intervals (one vectorized conflict
    scan), evaluates and applies the whole front in one batched kernel
    call, and defers the conflicting windows to the next front.  A window
    only ever joins a front once every lower-scan-position window sharing
    any of its rows has been applied, so each window observes exactly the
    row state the serial walk would — under the exact (integer/dyadic)
    weight regime the accepted moves are identical to
    ``hccs_pass(state, 0, n, -1, eps)``, and they are returned in that
    serial scan order.  Returns ``(accepted, moves)``.
    """
    movable = state.movable
    n = int(movable.size)
    if n == 0:
        return 0, []
    lo_all = state.earliest[movable]
    hi_all = state.latest[movable]
    num_rows = state.send.shape[0]
    backend = get_backend()
    remaining = np.arange(n, dtype=np.int64)  # scan positions, ascending
    accepted = 0
    tagged: list[tuple[int, int, int]] = []
    while remaining.size:
        if budget is not None and budget.expired():
            break
        mask = numpy_impl.hccs_front_mask(
            lo_all[remaining], hi_all[remaining], num_rows
        )
        front_pos = remaining[mask]
        small = front_pos.size <= max(
            _FRONT_SERIAL_TAIL, remaining.size // _FRONT_MIN_FRACTION
        )
        if small and front_pos.size < remaining.size:
            # the front is too small (absolutely, or relative to the
            # remaining windows) to amortise the batching overhead: the
            # remaining suffix in scan order *is* the serial completion
            sub = dataclasses.replace(state, movable=movable[remaining])
            got, pass_moves = hccs_pass(sub, 0, remaining.size, -1, eps, budget)
            pos_of = dict(zip(movable[remaining].tolist(), remaining.tolist()))
            for index, phase in pass_moves:
                tagged.append((pos_of[index], index, phase))
            accepted += got
            break
        front = movable[front_pos]
        if backend == "numpy":
            got, front_moves = numpy_impl.hccs_front_numpy(state, front, eps)
        else:
            got, front_moves = hccs_pass(
                dataclasses.replace(state, movable=front), 0, front.size, -1, eps
            )
        pos_of = dict(zip(front.tolist(), front_pos.tolist()))
        for index, phase in front_moves:
            tagged.append((pos_of[index], index, phase))
        accepted += int(got)
        remaining = remaining[~mask]
    tagged.sort()
    return accepted, [(index, phase) for _, index, phase in tagged]


@_dispatched
def symbolic_fill_quotient(indptr, indices, n):
    """Row-merge-tree symbolic factorisation (quotient-graph algorithm).

    Takes the CSR pattern of the symmetrised matrix; returns the sorted
    below-diagonal column structures of ``L`` as ``(out_indptr,
    out_indices, parents)`` with ``parents`` the elimination tree.
    Computed via Liu's path-compressed etree and marked row-subtree
    traversals instead of per-column unions — ``O(|A| · α + |L|)`` total,
    which is what makes million-column elimination DAGs constructible.
    Output is bit-identical to the up-looking per-column union pass kept
    as :func:`repro.dagdb.reference.symbolic_fill_uplooking_reference`.
    The numpy backend runs the walks over plain Python lists
    (:func:`~repro.core.kernels.numpy_impl.symbolic_fill_quotient_numpy`);
    the compiled backend jits the identical loop body.
    """
    backend = get_backend()
    if backend == "numpy":
        return numpy_impl.symbolic_fill_quotient_numpy(indptr, indices, n)
    fn = _loop_fn("symbolic_fill_quotient_jit", loops.symbolic_fill_quotient_loops)
    return fn(
        np.ascontiguousarray(indptr, dtype=np.int64),
        np.ascontiguousarray(indices, dtype=np.int64),
        n,
    )
