"""Optional numba kernel backend — the loop bodies compiled with ``njit``.

Importing this module never fails: a missing or broken numba installation
leaves :func:`available` false (with the reason kept for diagnostics) and
the dispatch layer falls back to the numpy backend.  When numba is present
every loop kernel from :mod:`repro.core.kernels.loops` is wrapped with
``@njit(nogil=True, cache=True)`` — compiled to native code that releases
the GIL for the duration of a pass, which is what makes the thread executor
of :func:`repro.core.parallel.parallel_map` profitable.

Compilation is lazy (first call per signature); :func:`warmup` forces it on
tiny instances so benchmarks can keep JIT compile time out of their timed
regions.
"""

from __future__ import annotations

import time

import numpy as np

from . import loops

__all__ = [
    "available",
    "unavailable_reason",
    "version",
    "warmup",
    "hc_pass_jit",
    "hccs_pass_jit",
    "coarsen_reach_jit",
    "pk_order_jit",
    "symbolic_fill_quotient_jit",
]

hc_pass_jit = None
hccs_pass_jit = None
coarsen_reach_jit = None
pk_order_jit = None
symbolic_fill_quotient_jit = None

_available = False
_reason: str | None = None
_version: str | None = None

try:
    import numba as _numba
except Exception as exc:  # pragma: no cover - depends on the environment
    _reason = f"numba import failed: {type(exc).__name__}: {exc}"
else:  # pragma: no cover - exercised only on numba installs (CI matrix leg)
    try:
        _jit = _numba.njit(nogil=True, cache=True)
        hc_pass_jit = _jit(loops.hc_pass_loops)
        hccs_pass_jit = _jit(loops.hccs_pass_loops)
        coarsen_reach_jit = _jit(loops.coarsen_reach_loops)
        pk_order_jit = _jit(loops.pk_order_loops)
        symbolic_fill_quotient_jit = _jit(loops.symbolic_fill_quotient_loops)
        _version = getattr(_numba, "__version__", "unknown")
        _available = True
    except Exception as exc:
        _reason = f"numba njit wrapping failed: {type(exc).__name__}: {exc}"


def available() -> bool:
    """Whether the compiled backend can be used in this interpreter."""
    return _available


def unavailable_reason() -> str | None:
    """Why the compiled backend is unavailable (``None`` when it is)."""
    return _reason


def version() -> str | None:
    """The numba version backing the compiled kernels (``None`` if absent)."""
    return _version


def warmup() -> float:  # pragma: no cover - exercised on numba installs only
    """Force-compile every jitted kernel on tiny instances; return seconds spent.

    Five loop bodies back the six dispatched kernels: ``hc_pass``,
    ``hccs_pass`` (whose jit also evaluates the compiled fronts of
    ``hccs_pass_fronts``), ``coarsen_reach`` (the exact-DFS reference
    coarsener's probe), ``pk_order`` and ``symbolic_fill_quotient``.
    Numba compiles per argument signature on first call; the adapters in the
    dispatch layer always pass int64/float64 arrays, so one tiny call per
    kernel (two for ``pk_order``, one per branch) covers the signatures the
    real workloads hit.  Benchmarks call this before their timed regions and
    report the returned compile time as volatile metadata.
    """
    if not _available:
        return 0.0
    start = time.perf_counter()
    i64 = np.int64
    # 2-node chain on 1 processor, 2 supersteps (max_accept=0: compile only)
    hc_pass_jit(
        np.array([0, 1, 1], dtype=i64),
        np.array([1], dtype=i64),
        np.array([0, 0, 1], dtype=i64),
        np.array([0], dtype=i64),
        np.ones(2, dtype=np.float64),
        np.ones(2, dtype=np.float64),
        np.zeros((1, 1), dtype=np.float64),
        1.0,
        np.zeros(2, dtype=i64),
        np.array([0, 1], dtype=i64),
        np.ones((2, 1), dtype=np.float64),
        np.zeros((2, 1), dtype=np.float64),
        np.zeros((2, 1), dtype=np.float64),
        np.ones(2, dtype=np.float64),
        np.zeros(2, dtype=np.float64),
        np.array([[1], [loops.NO_ENTRY]], dtype=i64),
        np.array([[1], [0]], dtype=i64),
        0,
        2,
        0,
        1e-9,
        np.empty((2, 3), dtype=i64),
    )
    hccs_pass_jit(
        np.zeros((1, 1), dtype=np.float64),
        np.zeros((1, 1), dtype=np.float64),
        np.zeros(1, dtype=np.float64),
        np.zeros(1, dtype=i64),
        np.zeros(1, dtype=i64),
        np.zeros(1, dtype=i64),
        np.zeros(1, dtype=i64),
        np.zeros(1, dtype=i64),
        np.zeros(1, dtype=i64),
        np.zeros(1, dtype=np.float64),
        0,
        1,
        0,
        1e-9,
        np.empty((1, 2), dtype=i64),
    )
    coarsen_reach_jit(
        np.array([1], dtype=i64),
        np.array([0, 1], dtype=i64),
        np.array([1, 0], dtype=i64),
        0,
        1,
        np.zeros(2, dtype=i64),
        np.zeros(2, dtype=i64),
        1,
    )
    # 2-node edge 0->1: op=0 probe, then op=1 with an inverted order so the
    # region-reorder branch (np.sort/np.argsort) compiles too
    pk_order_jit(
        np.array([1], dtype=i64),
        np.array([0, 1], dtype=i64),
        np.array([1, 0], dtype=i64),
        np.array([0], dtype=i64),
        np.array([1, 0], dtype=i64),
        np.array([0, 1], dtype=i64),
        np.array([0, 1], dtype=i64),
        0,
        0,
        1,
        np.zeros(2, dtype=i64),
        np.zeros(2, dtype=i64),
        np.zeros(2, dtype=i64),
        np.zeros(2, dtype=i64),
        1,
    )
    pk_order_jit(
        np.array([1], dtype=i64),
        np.array([0, 1], dtype=i64),
        np.array([1, 0], dtype=i64),
        np.array([0], dtype=i64),
        np.array([1, 0], dtype=i64),
        np.array([0, 1], dtype=i64),
        np.array([1, 0], dtype=i64),
        1,
        0,
        1,
        np.zeros(2, dtype=i64),
        np.zeros(2, dtype=i64),
        np.zeros(2, dtype=i64),
        np.zeros(2, dtype=i64),
        2,
    )
    symbolic_fill_quotient_jit(
        np.array([0, 1], dtype=i64),
        np.array([0], dtype=i64),
        1,
    )
    return time.perf_counter() - start
