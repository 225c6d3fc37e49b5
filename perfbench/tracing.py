"""In-memory span tracing around the public entry points of each layer.

The program itself carries no instrumentation.  :func:`install` replaces
selected functions and methods of the ``repro`` package with thin wrappers
that open a span on entry and close it on exit, and :func:`uninstall` puts
the originals back.  Methods are patched on their class, so every caller
sees the wrapper whatever name it imported the class under; module-level
functions are patched where they are *called*: ``coarsen_dag`` is bound by
``from .coarsen import coarsen_dag`` in ``multilevel/scheduler.py`` and
``evaluate_cost`` by ``from .cost import ...`` in ``core/schedule.py``, so
those bindings are the ones replaced.

A span records its name, start, end, parent span and the request it belongs
to.  Spans stay in flat arrays until :meth:`Tracer.summary` folds them into
per-name call counts, inclusive time (outermost span of each name only, so
recursion never double counts) and self time (duration minus the time the
span's children cover).  Single-threaded use only: the benchmark sends one
request at a time and leaves ``init_workers`` at 1.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "install", "uninstall"]


class Tracer:
    """Span recorder with counters kept at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._request = array("i")
        self._nested = array("b")
        self._stack: list[int] = []
        self._open_names: Counter[str] = Counter()
        self.request_id = -1
        self.counters: Counter[str] = Counter()
        self._suspended = 0

    # ------------------------------------------------------------------ #
    def is_open(self, name: str) -> bool:
        """Whether a span of ``name`` encloses the current point."""
        return self._open_names[name] > 0

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._request.append(self.request_id)
        self._nested.append(1 if self._open_names[name] else 0)
        self._end.append(0.0)
        self._stack.append(index)
        self._open_names[name] += 1
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int, name: str) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()
        self._open_names[name] -= 1

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index, name)

    @contextmanager
    def suspended(self):
        """Run benchmark-side bookkeeping without recording spans."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def wrap(self, name, fn, after=None):
        """``fn`` wrapped in a span.

        ``name`` is a string or a callable returning one at call time.
        ``after(args, kwargs, result)`` runs outside the span, so counter
        bookkeeping lands in neither the layer's time nor its counts.
        """

        def wrapper(*args, **kwargs):
            if self._suspended:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name()
            index = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, span_name)
            if after is not None:
                with self.suspended():
                    after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # ------------------------------------------------------------------ #
    @property
    def num_spans(self) -> int:
        return len(self._name)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        count = len(self._name)
        child_time = [0.0] * count
        for index in range(count):
            parent = self._parent[index]
            if parent >= 0:
                child_time[parent] += self._end[index] - self._start[index]
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index in range(count):
            entry = stats[self.names[self._name[index]]]
            duration = self._end[index] - self._start[index]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[index]
            if not self._nested[index]:
                entry["total_s"] += duration
        return dict(stats)


# ---------------------------------------------------------------------- #
# the patch table
# ---------------------------------------------------------------------- #
def _improver_hook(tracer: Tracer, stem: str):
    """Count improver calls and the ones that lowered cost.

    Every improver returns its input object unchanged unless it found a
    strictly cheaper schedule, so identity tells the two apart without
    evaluating (and thereby caching) any cost on the program's behalf.
    """

    def after(args, kwargs, result):
        tracer.counters[f"{stem}.stage_calls"] += 1
        if result is not kwargs.get("schedule", args[1] if len(args) > 1 else None):
            tracer.counters[f"{stem}.improved"] += 1

    return after


def _patch_targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """``(owner, attribute, wrapper)`` for every traced entry point."""
    import repro.core.kernels as kernels
    import repro.core.schedule as schedule_module
    import repro.io.hdagb as hdagb
    import repro.schedulers.multilevel.scheduler as ml_scheduler
    from repro.api.request import ScheduleRequest
    from repro.api.result import ScheduleResult
    from repro.core.schedule import BspSchedule
    from repro.schedulers.bsp_greedy import BspGreedyScheduler
    from repro.schedulers.cilk import CilkScheduler
    from repro.schedulers.comm_hill_climbing import CommScheduleHillClimbing
    from repro.schedulers.hdagg import HDaggScheduler
    from repro.schedulers.hill_climbing import HillClimbingImprover
    from repro.schedulers.ilp.backend import MilpProblem
    from repro.schedulers.ilp.commsched import IlpCommScheduleImprover
    from repro.schedulers.ilp.full import IlpFullImprover
    from repro.schedulers.ilp.init import IlpInitScheduler
    from repro.schedulers.ilp.partial import IlpPartialImprover
    from repro.schedulers.ilp.window import WindowIlp
    from repro.schedulers.multilevel.scheduler import MultilevelScheduler
    from repro.schedulers.pipeline import SchedulingPipeline
    from repro.schedulers.source_heuristic import SourceScheduler
    from repro.store.results import ResultStore
    from repro.store.trials import TrialLog

    counters = tracer.counters

    def milp_after(args, kwargs, result):
        counters["ilp.milp_variables"] += args[0].num_variables
        if kwargs.get("time_limit", args[1] if len(args) > 1 else None) is not None:
            counters["guard.milp_time_limits"] += 1

    def base_solve_name() -> str:
        # the multilevel scheduler's coarse solve goes through the base
        # pipeline's plain ``schedule``; the service itself always calls
        # ``schedule_with_stages``
        return "ml.base_solve" if tracer.is_open("ml.schedule") else "pipeline.schedule"

    hc_hook = _improver_hook(tracer, "hc")
    hccs_hook = _improver_hook(tracer, "hccs")
    ilp_hook = _improver_hook(tracer, "ilp")

    def method(cls, attr, name, after=None):
        return (cls, attr, tracer.wrap(name, getattr(cls, attr), after))

    def function(module, attr, name):
        return (module, attr, tracer.wrap(name, getattr(module, attr)))

    return [
        # repro.schedulers.ilp
        method(MilpProblem, "solve", "ilp.milp", milp_after),
        method(WindowIlp, "solve", "ilp.window"),
        method(IlpFullImprover, "improve", "ilp.full", ilp_hook),
        method(IlpPartialImprover, "improve", "ilp.partial", ilp_hook),
        method(IlpCommScheduleImprover, "improve", "ilp.comm", ilp_hook),
        # initialisers
        method(BspGreedyScheduler, "schedule", "init.bsp_greedy"),
        method(SourceScheduler, "schedule", "init.source"),
        method(IlpInitScheduler, "schedule", "init.ilp_init"),
        # baselines scheduled directly by the service
        method(HDaggScheduler, "schedule", "baseline.hdagg"),
        method(CilkScheduler, "schedule", "baseline.cilk"),
        # local search
        method(HillClimbingImprover, "improve", "hc.improve", hc_hook),
        method(CommScheduleHillClimbing, "improve", "hccs.improve", hccs_hook),
        # pipeline orchestration and multilevel
        method(SchedulingPipeline, "schedule_with_stages", "pipeline.run"),
        method(SchedulingPipeline, "schedule", base_solve_name),
        method(MultilevelScheduler, "schedule", "ml.schedule"),
        function(ml_scheduler, "coarsen_dag", "ml.coarsen"),
        method(HillClimbingImprover, "refine_assignment", "ml.refine"),
        # repro.core.kernels (called as ``kernels.<name>`` at every site)
        function(kernels, "hc_pass", "kernels.hc_pass"),
        function(kernels, "hccs_pass", "kernels.hccs_pass"),
        function(kernels, "hccs_pass_fronts", "kernels.hccs_pass"),
        function(kernels, "pk_order", "kernels.pk_order"),
        # repro.core
        method(BspSchedule, "validate", "core.validate"),
        function(schedule_module, "evaluate_cost", "core.cost_eval"),
        # repro.api
        method(ScheduleRequest, "fingerprint", "api.fingerprint"),
        method(ScheduleResult, "to_dict", "api.serialize"),
        # repro.store
        method(ResultStore, "get", "store.get"),
        method(ResultStore, "put", "store.put"),
        method(TrialLog, "append_trial", "store.trial_append"),
        # repro.io (imported inside ``ScheduleRequest.resolve_dag`` at call time)
        function(hdagb, "load_dag", "io.load_dag"),
    ]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch every traced entry point; returns what :func:`uninstall` needs."""
    originals = []
    for owner, attr, wrapper in _patch_targets(tracer):
        # read from ``__dict__`` so an inherited method is restored by
        # deleting the override rather than by pinning the parent's copy
        originals.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)
    return originals


def uninstall(originals: list[tuple[object, str, object]]) -> None:
    """Undo :func:`install` (in reverse order, so double patches unwind)."""
    for owner, attr, original in reversed(originals):
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)
