"""One benchmark run: set up, drive the service, check every result, report.

The client is a single closed loop: it sends the next wire-form request to
``SchedulingService.solve`` only after the previous one returned.  The
service has the default 256-entry LRU and a :class:`repro.store.ResultStore`
that starts empty.  A run sends its stream ``PASSES`` times, each time
to a fresh service on a fresh, empty store, so every pass sees the same
misses and hits; every pass must give the same answers, and each request's
latency is its fastest pass.  Every end-to-end timing is put on the
reference host speed by the probe of :mod:`perfbench.speed`, which runs
between requests.  Everything outside the stream — set-up, the cache replay
checks, the output check — is timed separately or not at all.

With ``trace=False`` the run reports the end-to-end metrics.  With
``trace=True`` it drives the stream once plain and once on a fresh set-up
with spans recorded around each layer's entry points
(:mod:`perfbench.tracing`), and reports the per-layer metrics plus the
tracing overhead (traced minus plain ``wall_s``, both raw).  The traced pass
must reproduce the plain costs and cache counters.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from .speed import SpeedProbe
from .tracing import Tracer, install, uninstall
from .workloads import PASSES, WORKLOADS, Inputs, wall_clock_limits

__all__ = ["BenchmarkError", "run"]

HERE = Path(__file__).resolve().parent
#: set-up runs at least this many times and for at least this long;
#: ``setup_s`` is the median
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
ENV_KNOBS = ("REPRO_KERNEL_BACKEND", "REPRO_INIT_WORKERS", "REPRO_WORKERS")

#: per-layer metrics that must record calls on the workload loading them
#: (span names; the trailing ``dagdb.generate`` applies to every workload)
HEAVY_SPANS = {
    "paper_ilp": (
        "ilp.milp", "ilp.window", "ilp.full", "ilp.partial", "ilp.comm",
        "init.ilp_init",
    ),
    "large_multilevel": (
        "init.bsp_greedy", "init.source", "hc.improve", "hccs.improve",
        "ml.coarsen", "ml.refine", "ml.base_solve", "kernels.hc_pass",
        "kernels.hccs_pass", "kernels.pk_order",
    ),
    "service_replay": (
        "init.bsp_greedy", "init.source", "core.validate", "core.cost_eval",
        "api.fingerprint", "api.serialize", "store.get", "store.put",
        "store.trial_append", "io.load_dag",
    ),
}
HEAVY_COUNTERS = {"service_replay": ("api.memory_hits", "api.store_hits", "api.misses")}


class BenchmarkError(RuntimeError):
    """A run that cannot produce comparable figures."""


# ---------------------------------------------------------------------- #
# environment
# ---------------------------------------------------------------------- #
def environment() -> dict:
    """The facts a figure depends on besides the code."""
    import numpy
    import scipy
    from repro.core import kernels

    info = kernels.backend_info()
    record = {
        "kernel_backend": info["active"],
        "numba_available": info["numba_available"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }
    record.update({knob: os.environ.get(knob) for knob in ENV_KNOBS})
    return record


def comparability(record: dict) -> list[str]:
    """Keys whose value differs from the registered environment."""
    registered = json.loads((HERE / "environment.json").read_text())
    return sorted(key for key in registered if registered[key] != record.get(key))


class _BudgetGuard:
    """Counts every wall-clock budget created while installed."""

    def __init__(self) -> None:
        from repro.schedulers.base import TimeBudget

        self.count = 0
        self._cls = TimeBudget
        self._original = TimeBudget.__post_init__
        original = self._original

        def guarded(budget) -> None:
            if budget.seconds is not None:
                self.count += 1
            original(budget)

        TimeBudget.__post_init__ = guarded

    def close(self) -> None:
        self._cls.__post_init__ = self._original


# ---------------------------------------------------------------------- #
# the client loop
# ---------------------------------------------------------------------- #
@dataclass
class StreamOutcome:
    wall_s: float
    latencies: list[float]
    hits: list[bool]
    results: list = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)
    cache_info: dict = field(default_factory=dict)
    #: every replay's latency, in the order sent (the same order every pass)
    replay_latencies: list[float] = field(default_factory=list)
    #: when each request and each replay was sent (``time.perf_counter``)
    starts: list[float] = field(default_factory=list)
    replay_starts: list[float] = field(default_factory=list)
    replay_failures: dict[str, str] = field(default_factory=dict)

    def cost_digest(self) -> str:
        costs = [None if r is None else float(r.cost) for r in self.results]
        return hashlib.sha256(repr(costs).encode()).hexdigest()[:16]


def _new_service(workdir: Path):
    from repro.api import SchedulingService
    from repro.store import ResultStore

    return SchedulingService(store=ResultStore(workdir / "store"))


def drive(
    service,
    requests: list[dict],
    replays: int,
    tracer: Tracer | None = None,
    probe: SpeedProbe | None = None,
) -> StreamOutcome:
    """Send every request in order, one at a time; time each ``solve``.

    ``wall_s`` is the sum of the stream's request latencies.  With
    ``replays > 0`` the client re-sends that many already answered requests
    (cycling through them) after each stream request: every such replay
    must come back as a cache hit with the stream answer's cost.  With a
    ``probe``, the host speed probe runs between requests when due.
    """
    outcome = StreamOutcome(0.0, [], [], [])
    solve = service.solve
    cursor = 0
    for index, payload in enumerate(requests):
        if tracer is not None:
            tracer.request_id = index
        if probe is not None:
            probe.maybe_sample()
        outcome.starts.append(time.perf_counter())
        latency, result, error = _send(solve, payload, tracer)
        if error is not None:
            outcome.errors[index] = error
        outcome.latencies.append(latency)
        outcome.hits.append(result is not None and result.cache_hit)
        outcome.results.append(result)
        for number in range(replays):
            cursor = (cursor + 1) % (index + 1)
            outcome.replay_starts.append(time.perf_counter())
            latency, replayed, error = _send(solve, requests[cursor], tracer)
            outcome.replay_latencies.append(latency)
            key = f"replay {number} after request {index} (of request {cursor})"
            first = outcome.results[cursor]
            if error is not None:
                outcome.replay_failures[key] = error
            elif not replayed.cache_hit:
                outcome.replay_failures[key] = "replay was not a cache hit"
            elif first is not None and replayed.cost != first.cost:
                outcome.replay_failures[key] = "replay cost differs"
    outcome.wall_s = sum(outcome.latencies)
    if tracer is not None:
        tracer.request_id = -1
    outcome.cache_info = service.cache_info()
    return outcome


def _send(solve, payload: dict, tracer: Tracer | None):
    """One timed request: ``(latency, result or None, error or None)``."""
    started = time.perf_counter()
    try:
        if tracer is None:
            result = solve(payload)
        else:
            with tracer.span("api.solve"):
                result = solve(payload)
    except Exception as exc:  # noqa: BLE001 - a failed request is data
        return time.perf_counter() - started, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - started, result, None


def check_results(requests: list[dict], outcome: StreamOutcome) -> dict[int, str]:
    """Re-materialise and re-cost every distinct result; map index -> failure.

    Each distinct answer goes through its wire form and back:
    ``ScheduleResult.from_dict(result.to_dict()).to_schedule()`` rebuilds
    the schedule and re-validates it, and its freshly evaluated cost must
    equal ``result.cost``.  Every request's answer must carry the request's
    own fingerprint.
    """
    from repro.api import ScheduleRequest, ScheduleResult

    failures = dict(outcome.errors)
    expected: dict[int, str] = {}
    verdicts: dict[str, str | None] = {}
    for index, (payload, result) in enumerate(zip(requests, outcome.results)):
        if result is None:
            continue
        key = id(payload)
        if key not in expected:
            expected[key] = ScheduleRequest.from_dict(payload).fingerprint()
        if result.fingerprint != expected[key]:
            failures[index] = "result fingerprint differs from the request's"
            continue
        if result.fingerprint not in verdicts:
            verdict = None
            try:
                schedule = ScheduleResult.from_dict(result.to_dict()).to_schedule()
                recomputed = float(schedule.cost())
                if not math.isclose(recomputed, result.cost, rel_tol=1e-9, abs_tol=1e-9):
                    verdict = f"reported cost {result.cost} != recomputed {recomputed}"
            except Exception as exc:  # noqa: BLE001
                verdict = f"{type(exc).__name__}: {exc}"
            verdicts[result.fingerprint] = verdict
        if verdicts[result.fingerprint] is not None:
            failures[index] = verdicts[result.fingerprint]
    return failures


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def _metric(value: float, unit: str, samples: int | None = None) -> dict:
    entry = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = samples
    return entry


def fastest(
    outcomes: list[StreamOutcome], probe: SpeedProbe
) -> tuple[list[float], list[float]]:
    """Each request's and each replay's fastest pass, at the reference speed."""

    def best(latencies: list[list[float]], starts: list[list[float]]) -> list[float]:
        return [
            min(probe.adjust(t, s) for t, s in zip(times, moments))
            for times, moments in zip(zip(*latencies), zip(*starts))
        ]

    return (
        best([o.latencies for o in outcomes], [o.starts for o in outcomes]),
        best([o.replay_latencies for o in outcomes], [o.replay_starts for o in outcomes]),
    )


def end_to_end_metrics(
    setup_s: float,
    setup_repeats: int,
    stream: list[float],
    replays: list[float],
    first: StreamOutcome,
    points: list[str],
    attempted: int,
    failed: int,
) -> dict:
    """The end-to-end metrics from the stream's and replays' best latencies."""
    miss = [t for t, hit in zip(stream, first.hits) if not hit]
    hit_latencies = replays or [t for t, hit in zip(stream, first.hits) if hit]
    # one answer per point, the first the stream got
    answers: dict[str, float] = {}
    for point, result in zip(points, first.results):
        if result is not None:
            answers.setdefault(point, result.cost)
    costs = list(answers.values())
    geomean = math.exp(sum(math.log(c) for c in costs) / len(costs)) if costs else float("nan")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _metric(setup_s, "s", setup_repeats),
        "wall_s": _metric(sum(stream), "s", len(stream)),
        "latency_s_p50": _metric(_percentile(stream, 50), "s", len(stream)),
        "latency_s_p99": _metric(_percentile(stream, 99), "s", len(stream)),
        "hit_latency_s_p50": _metric(_percentile(hit_latencies, 50), "s", len(hit_latencies)),
        "miss_latency_s_p50": _metric(_percentile(miss, 50), "s", len(miss)),
        "cost_geomean": _metric(geomean, "cost", len(costs)),
        "ok_ratio": _metric((attempted - failed) / attempted, "ratio", attempted),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, outcome: StreamOutcome, store_root: Path) -> dict:
    stats = tracer.summary()
    counters = tracer.counters

    def total(*names: str) -> float:
        return sum(stats.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(*names: str) -> int:
        return sum(int(stats.get(n, {}).get("calls", 0)) for n in names)

    def self_time(*names: str) -> float:
        return sum(stats.get(n, {}).get("self_s", 0.0) for n in names)

    info = outcome.cache_info
    memory_hits = info.get("memory_hits", 0)
    store_hits = info.get("store_hits", 0)
    misses = info.get("misses", 0)
    bytes_written = sum(
        path.stat().st_size for path in store_root.rglob("*") if path.is_file()
    )
    seconds = {
        "ilp.milp_solve_s": total("ilp.milp"),
        "ilp.model_build_s": self_time("ilp.window", "ilp.comm"),
        "ilp.full_s": total("ilp.full"),
        "ilp.partial_s": total("ilp.partial"),
        "ilp.comm_s": total("ilp.comm"),
        "init.bsp_greedy_s": total("init.bsp_greedy"),
        "init.source_s": total("init.source"),
        "init.ilp_init_s": total("init.ilp_init"),
        "hc.improve_s": total("hc.improve"),
        "hccs.improve_s": total("hccs.improve"),
        "ml.coarsen_s": total("ml.coarsen"),
        "ml.refine_s": total("ml.refine"),
        "ml.base_solve_s": total("ml.base_solve"),
        "kernels.hc_pass_s": total("kernels.hc_pass"),
        "kernels.hccs_pass_s": total("kernels.hccs_pass"),
        "kernels.pk_order_s": total("kernels.pk_order"),
        "core.validate_s": total("core.validate"),
        "core.cost_eval_s": total("core.cost_eval"),
        "api.fingerprint_s": total("api.fingerprint"),
        "api.serialize_s": total("api.serialize"),
        "store.get_s": total("store.get"),
        "store.put_s": total("store.put"),
        "store.trial_append_s": total("store.trial_append"),
        "io.load_dag_s": total("io.load_dag"),
        "dagdb.generate_s": total("dagdb.generate"),
    }
    counts = {
        "ilp.milp_calls": calls("ilp.milp"),
        "ilp.milp_variables": counters["ilp.milp_variables"],
        "init.calls": calls("init.bsp_greedy", "init.source", "init.ilp_init"),
        "hc.calls": calls("hc.improve"),
        "hccs.calls": calls("hccs.improve"),
        "ml.coarsen_calls": calls("ml.coarsen"),
        "ml.refine_calls": calls("ml.refine"),
        "kernels.hc_pass_calls": calls("kernels.hc_pass"),
        "kernels.pk_order_calls": calls("kernels.pk_order"),
        "core.validate_calls": calls("core.validate"),
        "api.fingerprint_calls": calls("api.fingerprint"),
        "api.memory_hits": memory_hits,
        "api.store_hits": store_hits,
        "api.misses": misses,
        "store.get_calls": calls("store.get"),
        "store.put_calls": calls("store.put"),
        "io.load_dag_calls": calls("io.load_dag"),
    }
    ratios = {
        "ilp.improved_ratio": _ratio(counters["ilp.improved"], counters["ilp.stage_calls"]),
        "hc.improved_ratio": _ratio(counters["hc.improved"], counters["hc.stage_calls"]),
        "hccs.improved_ratio": _ratio(counters["hccs.improved"], counters["hccs.stage_calls"]),
        "api.hit_ratio": _ratio(memory_hits + store_hits, memory_hits + store_hits + misses),
    }
    metrics = {name: _metric(value, "s") for name, value in seconds.items()}
    metrics.update({name: _metric(value, "count") for name, value in counts.items()})
    metrics.update({name: _metric(value, "ratio") for name, value in ratios.items()})
    metrics["store.bytes_written"] = _metric(bytes_written, "bytes")
    # self time per layer: every span's duration minus its children, summed
    # over the layer's span names (the name's prefix); ``api`` includes the
    # client-side ``api.solve`` root, so the layers add up to the traced wall
    layers: dict[str, float] = {}
    for name, entry in stats.items():
        layer = name.split(".", 1)[0]
        if layer != "dagdb":
            layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
    for layer in ("api", "store", "io", "core", "kernels", "init", "hc", "hccs",
                  "ilp", "ml", "pipeline", "baseline"):
        metrics[f"self.{layer}_s"] = _metric(layers.get(layer, 0.0), "s")
    return metrics


def coverage_failures(workload: str, tracer: Tracer, outcome: StreamOutcome) -> list[str]:
    """Layers expected to be busy on this workload that recorded no call."""
    stats = tracer.summary()
    missing = [
        name
        for name in HEAVY_SPANS[workload] + ("dagdb.generate",)
        if stats.get(name, {}).get("calls", 0) == 0
    ]
    info = outcome.cache_info
    for counter in HEAVY_COUNTERS.get(workload, ()):
        if info.get(counter.split(".", 1)[1], 0) == 0:
            missing.append(counter)
    return missing


# ---------------------------------------------------------------------- #
# the run
# ---------------------------------------------------------------------- #
def _setup(name: str, seed: int, seconds: float, workdir: Path, generate=nullcontext):
    started = time.perf_counter()
    try:
        inputs: Inputs = WORKLOADS[name](seed, seconds, workdir, generate)
    except ValueError as exc:  # inputs the workload cannot build
        raise BenchmarkError(str(exc)) from exc
    service = _new_service(workdir)
    return inputs, service, time.perf_counter() - started


def run(name: str, seed: int, seconds: float, trace: bool, workroot: Path, log=print) -> dict:
    """Run one workload; returns the result object the command prints last."""
    if name not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    env = environment()
    differs = comparability(env)
    log(f"environment {json.dumps(env, sort_keys=True)}")
    log(
        "comparable yes"
        if not differs
        else f"comparable NO (differs from perfbench/environment.json: {', '.join(differs)})"
    )
    guard = _BudgetGuard()
    try:
        return _run(name, seed, seconds, trace, workroot, guard, log)
    finally:
        guard.close()


def _run(name, seed, seconds, trace, workroot: Path, guard: _BudgetGuard, log) -> dict:
    probe = SpeedProbe()
    setups, digests = [], set()
    while len(setups) < SETUP_REPEATS or sum(t for t, _ in setups) < SETUP_MIN_SECONDS:
        workdir = workroot / f"setup{len(setups)}"
        probe.sample()
        started = time.perf_counter()
        inputs, service, elapsed = _setup(name, seed, seconds, workdir)
        setups.append((elapsed, started))
        digests.add(inputs.digest)
    probe.sample()
    setup_times = [probe.adjust(elapsed, started) for elapsed, started in setups]
    if len(digests) != 1:
        raise BenchmarkError("set-up is not deterministic: input digests differ")
    limited = sorted({p for payload in inputs.requests for p in wall_clock_limits(payload)})
    if limited:
        raise BenchmarkError(f"wall-clock limits in requests: {', '.join(limited)}")
    passes = 1 if trace else PASSES
    log(
        f"workload {name} seed={seed} seconds={seconds:g} requests={len(inputs.requests)} "
        f"passes={passes} inputs={inputs.digest[:16]} "
        f"{json.dumps(inputs.notes, sort_keys=True)}"
    )

    # the first pass runs on the last set-up's service, every later pass on
    # a fresh one: each starts with an empty LRU and an empty store
    outcomes, failures, replay_failures = [], {}, {}
    for number in range(passes):
        if number:
            service = _new_service(workroot / f"pass{number}")
        outcome = drive(service, inputs.requests, inputs.replays, probe=probe)
        outcomes.append(outcome)
        for index, message in check_results(inputs.requests, outcome).items():
            failures[number, index] = message
        for key, message in outcome.replay_failures.items():
            replay_failures[number, key] = message
        log(
            f"pass {number} wall_s={outcome.wall_s:.4f} hits={sum(outcome.hits)} "
            f"misses={len(outcome.hits) - sum(outcome.hits)} "
            f"cache={json.dumps(outcome.cache_info, sort_keys=True)} "
            f"cost_digest={outcome.cost_digest()}"
        )
    first = outcomes[0]
    problems = []
    for number, outcome in enumerate(outcomes[1:], start=1):
        for index, (a, b) in enumerate(zip(first.results, outcome.results)):
            if a is not None and b is not None and a.cost != b.cost:
                failures.setdefault((number, index), "cost differs from pass 0")
        if outcome.hits != first.hits or outcome.cache_info != first.cache_info:
            problems.append(f"pass {number}: cache hits differ from pass 0")
    attempted = passes * len(inputs.requests) * (1 + inputs.replays)
    failed = len(failures) + len(replay_failures)
    problems.extend(
        f"pass {number} request {index} ({inputs.labels[index]}): {message}"
        for (number, index), message in sorted(failures.items())[:5]
    )
    problems.extend(
        f"pass {number} {key}: {message}"
        for (number, key), message in sorted(replay_failures.items())[:5]
    )
    stream, replays = fastest(outcomes, probe)
    if len(inputs.requests) <= 100:
        for index, (label, result) in enumerate(zip(inputs.labels, first.results)):
            cost = "failed" if result is None else f"{result.cost:g}"
            raw = " ".join(f"{o.latencies[index]:.4f}" for o in outcomes)
            log(f"request {label} latency_s={stream[index]:.4f} raw={raw} cost={cost}")

    if not trace:
        log(
            f"host speed factor {probe.overall():.3f} (median of {len(probe.durations)} "
            f"probes; the latencies are adjusted to factor 1)"
        )
        metrics = end_to_end_metrics(
            statistics.median(setup_times), len(setup_times), stream, replays,
            outcomes[0], inputs.points or inputs.labels, attempted, failed,
        )
    else:
        metrics, trace_problems = _traced_pass(name, seed, seconds, workroot, first)
        problems.extend(trace_problems)
    if guard.count:
        problems.append(f"{guard.count} wall-clock budget(s) reached a request")
    for problem in problems:
        log(f"FAILED {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _traced_pass(name, seed, seconds, workroot: Path, plain: StreamOutcome):
    tracer = Tracer()
    workdir = workroot / "traced"
    inputs, service, _ = _setup(
        name, seed, seconds, workdir, generate=lambda: tracer.span("dagdb.generate")
    )
    originals = install(tracer)
    try:
        traced = drive(service, inputs.requests, inputs.replays, tracer)
    finally:
        uninstall(originals)
    problems = [f"traced request {i}: {m}" for i, m in sorted(traced.errors.items())[:5]]
    if traced.cost_digest() != plain.cost_digest():
        problems.append("traced and plain passes produced different costs")
    if traced.cache_info != plain.cache_info:
        problems.append(
            f"cache counters differ: plain {plain.cache_info} traced {traced.cache_info}"
        )
    if tracer.counters["guard.milp_time_limits"]:
        problems.append("a MILP solve received a wall-clock time limit")
    missing = coverage_failures(name, tracer, traced)
    if missing:
        problems.append(f"layers with no recorded calls on {name}: {', '.join(missing)}")
    metrics = per_layer_metrics(tracer, traced, workdir / "store")
    metrics["trace.wall_s"] = _metric(traced.wall_s, "s", len(traced.latencies))
    metrics["trace.overhead_s"] = _metric(traced.wall_s - plain.wall_s, "s")
    metrics["trace.spans"] = _metric(tracer.num_spans, "count")
    return metrics, problems
