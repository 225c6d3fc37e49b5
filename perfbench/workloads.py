"""The benchmark's workloads: generated inputs and request streams.

Every workload turns ``(seed, seconds)`` into a fixed list of wire-form
requests (``ScheduleRequest.to_dict()`` payloads referencing ``.hdagb``
files written during set-up).  The same seed and seconds give the same
inputs and the same stream; ``seconds`` only sets how much work the stream
holds (calibrated on a 2-vCPU x86-64 container).  See ``README.md`` for why
each workload exists and which layers it loads.

Every request carries a deterministic budget (``seconds=None`` plus
``max_steps`` / ``ilp_node_limit``) and every pipeline config has all of
its ``*_seconds`` knobs cleared, so schedule costs repeat exactly and only
time varies.  :func:`wall_clock_limits` finds any that slipped through.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["WORKLOADS", "Inputs", "wall_clock_limits"]

#: the seed a run uses when none is given, and the one kept back for
#: checking a later claim on inputs it was not tuned on
DEFAULT_SEED = 1
HOLDOUT_SEED = 9001
#: how many times a run sends its stream, each time to a fresh service with
#: an empty store; a request's latency is its fastest pass
PASSES = 2


@dataclass
class Inputs:
    """What a set-up produces for one run."""

    requests: list[dict]
    labels: list[str]
    #: answered requests the client re-sends after each stream request as
    #: a cache check (0 = the stream has its own repeats)
    replays: int = 0
    #: the instance/machine/scheduler point of each request (requests that
    #: differ only in their request seed share one); ``cost_geomean`` takes
    #: one answer per point.  Empty: every request is its own point.
    points: list[str] = field(default_factory=list)
    #: content digest of the generated DAGs and requests
    digest: str = ""
    notes: dict = field(default_factory=dict)


def _deterministic_config(**overrides):
    from repro.schedulers.pipeline import PipelineConfig

    return PipelineConfig(
        local_search_seconds=None,
        ilp_full_seconds=None,
        ilp_partial_seconds=None,
        ilp_comm_seconds=None,
        ilp_init_seconds=None,
        **overrides,
    )


def wall_clock_limits(payload: dict) -> list[str]:
    """Paths of every wall-clock limit set in a wire-form request."""
    found: list[str] = []

    def walk(node, path: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                where = f"{path}.{key}" if path else key
                if (key == "seconds" or key.endswith("_seconds")) and value is not None:
                    found.append(where)
                walk(value, where)

    walk(payload, "")
    return found


class _InputWriter:
    """Writes each distinct DAG once as ``.hdagb`` and digests the inputs."""

    def __init__(self, workdir: Path) -> None:
        self.dag_dir = workdir / "dags"
        self.dag_dir.mkdir(parents=True, exist_ok=True)
        self._paths: dict[str, str] = {}
        self._requests: set[str] = set()
        self._hasher = hashlib.sha256()

    def dag_path(self, dag) -> str:
        from repro.api import dag_fingerprint
        from repro.io.hdagb import write_hdagb

        key = dag_fingerprint(dag)
        path = self._paths.get(key)
        if path is None:
            path = str(self.dag_dir / f"{len(self._paths):04d}.hdagb")
            write_hdagb(dag, path)
            self._paths[key] = path
            self._hasher.update(key.encode())
        return path

    def request(self, dag, machine, scheduler, budget, seed: int = 0) -> dict:
        from repro.api import ScheduleRequest

        payload = ScheduleRequest(
            dag=self.dag_path(dag),
            machine=machine,
            scheduler=scheduler,
            budget=budget,
            seed=seed,
        ).to_dict()
        # the streams built here promise no repeats (their hit path is
        # measured by the replay check); one file per distinct DAG content,
        # so the file name stands for the DAG
        key = repr((Path(payload["dag_ref"]).name, payload["machine"],
                    payload["scheduler"], payload["seed"]))
        if key in self._requests:
            raise ValueError(f"repeated request in a no-repeat stream: {key[:200]}")
        self._requests.add(key)
        self._hasher.update(key.encode())
        return payload

    def digest(self) -> str:
        return self._hasher.hexdigest()


# ---------------------------------------------------------------------- #
# paper_ilp
# ---------------------------------------------------------------------- #
#: the paper_ilp request list, in stream order: instances of the bench-scale
#: tiny and small datasets — fine (spmv/exp/cg/knn), coarse and structured
#: families — each on one machine ("u4": uniform P=4, which enables
#: ILPinit; "n8": NUMA P=8).  A run takes the first
#: ``seconds × PAPER_ILP_REQUESTS_PER_SECOND / PASSES`` entries.  The
#: smallest fine instances (which can fall under the ILPfull threshold at
#: P=4 for some seeds) only go to the NUMA machine, so ILPfull
#: runs on the fixed-structure FFT butterflies alone; most requests go to
#: P=4 so the latency median sits inside one population.
PAPER_ILP_REQUESTS = (
    ("tiny", "spmv_mid", "u4"),
    ("tiny", "fft_structured", "u4"),
    ("tiny", "knn_deep_lo", "n8"),
    ("small", "bicgstab_coarse", "u4"),
    ("tiny", "cg_coarse", "u4"),
    ("tiny", "stencil2d_structured", "n8"),
    ("tiny", "knn_deep_mid", "u4"),
    ("small", "exp_wide_lo", "u4"),
    ("tiny", "cholesky_structured", "u4"),
    ("tiny", "spmv_lo", "n8"),
    ("tiny", "exp_deep_hi", "u4"),
    ("tiny", "pagerank_coarse", "u4"),
    ("small", "cg_wide_lo", "n8"),
    ("tiny", "stencil2d_rect_structured", "u4"),
    ("small", "knn_wide_lo", "u4"),
    ("tiny", "exp_deep_lo", "n8"),
    ("tiny", "sparse_nn_coarse", "u4"),
    ("tiny", "spmv_hi", "u4"),
    ("small", "fft_structured", "n8"),
    ("tiny", "cholesky_rcm_structured", "u4"),
    ("small", "labelprop_coarse", "u4"),
    ("tiny", "knn_coarse", "n8"),
    ("tiny", "cg_deep_lo", "u4"),
    ("tiny", "fft4_structured", "u4"),
    ("small", "spmv_lo", "n8"),
    ("tiny", "knn_deep_hi", "u4"),
    ("small", "cholesky_structured", "u4"),
    ("tiny", "exp_deep_mid", "n8"),
    ("tiny", "stencil2d_structured", "u4"),
    ("small", "knn_deep_lo", "u4"),
    ("small", "stencil2d_structured", "n8"),
    ("tiny", "knn_coarse", "u4"),
    ("small", "exp_deep_lo", "u4"),
    ("tiny", "cg_coarse", "n8"),
    ("small", "fft_structured", "u4"),
    ("small", "spmv_mid", "n8"),
    ("small", "cg_coarse", "u4"),
    ("tiny", "pagerank_coarse", "n8"),
    ("small", "knn_wide_mid", "u4"),
    ("small", "bicgstab_coarse", "n8"),
    # spares: an entry is skipped when a seed gives it the same DAG as an
    # earlier entry on the same machine (the datasets' intervals overlap)
    ("small", "exp_wide_mid", "u4"),
    ("small", "knn_deep_mid", "n8"),
    ("small", "spmv_hi", "u4"),
    ("tiny", "cholesky_rcm_structured", "n8"),
)
PAPER_ILP_REQUESTS_PER_SECOND = 1.6


def paper_ilp(seed: int, seconds: float, workdir: Path, generate=nullcontext) -> Inputs:
    """The framework with every ILP stage on tiny/small bench instances."""
    from repro.api import Budget, MachineSpec, SchedulerSpec, dag_fingerprint
    from repro.dagdb import build_dataset

    # ILPfull applies up to n * S * P^2 = 1030 estimated variables, which at
    # P=4 admits the tiny FFT butterfly (32 nodes, 2 supersteps); ILPpart
    # windows and ILPinit batches stay small enough that one request takes
    # about a second here
    config = _deterministic_config(
        ilp_full_max_variables=1030,
        ilp_partial_max_variables=200,
        ilp_init_max_variables=120,
        ilp_node_limit=1,
    )
    spec = SchedulerSpec("framework", {"config": config})
    budget = Budget(seconds=None, max_steps=200, ilp_node_limit=1)
    machines = {
        "u4": MachineSpec(num_procs=4, g=3.0, latency=5.0),
        "n8": MachineSpec(num_procs=8, g=1.0, latency=5.0, numa_delta=3.0),
    }
    count = max(1, int(round(seconds * PAPER_ILP_REQUESTS_PER_SECOND / PASSES)))
    with generate():
        instances = {
            inst.name: inst.dag
            for dataset in ("tiny", "small")
            for inst in build_dataset(dataset, seed=seed)
        }
    writer = _InputWriter(workdir)
    requests, labels, seen = [], [], set()
    for dataset, name, key in PAPER_ILP_REQUESTS:
        dag = instances[f"{dataset}_{name}"]
        if len(requests) == count or (dag_fingerprint(dag), key) in seen:
            continue
        seen.add((dag_fingerprint(dag), key))
        requests.append(writer.request(dag, machines[key], spec, budget))
        labels.append(f"{dataset}_{name}{dag.num_nodes}@{key}")
    if len(requests) < count:
        raise ValueError(
            f"paper_ilp has {len(requests)} distinct requests for seed {seed}; "
            f"--seconds {seconds:g} asks for {count}"
        )
    return Inputs(
        requests, labels, replays=8, digest=writer.digest()
    )


# ---------------------------------------------------------------------- #
# large_multilevel
# ---------------------------------------------------------------------- #
def _banded_random_pattern(size: int, bandwidth: int, keep: float, rng):
    """A random symmetric pattern inside a band (bounded elimination fill)."""
    from repro.dagdb import SparseMatrixPattern

    rows, cols = [], []
    for offset in range(1, bandwidth + 1):
        i = np.arange(size - offset)
        mask = rng.random(i.size) < keep
        rows.append(i[mask])
        cols.append(i[mask] + offset)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    diagonal = np.arange(size)
    coordinates = np.stack(
        [
            np.concatenate([diagonal, rows, cols]),
            np.concatenate([diagonal, cols, rows]),
        ],
        axis=1,
    )
    return SparseMatrixPattern.from_coordinates(size, coordinates)


def _fixed_count_pattern(size: int, density: float, rng):
    """The diagonal plus exactly ``density`` of the off-diagonal entries.

    A fixed nonzero count keeps the CG DAG's size the same for every seed;
    independent draws per entry move it by a fifth at these matrix sizes.
    """
    from repro.dagdb import SparseMatrixPattern

    off = np.array([(i, j) for i in range(size) for j in range(size) if i != j])
    chosen = off[rng.choice(len(off), size=int(round(density * len(off))), replace=False)]
    diagonal = np.stack([np.arange(size)] * 2, axis=1)
    return SparseMatrixPattern.from_coordinates(size, np.concatenate([diagonal, chosen]))


#: the sizes of successive rounds — CG matrix size, stencil grid and
#: elimination columns, about 200, 105 and 80 nodes per DAG — so a run's
#: latencies spread over a range instead of bunching into two clusters
LARGE_ML_ROUNDS = ((7, (7, 7), 220), (4, (5, 5), 110), (3, (4, 5), 80))
#: the listed rounds, sent twice, hold about 20 s of work at the reference
#: speed (10 s of fastest passes)
LARGE_ML_SECONDS = 20.0


def large_multilevel(
    seed: int, seconds: float, workdir: Path, generate=nullcontext
) -> Inputs:
    """Heuristics-only framework and multilevel on communication-heavy DAGs."""
    from repro.api import Budget, MachineSpec, SchedulerSpec
    from repro.dagdb import build_cg_dag
    from repro.dagdb.structured import build_elimination_dag, build_stencil_dag

    machine = MachineSpec(num_procs=16, g=5.0, latency=10.0, numa_delta=3.0)
    specs = (
        SchedulerSpec("framework_heuristics", {"local_search_seconds": None}),
        SchedulerSpec(
            "multilevel",
            {"config": _deterministic_config(use_ilp=False, use_comm_ilp=False)},
        ),
    )
    budget = Budget(seconds=None, max_steps=200, ilp_node_limit=1)
    writer = _InputWriter(workdir)
    requests, labels = [], []
    rounds = max(1, int(round(len(LARGE_ML_ROUNDS) * seconds / LARGE_ML_SECONDS)))
    for round_index in range(rounds):
        rng = np.random.default_rng([seed, round_index])
        # past the listed rounds, the sizes repeat with a longer stencil
        # sweep, so no two rounds repeat a DAG (a repeat would be a cache hit)
        cycle, position = divmod(round_index, len(LARGE_ML_ROUNDS))
        matrix_size, shape, columns = LARGE_ML_ROUNDS[position]
        with generate():
            cg = build_cg_dag(
                _fixed_count_pattern(matrix_size, 0.2, rng), 3, track_roles=False
            ).dag
            stencil = build_stencil_dag(shape, 3 + cycle, track_roles=False).dag
            elimination = build_elimination_dag(
                _banded_random_pattern(columns, 6, 0.5, rng), track_roles=False
            ).dag
        for name, dag in (("cg", cg), ("stencil2d", stencil), ("cholesky", elimination)):
            for spec in specs:
                requests.append(writer.request(dag, machine, spec, budget))
                labels.append(f"{name}{dag.num_nodes}/{spec.name}")
    return Inputs(
        requests, labels, replays=16, digest=writer.digest()
    )


# ---------------------------------------------------------------------- #
# service_replay
# ---------------------------------------------------------------------- #
#: requests per ``--seconds`` in each pass, calibrated on a 2-vCPU x86-64
#: container
SERVICE_REQUESTS_PER_SECOND = 300
#: about this share of the stream is fresh: a whole number of variants of
#: every point, at least one (about 7% at 20 s)
SERVICE_FRESH = 0.10
#: the share of repeats that go to the hot set (the rest: any seen key)
SERVICE_HOT = 0.70
#: the hot set: keys introduced most recently (stay in the 256-entry LRU)
SERVICE_HOT_KEYS = 64


def service_replay(
    seed: int, seconds: float, workdir: Path, generate=nullcontext
) -> Inputs:
    """A closed-loop client replaying a seeded stream over many cheap keys."""
    from repro.api import Budget, MachineSpec, ScheduleRequest, SchedulerSpec
    from repro.dagdb import build_dataset

    with generate():
        dags = [
            inst.dag
            for dataset in ("medium", "large")
            for inst in build_dataset(dataset, seed=seed)
        ]
    writer = _InputWriter(workdir)
    paths = []
    for dag in dags:
        path = writer.dag_path(dag)
        if path not in paths:
            paths.append(path)
    machines = (
        MachineSpec(num_procs=8, g=1.0, latency=5.0),
        MachineSpec(num_procs=16, g=3.0, latency=10.0, numa_delta=3.0),
    )
    specs = tuple(SchedulerSpec(name) for name in ("bsp_greedy", "source", "hdagg", "cilk"))
    budget = Budget(seconds=None, max_steps=200, ilp_node_limit=1)

    rng = np.random.default_rng([seed, 7])
    length = max(100, int(round(seconds * SERVICE_REQUESTS_PER_SECOND)))
    base = len(paths) * len(machines) * len(specs)
    # fresh keys come variant by variant, each variant a seeded permutation
    # of every dag/machine/scheduler point, and a run introduces whole
    # variants: every run answers each point equally often, so its misses
    # (and ``cost_geomean``) do not depend on which keys the seed draws —
    # only their order and the repeats do
    variants = max(1, int(round(length * SERVICE_FRESH / base)))
    fresh = min(length, base * variants)
    universe = np.concatenate([
        variant * base + rng.permutation(base)
        for variant in range(int(math.ceil(fresh / base)))
    ])
    # the first request is fresh; the other fresh ones land at seeded places
    fresh_at = np.zeros(length, dtype=bool)
    fresh_at[0] = True
    fresh_at[1 + rng.choice(length - 1, size=fresh - 1, replace=False)] = True

    payloads: dict[int, tuple[dict, str, str]] = {}

    def payload(key: int) -> tuple[dict, str, str]:
        # repeats share one wire dict: the service coerces it afresh on
        # every call, as it would a payload arriving over the wire
        if key not in payloads:
            variant, rest = divmod(key, base)
            dag_index, rest = divmod(rest, len(machines) * len(specs))
            machine_index, spec_index = divmod(rest, len(specs))
            machine = machines[machine_index]
            spec = specs[spec_index]
            request = ScheduleRequest(
                dag=paths[dag_index],
                machine=machine,
                scheduler=spec,
                budget=budget,
                seed=variant,
            ).to_dict()
            point = f"dag{dag_index}/{spec.name}@{machine.label()}"
            payloads[key] = (request, f"{point}/s{variant}", point)
        return payloads[key]

    introduced: list[int] = []
    requests, labels, points = [], [], []
    for position in range(length):
        if fresh_at[position]:
            key = int(universe[len(introduced)])
            introduced.append(key)
        elif rng.random() < SERVICE_HOT:
            hot = introduced[-SERVICE_HOT_KEYS:]
            key = hot[int(rng.integers(len(hot)))]
        else:
            key = introduced[int(rng.integers(len(introduced)))]
        request, label, point = payload(key)
        requests.append(request)
        labels.append(label)
        points.append(point)
    digest = hashlib.sha256((writer.digest() + repr(labels)).encode()).hexdigest()
    return Inputs(
        requests,
        labels,
        points=points,
        digest=digest,
        notes={"dags": len(paths), "keys": len(introduced), "points": len(set(points))},
    )


WORKLOADS = {
    "paper_ilp": paper_ilp,
    "large_multilevel": large_multilevel,
    "service_replay": service_replay,
}
