"""End-to-end scheduling benchmark: one command, three workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload paper_ilp --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``harness.py``).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every request passed every check.  Workloads, metrics and the
layer map are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src / 'repro'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    _import_program()
    from perfbench.harness import BenchmarkError, run
    from perfbench.workloads import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    WORK_DIR.mkdir(exist_ok=True)
    workroot = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        result = run(args.workload, seed, args.seconds, bool(args.trace), workroot)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass

    metrics = result["metrics"]
    registered = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in registered["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        print(
            f"perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ expected)}",
            file=sys.stderr,
        )
        return 2
    for metric, entry in metrics.items():
        samples = entry.pop("samples", None)
        suffix = "" if samples is None else f" (n={samples})"
        print(f"metric {metric} = {entry['value']:.6g} {entry['unit']}{suffix}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
