"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound from ``BENCHMARK.json``.
A spread above a third of its bound is flagged; ``setup_s`` is reported but
left out of the worst-spread summary, since only its median is compared
between sets.  Run from the root of a checkout::

    python3 perfbench/spread.py --workloads paper_ilp,service_replay --seeds 1-10

The runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None, help="write all results as JSON here")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    everything: dict[str, list[dict]] = {}
    worst = 0.0
    for workload in workloads:
        results = []
        for seed in seeds:
            result = run_once(workload, seed, seconds, 0)
            results.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        everything[workload] = results
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / median if median else 0.0
            flag = "" if spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            if name != "setup_s":
                worst = max(worst, spread / bound if bound else 0.0)
            print(f"  {workload:17s} {name:20s} median={median:.6g} q1={q1:.6g} "
                  f"q3={q3:.6g} spread={spread:.4f} bound={bound}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(everything, indent=1))
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
