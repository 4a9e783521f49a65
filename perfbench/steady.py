"""Steadiness and count checks for the benchmark.

    python3 perfbench/steady.py [--seed-base 1000]
    python3 perfbench/steady.py --counts [--seed-base 1000]

The first form runs run.py --trace 0 once per seed (seed-base, ...,
seed-base + RUNS - 1) on every workload and reports, per end-to-end
metric, the median, the quartiles and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json. The default seed base differs
from the default seed, so a claim can be re-checked on held-out inputs.
Every spread must stay below a third of its bound.

The second form runs run.py --trace 1 twice on seed-base per workload and
requires every count metric to be identical in both runs.

The first also writes its table to .bench_out/; both exit 1 when a
check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
RUNS = 10


def _bench() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return result["metrics"]


def steadiness(bench: dict, seed_base: int) -> bool:
    steady = True
    lines = []
    for workload in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in range(seed_base, seed_base + RUNS):
            metrics = _run(workload, seed, bench["run_seconds"], 0)
            for name, metric in metrics.items():
                values.setdefault(name, []).append(metric["value"])
        for spec in bench["end_to_end"]:
            name = spec["name"]
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med
            ok = spread < spec["bound"] / 3
            steady = steady and ok
            lines.append(f"{workload:18} {name:12} median {med:10.6g} q1 {q1:10.6g} "
                         f"q3 {q3:10.6g} spread {spread:6.2%} bound {spec['bound']:.0%}"
                         f"{'' if ok else '  NOT STEADY'}")
            print(lines[-1], flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{seed_base}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return steady


def counts_repeat(bench: dict, seed: int) -> bool:
    count_metrics = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    same = True
    for workload in workloads.WORKLOADS:
        first, second = (_run(workload, seed, bench["run_seconds"], 1) for _ in range(2))
        for name in count_metrics:
            a, b = first[name]["value"], second[name]["value"]
            same = same and a == b
            print(f"{workload:18} {name:32} {a:14.0f} {b:14.0f}{'' if a == b else '  DIFFERS'}",
                  flush=True)
    return same


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args()
    bench = _bench()
    if args.counts:
        ok = counts_repeat(bench, args.seed_base)
    else:
        ok = steadiness(bench, args.seed_base)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
