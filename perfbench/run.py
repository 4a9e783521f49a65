"""hilbstab benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; it builds nothing (the program is the
pure-Python package under src/). Workloads are defined in workloads.py.

--trace 0 measures the end-to-end metrics with tracing off:
  op_p50_s, op_p90_s  median and 90th-percentile operation time
                      (Harrell-Davis estimates; at least 100 samples)
  ops_per_s           operations per second of operation time
  setup_s             fresh interpreter to first operation (import hilbstab,
                      generate and write the specs); median of SETUP_PROBES
Times are reference seconds: wall time rescaled by the reference kernel
(speed.py) timed around each operation, or for setup_s by the reference
process timed around each probe, which cancels most of a shared host's
speed swings.
  peak_rss_mb         ru_maxrss of the fresh process that ran the workload
  ok_ratio            operations with exit 0 and a correct output, divided
                      by operations attempted (1 - fail_ratio)
--trace 1 runs every operation untraced and traced and reports the
per-layer metrics from the spans (see tracer.py): times and counts are
totals over one pass of the workload's operations, averaged over passes.

Every operation's output is checked after the loop (checks.py); for the
default seed its stdout digest must also equal the one recorded in
digests.json. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
import workloads
from speed import REFERENCE_PROCESS_S, REFERENCE_S, reference_process_seconds
from tracer import layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
KERNEL_REACH = 8
WORKER_TIMEOUT_S = 150


def _worker(args: argparse.Namespace, run_dir: Path, *extra: str) -> None:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--run-dir", str(run_dir), *extra]
    # a fixed hash seed keeps dict and set layouts, and so timings, alike across runs
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"benchmark worker failed with exit code {proc.returncode}")


def _setup_seconds(args: argparse.Namespace) -> list[float]:
    """Reference seconds of each set-up probe, timed around a fresh worker process.

    Each probe is scaled by the reference process runs just before and just
    after it (see speed.py).
    """
    times = []
    before = reference_process_seconds()
    for i in range(SETUP_PROBES + 1):
        probe_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        start = perf_counter()
        _worker(args, probe_dir, "--setup-only")
        elapsed = perf_counter() - start
        shutil.rmtree(probe_dir)
        after = reference_process_seconds()
        if i:  # the first probe also compiles bytecode; it is not timed
            times.append(elapsed * REFERENCE_PROCESS_S / ((before + after) / 2))
        before = after
    return times


def _check_samples(ops, result: dict, run_dir: Path, args) -> tuple[list[bool], list[str]]:
    """Per sample: did it pass? Plus one line per distinct failure."""
    recorded = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(HERE / "digests.json", encoding="utf-8") as handle:
            recorded = json.load(handle)["workloads"].get(args.workload, {})
    verdicts = {}
    first_digest = {}
    for sample in result["samples"]:
        pos = sample["pos"]
        if pos in first_digest:
            continue
        first_digest[pos] = sample["digest"]
        op = ops[pos]
        out = (run_dir / f"out{pos:03d}.txt").read_text(encoding="utf-8")
        problem = checks.check(op, sample["rc"], out)
        if problem is not None and sample["rc"] != 0:
            err = (run_dir / f"err{pos:03d}.txt").read_text(encoding="utf-8").strip()
            problem += f" ({err.splitlines()[-1] if err else 'no stderr'})"
        if problem is None and recorded is not None and recorded.get(op.key) != sample["digest"]:
            problem = "stdout differs from the digest recorded for the default seed"
        verdicts[pos] = problem
    ok, problems = [], []
    for sample in result["samples"]:
        pos = sample["pos"]
        problem = verdicts[pos]
        if problem is None and sample["rc"] != 0:
            problem = f"exit code {sample['rc']}"
        if problem is None and sample["digest"] != first_digest[pos]:
            problem = "stdout differs between repeats of one operation"
        ok.append(problem is None)
        if problem is not None:
            traced = " traced" if sample["traced"] else ""
            line = f"op {ops[pos].key} ({' '.join(ops[pos].argv)}){traced}: {problem}"
            if line not in problems:
                problems.append(line)
    return ok, problems


def _percentile(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of sorted_values.

    A Beta(q(n+1), (1-q)(n+1))-weighted mean of all order statistics. Each
    run samples a pass of operations whose costs are spread out, so a single
    order statistic jumps between neighbouring operations from run to run;
    this estimator weighs the neighbours smoothly instead.
    """
    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16  # midpoint rule inside each order statistic's cell of width 1/n
    weights = [sum(density((i + (j + 0.5) / steps) / n) for j in range(steps)) for i in range(n)]
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def _factors(result: dict) -> list[float]:
    """Per sample, wall to reference seconds (see speed.py).

    The host flips between a fast and a slow state that each last a second
    or so. A short operation sits inside one state, which the kernel runs
    just before and after it show; a long one averages over several, so it
    is scaled by the kernel runs over a proportionally longer stretch:
    KERNEL_REACH operation-lengths either side, and never fewer than the
    two adjacent runs.
    """
    stamps = [mid for mid, _ in result["kernel"]]
    seconds = [k for _, k in result["kernel"]]
    factors = []
    for i, sample in enumerate(result["samples"]):
        reach = KERNEL_REACH * sample["wall_s"]
        lo = min(i, bisect.bisect_left(stamps, sample["start"] - reach))
        hi = max(i + 2, bisect.bisect_right(stamps, sample["start"] + sample["wall_s"] + reach))
        factors.append(REFERENCE_S / statistics.fmean(seconds[lo:hi]))
    print(f"reference kernel: {len(seconds)} runs, mean {statistics.fmean(seconds) * 1e3:.3f} ms; "
          f"wall to reference factor median {statistics.median(factors):.4f}")
    return factors


def _end_to_end(result: dict, ok: list[bool], setup: list[float]) -> dict:
    wall = sorted(s["wall_s"] for s in result["samples"])
    times = sorted(s["wall_s"] * f for s, f in zip(result["samples"], _factors(result)))
    n = len(times)
    print(f"samples: {n} over {result['passes']} pass(es) of {len(result['keys'])} operations; "
          f"{n - math.ceil(0.9 * n)} beyond p90")
    print(f"wall time (s): p50 {_percentile(wall, 0.5):.4f} p90 {_percentile(wall, 0.9):.4f} "
          f"total {sum(wall):.2f}")
    print(f"setup probes (s): {' '.join(f'{t:.4f}' for t in setup)}")
    print(f"fail_ratio: {ok.count(False) / n:.6f} ({ok.count(False)} of {n})")
    return {
        "op_p50_s": (_percentile(times, 0.5), "s"),
        "op_p90_s": (_percentile(times, 0.9), "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_kib"] / 1024, "MB"),
        "ok_ratio": (ok.count(True) / n, "ratio"),
    }


def _per_layer(result: dict, run_dir: Path, workload: str) -> dict:
    with open(run_dir / "trace.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    shutil.copyfile(run_dir / "trace.json", OUT / f"trace-{workload}.json")
    totals = layer_totals(doc, _factors(result))
    passes = result["passes"]
    ops_per_pass = len(result["keys"])

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0) / passes

    def prefix(start: str, key: str) -> float:
        return sum(row.get(key, 0) for name, row in totals.items()
                   if name.startswith(start)) / passes

    traced = [s for s in result["samples"] if s["traced"]]
    plain = [s for s in result["samples"] if not s["traced"]]
    total_s = sum(row["self_s"] for row in totals.values()) / passes
    print(f"traced operations: {len(traced)} over {passes} pass(es)")
    print(f"{'span':40} {'calls/pass':>11} {'self s/pass':>12} {'share':>7}")
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:40} {row['calls'] / passes:11.1f} {row['self_s'] / passes:12.5f} "
              f"{row['self_s'] / passes / total_s:7.1%}")
    points = get("equivalence.partition", "points")
    return {
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "cli.stdout_bytes": (sum(s["bytes"] for s in traced) / passes, "bytes"),
        "cli.load_spec.busy_s": (get("cli.load_spec", "self_s"), "s"),
        "intervals.calls": (prefix("intervals.", "calls"), "count"),
        "intervals.busy_s": (prefix("intervals.", "self_s"), "s"),
        "equivalence.pipeline.self_s": (get("equivalence.pipeline", "self_s"), "s"),
        "equivalence.relations_from_intervals.busy_s":
            (get("equivalence.relations_from_intervals", "self_s"), "s"),
        "equivalence.relations": (get("equivalence.relations_from_intervals", "relations"), "count"),
        "equivalence.partition.busy_s": (get("equivalence.partition", "self_s"), "s"),
        "equivalence.union_calls": (get("equivalence.partition", "union_calls"), "count"),
        "equivalence.unions_per_point":
            (get("equivalence.partition", "union_calls") / points if points else 0.0, "ratio"),
        "equivalence.label_runs.busy_s": (get("equivalence.label_runs", "self_s"), "s"),
        "equivalence.label_runs.calls_per_op":
            (get("equivalence.label_runs", "calls") / ops_per_pass, "ratio"),
        "equivalence.label_runs.runs": (get("equivalence.label_runs", "runs"), "count"),
        "motivic.zeta_series.busy_s": (get("motivic.zeta_series", "self_s"), "s"),
        "motivic.rationalize.busy_s": (get("motivic.rationalize", "self_s"), "s"),
        "motivic.verify_rational.busy_s": (get("motivic.verify_rational", "self_s"), "s"),
        "motivic.series_terms": (get("motivic.zeta_series", "series_terms"), "count"),
        "motivic.goettsche_class.busy_s": (get("motivic.goettsche_class", "self_s"), "s"),
        "motivic.reduce_mod_L.busy_s": (get("motivic.reduce_mod_L", "self_s"), "s"),
        "motivic.goettsche_terms": (get("motivic.goettsche_class", "goettsche_terms"), "count"),
        "trace.overhead_ratio": (sum(s["wall_s"] for s in traced) / sum(s["wall_s"] for s in plain),
                                 "ratio"),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hilbstab" / "cli.py").is_file():
        sys.exit(f"no hilbstab sources under {ROOT / 'src'}; run from a checkout of the repository")
    OUT.mkdir(exist_ok=True)

    setup = [] if args.trace else _setup_seconds(args)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        _worker(args, run_dir, "--seconds", str(args.seconds), "--trace", str(args.trace))
        with open(run_dir / "result.json", encoding="utf-8") as handle:
            result = json.load(handle)
        ops = workloads.generate(args.workload, args.seed)
        if [op.key for op in ops] != result["keys"]:
            sys.exit("worker ran a different operation list than the generator gives")
        ok, problems = _check_samples(ops, result, run_dir, args)
        for line in problems:
            print(f"FAILED {line}")
        if args.trace:
            metrics = _per_layer(result, run_dir, args.workload)
        else:
            metrics = _end_to_end(result, ok, setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    attempted, failed = len(ok), ok.count(False)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
