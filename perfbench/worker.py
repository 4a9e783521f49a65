"""One benchmark process: set up, then run a workload in a closed loop.

Usage (started by run.py, one fresh interpreter per call):

    python3 perfbench/worker.py --workload W --seed S --run-dir DIR
        [--setup-only] [--seconds T] [--trace 0|1]

Set-up imports hilbstab from the checkout's src/ and writes the
workload's spec files into DIR. With --setup-only the process stops
there, so its lifetime is the set-up time.

Otherwise one caller runs the pass of operations over and over, in
process and without threads: each operation is one call to
hilbstab.cli.main(argv), timed from call to return with stdout and
stderr captured into buffers. Before each operation, outside the timing,
every hilbstab module is imported afresh, so no module state (a cache,
say) carries over from one operation to the next, as for a command-line
call in a new process. The reference kernel of speed.py runs before the
first operation and after every operation. Passes repeat until T seconds
of operation time and (untraced) MIN_SAMPLES samples are reached. A run
holds whole passes only, so every operation is equally represented: no
pass starts that would end past LOOP_LIMIT_S. With --trace 1 every
operation runs twice per pass, untraced and traced in alternating order,
so the spans and the tracing overhead come from the same inputs.

Outside the timing the process records each sample's exit code, wall
time and stdout digest, keeps the first stdout of every operation in DIR
for the output check, and finally writes DIR/result.json (and DIR/trace.json
when tracing).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from speed import kernel_seconds

ROOT = Path(__file__).resolve().parent.parent
LOOP_LIMIT_S = 120  # start no pass that would end later, so a run ends within its time limit
MIN_SAMPLES = 100  # so that at least ten samples lie beyond the 90th percentile


def _import_program():
    """hilbstab.cli from the checkout's src/, with every hilbstab module imported afresh."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "hilbstab" or n.startswith("hilbstab.")]:
        del sys.modules[name]
    import hilbstab.cli

    if Path(hilbstab.cli.__file__).resolve().parent != ROOT / "src" / "hilbstab":
        sys.exit(f"hilbstab was imported from {hilbstab.cli.__file__}, not from {ROOT / 'src'}")
    return hilbstab.cli


def setup(workload: str, seed: int, run_dir: Path):
    cli = _import_program()
    from workloads import generate

    ops = generate(workload, seed)
    spec_dir = run_dir / "specs"
    spec_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for op in ops:
        path = None
        if op.spec is not None:
            path = str(spec_dir / f"op{op.slot:03d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(op.spec, handle)
        paths.append(path)
    return cli, ops, [op.bound_argv(path) for op, path in zip(ops, paths)]


def call(main, argv, tracer=None, op_id=-1):
    """Run one operation; returns (exit code, start, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            start = perf_counter()
            rc = main(argv)
            elapsed = perf_counter() - start
        else:
            start = perf_counter()
            rc = tracer.call(op_id, main, argv)
            elapsed = perf_counter() - start
    return rc, start, elapsed, out.getvalue(), err.getvalue()


def run(args) -> None:
    run_dir = Path(args.run_dir)
    cli, ops, argvs = setup(args.workload, args.seed, run_dir)
    if args.setup_only:
        return
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    # warm-up: one untimed call of the cheapest operation
    call(cli.main, argvs[min(range(len(ops)), key=lambda i: ops[i].size)])

    samples = []
    kept = set()
    measured = 0.0
    passes = 0
    loop_start = perf_counter()
    kernel = []  # [midpoint, seconds] of each reference kernel run

    def time_kernel():
        start = perf_counter()
        seconds = kernel_seconds()
        kernel.append([start + seconds / 2, seconds])

    time_kernel()
    while True:
        pass_start = perf_counter()
        for pos, argv in enumerate(argvs):
            modes = (False, True) if tracer else (False,)
            if tracer and (pos + passes) % 2:
                modes = (True, False)
            for traced in modes:
                cli = _import_program()
                gc.collect()
                if traced:
                    rc, start, wall, out, err = call(cli.main, argv, tracer, len(samples))
                else:
                    rc, start, wall, out, err = call(cli.main, argv)
                time_kernel()
                data = out.encode()
                samples.append({"pos": pos, "traced": traced, "rc": rc, "start": start,
                                "wall_s": wall, "digest": hashlib.sha256(data).hexdigest(),
                                "bytes": len(data)})
                measured += wall
                if pos not in kept:
                    kept.add(pos)
                    (run_dir / f"out{pos:03d}.txt").write_bytes(data)
                    (run_dir / f"err{pos:03d}.txt").write_text(err, encoding="utf-8")
        passes += 1
        if measured >= args.seconds and (tracer or len(samples) >= MIN_SAMPLES):
            break
        now = perf_counter()
        if now + (now - pass_start) - loop_start > LOOP_LIMIT_S:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "keys": [op.key for op in ops],
        "passes": passes,
        "samples": samples,
        "kernel": kernel,
        "peak_rss_kib": peak_kib,
    }
    if tracer:
        tracer.dump(str(run_dir / "trace.json"),
                    {"workload": args.workload, "seed": args.seed, "passes": passes})
    with open(run_dir / "result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
