"""Record the stdout digest of every default-seed operation into digests.json.

    python3 perfbench/record_digests.py

Run it on the commit whose output is the reference. Each operation runs
once and must pass the output check; run.py then requires byte-identical
stdout for the default seed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
from workloads import DEFAULT_SEED, WORKLOADS
from worker import call, setup

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="digests-", dir=OUT))
    digests = {}
    try:
        for workload in WORKLOADS:
            cli, ops, argvs = setup(workload, DEFAULT_SEED, scratch / workload)
            digests[workload] = {}
            for op, argv in zip(ops, argvs):
                rc, _, _, out, _ = call(cli.main, argv)
                problem = checks.check(op, rc, out)
                if problem is not None:
                    sys.exit(f"{workload} op {op.key}: {problem}")
                digests[workload][op.key] = hashlib.sha256(out.encode()).hexdigest()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc = {"seed": DEFAULT_SEED, "workloads": digests}
    (HERE / "digests.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")


if __name__ == "__main__":
    main()
