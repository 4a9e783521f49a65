"""A fixed reference kernel that turns wall time into reference seconds.

On a shared host the same operation's wall time swings by 20-60% over
tens of seconds as other tenants load the cores, and its CPU time swings
with it, so the raw medians of two runs a few minutes apart disagree by
more than any useful regression bound. Each run therefore also times this
kernel after every operation and reports its timings in reference
seconds: wall time * REFERENCE_S / (mean time of the kernel runs around
that operation).

The kernel is a frozen miniature of hilbstab's hot paths (union-find
closure over stepped ranges, least-member labels, label runs, sparse
polynomial products, JSON rendering), so the host slows it about as much
as it slows the program; it never changes with the program, so a faster
program still reads faster.

Set-up time is mostly process start-up and imports, which a busy host
slows in a way the kernel does not follow. Set-up probes are therefore
scaled by the reference process instead: a fresh interpreter that
imports a fixed set of standard-library modules, and no hilbstab code.
"""

from __future__ import annotations

import json
import subprocess
import sys
from time import perf_counter

# mean kernel wall time on a quiet 2-core x86-64 container, CPython 3.11
REFERENCE_S = 0.0115
# mean reference process wall time on the same container
REFERENCE_PROCESS_S = 0.14

_REFERENCE_IMPORTS = ("import asyncio, csv, decimal, email.message, http.client, logging, "
                      "unittest, xml.dom.minidom")

_POINTS = 6000


def _kernel() -> int:
    parent = list(range(_POINTS + 1))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for step, lo in ((3, 0), (5, 100), (7, 50)):
        for i in range(lo, _POINTS - step + 1):
            a, b = find(i), find(i + step)
            if a != b:
                parent[b] = a
    first: dict[int, int] = {}
    labels = [first.setdefault(find(i), i) for i in range(_POINTS + 1)]
    runs: list[tuple[int, int, int]] = []
    for i, label in enumerate(labels):
        if runs and runs[-1][2] == label and runs[-1][1] == i - 1:
            runs[-1] = (runs[-1][0], i, label)
        else:
            runs.append((i, i, label))
    factor = {(("L", 1),): 1, (("x", 1),): 2, (("s2", 1),): 1, (("s3", 1),): 3}
    poly: dict[tuple, int] = {(): 1}
    for _ in range(8):
        product: dict[tuple, int] = {}
        for mono_a, coeff_a in poly.items():
            for mono_b, coeff_b in factor.items():
                exps = dict(mono_a)
                for sym, e in mono_b:
                    exps[sym] = exps.get(sym, 0) + e
                mono = tuple(sorted(exps.items()))
                product[mono] = product.get(mono, 0) + coeff_a * coeff_b
        poly = product
    text = json.dumps({"labels": labels[:2000], "runs": [list(r) for r in runs[:500]]})
    return len(text) + len(poly)


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def reference_process_seconds() -> float:
    """Wall time of one run of the reference process."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", _REFERENCE_IMPORTS], stdin=subprocess.DEVNULL,
                   check=True)
    return perf_counter() - start
