"""Seeded operation lists for the benchmark workloads.

Every workload is a fixed number of CLI operations (one pass). Sizes are
stratified: slot i of a pass draws its horizon (or n_max) from the i-th
of OPS_PER_PASS equal slices of a log-uniform range, and categorical
choices (regime, point degrees, output format) cycle with the slot. The
seed jitters each size inside its slice, picks the cost-neutral
parameters (del Pezzo degree, conic r and a) and shuffles the execution
order. Two seeds therefore give different
inputs with the same cost profile, which keeps run-to-run spread small.

Only inputs the current code answers correctly are drawn:
- the fixed-width (blow-up-fill) regime always uses the default
  d' = 2 * max(points), never d' < 2d - h2, where certificates are
  known to be unreliable;
- conic bundles always have c1.K < 0, since other specs exit 2 and
  would measure argument rejection instead of closure.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import NamedTuple

DEFAULT_SEED = 1
OPS_PER_PASS = 100
SIZE_JITTER = 0.5  # share of a size slice the seed may move a slot within

SPEC = "{spec}"  # stands for the spec file path in an argv template


class Op(NamedTuple):
    slot: int
    command: str
    fmt: str
    size: int  # horizon, or n_max for goettsche
    argv: tuple[str, ...]
    spec: dict | None

    @property
    def key(self) -> str:
        """Identity of the operation's input, independent of file paths."""
        doc = json.dumps({"argv": self.argv, "spec": self.spec}, sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:16]

    def bound_argv(self, spec_path: str | None) -> list[str]:
        return [spec_path if a == SPEC else a for a in self.argv]


def _log_sizes(rng: random.Random, lo: int, hi: int) -> list[int]:
    """One size per slot, slot i inside the i-th log-uniform slice of [lo, hi].

    The last slot is pinned to hi so the largest operation, which sets
    peak memory, is the same for every seed.
    """
    sizes = []
    for i in range(OPS_PER_PASS):
        u = 1.0 if i == OPS_PER_PASS - 1 else 0.5 + SIZE_JITTER * (rng.random() - 0.5)
        frac = (i + u) / OPS_PER_PASS
        sizes.append(round(math.exp(math.log(lo) + frac * math.log(hi / lo))))
    return sizes


def _balanced(rng: random.Random, choices: list, count: int) -> list:
    """count draws using every choice equally often (up to one), in seeded order."""
    pool = (choices * (count // len(choices) + 1))[:count]
    rng.shuffle(pool)
    return pool


def _fmt(slot: int, categories: int) -> str:
    # each category alternates formats across its occurrences
    return "text" if (slot // categories) % 2 == 0 else "machine"


OVERLAP_TEMPLATES = [
    # (name, K_sq, c1_sq, c1_dot_K): c1_sq + c1.K < 0, consecutive ranges overlap
    ("plane, O(1)", 9, 1, -3),
    ("plane, O(2)", 9, 4, -6),
    ("quadric, O(1,1)", 8, 2, -4),
    ("quadric, O(2,1)", 8, 4, -6),
]
POINT_SETS = [[1], [2], [3], [1, 2], [2, 3]]


def _interval_classes(rng: random.Random) -> list[Op]:
    cats = [(regime, pts) for regime in ("overlap", "blowup-fill") for pts in POINT_SETS]
    sizes = _log_sizes(rng, 10_000, 200_000)
    degrees = _balanced(rng, list(range(1, 10)), OPS_PER_PASS)
    ops = []
    for i in range(OPS_PER_PASS):
        regime, pts = cats[i % len(cats)]
        if regime == "overlap":
            # the templates differ in overlap and so in cost: fixed per slot
            name, k_sq, c1_sq, c1_k = OVERLAP_TEMPLATES[(i // len(cats)) % len(OVERLAP_TEMPLATES)]
        else:
            k = degrees[i]
            name, k_sq, c1_sq, c1_k = f"del pezzo degree {k}", k, k, -k
        spec = {
            "name": name,
            "K_sq": k_sq,
            "h2": 0,
            "line_bundle": {"c1_sq": c1_sq, "c1_dot_K": c1_k, "ample_asserted": True},
            "points": pts,
        }
        fmt = _fmt(i, len(cats))
        argv = ("classes", SPEC, "--horizon", str(sizes[i]), "--format", fmt)
        ops.append(Op(i, "classes", fmt, sizes[i], argv, spec))
    return ops


CONIC_CATEGORIES = [
    # (delta, m, e_min, points); unions per point grow like
    # horizon * len(points) / (delta * (2 * e_min * m - 1)^2)
    (1, 1, 1, [1]),
    (1, 1, 1, [2]),
    (1, 1, 1, [2, 3]),
    (2, 1, 1, [2, 3]),
    (1, 1, 2, [2, 3]),
    (1, 2, 1, [1]),
    (2, 1, 1, [1]),
    (1, 1, 3, [2]),
]


def _conic_classes(rng: random.Random) -> list[Op]:
    cats = CONIC_CATEGORIES
    sizes = _log_sizes(rng, 500, 2_500)
    ops = []
    for i in range(OPS_PER_PASS):
        delta, m, e_min, pts = cats[i % len(cats)]
        while True:
            r, a = rng.randint(0, 12), rng.randint(0, 3)
            if -m * (8 - r) - 2 * a * delta < 0:  # c1.K < 0
                break
        spec = {
            "name": f"conic bundle r={r}",
            "conic": {"r": r, "delta": delta, "m": m, "a": a},
            "points": pts,
        }
        fmt = _fmt(i, len(cats))
        argv = ("classes", SPEC, "--e-min", str(e_min), "--horizon", str(sizes[i]),
                "--format", fmt)
        ops.append(Op(i, "classes", fmt, sizes[i], argv, spec))
    return ops


ZETA_CATEGORIES = [("bs", 1), ("bs", 3)] + [("dp", pts) for pts in POINT_SETS]


def _zeta_series(rng: random.Random) -> list[Op]:
    cats = ZETA_CATEGORIES
    sizes = _log_sizes(rng, 5_000, 50_000)
    degrees = _balanced(rng, list(range(1, 10)), OPS_PER_PASS)
    ops = []
    for i in range(OPS_PER_PASS):
        kind, arg = cats[i % len(cats)]
        if kind == "bs":
            spec = {"name": f"brauer-severi index {arg}", "brauer_severi": {"ind": arg}}
        else:
            k = degrees[i]
            spec = {
                "name": f"del pezzo degree {k}",
                "K_sq": k,
                "h2": 0,
                "line_bundle": {"c1_sq": k, "c1_dot_K": -k, "ample_asserted": True},
                "points": arg,
            }
        fmt = _fmt(i, len(cats))
        argv = ("zeta", SPEC, "--horizon", str(sizes[i]), "--format", fmt)
        ops.append(Op(i, "zeta", fmt, sizes[i], argv, spec))
    return ops


def _goettsche_classes(rng: random.Random) -> list[Op]:
    lo, hi = 12, 22
    ops = []
    for i in range(OPS_PER_PASS):
        u = 1.0 if i == OPS_PER_PASS - 1 else 0.5 + SIZE_JITTER * (rng.random() - 0.5)
        n_max = min(hi, lo + math.floor((hi - lo + 1) * (i + u) / OPS_PER_PASS))
        fmt = "text" if i % 2 == 0 else "machine"
        argv = ("goettsche", "--n-max", str(n_max), "--format", fmt)
        ops.append(Op(i, "goettsche", fmt, n_max, argv, None))
    return ops


WORKLOADS = {
    "interval-classes": _interval_classes,
    "conic-classes": _conic_classes,
    "zeta-series": _zeta_series,
    "goettsche-classes": _goettsche_classes,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The workload's operations for one pass, in seeded execution order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops
