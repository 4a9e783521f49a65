"""Exact invariants every benchmark operation's output must satisfy.

check(op, stdout) returns None for a correct output or a one-line reason.
The invariants hold for any correct answer, so they do not freeze the
current output; byte identity is checked separately against recorded
digests for the default seed.
"""

from __future__ import annotations

import json
import re


def _runs_error(runs: list[tuple[int, int, int]], horizon: int, complete: bool) -> str | None:
    """Runs must tile 0..horizon in order, and each label be its class's least member.

    Labels are least members, so the first time a label appears it must be
    at the start of a run that begins exactly at that label.
    """
    expect = 0
    seen = set()
    for lo, hi, label in runs:
        if lo != expect or hi < lo:
            return f"label runs do not tile: run {lo}-{hi} where {expect} was due"
        if label not in seen:
            if label != lo:
                return f"label {label} first appears at {lo}, so it is not its least member"
            seen.add(label)
        elif label > lo:
            return f"label {label} exceeds member {lo}"
        expect = hi + 1
    if complete and expect != horizon + 1:
        return f"label runs end at {expect - 1}, not at the horizon {horizon}"
    return None


def _classes_error(op, out: str) -> str | None:
    if op.fmt == "machine":
        doc = json.loads(out)
        if doc["command"] != "classes" or doc["horizon"] != op.size:
            return "wrong command or horizon in machine output"
        if doc["certified"] is not True:
            return "partition not certified"
        if doc["index"]["g"] % doc["period"]:
            return f"period {doc['period']} does not divide index {doc['index']['g']}"
        return _runs_error([tuple(r) for r in doc["label_runs"]], op.size, complete=True)
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    if fields.get("horizon") != str(op.size):
        return "wrong horizon in text output"
    head = re.fullmatch(r"n0=(\d+) period=(\d+) certified=(yes|no)", fields["classes"])
    if head is None or head.group(3) != "yes":
        return "partition not certified"
    g = int(fields["index"].split(" = ", 1)[0])
    if g % int(head.group(2)):
        return f"period {head.group(2)} does not divide index {g}"
    tokens = fields["label runs"].split()
    complete = tokens[-1] != "..."
    runs = []
    for token in tokens if complete else tokens[:-1]:
        span, label = token.split("->")
        lo, _, hi = span.partition("-")
        runs.append((int(lo), int(hi or lo), int(label)))
    return _runs_error(runs, op.size, complete)


def _zeta_error(op, out: str) -> str | None:
    if op.fmt == "machine":
        doc = json.loads(out)
        ok = doc["command"] == "zeta" and doc["order"] == op.size and doc["verified"] is True
    else:
        ok = f"verified to order {op.size}: yes" in out.splitlines()
    return None if ok else "zeta form not verified"


def _goettsche_mod_l(n: int) -> str:
    return "1" if n == 0 else "x" if n == 1 else f"s{n}"


def _goettsche_error(op, out: str) -> str | None:
    if op.fmt == "machine":
        rows = [(row["n"], row["mod_L"]) for row in json.loads(out)["rows"]]
    else:
        lines = out.splitlines()[1:]
        rows = [(int(line.split()[0]), line.split()[-1]) for line in lines]
    want = [(n, _goettsche_mod_l(n)) for n in range(op.size + 1)]
    if rows != want:
        return "goettsche rows do not reduce mod L to the symmetric powers"
    return None


_CHECKS = {"classes": _classes_error, "zeta": _zeta_error, "goettsche": _goettsche_error}


def check(op, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _CHECKS[op.command](op, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
