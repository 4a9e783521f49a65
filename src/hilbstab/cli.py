"""Command line front end.

Subcommands: intervals, classes, zeta, goettsche, check. Surface data
comes from a JSON document (see parse_surface_spec); all output is
deterministic, as text tables or one machine-readable JSON object per
run (--format machine). Exit codes: 0 ok, 1 usage or validation,
2 the requested method does not apply to the input, 3 the horizon is
too small to certify the result.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, NamedTuple

from .errors import (
    HilbstabError,
    HorizonError,
    MethodInapplicableError,
    ParityError,
    ValidationError,
)
from .equivalence import (
    ClassPartition,
    ConicPipelineResult,
    IndexResult,
    brauer_severi_classes,
    conic_pipeline,
    index,
    interval_class_partition,
    kodaira_guard,
)
from .intervals import (
    IntInterval,
    adjunction_genus,
    blowup_interval,
    check_assumptions,
    conic_interval,
    conic_twist_bound,
    equivalence_interval,
    gap_coverage,
    gap_interval,
    infinitely_nonempty,
    riemann_roch_h0,
)
from .motivic import goettsche_class, rationalize, reduce_mod_L, verify_rational, zeta_series
from .surfaces import (
    BrauerSeveriData,
    ConicBundleData,
    LineBundleClass,
    PolarizedSurface,
    SurfaceData,
)

CAVEAT = "(valid for e >= e0)"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INAPPLICABLE = 2
EXIT_HORIZON = 3


class ParsedSpec(NamedTuple):
    target: PolarizedSurface | ConicBundleData | BrauerSeveriData
    blowup_cycles: tuple[int, ...] | None


# ---------------------------------------------------------------- spec files


def _want(mapping: dict, key: str, kind: type, path: str, default=None, required=False):
    if key not in mapping:
        if required:
            raise ValidationError("required field is missing", path=path)
        return default
    value = mapping[key]
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError("expected an integer", path=path)
    elif kind is bool:
        if not isinstance(value, bool):
            raise ValidationError("expected a boolean", path=path)
    elif not isinstance(value, kind):
        raise ValidationError(f"expected {kind.__name__}", path=path)
    return value


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ValidationError("unknown field", path=f"{where}.{key}" if where else key)


def _degree_list(value: Any, path: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ValidationError("expected a nonempty list of positive integers", path=path)
    out = []
    for i, item in enumerate(value):
        if not isinstance(item, int) or isinstance(item, bool) or item <= 0:
            raise ValidationError("degrees must be positive integers", path=f"{path}[{i}]")
        out.append(item)
    return tuple(out)


def load_spec(path: str) -> ParsedSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read spec file: {exc}", path=path) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}", path=path) from exc
    if not isinstance(doc, dict):
        raise ValidationError("top level must be an object", path=path)

    _reject_unknown(
        doc,
        {
            "name",
            "K_sq",
            "h2",
            "char_zero",
            "points",
            "line_bundle",
            "conic",
            "brauer_severi",
            "blowup_cycles",
        },
        "",
    )
    drivers = [k for k in ("line_bundle", "conic", "brauer_severi") if k in doc]
    if len(drivers) != 1:
        raise ValidationError(
            "exactly one of line_bundle, conic, brauer_severi must drive the pipeline",
            path="/".join(drivers) if drivers else "line_bundle",
        )

    char_zero = _want(doc, "char_zero", bool, "char_zero", default=True)
    points = (
        _degree_list(doc["points"], "points") if "points" in doc else (1,)
    )
    blowups = (
        _degree_list(doc["blowup_cycles"], "blowup_cycles")
        if "blowup_cycles" in doc
        else None
    )
    driver = drivers[0]

    if driver == "brauer_severi":
        block = doc["brauer_severi"]
        if not isinstance(block, dict):
            raise ValidationError("expected an object", path="brauer_severi")
        _reject_unknown(block, {"ind"}, "brauer_severi")
        ind = _want(block, "ind", int, "brauer_severi.ind", required=True)
        if "K_sq" in doc and _want(doc, "K_sq", int, "K_sq") != 9:
            raise ValidationError("a Brauer-Severi surface has K_sq = 9", path="K_sq")
        if "h2" in doc and _want(doc, "h2", int, "h2") != 0:
            raise ValidationError("a Brauer-Severi surface has h2 = 0", path="h2")
        name = _want(doc, "name", str, "name", default="brauer-severi surface")
        return ParsedSpec(
            BrauerSeveriData(ind=ind, char_zero=char_zero, name=name), blowups
        )

    if driver == "conic":
        block = doc["conic"]
        if not isinstance(block, dict):
            raise ValidationError("expected an object", path="conic")
        _reject_unknown(block, {"r", "delta", "m", "a"}, "conic")
        r = _want(block, "r", int, "conic.r", required=True)
        delta = _want(block, "delta", int, "conic.delta", required=True)
        m = _want(block, "m", int, "conic.m", required=True)
        a = _want(block, "a", int, "conic.a", required=True)
        if "K_sq" in doc and _want(doc, "K_sq", int, "K_sq") != 8 - r:
            raise ValidationError(f"conic bundle with r={r} has K_sq = {8 - r}", path="K_sq")
        if "h2" in doc and _want(doc, "h2", int, "h2") != 0:
            raise ValidationError("a conic bundle here has h2 = 0", path="h2")
        name = _want(doc, "name", str, "name", default="conic bundle")
        return ParsedSpec(
            ConicBundleData(
                r=r,
                delta=delta,
                m=m,
                a=a,
                point_degrees=points,
                char_zero=char_zero,
                name=name,
            ),
            blowups,
        )

    block = doc["line_bundle"]
    if not isinstance(block, dict):
        raise ValidationError("expected an object", path="line_bundle")
    _reject_unknown(block, {"c1_sq", "c1_dot_K", "ample_asserted"}, "line_bundle")
    c1_sq = _want(block, "c1_sq", int, "line_bundle.c1_sq", required=True)
    c1_dot_K = _want(block, "c1_dot_K", int, "line_bundle.c1_dot_K", required=True)
    ample = _want(block, "ample_asserted", bool, "line_bundle.ample_asserted", default=False)
    if (c1_sq + c1_dot_K) % 2 != 0:
        raise ValidationError(
            "c1_sq + c1_dot_K must be even (adjunction parity on a smooth surface)",
            path="line_bundle",
        )
    K_sq = _want(doc, "K_sq", int, "K_sq", required=True)
    h2 = _want(doc, "h2", int, "h2", required=True)
    name = _want(doc, "name", str, "name", default="surface")
    surface = SurfaceData(K_sq=K_sq, h2=h2, point_degrees=points, char_zero=char_zero)
    bundle = LineBundleClass(c1_sq=c1_sq, c1_dot_K=c1_dot_K, ample_asserted=ample)
    return ParsedSpec(PolarizedSurface(surface, bundle, name=name), blowups)


def parse_surface_spec(path: str) -> PolarizedSurface | ConicBundleData | BrauerSeveriData:
    """Load and validate a surface description file."""
    return load_spec(path).target


# ------------------------------------------------------------------ output


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_machine(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _interval_json(iv: IntInterval) -> dict:
    return {"lo": iv.lo, "hi": iv.hi, "empty": iv.empty}


def _interval_text(iv: IntInterval) -> str:
    return "empty" if iv.empty else f"[{iv.lo},{iv.hi}]"


def _table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def _surface_json(target) -> dict:
    if isinstance(target, BrauerSeveriData):
        return {"kind": "brauer_severi", "name": target.name, "ind": target.ind,
                "char_zero": target.char_zero}
    if isinstance(target, ConicBundleData):
        return {
            "kind": "conic",
            "name": target.name,
            "r": target.r,
            "delta": target.delta,
            "m": target.m,
            "a": target.a,
            "K_sq": target.K_sq,
            "c1_sq": target.c1_sq,
            "c1_dot_K": target.c1_dot_K,
            "points": list(target.point_degrees),
            "char_zero": target.char_zero,
        }
    return {
        "kind": "polarized",
        "name": target.name,
        "K_sq": target.K_sq,
        "h2": target.h2,
        "c1_sq": target.c1_sq,
        "c1_dot_K": target.c1_dot_K,
        "ample_asserted": target.bundle.ample_asserted,
        "points": list(target.surface.point_degrees),
        "char_zero": target.surface.char_zero,
    }


def _surface_text(target) -> list[str]:
    info = _surface_json(target)
    if info["kind"] == "brauer_severi":
        return [f"surface: {info['name']}", f"index: {info['ind']}"]
    head = [f"surface: {info['name']}"]
    h2 = info.get("h2", 0)
    head.append(
        f"bundle: c1_sq={info['c1_sq']} c1_dot_K={info['c1_dot_K']} "
        f"K_sq={info['K_sq']} h2={h2}"
    )
    head.append("points: " + ",".join(str(d) for d in info["points"]))
    return head


def _index_json(idx: IndexResult) -> dict:
    return {"g": idx.g, "combination": [list(t) for t in idx.combination]}


# ---------------------------------------------------------------- commands


def _cmd_intervals(args) -> int:
    spec = load_spec(args.spec)
    target = spec.target
    if isinstance(target, BrauerSeveriData):
        raise MethodInapplicableError(
            "the interval machinery is bypassed for Brauer-Severi surfaces; "
            "use the classes command"
        )
    conic = target if isinstance(target, ConicBundleData) else None
    polarized = conic.polarized() if conic else target
    degrees = polarized.surface.point_degrees
    d = args.d if args.d is not None else min(degrees)
    d_prime = args.d_prime
    if d_prime is None and spec.blowup_cycles:
        d_prime = spec.blowup_cycles[0]
    e_min = args.e_min
    e_max = args.e_max if args.e_max is not None else e_min + 9
    if e_min < 1 or e_max < e_min:
        raise ValidationError("need 1 <= e-min <= e-max", path="e-range")

    rows_json = []
    header = ["e", "I_e", "gap_e"]
    if d_prime is not None:
        header.append("~I_e")
    if conic is not None:
        header += ["b0", "I_(e,b0)"]
    text_rows = [header]
    for e in range(e_min, e_max + 1):
        iv = equivalence_interval(polarized, e, d)
        gap = gap_interval(polarized, e, d)
        row = {"e": e, "interval": _interval_json(iv), "gap": _interval_json(gap)}
        cells = [str(e), _interval_text(iv), _interval_text(gap)]
        if d_prime is not None:
            filler = blowup_interval(polarized, e, d, d_prime)
            row["blowup"] = _interval_json(filler)
            cells.append(_interval_text(filler))
        if conic is not None:
            b0 = max(0, conic_twist_bound(conic, e, d))
            stitched = conic_interval(conic, e, b0, d)
            row["twist_floor"] = b0
            row["twisted"] = _interval_json(stitched)
            cells += [str(b0), _interval_text(stitched)]
        rows_json.append(row)
        text_rows.append(cells)

    exit_code = EXIT_OK
    if polarized.c1_dot_K >= 0:
        verdict = {
            "coverable": False,
            "reason": "inapplicable",
            "detail": (
                "nonempty ranges for infinitely many e require c1(L).K < 0; "
                f"here c1(L).K = {polarized.c1_dot_K}, so all ranges die out"
            ),
        }
        exit_code = EXIT_INAPPLICABLE
    else:
        cover = gap_coverage(polarized, d, d_prime)
        verdict = {"coverable": cover.coverable, "reason": cover.reason}
        if cover.reason == "growing-gaps":
            verdict["detail"] = (
                "c1_sq + c1(L).K > 0: gaps between consecutive ranges grow "
                "without bound and cannot be filled"
            )
            exit_code = EXIT_INAPPLICABLE
        elif cover.reason == "blowup-fill" and not cover.coverable:
            need = 2 * d
            verdict["detail"] = (
                f"gap filling needs a blow-up cycle of degree d' >= {need}"
                + (f"; d'={d_prime} is too small" if d_prime is not None else "; none supplied")
            )

    if args.format == "machine":
        payload = {
            "command": "intervals",
            "surface": _surface_json(target),
            "d": d,
            "d_prime": d_prime,
            "rows": rows_json,
            "coverage": verdict,
            "conditional": True,
            "assume_asymptotic": args.assume_asymptotic,
        }
        _emit_machine(payload)
        return exit_code

    lines = _surface_text(target)
    lines.append(f"d={d}" + (f" d'={d_prime}" if d_prime is not None else ""))
    lines += _table(text_rows)
    cover_line = f"coverage: {verdict['reason']}"
    if not verdict["coverable"]:
        cover_line += " (not covered)"
    if "detail" in verdict:
        cover_line += f": {verdict['detail']}"
    lines.append(cover_line)
    if not args.assume_asymptotic:
        lines.append(CAVEAT)
    _emit(lines)
    return exit_code


def _partition_for(spec: ParsedSpec, e_min: int, horizon: int, d_prime: int | None):
    """Dispatch to the right pipeline; returns (partition, extras dict)."""
    target = spec.target
    if isinstance(target, BrauerSeveriData):
        part = brauer_severi_classes(target.ind, horizon)
        return part, {"pipeline": "brauer_severi", "index": index((target.ind,))}
    if isinstance(target, ConicBundleData):
        result: ConicPipelineResult = conic_pipeline(
            target, None, e_min=e_min, horizon=horizon
        )
        return result.partition, {
            "pipeline": "conic",
            "index": index(target.point_degrees),
            "starts": {str(k): v for k, v in sorted(result.start_by_degree.items())},
            "twist_floors": {
                str(k): v for k, v in sorted(result.twist_floor_by_degree.items())
            },
        }
    d_eff = d_prime
    if d_eff is None and spec.blowup_cycles:
        d_eff = spec.blowup_cycles[0]
    part = interval_class_partition(target, e_min=e_min, horizon=horizon, d_prime=d_eff)
    return part, {"pipeline": "interval", "index": index(target.surface.point_degrees)}


def _partition_payload(part: ClassPartition, extras: dict) -> dict:
    return {
        "horizon": part.horizon,
        "n0": part.n0,
        "period": part.period,
        "certified": part.certified,
        "conditional": part.conditional,
        "eventual_labels": list(part.eventual_labels()),
        "label_runs": [list(run) for run in part.label_runs()],
        **extras,
        "index": _index_json(extras["index"]),
    }


def _partition_text(part: ClassPartition, extras: dict, assume: bool) -> list[str]:
    lines = [f"pipeline: {extras['pipeline']}"]
    lines.append(f"index: {extras['index']}")
    if "starts" in extras:
        starts = " ".join(f"d={k}:{v}" for k, v in extras["starts"].items())
        lines.append(f"stitched from: {starts}")
    lines.append(f"horizon: {part.horizon}")
    lines.append(
        f"classes: n0={part.n0} period={part.period} "
        f"certified={'yes' if part.certified else 'no'}"
    )
    lines.append(
        "eventual classes: "
        + " ".join(str(lab) for lab in part.eventual_labels())
    )
    runs = part.label_runs(12)
    run_text = " ".join(
        (f"{a}" if a == b else f"{a}-{b}") + f"->{lab}" for a, b, lab in runs
    )
    if runs[-1][1] < part.horizon:
        run_text += " ..."
    lines.append(f"label runs: {run_text}")
    if part.conditional and not assume:
        lines.append(CAVEAT)
    return lines


def _cmd_classes(args) -> int:
    spec = load_spec(args.spec)
    part, extras = _partition_for(spec, args.e_min, args.horizon, args.d_prime)
    if args.format == "machine":
        _emit_machine({"command": "classes", "surface": _surface_json(spec.target),
                       "assume_asymptotic": args.assume_asymptotic,
                       **_partition_payload(part, extras)})
    else:
        lines = _surface_text(spec.target)
        lines += _partition_text(part, extras, args.assume_asymptotic)
        if not part.certified:
            need = part.n0 + 2 * part.period
            lines.append(
                f"certificate shortfall: horizon {part.horizon} < n0 + 2*period = {need}"
            )
        _emit(lines)
    return EXIT_OK if part.certified else EXIT_HORIZON


def _char_zero(target) -> bool:
    if isinstance(target, BrauerSeveriData):
        return target.char_zero
    if isinstance(target, ConicBundleData):
        return target.char_zero
    return target.surface.char_zero


def _cmd_zeta(args) -> int:
    spec = load_spec(args.spec)
    if not _char_zero(spec.target):
        raise MethodInapplicableError(
            "the mod-L zeta comparison relies on weak factorization and is "
            "only available in characteristic zero (char_zero=false in spec)"
        )
    part, extras = _partition_for(spec, args.e_min, args.horizon, args.d_prime)
    if not part.certified:
        raise HorizonError(
            f"partition not certified at horizon {part.horizon} "
            f"(needs >= n0 + 2*period = {part.n0 + 2 * part.period}); enlarge --horizon"
        )
    series = zeta_series(part, args.horizon)
    rational = rationalize(series)
    verified = verify_rational(rational, series, args.horizon)
    payload = {
        "command": "zeta",
        "surface": _surface_json(spec.target),
        "n0": rational.n0,
        "period": rational.period,
        "head": [str(p) for p in rational.head],
        "tail": [str(p) for p in rational.tail],
        "closed_form": str(rational),
        "verified": verified,
        "order": args.horizon,
        "conditional": part.conditional,
        "assume_asymptotic": args.assume_asymptotic,
    }
    if args.format == "machine":
        _emit_machine(payload)
    else:
        lines = _surface_text(spec.target)
        lines.append(f"zeta mod L = {rational}")
        lines.append(f"n0={rational.n0} period={rational.period}")
        lines.append(f"verified to order {args.horizon}: {'yes' if verified else 'no'}")
        if part.conditional and not args.assume_asymptotic:
            lines.append(CAVEAT)
        _emit(lines)
    return EXIT_OK if verified else EXIT_HORIZON


def _cmd_goettsche(args) -> int:
    if args.n_max < 0:
        raise ValidationError("n-max must be >= 0", path="n-max")
    rows = []
    for n in range(args.n_max + 1):
        poly = goettsche_class(n)
        rows.append({"n": n, "hilb": str(poly), "mod_L": str(reduce_mod_L(poly))})
    if args.format == "machine":
        _emit_machine({"command": "goettsche", "rows": rows})
        return EXIT_OK
    table = [["n", "[Hilb^n]", "mod L"]]
    for row in rows:
        table.append([str(row["n"]), row["hilb"], row["mod_L"]])
    _emit(_table(table))
    return EXIT_OK


def _cmd_check(args) -> int:
    spec = load_spec(args.spec)
    target = spec.target
    payload: dict[str, Any] = {
        "command": "check",
        "surface": _surface_json(target),
        "valid": True,
    }
    lines = _surface_text(target)
    lines.append("spec: valid")
    exit_code = EXIT_OK

    guard = kodaira_guard(args.h0_canonical, args.h0_pluricanonical)
    payload["kodaira"] = {
        "blocked": guard.blocked,
        "source": guard.source,
        "message": guard.message,
    }
    if guard.blocked:
        lines.append(f"kodaira guard: blocked ({guard.source}): {guard.message}")
        exit_code = EXIT_INAPPLICABLE
    else:
        lines.append("kodaira guard: pass")

    if isinstance(target, BrauerSeveriData):
        payload["index"] = _index_json(index((target.ind,)))
        lines.append(f"index: {target.ind}")
    else:
        polarized = target.polarized() if isinstance(target, ConicBundleData) else target
        degrees = polarized.surface.point_degrees
        idx = index(degrees)
        payload["index"] = _index_json(idx)
        lines.append(f"index: {idx}")
        payload["infinitely_nonempty"] = {
            str(d): infinitely_nonempty(polarized, d) for d in degrees
        }
        for d in degrees:
            lines.append(
                f"ranges nonempty for infinitely many e (d={d}): "
                f"{'yes' if infinitely_nonempty(polarized, d) else 'no'}"
            )
        if polarized.c1_dot_K < 0:
            d_min = min(degrees)
            d_prime = args.d_prime
            if d_prime is None and spec.blowup_cycles:
                d_prime = spec.blowup_cycles[0]
            cover = gap_coverage(polarized, d_min, d_prime)
            payload["coverage"] = {"coverable": cover.coverable, "reason": cover.reason}
            lines.append(
                f"coverage (d={d_min}): {cover.reason}"
                + ("" if cover.coverable else " (not covered)")
            )
        if args.e is not None and args.n is not None:
            d = args.d if args.d is not None else min(degrees)
            report = check_assumptions(polarized, args.e, d, args.n)
            payload["assumptions"] = {
                "e": args.e,
                "d": d,
                "n": args.n,
                "a2_holds": report.a2_holds,
                "a5_holds": report.a5_holds,
                "a1_a3_a4": report.a1_a3_a4,
                "h0": riemann_roch_h0(polarized, args.e),
                "genus": adjunction_genus(polarized, args.e),
            }
            lines.append(
                f"assumptions at e={args.e} d={d} n={args.n}: "
                f"a2={'yes' if report.a2_holds else 'no'} "
                f"a5={'yes' if report.a5_holds else 'no'} "
                f"a1/a3/a4={report.a1_a3_a4}"
            )

    if args.format == "machine":
        _emit_machine(payload)
    else:
        _emit(lines)
    return exit_code


# ------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    # the contract reserves exit code 2 for mathematical inapplicability,
    # so usage problems must leave with 1 instead of argparse's default
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hilbstab",
        description=(
            "Stable-birational equivalence ranges, class partitions, and the "
            "mod-L zeta form for Hilbert schemes of points on surfaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "machine"), default="text",
            help="output format (default text)",
        )

    def add_caveat(p):
        p.add_argument(
            "--assume-asymptotic", action="store_true",
            help="suppress the e >= e0 conditionality marker",
        )

    p_int = sub.add_parser("intervals", help="equivalence ranges, gaps, fillers")
    p_int.add_argument("spec", help="surface spec file (JSON)")
    p_int.add_argument("--e-min", type=int, default=1)
    p_int.add_argument("--e-max", type=int, default=None)
    p_int.add_argument("--d", type=int, default=None, help="cycle degree (default: min of points)")
    p_int.add_argument("--d-prime", type=int, default=None, help="blow-up cycle degree")
    add_format(p_int)
    add_caveat(p_int)
    p_int.set_defaults(func=_cmd_intervals)

    p_cls = sub.add_parser("classes", help="stable-birational class partition")
    p_cls.add_argument("spec")
    p_cls.add_argument("--e-min", type=int, default=1)
    p_cls.add_argument("--horizon", type=int, default=1000)
    p_cls.add_argument("--d-prime", type=int, default=None)
    add_format(p_cls)
    add_caveat(p_cls)
    p_cls.set_defaults(func=_cmd_classes)

    p_zeta = sub.add_parser("zeta", help="certified rational form of the class series")
    p_zeta.add_argument("spec")
    p_zeta.add_argument("--e-min", type=int, default=1)
    p_zeta.add_argument("--horizon", type=int, default=1000)
    p_zeta.add_argument("--d-prime", type=int, default=None)
    add_format(p_zeta)
    add_caveat(p_zeta)
    p_zeta.set_defaults(func=_cmd_zeta)

    p_goe = sub.add_parser("goettsche", help="Hilbert scheme classes and mod-L reductions")
    p_goe.add_argument("--n-max", type=int, default=3)
    add_format(p_goe)
    p_goe.set_defaults(func=_cmd_goettsche)

    p_chk = sub.add_parser("check", help="validate a spec and report diagnostics")
    p_chk.add_argument("spec")
    p_chk.add_argument("--e", type=int, default=None)
    p_chk.add_argument("--d", type=int, default=None)
    p_chk.add_argument("--n", type=int, default=None)
    p_chk.add_argument("--d-prime", type=int, default=None)
    p_chk.add_argument(
        "--h0-canonical", action="store_true",
        help="declare h0(X, omega_X) > 0",
    )
    p_chk.add_argument(
        "--h0-pluricanonical", action="store_true",
        help="declare a nonzero pluricanonical section (kappa >= 0)",
    )
    add_format(p_chk)
    p_chk.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (MethodInapplicableError, ParityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INAPPLICABLE
    except HorizonError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_HORIZON
    except HilbstabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
