"""End-to-end command tests: golden outputs, exit codes, spec validation."""

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import hilbstab

from hilbstab import (
    BrauerSeveriData,
    ConicBundleData,
    PolarizedSurface,
    ValidationError,
    main,
    parse_surface_spec,
)

P2_DOC = {
    "name": "projective plane",
    "K_sq": 9,
    "h2": 0,
    "line_bundle": {"c1_sq": 1, "c1_dot_K": -3, "ample_asserted": True},
    "points": [1],
}
DP1_DOC = {
    "name": "del pezzo degree 1",
    "K_sq": 1,
    "h2": 0,
    "line_bundle": {"c1_sq": 1, "c1_dot_K": -1, "ample_asserted": True},
    "points": [1],
    "blowup_cycles": [2],
}
BS3_DOC = {"name": "severi-brauer of index 3", "brauer_severi": {"ind": 3}}
CONIC_DOC = {
    "name": "conic bundle",
    "conic": {"r": 9, "delta": 1, "m": 1, "a": 1},
    "points": [1],
}
K3_DOC = {
    "name": "k3-like",
    "K_sq": 0,
    "h2": 1,
    "line_bundle": {"c1_sq": 2, "c1_dot_K": 0},
    "points": [1],
}


@pytest.fixture
def spec(tmp_path):
    def write(doc, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


class TestSpecParsing:
    def test_polarized(self, spec):
        target = parse_surface_spec(spec(P2_DOC))
        assert isinstance(target, PolarizedSurface)
        assert (target.c1_sq, target.c1_dot_K, target.K_sq, target.h2) == (1, -3, 9, 0)
        assert target.name == "projective plane"

    def test_conic(self, spec):
        target = parse_surface_spec(spec(CONIC_DOC))
        assert isinstance(target, ConicBundleData)
        assert (target.r, target.delta, target.m, target.a) == (9, 1, 1, 1)

    def test_brauer_severi(self, spec):
        target = parse_surface_spec(spec(BS3_DOC))
        assert isinstance(target, BrauerSeveriData)
        assert target.ind == 3

    def test_char_zero_default_true(self, spec):
        assert parse_surface_spec(spec(P2_DOC)).surface.char_zero is True

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(conic={"r": 9, "delta": 1, "m": 1, "a": 1}),
            lambda d: d.pop("line_bundle"),
            lambda d: d.update(extra_field=1),
            lambda d: d["line_bundle"].update(twist=2),
            lambda d: d["line_bundle"].update(c1_dot_K=-2),
            lambda d: d.pop("K_sq"),
            lambda d: d.pop("h2"),
            lambda d: d.update(points=[]),
            lambda d: d.update(points=[0]),
            lambda d: d.update(points=[1.5]),
            lambda d: d.update(blowup_cycles=[0]),
            lambda d: d.update(h2="zero"),
            lambda d: d.update(char_zero=1),
        ],
    )
    def test_rejects_malformed(self, spec, mutate):
        doc = json.loads(json.dumps(P2_DOC))
        mutate(doc)
        with pytest.raises(ValidationError):
            parse_surface_spec(spec(doc))

    def test_rejects_wrong_constants_for_brauer_severi(self, spec):
        doc = dict(BS3_DOC)
        doc["K_sq"] = 8
        with pytest.raises(ValidationError):
            parse_surface_spec(spec(doc))

    def test_rejects_wrong_K_sq_for_conic(self, spec):
        doc = json.loads(json.dumps(CONIC_DOC))
        doc["K_sq"] = 5
        with pytest.raises(ValidationError):
            parse_surface_spec(spec(doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_surface_spec(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            parse_surface_spec(str(path))

    def test_top_level_array(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1,2]")
        with pytest.raises(ValidationError):
            parse_surface_spec(str(path))


class TestIntervalsCommand:
    def test_plane_table(self, spec, capsys):
        code = main(["intervals", spec(P2_DOC), "--e-min", "3", "--e-max", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "surface: projective plane" in out
        assert "[1,7]" in out and "[3,12]" in out and "[6,18]" in out
        assert "coverage: overlap" in out
        assert "(valid for e >= e0)" in out

    def test_caveat_suppressed(self, spec, capsys):
        main(
            [
                "intervals", spec(P2_DOC), "--e-min", "3", "--e-max", "5",
                "--assume-asymptotic",
            ]
        )
        assert "(valid for e >= e0)" not in capsys.readouterr().out

    def test_plane_machine(self, spec, capsys):
        code = main(
            ["intervals", spec(P2_DOC), "--e-min", "3", "--e-max", "5",
             "--format", "machine"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "intervals"
        assert payload["d"] == 1 and payload["d_prime"] is None
        assert payload["rows"][0]["e"] == 3
        assert payload["rows"][0]["interval"] == {"lo": 1, "hi": 7, "empty": False}
        assert payload["rows"][1]["interval"] == {"lo": 3, "hi": 12, "empty": False}
        assert payload["coverage"] == {"coverable": True, "reason": "overlap"}

    def test_del_pezzo_blowup_column(self, spec, capsys):
        code = main(
            ["intervals", spec(DP1_DOC), "--e-min", "7", "--e-max", "8",
             "--format", "machine"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["d_prime"] == 2
        rows = {row["e"]: row for row in payload["rows"]}
        assert rows[7]["gap"] == {"lo": 27, "hi": 28, "empty": False}
        assert rows[8]["blowup"] == {"lo": 27, "hi": 28, "empty": False}
        assert payload["coverage"] == {"coverable": True, "reason": "blowup-fill"}

    def test_del_pezzo_without_cycles_reports_shortfall(self, spec, capsys):
        doc = json.loads(json.dumps(DP1_DOC))
        del doc["blowup_cycles"]
        code = main(["intervals", spec(doc), "--format", "machine"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coverage"]["coverable"] is False
        assert payload["coverage"]["reason"] == "blowup-fill"
        assert "none supplied" in payload["coverage"]["detail"]

    def test_nef_canonical_is_inapplicable(self, spec, capsys):
        code = main(["intervals", spec(K3_DOC), "--format", "machine"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["coverage"]["reason"] == "inapplicable"
        assert all(row["interval"]["empty"] for row in payload["rows"])

    def test_growing_gaps_exit(self, spec, capsys):
        doc = {
            "K_sq": 0,
            "h2": 0,
            "line_bundle": {"c1_sq": 6, "c1_dot_K": -2},
        }
        code = main(["intervals", spec(doc), "--format", "machine"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["coverage"]["reason"] == "growing-gaps"

    def test_conic_shows_twisted_column(self, spec, capsys):
        code = main(
            ["intervals", spec(CONIC_DOC), "--e-min", "2", "--e-max", "2",
             "--format", "machine"]
        )
        payload = json.loads(capsys.readouterr().out)
        row = payload["rows"][0]
        assert row["twist_floor"] == 2
        assert row["twisted"] == {"lo": 12, "hi": 15, "empty": False}
        # untwisted ranges on this conic have growing gaps; twists are
        # what actually stitch, which the classes command handles
        assert code == 2
        assert payload["coverage"]["reason"] == "growing-gaps"

    def test_brauer_severi_rejected(self, spec, capsys):
        code = main(["intervals", spec(BS3_DOC)])
        assert code == 2
        assert "classes" in capsys.readouterr().err

    def test_bad_e_range(self, spec, capsys):
        assert main(["intervals", spec(P2_DOC), "--e-min", "0"]) == 1
        assert main(["intervals", spec(P2_DOC), "--e-min", "5", "--e-max", "3"]) == 1

    def test_custom_d(self, spec, capsys):
        code = main(
            ["intervals", spec(P2_DOC), "--e-min", "4", "--e-max", "4",
             "--d", "2", "--format", "machine"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["d"] == 2
        assert payload["rows"][0]["interval"] == {"lo": 3, "hi": 10, "empty": False}


class TestClassesCommand:
    def test_del_pezzo_text(self, spec, capsys):
        code = main(["classes", spec(DP1_DOC), "--horizon", "2000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pipeline: interval" in out
        assert "index: 1 = 1*1" in out
        assert "classes: n0=22 period=1 certified=yes" in out
        assert "eventual classes: 22" in out
        assert (
            "label runs: 0->0 1->1 2->2 3->3 4-5->4 6->6 7-9->7 10->10 "
            "11-14->11 15->15 16-21->16 22-2000->22" in out
        )
        assert "(valid for e >= e0)" in out

    def test_del_pezzo_machine(self, spec, capsys):
        code = main(
            ["classes", spec(DP1_DOC), "--horizon", "2000", "--format", "machine"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pipeline"] == "interval"
        assert (payload["n0"], payload["period"], payload["certified"]) == (22, 1, True)
        assert payload["eventual_labels"] == [22]
        assert payload["conditional"] is True
        assert payload["index"] == {"g": 1, "combination": [[1, 1]]}
        assert payload["label_runs"][-1] == [22, 2000, 22]

    def test_horizon_too_small(self, spec, capsys):
        code = main(["classes", spec(DP1_DOC), "--horizon", "23"])
        out = capsys.readouterr().out
        assert code == 3
        assert "certified=no" in out
        assert "certificate shortfall" in out

    def test_brauer_severi(self, spec, capsys):
        code = main(["classes", spec(BS3_DOC), "--horizon", "10", "--format", "machine"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pipeline"] == "brauer_severi"
        assert (payload["n0"], payload["period"]) == (1, 3)
        assert payload["eventual_labels"] == [1, 1, 3]
        assert payload["conditional"] is False
        assert payload["label_runs"][:5] == [
            [0, 0, 0], [1, 2, 1], [3, 3, 3], [4, 5, 1], [6, 6, 3],
        ]

    def test_brauer_severi_unconditional_no_caveat(self, spec, capsys):
        main(["classes", spec(BS3_DOC), "--horizon", "10"])
        assert "(valid for e >= e0)" not in capsys.readouterr().out

    def test_conic(self, spec, capsys):
        code = main(
            ["classes", spec(CONIC_DOC), "--e-min", "2", "--horizon", "2000",
             "--format", "machine"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pipeline"] == "conic"
        assert payload["starts"] == {"1": 12}
        assert payload["twist_floors"] == {"1": 2}
        assert (payload["n0"], payload["period"], payload["certified"]) == (12, 1, True)

    def test_conic_text_mentions_stitching(self, spec, capsys):
        code = main(["classes", spec(CONIC_DOC), "--e-min", "2", "--horizon", "400"])
        out = capsys.readouterr().out
        assert code == 0
        assert "stitched from: d=1:12" in out

    def test_conic_closure_is_not_quadratic(self, spec, capsys):
        # one overlapping relation per fiber twist: a closure that unions
        # every relation point by point needs minutes here
        doc = {**CONIC_DOC, "points": [2, 3]}
        start = perf_counter()
        code = main(["classes", spec(doc), "--e-min", "2", "--horizon", "100000"])
        elapsed = perf_counter() - start
        assert code == 0
        assert "classes: n0=15 period=1 certified=yes" in capsys.readouterr().out.splitlines()
        assert elapsed < 10.0

    def test_growing_gaps_inapplicable(self, spec, capsys):
        doc = {"K_sq": 0, "h2": 0, "line_bundle": {"c1_sq": 6, "c1_dot_K": -2}}
        assert main(["classes", spec(doc)]) == 2

    def test_deterministic(self, spec, capsys):
        argv = ["classes", spec(DP1_DOC), "--horizon", "500", "--format", "machine"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestZetaCommand:
    def test_brauer_severi_closed_form(self, spec, capsys):
        code = main(["zeta", spec(BS3_DOC), "--horizon", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "zeta mod L = 1 + (c1*t + c1*t^2 + c3*t^3) / (1 - t^3)" in out
        assert "n0=1 period=3" in out
        assert "verified to order 60: yes" in out

    def test_brauer_severi_machine(self, spec, capsys):
        code = main(["zeta", spec(BS3_DOC), "--horizon", "60", "--format", "machine"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_form"] == "1 + (c1*t + c1*t^2 + c3*t^3) / (1 - t^3)"
        assert payload["head"] == ["1"]
        assert payload["tail"] == ["c1", "c1", "c3"]
        assert payload["verified"] is True
        assert payload["conditional"] is False

    def test_del_pezzo(self, spec, capsys):
        code = main(
            ["zeta", spec(DP1_DOC), "--horizon", "100", "--format", "machine"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["n0"], payload["period"]) == (22, 1)
        assert payload["tail"] == ["c22"]
        assert payload["verified"] is True

    def test_positive_characteristic_blocked(self, spec, capsys):
        doc = dict(BS3_DOC)
        doc["char_zero"] = False
        code = main(["zeta", spec(doc), "--horizon", "60"])
        assert code == 2
        assert "characteristic zero" in capsys.readouterr().err

    def test_uncertified_horizon(self, spec, capsys):
        code = main(["zeta", spec(DP1_DOC), "--horizon", "23"])
        assert code == 3
        assert "enlarge --horizon" in capsys.readouterr().err


class TestGoettscheCommand:
    def test_table_values(self, capsys):
        code = main(["goettsche", "--n-max", "3", "--format", "machine"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == [
            {"n": 0, "hilb": "1", "mod_L": "1"},
            {"n": 1, "hilb": "x", "mod_L": "x"},
            {"n": 2, "hilb": "s2 + x*L", "mod_L": "s2"},
            {"n": 3, "hilb": "s3 + x^2*L + x*L^2", "mod_L": "s3"},
        ]

    def test_text_table(self, capsys):
        code = main(["goettsche", "--n-max", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "s4 + s2*x*L + s2*L^2 + x^2*L^2 + x*L^3" in out
        assert out.splitlines()[0].startswith("n")

    def test_single_row(self, capsys):
        code = main(["goettsche", "--n-max", "0", "--format", "machine"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == [{"n": 0, "hilb": "1", "mod_L": "1"}]

    def test_negative_rejected(self, capsys):
        assert main(["goettsche", "--n-max", "-1"]) == 1


class TestCheckCommand:
    def test_del_pezzo_report(self, spec, capsys):
        code = main(["check", spec(DP1_DOC), "--e", "7", "--n", "23"])
        out = capsys.readouterr().out
        assert code == 0
        assert "spec: valid" in out
        assert "kodaira guard: pass" in out
        assert "index: 1 = 1*1" in out
        assert "ranges nonempty for infinitely many e (d=1): yes" in out
        assert "coverage (d=1): blowup-fill" in out
        assert "assumptions at e=7 d=1 n=23: a2=yes a5=yes a1/a3/a4=asymptotic-only" in out

    def test_machine_payload(self, spec, capsys):
        code = main(
            ["check", spec(DP1_DOC), "--e", "7", "--n", "13", "--format", "machine"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        assert payload["kodaira"]["blocked"] is False
        assert payload["infinitely_nonempty"] == {"1": True}
        assert payload["coverage"] == {"coverable": True, "reason": "blowup-fill"}
        assert payload["assumptions"]["a2_holds"] is True
        assert payload["assumptions"]["a5_holds"] is False
        assert payload["assumptions"]["genus"] == 22

    def test_litt_guard_blocks(self, spec, capsys):
        code = main(["check", spec(K3_DOC), "--h0-canonical"])
        out = capsys.readouterr().out
        assert code == 2
        assert "blocked (litt)" in out

    def test_wood_guard_blocks(self, spec, capsys):
        code = main(["check", spec(K3_DOC), "--h0-pluricanonical"])
        out = capsys.readouterr().out
        assert code == 2
        assert "blocked (wood)" in out

    def test_nef_canonical_reports_no(self, spec, capsys):
        code = main(["check", spec(K3_DOC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ranges nonempty for infinitely many e (d=1): no" in out

    def test_brauer_severi_report(self, spec, capsys):
        code = main(["check", spec(BS3_DOC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "index: 3" in out


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_arguments(self, capsys):
        assert main(["classes"]) == 1

    def test_unknown_flag(self, spec, capsys):
        assert main(["classes", spec(P2_DOC), "--frob"]) == 1

    def test_missing_spec_file(self, tmp_path, capsys):
        code = main(["classes", str(tmp_path / "ghost.json")])
        assert code == 1
        assert "cannot read spec file" in capsys.readouterr().err

    def test_validation_error_exit(self, spec, capsys):
        doc = json.loads(json.dumps(P2_DOC))
        doc["line_bundle"]["c1_dot_K"] = -2
        assert main(["classes", spec(doc)]) == 1
        assert "even" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(capsys):
    src = str(Path(hilbstab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "hilbstab", "goettsche", "--n-max", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert main(["goettsche", "--n-max", "2"]) == 0
    assert proc.stdout == capsys.readouterr().out
