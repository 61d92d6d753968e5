"""Tests of the benchmark itself: shortened workloads, metric names, checkers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import TorusQuery, Workload, cli_knots, int_det, torus_order  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "torus_plateaus": Workload("torus_small", "torus", nonbalanced=False, queries=(
        TorusQuery("T(2,5) # -T(3,4)", ((1, 2, 5), (-1, 3, 4))),
        TorusQuery("T(2,7)", ((1, 2, 7),)),
    )),
    "torus_nonbalanced": Workload("torus_small_nb", "torus", nonbalanced=True, queries=(
        TorusQuery("T(3,4)", ((1, 3, 4),)),
        TorusQuery("T(2,5)", ((1, 2, 5),)),
    )),
    "cli_generic": Workload("cli_small", "cli", sizes=(6, 8), root_counts=(1,)),
}


def _names(kind: str) -> list[str]:
    return [m["name"] for m in BENCH[kind]]


def test_benchmark_file_names_every_workload():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert set(SMALL) == set(run.WORKLOADS)


@pytest.mark.parametrize("name", list(SMALL))
def test_shortened_run_reports_every_metric(name):
    line, details = run.measure(SMALL[name], seed=3, seconds=1, trace=False)
    assert line["correct"], details["errors"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == _names("end_to_end")  # same order as the file
    assert all(m["value"] > 0 for m in line["metrics"].values())
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_runs_report_every_layer_and_repeat_counts(name):
    first, details = run.measure(SMALL[name], seed=3, seconds=1, trace=True)
    second, _ = run.measure(SMALL[name], seed=3, seconds=1, trace=True)
    assert first["correct"], details["errors"]
    assert sorted(first["metrics"]) == sorted(_names("per_layer"))
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    counts = [k for k, v in first["metrics"].items() if v["unit"] != "s"]
    assert counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert 0.9 < details["self_time_share"] <= 1.0


def test_end_to_end_times_are_scaled_by_the_reference_speed():
    slow = {"wall_s": 6.0, "latencies": [1.0, 5.0], "refs": [2 * run.REFERENCE_S] * 2}
    fast = {"wall_s": 3.0, "latencies": [0.5, 2.5], "refs": [run.REFERENCE_S] * 2}
    result = {"setup_s": 0.1, "setup_walls_s": [0.1], "labels": ["a", "b"],
              "passes": [slow, fast, slow]}
    metrics, details = run.end_to_end(result)
    assert metrics["pass_s"][0] == pytest.approx(3.0)
    assert metrics["latency_tail_s"][0] == pytest.approx(2.5)
    assert metrics["latency_p50_s"][0] == pytest.approx(1.5)
    assert details["latency_tail_query"] == "b"
    assert details["pass_walls_s"] == [6.0, 3.0, 6.0]


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "torus_plateaus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# -- the checkers reject corrupted outputs ----------------------------------

def test_litherland_classical_signatures():
    half = Fraction(1, 2)
    assert checks.litherland(2, 3, half) == (-2, 0)
    assert checks.litherland(2, 5, half) == (-4, 0)
    assert checks.litherland(3, 4, half) == (-6, 0)
    assert checks.litherland(3, 5, half) == (-8, 0)


def _torus_summary(expression: str, nonbalanced: bool) -> dict:
    import knotsig

    sf = knotsig.step_function(knotsig.resolve(expression), include_nonbalanced=nonbalanced)
    return {"plateaus": list(sf.plateaus),
            "breakpoints": [{"t": str(bp.root.exact_t), "jump": bp.jump,
                             "balanced2": bp.balanced2, "nonbalanced": bp.nonbalanced}
                            for bp in sf.breakpoints]}


def test_torus_checker_rejects_corruptions():
    summands = ((1, 3, 4), (-1, 2, 5))
    good = _torus_summary("T(3,4) # -T(2,5)", nonbalanced=True)
    assert checks.check_torus(summands, good, nonbalanced=True) == []

    flipped = copy.deepcopy(good)
    k = next(i for i, p in enumerate(flipped["plateaus"]) if p != 0)
    flipped["plateaus"][k] = -flipped["plateaus"][k]
    assert checks.check_torus(summands, flipped, nonbalanced=True)

    wrong_nb = copy.deepcopy(good)
    wrong_nb["breakpoints"][0]["nonbalanced"] += 2
    assert checks.check_torus(summands, wrong_nb, nonbalanced=True)

    moved = copy.deepcopy(good)
    moved["breakpoints"][0]["t"] = "1/1000"
    assert checks.check_torus(summands, moved, nonbalanced=True)

    wrong_jump = copy.deepcopy(good)
    wrong_jump["breakpoints"][-1]["jump"] += 1
    assert checks.check_torus(summands, wrong_jump, nonbalanced=True)

    assert checks.check_torus(summands, {"error": "boom"}, nonbalanced=True)


def _cli(argv: list[str]) -> str:
    from knotsig.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def generic_knot(tmp_path_factory):
    knot = next(k for k in cli_knots(SMALL["cli_generic"], 5) if k["circle_roots"] >= 1)
    d = tmp_path_factory.mktemp("cli")
    (d / "table.json").write_text(json.dumps([{"name": knot["name"], "matrix": knot["matrix"]}]))
    (d / "k.cfg").write_text(f"table_path={d / 'table.json'}\n")
    base = ["--config", str(d / "k.cfg")]
    bounds = _cli(base + ["bounds", knot["name"], "--format", "json", "--precision", "20"])
    svg = _cli(base + ["signature", knot["name"], "--format", "svg"])
    return knot, bounds, svg


def test_bounds_checker_rejects_corruptions(generic_knot):
    knot, text, _svg = generic_knot
    rows, roots = knot["matrix"], knot["circle_roots"]
    assert checks.check_bounds(text, rows, roots) == []
    doc = json.loads(text)
    root = doc["factors"][0]["roots"][0]

    def corrupt(edit) -> list[str]:
        d = copy.deepcopy(doc)
        edit(d, d["factors"][0]["roots"][0])
        return checks.check_bounds(json.dumps(d), rows, roots)

    def flip_plateau(d, r):
        r["jump"], r["balanced_x2"] = -r["jump"], -r["balanced_x2"]

    if root["jump"] or root["balanced_x2"]:
        assert corrupt(flip_plateau)
    assert corrupt(lambda d, r: r.update(nonbalanced=r["nonbalanced"] + 2))
    assert corrupt(lambda d, r: r.update(jump=r["jump"] + 1))
    assert corrupt(lambda d, r: d.update(u2=2 * d["u1"] + 1))
    assert corrupt(lambda d, r: d["factors"][0]["roots"].pop())
    assert checks.check_bounds("{not json", rows, roots)


def test_oracle_and_svg_checkers_reject_corruptions(generic_knot):
    knot, _text, svg = generic_knot
    text = _cli(["oracle-check", "--range", "4", "--format", "json"])
    assert checks.check_oracle(text, 4) == []
    doc = json.loads(text)
    assert checks.check_oracle(json.dumps(dict(doc, states_checked=doc["states_checked"] - 1)), 4)
    assert checks.check_oracle(json.dumps(dict(doc, ok=False)), 4)

    assert checks.check_svg(svg, knot["circle_roots"]) == []
    assert checks.check_svg(svg, knot["circle_roots"] + 1)
    assert checks.check_svg(svg.replace("</svg>", ""), knot["circle_roots"])


def test_query_check_rejects_exit_codes_and_changed_bytes(generic_knot):
    knot, text, _svg = generic_knot
    knots = {knot["name"]: knot}
    label = f"bounds:{knot['name']}"
    ok = subprocess.CompletedProcess([], 0, text, "")
    reference: dict = {}
    assert run.check_query(label, ok, reference, knots) == []
    assert run.check_query(label, ok, reference, knots) == []
    changed = subprocess.CompletedProcess([], 0, text + " ", "")
    assert run.check_query(label, changed, reference, knots)
    crashed = subprocess.CompletedProcess([], 1, "", "knotsig bounds: error")
    assert run.check_query(label, crashed, {}, knots)


def test_inputs_follow_the_seed():
    w = run.WORKLOADS["torus_plateaus"]
    assert torus_order(w, 7) == torus_order(w, 7)
    small = SMALL["cli_generic"]
    assert cli_knots(small, 4) == cli_knots(small, 4)
    assert cli_knots(small, 4) != cli_knots(small, 5)
    for k in cli_knots(small, 4):
        n = len(k["matrix"])
        skew = [[k["matrix"][i][j] - k["matrix"][j][i] for j in range(n)] for i in range(n)]
        assert int_det(skew) == 1
        assert k["circle_roots"] >= 1
