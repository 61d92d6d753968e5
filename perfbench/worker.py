"""Child processes of the benchmark.

    worker.py setup  WORKDIR [--trace]     time import + input construction
    worker.py passes WORKDIR SECONDS [--trace]
                                           in-process step_function passes
    worker.py cli SPANS -- ARGV...         knotsig.cli.main(ARGV) under tracing

Inputs come from WORKDIR/inputs.json, written by run.py.  Each mode prints
one JSON object on its last stdout line (`cli` leaves stdout to the CLI and
writes its phase to SPANS instead).
"""

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layertrace  # noqa: E402

MIN_PASSES = 2  # two outputs to compare, and one traced and one untraced pass


def reference_s() -> float:
    """Wall time of a fixed piece of pure-Python Fraction arithmetic, the
    kind of work the exact elimination does.  run.py measures it beside the
    timed work to follow the speed of a shared host."""
    from fractions import Fraction

    t0 = time.perf_counter()
    for _ in range(6):
        acc = Fraction(0)
        for i in range(1, 1500):
            acc += Fraction(i * i % 97, i)
    return time.perf_counter() - t0


def another_pass(walls: list[float], deadline: float) -> bool:
    """Whether to start one more pass: always until MIN_PASSES have run,
    then while a pass as long as the last one would end by the deadline."""
    return len(walls) < MIN_PASSES or time.perf_counter() + walls[-1] <= deadline


def _traced(argv) -> tuple[layertrace.Tracer | None, list]:
    if "--trace" in argv:
        argv = [a for a in argv if a != "--trace"]
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        return tracer, argv
    return None, argv


def _build_inputs(inputs: dict, work: Path) -> list | None:
    """What a user does before the first query: resolve expressions (the
    matrices are returned), or validate matrices and write the table file."""
    import knotsig

    if "expressions" in inputs:
        return [knotsig.resolve(e) for e in inputs["expressions"]]
    for k in inputs["knots"]:
        knotsig.SeifertMatrix(k["matrix"])
    table = [{"name": k["name"], "matrix": k["matrix"]} for k in inputs["knots"]]
    (work / "table.json").write_text(json.dumps(table))
    (work / "knotsig.cfg").write_text(f"table_path={work / 'table.json'}\n")
    return None


def setup_main(argv) -> dict:
    import knotsig  # noqa: F401  (import is part of set-up)

    tracer, argv = _traced(argv)
    work = Path(argv[0])
    inputs = json.loads((work / "inputs.json").read_text())
    if tracer is not None:
        tracer.start_phase()
    _build_inputs(inputs, work)
    out = {"setup_s": time.perf_counter() - T_START, "ref_s": reference_s()}
    if tracer is not None:
        phase = tracer.end_phase()
        _write_phases(work / "spans-setup.json", [phase])
        out["setup_trace"] = {"wall_s": phase["wall_s"],
                              "metrics": layertrace.phase_metrics(phase)}
    return out


def _summary(sf) -> dict:
    return {
        "plateaus": list(sf.plateaus),
        "breakpoints": [
            {"t": None if bp.root.exact_t is None else str(bp.root.exact_t),
             "jump": bp.jump, "balanced2": bp.balanced2, "nonbalanced": bp.nonbalanced}
            for bp in sf.breakpoints],
    }


def passes_main(argv) -> dict:
    """Passes until SECONDS after the start (at least MIN_PASSES).  Pass k
    runs traced when tracing is on and k is odd, so traced and untraced
    passes alternate after the first (cold) one."""
    import knotsig.signature

    tracer, argv = _traced(argv)
    work, deadline = Path(argv[0]), time.perf_counter() + float(argv[1])
    inputs = json.loads((work / "inputs.json").read_text())
    nonbalanced = inputs["nonbalanced"]
    out: dict = {"passes": []}
    phases = []
    if tracer is not None:
        tracer.start_phase()
    matrices = _build_inputs(inputs, work)
    if tracer is not None:
        phase = tracer.end_phase()
        phases.append(phase)
        out["setup_trace"] = {"wall_s": phase["wall_s"],
                              "metrics": layertrace.phase_metrics(phase)}
    while another_pass([p["wall_s"] for p in out["passes"]], deadline):
        k = len(out["passes"])
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.start_phase()
        latencies, summaries, refs = [], [], []
        t_pass = time.perf_counter()
        for V in matrices:
            refs.append(reference_s())
            t0 = time.perf_counter()
            try:
                sf = knotsig.signature.step_function(V, include_nonbalanced=nonbalanced)
                summary = _summary(sf)
            except Exception as e:  # a failed query is counted, the pass goes on
                summary = {"error": repr(e)}
            latencies.append(time.perf_counter() - t0)
            summaries.append(summary)
        record = {"wall_s": time.perf_counter() - t_pass - sum(refs), "traced": traced,
                  "latencies": latencies, "refs": refs,
                  "digests": [_digest(json.dumps(s, sort_keys=True)) for s in summaries]}
        if traced:
            phase = tracer.end_phase()
            phases.append(phase)
            record["metrics"] = layertrace.phase_metrics(phase)
        if k == 0:
            out["summaries"] = summaries
        out["passes"].append(record)
    if phases:
        _write_phases(work / "spans-passes.json", phases)
    return out


def cli_main(argv) -> int:
    """Run the CLI under tracing; the phase (main only) goes to argv[0]."""
    spans_path = Path(argv[0])
    cli_argv = argv[argv.index("--") + 1:]
    import knotsig.cli

    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    tracer.start_phase()
    try:
        rc = knotsig.cli.main(cli_argv)
    finally:
        phase = tracer.end_phase()
        sys.stdout.flush()
        _write_phases(spans_path, [phase])
    return rc


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_phases(path: Path, phases: list) -> None:
    path.write_text(json.dumps(phases))


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(cli_main(rest))
    result = setup_main(rest) if mode == "setup" else passes_main(rest)
    print(json.dumps(result))
