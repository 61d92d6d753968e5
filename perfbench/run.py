"""knotsig benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The
workloads are in workloads.py and described in README.md.  Passes over a
workload's fixed query list repeat for --seconds (at least two passes).  One
driver process starts at most one child at a time: set-up children, the
in-process pass worker (torus workloads) or one CLI process per query.

With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of one traced pass plus the traced set-up.
The line before it holds the run's details: inputs, sample counts,
failures, machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layertrace
from worker import another_pass, reference_s
from workloads import (CLI_ORACLE_RANGE, WORKLOADS, Workload, cli_knots, cli_queries,
                       torus_order)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170
MAX_ERRORS_SHOWN = 10
# End-to-end times are given at the host speed where worker.reference_s()
# takes REFERENCE_S: a pass is scaled by REFERENCE_S over the median of the
# reference times measured before each of its queries, a set-up by its own.
# On a shared 2-core x86 host the speed drifted by a third between runs a
# minute apart; the reference follows it.  Raw wall times are in the details.
REFERENCE_S = 0.040


class Run:
    """State of one benchmark run: paths, environment, failures."""

    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = ROOT / ".bench_build" / "perfbench" / f"{workload.name}-{seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def child(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)

    def worker(self, *args: str) -> dict:
        proc = self.child([str(HERE / "worker.py"), *args])
        if proc.returncode != 0:
            raise RuntimeError(f"worker {args[0]} failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{label}: {e}" for e in errors)

    def setup_s(self) -> tuple[float, list[float]]:
        """Median scaled set-up time over fresh processes, and the raw times."""
        runs = [self.worker("setup", str(self.work)) for _ in range(SETUP_REPEATS)]
        return (statistics.median(r["setup_s"] * REFERENCE_S / r["ref_s"] for r in runs),
                [r["setup_s"] for r in runs])


def run_torus(run: Run) -> dict:
    queries = torus_order(run.workload, run.seed)
    (run.work / "inputs.json").write_text(json.dumps(
        {"expressions": [q.expression for q in queries],
         "nonbalanced": run.workload.nonbalanced}))
    setup_s, setup_walls = (None, None) if run.trace else run.setup_s()
    args = ["passes", str(run.work), str(run.seconds)] + (["--trace"] if run.trace else [])
    out = run.worker(*args)
    first = out["passes"][0]["digests"]
    for i, (q, summary) in enumerate(zip(queries, out["summaries"])):
        errors = checks.check_torus(q.summands, summary, run.workload.nonbalanced)
        for record in out["passes"]:
            again = [] if record["digests"][i] == first[i] else ["output differs from pass 1"]
            run.record(q.expression, errors + again)
    labels = [q.expression for q in queries]
    return {"setup_s": setup_s, "setup_walls_s": setup_walls,
            "setup_trace": out.get("setup_trace"),
            "passes": out["passes"], "inputs": labels, "labels": labels}


def run_cli(run: Run) -> dict:
    knots = cli_knots(run.workload, run.seed)
    (run.work / "inputs.json").write_text(json.dumps({"knots": knots}))
    if run.trace:
        setup_s, setup_walls = None, None
        setup_trace = run.worker("setup", str(run.work), "--trace")["setup_trace"]
    else:
        (setup_s, setup_walls), setup_trace = run.setup_s(), None
    queries = cli_queries(knots, str(run.work / "knotsig.cfg"))
    by_name = {k["name"]: k for k in knots}
    reference: dict[str, str] = {}
    passes: list[dict] = []
    deadline = time.perf_counter() + run.seconds
    while another_pass([p["wall_s"] for p in passes], deadline):
        traced = run.trace and len(passes) % 2 == 1
        record = {"traced": traced, "latencies": [], "metrics": {}, "startup_s": 0.0,
                  "layers_by_query": {}, "refs": []}
        procs = []
        t_pass = time.perf_counter()
        for i, (label, argv) in enumerate(queries):
            spans = run.work / f"spans-cli-{i}.json"
            if traced:
                cmd = [str(HERE / "worker.py"), "cli", str(spans), "--", *argv]
            else:
                cmd = ["-m", "knotsig.cli", *argv]
            record["refs"].append(reference_s())
            t0 = time.perf_counter()
            procs.append(run.child(cmd))
            record["latencies"].append(time.perf_counter() - t0)
        record["wall_s"] = time.perf_counter() - t_pass - sum(record["refs"])
        # outputs are checked and traces read after the pass, outside its time
        for i, ((label, _argv), proc, wall) in enumerate(zip(queries, procs, record["latencies"])):
            run.record(label, check_query(label, proc, reference, by_name))
            if traced and proc.returncode == 0:
                phase = json.loads((run.work / f"spans-cli-{i}.json").read_text())[0]
                metrics = layertrace.phase_metrics(phase)
                record["metrics"] = layertrace.add_metrics(record["metrics"], metrics)
                record["startup_s"] += wall - phase["wall_s"]
                record["layers_by_query"][label] = dict(
                    {layer: metrics[f"{layer}.self_s"] for layer in layertrace.LAYERS},
                    startup=wall - phase["wall_s"])
        passes.append(record)
    inputs = [{"name": k["name"], "size": len(k["matrix"]),
               "alexander_degree": k["alexander_degree"], "circle_roots": k["circle_roots"]}
              for k in knots]
    return {"setup_s": setup_s, "setup_walls_s": setup_walls,
            "setup_trace": setup_trace, "passes": passes,
            "inputs": inputs, "labels": [label for label, _argv in queries]}


def check_query(label: str, proc, reference: dict, knots: dict) -> list[str]:
    """Errors of one CLI query: exit code, then the output's own check the
    first time the query runs and byte equality with that output after."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    if label in reference:
        return [] if proc.stdout == reference[label] else ["output differs from pass 1"]
    reference[label] = proc.stdout
    kind, _, name = label.partition(":")
    text = proc.stdout
    if kind == "oracle":
        return checks.check_oracle(text, CLI_ORACLE_RANGE)
    knot = knots[name]
    if kind == "bounds":
        return checks.check_bounds(text, knot["matrix"], knot["circle_roots"])
    return checks.check_svg(text, knot["circle_roots"])


def speed_scale(record: dict) -> float:
    """The factor that brings a pass's wall times to the reference speed."""
    return REFERENCE_S / statistics.median(record["refs"])


def end_to_end(result: dict) -> tuple[dict, dict]:
    """Medians over the run's passes.  A run has a few passes of 4 to 10
    queries, too few samples for a percentile with ten samples beyond it, so
    the tail is the slowest query's median latency."""
    passes = result["passes"]
    scales = [speed_scale(p) for p in passes]
    latencies = [[x * f for x in p["latencies"]] for p, f in zip(passes, scales)]
    per_query = [statistics.median(xs) for xs in zip(*latencies)]
    slowest = max(range(len(per_query)), key=per_query.__getitem__)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "setup_s": (result["setup_s"], "s"),
        "pass_s": (statistics.median(p["wall_s"] * f for p, f in zip(passes, scales)), "s"),
        "latency_p50_s": (statistics.median(per_query), "s"),
        "latency_tail_s": (per_query[slowest], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    details = {"latency_tail_query": result["labels"][slowest],
               "latency_samples_per_query": len(passes),
               "speed_scales": scales,
               "setup_walls_s": result["setup_walls_s"],
               "pass_walls_s": [p["wall_s"] for p in passes],
               "latencies_s": [p["latencies"] for p in passes],
               "reference_s": [p["refs"] for p in passes]}
    return metrics, details


def per_layer(result: dict) -> tuple[dict, dict]:
    passes = result["passes"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in traced]
    chosen = next(p for p in traced if p["wall_s"] == statistics.median_low(walls))
    setup = result["setup_trace"]
    merged = layertrace.add_metrics(setup["metrics"], chosen["metrics"])
    startup = chosen.get("startup_s", 0.0)
    wall = setup["wall_s"] + chosen["wall_s"]
    own = sum(merged[f"{layer}.self_s"] for layer in layertrace.LAYERS)
    metrics = {name: (value, _layer_unit(name, value)) for name, value in merged.items()}
    metrics["cli.startup_s"] = (startup, "s")
    metrics["trace.pass_s"] = (chosen["wall_s"], "s")
    metrics["trace.overhead_s"] = (  # scaled: traced and untraced passes run at different speeds
        statistics.median(p["wall_s"] * speed_scale(p) for p in traced)
        - statistics.median(p["wall_s"] * speed_scale(p) for p in plain), "s")
    metrics["trace.unattributed_s"] = (wall - own - startup, "s")
    details = {"traced_wall_s": wall, "self_time_share": (own + startup) / wall,
               "untraced_pass_walls_s": [p["wall_s"] for p in plain],
               "traced_pass_walls_s": walls}
    if chosen.get("layers_by_query"):
        details["self_s_by_query"] = chosen["layers_by_query"]
    return metrics, details


def _layer_unit(name: str, value) -> str:
    if name == "factor.max_degree":
        return "degree"
    return "count" if isinstance(value, int) else "s"


def git_rev() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, no git call)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def measure(workload: Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(result line, details line) of one run."""
    run = Run(workload, seed, seconds, trace)
    result = run_torus(run) if workload.kind == "torus" else run_cli(run)
    metrics, details = per_layer(result) if trace else end_to_end(result)
    details.update({
        "workload": workload.name, "seed": seed, "passes": len(result["passes"]),
        "inputs": result["inputs"], "attempted": run.attempted, "failed": run.failed,
        "failed_ratio": run.failed / run.attempted, "errors": run.errors[:MAX_ERRORS_SHOWN],
        "nproc": os.cpu_count(), "python": platform.python_version(), "git_rev": git_rev(),
    })
    line = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
    return line, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "knotsig" / "__init__.py").is_file():
        print(f"perfbench: no knotsig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    line, details = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
