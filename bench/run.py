"""bustrace benchmark: the real CLI on seeded synthetic workloads.

    python3 bench/run.py --workload city_day --seed 1 --seconds 15 --trace 0

Run from the repository root. Inputs come from bench/city.py and are
cached by seed under .bench_work/inputs; the CLI runs from ``src`` one
process at a time (``--jobs 1``), and only the generated NDJSON files
and config.json reach it.

--trace 0 measures the end-to-end metrics. A round runs the workload's
CLI invocations once (plus one spawn that only imports ``bustrace.cli``);
rounds repeat until the timed processes have run for --seconds, two
rounds at least. Checks, preparation and input generation are not timed.
  total_s      wall seconds from spawning each CLI invocation to its exit,
               summed over the round; median of the rounds
  peak_rss_mb  highest peak RSS of those processes (os.wait4)
  setup_s      wall seconds to start the interpreter and import
               bustrace.cli; median of one spawn per round, three at least
--trace 1 pairs an untraced round with a round of bench/trace.py, which
runs the same invocations in-process with timers around each layer, and
reports the per-layer metrics plus the tracing overhead: the wrapped calls
times the measured cost of one call through an empty wrapper.

Each process the benchmark starts and each output check is one operation;
it fails on a non-zero exit or a failed check. The last line of output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
INPUT_CACHE = WORK / "inputs"
MIN_ROUNDS = 2  # so that a slow first round cannot end a run on its own
MIN_SETUP_SPAWNS = 3
RANKED_PATH_SAMPLE = (0, 1)  # od_grid pairs compared with networkx

sys.path[:0] = [str(BENCH), str(SRC)]  # checks read the OD pairs through bustrace.synthetic
import checks  # noqa: E402
import city  # noqa: E402


@dataclass(frozen=True)
class Workload:
    inputs: str  # city.PROFILES key
    prepare: tuple[str, ...]  # untimed CLI stages whose artifacts the rounds start from
    steps: tuple[str, ...]  # timed CLI invocations of one round
    radius_m: float
    ranked_paths: bool = False


WORKLOADS = {
    "city_day": Workload("city_day", (), ("all",), city.CLUSTER_RADIUS_M),
    "od_grid": Workload("od_grid", (), ("all",), city.CLUSTER_RADIUS_M, ranked_paths=True),
    "radius_rerun": Workload("city_day", ("all",), ("cluster", "route"), city.RERUN_RADIUS_M),
}
# artifacts of detect and analyze, the only ones radius_rerun keeps from its preparation
PREPARED = (
    "validation.csv", "detected_itineraries.csv", "tags_by_category.csv", "tag_errors_by_category.csv",
    "availability_by_category.csv", "stop_daily_averages.csv",
)


class Ops:
    """Operations attempted and failed, with one line of output per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAIL {label}: " + "; ".join(errors), flush=True)
        return not errors


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run one process to its end: (wall seconds, peak RSS in MB, exit code)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_argv(step: str, config: Path, out: Path) -> list[str]:
    return ["-m", "bustrace", step, "--config", str(config), "--out", str(out), "--jobs", "1"]


def run_step(ops: Ops, argv: list[str], label: str, log: Path) -> tuple[float, float]:
    wall, rss, rc = spawn(argv, log)
    errors = [] if rc == 0 else [f"exit {rc}: {log.read_text(errors='replace').strip()[-300:]}"]
    ops.record(label, errors)
    return wall, rss


def ensure_inputs(name: str, seed: int) -> Path:
    """Generated inputs for (workload inputs, seed), made once and cached."""
    stamp = hashlib.sha256((BENCH / "city.py").read_bytes()).hexdigest()[:12]
    target = INPUT_CACHE / f"{name}-seed{seed}-{stamp}"
    if (target / "truth.json").is_file():
        return target
    partial = INPUT_CACHE / f".partial-{os.getpid()}"
    shutil.rmtree(partial, ignore_errors=True)
    city.write_workload(name, seed, partial)
    shutil.rmtree(target, ignore_errors=True)
    os.replace(partial, target)
    return target


def run_checks(ops: Ops, wl: Workload, inputs: Path, config: dict, out: Path, truth: dict) -> None:
    network = checks.Network(inputs)
    suite = [
        ("accepted trips are generated trips", lambda: checks.check_accepted_trips(out, truth)),
        ("fully observed trips are accepted", lambda: checks.check_complete_trips(out, truth)),
        ("observed times are true passages", lambda: checks.check_observed_times(out, truth)),
        ("interpolated times inside anchors", lambda: checks.check_interpolated_times(out, network)),
        ("availability equals brute force", lambda: checks.check_availability(out, network)),
        ("outliers follow Q3 + 1.5 IQR", lambda: checks.check_outliers(out, network)),
        ("cluster members within radius", lambda: checks.check_clusters(out, network, wl.radius_m)),
        ("OD distances are shortest paths", lambda: checks.check_routes(out, network, config)),
    ]
    if wl.ranked_paths:
        suite.append(("ranked paths equal networkx", lambda: checks.check_ranked_paths(
            out, network, config, list(RANKED_PATH_SAMPLE))))
    for label, check in suite:
        try:
            errors = check()
        except Exception as exc:  # a missing or malformed artifact fails the check, not the run
            errors = [f"{type(exc).__name__}: {exc}"]
        ok = ops.record(f"check {label}", errors)
        print(f"check {label}: {'ok' if ok else 'FAILED'}", flush=True)
    if ops.failed == 0:
        accepted, generated = checks.trip_recall(out, truth)
        print(f"accepted {accepted} of {generated} generated trips whose end stops were observed (not checked)")


class Run:
    """One benchmark run: its scratch directory, inputs, config and operations."""

    def __init__(self, workload: str, seed: int):
        self.wl = WORKLOADS[workload]
        self.ops = Ops()
        self.dir = WORK / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.inputs = ensure_inputs(self.wl.inputs, seed)
        self.config_path = self.dir / "config.json"
        city.write_config(self.inputs, self.config_path, city.PROFILES[self.wl.inputs], self.wl.radius_m)
        self.config = json.loads(self.config_path.read_text())
        self.truth = json.loads((self.inputs / "truth.json").read_text())
        self.prepared = self.dir / "prepared"
        self.prepared.mkdir()
        for step in self.wl.prepare:
            run_step(self.ops, [sys.executable, *cli_argv(step, self.config_path, self.prepared)],
                     f"prepare {step}", self.dir / "prepare.log")
        # Every round must write the same bytes: the first round's artifacts,
        # or, after a preparation, the prepared run's (stage by stage
        # reproduces `all`).
        self.reference = checks.digests(self.prepared) if self.wl.prepare else None
        self.checked = False

    def fresh_out(self, label: str) -> Path:
        out = self.dir / label
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        for name in PREPARED if self.wl.prepare else ():
            if (self.prepared / name).is_file():  # a failed preparation fails the round's steps
                shutil.copy2(self.prepared / name, out / name)
        return out

    def untraced_round(self, out: Path) -> tuple[float, float]:
        total, peak = 0.0, 0.0
        for step in self.wl.steps:
            wall, rss = run_step(self.ops, [sys.executable, *cli_argv(step, self.config_path, out)],
                                 step, self.dir / "step.log")
            total += wall
            peak = max(peak, rss)
        return total, peak

    def traced_round(self, out: Path) -> tuple[float, list[dict]]:
        total, spans = 0.0, []
        for index, step in enumerate(self.wl.steps):
            spans_path = self.dir / f"spans-{index}.json"
            argv = [sys.executable, str(BENCH / "trace.py"), str(spans_path), *cli_argv(step, self.config_path, out)[2:]]
            wall, _ = run_step(self.ops, argv, f"traced {step}", self.dir / "step.log")
            total += wall
            if spans_path.is_file():
                spans.append(json.loads(spans_path.read_text()))
        return total, spans

    def verify(self, out: Path) -> None:
        """Full checks on the first round; byte-identical artifacts on every round."""
        if not self.checked:
            run_checks(self.ops, self.wl, self.inputs, self.config, out, self.truth)
            self.checked = True
        if self.reference is None:
            self.reference = checks.digests(out)
        else:
            self.ops.record("artifacts identical across runs", checks.check_identical(self.reference, out))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def setup_spawn(run: Run) -> float:
    wall, _, rc = spawn([sys.executable, "-c", "import bustrace.cli"], run.dir / "setup.log")
    run.ops.record("import bustrace.cli", [] if rc == 0 else [f"exit {rc}"])
    return wall


def measure(run: Run, seconds: float) -> dict:
    totals, peaks, setups = [], [], []
    while len(totals) < MIN_ROUNDS or sum(totals) + sum(setups) < seconds:
        setups.append(setup_spawn(run))
        out = run.fresh_out("round")
        total, peak = run.untraced_round(out)
        totals.append(total)
        peaks.append(peak)
        run.verify(out)
    while len(setups) < MIN_SETUP_SPAWNS:
        setups.append(setup_spawn(run))
    print(f"rounds={len(totals)} total_s={[round(t, 3) for t in totals]} setup_s={[round(s, 3) for s in setups]}")
    return {
        "total_s": {"value": statistics.median(totals), "unit": "s"},
        "peak_rss_mb": {"value": max(peaks), "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it.

    With fewer than forty samples there is no tail; the median is reported
    as percentile 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 40:
        return 50.0, statistics.median(ordered) if ordered else 0.0
    pct = math.floor(100 * (n - 10) / n)
    return float(pct), ordered[math.ceil(pct * n / 100) - 1]


def layer_metrics(spans: list[dict], out: Path, fixes_lines: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round.

    `fixes_lines` is the number of records in the fixes file, counted once
    per run outside the traced processes, so that the ingest timers time
    only the program.
    """
    total, self_time, calls, counts = {}, {}, {}, {}
    samples: list[float] = []
    for span in spans:
        for src, dst in ((span["total"], total), (span["self"], self_time), (span["calls"], calls),
                         (span["counts"], counts)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
        samples += span["samples"].get("routing.evaluate_trip", [])

    def t(name):
        return total.get(name, 0.0)

    def s(name):
        return self_time.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    def n(name):
        return calls.get(name, 0)

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    tail_pct, tail = tail_percentile(samples)
    fixes_read = n("records.parse_vehicle_fixes") * fixes_lines
    return {
        "records.parse_fixes_s": (t("records.parse_vehicle_fixes"), "s"),
        "records.fixes_read": (fixes_read, "count"),
        "records.fixes_kept": (c("records.fixes_kept"), "count"),
        "records.fixes_per_s": (rate(fixes_read, t("records.parse_vehicle_fixes")), "1/s"),
        "records.group_s": (t("records.group_fixes"), "s"),
        "records.parse_network_s": (t("records.parse_lines") + t("records.parse_line_points"), "s"),
        "model.validate_s": (t("model.validate_dataset"), "s"),
        "matching.match_s": (t("matching.match_fixes"), "s"),
        "matching.match_calls": (n("matching.match_fixes"), "count"),
        "matching.fixes_matched": (c("matching.fixes"), "count"),
        "matching.marks": (c("matching.marks"), "count"),
        "matching.fixes_per_s": (rate(c("matching.fixes"), t("matching.match_fixes")), "1/s"),
        "detection.segment_s": (t("detection.segment_trips"), "s"),
        "detection.segments": (c("detection.segments"), "count"),
        "detection.detect_s": (t("detection.detect"), "s"),
        "detection.trips_accepted": (c("detection.accepted"), "count"),
        "detection.accept_ratio": (rate(c("detection.accepted"), n("detection.detect")), "ratio"),
        "detection.stops_interpolated": (c("detection.interpolated"), "count"),
        "detection.tag_report_s": (t("detection.tag_report"), "s"),
        "pipeline.detect_self_s": (s("pipeline.run_detection"), "s"),
        "pipeline.write_detection_s": (s("pipeline.write_detection_artifacts"), "s"),
        "pipeline.read_detection_s": (t("pipeline.read_detection_rows"), "s"),
        "pipeline.read_detection_calls": (n("pipeline.read_detection_rows"), "count"),
        "pipeline.rows_read": (c("pipeline.rows_read"), "count"),
        "pipeline.analyze_self_s": (s("pipeline.run_analyze"), "s"),
        "pipeline.cluster_self_s": (s("pipeline.run_cluster"), "s"),
        "pipeline.route_self_s": (s("pipeline.run_route"), "s"),
        "pipeline.artifact_bytes": (sum(p.stat().st_size for p in out.iterdir() if p.is_file()), "B"),
        "cli.import_s": (statistics.median(span["import_s"] for span in spans) if spans else 0.0, "s"),
        "cli.load_config_s": (t("cli.load_config"), "s"),
        "cli.manifest_s": (t("cli.write_manifest"), "s"),
        "analytics.window_counts_s": (t("analytics.moving_window_counts"), "s"),
        "analytics.window_count_calls": (n("analytics.moving_window_counts"), "count"),
        "analytics.availability_s": (t("analytics.build_availability"), "s"),
        "analytics.outliers_s": (t("analytics.find_outlier_stops"), "s"),
        "analytics.correlation_s": (t("analytics.correlation_matrix"), "s"),
        "analytics.sync_profile_s": (t("analytics.cluster_sync_profile"), "s"),
        "analytics.pearson_calls": (n("analytics.pearson"), "count"),
        "clustering.cluster_stops_s": (t("clustering.cluster_stops"), "s"),
        "clustering.clusters": (c("clustering.clusters"), "count"),
        "clustering.memberships": (c("clustering.memberships"), "count"),
        "clustering.cluster_stats_s": (t("clustering.cluster_stats"), "s"),
        "routing.build_graph_s": (t("routing.build_graph"), "s"),
        "routing.graph_nodes": (c("routing.graph_nodes"), "count"),
        "routing.graph_edges": (c("routing.graph_edges"), "count"),
        "routing.transfers_s": (t("routing.add_cluster_transfers"), "s"),
        "routing.transfer_edges": (c("routing.transfer_edges"), "count"),
        "routing.evaluate_od_s": (t("routing.evaluate_od"), "s"),
        "routing.trip_ms_p50": (1000 * statistics.median(samples) if samples else 0.0, "ms"),
        "routing.trip_ms_tail": (1000 * tail, "ms"),
        "routing.trip_tail_pct": (tail_pct, "%"),
        "routing.yen_calls": (n("routing.yen_k_shortest"), "count"),
        "routing.paths_ranked": (c("routing.paths_ranked"), "count"),
        "trace.wrapped_calls": (sum(calls.values()), "count"),
        # each wrapped call times the measured cost of one call through an empty wrapper
        "trace.overhead_s": (sum(sum(span["calls"].values()) * span["wrapper_s"] for span in spans), "s"),
    }


def measure_traced(run: Run, seconds: float) -> dict:
    with open(run.inputs / "fixes.ndjson", encoding="utf-8") as f:
        fixes_lines = sum(1 for line in f if line.strip())
    untraced, traced, layers = [], [], []
    while not traced or sum(untraced) + sum(traced) < seconds:
        plain = run.fresh_out("round")
        untraced.append(run.untraced_round(plain)[0])
        run.verify(plain)
        out = run.fresh_out("traced")
        total, spans = run.traced_round(out)
        traced.append(total)
        run.verify(out)
        layers.append(layer_metrics(spans, out, fixes_lines))
    print(f"rounds={len(traced)} untraced_s={[round(t, 3) for t in untraced]} traced_s={[round(t, 3) for t in traced]}")
    metrics = {name: {"value": statistics.median(l[name][0] for l in layers), "unit": unit}
               for name, (_, unit) in layers[0].items()}
    metrics["trace.untraced_total_s"] = {"value": statistics.median(untraced), "unit": "s"}
    metrics["trace.traced_total_s"] = {"value": statistics.median(traced), "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bustrace" / "cli.py").is_file():
        print(f"bustrace sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    try:
        metrics = measure_traced(run, args.seconds) if args.trace else measure(run, args.seconds)
    finally:
        run.close()
    print(json.dumps({
        "correct": run.ops.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
