"""One bustrace CLI invocation, in-process, with timers around each layer.

Usage: python bench/trace.py SPANS.json <bustrace arguments>

Run with ``src`` on PYTHONPATH. The program is measured only from
outside: every timer wraps a module attribute that the pipeline looks up
when it calls into a layer (``records.parse_vehicle_fixes``,
``matching.match_fixes``, ``routing.evaluate_trip``, ...), so the program
runs unchanged. Spans nest; a span's self time is its duration minus the
wrapped calls inside it. Spans and counters stay in memory and are written
to SPANS.json once the invocation returns, with the measured cost of one
call through an empty wrapper, from which the tracing overhead is derived.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import types
from collections import defaultdict

_start = time.perf_counter()
import bustrace.cli as cli  # noqa: E402  (timed: the CLI's import cost)

IMPORT_S = time.perf_counter() - _start

from bustrace import (  # noqa: E402
    analytics,
    clustering,
    detection,
    matching,
    pipeline,
    records,
    routing,
)


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self._children: list[float] = []

    def wrap(self, module, attr: str, name: str, count=None, sample: bool = False):
        """Replace module.attr with a timed wrapper.

        `count(args, result)` returns counter increments for the work the
        call did.
        """
        inner = getattr(module, attr)
        clock = time.perf_counter
        children = self._children

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = children.pop()
                if children:
                    children[-1] += elapsed
                self.total[name] += elapsed
                self.self_time[name] += elapsed - nested
                self.calls[name] += 1
                if sample:
                    self.samples[name].append(elapsed)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result

        setattr(module, attr, traced)

    def count_calls(self, module, attr: str, name: str):
        """Replace module.attr with an untimed wrapper that only counts calls."""
        inner = getattr(module, attr)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        setattr(module, attr, counted)


def wrapper_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one call through `Tracer.wrap` adds to a call of a no-op.

    Median over `repeats` alternating timings of the wrapped and the bare
    function, so that a slow moment of the machine does not decide it.
    """
    probe = types.SimpleNamespace(noop=lambda: None)
    bare = probe.noop
    Tracer().wrap(probe, "noop", "noop")
    wrapped = probe.noop
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            wrapped()
        middle = clock()
        for _ in range(calls):
            bare()
        costs.append(((middle - start) - (clock() - middle)) / calls)
    return max(0.0, statistics.median(costs))


def _edges(graph) -> int:
    return sum(len(edges) for edges in graph.adjacency.values())


def install(t: Tracer) -> None:
    # records: ingest of the three input files
    t.wrap(records, "parse_vehicle_fixes", "records.parse_vehicle_fixes",
           count=lambda a, r: {"records.fixes_kept": len(r)})
    t.wrap(records, "group_fixes", "records.group_fixes")
    t.wrap(records, "parse_lines", "records.parse_lines")
    t.wrap(records, "parse_line_points", "records.parse_line_points")
    # model (bound into pipeline by name)
    t.wrap(pipeline, "validate_dataset", "model.validate_dataset")
    # matching and detection
    t.wrap(matching, "match_fixes", "matching.match_fixes",
           count=lambda a, r: {"matching.fixes": len(a[0]), "matching.marks": len(r)})
    t.wrap(detection, "segment_trips", "detection.segment_trips",
           count=lambda a, r: {"detection.segments": len(r.segments)})
    t.wrap(detection, "detect", "detection.detect", count=lambda a, r: {
        "detection.accepted": int(r.accepted),
        "detection.interpolated": r.itinerary.interpolated_count if r.accepted else 0,
    })
    t.wrap(detection, "tag_report", "detection.tag_report")
    # pipeline stages (bound into cli by name) and the detection CSV reader
    for attr in ("run_validate", "run_detection", "write_detection_artifacts", "run_analyze", "run_cluster", "run_route"):
        t.wrap(cli, attr, f"pipeline.{attr}")
    t.wrap(pipeline, "read_detection_rows", "pipeline.read_detection_rows",
           count=lambda a, r: {"pipeline.rows_read": len(r)})
    t.wrap(cli, "load_config", "cli.load_config")
    t.wrap(cli, "_write_manifest", "cli.write_manifest")
    # analytics
    t.wrap(analytics, "moving_window_counts", "analytics.moving_window_counts")
    t.wrap(analytics, "build_availability", "analytics.build_availability")
    t.wrap(analytics, "find_outlier_stops", "analytics.find_outlier_stops")
    t.wrap(analytics, "correlation_matrix", "analytics.correlation_matrix")
    t.wrap(analytics, "cluster_sync_profile", "analytics.cluster_sync_profile")
    t.count_calls(analytics, "pearson", "analytics.pearson")
    # clustering
    t.wrap(clustering, "cluster_stops", "clustering.cluster_stops", count=lambda a, r: {
        "clustering.clusters": len(r),
        "clustering.memberships": sum(len(c.members) for c in r),
    })
    t.wrap(clustering, "cluster_stats", "clustering.cluster_stats")
    # routing
    t.wrap(routing, "build_graph", "routing.build_graph",
           count=lambda a, r: {"routing.graph_nodes": len(r.adjacency), "routing.graph_edges": _edges(r)})
    t.wrap(routing, "add_cluster_transfers", "routing.add_cluster_transfers",
           count=lambda a, r: {"routing.transfer_edges": _edges(r) - _edges(a[0])})
    t.wrap(routing, "evaluate_od", "routing.evaluate_od")
    t.wrap(routing, "evaluate_trip", "routing.evaluate_trip", sample=True)
    t.wrap(routing, "yen_k_shortest", "routing.yen_k_shortest",
           count=lambda a, r: {"routing.paths_ranked": len(r)})


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    rc = cli.main(cli_args)
    wrapper_s = wrapper_cost_s()
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "rc": rc,
                "import_s": IMPORT_S,
                "wrapper_s": wrapper_s,
                "total": tracer.total,
                "self": tracer.self_time,
                "calls": tracer.calls,
                "counts": tracer.counts,
                "samples": tracer.samples,
            },
            f,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
