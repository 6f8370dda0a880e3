"""Stage orchestration: ingestion, detection, analytics, clustering, routing.

Each stage reads the raw record files and/or artifacts written by earlier
stages into the output directory, computes, and writes CSV artifacts. The
detected passages are one :class:`~bustrace.analytics.PassageTable`, whose
rows are those of the detection CSV: :func:`write_detection_artifacts`
writes it and :func:`read_detection_rows` reads it back. All
outputs are deterministic functions of (inputs, config, seed): collections
are sorted before writing and floats use fixed formatting, so repeated runs
are byte-identical.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import date
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from . import analytics, clustering, detection, matching, routing, synthetic
from .detection import GroupOutcome, Provenance, TagReport, format_time_of_day, parse_time_of_day
from .model import BusStop, Dataset, FixTrack, ItineraryDef, StopType, validate_dataset
from .records import load_dataset

DETECTED_FILE = "detected_itineraries.csv"
# the columns of DETECTED_FILE; analytics.PassageTable holds them in this order
DETECTION_HEADER = [
    "line_code", "direction", "vehicle_id", "day", "trip", "position", "stop_id", "time", "provenance",
]
TAGS_FILE = "tags_by_category.csv"
TAG_ERRORS_FILE = "tag_errors_by_category.csv"
TAG_ERROR_HEADER = [
    "category", "out_of_order", "missing", "error_total", "error_pct",
    "rejected_segments", "rejected_marks", "discarded_segments", "discarded_marks",
]
VALIDATION_FILE = "validation.csv"
AVAILABILITY_FILE = "availability_by_category.csv"
DAILY_AVERAGES_FILE = "stop_daily_averages.csv"
CLUSTERS_FILE = "clusters.csv"
CENTROIDS_FILE = "cluster_centroids.csv"
CLUSTER_CORR_FILE = "cluster_stop_correlations.csv"
SYNC_PROFILES_FILE = "sync_profiles.csv"
SYNC_SUMMARY_FILE = "sync_summary.csv"
CLUSTER_SCATTER_FILE = "cluster_scatter.csv"
OD_RESULTS_FILE = "od_results.csv"
OD_PATHS_FILE = "od_paths.csv"
OD_SUMMARY_FILE = "od_summary.csv"


class PipelineError(RuntimeError):
    """A stage-level failure surfaced to the CLI."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


class MissingDependencyError(PipelineError):
    def __init__(self, stage: str, artifact: str):
        super().__init__(
            stage,
            f"stage '{stage}' needs artifact '{artifact}'; run the producing stage first",
        )


# ── Configuration ───────────────────────────────────────────────────────


@dataclass
class PipelineConfig:
    lines_file: str = ""
    line_points_file: str = ""
    fixes_file: str = ""
    acceptance_radius_m: float = matching.DEFAULT_ACCEPTANCE_RADIUS_M
    cluster_radius_m: float = clustering.DEFAULT_CLUSTER_RADIUS_M
    window_minutes: int = analytics.DEFAULT_WINDOW_MINUTES
    window_set: tuple[int, ...] = analytics.SYNC_WINDOW_SET
    periods: tuple[analytics.Period, ...] = analytics.DEFAULT_PERIODS
    k_paths: int = routing.DEFAULT_K
    od_search_radius_m: float = routing.DEFAULT_OD_SEARCH_RADIUS_M
    od_pairs: int = 50
    od_jitter_m: float = 400.0
    idle_gap_min: int = 30
    span_minutes: tuple[int, int] = analytics.DEFAULT_SPAN_MINUTES
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        for key in ("acceptance_radius_m", "cluster_radius_m", "od_search_radius_m"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be positive and finite")
        if len(self.span_minutes) != 2 or not self.span_minutes[0] < self.span_minutes[1]:
            raise ValueError("span_minutes must be [start, end] with start below end")
        span = self.span_minutes[1] - self.span_minutes[0]
        if not 1 <= self.window_minutes <= span:
            raise ValueError(f"window_minutes must be from 1 to the span's {span} minutes")
        if any(not 1 <= w <= span for w in self.window_set):
            raise ValueError(f"window_set entries must be from 1 to the span's {span} minutes")
        for period in self.periods:
            if not period.start_minute < period.end_minute:
                raise ValueError(f"periods: '{period.name}' must start below its end")
        if self.od_pairs < 0:
            raise ValueError("od_pairs must not be negative")
        if not 0 <= self.od_jitter_m < math.inf:
            raise ValueError("od_jitter_m must be non-negative and finite")
        if self.k_paths < 1:
            raise ValueError("k_paths must be at least 1")
        if self.idle_gap_min < 1:
            raise ValueError("idle gap must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")

    @classmethod
    def from_mapping(cls, data: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "periods" in kwargs:
            kwargs["periods"] = tuple(
                analytics.Period(name, int(bounds[0]), int(bounds[1]))
                for name, bounds in sorted(kwargs["periods"].items())
            )
        if "window_set" in kwargs:
            kwargs["window_set"] = tuple(int(w) for w in kwargs["window_set"])
        if "span_minutes" in kwargs:
            kwargs["span_minutes"] = tuple(int(v) for v in kwargs["span_minutes"])
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "periods":
                value = {p.name: [p.start_minute, p.end_minute] for p in value}
            elif isinstance(value, tuple):
                value = list(value)
            data[f.name] = value
        return data

    def load_inputs(self, with_fixes: bool) -> Dataset:
        """Check that all three input files exist; parse the fixes only ``with_fixes``."""
        for label, path in (
            ("lines_file", self.lines_file),
            ("line_points_file", self.line_points_file),
            ("fixes_file", self.fixes_file),
        ):
            if not path:
                raise ValueError(f"config is missing {label}")
            if not Path(path).is_file():
                raise FileNotFoundError(f"{label} not found: {path}")
        return load_dataset(
            self.lines_file, self.line_points_file, self.fixes_file if with_fixes else None
        )


# ── CSV helpers ─────────────────────────────────────────────────────────


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.6f}"
    if isinstance(value, date):
        return value.isoformat()
    return str(value)


@contextmanager
def atomic_write(path: Path, newline: str | None = None) -> Iterator[IO[str]]:
    """Open a text file that replaces ``path`` only once it is fully written.

    The bytes go to ``.<name>.tmp`` beside ``path`` (a name no ``*.csv``
    glob matches), which is renamed over ``path`` on success and removed
    on error, so a failed write leaves the previous file as it was.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence], notes: Sequence[str] = ()) -> None:
    with atomic_write(path, newline="") as f:
        for note in notes:
            f.write(f"# {note}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_csv_rows(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    """Header and rows of a CSV written by :func:`write_csv`.

    Notes are skipped only above the header: a data row may start with
    ``#`` (a line code or stop id can).
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(itertools.dropwhile(lambda line: line.startswith("#"), f))
        return list(reader.fieldnames or []), list(reader)


# ── Detection stage ─────────────────────────────────────────────────────


def _detect_one(
    task: tuple[tuple[str, str, date, str], FixTrack, ItineraryDef, dict[str, BusStop], float, int]
):
    key, track, itinerary, stops, radius, idle_gap_s = task
    marks = matching.match_fixes(track, itinerary, stops, radius)
    segmentation = detection.segment_trips(marks, itinerary, idle_gap_s=idle_gap_s)
    results = [
        detection.detect(
            itinerary, segment, day=key[2], borrowed_marks=borrowed, vehicle_id=key[0]
        )
        for segment, borrowed in zip(segmentation.segments, segmentation.borrowed)
    ]
    outcome = GroupOutcome(
        line_code=key[1],
        direction=key[3],
        vehicle_id=key[0],
        day=key[2],
        total_marks=len(marks),
        results=results,
        discarded_segments=len(segmentation.discarded),
        discarded_marks=segmentation.discarded_marks,
    )
    return key, outcome


def run_detection(dataset: Dataset, config: PipelineConfig) -> list[GroupOutcome]:
    """Match, segment, and detect every (vehicle, line, day, itinerary) group."""
    tasks = []
    for group_key in sorted(dataset.fixes):
        vehicle_id, line_code, day = group_key
        for itinerary in sorted(
            dataset.itineraries_for(line_code), key=lambda i: i.direction
        ):
            stops_subset = {s: dataset.stops[s] for s in itinerary.stop_ids}
            tasks.append(
                (
                    (vehicle_id, line_code, day, itinerary.direction),
                    dataset.fixes[group_key],
                    itinerary,
                    stops_subset,
                    config.acceptance_radius_m,
                    config.idle_gap_min * 60,
                )
            )

    if config.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = dict(pool.map(_detect_one, tasks, chunksize=8))
        return [outcomes[task[0]] for task in tasks]
    return [_detect_one(task)[1] for task in tasks]


def write_detection_artifacts(
    out_dir: Path, passages: analytics.PassageTable, report: TagReport
) -> list[Path]:
    detected = out_dir / DETECTED_FILE
    days, day_rows = np.unique(passages.day, return_inverse=True)
    times, time_rows = np.unique(passages.time_s, return_inverse=True)
    clock = np.array([format_time_of_day(t) for t in times.tolist()], dtype=str)
    columns = [
        passages.line_code.tolist(),
        passages.direction.tolist(),
        passages.vehicle_id.tolist(),
        np.datetime_as_string(days)[day_rows].tolist(),
        passages.trip.tolist(),
        passages.position.tolist(),
        passages.stop_id.tolist(),
        clock[time_rows].tolist(),
        np.where(passages.observed, Provenance.OBSERVED.value, Provenance.INTERPOLATED.value).tolist(),
    ]
    with atomic_write(detected, newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(DETECTION_HEADER)
        writer.writerows(zip(*columns))

    rows = [*report.rows.values(), report.total]
    tags = out_dir / TAGS_FILE
    header = ["category", "total_marks", "valid_tags", "valid_pct"]
    write_csv(tags, header, [[getattr(r, name) for name in header] for r in rows], [report.denominator_note])
    errors = out_dir / TAG_ERRORS_FILE
    write_csv(errors, TAG_ERROR_HEADER, [[getattr(r, name) for name in TAG_ERROR_HEADER] for r in rows])
    return [detected, tags, errors]


def read_detection_rows(out_dir: Path, stage: str) -> analytics.PassageTable:
    """The passage table of the detection CSV in ``out_dir``."""
    path = out_dir / DETECTED_FILE
    if not path.is_file():
        raise MissingDependencyError(stage, DETECTED_FILE)
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != DETECTION_HEADER:
            raise ValueError(f"{DETECTED_FILE} has header {header}, expected {DETECTION_HEADER}")
        rows = list(reader)
    ragged = next((i for i, row in enumerate(rows) if len(row) != len(DETECTION_HEADER)), None)
    if ragged is not None:
        raise ValueError(f"{DETECTED_FILE} data row {ragged + 1} does not have {len(DETECTION_HEADER)} cells")
    columns = list(zip(*rows)) or [()] * len(DETECTION_HEADER)
    *head, time, provenance = columns
    seconds = {text: parse_time_of_day(text) for text in set(time)}
    return analytics.PassageTable(
        *head,
        [seconds[text] for text in time],
        np.asarray(provenance) == Provenance.OBSERVED.value,
    )


# ── Validate stage ──────────────────────────────────────────────────────


def run_validate(out_dir: Path, dataset: Dataset) -> list[Path]:
    issues = validate_dataset(dataset)
    path = out_dir / VALIDATION_FILE
    write_csv(
        path,
        ["kind", "subject", "detail"],
        sorted((i.kind, i.subject, i.detail) for i in issues),
    )
    return [path]


# ── Analyze stage ───────────────────────────────────────────────────────


def _terminal_key_meta(stops: dict[str, BusStop]) -> dict[str, tuple[str, float, float]]:
    groups: dict[str, list[BusStop]] = {}
    for stop in stops.values():
        if stop.stop_type is StopType.TERMINAL:
            groups.setdefault(f"terminal:{stop.name}", []).append(stop)
    return {
        key: (
            members[0].name,
            float(np.mean([m.lat for m in members])),
            float(np.mean([m.lon for m in members])),
        )
        for key, members in groups.items()
    }


def run_analyze(
    out_dir: Path, dataset: Dataset, config: PipelineConfig, passages: analytics.PassageTable
) -> list[Path]:
    series: dict[tuple[date, str], analytics.AvailabilitySeries] = {}
    categories: dict[str, StopType] = {}
    for day in np.unique(passages.day).tolist():
        merged, day_categories = analytics.merge_terminals(
            passages.select(passages.day == day), dataset.stops
        )
        categories.update(day_categories)
        day_series = analytics.build_availability(
            merged, config.window_minutes, config.span_minutes, day
        )
        series.update(((day, key), s) for key, s in day_series.items())

    availability = out_dir / AVAILABILITY_FILE
    span_start, span_end = config.span_minutes
    starts = np.arange(span_start, span_end - config.window_minutes + 1)
    means = analytics.aggregate_by_category(
        series, {day_key: categories[day_key[1]] for day_key in series}
    )
    rows_out = [
        (category.value, int(minute), f"{minute // 60:02d}:{minute % 60:02d}", float(value))
        for category, mean in means.items()
        for minute, value in zip(starts, mean)
    ]
    write_csv(availability, ["category", "start_minute", "start_hhmm", "mean_count"], rows_out)

    key_day_means: dict[str, list[float]] = {}
    for (_day, key), s in series.items():
        key_day_means.setdefault(key, []).append(analytics.daily_average(s))
    daily_avg = {key: float(np.mean(values)) for key, values in key_day_means.items()}
    outliers = analytics.find_outlier_stops(daily_avg, categories)

    averages = out_dir / DAILY_AVERAGES_FILE
    terminal_meta = _terminal_key_meta(dataset.stops)
    avg_rows = []
    for key in sorted(daily_avg):
        if key in terminal_meta:
            name, lat, lon = terminal_meta[key]
        else:
            stop = dataset.stops.get(key)
            name = stop.name if stop else key
            lat = stop.lat if stop else float("nan")
            lon = stop.lon if stop else float("nan")
        avg_rows.append(
            (
                key,
                name,
                lat,
                lon,
                categories[key].value,
                daily_avg[key],
                int(key in outliers),
            )
        )
    write_csv(
        averages,
        ["key", "name", "lat", "lon", "category", "daily_avg_buses", "outlier"],
        avg_rows,
    )
    return [availability, averages]


# ── Cluster stage ───────────────────────────────────────────────────────


def read_daily_averages(out_dir: Path) -> list[dict[str, str]]:
    path = out_dir / DAILY_AVERAGES_FILE
    if not path.is_file():
        raise MissingDependencyError("cluster", DAILY_AVERAGES_FILE)
    _, rows = read_csv_rows(path)
    return rows


def run_cluster(
    out_dir: Path, dataset: Dataset, config: PipelineConfig, passages: analytics.PassageTable
) -> list[Path]:
    avg_rows = read_daily_averages(out_dir)
    averages = {r["key"]: float(r["daily_avg_buses"]) for r in avg_rows}
    outlier_keys = [
        r["key"]
        for r in avg_rows
        if r["outlier"] == "1" and r["key"] in dataset.stops
    ]
    candidates = clustering.build_candidates(outlier_keys, averages)
    clusters = clustering.cluster_stops(candidates, dataset.stops, config.cluster_radius_m)
    enriched, scatter = clustering.cluster_stats(
        clusters, passages, config.window_minutes, config.span_minutes
    )

    membership = _membership_counts(enriched)
    # distinct stops covered vs total membership slots: differ when
    # non-candidate stops join several clusters
    cover_note = (
        f"distinct_stops_covered={len(membership)} "
        f"total_memberships={sum(membership.values())}"
    )
    clusters_path = out_dir / CLUSTERS_FILE
    write_csv(
        clusters_path,
        [
            "cluster_id",
            "centroid_stop_id",
            "member_count",
            "shared_members",
            "line_count",
            "avg_buses",
            "members",
            "lines",
        ],
        [
            (
                c.cluster_id,
                c.centroid_stop_id,
                len(c.members),
                sum(1 for m in c.members if membership[m] > 1),
                len(c.lines_served),
                c.avg_buses,
                ";".join(c.member_list),
                ";".join(sorted(c.lines_served)),
            )
            for c in enriched
        ],
        notes=[cover_note],
    )

    centroids_path = out_dir / CENTROIDS_FILE
    write_csv(
        centroids_path,
        ["cluster_id", "lat", "lon", "avg_buses"],
        [
            (
                c.cluster_id,
                dataset.stops[c.centroid_stop_id].lat,
                dataset.stops[c.centroid_stop_id].lon,
                c.avg_buses,
            )
            for c in enriched
        ],
    )

    scatter_path = out_dir / CLUSTER_SCATTER_FILE
    scatter_rows = [(c.cluster_id, c.avg_buses, len(c.lines_served)) for c in enriched]
    write_csv(
        scatter_path,
        ["cluster_id", "avg_buses", "line_count"],
        scatter_rows,
        notes=[
            f"pearson_r={_fmt(scatter.r)} p_value={_fmt(scatter.p_value)} n={scatter.n_clusters}"
        ],
    )

    # Days are pooled: every passage counts at its time of day.
    times = passages.times_by_stop()
    corr_rows = []
    profile_rows = []
    profiles = []
    period_choices: list[analytics.Period | None] = [None, *config.periods]
    for cluster in enriched:
        members = [m for m in cluster.member_list if m in times]
        if len(members) < 2:
            continue
        series = analytics.build_availability(
            {m: times[m] for m in members}, config.window_minutes, config.span_minutes
        )
        for period in period_choices:
            matrix = analytics.correlation_matrix(series, members, period)
            label = period.name if period else "full_day"
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    value = matrix.entry(a, b)
                    corr_rows.append(
                        (cluster.cluster_id, label, a, b, None if math.isnan(value) else value)
                    )
        profile = analytics.cluster_sync_profile(
            members, times, config.periods, config.window_set, config.span_minutes
        )
        profiles.append(profile)
        for (period_name, window), value in sorted(profile.items()):
            profile_rows.append((cluster.cluster_id, period_name, window, value))
    corr_path = out_dir / CLUSTER_CORR_FILE
    write_csv(corr_path, ["cluster_id", "period", "stop_a", "stop_b", "r"], corr_rows)
    profiles_path = out_dir / SYNC_PROFILES_FILE
    write_csv(profiles_path, ["cluster_id", "period", "window_minutes", "mean_r"], profile_rows)

    summary_path = out_dir / SYNC_SUMMARY_FILE
    combined = analytics.mean_sync_across_clusters(profiles) if profiles else {}
    write_csv(
        summary_path,
        ["period", "window_minutes", "mean_r"],
        [(period, window, value) for (period, window), value in sorted(combined.items())],
    )

    return [clusters_path, centroids_path, scatter_path, corr_path, profiles_path, summary_path]


def _membership_counts(clusters: Sequence[clustering.Cluster]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for cluster in clusters:
        for member in cluster.members:
            counts[member] = counts.get(member, 0) + 1
    return counts


def read_clusters(out_dir: Path) -> list[clustering.Cluster]:
    path = out_dir / CLUSTERS_FILE
    if not path.is_file():
        raise MissingDependencyError("route", CLUSTERS_FILE)
    _, rows = read_csv_rows(path)
    return [
        clustering.Cluster(
            cluster_id=r["cluster_id"],
            centroid_stop_id=r["centroid_stop_id"],
            members=frozenset(r["members"].split(";")) if r["members"] else frozenset(),
            lines_served=frozenset(r["lines"].split(";")) if r["lines"] else frozenset(),
            avg_buses=float(r["avg_buses"]),
        )
        for r in rows
    ]


# ── Route stage ─────────────────────────────────────────────────────────


def run_route(out_dir: Path, dataset: Dataset, config: PipelineConfig) -> list[Path]:
    clusters = read_clusters(out_dir)
    g_base = routing.build_graph(dataset.itineraries, dataset.stops)
    g_clustered = routing.add_cluster_transfers(g_base, clusters)
    pairs = synthetic.generate_od_pairs(
        dataset.stops, config.od_pairs, seed=config.seed, jitter_m=config.od_jitter_m
    )
    evaluation = routing.evaluate_od(
        pairs, g_base, g_clustered, k=config.k_paths, radius_m=config.od_search_radius_m
    )

    results_path = out_dir / OD_RESULTS_FILE
    result_rows = []
    path_rows = []
    for network in ("base", "clustered"):
        for pair_id, trip in enumerate(evaluation.results[network]):
            result_rows.append(
                (
                    pair_id,
                    network,
                    int(trip.feasible),
                    trip.distance_m if trip.feasible else float("nan"),
                    trip.transfers if trip.feasible else "",
                    ";".join(trip.stop_sequence()),
                )
            )
            for rank, (weight, path) in enumerate(trip.alternatives, start=1):
                stop_seq = [n[1] for n in path if n[0] == "stop"]
                deduped = [s for i, s in enumerate(stop_seq) if i == 0 or stop_seq[i - 1] != s]
                path_rows.append((pair_id, network, rank, weight, ";".join(deduped)))
    write_csv(
        results_path,
        ["pair_id", "network", "feasible", "distance_m", "transfers", "stops"],
        result_rows,
    )

    paths_path = out_dir / OD_PATHS_FILE
    write_csv(paths_path, ["pair_id", "network", "rank", "distance_m", "stops"], path_rows)

    summary_path = out_dir / OD_SUMMARY_FILE
    summary_rows = []
    for network in ("base", "clustered"):
        s = evaluation.summaries[network]
        summary_rows.append(
            (
                network,
                s.feasible,
                s.infeasible,
                s.mean_distance_m,
                s.quartiles_m[0],
                s.quartiles_m[1],
                s.quartiles_m[2],
                s.mean_transfers,
            )
        )
    write_csv(
        summary_path,
        [
            "network",
            "feasible",
            "infeasible",
            "mean_distance_m",
            "q1_distance_m",
            "median_distance_m",
            "q3_distance_m",
            "mean_transfers",
        ],
        summary_rows,
    )
    return [results_path, paths_path, summary_path]
