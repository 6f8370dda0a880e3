"""Stage orchestration: ingestion, detection, analytics, clustering, routing.

Each stage computes from the dataset, the config and the typed products of
earlier stages, writes its CSV artifacts and returns its own product: the
detected :class:`~bustrace.analytics.PassageTable`, the
:class:`DailyAverages`, the clusters. No stage reads an artifact; the readers
:func:`read_detection_rows`, :func:`read_daily_averages` and
:func:`read_clusters` rebuild a product from its file for a CLI invocation
that did not run its stage. All outputs are deterministic functions of
(inputs, config, seed): collections are sorted before writing and floats
use fixed formatting, so repeated runs are byte-identical.

The configuration, the artifact table and the CSV helpers need only the
data model. Each stage imports the modules it computes with when it runs,
so a process loads only the stages it runs: ``validate`` loads none, and
``route`` loads :mod:`~bustrace.routing` alone.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import date
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .geo import DEFAULT_OD_SEARCH_RADIUS_M
from .model import (
    DEFAULT_ACCEPTANCE_RADIUS_M,
    DEFAULT_CLUSTER_RADIUS_M,
    DEFAULT_IDLE_GAP_MIN,
    DEFAULT_K,
    DEFAULT_OD_JITTER_M,
    DEFAULT_PERIODS,
    DEFAULT_SPAN_MINUTES,
    DEFAULT_WINDOW_MINUTES,
    SYNC_WINDOW_SET,
    Cluster,
    Dataset,
    Period,
    validate_dataset,
)
from .records import ID_FORBIDDEN, STOP_ID_SEPARATOR, id_fault, load_dataset

if TYPE_CHECKING:
    from .analytics import PassageTable
    from .detection import GroupOutcome, TagReport

DETECTED_FILE = "detected_itineraries.csv"
# The grammar of DETECTED_FILE: its columns, in PassageTable order, each with
# the pattern of its cells and the words an error names it by. No id holds a
# character a CSV field is quoted for (records.id_fault), so no cell is quoted.
_ID_CELL = (re.compile(f"[^{re.escape(ID_FORBIDDEN)}]*".encode()), "an id without , ; \" CR or LF")
_DECIMAL_CELL = (re.compile(rb"[0-9]{1,18}"), "a decimal integer")
DETECTION_COLUMNS = {
    "line_code": _ID_CELL,
    "direction": _ID_CELL,
    "vehicle_id": _ID_CELL,
    "day": (re.compile(rb"[0-9]{4}-[0-9]{2}-[0-9]{2}"), "a date YYYY-MM-DD"),
    "trip": _DECIMAL_CELL,
    "position": _DECIMAL_CELL,
    "stop_id": _ID_CELL,
    "time": (re.compile(rb"[0-9]{2,9}:[0-5][0-9]:[0-5][0-9]"), "a time HH:MM:SS"),
    "provenance": (re.compile(rb"OBSERVED|INTERPOLATED"), "OBSERVED or INTERPOLATED"),
}
DETECTION_HEADER = list(DETECTION_COLUMNS)
_DETECTION_ROW = b",".join(b"(?:%s)" % pattern.pattern for pattern, _ in DETECTION_COLUMNS.values())
_DETECTION_ROWS = re.compile(b"(?:%s\n)*" % _DETECTION_ROW)
# every data row, the last one with or without its newline
_DETECTION_BODY = re.compile(_DETECTION_ROWS.pattern + b"(?:%s)?" % _DETECTION_ROW)
# The body is matched this many bytes at a time, cut after a newline: the
# matcher keeps some 600 bytes of state per row until its match ends.
_MATCH_BYTES = 1 << 16
DAILY_AVERAGES_FILE = "stop_daily_averages.csv"
CLUSTERS_FILE = "clusters.csv"
# the period label of a cluster's whole-day correlation rows
FULL_DAY = "full_day"


class Artifact(NamedTuple):
    stage: str  # the stage that writes the file
    header: list[str]


# Every file a stage writes into the output directory, in stage order, with
# its header. The writers, the readers, the CLI's move out of staging and the
# manifest all read this table.
ARTIFACTS = {
    "validation.csv": Artifact("validate", ["kind", "subject", "detail"]),
    DETECTED_FILE: Artifact("detect", DETECTION_HEADER),
    "tags_by_category.csv": Artifact("detect", ["category", "total_marks", "valid_tags", "valid_pct"]),
    "tag_errors_by_category.csv": Artifact("detect", [
        "category", "out_of_order", "missing", "error_total", "error_pct",
        "rejected_segments", "rejected_marks", "discarded_segments", "discarded_marks",
    ]),
    "availability_by_category.csv": Artifact("analyze", [
        "category", "start_minute", "start_hhmm", "mean_count",
    ]),
    DAILY_AVERAGES_FILE: Artifact("analyze", [
        "key", "name", "lat", "lon", "category", "daily_avg_buses", "outlier",
    ]),
    CLUSTERS_FILE: Artifact("cluster", [
        "cluster_id", "centroid_stop_id", "member_count", "shared_members", "line_count", "avg_buses",
        "members", "lines",
    ]),
    "cluster_centroids.csv": Artifact("cluster", ["cluster_id", "lat", "lon", "avg_buses"]),
    "cluster_scatter.csv": Artifact("cluster", ["cluster_id", "avg_buses", "line_count"]),
    "cluster_stop_correlations.csv": Artifact("cluster", ["cluster_id", "period", "stop_a", "stop_b", "r"]),
    "sync_profiles.csv": Artifact("cluster", ["cluster_id", "period", "window_minutes", "mean_r"]),
    "sync_summary.csv": Artifact("cluster", ["period", "window_minutes", "mean_r"]),
    "od_results.csv": Artifact("route", [
        "pair_id", "network", "feasible", "distance_m", "transfers", "stops",
    ]),
    "od_paths.csv": Artifact("route", ["pair_id", "network", "rank", "distance_m", "stops"]),
    "od_summary.csv": Artifact("route", [
        "network", "feasible", "infeasible", "mean_distance_m", "q1_distance_m", "median_distance_m",
        "q3_distance_m", "mean_transfers",
    ]),
}


class DailyAverages(NamedTuple):
    """Analyze's product: each key's daily average, rounded as its file writes it, and the outlier keys."""

    averages: dict[str, float]
    outliers: frozenset[str]


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

# the config keys of the input files, which load_inputs checks and the manifest digests
INPUT_FILES = ("lines_file", "line_points_file", "fixes_file")


@dataclass
class PipelineConfig:
    lines_file: str = ""
    line_points_file: str = ""
    fixes_file: str = ""
    acceptance_radius_m: float = DEFAULT_ACCEPTANCE_RADIUS_M
    cluster_radius_m: float = DEFAULT_CLUSTER_RADIUS_M
    window_minutes: int = DEFAULT_WINDOW_MINUTES
    window_set: tuple[int, ...] = SYNC_WINDOW_SET
    periods: tuple[Period, ...] = DEFAULT_PERIODS
    k_paths: int = DEFAULT_K
    od_search_radius_m: float = DEFAULT_OD_SEARCH_RADIUS_M
    od_pairs: int = 50
    od_jitter_m: float = DEFAULT_OD_JITTER_M
    idle_gap_min: int = DEFAULT_IDLE_GAP_MIN
    span_minutes: tuple[int, int] = DEFAULT_SPAN_MINUTES
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        integers = {
            "window_minutes": [self.window_minutes],
            "window_set": self.window_set,
            "span_minutes": self.span_minutes,
            "periods": [bound for p in self.periods for bound in (p.start_minute, p.end_minute)],
            "k_paths": [self.k_paths],
            "od_pairs": [self.od_pairs],
            "idle_gap_min": [self.idle_gap_min],
            "seed": [self.seed],
            "jobs": [self.jobs],
        }
        for key, values in integers.items():
            for value in values:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"{key}: {value!r} is not an integer")
        for key in ("acceptance_radius_m", "cluster_radius_m", "od_search_radius_m", "od_jitter_m"):
            value = getattr(self, key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{key}: {value!r} is not a number")
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
            if period.name == FULL_DAY:
                raise ValueError(f"periods: '{FULL_DAY}' labels the whole day; name the period otherwise")
            if not period.start_minute < period.end_minute:
                raise ValueError(f"periods: '{period.name}' must start below its end")
        if self.od_pairs < 0:
            raise ValueError("od_pairs must not be negative")
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        if not 0 <= self.od_jitter_m < math.inf:
            raise ValueError("od_jitter_m must be non-negative and finite")
        if self.k_paths < 1:
            raise ValueError("k_paths must be at least 1")
        if self.idle_gap_min < 1:
            raise ValueError("idle_gap_min must be positive")
        if self.jobs != 1:
            raise ValueError("jobs must be 1: detection runs in one process")

    @classmethod
    def from_mapping(cls, data: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        for key in ("window_set", "span_minutes"):
            if key in kwargs:
                if not isinstance(kwargs[key], (list, tuple)):
                    raise ValueError(f"{key}: {kwargs[key]!r} is not a list")
                kwargs[key] = tuple(kwargs[key])
        if "periods" in kwargs:
            periods = kwargs["periods"]
            if not isinstance(periods, dict) or any(
                not isinstance(bounds, (list, tuple)) or len(bounds) != 2 for bounds in periods.values()
            ):
                raise ValueError(f"periods: {periods!r} is not a mapping of names to [start, end]")
            kwargs["periods"] = tuple(Period(name, *bounds) for name, bounds in sorted(periods.items()))
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
        for label in INPUT_FILES:
            path = getattr(self, label)
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

    The bytes go to ``.<name>.tmp`` beside ``path``, which is renamed over
    ``path`` on success and removed on error, so a failed write leaves the
    previous file as it was.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(out_dir: Path, name: str, rows: Iterable[Sequence], notes: Sequence[str] = ()) -> None:
    """Write the artifact ``name`` into ``out_dir``: its notes, its header in :data:`ARTIFACTS`, its rows."""
    with atomic_write(out_dir / name, newline="") as f:
        for note in notes:
            f.write(f"# {note}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(ARTIFACTS[name].header)
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


def _artifact_path(out_dir: Path, name: str, stage: str) -> Path:
    """The path of the artifact ``name`` that ``stage`` reads; MissingDependencyError if it is absent."""
    path = out_dir / name
    if not path.is_file():
        raise MissingDependencyError(stage, name)
    return path


def _check_header(name: str, header: list[str]) -> None:
    expected = ARTIFACTS[name].header
    if header != expected:
        raise ValueError(f"{name} has header {header}, expected {expected}")


def read_artifact(out_dir: Path, name: str, stage: str, numbers: Sequence[str] = ()) -> list[dict]:
    """The rows of the artifact ``name`` in ``out_dir``, which ``stage`` reads, the cells of ``numbers`` as floats.

    MissingDependencyError if the file is absent; ValueError if its header is not the one in
    :data:`ARTIFACTS`, or a data row has another number of cells or a cell of ``numbers`` not a number.
    """
    header, rows = read_csv_rows(_artifact_path(out_dir, name, stage))
    _check_header(name, header)
    for row, cells in enumerate(rows, start=1):
        # DictReader files surplus cells under None and fills missing ones with None
        if None in cells or None in cells.values():
            raise ValueError(f"{name} data row {row} does not have {len(header)} cells")
        for column in numbers:
            try:
                cells[column] = float(cells[column])
            except ValueError:
                raise ValueError(f"{name} data row {row}: {column} {cells[column]!r} is not a number") from None
    return rows


# ── Detection stage ─────────────────────────────────────────────────────


def run_detection(dataset: Dataset, config: PipelineConfig) -> list[GroupOutcome]:
    """Match, segment, and detect every (vehicle, line, day, itinerary) group.

    Each (vehicle, line, day) track is matched once against all its line's
    itineraries, and :func:`~bustrace.detection.detect_group` turns its
    marks on each itinerary into that group's outcome. Groups come in key
    order and each group's itineraries by direction.
    """
    from . import detection, matching

    idle_gap_s = config.idle_gap_min * 60
    outcomes = []
    for vehicle_id, line_code, day in sorted(dataset.fixes):
        track = dataset.fixes[vehicle_id, line_code, day]
        itineraries = sorted(dataset.itineraries_for(line_code), key=lambda i: i.direction)
        line_marks = matching.match_fixes(track, itineraries, dataset.stops, config.acceptance_radius_m)
        outcomes += [
            detection.detect_group(marks, itinerary, vehicle_id=vehicle_id, day=day, idle_gap_s=idle_gap_s)
            for itinerary, marks in zip(itineraries, line_marks)
        ]
    return outcomes


def _clock_texts(seconds: np.ndarray) -> np.ndarray:
    """'HH:MM:SS' of each whole number of seconds, as
    :func:`~bustrace.detection.format_time_of_day` writes it.

    Digits are laid out as bytes; only hours outside 00-99 go through that function.
    """
    from .detection import format_time_of_day

    if np.any((seconds < 0) | (seconds >= 100 * 3600)):
        return np.array([format_time_of_day(t) for t in seconds.tolist()], dtype=str)
    hours, rest = np.divmod(seconds, 3600)
    minutes, secs = np.divmod(rest, 60)
    text = np.full((len(seconds), 8), ord(":"), dtype=np.uint8)
    for at, value in ((0, hours), (3, minutes), (6, secs)):
        text[:, at] = value // 10 + ord("0")
        text[:, at + 1] = value % 10 + ord("0")
    return text.view("S8").ravel().astype(str)


def write_detection_artifacts(out_dir: Path, passages: PassageTable, report: TagReport) -> None:
    """Write the detection CSV, its cells joined as they are, and the tag reports.

    A table holding an id that :func:`~bustrace.records.id_fault` refuses raises ValueError.
    """
    from . import analytics
    from .detection import Provenance

    for name, ids_name in analytics.ID_NAMES.items():
        for value in getattr(passages, ids_name).tolist():
            fault = id_fault(name, value)
            if fault is not None:
                raise ValueError(f"{fault}: {DETECTED_FILE} writes its ids unquoted")
    days, day_rows = np.unique(passages.day, return_inverse=True)
    times, time_rows = np.unique(passages.time_s, return_inverse=True)
    columns = [
        passages.column("line_code").tolist(),
        passages.column("direction").tolist(),
        passages.column("vehicle_id").tolist(),
        np.datetime_as_string(days)[day_rows].tolist(),
        passages.trip.astype(str).tolist(),
        passages.position.astype(str).tolist(),
        passages.column("stop_id").tolist(),
        _clock_texts(times)[time_rows].tolist(),
        np.where(passages.observed, Provenance.OBSERVED.value, Provenance.INTERPOLATED.value).tolist(),
    ]
    with atomic_write(out_dir / DETECTED_FILE, newline="") as f:
        f.write(",".join(DETECTION_HEADER) + "\n")
        f.writelines(f"{row}\n" for row in map(",".join, zip(*columns)))

    rows = [*report.rows.values(), report.total]
    tag_notes = {"tags_by_category.csv": [report.denominator_note], "tag_errors_by_category.csv": []}
    for name, notes in tag_notes.items():
        header = ARTIFACTS[name].header
        write_csv(out_dir, name, [[getattr(r, column) for column in header] for r in rows], notes)


def read_detection_rows(out_dir: Path, stage: str) -> PassageTable:
    """The passage table of the detection CSV in ``out_dir``.

    One regular expression checks every data row against the grammar of
    :data:`DETECTION_COLUMNS`, in place, a block of whole rows at a time; a
    ValueError names the first data row off it, or else the first whose day
    is not in the calendar. The bytes are then cut into cells at commas and
    newlines, and each column is converted.
    """
    raw = _artifact_path(out_dir, DETECTED_FILE, stage).read_bytes()
    body = raw.find(b"\n") + 1 or len(raw)
    _check_header(DETECTED_FILE, raw[:body].removesuffix(b"\n").decode("utf-8", "replace").split(","))
    block = body
    while block < len(raw):
        end = raw.find(b"\n", block + _MATCH_BYTES) + 1 or len(raw)
        if not _DETECTION_BODY.fullmatch(raw, block, end):
            raise _bad_row(raw, body, block)
        block = end
    return _passage_table(dict(zip(DETECTION_HEADER, _byte_cells(raw))))


def _bad_row(raw: bytes, body: int, block: int) -> ValueError:
    """The error naming the first data row (from byte ``body``) off the grammar, in the block at ``block``."""
    at = _DETECTION_ROWS.match(raw, block).end()
    row = raw.count(b"\n", body, at) + 1
    cells = raw[at:].split(b"\n", 1)[0].split(b",")
    if len(cells) == len(DETECTION_COLUMNS):
        for name, cell, (pattern, words) in zip(DETECTION_COLUMNS, cells, DETECTION_COLUMNS.values()):
            if not pattern.fullmatch(cell):
                text = cell.decode("utf-8", "replace")
                return ValueError(f"{DETECTED_FILE} data row {row}: {name} {text!r} is not {words}")
    return ValueError(f"{DETECTED_FILE} data row {row} does not have {len(DETECTION_COLUMNS)} cells")


def _byte_cells(raw: bytes) -> list[np.ndarray]:
    """The cell columns, as byte-string arrays, of a CSV whose every row has as
    many cells as :data:`DETECTION_HEADER` and none of them quoted."""
    data = np.frombuffer(raw, dtype=np.uint8)
    cuts = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    if not raw.endswith(b"\n"):
        cuts = np.append(cuts, len(raw))
    n_cells = len(DETECTION_HEADER)
    cuts = cuts[n_cells - 1 :]  # from the header's newline on
    starts, stops = (cuts[:-1] + 1).reshape(-1, n_cells), cuts[1:].reshape(-1, n_cells)
    return [_gather(data, starts[:, j], stops[:, j]) for j in range(n_cells)]


def _gather(data: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The byte strings ``data[starts[i]:stops[i]]`` as one byte-string array."""
    lengths = stops - starts
    width = max(int(lengths.max(initial=0)), 1)
    cells = np.empty((len(starts), width), dtype=np.uint8)
    for k in range(width):
        inside = lengths > k
        cells[:, k] = np.where(inside, data[np.where(inside, starts + k, 0)], 0)
    return cells.view(f"S{width}").ravel()


def _passage_table(cells: dict[str, np.ndarray]) -> PassageTable:
    """The passage table of the detection CSV's cell columns by name, which match its grammar.

    A ValueError names the first data row whose day is not in the calendar.
    """
    from . import analytics
    from .detection import Provenance

    distinct, inverse = np.unique(cells["day"], return_inverse=True)
    inverse = inverse.reshape(-1)
    days = np.zeros(len(distinct), dtype="datetime64[D]")
    for i, text in enumerate(distinct.tolist()):
        try:
            days[i] = date.fromisoformat(text.decode("ascii"))
        except ValueError:
            row = int(np.argmax(inverse == i)) + 1
            message = f"{DETECTED_FILE} data row {row}: day {text.decode()!r} is not a date YYYY-MM-DD"
            raise ValueError(message) from None
    ids = {}
    for name, ids_name in analytics.ID_NAMES.items():
        names, codes = np.unique(cells[name], return_inverse=True)
        ids[name], ids[ids_name] = codes.reshape(-1), [text.decode("utf-8") for text in names.tolist()]
    digits, length = _digits(cells["time"], 8)
    at = (length - 6)[:, None] + np.array([1, 2, 4, 5])  # the digits of ":MM:SS"
    m1, m0, s1, s0 = np.take_along_axis(digits, at, axis=1).T
    return analytics.PassageTable(
        day=days[inverse],
        trip=_leading_number(*_digits(cells["trip"])),
        position=_leading_number(*_digits(cells["position"])),
        time_s=_leading_number(digits, length - 6) * 3600 + (m1 * 10 + m0) * 60 + s1 * 10 + s0,
        observed=cells["provenance"] == Provenance.OBSERVED.value.encode(),
        **ids,
    )


def _digits(cells: np.ndarray, width: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's bytes as digit values, at least ``width`` of them, and its length."""
    cells = cells.astype(f"S{max(width, cells.dtype.itemsize)}")
    raw = cells.view(np.uint8).reshape(len(cells), cells.dtype.itemsize)
    return raw.astype(np.int64) - ord("0"), np.count_nonzero(raw, axis=1)


def _leading_number(digits: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The number written by the first ``length`` digits of each row."""
    value = np.zeros(len(digits), dtype=np.int64)
    for k in range(digits.shape[1]):
        value = np.where(k < length, value * 10 + digits[:, k], value)
    return value


# ── Validate stage ──────────────────────────────────────────────────────


def run_validate(out_dir: Path, dataset: Dataset) -> None:
    issues = validate_dataset(dataset)
    write_csv(out_dir, "validation.csv", sorted((i.kind, i.subject, i.detail) for i in issues))


# ── Analyze stage ───────────────────────────────────────────────────────


def run_analyze(out_dir: Path, dataset: Dataset, config: PipelineConfig, passages: PassageTable) -> DailyAverages:
    from . import analytics

    window, span = config.window_minutes, config.span_minutes
    keys, key_code, facts = analytics.merge_terminals(passages, dataset.stops)
    categories = {key: fact.category for key, fact in facts.items()}
    # one count row per (day, key) with passages, in (day, key) order
    day_index = np.unique(passages.day, return_inverse=True)[1]
    codes, row = np.unique(day_index * len(keys) + key_code, return_inverse=True)
    counts = analytics.build_availability(row, passages.time_s, len(codes), [window], span)[window]
    row_keys = keys[codes % len(keys)].tolist()

    means = analytics.aggregate_by_category(counts, [categories[key] for key in row_keys])
    rows_out = [
        (category.value, minute, f"{minute // 60:02d}:{minute % 60:02d}", value)
        for category, mean in means.items()
        for minute, value in enumerate(mean.tolist(), start=span[0])
    ]
    write_csv(out_dir, "availability_by_category.csv", rows_out)

    key_day_means: dict[str, list[float]] = {}
    for key, mean in zip(row_keys, counts.mean(axis=1).tolist()):
        key_day_means.setdefault(key, []).append(mean)
    daily_avg = {key: float(np.mean(values)) for key, values in key_day_means.items()}
    outliers = analytics.find_outlier_stops(daily_avg, categories)

    avg_rows = [
        (key, facts[key].name, facts[key].lat, facts[key].lon, categories[key].value, value, int(key in outliers))
        for key, value in sorted(daily_avg.items())
    ]
    write_csv(out_dir, DAILY_AVERAGES_FILE, avg_rows)
    # rounded as written, so that cluster orders its candidates as it does from the file
    return DailyAverages({key: float(_fmt(value)) for key, value in daily_avg.items()}, frozenset(outliers))


def read_daily_averages(out_dir: Path, stage: str) -> DailyAverages:
    """The :class:`DailyAverages` of :data:`DAILY_AVERAGES_FILE` in ``out_dir``, which ``stage`` reads."""
    rows = read_artifact(out_dir, DAILY_AVERAGES_FILE, stage, ["daily_avg_buses"])
    for row, cells in enumerate(rows, start=1):
        if cells["outlier"] not in ("0", "1"):
            raise ValueError(f"{DAILY_AVERAGES_FILE} data row {row}: outlier {cells['outlier']!r} is not 0 or 1")
    outliers = frozenset(r["key"] for r in rows if r["outlier"] == "1")
    return DailyAverages({r["key"]: r["daily_avg_buses"] for r in rows}, outliers)


# ── Cluster stage ───────────────────────────────────────────────────────


def run_cluster(
    out_dir: Path, dataset: Dataset, config: PipelineConfig, passages: PassageTable, analyzed: DailyAverages
) -> list[Cluster]:
    from . import analytics, clustering

    candidates = clustering.build_candidates(analyzed.outliers.intersection(dataset.stops), analyzed.averages)
    clusters = clustering.cluster_stops(candidates, dataset.stops, config.cluster_radius_m)
    # the full day and each period at the correlation window, for the pair
    # rows; each period at every sync window, for the profile
    corr_cells = [(period, config.window_minutes) for period in (None, *config.periods)]
    sync_cells = [(period, w) for period in config.periods for w in config.window_set]
    enriched, scatter, correlations = clustering.cluster_stats(
        clusters, passages, config.window_minutes, config.span_minutes, corr_cells + sync_cells
    )

    membership = Counter(member for c in enriched for member in c.members)
    # distinct stops covered vs total membership slots: differ when
    # non-candidate stops join several clusters
    cover_note = f"distinct_stops_covered={len(membership)} total_memberships={sum(membership.values())}"
    cluster_rows = [
        (
            c.cluster_id,
            c.centroid_stop_id,
            len(c.members),
            sum(1 for m in c.members if membership[m] > 1),
            len(c.lines_served),
            c.avg_buses,
            STOP_ID_SEPARATOR.join(c.member_list),
            ";".join(sorted(c.lines_served)),
        )
        for c in enriched
    ]
    write_csv(out_dir, CLUSTERS_FILE, cluster_rows, notes=[cover_note])
    centroids = [dataset.stops[c.centroid_stop_id] for c in enriched]
    centroid_rows = [(c.cluster_id, stop.lat, stop.lon, c.avg_buses) for c, stop in zip(enriched, centroids)]
    write_csv(out_dir, "cluster_centroids.csv", centroid_rows)
    scatter_note = f"pearson_r={_fmt(scatter.r)} p_value={_fmt(scatter.p_value)} n={scatter.n_clusters}"
    scatter_rows = [(c.cluster_id, c.avg_buses, len(c.lines_served)) for c in enriched]
    write_csv(out_dir, "cluster_scatter.csv", scatter_rows, notes=[scatter_note])

    corr_rows, profile_rows, profiles = [], [], []
    for cluster, (members, matrices) in zip(enriched, correlations):
        if not members:
            continue
        first, second = np.triu_indices(len(members), 1)
        for period, w in corr_cells:
            label = period.name if period else FULL_DAY
            for i, j, r in zip(first.tolist(), second.tolist(), matrices[period, w][first, second].tolist()):
                corr_rows.append((cluster.cluster_id, label, members[i], members[j], None if math.isnan(r) else r))
        profile = analytics.cluster_sync_profile({cell: matrices[cell] for cell in sync_cells})
        profiles.append(profile)
        for (period_name, window), value in sorted(profile.items()):
            profile_rows.append((cluster.cluster_id, period_name, window, value))
    write_csv(out_dir, "cluster_stop_correlations.csv", corr_rows)
    write_csv(out_dir, "sync_profiles.csv", profile_rows)
    combined = analytics.mean_sync_across_clusters(profiles) if profiles else {}
    write_csv(out_dir, "sync_summary.csv", [(*key, value) for key, value in sorted(combined.items())])
    return enriched


def read_clusters(out_dir: Path, stage: str) -> list[Cluster]:
    """The clusters of :data:`CLUSTERS_FILE` in ``out_dir``, which ``stage`` reads."""
    return [
        Cluster(
            cluster_id=r["cluster_id"],
            centroid_stop_id=r["centroid_stop_id"],
            members=frozenset(r["members"].split(STOP_ID_SEPARATOR)) if r["members"] else frozenset(),
            lines_served=frozenset(r["lines"].split(";")) if r["lines"] else frozenset(),
            avg_buses=r["avg_buses"],
        )
        for r in read_artifact(out_dir, CLUSTERS_FILE, stage, ["avg_buses"])
    ]


# ── Route stage ─────────────────────────────────────────────────────────


def run_route(out_dir: Path, dataset: Dataset, config: PipelineConfig, clusters: Sequence[Cluster]) -> None:
    from . import routing

    g_base = routing.build_graph(dataset.itineraries, dataset.stops)
    g_clustered = routing.add_cluster_transfers(g_base, clusters)
    pairs = routing.generate_od_pairs(
        dataset.stops, config.od_pairs, seed=config.seed, jitter_m=config.od_jitter_m
    )
    evaluation = routing.evaluate_od(
        pairs, g_base, g_clustered, k=config.k_paths, radius_m=config.od_search_radius_m
    )

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
                    STOP_ID_SEPARATOR.join(routing.stop_sequence(trip.path)),
                )
            )
            for rank, (weight, path) in enumerate(trip.alternatives, start=1):
                stops = STOP_ID_SEPARATOR.join(routing.stop_sequence(path))
                path_rows.append((pair_id, network, rank, weight, stops))
    write_csv(out_dir, "od_results.csv", result_rows)
    write_csv(out_dir, "od_paths.csv", path_rows)

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
    write_csv(out_dir, "od_summary.csv", summary_rows)
