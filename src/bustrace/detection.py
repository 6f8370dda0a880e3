"""Reconstruction of complete timed itineraries from passage marks.

Marks arrive as one group's time-ordered :class:`~bustrace.matching.Marks`,
which :func:`segment_trips` cuts into candidate trips. Given the marks of
one trip segment, the detector walks the itinerary positions in order and
accepts, for each position, the first mark at that stop whose time is
strictly later than the last accepted time. Marks that would break time
monotonicity (typically produced where the route passes close to an
out-of-sequence stop) are dropped. Interior positions left without a mark
get their times estimated by uniform subdivision of the enclosing observed
interval; trips missing a mark at the first or last position are rejected
instead of extrapolated. :func:`detect_group` runs both steps on one
track's marks and returns the :class:`GroupOutcome` that trips and tag
tallies are read from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from datetime import date
from typing import TYPE_CHECKING

import numpy as np

from .model import DEFAULT_IDLE_GAP_MIN, DEFAULT_WRAP_FRACTION, ItineraryDef, LineCategory

if TYPE_CHECKING:
    from .matching import Marks

DEFAULT_IDLE_GAP_S = DEFAULT_IDLE_GAP_MIN * 60


class Provenance(enum.Enum):
    OBSERVED = "OBSERVED"
    INTERPOLATED = "INTERPOLATED"


# ── Time-of-day helpers ─────────────────────────────────────────────────


def parse_time_of_day(text: str) -> int:
    """'HH:MM:SS' -> seconds of day."""
    h, m, s = text.split(":")
    return int(h) * 3600 + int(m) * 60 + int(s)


def round_to_second(value):
    """Round seconds to whole seconds; exact .5 ties go to the odd second.

    Takes a number, giving an int, or an array, giving an int64 array.
    """
    base = value // 1  # the floor, without numpy scalars for a number
    frac = value - base
    rounded = base + ((frac > 0.5) | ((frac == 0.5) & (base % 2 == 0)))
    return rounded.astype(np.int64) if isinstance(rounded, np.ndarray) else int(rounded)


def format_time_of_day(value: float) -> str:
    """Seconds of day -> 'HH:MM:SS', rounding fractional seconds."""
    total = round_to_second(value)
    h, rem = divmod(total, 3600)
    m, s = divmod(rem, 60)
    return f"{h:02d}:{m:02d}:{s:02d}"


# ── Result types ────────────────────────────────────────────────────────


@dataclass(frozen=True, eq=False)
class DetectedItinerary:
    """One reconstructed trip: every itinerary position with a passage time.

    ``stop_ids``, ``time_s`` (float64 seconds of day; observed entries
    carry the integral mark time) and ``observed`` (bool; False for an
    interpolated time) are parallel: index i is position i + 1.
    """

    line_code: str
    vehicle_id: str
    direction: str
    stop_ids: tuple[str, ...]
    time_s: np.ndarray
    observed: np.ndarray
    day: date | None = None

    def __post_init__(self):
        if not 0 < len(self.stop_ids) == len(self.time_s) == len(self.observed):
            raise ValueError("entries must cover positions 1..n exactly once, in order")
        if np.any(np.diff(self.time_s) <= 0):
            raise ValueError("entry times must be strictly increasing")
        if not self.observed[0]:
            raise ValueError("first entry must be observed")
        if not self.observed[-1]:
            raise ValueError("last entry must be observed")

    def __eq__(self, other):
        if not isinstance(other, DetectedItinerary):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def interpolated_count(self) -> int:
        return len(self.observed) - int(np.count_nonzero(self.observed))

    def is_fully_observed(self) -> bool:
        return self.interpolated_count == 0


@dataclass
class DetectionResult:
    """Outcome of running detection on one trip segment."""

    itinerary: DetectedItinerary | None
    rejection: str | None
    dropped: tuple[int, ...]  # segment indices of marks left out by the monotone-time rule
    segment_size: int
    borrowed_marks: int = 0  # boundary marks already tallied with the previous trip

    @property
    def accepted(self) -> bool:
        return self.itinerary is not None

    @property
    def own_marks(self) -> int:
        return self.segment_size - self.borrowed_marks


# ── Interpolation ───────────────────────────────────────────────────────


def interpolate_gap(t_start: float, t_end: float, w: int) -> list[float]:
    """Estimate times for the w-1 stops between two observed anchors.

    The anchors are w itinerary intervals apart; estimates accumulate a
    uniform increment of (t_end - t_start) / w from the first anchor and
    lie strictly inside the open interval.
    """
    if w < 2:
        raise ValueError(f"gap width must span at least 2 intervals, got {w}")
    delta = t_end - t_start
    if delta <= 0:
        raise ValueError(f"anchors out of order: {t_start} .. {t_end}")
    step = delta / w
    estimates: list[float] = []
    current = float(t_start)
    for _ in range(w - 1):
        current += step
        estimates.append(current)
    if estimates[-1] >= t_end:
        raise ValueError("interpolation overflow past the closing anchor")
    return estimates


# ── Trip segmentation ───────────────────────────────────────────────────


@dataclass
class Segmentation:
    segments: list[Marks]
    # per segment, how many leading marks were carried over from the
    # previous trip (a circular boundary passage serves both trips but
    # must be tallied once)
    borrowed: list[int]
    discarded: list[Marks]  # fewer than 2 distinct stops

    @property
    def discarded_marks(self) -> int:
        return sum(len(s) for s in self.discarded)


def segment_trips(
    marks: Marks,
    itinerary: ItineraryDef,
    idle_gap_s: int = DEFAULT_IDLE_GAP_S,
) -> Segmentation:
    """Split time-ordered marks into candidate trip segments.

    A segment closes when the matched itinerary position falls back by more
    than ``DEFAULT_WRAP_FRACTION`` of the itinerary length relative to the
    running maximum (sequence wrap), or after an idle gap with no marks. Isolated
    out-of-sequence marks cannot force a split in either direction: a mark
    jumping forward past the threshold does not advance the running maximum
    until a second mark lands near it, and a fallback only commits the wrap
    when the following mark continues forward from the restart position
    (unconfirmed strays stay put for the detector's monotone rule to drop).
    On a wrap of a circular itinerary the boundary mark at the shared
    terminal is carried into the new segment, since one passage both closes
    a loop and opens the next.
    """
    n = len(itinerary)
    threshold = DEFAULT_WRAP_FRACTION * n
    window_positions = itinerary.window_positions
    fallback_confirmers = itinerary.fallback_confirmers
    outside = (marks.position < 1) | (marks.position > n)
    if outside.any():
        position = marks.position[outside][0]
        raise ValueError(f"mark position {position} is outside the itinerary (1..{n})")
    # each mark's stop as its first position: 1 is the itinerary's first stop
    stops = np.asarray(itinerary.first_positions)[marks.position - 1].tolist()
    times = marks.time_s.tolist()

    result = Segmentation(segments=[], borrowed=[], discarded=[])
    if not stops:
        return result
    start = 0  # the current segment's first own mark
    boundary: int | None = None  # its carried-over terminal mark
    p_max = stops[0]
    pending: int | None = None

    def close(end: int):
        distinct = set(stops[start:end])
        if boundary is None:
            segment = marks[start:end]
        else:
            segment = marks[np.r_[boundary, start:end]]
            distinct.add(1)
        if len(distinct) >= 2:
            result.segments.append(segment)
            result.borrowed.append(int(boundary is not None))
        else:
            result.discarded.append(segment)

    for index in range(1, len(stops)):
        stop, time_s = stops[index], times[index]
        carry = None
        if time_s - times[index - 1] <= idle_gap_s:
            # the stop's smallest position within the wrap window, 0 if none
            p_eff = window_positions[stop][p_max]
            if p_eff:
                if p_eff - p_max > threshold:
                    if pending is not None and p_eff >= pending:
                        p_max, pending = p_eff, None
                    else:
                        pending = p_eff
                else:
                    p_max, pending = max(p_max, p_eff), None
                continue
            if index + 1 == len(stops) or stop not in fallback_confirmers[stops[index + 1]]:
                continue  # an unconfirmed fallback stays put
            if itinerary.circular:
                # One terminal passage both closes a loop and opens the
                # next; reuse the latest terminal mark unless stale.
                own = (i for i in range(index - 1, start - 1, -1) if stops[i] == 1)
                recent = next(own, boundary)
                if recent is not None and time_s - times[recent] <= idle_gap_s:
                    carry = recent
        close(index)
        start, boundary, p_max, pending = index, carry, stop, None

    close(len(stops))
    return result


# ── Detection ───────────────────────────────────────────────────────────

REJECT_NO_FIRST = "no mark for first stop"
REJECT_NO_LAST = "no mark for last stop"


def detect(
    itinerary: ItineraryDef,
    segment: Marks,
    day: date | None = None,
    borrowed_marks: int = 0,
    vehicle_id: str = "",
) -> DetectionResult:
    """Associate one segment's marks with the itinerary.

    Returns an accepted DetectedItinerary with interpolated interior gaps,
    or a rejection when the first or last position has no usable mark.
    Marks excluded by the monotone-time rule (or outside the itinerary)
    are reported as dropped, by index in the segment. ``borrowed_marks``
    (from the segmentation) flows through to the result so reporting can
    avoid double-counting shared boundary passages.
    """
    stop_ids = itinerary.stop_ids
    n = len(stop_ids)
    first_of = itinerary.first_positions
    times = segment.time_s.tolist()
    marks_at: dict[int, list[int]] = {}  # a mark outside the itinerary is in no list
    for index, position in enumerate(segment.position.tolist()):
        if 1 <= position <= n:
            marks_at.setdefault(first_of[position - 1], []).append(index)

    accepted: list[int | None] = [None] * n  # per position, the accepted mark's index
    last_time: int | None = None
    for pos_idx in range(n):
        for index in marks_at.get(first_of[pos_idx], ()):
            if last_time is None or times[index] > last_time:
                accepted[pos_idx] = index
                last_time = times[index]
                break

    taken = set(accepted)
    result = DetectionResult(
        itinerary=None,
        rejection=None,
        dropped=tuple(i for i in range(len(times)) if i not in taken),
        segment_size=len(times),
        borrowed_marks=borrowed_marks,
    )
    if accepted[0] is None:
        result.rejection = REJECT_NO_FIRST
        return result
    if accepted[-1] is None:
        result.rejection = REJECT_NO_LAST
        return result

    anchors = [pos_idx for pos_idx, index in enumerate(accepted) if index is not None]
    time_s = np.empty(n)
    observed = np.zeros(n, dtype=bool)
    observed[anchors] = True
    time_s[anchors] = [times[accepted[pos_idx]] for pos_idx in anchors]
    for a, b in zip(anchors, anchors[1:]):
        if b - a > 1:
            time_s[a + 1 : b] = interpolate_gap(float(time_s[a]), float(time_s[b]), b - a)
    result.itinerary = DetectedItinerary(
        line_code=itinerary.line_code,
        vehicle_id=vehicle_id,
        direction=itinerary.direction,
        stop_ids=stop_ids,
        time_s=time_s,
        observed=observed,
        day=day,
    )
    return result


# ── One track on one itinerary ──────────────────────────────────────────


@dataclass
class GroupOutcome:
    """Detection outcome for one (vehicle, line, day, itinerary) run.

    :func:`detect_group` is the one path from a track's marks to an
    outcome: :attr:`trips` gives its accepted trips and :func:`tag_report`
    tallies its marks.
    """

    line_code: str
    direction: str
    vehicle_id: str
    day: date | None
    total_marks: int
    results: list[DetectionResult]
    discarded_segments: int
    discarded_marks: int

    @property
    def trips(self) -> list[DetectedItinerary]:
        """The accepted trips, in segment order."""
        return [result.itinerary for result in self.results if result.accepted]


def detect_group(
    marks: Marks,
    itinerary: ItineraryDef,
    *,
    vehicle_id: str = "",
    day: date | None = None,
    idle_gap_s: int = DEFAULT_IDLE_GAP_S,
) -> GroupOutcome:
    """Segment one track's time-ordered marks on ``itinerary`` and detect every segment.

    Each segment is detected with the boundary mark it borrowed from the
    previous trip, so :func:`tag_report` tallies every mark once.
    """
    segmentation = segment_trips(marks, itinerary, idle_gap_s=idle_gap_s)
    return GroupOutcome(
        line_code=itinerary.line_code,
        direction=itinerary.direction,
        vehicle_id=vehicle_id,
        day=day,
        total_marks=len(marks),
        results=[
            detect(itinerary, segment, day=day, borrowed_marks=borrowed, vehicle_id=vehicle_id)
            for segment, borrowed in zip(segmentation.segments, segmentation.borrowed)
        ],
        discarded_segments=len(segmentation.discarded),
        discarded_marks=segmentation.discarded_marks,
    )


# ── Interpolation-error protocol ────────────────────────────────────────


@dataclass(frozen=True)
class InterpolationErrorSample:
    w: int
    err_seconds: float


def evaluate_interpolation_error(
    detections: list[DetectedItinerary],
    w: int,
    samples: int,
    seed: int = 0,
) -> list[InterpolationErrorSample]:
    """Measure interpolation error by deleting known stop times.

    Each sample deletes w-1 consecutive interior entries from one fully
    observed trip, re-estimates them from the surviving anchors, and
    records |true - estimated| per deleted stop. Gap start positions are
    sampled without replacement across all trips; the evaluation protocol
    uses w in 2..8 with 100 samples per width.
    """
    if w < 2:
        raise ValueError(f"gap width must span at least 2 intervals, got {w}")
    for det in detections:
        if not det.is_fully_observed():
            raise ValueError(
                f"trip {det.line_code}/{det.vehicle_id} contains interpolated entries; "
                "the protocol requires fully observed trips"
            )

    eligible = [
        (trip_idx, anchor)
        for trip_idx, det in enumerate(detections)
        for anchor in range(len(det.stop_ids) - w)
    ]
    if samples > len(eligible):
        raise ValueError(
            f"requested {samples} samples but only {len(eligible)} eligible gap positions"
        )

    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(eligible), size=samples, replace=False)

    results: list[InterpolationErrorSample] = []
    for index in chosen:
        trip_idx, anchor = eligible[int(index)]
        times = detections[trip_idx].time_s.tolist()
        estimates = interpolate_gap(times[anchor], times[anchor + w], w)
        for offset, estimate in enumerate(estimates, start=1):
            err = abs(times[anchor + offset] - estimate)
            results.append(InterpolationErrorSample(w=w, err_seconds=err))
    return results


# ── Tag validity report ─────────────────────────────────────────────────


@dataclass
class TagCategoryRow:
    category: str
    total_marks: int = 0
    valid_tags: int = 0
    out_of_order: int = 0
    missing: int = 0
    rejected_segments: int = 0
    rejected_marks: int = 0
    discarded_segments: int = 0
    discarded_marks: int = 0

    @property
    def valid_pct(self) -> float:
        return 100.0 * self.valid_tags / self.total_marks if self.total_marks else 0.0

    @property
    def error_total(self) -> int:
        return self.out_of_order + self.missing

    @property
    def error_pct(self) -> float:
        return 100.0 * self.error_total / self.valid_tags if self.valid_tags else 0.0


@dataclass
class TagReport:
    rows: dict[str, TagCategoryRow]
    total: TagCategoryRow
    # Marks of rejected and discarded segments stay in every denominator.
    denominator_note: str = (
        "valid_pct denominator counts all map-matching marks, including marks "
        "from rejected or discarded segments"
    )


def tag_report(
    outcomes: list[GroupOutcome], categories: dict[str, LineCategory]
) -> TagReport:
    """Aggregate per-category tag validity and error-type counts.

    A mark is valid when its segment was accepted; dropped out-of-order
    marks inside accepted segments count as error type i, interpolated
    entries as error type ii (missing stops). Aggregation is commutative,
    so outcome order does not affect the report.
    """
    rows: dict[str, TagCategoryRow] = {}
    total = TagCategoryRow(category="TOTAL")

    for outcome in outcomes:
        category = categories[outcome.line_code].value
        row = rows.setdefault(category, TagCategoryRow(category=category))
        for target in (row, total):
            target.total_marks += outcome.total_marks
            target.discarded_segments += outcome.discarded_segments
            target.discarded_marks += outcome.discarded_marks
        for result in outcome.results:
            if result.accepted:
                for target in (row, total):
                    target.valid_tags += result.own_marks
                    target.out_of_order += len(result.dropped)
                    target.missing += result.itinerary.interpolated_count
            else:
                for target in (row, total):
                    target.rejected_segments += 1
                    target.rejected_marks += result.own_marks

    return TagReport(rows=dict(sorted(rows.items())), total=total)
