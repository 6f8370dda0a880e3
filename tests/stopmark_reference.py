"""Test-only reference: the StopMark-based segmentation and detection.

These are the ``segment_trips`` and ``detect`` that walked one frozen
``StopMark`` object per passage mark and returned trips as tuples of
``TimedStop`` entries, kept verbatim (with their types) as the oracle for
the columnar ``bustrace.detection`` code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import date

from bustrace.detection import (
    DEFAULT_IDLE_GAP_S,
    DEFAULT_WRAP_FRACTION,
    interpolate_gap,
)
from bustrace.model import ItineraryDef


class Provenance(enum.Enum):
    OBSERVED = "OBSERVED"
    INTERPOLATED = "INTERPOLATED"


@dataclass(frozen=True, slots=True)
class StopMark:
    """A map-matched passage event at one stop."""

    stop_id: str
    seq_hint: int  # smallest itinerary position served by this stop
    time_s: int
    distance_m: float
    vehicle_id: str


@dataclass(frozen=True)
class TimedStop:
    stop_id: str
    position: int  # 1-based itinerary position
    time_s: float  # observed entries carry the integral mark time
    provenance: Provenance


@dataclass(frozen=True)
class DetectedItinerary:
    """One reconstructed trip: every itinerary position with a passage time."""

    line_code: str
    vehicle_id: str
    direction: str
    entries: tuple[TimedStop, ...]
    day: date | None = None

    def __post_init__(self):
        positions = [e.position for e in self.entries]
        if positions != list(range(1, len(self.entries) + 1)):
            raise ValueError("entries must cover positions 1..n exactly once, in order")
        times = [e.time_s for e in self.entries]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("entry times must be strictly increasing")
        if self.entries[0].provenance is not Provenance.OBSERVED:
            raise ValueError("first entry must be observed")
        if self.entries[-1].provenance is not Provenance.OBSERVED:
            raise ValueError("last entry must be observed")

    @property
    def observed_count(self) -> int:
        return sum(1 for e in self.entries if e.provenance is Provenance.OBSERVED)

    @property
    def interpolated_count(self) -> int:
        return len(self.entries) - self.observed_count

    def is_fully_observed(self) -> bool:
        return self.interpolated_count == 0


@dataclass
class DetectionResult:
    """Outcome of running detection on one trip segment."""

    itinerary: DetectedItinerary | None
    rejection: str | None
    dropped_marks: list[StopMark]
    segment_size: int
    borrowed_marks: int = 0  # boundary marks already tallied with the previous trip

    @property
    def accepted(self) -> bool:
        return self.itinerary is not None

    @property
    def own_marks(self) -> int:
        return self.segment_size - self.borrowed_marks



@dataclass
class Segmentation:
    segments: list[list[StopMark]]
    # per segment, how many leading marks were carried over from the
    # previous trip (a circular boundary passage serves both trips but
    # must be tallied once)
    borrowed: list[int]
    discarded: list[list[StopMark]]  # fewer than 2 distinct stops

    @property
    def discarded_marks(self) -> int:
        return sum(len(s) for s in self.discarded)


def segment_trips(
    marks: list[StopMark],
    itinerary: ItineraryDef,
    idle_gap_s: int = DEFAULT_IDLE_GAP_S,
    wrap_fraction: float = DEFAULT_WRAP_FRACTION,
) -> Segmentation:
    """Split time-ordered marks into candidate trip segments.

    A segment closes when the matched itinerary position falls back by more
    than ``wrap_fraction`` of the itinerary length relative to the running
    maximum (sequence wrap), or after an idle gap with no marks. Isolated
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
    threshold = wrap_fraction * n
    positions_of: dict[str, list[int]] = {}
    for position, stop_id in enumerate(itinerary.stop_ids, start=1):
        positions_of.setdefault(stop_id, []).append(position)
    first_stop = itinerary.stop_ids[0]

    for mark in marks:
        if mark.stop_id not in positions_of:
            raise ValueError(f"mark at stop {mark.stop_id} does not belong to the itinerary")

    result = Segmentation(segments=[], borrowed=[], discarded=[])
    current: list[StopMark] = []
    current_borrowed = 0
    p_max = 0
    pending: int | None = None
    prev_time = 0

    def close():
        if not current:
            return
        if len({m.stop_id for m in current}) >= 2:
            result.segments.append(list(current))
            result.borrowed.append(current_borrowed)
        else:
            result.discarded.append(list(current))

    for index, mark in enumerate(marks):
        matches = positions_of[mark.stop_id]

        if current and mark.time_s - prev_time > idle_gap_s:
            close()
            current = []
            current_borrowed = 0

        if not current:
            current = [mark]
            p_max = min(matches)
            pending = None
            prev_time = mark.time_s
            continue

        in_window = [p for p in matches if p_max - p <= threshold]
        if in_window:
            p_eff = min(in_window)
            if p_eff - p_max > threshold:
                if pending is not None and p_eff >= pending:
                    p_max = p_eff
                    pending = None
                else:
                    pending = p_eff
            else:
                p_max = max(p_max, p_eff)
                pending = None
            current.append(mark)
        else:
            restart = min(matches)
            confirmed = False
            if index + 1 < len(marks):
                following = positions_of[marks[index + 1].stop_id]
                confirmed = any(0 <= p - restart <= threshold for p in following)
            if confirmed:
                boundary = None
                if itinerary.circular:
                    # One terminal passage both closes a loop and opens the
                    # next; reuse the latest terminal mark unless stale.
                    recent = [m for m in current if m.stop_id == first_stop]
                    if recent and mark.time_s - recent[-1].time_s <= idle_gap_s:
                        boundary = recent[-1]
                close()
                current = [boundary] if boundary is not None else []
                current_borrowed = 1 if boundary is not None else 0
                current.append(mark)
                p_max = restart
                pending = None
            else:
                current.append(mark)
        prev_time = mark.time_s

    close()
    return result


# ── Detection ───────────────────────────────────────────────────────────

REJECT_NO_FIRST = "no mark for first stop"
REJECT_NO_LAST = "no mark for last stop"
REJECT_TOO_FEW = "fewer than 2 observed marks"


def detect(
    itinerary: ItineraryDef,
    segment: list[StopMark],
    day: date | None = None,
    borrowed_marks: int = 0,
) -> DetectionResult:
    """Associate one segment's marks with the itinerary.

    Returns an accepted DetectedItinerary with interpolated interior gaps,
    or a rejection when the first or last position has no usable mark.
    Marks excluded by the monotone-time rule are reported as dropped.
    ``borrowed_marks`` (from the segmentation) flows through to the result
    so reporting can avoid double-counting shared boundary passages.
    """
    stop_ids = itinerary.stop_ids
    n = len(stop_ids)

    accepted: list[StopMark | None] = [None] * n
    accepted_idx: set[int] = set()
    last_time: int | None = None
    for pos_idx, stop_id in enumerate(stop_ids):
        for mark_idx, mark in enumerate(segment):
            if mark.stop_id == stop_id and (last_time is None or mark.time_s > last_time):
                accepted[pos_idx] = mark
                accepted_idx.add(mark_idx)
                last_time = mark.time_s
                break

    dropped = [m for i, m in enumerate(segment) if i not in accepted_idx]
    vehicle_id = segment[0].vehicle_id if segment else ""

    def reject(reason: str) -> DetectionResult:
        return DetectionResult(
            itinerary=None,
            rejection=reason,
            dropped_marks=dropped,
            segment_size=len(segment),
            borrowed_marks=borrowed_marks,
        )

    if accepted[0] is None:
        return reject(REJECT_NO_FIRST)
    if accepted[-1] is None:
        return reject(REJECT_NO_LAST)
    if sum(1 for m in accepted if m is not None) < 2:
        return reject(REJECT_TOO_FEW)

    entries: list[TimedStop] = []
    pos_idx = 0
    while pos_idx < n:
        mark = accepted[pos_idx]
        if mark is not None:
            entries.append(
                TimedStop(stop_ids[pos_idx], pos_idx + 1, float(mark.time_s), Provenance.OBSERVED)
            )
            pos_idx += 1
            continue
        gap_start = pos_idx - 1  # previous position is observed by construction
        gap_end = pos_idx
        while accepted[gap_end] is None:
            gap_end += 1
        w = gap_end - gap_start
        estimates = interpolate_gap(
            float(accepted[gap_start].time_s), float(accepted[gap_end].time_s), w
        )
        for offset, estimate in enumerate(estimates, start=1):
            entries.append(
                TimedStop(
                    stop_ids[gap_start + offset],
                    gap_start + offset + 1,
                    estimate,
                    Provenance.INTERPOLATED,
                )
            )
        pos_idx = gap_end

    detected = DetectedItinerary(
        line_code=itinerary.line_code,
        vehicle_id=vehicle_id,
        direction=itinerary.direction,
        entries=tuple(entries),
        day=day,
    )
    return DetectionResult(
        itinerary=detected,
        rejection=None,
        dropped_marks=dropped,
        segment_size=len(segment),
        borrowed_marks=borrowed_marks,
    )


