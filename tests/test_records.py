import io
import json
from collections import defaultdict
from dataclasses import dataclass
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bustrace import records
from bustrace.model import BusStop, FixTrack, LineCategory, StopType
from bustrace.records import RecordError
from bustrace.synthetic import line829_dataset, straight_line_dataset


def stream(*objs):
    return io.StringIO("".join(json.dumps(o) for o in objs).replace("}{", "}\n{") + "\n")


def lines_stream(*objs):
    return io.StringIO("\n".join(json.dumps(o) for o in objs) + "\n")


# ── lines file ──────────────────────────────────────────────────────────


def test_parse_lines_case_study_record():
    got = records.parse_lines(
        lines_stream(
            {"code": "829", "name": "UNIVERSIDADE POSITIVO", "category": "ALIMENTADOR", "color": "LARANJA"}
        )
    )
    assert len(got) == 1
    assert got[0].code == "829"
    assert got[0].category is LineCategory.ALIMENTADOR


def test_parse_lines_empty_stream():
    assert records.parse_lines(io.StringIO("")) == []


def test_parse_lines_normalizes_case():
    got = records.parse_lines(lines_stream({"code": "X", "name": "x", "category": "expresso"}))
    assert got[0].category is LineCategory.EXPRESSO


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("Ligeirão", LineCategory.LIGEIRAO),
        ("LIGEIRÃO", LineCategory.LIGEIRAO),
        ("Linha Direta", LineCategory.LINHA_DIRETA),
        ("madrugueiro", LineCategory.MADRUGUEIRO),
    ],
)
def test_parse_lines_normalizes_accents_and_spaces(raw, expected):
    got = records.parse_lines(lines_stream({"code": "X", "name": "x", "category": raw}))
    assert got[0].category is expected


def test_parse_lines_unknown_category_names_value():
    with pytest.raises(RecordError, match="BOGUS"):
        records.parse_lines(lines_stream({"code": "X", "name": "x", "category": "BOGUS"}))


def test_parse_lines_reports_line_number():
    good = {"code": "A", "name": "a", "category": "TRONCAL"}
    with pytest.raises(RecordError, match="line 2"):
        records.parse_lines(io.StringIO(json.dumps(good) + "\nnot json\n"))


def test_parse_lines_duplicate_code():
    rec = {"code": "A", "name": "a", "category": "TRONCAL"}
    with pytest.raises(RecordError, match="duplicate"):
        records.parse_lines(lines_stream(rec, rec))


# ── line-points file ────────────────────────────────────────────────────


def _point_record(stop_id, lat, lon, line_code="L1", direction="A", seq=1, stop_type="STREET_STOP"):
    return {
        "stop_id": stop_id,
        "name": f"name {stop_id}",
        "stop_type": stop_type,
        "lat": lat,
        "lon": lon,
        "line_code": line_code,
        "direction": direction,
        "seq": seq,
    }


def test_parse_line_points_circular_roundtrip():
    dataset = line829_dataset()
    buf = io.StringIO()
    records.write_line_points(dataset.stops.values(), dataset.itineraries, buf)
    buf.seek(0)
    stops, itineraries = records.parse_line_points(buf)

    assert {s.stop_id for s in stops} == set(dataset.stops)
    assert len(itineraries) == 1
    iti = itineraries[0]
    assert len(iti) == 11
    assert iti.circular
    assert iti.stop_ids[0] == iti.stop_ids[-1] == "829001"
    assert iti == dataset.itineraries[0]


def test_parse_line_points_single_record_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        records.parse_line_points(lines_stream(_point_record("S1", -25.4, -49.3)))


def test_parse_line_points_shared_stop_deduplicated():
    recs = [
        _point_record("S1", -25.4, -49.3, line_code="L1", seq=1),
        _point_record("S2", -25.5, -49.3, line_code="L1", seq=2),
        _point_record("S1", -25.4, -49.3, line_code="L2", seq=1),
        _point_record("S3", -25.6, -49.3, line_code="L2", seq=2),
    ]
    stops, itineraries = records.parse_line_points(lines_stream(*recs))
    assert sorted(s.stop_id for s in stops) == ["S1", "S2", "S3"]
    assert len(itineraries) == 2


def test_parse_line_points_duplicate_seq_rejected():
    recs = [
        _point_record("S1", -25.4, -49.3, seq=1),
        _point_record("S2", -25.5, -49.3, seq=1),
    ]
    with pytest.raises(RecordError, match="duplicate seq"):
        records.parse_line_points(lines_stream(*recs))


def test_parse_line_points_conflicting_coordinates_rejected():
    recs = [
        _point_record("S1", -25.4, -49.3, seq=1),
        _point_record("S2", -25.5, -49.3, seq=2),
        _point_record("S1", -25.4001, -49.3, line_code="L2", seq=1),  # ~11 m away
        _point_record("S3", -25.6, -49.3, line_code="L2", seq=2),
    ]
    with pytest.raises(RecordError, match="re-declared"):
        records.parse_line_points(lines_stream(*recs))


def test_parse_line_points_separator_in_stop_id_rejected():
    # clusters.csv and the stops columns of od_results.csv and od_paths.csv
    # join stop ids with ';', so such an id would not read back as one stop
    recs = [
        _point_record("S1", -25.4, -49.3, seq=1),
        _point_record("S;2", -25.5, -49.3, seq=2),
    ]
    with pytest.raises(RecordError, match="^line 2: stop_id 'S;2' contains ';'"):
        records.parse_line_points(lines_stream(*recs))


def test_parse_line_points_near_coordinates_tolerated():
    recs = [
        _point_record("S1", -25.4, -49.3, seq=1),
        _point_record("S2", -25.5, -49.3, seq=2),
        _point_record("S1", -25.4000005, -49.3, line_code="L2", seq=1),  # well under 1 m
        _point_record("S3", -25.6, -49.3, line_code="L2", seq=2),
    ]
    stops, _ = records.parse_line_points(lines_stream(*recs))
    assert sorted(s.stop_id for s in stops) == ["S1", "S2", "S3"]


# ── fixes file ──────────────────────────────────────────────────────────


def _fix_record(dthr="07/11/2022 06:04:51", vehicle="BA020", lat=-25.44, lon=-49.33):
    return {"vehicle_id": vehicle, "line_code": "829", "lat": lat, "lon": lon, "dthr": dthr}


def test_parse_fixes_case_study_timestamp():
    got = records.parse_vehicle_fixes(lines_stream(_fix_record()))
    assert len(got) == 1
    assert got.vehicle_ids[got.vehicle[0]] == "BA020"
    assert got.days[got.day[0]] == date(2022, 11, 7)
    assert got.time_s[0] == 21891


def test_parse_fixes_exact_duplicates_collapse():
    got = records.parse_vehicle_fixes(lines_stream(_fix_record(), _fix_record()))
    assert len(got) == 1


def test_parse_fixes_near_duplicates_kept():
    got = records.parse_vehicle_fixes(
        lines_stream(_fix_record(), _fix_record(lat=-25.440001))
    )
    assert len(got) == 2


def test_parse_fixes_sorted_by_time():
    got = records.parse_vehicle_fixes(
        lines_stream(
            _fix_record("07/11/2022 08:00:00"),
            _fix_record("07/11/2022 06:00:00"),
            _fix_record("07/11/2022 07:00:00"),
        )
    )
    assert list(got.time_s) == sorted(got.time_s)


def test_parse_fixes_tied_keys_keep_input_order_and_lose_later_exact_copies():
    """Fixes sharing (vehicle, line, day, time) keep their input order, even
    where their coordinates would sort them the other way; a later exact
    copy of one, -0.0 for 0.0 included, is dropped."""
    a = _fix_record(lat=-25.44, lon=0.0)
    b = _fix_record(lat=-25.45, lon=0.0)  # sorts before A on its coordinates
    got = records.parse_vehicle_fixes(
        lines_stream(_fix_record("07/11/2022 06:05:00"), a, b, a, a | {"lon": -0.0})
    )
    assert got.time_s.tolist() == [21891, 21891, 21900]
    assert got.lat.tolist() == [-25.44, -25.45, -25.44]
    assert [float.hex(x) for x in got.lon.tolist()[:2]] == [float.hex(0.0)] * 2  # A, not its twin


def test_parse_fixes_bad_timestamp():
    with pytest.raises(RecordError, match="unparseable timestamp"):
        records.parse_vehicle_fixes(lines_stream(_fix_record("2022-11-07 06:00:00")))


def test_parse_fixes_coordinate_out_of_range():
    with pytest.raises(RecordError, match="latitude"):
        records.parse_vehicle_fixes(lines_stream(_fix_record(lat=-95.0)))


def test_parse_fixes_missing_field_names_its_line_once():
    record = _fix_record()
    del record["vehicle_id"]
    with pytest.raises(RecordError) as info:
        records.parse_vehicle_fixes(lines_stream(_fix_record(), record))
    assert str(info.value) == "line 2: missing field 'vehicle_id'"
    assert info.value.line_no == 2


def test_parse_fixes_huge_integer_coordinate_is_a_record_error():
    huge = json.dumps(_fix_record())[:-1] + ', "lon": 1' + "0" * 400 + "}"
    with pytest.raises(RecordError) as info:
        records.parse_vehicle_fixes(io.StringIO(json.dumps(_fix_record()) + "\n" + huge + "\n"))
    assert str(info.value) == "line 2: int too large to convert to float"
    out_of_range = json.dumps(_fix_record(lat=-95.0))
    with pytest.raises(RecordError, match="line 1: fix BA020: latitude out of range"):
        records.parse_vehicle_fixes(io.StringIO(out_of_range + "\n" + huge + "\n"))


def test_parse_line_points_errors_name_their_line_once():
    record = _point_record("S1", -25.4, -49.3)
    del record["name"]
    with pytest.raises(RecordError) as info:
        records.parse_line_points(lines_stream(record))
    assert str(info.value) == "line 1: missing field 'name'"
    huge = json.dumps(_point_record("S1", -25.4, -49.3))[:-1] + ', "lat": 1' + "0" * 400 + "}"
    with pytest.raises(RecordError, match="^line 1: int too large to convert to float$"):
        records.parse_line_points(io.StringIO(huge + "\n"))


# ── the fixes parser against the per-record parser it replaced ──────────


@dataclass(frozen=True)
class _RefFix:
    vehicle_id: str
    line_code: str
    lat: float
    lon: float
    day: date
    time_s: int

    def __post_init__(self):
        for field in ("vehicle_id", "line_code"):
            value = getattr(self, field)
            forbidden = [c for c in value if c in ',;"\r\n']
            if forbidden:
                raise ValueError(f"{field} {value!r} contains {forbidden[0]!r}")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"fix {self.vehicle_id}: latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"fix {self.vehicle_id}: longitude out of range: {self.lon}")
        if not 0 <= self.time_s < 86_400:
            raise ValueError(f"fix {self.vehicle_id}: time outside service day: {self.time_s}")


def _reference_parse(stream):
    """The per-record fixes parser, one object per fix, kept as an oracle.

    Two deliberate changes: a missing field inside the fix constructor used
    to be wrapped in a second RecordError, which printed its line prefix
    twice; the ``except RecordError`` clause reports it once. And a vehicle
    id or line code holding one of , ; " CR LF is refused, before the
    coordinate ranges are checked.
    """
    fixes = []
    seen = set()
    for line_no, record in records._iter_records(stream):
        raw_ts = str(records._require(record, "dthr", line_no))
        try:
            day, time_s = records.parse_timestamp(raw_ts)
        except ValueError:
            raise RecordError(line_no, f"unparseable timestamp: {raw_ts!r}") from None
        try:
            fix = _RefFix(
                vehicle_id=str(records._require(record, "vehicle_id", line_no)),
                line_code=str(records._require(record, "line_code", line_no)),
                lat=float(records._require(record, "lat", line_no)),
                lon=float(records._require(record, "lon", line_no)),
                day=day,
                time_s=time_s,
            )
        except RecordError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise RecordError(line_no, str(exc)) from None
        key = (fix.vehicle_id, fix.day, fix.time_s, fix.lat, fix.lon, fix.line_code)
        if key in seen:
            continue
        seen.add(key)
        fixes.append(fix)
    fixes.sort(key=lambda f: (f.vehicle_id, f.line_code, f.day, f.time_s))
    return fixes


def _reference_groups(fixes):
    groups = defaultdict(list)
    for fix in fixes:
        groups[(fix.vehicle_id, fix.line_code, fix.day)].append(fix)
    for group in groups.values():
        group.sort(key=lambda f: f.time_s)
    return dict(groups)


def _exact(lat, lon, time_s):
    """A fix as comparable values; float.hex tells -0.0 from 0.0."""
    return (float(lat).hex(), float(lon).hex(), int(time_s))


# Small value pools, so that random files hold exact duplicates, equal
# times with other coordinates, and ids that print alike (7 and "7"), hash
# alike but print differently (1, 1.0 and True), or do not hash (["V1"]).
_vehicle_ids = st.sampled_from(["V1", "V2", 7, "7", 1, 1.0, True, ["V1"]])
_line_codes = st.sampled_from(["L1", "L2", 3])
_coords = st.sampled_from([0.0, -0.0, 12.5, -25.44, 89.5, 5, "12.5", "-0.0", " 3.25 "])


@st.composite
def _timestamps(draw):
    d = draw(st.sampled_from([7, 8]))
    h, m, s = draw(st.integers(0, 23)), draw(st.sampled_from([0, 4, 59])), draw(st.sampled_from([0, 5, 51]))
    if draw(st.booleans()):
        return f"{d:02d}/11/2022 {h:02d}:{m:02d}:{s:02d}"
    return f"{d}/11/2022 {h}:{m}:{s}"  # unpadded, which strptime also reads


_fix_json = st.builds(
    lambda v, l, la, lo, ts: {"vehicle_id": v, "line_code": l, "lat": la, "lon": lo, "dthr": ts},
    _vehicle_ids,
    _line_codes,
    _coords,
    _coords,
    _timestamps(),
)


# Other spellings of the same coordinate value: a copy written with them
# is still an exact duplicate.
_TWIN = {"-0.0": 0.0, "12.5": 12.5, 12.5: "12.5", 5: 5.0}


def _twin(value):
    if isinstance(value, float) and value == 0.0:
        return -value
    return _TWIN.get(value, value)


def _respelled(dthr):
    """The same instant, zero-padded if ``dthr`` is not and unpadded if it is."""
    day, time_s = records.parse_timestamp(dthr)
    padded = records.format_timestamp(day, time_s)
    if dthr != padded:
        return padded
    h, rem = divmod(time_s, 3600)
    return f"{day.day}/{day.month}/{day.year} {h}:{rem // 60}:{rem % 60}"


@st.composite
def _ndjson_lines(draw, min_size=0):
    recs = draw(st.lists(_fix_json, min_size=min_size, max_size=40))
    for _ in range(draw(st.integers(0, 5))):  # non-adjacent copies of earlier records
        if recs:
            copy = dict(recs[draw(st.integers(0, len(recs) - 1))])
            if draw(st.booleans()):
                copy["lat"], copy["lon"] = _twin(copy["lat"]), _twin(copy["lon"])
            if draw(st.booleans()):
                copy["dthr"] = _respelled(copy["dthr"])
            recs.insert(draw(st.integers(0, len(recs))), copy)
    lines = [json.dumps(r) for r in recs]
    if lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "   ")
    return lines


def _groups_as_values(groups):
    return {
        key: [_exact(*fix) for fix in zip(track.lat, track.lon, track.time_s)]
        for key, track in groups.items()
    }


@given(_ndjson_lines())
@settings(max_examples=300, deadline=None)
def test_fix_groups_equal_per_record_reference(lines):
    text = "\n".join(lines) + "\n"
    table = records.parse_vehicle_fixes(io.StringIO(text))
    reference = _reference_parse(io.StringIO(text))
    assert len(table) == len(reference)
    got = _groups_as_values(records.group_fixes(table))
    expected = {
        key: [_exact(f.lat, f.lon, f.time_s) for f in group]
        for key, group in _reference_groups(reference).items()
    }
    assert list(got) == list(expected)
    assert got == expected


def _without(key):
    def bad(record):
        record = dict(record)
        del record[key]
        return json.dumps(record)

    return bad


_MALFORMED = {
    "bad JSON": lambda r: json.dumps(r)[:-1],
    "not an object": lambda r: json.dumps([r]),
    "missing dthr": _without("dthr"),
    "missing vehicle_id": _without("vehicle_id"),
    "missing lon": _without("lon"),
    "no 31 February": lambda r: json.dumps(r | {"dthr": "31/02/2024 10:00:00"}),
    "no hour 24": lambda r: json.dumps(r | {"dthr": "07/11/2022 24:00:00"}),
    "latitude out of range": lambda r: json.dumps(r | {"lat": -95.0}),
    "longitude out of range": lambda r: json.dumps(r | {"lon": 180.5}),
    "both out of range": lambda r: json.dumps(r | {"lat": 90.5, "lon": -200.0}),
    "NaN latitude": lambda r: json.dumps(r | {"lat": float("nan")}),
    "NaN longitude": lambda r: json.dumps(r | {"lon": "nan"}),
    "null coordinate": lambda r: json.dumps(r | {"lat": None}),
    "huge integer latitude": lambda r: json.dumps(r | {"lat": 10**400}),
}


@given(
    _ndjson_lines(min_size=1),
    st.lists(
        st.tuples(st.sampled_from(sorted(_MALFORMED)), _fix_json, st.integers(0, 50)),
        min_size=1,
        max_size=2,
        unique_by=lambda bad: bad[0],
    ),
)
@settings(max_examples=300, deadline=None)
def test_malformed_fix_reported_like_per_record_reference(lines, injected):
    lines = list(lines)
    for kind, record, at in injected:
        lines.insert(at % (len(lines) + 1), _MALFORMED[kind](record))
    text = "\n".join(lines) + "\n"
    with pytest.raises(RecordError) as expected:
        _reference_parse(io.StringIO(text))
    with pytest.raises(RecordError) as got:
        records.parse_vehicle_fixes(io.StringIO(text))
    assert got.value.line_no == expected.value.line_no
    assert str(got.value) == str(expected.value)


# ── the block-wise fast path against the same reference ─────────────────

# JSON texts of field values. The first pool of each field is what
# write_vehicle_fixes writes and the bulk decoder takes: floats with a
# fraction or an exponent (both zeros, a subnormal, a 17-digit mantissa),
# ids with non-ASCII text, a raw U+2028 line separator and DEL. The odd
# values are out of range, impossible, or spelled so that their block goes
# line by line (a bare -0 is an int 0 to json.loads, not -0.0).
_WRITER_IDS = ['"V1"', '"V2"', '"Ônibus 7"', '"a\u2028b"', '"d\x7f"']
_WRITER_COORDS = ["-25.44", "0.0", "-0.0", "5e-324", "-25.432208140724651", "2.5e+1", "1.25E-2", "-0.0e0"]
_WRITER_TIMES = ["07/11/2022 06:04:51", "07/11/2022 00:00:00", "08/11/2022 23:59:59", "29/02/2024 12:00:00"]
_ODD_VALUES = {
    "vehicle_id": ['"q\\"x"', "7", '"V\\u0031"'],
    "lat": ["-0", "5", "1e+16", "-95.0", "NaN", " 12.5"],
    "lon": ["-0", "180.5", "-Infinity", "-49.0E+0"],
    "dthr": ['"31/02/2024 10:00:00"', '"07/11/2022 24:00:00"', '"07/11/2022 06:60:00"', '"7/11/2022 6:4:51"'],
}


@st.composite
def _writer_shaped_file(draw):
    lines = []
    for _ in range(draw(st.integers(1, 60))):
        fields = {
            "vehicle_id": draw(st.sampled_from(_WRITER_IDS)),
            "line_code": draw(st.sampled_from(['"L1"', '"L2"'])),
            "lat": draw(st.sampled_from(_WRITER_COORDS)),
            "lon": draw(st.sampled_from(_WRITER_COORDS)),
            "dthr": '"' + draw(st.sampled_from(_WRITER_TIMES)) + '"',
        }
        odd = draw(st.sampled_from([None] * 12 + [*_ODD_VALUES, "blank", "compact", "reordered"]))
        if odd in _ODD_VALUES:
            fields[odd] = draw(st.sampled_from(_ODD_VALUES[odd]))
        keys = list(fields)[::-1] if odd == "reordered" else list(fields)
        sep = ":" if odd == "compact" else ": "
        lines.append("" if odd == "blank" else "{" + ", ".join(f'"{k}"{sep}{fields[k]}' for k in keys) + "}")
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@given(_writer_shaped_file(), st.integers(1, 3000))
@settings(max_examples=400, deadline=None)
def test_block_wise_parse_equals_per_record_reference(text, block_chars):
    try:
        expected = _reference_groups(_reference_parse(io.StringIO(text)))
        error = None
    except RecordError as exc:
        error = exc
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(records, "_BLOCK_CHARS", block_chars)
        if error is not None:
            with pytest.raises(RecordError) as got:
                records.parse_vehicle_fixes(io.StringIO(text))
            assert (got.value.line_no, str(got.value)) == (error.line_no, str(error))
            return
        table = records.parse_vehicle_fixes(io.StringIO(text))
    assert len(table) == sum(map(len, expected.values()))
    got = _groups_as_values(records.group_fixes(table))
    assert list(got) == list(expected)
    assert got == {key: [_exact(f.lat, f.lon, f.time_s) for f in group] for key, group in expected.items()}


def test_written_fixes_take_the_bulk_path(monkeypatch):
    dataset = straight_line_dataset(n_trips=20, trip_headway_s=1800, jitter=0.3, seed=3)
    buf = io.StringIO()
    records.write_vehicle_fixes(dataset.fixes, buf)
    text = buf.getvalue()
    monkeypatch.setattr(records, "_BLOCK_CHARS", 1 << 12)  # many blocks
    plain = records.parse_vehicle_fixes(io.StringIO(text))

    def refuse(*args, **kwargs):
        raise AssertionError("a written fix went through json.loads")

    monkeypatch.setattr(records.json, "loads", refuse)
    bulk = records.parse_vehicle_fixes(io.StringIO(text))
    assert len(bulk) == len(plain) > 1000
    for name in ("vehicle_ids", "line_codes", "days"):
        assert getattr(bulk, name) == getattr(plain, name)
    for name in ("vehicle", "line", "day", "time_s", "lat", "lon"):
        assert getattr(bulk, name).tobytes() == getattr(plain, name).tobytes(), name


def test_line_by_line_blocks_decode_canonical_times_in_bulk(monkeypatch):
    dataset = straight_line_dataset(n_trips=4, trip_headway_s=1800, jitter=0.3, seed=3)
    buf = io.StringIO()
    records.write_vehicle_fixes(dataset.fixes, buf)
    compact = "".join(
        json.dumps(json.loads(line), separators=(",", ":")) + "\n" for line in buf.getvalue().splitlines()
    )
    monkeypatch.setattr(records, "_BLOCK_CHARS", 1 << 12)
    plain = records.parse_vehicle_fixes(io.StringIO(compact))

    def refuse(text):
        raise AssertionError(f"{text!r} went through strptime")

    monkeypatch.setattr(records, "parse_timestamp", refuse)
    bulk = records.parse_vehicle_fixes(io.StringIO(compact))
    assert len(bulk) == len(plain) > 100
    assert bulk.days == plain.days
    for name in ("vehicle", "line", "day", "time_s", "lat", "lon"):
        assert getattr(bulk, name).tobytes() == getattr(plain, name).tobytes(), name


def test_canonical_stamps_decode_every_digit_and_check_every_field():
    texts = [
        "31/12/9999 23:59:59",
        "01/01/0001 00:00:00",
        "29/02/2024 12:34:56",
        "29/02/2023 12:00:00",
        "07/11/2022 24:00:00",
        "07/11/2022 06:60:00",
        "07/11/2022 06:04:60",
        "00/11/2022 06:04:51",
        "07/13/2022 06:04:51",
    ]
    stamp, ok = records._canonical_stamps(texts)
    assert ok.tolist() == [True, True, True, False, False, False, False, False, False]
    for text, value in zip(texts[:3], stamp.tolist()):
        day, time_s = records.parse_timestamp(text)
        assert value == day.toordinal() * 86_400 + time_s, text


# ── load_dataset ────────────────────────────────────────────────────────


def _write_dataset(tmp_path, dataset):
    paths = {name: tmp_path / f"{name}.ndjson" for name in ("lines", "points", "fixes")}
    with open(paths["lines"], "w", encoding="utf-8") as f:
        records.write_lines(dataset.lines.values(), f)
    with open(paths["points"], "w", encoding="utf-8") as f:
        records.write_line_points(dataset.stops.values(), dataset.itineraries, f)
    with open(paths["fixes"], "w", encoding="utf-8") as f:
        records.write_vehicle_fixes(dataset.fixes, f)
    return paths


@pytest.mark.parametrize("name", ["lines", "points", "fixes"])
def test_load_dataset_skips_a_byte_order_mark(tmp_path, name):
    paths = _write_dataset(tmp_path, line829_dataset())
    plain = records.load_dataset(paths["lines"], paths["points"], paths["fixes"])
    path = paths[name]
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    marked = records.load_dataset(paths["lines"], paths["points"], paths["fixes"])
    assert marked.lines == plain.lines
    assert marked.stops == plain.stops
    assert marked.itineraries == plain.itineraries
    assert _groups_as_values(marked.fixes) == _groups_as_values(plain.fixes)


def test_load_dataset_error_names_the_file(tmp_path):
    paths = _write_dataset(tmp_path, line829_dataset())
    rows = paths["fixes"].read_text(encoding="utf-8").splitlines()
    rows[6] = json.dumps(json.loads(rows[6]) | {"lat": -95.0})
    paths["fixes"].write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(RecordError) as info:
        records.load_dataset(paths["lines"], paths["points"], paths["fixes"])
    assert str(info.value) == "fixes.ndjson line 7: fix BA020: latitude out of range: -95.0"
    assert info.value.line_no == 7


# (file, line, field, id): the id replaces the field on that line of the
# file, and the file is refused at that line.
_BAD_IDS = [
    ("lines", 1, "code", "8,29"),
    ("points", 4, "stop_id", 'S"4'),
    ("points", 5, "line_code", "8;29"),
    ("points", 6, "direction", "A\r"),
    ("fixes", 7, "vehicle_id", "BA,020"),
    ("fixes", 9, "line_code", "8\n29"),
]


@pytest.mark.parametrize("name, line_no, field, value", _BAD_IDS)
def test_load_dataset_refuses_an_id_a_csv_cell_would_quote(tmp_path, monkeypatch, name, line_no, field, value):
    paths = _write_dataset(tmp_path, line829_dataset())
    rows = paths[name].read_text(encoding="utf-8").splitlines()
    rows[line_no - 1] = json.dumps(json.loads(rows[line_no - 1]) | {field: value}, ensure_ascii=False)
    paths[name].write_text("\n".join(rows) + "\n", encoding="utf-8")
    if name == "fixes" and "," in value:
        assert records._CANONICAL_FIX.fullmatch(rows[line_no - 1])

        def refuse(*args, **kwargs):
            raise AssertionError("a fix went line by line")

        monkeypatch.setattr(records._FixColumns, "_add_lines", refuse)  # the bulk path reads the file
    char = next(c for c in value if c in ',;"\r\n')
    with pytest.raises(RecordError) as info:
        records.load_dataset(paths["lines"], paths["points"], paths["fixes"])
    assert str(info.value) == f"{name}.ndjson line {line_no}: {field} {value!r} contains {char!r}"
    assert info.value.line_no == line_no


def test_fixes_report_a_bad_id_and_a_range_error_in_line_order():
    rows = [json.dumps(_fix_record(dthr=f"07/11/2022 06:0{i}:00")) for i in range(6)]
    rows[4] = json.dumps(_fix_record(vehicle="BA;020"))
    rows[2] = json.dumps(_fix_record(lat=95.0))
    with pytest.raises(RecordError, match="^line 3: fix BA020: latitude out of range"):
        records.parse_vehicle_fixes(io.StringIO("\n".join(rows) + "\n"))
    rows[2] = json.dumps(_fix_record())
    with pytest.raises(RecordError, match="^line 5: vehicle_id 'BA;020' contains ';'$"):
        records.parse_vehicle_fixes(io.StringIO("\n".join(rows) + "\n"))


# ── round-trip properties ───────────────────────────────────────────────

_name = st.text(min_size=1, max_size=12)
_coord_lat = st.floats(min_value=-89.0, max_value=89.0, allow_nan=False, width=64)
_coord_lon = st.floats(min_value=-179.0, max_value=179.0, allow_nan=False, width=64)


@st.composite
def _line_lists(draw):
    codes = draw(st.lists(st.text(min_size=1, max_size=6), min_size=0, max_size=5, unique=True))
    return [
        records.BusLine(
            code=code,
            name=draw(_name),
            category=draw(st.sampled_from(list(LineCategory))),
            color=draw(st.text(max_size=6)),
        )
        for code in codes
    ]


@given(_line_lists())
@settings(max_examples=50)
def test_lines_roundtrip(lines):
    buf = io.StringIO()
    records.write_lines(lines, buf)
    buf.seek(0)
    # a code holding a character no id may hold is refused at its line
    bad = [i for i, line in enumerate(lines) if any(c in line.code for c in ',;"\r\n')]
    if bad:
        with pytest.raises(RecordError, match=f"^line {bad[0] + 1}: code "):
            records.parse_lines(buf)
        return
    assert records.parse_lines(buf) == lines


@st.composite
def _stops_and_itineraries(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    stops = [
        BusStop(
            stop_id=f"S{i}",
            name=draw(_name),
            stop_type=draw(st.sampled_from(list(StopType))),
            lat=draw(_coord_lat),
            lon=draw(_coord_lon),
        )
        for i in range(n)
    ]
    itineraries = []
    for code in range(draw(st.integers(min_value=1, max_value=3))):
        k = draw(st.integers(min_value=2, max_value=n))
        chosen = draw(st.permutations(range(n)))[:k]
        stop_ids = [stops[i].stop_id for i in chosen]
        itineraries.append(
            records.ItineraryDef(
                line_code=f"L{code}",
                direction="A",
                stops=tuple((pos + 1, sid) for pos, sid in enumerate(stop_ids)),
                circular=stop_ids[0] == stop_ids[-1],
            )
        )
    referenced = {sid for iti in itineraries for sid in iti.stop_ids}
    return [s for s in stops if s.stop_id in referenced], itineraries


@given(_stops_and_itineraries())
@settings(max_examples=50)
def test_line_points_roundtrip(data):
    stops, itineraries = data
    buf = io.StringIO()
    records.write_line_points(stops, itineraries, buf)
    buf.seek(0)
    parsed_stops, parsed_itineraries = records.parse_line_points(buf)
    assert {s.stop_id: s for s in parsed_stops} == {s.stop_id: s for s in stops}
    key = lambda i: (i.line_code, i.direction)
    assert sorted(parsed_itineraries, key=key) == sorted(itineraries, key=key)


@st.composite
def _fix_tracks(draw):
    keys = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["V1", "V2"]),
                st.sampled_from(["L1", "L2"]),
                st.integers(min_value=0, max_value=86_399),
            ),
            min_size=0,
            max_size=30,
            unique=True,
        )
    )
    times = defaultdict(list)
    for vehicle, line, time_s in keys:
        times[(vehicle, line, date(2022, 11, 7))].append(time_s)
    return {
        key: FixTrack(
            key[0],
            draw(st.lists(_coord_lat, min_size=len(ts), max_size=len(ts))),
            draw(st.lists(_coord_lon, min_size=len(ts), max_size=len(ts))),
            ts,
        )
        for key, ts in times.items()
    }


@given(_fix_tracks())
@settings(max_examples=50)
def test_fixes_roundtrip_sorted(tracks):
    buf = io.StringIO()
    records.write_vehicle_fixes(tracks, buf)
    buf.seek(0)
    grouped = records.group_fixes(records.parse_vehicle_fixes(buf))
    assert list(grouped) == sorted(tracks)
    for key, track in grouped.items():
        order = np.argsort(tracks[key].time_s, kind="stable")
        assert list(track.time_s) == sorted(track.time_s)
        assert list(track.time_s) == list(tracks[key].time_s[order])
        assert list(track.lat) == list(tracks[key].lat[order])
        assert list(track.lon) == list(tracks[key].lon[order])
