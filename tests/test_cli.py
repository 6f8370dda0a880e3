import json
import os
import subprocess
import sys
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import pytest

import bustrace
from bustrace import cli, records, routing
from bustrace.cli import main
from bustrace.geo import GeoPoint, offset_point
from bustrace.model import BusLine, BusStop, Dataset, FixTrack, ItineraryDef, LineCategory, StopType
from bustrace.pipeline import read_csv_rows, write_csv
from bustrace.synthetic import line829_dataset

from conftest import CASE_RESULT


def write_inputs(tmp_path: Path, dataset=None) -> dict:
    dataset = dataset or line829_dataset()
    lines = tmp_path / "lines.ndjson"
    points = tmp_path / "points.ndjson"
    fixes = tmp_path / "fixes.ndjson"
    with open(lines, "w", encoding="utf-8") as f:
        records.write_lines(dataset.lines.values(), f)
    with open(points, "w", encoding="utf-8") as f:
        records.write_line_points(dataset.stops.values(), dataset.itineraries, f)
    with open(fixes, "w", encoding="utf-8") as f:
        records.write_vehicle_fixes(dataset.fixes, f)
    return {
        "lines_file": str(lines),
        "line_points_file": str(points),
        "fixes_file": str(fixes),
    }


def write_config(tmp_path: Path, dataset=None, **overrides) -> Path:
    config = write_inputs(tmp_path, dataset) | {"od_pairs": 5, "seed": 11} | overrides
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_detect_reproduces_case_study_rows(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["detect", "--config", str(config), "--out", str(out)]) == 0

    lines = (out / "detected_itineraries.csv").read_text().splitlines()
    assert lines[0].startswith("line_code,")
    got = []
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "829" and cells[2] == "BA020"
        got.append((int(cells[5]), cells[6], cells[7], cells[8]))
    assert got == CASE_RESULT
    assert (out / "tags_by_category.csv").is_file()
    assert (out / "manifest.json").is_file()


def test_input_error_names_its_file(tmp_path, capsys):
    config = write_config(tmp_path)
    fixes = json.loads(config.read_text())["fixes_file"]
    rows = Path(fixes).read_text(encoding="utf-8").splitlines()
    rows[6] = json.dumps(json.loads(rows[6]) | {"lat": -95.0})
    Path(fixes).write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["detect", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "RecordError"
    assert error["message"].startswith("fixes.ndjson line 7: ")


def test_all_is_deterministic_byte_for_byte(tmp_path):
    config = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["all", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["all", "--config", str(config), "--out", str(out_b)]) == 0

    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_route_without_clusters_fails_with_error_record(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["route", "--config", str(config), "--out", str(out)])
    assert code != 0
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["type"] == "MissingDependencyError"
    assert "clusters.csv" in record["error"]["message"]
    assert not list(out.glob("od_*.csv"))


def test_failed_stage_of_all_is_named(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("routing failed")

    monkeypatch.setattr(routing, "evaluate_od", fail)
    config = write_config(tmp_path)
    assert main(["all", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"stage": "route", "type": "RuntimeError", "message": "routing failed"}


def test_seed_flag_overrides_config(tmp_path):
    config = write_config(tmp_path, seed=1)
    out = tmp_path / "out"
    assert main(["detect", "--config", str(config), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1

    assert main(["detect", "--config", str(config), "--out", str(out), "--seed", "99"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_manifest_lists_every_artifact_with_digest(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["all", "--config", str(config), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    csvs = {p.name for p in out.glob("*.csv")}
    assert set(manifest["artifacts"]) == csvs
    for digest in manifest["artifacts"].values():
        assert len(digest) == 64
    assert set(manifest["inputs"]) == {"lines_file", "line_points_file", "fixes_file"}


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = write_config(tmp_path, bogus_key=3)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(config), "--out", str(out)]) != 0
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "bogus_key" in record["error"]["message"]


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"span_minutes": [600, 300]}, "span_minutes"),
        ({"window_minutes": 2000}, "window_minutes"),
        ({"window_set": [10, 2000]}, "window_set"),
        ({"periods": {"morning": [540, 360]}}, "periods"),
        ({"od_pairs": -3}, "od_pairs"),
        ({"acceptance_radius_m": float("nan")}, "acceptance_radius_m"),
        ({"cluster_radius_m": float("inf")}, "cluster_radius_m"),
        ({"od_jitter_m": float("nan")}, "od_jitter_m"),
    ],
    ids=["span", "window", "window_set", "period", "od_pairs", "nan_radius", "inf_radius", "nan_jitter"],
)
def test_config_that_cannot_run_fails_before_any_stage(tmp_path, capsys, overrides, key):
    config = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["all", "--config", str(config), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError"
    assert key in error["message"]
    assert not list(out.glob("*.csv"))


def test_missing_input_file_reported(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "lines_file": str(tmp_path / "absent.ndjson"),
                "line_points_file": str(tmp_path / "absent.ndjson"),
                "fixes_file": str(tmp_path / "absent.ndjson"),
            }
        )
    )
    assert main(["validate", "--config", str(config), "--out", str(tmp_path / "out")]) != 0
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["type"] == "FileNotFoundError"


def test_validate_reports_dangling_reference(tmp_path):
    dataset = line829_dataset()
    inputs = write_inputs(tmp_path, dataset)
    # add a fixes record for a line that has no itinerary
    with open(inputs["fixes_file"], "a", encoding="utf-8") as f:
        f.write(
            json.dumps(
                {
                    "vehicle_id": "ZZ999",
                    "line_code": "999",
                    "lat": -25.4,
                    "lon": -49.3,
                    "dthr": "07/11/2022 10:00:00",
                }
            )
            + "\n"
        )
    config = tmp_path / "config.json"
    config.write_text(json.dumps(inputs))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(config), "--out", str(out)]) == 0
    report = (out / "validation.csv").read_text()
    assert "unresolvable_line" in report
    assert "ZZ999/999" in report


def test_jobs_flag_produces_identical_artifacts(tmp_path):
    config = write_config(tmp_path)
    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"
    assert main(["detect", "--config", str(config), "--out", str(out_serial)]) == 0
    assert (
        main(["detect", "--config", str(config), "--out", str(out_parallel), "--jobs", "2"]) == 0
    )
    a = (out_serial / "detected_itineraries.csv").read_bytes()
    b = (out_parallel / "detected_itineraries.csv").read_bytes()
    assert a == b


def renamed_line(dataset: Dataset, code: str) -> Dataset:
    """The dataset with its single line renamed to ``code``."""
    return Dataset(
        lines={code: replace(line, code=code) for line in dataset.lines.values()},
        stops=dataset.stops,
        itineraries=[replace(iti, line_code=code) for iti in dataset.itineraries],
        fixes={
            (vehicle, code, day): track for (vehicle, _line, day), track in dataset.fixes.items()
        },
    )


def two_days(dataset: Dataset) -> Dataset:
    """The dataset with every fix group repeated on the following day."""
    fixes = dict(dataset.fixes)
    for (vehicle, line, day), track in dataset.fixes.items():
        fixes[(vehicle, line, day + timedelta(days=1))] = track
    return replace(dataset, fixes=fixes)


def _rows_then_failure():
    yield ("a", 1.0)
    yield ("b", 2.0)
    raise RuntimeError("row source failed")


def test_failed_csv_write_keeps_previous_file(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["key", "value"], [("old", 0.5)])
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(path, ["key", "value"], _rows_then_failure())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_failed_manifest_write_keeps_previous_manifest(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["detect", "--config", str(config), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    before = (out / "manifest.json").read_bytes()

    def partial_dump(obj, f, **kwargs):
        f.write('{"config": ')
        raise OSError("disk full")

    monkeypatch.setattr(cli.json, "dump", partial_dump)
    with pytest.raises(OSError, match="disk full"):
        cli._write_manifest(out, cli.load_config(str(config), None, None))
    assert (out / "manifest.json").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == names


def test_hash_prefixed_values_survive_csv_read_back(tmp_path):
    path = tmp_path / "table.csv"
    rows = [("#829", "1"), ("829", "2"), ("#centroid", "3")]
    write_csv(path, ["key", "value"], rows, notes=["first note", "second note"])
    header, got = read_csv_rows(path)
    assert header == ["key", "value"]
    assert [(r["key"], r["value"]) for r in got] == rows


def test_hash_prefixed_line_code_keeps_its_daily_averages(tmp_path):
    plain = tmp_path / "plain"
    hashed = tmp_path / "hashed"
    plain.mkdir()
    hashed.mkdir()
    dataset = line829_dataset()
    for base, data in ((plain, dataset), (hashed, renamed_line(dataset, "#829"))):
        config = write_config(base, data)
        assert main(["all", "--config", str(config), "--out", str(base / "out")]) == 0
    expected = (plain / "out" / "stop_daily_averages.csv").read_bytes()
    assert len(expected.splitlines()) > 1
    assert (hashed / "out" / "stop_daily_averages.csv").read_bytes() == expected


@pytest.mark.parametrize(
    "variant",
    [
        lambda d: d,
        two_days,
        lambda d: renamed_line(d, "#829"),
    ],
    ids=["line829", "two_days", "hash_line_code"],
)
def test_stage_by_stage_writes_the_bytes_of_all(tmp_path, variant):
    config = write_config(tmp_path, variant(line829_dataset()))
    together = tmp_path / "all"
    staged = tmp_path / "staged"
    assert main(["all", "--config", str(config), "--out", str(together)]) == 0
    assert main(["validate", "--config", str(config), "--out", str(staged)]) == 0
    for stage in ("detect", "analyze", "cluster", "route"):
        assert main([stage, "--config", str(config), "--out", str(staged)]) == 0, stage

    names = sorted(p.name for p in together.iterdir())
    assert names == sorted(p.name for p in staged.iterdir())
    for name in names:
        assert (staged / name).read_bytes() == (together / name).read_bytes(), name


def test_stages_after_detect_parse_no_fixes(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["detect", "--config", str(config), "--out", str(out)]) == 0

    def refuse(_stream):
        raise AssertionError("fixes parsed")

    monkeypatch.setattr(records, "parse_vehicle_fixes", refuse)
    for stage in ("analyze", "cluster", "route"):
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0, stage
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["inputs"]) == {"lines_file", "line_points_file", "fixes_file"}


@pytest.mark.parametrize("cut", ["header", "row"])
def test_malformed_detection_csv_is_refused(tmp_path, capsys, cut):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["detect", "--config", str(config), "--out", str(out)]) == 0
    detected = out / "detected_itineraries.csv"
    lines = detected.read_text(encoding="utf-8").splitlines()
    index = 0 if cut == "header" else 3
    lines[index] = lines[index].rsplit(",", 1)[0]
    detected.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("detected_itineraries.csv ")
    assert not (out / "availability_by_category.csv").exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(bustrace.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, bustrace.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def three_hub_dataset() -> Dataset:
    """Two parallel lines, crossed by shuttles at three hubs 1.4 km or more apart.

    The hubs' stops are availability outliers among the street stops (the
    shuttles end at terminals), so the cluster stage builds three clusters,
    of four, three and three lines, and computes their correlation's p-value.
    """
    origin = GeoPoint(-25.46, -49.28)
    dataset = Dataset()

    def stop(stop_id, east, north, stop_type=StopType.STREET_STOP):
        p = offset_point(origin, east, north)
        dataset.stops[stop_id] = BusStop(stop_id, stop_id, stop_type, p.lat, p.lon)

    routes = {"A": [], "B": []}
    for i in range(14):
        for code, north in (("A", 0.0), ("B", 240.0)):
            stop(f"{code}-{i:02d}", i * 700.0, north)
            routes[code].append(f"{code}-{i:02d}")
    for code, col, reach in (("C", 2, 900.0), ("D", 2, 1500.0), ("E", 7, 900.0), ("F", 5, 900.0)):
        stop(f"{code}-S", col * 700.0, -reach, StopType.TERMINAL)
        stop(f"{code}-N", col * 700.0, 240.0 + reach, StopType.TERMINAL)
        routes[code] = [f"{code}-S", f"A-{col:02d}", f"B-{col:02d}", f"{code}-N"]

    headways = {"A": 900, "B": 900, "C": 600, "D": 600, "E": 400, "F": 300}
    day = date(2022, 11, 7)
    for code, stop_ids in routes.items():
        dataset.lines[code] = BusLine(code, f"line {code}", LineCategory.CONVENCIONAL)
        dataset.itineraries.append(
            ItineraryDef(code, "NORTH", tuple(enumerate(stop_ids, start=1)))
        )
        stops = [dataset.stops[stop_id] for stop_id in stop_ids]
        for trip, depart in enumerate(range(6 * 3600, 21 * 3600, headways[code])):
            vehicle = f"{code}{trip:03d}"
            dataset.fixes[(vehicle, code, day)] = FixTrack(
                vehicle,
                [s.lat for s in stops],
                [s.lon for s in stops],
                [depart + 60 * i for i in range(len(stops))],
            )
    return dataset


@pytest.mark.parametrize("dataset", [line829_dataset, three_hub_dataset])
def test_all_runs_without_scipy(tmp_path, dataset):
    config = write_config(tmp_path, dataset())
    plain, blocked = tmp_path / "plain", tmp_path / "blocked"
    assert main(["all", "--config", str(config), "--out", str(plain)]) == 0

    src = str(Path(bustrace.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys; sys.modules['scipy'] = None; from bustrace.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, "all", "--config", str(config), "--out", str(blocked)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    names = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in blocked.iterdir()) == names
    for name in names:
        assert (blocked / name).read_bytes() == (plain / name).read_bytes(), name
