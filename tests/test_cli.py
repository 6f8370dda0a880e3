import csv
import errno
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import bustrace
from bustrace import analytics, cli, clustering, detection, matching, model, pipeline, records, routing
from bustrace.cli import main
from bustrace.geo import GeoPoint, offset_point
from bustrace.model import BusLine, BusStop, Dataset, FixTrack, ItineraryDef, LineCategory, StopType
from bustrace.pipeline import ARTIFACTS, read_artifact, read_csv_rows, write_csv
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


def test_failed_rerun_keeps_the_previous_output(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["all", "--config", str(config), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    beside = sorted(p.name for p in tmp_path.iterdir())
    assert beside == ["config.json", "fixes.ndjson", "lines.ndjson", "out", "points.ndjson"]

    def fail(*args, **kwargs):
        raise RuntimeError("routing failed")

    monkeypatch.setattr(routing, "evaluate_od", fail)
    assert main(["all", "--config", str(config), "--out", str(out)]) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == beside


def test_a_run_writes_only_inside_its_output_directory(tmp_path, monkeypatch):
    """--out may be a mount point under a directory the user cannot write."""
    config = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    real_mkdir, real_replace = os.mkdir, os.replace

    def inside(path):
        return out.resolve() in Path(path).resolve().parents

    def mkdir(path, *args, **kwargs):
        if not inside(path):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return real_mkdir(path, *args, **kwargs)

    def replace(src, dst, *args, **kwargs):
        if not (inside(src) and inside(dst)):
            raise OSError(errno.EXDEV, "Invalid cross-device link", str(src))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", mkdir)
    monkeypatch.setattr(os, "replace", replace)
    for _ in range(2):  # the second run replaces files already there
        assert main(["all", "--config", str(config), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert "manifest.json" in names and "clusters.csv" in names
    assert all((out / name).is_file() for name in names)


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
        ({"jobs": 2}, "jobs"),
        ({"window_minutes": 10.5}, "window_minutes"),
        ({"k_paths": 2.5}, "k_paths"),
        ({"od_pairs": 2.5}, "od_pairs"),
        ({"idle_gap_min": float("nan")}, "idle_gap_min"),
        ({"window_set": [10.7, 15]}, "window_set"),
        ({"window_minutes": 10.0}, "window_minutes"),
        ({"k_paths": True}, "k_paths"),
        ({"span_minutes": [300, 1380.5]}, "span_minutes"),
        ({"periods": {"morning": [360.5, 540]}}, "periods"),
        ({"seed": 1.5}, "seed"),
        ({"window_set": 10}, "window_set"),
        ({"window_set": "10"}, "window_set"),
        ({"span_minutes": 5}, "span_minutes"),
        ({"periods": [1, 2]}, "periods"),
        ({"periods": {"morning": [360]}}, "periods"),
        ({"periods": {"morning": [360, 540, 600]}}, "periods"),
        ({"periods": {"full_day": [360, 540]}}, "periods"),
        ({"seed": -1}, "seed"),
        ({"cluster_radius_m": True}, "cluster_radius_m"),
        ({"acceptance_radius_m": True}, "acceptance_radius_m"),
        ({"od_search_radius_m": True}, "od_search_radius_m"),
        ({"od_jitter_m": False}, "od_jitter_m"),
        ({"cluster_radius_m": "600"}, "cluster_radius_m"),
        ({"od_jitter_m": None}, "od_jitter_m"),
        ({"od_search_radius_m": [1]}, "od_search_radius_m"),
        ({"jobs": True}, "jobs"),
        ({"jobs": 1.0}, "jobs"),
    ],
    ids=[
        "span", "window", "window_set", "period", "od_pairs", "nan_radius", "inf_radius", "nan_jitter",
        "jobs", "fractional_window", "fractional_k", "fractional_od_pairs", "nan_idle_gap",
        "fractional_window_set", "float_window", "bool_k", "fractional_span", "fractional_period",
        "fractional_seed", "scalar_window_set", "string_window_set", "scalar_span", "period_list",
        "period_one_bound", "period_three_bounds", "full_day_period", "negative_seed",
        "bool_cluster_radius", "bool_acceptance_radius", "bool_od_search_radius", "bool_jitter",
        "string_cluster_radius", "null_jitter", "list_od_search_radius", "bool_jobs", "float_jobs",
    ],
)
def test_config_that_cannot_run_fails_before_any_stage(tmp_path, capsys, overrides, key):
    config = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main(["all", "--config", str(config), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["stage"] == "all"  # no stage ran
    assert error["type"] == "ValueError"
    assert key in error["message"]
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("idle_gap_min, trips, discarded", [(3, 0, 2), (30, 1, 0)])
def test_idle_gap_min_reaches_segmentation(tmp_path, idle_gap_min, trips, discarded):
    # two of the case-study track's gaps between marks exceed 3 minutes: a
    # 3-minute idle gap cuts off two lone marks and leaves two pieces that
    # each miss an end stop
    config = write_config(tmp_path, idle_gap_min=idle_gap_min)
    out = tmp_path / "out"
    assert main(["detect", "--config", str(config), "--out", str(out)]) == 0
    _, rows = read_csv_rows(out / "detected_itineraries.csv")
    assert len({(row["vehicle_id"], row["trip"]) for row in rows}) == trips
    _, tallies = read_csv_rows(out / "tag_errors_by_category.csv")
    assert tallies[-1]["category"] == "TOTAL"
    assert int(tallies[-1]["discarded_segments"]) == discarded


@pytest.mark.parametrize("text, flags", [("[]", ["--seed", "3"]), ('"lines_file"', [])], ids=["list", "string"])
def test_config_that_is_not_a_json_object_is_refused_by_name(tmp_path, capsys, text, flags):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["validate", "--config", str(config), "--out", str(out), *flags]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError"
    assert str(config) in error["message"]
    assert not out.exists()


def test_jobs_flag_accepts_only_one(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["detect", "--config", str(config), "--out", str(out), "--jobs", "2"]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError"
    assert "jobs" in error["message"]
    assert not list(out.glob("*.csv"))
    assert main(["detect", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    assert (out / "detected_itineraries.csv").is_file()


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
    path = tmp_path / "sync_summary.csv"
    write_csv(tmp_path, path.name, [("old", 10, 0.5)])
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(tmp_path, path.name, _rows_then_failure())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sync_summary.csv"]


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
    rows = [("#829", "1", "2"), ("829", "2", "3"), ("#centroid", "3", "4")]
    write_csv(tmp_path, "cluster_scatter.csv", rows, notes=["first note", "second note"])
    header, got = read_csv_rows(tmp_path / "cluster_scatter.csv")
    assert header == ["cluster_id", "avg_buses", "line_count"]
    assert [tuple(r.values()) for r in got] == rows


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


def test_stages_run_where_files_cannot_be_linked(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    together = tmp_path / "all"
    assert main(["all", "--config", str(config), "--out", str(together)]) == 0

    def refuse(*args, **kwargs):
        raise OSError("hard links not supported")

    monkeypatch.setattr(cli.os, "link", refuse)
    staged = tmp_path / "staged"
    for stage in ("validate", "detect", "analyze", "cluster", "route"):
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


# Corrupt cells of the detection CSV: "column=cell" replaces that column's
# cell of data row 3.
_BAD_CELLS = [
    "time=05:75:00", "time= 5:1:2", "time=5:01:02", "time=05:00:60", "time=05:00", "time=05:00:00 ",
    "provenance=OBSERVD", "provenance=observed",
    "trip=1.5", "trip=", "position=-1", "position= 2",
    "day=2024-02-30", "day=07/11/2022", "day=2022-11-7",
]


@pytest.mark.parametrize("cut", ["header", "row", *_BAD_CELLS])
def test_malformed_detection_csv_is_refused(tmp_path, capsys, cut):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["detect", "--config", str(config), "--out", str(out)]) == 0
    detected = out / "detected_itineraries.csv"
    lines = detected.read_text(encoding="utf-8").splitlines()
    if cut in ("header", "row"):
        index = 0 if cut == "header" else 3
        lines[index] = lines[index].rsplit(",", 1)[0]
    else:
        column, cell = cut.split("=", 1)
        cells = lines[3].split(",")
        cells[lines[0].split(",").index(column)] = cell
        lines[3] = ",".join(cells)
    detected.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("detected_itineraries.csv ")
    if cut not in ("header", "row"):
        assert error["message"].startswith(f"detected_itineraries.csv data row 3: {column} {cell!r} ")
    assert not (out / "availability_by_category.csv").exists()


def test_analyze_and_cluster_run_on_a_detection_csv_of_no_rows(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / pipeline.DETECTED_FILE).write_text(",".join(pipeline.DETECTION_HEADER) + "\n", encoding="utf-8")
    for stage in ("analyze", "cluster"):
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0, stage
        written = [name for name, artifact in ARTIFACTS.items() if artifact.stage == stage]
        assert [read_csv_rows(out / name)[0] for name in written] == [ARTIFACTS[name].header for name in written]
    assert read_csv_rows(out / pipeline.DAILY_AVERAGES_FILE)[1] == []
    assert read_csv_rows(out / pipeline.CLUSTERS_FILE)[1] == []


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH, for a new interpreter."""
    src = str(Path(bustrace.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_cli_import_leaves_scipy_stats_unloaded():
    probe = (
        "import sys, bustrace.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_src_env(), capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


# The bustrace modules a CLI process loads: the core on import, and each
# stage's own modules once that stage runs.
_CORE_MODULES = {"cli", "geo", "model", "pipeline", "records"}
_STAGE_MODULES = {
    "validate": set(),
    "detect": {"analytics", "detection", "matching"},
    "analyze": {"analytics", "detection"},
    "cluster": {"analytics", "clustering", "detection"},
    "route": {"routing"},
    "all": {"analytics", "clustering", "detection", "matching", "routing"},
}
# Imports the CLI, runs it on the arguments after the first, if any, and at
# exit writes the names of the loaded modules to the file the first names.
_MODULES_PROBE = (
    "import atexit, json, sys; path = sys.argv.pop(1); "
    "atexit.register(lambda: open(path, 'w').write(json.dumps(sorted(sys.modules)))); "
    "import bustrace.cli; sys.exit(bustrace.cli.main(sys.argv[1:]) if sys.argv[1:] else 0)"
)


def _fresh_process(tmp_path: Path, *args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """The CLI on ``args`` (none: the import alone) in a new interpreter, and the bustrace modules it loaded."""
    modules = tmp_path / "modules.json"
    result = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE, str(modules), *args], env=_src_env(), capture_output=True, text=True
    )
    names = json.loads(modules.read_text(encoding="utf-8"))
    return result, {name.split(".", 1)[1] for name in names if name.startswith("bustrace.")}


def test_cli_import_help_and_validate_load_no_stage_module(tmp_path):
    config = write_config(tmp_path)
    for args in [(), ("--help",), ("validate", "--config", str(config), "--out", str(tmp_path / "out"))]:
        result, loaded = _fresh_process(tmp_path, *args)
        assert result.returncode == 0, result.stderr
        assert loaded == _CORE_MODULES, args


def test_each_stage_in_a_fresh_process_loads_its_modules_and_writes_the_bytes_of_all(tmp_path):
    """Every stage runs in an interpreter of its own, so no earlier stage has loaded a module for it."""
    config = write_config(tmp_path, three_hub_dataset())
    together, staged = tmp_path / "all", tmp_path / "staged"
    runs = [("all", together), *((stage, staged) for stage in ("validate", "detect", "analyze", "cluster", "route"))]
    for stage, out in runs:
        result, loaded = _fresh_process(tmp_path, stage, "--config", str(config), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert loaded == _CORE_MODULES | _STAGE_MODULES[stage], stage

    names = sorted(p.name for p in together.iterdir())
    assert names == sorted([*ARTIFACTS, "manifest.json"])
    assert sorted(p.name for p in staged.iterdir()) == names
    for name in names:
        assert (staged / name).read_bytes() == (together / name).read_bytes(), name


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


def test_cluster_builds_each_pearson_matrix_once(tmp_path, monkeypatch):
    config = write_config(tmp_path, three_hub_dataset())
    out = tmp_path / "out"
    for stage in ("detect", "analyze"):
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0, stage
    calls = []
    pearson_matrix = analytics.pearson_matrix
    monkeypatch.setattr(analytics, "pearson_matrix", lambda rows: calls.append(rows) or pearson_matrix(rows))
    assert main(["cluster", "--config", str(config), "--out", str(out)]) == 0
    clusters = {row["cluster_id"] for row in read_csv_rows(out / "sync_profiles.csv")[1]}
    # the full day at the correlation window, and each period at it and at every sync window
    windows = {model.DEFAULT_WINDOW_MINUTES, *model.SYNC_WINDOW_SET}
    per_cluster = 1 + len(model.DEFAULT_PERIODS) * len(windows)
    assert len(clusters) == 3
    assert len(calls) == per_cluster * len(clusters) + 1  # and one for the cluster scatter's r


def _brute_force_r(a_times: list[int], b_times: list[int], window: int, period) -> float | None:
    """Pearson r of two stops' counts over the windows whose start minute lies inside ``period``."""
    span = model.DEFAULT_SPAN_MINUTES
    a, b = (analytics.moving_window_counts(times, window, span) for times in (a_times, b_times))
    starts = range(span[0], span[1] - window + 1)
    keep = [period is None or period.start_minute <= m < period.end_minute for m in starts]
    return analytics.pearson(a[keep], b[keep])


@pytest.mark.parametrize(
    "make_dataset, n_days", [(three_hub_dataset, 1), (lambda: two_days(three_hub_dataset()), 2)],
    ids=["one_day", "two_days"],
)
def test_cluster_stage_numbers_equal_a_brute_force(tmp_path, make_dataset, n_days):
    """Category series, daily averages, per-pair r and sync profiles, each from
    per-(day, key) counts and per-pair r."""
    dataset = make_dataset()
    config = write_config(tmp_path, dataset)
    out = tmp_path / "out"
    for stage in ("detect", "analyze", "cluster"):
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0, stage
    span, periods = model.DEFAULT_SPAN_MINUTES, model.DEFAULT_PERIODS

    times: dict[tuple[str, str], list[int]] = {}  # (day, key) -> seconds of day
    categories: dict[str, str] = {}  # key -> its stops' category
    for row in read_csv_rows(out / pipeline.DETECTED_FILE)[1]:
        stop = dataset.stops[row["stop_id"]]
        key = f"terminal:{stop.name}" if stop.stop_type is StopType.TERMINAL else stop.stop_id
        categories[key] = stop.stop_type.value
        hours, minutes, seconds = map(int, row["time"].split(":"))
        times.setdefault((row["day"], key), []).append(hours * 3600 + minutes * 60 + seconds)
    day_means: dict[str, list[float]] = {}
    category_rows: dict[str, list[list[int]]] = {}  # category -> the counts of its (day, key) rows
    for (_day, key), key_times in sorted(times.items()):
        counts = analytics.moving_window_counts(key_times, model.DEFAULT_WINDOW_MINUTES, span).tolist()
        day_means.setdefault(key, []).append(sum(counts) / len(counts))
        category_rows.setdefault(categories[key], []).append(counts)
    assert {len(means) for means in day_means.values()} == {n_days}  # every key on every day
    availability = read_csv_rows(out / "availability_by_category.csv")[1]
    assert sorted({row["category"] for row in availability}) == sorted(category_rows)
    assert len(availability) == sum(len(rows[0]) for rows in category_rows.values())
    for row in availability:
        rows = category_rows[row["category"]]
        column = int(row["start_minute"]) - span[0]
        expected = sum(counts[column] for counts in rows) / len(rows)
        assert float(row["mean_count"]) == pytest.approx(expected, abs=5e-7), (row["category"], column)
    rows = read_csv_rows(out / pipeline.DAILY_AVERAGES_FILE)[1]
    averages = {r["key"]: float(r["daily_avg_buses"]) for r in rows}
    assert sorted(averages) == sorted(day_means)
    for key, means in day_means.items():
        assert averages[key] == pytest.approx(sum(means) / len(means), abs=5e-7), key

    def same(cell: str, expected: float | None) -> bool:
        return cell == "undefined" if expected is None else float(cell) == pytest.approx(expected, abs=5e-7)

    by_stop: dict[str, list[int]] = {}
    for (_day, key), key_times in times.items():
        by_stop.setdefault(key, []).extend(key_times)
    correlations = read_csv_rows(out / "cluster_stop_correlations.csv")[1]
    profiles = read_csv_rows(out / "sync_profiles.csv")[1]
    expected_pairs, expected_cells = [], []
    for cluster in read_csv_rows(out / pipeline.CLUSTERS_FILE)[1]:
        members = [m for m in sorted(cluster["members"].split(records.STOP_ID_SEPARATOR)) if m in by_stop]
        if len(members) < 2:
            continue
        pairs = [(by_stop[a], by_stop[b], (a, b)) for i, a in enumerate(members) for b in members[i + 1 :]]
        for period in (None, *periods):
            label = period.name if period else "full_day"
            for a, b, names in pairs:
                r = _brute_force_r(a, b, model.DEFAULT_WINDOW_MINUTES, period)
                expected_pairs.append((cluster["cluster_id"], label, *names, r))
        for period in sorted(periods, key=lambda p: p.name):
            for w in sorted(model.SYNC_WINDOW_SET):
                rs = [r for a, b, _ in pairs if (r := _brute_force_r(a, b, w, period)) is not None]
                expected_cells.append((cluster["cluster_id"], period.name, str(w), sum(rs) / len(rs) if rs else None))
    assert len(expected_pairs) == len(correlations) > 0
    for row, (*names, r) in zip(correlations, expected_pairs):
        assert [row["cluster_id"], row["period"], row["stop_a"], row["stop_b"]] == names
        assert same(row["r"], r), names
    assert len(expected_cells) == len(profiles) > 0
    for row, (*names, mean_r) in zip(profiles, expected_cells):
        assert [row["cluster_id"], row["period"], row["window_minutes"]] == names
        assert same(row["mean_r"], mean_r), names


def two_different_days() -> Dataset:
    """``three_hub_dataset()``, then a day on which lines A and B run in full
    and the shuttles run every other trip."""
    dataset = three_hub_dataset()
    fixes = dict(dataset.fixes)
    for (vehicle, line, day), track in dataset.fixes.items():
        if line in ("A", "B") or int(vehicle[1:]) % 2 == 0:
            fixes[(vehicle, line, day + timedelta(days=1))] = track
    return replace(dataset, fixes=fixes)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: cluster statistics pool the days instead of averaging per-day values")
def test_cluster_average_is_the_mean_of_its_single_day_values(tmp_path):
    """Per-day cluster statistics, as analyze averages per-stop counts over days."""
    config = write_config(tmp_path, two_different_days())
    out = tmp_path / "out"
    assert main(["all", "--config", str(config), "--out", str(out)]) == 0
    clusters = pipeline.read_clusters(out, "cluster")
    passages = pipeline.read_detection_rows(out, "cluster")
    days = np.unique(passages.day)
    assert len(clusters) > 1 and len(days) == 2
    per_day = []
    for day in days:
        alone = analytics.PassageTable.from_columns(
            **{name: passages.column(name)[passages.day == day] for name in analytics.PASSAGE_COLUMNS}
        )
        per_day.append([c.avg_buses for c in clustering.cluster_stats(clusters, alone)[0]])
    for cluster, values in zip(clusters, zip(*per_day)):
        assert cluster.avg_buses == pytest.approx(sum(values) / len(values), abs=5e-7), cluster.cluster_id


@pytest.mark.parametrize("dataset", [line829_dataset, three_hub_dataset])
def test_all_runs_without_scipy(tmp_path, dataset):
    config = write_config(tmp_path, dataset())
    plain, blocked = tmp_path / "plain", tmp_path / "blocked"
    assert main(["all", "--config", str(config), "--out", str(plain)]) == 0

    probe = (
        "import sys; sys.modules['scipy'] = None; from bustrace.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, "all", "--config", str(config), "--out", str(blocked)],
        env=_src_env(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    names = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in blocked.iterdir()) == names
    for name in names:
        assert (blocked / name).read_bytes() == (plain / name).read_bytes(), name


def _inodes(out: Path) -> dict[str, int]:
    return {p.name: p.stat().st_ino for p in out.iterdir()}


def test_each_stage_writes_exactly_its_files_of_the_artifact_table(tmp_path):
    config = write_config(tmp_path)
    staged = tmp_path / "staged"
    staged.mkdir()
    for stage in ("validate", "detect", "analyze", "cluster", "route"):
        before = _inodes(staged)
        assert main([stage, "--config", str(config), "--out", str(staged)]) == 0, stage
        after = _inodes(staged)
        # every file a run writes replaces the one before it, under a new inode
        written = {name for name, inode in after.items() if before.get(name) != inode}
        expected = {name for name, artifact in ARTIFACTS.items() if artifact.stage == stage}
        assert written == expected | {"manifest.json"}, stage
        assert set(after) >= set(before)

    together = tmp_path / "all"
    assert main(["all", "--config", str(config), "--out", str(together)]) == 0
    assert sorted(p.name for p in together.iterdir()) == sorted([*ARTIFACTS, "manifest.json"])


def test_artifact_with_another_header_is_refused_by_name(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    for stage in ("detect", "analyze"):
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0, stage
    averages = out / "stop_daily_averages.csv"
    lines = averages.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0].replace("daily_avg_buses", "daily_avg")
    averages.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["cluster", "--config", str(config), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("stop_daily_averages.csv has header ")
    assert not (out / "clusters.csv").exists()


# Corrupt rows of an artifact a later stage reads: (file, the stage that
# reads it, cut), where the cut "column=cell" replaces that column's cell of
# data row 1 and "cells=N" leaves that row N cells.
_BAD_ARTIFACT_ROWS = [
    ("stop_daily_averages.csv", "cluster", "daily_avg_buses=abc"),
    ("stop_daily_averages.csv", "cluster", "daily_avg_buses="),
    ("stop_daily_averages.csv", "cluster", "cells=5"),
    ("stop_daily_averages.csv", "cluster", "cells=8"),
    ("stop_daily_averages.csv", "cluster", "outlier=yes"),
    ("stop_daily_averages.csv", "cluster", "outlier=2"),
    ("clusters.csv", "route", "avg_buses=x"),
    ("clusters.csv", "route", "cells=7"),
]


@pytest.mark.parametrize("name, stage, cut", _BAD_ARTIFACT_ROWS)
def test_malformed_artifact_row_is_refused_by_file_row_and_column(tmp_path, capsys, name, stage, cut):
    config = write_config(tmp_path, three_hub_dataset())
    out = tmp_path / "out"
    assert main(["all", "--config", str(config), "--out", str(out)]) == 0
    path = out / name
    lines = path.read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    [cells] = csv.reader([lines[header + 1]])
    column, cell = cut.split("=")
    if column == "cells":
        cells = (cells + ["0"])[: int(cell)]
    else:
        cells[ARTIFACTS[name].header.index(column)] = cell
    row = io.StringIO()
    csv.writer(row, lineterminator="").writerow(cells)
    lines[header + 1] = row.getvalue()
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main([stage, "--config", str(config), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert (error["stage"], error["type"]) == (stage, "ValueError")
    if column == "cells":
        assert error["message"] == f"{name} data row 1 does not have {len(ARTIFACTS[name].header)} cells"
    else:
        expected = "0 or 1" if column == "outlier" else "a number"
        assert error["message"] == f"{name} data row 1: {column} {cell!r} is not {expected}"


def test_all_reads_no_artifact_back(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an artifact was read back")

    monkeypatch.setattr(pipeline, "read_artifact", refuse)
    monkeypatch.setattr(pipeline, "read_detection_rows", refuse)
    config = write_config(tmp_path, three_hub_dataset())
    out = tmp_path / "out"
    assert main(["all", "--config", str(config), "--out", str(out)]) == 0
    assert len(read_csv_rows(out / pipeline.CLUSTERS_FILE)[1]) == 3


@pytest.mark.parametrize(
    "make_dataset, n_outliers, n_clusters",
    [(three_hub_dataset, 6, 3), (lambda: two_days(three_hub_dataset()), 6, 3), (line829_dataset, 0, 0)],
    ids=["three_hubs", "two_days", "line829"],
)
def test_what_a_stage_hands_on_equals_what_a_lone_stage_reads(
    tmp_path, monkeypatch, make_dataset, n_outliers, n_clusters
):
    """Analyze hands on its averages rounded as its file writes them, so
    cluster orders its candidates the same way under ``all`` as alone."""
    products = {}

    def keep(name, inner):
        def kept(*args):
            products[name] = inner(*args)
            return products[name]
        return kept

    for name in ("run_analyze", "run_cluster"):
        monkeypatch.setattr(cli, name, keep(name, getattr(cli, name)))
    config = write_config(tmp_path, make_dataset())
    out = tmp_path / "out"
    assert main(["all", "--config", str(config), "--out", str(out)]) == 0
    assert len(products["run_analyze"].outliers) == n_outliers
    # the averages compare as floats, exactly
    assert products["run_analyze"] == pipeline.read_daily_averages(out, "cluster")

    def fields(clusters):
        return [(c.cluster_id, c.centroid_stop_id, c.members, c.lines_served) for c in clusters]

    assert len(products["run_cluster"]) == n_clusters
    assert fields(products["run_cluster"]) == fields(pipeline.read_clusters(out, "route"))


def test_candidates_tied_at_six_decimals_go_to_the_lower_id(tmp_path):
    """Two stops whose daily averages differ only past the sixth decimal.

    With W = 1 over the whole day a stop's daily average is its passages
    over 1440 times its days present: S2's 38 over 37 days (0.000713213...)
    exceeds S1's 39 over 38 days (0.000712719...), but both are written as
    0.000713, so the tie goes to S1 by id whether cluster takes analyze's
    product or reads its file.
    """
    origin = GeoPoint(-25.46, -49.28)
    dataset = Dataset()
    places = {"S1": (0.0, 0.0), "S2": (100.0, 0.0)} | {f"F{i}": (3000.0 * i, 5000.0) for i in range(1, 9)}
    for stop_id, (east, north) in places.items():
        point = offset_point(origin, east, north)
        dataset.stops[stop_id] = BusStop(stop_id, stop_id, StopType.STREET_STOP, point.lat, point.lon)
    first = date(2022, 11, 7)
    days = {"S1": [0] + list(range(38)), "S2": [0] + list(range(37))} | {f"F{i}": [0] for i in range(1, 9)}
    rows = [(stop_id, first + timedelta(days=d)) for stop_id, offsets in days.items() for d in offsets]
    passages = analytics.PassageTable.from_columns(
        line_code=["L1"] * len(rows),
        direction=["A"] * len(rows),
        vehicle_id=["V1"] * len(rows),
        day=[day.isoformat() for _, day in rows],
        trip=range(1, len(rows) + 1),
        position=[1] * len(rows),
        stop_id=[stop_id for stop_id, _ in rows],
        time_s=[8 * 3600] * len(rows),
        observed=[True] * len(rows),
    )
    config = pipeline.PipelineConfig(span_minutes=(0, 1440), window_minutes=1)
    analyzed = pipeline.run_analyze(tmp_path, dataset, config, passages)
    for product in (analyzed, pipeline.read_daily_averages(tmp_path, "cluster")):
        clusters = pipeline.run_cluster(tmp_path, dataset, config, passages, product)
        assert [c.centroid_stop_id for c in clusters] == ["S1"]
    assert analyzed.outliers == {"S1", "S2"}
    assert analyzed.averages["S1"] == analyzed.averages["S2"] == 0.000713


def _csvs_of_fixes_lines(tmp_path: Path, dataset: Dataset, arrange) -> list[dict[str, bytes]]:
    """Every CSV of ``all`` on the dataset, as written and with its fixes
    file's lines put in each order ``arrange`` yields.

    The dataset gets one fix group on a line with no itinerary, which only
    ``validation.csv`` counts, so that a fix kept twice shows there too.
    """
    dataset.lines["Z"] = BusLine("Z", "line Z", LineCategory.CONVENCIONAL)
    track = FixTrack("Z001", [-25.46] * 3, [-49.3] * 3, [25000, 25060, 25120])
    dataset.fixes[("Z001", "Z", date(2022, 11, 7))] = track
    config = write_config(tmp_path, dataset)
    fixes = Path(json.loads(config.read_text(encoding="utf-8"))["fixes_file"])
    lines = fixes.read_text(encoding="utf-8").splitlines(keepends=True)
    runs = []
    for index, arranged in enumerate([lines, *arrange(lines)]):
        fixes.write_text("".join(arranged), encoding="utf-8")
        out = tmp_path / f"out{index}"
        assert main(["all", "--config", str(config), "--out", str(out)]) == 0
        runs.append({path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))})
    assert len(runs[0]) == 15
    assert "3 fixes reference a line with no itinerary" in runs[0]["validation.csv"].decode()
    return runs


_ONE_AND_TWO_DAYS = pytest.mark.parametrize(
    "make_dataset", [three_hub_dataset, lambda: two_days(three_hub_dataset())], ids=["one_day", "two_days"]
)


@_ONE_AND_TWO_DAYS
def test_shuffling_the_fixes_lines_changes_no_csv(tmp_path, make_dataset):
    """No two fixes tie on (vehicle, line, day, time), so input order is no part of any output."""

    def shuffled(lines):
        for seed in (5, 6):
            lines = lines.copy()
            random.Random(seed).shuffle(lines)
            yield lines

    written, *others = _csvs_of_fixes_lines(tmp_path, make_dataset(), shuffled)
    for other in others:
        assert other == written


@_ONE_AND_TWO_DAYS
def test_writing_every_fix_twice_changes_no_csv(tmp_path, make_dataset):
    written, twice = _csvs_of_fixes_lines(tmp_path, make_dataset(), lambda lines: [lines + lines])
    assert twice == written


@_ONE_AND_TWO_DAYS
def test_relabelling_the_days_changes_only_the_day_column(tmp_path, make_dataset):
    """Every fix group moved 130 days on, across a year's end and onto other weekdays."""
    shift = timedelta(days=130)
    dataset = make_dataset()
    moved = replace(dataset, fixes={(v, line, day + shift): track for (v, line, day), track in dataset.fixes.items()})
    runs = []
    for name, data in (("plain", dataset), ("moved", moved)):
        (tmp_path / name).mkdir()
        config = write_config(tmp_path / name, data)
        out = tmp_path / name / "out"
        assert main(["all", "--config", str(config), "--out", str(out)]) == 0
        runs.append({path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))})
    plain, shifted = runs
    assert len(plain) == 15
    assert [name for name in plain if plain[name] != shifted[name]] == [pipeline.DETECTED_FILE]
    rows, moved_rows = (
        read_csv_rows(tmp_path / name / "out" / pipeline.DETECTED_FILE)[1] for name in ("plain", "moved")
    )
    assert len(moved_rows) == len(rows) > 0
    for row, moved_row in zip(rows, moved_rows):
        assert moved_row == {**row, "day": (date.fromisoformat(row["day"]) + shift).isoformat()}


def test_a_users_csv_in_the_output_directory_is_not_an_artifact(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    notes = out / "notes.csv"
    notes.write_text("what,why\nradius,450 m what-if\n", encoding="utf-8")
    before = notes.stat()
    assert main(["all", "--config", str(config), "--out", str(out)]) == 0
    assert notes.read_text(encoding="utf-8") == "what,why\nradius,450 m what-if\n"
    assert (notes.stat().st_ino, notes.stat().st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == sorted(ARTIFACTS)


def test_stages_call_through_the_names_the_bench_tracer_wraps(tmp_path, monkeypatch):
    """bench/trace.py times a stage by replacing these module attributes;
    a stage the CLI reaches another way would read zero there."""
    names = [
        (cli, "run_validate"), (cli, "run_detection"), (cli, "write_detection_artifacts"),
        (cli, "run_analyze"), (cli, "run_cluster"), (cli, "run_route"), (cli, "load_config"),
        (cli, "_write_manifest"), (pipeline, "read_detection_rows"), (pipeline, "validate_dataset"),
        (routing, "build_graph"), (routing, "add_cluster_transfers"), (routing, "evaluate_od"),
        (records, "parse_vehicle_fixes"), (detection, "tag_report"), (clustering, "cluster_stops"),
        (clustering, "cluster_stats"),
    ]
    # called at least once by `all` on a dataset that clusters and routes
    detection_names = ["match_fixes", "segment_trips", "detect"]  # once per group, itinerary, segment
    analytics_names = ["build_availability", "find_outlier_stops", "correlation_matrix", "cluster_sync_profile"]
    routing_names = ["evaluate_trip", "yen_k_shortest"]  # yen_k_shortest counts routing.paths_ranked
    names += [(matching, "match_fixes"), (detection, "segment_trips"), (detection, "detect")]
    names += [(analytics, name) for name in analytics_names] + [(routing, name) for name in routing_names]
    calls = {}

    def counter(name, inner):
        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return counted

    def run(command, out):
        calls.update((name, 0) for _, name in names)
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        return dict(calls)

    for module, name in names:
        monkeypatch.setattr(module, name, counter(name, getattr(module, name)))
    config = write_config(tmp_path, three_hub_dataset())
    out = tmp_path / "out"
    counts = run("all", out)
    repeated = detection_names + analytics_names + routing_names
    assert [name for name in repeated if counts.pop(name) < 1] == []
    assert counts == {name: int(name != "read_detection_rows") for _, name in names if name not in repeated}
    analyze = run("analyze", out)
    assert analyze["read_detection_rows"] == 1 and analyze["run_analyze"] == 1
    # the tracer looks these two up as well; no stage calls them through the module
    assert callable(analytics.moving_window_counts) and callable(analytics.pearson)
