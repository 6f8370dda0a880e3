"""Each benchmark check passes on real output and rejects a corrupted copy.

    python3 -m pytest bench/test_checks.py

Runs the CLI once on a small od_grid city (four OD pairs), then corrupts
one artifact at a time.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
import city  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    inputs = root / "inputs"
    city.write_workload("od_grid", SEED, inputs)
    profile = dataclasses.replace(city.PROFILES["od_grid"], od_pairs=4)
    config = root / "config.json"
    city.write_config(inputs, config, profile, city.CLUSTER_RADIUS_M)
    out = root / "out"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "bustrace", "all", "--config", str(config), "--out", str(out)],
                   env=env, check=True)
    return {
        "inputs": inputs,
        "out": out,
        "config": json.loads(config.read_text()),
        "truth": json.loads((inputs / "truth.json").read_text()),
        "network": checks.Network(inputs),
    }


def run_all(ctx: dict, out: Path) -> dict[str, list[str]]:
    net, truth, config = ctx["network"], ctx["truth"], ctx["config"]
    return {
        "accepted": checks.check_accepted_trips(out, truth),
        "complete": checks.check_complete_trips(out, truth),
        "observed": checks.check_observed_times(out, truth),
        "interpolated": checks.check_interpolated_times(out, net),
        "availability": checks.check_availability(out, net),
        "outliers": checks.check_outliers(out, net),
        "clusters": checks.check_clusters(out, net, city.CLUSTER_RADIUS_M),
        "routes": checks.check_routes(out, net, config),
        "ranked": checks.check_ranked_paths(out, net, config, [0]),
    }


def rewrite(path: Path, mutate) -> None:
    """Apply `mutate(rows)` to a CSV artifact, keeping its comment lines."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    notes = [line for line in lines if line.startswith("#")]
    reader = csv.DictReader(line for line in lines if not line.startswith("#"))
    fields, rows = reader.fieldnames, list(reader)
    mutate(rows)
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.writelines(notes)
        writer = csv.DictWriter(f, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def shift(hhmmss: str, delta: int) -> str:
    return checks.hhmmss(checks.seconds(hhmmss) + delta)


def _first(rows, predicate):
    return next(i for i, r in enumerate(rows) if predicate(r))


def duplicate_trip(rows):
    first = rows[0]
    trip = [dict(r) for r in rows if all(r[k] == first[k] for k in ("line_code", "direction", "vehicle_id", "trip"))]
    for r in trip:
        r["trip"] = "99"
    rows.extend(trip)


def drop_observed_trip(rows):
    """Delete the rows of the first trip whose every position is OBSERVED."""
    def trip(r):
        return tuple(r[k] for k in ("line_code", "direction", "vehicle_id", "day", "trip"))

    partial = {trip(r) for r in rows if r["provenance"] != "OBSERVED"}
    victim = next(trip(r) for r in rows if trip(r) not in partial)
    rows[:] = [r for r in rows if trip(r) != victim]


def shift_observed(rows):
    i = _first(rows, lambda r: r["provenance"] == "OBSERVED" and r["position"] == "2")
    rows[i]["time"] = shift(rows[i]["time"], 1)


def interpolated_onto_anchor(rows):
    i = _first(rows, lambda r: r["provenance"] == "INTERPOLATED")
    anchor = max(j for j in range(i) if rows[j]["provenance"] == "OBSERVED")
    rows[i]["time"] = rows[anchor]["time"]


def drop_position(rows):
    del rows[_first(rows, lambda r: r["position"] == "3")]


def bump(column, predicate=lambda r: True, delta=0.01):
    def mutate(rows):
        i = _first(rows, predicate)
        rows[i][column] = f"{float(rows[i][column]) + delta:.6f}"

    return mutate


def flag_outlier(rows):
    rows[_first(rows, lambda r: r["outlier"] == "0")]["outlier"] = "1"


def drop_member(rows):
    members = rows[0]["members"].split(";")
    rows[0]["members"] = ";".join(m for m in members if m != rows[0]["centroid_stop_id"])


CORRUPTIONS = {
    "duplicated trip": ("detected_itineraries.csv", duplicate_trip, "accepted"),
    "fully observed trip dropped": ("detected_itineraries.csv", drop_observed_trip, "complete"),
    "shifted observed time": ("detected_itineraries.csv", shift_observed, "observed"),
    "interpolated time on its anchor": ("detected_itineraries.csv", interpolated_onto_anchor, "interpolated"),
    "missing position": ("detected_itineraries.csv", drop_position, "interpolated"),
    "daily average off": ("stop_daily_averages.csv", bump("daily_avg_buses"), "availability"),
    "category series off": ("availability_by_category.csv", bump("mean_count"), "availability"),
    "outlier flag flipped": ("stop_daily_averages.csv", flag_outlier, "outliers"),
    "cluster member dropped": ("clusters.csv", drop_member, "clusters"),
    "OD distance lengthened": (
        "od_results.csv", bump("distance_m", lambda r: r["network"] == "base" and r["feasible"] == "1", 10.0), "routes"),
    "ranked path lengthened": (
        "od_paths.csv", bump("distance_m", lambda r: r["pair_id"] == "0" and r["rank"] == "2", 10.0), "ranked"),
}


def test_clean_output_passes_every_check(clean):
    results = run_all(clean, clean["out"])
    assert not any(results.values()), results


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_check_rejects_corruption(clean, tmp_path, corruption):
    artifact, mutate, check = CORRUPTIONS[corruption]
    out = tmp_path / "out"
    shutil.copytree(clean["out"], out)
    rewrite(out / artifact, mutate)
    assert run_all(clean, out)[check]


def test_identical_rejects_a_changed_byte(clean, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(clean["out"], out)
    reference = checks.digests(out)
    assert checks.check_identical(reference, out) == []
    path = out / "od_summary.csv"
    path.write_text(path.read_text().replace("base", "basE", 1))
    assert checks.check_identical(reference, out)
