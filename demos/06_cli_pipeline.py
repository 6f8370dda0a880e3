"""
Driving the CLI pipeline end to end
===================================

Writes the three record files for the circular-line fixture, a JSON
config, and runs every subcommand into ./demo_output. The manifest records
the config, seed, and a content digest per artifact; rerunning with the
same seed reproduces every file byte for byte.
"""

import json
from pathlib import Path

from bustrace import records
from bustrace.cli import main
from bustrace.synthetic import line829_dataset

out_root = Path("demo_output")
out_root.mkdir(exist_ok=True)

dataset = line829_dataset()
with open(out_root / "lines.ndjson", "w", encoding="utf-8") as f:
    records.write_lines(dataset.lines.values(), f)
with open(out_root / "line_points.ndjson", "w", encoding="utf-8") as f:
    records.write_line_points(dataset.stops.values(), dataset.itineraries, f)
with open(out_root / "fixes.ndjson", "w", encoding="utf-8") as f:
    records.write_vehicle_fixes(dataset.fixes, f)

config = {
    "lines_file": str(out_root / "lines.ndjson"),
    "line_points_file": str(out_root / "line_points.ndjson"),
    "fixes_file": str(out_root / "fixes.ndjson"),
    "od_pairs": 10,
    "seed": 7,
}
config_path = out_root / "config.json"
config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")

artifacts = out_root / "artifacts"
status = main(["all", "--config", str(config_path), "--out", str(artifacts)])
print(f"pipeline exit status: {status}")

manifest = json.loads((artifacts / "manifest.json").read_text())
print(f"seed: {manifest['seed']}")
print("artifacts:")
for name, digest in manifest["artifacts"].items():
    print(f"  {name:34s} sha256:{digest[:12]}…")

print("\nreconstructed trip (first lines):")
for line in (artifacts / "detected_itineraries.csv").read_text().splitlines()[:6]:
    print(" ", line)
