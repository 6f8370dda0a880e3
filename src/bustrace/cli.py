"""Command-line pipeline driver.

Subcommands wire the stages together over a single JSON configuration
file: ``validate``, ``detect``, ``analyze``, ``cluster``, ``route``, and
``all``. Every run writes its artifacts plus a manifest recording the
effective configuration, seed, and content digests; on failure the partial
artifacts of the run are removed and a machine-readable error record goes
to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import detection, pipeline
from .analytics import PassageTable
from .model import Dataset
from .pipeline import (
    PipelineConfig,
    atomic_write,
    run_analyze,
    run_cluster,
    run_detection,
    run_route,
    run_validate,
    write_detection_artifacts,
)

MANIFEST_FILE = "manifest.json"

_STAGES = ("validate", "detect", "analyze", "cluster", "route")
_FIX_STAGES = {"validate", "detect"}  # the only stages that read GPS fixes


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def load_config(path: str, seed: int | None, jobs: int | None) -> PipelineConfig:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if seed is not None:
        data["seed"] = seed
    if jobs is not None:
        data["jobs"] = jobs
    return PipelineConfig.from_mapping(data)


def _run_stage(
    stage: str,
    out_dir: Path,
    dataset: Dataset,
    config: PipelineConfig,
    passages: PassageTable | None,
) -> tuple[list[Path], PassageTable | None]:
    """Run one stage; return its artifacts and the passage table for later stages.

    ``detect`` builds the table from its accepted trips and writes it as
    the detection CSV. A later analyze or cluster stage uses that table,
    or reads it back from the CSV when this invocation did not detect.
    """
    if stage == "validate":
        return run_validate(out_dir, dataset), passages
    if stage == "detect":
        outcomes = run_detection(dataset, config)
        passages = PassageTable.from_itineraries(
            result.itinerary for outcome in outcomes for result in outcome.results if result.accepted
        )
        categories = {line.code: line.category for line in dataset.lines.values()}
        report = detection.tag_report(outcomes, categories)
        return write_detection_artifacts(out_dir, passages, report), passages
    if stage == "route":
        return run_route(out_dir, dataset, config), passages
    if passages is None:
        passages = pipeline.read_detection_rows(out_dir, stage)
    if stage == "analyze":
        return run_analyze(out_dir, dataset, config, passages), passages
    if stage == "cluster":
        return run_cluster(out_dir, dataset, config, passages), passages
    raise ValueError(f"unknown stage: {stage}")


def _write_manifest(out_dir: Path, config: PipelineConfig) -> Path:
    inputs = {}
    for label, path in (
        ("lines_file", config.lines_file),
        ("line_points_file", config.line_points_file),
        ("fixes_file", config.fixes_file),
    ):
        if path and Path(path).is_file():
            inputs[label] = _sha256(Path(path))
    artifacts = {
        p.name: _sha256(p) for p in sorted(out_dir.glob("*.csv"))
    }
    manifest = {
        "config": config.to_mapping(),
        "seed": config.seed,
        "inputs": inputs,
        "artifacts": artifacts,
    }
    path = out_dir / MANIFEST_FILE
    with atomic_write(path) as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bustrace",
        description="Reconstruct bus itineraries from GPS logs and quantify "
        "virtual-terminal integration.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON configuration file")
    common.add_argument("--out", required=True, help="output directory for artifacts")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--jobs", type=int, default=None, help="worker processes for detection")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("validate", "check dataset consistency and write a report"),
        ("detect", "reconstruct itineraries and write the tag report"),
        ("analyze", "build availability series, daily averages, and outliers"),
        ("cluster", "build virtual terminals and synchronization statistics"),
        ("route", "evaluate OD trips with and without cluster transfers"),
        ("all", "run the full pipeline in order"),
    ):
        sub.add_parser(name, parents=[common], help=doc)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    written: list[Path] = []
    running = args.command  # the stage named in an error record
    try:
        config = load_config(args.config, args.seed, args.jobs)
        stages = list(_STAGES) if args.command == "all" else [args.command]
        dataset = config.load_inputs(with_fixes=not _FIX_STAGES.isdisjoint(stages))
        out_dir.mkdir(parents=True, exist_ok=True)
        passages = None
        for running in stages:
            paths, passages = _run_stage(running, out_dir, dataset, config, passages)
            written.extend(paths)
        running = args.command
        _write_manifest(out_dir, config)
    except Exception as exc:
        for path in written:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        record = {
            "error": {
                "stage": getattr(exc, "stage", running),
                "type": type(exc).__name__,
                "message": str(exc),
            }
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
