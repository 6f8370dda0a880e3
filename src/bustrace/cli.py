"""Command-line pipeline driver.

Subcommands wire the stages together over a single JSON configuration
file: ``validate``, ``detect``, ``analyze``, ``cluster``, ``route``, and
``all``. Every run writes its artifacts plus a manifest recording the
effective configuration, seed, and content digests. A run writes into a
staging directory inside the output directory and moves its artifacts and
manifest out of it only once every stage has succeeded, so a failed run
leaves the output directory's files as they were; a machine-readable error
record then goes to stderr.

Importing this module loads the configuration, the data model and the
ingest, not the stages: each stage loads its modules when it runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any

from . import pipeline
from .model import Dataset
from .pipeline import (
    ARTIFACTS,
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
# The stages whose products a stage takes, in the order it reads their files
# when this invocation did not run them, and the pipeline reader of each file.
_UPSTREAM = {"analyze": ("detect",), "cluster": ("detect", "analyze"), "route": ("cluster",)}
_READERS = {"detect": "read_detection_rows", "analyze": "read_daily_averages", "cluster": "read_clusters"}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def load_config(path: str, seed: int | None, jobs: int | None) -> PipelineConfig:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: the config is not a JSON object")
    if seed is not None:
        data["seed"] = seed
    if jobs is not None:
        data["jobs"] = jobs
    return PipelineConfig.from_mapping(data)


def _run_stage(stage: str, out_dir: Path, dataset: Dataset, config: PipelineConfig, products: dict[str, Any]) -> None:
    """Run one stage, which writes its artifacts, and keep its product in ``products`` for later stages.

    A stage takes each upstream product from ``products``, or reads it from
    that stage's file when this invocation did not run that stage.
    """
    inputs = [
        products[upstream] if upstream in products else getattr(pipeline, _READERS[upstream])(out_dir, stage)
        for upstream in _UPSTREAM.get(stage, ())
    ]
    if stage == "validate":
        run_validate(out_dir, dataset)
    elif stage == "detect":
        from . import detection
        from .analytics import PassageTable

        outcomes = run_detection(dataset, config)
        passages = PassageTable.from_itineraries(trip for outcome in outcomes for trip in outcome.trips)
        categories = {line.code: line.category for line in dataset.lines.values()}
        report = detection.tag_report(outcomes, categories)
        write_detection_artifacts(out_dir, passages, report)
        products[stage] = passages
    elif stage == "analyze":
        products[stage] = run_analyze(out_dir, dataset, config, *inputs)
    elif stage == "cluster":
        products[stage] = run_cluster(out_dir, dataset, config, *inputs)
    elif stage == "route":
        run_route(out_dir, dataset, config, *inputs)
    else:
        raise ValueError(f"unknown stage: {stage}")


def _write_manifest(out_dir: Path, config: PipelineConfig) -> None:
    """Write the manifest: the config, the inputs' digests and those of the artifacts in ``out_dir``."""
    inputs = {}
    for label in pipeline.INPUT_FILES:
        path = getattr(config, label)
        if path and Path(path).is_file():
            inputs[label] = _sha256(Path(path))
    artifacts = {name: _sha256(out_dir / name) for name in ARTIFACTS if (out_dir / name).is_file()}
    manifest = {
        "config": config.to_mapping(),
        "seed": config.seed,
        "inputs": inputs,
        "artifacts": artifacts,
    }
    with atomic_write(out_dir / MANIFEST_FILE) as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


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
    common.add_argument("--jobs", type=int, default=None, help="must be 1: detection runs in one process")

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


def _staging_dir(out_dir: Path) -> Path:
    """A new directory inside ``out_dir`` holding its files, for a run to write in.

    Inside, it needs no write access beyond ``out_dir`` and shares its file
    system even when ``out_dir`` is a mount point. Files are hard-linked
    where the file system allows, else copied. Every artifact is written by
    replacing its file, never in place, so a link never changes the file in
    ``out_dir`` it shares.
    """
    staging = Path(tempfile.mkdtemp(prefix=".staging.", dir=out_dir))
    for path in out_dir.iterdir():
        if path.is_file():
            try:
                os.link(path, staging / path.name)
            except OSError:
                shutil.copy2(path, staging / path.name)
    return staging


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    staging = None
    running = args.command  # the stage named in an error record
    try:
        config = load_config(args.config, args.seed, args.jobs)
        stages = list(_STAGES) if args.command == "all" else [args.command]
        dataset = config.load_inputs(with_fixes=not _FIX_STAGES.isdisjoint(stages))
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = _staging_dir(out_dir)
        products: dict[str, Any] = {}
        for running in stages:
            _run_stage(running, staging, dataset, config, products)
        running = args.command
        _write_manifest(staging, config)
        produced = [name for name, artifact in ARTIFACTS.items() if artifact.stage in stages]
        for name in [*produced, MANIFEST_FILE]:
            os.replace(staging / name, out_dir / name)
    except Exception as exc:
        record = {
            "error": {
                "stage": getattr(exc, "stage", running),
                "type": type(exc).__name__,
                "message": str(exc),
            }
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
