"""Command-line pipeline driver.

Subcommands wire the stages together over a single JSON configuration
file: ``validate``, ``detect``, ``analyze``, ``cluster``, ``route``, and
``all``. Every run writes its artifacts plus a manifest recording the
effective configuration, seed, and content digests. A run writes into a
staging directory inside the output directory and moves its artifacts and
manifest out of it only once every stage has succeeded, so a failed run
leaves the output directory's files as they were, and removes the
directories it created; a machine-readable error record then goes to
stderr.

Importing this module loads the configuration, the data model and the
ingest, not the stages: each stage loads its modules when it runs.
Imported before numpy, it pins OpenBLAS to one thread unless
``OPENBLAS_NUM_THREADS`` is set, so a program that does heavy linear
algebra of its own should set that variable or import the stage modules
instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any

# set before numpy loads: an OpenBLAS worker thread busy-waits through the imports, and no stage needs it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import pipeline
from .model import Dataset
from .pipeline import (
    ARTIFACTS,
    PipelineConfig,
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


def load_config(path: str, jobs: int | None) -> PipelineConfig:
    with open(path, encoding="utf-8-sig") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: the config is not a JSON object")
    if jobs is not None:
        data["jobs"] = jobs
    return PipelineConfig.from_mapping(data)


def _run_stage(
    stage: str, out_dir: Path, staging: Path, dataset: Dataset, config: PipelineConfig, products: dict[str, Any]
) -> None:
    """Run one stage, which writes its artifacts into ``staging``, and keep
    its product in ``products`` for later stages.

    A stage takes each upstream product from ``products``, or reads it from
    that stage's file in ``out_dir`` when this invocation did not run that
    stage.
    """
    inputs = [
        products[upstream] if upstream in products else getattr(pipeline, _READERS[upstream])(out_dir)
        for upstream in _UPSTREAM.get(stage, ())
    ]
    if stage == "validate":
        run_validate(staging, dataset)
    elif stage == "detect":
        from . import detection

        outcomes = run_detection(dataset, config)
        passages = detection.passage_table(outcomes)
        categories = {line.code: line.category for line in dataset.lines.values()}
        report = detection.tag_report(outcomes, categories)
        write_detection_artifacts(staging, passages, report)
        products[stage] = passages
    elif stage == "analyze":
        products[stage] = run_analyze(staging, dataset, config, *inputs)
    elif stage == "cluster":
        products[stage] = run_cluster(staging, dataset, config, *inputs)
    else:  # route
        run_route(staging, dataset, config, *inputs)


def _write_manifest(out_dir: Path, staging: Path, config: PipelineConfig) -> None:
    """Write the manifest into ``staging``: the config, the inputs' digests and those of the artifacts.

    An artifact is read from ``staging`` if the run wrote it and from
    ``out_dir`` otherwise.
    """
    inputs = {label: _sha256(Path(getattr(config, label))) for label in pipeline.INPUT_FILES}
    artifacts = {}
    for name in ARTIFACTS:
        path = staging / name if (staging / name).is_file() else out_dir / name
        if path.is_file():
            artifacts[name] = _sha256(path)
    manifest = {
        "config": config.to_mapping(),
        "seed": config.seed,
        "inputs": inputs,
        "artifacts": artifacts,
    }
    with open(staging / MANIFEST_FILE, "w", encoding="utf-8") as f:
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    staging = None
    made: list[Path] = []  # the directories this run creates, innermost first
    status = 1
    running = args.command  # the stage named in an error record
    try:
        config = load_config(args.config, args.jobs)
        stages = list(_STAGES) if args.command == "all" else [args.command]
        dataset = config.load_inputs(with_fixes=not _FIX_STAGES.isdisjoint(stages))
        made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
        # inside out_dir, so on its file system, where os.replace moves the run's files out
        staging = Path(tempfile.mkdtemp(prefix=".staging.", dir=out_dir))
        products: dict[str, Any] = {}
        for running in stages:
            _run_stage(running, out_dir, staging, dataset, config, products)
        running = args.command
        _write_manifest(out_dir, staging, config)
        produced = [name for name, artifact in ARTIFACTS.items() if artifact.stage in stages]
        for name in [*produced, MANIFEST_FILE]:
            os.replace(staging / name, out_dir / name)
        status = 0
    except Exception as exc:
        record = {
            "error": {
                "stage": running,
                "type": type(exc).__name__,
                "message": str(exc),
            }
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        if status:
            for path in made:  # rmdir removes only a directory left empty
                with contextlib.suppress(OSError):
                    path.rmdir()
    return status
