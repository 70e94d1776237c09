"""Command-line interface chaining the library stages through files.

Every stage reads and writes JSON artifacts, so a pipeline run is a sequence
of re-runnable commands:

    lanespace synth -o train.jsonl
    lanespace build-basis -d train.jsonl -o basis.json
    lanespace cluster -d train.jsonl -b basis.json -o candidates.json
    lanespace score-oracle -c candidates.json -b basis.json -d test.jsonl -o scores.jsonl
    lanespace detect -c candidates.json -b basis.json -s scores.jsonl -o detections.jsonl
    lanespace eval -p detections.jsonl -d test.jsonl -b basis.json

Flag defaults can be overridden by a versioned JSON config file (--config),
which becomes click's default map: explicit flags win over the config, and
config values get the same type checks as flags. LANESPACE_OUT_DIR, when
set, redirects relative output paths into that directory.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .candidates import ClusteringConfig, cluster_lanes, mean_best_iou, straight_anchor_grid
from .datasets import load_dataset, write_csv, write_tusimple_jsonl
from .eigenspace import LaneMatrix, build_basis, low_rank_residual
from .errors import (
    IoError,
    LanespaceError,
    SchemaError,
    ValidationError,
    VersionError,
    parse_json,
    read_text,
)
from .geometry import Lane, SamplingGrid, check_budget, stripe_ious
from .metrics import f_measure, match_lanes, tusimple_score
from .oracle import OracleConfig, oracle_scores
from .pipeline import DetectionConfig, detect_image, uniform_height_grid
from .render import DEFAULT_COLORS, LaneLayer, render_svg
from .serialize import (
    load_basis,
    load_candidates,
    load_detections,
    load_image_scores,
    save_basis,
    save_candidates,
    save_detections,
    save_image_scores,
    save_json,
)
from .synth import SyntheticSpec, generate_synthetic

CONFIG_SCHEMA_VERSION = 1


def _flag(*decls, **attrs):
    return click.option(*decls, show_default=True, **attrs)


# Flags shared by several commands, keyed by their config-file name.
FLAGS = {
    "samples": _flag("--samples", type=int, default=50, help="grid rows per lane vector"),
    "rank": _flag("--rank", type=int, default=6),
    "k": _flag("--k", type=int, default=1000),
    "t": _flag("--t", type=int, default=DetectionConfig.t),
    "iou_thresh": _flag("--iou-thresh", type=float, default=DetectionConfig.iou_threshold),
    "kappa": _flag("--kappa", type=float, default=DetectionConfig.kappa),
    "stripe_width": _flag("--stripe-width", type=int, default=DetectionConfig.stripe_width),
    "seed": _flag("--seed", type=click.IntRange(min=0), default=0),
    "format": _flag(
        "--format", "fmt", type=click.Choice(["tusimple", "csv", "culane"]), default="tusimple"
    ),
    "image_width": _flag("--image-width", type=int, default=1280),
    "image_height": _flag("--image-height", type=int, default=720),
    "heights": _flag("--heights", type=int, default=25, help="number of height bins"),
}


def _apply_config(ctx, param, path):
    """Make the config file's values the command's flag defaults."""
    if path is None:
        return
    obj = parse_json(read_text(path), f"config {path}")
    if not isinstance(obj, dict):
        raise SchemaError("config must be a JSON object")
    version = obj.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise VersionError(f"config schema_version {version} unsupported")
    defaults = obj.get("defaults", {})
    if not isinstance(defaults, dict) or None in defaults.values():
        raise SchemaError("config defaults must be a JSON object without nulls")
    unknown = set(defaults) - set(FLAGS)
    if unknown:
        raise SchemaError(f"config has unknown keys: {sorted(unknown)}")
    # as the text a flag would carry, so that INT refuses 2.5 and true instead
    # of truncating them, exactly as it refuses --k 2.5
    ctx.default_map = {("fmt" if key == "format" else key): str(v) for key, v in defaults.items()}


config_option = click.option(
    "--config", type=click.Path(), expose_value=False, is_eager=True, callback=_apply_config,
    help="versioned JSON config file of flag defaults",
)


def _out_path(path) -> Path:
    path = Path(path)
    out_dir = os.environ.get("LANESPACE_OUT_DIR")
    if out_dir and not path.is_absolute():
        path = Path(out_dir) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {path.parent}: {exc}") from exc
    return path


def _records(data, fmt, grid: SamplingGrid):
    return load_dataset(data, fmt, (grid.image_width, grid.image_height))


def _lanes(records, grid: SamplingGrid):
    lanes = [lane for record in records for lane in record.resampled(grid)]
    if not lanes:
        raise SchemaError("dataset contains no usable lanes")
    return lanes


def _record(records, image_id):
    """The record named image_id, or the first record when image_id is None."""
    for record in records:
        if image_id in (None, record.image_id):
            return record
    if image_id is None:
        raise SchemaError("dataset has no images")
    raise SchemaError(f"image '{image_id}' not in dataset")


def _basis_and_candidates(basis_path, candidates_path):
    basis = load_basis(basis_path)
    candidates = load_candidates(candidates_path)
    if candidates.basis_id != basis.content_id:
        raise SchemaError("candidates were built from a different basis")
    return basis, candidates


def _echo_kv(pairs):
    for key, value in pairs:
        click.echo(f"{key}: {value}")


class _Cli(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except LanespaceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Cli)
@click.version_option(version=__version__)
def main():
    """Low-rank lane descriptors: basis building, candidates, detection, eval."""


@main.command()
@click.option("--count", type=int, default=200, show_default=True, help="number of images")
@FLAGS["seed"]
@click.option("--weights", default="1,1,1", show_default=True, help="straight,arc,s_curve mix")
@click.option("--curvature", default=None, help="min,max curvature in 1/pixels")
@FLAGS["image_width"]
@FLAGS["image_height"]
@click.option("-o", "--out", required=True, type=click.Path())
@config_option
@FLAGS["format"]
def synth(count, seed, weights, curvature, image_width, image_height, out, fmt):
    """Generate a synthetic annotation file."""
    try:
        mix = tuple(float(w) for w in weights.split(","))
    except ValueError as exc:
        raise SchemaError(f"bad --weights: {weights}") from exc
    kwargs = {}
    if curvature is not None:
        try:
            lo, hi = (float(c) for c in curvature.split(","))
        except ValueError as exc:
            raise SchemaError(f"bad --curvature: {curvature}") from exc
        kwargs["curvature_range"] = (lo, hi)
    spec = SyntheticSpec(
        count=count, seed=seed, image_size=(image_width, image_height), weights=mix, **kwargs
    )
    records = generate_synthetic(spec)
    path = _out_path(out)
    if fmt == "csv":
        write_csv(records, path)
    elif fmt == "tusimple":
        write_tusimple_jsonl(records, path)
    else:
        raise SchemaError("synth can write tusimple or csv output")
    n_lanes = sum(len(r.lanes) for r in records)
    _echo_kv([("records", len(records)), ("lanes", n_lanes), ("out", path)])


@main.command("build-basis")
@click.option("-d", "--data", required=True, type=click.Path())
@FLAGS["samples"]
@FLAGS["rank"]
@FLAGS["image_width"]
@FLAGS["image_height"]
@click.option("-o", "--out", required=True, type=click.Path())
@config_option
@FLAGS["format"]
def build_basis_cmd(data, samples, rank, image_width, image_height, out, fmt):
    """Build the lane basis from a training annotation file."""
    records = load_dataset(data, fmt, (image_width, image_height))
    n_lanes = sum(len(record.lanes) for record in records)
    check_budget((n_lanes + 1, samples), 8, "grid and lane matrix (lanes + 1 x --samples)")
    grid = SamplingGrid.uniform(image_width, image_height, samples)
    lanes = _lanes(records, grid)
    basis = build_basis(LaneMatrix.from_lanes(lanes), rank)
    path = _out_path(out)
    save_basis(basis, path)
    _echo_kv(
        [
            ("lanes", len(lanes)),
            ("rank", basis.m),
            ("numerical_rank", basis.rank),
            ("basis_id", basis.content_id),
            ("out", path),
        ]
    )


@main.command()
@click.option("-d", "--data", required=True, type=click.Path())
@click.option("-b", "--basis", "basis_path", required=True, type=click.Path())
@click.option("--ranks", default=None, help="comma list of ranks to report (default 1..m)")
@click.option("-o", "--out", type=click.Path(), default=None, help="JSON report path")
@config_option
@FLAGS["format"]
def approx(data, basis_path, ranks, out, fmt):
    """Report reconstruction error of the dataset for a range of ranks."""
    basis = load_basis(basis_path)
    matrix = LaneMatrix.from_lanes(_lanes(_records(data, fmt, basis.grid), basis.grid))
    if ranks is None:
        rank_list = list(range(1, basis.m + 1))
    else:
        try:
            rank_list = [int(r) for r in ranks.split(",")]
        except ValueError as exc:
            raise SchemaError(f"bad --ranks: {ranks}") from exc
        if any(r < 1 or r > basis.m for r in rank_list):
            raise SchemaError(f"ranks must lie in [1, {basis.m}]")
    rows = []
    for r in rank_list:
        residual = low_rank_residual(matrix.columns, basis.u[:, :r])
        total = float(np.sum(residual**2))
        per_lane_rms = float(
            np.mean(np.sqrt(np.sum(residual**2, axis=0) / matrix.grid.n_samples))
        )
        rows.append(
            {
                "rank": r,
                "residual_energy": total,
                "mean_rms_px": per_lane_rms,
            }
        )
        click.echo(f"rank {r}: residual {total:.4f}  mean-rms {per_lane_rms:.3f} px")
    if out is not None:
        path = _out_path(out)
        save_json("approx_report", {"lanes": matrix.n_lanes, "rows": rows}, path)
        click.echo(f"out: {path}")


@main.command()
@click.option("-d", "--data", required=True, type=click.Path())
@click.option("-b", "--basis", "basis_path", required=True, type=click.Path())
@FLAGS["k"]
@FLAGS["seed"]
@click.option("-o", "--out", required=True, type=click.Path())
@config_option
@FLAGS["format"]
def cluster(data, basis_path, k, seed, out, fmt):
    """Cluster training lanes in coefficient space into k candidates."""
    basis = load_basis(basis_path)
    lanes = _lanes(_records(data, fmt, basis.grid), basis.grid)
    candidates = cluster_lanes(basis, lanes, ClusteringConfig(k=k, seed=seed))
    path = _out_path(out)
    save_candidates(candidates, path)
    _echo_kv([("k", candidates.k), ("basis_id", candidates.basis_id), ("out", path)])


@main.command("straight-anchors")
@click.option("-b", "--basis", "basis_path", required=True, type=click.Path())
@click.option("--n", type=int, required=True)
@click.option("-o", "--out", required=True, type=click.Path())
@config_option
def straight_anchors(basis_path, n, out):
    """Emit n straight baseline anchors over a position x angle grid."""
    basis = load_basis(basis_path)
    anchors = straight_anchor_grid(basis, n)
    path = _out_path(out)
    save_candidates(anchors, path)
    _echo_kv([("n", anchors.k), ("out", path)])


@main.command("eval-candidates")
@click.option("-c", "--candidates", "candidates_path", required=True, type=click.Path())
@click.option("-d", "--data", required=True, type=click.Path())
@FLAGS["stripe_width"]
@config_option
@FLAGS["format"]
def eval_candidates(candidates_path, data, stripe_width, fmt):
    """Mean best-match IoU of a candidate set against a test dataset."""
    candidates = load_candidates(candidates_path)
    test_lanes = _lanes(_records(data, fmt, candidates.grid), candidates.grid)
    score = mean_best_iou(candidates, test_lanes, stripe_width)
    _echo_kv([("test_lanes", len(test_lanes)), ("mean_best_iou", f"{score:.6f}")])


@main.command("score-oracle")
@click.option("-c", "--candidates", "candidates_path", required=True, type=click.Path())
@click.option("-b", "--basis", "basis_path", required=True, type=click.Path())
@click.option("-d", "--data", required=True, type=click.Path())
@FLAGS["heights"]
@click.option("--noise-sigma", type=float, default=OracleConfig.noise_sigma, show_default=True)
@click.option("--iou-floor", type=float, default=OracleConfig.iou_floor, show_default=True)
@FLAGS["seed"]
@FLAGS["stripe_width"]
@click.option("-o", "--out", required=True, type=click.Path())
@config_option
@FLAGS["format"]
def score_oracle(candidates_path, basis_path, data, heights, noise_sigma, iou_floor,
                 seed, stripe_width, out, fmt):
    """Score candidates against ground truth (stand-in for a trained model)."""
    basis, candidates = _basis_and_candidates(basis_path, candidates_path)
    records = _records(data, fmt, basis.grid)
    check_budget((candidates.k, heights), 8, "height distributions (candidates x --heights)")
    height_grid = uniform_height_grid(basis.grid, heights)
    oracle_cfg = OracleConfig(
        iou_floor=iou_floor, noise_sigma=noise_sigma, seed=seed, stripe_width=stripe_width
    )
    entries = []
    for record in records:
        gt = record.resampled(basis.grid)
        scores, features = oracle_scores(candidates, gt, basis, height_grid, oracle_cfg)
        entries.append((record.image_id, scores, features, height_grid))
    path = _out_path(out)
    save_image_scores(entries, path)
    _echo_kv([("images", len(entries)), ("out", path)])


@main.command()
@click.option("-c", "--candidates", "candidates_path", required=True, type=click.Path())
@click.option("-b", "--basis", "basis_path", required=True, type=click.Path())
@click.option("-s", "--scores", "scores_path", required=True, type=click.Path())
@FLAGS["t"]
@FLAGS["iou_thresh"]
@FLAGS["kappa"]
@FLAGS["stripe_width"]
@click.option("--min-prob", type=float, default=DetectionConfig.min_probability,
              show_default=True, help="stop NMS below this probability")
@click.option("--disable-offsets", is_flag=True, help="ablation: ignore offsets")
@click.option("--disable-heights", is_flag=True, help="ablation: ignore height bins")
@click.option("-o", "--out", required=True, type=click.Path())
@config_option
def detect(candidates_path, basis_path, scores_path, t, iou_thresh, kappa, stripe_width,
           min_prob, disable_offsets, disable_heights, out):
    """Run NMS, clique selection and refinement on scored candidates."""
    basis, candidates = _basis_and_candidates(basis_path, candidates_path)
    detection_cfg = DetectionConfig(
        t=t,
        iou_threshold=iou_thresh,
        kappa=kappa,
        stripe_width=stripe_width,
        min_probability=min_prob,
        use_offsets=not disable_offsets,
        use_heights=not disable_heights,
    )
    entries = []
    for image_id, scores, features, height_grid in load_image_scores(scores_path):
        if scores.k != candidates.k:
            raise SchemaError(f"{image_id}: scores cover {scores.k} candidates, set has {candidates.k}")
        lanes, clique, _ = detect_image(
            basis, candidates, scores, features, height_grid, detection_cfg
        )
        entries.append((image_id, lanes, clique.compatibility))
    path = _out_path(out)
    save_detections(entries, path)
    _echo_kv([("images", len(entries)), ("out", path)])


@main.command("eval")
@click.option("-p", "--pred", "pred_path", required=True, type=click.Path())
@click.option("-d", "--data", required=True, type=click.Path())
@click.option("-b", "--basis", "basis_path", required=True, type=click.Path())
@click.option("--metric", type=click.Choice(["culane", "tusimple"]), default="culane",
              show_default=True)
@FLAGS["iou_thresh"]
@FLAGS["stripe_width"]
@click.option("-o", "--out", type=click.Path(), default=None, help="JSON report path")
@config_option
@FLAGS["format"]
def eval_cmd(pred_path, data, basis_path, metric, iou_thresh, stripe_width, out, fmt):
    """Score detections against ground truth."""
    grid = load_basis(basis_path).grid
    by_id = {record.image_id: record for record in _records(data, fmt, grid)}
    detections = load_detections(pred_path, grid)
    missing = [image_id for image_id, _, _ in detections if image_id not in by_id]
    if missing:
        raise SchemaError(f"detections reference unknown images: {missing[:3]}")
    if metric == "culane":
        reports = []
        for image_id, lanes, _ in detections:
            gt = by_id[image_id].resampled(grid)
            reports.append(match_lanes(lanes, gt, iou_thresh, stripe_width, image_id))
        report = f_measure(reports)
        _echo_kv(
            [
                ("images", len(reports)),
                ("tp", report.tp),
                ("fp", report.fp),
                ("fn", report.fn),
                ("precision", f"{report.precision:.6f}"),
                ("recall", f"{report.recall:.6f}"),
                ("f_measure", f"{report.f_measure:.6f}"),
            ]
        )
        if out is not None:
            save_json("match_report", dataclasses.asdict(report), _out_path(out))
    else:
        preds = []
        gts = []
        ids = []
        for image_id, lanes, _ in detections:
            preds.append(lanes)
            gts.append(by_id[image_id].resampled(grid))
            ids.append(image_id)
        report = tusimple_score(preds, gts, image_ids=ids)
        _echo_kv(
            [
                ("images", len(ids)),
                ("accuracy", f"{report.accuracy:.6f}"),
                ("fpr", f"{report.fpr:.6f}"),
                ("fnr", f"{report.fnr:.6f}"),
            ]
        )
        if out is not None:
            save_json("point_accuracy_report", dataclasses.asdict(report), _out_path(out))


@main.command()
@click.option("-d", "--data", required=True, type=click.Path())
@click.option("--image-id", "image_id", default=None, help="defaults to the first image")
@click.option("-b", "--basis", "basis_path", required=True, type=click.Path())
@click.option("-p", "--pred", "pred_path", type=click.Path(), default=None)
@click.option("-c", "--candidates", "candidates_path", type=click.Path(), default=None)
@click.option("--max-candidates", type=click.IntRange(min=0), default=40, show_default=True)
@click.option("-o", "--out", required=True, type=click.Path())
@config_option
@FLAGS["format"]
def render(data, image_id, basis_path, pred_path, candidates_path, max_candidates, out, fmt):
    """Render ground truth (and optionally candidates / detections) as SVG."""
    grid = load_basis(basis_path).grid
    record = _record(_records(data, fmt, grid), image_id)
    layers = []
    if candidates_path is not None:
        candidates = load_candidates(candidates_path)
        shown = [
            Lane(xs, top, candidates.grid)
            for xs, top in zip(candidates.xs[:max_candidates], candidates.top_index)
        ]
        layers.append(LaneLayer("candidates", shown, "#3a4750", stroke_width=1.0))
    layers.append(LaneLayer("ground truth", record.resampled(grid), DEFAULT_COLORS[0]))
    if pred_path is not None:
        for det_id, lanes, _ in load_detections(pred_path, grid):
            if det_id == record.image_id:
                layers.append(
                    LaneLayer("detections", lanes, DEFAULT_COLORS[1], dash="6,4")
                )
                break
    path = _out_path(out)
    render_svg(record, layers, path)
    _echo_kv([("image", record.image_id), ("out", path)])


@main.command("iou")
@click.option("-d", "--data", required=True, type=click.Path())
@click.option("-b", "--basis", "basis_path", required=True, type=click.Path())
@click.option("--image-id", default=None)
@FLAGS["stripe_width"]
@config_option
@FLAGS["format"]
def iou_cmd(data, basis_path, image_id, stripe_width, fmt):
    """Pairwise stripe IoU table of one image's lanes (audit helper)."""
    grid = load_basis(basis_path).grid
    lanes = _record(_records(data, fmt, grid), image_id).resampled(grid)
    for row in stripe_ious(lanes, lanes, stripe_width):
        click.echo(" ".join(f"{iou:.4f}" for iou in row))


if __name__ == "__main__":
    main()
