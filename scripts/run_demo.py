#!/usr/bin/env python3
"""End-to-end demo on synthetic data.

Generates a train/test split, builds the lane basis, clusters candidates,
runs the oracle-scored detection chain on a handful of images, prints the
evaluation numbers and renders one scene to SVG.

Usage: python scripts/run_demo.py [--out-dir demo_out] [--k 300] [--seed 0]
"""

import argparse
from pathlib import Path

from lanespace import (
    ClusteringConfig,
    DetectionConfig,
    Lane,
    LaneLayer,
    LaneMatrix,
    SamplingGrid,
    SyntheticSpec,
    build_basis,
    cluster_lanes,
    detect_image,
    f_measure,
    generate_synthetic,
    match_lanes,
    oracle_scores,
    render_svg,
    tusimple_score,
    uniform_height_grid,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo_out")
    parser.add_argument("--k", type=int, default=300)
    parser.add_argument("--rank", type=int, default=6)
    parser.add_argument("--train-images", type=int, default=400)
    parser.add_argument("--test-images", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    grid = SamplingGrid.uniform(1280, 720, 50)
    train = generate_synthetic(SyntheticSpec(count=args.train_images, seed=args.seed))
    test = generate_synthetic(SyntheticSpec(count=args.test_images, seed=args.seed + 1000))
    train_lanes = [lane for r in train for lane in r.resampled(grid)]
    print(f"train: {len(train)} images, {len(train_lanes)} lanes")

    basis = build_basis(LaneMatrix.from_lanes(train_lanes), args.rank)
    print(f"basis: rank {basis.m}, leading singular values "
          + ", ".join(f"{s:.0f}" for s in basis.singular_values[:4]))

    candidates = cluster_lanes(
        basis, train_lanes, ClusteringConfig(k=args.k, seed=args.seed)
    )
    heights = uniform_height_grid(grid, 25)
    config = DetectionConfig()

    reports = []
    per_image_pred = []
    per_image_gt = []
    first_scene = None
    for record in test:
        gt = record.resampled(grid)
        scores, features = oracle_scores(candidates, gt, basis, heights)
        detected, _, _ = detect_image(
            basis, candidates, scores, features, heights, config
        )
        reports.append(match_lanes(detected, gt, 0.5, 30, record.image_id))
        per_image_pred.append(detected)
        per_image_gt.append(gt)
        if first_scene is None:
            first_scene = (record, gt, detected)

    culane = f_measure(reports)
    point = tusimple_score(per_image_pred, per_image_gt)
    print(f"stripe-IoU protocol:  P {culane.precision:.4f}  R {culane.recall:.4f}  "
          f"F {culane.f_measure:.4f}")
    print(f"pointwise protocol:   acc {point.accuracy:.4f}  FPR {point.fpr:.4f}  "
          f"FNR {point.fnr:.4f}")

    record, gt, detected = first_scene
    shown = [Lane(xs, top, grid) for xs, top in zip(candidates.xs[:40], candidates.top_index)]
    svg_path = out_dir / f"{record.image_id}.svg"
    render_svg(
        record,
        [
            LaneLayer("candidates", shown, "#3a4750", stroke_width=1.0),
            LaneLayer("ground truth", gt, "#00b7c2"),
            LaneLayer("detections", detected, "#ff5d73", stroke_width=1.5, dash="6,4"),
        ],
        svg_path,
    )
    print(f"scene rendered to {svg_path}")


if __name__ == "__main__":
    main()
