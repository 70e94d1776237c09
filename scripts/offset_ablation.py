#!/usr/bin/env python3
"""Ablation of the detection-time refinement switches.

Runs the oracle-scored pipeline four ways (full, without coefficient
offsets, without height truncation, without both) and prints the resulting
F-measures, showing how much each refinement contributes.

Usage: python scripts/offset_ablation.py [--test-images 300]
"""

import argparse

from lanespace import (
    ClusteringConfig,
    DetectionConfig,
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
    uniform_height_grid,
)


def run(basis, candidates, records, grid, config):
    heights = uniform_height_grid(grid, 25)
    reports = []
    for record in records:
        gt = record.resampled(grid)
        scores, features = oracle_scores(candidates, gt, basis, heights)
        detected, _, _ = detect_image(
            basis, candidates, scores, features, heights, config
        )
        reports.append(match_lanes(detected, gt, 0.5, 30, record.image_id))
    return f_measure(reports)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-images", type=int, default=1000)
    parser.add_argument("--test-images", type=int, default=300)
    parser.add_argument("--k", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    grid = SamplingGrid.uniform(1280, 720, 50)
    train = generate_synthetic(SyntheticSpec(count=args.train_images, seed=args.seed))
    test = generate_synthetic(SyntheticSpec(count=args.test_images, seed=args.seed + 98))
    train_lanes = [lane for r in train for lane in r.resampled(grid)]
    basis = build_basis(LaneMatrix.from_lanes(train_lanes), 6)
    candidates = cluster_lanes(basis, train_lanes, ClusteringConfig(k=args.k, seed=3))

    variants = [
        ("full pipeline", DetectionConfig()),
        ("without offsets", DetectionConfig(use_offsets=False)),
        ("without heights", DetectionConfig(use_heights=False)),
        ("without both", DetectionConfig(use_offsets=False, use_heights=False)),
    ]
    print(f"{'variant':<18} {'P':>8} {'R':>8} {'F':>8}")
    for name, config in variants:
        report = run(basis, candidates, test, grid, config)
        print(f"{name:<18} {report.precision:>8.4f} {report.recall:>8.4f} "
              f"{report.f_measure:>8.4f}")


if __name__ == "__main__":
    main()
