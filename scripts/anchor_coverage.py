#!/usr/bin/env python3
"""Candidate-coverage experiment: clustered candidates vs straight anchors.

For a range of candidate budgets, reports the mean best-match stripe IoU of
(a) k-means candidates clustered in coefficient space and (b) straight
anchors on a uniform position x angle grid, against a held-out synthetic
test set. Clustering adapts to the data distribution, so it stays ahead of
the straight grid even when the grid gets ten times the budget. A budget the
library refuses for one scheme, such as more clusters than training lanes,
prints the reason in that scheme's column; the other scheme still runs.

Usage: python scripts/anchor_coverage.py [--budgets 100,1000,10000]
"""

import argparse
import time

from lanespace import (
    ClusteringConfig,
    LaneMatrix,
    SamplingGrid,
    SyntheticSpec,
    ValidationError,
    build_basis,
    cluster_lanes,
    generate_synthetic,
    mean_best_iou,
    straight_anchor_grid,
)


def coverage(build, test_lanes, width):
    """The mean best IoU of the candidate set build() returns, or why the library refused it."""
    try:
        return f"{mean_best_iou(build(), test_lanes, width):.4f}"
    except ValidationError as exc:
        return f"refused: {exc}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budgets", default="100,1000,10000")
    parser.add_argument("--train-images", type=int, default=1500)
    parser.add_argument("--test-images", type=int, default=150)
    parser.add_argument("--rank", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--stripe-width", type=int, default=30)
    args = parser.parse_args()
    budgets = [int(b) for b in args.budgets.split(",")]

    grid = SamplingGrid.uniform(1280, 720, 50)
    train = generate_synthetic(SyntheticSpec(count=args.train_images, seed=args.seed))
    test = generate_synthetic(SyntheticSpec(count=args.test_images, seed=args.seed + 98))
    train_lanes = [lane for r in train for lane in r.resampled(grid)]
    test_lanes = [lane for r in test for lane in r.resampled(grid)]
    curved = sum(1 for r in test if r.category != "straight") / len(test)
    print(f"train {len(train_lanes)} lanes | test {len(test_lanes)} lanes "
          f"({curved:.0%} curved scenes)")

    basis = build_basis(LaneMatrix.from_lanes(train_lanes), args.rank)
    print(f"{'budget':>8} {'clustered':>10} {'straight':>10}")
    for k in budgets:
        started = time.monotonic()
        config = ClusteringConfig(k=k, seed=3)
        clustered = coverage(lambda: cluster_lanes(basis, train_lanes, config),
                             test_lanes, args.stripe_width)
        straight = coverage(lambda: straight_anchor_grid(basis, k), test_lanes, args.stripe_width)
        print(f"{k:>8} {clustered:>10} {straight:>10}   ({time.monotonic() - started:.1f}s)")


if __name__ == "__main__":
    main()
