"""The benchmark's workloads: inputs from a seed, set-up, and one operation.

Every workload shares a basis built from 1500 synthetic training images
(seed 1, 50-row grid, rank 6). Test images come from the workload seed.
Library functions are always reached through their module, at call time,
so that the traced run's wrappers see the calls.

- oracle-k1000: k-means K=1000; per image resample, oracle scores,
  detection with the defaults (T=10) and matching. The ROADMAP working size.
- anchors-k10000: the same chain against 10000 straight anchors, the stress
  size for every per-candidate cost. Not in BENCHMARK.json: its IoU kernel
  streams 28.8 MB span stacks, and on a shared 2-core machine its rate moved
  by more than a quarter between runs (quartile spread 0.26-0.28 of the
  median over ten seeds), more than any bound allows. Run it by name.
- dense-clique-t14: k-means K=300 with scores precomputed in set-up, with a
  feature row on every candidate, so that most pick pairs relate above
  kappa; detection with T=14 spends its time in the clique search.
- cli-files-k1000: the CLI chain eval-candidates, score-oracle, detect and
  eval over JSON artifacts, in process, batch by batch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from lanespace import (
    candidates,
    cli,
    datasets,
    eigenspace,
    geometry,
    metrics,
    oracle,
    pipeline,
    serialize,
    synth,
)

SEEDS = {
    "train": 1,
    "kmeans": 3,
    "oracle_noise": 5,
    "feature_noise": 7,
    "reference": 99,
}
TRAIN_IMAGES = 1500
IMAGE_SIZE = (1280, 720)
SAMPLES = 50
RANK = 6
STRIPE = 30
HEIGHT_BINS = 25
MATCH_IOU = 0.5

# dense-clique-t14: scores a trained model might write. The feature noise
# puts about nine in ten pick pairs above kappa=0.3.
DENSE_T = 14
ORACLE_NOISE_SIGMA = 0.05
FEATURE_DIM = 11
FEATURE_NOISE = 0.9


@dataclass
class Outcome:
    """What one operation produced, in a form that can be compared exactly.

    image_digests holds one digest per image, in image order; extra holds
    other exact outputs (CLI artifacts); stage_s holds per-stage seconds.
    """

    image_digests: list[bytes]
    matches: list
    extra: dict = field(default_factory=dict)
    stage_s: dict = field(default_factory=dict)

    @property
    def images(self) -> int:
        return len(self.image_digests)

    def identity(self):
        return self.image_digests, sorted(self.extra.items())


def image_digest(lanes) -> bytes:
    """sha256 over each lane's xs bytes (float64) and top_index."""
    h = hashlib.sha256()
    for xs, top in lanes:
        h.update(np.asarray(xs, dtype=np.float64).tobytes())
        h.update(int(top).to_bytes(4, "little"))
    return h.digest()


def lane_pairs(lanes):
    return [(lane.xs, lane.top_index) for lane in lanes]


def _shared_basis():
    records = synth.generate_synthetic(
        synth.SyntheticSpec(count=TRAIN_IMAGES, seed=SEEDS["train"])
    )
    grid = geometry.SamplingGrid.uniform(*IMAGE_SIZE, SAMPLES)
    lanes = [lane for record in records for lane in record.resampled(grid)]
    basis = eigenspace.build_basis(eigenspace.LaneMatrix.from_lanes(lanes), RANK)
    return grid, lanes, basis


def _clustered(k):
    def build(grid, lanes, basis):
        config = candidates.ClusteringConfig(k=k, seed=SEEDS["kmeans"])
        return candidates.cluster_lanes(basis, lanes, config)

    return build


def _anchors(n):
    def build(grid, lanes, basis):
        return candidates.straight_anchor_grid(basis, n)

    return build


def _test_records(seed, count):
    return synth.generate_synthetic(synth.SyntheticSpec(count=count, seed=seed))


class InProcess:
    """A closed loop over test images inside one process."""

    def __init__(self, name, pool, reference_images, build_candidates, t=10):
        self.name = name
        self.pool = pool
        self.reference_images = reference_images
        self.build_candidates = build_candidates
        self.t = t

    def setup(self, seed, workdir, tracer=None):
        grid, lanes, basis = _shared_basis()
        state = SimpleNamespace(
            tracer=tracer,
            grid=grid,
            basis=basis,
            candidates=self.build_candidates(grid, lanes, basis),
            heights=pipeline.uniform_height_grid(grid, HEIGHT_BINS),
            config=pipeline.DetectionConfig(t=self.t),
        )
        state.items = self.make_items(state, seed, self.pool)
        # one image through the chain fills lazy caches such as span stacks
        self.op(state, state.items[0])
        return state

    def reference_items(self, state):
        return self.make_items(state, SEEDS["reference"], self.reference_images)

    def make_items(self, state, seed, count):
        return _test_records(seed, count)

    def op(self, state, record):
        gt = record.resampled(state.grid)
        scores, features = oracle.oracle_scores(
            state.candidates, gt, state.basis, state.heights
        )
        lanes, _, _ = pipeline.detect_image(
            state.basis, state.candidates, scores, features, state.heights, state.config
        )
        match = metrics.match_lanes(lanes, gt, MATCH_IOU, STRIPE, record.image_id)
        return Outcome([image_digest(lane_pairs(lanes))], [match])

    def teardown(self, state):
        pass


class DenseClique(InProcess):
    """Detection only, on precomputed scores with a dense relation graph."""

    def make_items(self, state, seed, count):
        items = []
        for i, record in enumerate(_test_records(seed, count)):
            gt = record.resampled(state.grid)
            noise_seed = int(
                np.random.SeedSequence([SEEDS["oracle_noise"], seed, i]).generate_state(1)[0]
            )
            config = oracle.OracleConfig(noise_sigma=ORACLE_NOISE_SIGMA, seed=noise_seed)
            scores, _ = oracle.oracle_scores(
                state.candidates, gt, state.basis, state.heights, config
            )
            rng = np.random.default_rng([SEEDS["feature_noise"], seed, i])
            direction = rng.normal(size=FEATURE_DIM)
            direction /= np.linalg.norm(direction)
            noise = rng.normal(size=(state.candidates.k, FEATURE_DIM))
            features = direction + FEATURE_NOISE * noise / np.sqrt(FEATURE_DIM)
            items.append(SimpleNamespace(image_id=record.image_id, gt=gt, scores=scores,
                                         features=features))
        return items

    def op(self, state, item):
        lanes, _, _ = pipeline.detect_image(
            state.basis, state.candidates, item.scores, item.features, state.heights,
            state.config,
        )
        match = metrics.match_lanes(lanes, item.gt, MATCH_IOU, STRIPE, item.image_id)
        return Outcome([image_digest(lane_pairs(lanes))], [match])


class CliFailure(RuntimeError):
    pass


def run_cli(args, tracer=None) -> tuple[str, float]:
    """Run one lanespace command in process; (stdout, seconds).

    A non-zero exit status raises CliFailure. With an active tracer the
    command is recorded as a span named cli.<command>.
    """
    out = io.StringIO()
    code = 0
    token = None
    if tracer is not None and tracer.active:
        token = tracer.open("cli." + args[0].replace("-", "_"))
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            try:
                cli.main(args, prog_name="lanespace")
            except SystemExit as exc:
                code = exc.code
    finally:
        seconds = time.perf_counter() - start
        if token is not None:
            tracer.close(token)
    if code not in (0, None):
        raise CliFailure(f"lanespace {args[0]} exited with {code}")
    return out.getvalue(), seconds


class CliFiles:
    """The CLI chain over JSON artifacts, one batch of test images at a time."""

    name = "cli-files-k1000"
    batch = 10
    pool = 40
    reference_images = 10
    k = 1000

    def setup(self, seed, workdir, tracer=None):
        grid, lanes, basis = _shared_basis()
        cands = _clustered(self.k)(grid, lanes, basis)
        workdir.mkdir(parents=True, exist_ok=True)
        state = SimpleNamespace(
            tracer=tracer,
            workdir=workdir,
            basis=workdir / "basis.json",
            candidates=workdir / "candidates.json",
        )
        serialize.save_basis(basis, state.basis)
        serialize.save_candidates(cands, state.candidates)
        state.items = self._write_batches(state, "test", seed, self.pool)
        return state

    def reference_items(self, state):
        return self._write_batches(state, "ref", SEEDS["reference"], self.reference_images)

    def _write_batches(self, state, prefix, seed, count):
        records = _test_records(seed, count)
        paths = []
        for b in range(0, count, self.batch):
            path = state.workdir / f"{prefix}-{b // self.batch}.jsonl"
            datasets.write_tusimple_jsonl(records[b : b + self.batch], path)
            paths.append(path)
        return paths

    def op(self, state, data):
        stem = data.with_suffix("")
        scores = Path(f"{stem}-scores.jsonl")
        detections = Path(f"{stem}-detections.jsonl")
        report = Path(f"{stem}-report.json")
        common = ["-b", str(state.basis), "-c", str(state.candidates)]
        stage_s = {}
        text, stage_s["cli.eval_candidates"] = run_cli(
            ["eval-candidates", "-c", str(state.candidates), "-d", str(data)], state.tracer
        )
        _, stage_s["cli.score_oracle"] = run_cli(
            ["score-oracle", *common, "-d", str(data), "-o", str(scores)], state.tracer
        )
        _, stage_s["cli.detect"] = run_cli(
            ["detect", *common, "-s", str(scores), "-o", str(detections)], state.tracer
        )
        _, stage_s["cli.eval"] = run_cli(
            ["eval", "-p", str(detections), "-d", str(data), "-b", str(state.basis),
             "-o", str(report)],
            state.tracer,
        )
        mean_best_iou = next(
            line.split(":", 1)[1].strip()
            for line in text.splitlines()
            if line.startswith("mean_best_iou:")
        )
        scores_bytes = scores.read_bytes()
        digests = []
        for line in detections.read_text(encoding="utf-8").splitlines():
            obj = json.loads(line)
            digests.append(image_digest((lane["xs"], lane["top_index"]) for lane in obj["lanes"]))
        per_image = json.loads(report.read_text(encoding="utf-8"))["per_image"]
        matches = [SimpleNamespace(tp=m["tp"], fp=m["fp"], fn=m["fn"]) for m in per_image]
        extra = {
            "mean_best_iou": mean_best_iou,
            "scores_sha256": hashlib.sha256(scores_bytes).hexdigest(),
            "scores_bytes": len(scores_bytes),
        }
        return Outcome(digests, matches, extra, stage_s)

    def teardown(self, state):
        shutil.rmtree(state.workdir, ignore_errors=True)


WORKLOADS = {
    w.name: w
    for w in (
        InProcess("oracle-k1000", 200, 20, _clustered(1000)),
        InProcess("anchors-k10000", 20, 3, _anchors(10000)),
        DenseClique("dense-clique-t14", 400, 20, _clustered(300), t=DENSE_T),
        CliFiles(),
    )
}
