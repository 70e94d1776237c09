"""Benchmark of the lanespace detection chain, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-k1000 --seed 99 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

The workloads and metrics are listed, with the reason for each workload, in
BENCHMARK.json; workloads.py also defines anchors-k10000, which can be run
by name but is not part of BENCHMARK.json (see workloads.py). Load is a closed loop with one client: an operation starts
only when the previous one has finished. Each run

1. builds the workload three times, twice in forked children and once for
   the run, and reports the median set-up time (once when traced);
2. runs a fixed reference batch (seed 99) and compares its detections
   digest and exact P/R/F with perfbench/reference.json;
3. measures for --seconds seconds, and always at least one full pass over
   the workload's fixed image set, checking that every repeated image gives
   the same outputs as its first pass.

With --trace 0 it prints the end-to-end metrics. With --trace 1 it wraps the
library's module-level names (see layers.py), prints the per-layer metrics
and the self-time table, and then repeats the same operations unwrapped to
report the tracing overhead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A result file
with the environment, seeds and checks (and, when traced, the spans) goes to
.bench_results/ under the repository root.
"""

from __future__ import annotations

import os

# One BLAS thread: load comes from one client, and thread-dependent summation
# order would make the k-means set-up differ from run to run. Set before
# numpy is first imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = HERE / "reference.json"
RESULTS_DIR = ROOT / ".bench_results"
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 3


def import_library() -> str | None:
    """Import lanespace from this checkout's src/; an error message on failure."""
    sys.path.insert(0, str(SRC))
    try:
        import lanespace
    except ImportError as exc:
        return f"error: cannot import lanespace from {SRC}: {exc}"
    if Path(lanespace.__file__).resolve().parent.parent != SRC:
        return f"error: lanespace was imported from {lanespace.__file__}, not {SRC}"
    return None


@dataclass
class LoopResult:
    ops: int = 0
    images: int = 0
    failed: int = 0
    mismatches: int = 0
    elapsed_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    first: list = field(default_factory=list)
    stage_s: dict = field(default_factory=dict)
    warnings: int = 0
    errors: list = field(default_factory=list)
    window: tuple = (0, 0)
    counts: Counter = field(default_factory=Counter)
    distinct_picks: int = 0


def closed_loop(workload, state, items, seconds, tracer=None, limit=None) -> LoopResult:
    """Run operations back to back over items, in order, cycling.

    Stops after `limit` operations, or else once `seconds` have passed and
    every item has run at least once. An operation that raises, or that
    repeats an item with outputs different from its first pass, counts as
    failed. With a tracer, counts are kept for the first pass only.
    """
    res = LoopResult(first=[None] * len(items))
    before = Counter(tracer.counts) if tracer else None
    if tracer:
        tracer.sets.clear()
    start_ns = time.perf_counter_ns()
    start = time.perf_counter()
    while True:
        if limit is not None:
            if res.ops >= limit:
                break
        elif res.ops >= len(items) and time.perf_counter() - start >= seconds:
            break
        idx = res.ops % len(items)
        if tracer:
            tracer.image = f"{workload.name}:{idx}"
            token = tracer.open("image")
        t0 = time.perf_counter_ns()
        outcome = None
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcome = workload.op(state, items[idx])
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            res.failed += 1
            if len(res.errors) < 5:
                res.errors.append(traceback.format_exc())
        t1 = time.perf_counter_ns()
        if tracer:
            tracer.close(token)
        res.ops += 1
        if res.ops <= len(items):
            res.warnings += len(caught)
        if outcome is not None:
            res.images += outcome.images
            res.latencies_ms.append((t1 - t0) / 1e6 / outcome.images)
            for stage, s in outcome.stage_s.items():
                res.stage_s.setdefault(stage, []).append(s)
            if res.first[idx] is None:
                res.first[idx] = outcome
            elif res.first[idx].identity() != outcome.identity():
                res.failed += 1
                res.mismatches += 1
        if tracer and res.ops == len(items):
            res.counts = Counter(tracer.counts)
            res.counts.subtract(before)
            res.distinct_picks = len(tracer.sets["pipeline.nms_select.picks"])
    res.elapsed_s = time.perf_counter() - start
    res.window = (start_ns, time.perf_counter_ns())
    return res


def f_measure_of(outcomes):
    from lanespace import metrics

    return metrics.f_measure([m for o in outcomes if o is not None for m in o.matches])


def reference_values(outcomes) -> dict:
    """The exact values the reference batch is checked on."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        for d in outcome.image_digests if outcome is not None else [b"failed"]:
            digest.update(d)
    report = f_measure_of(outcomes)
    values = {
        "images": sum(o.images for o in outcomes if o is not None),
        "detections_sha256": digest.hexdigest(),
        "tp": report.tp,
        "fp": report.fp,
        "fn": report.fn,
        "precision": report.precision,
        "recall": report.recall,
        "f_measure": report.f_measure,
    }
    for key in ("mean_best_iou", "scores_sha256"):
        found = [o.extra[key] for o in outcomes if o is not None and key in o.extra]
        if found:
            values[key] = found
    return values


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            ref_file = ROOT / ".git" / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown"


def environment(seeds: dict) -> dict:
    import numpy as np

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seeds": seeds,
        "load": "closed loop, one client",
    }


def setup_in_child(workload, seed, workdir) -> float:
    """Build the workload in a forked child and return the seconds it took.

    The extra set-ups behind the setup_s median run in children, so that the
    parent's memory high-water mark (peak_rss_mb) is that of one set-up and
    the loop, not of heap fragments left by earlier set-ups.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                start = time.perf_counter()
                state = workload.setup(seed, workdir)
                seconds = time.perf_counter() - start
            workload.teardown(state)
            os.write(write_fd, repr(seconds).encode())
            status = 0
        except Exception:  # noqa: BLE001 - reported to the parent by the exit status
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"set-up of {workload.name} failed in a child process")
    return float(data)


def run_workload(name, seed, seconds, trace, reference) -> dict:
    """Set up, check, measure; returns the result record and the tracer."""
    import numpy as np

    import layers
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(layers.TARGETS)
        tracer.image = "setup"
        tracer.active = True
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    setup_s = [
        setup_in_child(workload, seed, WORK_DIR / f"{name}-{os.getpid()}-{i}")
        for i in range(0 if trace else SETUP_REPEATS - 1)
    ]
    state = None
    try:
        setup_start = time.perf_counter_ns()
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            state = workload.setup(seed, workdir, tracer)
        setup_s.append((time.perf_counter_ns() - setup_start) / 1e9)
        setup_window = (setup_start, time.perf_counter_ns())
        if tracer:
            tracer.active = False
            tracer.setup_counts = Counter(tracer.counts)

        ref_items = workload.reference_items(state)
        ref = closed_loop(workload, state, ref_items, 0, limit=len(ref_items))
        ref_values = reference_values(ref.first)
        expected = (reference or {}).get(name)
        if expected is None:
            ref_mismatch = ["no reference stored"]
        else:
            ref_mismatch = [
                key
                for key, value in expected.items()
                if key not in ("seed", "counts") and ref_values.get(key) != value
            ]

        gc.collect()
        if tracer:
            tracer.active = True
        loop = closed_loop(workload, state, state.items, seconds, tracer=tracer)
        bare = None
        if tracer:
            tracer.active = False
            tracer.uninstall()
            bare = closed_loop(workload, state, state.items, 0, limit=loop.ops)
    finally:
        if state is not None:
            workload.teardown(state)

    report = f_measure_of(loop.first)
    latencies = loop.latencies_ms
    p90 = float(np.percentile(latencies, 90)) if latencies else 0.0
    end_to_end = {
        "images_per_s": loop.images / loop.elapsed_s,
        "image_ms_p50": statistics.median(latencies) if latencies else 0.0,
        "image_ms_p90": p90,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "f_measure": report.f_measure,
    }
    # a reference mismatch cannot be pinned on one image: the whole batch fails
    failed = (ref.ops if ref_mismatch else ref.failed) + loop.failed
    if bare:
        failed += bare.failed
    result = {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "environment": environment({**workloads.SEEDS, "workload": seed}),
        "attempted": ref.ops + loop.ops + (bare.ops if bare else 0),
        "failed": failed,
        "correct": failed == 0,
        "reference": {"values": ref_values, "mismatched": ref_mismatch},
        "first_pass": {
            "items": len(state.items),
            "images": sum(o.images for o in loop.first if o is not None),
            "tp": report.tp,
            "fp": report.fp,
            "fn": report.fn,
            "precision": report.precision,
            "recall": report.recall,
            "f_measure": report.f_measure,
            "warnings": loop.warnings,
        },
        "loop": {
            "ops": loop.ops,
            "images": loop.images,
            "elapsed_s": loop.elapsed_s,
            "samples": len(latencies),
            "samples_beyond_p90": sum(1 for x in latencies if x > p90),
            "determinism_mismatches": loop.mismatches,
            "stage_s_median": {k: statistics.median(v) for k, v in loop.stage_s.items()},
            "errors": ref.errors + loop.errors,
        },
        "setup_s_runs": setup_s,
        "end_to_end": end_to_end,
    }
    if tracer:
        per_layer = layers.layer_metrics(
            tracer, setup_window, loop.window, loop.counts, loop.distinct_picks
        )
        scores_bytes = sum(o.extra.get("scores_bytes", 0) for o in loop.first if o)
        images = result["first_pass"]["images"]
        per_layer["serialize.scores_bytes_per_image"] = scores_bytes / images if images else 0
        traced_rate = end_to_end["images_per_s"]
        bare_rate = bare.images / bare.elapsed_s
        per_layer["trace.images_per_s"] = traced_rate
        per_layer["trace.untraced_images_per_s"] = bare_rate
        per_layer["trace.overhead_pct"] = 100.0 * (bare_rate / traced_rate - 1.0)
        result["per_layer"] = per_layer
        result["absent_layers"] = tracer.absent
        result["absent_paths"] = tracer.absent_paths
        result["unobserved_layers"] = sorted(tracer.unobserved)
        result["self_time"] = layers.self_time_table(tracer, loop.window)
        if expected and "counts" in expected and seed == expected["seed"]:
            result["counts_vs_reference"] = {
                key: [value, per_layer.get(key)]
                for key, value in expected["counts"].items()
                if per_layer.get(key) != value
            }
    return result, tracer


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_result(result, tracer) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    seed = result["environment"]["seeds"]["workload"]
    stem = f"{result['workload']}_seed{seed}_trace{result['trace']}_{stamp}_{os.getpid()}"
    if tracer is not None:
        spans = RESULTS_DIR / f"{stem}_spans.jsonl"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    path = RESULTS_DIR / f"{stem}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
        fh.write("\n")
    return path


def select_metrics(values: dict, listed: list) -> dict:
    """The metrics BENCHMARK.json lists, in its order; both sides must agree."""
    names = [m["name"] for m in listed]
    missing = [n for n in names if n not in values]
    unlisted = [n for n in values if n not in names]
    if missing or unlisted:
        raise RuntimeError(f"metric lists disagree: missing {missing}, unlisted {unlisted}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def print_report(result, metrics_out):
    print(f"workload {result['workload']}  seed {result['environment']['seeds']['workload']}"
          f"  trace {result['trace']}")
    for name, m in metrics_out.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    loop = result["loop"]
    print(f"  ops {loop['ops']}  images {loop['images']}  in {loop['elapsed_s']:.2f} s;"
          f"  latency samples {loop['samples']} ({loop['samples_beyond_p90']} beyond p90)")
    mismatched = result["reference"]["mismatched"]
    print("  reference batch: " + ("match" if not mismatched else f"MISMATCH {mismatched}"))
    if result["trace"]:
        print("  self time in the traced loop (top 12):")
        for name, ms, share in result["self_time"][:12]:
            print(f"    {name:40s} {ms:12.1f} ms {share:6.1f} %")
        if result["absent_layers"]:
            print(f"  absent layers: {result['absent_layers']}")
        if "counts_vs_reference" in result:
            diff = result["counts_vs_reference"]
            print("  counts vs reference: " + ("equal" if not diff else f"differ {diff}"))
    for err in loop["errors"][:1]:
        print(err, file=sys.stderr)


def run_all(args, spec) -> int:
    """Every workload in its own process, one after another."""
    merged = {}
    attempted = failed = 0
    correct = True
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        merged.update({f"{w['name']}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    spec = load_json(SPEC_PATH)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of workloads.py, or 'all' for those in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)

    error = import_library()
    if error:
        print(error, file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    reference = load_json(REFERENCE_PATH) if REFERENCE_PATH.exists() else None
    result, tracer = run_workload(
        args.workload, args.seed, args.seconds, args.trace, reference
    )
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["per_layer"] if args.trace else result["end_to_end"]
    metrics_out = select_metrics(values, listed)
    path = write_result(result, tracer)
    print_report(result, metrics_out)
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
