"""Record perfbench/reference.json from the code as it stands.

    python3 perfbench/make_reference.py

For each workload: the reference batch's detections digest and exact
P/R/F (and, for the CLI workload, mean_best_iou and the scores-file
digests), plus the exact first-pass counts of a traced run at the reference
seed. Re-record only when a change is meant to alter detections, and name
that change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    error = run.import_library()
    if error:
        print(error, file=sys.stderr)
        return 2
    import layers
    import workloads

    seed = workloads.SEEDS["reference"]
    count_names = [
        *layers.COUNT_METRICS,
        "pipeline.nms_select.distinct_pick_frac",
        "pipeline.mwcs.edge_density",
        "geometry.iou_one_vs_many.computed_mb",
        "serialize.scores_bytes_per_image",
    ]
    out = {}
    for name in workloads.WORKLOADS:
        result, _ = run.run_workload(name, seed, 0, 1, None)
        if result["loop"]["errors"] or result["loop"]["determinism_mismatches"]:
            print(f"{name}: operations failed; no reference written", file=sys.stderr)
            return 1
        values = result["reference"]["values"]
        per_layer = result["per_layer"]
        out[name] = {
            "seed": seed,
            **values,
            "counts": {key: per_layer[key] for key in count_names},
        }
        print(f"{name}: F {values['f_measure']!r}  {values['detections_sha256'][:16]}")
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
