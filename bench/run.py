#!/usr/bin/env python3
"""dtpca benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload paper_scale --seed 1 --seconds 35 --trace 0

Workloads: paper_scale, gallery_scan (see bench/README.md).
Inputs come from the seeded synthetic generator; the same seed gives the
same inputs.  Every result is checked against a brute-force reference.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced; with ``--trace 1`` they are
the per-layer ones, from spans around each public dtpca function.  Lines
before it give the environment and each workload's own figures.  Full
results and spans are kept under ``.bench_work/`` in the checkout.
"""

import os
import sys

# Pin BLAS/OpenMP pools before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, str(harness.SRC))

WORKLOADS = ("paper_scale", "gallery_scan")


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".failed")):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio"


def bench(workload, seed, seconds, trace, sizes=None):
    """Run one workload; return the full result (metrics, env, figures)."""
    import workloads  # imports dtpca, so only once the sources are known to exist

    harness.WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=harness.WORK))
    run = harness.Run(
        workload, seed, seconds, trace, sizes or workloads.FULL, work_dir,
        tracer=tracing.Tracer() if trace else None,
    )
    env = harness.environment(run)
    env["calibration_before"] = harness.calibrate()
    try:
        e2e, named, layers = workloads.WORKLOADS[workload](run)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env["calibration_after"] = harness.calibrate()

    if trace:
        values = {**dict.fromkeys(workloads.LAYER_EXTRAS, 0.0),
                  **tracing.layer_metrics(run.tracer), **layers}
        spans_path = harness.WORK / f"spans-{workload}-seed{seed}.json"
        run.tracer.dump(spans_path)
    else:
        values = e2e
    return {
        "correct": run.attempted > 0 and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
        "named": {k: {"value": v, "unit": u, "samples": n}
                  for k, (v, u, n) in named.items()},
        "failures": run.failures,
        "env": env,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.SRC / "dtpca" / "__init__.py").is_file():
        print(f"error: dtpca sources not found under {harness.SRC}", file=sys.stderr)
        return 2

    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (harness.WORK / name).write_text(json.dumps(result, indent=1) + "\n")

    print("env " + json.dumps(result["env"]))
    for k, v in result["named"].items():
        print(f"figure {k} {v['value']} {v['unit']} samples={v['samples']}")
    for what in result["failures"]:
        print(f"failure {what}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
