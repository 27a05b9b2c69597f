"""Tiny-size smoke run of every workload, untraced and traced.

    python -m pytest -q bench/test_smoke.py

Keeps the harness from rotting: each workload runs at a few subjects and
small images, its results are checked against the reference, and the
metrics it prints must be exactly the ones BENCHMARK.json lists.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    subjects=3, variants=4, dims=(12, 10), schemes=(8, 9, 12), table_splits=(3, 2, 1),
    scan_subjects=5, scan_variants=3, scan_dims=(12, 10), scan_scheme=8,
    scan_fit_images=6, k=3, setup_reps=2, query_burst_s=0.0,
)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_clean(workload, trace):
    result = run.bench(workload, seed=3, seconds=0.2, trace=trace, sizes=TINY)
    assert result["failures"] == []
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["dataset_io.load_image.calls"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_paper_scale_sees_every_layer():
    result = run.bench("paper_scale", seed=4, seconds=0.2, trace=True, sizes=TINY)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # A train (12 triangulations); a table of 3 splits x 3 schemes, each
    # cell triangulating all 12 landmark sets; then two one-query bursts
    # in each mode, each followed by a CLI recognize, pca-only then dt-pca.
    # Each dt-pca query triangulates its probe.
    assert m["evalharness.run_experiment.calls"] == 9
    assert m["geometry.delaunay.calls"] == 12 + 9 * 12 + 2 + 1
    # Three split fits plus the train fit, in ten calls.
    assert m["eigenface.fit_eigenmodel.distinct_frac"] == pytest.approx(4 / 10)
    assert m["eigenface.fit_eigenmodel.first_s"] > 0
    # Every test image of the 3/2/1-variant splits (3 subjects, 3 schemes
    # for dt_pca), plus the in-process queries and the CLI.
    assert m["recognizer.recognize.pca_only.calls"] == 3 * (1 + 2 + 3) + 2 + 1
    assert m["recognizer.recognize.dt_pca.calls"] == 3 * 3 * (1 + 2 + 3) + 2 + 1
    assert m["recognizer.save_gallery.calls"] == 1
    assert m["recognizer.load_gallery.calls"] == 2
    assert m["recognizer.save_gallery.file_mb"] > 0
    assert m["cli.import_s"] > 0


def test_missing_sources_fail_without_result(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for path in HERE.glob("*.py"):
        (bench_copy / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gallery_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
