"""The two workloads: paper_scale and gallery_scan.

Each drives dtpca only through the names exported from ``dtpca`` and its
modules, or through the ``dtpca`` CLI, and checks every result against the
brute-force reference of ``reference.py``.  Each returns

* ``e2e``: the gated end-to-end metrics, the same four names on every
  workload.  Their timings are the best of the run's in-process queries,
  the only operations short enough to read steadily on a shared host
  (README.md, "Steadiness");
* ``named``: the workload's own figures under the names users know
  (``table_s``, ``query_dt_p50_ms``, ...) as ``(value, unit, samples)``;
* ``layers``: per-layer figures only the workload itself can measure.

The timed phase is a closed loop with one client: an operation starts only
after the previous one ended, and only if it is expected to end within
``seconds`` of the start of the phase.  With tracing on, every operation
runs twice, untraced and then traced; only traced operations produce
spans, and the time ratio of the pairs is the tracing overhead.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dtpca
from dtpca import dataset_io, eigenface, recognizer, synthetic

import reference
from harness import Pacer, median, peak_rss_mb, run_child, tail, timed_setups

CHILD = str(Path(__file__).resolve().parent / "child.py")
CLI_MODES = {"pca_only": "pca-only", "dt_pca": "dt-pca"}

# Per-layer figures a workload measures itself; 0 where it has none.
LAYER_EXTRAS = ("trace.overhead_frac", "recognizer.save_gallery.file_mb")


@dataclass(frozen=True)
class Sizes:
    # paper_scale: the paper's data set, 15 subjects x 9 variants, plus one
    # probe variant per subject for the CLI and for the in-process queries,
    # which run in bursts of query_burst_s seconds.
    subjects: int = 15
    variants: int = 9
    dims: tuple[int, int] = (320, 243)
    schemes: tuple[int, ...] = (68, 79, 194)
    table_splits: tuple[int, ...] = (7, 5, 3)
    query_burst_s: float = 3.0
    # gallery_scan: (variants - 1) x subjects gallery entries, one probe
    # per subject.  Large enough that scoring dominates a pca_only query
    # and is the larger part of a dt_pca query; small enough that three
    # set-ups (generate, triangulate, reference) fit a short run.
    scan_subjects: int = 96
    scan_variants: int = 8
    scan_dims: tuple[int, int] = (80, 60)
    scan_scheme: int = 68
    scan_fit_images: int = 450
    k: int = 25
    setup_reps: int = 3


FULL = Sizes()


def _traced(run, traced, request):
    if not traced:
        return nullcontext()
    run.tracer.request = request
    return run.tracer.active()


def _overhead(pairs):
    """Traced over untraced time of paired operations, minus one."""
    untraced = sum(u for u, _ in pairs)
    return sum(t for _, t in pairs) / untraced - 1.0 if untraced else 0.0


def _variants(run):
    return (False, True) if run.trace else (False,)


def _key(entry):
    return entry.subject_id, entry.variant


def _e2e(samples, setup_s, peak_mb):
    """The gated metrics, from a run's query times in seconds."""
    return {
        "heavy_best_ms": _ms(min(samples["dt_pca"], default=0.0)),
        "light_best_ms": _ms(min(samples["pca_only"], default=0.0)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }


def _query_figures(samples):
    pca, dt = samples["pca_only"], samples["dt_pca"]
    return {
        "query_pca_p50_ms": (_ms(median(pca)), "ms", len(pca)),
        "query_pca_p90_ms": (_ms(tail(pca)), "ms", len(pca)),
        "query_dt_p50_ms": (_ms(median(dt)), "ms", len(dt)),
        "query_dt_p90_ms": (_ms(tail(dt)), "ms", len(dt)),
    }


def _ms(seconds):
    return None if seconds is None else seconds * 1e3


def _query(run, gallery, model, probe, request, samples, pairs):
    """Query one probe in both modes and check it; return the wall time.

    ``probe`` is ``(image, landmarks, accepted)``, accepted being the
    reference's acceptable subjects per mode.
    """
    img, lmk, accepted = probe
    walls = []
    for traced in _variants(run):
        with _traced(run, traced, request):
            wall = 0.0
            for mode in reference.MODES:
                start = time.perf_counter()
                try:
                    best = recognizer.recognize(
                        gallery, model, img, lmk, mode=mode).best_subject
                except Exception as exc:  # counted as a failed query
                    best = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                wall += elapsed
                if not traced:
                    samples[mode].append(elapsed)
                run.check(best in accepted[mode],
                          f"{request} {mode}: got {best}, reference {sorted(accepted[mode])}")
        walls.append(wall)
    if run.trace:
        pairs.append(walls)
    return sum(walls)


def _last_json(stdout):
    """The JSON object on a child's last stdout line, or None."""
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    return out if isinstance(out, dict) else None


def _merge_trace(run, trace_file, request=None):
    # A child that died before writing its spans has none to merge.
    if trace_file.exists():
        run.tracer.merge_file(trace_file, request)
        trace_file.unlink()


# ---------------------------------------------------------------- paper_scale
def paper_scale(run):
    sz = run.sizes
    splits = ",".join(map(str, sz.table_splits))

    def setup(rep):
        root = run.work_dir / f"paper{rep}"
        manifests = synthetic.make_dataset(
            root, sz.subjects, sz.variants + 1, *sz.dims,
            schemes=sz.schemes, seed=run.seed,
        )
        # The first `variants` variants of each subject form the paper's
        # data set; the one left over probes the gallery `dtpca train` writes.
        table, probe = {}, {}
        for s, path in manifests.items():
            table[s], probe[s] = dtpca.split_dataset(dtpca.load_manifest(path), sz.variants)
            dtpca.save_manifest(table[s], root / f"table_{s}.csv")
        base = table[sz.schemes[0]]
        images = {_key(e): dtpca.load_image(e.image_path)
                  for m in (base, probe[sz.schemes[0]]) for e in m.entries}
        lmks = {
            s: {_key(e): dtpca.load_landmarks(e.landmark_path)
                for m in (table[s], probe[s]) for e in m.entries}
            for s in sz.schemes
        }
        ras = {s: {key: reference.ra_avg(lmk) for key, lmk in lmks[s].items()}
               for s in sz.schemes}

        def matcher(train):
            imgs = [images[_key(e)] for e in train.entries]
            return reference.Matcher(dtpca.fit_eigenmodel(imgs, sz.k), imgs,
                                     [e.subject_id for e in train.entries])

        expected = {}
        for tv in sz.table_splits:
            train, test = dtpca.split_dataset(base, tv)
            m = matcher(train)
            qs = m.project([images[_key(e)] for e in test.entries])
            truths = [e.subject_id for e in test.entries]
            shape = (len(train.entries), len(test.entries))
            expected[(*shape, "pca_only", "")] = reference.correct_range(
                [m.acceptable(q, "pca_only") for q in qs], truths)
            for s in sz.schemes:
                gallery_ras = [ras[s][_key(e)] for e in train.entries]
                accepted = [m.acceptable(q, "dt_pca", gallery_ras, ras[s][_key(e)])
                            for q, e in zip(qs, test.entries)]
                expected[(*shape, "dt_pca", str(s))] = reference.correct_range(
                    accepted, truths)

        # `dtpca train` uses every image of the first scheme's data set.
        s0 = sz.schemes[0]
        m = matcher(base)
        gallery_ras = [ras[s0][_key(e)] for e in base.entries]
        probes = []
        for e in probe[s0].entries:
            img, lmk = images[_key(e)], lmks[s0][_key(e)]
            q = m.project([img])[0]
            accepted = {mode: m.acceptable(q, mode, gallery_ras, ras[s0][_key(e)])
                        for mode in reference.MODES}
            probes.append((e, (img, lmk, accepted)))
        return root, expected, probes

    (root, expected, probes), setup_s = timed_setups(
        setup, 1 if run.trace else sz.setup_reps)

    table_argv = [CHILD, "table", "--k", str(sz.k), "--train-variants", splits]
    for s in sz.schemes:
        table_argv += ["--manifest", f"{s}={root / f'table_{s}.csv'}"]
    gallery = root / "gallery.json"
    train_args = ["train", "--manifest", str(root / f"table_{sz.schemes[0]}.csv"),
                  "--k", str(sz.k), "--out", str(gallery)]

    times = {op: [] for op in ("train", "table", "recognize")}
    samples = {m: [] for m in reference.MODES}
    pairs, gallery_mb = [], 0.0

    def child_op(n, op):
        """Run `dtpca train`, the table or a cold `dtpca recognize` and check
        it; return its wall time (untraced plus traced)."""
        nonlocal gallery_mb
        entry, (_, _, accepted) = probes[n % len(probes)]
        mode = reference.MODES[len(times["recognize"]) % 2]
        walls = []
        for traced in _variants(run):
            trace_file = run.work_dir / "child.trace.json"
            if op == "table":
                argv = table_argv + (["--trace", str(trace_file)] if traced else [])
            else:
                args = train_args if op == "train" else [
                    "recognize", "--gallery", str(gallery),
                    "--image", str(entry.image_path),
                    "--landmarks", str(entry.landmark_path), "--mode", CLI_MODES[mode]]
                argv = ([CHILD, "cli", str(trace_file), *args] if traced
                        else ["-m", "dtpca.cli", *args])
            wall, proc = run_child(argv, root)
            walls.append(wall)
            if op == "table":
                _check_table(run, proc, expected, len(sz.table_splits))
            elif op == "train":
                ok = _check_exit(run, proc, "train") and run.check(
                    gallery.is_file(), "train wrote no gallery")
                gallery_mb = gallery.stat().st_size / 1e6 if ok else gallery_mb
            elif _check_exit(run, proc, f"recognize {entry.image_path.name} {mode}"):
                best = (_last_json(proc.stdout) or {}).get("best", {}).get("subject")
                run.check(best in accepted[mode],
                          f"recognize {entry.image_path.name} {mode}: got {best}, "
                          f"reference {sorted(accepted[mode])}")
            if traced:
                _merge_trace(run, trace_file, request=f"{op}{n}")
            else:
                times[op].append(wall)
        if run.trace:
            pairs.append(walls)
        return sum(walls)

    # `dtpca train` writes the gallery the rest reads; then the table runs
    # once, for its figure, its check and its spans.  Both take seconds
    # and read steadily only over many runs, so they run before the timed
    # window rather than in it (README.md, "Steadiness").
    child_op(0, "train")
    child_op(1, "table")
    try:
        loaded = recognizer.load_gallery(gallery)
    except Exception as exc:  # no gallery to query: counted, and no window
        run.check(False, f"load_gallery: {type(exc).__name__}: {exc}")
        loaded = None

    # The timed window: bursts of in-process queries against that gallery,
    # the probes in turn, alternate with cold `dtpca recognize` calls, one
    # mode after the other, each probing with the next held-out image.  The
    # bursts fill most of the window and are spread over all of it, so its
    # best query comes from a quiet moment of the host wherever that fell.
    pacer = Pacer(run.seconds, min_ops=4)
    queries = 0
    for n, op in enumerate(itertools.cycle(("queries", "recognize")), start=2):
        if loaded is None or not pacer.more(op):
            break
        if op == "recognize":
            pacer.finished(child_op(n, op), op)
            continue
        end = min(time.perf_counter() + sz.query_burst_s, pacer.deadline)
        wall = 0.0
        while True:
            wall += _query(run, *loaded, probes[queries % len(probes)][1],
                           f"query{queries}", samples, pairs)
            queries += 1
            if time.perf_counter() >= end:
                break
        pacer.finished(wall, op)

    peak = max(peak_rss_mb(children=True), peak_rss_mb(children=False))
    e2e = _e2e(samples, setup_s, peak)
    recognizes = times["recognize"]
    named = {
        **_query_figures(samples),
        "table_s": (median(times["table"]), "s", len(times["table"])),
        "train_s": (median(times["train"]), "s", len(times["train"])),
        "recognize_cold_p50_s": (median(recognizes), "s", len(recognizes)),
        "gallery_mb": (gallery_mb, "MB", 1),
    }
    layers = {"trace.overhead_frac": _overhead(pairs),
              "recognizer.save_gallery.file_mb": gallery_mb}
    return e2e, named, layers


def _check_exit(run, proc, what) -> bool:
    """Count a failed child (time-out or non-zero exit); True if it exited 0."""
    if proc is not None and proc.returncode == 0:
        return True
    detail = ("timed out" if proc is None
              else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return run.check(False, f"{what}: {detail}")


def _check_table(run, proc, expected, splits):
    """Check each table cell's correct count against the reference."""
    out = None if proc is None or proc.returncode != 0 else _last_json(proc.stdout)
    if out is None:
        detail = "timed out" if proc is None else proc.stderr.strip()[-300:]
        for _ in expected:
            run.check(False, f"table child failed: {detail}")
        return
    got = {tuple(r[:4]): (r[4], r[5]) for r in out["rows"]}
    for key, (lo, hi) in expected.items():
        correct, total = got.get(key, (None, None))
        run.check(
            total == key[1] and correct is not None and lo <= correct <= hi,
            f"table cell {key}: got {correct}/{total}, reference {lo}..{hi}",
        )
    run.check(
        set(got) == set(expected)
        and len(out["report"].splitlines()) == 1 + splits,
        f"table shape: rows {sorted(got)}, report {out['report']!r}",
    )


# --------------------------------------------------------------- gallery_scan
def gallery_scan(run):
    sz = run.sizes

    def setup(rep):
        root = run.work_dir / f"scan{rep}"
        manifests = synthetic.make_dataset(
            root, sz.scan_subjects, sz.scan_variants, *sz.scan_dims,
            schemes=(sz.scan_scheme,), seed=run.seed,
        )
        with _traced(run, run.trace, "setup"):
            manifest = dataset_io.load_manifest(manifests[sz.scan_scheme])
            train, test = dataset_io.split_dataset(manifest, sz.scan_variants - 1)
            entries = train.entries + test.entries
            images = [dataset_io.load_image(e.image_path) for e in entries]
            lmks = [dataset_io.load_landmarks(e.landmark_path) for e in entries]
            n = len(train.entries)
            picks = np.unique(np.linspace(0, n - 1, min(sz.scan_fit_images, n)).round())
            model = eigenface.fit_eigenmodel([images[int(i)] for i in picks], sz.k)
            gallery = recognizer.build_gallery(model, [
                recognizer.TrainingRecord(
                    image=img, landmarks=lmk, subject_id=e.subject_id,
                    variant=e.variant, source_path=str(e.image_path))
                for e, img, lmk in zip(train.entries, images, lmks)
            ])
        matcher = reference.Matcher(model, images[:n], [e.subject_id for e in train.entries])
        ras = [reference.ra_avg(lmk) for lmk in lmks]
        probes = []
        for img, lmk, ra, q in zip(
            images[n:], lmks[n:], ras[n:], matcher.project(images[n:])
        ):
            accepted = {m: matcher.acceptable(q, m, ras[:n], ra) for m in reference.MODES}
            probes.append((img, lmk, accepted))
        return model, gallery, probes

    (model, gallery, probes), setup_s = timed_setups(
        setup, 1 if run.trace else sz.setup_reps)

    samples = {m: [] for m in reference.MODES}
    pairs = []
    pacer = Pacer(run.seconds)
    i = 0
    while pacer.more():
        pacer.finished(_query(run, gallery, model, probes[i % len(probes)],
                              f"query{i}", samples, pairs))
        i += 1

    e2e = _e2e(samples, setup_s, peak_rss_mb(children=False))
    named = {
        **_query_figures(samples),
        "gallery_entries": (len(probes) * (sz.scan_variants - 1), "count", 1),
    }
    return e2e, named, {"trace.overhead_frac": _overhead(pairs)}


WORKLOADS = {
    "paper_scale": paper_scale,
    "gallery_scan": gallery_scan,
}
