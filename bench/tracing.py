"""Spans around the public functions of the dtpca modules, recorded from outside.

A Tracer patches module attributes (``dtpca.geometry.delaunay`` and so on)
with timing wrappers while it is active and restores the originals when it
leaves.  The package calls its own layers through module attributes
(``geometry.delaunay(...)``, ``eigenface.project(...)``), so the wrappers
see those inner calls too.  Nothing under ``src/`` is modified.

Each span is ``(id, parent, name, start, end, request, tag, ok)``.  Spans
stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np


def _points_key(args, kwargs):
    pts = np.asarray(getattr(args[0], "points", args[0]), dtype=float)
    return len(pts), hashlib.blake2b(pts.tobytes(), digest_size=12).hexdigest()


def _fit_key(args, kwargs):
    images, k = args[0], args[1] if len(args) > 1 else kwargs.get("k")
    h = hashlib.blake2b(digest_size=12)
    for img in images:
        # A strided sample is enough to tell the synthetic images apart.
        h.update(np.asarray(getattr(img, "values", img))[::97].tobytes())
    return k, h.hexdigest()


def _path_key(args, kwargs):
    return str(args[0])


def _mode_tag(tracer, args, kwargs):
    return kwargs.get("mode", args[4] if len(args) > 4 else "dt_pca")


def _scheme_tag(tracer, args, kwargs):
    return str(len(getattr(args[0], "points", args[0])))


def _fit_tag(tracer, args, kwargs):
    # The first fit in a process pays first-touch page faults on its
    # large temporaries; later fits reuse the memory.
    tracer.fits += 1
    return "first" if tracer.fits == 1 else "warm"


# (module, function, tag function, distinct-input key function).
# A tag splits the per-layer statistics; a key counts distinct inputs.
SPANNED = (
    ("dataset_io", "load_image", None, _path_key),
    ("dataset_io", "load_landmarks", None, _path_key),
    ("geometry", "delaunay", _scheme_tag, _points_key),
    ("eigenface", "fit_eigenmodel", _fit_tag, _fit_key),
    ("eigenface", "project", None, None),
    ("recognizer", "build_gallery", None, None),
    ("recognizer", "recognize", _mode_tag, None),
    ("recognizer", "save_gallery", None, None),
    ("recognizer", "load_gallery", None, None),
    ("evalharness", "run_experiment", None, None),
)

# Called once per gallery entry per query: counted, never timed, so the
# count costs little and its time stays in the caller's self time.
COUNTED = (("eigenface", "eigen_distance"),)

# Spans the benchmark opens itself around whole CLI invocations.
CLI_SPANS = ("cli.train", "cli.recognize")

DELAUNAY_SCHEMES = ("68", "79", "194")
MODES = ("pca_only", "dt_pca")
DISTINCT = ("dataset_io.load_image", "geometry.delaunay", "eigenface.fit_eigenmodel")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.keys = {}
        self.request = None
        self.fits = 0
        self._stack = []
        self._next_id = 0
        self._patched = []

    # -- recording -----------------------------------------------------
    def _record(self, name, tag, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self.request, tag, ok))

    def add(self, name, start, end):
        """Record a finished top-level span timed by the caller."""
        self.spans.append((self._next_id, None, name, start, end, self.request, None, True))
        self._next_id += 1

    def call(self, name, fn, *args, tag=None, **kwargs):
        """Run fn inside a span the benchmark opens itself."""
        return self._record(name, tag, fn, args, kwargs)

    def _spanning(self, name, fn, tag_fn, key_fn):
        def wrapper(*args, **kwargs):
            if key_fn is not None:
                self.keys.setdefault(name, []).append(key_fn(args, kwargs))
            tag = tag_fn(self, args, kwargs) if tag_fn is not None else None
            return self._record(name, tag, fn, args, kwargs)

        return wrapper

    def _counting(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------
    def _patch(self, module_name, attr, wrapper_factory):
        module = importlib.import_module(f"dtpca.{module_name}")
        original = getattr(module, attr, None)
        if original is None:  # the layer was removed; its metrics read 0
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper_factory(f"{module_name}.{attr}", original))

    @contextmanager
    def active(self):
        """Wrap every listed function for the duration of the block."""
        for module_name, attr, tag_fn, key_fn in SPANNED:
            self._patch(
                module_name, attr,
                lambda name, fn, t=tag_fn, k=key_fn: self._spanning(name, fn, t, k),
            )
        for module_name, attr in COUNTED:
            self._patch(module_name, attr, self._counting)
        try:
            yield self
        finally:
            while self._patched:
                module, attr, original = self._patched.pop()
                setattr(module, attr, original)

    # -- persistence ---------------------------------------------------
    def dump(self, path):
        """Write spans, counts and distinct-input keys as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "counts": self.counts,
                 "keys": {k: [list(x) if isinstance(x, tuple) else x for x in v]
                          for k, v in self.keys.items()}},
                fh,
            )

    def merge_file(self, path, request=None):
        """Fold a child process's trace into this one, renumbering span ids."""
        with open(path) as fh:
            data = json.load(fh)
        base = self._next_id
        top = max((s[0] for s in data["spans"]), default=-1) + 1
        for sid, parent, name, start, end, req, tag, ok in data["spans"]:
            self.spans.append((
                base + sid, None if parent is None else base + parent, name,
                start, end, request if request is not None else req, tag, ok,
            ))
        self._next_id = base + top
        for name, n in data["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + n
        for name, keys in data["keys"].items():
            self.keys.setdefault(name, []).extend(
                tuple(k) if isinstance(k, list) else k for k in keys
            )


def _child_time(spans):
    """Per span id, the summed duration of its direct children."""
    child_time = {}
    for sid, parent, name, start, end, *_ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return child_time


def _stats(rows, child_time):
    durs = [end - start for _, _, _, start, end, *_ in rows]
    return {
        "calls": len(rows),
        "total_s": sum(durs),
        "self_s": sum(d - child_time.get(r[0], 0.0) for d, r in zip(durs, rows)),
        "p50_ms": statistics.median(durs) * 1e3 if durs else 0.0,
        "failed": sum(1 for r in rows if not r[7]),
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer statistics named ``<module>.<function>.<stat>``."""
    child_time = _child_time(tracer.spans)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    out = {}
    names = [f"{m}.{f}" for m, f, _, _ in SPANNED] + list(CLI_SPANS)
    for name in names:
        for stat, value in _stats(by_name.get(name, []), child_time).items():
            out[f"{name}.{stat}"] = value

    for m, f in COUNTED:
        out[f"{m}.{f}.calls"] = tracer.counts.get(f"{m}.{f}", 0)

    delaunay = by_name.get("geometry.delaunay", [])
    for scheme in DELAUNAY_SCHEMES:
        rows = [s for s in delaunay if s[6] == scheme]
        out[f"geometry.delaunay.{scheme}.p50_ms"] = _stats(rows, child_time)["p50_ms"]

    recognize = by_name.get("recognizer.recognize", [])
    for mode in MODES:
        st = _stats([s for s in recognize if s[6] == mode], child_time)
        for stat in ("calls", "self_s", "p50_ms"):
            out[f"recognizer.recognize.{mode}.{stat}"] = st[stat]

    fits = by_name.get("eigenface.fit_eigenmodel", [])
    for tag, stat in (("first", "first_s"), ("warm", "warm_p50_s")):
        rows = [s for s in fits if s[6] == tag]
        out[f"eigenface.fit_eigenmodel.{stat}"] = _stats(rows, child_time)["p50_ms"] / 1e3

    for name in DISTINCT:
        keys = tracer.keys.get(name, [])
        out[f"{name}.distinct_frac"] = len(set(keys)) / len(keys) if keys else 0.0

    out["cli.import_s"] = _stats(by_name.get("cli.import", []), child_time)["p50_ms"] / 1e3
    return out
