"""Shared plumbing: run context, statistics, child processes, environment."""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 120


class Run:
    """State of one benchmark run: settings, failure accounting, tracer."""

    def __init__(self, workload, seed, seconds, trace, sizes, work_dir, tracer=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.work_dir = Path(work_dir)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values, q=0.9):
    """The q-quantile, or None unless at least ten samples lie beyond it."""
    if len(values) * (1 - q) < 10:
        return None
    return float(np.quantile(values, q))


class Pacer:
    """Closed-loop pacing for one client.

    The next operation starts only when it is expected, from the last one
    of its kind, to end by the deadline, so a run of slow operations does
    not overshoot the measured window; at least `min_ops` always run.
    """

    def __init__(self, seconds, min_ops=1):
        self.deadline = time.perf_counter() + seconds
        self.min_ops = min_ops
        self.done = 0
        self.last = {}

    def more(self, kind=None) -> bool:
        if self.done < self.min_ops:
            return True
        return time.perf_counter() + self.last.get(kind, 0.0) <= self.deadline

    def finished(self, seconds, kind=None):
        self.done += 1
        self.last[kind] = seconds


def timed_setups(setup, reps):
    """Run setup() `reps` times; return the last state and the median time."""
    times, state = [], None
    for rep in range(reps):
        state = None  # let the previous set-up's memory go first
        start = time.perf_counter()
        state = setup(rep)
        times.append(time.perf_counter() - start)
    return state, median(times)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(argv, cwd) -> tuple[float, subprocess.CompletedProcess | None]:
    """Run a Python child to completion; return (wall seconds, result).

    The result is None when the child timed out (it is killed and reaped).
    """
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=cwd, env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None
    return time.perf_counter() - start, proc


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def calibrate() -> dict[str, float]:
    """Fixed numpy work, timed, so drift of the machine itself shows."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    start = time.perf_counter()
    for _ in range(40):
        a = a @ a
        a /= np.linalg.norm(a)
    mid = time.perf_counter()
    v = rng.standard_normal((2000, 25))
    q = v[0]
    for row in v:
        np.linalg.norm(row - q)
    end = time.perf_counter()
    return {"matmul_ms": (mid - start) * 1e3, "small_ops_ms": (end - mid) * 1e3}


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(run: Run) -> dict:
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }
