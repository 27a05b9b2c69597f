"""Deterministic synthetic dataset builder.

Generates a small face-like dataset for demos and tests: one grayscale PGM
per (subject, variant) built from a per-subject base pattern plus variant
noise, and landmark CSVs in one or more scheme sizes, with subject-shaped
point clouds.  Everything is seeded, so repeated builds are identical.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import dataset_io
from .dataset_io import DatasetManifest, ImageVector, ManifestEntry


def make_dataset(
    root,
    subjects: int = 15,
    variants: int = 9,
    width: int = 16,
    height: int = 12,
    schemes: tuple[int, ...] = (68, 79, 194),
    seed: int = 0,
) -> dict[int, Path]:
    """Write images, landmarks, and one manifest per scheme under `root`.

    Returns {scheme: manifest_path}.
    """
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    for scheme in schemes:
        (root / f"landmarks{scheme}").mkdir(exist_ok=True)

    entries: dict[int, list[ManifestEntry]] = {s: [] for s in schemes}
    for si in range(subjects):
        base_rng = np.random.default_rng(1_000_003 * (seed + 1) + si)
        base = base_rng.uniform(0.25, 0.75, size=width * height)
        for vi in range(variants):
            rng = np.random.default_rng(((seed + 1) * 1000 + si) * 1000 + vi)
            values = np.clip(base + rng.normal(0.0, 0.06, size=base.size), 0.0, 1.0)
            pixels = np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)
            name = f"s{si + 1:02d}_v{vi + 1}"
            img_path = root / "images" / f"{name}.pgm"
            dataset_io.save_image(
                ImageVector(width=width, height=height, values=pixels), img_path
            )
            for scheme in schemes:
                pts = _landmark_cloud(si, vi, scheme, seed)
                lmk_path = root / f"landmarks{scheme}" / f"{name}.csv"
                with open(lmk_path, "w") as fh:
                    for x, y in pts:
                        fh.write(f"{float(x)!r},{float(y)!r}\n")
                entries[scheme].append(
                    ManifestEntry(
                        image_path=img_path,
                        subject_id=f"s{si + 1:02d}",
                        variant=f"v{vi + 1}",
                        landmark_path=lmk_path,
                    )
                )

    manifests = {}
    for scheme in schemes:
        path = root / f"manifest_{scheme}.csv"
        dataset_io.save_manifest(DatasetManifest(entries=tuple(entries[scheme])), path)
        manifests[scheme] = path
    return manifests


def _landmark_cloud(si: int, vi: int, scheme: int, seed: int) -> np.ndarray:
    """Subject-shaped elliptical point cloud with small per-variant jitter."""
    base_rng = np.random.default_rng(((seed + 1) * 1000 + si) * 7919 + scheme)
    angles = base_rng.uniform(0, 2 * np.pi, size=scheme)
    radii = np.sqrt(base_rng.uniform(0.05, 1.0, size=scheme))
    ax = 50.0 + 4.0 * si
    ay = 70.0 - 2.0 * si
    jitter_rng = np.random.default_rng((((seed + 1) * 1000 + si) * 1000 + vi) * 104729 + scheme)
    x = 100.0 + ax * radii * np.cos(angles) + jitter_rng.normal(0, 0.4, size=scheme)
    y = 110.0 + ay * radii * np.sin(angles) + jitter_rng.normal(0, 0.4, size=scheme)
    return np.column_stack([x, y])
