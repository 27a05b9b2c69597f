import pytest

from dtpca import synthetic


@pytest.fixture(scope="session")
def synth_dataset(tmp_path_factory):
    """Small deterministic dataset: 5 subjects x 4 variants, 68-pt landmarks."""
    root = tmp_path_factory.mktemp("synth")
    manifests = synthetic.make_dataset(
        root, subjects=5, variants=4, width=10, height=8, schemes=(68,), seed=7
    )
    return {"root": root, "manifest": manifests[68]}


@pytest.fixture(scope="session")
def scheme_manifests(tmp_path_factory):
    """4 subjects x 4 variants sharing one image set, with 8/9/12-point
    landmark schemes: the manifest paths in scheme order."""
    root = tmp_path_factory.mktemp("schemes")
    manifests = synthetic.make_dataset(
        root, subjects=4, variants=4, width=10, height=8, schemes=(8, 9, 12), seed=5
    )
    return [str(manifests[s]) for s in (8, 9, 12)]


@pytest.fixture
def write_pgm(tmp_path):
    """Write a P5 file from raw byte values; returns the path."""

    def _write(name, width, height, pixels, maxval=255, magic=b"P5"):
        raw = bytes(pixels)
        header = magic + f"\n{width} {height}\n{maxval}\n".encode()
        path = tmp_path / name
        path.write_bytes(header + raw)
        return path

    return _write


@pytest.fixture
def write_landmarks(tmp_path):
    def _write(name, points):
        path = tmp_path / name
        with open(path, "w") as fh:
            for x, y in points:
                fh.write(f"{x},{y}\n")
        return path

    return _write

