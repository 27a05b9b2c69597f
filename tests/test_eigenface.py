import functools
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dtpca
import oracles
from dtpca import cli, synthetic
from dtpca.dataset_io import ImageVector, load_image, load_manifest
from dtpca.eigenface import (
    EigenModel,
    ImageSizeError,
    ZeroVarianceError,
    _lift_stops,
    _mean_and_gram,
    centered,
    fit_eigenmodel,
    project,
)
from dtpca.recognizer import (
    GalleryFormatError,
    TrainingRecord,
    build_gallery,
    load_gallery,
    save_gallery,
)
from test_recognizer import edit_gallery, fan_landmarks, gallery_records


def image(pixels, width=None, height=1):
    """A width x height ImageVector of uint8 pixels; a row of len(pixels)
    pixels by default."""
    return ImageVector(width or len(pixels), height, np.asarray(pixels, dtype=np.uint8))


def random_images(seed, n, d):
    rng = np.random.default_rng(seed)
    return [image(rng.integers(0, 256, size=d, dtype=np.uint8)) for _ in range(n)]


TOY_IMAGES = [image([0, 0]), image([255, 0]), image([0, 255])]


def toy_model(k=2):
    return fit_eigenmodel(TOY_IMAGES, k=k)


# --- mean / centering ---------------------------------------------------------

def test_mean_image_pair():
    assert oracles.mean_image([np.array([0.0, 1.0]), np.array([1.0, 0.0])]).tolist() == [0.5, 0.5]


def test_mean_image_singleton():
    assert oracles.mean_image([np.array([0.2, 0.2])]).tolist() == [0.2, 0.2]


def test_mean_image_three():
    m = oracles.mean_image(TOY_IMAGES)
    assert np.allclose(m, [1 / 3, 1 / 3])


def test_mean_image_empty():
    with pytest.raises(ValueError):
        oracles.mean_image([])


def test_mean_image_dim_mismatch():
    with pytest.raises(ValueError):
        oracles.mean_image([np.zeros(2), np.zeros(3)])


def test_center_images_rows():
    rows = oracles.center_images(
        [np.array([0.0, 1.0]), np.array([1.0, 0.0])], np.array([0.5, 0.5])
    )
    assert rows.tolist() == [[-0.5, 0.5], [0.5, -0.5]]


def test_center_images_identity_case():
    rows = oracles.center_images([np.array([0.3, 0.7])], np.array([0.3, 0.7]))
    assert rows.tolist() == [[0.0, 0.0]]


def test_center_images_three():
    rows = oracles.center_images(TOY_IMAGES, np.array([1 / 3, 1 / 3]))
    assert np.allclose(rows, [[-1 / 3, -1 / 3], [2 / 3, -1 / 3], [-1 / 3, 2 / 3]])


def test_center_images_dim_mismatch():
    with pytest.raises(ValueError):
        oracles.center_images(TOY_IMAGES, np.zeros(3))


# --- fit_eigenmodel -------------------------------------------------------------

def test_toy_model_eigenvalues_and_vectors():
    # Scatter eigenvalues are {1, 1/3}; with the 1/(n-1) = 1/2 scaling the
    # model stores {1/2, 1/6}.  Eigenvectors are (1,-1)/sqrt2 then
    # (1,1)/sqrt2 up to the sign canonicalization.
    m = toy_model()
    assert m.k == 2
    assert np.allclose(m.eigenvalues, [0.5, 1 / 6])
    r2 = 1 / math.sqrt(2)
    assert abs(abs(np.dot(m.eigenvectors[0], [r2, -r2])) - 1) < 1e-12
    assert abs(abs(np.dot(m.eigenvectors[1], [r2, r2])) - 1) < 1e-12
    for row in m.eigenvectors:
        assert row[np.argmax(np.abs(row))] > 0  # canonical sign rule


def test_toy_model_projection_of_origin():
    m = toy_model()
    coords = project(m, image([0, 0]))
    assert coords[0] == pytest.approx(0.0, abs=1e-12)
    assert coords[1] == pytest.approx(-math.sqrt(2) / 3, abs=1e-12)


def test_zero_variance_identical_images():
    with pytest.raises(ZeroVarianceError):
        fit_eigenmodel([image(np.full(4, 26)) for _ in range(5)], k=3)


@pytest.mark.parametrize("width,height", [(1, 1), (80, 60), (320, 243)])
def test_zero_variance_is_exact_at_every_size(width, height):
    # Identical images give a centered Gram of exactly zero, whatever the
    # pixel count, so no tolerance decides it.
    pixels = np.random.default_rng(width).integers(0, 256, size=width * height, dtype=np.uint8)
    with pytest.raises(ZeroVarianceError):
        fit_eigenmodel([image(pixels, width, height) for _ in range(3)], k=2)


def test_one_level_in_one_pixel_is_one_component():
    # The two images' centered rows are -+1/510 in one pixel, so the one
    # scatter eigenvalue is 2 / 510**2 = 1 / (2 * 255**2), over n - 1 = 1.
    pixels = np.random.default_rng(52).integers(0, 255, size=80 * 60, dtype=np.uint8)
    brighter = pixels.copy()
    brighter[1234] += 1
    m = fit_eigenmodel([image(pixels, 80, 60), image(brighter, 80, 60)], k=5)
    assert m.k == 1
    assert m.eigenvalues[0] == pytest.approx(1 / (2 * 255**2), rel=1e-12)


def zero_stride_images(n, d):
    """n images of d zero pixels that share one byte, so that none of them
    allocates its d pixels."""
    return [ImageVector(d, 1, np.broadcast_to(np.uint8(0), (d,)))] * n


@pytest.mark.parametrize(
    "n,d",
    [(2, -(-2**53 // 255**2)), (5816, 2**20)],
    ids=["d-bound", "n-bound"],
)
def test_fit_refuses_a_shape_whose_gram_sums_are_not_exact(n, d):
    # d * 255**2 reaches 2**53 in the first, and 4 * n**2 * d * 255**2
    # reaches 2**63 in the second; the bound is checked before the fit's
    # buffer is allocated, so neither allocates its pixels or a panel.
    assert d * 255**2 >= 2**53 or 4 * n**2 * d * 255**2 >= 2**63
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"below 2\*\*53 and .* below 2\*\*63"):
            fit_eigenmodel(zero_stride_images(n, d), k=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20



def test_fit_requires_two_images():
    with pytest.raises(ValueError):
        fit_eigenmodel([image(np.zeros(4))], k=1)


def test_fit_rejects_bad_k():
    with pytest.raises(ValueError):
        fit_eigenmodel(TOY_IMAGES, k=0)


@pytest.mark.parametrize("k", [True, np.True_, 2.5, "2", None], ids=repr)
def test_fit_rejects_k_that_is_not_an_integer(k):
    # True used to fit with k == True, a gallery load_gallery then refused;
    # 2.5 failed in slicing with a TypeError.
    with pytest.raises(ValueError, match="k must be an integer"):
        fit_eigenmodel(TOY_IMAGES, k=k)


def test_numpy_integer_k_gives_python_ints_and_a_gallery_that_reloads(tmp_path):
    # An np.int64 k used to reach the gallery header, which json could not
    # encode.
    imgs = random_images(8, 5, 9)
    for k, kept in ((np.int64(3), 3), (np.int32(25), 4)):
        m = fit_eigenmodel(imgs, k=k)
        assert (type(m.k), type(m.requested_k)) == (int, int)
        assert (m.k, m.requested_k) == (kept, int(k))
        save_model_gallery(tmp_path / "gallery.bin", m, imgs)
        _, back = load_gallery(tmp_path / "gallery.bin")
        assert (back.k, back.requested_k) == (kept, int(k))
        assert back.eigenvectors.tobytes() == m.eigenvectors.tobytes()


def test_fit_dim_mismatch():
    # A 1x2 image has the pixel count of a 2x1 one, but not its size.
    for other in (image(np.zeros(3)), image(np.zeros(2), 1, 2)):
        with pytest.raises(ValueError, match="mismatched dimensions"):
            fit_eigenmodel([image(np.zeros(2)), other], k=1)


def test_k_clamped_to_rank():
    m = fit_eigenmodel(random_images(11, 10, 16), k=25)
    assert m.k == 9  # rank <= n - 1
    assert m.requested_k == 25
    assert m.clamped


def test_rank_bound_nonzero_eigenvalues():
    m = fit_eigenmodel(random_images(12, 4, 6), k=10)
    assert m.k <= 3
    assert np.all(m.eigenvalues > 0)
    assert np.all(np.diff(m.eigenvalues) <= 0)


def test_fit_peak_memory_below_two_image_matrices():
    # One block spans all 3,072 columns, so the fit's one buffer holds the
    # k x d eigenvectors and one n x d panel, and their norm needs no second
    # k x d array (1.36 n*d*8; a fit that had one measured 1.56).
    n, d = 40, 64 * 48
    imgs = random_images(40, n, d)
    tracemalloc.start()
    try:
        fit_eigenmodel(imgs, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.45 * n * d * 8


def test_fit_peak_memory_below_two_image_matrices_from_uint8():
    # Pixels go straight into the fit's panel, so images that are read-only
    # views of one file's bytes, as load_image gives, cost the fit no float
    # copy of their own.
    n, d = 40, 64 * 48
    data = np.random.default_rng(40).bytes(n * d)
    imgs = [image(np.frombuffer(data, np.uint8, d, i * d)) for i in range(n)]
    tracemalloc.start()
    try:
        fit_eigenmodel(imgs, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.45 * n * d * 8


def test_fit_peak_memory_of_a_blocked_lift():
    # 19,200 columns lift in blocks of 2,048, the last one 2,816 wide, so
    # the fit streams them through one n x 2,816 panel beside the k x d
    # eigenvectors (0.81 n*d*8).
    n, d = 40, 160 * 120
    imgs = random_images(45, n, d)
    tracemalloc.start()
    try:
        fit_eigenmodel(imgs, k=25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * n * d * 8


def test_fit_peak_memory_of_a_streamed_fit_is_below_half_the_image_matrix():
    # With k much smaller than n, the fit holds no n x d matrix: the k x d
    # eigenvectors, the mean and one n x 3,136 panel (0.27 n*d*8; a fit
    # that stacks the images needs about n*d*8).
    n, d = 60, 200 * 200
    rng = np.random.default_rng(47)
    imgs = [image(rng.integers(0, 256, size=d, dtype=np.uint8)) for _ in range(n)]
    tracemalloc.start()
    try:
        fit_eigenmodel(imgs, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * d * 8


def test_fit_peak_memory_of_a_multi_block_lift():
    # 12,288 columns lift in six 2,048-column blocks for 30 of 40 images:
    # the k x d eigenvectors and one n x 2,048 panel (0.97 n*d*8; a lift
    # into the stacked images, with a k x 4,096 product beside them, 1.28).
    n, d = 40, 128 * 96
    imgs = random_images(48, n, d)
    tracemalloc.start()
    try:
        fit_eigenmodel(imgs, k=30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * n * d * 8


def gallery_scan_images():
    """450 uint8 images of 80 x 60 pixels, the shape of gallery_scan's fit."""
    rng = np.random.default_rng(50)
    return [image(rng.integers(0, 256, size=80 * 60, dtype=np.uint8)) for _ in range(450)]


def test_fit_peak_memory_at_the_gallery_scan_shape():
    # gallery_scan's 450 images of 80 x 60 lift in blocks of 2,048, 2,048
    # and 704 columns, so the panel is n x 2,048 and not the whole n x d
    # image matrix beside the k x d eigenvectors.  The panel is given back
    # before eigh and only the kept Gram eigenvectors are reordered, so the
    # peak is the lift's (0.68 n*d*8; a panel held through eigh and an
    # n x n reorder, 0.77; a panel of every column, 1.34).
    imgs = gallery_scan_images()
    n, d = len(imgs), imgs[0].width
    tracemalloc.start()
    try:
        fit_eigenmodel(imgs, k=25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.72 * n * d * 8


def test_fit_releases_the_panel_before_the_eigendecomposition(monkeypatch):
    # When eigh is entered, the fit holds the unwritten k x d eigenvectors,
    # the n x n Gram and the mean (2.62 MB), and not the n x 2,048 panel
    # behind them too (9.99 MB).
    imgs = gallery_scan_images()
    n, d, k = len(imgs), imgs[0].width, 25
    real_eigh, traced = np.linalg.eigh, []

    def eigh(a):
        traced.append(tracemalloc.get_traced_memory()[0])
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    tracemalloc.start()
    try:
        fit_eigenmodel(imgs, k=k)
    finally:
        tracemalloc.stop()
    assert len(traced) == 1
    assert traced[0] < 1.1 * (k * d + n * n + d) * 8


@pytest.mark.parametrize(
    "n,d,kept,widths",
    [
        (450, 4800, 25, [2048, 2048, 704]),
        (135, 77760, 25, [2048] * 37 + [1984]),
        # 57 columns x 25 x 45 are too few multiply-adds for a product of
        # their own, so they join the last block.
        (45, 4153, 25, [2048, 2105]),
        (450, 4800, 1, [4800]),
        (450, 1000, 25, [1000]),
    ],
)
def test_lift_block_widths(n, d, kept, widths):
    stops = _lift_stops(n, d, kept)
    assert [b - a for a, b in zip([0, *stops], stops)] == widths


@pytest.mark.parametrize("width", [1, 7, 384, 2048, None], ids=lambda w: str(w or "d"))
def test_mean_and_gram_are_the_exact_oracle_bytes(width):
    # The first pass sums the raw pixels in panels of any width, None being
    # all 4,153 columns, and gives the exact mean and Gram rounded once.
    # Images of all-0 and all-255 pixels give the largest sums.
    n, d = 20, 4153
    imgs = random_images(53, n - 2, d) + [image(np.zeros(d)), image(np.full(d, 255))]
    mean, gram = _mean_and_gram(imgs, np.empty((n, width or d)))
    exact_mean, exact_gram = oracles.exact_mean_and_gram(imgs)
    assert mean.tobytes() == exact_mean.tobytes()
    assert gram.tobytes() == exact_gram.tobytes()


# OpenBLAS picks its kernel by the CPU unless OPENBLAS_CORETYPE names one;
# a kernel needs its instruction set, and one the CPU lacks would fault.
BLAS_KERNEL_FLAGS = {"SkylakeX": "avx512f", "Haswell": "avx2", "Zen": "avx2", "SandyBridge": "avx"}


# numpy's OpenBLAS names the core whose kernel it loaded; run in a fresh
# interpreter, this prints it for the OPENBLAS_CORETYPE of its environment.
CORE_NAME = """
import ctypes, numpy
libs = {line.split()[-1] for line in open('/proc/self/maps')
        if 'openblas' in line.rsplit('/', 1)[-1]}
for lib in sorted(libs):
    for name in ('scipy_openblas_get_corename64_', 'openblas_get_corename64_',
                 'openblas_get_corename'):
        corename = getattr(ctypes.CDLL(lib), name, None)
        if corename:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            print(corename().decode())
            raise SystemExit
"""


def blas_core_name(kernel):
    """The core name OpenBLAS reports with OPENBLAS_CORETYPE=kernel, or
    kernel itself where that cannot be read."""
    proc = subprocess.run([sys.executable, "-c", CORE_NAME], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_CORETYPE": kernel}, timeout=60)
    return proc.returncode == 0 and proc.stdout.strip() or kernel


@functools.cache
def runnable_blas_kernels():
    """The OpenBLAS kernels that the CPU's /proc/cpuinfo flags allow, the
    first of each core name OpenBLAS reports for them (Zen may load
    Haswell's kernel), or [None], the kernel OpenBLAS picks itself, where
    the flags are unknown."""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = set(re.search(r"^flags\s*:(.*)$", fh.read(), re.M).group(1).split())
    except (OSError, AttributeError):
        flags = set()
    kernels = {}
    for kernel, flag in BLAS_KERNEL_FLAGS.items():
        if flag in flags:
            kernels.setdefault(blas_core_name(kernel), kernel)
    return list(kernels.values()) or [None]


def mismatches_at_blas_threads(threads, name, kernel=None):
    """What test_eigenface.<name>() prints in a fresh interpreter whose BLAS
    runs `threads` threads on the OpenBLAS kernel named, or the one OpenBLAS
    picks for None.  Both are read when OpenBLAS loads, so each needs its
    own interpreter."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(dtpca.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))}
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    proc = subprocess.run(
        [sys.executable, "-c", f"import test_eigenface; print(test_eigenface.{name}())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def mismatches_per_blas_kernel(threads, name):
    """{kernel: what <name>() prints} at `threads` BLAS threads, on every
    OpenBLAS kernel the CPU can run."""
    return {kernel: mismatches_at_blas_threads(threads, name, kernel)
            for kernel in runnable_blas_kernels()}


def mean_and_gram_digests():
    """The sha256 of the first pass's mean and Gram bytes at gallery_scan's
    fit, the paper's 135 images of 320 x 243 and 45 images of 20,000."""
    digests = []
    for n, d in ((450, 4800), (135, 77760), (45, 20000)):
        imgs = random_images(n * 100_000 + d, n, d)
        mean, gram = _mean_and_gram(imgs, np.empty((n, 2048)))
        digests.append(hashlib.sha256(mean.tobytes() + gram.tobytes()).hexdigest()[:16])
    return digests


def test_mean_and_gram_bytes_are_the_same_on_every_blas_kernel_and_thread_count():
    runs = {threads: mismatches_per_blas_kernel(threads, "mean_and_gram_digests")
            for threads in ("1", "2")}
    assert len({digests for run in runs.values() for digests in run.values()}) == 1, runs


def gram_chunk_mismatches():
    """The (n, d) shapes of gallery_scan's fit, and of the paper's 320 x 243
    images, at which the first pass in 2,048-column panels gives other mean
    or Gram bytes than one panel of all d columns."""
    mismatches = []
    for n, d in ((450, 4800), (45, 77760)):
        imgs = random_images(n * 100_000 + d, n, d)
        chunked = _mean_and_gram(imgs, np.empty((n, 2048)))
        whole = _mean_and_gram(imgs, np.empty((n, d)))
        if any(a.tobytes() != b.tobytes() for a, b in zip(chunked, whole)):
            mismatches.append((n, d))
    return mismatches


@pytest.mark.parametrize("threads", ["1", "2"])
def test_chunked_gram_gives_the_one_product_bytes_per_blas_thread_count(threads):
    runs = mismatches_per_blas_kernel(threads, "gram_chunk_mismatches")
    assert runs == dict.fromkeys(runs, "[]")


# (n, d, k): gallery_scan's fit, whose 704-column remainder is a lift block
# of its own, two lifts of several blocks with k close to n, and the
# paper's 320 x 243 images.
LIFT_SHAPES = ((450, 4800, 25), (40, 12288, 30), (45, 20000, 44), (45, 77760, 25))


def lift_mismatches(shapes=LIFT_SHAPES):
    """The shapes at which the fit's eigenvectors differ from those of one
    product over all columns."""
    mismatches = []
    for n, d, k in shapes:
        imgs = random_images(n * 100_000 + d, n, d)
        got = fit_eigenmodel(imgs, k=k).eigenvectors
        if got.tobytes() != oracles.one_product_eigenvectors(imgs, k).tobytes():
            mismatches.append((n, d, k))
    return mismatches


@pytest.mark.parametrize("threads", ["1", "2"])
def test_lift_gives_the_one_product_bytes_per_blas_thread_count(threads):
    runs = mismatches_per_blas_kernel(threads, "lift_mismatches")
    assert runs == dict.fromkeys(runs, "[]")


def regrown_lift_mismatches():
    """What differs from one product's bytes, or from the layout a gallery
    file stores, in a fit at k = 30 of 40 images of 12,288 pixels, 8 copies
    each of 5.  Their rank is 4, and the lift of 4 kept rows runs in one
    12,288-column block, wider than the 2,048 that 30 rows would take, so
    the fit grows its buffer past its first size to lift."""
    rng = np.random.default_rng(51)
    distinct = [rng.integers(0, 256, size=128 * 96, dtype=np.uint8) for _ in range(5)]
    imgs = [image(distinct[i % 5].copy()) for i in range(40)]
    m = fit_eigenmodel(imgs, k=30)
    flags = m.eigenvectors.flags
    mismatches = [] if m.k == 4 else ["k"]
    if m.eigenvectors.tobytes() != oracles.one_product_eigenvectors(imgs, m.k).tobytes():
        mismatches.append("bytes")
    if not (flags.c_contiguous and flags.owndata):
        mismatches.append("layout")
    return mismatches


@pytest.mark.parametrize("threads", ["1", "2"])
def test_regrown_lift_gives_the_one_product_bytes_per_blas_thread_count(threads):
    n, d = 40, 128 * 96
    assert _lift_stops(n, d, 30)[0] == 2048 and _lift_stops(n, d, 4) == [d]
    runs = mismatches_per_blas_kernel(threads, "regrown_lift_mismatches")
    assert runs == dict.fromkeys(runs, "[]")


def dot_projection_mismatches():
    """The (k, d, view) cases where project, which multiplies with
    ndarray.dot, differs from `eigenvectors @ centered`.  view marks
    read-only frombuffer views, the arrays load_gallery gives."""
    rng = np.random.default_rng(29)
    mismatches = []
    for k in (1, 2, 7, 25, 30):
        for width, height in ((3, 1), (10, 8), (80, 60), (320, 243), (400, 250)):
            d = width * height
            mean, vecs = rng.uniform(0, 1, d), rng.standard_normal((k, d))
            img = image(rng.integers(0, 256, size=d, dtype=np.uint8), width, height)
            for view in (False, True):
                if view:
                    mean = np.frombuffer(mean.tobytes(), "<f8")
                    vecs = np.frombuffer(vecs.tobytes(), "<f8").reshape(k, d)
                model = EigenModel(width, height, mean, vecs, np.ones(k), k, k)
                if project(model, img).tobytes() != (vecs @ centered(model, img)).tobytes():
                    mismatches.append((k, d, view))
    return mismatches


@pytest.mark.parametrize("threads", ["1", "2"])
def test_dot_projection_gives_the_matmul_bytes_per_blas_thread_count(threads):
    runs = mismatches_per_blas_kernel(threads, "dot_projection_mismatches")
    assert runs == dict.fromkeys(runs, "[]")


@pytest.mark.parametrize("d", [4095, 4996, 5096, 8191, 8192, 8193, 12345, 20000])
@pytest.mark.parametrize("n", [2, 3, 16, 45])
def test_blocked_lift_gives_the_one_product_bytes(n, d):
    # For 45 images the blocks are 2,048 columns wide but the last: the 900-
    # and 1,000-column remainders of 4,996 and 5,096 are blocks of their own
    # for 44 kept and join the last block for 22.  With
    # 16 images and 8 or 15 kept, 2,048 columns are at most 10**6
    # multiply-adds, so the blocks are 8,192 or 6,144 wide.
    imgs = random_images(n * 100_000 + d, n, d)
    for kept in sorted({1, n // 2, n - 1}):
        m = fit_eigenmodel(imgs, k=kept)
        assert m.k == kept
        assert m.eigenvectors.shape == (kept, d)
        assert m.eigenvectors.tobytes() == oracles.one_product_eigenvectors(imgs, kept).tobytes()
        # Every fit shrinks its one buffer in place to the eigenvectors, so
        # they own their data and are not a view of a larger array.
        assert m.eigenvectors.flags.c_contiguous and m.eigenvectors.flags.owndata


def test_train_gallery_of_a_three_block_lift_is_pinned(tmp_path, monkeypatch):
    # 15 subjects x 3 variants at 128x96 give d = 12,288, which the lift
    # takes in three blocks.  The digest pins what no BLAS kernel changes:
    # the header, which names the images relative to the working
    # directory, the exact mean and ra_avg.  eigh rounds per kernel, so the
    # eigenvectors are checked against the one-product lift and the coords
    # against per-image projections, in the process that trained.
    manifest = synthetic.make_dataset(
        tmp_path, subjects=15, variants=3, width=128, height=96, schemes=(68,), seed=0
    )[68]
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--manifest", "manifest_68.csv", "--k", "25",
                     "--out", "gallery.bin"]) == 0
    header_line = (tmp_path / "gallery.bin").read_bytes().split(b"\n", 1)[0]
    _, arrays = gallery_records(tmp_path / "gallery.bin")
    digest = hashlib.sha256(header_line + arrays["mean"].tobytes() + arrays["ra_avg"].tobytes())
    assert digest.hexdigest() == (
        "89fa814a51f46b3019ab5c3b80346421c9b13e29a35ce302ee26944eb9242949"
    )
    imgs = [load_image(e.image_path) for e in load_manifest(manifest).entries]
    assert arrays["eigenvectors"].tobytes() == oracles.one_product_eigenvectors(imgs, 25).tobytes()
    _, model = load_gallery(tmp_path / "gallery.bin")
    assert arrays["coords"].tobytes() == np.array([project(model, img) for img in imgs]).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_image_fails_before_fit_or_project(bad):
    # A NaN pixel used to fail in the fit's eigensolver, and an inf one
    # projected to infinite coordinates without an error.  Pixels are uint8,
    # so no float array, finite or not, becomes an image.
    with pytest.raises(ValueError, match="dtype uint8"):
        ImageVector(3, 1, np.array([0.5, bad, 0.25]))


@pytest.mark.parametrize("view", [False, True], ids=["uint8", "frombuffer"])
def test_fit_and_project_leave_images_unmodified(view):
    # frombuffer gives the read-only views load_image returns.
    rng = np.random.default_rng(44)
    raws = [rng.integers(0, 256, size=12, dtype=np.uint8) for _ in range(8)]
    imgs = [image(np.frombuffer(r.tobytes(), np.uint8) if view else r) for r in raws]
    before = [img.values.copy() for img in imgs]
    m = fit_eigenmodel(imgs, k=5)
    for img in imgs:
        project(m, img)
    for img, values in zip(imgs, before):
        assert img.values.dtype == values.dtype
        assert np.array_equal(img.values, values)


def test_fit_centers_like_the_oracle_bit_for_bit():
    # The fit's mean and eigenvalues are those of the exact mean and Gram.
    imgs = random_images(42, 9, 30)
    m = fit_eigenmodel(imgs, k=8)
    mean, gram = oracles.exact_mean_and_gram(imgs)
    assert np.array_equal(m.mean, mean)
    lam = np.linalg.eigh(gram)[0][::-1]
    assert np.array_equal(m.eigenvalues, lam[: m.k] / 8)


@pytest.mark.parametrize("as_matrix", [False, True])
def test_fit_leaves_inputs_unmodified(as_matrix):
    rng = np.random.default_rng(41)
    matrix = rng.integers(0, 256, size=(8, 12), dtype=np.uint8)
    # As a matrix, the images' values are row views of one buffer.
    rows = matrix.copy() if as_matrix else [row.copy() for row in matrix]
    images = [image(row) for row in rows]
    fit_eigenmodel(images, k=5)
    assert np.array_equal(np.vstack([img.values for img in images]), matrix)


# --- projection / reconstruction -----------------------------------------------

def test_project_mean_is_origin():
    # The toy images' mean is 85 of 255 in both pixels.
    m = toy_model()
    assert np.allclose(project(m, image([85, 85])), 0.0, atol=1e-12)


def test_project_dim_mismatch():
    with pytest.raises(ImageSizeError, match="image is 3x1, expected 2x1"):
        project(toy_model(), image(np.zeros(3)))


def test_project_rejects_transposed_image():
    # Same pixel count, other shape: a length check would let it through.
    m = fit_eigenmodel([image(255 * v, 3, 2) for v in np.eye(6)[:4]], k=2)
    with pytest.raises(ImageSizeError, match="image is 2x3, expected 3x2"):
        project(m, image(np.zeros(6), 2, 3))


def test_reconstruct_zero_coords_gives_mean():
    m = toy_model()
    assert np.allclose(oracles.reconstruct(m, np.zeros(m.k)), m.mean)


def test_reconstruct_bad_length():
    with pytest.raises(ValueError):
        oracles.reconstruct(toy_model(), np.zeros(5))


def test_full_rank_round_trip():
    m = toy_model()
    for img in TOY_IMAGES:
        back = oracles.reconstruct(m, project(m, img))
        assert np.sqrt(np.mean((back - img.normalized()) ** 2)) < 1e-6


def test_k1_error_at_least_k2_error():
    m1 = fit_eigenmodel(TOY_IMAGES, k=1)
    m2 = fit_eigenmodel(TOY_IMAGES, k=2)

    def mse(m):
        return np.mean(
            [(oracles.reconstruct(m, project(m, i)) - i.normalized()) ** 2 for i in TOY_IMAGES]
        )

    assert mse(m1) >= mse(m2) - 1e-12


# --- distances -------------------------------------------------------------------

def test_eigen_distance_identity():
    a = np.array([1.0, 2.0])
    assert oracles.eigen_distance(a, a) == 0.0


def test_eigen_distance_345():
    assert oracles.eigen_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_eigen_distance_length_mismatch():
    with pytest.raises(ValueError):
        oracles.eigen_distance(np.zeros(2), np.zeros(3))


@given(
    a=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
    data=st.data(),
)
def test_eigen_distance_symmetric(a, data):
    b = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(a), max_size=len(a)))
    x, y = np.array(a), np.array(b)
    assert oracles.eigen_distance(x, y) == oracles.eigen_distance(y, x)
    assert oracles.eigen_distance(x, y) >= 0


# --- snapshot-method equivalence and model invariants ----------------------------

def test_snapshot_matches_covariance_oracle():
    rng = np.random.default_rng(2718)
    for trial in range(5):
        imgs = [image(rng.integers(0, 256, size=16)) for _ in range(10)]
        model = fit_eigenmodel(imgs, k=25)
        mean_o, lam_o, vecs_o = oracles.covariance_eigenspace(imgs)
        assert model.k == len(lam_o)
        assert np.allclose(model.eigenvalues, lam_o, rtol=1e-8)
        coords_m = [project(model, i) for i in imgs]
        coords_o = [oracles.project_oracle(mean_o, vecs_o, i) for i in imgs]
        for i in range(len(imgs)):
            for j in range(i + 1, len(imgs)):
                dm = oracles.eigen_distance(coords_m[i], coords_m[j])
                do = np.linalg.norm(coords_o[i] - coords_o[j])
                assert dm == pytest.approx(do, rel=1e-6)


def test_covariance_oracle_reads_loaded_pgms_as_intensities(synth_dataset):
    # Loaded images hold uint8 pixels; the oracle must see value / 255, as
    # the fit does, not the raw 0..255.
    imgs = [load_image(e.image_path) for e in load_manifest(synth_dataset["manifest"]).entries]
    assert all(img.values.dtype == np.uint8 for img in imgs)
    model = fit_eigenmodel(imgs, k=25)
    assert np.array_equal(model.mean, oracles.exact_mean_and_gram(imgs)[0])
    mean_o, lam_o, vecs_o = oracles.covariance_eigenspace(imgs)
    assert np.allclose(model.mean, mean_o, rtol=0, atol=1e-12)
    assert model.k == len(lam_o)
    assert np.allclose(model.eigenvalues, lam_o, rtol=1e-8)
    coords_m = [project(model, i) for i in imgs]
    coords_o = [oracles.project_oracle(mean_o, vecs_o, i) for i in imgs]
    for i in range(len(imgs)):
        for j in range(i + 1, len(imgs)):
            dm = oracles.eigen_distance(coords_m[i], coords_m[j])
            do = np.linalg.norm(coords_o[i] - coords_o[j])
            assert dm == pytest.approx(do, rel=1e-6)


def test_orthonormality_residuals():
    m = fit_eigenmodel(random_images(31415, 8, 25), k=25)
    gram = m.eigenvectors @ m.eigenvectors.T
    assert np.abs(gram - np.eye(m.k)).max() <= 1e-8


def test_monotone_reconstruction_error():
    imgs = random_images(999, 10, 16)
    full = fit_eigenmodel(imgs, k=25)
    errors = []
    for k in range(1, full.k + 1):
        m = fit_eigenmodel(imgs, k=k)
        errors.append(
            np.mean([(oracles.reconstruct(m, project(m, i)) - i.normalized()) ** 2 for i in imgs])
        )
    for earlier, later in zip(errors, errors[1:]):
        assert later <= earlier + 1e-12


def test_sign_convention_equivalence():
    # Fitting on the images' negatives builds the model from negated
    # centered rows; pairwise eigenspace distances must not move.
    imgs = random_images(4, 6, 12)
    negatives = [image(255 - img.values) for img in imgs]
    m1 = fit_eigenmodel(imgs, k=5)
    m2 = fit_eigenmodel(negatives, k=5)
    c1 = [project(m1, i) for i in imgs]
    c2 = [project(m2, i) for i in negatives]
    for i in range(len(imgs)):
        for j in range(i + 1, len(imgs)):
            assert abs(
                oracles.eigen_distance(c1[i], c1[j]) - oracles.eigen_distance(c2[i], c2[j])
            ) <= 1e-9


# --- persistence in a gallery -----------------------------------------------------

def save_model_gallery(path, model, images):
    """Save model in a gallery whose rows are the given images."""
    records = [
        TrainingRecord(img, fan_landmarks(0.3 + 0.1 * i), f"s{i}", "v", "")
        for i, img in enumerate(images)
    ]
    save_gallery(build_gallery(model, records), model, path)


def test_model_gallery_round_trip_exact(tmp_path):
    imgs = random_images(8, 5, 9)
    m = fit_eigenmodel(imgs, k=4)
    save_model_gallery(tmp_path / "gallery.json", m, imgs)
    _, back = load_gallery(tmp_path / "gallery.json")
    assert back.mean.tobytes() == m.mean.tobytes()
    assert back.eigenvectors.tobytes() == m.eigenvectors.tobytes()
    assert back.eigenvalues.tobytes() == m.eigenvalues.tobytes()
    assert (back.width, back.height, back.k, back.requested_k) == (
        m.width, m.height, m.k, m.requested_k)


def test_gallery_model_k_mismatch(tmp_path):
    path = tmp_path / "gallery.json"
    save_model_gallery(path, toy_model(), TOY_IMAGES)
    edit_gallery(path, lambda header, arrays: header.update(k=5, requested_k=5))
    with pytest.raises(GalleryFormatError, match="shape"):
        load_gallery(path)


def test_gallery_missing_model_record(tmp_path):
    path = tmp_path / "gallery.json"
    save_model_gallery(path, toy_model(), TOY_IMAGES)
    edit_gallery(path, lambda header, arrays: arrays.pop("mean"))
    with pytest.raises(GalleryFormatError):
        load_gallery(path)
