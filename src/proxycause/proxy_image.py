"""Image proxies: random patch masks, brightness projections, frame ordering.

A pair of same-sized images becomes a two-column sample by drawing random
square patches and recording each image's mean brightness under the same
patch.  Direction engines then operate on that sample.  For a list of
frames the pairwise verdicts assemble into a tournament matrix, and the
frames are ordered by how many of their pairs they win.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# anm_direction is not called here; the traced benchmark run wraps it by
# this module's name (perfbench/layers.py).
from .anm import AnmConfig, anm_direction
from .core import Direction, ScatterSample, SeedSpec, Verdict, _count, _finite, _reading, as_spec, parallel_map
from .rcc import RCCModel

__all__ = [
    "Image",
    "FrameOrder",
    "load_image",
    "save_image",
    "image_pair_scatter",
    "image_pair_direction",
    "frames_order",
]

# The ANM fit fraction of every image engine.  Overlapping patches leak weak
# grid structure into the residuals; a test part of 25% keeps the
# independence test from latching onto that artifact, while the genuine
# backward-direction dependence stays easy to detect.
IMAGE_FIT_FRACTION = 0.75


@dataclass(frozen=True)
class Image:
    """Pixel intensities in [0,1]; (h, w) grayscale or (h, w, 3) color."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = _finite("pixels", self.pixels, 1)
        if not (arr.ndim == 2 or (arr.ndim == 3 and arr.shape[2] == 3)):
            raise ValueError("pixels must be (h, w) or (h, w, 3)")
        if arr.shape[1] < 1:
            raise ValueError("image must have at least one pixel")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("pixels must lie in [0, 1]")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3


# ---------------------------------------------------------------------------
# 8-bit binary PGM (P5) / PPM (P6) files
# ---------------------------------------------------------------------------


def _read_header_token(data: bytes, pos: int):
    """Next whitespace-delimited token, skipping # comments; (token, pos)."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise ValueError("truncated header")
    return data[start:pos], pos


def load_image(path) -> Image:
    """Read a binary PGM (P5) or PPM (P6) file; intensities scaled by 1/255."""
    with open(path, "rb") as fh, _reading(path):
        data = fh.read()
        magic, pos = _read_header_token(data, 0)
        channels = {b"P5": 1, b"P6": 3}.get(magic)
        if channels is None:
            raise ValueError(f"unsupported magic number {magic!r} (want P5 or P6)")
        fields = []
        for _ in range(3):
            token, pos = _read_header_token(data, pos)
            if not token.isdigit():
                raise ValueError(f"bad header field {token!r}")
            fields.append(int(token))
        width, height, maxval = fields
        if maxval != 255:
            raise ValueError(f"unsupported maxval {maxval} (only 8-bit images)")
        pos += 1  # single whitespace byte separates header from payload
        count = width * height * channels
        payload = data[pos : pos + count]
        if len(payload) < count:
            raise ValueError(f"truncated payload: want {count} bytes, have {len(payload)}")
        arr = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
        return Image(arr.reshape((height, width) if channels == 1 else (height, width, 3)))


def save_image(img: Image, path) -> None:
    """Write P5 (grayscale) or P6 (color); round-half-up to 8 bits so that
    loading a saved image reproduces a loaded original exactly."""
    raw = np.floor(img.pixels * 255.0 + 0.5).astype(np.uint8)
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raw.tobytes())


# ---------------------------------------------------------------------------
# Patch proxies
# ---------------------------------------------------------------------------


def _check_patches(width: int, height: int, n: int, k: int) -> tuple:
    """(n, k) as ints: at least 2 patches of a size from 1 to the smaller image side."""
    n, k = _count("n", n, 2), _count("k", k, 1)
    if k > min(width, height):
        raise ValueError(f"patch size {k} exceeds image dimensions {width}x{height}")
    return n, k


def _patch_means(img: Image, tops, lefts, k: int) -> np.ndarray:
    """Mean intensity of each k-by-k patch: np.sum's one add.reduce per patch, one division."""
    pixels = img.pixels
    sums = np.array([np.add.reduce(pixels[t : t + k, l : l + k], None) for t, l in zip(tops, lefts)])
    return sums / (k * k * img.channels)


def image_pair_scatter(x: Image, y: Image, n: int = 1024, k: int = 10, seed: SeedSpec | int = 0) -> ScatterSample:
    """Project both images through the same n random k-by-k patches, whose
    uniform anchors have top in [0, h-k] and left in [0, w-k]."""
    if (x.height, x.width) != (y.height, y.width):
        raise ValueError("images must have identical dimensions")
    n, k = _check_patches(x.width, x.height, n, k)
    rng = as_spec(seed).rng("image.masks")
    tops = rng.integers(0, x.height - k + 1, n).tolist()
    lefts = rng.integers(0, x.width - k + 1, n).tolist()
    return ScatterSample.from_ab(_patch_means(x, tops, lefts, k), _patch_means(y, tops, lefts, k))


def image_pair_direction(
    x: Image,
    y: Image,
    n: int = 1024,
    k: int = 10,
    engine: AnmConfig | RCCModel | None = None,
    seed: SeedSpec | int = 0,
) -> Direction:
    """Direction between two images: patch scatter fed to the chosen engine.

    ``engine`` is an AnmConfig (default) or a trained RCCModel; its
    ``judge`` gets the child seed ``image.anm``.  The default config fits
    on ``IMAGE_FIT_FRACTION`` (75%) of the patches rather than 50%.
    """
    engine, spec = _engine(engine), as_spec(seed)
    sample = image_pair_scatter(x, y, n=n, k=k, seed=spec.child("image.scatter"))
    return engine.judge(sample, spec.child("image.anm"))


def _engine(engine):
    """``engine``, an AnmConfig or RCCModel, or the image AnmConfig for None."""
    if engine is None:
        return AnmConfig(fit_fraction=IMAGE_FIT_FRACTION)
    if not isinstance(engine, (AnmConfig, RCCModel)):
        raise TypeError(f"engine must be AnmConfig or RCCModel, got {type(engine).__name__}")
    return engine


# ---------------------------------------------------------------------------
# Frame ordering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrameOrder:
    """Recovered frame order, the pairwise verdict matrix, and a cycle flag."""

    order: tuple
    matrix: np.ndarray
    cyclic: bool


def order_from_matrix(matrix) -> tuple:
    """(order, cyclic) for a tournament: one 0/1 verdict per pair of frames.

    The frames go by descending wins (row sums), ties in index order.  A
    tournament has a cycle exactly when two frames win equally often, so
    ``cyclic`` says so; without one, this is its only topological order.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not (np.isin(m, (0, 1)).all() and np.array_equal(m + m.T, 1 - np.eye(len(m), dtype=int))):
        raise ValueError("matrix must be a tournament: one 0/1 verdict per pair, none on the diagonal")
    wins = m.sum(axis=1).tolist()
    return tuple(sorted(range(len(wins)), key=lambda i: (-wins[i], i))), len(set(wins)) < len(wins)


def frames_order(
    frames,
    n: int = 1024,
    k: int = 10,
    engine: AnmConfig | RCCModel | None = None,
    seed: SeedSpec | int = 0,
    jobs: int = 1,
) -> FrameOrder:
    """Order frames by how many of their pairwise direction calls they win.

    Frames that win equally often stay in index order and set ``cyclic``
    (:func:`order_from_matrix`).

    Each unordered pair (i, j) is judged once under a seed derived from
    (master seed, i, j), so the pairs can be judged in any order and on any
    process: ``jobs`` > 1 splits them over forked worker processes through
    :func:`parallel_map`, and the matrix is the same for every ``jobs``.
    """
    frames = list(frames)
    if len(frames) < 2:
        raise ValueError("need at least two frames")
    shape = (frames[0].height, frames[0].width)
    for fr in frames[1:]:
        if (fr.height, fr.width) != shape:
            raise ValueError("frames must share dimensions")
    n, k = _check_patches(shape[1], shape[0], n, k)
    engine, spec = _engine(engine), as_spec(seed)
    f = len(frames)
    pairs = [(i, j) for i in range(f) for j in range(i + 1, f)]

    def judge(pair):
        i, j = pair
        pair_spec = spec.child(f"frames.pair.{i}.{j}")
        try:
            return image_pair_direction(frames[i], frames[j], n=n, k=k, engine=engine, seed=pair_spec)
        except ValueError as exc:
            raise ValueError(f"frames {i} and {j}: {exc}") from None

    verdicts = parallel_map(judge, pairs, jobs)
    matrix = np.zeros((f, f), dtype=np.int64)
    for (i, j), verdict in zip(pairs, verdicts):
        if verdict.verdict is Verdict.X_TO_Y:
            matrix[i, j] = 1
        else:
            matrix[j, i] = 1
    order, cyclic = order_from_matrix(matrix)
    return FrameOrder(order=order, matrix=matrix, cyclic=cyclic)
