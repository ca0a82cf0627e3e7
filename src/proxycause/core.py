"""Shared domain types, deterministic seeding, and JSON-lines serialization.

Every source of randomness in the library flows through :class:`SeedSpec`:
a 64-bit master seed plus a task-id string, mixed into a per-task stream
seed.  No module touches the global numpy RNG, so pipelines stay
reproducible under any execution order or worker count.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Verdict",
    "Direction",
    "ScatterSample",
    "LabeledScatterDataset",
    "SeedSpec",
    "derive_seed",
    "scatter_dumps",
    "scatter_loads",
    "save_scatter",
    "load_scatter",
    "dataset_dumps",
    "dataset_loads",
    "save_dataset",
    "load_dataset",
    "parallel_map",
]


class Verdict(enum.Enum):
    """Binary causal verdict between the two coordinates of a pair."""

    X_TO_Y = "x->y"
    Y_TO_X = "y->x"

    def flipped(self) -> "Verdict":
        return Verdict.Y_TO_X if self is Verdict.X_TO_Y else Verdict.X_TO_Y


@dataclass(frozen=True)
class Direction:
    """Causal verdict plus a non-negative confidence score.

    Scores are engine-specific: comparable within one engine, never across
    engines.  A score of exactly 0 marks a tie (the engine could not
    distinguish the directions).
    """

    verdict: Verdict
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score) or self.score < 0:
            raise ValueError(f"score must be finite and non-negative, got {self.score}")

    @property
    def tie(self) -> bool:
        return self.score == 0.0

    def flipped(self) -> "Direction":
        return Direction(self.verdict.flipped(), self.score)

    @staticmethod
    def compare(s_xy: float, s_yx: float, score: float) -> "Direction":
        """The verdict rule of every engine: the side with the larger
        evidence wins with ``score``; equal sides give the explicit tie
        ``Direction(X_TO_Y, 0.0)``."""
        if s_xy > s_yx:
            return Direction(Verdict.X_TO_Y, score)
        if s_yx > s_xy:
            return Direction(Verdict.Y_TO_X, score)
        return Direction(Verdict.X_TO_Y, 0.0)


@dataclass(frozen=True)
class ScatterSample:
    """n paired scalar draws (a_i, b_i), stored as an (n, 2) float array.

    Point order carries no meaning for distribution-level consumers;
    engines that rely on that (RCC featurization) canonicalize the order
    themselves.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        if pts.shape[0] < 2:
            raise ValueError("a scatter sample needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("all coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def a(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def b(self) -> np.ndarray:
        return self.points[:, 1]

    def swapped(self) -> "ScatterSample":
        return ScatterSample(self.points[:, ::-1])

    @staticmethod
    def from_ab(a: Iterable[float], b: Iterable[float]) -> "ScatterSample":
        return ScatterSample(np.column_stack([np.asarray(a, float), np.asarray(b, float)]))


@dataclass(frozen=True)
class LabeledScatterDataset:
    """Scatter samples annotated with direction labels (+1 means x->y)."""

    items: tuple

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise ValueError("dataset must not be empty")
        for sample, label in items:
            if label not in (+1, -1):
                raise ValueError(f"labels must be +1 or -1, got {label}")
            if not isinstance(sample, ScatterSample):
                raise TypeError("each item must pair a ScatterSample with a label")
        object.__setattr__(self, "items", items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def labels(self) -> np.ndarray:
        return np.array([label for _, label in self.items], dtype=np.int64)


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a documented derivation to per-task stream seeds.

    Derivation: the little-endian 8-byte master seed is concatenated with
    the UTF-8 bytes of the task id, hashed with SHA-256, and the first 8
    digest bytes (big-endian) form the 64-bit task seed.  Identical
    (master_seed, task_id) always give the same stream on any platform;
    distinct task ids give streams that behave independently.
    """

    master_seed: int = 0

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        object.__setattr__(self, "master_seed", int(self.master_seed))

    def seed(self, task_id: str) -> int:
        return derive_seed(self, task_id)

    def rng(self, task_id: str) -> np.random.Generator:
        return np.random.default_rng(self.seed(task_id))

    def child(self, task_id: str) -> "SeedSpec":
        """Sub-spec whose tasks are namespaced under ``task_id``."""
        return SeedSpec(self.seed(task_id))


def as_spec(seed: SeedSpec | int) -> SeedSpec:
    """``seed`` if it is already a SeedSpec, else ``SeedSpec(seed)``."""
    return seed if isinstance(seed, SeedSpec) else SeedSpec(seed)


def _is_integer(value) -> bool:
    """An int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _standardize(v: np.ndarray) -> np.ndarray:
    """Zero mean, unit standard deviation; a constant variable raises, and so
    do values too large for their standard deviation to be finite."""
    # The IEEE operations of (v - np.mean(v)) / np.std(v), centering once.
    with np.errstate(over="ignore", invalid="ignore"):
        d = v - np.sum(v) / v.size
        sd = float(np.sqrt(np.sum(d * d) / v.size))
    if not np.isfinite(sd):
        raise ValueError("standard deviation is not finite: values too large to standardize")
    if sd == 0.0:
        raise ValueError("constant variable")
    return d / sd


def derive_seed(spec: SeedSpec, task_id: str) -> int:
    """Mix a master seed with a task-id string into a 64-bit stream seed."""
    if not task_id:
        raise ValueError("task_id must be non-empty")
    payload = spec.master_seed.to_bytes(8, "little") + task_id.encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# JSON-lines serialization.  Field names are part of the external interface:
# `a`, `b` for scatter points, `label` for dataset items.
# ---------------------------------------------------------------------------


def scatter_dumps(sample: ScatterSample) -> str:
    lines = [json.dumps({"a": float(a), "b": float(b)}) for a, b in sample.points]
    return "\n".join(lines) + "\n"


def scatter_loads(text: str) -> ScatterSample:
    points = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            points.append(_json_point(json.loads(line)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed scatter record at line {lineno}: {exc}") from None
    if not points:
        raise ValueError("empty sample")
    return ScatterSample(np.array(points, dtype=np.float64))


def _json_point(rec) -> tuple:
    """(a, b) of one point record; both must be JSON numbers, not strings
    or booleans.  An integer too large for a float raises OverflowError."""
    a, b = rec["a"], rec["b"]
    if type(a) not in (int, float) or type(b) not in (int, float):
        raise ValueError(f"coordinates must be JSON numbers, got {type(a).__name__} and {type(b).__name__}")
    return float(a), float(b)


def save_scatter(sample: ScatterSample, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scatter_dumps(sample))


def load_scatter(path) -> ScatterSample:
    with open(path, "r", encoding="utf-8") as fh:
        return scatter_loads(fh.read())


def dataset_dumps(dataset: LabeledScatterDataset) -> str:
    lines = []
    for sample, label in dataset:
        rec = {
            "label": int(label),
            "points": [{"a": float(a), "b": float(b)} for a, b in sample.points],
        }
        lines.append(json.dumps(rec))
    return "\n".join(lines) + "\n"


def dataset_loads(text: str) -> LabeledScatterDataset:
    items = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            label = rec["label"]
            if type(label) is not int or label not in (1, -1):
                raise ValueError(f"label must be the JSON integer 1 or -1, got {label!r}")
            pts = np.array([_json_point(p) for p in rec["points"]])
            items.append((ScatterSample(pts), label))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed dataset record at line {lineno}: {exc}") from None
    if not items:
        raise ValueError("empty dataset")
    return LabeledScatterDataset(tuple(items))


def save_dataset(dataset: LabeledScatterDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dataset_dumps(dataset))


def load_dataset(path) -> LabeledScatterDataset:
    with open(path, "r", encoding="utf-8") as fh:
        return dataset_loads(fh.read())


# ---------------------------------------------------------------------------
# Parallel map.  The one pool of the library: pipelines hand it independent
# tasks whose results depend only on their own seeds, so any split of the
# tasks over processes gives the same bytes.
# ---------------------------------------------------------------------------


def parallel_map(fn, items, jobs: int = 1) -> list:
    """``[fn(item) for item in items]``, split over up to ``jobs`` processes.

    With w = min(jobs, len(items), usable CPUs) above 1 and the ``fork``
    start method available, the caller runs the items i with i % w == 0 and
    w - 1 forked workers run the other residues.  ``fn`` and ``items`` reach
    the workers through the fork, so closures need no pickling; only results
    and exceptions travel back.  Results come in item order and the
    lowest-index failure is raised, as in the serial loop.  While mapping,
    BLAS runs on one thread in the caller and in every worker.  Otherwise,
    and inside a worker, this is the serial loop.
    """
    if not _is_integer(jobs) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    items = list(items)
    workers = min(int(jobs), len(items), _usable_cpus())
    if workers > 1 and _worker_task is None:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return _forked_map(fn, items, workers, multiprocessing.get_context("fork"))
    return [fn(item) for item in items]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked_map(fn, items, workers, context) -> list:
    from concurrent.futures import ProcessPoolExecutor

    # The workers fork after BLAS is down to one thread, so they start on one.
    with _one_blas_thread(), ProcessPoolExecutor(
        workers - 1, mp_context=context, initializer=_start_worker, initargs=(fn, items, workers)
    ) as pool:
        futures = [pool.submit(_worker_share, start) for start in range(1, workers)]
        shares = [_share(fn, items, 0, workers)] + [f.result() for f in futures]
    out = []
    for i in range(len(items)):
        results, error = shares[i % workers]
        if i // workers == len(results):
            raise error
        out.append(results[i // workers])
    return out


def _share(fn, items, start, step):
    """fn over items[start::step] up to the first failure: (results, error)."""
    results = []
    for item in items[start::step]:
        try:
            results.append(fn(item))
        except Exception as exc:
            return results, exc
    return results, None


_worker_task = None


def _start_worker(fn, items, step):
    global _worker_task
    _worker_task = (fn, items, step)


def _worker_share(start):
    fn, items, step = _worker_task
    return _share(fn, items, start, step)


@functools.lru_cache(maxsize=None)
def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """BLAS on one thread for the block, then back to the count before it.

    Workers each doing BLAS on several threads would oversubscribe the CPUs
    that the pool already fills."""
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
