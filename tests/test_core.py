"""Domain types, seed derivation, and JSON-lines round trips."""

import hashlib
import json
import multiprocessing
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxycause import core
from proxycause.core import (
    Direction,
    LabeledScatterDataset,
    ScatterSample,
    SeedSpec,
    Verdict,
    _standardize,
    dataset_dumps,
    dataset_loads,
    derive_seed,
    load_dataset,
    load_scatter,
    parallel_map,
    save_dataset,
    save_scatter,
    scatter_dumps,
    scatter_loads,
)


# Frozen against an independent SHA-256 computation:
# sha256(little-endian 8-byte master || utf-8 task)[:8] read big-endian.
DERIVE_SEED_ORACLE = [
    (0, "a", 15564030590739040361),
    (7, "anm.split", 7573636668383601126),
    (123456789, "frames.pair.0.1", 4780908723902981198),
]


def test_derive_seed_matches_frozen_oracle():
    for master, task, expected in DERIVE_SEED_ORACLE:
        assert derive_seed(SeedSpec(master), task) == expected


def test_derive_seed_matches_reference_construction():
    for master in (0, 1, 2**63, 2**64 - 1):
        for task in ("x", "hsic", "nested.task.id"):
            digest = hashlib.sha256(master.to_bytes(8, "little") + task.encode()).digest()
            want = int.from_bytes(digest[:8], "big")
            assert derive_seed(SeedSpec(master), task) == want


def test_derive_seed_rejects_empty_task():
    with pytest.raises(ValueError):
        derive_seed(SeedSpec(0), "")


def test_seedspec_validates_range():
    SeedSpec(0)
    SeedSpec(2**64 - 1)
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(2**64)


def test_seedspec_streams_are_deterministic_and_distinct():
    spec = SeedSpec(42)
    assert spec.rng("t").random(4).tolist() == spec.rng("t").random(4).tolist()
    assert spec.seed("t") != spec.seed("u")
    # child namespacing: child("a").seed("b") is a pure function of (42, "a", "b")
    assert spec.child("a").seed("b") == SeedSpec(spec.seed("a")).seed("b")


def test_verdict_flip():
    assert Verdict.X_TO_Y.flipped() is Verdict.Y_TO_X
    assert Verdict.Y_TO_X.flipped() is Verdict.X_TO_Y
    assert Verdict.X_TO_Y.value == "x->y"


def test_direction_validation_and_tie():
    d = Direction(Verdict.X_TO_Y, 1.5)
    assert not d.tie
    assert d.flipped() == Direction(Verdict.Y_TO_X, 1.5)
    assert Direction(Verdict.Y_TO_X, 0.0).tie
    with pytest.raises(ValueError):
        Direction(Verdict.X_TO_Y, -0.1)
    with pytest.raises(ValueError):
        Direction(Verdict.X_TO_Y, float("nan"))
    with pytest.raises(ValueError):
        Direction(Verdict.X_TO_Y, float("inf"))


def test_direction_compare_is_the_three_way_verdict_rule():
    assert Direction.compare(0.7, 0.2, 1.25) == Direction(Verdict.X_TO_Y, 1.25)
    assert Direction.compare(0.2, 0.7, 1.25) == Direction(Verdict.Y_TO_X, 1.25)
    # equal sides are the explicit tie, whatever score the caller computed
    for side in (0.0, 0.5, 3.0):
        d = Direction.compare(side, side, 2.0)
        assert d == Direction(Verdict.X_TO_Y, 0.0) and d.tie
    # swapping the sides flips the verdict and keeps the score bits
    rng = np.random.default_rng(3)
    for a, b in rng.normal(size=(50, 2)) * 10.0 ** rng.integers(-8, 8, size=(50, 2)):
        d, e = Direction.compare(a, b, abs(a - b)), Direction.compare(b, a, abs(b - a))
        assert e.verdict is d.verdict.flipped() and repr(e.score) == repr(d.score)


def test_standardize_equals_mean_and_std_expression():
    """One centering pass gives (v - mean) / std bit for bit, on the column
    views and the quantized axes the engines pass, down to n=2."""
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(301, 2)) * [3e-4, 7e5] + [1e3, -2.5]
    quantized = np.round(rng.normal(size=(200, 2)) * 2) / 4
    cases = [pts[:, 0], pts[:, 1], np.ascontiguousarray(pts[:, 1]), pts[::3, 1], quantized[:, 0], quantized[:, 1],
             np.array([1.0, 4.0]), np.array([-0.1, 0.2]), rng.normal(size=4097) + 1e8, np.arange(10.0) * 1e150]
    for v in cases:
        want = (v - float(np.mean(v))) / float(np.std(v))
        got = _standardize(v)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (pts[:, 0] * 1e200, np.array([1e300, -1e300, 1e308])):
            with pytest.raises(ValueError, match="standard deviation is not finite"):
                _standardize(v)
        with pytest.raises(ValueError, match="constant variable"):
            _standardize(np.full(5, 0.3))


def test_scatter_sample_shape_and_immutability():
    s = ScatterSample.from_ab([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert s.n == 3
    assert s.a.tolist() == [1.0, 2.0, 3.0]
    assert s.b.tolist() == [4.0, 5.0, 6.0]
    with pytest.raises(ValueError):
        s.points[0, 0] = 99.0
    with pytest.raises(ValueError):
        ScatterSample(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ScatterSample(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        ScatterSample(np.array([[0.0, np.nan], [1.0, 2.0]]))


def test_scatter_sample_swap_is_involutive():
    s = ScatterSample.from_ab([1.0, 2.0], [3.0, 4.0])
    t = s.swapped()
    assert t.a.tolist() == [3.0, 4.0]
    assert t.b.tolist() == [1.0, 2.0]
    assert np.array_equal(t.swapped().points, s.points)


def test_labeled_dataset_validation():
    s = ScatterSample.from_ab([0.0, 1.0], [1.0, 0.0])
    data = LabeledScatterDataset(((s, 1), (s, -1)))
    assert len(data) == 2
    assert data.labels().tolist() == [1, -1]
    with pytest.raises(ValueError):
        LabeledScatterDataset(())
    with pytest.raises(ValueError):
        LabeledScatterDataset(((s, 0),))
    with pytest.raises(TypeError):
        LabeledScatterDataset((("not a sample", 1),))


def test_scatter_text_round_trip():
    s = ScatterSample.from_ab([0.5, -1.25, 3.0], [2.0, 0.125, -7.5])
    text = scatter_dumps(s)
    assert text.endswith("\n")
    back = scatter_loads(text)
    assert np.array_equal(back.points, s.points)


def test_scatter_loads_reports_line_numbers():
    good = '{"a": 1.0, "b": 2.0}'
    with pytest.raises(ValueError, match="line 2"):
        scatter_loads(good + "\n{broken\n")
    with pytest.raises(ValueError, match="line 3"):
        scatter_loads(good + "\n" + good + '\n{"a": 1.0}\n')
    with pytest.raises(ValueError, match="empty sample"):
        scatter_loads("\n\n")


def test_scatter_file_round_trip(tmp_path):
    s = ScatterSample.from_ab(np.linspace(0, 1, 9), np.linspace(1, 0, 9))
    path = tmp_path / "sample.jsonl"
    save_scatter(s, path)
    assert np.array_equal(load_scatter(path).points, s.points)


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    items = tuple(
        (ScatterSample(rng.normal(size=(5, 2))), 1 if i % 2 == 0 else -1) for i in range(4)
    )
    data = LabeledScatterDataset(items)
    text = dataset_dumps(data)
    back = dataset_loads(text)
    assert len(back) == 4
    for (s1, l1), (s2, l2) in zip(data, back):
        assert l1 == l2
        assert np.array_equal(s1.points, s2.points)
    path = tmp_path / "data.jsonl"
    save_dataset(data, path)
    again = load_dataset(path)
    assert dataset_dumps(again) == text


def test_dataset_loads_errors():
    with pytest.raises(ValueError, match="empty dataset"):
        dataset_loads("")
    with pytest.raises(ValueError, match="line 1"):
        dataset_loads('{"label": 2}\n')


POINTS = '[{"a": 1, "b": 2}, {"a": 2.5, "b": -1}]'


@pytest.mark.parametrize(
    "record",
    [
        '{"a": "1.5", "b": 2}',
        '{"a": 1, "b": true}',
        '{"a": %s, "b": 1}' % ("9" * 400),
        '{"a": null, "b": 1}',
        '[1, 2]',
        '{"a": 1}',
    ],
    ids=["string", "bool", "huge int", "null", "list", "missing b"],
)
def test_scatter_loads_takes_json_numbers_only(record):
    with pytest.raises(ValueError, match="line 2"):
        scatter_loads('{"a": 0, "b": 0}\n' + record + "\n")


@pytest.mark.parametrize(
    "record",
    [
        '{"label": -1.7, "points": %s}' % POINTS,
        '{"label": "1", "points": %s}' % POINTS,
        '{"label": true, "points": %s}' % POINTS,
        '{"label": Infinity, "points": %s}' % POINTS,
        '{"label": 1.0, "points": %s}' % POINTS,
        '{"label": 0, "points": %s}' % POINTS,
        '{"label": 1, "points": [{"a": "1", "b": 2}, {"a": 2, "b": 1}]}',
        '{"label": 1, "points": [{"a": %s, "b": 2}, {"a": 2, "b": 1}]}' % ("9" * 400),
        '{"label": 1, "points": {"a": 1, "b": 2}}',
    ],
    ids=["fraction", "string", "bool", "infinity", "float one", "zero", "string a", "huge a", "points object"],
)
def test_dataset_loads_takes_integer_labels_and_number_points(record):
    with pytest.raises(ValueError, match="line 1"):
        dataset_loads(record + "\n")


def test_loaders_keep_integer_coordinates():
    sample = scatter_loads('{"a": 1, "b": 2}\n{"a": -3, "b": 0.5}\n')
    assert sample.points.tolist() == [[1.0, 2.0], [-3.0, 0.5]]
    data = dataset_loads('{"label": -1, "points": %s}\n' % POINTS)
    assert data.labels().tolist() == [-1]
    assert data.items[0][0].points.tolist() == [[1.0, 2.0], [2.5, -1.0]]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
coordinates = st.sampled_from([0, 1, -2, 0.5, 1e308, 10**400, "1.5", True, None]) | json_values
labels = st.sampled_from([1, -1, -1.7, "1", True, float("inf"), 1.0]) | json_values


@st.composite
def scatter_lines(draw):
    """A JSON-lines record: arbitrary text or JSON, or a point whose
    coordinates are mostly numbers."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.text(st.characters(exclude_categories=("Cs",)), max_size=30))
    if kind == 1:
        return json.dumps(draw(json_values))
    point = {"a": draw(coordinates), "b": draw(coordinates)}
    if kind == 3:
        point = {"label": draw(labels), "points": [point, {"a": 0, "b": 1}]}
    return json.dumps(point)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(scatter_lines(), max_size=5))
def test_scatter_loader_gives_a_sample_or_value_error(lines):
    try:
        sample = scatter_loads("\n".join(lines))
    except ValueError:
        return
    assert sample.points.dtype == np.float64 and sample.n >= 2
    assert np.all(np.isfinite(sample.points))
    records = [json.loads(line) for line in lines if line.strip()]
    assert all(type(r["a"]) in (int, float) and type(r["b"]) in (int, float) for r in records)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(scatter_lines(), max_size=5))
def test_dataset_loader_gives_a_dataset_or_value_error(lines):
    try:
        data = dataset_loads("\n".join(lines))
    except ValueError:
        return
    for sample, label in data:
        assert type(label) is int and label in (1, -1)
        assert np.all(np.isfinite(sample.points))
    records = [json.loads(line) for line in lines if line.strip()]
    assert all(type(r["label"]) is int for r in records)
    assert all(type(p[c]) in (int, float) for r in records for p in r["points"] for c in "ab")


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)


def fake_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@needs_fork
def test_parallel_map_keeps_item_order(monkeypatch):
    fake_cpus(monkeypatch, 3)
    offset = 10
    got = parallel_map(lambda i: (i * i + offset, os.getpid()), range(11), 3)
    assert [value for value, _ in got] == [i * i + offset for i in range(11)]
    pids = [pid for _, pid in got]
    assert all(pid == os.getpid() for pid in pids[0::3])
    assert all(pid != os.getpid() for i, pid in enumerate(pids) if i % 3)
    assert parallel_map(lambda i: i, [], 3) == []


@needs_fork
def test_parallel_map_inside_a_worker_runs_serially(monkeypatch):
    fake_cpus(monkeypatch, 2)
    got = parallel_map(lambda i: parallel_map(lambda j: (i * j, os.getpid()), range(3), 2), range(4), 2)
    assert [[v for v, _ in row] for row in got] == [[i * j for j in range(3)] for i in range(4)]
    assert all(len({pid for _, pid in row}) == 1 for row in got[1::2])


def fail_on(bad):
    def fn(i):
        if i in bad:
            raise (KeyError if i % 2 else ValueError)(f"item {i}")
        return i

    return fn


@needs_fork
@pytest.mark.parametrize("bad", [(4, 5, 7), (2, 3), (3, 4), (8,), (1, 2, 3, 4, 5, 6, 7, 8)])
@pytest.mark.parametrize("jobs", [2, 3, 4])
def test_parallel_map_raises_the_lowest_index_failure(monkeypatch, bad, jobs):
    fake_cpus(monkeypatch, 4)
    with pytest.raises(Exception) as serial:
        parallel_map(fail_on(bad), range(9), 1)
    with pytest.raises(Exception) as split:
        parallel_map(fail_on(bad), range(9), jobs)
    assert serial.value.args == (f"item {bad[0]}",)
    assert type(split.value) is type(serial.value)
    assert split.value.args == serial.value.args


@pytest.mark.parametrize("jobs", [0, -1, 2.5, True, "2", None])
def test_parallel_map_rejects_bad_jobs(jobs):
    with pytest.raises(ValueError, match="jobs must be a positive integer"):
        parallel_map(abs, [1, 2], jobs)


def test_parallel_map_accepts_numpy_integer_jobs():
    assert parallel_map(abs, [-1, 2, -3], np.int64(1)) == [1, 2, 3]


def test_parallel_map_starts_no_process_on_one_cpu(monkeypatch):
    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    fake_cpus(monkeypatch, 1)
    assert parallel_map(lambda i: (i, os.getpid()), range(5), 4) == [(i, os.getpid()) for i in range(5)]
    if "fork" in multiprocessing.get_all_start_methods():
        fake_cpus(monkeypatch, 2)  # the guard above does catch a fork
        with pytest.raises(AssertionError, match="a process was started"):
            parallel_map(abs, range(5), 4)


@needs_fork
def test_parallel_map_runs_blas_on_one_thread(monkeypatch):
    blas = core._blas_threads()
    if blas is None:
        pytest.skip("no thread control found for numpy's BLAS")
    get, set_threads = blas
    fake_cpus(monkeypatch, 2)
    before = get()
    set_threads(2)
    try:
        got = parallel_map(lambda i: (os.getpid(), get()), range(4), 2)
        after = get()
    finally:
        set_threads(before)
    assert [count for _, count in got] == [1, 1, 1, 1]
    assert got[1][0] != os.getpid() and got[0][0] == os.getpid()
    assert after == 2
