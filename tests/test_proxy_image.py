"""Image IO, patch proxies, and frame ordering."""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxycause.anm import AnmConfig
from proxycause.core import SeedSpec, Verdict, as_spec
from proxycause.experiments import (
    random_mechanism,
    synth_base_image,
    synth_diffusion_frames,
    synth_stylized_pair,
)
from proxycause.proxy_image import (
    Image,
    frames_order,
    image_pair_direction,
    image_pair_scatter,
    load_image,
    order_from_matrix,
    save_image,
)


def test_image_validation():
    Image(np.zeros((4, 5)))
    Image(np.ones((2, 2, 3)))
    with pytest.raises(ValueError):
        Image(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        Image(np.full((3, 3), 1.5))
    with pytest.raises(ValueError):
        Image(np.full((3, 3), np.nan))
    img = Image(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1.0


def test_pgm_round_trip_is_exact_on_quantized_values(tmp_path):
    rng = np.random.default_rng(0)
    quantized = rng.integers(0, 256, (11, 7)).astype(np.float64) / 255.0
    img = Image(quantized)
    path = tmp_path / "img.pgm"
    save_image(img, path)
    back = load_image(path)
    assert np.array_equal(back.pixels, img.pixels)
    # a second save reproduces the file byte for byte
    path2 = tmp_path / "img2.pgm"
    save_image(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    quantized = rng.integers(0, 256, (5, 6, 3)).astype(np.float64) / 255.0
    path = tmp_path / "img.ppm"
    save_image(Image(quantized), path)
    back = load_image(path)
    assert back.channels == 3
    assert np.array_equal(back.pixels, quantized)


def test_save_rounds_half_up(tmp_path):
    # 0.5 * 255 = 127.5 -> byte 128
    img = Image(np.full((1, 1), 0.5))
    path = tmp_path / "half.pgm"
    save_image(img, path)
    assert path.read_bytes().endswith(bytes([128]))


def test_load_image_header_handling(tmp_path):
    path = tmp_path / "img.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
    img = load_image(path)
    assert img.height == 2 and img.width == 3
    assert img.pixels[1, 2] == 5 / 255.0

    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P4\n3 2\n255\n" + payload)
    with pytest.raises(ValueError, match="magic"):
        load_image(bad)
    bad.write_bytes(b"P5\n3 2\n65535\n" + payload)
    with pytest.raises(ValueError, match="maxval"):
        load_image(bad)
    bad.write_bytes(b"P5\n3 2\n255\n" + payload[:3])
    with pytest.raises(ValueError, match="truncated payload"):
        load_image(bad)


def oracle_anchors(width, height, k, n, seed):
    """The patch anchors image_pair_scatter must read: n tops, then n lefts,
    drawn uniformly from the ``image.masks`` stream of ``seed``."""
    rng = as_spec(seed).rng("image.masks")
    return rng.integers(0, height - k + 1, n), rng.integers(0, width - k + 1, n)


def oracle_projection(img, top, left, k):
    """The per-patch expression the projections must reproduce bit for bit."""
    patch = img.pixels[top : top + k, left : left + k]
    return float(np.sum(patch) / (k * k * img.channels))


def scatter_anchors(width, height, k, n, seed):
    """The anchors image_pair_scatter draws, read back off two ramps: the
    mean row (column) index of a patch is its top (left) plus (k - 1) / 2."""
    rows, cols = np.indices((height, width), dtype=np.float64)
    sc = image_pair_scatter(Image(rows / height), Image(cols / width), n=n, k=k, seed=seed)
    shift = (k - 1) / 2
    return np.rint(sc.a * height - shift).astype(int), np.rint(sc.b * width - shift).astype(int)


def test_sample_masks_bounds_and_determinism():
    tops, lefts = scatter_anchors(30, 20, 5, 200, SeedSpec(3))
    assert len(tops) == len(lefts) == 200
    assert 0 <= tops.min() and tops.max() <= 15
    assert 0 <= lefts.min() and lefts.max() <= 25
    again = scatter_anchors(30, 20, 5, 200, SeedSpec(3))
    assert np.array_equal(tops, again[0]) and np.array_equal(lefts, again[1])
    want = oracle_anchors(30, 20, 5, 200, SeedSpec(3))
    assert np.array_equal(tops, want[0]) and np.array_equal(lefts, want[1])


def test_patch_projection_hand_oracle():
    pix = np.zeros((4, 4))
    pix[0, 0] = 1.0
    pix[0, 1] = 0.5
    img = Image(pix)
    sc = image_pair_scatter(img, img, n=60, k=2, seed=SeedSpec(2))
    tops, lefts = oracle_anchors(4, 4, 2, 60, SeedSpec(2))
    # a 2x2 patch covers pixel (0, 0) only from anchor (0, 0), and pixel
    # (0, 1) from anchors (0, 0) and (0, 1); every other patch is black
    want = [((t, l) == (0, 0)) * 1.0 / 4 + (t == 0 and l <= 1) * 0.5 / 4 for t, l in zip(tops, lefts)]
    assert sc.a == pytest.approx(want)
    assert {(t, l) for t, l in zip(tops, lefts)} >= {(0, 0), (0, 1), (2, 2)}


def test_patch_projection_color_averages_channels():
    pix = np.zeros((2, 2, 3))
    pix[0, 0] = [1.0, 0.5, 0.0]
    img = Image(pix)
    sc = image_pair_scatter(img, img, n=20, k=1, seed=SeedSpec(1))
    tops, lefts = oracle_anchors(2, 2, 1, 20, SeedSpec(1))
    assert sc.a == pytest.approx([0.5 if (t, l) == (0, 0) else 0.0 for t, l in zip(tops, lefts)])
    assert (0, 0) in set(zip(tops, lefts))


def test_image_pair_scatter_shares_masks():
    base = synth_base_image(40, seed=SeedSpec(5))
    sc = image_pair_scatter(base, base, n=50, k=4, seed=SeedSpec(6))
    assert sc.n == 50
    assert np.array_equal(sc.a, sc.b)


# k = 1, k = 10, k = min(h, w), and a k past numpy's 8192-element reduction
# buffer (91 * 91 gray, 53 * 53 * 3 color), where summing many patches in
# one call stops matching the per-patch sum.
@pytest.mark.parametrize("shape, k", [
    ((100, 120), 1), ((100, 120), 10), ((100, 120), 91), ((100, 120), 100),
    ((60, 70, 3), 1), ((60, 70, 3), 10), ((60, 70, 3), 53), ((60, 70, 3), 60),
])
def test_projections_equal_the_per_patch_oracle(shape, k):
    rng = np.random.default_rng(k)
    x, y = Image(rng.random(shape)), Image(rng.random(shape))
    seed = SeedSpec(40 + k)
    anchors = list(zip(*oracle_anchors(shape[1], shape[0], k, 60, seed)))
    a = np.array([oracle_projection(x, t, l, k) for t, l in anchors])
    b = np.array([oracle_projection(y, t, l, k) for t, l in anchors])
    sc = image_pair_scatter(x, y, n=60, k=k, seed=seed)
    assert np.array_equal(sc.a, a) and np.array_equal(sc.b, b)


def test_patch_draws_keep_their_errors():
    x = Image(np.zeros((20, 30)))
    for k, n, message in ((0, 5, "k must be an integer of at least 1, got 0"),
                          (21, 5, "patch size 21 exceeds image dimensions 30x20"),
                          (5, 0, "n must be an integer of at least 2, got 0")):
        with pytest.raises(ValueError, match=message):
            image_pair_scatter(x, x, n=n, k=k)
    with pytest.raises(ValueError, match="images must have identical dimensions"):
        image_pair_scatter(x, Image(np.zeros((20, 31))), n=5, k=3)


def test_image_pair_direction_recovers_stylization():
    spec = SeedSpec(81)
    base = synth_base_image(120, seed=spec.child("base"))
    mech = random_mechanism(k=10, row_constant=True, g="tanh", seed=spec.child("mech"))
    styled, clip = synth_stylized_pair(base, mech, seed=spec.child("style"))
    assert clip < 0.05
    d = image_pair_direction(
        base, styled, n=1024, k=10,
        engine=AnmConfig(num_permutations=99, fit_fraction=0.75),
        seed=spec.child("dir"),
    )
    assert d.verdict is Verdict.X_TO_Y
    assert d.score > 0


def test_image_pair_direction_rejects_other_engines():
    base = synth_base_image(30, seed=SeedSpec(1))
    with pytest.raises(TypeError, match="engine"):
        image_pair_direction(base, base, n=10, k=3, engine="anm")


def test_order_from_matrix_chain_and_cycle():
    chain = np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    order, cyclic = order_from_matrix(chain)
    assert order == (0, 1, 2)
    assert not cyclic

    cycle = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    order, cyclic = order_from_matrix(cycle)
    assert cyclic
    assert order == (0, 1, 2)  # every frame wins once: index order

    with pytest.raises(ValueError):
        order_from_matrix(np.zeros((2, 3)))


def test_order_from_matrix_refuses_a_matrix_that_is_not_a_tournament():
    # two edges over four frames (1->3 and 2->0): four pairs have no verdict
    gaps = np.zeros((4, 4), dtype=int)
    gaps[1, 3] = gaps[2, 0] = 1
    both = np.array([[0, 1, 1], [1, 0, 1], [0, 0, 0]])  # 0->1 and 1->0
    diagonal = np.array([[1, 1, 1], [0, 0, 1], [0, 0, 0]])
    two = np.array([[0, 2, 1], [0, 0, 1], [0, 0, 0]])
    signed = np.array([[0, 2], [-1, 0]])  # sums to 1 over the pair
    for m in (gaps, both, diagonal, two, signed):
        with pytest.raises(ValueError, match="tournament"):
            order_from_matrix(m)


def _check_order_rule(m):
    """The order goes by descending wins, ties in index order.  Distinct
    win counts: not cyclic, and every verdict edge points forward in the
    order.  Otherwise: cyclic, and some three frames beat each other in a
    ring (a nonzero trace of m^3)."""
    order, cyclic = order_from_matrix(m)
    wins = m.sum(axis=1)
    assert order == tuple(sorted(range(len(m)), key=lambda i: (-wins[i], i)))
    assert isinstance(cyclic, bool)
    if len(set(wins.tolist())) == len(m):
        assert not cyclic
        place = np.argsort(order)
        assert all(place[i] < place[j] for i, j in zip(*np.nonzero(m)))
    else:
        assert cyclic
        assert np.trace(m @ m @ m) > 0


def _tournament(f, bits):
    """The f-frame tournament whose pair (i, j), i < j, in row order, goes i->j iff its bit is 1."""
    m = np.zeros((f, f), dtype=np.int64)
    for (i, j), bit in zip(itertools.combinations(range(f), 2), bits):
        m[i, j], m[j, i] = bit, 1 - bit
    return m


def test_order_rule_on_every_small_tournament():
    count = 0
    for f in range(2, 6):
        for bits in itertools.product((0, 1), repeat=f * (f - 1) // 2):
            _check_order_rule(_tournament(f, bits))
            count += 1
    assert count == 1098


def _drawn_tournaments(f):
    pairs = f * (f - 1) // 2
    return st.lists(st.integers(0, 1), min_size=pairs, max_size=pairs).map(lambda bits: _tournament(f, bits))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12).flatmap(_drawn_tournaments))
def test_order_rule_on_drawn_tournaments(m):
    _check_order_rule(m)


def test_frames_order_on_diffusion_sequence():
    frames = synth_diffusion_frames(60, 4, seed=SeedSpec(9))
    res = frames_order(
        frames, n=400, k=6,
        engine=AnmConfig(num_permutations=99, fit_fraction=0.75),
        seed=SeedSpec(10),
    )
    assert res.order == (0, 1, 2, 3)
    assert not res.cyclic
    f = len(frames)
    for i in range(f):
        assert res.matrix[i, i] == 0
        for j in range(i + 1, f):
            assert res.matrix[i, j] + res.matrix[j, i] == 1


def test_frames_order_jobs_do_not_change_result():
    frames = synth_diffusion_frames(60, 3, seed=SeedSpec(11))
    cfg = AnmConfig(num_permutations=99, fit_fraction=0.75)
    serial = frames_order(frames, n=300, k=6, engine=cfg, seed=SeedSpec(12), jobs=1)
    for jobs in (2, len(os.sched_getaffinity(0)) + 1):
        parallel = frames_order(frames, n=300, k=6, engine=cfg, seed=SeedSpec(12), jobs=jobs)
        assert serial.order == parallel.order
        assert np.array_equal(serial.matrix, parallel.matrix)
    for jobs in (0, -1, 2.5):
        with pytest.raises(ValueError, match="jobs"):
            frames_order(frames, n=300, k=6, engine=cfg, seed=SeedSpec(12), jobs=jobs)


def test_frames_order_validation():
    a = synth_base_image(30, seed=SeedSpec(13))
    b = synth_base_image(40, seed=SeedSpec(14))
    with pytest.raises(ValueError, match="at least two"):
        frames_order([a])
    with pytest.raises(ValueError, match="dimensions"):
        frames_order([a, b])


def test_frames_order_error_names_the_frame_pair():
    """A pair that cannot be judged cannot be left out of an order, so its
    error names the two frames; the lowest failing pair is the one named."""
    frames = [Image(np.full((32, 32), 0.5)) for _ in range(3)]
    for jobs in (1, 2):
        with pytest.raises(ValueError, match=r"^frames 0 and 1: constant variable$"):
            frames_order(frames, n=64, k=4, jobs=jobs)


header_tokens = st.sampled_from([b"P5", b"P6", b"P4", b"2", b"3", b"0", b"255", b"256", b"-1", b"+2", b"9" * 30, b"x"])
separators = st.sampled_from([b" ", b"\n", b"\t", b"#c\n", b"", b" #", b"\r\n"])


@st.composite
def image_files(draw):
    """PGM/PPM bytes: arbitrary bytes, or a header of plausible and broken
    tokens followed by a payload of random length."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=40))
    tokens = [draw(st.sampled_from([b"P5", b"P6"]) | header_tokens)]
    tokens += [draw(st.sampled_from([b"2", b"3"]) | header_tokens) for _ in range(2)]
    tokens.append(draw(st.sampled_from([b"255"]) | header_tokens))
    tokens = tokens[: draw(st.integers(0, 4))] if draw(st.integers(0, 5)) == 0 else tokens
    data = b"".join(tok + draw(separators) for tok in tokens)
    return data + draw(st.binary(max_size=30))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(data=image_files())
def test_image_loader_gives_an_image_or_value_error(fuzz_dir, data):
    path = fuzz_dir / "image.pgm"
    path.write_bytes(data)
    try:
        img = load_image(path)
    except ValueError:
        return
    assert img.channels in (1, 3) and img.height >= 1 and img.width >= 1
    assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0
