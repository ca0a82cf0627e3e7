"""Image IO, patch proxies, and frame ordering."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxycause.anm import AnmConfig
from proxycause.core import SeedSpec, Verdict
from proxycause.experiments import (
    random_mechanism,
    synth_base_image,
    synth_diffusion_frames,
    synth_stylized_pair,
)
from proxycause.proxy_image import (
    Image,
    PatchMask,
    frames_order,
    image_pair_direction,
    image_pair_scatter,
    load_image,
    order_from_matrix,
    patch_projection,
    sample_masks,
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


def test_sample_masks_bounds_and_determinism():
    masks = sample_masks(30, 20, 5, 200, seed=SeedSpec(3))
    assert len(masks) == 200
    for m in masks:
        assert 0 <= m.top <= 15
        assert 0 <= m.left <= 25
        assert m.size == 5
    again = sample_masks(30, 20, 5, 200, seed=SeedSpec(3))
    assert masks == again
    with pytest.raises(ValueError):
        sample_masks(4, 4, 5, 10)
    with pytest.raises(ValueError):
        sample_masks(30, 20, 5, 0)


def test_patch_projection_hand_oracle():
    pix = np.zeros((4, 4))
    pix[0, 0] = 1.0
    pix[0, 1] = 0.5
    img = Image(pix)
    assert patch_projection(img, PatchMask(0, 0, 2)) == pytest.approx(1.5 / 4)
    assert patch_projection(img, PatchMask(2, 2, 2)) == 0.0
    with pytest.raises(ValueError, match="out of bounds"):
        patch_projection(img, PatchMask(3, 3, 2))


def test_patch_projection_color_averages_channels():
    pix = np.zeros((2, 2, 3))
    pix[0, 0] = [1.0, 0.5, 0.0]
    img = Image(pix)
    assert patch_projection(img, PatchMask(0, 0, 1)) == pytest.approx(0.5)


def test_image_pair_scatter_shares_masks():
    base = synth_base_image(40, seed=SeedSpec(5))
    sc = image_pair_scatter(base, base, n=50, k=4, seed=SeedSpec(6))
    assert sc.n == 50
    assert np.array_equal(sc.a, sc.b)


def oracle_projection(img, mask):
    """The per-patch expression the projections must reproduce bit for bit."""
    patch = img.pixels[mask.top : mask.top + mask.size, mask.left : mask.left + mask.size]
    return float(np.sum(patch) / (mask.size * mask.size * img.channels))


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
    # sample_masks draws the anchors the scatter reads
    masks = sample_masks(shape[1], shape[0], k, 60, seed)
    a = np.array([oracle_projection(x, m) for m in masks])
    b = np.array([oracle_projection(y, m) for m in masks])
    sc = image_pair_scatter(x, y, n=60, k=k, seed=seed)
    assert np.array_equal(sc.a, a) and np.array_equal(sc.b, b)
    assert [patch_projection(x, m) for m in masks] == a.tolist()
    assert [patch_projection(y, m) for m in masks] == b.tolist()


def test_patch_draws_keep_their_errors():
    x = Image(np.zeros((20, 30)))
    for k, n, message in ((0, 5, "patch size must be positive"),
                          (21, 5, "patch size 21 exceeds image dimensions 30x20"),
                          (5, 0, "need at least one mask")):
        with pytest.raises(ValueError, match=message):
            sample_masks(30, 20, k, n)
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
    assert order == (0, 1, 2)  # all Copeland scores 0, stable by index

    with pytest.raises(ValueError):
        order_from_matrix(np.zeros((2, 3)))


def test_order_from_matrix_prefers_lexicographic_topo_order():
    # two connected components: 1->3 and 2->0; many valid orders exist
    m = np.zeros((4, 4), dtype=int)
    m[1, 3] = 1
    m[2, 0] = 1
    order, cyclic = order_from_matrix(m)
    assert not cyclic
    assert order == (1, 2, 0, 3)


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
