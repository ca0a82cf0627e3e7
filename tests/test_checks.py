"""Argument checks: the one count rule, the one seed rule, and the checks
of the public constructors."""

import re

import numpy as np
import pytest

from proxycause.anm import AnmConfig, Regressor, kernel_ridge_fit, residuals
from proxycause.core import SeedSpec, parallel_map
from proxycause.experiments import (
    LocalMechanism,
    _check_splits,
    binomial_significance,
    random_mechanism,
    synth_anm_pair,
    synth_base_image,
    synth_diffusion_frames,
    synth_stylized_pair,
)
from proxycause.independence import KernelSpec, hsic_pvalue
from proxycause.proxy_image import Image, image_pair_scatter
from proxycause.proxy_text import EmbeddingModel, VocabSample, build_index, sgns_train, vocab_sample
from proxycause.rcc import Forest, RCCModel, RFFSpec, forest_train


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "c.txt"
    path.write_text("a b c\nb c a\nc a b d\n")
    return path


LEAF = {"feature": np.array([-1]), "threshold": np.array([0.0]), "left": np.array([-1]),
        "right": np.array([-1]), "vote": np.array([0.5])}
X = np.random.default_rng(3).normal(size=(12, 2))
Y = np.where(X[:, 0] > 0, 1, -1)
U = np.arange(10.0)
IMG = Image(np.zeros((6, 6)))

# (argument name, its floor, the call that passes it the value v).
COUNTS = {
    "parallel_map": ("jobs", 1, lambda v, _: parallel_map(abs, [1, 2], v)),
    "AnmConfig": ("num_permutations", 99, lambda v, _: AnmConfig(num_permutations=v)),
    "hsic_pvalue": ("num_permutations", 99, lambda v, _: hsic_pvalue(U, U[::-1], num_permutations=v)),
    "image_pair_scatter-n": ("n", 2, lambda v, _: image_pair_scatter(IMG, IMG, n=v, k=3)),
    "image_pair_scatter-k": ("k", 1, lambda v, _: image_pair_scatter(IMG, IMG, n=4, k=v)),
    "synth_anm_pair": ("n", 20, lambda v, _: synth_anm_pair(v)),
    "LocalMechanism": ("k", 1, lambda v, _: LocalMechanism(v, np.ones((1, 1)), True, "identity", 0.0)),
    "random_mechanism": ("k", 1, lambda v, _: random_mechanism(k=v)),
    "synth_base_image": ("size", 2, lambda v, _: synth_base_image(v)),
    "synth_diffusion_frames-size": ("size", 1, lambda v, _: synth_diffusion_frames(v, num_frames=2)),
    "synth_diffusion_frames-num_frames": ("num_frames", 2, lambda v, _: synth_diffusion_frames(16, num_frames=v)),
    "binomial_significance": ("n", 1, lambda v, _: binomial_significance(0.5, v)),
    "repeats": ("repeats", 1, lambda v, _: _check_splits(0.75, v)),
    "vocab_sample": ("n", 2, lambda v, corpus: vocab_sample(build_index(corpus), v)),
    "sgns_train-d": ("d", 2, lambda v, corpus: sgns_train(corpus, d=v, epochs=1)),
    "sgns_train-epochs": ("epochs", 1, lambda v, corpus: sgns_train(corpus, d=2, epochs=v)),
    "sgns_train-window": ("window", 1, lambda v, corpus: sgns_train(corpus, d=2, epochs=1, window=v)),
    "sgns_train-negatives": ("negatives", 0, lambda v, corpus: sgns_train(corpus, d=2, epochs=1, negatives=v)),
    "RFFSpec-num_features": ("num_features", 1, lambda v, _: RFFSpec(seed=0, num_features=v)),
    "RFFSpec-seed": ("seed", 0, lambda v, _: RFFSpec(seed=v)),
    "SeedSpec": ("seed", 0, lambda v, _: SeedSpec(v)),
    "Forest-num_trees": ("num_trees", 1, lambda v, _: Forest(num_trees=v, trees=(LEAF,), num_features=1)),
    "Forest-num_features": ("num_features", 1, lambda v, _: Forest(num_trees=1, trees=(LEAF,), num_features=v)),
    "forest_train-num_trees": ("num_trees", 1, lambda v, _: forest_train(X, Y, num_trees=v)),
    "forest_train-min_leaf": ("min_leaf", 1, lambda v, _: forest_train(X, Y, num_trees=1, min_leaf=v)),
}


@pytest.mark.parametrize("site", COUNTS)
def test_every_count_takes_the_one_count_rule(site, corpus):
    """A fraction, a bool and one below the floor each raise the one
    message naming the argument; a numpy integer at the floor passes."""
    name, least, call = COUNTS[site]
    for bad in (2.5, True, least - 1):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer of at least {least}, got {bad!r}")):
            call(bad, corpus)
    call(np.int64(least), corpus)


@pytest.mark.parametrize("seed", [2.5, True, "7", -1, None])
def test_a_seed_is_a_whole_number_and_never_truncated(seed):
    for make in (SeedSpec, lambda s: RFFSpec(seed=s), lambda s: synth_anm_pair(30, seed=s)):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer of at least 0, got {seed!r}")):
            make(seed)


@pytest.mark.parametrize("build, message", [
    (lambda: Image(np.zeros((0, 4))), "image must have at least one pixel"),
    (lambda: VocabSample(("a", "b", "a")), "vocabulary sample has duplicate words"),
    (lambda: VocabSample(("a",)), "vocabulary sample needs at least 2 words"),
    (lambda: EmbeddingModel(("a", "b"), np.zeros((2, 3)), np.zeros((2, 4))),
     "embedding tables must cover the same vocabulary"),
    (lambda: RCCModel(RFFSpec(seed=0, num_features=2), Forest(num_trees=1, trees=(LEAF,), num_features=5)),
     "forest width must be 3x the embedding block size"),
    (lambda: Regressor(np.zeros(4), np.zeros(3), KernelSpec(1.0)), "coefficient count must equal training-input count"),
    (lambda: kernel_ridge_fit(np.arange(12.0), np.arange(11.0)), "length mismatch: 12 vs 11"),
    (lambda: residuals(kernel_ridge_fit(U, U), U, U[:9]), "length mismatch: 10 vs 9"),
    (lambda: synth_stylized_pair(Image(np.zeros((4, 4, 3))), random_mechanism(k=2)),
     "stylization expects a grayscale image"),
], ids=["image-no-rows", "vocab-duplicate", "vocab-one-word", "embedding-shapes", "rcc-width",
        "regressor-coefficients", "kernel-ridge-lengths", "residuals-lengths", "stylize-color"])
def test_public_constructors_reject_inconsistent_parts(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
