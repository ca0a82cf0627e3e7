"""Pinned outputs that must hold byte-for-byte across implementations.

The values were recorded with the direct permutation loop (every permuted
HSIC statistic summed from the full Gram matrices).  A faster or smaller
implementation has to reproduce them exactly: a single permutation count
that moves changes a p-value, and with it a score's repr.
"""

import numpy as np

from proxycause import proxy_image
from proxycause.anm import AnmConfig, anm_direction
from proxycause.experiments import synth_anm_pair, synth_diffusion_frames

MECHANISMS = ("cubic", "tanh", "piecewise", "linear")

# (repr(verdict), repr(score)) of anm_direction on scatter i: n=500,
# MECHANISMS[i % 4], noise alternating gaussian/uniform, data seed 700 + i,
# engine seed 800 + i, 199 permutations.
SCATTERS = [
    ("<Verdict.Y_TO_X: 'y->x'>", "4.820281565605036"),
    ("<Verdict.Y_TO_X: 'y->x'>", "4.736198448394495"),
    ("<Verdict.Y_TO_X: 'y->x'>", "3.3672958299864737"),
    ("<Verdict.X_TO_Y: 'x->y'>", "0.5335170349680615"),
    ("<Verdict.X_TO_Y: 'x->y'>", "3.737669618283368"),
    ("<Verdict.X_TO_Y: 'x->y'>", "2.0668627594729756"),
    ("<Verdict.Y_TO_X: 'y->x'>", "4.836281906951478"),
    ("<Verdict.X_TO_Y: 'x->y'>", "0.11122563511022454"),
    ("<Verdict.Y_TO_X: 'y->x'>", "5.093750200806762"),
    ("<Verdict.Y_TO_X: 'y->x'>", "4.51085950651685"),
    ("<Verdict.Y_TO_X: 'y->x'>", "4.394449154672438"),
    ("<Verdict.X_TO_Y: 'x->y'>", "0.5139457511022344"),
]

# The criterion-4 stack at seed 0 (n=512, k=10, 4999 permutations, fit
# 0.75): (repr(verdict), repr(score)) of each frame pair (i, j), i < j,
# in row-major order, then the verdict matrix and the recovered order.
FRAME_PAIRS = [
    ("<Verdict.X_TO_Y: 'x->y'>", "4.262679877041316"),
    ("<Verdict.X_TO_Y: 'x->y'>", "4.759320865815351"),
    ("<Verdict.X_TO_Y: 'x->y'>", "4.8828019225863715"),
    ("<Verdict.X_TO_Y: 'x->y'>", "3.8712010109078916"),
    ("<Verdict.Y_TO_X: 'y->x'>", "7.09257371597468"),
    ("<Verdict.Y_TO_X: 'y->x'>", "4.072604575585695"),
    ("<Verdict.X_TO_Y: 'x->y'>", "6.8731638342125185"),
    ("<Verdict.Y_TO_X: 'y->x'>", "3.29583686600433"),
    ("<Verdict.X_TO_Y: 'x->y'>", "7.574558484202481"),
    ("<Verdict.X_TO_Y: 'x->y'>", "4.391441633608483"),
    ("<Verdict.Y_TO_X: 'y->x'>", "7.166265974133639"),
    ("<Verdict.Y_TO_X: 'y->x'>", "7.522400231387126"),
    ("<Verdict.X_TO_Y: 'x->y'>", "5.278114659230518"),
    ("<Verdict.X_TO_Y: 'x->y'>", "6.415096959171596"),
    ("<Verdict.X_TO_Y: 'x->y'>", "2.564949357461537"),
    ("<Verdict.Y_TO_X: 'y->x'>", "7.404279118037269"),
    ("<Verdict.Y_TO_X: 'y->x'>", "3.891820298110628"),
    ("<Verdict.X_TO_Y: 'x->y'>", "6.801283034471621"),
    ("<Verdict.Y_TO_X: 'y->x'>", "1.1278114433603719"),
    ("<Verdict.Y_TO_X: 'y->x'>", "7.43248380791712"),
    ("<Verdict.Y_TO_X: 'y->x'>", "6.854354502255022"),
    ("<Verdict.X_TO_Y: 'x->y'>", "0.8184048906330343"),
    ("<Verdict.Y_TO_X: 'y->x'>", "0.6931471805599463"),
    ("<Verdict.Y_TO_X: 'y->x'>", "7.769378609513985"),
    ("<Verdict.X_TO_Y: 'x->y'>", "3.891820298110628"),
    ("<Verdict.X_TO_Y: 'x->y'>", "3.206627202792002"),
    ("<Verdict.X_TO_Y: 'x->y'>", "6.863803391452955"),
    ("<Verdict.X_TO_Y: 'x->y'>", "6.587550014824797"),
]
FRAME_MATRIX = [
    [0, 1, 1, 1, 1, 0, 0, 1],
    [0, 0, 0, 1, 1, 0, 0, 1],
    [0, 1, 0, 1, 1, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 1, 0, 0, 0, 1],
    [1, 1, 1, 1, 1, 0, 1, 1],
    [1, 1, 1, 1, 1, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0],
]
FRAME_ORDER = (5, 6, 0, 2, 1, 4, 3, 7)


def test_anm_scatter_outputs_are_pinned():
    cfg = AnmConfig(num_permutations=199)
    got = []
    for i in range(12):
        sample, _ = synth_anm_pair(
            500, mechanism=MECHANISMS[i % 4], noise=("gaussian", "uniform")[i % 2], seed=700 + i
        )
        d = anm_direction(sample, cfg, seed=800 + i)
        got.append((repr(d.verdict), repr(d.score)))
    assert got == SCATTERS


def test_frames_order_outputs_are_pinned(monkeypatch):
    frames = synth_diffusion_frames(256, num_frames=8, seed=0)
    shuffle = np.random.default_rng(0).permutation(len(frames))
    stack = [frames[int(t)] for t in shuffle]

    # jobs=1 judges the pairs in row-major order, so the recorded list
    # lines up with FRAME_PAIRS.
    pairs = []
    judge = proxy_image.image_pair_direction

    def recording_judge(*args, **kwargs):
        d = judge(*args, **kwargs)
        pairs.append((repr(d.verdict), repr(d.score)))
        return d

    monkeypatch.setattr(proxy_image, "image_pair_direction", recording_judge)
    engine = AnmConfig(num_permutations=4999, fit_fraction=0.75)
    result = proxy_image.frames_order(stack, n=512, k=10, engine=engine, seed=0, jobs=1)
    assert pairs == FRAME_PAIRS
    assert result.matrix.tolist() == FRAME_MATRIX
    assert result.order == FRAME_ORDER
    assert result.cyclic is False
