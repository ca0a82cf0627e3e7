"""Pinned outputs that must hold byte-for-byte across implementations.

The ANM values were recorded with the direct permutation loop (every
permuted HSIC statistic summed from the full Gram matrices).  A faster or
smaller implementation has to reproduce them exactly: a single permutation
count that moves changes a p-value, and with it a score's repr.  The forest
values were recorded with the per-feature split loop and the per-tree
prediction walk, and the embedding tables with the per-position SGNS loop.
"""

import contextlib
import hashlib
import io
import os

import numpy as np
import pytest

from proxycause import cli, proxy_image
from proxycause.anm import AnmConfig, anm_direction
from proxycause.core import LabeledScatterDataset, save_dataset, save_scatter
from proxycause.experiments import bundled_data_path, synth_anm_pair, synth_diffusion_frames
from proxycause.proxy_text import build_index, load_index, save_index, sgns_train
from proxycause.rcc import rcc_predict, rcc_train, save_model

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


# rcc_train on 40 scatters (n=120, MECHANISMS[i % 4], noise alternating
# gaussian/uniform, data seed 900 + i) with m=30, 12 trees, seed 31: the
# bandwidth repr, then per tree the SHA-256 of its feature, threshold,
# left, right and vote arrays in that order.
RCC_BANDWIDTH = "0.9551337244114555"
RCC_TREES = [
    "dff27dec98a21f156fdc3e8182a9651127dacb2c07b9144f1f038938a9e0492d",
    "c410f3b9d40f17224f02656e82cf46c85b51ff0089ffc3e766585a288356edad",
    "b0a20a55d93b03042e2f10ab9b0cb91f3cef1495d0b5c5e9a853a4e80acc9c20",
    "0a3ea955b7e069757f6941577c85463c359322b156321e81720bd8261150407c",
    "9eea821968b3e750e6b34654d04806886d99d3c30fbd60f13738c195e88b5316",
    "c95f3ef1f1d2f251a1da51a3cec3453d32a05e30b74ddae94c06263893deb098",
    "fe3ffcb2023b227e10e895bde6917cfddb890f2945fb1a7d655724f0f921a856",
    "10a983eca244d5be521593a3870917f2be8e2c1a4367c4fa7ff739739e581a1b",
    "1b74a0a0ec0d8bdf91438ae460e67523525a0b51447015b54ff68715fc892882",
    "563b9783d3d9f1ace9724eabd4a85c1234e1441ba8d2662f4e1d860818c74444",
    "c6fba88c5e60bf9d91313c04e6660d9afec35cdbf26684928d7077e69a6ba9cc",
    "229d5e915af344e56cb2dcc0077afb4cd3eb0f8865c05902e5e8cfb6c16e0db9",
]

# (repr(verdict), repr(score)) of rcc_predict with that model on probe i:
# n=120, MECHANISMS[i % 4], noise alternating uniform/gaussian, seed 950 + i.
RCC_PROBES = [
    ("<Verdict.Y_TO_X: 'y->x'>", "0.16666666666666663"),
    ("<Verdict.Y_TO_X: 'y->x'>", "0.33333333333333337"),
    ("<Verdict.Y_TO_X: 'y->x'>", "0.8333333333333334"),
    ("<Verdict.X_TO_Y: 'x->y'>", "0.5"),
    ("<Verdict.Y_TO_X: 'y->x'>", "0.6666666666666667"),
    ("<Verdict.Y_TO_X: 'y->x'>", "0.33333333333333337"),
    ("<Verdict.X_TO_Y: 'x->y'>", "0.5"),
    ("<Verdict.Y_TO_X: 'y->x'>", "0.16666666666666663"),
    ("<Verdict.Y_TO_X: 'y->x'>", "0.8333333333333334"),
    ("<Verdict.Y_TO_X: 'y->x'>", "0.5"),
]


def _tree_digest(tree):
    h = hashlib.sha256()
    for name in ("feature", "threshold", "left", "right", "vote"):
        h.update(np.ascontiguousarray(tree[name]).tobytes())
    return h.hexdigest()


def test_rcc_forest_and_verdicts_are_pinned():
    items = tuple(
        synth_anm_pair(120, mechanism=MECHANISMS[i % 4], noise=("gaussian", "uniform")[i % 2], seed=900 + i)
        for i in range(40)
    )
    model = rcc_train(LabeledScatterDataset(items), num_features=30, num_trees=12, seed=31)
    assert repr(model.rff.bandwidth) == RCC_BANDWIDTH
    assert [_tree_digest(t) for t in model.forest.trees] == RCC_TREES
    got = []
    for i in range(10):
        sample, _ = synth_anm_pair(
            120, mechanism=MECHANISMS[i % 4], noise=("uniform", "gaussian")[i % 2], seed=950 + i
        )
        d = rcc_predict(model, sample)
        got.append((repr(d.verdict), repr(d.score)))
    assert got == RCC_PROBES


# SHA-256 of input_matrix.tobytes() + output_matrix.tobytes() for
# sgns_train on the bundled corpus with d=16, 1 epoch, window 3, 3
# negatives and seed 7.
SGNS_TABLES = "c47c7eced0c9fdae6a31cb6c11be97573245620f23d9e14ae1ee2d2595928a6f"


def test_sgns_tables_are_pinned():
    emb = sgns_train(bundled_data_path("mini_corpus.txt"), d=16, epochs=1, window=3, negatives=3, seed=7)
    digest = hashlib.sha256(emb.input_matrix.tobytes() + emb.output_matrix.tobytes()).hexdigest()
    assert digest == SGNS_TABLES


# SHA-256 of the file save_index writes for the bundled corpus: the
# corpus-index format the CLI's --index reads.
SAVED_INDEX = "0f21be02728db93397358cb9e1a29911826424ad10f7d2fe0fa378a82f24cdaf"


def test_saved_index_bytes_are_pinned(tmp_path):
    path, again = tmp_path / "index.json", tmp_path / "again.json"
    save_index(build_index(bundled_data_path("mini_corpus.txt")), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_INDEX
    save_index(load_index(path), again)
    assert again.read_bytes() == path.read_bytes()


# SHA-256 of the CLI's standard output for one run of each pooled
# subcommand, recorded with the serial loop.  Every --jobs value must give
# the same bytes: 1, 2, and more jobs than the machine has CPUs.
CLI_STDOUT = {
    "nlp-eval": "2ac34ca51cf721151cc1b2a2bbb6c17eee254d65933db9680fcd950e06084a2b",
    "baselines": "3dbe5af3a6ba2da8747f0f3b4a02aaf2b2168e04e8bbeeeb07f613540b9e30f0",
    "frames-order": "6316801cfd25c987537cd72f5cdf6a63d7d46282f44982c6f5208a91974c8c48",
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_golden")
    paths = {
        "vi": str(tmp / "vi.txt"),
        "vo": str(tmp / "vo.txt"),
        "index": str(tmp / "index.json"),
        "frames": str(tmp / "frames"),
    }
    corpus = bundled_data_path("mini_corpus.txt")
    for argv in (
        ["embed-train", "--corpus", corpus, "--d", "8", "--epochs", "1", "--seed", "2",
         "--out-input", paths["vi"], "--out-output", paths["vo"]],
        ["index-corpus", "--corpus", corpus, "--out", paths["index"]],
        ["synth", "--what", "frames", "--size", "32", "--frames", "5", "--seed", "2",
         "--out-dir", paths["frames"]],
    ):
        assert _cli_stdout(argv)[0] == 0
    return paths


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_argv(name, paths):
    pairs = bundled_data_path("word_pairs.csv")
    if name == "nlp-eval":
        return [
            "nlp-eval", "--pairs", pairs, "--index", paths["index"],
            "--emb-input", paths["vi"], "--emb-output", paths["vo"],
            "--min-votes", "14", "--kinds", "all",
            "--methods", "distribution,feature,baselines,curve",
            "--trees", "8", "--m", "10", "--repeats", "2", "--n-vocab", "60", "--seed", "3",
        ]
    if name == "baselines":
        return [
            "baselines", "--pairs", pairs, "--index", paths["index"],
            "--min-votes", "14", "--kinds", "all", "--n-vocab", "80",
        ]
    return [
        "frames-order", "--dir", paths["frames"], "--n", "150", "--k", "5",
        "--permutations", "99", "--seed", "4",
    ]


@pytest.mark.parametrize("name", sorted(CLI_STDOUT))
def test_cli_stdout_is_pinned_for_any_jobs(name, cli_inputs):
    for jobs in (1, 2, len(os.sched_getaffinity(0)) + 1):
        code, out = _cli_stdout(_cli_argv(name, cli_inputs) + ["--jobs", str(jobs)])
        assert code == 0, (name, jobs)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_STDOUT[name], (name, jobs)


# SHA-256 of frames-order's standard output at full depth (n=512, k=10,
# 4999 permutations, the sizes of the frames benchmark) on the 64-px,
# 8-frame stack that synth writes at seed 5.  Recorded with one
# patch_projection call per patch and a copied permutation schedule.
FULL_FRAMES_ORDER = "724ee9c9edcda916dddbc36f48db114b38381c533d8ab16cc453f464e26c4bba"


def test_full_depth_frames_order_stdout_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PROXYCAUSE_SEED", raising=False)
    synth = ["synth", "--what", "frames", "--size", "64", "--frames", "8", "--seed", "5", "--out-dir", "frames"]
    assert _cli_stdout(synth)[0] == 0
    argv = ["frames-order", "--dir", "frames", "--n", "512", "--k", "10", "--permutations", "4999", "--seed", "5"]
    for jobs in (1, 2):
        code, out = _cli_stdout(argv + ["--jobs", str(jobs)])
        assert code == 0, jobs
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FULL_FRAMES_ORDER, jobs


# SHA-256 of the CLI's standard output for one run of every other
# subcommand at criterion-8 sizes, recorded before the option table and
# the engine ``judge`` method.  Each case runs in its own empty directory
# with relative paths, so the paths echoed in the JSON are the same on
# every machine; the argv lists before it build that case's inputs.
TINY_CORPUS = (
    "rain made the street wet\n"
    "rain again today\n"
    "wet street and wind\n"
    "wind made waves\n"
    "waves on the water\n"
    "sun after rain\n"
    "storms bring heavy rain and thunder\n"
    "clouds cover the sky before storms\n"
    "wind drives the clouds fast\n"
    "the water rose over the banks\n"
)
_INDEX = ["index-corpus", "--corpus", "corpus.txt", "--out", "index.json"]
_MODEL = ["model", "train", "--data", "train.jsonl", "--out", "model.json", "--m", "10", "--trees", "20", "--seed", "4"]
_STYLIZED = [
    "synth", "--what", "stylized", "--size", "40", "--k", "10", "--seed", "6",
    "--out-x", "x.pgm", "--out-y", "y.pgm",
]
_WORD_PAIR = [
    "word-pair", "--x", "rain", "--y", "wet", "--kind", "counts", "--index", "index.json",
    "--n-vocab", "20", "--seed", "3",
]
_IMAGE_PAIR = ["image-pair", "--x", "x.pgm", "--y", "y.pgm", "--n", "200", "--k", "10", "--seed", "6"]
CLI_RUNS = {
    "index-corpus": ([], _INDEX),
    "embed-train": ([], [
        "embed-train", "--corpus", "corpus.txt", "--d", "8", "--epochs", "1", "--seed", "2",
        "--out-input", "vi.txt", "--out-output", "vo.txt",
    ]),
    "word-pair-anm": ([_INDEX], _WORD_PAIR + ["--permutations", "99"]),
    "word-pair-model": ([_INDEX, _MODEL], _WORD_PAIR + ["--engine", "model", "--model", "model.json"]),
    "image-pair-anm": ([_STYLIZED], _IMAGE_PAIR + ["--permutations", "99"]),
    "image-pair-model": ([_STYLIZED, _MODEL], _IMAGE_PAIR + ["--engine", "model", "--model", "model.json"]),
    "synth-scatter": ([], ["synth", "--what", "scatter", "--n", "60", "--seed", "3", "--out", "pair.jsonl"]),
    "synth-stylized": ([], _STYLIZED),
    "synth-frames": ([], ["synth", "--what", "frames", "--size", "24", "--frames", "3", "--seed", "1", "--out-dir", "frames"]),
    "significance": ([], ["significance", "--accuracy", "0.75", "--n", "40"]),
    "model-train": ([], _MODEL),
    "model-predict": ([_MODEL], ["model", "predict", "--model", "model.json", "--sample", "probe.jsonl"]),
    "model-inspect": ([_MODEL], ["model", "inspect", "--model", "model.json"]),
    # Only the required options and input files, recorded while each handler
    # still held its own defaults: every other value is a default (seed 0,
    # n 1024 or 500, size 80 or 64, ...), so these pin the option table.
    "image-pair-defaults": ([_STYLIZED], ["image-pair", "--x", "x.pgm", "--y", "y.pgm"]),
    "synth-scatter-defaults": ([], ["synth", "--what", "scatter"]),
    "synth-stylized-defaults": ([], ["synth", "--what", "stylized", "--out-x", "x.pgm", "--out-y", "y.pgm"]),
    "synth-frames-defaults": ([], ["synth", "--what", "frames", "--out-dir", "frames"]),
    "model-train-defaults": ([], ["model", "train", "--data", "train.jsonl", "--out", "model.json"]),
    "word-pair-defaults": ([], ["word-pair", "--corpus", "corpus.txt", "--x", "rain", "--y", "wet"]),
}
CLI_RUN_STDOUT = {
    "embed-train": "2a0f3de5d5f14954285c947cf70f70e1d7ba6ac4c6e54ff0a8ee41c48c4e4120",
    "image-pair-anm": "d0f58d251db412eb75073f8006c6f26609bde464fb3f012bc99d07fd3a44c1f9",
    "image-pair-defaults": "64a9ff3d2c71c829ed4bcfeff11fe51a6f17c588f3bc0102f674894044d24928",
    "image-pair-model": "84b491c4becb0e98e057d8ef2cb00ea006186d5294c8071d2e0bfefe6fba150e",
    "index-corpus": "80327e9ec1f20ab7cc0fedb1def8548cc67a5a74d6600b22e58e6b938f564799",
    "model-inspect": "3f7c0ad47b0f0c0e492b69b0c7caf0f4801115a15aacc0cc54c63f2c9cd95e22",
    "model-predict": "b8f5126eb6559eb2e80a3fbf7c0aed4a8156cfa4450a6bc5026be4db4d5a5fa9",
    "model-train": "ac8aa6cff8510639f68db14a79ad66c6a128233010326d29f57045facc5934ab",
    "model-train-defaults": "5ad727c37863cc099e233e5839baca6b76d44ffd5417bac9826f39b52b9e3ae4",
    "significance": "448baeb6f9b6bee1213c41afbc67012b09b47fe34aa19cd450bed422abec9791",
    "synth-frames": "05570507162e7e303fb7452f4e1bf3476ac8be28bdbb09d0df17b612b9c7cde5",
    "synth-frames-defaults": "fe3830ed215b43eeea6bd07f5240d19dc5651371fa821ef01aac24b7dc8caadb",
    "synth-scatter": "dfca8077e5d2a25501549b64c801302ac464ff4113cec9189094ce1853217183",
    "synth-scatter-defaults": "be17751a28e7710b1d6e3bdc0537b86544d516f2147fd1ba454926a01ccac660",
    "synth-stylized": "9b3ee9ad7d811034bce320692d541dd14675052e652f6acb1226caaa040ff870",
    "synth-stylized-defaults": "b27c88544382b721e88466a0b8951feb4d773b87fc934a393e590369023accae",
    "word-pair-anm": "61f2a8ae733fedd0b79fb5581598a9874e45a91ed53bf803835e0f6dc655e649",
    "word-pair-defaults": "e8448b6f374882e7d14d19a709fe9165492d9cb4dce100c89155a1df2341fdd9",
    "word-pair-model": "11ce915808957ed0785a88b4916d128320afb88ffb4eb880110ae15f41d35433",
}


def _write_run_inputs():
    """The corpus, the training set and the probe every case may read."""
    with open("corpus.txt", "w", encoding="utf-8") as fh:
        fh.write(TINY_CORPUS)
    items = [synth_anm_pair(40, seed=400 + i) for i in range(12)]
    save_dataset(LabeledScatterDataset(tuple(items)), "train.jsonl")
    save_scatter(items[0][0], "probe.jsonl")
    return items


def _run_case(name, tmp_path, monkeypatch, move_to_config=False):
    """SHA-256 of the stdout of CLI_RUNS[name], run in ``tmp_path``; with
    ``move_to_config`` every --flag of the case goes into a --config file."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PROXYCAUSE_SEED", raising=False)
    _write_run_inputs()
    setup, argv = CLI_RUNS[name]
    for step in setup:
        assert _cli_stdout(step)[0] == 0, step
    if move_to_config:
        flags_at = next(i for i, token in enumerate(argv) if token.startswith("--"))
        argv, flags = argv[:flags_at], argv[flags_at:]
        with open("case.cfg", "w", encoding="utf-8") as fh:
            for flag, value in zip(flags[::2], flags[1::2]):
                fh.write(f"{flag[2:]} = {value}\n")
        argv = argv + ["--config", "case.cfg"]
    code, out = _cli_stdout(argv)
    assert code == 0, name
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_subcommand_stdout_is_pinned(name, tmp_path, monkeypatch):
    assert _run_case(name, tmp_path, monkeypatch) == CLI_RUN_STDOUT[name], name


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_options_from_a_config_file_give_the_same_stdout(name, tmp_path, monkeypatch):
    assert _run_case(name, tmp_path, monkeypatch, move_to_config=True) == CLI_RUN_STDOUT[name], name


# SHA-256 of the file save_model writes for rcc_train on the criterion-8
# training set (12 scatters, n=40, seeds 400-411) with m=10, 20 trees, seed 4.
SAVED_MODEL = "b0dde036d5896087ff8c36f97fe50e6b4482827c53e5be71dcea780b4ae15792"


def test_saved_model_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    items = _write_run_inputs()
    save_model(rcc_train(LabeledScatterDataset(tuple(items)), num_features=10, num_trees=20, seed=4), "model.json")
    with open("model.json", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == SAVED_MODEL
