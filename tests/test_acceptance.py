"""Acceptance suite: one test per stated criterion.

Each test prints a single line with the measured numbers (visible under
pytest -s, and in the failure report otherwise); the pytest verdict for
the test is the pass/fail line for the criterion.  Settings that the
criteria leave open (permutation counts, tree counts, embedding size)
are chosen for runtime head room and noted inline; every threshold and
tolerance below is asserted exactly as stated.
"""

import contextlib
import io
import json
import time
import zlib
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from proxycause.anm import AnmConfig, anm_direction
from proxycause.cli import main
from proxycause.core import (
    Direction,
    LabeledScatterDataset,
    ScatterSample,
    SeedSpec,
    Verdict,
    save_dataset,
    save_scatter,
)
from proxycause.experiments import (
    _repeated_splits,
    binomial_significance,
    bundled_data_path,
    filter_consensus,
    load_word_pairs,
    random_mechanism,
    synth_anm_pair,
    synth_base_image,
    synth_diffusion_frames,
    synth_stylized_pair,
)
from proxycause.independence import hsic_pvalue, hsic_statistic
from proxycause.proxy_image import frames_order, image_pair_direction, image_pair_scatter
from proxycause.proxy_text import load_index
from proxycause.rcc import RFFSpec, featurize_scatter, rcc_predict, rcc_train

NONLINEAR = ("cubic", "tanh", "piecewise")


def report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: {detail}")


# The best known one-object rules.  Criteria 3, 4 and 6 report the count
# each rule reaches on the criterion's own data next to the engine's count,
# so a reader can see how much of that count needs the pair.  They are
# reported, not asserted.


def roughness(image):
    """Mean absolute difference between neighbouring pixels over the pixel std."""
    p = image.pixels
    steps = np.concatenate([np.abs(np.diff(p, axis=0)).ravel(), np.abs(np.diff(p, axis=1)).ravel()])
    return steps.mean() / p.std()


def exact_by(stack, shuffle, statistic):
    """Whether ordering ``stack`` by descending ``statistic`` recovers the generation order."""
    order = np.argsort([-statistic(frame) for frame in stack], kind="stable")
    return [int(shuffle[i]) for i in order] == list(range(len(stack)))


def contrast_free(frame, seed):
    """The std of the means of 512 random 10x10 patches over the pixel std."""
    return image_pair_scatter(frame, frame, n=512, k=10, seed=seed).a.std() / frame.pixels.std()


def word_role_correct(pairs):
    """Leave-one-out word-role rule over (record, label) pairs: among the other
    pairs a word scores its cause count minus its effect count, and the word
    with the higher score is named cause.  A pair with an unseen word, or two
    equal scores, reads as chance and counts one half."""
    correct = 0.0
    for i, (record, label) in enumerate(pairs):
        roles = {}
        for j, (other, other_label) in enumerate(pairs):
            if j != i:
                cause, effect = (other.x, other.y) if other_label == 1 else (other.y, other.x)
                roles[cause] = roles.get(cause, 0) + 1
                roles[effect] = roles.get(effect, 0) - 1
        if record.x not in roles or record.y not in roles or roles[record.x] == roles[record.y]:
            correct += 0.5
        else:
            correct += (1 if roles[record.x] > roles[record.y] else -1) == label
    return correct


def word_lead_correct(pairs, index):
    """A word's lead is the prec count of the words after it minus that of
    the words before it, over its sentence count.  The word with the larger
    lead is named cause, and equal leads count one half."""
    first = np.bincount(index.prec[:, 0], index.prec[:, 2], len(index.words))
    second = np.bincount(index.prec[:, 1], index.prec[:, 2], len(index.words))
    lead = (first - second) / index.unigram
    correct = 0.0
    for record, label in pairs:
        x, y = lead[index.require(record.x)], lead[index.require(record.y)]
        correct += 0.5 if x == y else (1 if x > y else -1) == label
    return correct


def cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_criterion_1_anm_engine_accuracy():
    """100 nonlinear pairs (n=500) at >= 90%, 100 linear-Gaussian controls
    within [35%, 65%], under 2 minutes.  199 permutations instead of the
    499 default buys runtime head room; accuracy holds at both."""
    cfg = AnmConfig(num_permutations=199)
    start = time.perf_counter()
    correct = 0
    for i in range(100):
        sample, label = synth_anm_pair(500, mechanism=NONLINEAR[i % 3], seed=600 + i)
        verdict = anm_direction(sample, cfg, seed=600 + i).verdict
        correct += (1 if verdict is Verdict.X_TO_Y else -1) == label
    control = 0
    for i in range(100):
        sample, label = synth_anm_pair(500, mechanism="linear", seed=900 + i)
        verdict = anm_direction(sample, cfg, seed=900 + i).verdict
        control += (1 if verdict is Verdict.X_TO_Y else -1) == label
    elapsed = time.perf_counter() - start
    report(1, f"nonlinear {correct}/100, linear control {control}/100, {elapsed:.0f}s")
    assert correct >= 90
    assert 35 <= control <= 65
    assert elapsed < 120.0


def brute_force_hsic(u, v):
    n = len(u)
    K = np.empty((n, n))
    L = np.empty((n, n))
    ku = np.median([abs(a - b) for i, a in enumerate(u) for b in u[i + 1 :]]) or 1.0
    kv = np.median([abs(a - b) for i, a in enumerate(v) for b in v[i + 1 :]]) or 1.0
    for i in range(n):
        for j in range(n):
            K[i, j] = np.exp(-((u[i] - u[j]) ** 2) / (2 * ku**2))
            L[i, j] = np.exp(-((v[i] - v[j]) ** 2) / (2 * kv**2))
    term1 = sum(K[i, j] * L[i, j] for i in range(n) for j in range(n)) / n**2
    term2 = K.sum() * L.sum() / n**4
    term3 = 2 * sum(K[i, :].sum() * L[i, :].sum() for i in range(n)) / n**3
    return term1 + term2 - term3


def test_criterion_2_hsic_calibration():
    """Independent inputs at n=200, 199 permutations: rejection rate at the
    0.05 level within [0.01, 0.10] over 200 trials; the statistic matches a
    brute-force double sum on an 8-point fixture to 1e-10."""
    start = time.perf_counter()
    rejections = 0
    for t in range(200):
        rng = np.random.default_rng(2000 + t)
        u = rng.standard_normal(200)
        v = rng.standard_normal(200)
        rejections += hsic_pvalue(u, v, num_permutations=199, seed=t) <= 0.05
    rate = rejections / 200
    rng = np.random.default_rng(42)
    u8 = rng.standard_normal(8)
    v8 = 0.5 * u8 + rng.standard_normal(8)
    gap = abs(hsic_statistic(u8, v8) - brute_force_hsic(u8, v8))
    elapsed = time.perf_counter() - start
    report(2, f"rejection rate {rate:.3f}, fixture gap {gap:.2e}, {elapsed:.0f}s")
    assert 0.01 <= rate <= 0.10
    assert gap <= 1e-10


def test_criterion_3_stylized_image_pairs():
    """20 stylized pairs (row-constant beta, tanh, sigma=0.05, n=1024
    patches, k=10): the base image is named cause in >= 16, under 5 min."""
    start = time.perf_counter()
    correct = 0
    ties = 0
    smoother = 0
    for i in range(20):
        base = synth_base_image(120, seed=i)
        mech = random_mechanism(k=10, row_constant=True, g="tanh", noise_scale=0.05, seed=i)
        styled, clipped = synth_stylized_pair(base, mech, seed=i)
        assert clipped < 0.05
        direction = image_pair_direction(base, styled, n=1024, k=10, seed=i)
        ties += direction.tie
        correct += direction.verdict is Verdict.X_TO_Y and not direction.tie
        smoother += roughness(base) < roughness(styled)
    elapsed = time.perf_counter() - start
    report(3, f"{correct}/20 correct, {ties} ties, {elapsed:.0f}s; one-image rule "
              f"'the smoother image is the cause': {smoother}/20")
    assert correct >= 16
    assert elapsed < 300.0


def test_criterion_4_frame_ordering():
    """8 diffusion frames, shuffled before judging: exact order recovered
    for >= 9 of 10 seeds, and the verdict matrix has exactly one directed
    edge per frame pair.

    The frames are shuffled so the recovered order cannot lean on the input
    arrangement through tie defaults or stable sorting; mapping the result
    back through the shuffle must reproduce the generation order.  The deep
    permutation count matters: the blur map between adjacent frames leaves
    both directional p-values below the floor of a few hundred permutations,
    and only around p ~ 1e-3 do the two directions actually separate."""
    start = time.perf_counter()
    engine = AnmConfig(num_permutations=4999, fit_fraction=0.75)
    exact = 0
    by_std = 0
    by_ratio = 0
    for s in range(10):
        frames = synth_diffusion_frames(256, num_frames=8, seed=s)
        shuffle = np.random.default_rng(s).permutation(len(frames))
        stack = [frames[int(t)] for t in shuffle]
        by_std += exact_by(stack, shuffle, lambda frame: frame.pixels.std())
        by_ratio += exact_by(stack, shuffle, lambda frame: contrast_free(frame, s))
        result = frames_order(stack, n=512, k=10, engine=engine, seed=s, jobs=4)
        recovered = [int(shuffle[i]) for i in result.order]
        exact += recovered == list(range(8))
        m = result.matrix
        for i in range(8):
            for j in range(i + 1, 8):
                assert int(m[i, j]) + int(m[j, i]) == 1
    elapsed = time.perf_counter() - start
    report(4, f"{exact}/10 exact shuffled orders, {elapsed:.0f}s; one-frame rules by descending value: "
              f"pixel std {by_std}/10, patch-mean std over pixel std {by_ratio}/10")
    assert exact >= 9


def _scatter_batch(count, base_seed, n=200):
    items = []
    for i in range(count):
        sample, label = synth_anm_pair(
            n,
            mechanism=NONLINEAR[i % 3],
            noise=("gaussian", "uniform")[i % 2],
            seed=base_seed + i,
        )
        items.append((sample, label))
    return items


def test_criterion_5_rcc_engine():
    """Trained on 200 scatterplots: held-out accuracy >= 70%, bitwise
    permutation-invariant featurization, < 5% verdict changes under an 80%
    point subsample."""
    start = time.perf_counter()
    train = _scatter_batch(200, 10_000)
    test = _scatter_batch(100, 50_000)
    model = rcc_train(LabeledScatterDataset(tuple(train)), seed=1)
    correct = 0
    full_verdicts = []
    for sample, label in test:
        verdict = rcc_predict(model, sample).verdict
        full_verdicts.append(verdict)
        correct += (1 if verdict is Verdict.X_TO_Y else -1) == label

    spec = RFFSpec(seed=3, num_features=50)
    perm_rng = np.random.default_rng(11)
    for sample, _ in test[:5]:
        base_features = featurize_scatter(sample, spec)
        for _ in range(3):
            shuffled = ScatterSample(sample.points[perm_rng.permutation(sample.n)])
            assert np.array_equal(featurize_scatter(shuffled, spec), base_features)

    sub_rng = np.random.default_rng(7)
    flips = 0
    for (sample, _), verdict in zip(test, full_verdicts):
        keep = np.sort(sub_rng.choice(sample.n, int(0.8 * sample.n), replace=False))
        sub = ScatterSample(sample.points[keep])
        flips += rcc_predict(model, sub).verdict is not verdict
    elapsed = time.perf_counter() - start
    report(5, f"held-out {correct}/100, subsample flips {flips}/100, {elapsed:.0f}s")
    assert correct >= 70
    assert flips / 100 < 0.05


def test_criterion_6_nlp_pipeline(tmp_path):
    """End-to-end on the bundled corpus and pairs: every projection scored
    both ways, all 10 baselines, a confidence curve, byte-identical across
    runs and --jobs, the w2v and prec kinds above their accuracy floors;
    the harness itself scores a perfect oracle at 1.0 and a coin flip
    within binomial bounds."""
    start = time.perf_counter()
    vi = str(tmp_path / "vi.txt")
    vo = str(tmp_path / "vo.txt")
    index_path = str(tmp_path / "index.json")
    code, _ = cli_json([
        "embed-train", "--corpus", bundled_data_path("mini_corpus.txt"),
        "--d", "50", "--epochs", "2", "--seed", "7",
        "--out-input", vi, "--out-output", vo,
    ])
    assert code == 0
    code, _ = cli_json([
        "index-corpus", "--corpus", bundled_data_path("mini_corpus.txt"), "--out", index_path,
    ])
    assert code == 0
    argv = [
        "nlp-eval", "--pairs", bundled_data_path("word_pairs.csv"),
        "--index", index_path, "--emb-input", vi, "--emb-output", vo,
        "--min-votes", "14", "--kinds", "all",
        "--methods", "distribution,feature,baselines,curve",
        "--trees", "60", "--m", "50", "--repeats", "3", "--seed", "7",
    ]
    code, out_jobs4 = cli_json(argv + ["--jobs", "4"])
    assert code == 0
    code, out_jobs1 = cli_json(argv + ["--jobs", "1"])
    assert code == 0
    assert out_jobs4 == out_jobs1

    doc = json.loads(out_jobs4)
    kinds = {"w2vii", "w2vio", "w2voi", "counts", "prec_counts", "pmi", "prec_pmi"}
    assert set(doc["distribution"]) == kinds
    assert set(doc["feature"]) == kinds
    assert len(doc["baselines"]) == 10
    assert len(doc["confidence_curve"]) == 8
    for block in doc["distribution"].values():
        assert 0.0 <= block["mean"] <= 1.0

    # Accuracy floors.  Each kind is scored on 24 test verdicts (3 repeats
    # of the 8 held-out pairs of 33).  A floor is its family's pooled mean
    # at seed 7 minus two binomial standard errors of a 24-verdict
    # accuracy, taken at p = 1/2 where they are largest: 2 * sqrt(0.25 /
    # 24) = 0.204.  counts and pmi get no floor: co-occurrence is
    # symmetric, so they read 0.42-0.54, near chance.
    margin = 2 * (0.25 / 24) ** 0.5
    pooled = {  # kinds of a family -> method -> mean over them at seed 7
        ("w2vii", "w2vio", "w2voi"): {"distribution": 64 / 72, "feature": 1.0},
        ("prec_counts", "prec_pmi"): {"distribution": 41 / 48, "feature": 1.0},
    }
    for family, means in pooled.items():
        for method, mean in means.items():
            for kind in family:
                block = doc[method][kind]
                assert (block["num_pairs"], len(block["accuracies"])) == (33, 3)
                assert block["mean"] >= mean - margin, (method, kind, block["mean"])
    lowest = min(doc[m][k]["mean"] for family in pooled for m in ("distribution", "feature") for k in family)

    samples, labels = [], []
    for i in range(120):
        sample, label = synth_anm_pair(24, seed=7000 + i)
        samples.append(sample)
        labels.append(label)
    truth = {s.a.tobytes(): lab for s, lab in zip(samples, labels)}

    def oracle(sample):
        lab = truth[sample.a.tobytes()]
        return Direction(Verdict.X_TO_Y if lab == 1 else Verdict.Y_TO_X, 1.0)

    def coin(sample):
        bit = zlib.crc32(sample.a.tobytes()) & 1
        return Direction(Verdict.X_TO_Y if bit else Verdict.Y_TO_X, 1.0)

    def harness(predictor):
        """The repeated-split loop of every evaluation, with a judge that trains nothing."""

        def judge(train_idx, test_idx, spec):
            return [predictor(samples[i]).verdict for i in test_idx]

        return _repeated_splits(labels, [str(i) for i in range(120)], (), judge, 0.75, 10, 0)

    oracle_report = harness(oracle)
    coin_report = harness(coin)
    pairs = filter_consensus(load_word_pairs(bundled_data_path("word_pairs.csv")), 14)
    role = word_role_correct(pairs)
    lead = word_lead_correct(pairs, load_index(index_path))
    elapsed = time.perf_counter() - start
    report(
        6,
        f"deterministic across jobs, lowest floored mean {lowest:.2f}, oracle {oracle_report.mean:.2f}, "
        f"coin {coin_report.mean:.2f}, {elapsed:.0f}s; one-word rules: word role, leave-one-out, "
        f"{role:g}/{len(pairs)}; the word that comes first in its sentences is the cause, {lead:g}/{len(pairs)}",
    )
    assert oracle_report.mean == 1.0
    assert 0.35 <= coin_report.mean <= 0.65


def test_criterion_7_binomial_significance():
    """0.52 over 1,970 pairs is significant at 0.05; exact agreement with
    brute-force tail sums for every N <= 30."""
    start = time.perf_counter()
    p_paper = binomial_significance(0.52, 1970)
    assert p_paper < 0.05
    for n in range(1, 31):
        for acc in (0.0, 0.25, 0.5, 0.75, 1.0):
            k = int(np.floor(acc * n + 0.5))
            tail = sum(
                Fraction(comb(n, i)) * Fraction(1, 2) ** n for i in range(k, n + 1)
            )
            assert binomial_significance(acc, n) == float(tail)
    elapsed = time.perf_counter() - start
    report(7, f"p(0.52, 1970)={p_paper:.4f}, exact for N<=30, {elapsed:.0f}s")


def test_criterion_8_cli_determinism(tmp_path):
    """Every subcommand, run twice with identical arguments and once with a
    different --jobs, emits byte-identical JSON."""
    start = time.perf_counter()
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
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
    index_path = str(tmp_path / "index.json")
    bundled_index = str(tmp_path / "bundled_index.json")
    frames_dir = str(tmp_path / "frames")
    items = [synth_anm_pair(40, seed=400 + i) for i in range(12)]
    save_dataset(LabeledScatterDataset(tuple(items)), tmp_path / "train.jsonl")
    save_scatter(items[0][0], tmp_path / "probe.jsonl")

    code, _ = cli_json(["index-corpus", "--corpus", bundled_data_path("mini_corpus.txt"), "--out", bundled_index])
    assert code == 0

    invocations = {
        "index-corpus": ["index-corpus", "--corpus", str(corpus), "--out", index_path],
        "embed-train": [
            "embed-train", "--corpus", str(corpus), "--d", "8", "--epochs", "1", "--seed", "2",
            "--out-input", str(tmp_path / "vi.txt"), "--out-output", str(tmp_path / "vo.txt"),
        ],
        "synth": [
            "synth", "--what", "frames", "--size", "24", "--frames", "3", "--seed", "1",
            "--out-dir", frames_dir,
        ],
        "significance": ["significance", "--accuracy", "0.75", "--n", "40"],
        "word-pair": [
            "word-pair", "--x", "rain", "--y", "wet", "--kind", "counts",
            "--index", index_path, "--n-vocab", "20", "--permutations", "99", "--seed", "3",
        ],
        "nlp-eval": [
            "nlp-eval", "--pairs", bundled_data_path("word_pairs.csv"),
            "--index", bundled_index, "--min-votes", "14", "--kinds", "counts",
            "--methods", "distribution,baselines", "--trees", "10", "--m", "10",
            "--repeats", "1", "--n-vocab", "60", "--seed", "5",
        ],
        "model-train": [
            "model", "train", "--data", str(tmp_path / "train.jsonl"),
            "--out", str(tmp_path / "model.json"), "--m", "10", "--trees", "20", "--seed", "4",
        ],
        "model-predict": [
            "model", "predict", "--model", str(tmp_path / "model.json"),
            "--sample", str(tmp_path / "probe.jsonl"),
        ],
        "model-inspect": ["model", "inspect", "--model", str(tmp_path / "model.json")],
        "frames-order": [
            "frames-order", "--dir", frames_dir, "--n", "120", "--k", "4",
            "--permutations", "99", "--seed", "1",
        ],
    }
    # synth stylized + image-pair need the stylized files first
    code, _ = cli_json([
        "synth", "--what", "stylized", "--size", "40", "--k", "10", "--seed", "6",
        "--out-x", str(tmp_path / "x.pgm"), "--out-y", str(tmp_path / "y.pgm"),
    ])
    assert code == 0
    invocations["image-pair"] = [
        "image-pair", "--x", str(tmp_path / "x.pgm"), "--y", str(tmp_path / "y.pgm"),
        "--n", "200", "--k", "10", "--permutations", "99", "--seed", "6",
    ]

    for name, argv in invocations.items():
        code, first = cli_json(argv + ["--jobs", "1"])
        assert code == 0, name
        code, second = cli_json(argv + ["--jobs", "1"])
        assert code == 0, name
        code, third = cli_json(argv + ["--jobs", "2"])
        assert code == 0, name
        assert first == second == third, name
    elapsed = time.perf_counter() - start
    report(8, f"{len(invocations)} invocations byte-identical across runs and jobs, {elapsed:.0f}s")
