"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  ``make`` builds the inputs (it is the
repeated part of set-up), ``items`` lists the operations of one pass, and
``run`` performs one operation through the public API.  ``check`` returns
whether the output is well formed plus a canonical text of it for the
output digest; ``accuracy`` scores the first pass against ground truth.

``short_ops`` marks a workload whose operations run on one thread for
well under a second: its ``op_s`` is scaled by the reference kernel
timed before each operation; the others are corrected for the vCPU time
the hypervisor stole (see ``drift.py``).

Library functions are always looked up as module attributes
(``proxy_image.frames_order``), so that a traced run can replace them with
timing wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from proxycause import anm, cli, core, experiments, independence, proxy_image, rcc

NONLINEAR = ("cubic", "tanh", "piecewise")
NLP_KINDS = {"w2vii", "w2vio", "w2voi", "counts", "prec_counts", "pmi", "prec_pmi"}


def _direction_ok(d) -> bool:
    return (
        isinstance(d, core.Direction)
        and isinstance(d.verdict, core.Verdict)
        and math.isfinite(d.score)
        and d.score >= 0.0
    )


def _said_x_to_y(d) -> int:
    return 1 if d.verdict is core.Verdict.X_TO_Y else -1


@dataclass(frozen=True)
class Frames:
    """Shuffled diffusion stacks ordered by pairwise ANM calls (criterion 4)."""

    short_ops = False

    size: int = 256
    num_frames: int = 8
    n: int = 512
    k: int = 10
    permutations: int = 4999
    jobs: int = 2

    def make(self, seed, work_dir):
        frames = experiments.synth_diffusion_frames(self.size, num_frames=self.num_frames, seed=seed)
        shuffle = np.random.default_rng(seed).permutation(len(frames))
        return [([frames[int(t)] for t in shuffle], shuffle)]

    def run(self, item, seed, tracer):
        stack, shuffle = item
        engine = anm.AnmConfig(num_permutations=self.permutations, fit_fraction=0.75)
        return proxy_image.frames_order(stack, n=self.n, k=self.k, engine=engine, seed=seed, jobs=self.jobs)

    def check(self, item, result):
        m = np.asarray(result.matrix)
        f = self.num_frames
        ok = (
            m.shape == (f, f)
            and not np.any(np.diag(m))
            and all(int(m[i, j]) + int(m[j, i]) == 1 for i in range(f) for j in range(i + 1, f))
            and sorted(result.order) == list(range(f))
        )
        canon = json.dumps({"order": list(result.order), "matrix": m.tolist(), "cyclic": bool(result.cyclic)})
        return ok, canon

    def accuracy(self, items, results):
        """Share of frame pairs whose edge points forward in generation order."""
        agree = total = 0
        for (_, shuffle), result in zip(items, results):
            m = result.matrix
            for i in range(self.num_frames):
                for j in range(self.num_frames):
                    if m[i, j]:
                        agree += int(shuffle[i] < shuffle[j])
                        total += 1
        return agree / total

    def exact(self, item, result) -> bool:
        _, shuffle = item
        return [int(shuffle[i]) for i in result.order] == list(range(self.num_frames))


@dataclass(frozen=True)
class ScatterAnm:
    """anm_direction on seeded nonlinear scatters (criterion-1 settings)."""

    short_ops = True

    pairs: int = 48
    n: int = 500
    permutations: int = 199

    def make(self, seed, work_dir):
        items = []
        for i in range(self.pairs):
            pair_seed = seed * 1_000_000 + i
            sample, label = experiments.synth_anm_pair(self.n, mechanism=NONLINEAR[i % 3], seed=pair_seed)
            items.append((sample, label, pair_seed))
        return items

    def run(self, item, seed, tracer):
        sample, _, pair_seed = item
        return anm.anm_direction(sample, anm.AnmConfig(num_permutations=self.permutations), seed=pair_seed)

    def check(self, item, result):
        return _direction_ok(result), f"{result.verdict.value} {result.score!r}"

    def accuracy(self, items, results):
        return sum(_said_x_to_y(d) == label for (_, label, _), d in zip(items, results)) / len(items)


def _scatter_batch(count, base_seed, n):
    """The criterion-5 scatter mix: nonlinear mechanisms, alternating noise."""
    items = []
    for i in range(count):
        items.append(experiments.synth_anm_pair(
            n, mechanism=NONLINEAR[i % 3], noise=("gaussian", "uniform")[i % 2], seed=base_seed + i,
        ))
    return items


@dataclass(frozen=True)
class ScatterRcc:
    """rcc_train on labelled scatters, then rcc_predict on held-out ones.

    At seed 0 the data and model seed are exactly those of criterion 5.
    """

    short_ops = False

    train: int = 200
    test: int = 100
    n: int = 200
    m: int = 100
    trees: int = 500

    def make(self, seed, work_dir):
        base = seed * 1_000_000
        train = core.LabeledScatterDataset(tuple(_scatter_batch(self.train, base + 10_000, self.n)))
        test = _scatter_batch(self.test, base + 50_000, self.n)
        return [(train, test)]

    def run(self, item, seed, tracer):
        train, test = item
        model = rcc.rcc_train(train, num_features=self.m, num_trees=self.trees, seed=seed + 1)
        return [rcc.rcc_predict(model, sample) for sample, _ in test]

    def check(self, item, result):
        ok = len(result) == self.test and all(_direction_ok(d) for d in result)
        return ok, "\n".join(f"{d.verdict.value} {d.score!r}" for d in result)

    def accuracy(self, items, results):
        (_, test), = items
        (directions,) = results
        return sum(_said_x_to_y(d) == label for (_, label), d in zip(test, directions)) / len(test)


def _cli(argv):
    """cli.main in-process: (exit code, stdout text).  Progress lines on
    stderr are kept and shown only when the command fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        print(err.getvalue(), file=sys.stderr)
    return code, out.getvalue()


@dataclass(frozen=True)
class Nlp:
    """embed-train then nlp-eval through the CLI on the bundled data
    (criterion-6 sizes); index-corpus is set-up."""

    short_ops = False

    d: int = 50
    epochs: int = 2
    trees: int = 60
    m: int = 50
    repeats: int = 3
    jobs: int = 2
    corpus_stride: int = 1

    def _corpus(self, work_dir):
        corpus = experiments.bundled_data_path("mini_corpus.txt")
        if self.corpus_stride == 1:
            return corpus
        path = os.path.join(work_dir, f"corpus-{self.corpus_stride}.txt")
        with open(corpus, encoding="utf-8") as fh:
            lines = fh.readlines()[:: self.corpus_stride]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        return path

    def make(self, seed, work_dir):
        corpus = self._corpus(work_dir)
        prefix = os.path.join(work_dir, f"nlp-{self.corpus_stride}-")
        code, _ = _cli(["index-corpus", "--corpus", corpus, "--out", prefix + "index.json"])
        if code != 0:
            raise RuntimeError("index-corpus failed")
        return [(corpus, prefix)]

    def run(self, item, seed, tracer):
        corpus, prefix = item
        vi, vo = prefix + "vi.txt", prefix + "vo.txt"
        with tracer.span("cli.embed_train"):
            code, _ = _cli([
                "embed-train", "--corpus", corpus, "--d", str(self.d), "--epochs", str(self.epochs),
                "--seed", str(seed), "--out-input", vi, "--out-output", vo,
            ])
        if code != 0:
            return None
        with tracer.span("cli.nlp_eval"):
            code, stdout = _cli([
                "nlp-eval", "--pairs", experiments.bundled_data_path("word_pairs.csv"),
                "--index", prefix + "index.json", "--emb-input", vi, "--emb-output", vo,
                "--min-votes", "14", "--kinds", "all",
                "--methods", "distribution,feature,baselines,curve",
                "--trees", str(self.trees), "--m", str(self.m), "--repeats", str(self.repeats),
                "--seed", str(seed), "--jobs", str(self.jobs),
            ])
        return stdout if code == 0 else None

    def check(self, item, result):
        doc = json.loads(result)
        ok = (
            set(doc.get("distribution", ())) == NLP_KINDS
            and set(doc.get("feature", ())) == NLP_KINDS
            and len(doc.get("baselines", ())) == 10
            and len(doc.get("confidence_curve", ())) == 8
        )
        return ok, result

    def accuracy(self, items, results):
        """Mean held-out accuracy over the 14 projection evaluations."""
        (stdout,) = results
        doc = json.loads(stdout)
        means = [block["mean"] for method in ("distribution", "feature") for block in doc[method].values()]
        return sum(means) / len(means)


WORKLOADS = {
    "frames": {
        "full": Frames(),
        "tiny": Frames(size=48, num_frames=4, n=64, k=4, permutations=99),
    },
    "scatter-anm": {
        "full": ScatterAnm(),
        "tiny": ScatterAnm(pairs=3, n=60, permutations=99),
    },
    "scatter-rcc": {
        "full": ScatterRcc(),
        "tiny": ScatterRcc(train=16, test=8, n=40, m=10, trees=10),
    },
    "nlp": {
        "full": Nlp(),
        "tiny": Nlp(d=8, epochs=1, trees=5, m=5, repeats=1, corpus_stride=10),
    },
}


def direct_calls(tracer, seed, size):
    """Direct HSIC calls at the sizes the two ANM workloads reach: n=128
    with B=4999 (one frames test half) and n=250 with B=199 (one scatter
    test half), plus the statistic alone at n=128.  The tiny size keeps
    the sample sizes and cuts B to 99."""
    deep = 4999 if size == "full" else 99
    for label, n, perms, reps in (("frames", 128, deep, 3), ("scatter", 250, 199 if size == "full" else 99, 5)):
        sample, _ = experiments.synth_anm_pair(n, mechanism="cubic", seed=seed)
        for r in range(reps):
            with tracer.span(f"independence.hsic_pvalue.{label}"):
                independence.hsic_pvalue(sample.a, sample.b, num_permutations=perms, seed=r)
    sample, _ = experiments.synth_anm_pair(128, mechanism="cubic", seed=seed)
    for _ in range(21):
        with tracer.span("independence.hsic_statistic.frames"):
            independence.hsic_statistic(sample.a, sample.b)
