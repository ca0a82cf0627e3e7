"""Command-line interface: every pipeline behind one entry point.

Results go to standard output as JSON (sorted keys); progress and the
resolved configuration go to standard error.  Exit codes: 0 success,
1 data error, 2 usage error.  Defaults follow the experiment settings
(n=1024 patches of size k=10, vocabulary 10000, 500 trees, 75/25 splits
repeated 10 times, 300-dimensional embeddings).

Precedence for every option: command-line flag, then --config file
(key=value lines), then the PROXYCAUSE_SEED environment variable (seed
only), then the built-in default.  One table gives every option its type,
for the flag and the config key alike; the bare flag --general-beta is
true or false in a config file.
"""

from __future__ import annotations

import argparse
import functools
import glob
import json
import os
import sys

from . import experiments as xp
from . import proxy_text
from .anm import AnmConfig
from .core import (
    SeedSpec,
    load_dataset,
    load_scatter,
    parallel_map,
    save_scatter,
)
from .proxy_image import (
    frames_order,
    image_pair_direction,
    load_image,
    save_image,
)
from .proxy_text import (
    BASELINE_KINDS,
    ProjectionKind,
    baseline_scores,
    build_index,
    load_embeddings,
    load_index,
    save_embeddings,
    save_index,
    sgns_train,
    vocab_sample,
    word_pair_scatter,
)
from .rcc import load_model, rcc_predict, rcc_train, save_model

PROJECTION_NAMES = tuple(k.value for k in ProjectionKind)
METHODS = ("distribution", "feature", "baselines", "curve")


def _log(msg: str) -> None:
    print(f"[proxycause] {msg}", file=sys.stderr)


def _load_config(path) -> dict:
    config = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            config[key.strip()] = value.strip()
    return config


def _opt(args, config, name, default):
    """Flag > config > default; a config value is cast to the option's type."""
    value = getattr(args, name.replace("-", "_"))
    if value is not None:
        return value
    if name not in config:
        return default
    kind, text = _OPTIONS[name], config[name]
    if kind is not bool:
        return kind(text)
    if text not in ("true", "false"):
        raise ValueError(f"config key {name} takes true or false, got {text!r}")
    return text == "true"


def _seed(args, config) -> int:
    seed = _opt(args, config, "seed", None)
    if seed is not None:
        return seed
    env = os.environ.get("PROXYCAUSE_SEED")
    if env is not None:
        return int(env)
    return 0


def _name(text: str, allowed, what: str) -> str:
    """``text`` with '-' read as '_'; a name outside ``allowed`` raises."""
    name = text.replace("-", "_")
    if name not in allowed:
        raise ValueError(f"unknown {what} {text!r} (want one of {', '.join(allowed)})")
    return name


def _names(text: str, allowed, what: str) -> list:
    """The comma-separated names in ``text``, each checked by :func:`_name`."""
    return [_name(part, allowed, what) for part in text.split(",")]


def _jobs(args, config) -> int:
    """--jobs, checked before any work starts."""
    jobs = _opt(args, config, "jobs", 1)
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    return jobs


def _emit(result) -> None:
    print(json.dumps(result, sort_keys=True, indent=2))


def _direction_doc(direction) -> dict:
    return {
        "verdict": direction.verdict.value,
        "score": direction.score,
        "tie": direction.tie,
    }


def _report_doc(report: xp.EvalReport) -> dict:
    return {
        "accuracies": list(report.accuracies),
        "mean": report.mean,
        "std": report.std,
        "num_pairs": report.num_pairs,
        "significance": report.significance,
        "excluded": [list(e) for e in report.excluded],
    }


def _pick_engine(args, config):
    """AnmConfig or a loaded model, per --engine / --model."""
    engine = _opt(args, config, "engine", "anm")
    if engine == "anm":
        perms = _opt(args, config, "permutations", 499)
        return AnmConfig(num_permutations=perms)
    if engine == "model":
        model_path = _opt(args, config, "model", None)
        if model_path is None:
            raise ValueError("--engine model needs --model PATH")
        return load_model(model_path)
    raise ValueError(f"unknown engine {engine!r} (want anm or model)")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_index_corpus(args, config):
    corpus = _opt(args, config, "corpus", None)
    out = _opt(args, config, "out", None)
    if corpus is None:
        raise ValueError("--corpus is required")
    _log(f"index-corpus config: corpus={corpus} out={out}")
    index = build_index(corpus)
    result = {
        "sentences": index.sentence_count,
        "vocabulary": len(index.vocabulary),
        "cooc_pairs": len(index.cooc_table()),
    }
    if out is not None:
        save_index(index, out)
        result["out"] = out
    return result


def cmd_embed_train(args, config):
    corpus = _opt(args, config, "corpus", None)
    if corpus is None:
        raise ValueError("--corpus is required")
    d = _opt(args, config, "d", 300)
    epochs = _opt(args, config, "epochs", 5)
    window = _opt(args, config, "window", 5)
    negatives = _opt(args, config, "negatives", 5)
    lr = _opt(args, config, "lr", 0.025)
    seed = _seed(args, config)
    out_input = _opt(args, config, "out-input", None)
    out_output = _opt(args, config, "out-output", None)
    if out_input is None or out_output is None:
        raise ValueError("--out-input and --out-output are required")
    _log(
        f"embed-train config: corpus={corpus} d={d} epochs={epochs} window={window} "
        f"negatives={negatives} lr={lr} seed={seed}"
    )
    emb = sgns_train(corpus, d=d, epochs=epochs, window=window, negatives=negatives, learning_rate=lr, seed=seed)
    save_embeddings(emb, out_input, out_output)
    return {
        "words": len(emb.words),
        "d": emb.dimension,
        "out_input": out_input,
        "out_output": out_output,
        "seed": seed,
    }


def _corpus_artifacts(args, config, kinds, seed):
    """(index, vocab, emb) resolved from flags; emb only when needed."""
    index_path = _opt(args, config, "index", None)
    corpus = _opt(args, config, "corpus", None)
    # The index and on-the-fly embeddings share one read of the corpus.
    tokens = functools.cache(lambda: proxy_text._read_corpus(corpus))
    if index_path is not None:
        index = load_index(index_path)
    elif corpus is not None:
        index = proxy_text._index_of(*tokens())
    else:
        raise ValueError("need --corpus or --index")
    n_vocab = _opt(args, config, "n-vocab", 10000)
    if n_vocab > len(index.vocabulary):
        _log(f"vocabulary has {len(index.vocabulary)} words; clamping sample from {n_vocab}")
        n_vocab = len(index.vocabulary)
    method = _opt(args, config, "vocab-method", "top")
    vocab = vocab_sample(index, n_vocab, method=method, seed=SeedSpec(seed).child("cli.vocab"))

    needs_emb = any(k in ("w2vii", "w2vio", "w2voi") for k in kinds)
    emb = None
    if needs_emb:
        emb_input = _opt(args, config, "emb-input", None)
        emb_output = _opt(args, config, "emb-output", None)
        if emb_input is not None and emb_output is not None:
            emb = load_embeddings(emb_input, emb_output)
        elif corpus is not None:
            d = _opt(args, config, "d", 300)
            epochs = _opt(args, config, "epochs", 5)
            _log(f"training embeddings on the fly: d={d} epochs={epochs}")
            emb = proxy_text._sgns_train(tokens, d=d, epochs=epochs, seed=SeedSpec(seed).child("cli.embed"))
        else:
            raise ValueError("embedding projections need --emb-input/--emb-output or --corpus")
    return index, vocab, emb


def cmd_word_pair(args, config):
    x = _opt(args, config, "x", None)
    y = _opt(args, config, "y", None)
    if x is None or y is None:
        raise ValueError("--x and --y are required")
    kind = _name(_opt(args, config, "kind", "w2voi"), PROJECTION_NAMES, "projection kind")
    seed = _seed(args, config)
    _log(f"word-pair config: x={x} y={y} kind={kind} seed={seed}")
    index, vocab, emb = _corpus_artifacts(args, config, [kind], seed)
    sample = word_pair_scatter(x, y, kind, vocab, index, emb)
    direction = _pick_engine(args, config).judge(sample, SeedSpec(seed).child("cli.anm"))
    result = _direction_doc(direction)
    result.update({"x": x, "y": y, "kind": kind, "n": len(vocab), "seed": seed})
    return result


def _filtered_pairs(args, config):
    pairs_path = _opt(args, config, "pairs", None)
    if pairs_path is None:
        raise ValueError("--pairs is required")
    min_votes = _opt(args, config, "min-votes", 18)
    total = _opt(args, config, "total", 20)
    records = xp.load_word_pairs(pairs_path)
    return xp.filter_consensus(records, min_votes, total), min_votes, total


def cmd_nlp_eval(args, config):
    seed = _seed(args, config)
    kinds_arg = _opt(args, config, "kinds", "all")
    kinds = list(PROJECTION_NAMES) if kinds_arg == "all" else _names(kinds_arg, PROJECTION_NAMES, "projection kind")
    methods = _names(_opt(args, config, "methods", ",".join(METHODS)), METHODS, "method")
    trees = _opt(args, config, "trees", 500)
    m = _opt(args, config, "m", 100)
    split = _opt(args, config, "split", 0.75)
    repeats = _opt(args, config, "repeats", 10)
    jobs = _jobs(args, config)
    curve_kind = _name(_opt(args, config, "curve-kind", "w2voi"), PROJECTION_NAMES, "curve kind")

    pairs, min_votes, total = _filtered_pairs(args, config)
    _log(
        f"nlp-eval config: kinds={kinds} methods={methods} trees={trees} m={m} "
        f"split={split} repeats={repeats} min_votes={min_votes}/{total} seed={seed} jobs={jobs}"
    )
    if not pairs:
        raise ValueError("no pairs pass the consensus filter")
    need_emb_kinds = kinds + ([curve_kind] if "curve" in methods else [])
    index, vocab, emb = _corpus_artifacts(args, config, need_emb_kinds, seed)

    result = {
        "filtered_pairs": len(pairs),
        "min_votes": min_votes,
        "total_votes": total,
        "seed": seed,
    }
    # Every evaluation is an independent task with its own seed, so one
    # pool runs them all and the bytes do not depend on --jobs.  The pool
    # deals tasks out round-robin, so neighbours in the list should cost
    # alike: the distribution and curve tasks (0.2-0.4 s each at the bundled
    # sizes) go first, then the features and baselines (under 0.1 s), each
    # grouped by kind family (w2v, then counts and pmi, then prec).
    tasks = [(method, kind) for method in ("distribution", "feature") if method in methods for kind in kinds]
    if "curve" in methods:
        tasks.append(("curve", curve_kind))
    if "baselines" in methods:
        tasks += [("baselines", bkind) for bkind in BASELINE_KINDS]
    tasks.sort(key=lambda t: ({"feature": 1, "baselines": 2}.get(t[0], 0), ("w2v" not in t[1]) + t[1].startswith("prec")))

    def run(task):
        method, kind = task
        if method == "baselines":
            return _score_baseline(kind, pairs, index, vocab)
        if method == "feature":
            return xp.evaluate_feature_method(
                pairs, kind, vocab, index, emb,
                num_trees=trees, split=split, repeats=repeats,
                seed=SeedSpec(seed).child(f"nlp.feat.{kind}"),
            )
        tag = "dist" if method == "distribution" else "curve"
        return xp.evaluate_distribution_method(
            pairs, kind, vocab, index, emb,
            split=split, repeats=repeats, num_features=m, num_trees=trees,
            seed=SeedSpec(seed).child(f"nlp.{tag}.{kind}"),
        )

    for (method, kind), out in zip(tasks, parallel_map(run, tasks, jobs)):
        if method == "baselines":
            block = {"accuracy": out["accuracy"], "ties": out["ties"], "count": len(pairs)}
            result.setdefault("baselines", {})[kind] = block
        elif method == "curve":
            result["confidence_curve"] = _curve_doc(out, pairs)
            result["curve_kind"] = kind
        else:
            result.setdefault(method, {})[kind] = _report_doc(out)
    return result


def _curve_doc(report, pairs) -> list:
    by_name = {f"{r.x},{r.y}": r for r, _ in pairs}
    pooled_records = []
    pooled_correct = []
    for repeat in report.predictions:
        for name, _, _, ok in repeat:
            pooled_records.append(by_name[name])
            pooled_correct.append(ok)
    curve = xp.confidence_curve(pooled_records, pooled_correct)
    return [{"threshold": t, "accuracy": acc, "count": count} for t, acc, count in curve]


def _score_baseline(bkind, pairs, index, vocab) -> dict:
    """Accuracy, tie count and per-pair scores of one count baseline."""
    per_pair = []
    correct = 0
    ties = 0
    for record, label in pairs:
        scores = baseline_scores(bkind, record.x, record.y, index, vocab)
        predicted = 1 if scores.direction().verdict.value == "x->y" else -1
        ok = predicted == label
        correct += ok
        ties += scores.tie
        per_pair.append({
            "pair": f"{record.x},{record.y}",
            "s_xy": scores.s_xy,
            "s_yx": scores.s_yx,
            "correct": bool(ok),
        })
    return {"accuracy": correct / len(pairs), "ties": ties, "pairs": per_pair}


def cmd_baselines(args, config):
    seed = _seed(args, config)
    kinds_arg = _opt(args, config, "kinds", "all")
    kinds = list(BASELINE_KINDS) if kinds_arg == "all" else _names(kinds_arg, BASELINE_KINDS, "baseline")
    jobs = _jobs(args, config)
    pairs, min_votes, total = _filtered_pairs(args, config)
    if not pairs:
        raise ValueError("no pairs pass the consensus filter")
    _log(f"baselines config: kinds={kinds} min_votes={min_votes}/{total} seed={seed} jobs={jobs}")
    index, vocab, _ = _corpus_artifacts(args, config, [], seed)
    blocks = parallel_map(lambda bkind: _score_baseline(bkind, pairs, index, vocab), kinds, jobs)
    return {"filtered_pairs": len(pairs), "baselines": dict(zip(kinds, blocks))}


def cmd_image_pair(args, config):
    x_path = _opt(args, config, "x", None)
    y_path = _opt(args, config, "y", None)
    if x_path is None or y_path is None:
        raise ValueError("--x and --y are required")
    n = _opt(args, config, "n", 1024)
    k = _opt(args, config, "k", 10)
    seed = _seed(args, config)
    _log(f"image-pair config: x={x_path} y={y_path} n={n} k={k} seed={seed}")
    engine = _pick_engine(args, config)
    direction = image_pair_direction(load_image(x_path), load_image(y_path), n=n, k=k, engine=engine, seed=seed)
    result = _direction_doc(direction)
    result.update({"x": x_path, "y": y_path, "n": n, "k": k, "seed": seed})
    return result


def cmd_frames_order(args, config):
    directory = _opt(args, config, "dir", None)
    if directory is None:
        raise ValueError("--dir is required")
    pattern = _opt(args, config, "pattern", "frame_*.pgm")
    n = _opt(args, config, "n", 1024)
    k = _opt(args, config, "k", 10)
    jobs = _jobs(args, config)
    seed = _seed(args, config)
    paths = sorted(glob.glob(os.path.join(directory, pattern)))
    if len(paths) < 2:
        raise ValueError(f"found {len(paths)} frames matching {pattern!r} in {directory}")
    _log(f"frames-order config: dir={directory} pattern={pattern} frames={len(paths)} n={n} k={k} seed={seed} jobs={jobs}")
    frames = [load_image(p) for p in paths]
    engine = _pick_engine(args, config)
    order = frames_order(frames, n=n, k=k, engine=engine, seed=seed, jobs=jobs)
    return {
        "frames": [os.path.basename(p) for p in paths],
        "order": [os.path.basename(paths[i]) for i in order.order],
        "indices": list(order.order),
        "cyclic": order.cyclic,
        "matrix": order.matrix.tolist(),
        "seed": seed,
    }


def cmd_synth(args, config):
    what = _opt(args, config, "what", None)
    if what is None:
        raise ValueError("--what is required (scatter, stylized, or frames)")
    seed = _seed(args, config)
    if what == "scatter":
        n = _opt(args, config, "n", 500)
        mechanism = _opt(args, config, "mechanism", "cubic")
        noise = _opt(args, config, "noise", "gaussian")
        out = _opt(args, config, "out", None)
        _log(f"synth scatter config: n={n} mechanism={mechanism} noise={noise} seed={seed}")
        sample, label = xp.synth_anm_pair(n, mechanism=mechanism, noise=noise, seed=seed)
        result = {"what": what, "n": n, "mechanism": mechanism, "noise": noise, "label": label, "seed": seed}
        if out is not None:
            save_scatter(sample, out)
            result["out"] = out
        return result
    if what == "stylized":
        size = _opt(args, config, "size", 80)
        k = _opt(args, config, "k", 10)
        g = _opt(args, config, "g", "tanh")
        sigma = _opt(args, config, "sigma", 0.05)
        out_x = _opt(args, config, "out-x", None)
        out_y = _opt(args, config, "out-y", None)
        if out_x is None or out_y is None:
            raise ValueError("--out-x and --out-y are required")
        row_constant = not _opt(args, config, "general-beta", False)
        _log(f"synth stylized config: size={size} k={k} g={g} sigma={sigma} row_constant={row_constant} seed={seed}")
        spec = SeedSpec(seed)
        base = xp.synth_base_image(size, seed=spec.child("synth.base"))
        mech = xp.random_mechanism(k=k, row_constant=row_constant, g=g, noise_scale=sigma, seed=spec.child("synth.mech"))
        styled, clipped = xp.synth_stylized_pair(base, mech, seed=spec.child("synth.style"))
        save_image(base, out_x)
        save_image(styled, out_y)
        return {
            "what": what, "size": size, "k": k, "g": g, "sigma": sigma,
            "row_constant": row_constant, "clipped_fraction": clipped,
            "out_x": out_x, "out_y": out_y, "seed": seed,
        }
    if what == "frames":
        size = _opt(args, config, "size", 64)
        count = _opt(args, config, "frames", 8)
        out_dir = _opt(args, config, "out-dir", None)
        if out_dir is None:
            raise ValueError("--out-dir is required")
        _log(f"synth frames config: size={size} frames={count} seed={seed}")
        frames = xp.synth_diffusion_frames(size, num_frames=count, seed=seed)
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for i, frame in enumerate(frames):
            path = os.path.join(out_dir, f"frame_{i}.pgm")
            save_image(frame, path)
            paths.append(path)
        return {"what": what, "size": size, "frames": count, "paths": paths, "seed": seed}
    raise ValueError(f"unknown synth target {what!r}")


def cmd_significance(args, config):
    accuracy = _opt(args, config, "accuracy", None)
    n = _opt(args, config, "n", None)
    if accuracy is None or n is None:
        raise ValueError("--accuracy and --n are required")
    p0 = _opt(args, config, "p0", 0.5)
    _log(f"significance config: accuracy={accuracy} n={n} p0={p0}")
    p = xp.binomial_significance(accuracy, n, p0)
    return {"accuracy": accuracy, "n": n, "p0": p0, "p_value": p, "significant": p < 0.05}


def cmd_model(args, config):
    action = _opt(args, config, "action", None)
    seed = _seed(args, config)
    if action == "train":
        data_path = _opt(args, config, "data", None)
        out = _opt(args, config, "out", None)
        if data_path is None or out is None:
            raise ValueError("model train needs --data and --out")
        m = _opt(args, config, "m", 100)
        trees = _opt(args, config, "trees", 500)
        _log(f"model train config: data={data_path} m={m} trees={trees} seed={seed}")
        data = load_dataset(data_path)
        model = rcc_train(data, num_features=m, num_trees=trees, seed=seed)
        save_model(model, out)
        return {
            "action": action, "out": out, "m": m, "trees": trees,
            "bandwidth": model.rff.bandwidth, "examples": len(data.items), "seed": seed,
        }
    if action == "predict":
        model_path = _opt(args, config, "model", None)
        sample_path = _opt(args, config, "sample", None)
        if model_path is None or sample_path is None:
            raise ValueError("model predict needs --model and --sample")
        _log(f"model predict config: model={model_path} sample={sample_path}")
        model = load_model(model_path)
        direction = rcc_predict(model, load_scatter(sample_path))
        result = _direction_doc(direction)
        result.update({"action": action, "model": model_path, "sample": sample_path})
        return result
    if action == "inspect":
        model_path = _opt(args, config, "model", None)
        if model_path is None:
            raise ValueError("model inspect needs --model")
        model = load_model(model_path)
        return {
            "action": action,
            "m": model.rff.num_features,
            "bandwidth": model.rff.bandwidth,
            "trees": model.forest.num_trees,
            "feature_width": model.forest.num_features,
        }
    raise ValueError(f"unknown model action {action!r} (want train, predict, or inspect)")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# Every option and its type, stated once: the type parses the flag and the
# same key in a --config file.  A bool option is a bare flag on the command
# line and true or false in a config file.
_OPTIONS = {
    **dict.fromkeys((
        "action config corpus curve-kind data dir emb-input emb-output engine g index kind kinds mechanism "
        "methods model noise out out-dir out-input out-output out-x out-y pairs pattern sample vocab-method "
        "what x y"
    ).split(), str),
    **dict.fromkeys((
        "d epochs frames jobs k m min-votes n n-vocab negatives permutations repeats seed size total trees "
        "window"
    ).split(), int),
    **dict.fromkeys("accuracy lr p0 sigma split".split(), float),
    "general-beta": bool,
}

# The options every subcommand takes, after its own, with their help.
_SHARED = {
    "seed": "master seed (env PROXYCAUSE_SEED)",
    "config": "key=value config file",
    "jobs": (
        "processes for independent tasks: the caller plus forked workers, at most the usable "
        "CPUs, BLAS on one thread each while mapping; output is identical for any value"
    ),
}

# Each subcommand: its handler, its help and its own options in --help
# order.  ``action`` is the one positional (``model train``).
_COMMANDS = {
    "index-corpus": (cmd_index_corpus, "count sentence-level statistics of a corpus", "corpus out"),
    "embed-train": (
        cmd_embed_train, "train skip-gram embeddings",
        "corpus d epochs window negatives lr out-input out-output",
    ),
    "word-pair": (
        cmd_word_pair, "causal direction between two words",
        "x y kind corpus index n-vocab vocab-method emb-input emb-output d epochs engine model permutations",
    ),
    "nlp-eval": (
        cmd_nlp_eval, "full evaluation on annotated word pairs",
        "pairs corpus index min-votes total kinds methods curve-kind n-vocab vocab-method "
        "emb-input emb-output d epochs trees m split repeats",
    ),
    "baselines": (
        cmd_baselines, "score the count-based baselines on word pairs",
        "pairs corpus index min-votes total kinds n-vocab vocab-method",
    ),
    "image-pair": (cmd_image_pair, "causal direction between two images", "x y n k engine model permutations"),
    "frames-order": (
        cmd_frames_order, "temporal order of frames by pairwise direction",
        "dir pattern n k engine model permutations",
    ),
    "synth": (
        cmd_synth, "generate synthetic scatter, stylized pair, or frames",
        "what n mechanism noise out size k g sigma general-beta out-x out-y frames out-dir",
    ),
    "significance": (cmd_significance, "exact one-sided binomial test against chance", "accuracy n p0"),
    "model": (
        cmd_model, "train, inspect, or apply a saved direction model",
        "action data out m trees model sample",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxycause",
        description="Causal direction between static entities via proxy projections.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, names) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for name in names.split() + list(_SHARED):
            kind = _OPTIONS[name]
            how = {"action": "store_true"} if kind is bool else {"type": kind}
            if name == "action":
                sub.add_argument(name, nargs="?", default=None, **how)
            else:
                sub.add_argument(f"--{name}", default=None, help=_SHARED.get(name), **how)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    config = {}
    try:
        if args.config is not None:
            config = _load_config(args.config)
        result = args.func(args, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
