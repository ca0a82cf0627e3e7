"""Command-line interface: every pipeline behind one entry point.

Results go to standard output as JSON (sorted keys); progress and the
resolved configuration go to standard error.  Exit codes: 0 success,
1 data error, 2 usage error.  Defaults follow the experiment settings
(n=1024 patches of size k=10, vocabulary 10000, 500 trees, 75/25 splits
repeated 10 times, 300-dimensional embeddings).

Precedence for every option: command-line flag, then --config file
(key=value lines), then the PROXYCAUSE_SEED environment variable (seed
only), then the built-in default.  One option table states each option's
type and default, and each subcommand's row marks its required options;
the type parses the flag and the config key alike, and the bare flag
--general-beta is true or false in a config file.  Every config key must
name an option of some subcommand.  Before any work, one stderr line
echoes every resolved option of the subcommand.
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
    """The key=value lines of a config file, each value cast to its option's type."""
    config = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key=value")
            key, _, text = (part.strip() for part in line.partition("="))
            if key not in _OPTIONS:
                raise ValueError(f"config line {lineno}: {key!r} names no option")
            kind = _OPTIONS[key][0]
            if kind is bool and text not in ("true", "false"):
                raise ValueError(f"config key {key} takes true or false, got {text!r}")
            config[key] = text == "true" if kind is bool else kind(text)
    return config


def _name(text: str, allowed, what: str) -> str:
    """``text`` with '-' read as '_'; a name outside ``allowed`` raises."""
    name = text.replace("-", "_")
    if name not in allowed:
        raise ValueError(f"unknown {what} {text!r} (want one of {', '.join(allowed)})")
    return name


def _names(text: str, allowed, what: str) -> list:
    """The comma-separated names in ``text``, each checked by :func:`_name`."""
    return [_name(part, allowed, what) for part in text.split(",")]


def _need(o, *names) -> None:
    """Raise for the first of ``names`` that resolved to no value."""
    for name in names:
        if getattr(o, name.replace("-", "_")) is None:
            raise ValueError(f"--{name} is required")


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


def _pick_engine(o):
    """AnmConfig or a loaded model, per --engine / --model."""
    if o.engine == "anm":
        return AnmConfig(num_permutations=o.permutations)
    if o.engine == "model":
        _need(o, "model")
        return load_model(o.model)
    raise ValueError(f"unknown engine {o.engine!r} (want anm or model)")


# ---------------------------------------------------------------------------
# Subcommands: each takes the resolved options (``o.corpus``, ``o.trees``)
# ---------------------------------------------------------------------------


def cmd_index_corpus(o):
    index = build_index(o.corpus)
    result = {
        "sentences": index.sentence_count,
        "vocabulary": len(index.vocabulary),
        "cooc_pairs": len(index.cooc_table()),
    }
    if o.out is not None:
        save_index(index, o.out)
        result["out"] = o.out
    return result


def cmd_embed_train(o):
    emb = sgns_train(
        o.corpus, d=o.d, epochs=o.epochs, window=o.window, negatives=o.negatives, learning_rate=o.lr, seed=o.seed
    )
    save_embeddings(emb, o.out_input, o.out_output)
    return {
        "words": len(emb.words),
        "d": emb.dimension,
        "out_input": o.out_input,
        "out_output": o.out_output,
        "seed": o.seed,
    }


def _corpus_artifacts(o, kinds):
    """(index, vocab, emb) resolved from flags; emb only when needed."""
    # The index and on-the-fly embeddings share one read of the corpus.
    tokens = functools.cache(lambda: proxy_text._read_corpus(o.corpus))
    if o.index is not None:
        index = load_index(o.index)
    elif o.corpus is not None:
        index = proxy_text._index_of(*tokens())
    else:
        raise ValueError("need --corpus or --index")
    n_vocab = min(o.n_vocab, len(index.vocabulary))
    if n_vocab < o.n_vocab:
        _log(f"vocabulary has {n_vocab} words; clamping sample from {o.n_vocab}")
    vocab = vocab_sample(index, n_vocab, method=o.vocab_method, seed=SeedSpec(o.seed).child("cli.vocab"))

    if not any(k in ("w2vii", "w2vio", "w2voi") for k in kinds):
        return index, vocab, None
    if o.emb_input is not None and o.emb_output is not None:
        return index, vocab, load_embeddings(o.emb_input, o.emb_output)
    if o.corpus is None:
        raise ValueError("embedding projections need --emb-input/--emb-output or --corpus")
    _log("training embeddings on the fly")
    emb = proxy_text._sgns_train(tokens, d=o.d, epochs=o.epochs, seed=SeedSpec(o.seed).child("cli.embed"))
    return index, vocab, emb


def cmd_word_pair(o):
    kind = _name(o.kind, PROJECTION_NAMES, "projection kind")
    index, vocab, emb = _corpus_artifacts(o, [kind])
    sample = word_pair_scatter(o.x, o.y, kind, vocab, index, emb)
    direction = _pick_engine(o).judge(sample, SeedSpec(o.seed).child("cli.anm"))
    result = _direction_doc(direction)
    result.update({"x": o.x, "y": o.y, "kind": kind, "n": len(vocab), "seed": o.seed})
    return result


def _filtered_pairs(o):
    pairs = xp.filter_consensus(xp.load_word_pairs(o.pairs), o.min_votes, o.total)
    if not pairs:
        raise ValueError("no pairs pass the consensus filter")
    return pairs


def cmd_nlp_eval(o):
    kinds = list(PROJECTION_NAMES) if o.kinds == "all" else _names(o.kinds, PROJECTION_NAMES, "projection kind")
    methods = _names(o.methods, METHODS, "method")
    curve_kind = _name(o.curve_kind, PROJECTION_NAMES, "curve kind")

    pairs = _filtered_pairs(o)
    need_emb_kinds = kinds + ([curve_kind] if "curve" in methods else [])
    index, vocab, emb = _corpus_artifacts(o, need_emb_kinds)

    result = {
        "filtered_pairs": len(pairs),
        "min_votes": o.min_votes,
        "total_votes": o.total,
        "seed": o.seed,
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
                num_trees=o.trees, split=o.split, repeats=o.repeats,
                seed=SeedSpec(o.seed).child(f"nlp.feat.{kind}"),
            )
        tag = "dist" if method == "distribution" else "curve"
        return xp.evaluate_distribution_method(
            pairs, kind, vocab, index, emb,
            split=o.split, repeats=o.repeats, num_features=o.m, num_trees=o.trees,
            seed=SeedSpec(o.seed).child(f"nlp.{tag}.{kind}"),
        )

    for (method, kind), out in zip(tasks, parallel_map(run, tasks, o.jobs)):
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


def cmd_baselines(o):
    kinds = list(BASELINE_KINDS) if o.kinds == "all" else _names(o.kinds, BASELINE_KINDS, "baseline")
    pairs = _filtered_pairs(o)
    index, vocab, _ = _corpus_artifacts(o, [])
    blocks = parallel_map(lambda bkind: _score_baseline(bkind, pairs, index, vocab), kinds, o.jobs)
    return {"filtered_pairs": len(pairs), "baselines": dict(zip(kinds, blocks))}


def cmd_image_pair(o):
    engine = _pick_engine(o)
    direction = image_pair_direction(load_image(o.x), load_image(o.y), n=o.n, k=o.k, engine=engine, seed=o.seed)
    result = _direction_doc(direction)
    result.update({"x": o.x, "y": o.y, "n": o.n, "k": o.k, "seed": o.seed})
    return result


def cmd_frames_order(o):
    paths = sorted(glob.glob(os.path.join(o.dir, o.pattern)))
    if len(paths) < 2:
        raise ValueError(f"found {len(paths)} frames matching {o.pattern!r} in {o.dir}")
    frames = [load_image(p) for p in paths]
    engine = _pick_engine(o)
    order = frames_order(frames, n=o.n, k=o.k, engine=engine, seed=o.seed, jobs=o.jobs)
    return {
        "frames": [os.path.basename(p) for p in paths],
        "order": [os.path.basename(paths[i]) for i in order.order],
        "indices": list(order.order),
        "cyclic": order.cyclic,
        "matrix": order.matrix.tolist(),
        "seed": o.seed,
    }


def cmd_synth(o):
    if o.what == "scatter":
        sample, label = xp.synth_anm_pair(o.n, mechanism=o.mechanism, noise=o.noise, seed=o.seed)
        result = {"what": o.what, "n": o.n, "mechanism": o.mechanism, "noise": o.noise, "label": label, "seed": o.seed}
        if o.out is not None:
            save_scatter(sample, o.out)
            result["out"] = o.out
        return result
    if o.what == "stylized":
        _need(o, "out-x", "out-y")
        size = 80 if o.size is None else o.size
        row_constant = not o.general_beta
        spec = SeedSpec(o.seed)
        base = xp.synth_base_image(size, seed=spec.child("synth.base"))
        mech = xp.random_mechanism(
            k=o.k, row_constant=row_constant, g=o.g, noise_scale=o.sigma, seed=spec.child("synth.mech")
        )
        styled, clipped = xp.synth_stylized_pair(base, mech, seed=spec.child("synth.style"))
        save_image(base, o.out_x)
        save_image(styled, o.out_y)
        return {
            "what": o.what, "size": size, "k": o.k, "g": o.g, "sigma": o.sigma,
            "row_constant": row_constant, "clipped_fraction": clipped,
            "out_x": o.out_x, "out_y": o.out_y, "seed": o.seed,
        }
    if o.what == "frames":
        _need(o, "out-dir")
        size = 64 if o.size is None else o.size
        frames = xp.synth_diffusion_frames(size, num_frames=o.frames, seed=o.seed)
        os.makedirs(o.out_dir, exist_ok=True)
        paths = []
        for i, frame in enumerate(frames):
            path = os.path.join(o.out_dir, f"frame_{i}.pgm")
            save_image(frame, path)
            paths.append(path)
        return {"what": o.what, "size": size, "frames": o.frames, "paths": paths, "seed": o.seed}
    raise ValueError(f"unknown synth target {o.what!r}")


def cmd_significance(o):
    p = xp.binomial_significance(o.accuracy, o.n, o.p0)
    return {"accuracy": o.accuracy, "n": o.n, "p0": o.p0, "p_value": p, "significant": p < 0.05}


def cmd_model(o):
    action = o.action
    if action == "train":
        _need(o, "data", "out")
        data = load_dataset(o.data)
        model = rcc_train(data, num_features=o.m, num_trees=o.trees, seed=o.seed)
        save_model(model, o.out)
        return {
            "action": action, "out": o.out, "m": o.m, "trees": o.trees,
            "bandwidth": model.rff.bandwidth, "examples": len(data.items), "seed": o.seed,
        }
    if action == "predict":
        _need(o, "model", "sample")
        model = load_model(o.model)
        direction = rcc_predict(model, load_scatter(o.sample))
        result = _direction_doc(direction)
        result.update({"action": action, "model": o.model, "sample": o.sample})
        return result
    if action == "inspect":
        _need(o, "model")
        model = load_model(o.model)
        return {
            "action": action,
            "m": model.rff.num_features,
            "bandwidth": model.rff.bandwidth,
            "trees": model.forest.num_trees,
            "feature_width": model.forest.num_features,
        }
    if action is None:
        raise ValueError("model action is required (want train, predict, or inspect)")
    raise ValueError(f"unknown model action {action!r} (want train, predict, or inspect)")


# ---------------------------------------------------------------------------
# Options and parser
# ---------------------------------------------------------------------------


# Every option with its type and its default, stated once.  The type parses
# the flag and the same key in a --config file; a bool option is a bare flag
# on the command line and true or false in a config file.  A default of None
# means the option has no value unless one is given.
_OPTIONS = {
    **{name: (str, None) for name in (
        "action config corpus data dir emb-input emb-output index model out out-dir out-input out-output "
        "out-x out-y pairs sample what x y"
    ).split()},
    "accuracy": (float, None),
    "curve-kind": (str, "w2voi"),
    "d": (int, 300),
    "engine": (str, "anm"),
    "epochs": (int, 5),
    "frames": (int, 8),
    "g": (str, "tanh"),
    "general-beta": (bool, False),
    "jobs": (int, 1),
    "k": (int, 10),
    "kind": (str, "w2voi"),
    "kinds": (str, "all"),
    "lr": (float, 0.025),
    "m": (int, 100),
    "mechanism": (str, "cubic"),
    "methods": (str, ",".join(METHODS)),
    "min-votes": (int, 18),
    "n": (int, 1024),
    "n-vocab": (int, 10000),
    "negatives": (int, 5),
    "noise": (str, "gaussian"),
    "p0": (float, 0.5),
    "pattern": (str, "frame_*.pgm"),
    "permutations": (int, 499),
    "repeats": (int, 10),
    "seed": (int, 0),
    # synth --size defaults to 80 for --what stylized and 64 for frames.
    "size": (int, None),
    "sigma": (float, 0.05),
    "split": (float, 0.75),
    "total": (int, 20),
    "trees": (int, 500),
    "vocab-method": (str, "top"),
    "window": (int, 5),
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
# order.  ``corpus!`` marks a required option and ``n=500`` a default of
# this subcommand's own; ``action`` is the one positional (``model train``).
_COMMANDS = {
    "index-corpus": (cmd_index_corpus, "count sentence-level statistics of a corpus", "corpus! out"),
    "embed-train": (
        cmd_embed_train, "train skip-gram embeddings",
        "corpus! d epochs window negatives lr out-input! out-output!",
    ),
    "word-pair": (
        cmd_word_pair, "causal direction between two words",
        "x! y! kind corpus index n-vocab vocab-method emb-input emb-output d epochs engine model permutations",
    ),
    "nlp-eval": (
        cmd_nlp_eval, "full evaluation on annotated word pairs",
        "pairs! corpus index min-votes total kinds methods curve-kind n-vocab vocab-method "
        "emb-input emb-output d epochs trees m split repeats",
    ),
    "baselines": (
        cmd_baselines, "score the count-based baselines on word pairs",
        "pairs! corpus index min-votes total kinds n-vocab vocab-method",
    ),
    "image-pair": (cmd_image_pair, "causal direction between two images", "x! y! n k engine model permutations"),
    "frames-order": (
        cmd_frames_order, "temporal order of frames by pairwise direction",
        "dir! pattern n k engine model permutations",
    ),
    "synth": (
        cmd_synth, "generate synthetic scatter, stylized pair, or frames",
        "what! n=500 mechanism noise out size k g sigma general-beta out-x out-y frames out-dir",
    ),
    "significance": (cmd_significance, "exact one-sided binomial test against chance", "accuracy! n! p0"),
    "model": (
        cmd_model, "train, inspect, or apply a saved direction model",
        "action data out m trees model sample",
    ),
}


def _row(command):
    """(name, required, default) of each option of ``command``: its own, then the shared ones."""
    for token in _COMMANDS[command][2].split() + list(_SHARED):
        name, _, own = token.rstrip("!").partition("=")
        kind, default = _OPTIONS[name]
        yield name, token.endswith("!"), kind(own) if own else default


def _resolve(args, config) -> argparse.Namespace:
    """Every option of ``args.command`` resolved: flag, then config file,
    then PROXYCAUSE_SEED (seed only), then the default.  A required option
    left without a value, or --jobs below 1, raises ValueError; the resolved
    values are echoed on one stderr line."""
    values, required = {}, []
    for name, need, default in _row(args.command):
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            value = config.get(name)
        if value is None and name == "seed" and "PROXYCAUSE_SEED" in os.environ:
            value = int(os.environ["PROXYCAUSE_SEED"])
        values[name] = default if value is None and not need else value
        if need:
            required.append(name)
    o = argparse.Namespace(**{name.replace("-", "_"): value for name, value in values.items()})
    _need(o, *required)
    if o.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {o.jobs}")
    _log(f"{args.command} config: " + " ".join(f"{name}={value}" for name, value in values.items()))
    return o


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxycause",
        description="Causal direction between static entities via proxy projections.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for name, _, _ in _row(command):
            kind = _OPTIONS[name][0]
            how = {"action": "store_true"} if kind is bool else {"type": kind}
            if name == "action":
                sub.add_argument(name, nargs="?", default=None, **how)
            else:
                sub.add_argument(f"--{name}", default=None, help=_SHARED.get(name), **how)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = {} if args.config is None else _load_config(args.config)
        result = _COMMANDS[args.command][0](_resolve(args, config))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
