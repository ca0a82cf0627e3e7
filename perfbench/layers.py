"""Which library functions a traced run wraps, and the per-layer metrics
computed from the spans they record.

Each wrapped attribute is the name a caller looks up: ``proxy_image``
calls ``anm_direction`` through its own module globals, ``cli`` calls
``sgns_train`` through its own, and so on.  A metric that reads ``None``
on the spans of a workload means the workload never reached that layer.
"""

from __future__ import annotations

import statistics

from proxycause import proxy_text

from spans import median_or_none, self_times


def _projection_span(kind, *args, **kwargs):
    family = "w2v" if str(getattr(kind, "value", kind)).startswith("w2v") else "counts"
    return f"proxy_text.projection_vector.{family}"


def _anm_note(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    perms = cfg.num_permutations if cfg is not None else 499
    return {"permutations": 2 * perms, "tie": result.score == 0.0}


def _forest_note(args, kwargs, result):
    return {"nodes": sum(len(tree["feature"]) for tree in result.trees)}


def _sgns_note(args, kwargs, result):
    """Center positions with a non-empty context window, times epochs."""
    positions = 0
    with open(args[0], encoding="utf-8") as fh:
        for line in fh:
            length = len(proxy_text.tokenize(line))
            if length >= 2:
                positions += length
    return {"positions": positions * kwargs.get("epochs", 5)}


def _jobs_note(args, kwargs, result):
    return {"jobs": kwargs.get("jobs", 1)}


# (module, attribute, span name or naming function, note)
WRAPS = (
    ("proxycause.proxy_image", "frames_order", "proxy_image.frames_order", _jobs_note),
    ("proxycause.proxy_image", "image_pair_direction", "proxy_image.image_pair_direction", None),
    ("proxycause.proxy_image", "image_pair_scatter", "proxy_image.image_pair_scatter", None),
    ("proxycause.proxy_image", "anm_direction", "anm.anm_direction", _anm_note),
    ("proxycause.anm", "anm_direction", "anm.anm_direction", _anm_note),
    ("proxycause.anm", "kernel_ridge_fit", "anm.kernel_ridge_fit", None),
    ("proxycause.anm", "residuals", "anm.residuals", None),
    ("proxycause.anm", "gram_matrix", "independence.gram_matrix", None),
    ("proxycause.anm", "median_heuristic", "independence.median_heuristic", None),
    ("proxycause.rcc", "rcc_train", "rcc.rcc_train", None),
    ("proxycause.rcc", "rcc_predict", "rcc.rcc_predict", None),
    ("proxycause.rcc", "featurize_scatter", "rcc.featurize_scatter", None),
    ("proxycause.rcc", "forest_train", "rcc.forest_train", _forest_note),
    ("proxycause.rcc", "forest_predict", "rcc.forest_predict", None),
    ("proxycause.experiments", "rcc_train", "rcc.rcc_train", None),
    ("proxycause.experiments", "forest_train", "rcc.forest_train", _forest_note),
    ("proxycause.experiments", "forest_predict", "rcc.forest_predict", None),
    ("proxycause.experiments", "projection_vector", _projection_span, None),
    ("proxycause.proxy_text", "projection_vector", _projection_span, None),
    ("proxycause.experiments", "evaluate_distribution_method", "experiments.evaluate_distribution_method", None),
    ("proxycause.experiments", "evaluate_feature_method", "experiments.evaluate_feature_method", None),
    ("proxycause.experiments", "synth_diffusion_frames", "experiments.synth_diffusion_frames", None),
    ("proxycause.experiments", "synth_anm_pair", "experiments.synth_anm_pair", None),
    ("proxycause.cli", "sgns_train", "proxy_text.sgns_train", _sgns_note),
    ("proxycause.cli", "build_index", "proxy_text.build_index", None),
    ("proxycause.cli", "baseline_scores", "proxy_text.baseline_scores", None),
    ("proxycause.cli", "load_index", "proxy_text.load_index", None),
    ("proxycause.cli", "load_embeddings", "proxy_text.load_embeddings", None),
)

# metric name -> span name whose median duration it is
DURATIONS = {
    "independence.hsic_pvalue_s.frames": "independence.hsic_pvalue.frames",
    "independence.hsic_pvalue_s.scatter": "independence.hsic_pvalue.scatter",
    "independence.hsic_statistic_s.frames": "independence.hsic_statistic.frames",
    "independence.gram_matrix_s": "independence.gram_matrix",
    "independence.median_heuristic_s": "independence.median_heuristic",
    "anm.anm_direction_s": "anm.anm_direction",
    "anm.kernel_ridge_fit_s": "anm.kernel_ridge_fit",
    "anm.residuals_s": "anm.residuals",
    "proxy_image.frames_order_s": "proxy_image.frames_order",
    "proxy_image.image_pair_direction_s": "proxy_image.image_pair_direction",
    "proxy_image.image_pair_scatter_s": "proxy_image.image_pair_scatter",
    "rcc.rcc_train_s": "rcc.rcc_train",
    "rcc.rcc_predict_s": "rcc.rcc_predict",
    "rcc.featurize_scatter_s": "rcc.featurize_scatter",
    "rcc.forest_train_s": "rcc.forest_train",
    "rcc.forest_predict_s": "rcc.forest_predict",
    "proxy_text.sgns_train_s": "proxy_text.sgns_train",
    "proxy_text.build_index_s": "proxy_text.build_index",
    "proxy_text.projection_vector_s.counts": "proxy_text.projection_vector.counts",
    "proxy_text.projection_vector_s.w2v": "proxy_text.projection_vector.w2v",
    "proxy_text.baseline_scores_s": "proxy_text.baseline_scores",
    "proxy_text.load_index_s": "proxy_text.load_index",
    "proxy_text.load_embeddings_s": "proxy_text.load_embeddings",
    "experiments.evaluate_distribution_method_s": "experiments.evaluate_distribution_method",
    "experiments.evaluate_feature_method_s": "experiments.evaluate_feature_method",
    "experiments.synth_diffusion_frames_s": "experiments.synth_diffusion_frames",
    "experiments.synth_anm_pair_s": "experiments.synth_anm_pair",
    "cli.embed_train_s": "cli.embed_train",
    "cli.nlp_eval_s": "cli.nlp_eval",
    "trace.op_s": "bench.op",
}

# metric name -> span name whose median self time it is
SELF_TIMES = {
    "anm.self_s": "anm.anm_direction",
    "cli.self_s": "cli.nlp_eval",
}


# metric name -> unit, for every per-layer metric this module reports
UNITS = {
    **{m: "s" for m in DURATIONS},
    **{m: "s" for m in SELF_TIMES},
    "independence.permutations": "count",
    "anm.tie_frac": "ratio",
    "anm.self_share": "ratio",
    "proxy_image.image_pair_scatter_share": "ratio",
    "proxy_image.pairs": "count",
    "proxy_image.pool_busy_frac": "ratio",
    "proxy_image.exact_order_frac": "ratio",
    "rcc.nodes": "count",
    "proxy_text.sgns_positions": "count",
    "trace.spans": "count",
}


def _op_totals(spans, name, field):
    """Per operation, the sum of ``field`` over spans called ``name``."""
    totals = {}
    for s in spans:
        if s["name"] == name and s["op"] is not None and field in s["extra"]:
            totals[s["op"]] = totals.get(s["op"], 0) + s["extra"][field]
    return median_or_none(totals.values())


def _share(spans, selfs, name):
    """Self time of ``name`` over all self time, in the operations that reach it."""
    ops = {s["op"] for s in spans if s["name"] == name and s["op"] is not None}
    if not ops:
        return None
    inside = [s for s in spans if s["op"] in ops]
    total = sum(selfs[s["id"]] for s in inside)
    return sum(selfs[s["id"]] for s in inside if s["name"] == name) / total


def layer_metrics(spans, all_spans):
    """Per-layer metrics over ``spans``; self times are taken against
    ``all_spans`` so that children from any phase count."""
    selfs = self_times(all_spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    out = {}
    for metric, name in DURATIONS.items():
        out[metric] = median_or_none(s["end"] - s["start"] for s in by_name.get(name, ()))
    for metric, name in SELF_TIMES.items():
        out[metric] = median_or_none(selfs[s["id"]] for s in by_name.get(name, ()))

    anm_spans = by_name.get("anm.anm_direction", ())
    out["independence.permutations"] = _op_totals(spans, "anm.anm_direction", "permutations")
    out["anm.tie_frac"] = statistics.fmean(s["extra"]["tie"] for s in anm_spans) if anm_spans else None
    out["anm.self_share"] = _share(spans, selfs, "anm.anm_direction")
    out["proxy_image.image_pair_scatter_share"] = _share(spans, selfs, "proxy_image.image_pair_scatter")

    pairs, busy = [], []
    for fo in by_name.get("proxy_image.frames_order", ()):
        kids = [s for s in spans if s["parent"] == fo["id"] and s["name"] == "proxy_image.image_pair_direction"]
        pairs.append(len(kids))
        wall = fo["end"] - fo["start"]
        busy.append(sum(k["end"] - k["start"] for k in kids) / (fo["extra"]["jobs"] * wall))
    out["proxy_image.pairs"] = median_or_none(pairs)
    out["proxy_image.pool_busy_frac"] = median_or_none(busy)
    exact = [s["extra"]["exact"] for s in by_name.get("bench.op", ()) if "exact" in s["extra"]]
    out["proxy_image.exact_order_frac"] = statistics.fmean(exact) if exact else None

    out["rcc.nodes"] = _op_totals(spans, "rcc.forest_train", "nodes")
    out["proxy_text.sgns_positions"] = median_or_none(
        s["extra"]["positions"] for s in by_name.get("proxy_text.sgns_train", ())
    )
    per_op = {}
    for s in spans:
        if s["op"] is not None:
            per_op[s["op"]] = per_op.get(s["op"], 0) + 1
    out["trace.spans"] = median_or_none(per_op.values())
    return out
