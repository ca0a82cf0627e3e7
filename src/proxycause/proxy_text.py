"""Text proxies: corpus counts, word embeddings, projections, baselines.

The corpus is plain text, one sentence per line.  A CorpusIndex holds
sentence-level unigram, co-occurrence, and precedence counts.  Words from
a vocabulary sample act as proxies: projecting a target word against each
vocabulary word yields an n-vector, and two such vectors paired entrywise
give the scatter sample the direction engines consume.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Direction, ScatterSample, SeedSpec, as_spec

__all__ = [
    "CorpusIndex",
    "EmbeddingModel",
    "ProjectionKind",
    "VocabSample",
    "BaselineScores",
    "BASELINE_KINDS",
    "tokenize",
    "build_index",
    "save_index",
    "load_index",
    "vocab_sample",
    "sgns_train",
    "save_embeddings",
    "load_embeddings",
    "projection_value",
    "projection_vector",
    "word_pair_scatter",
    "baseline_scores",
]

INDEX_FORMAT = "corpus-index"
INDEX_VERSION = 1

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(line: str) -> list:
    """Lowercased maximal alphanumeric runs."""
    return _TOKEN_RE.findall(line.lower())


# ---------------------------------------------------------------------------
# Corpus index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusIndex:
    """Sentence-level counts: a word occurring several times in one
    sentence still counts that sentence once.

    vocabulary maps word to id in first-appearance order; cooc keys are
    sorted word pairs; prec keys are ordered (first occurrence of the
    first word strictly precedes the second's).
    """

    vocabulary: dict
    sentence_count: int
    unigram: dict
    cooc_counts: dict
    prec_counts: dict

    def __contains__(self, word: str) -> bool:
        return word in self.vocabulary

    def require(self, word: str) -> None:
        if word not in self.vocabulary:
            raise ValueError(f"out of vocabulary: {word!r}")

    def unigram_count(self, word: str) -> int:
        return self.unigram.get(word, 0)

    def cooc(self, w: str, x: str) -> int:
        """Sentences containing both w and x; cooc(w, w) is the unigram count."""
        if w == x:
            return self.unigram_count(w)
        key = (w, x) if w < x else (x, w)
        return self.cooc_counts.get(key, 0)

    def prec_cooc(self, w: str, x: str) -> int:
        """Sentences where w's first occurrence precedes x's; 0 when w == x."""
        if w == x:
            return 0
        return self.prec_counts.get((w, x), 0)


def build_index(corpus_path) -> CorpusIndex:
    """One pass over a one-sentence-per-line text file."""
    vocabulary = {}
    unigram = {}
    cooc = {}
    prec = {}
    sentence_count = 0
    with open(corpus_path, "r", encoding="utf-8") as fh:
        for line in fh:
            tokens = tokenize(line)
            if not tokens:
                continue
            sentence_count += 1
            first = {}
            for pos, tok in enumerate(tokens):
                if tok not in vocabulary:
                    vocabulary[tok] = len(vocabulary)
                if tok not in first:
                    first[tok] = pos
            distinct = sorted(first)
            for w in distinct:
                unigram[w] = unigram.get(w, 0) + 1
            for i, w in enumerate(distinct):
                for x in distinct[i + 1 :]:
                    cooc[(w, x)] = cooc.get((w, x), 0) + 1
                    if first[w] < first[x]:
                        key = (w, x)
                    else:
                        key = (x, w)
                    prec[key] = prec.get(key, 0) + 1
    if sentence_count == 0:
        raise ValueError(f"empty corpus: {corpus_path}")
    return CorpusIndex(
        vocabulary=vocabulary,
        sentence_count=sentence_count,
        unigram=unigram,
        cooc_counts=cooc,
        prec_counts=prec,
    )


def save_index(index: CorpusIndex, path) -> None:
    doc = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "sentence_count": index.sentence_count,
        "vocabulary": sorted(index.vocabulary, key=index.vocabulary.get),
        "unigram": index.unigram,
        "cooc": [[w, x, c] for (w, x), c in sorted(index.cooc_counts.items())],
        "prec": [[w, x, c] for (w, x), c in sorted(index.prec_counts.items())],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _pair_counts(entries, name, path) -> dict:
    """{(w, x): count} from a list of distinct [w, x, count] entries."""
    if not isinstance(entries, list):
        raise ValueError(f"{name} must be a list in {path}")
    table = {}
    for entry in entries:
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and isinstance(entry[0], str)
            and isinstance(entry[1], str)
            and _is_count(entry[2])
        ):
            raise ValueError(f"malformed {name} entry {entry!r} in {path}")
        table[entry[0], entry[1]] = entry[2]
    if len(table) != len(entries):
        raise ValueError(f"duplicate {name} pairs in {path}")
    return table


def load_index(path) -> CorpusIndex:
    """Read an index file; a malformed one raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != INDEX_FORMAT:
        raise ValueError(f"not a {INDEX_FORMAT} file: {path}")
    if doc.get("version") != INDEX_VERSION:
        raise ValueError(f"unsupported index version {doc.get('version')}")
    missing = sorted({"vocabulary", "sentence_count", "unigram", "cooc", "prec"} - doc.keys())
    if missing:
        raise ValueError(f"malformed {INDEX_FORMAT} file {path}: missing {', '.join(missing)}")
    vocabulary = doc["vocabulary"]
    if not (isinstance(vocabulary, list) and all(isinstance(w, str) for w in vocabulary)):
        raise ValueError(f"vocabulary must be a list of words in {path}")
    if len(set(vocabulary)) != len(vocabulary):
        raise ValueError(f"duplicate vocabulary words in {path}")
    if not _is_count(doc["sentence_count"]) or doc["sentence_count"] == 0:
        raise ValueError(f"sentence_count must be a positive integer in {path}")
    unigram = doc["unigram"]
    if not (isinstance(unigram, dict) and all(_is_count(c) for c in unigram.values())):
        raise ValueError(f"unigram must map words to counts in {path}")
    return CorpusIndex(
        vocabulary={w: i for i, w in enumerate(vocabulary)},
        sentence_count=doc["sentence_count"],
        unigram=unigram,
        cooc_counts=_pair_counts(doc["cooc"], "cooc", path),
        prec_counts=_pair_counts(doc["prec"], "prec", path),
    )


# ---------------------------------------------------------------------------
# Vocabulary sample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VocabSample:
    """Ordered proxy words, no duplicates."""

    words: tuple

    def __post_init__(self):
        if len(set(self.words)) != len(self.words):
            raise ValueError("vocabulary sample has duplicate words")
        if len(self.words) < 2:
            raise ValueError("vocabulary sample needs at least 2 words")

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)


def vocab_sample(index: CorpusIndex, n: int, method: str = "top", seed: SeedSpec | int = 0) -> VocabSample:
    """Proxy vocabulary: the n most frequent words (ties lexicographic),
    or a seeded uniform draw without replacement with method="uniform"."""
    words = sorted(index.vocabulary)
    if n > len(words):
        raise ValueError(f"requested {n} words but vocabulary has {len(words)}")
    if method == "top":
        ranked = sorted(words, key=lambda w: (-index.unigram_count(w), w))
        return VocabSample(tuple(ranked[:n]))
    if method == "uniform":
        rng = as_spec(seed).rng("vocab.uniform")
        picks = rng.choice(len(words), size=n, replace=False)
        return VocabSample(tuple(words[i] for i in picks))
    raise ValueError(f"unknown sampling method {method!r}")


# ---------------------------------------------------------------------------
# Skip-gram with negative sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingModel:
    """Input and output embedding tables over one vocabulary."""

    words: tuple
    word_rows: dict
    input_matrix: np.ndarray
    output_matrix: np.ndarray

    def __post_init__(self):
        vi, vo = self.input_matrix, self.output_matrix
        if vi.shape != vo.shape or vi.shape[0] != len(self.words):
            raise ValueError("embedding tables must cover the same vocabulary")
        if not (np.all(np.isfinite(vi)) and np.all(np.isfinite(vo))):
            raise ValueError("embedding vectors must be finite")

    @property
    def dimension(self) -> int:
        return self.input_matrix.shape[1]

    def _row(self, word: str) -> int:
        if word not in self.word_rows:
            raise ValueError(f"out of vocabulary: {word!r}")
        return self.word_rows[word]

    def input_vector(self, word: str) -> np.ndarray:
        return self.input_matrix[self._row(word)]

    def output_vector(self, word: str) -> np.ndarray:
        return self.output_matrix[self._row(word)]


def _sentence_plan(sent: np.ndarray, window: int, negatives: int):
    """(centers, contexts, bounds) of one sentence, or None for a one-word
    sentence: every word id as a center, the context ids of all centers
    concatenated (left of the center, then right), and where each center's
    block of rows (one per context word, each followed by its negatives)
    starts and ends."""
    length = sent.size
    reach = min(window, length - 1)
    if reach == 0:
        return None
    offsets = np.concatenate([np.arange(-reach, 0), np.arange(1, reach + 1)])
    pos = np.arange(length)[:, None] + offsets
    inside = (pos >= 0) & (pos < length)
    bounds = np.concatenate([[0], np.cumsum(inside.sum(axis=1))]) * (negatives + 1)
    return sent.tolist(), sent[pos[inside]], bounds.tolist()


def sgns_train(
    corpus_path,
    d: int = 300,
    epochs: int = 5,
    window: int = 5,
    negatives: int = 5,
    learning_rate: float = 0.025,
    seed: SeedSpec | int = 0,
) -> EmbeddingModel:
    """Skip-gram embeddings by SGD on the negative-sampling objective.

    Single-threaded with a fixed pass order, so results are a pure
    function of (corpus, hyperparameters, seed).  Updates are applied
    once per center position, batched over its context words; negatives
    are drawn from the unigram token distribution raised to 0.75.
    """
    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in (d, epochs, window, negatives)):
        raise ValueError("d, epochs, window and negatives must be integers")
    if d < 2:
        raise ValueError("embedding dimension must be at least 2")
    if window < 1:
        raise ValueError("window must be at least 1")
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if negatives < 0:
        raise ValueError("negatives must be non-negative")
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError("learning rate must be finite and positive")
    spec = as_spec(seed)

    vocabulary = {}
    token_counts = []
    sentences = []
    with open(corpus_path, "r", encoding="utf-8") as fh:
        for line in fh:
            tokens = tokenize(line)
            if not tokens:
                continue
            ids = np.empty(len(tokens), dtype=np.int64)
            for pos, tok in enumerate(tokens):
                if tok not in vocabulary:
                    vocabulary[tok] = len(vocabulary)
                    token_counts.append(0)
                wid = vocabulary[tok]
                token_counts[wid] += 1
                ids[pos] = wid
            sentences.append(ids)
    if not sentences:
        raise ValueError(f"empty corpus: {corpus_path}")

    num_words = len(vocabulary)
    counts = np.array(token_counts, dtype=np.float64)
    noise = counts**0.75
    noise_cdf = np.cumsum(noise / noise.sum())

    rng_init = spec.rng("sgns.init")
    vi = (rng_init.random((num_words, d)) - 0.5) / d
    vo = np.zeros((num_words, d))
    vo_flat = vo.reshape(-1)
    rng_neg = spec.rng("sgns.negatives")

    # Drawing one sentence's negatives at once consumes the stream exactly
    # as per-position draws would, and the flat scatter-add applies
    # duplicate rows in order, so the tables match a per-position loop bit
    # for bit.  The sigmoid takes exp of -|z| only, so it cannot overflow.
    plans = [p for p in (_sentence_plan(s, window, negatives) for s in sentences) if p is not None]
    labels = np.zeros((min(2 * window, max(s.size for s in sentences) - 1), negatives + 1))
    labels[:, 0] = 1.0
    labels = labels.ravel()
    columns = np.arange(d)

    for _ in range(epochs):
        for centers, contexts, bounds in plans:
            negs = np.searchsorted(noise_cdf, rng_neg.random((contexts.size, negatives)))
            rows = np.concatenate([contexts[:, None], negs], axis=1).ravel()
            flat = (rows[:, None] * d + columns).ravel()
            for center, lo, hi in zip(centers, bounds, bounds[1:]):
                v = vi[center]
                out = vo.take(rows[lo:hi], axis=0)
                z = out @ v
                e = np.exp(-np.abs(z))
                grad = learning_rate * (labels[: hi - lo] - np.where(z >= 0, 1.0, e) / (1.0 + e))
                grad_center = grad @ out
                np.add.at(vo_flat, flat[lo * d : hi * d], np.multiply.outer(grad, v).ravel())
                v += grad_center

    words = tuple(sorted(vocabulary, key=vocabulary.get))
    return EmbeddingModel(
        words=words,
        word_rows=dict(vocabulary),
        input_matrix=vi,
        output_matrix=vo,
    )


def _write_table(words, matrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix):
            fh.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")


def _read_table(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"bad embedding header in {path}")
        count, dim = int(header[0]), int(header[1])
        if count < 0 or dim < 1:
            raise ValueError(f"bad embedding header in {path}")
        words = []
        rows = []
        for i in range(count):
            parts = fh.readline().split()
            if len(parts) != dim + 1:
                raise ValueError(f"bad embedding row {i + 2} in {path}")
            words.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
        if fh.read().strip():
            raise ValueError(f"more rows than the header's {count} in {path}")
    if len(set(words)) != count:
        raise ValueError(f"duplicate words in {path}")
    return words, np.array(rows, dtype=np.float64).reshape(count, dim)


def save_embeddings(emb: EmbeddingModel, input_path, output_path) -> None:
    """Two text files ("<count> <dim>" header, then "word f1 ... fd" rows),
    one for the input table and one for the output table."""
    _write_table(emb.words, emb.input_matrix, input_path)
    _write_table(emb.words, emb.output_matrix, output_path)


def load_embeddings(input_path, output_path) -> EmbeddingModel:
    words_i, vi = _read_table(input_path)
    words_o, vo = _read_table(output_path)
    if words_i != words_o:
        raise ValueError("input and output tables list different vocabularies")
    return EmbeddingModel(
        words=tuple(words_i),
        word_rows={w: i for i, w in enumerate(words_i)},
        input_matrix=vi,
        output_matrix=vo,
    )


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


class ProjectionKind(Enum):
    W2VII = "w2vii"
    W2VIO = "w2vio"
    W2VOI = "w2voi"
    COUNTS = "counts"
    PREC_COUNTS = "prec_counts"
    PMI = "pmi"
    PREC_PMI = "prec_pmi"


def _coerce_kind(kind) -> ProjectionKind:
    if isinstance(kind, ProjectionKind):
        return kind
    return ProjectionKind(str(kind).replace("-", "_"))


def _marginal(index: CorpusIndex, word: str) -> float:
    p = index.unigram_count(word) / index.sentence_count
    if p == 0.0:
        raise ValueError(f"zero-frequency word: {word!r}")
    return p


def projection_value(kind, w: str, x: str, index: CorpusIndex, emb: EmbeddingModel | None = None) -> float:
    """Scalar projection of target word x through proxy word w.

    The pmi kinds return the probability ratio p(w,x)/(p(w)p(x)) itself,
    not its logarithm, so never-co-occurring pairs give exactly 0.
    """
    kind = _coerce_kind(kind)
    index.require(w)
    index.require(x)
    if kind in (ProjectionKind.W2VII, ProjectionKind.W2VIO, ProjectionKind.W2VOI):
        if emb is None:
            raise ValueError(f"projection {kind.value} needs an embedding model")
        if kind is ProjectionKind.W2VII:
            return float(emb.input_vector(w) @ emb.input_vector(x))
        if kind is ProjectionKind.W2VIO:
            return float(emb.input_vector(w) @ emb.output_vector(x))
        return float(emb.output_vector(w) @ emb.input_vector(x))
    if kind is ProjectionKind.COUNTS:
        return index.cooc(w, x) / index.sentence_count
    if kind is ProjectionKind.PREC_COUNTS:
        return index.prec_cooc(w, x) / index.sentence_count
    joint = index.cooc(w, x) if kind is ProjectionKind.PMI else index.prec_cooc(w, x)
    return (joint / index.sentence_count) / (_marginal(index, w) * _marginal(index, x))


def projection_vector(
    kind,
    word: str,
    vocab: VocabSample,
    index: CorpusIndex,
    emb: EmbeddingModel | None = None,
) -> np.ndarray:
    """Entry j is projection_value(kind, vocab.words[j], word)."""
    kind = _coerce_kind(kind)
    index.require(word)
    if kind in (ProjectionKind.W2VII, ProjectionKind.W2VIO, ProjectionKind.W2VOI):
        if emb is None:
            raise ValueError(f"projection {kind.value} needs an embedding model")
        proxy_rows = np.array([emb._row(w) for w in vocab.words])
        if kind is ProjectionKind.W2VII:
            return emb.input_matrix[proxy_rows] @ emb.input_vector(word)
        if kind is ProjectionKind.W2VIO:
            return emb.input_matrix[proxy_rows] @ emb.output_vector(word)
        return emb.output_matrix[proxy_rows] @ emb.input_vector(word)
    return np.array([projection_value(kind, w, word, index) for w in vocab.words])


def word_pair_scatter(
    x_word: str,
    y_word: str,
    kind,
    vocab: VocabSample,
    index: CorpusIndex,
    emb: EmbeddingModel | None = None,
) -> ScatterSample:
    """Pair the two projection vectors entrywise over the proxy vocabulary."""
    a = projection_vector(kind, x_word, vocab, index, emb)
    b = projection_vector(kind, y_word, vocab, index, emb)
    return ScatterSample.from_ab(a, b)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

BASELINE_KINDS = (
    "frequency",
    "precedence",
    "counts_entropy",
    "counts_ws",
    "prec_counts_entropy",
    "prec_counts_ws",
    "pmi_entropy",
    "pmi_ws",
    "prec_pmi_entropy",
    "prec_pmi_ws",
)

_BASELINE_PROJECTION = {
    "counts_entropy": ProjectionKind.COUNTS,
    "counts_ws": ProjectionKind.COUNTS,
    "prec_counts_entropy": ProjectionKind.PREC_COUNTS,
    "prec_counts_ws": ProjectionKind.PREC_COUNTS,
    "pmi_entropy": ProjectionKind.PMI,
    "pmi_ws": ProjectionKind.PMI,
    "prec_pmi_entropy": ProjectionKind.PREC_PMI,
    "prec_pmi_ws": ProjectionKind.PREC_PMI,
}


@dataclass(frozen=True)
class BaselineScores:
    """The two directional scores of one baseline on one pair."""

    s_xy: float
    s_yx: float

    @property
    def tie(self) -> bool:
        return self.s_xy == self.s_yx

    def direction(self) -> Direction:
        return Direction.compare(self.s_xy, self.s_yx, abs(self.s_xy - self.s_yx))


def shannon_entropy(vector: np.ndarray) -> float:
    """Entropy of a non-negative vector normalized to sum 1; all-zero -> 0."""
    v = np.asarray(vector, dtype=np.float64)
    if np.any(v < 0):
        raise ValueError("entropy needs a non-negative vector")
    total = v.sum()
    if total == 0.0:
        return 0.0
    p = v[v > 0] / total
    return float(-np.sum(p * np.log(p)))


def weeds_precision(px: np.ndarray, py: np.ndarray) -> float | None:
    """Share of px's mass on entries where py is also positive; None when
    px has no mass (caller treats that as a tie)."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    denom = px.sum()
    if denom == 0.0:
        return None
    return float(px[(px > 0) & (py > 0)].sum() / denom)


def baseline_scores(
    kind: str,
    x_word: str,
    y_word: str,
    index: CorpusIndex,
    vocab: VocabSample | None = None,
) -> BaselineScores:
    """Directional scores (S_xy, S_yx); the verdict is x->y iff S_xy > S_yx."""
    kind = str(kind).replace("-", "_")
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline {kind!r}")
    index.require(x_word)
    index.require(y_word)
    if kind == "frequency":
        return BaselineScores(float(index.unigram_count(x_word)), float(index.unigram_count(y_word)))
    if kind == "precedence":
        return BaselineScores(float(index.prec_cooc(x_word, y_word)), float(index.prec_cooc(y_word, x_word)))
    if vocab is None:
        raise ValueError(f"baseline {kind} needs a vocabulary sample")
    proj = _BASELINE_PROJECTION[kind]
    px = projection_vector(proj, x_word, vocab, index)
    py = projection_vector(proj, y_word, vocab, index)
    if kind.endswith("_entropy"):
        return BaselineScores(shannon_entropy(px), shannon_entropy(py))
    s_xy = weeds_precision(px, py)
    s_yx = weeds_precision(py, px)
    if s_xy is None or s_yx is None:
        return BaselineScores(0.0, 0.0)
    return BaselineScores(s_xy, s_yx)
