"""Text proxies: corpus counts, word embeddings, projections, baselines.

The corpus is plain text, one sentence per line.  A CorpusIndex holds
sentence-level unigram and precedence counts by word id; co-occurrence is
precedence summed over both orders.  Words from a vocabulary sample act as
proxies: projecting a target word against each vocabulary word yields an
n-vector, and two such vectors paired entrywise give the scatter sample
the direction engines consume.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import Direction, ScatterSample, SeedSpec, _is_integer, as_spec

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


def _read_corpus(corpus_path):
    """(vocabulary, sentences): each word's id in first-appearance order,
    and one int64 id array per line that has a token."""
    vocabulary = {}
    sentences = []
    with open(corpus_path, "r", encoding="utf-8") as fh:
        for line in fh:
            tokens = tokenize(line)
            if tokens:
                ids = [vocabulary.setdefault(t, len(vocabulary)) for t in tokens]
                sentences.append(np.array(ids, dtype=np.int64))
    if not sentences:
        raise ValueError(f"empty corpus: {corpus_path}")
    return vocabulary, sentences


def _grouped(column: np.ndarray, size: int):
    """Row numbers ordered by one id column, and where each id's run starts."""
    order = np.argsort(column, kind="stable")
    return order, np.searchsorted(column[order], np.arange(size + 1))


@dataclass(frozen=True)
class CorpusIndex:
    """Sentence-level counts over word ids: a word occurring several times
    in one sentence still counts that sentence once.

    words lists the vocabulary in first-appearance order, so a word's id is
    its position; unigram[i] counts the sentences holding word i, and every
    count is positive.  prec holds one (i, j, count) row per ordered pair
    whose count is positive, sorted by (i, j): the sentences where i's first
    occurrence strictly precedes j's.  Two distinct words in one sentence
    count for exactly one order, so cooc(w, x) = prec(w, x) + prec(x, w).
    """

    words: tuple
    sentence_count: int
    unigram: np.ndarray
    prec: np.ndarray
    vocabulary: dict = field(init=False, repr=False)

    def __post_init__(self):
        size = len(self.words)
        object.__setattr__(self, "vocabulary", {w: i for i, w in enumerate(self.words)})
        object.__setattr__(self, "_groups", [_grouped(self.prec[:, side], size) for side in (0, 1)])

    def __contains__(self, word: str) -> bool:
        return word in self.vocabulary

    def require(self, word: str) -> int:
        """The id of word; ValueError when it is out of vocabulary."""
        if word not in self.vocabulary:
            raise ValueError(f"out of vocabulary: {word!r}")
        return self.vocabulary[word]

    def _rows(self, side: int, wid: int) -> np.ndarray:
        """The prec rows whose word at column side is wid."""
        order, starts = self._groups[side]
        return self.prec[order[starts[wid] : starts[wid + 1]]]

    def prec_row(self, word: str) -> np.ndarray:
        """prec(w, word) for every id w; 0 at word's own id."""
        row = np.zeros(len(self.words), dtype=np.int64)
        before = self._rows(1, self.require(word))
        row[before[:, 0]] = before[:, 2]
        return row

    def cooc_row(self, word: str) -> np.ndarray:
        """cooc(w, word) for every id w; the unigram count at word's own id."""
        wid = self.require(word)
        row = self.prec_row(word)
        after = self._rows(0, wid)
        row[after[:, 1]] += after[:, 2]
        row[wid] = self.unigram[wid]
        return row

    def cooc_table(self) -> dict:
        """{(w, x): cooc(w, x)} over co-occurring pairs with w < x: the cooc
        entries of an index file."""
        table = {}
        for i, j, count in self.prec.tolist():
            w, x = self.words[i], self.words[j]
            key = (w, x) if w < x else (x, w)
            table[key] = table.get(key, 0) + count
        return table


def _prec_table(pairs: dict) -> np.ndarray:
    """The (i, j, count) rows of {(i, j): count}, sorted by (i, j)."""
    return np.array(sorted((i, j, c) for (i, j), c in pairs.items()), dtype=np.int64).reshape(-1, 3)


def build_index(corpus_path) -> CorpusIndex:
    """One pass over a one-sentence-per-line text file."""
    return _index_of(*_read_corpus(corpus_path))


def _index_of(vocabulary, sentences) -> CorpusIndex:
    """The index of a corpus as ``_read_corpus`` gives it."""
    unigram = np.zeros(len(vocabulary), dtype=np.int64)
    prec = Counter()
    for ids in sentences:
        first = list(dict.fromkeys(ids.tolist()))
        unigram[first] += 1
        prec.update(itertools.combinations(first, 2))
    return CorpusIndex(tuple(vocabulary), len(sentences), unigram, _prec_table(prec))


def save_index(index: CorpusIndex, path) -> None:
    words = index.words
    doc = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "sentence_count": index.sentence_count,
        "vocabulary": list(words),
        "unigram": dict(zip(words, index.unigram.tolist())),
        "cooc": [[w, x, c] for (w, x), c in sorted(index.cooc_table().items())],
        "prec": sorted([words[i], words[j], c] for i, j, c in index.prec.tolist()),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _is_count(value) -> bool:
    """A positive int that fits the int64 count arrays."""
    return type(value) is int and 0 < value < 2**63


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
    """Read an index file; a malformed or inconsistent one raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != INDEX_FORMAT:
        raise ValueError(f"not a {INDEX_FORMAT} file: {path}")
    if doc.get("version") != INDEX_VERSION:
        raise ValueError(f"unsupported index version {doc.get('version')}")
    missing = sorted({"vocabulary", "sentence_count", "unigram", "cooc", "prec"} - doc.keys())
    if missing:
        raise ValueError(f"malformed {INDEX_FORMAT} file {path}: missing {', '.join(missing)}")
    words = doc["vocabulary"]
    if not (isinstance(words, list) and all(isinstance(w, str) for w in words)):
        raise ValueError(f"vocabulary must be a list of words in {path}")
    if len(set(words)) != len(words):
        raise ValueError(f"duplicate vocabulary words in {path}")
    if not _is_count(doc["sentence_count"]):
        raise ValueError(f"sentence_count must be a positive integer in {path}")
    unigram = doc["unigram"]
    if not (isinstance(unigram, dict) and all(_is_count(c) for c in unigram.values())):
        raise ValueError(f"unigram must map words to positive counts in {path}")
    if unigram.keys() != set(words):
        raise ValueError(f"unigram words differ from the vocabulary in {path}")
    ids = {w: i for i, w in enumerate(words)}
    cooc = _pair_counts(doc["cooc"], "cooc", path)
    prec = _pair_counts(doc["prec"], "prec", path)
    if any(w not in ids or x not in ids for w, x in [*cooc, *prec]):
        raise ValueError(f"count entries name words outside the vocabulary in {path}")
    if any(w == x for w, x in prec):
        raise ValueError(f"prec pairs a word with itself in {path}")
    index = CorpusIndex(
        words=tuple(words),
        sentence_count=doc["sentence_count"],
        unigram=np.array([unigram[w] for w in words], dtype=np.int64),
        prec=_prec_table({(ids[w], ids[x]): c for (w, x), c in prec.items()}),
    )
    if index.cooc_table() != cooc:
        raise ValueError(f"cooc counts differ from prec summed over both orders in {path}")
    return index


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
    if not _is_integer(n) or n < 2:
        raise ValueError(f"n must be an integer of at least 2, got {n!r}")
    words = sorted(index.vocabulary)
    if n > len(words):
        raise ValueError(f"requested {n} words but vocabulary has {len(words)}")
    if method == "top":
        count = dict(zip(index.words, index.unigram.tolist()))
        ranked = sorted(words, key=lambda w: (-count[w], w))
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
    input_matrix: np.ndarray
    output_matrix: np.ndarray
    word_rows: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "word_rows", {w: i for i, w in enumerate(self.words)})
        if len(self.word_rows) != len(self.words):
            raise ValueError("embedding tables have duplicate words")
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
    return _sgns_train(lambda: _read_corpus(corpus_path), d, epochs, window, negatives, learning_rate, seed)


def _sgns_train(read, d=300, epochs=5, window=5, negatives=5, learning_rate=0.025, seed=0) -> EmbeddingModel:
    """``sgns_train`` on the corpus ``read()`` gives, read once the checks pass."""
    if not all(_is_integer(v) for v in (d, epochs, window, negatives)):
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

    vocabulary, sentences = read()
    num_words = len(vocabulary)
    noise = np.bincount(np.concatenate(sentences)) ** 0.75
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

    return EmbeddingModel(words=tuple(vocabulary), input_matrix=vi, output_matrix=vo)


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
    return EmbeddingModel(words=tuple(words_i), input_matrix=vi, output_matrix=vo)


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


def projection_vector(
    kind,
    word: str,
    vocab: VocabSample,
    index: CorpusIndex,
    emb: EmbeddingModel | None = None,
) -> np.ndarray:
    """Entry j projects word through the proxy w = vocab.words[j].

    counts and prec_counts are cooc(w, word) and prec(w, word) over the
    sentence count.  The pmi kinds return the probability ratio
    p(w, word) / (p(w) p(word)) itself, not its logarithm, so
    never-co-occurring pairs give exactly 0.
    """
    kind = _coerce_kind(kind)
    target = index.require(word)
    if kind in (ProjectionKind.W2VII, ProjectionKind.W2VIO, ProjectionKind.W2VOI):
        if emb is None:
            raise ValueError(f"projection {kind.value} needs an embedding model")
        proxy_rows = np.array([emb._row(w) for w in vocab.words])
        if kind is ProjectionKind.W2VII:
            return emb.input_matrix[proxy_rows] @ emb.input_vector(word)
        if kind is ProjectionKind.W2VIO:
            return emb.input_matrix[proxy_rows] @ emb.output_vector(word)
        return emb.output_matrix[proxy_rows] @ emb.input_vector(word)
    proxies = np.array([index.require(w) for w in vocab.words])
    row = index.cooc_row(word) if kind in (ProjectionKind.COUNTS, ProjectionKind.PMI) else index.prec_row(word)
    joint = row[proxies] / index.sentence_count
    if kind in (ProjectionKind.COUNTS, ProjectionKind.PREC_COUNTS):
        return joint
    marginal = index.unigram / index.sentence_count
    return joint / (marginal[proxies] * marginal[target])


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
    x_id = index.require(x_word)
    y_id = index.require(y_word)
    if kind == "frequency":
        return BaselineScores(float(index.unigram[x_id]), float(index.unigram[y_id]))
    if kind == "precedence":
        return BaselineScores(float(index.prec_row(y_word)[x_id]), float(index.prec_row(x_word)[y_id]))
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
