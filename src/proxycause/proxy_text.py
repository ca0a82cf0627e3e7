"""Text proxies: corpus counts, word embeddings, projections, baselines.

The corpus is plain text, one sentence per line.  A CorpusIndex holds
sentence-level unigram and precedence counts by word id; co-occurrence is
precedence summed over both orders.  Words from a vocabulary sample act as
proxies: projecting a target word against each vocabulary word yields an
n-vector, and two such vectors paired entrywise give the scatter sample
the direction engines consume.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .core import Direction, ScatterSample, SeedSpec, _choice, _count, _finite, _reading, _real, as_spec

__all__ = [
    "CorpusIndex",
    "EmbeddingModel",
    "PROJECTION_KINDS",
    "VocabSample",
    "BaselineScores",
    "BASELINE_KINDS",
    "W2V_TABLES",
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
INDEX_VERSION = 2
_CHUNK = 2048  # sentences per pass of build_index: bounds its pair arrays on a large corpus
_SGNS_BLOCK = 8  # center positions per deferred SGNS update; 16 diverges (ROADMAP dead ends)
_SGNS_CHUNK = 64  # SGNS blocks per planning pass: its scratch key array holds 64 x vocabulary entries
_NOISE_BUCKETS = 2**16  # equal buckets over [0, 1) in front of the negatives' CDF search
# The largest table entry an SGNS epoch may leave.  Healthy runs stay near 1
# (1.89 on the bundled corpus at d=50); a diverging one grows by orders of
# magnitude per epoch (2.5e17 after one epoch on a 200-token "a b" line at
# learning rate 0.05).
_SGNS_BOUND = 1e4

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
    with open(corpus_path, "r", encoding="utf-8") as fh, _reading(corpus_path):
        for line in fh:
            tokens = tokenize(line)
            if tokens:
                ids = [vocabulary.setdefault(t, len(vocabulary)) for t in tokens]
                sentences.append(np.array(ids, dtype=np.int64))
        if not sentences:
            raise ValueError("empty corpus")
    return vocabulary, sentences


def _lookup(rows: dict, words, vocabulary: str) -> list:
    """rows[w] for each of words; a ValueError names the vocabulary and the first word it lacks."""
    try:
        return [rows[w] for w in words]
    except KeyError as exc:
        raise ValueError(f"out of {vocabulary}: {exc.args[0]!r}") from None


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

    def ids(self, words) -> list:
        """The id of each word; ValueError naming the first one out of vocabulary."""
        return _lookup(self.vocabulary, words, "vocabulary")

    def require(self, word: str) -> int:
        """The id of word; ValueError when it is out of vocabulary."""
        return self.ids((word,))[0]

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


def build_index(corpus_path) -> CorpusIndex:
    """One pass over a one-sentence-per-line text file, ``_CHUNK`` sentences at a time."""
    vocabulary, sentences = _read_corpus(corpus_path)
    size = len(vocabulary)
    unigram = np.zeros(size, dtype=np.int64)
    keys, counts = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)  # prec rows as sorted i * size + j
    for lo in range(0, len(sentences), _CHUNK):
        chunk = sentences[lo : lo + _CHUNK]
        tokens = np.concatenate(chunk)
        line = np.repeat(np.arange(len(chunk)), [s.size for s in chunk])
        # Each line's distinct words in first-appearance order, then each (earlier, later) pair.
        first = np.sort(np.unique(line * size + tokens, return_index=True)[1])
        ids, line = tokens[first], line[first]
        unigram += np.bincount(ids, minlength=size)
        later = np.searchsorted(line, line, side="right") - np.arange(ids.size) - 1
        left = np.repeat(np.arange(ids.size), later)
        right = left + 1 + np.arange(left.size) - np.repeat(np.cumsum(later) - later, later)
        new, found = np.unique(ids[left] * size + ids[right], return_counts=True)
        at = np.searchsorted(keys, new)
        hit = np.append(keys, -1)[at] == new  # the -1 past the end matches no key
        counts[at[hit]] += found[hit]
        keys, counts = np.insert(keys, at[~hit], new[~hit]), np.insert(counts, at[~hit], found[~hit])
    return CorpusIndex(tuple(vocabulary), len(sentences), unigram, np.stack([keys // size, keys % size, counts], axis=1))


def save_index(index: CorpusIndex, path) -> None:
    """The index as it is held: the words and unigram counts in id order,
    and prec as one flat i0, j0, c0, i1, ... list of its sorted id rows."""
    doc = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "sentence_count": index.sentence_count,
        "vocabulary": list(index.words),
        "unigram": index.unigram.tolist(),
        "prec": index.prec.ravel().tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True))


def _is_count(value) -> bool:
    """A positive int that fits the int64 count arrays."""
    return type(value) is int and 0 < value < 2**63


def _is_prec_list(flat) -> bool:
    """Whether a flat (i, j, count) list holds ints in [0, 2**63), checked
    before np.array sees them, with every count positive."""
    return not flat or (set(map(type, flat)) == {int} and 0 <= min(flat) and max(flat) < 2**63 and min(flat[2::3]) > 0)


def _cooc_pairs(index: CorpusIndex):
    """The co-occurring unordered pairs as sorted low * size + high keys,
    and for each prec row the position of its pair among them."""
    low, high = np.sort(index.prec[:, :2], axis=1).T
    return np.unique(low * len(index.words) + high, return_inverse=True)


def load_index(path) -> CorpusIndex:
    """Read an index file; a malformed or inconsistent one raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh, _reading(path):
        doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != INDEX_FORMAT:
            raise ValueError(f"not a {INDEX_FORMAT} file")
        if doc.get("version") != INDEX_VERSION:
            raise ValueError(f"unsupported index version {doc.get('version')!r}: rebuild it with index-corpus")
        words, count, unigram, flat = doc["vocabulary"], doc["sentence_count"], doc["unigram"], doc["prec"]
        if not (isinstance(words, list) and all(isinstance(w, str) for w in words)):
            raise ValueError("vocabulary must be a list of words")
        if len(set(words)) != len(words):
            raise ValueError("duplicate vocabulary words")
        if not _is_count(count):
            raise ValueError("sentence_count must be a positive integer")
        if not (isinstance(unigram, list) and len(unigram) == len(words) and all(map(_is_count, unigram))):
            raise ValueError("unigram must map each word id to a positive count")
        if not (isinstance(flat, list) and len(flat) % 3 == 0):
            raise ValueError("prec must be a flat list of (i, j, count) triples")
        if not _is_prec_list(flat):
            bad = next(e for e in (flat[k : k + 3] for k in range(0, len(flat), 3)) if not _is_prec_list(e))
            raise ValueError(f"malformed prec entry {bad!r}")
        size, prec = len(words), np.array(flat, dtype=np.int64).reshape(-1, 3)
        if np.any(prec[:, :2] >= size):
            raise ValueError("prec entries name words outside the vocabulary")
        if np.any(prec[:, 0] == prec[:, 1]):
            raise ValueError("prec pairs a word with itself")
        if np.any(np.diff(prec[:, 0] * size + prec[:, 1]) <= 0):
            raise ValueError("prec pairs must be distinct and sorted by (i, j)")
        index = CorpusIndex(tuple(words), count, np.array(unigram, dtype=np.int64), prec)
        if np.any(index.unigram > index.sentence_count):
            raise ValueError("a unigram count exceeds sentence_count")
        # prec(w, x) + prec(x, w) summed in uint64, where two counts below 2**63 cannot overflow.
        pairs, where = _cooc_pairs(index)
        cooc = np.zeros(pairs.size, dtype=np.uint64)
        np.add.at(cooc, where, index.prec[:, 2].astype(np.uint64))
        if np.any(cooc > np.minimum(index.unigram[pairs // size], index.unigram[pairs % size]).astype(np.uint64)):
            raise ValueError("a cooc count exceeds a word's unigram count")
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


VOCAB_METHODS = ("top", "uniform")


def vocab_sample(index: CorpusIndex, n: int, method: str = "top", seed: SeedSpec | int = 0) -> VocabSample:
    """Proxy vocabulary: the n most frequent words (ties lexicographic),
    or a seeded uniform draw without replacement with method="uniform"."""
    n, method = _count("n", n, 2), _choice("sampling method", method, VOCAB_METHODS)
    words = sorted(index.vocabulary)
    if n > len(words):
        raise ValueError(f"requested {n} words but vocabulary has {len(words)}")
    if method == "top":
        count = dict(zip(index.words, index.unigram.tolist()))
        ranked = sorted(words, key=lambda w: (-count[w], w))
        return VocabSample(tuple(ranked[:n]))
    picks = as_spec(seed).rng("vocab.uniform").choice(len(words), size=n, replace=False)
    return VocabSample(tuple(words[i] for i in picks))


# ---------------------------------------------------------------------------
# Skip-gram with negative sampling
# ---------------------------------------------------------------------------


def _check_table(words, matrix: np.ndarray) -> None:
    """The checks one embedding table must pass on its own."""
    if len(set(words)) != len(words):
        raise ValueError("embedding table has duplicate words")
    _finite("embedding vectors", matrix, 0)


@dataclass(frozen=True)
class EmbeddingModel:
    """Input and output embedding tables over one vocabulary."""

    words: tuple
    input_matrix: np.ndarray
    output_matrix: np.ndarray
    word_rows: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "word_rows", {w: i for i, w in enumerate(self.words)})
        vi, vo = self.input_matrix, self.output_matrix
        if vi.shape != vo.shape or vi.shape[0] != len(self.words):
            raise ValueError("embedding tables must cover the same vocabulary")
        for matrix in (vi, vo):
            _check_table(self.words, matrix)

    @property
    def dimension(self) -> int:
        return self.input_matrix.shape[1]


def _noise_cdf(counts: np.ndarray) -> np.ndarray:
    """The CDF over word ids of the token counts raised to 0.75."""
    noise = counts ** 0.75
    cdf = np.cumsum(noise / noise.sum())
    cdf[-1] = 1.0  # the sum may round below 1, and a draw above it would name no word
    return cdf


def _noise_lookup(cdf: np.ndarray):
    """A function giving np.searchsorted(cdf, draws) for draws in [0, 1),
    read from a table of ``_NOISE_BUCKETS`` equal buckets.  A bucket that
    holds no entry of cdf maps every draw in it to one id; only draws in
    the buckets that hold one are searched for."""
    table = np.searchsorted(cdf, np.arange(_NOISE_BUCKETS) / _NOISE_BUCKETS)
    stepped = np.zeros(_NOISE_BUCKETS + 1, dtype=bool)  # the last slot takes an entry of exactly 1.0
    stepped[(cdf * _NOISE_BUCKETS).astype(np.intp)] = True

    def lookup(draws: np.ndarray) -> np.ndarray:
        bucket = (draws * _NOISE_BUCKETS).astype(np.intp)
        ids = table[bucket]
        searched = np.flatnonzero(stepped[bucket])
        ids[searched] = np.searchsorted(cdf, draws[searched])
        return ids

    return lookup


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
    function of (corpus, hyperparameters, seed).  Each epoch takes the
    center positions in corpus order in blocks of 8, which may span two
    sentences: every gradient of a block is computed from the tables as
    they stood at its start, and their sum is applied once, at its end.
    Negatives are drawn from the unigram token distribution raised to 0.75,
    read off a bucket table over its CDF.  The negatives and distinct rows
    of ``_SGNS_CHUNK`` blocks are planned at once, so the per-block loop
    holds only the table arithmetic.
    """
    d = _count("d", d, 2)
    epochs = _count("epochs", epochs, 1)
    window = _count("window", window, 1)
    negatives = _count("negatives", negatives, 0)
    _real("learning_rate", learning_rate, 0.0)
    spec = as_spec(seed)

    vocabulary, sentences = _read_corpus(corpus_path)
    num_words, tokens = len(vocabulary), np.concatenate(sentences)
    noise_ids = _noise_lookup(_noise_cdf(np.bincount(tokens)))

    vi = (spec.rng("sgns.init").random((num_words, d)) - 0.5) / d
    vo = np.zeros((num_words, d))
    rng_neg = spec.rng("sgns.negatives")

    # The center positions are the tokens with a context.  Each owns a run of
    # context ids (left of it, then right), built in place to keep one copy;
    # owners holds each context's center as an index into its block's centers.
    lengths = np.array([s.size for s in sentences])
    pos = np.arange(tokens.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    left = np.minimum(pos, window)
    count = left + np.minimum(np.repeat(lengths, lengths) - 1 - pos, window)
    at = np.flatnonzero(count)
    left, count = left[at], count[at]
    first = np.cumsum(count) - count
    contexts = np.arange(count.sum())
    contexts += contexts >= np.repeat(first + left, count)
    contexts += np.repeat(at - left - first, count)
    contexts = tokens.astype(np.int32)[contexts]
    block = np.arange(at.size) // _SGNS_BLOCK * num_words
    centers, local = np.unique(block + tokens[at], return_inverse=True)
    owners = np.repeat((local - np.searchsorted(centers, block)).astype(np.int32), count)
    bounds = np.append(first[::_SGNS_BLOCK], contexts.size).tolist()
    center_bounds = np.searchsorted(centers, np.arange(len(bounds)) * num_words).tolist()
    centers %= num_words

    # Each chunk of blocks is planned in whole-array passes.  One draw gives
    # its negatives and consumes the stream as per-position draws would.
    # Writing each entry's position at its (block, word) key of place leaves
    # each block's distinct rows, u_out, at their last occurrence, in that
    # order; their ranks then give every entry's flat (center, row) index
    # into its block's u_in x u_out.  The sigmoid takes exp of -|z| only, so
    # it cannot overflow.
    width = negatives + 1
    labels = np.eye(1, width)
    num_blocks = len(bounds) - 1
    place = np.empty(_SGNS_CHUNK * num_words, dtype=np.intp)
    slots = np.arange(max(np.diff(bounds[::_SGNS_CHUNK] + bounds[-1:]), default=0) * width)
    for epoch in range(epochs):
        for c0 in range(0, num_blocks, _SGNS_CHUNK):
            c1 = min(c0 + _SGNS_CHUNK, num_blocks)
            lo, hi = bounds[c0], bounds[c1]
            negs = noise_ids(rng_neg.random((hi - lo) * negatives)).reshape(hi - lo, negatives)
            rows = np.concatenate([contexts[lo:hi, None], negs], axis=1)
            blocks = np.repeat(np.arange(c1 - c0), np.diff(bounds[c0 : c1 + 1]))  # each context's block in the chunk
            keys = (blocks[:, None] * num_words + rows).ravel()
            place[keys] = slots[: keys.size]
            last = np.flatnonzero(place[keys] == slots[: keys.size])
            u_outs = rows.ravel()[last]
            place[keys[last]] = slots[: last.size]
            row_bounds = np.searchsorted(last, (np.array(bounds[c0 : c1 + 1]) - lo) * width)
            firsts, sizes = row_bounds[blocks], np.diff(row_bounds)[blocks]
            flat = (owners[lo:hi] * sizes - firsts)[:, None] + place[keys].reshape(rows.shape)
            row_bounds = row_bounds.tolist()
            for k, (r_lo, r_hi) in enumerate(zip(row_bounds, row_bounds[1:]), c0):
                u_in, u_out = centers[center_bounds[k] : center_bounds[k + 1]], u_outs[r_lo:r_hi]
                at_z = flat[bounds[k] - lo : bounds[k + 1] - lo]
                a, b = vi[u_in], vo[u_out]
                z = (a @ b.T).ravel()[at_z]
                e = np.exp(-np.abs(z))
                grad = learning_rate * (labels - np.where(z >= 0, 1.0, e) / (1.0 + e))
                m = np.bincount(at_z.ravel(), grad.ravel(), u_in.size * u_out.size).reshape(u_in.size, -1)
                vi[u_in] = a + m @ b
                vo[u_out] = b + m.T @ a
        peak = max(np.abs(vi).max(), np.abs(vo).max())
        if not peak <= _SGNS_BOUND:
            raise ValueError(
                f"SGNS diverged at learning rate {learning_rate}: a table entry reached {peak:.3g} "
                f"in epoch {epoch + 1} (bound {_SGNS_BOUND:g}); try a smaller learning rate"
            )

    return EmbeddingModel(words=tuple(vocabulary), input_matrix=vi, output_matrix=vo)


def _write_table(words, matrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix):
            fh.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")


def _read_table(path):
    with open(path, "r", encoding="utf-8") as fh, _reading(path):
        header = fh.readline().split()
        if len(header) != 2 or not all(v.isascii() and v.isdigit() for v in header) or int(header[1]) < 1:
            raise ValueError("bad embedding header")
        count, dim = int(header[0]), int(header[1])
        words = []
        rows = []
        for i in range(count):
            parts = fh.readline().split()
            if len(parts) != dim + 1:
                raise ValueError(f"bad embedding row {i + 2}")
            words.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
        if fh.read().strip():
            raise ValueError(f"more rows than the header's {count}")
        matrix = np.array(rows, dtype=np.float64).reshape(count, dim)
        _check_table(words, matrix)
    return words, matrix


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


# The two embedding tables each w2v kind multiplies: the proxies' rows, then the target's row.
W2V_TABLES = {
    "w2vii": ("input_matrix", "input_matrix"),
    "w2vio": ("input_matrix", "output_matrix"),
    "w2voi": ("output_matrix", "input_matrix"),
}
PROJECTION_KINDS = (*W2V_TABLES, "counts", "prec_counts", "pmi", "prec_pmi")


def _check_projection(kind, emb) -> str:
    """``kind`` if it names a projection, and ``emb`` is given when the kind needs one."""
    kind = _choice("projection kind", kind, PROJECTION_KINDS)
    if kind in W2V_TABLES and emb is None:
        raise ValueError(f"projection {kind} needs an embedding model")
    return kind


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
    never-co-occurring pairs give exactly 0.  A w2v kind is the inner
    product of w's and word's rows of the two tables W2V_TABLES names.
    """
    kind = _check_projection(kind, emb)
    target = index.require(word)
    if kind in W2V_TABLES:
        proxy_table, target_table = (getattr(emb, name) for name in W2V_TABLES[kind])
        *proxy_rows, target_row = _lookup(emb.word_rows, (*vocab.words, word), "the embedding vocabulary")
        return proxy_table[proxy_rows] @ target_table[target_row]
    proxies = np.array(index.ids(vocab.words))
    row = index.cooc_row(word) if kind in ("counts", "pmi") else index.prec_row(word)
    joint = row[proxies] / index.sentence_count
    if kind in ("counts", "prec_counts"):
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
    """Pair the two projection vectors entrywise over the proxy vocabulary.

    A constant vector (named with its word and kind) and one word given
    twice have no direction to read, so each raises a ValueError."""
    if x_word == y_word:
        raise ValueError(f"a word pair needs two different words, got {x_word!r} twice")
    a = projection_vector(kind, x_word, vocab, index, emb)
    b = projection_vector(kind, y_word, vocab, index, emb)
    for word, v in ((x_word, a), (y_word, b)):
        if v.min() == v.max():
            raise ValueError(f"constant projection of {word!r} ({kind})")
    return ScatterSample.from_ab(a, b)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

# Each count baseline: the count projection it scores, and how (entropy or Weeds precision).
_PROJECTION_BASELINES = {
    f"{kind}_{score}": (kind, score)
    for kind in PROJECTION_KINDS
    if kind not in W2V_TABLES
    for score in ("entropy", "ws")
}
BASELINE_KINDS = ("frequency", "precedence", *_PROJECTION_BASELINES)


@dataclass(frozen=True)
class BaselineScores:
    """The two directional scores of one baseline on one pair."""

    s_xy: float
    s_yx: float

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
    """Directional scores (S_xy, S_yx); the verdict is x->y iff S_xy > S_yx.

    A kind ``<projection>_entropy`` or ``<projection>_ws`` scores that
    count projection."""
    _choice("baseline", kind, BASELINE_KINDS)
    x_id, y_id = index.ids((x_word, y_word))
    if kind == "frequency":
        return BaselineScores(float(index.unigram[x_id]), float(index.unigram[y_id]))
    if kind == "precedence":
        return BaselineScores(float(index.prec_row(y_word)[x_id]), float(index.prec_row(x_word)[y_id]))
    if vocab is None:
        raise ValueError(f"baseline {kind} needs a vocabulary sample")
    proj, score = _PROJECTION_BASELINES[kind]
    px = projection_vector(proj, x_word, vocab, index)
    py = projection_vector(proj, y_word, vocab, index)
    if score == "entropy":
        return BaselineScores(shannon_entropy(px), shannon_entropy(py))
    s_xy = weeds_precision(px, py)
    s_yx = weeds_precision(py, px)
    if s_xy is None or s_yx is None:
        return BaselineScores(0.0, 0.0)
    return BaselineScores(s_xy, s_yx)
