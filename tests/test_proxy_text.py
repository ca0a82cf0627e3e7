"""Corpus statistics, embeddings, projections, and count baselines."""

import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxycause.core import Direction, SeedSpec, Verdict
from proxycause.proxy_text import (
    BASELINE_KINDS,
    BaselineScores,
    EmbeddingModel,
    ProjectionKind,
    VocabSample,
    baseline_scores,
    build_index,
    load_embeddings,
    _read_table,
    _sgns_train,
    load_index,
    projection_vector,
    save_embeddings,
    save_index,
    sgns_train,
    shannon_entropy,
    tokenize,
    vocab_sample,
    weeds_precision,
    word_pair_scatter,
)

TINY_CORPUS = """\
the rain made the street wet
rain again
wet street everywhere
dry heat
"""

COUNT_KINDS = ("counts", "prec_counts", "pmi", "prec_pmi")


@pytest.fixture()
def tiny_index(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(TINY_CORPUS)
    return build_index(path)


class OracleIndex:
    """The word-keyed dict index the id-indexed one replaced: the reference
    its counts and projections must equal bit for bit."""

    def __init__(self, corpus_path):
        self.vocabulary = {}
        self.unigram = {}
        self.cooc_counts = {}
        self.prec_counts = {}
        self.sentence_count = 0
        with open(corpus_path, "r", encoding="utf-8") as fh:
            for line in fh:
                tokens = tokenize(line)
                if not tokens:
                    continue
                self.sentence_count += 1
                first = {}
                for pos, tok in enumerate(tokens):
                    if tok not in self.vocabulary:
                        self.vocabulary[tok] = len(self.vocabulary)
                    if tok not in first:
                        first[tok] = pos
                distinct = sorted(first)
                for w in distinct:
                    self.unigram[w] = self.unigram.get(w, 0) + 1
                for i, w in enumerate(distinct):
                    for x in distinct[i + 1 :]:
                        self.cooc_counts[(w, x)] = self.cooc_counts.get((w, x), 0) + 1
                        key = (w, x) if first[w] < first[x] else (x, w)
                        self.prec_counts[key] = self.prec_counts.get(key, 0) + 1
        if self.sentence_count == 0:
            raise ValueError(f"empty corpus: {corpus_path}")

    def unigram_count(self, word):
        return self.unigram.get(word, 0)

    def cooc(self, w, x):
        if w == x:
            return self.unigram_count(w)
        return self.cooc_counts.get((w, x) if w < x else (x, w), 0)

    def prec_cooc(self, w, x):
        if w == x:
            return 0
        return self.prec_counts.get((w, x), 0)


def oracle_projection_value(kind, w, x, index):
    """Scalar count projection of target x through proxy w, one dict lookup
    at a time."""
    kind = ProjectionKind(kind)
    if kind is ProjectionKind.COUNTS:
        return index.cooc(w, x) / index.sentence_count
    if kind is ProjectionKind.PREC_COUNTS:
        return index.prec_cooc(w, x) / index.sentence_count
    joint = index.cooc(w, x) if kind is ProjectionKind.PMI else index.prec_cooc(w, x)
    marginal_w = index.unigram_count(w) / index.sentence_count
    marginal_x = index.unigram_count(x) / index.sentence_count
    return (joint / index.sentence_count) / (marginal_w * marginal_x)


def entry(kind, w, x, index, emb=None):
    """Projection of target x through proxy w: the first entry of a
    two-word projection_vector."""
    other = next(v for v in index.words if v != w)
    return projection_vector(kind, x, VocabSample((w, other)), index, emb)[0]


def cooc(index, w, x):
    return index.cooc_row(x)[index.vocabulary[w]]


def prec(index, w, x):
    return index.prec_row(x)[index.vocabulary[w]]


def test_tokenize():
    assert tokenize("The rain, AGAIN!") == ["the", "rain", "again"]
    assert tokenize("don't under_score 3.14") == ["don", "t", "under", "score", "3", "14"]
    assert tokenize("...") == []


def test_index_hand_counts(tiny_index):
    idx = tiny_index
    unigram = dict(zip(idx.words, idx.unigram.tolist()))
    assert idx.sentence_count == 4
    assert unigram["the"] == 1  # twice in one sentence counts once
    assert unigram["rain"] == 2
    assert unigram["wet"] == 2
    assert "missing" not in unigram
    assert cooc(idx, "rain", "wet") == 1
    assert cooc(idx, "wet", "rain") == 1  # symmetric
    assert cooc(idx, "street", "wet") == 2
    assert cooc(idx, "rain", "rain") == 2  # diagonal is the unigram count
    assert prec(idx, "rain", "wet") == 1
    assert prec(idx, "wet", "rain") == 0
    assert prec(idx, "street", "wet") == 1  # sentence 1
    assert prec(idx, "wet", "street") == 1  # sentence 3
    assert prec(idx, "wet", "wet") == 0


def test_index_requires_known_words(tiny_index):
    with pytest.raises(ValueError, match="out of vocabulary"):
        tiny_index.require("banana")
    with pytest.raises(ValueError, match="out of vocabulary"):
        tiny_index.cooc_row("banana")
    assert tiny_index.require("rain") == 1
    assert "rain" in tiny_index
    assert "banana" not in tiny_index


def test_build_index_rejects_empty_corpus(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="empty corpus"):
        build_index(path)


def assert_same_index(a, b):
    assert a.words == b.words
    assert a.vocabulary == b.vocabulary
    assert a.sentence_count == b.sentence_count
    assert np.array_equal(a.unigram, b.unigram)
    assert np.array_equal(a.prec, b.prec)


def test_index_round_trip(tiny_index, tmp_path):
    path = tmp_path / "index.json"
    save_index(tiny_index, path)
    assert_same_index(load_index(path), tiny_index)
    path.write_text('{"format": "other"}')
    with pytest.raises(ValueError, match="not a"):
        load_index(path)


# Small corpora with blank lines, one-word lines and words repeated inside
# a line, over a few words so that pairs recur across lines.
corpora = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d", "E", "é", "b,"]), max_size=6).map(" ".join),
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(lines=corpora)
def test_index_and_count_projections_equal_the_dict_oracle(fuzz_dir, lines):
    path = fuzz_dir / "corpus.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if not any(tokenize(line) for line in lines):
        for build in (build_index, OracleIndex):
            with pytest.raises(ValueError, match="empty corpus"):
                build(path)
        return
    index, oracle = build_index(path), OracleIndex(path)
    assert index.vocabulary == oracle.vocabulary
    assert index.sentence_count == oracle.sentence_count
    assert dict(zip(index.words, index.unigram.tolist())) == oracle.unigram
    for x in index.words:
        assert index.cooc_row(x).tolist() == [oracle.cooc(w, x) for w in index.words]
        assert index.prec_row(x).tolist() == [oracle.prec_cooc(w, x) for w in index.words]
    save_index(index, fuzz_dir / "index.json")
    assert_same_index(load_index(fuzz_dir / "index.json"), index)
    if len(index.words) < 2:
        return
    vocab = vocab_sample(index, len(index.words))
    for kind in COUNT_KINDS:
        for x in index.words:
            want = [oracle_projection_value(kind, w, x, oracle) for w in vocab.words]
            assert projection_vector(kind, x, vocab, index).tolist() == want


def index_doc(index, tmp_path):
    path = tmp_path / "saved.json"
    save_index(index, path)
    return json.loads(path.read_text())


def drop(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def put(key, value):
    return lambda doc: {**doc, key: value}


def put_entry(key, entry):
    return lambda doc: {**doc, key: [entry] + doc[key][1:]}


def swap_entry(key, old, new):
    return lambda doc: {**doc, key: [new if e == old else e for e in doc[key]]}


def without_unigram(word):
    return lambda doc: {**doc, "unigram": {w: c for w, c in doc["unigram"].items() if w != word}}


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda doc: [doc], "not a corpus-index"),
        (drop("vocabulary"), "missing vocabulary"),
        (drop("cooc"), "missing cooc"),
        (put("vocabulary", "rain street"), "vocabulary must be a list of words"),
        (put("vocabulary", ["rain", 3]), "vocabulary must be a list of words"),
        (put("vocabulary", ["rain", "rain"]), "duplicate vocabulary"),
        (put("sentence_count", 0), "sentence_count"),
        (put("sentence_count", "4"), "sentence_count"),
        (put("sentence_count", True), "sentence_count"),
        (put("sentence_count", 2**63), "sentence_count"),
        (put("unigram", [["rain", 2]]), "unigram must map"),
        (put("unigram", {"rain": 2.5}), "unigram must map"),
        (lambda doc: {**doc, "unigram": {**doc["unigram"], "rain": 0}}, "unigram must map"),
        (without_unigram("heat"), "unigram words differ"),
        (lambda doc: {**doc, "unigram": {**doc["unigram"], "banana": 1}}, "unigram words differ"),
        (put("cooc", {"rain": 1}), "cooc must be a list"),
        (put_entry("cooc", ["rain"]), "malformed cooc entry"),
        (put_entry("cooc", ["rain", "wet", 1, 2]), "malformed cooc entry"),
        (put_entry("cooc", ["rain", 7, 1]), "malformed cooc entry"),
        (put_entry("prec", ["rain", "wet", 1.0]), "malformed prec entry"),
        (put_entry("prec", ["rain", "wet", -1]), "malformed prec entry"),
        (put_entry("prec", ["dry", "heat", 0]), "malformed prec entry"),
        (put_entry("prec", ["dry", "heat", 2**63]), "malformed prec entry"),
        (put_entry("prec", "rain wet 1"), "malformed prec entry"),
        (lambda doc: {**doc, "cooc": doc["cooc"] + doc["cooc"][:1]}, "duplicate cooc pairs"),
        (put_entry("cooc", ["again", "banana", 1]), "outside the vocabulary"),
        (put_entry("prec", ["banana", "heat", 1]), "outside the vocabulary"),
        (put_entry("prec", ["dry", "dry", 1]), "with itself"),
        (swap_entry("cooc", ["rain", "wet", 1], ["wet", "rain", 1]), "cooc counts differ"),
        (swap_entry("cooc", ["rain", "wet", 1], ["rain", "wet", 2]), "cooc counts differ"),
        (lambda doc: {**doc, "cooc": doc["cooc"][1:]}, "cooc counts differ"),
        (lambda doc: {**doc, "prec": doc["prec"][1:]}, "cooc counts differ"),
    ],
)
def test_load_index_rejects_malformed_files(tiny_index, tmp_path, corrupt, message):
    doc = index_doc(tiny_index, tmp_path)
    assert ["rain", "wet", 1] in doc["cooc"] and doc["prec"][0] == ["dry", "heat", 1]
    path = tmp_path / "index.json"
    path.write_text(json.dumps(doc))
    assert load_index(path).cooc_table() == tiny_index.cooc_table()
    path.write_text(json.dumps(corrupt(doc)))
    with pytest.raises(ValueError, match=message):
        load_index(path)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def index_texts(draw):
    """Index-file text: arbitrary characters, arbitrary JSON, a consistent
    index, or one that is consistent except where the draw breaks it (a key
    dropped or replaced, a word or count of the wrong type, a short or long
    entry, a self-pair, an unknown word, a cooc count that is not the prec
    sum)."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(st.text(st.characters(exclude_categories=("Cs",)), max_size=60))
    if kind == 1:
        return json.dumps(draw(json_values))

    def mostly(good, *bad):
        return good if kind == 2 else draw(st.sampled_from((good,) * 6 + bad))

    words = draw(st.lists(st.sampled_from(["a", "b", "c", "é"]), max_size=4, unique=True))
    word = st.sampled_from(words or ["a"])
    prec = draw(st.dictionaries(st.tuples(word, word).filter(lambda p: p[0] != p[1]), st.integers(1, 5), max_size=4))
    cooc = {}
    for (w, x), c in prec.items():
        key = (min(w, x), max(w, x))
        cooc[key] = cooc.get(key, 0) + c
    doc = {
        "format": mostly("corpus-index", "other"),
        "version": mostly(1, 2, "1"),
        "sentence_count": mostly(draw(st.integers(1, 9)), 0, -1, 2.0, "3", None, 2**63),
        "vocabulary": mostly(words, words + words[:1], "a b", [1]),
        "unigram": mostly({w: draw(st.integers(1, 5)) for w in words}, [["a", 1]], {"a": 1.5}, {"a": -2}, {"z": 1}),
    }
    for key, table in (("cooc", cooc), ("prec", prec)):
        entries = [[w, x, c] for (w, x), c in table.items()]
        for e in entries:
            broken = mostly(
                None, e[:1], e + [0], [e[0], 3, e[2]], [e[0], e[1], float(e[2])], [e[0], e[1], True],
                [e[1], e[0], e[2]], [e[0], e[0], e[2]], [e[0], "z", e[2]], [e[0], e[1], e[2] + 1],
                [e[0], e[1], 0], [e[0], e[1], 2**63],
            )
            if broken is not None:
                e[:] = broken
        doc[key] = mostly(entries, {}, "x", None)
    for key in list(doc):
        action = mostly("keep", "drop", "junk")
        if action == "drop":
            del doc[key]
        elif action == "junk":
            doc[key] = draw(json_values)
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(text=index_texts())
def test_index_loader_gives_an_index_or_value_error(fuzz_dir, text):
    path = fuzz_dir / "index.json"
    path.write_text(text, encoding="utf-8")
    try:
        index = load_index(path)
    except ValueError:
        return
    size = len(index.words)
    assert index.sentence_count >= 1
    assert index.vocabulary == {w: i for i, w in enumerate(index.words)} and len(index.vocabulary) == size
    assert index.unigram.dtype == np.int64 and index.unigram.shape == (size,) and np.all(index.unigram > 0)
    table = index.prec
    assert table.dtype == np.int64 and table.ndim == 2 and table.shape[1] == 3
    assert [tuple(r) for r in table[:, :2].tolist()] == sorted({tuple(r) for r in table[:, :2].tolist()})
    assert np.all(table[:, 0] != table[:, 1]) and np.all(table[:, :2] < size) and np.all(table >= 0)
    assert np.all(table[:, 2] > 0)
    for x, word in enumerate(index.words):
        cooc_row, prec_row = index.cooc_row(word), index.prec_row(word)
        assert cooc_row[x] == index.unigram[x] and prec_row[x] == 0
        for w, other in enumerate(index.words):
            if w != x:
                assert cooc_row[w] == prec_row[w] + index.prec_row(other)[x]


def test_vocab_sample_top_ranks_by_count_then_word(tiny_index):
    top = vocab_sample(tiny_index, 4)
    assert top.words == ("rain", "street", "wet", "again")
    with pytest.raises(ValueError, match="vocabulary has"):
        vocab_sample(tiny_index, 100)
    with pytest.raises(ValueError, match="unknown sampling"):
        vocab_sample(tiny_index, 3, method="stratified")


@pytest.mark.parametrize("method", ["top", "uniform"])
@pytest.mark.parametrize("n", [-1, 0, 1, 2.0, True, "3", None])
def test_vocab_sample_needs_an_integer_of_at_least_two(tiny_index, method, n):
    with pytest.raises(ValueError, match="n must be an integer of at least 2"):
        vocab_sample(tiny_index, n, method=method)
    assert len(vocab_sample(tiny_index, np.int64(2), method=method)) == 2


def test_vocab_sample_uniform_is_seeded(tiny_index):
    a = vocab_sample(tiny_index, 5, method="uniform", seed=SeedSpec(1))
    b = vocab_sample(tiny_index, 5, method="uniform", seed=SeedSpec(1))
    c = vocab_sample(tiny_index, 5, method="uniform", seed=SeedSpec(2))
    assert a.words == b.words
    assert set(a.words) <= set(tiny_index.vocabulary)
    assert len(set(a.words)) == 5
    assert a.words != c.words  # overwhelmingly likely across two seeds


def crafted_embedding():
    return EmbeddingModel(
        words=("a", "b"),
        input_matrix=np.array([[1.0, 2.0], [3.0, 4.0]]),
        output_matrix=np.array([[5.0, 6.0], [7.0, 8.0]]),
    )


def test_w2v_projection_hand_oracles():
    emb = crafted_embedding()
    idx_stub = build_index_from_lines(["a b"])
    assert entry("w2vii", "a", "b", idx_stub, emb) == 11.0
    assert entry("w2vio", "a", "b", idx_stub, emb) == 23.0
    assert entry("w2voi", "a", "b", idx_stub, emb) == 39.0
    with pytest.raises(ValueError, match="needs an embedding"):
        entry("w2vii", "a", "b", idx_stub, None)


def build_index_from_lines(lines):
    import os
    import tempfile

    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return build_index(path)
    finally:
        os.unlink(path)


def test_count_projection_hand_oracles(tiny_index):
    idx = tiny_index
    assert entry("counts", "rain", "wet", idx) == 1 / 4
    assert entry("prec_counts", "rain", "wet", idx) == 1 / 4
    assert entry("prec_counts", "wet", "rain", idx) == 0.0
    # ratio form: (1/4) / ((2/4) * (2/4)) = 1.0
    assert entry("pmi", "rain", "wet", idx) == pytest.approx(1.0)
    assert entry("prec_pmi", "wet", "rain", idx) == 0.0
    assert entry("pmi", "dry", "heat", idx) == pytest.approx(
        (1 / 4) / ((1 / 4) * (1 / 4))
    )
    with pytest.raises(ValueError, match="out of vocabulary"):
        entry("counts", "rain", "banana", idx)
    with pytest.raises(ValueError, match="out of vocabulary"):
        entry("counts", "banana", "rain", idx)


def test_projection_vector_matches_scalar_values(tiny_index, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(TINY_CORPUS)
    oracle = OracleIndex(path)
    vocab = vocab_sample(tiny_index, 4)
    for kind in COUNT_KINDS:
        vec = projection_vector(kind, "wet", vocab, tiny_index)
        for j, w in enumerate(vocab.words):
            assert vec[j] == oracle_projection_value(kind, w, "wet", oracle)


def test_word_pair_scatter_pairs_the_vectors(tiny_index):
    vocab = vocab_sample(tiny_index, 4)
    sc = word_pair_scatter("rain", "wet", "counts", vocab, tiny_index)
    assert sc.n == 4
    assert np.array_equal(sc.a, projection_vector("counts", "rain", vocab, tiny_index))
    assert np.array_equal(sc.b, projection_vector("counts", "wet", vocab, tiny_index))


def test_projection_kind_coercion():
    assert ProjectionKind("w2vii") is ProjectionKind.W2VII
    vec_kinds = {k.value for k in ProjectionKind}
    assert vec_kinds == {"w2vii", "w2vio", "w2voi", "counts", "prec_counts", "pmi", "prec_pmi"}


def test_sgns_train_is_deterministic(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("one two three four five\n" * 30)
    a = sgns_train(path, d=8, epochs=2, seed=SeedSpec(3))
    b = sgns_train(path, d=8, epochs=2, seed=SeedSpec(3))
    assert a.words == b.words
    assert np.array_equal(a.input_matrix, b.input_matrix)
    assert np.array_equal(a.output_matrix, b.output_matrix)
    c = sgns_train(path, d=8, epochs=2, seed=SeedSpec(4))
    assert not np.array_equal(a.input_matrix, c.input_matrix)


def test_sgns_learns_cooccurrence_structure(tmp_path):
    """Words that share sentences should score higher under the trained
    inner product than words that never do."""
    path = tmp_path / "c.txt"
    rng = np.random.default_rng(0)
    lines = []
    for _ in range(150):
        lines.append("alpha beta" if rng.random() < 0.5 else "gamma delta")
    path.write_text("\n".join(lines) + "\n")
    emb = sgns_train(path, d=12, epochs=8, window=2, seed=SeedSpec(9))
    together = float(emb.input_vector("alpha") @ emb.output_vector("beta"))
    apart = float(emb.input_vector("alpha") @ emb.output_vector("delta"))
    assert together > apart


def per_position_sgns(corpus_path, d, epochs, window, negatives, learning_rate, seed):
    """The original SGNS loop, one update per center position with its own
    negative draw and a 2-D np.add.at: the oracle the trainer must match
    bit for bit."""

    def sigmoid(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

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
                token_counts[vocabulary[tok]] += 1
                ids[pos] = vocabulary[tok]
            sentences.append(ids)
    noise = np.array(token_counts, dtype=np.float64) ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    spec = SeedSpec(seed)
    vi = (spec.rng("sgns.init").random((len(vocabulary), d)) - 0.5) / d
    vo = np.zeros((len(vocabulary), d))
    rng_neg = spec.rng("sgns.negatives")
    for _ in range(epochs):
        for sent in sentences:
            for t in range(sent.size):
                lo = max(0, t - window)
                hi = min(sent.size, t + window + 1)
                ctx = np.concatenate([sent[lo:t], sent[t + 1 : hi]])
                if ctx.size == 0:
                    continue
                center = sent[t]
                negs = np.searchsorted(noise_cdf, rng_neg.random((ctx.size, negatives)))
                rows = np.concatenate([ctx[:, None], negs], axis=1).ravel()
                labels = np.zeros((ctx.size, negatives + 1))
                labels[:, 0] = 1.0
                labels = labels.ravel()
                out = vo[rows]
                grad = learning_rate * (labels - sigmoid(out @ vi[center]))
                grad_center = grad @ out
                np.add.at(vo, rows, grad[:, None] * vi[center][None, :])
                vi[center] += grad_center
    return vi, vo


# One-token sentences, lines with no tokens, sentences shorter than the
# window, and words repeated inside one window (duplicate scatter rows).
EQUIVALENCE_CORPUS = """\
solo
the cat saw the cat and the dog saw the cat
---
rain rain rain rain rain
a b
heat
wet street wet street everywhere wet
dog
the rain made the street wet and the dog ran down the wet street again
"""


@pytest.mark.parametrize(
    "d, epochs, window, negatives, learning_rate, seed",
    [
        (8, 2, 2, 3, 0.025, 0),
        (8, 2, 2, 3, 0.025, 1),
        (5, 3, 5, 5, 0.025, 2),
        (6, 2, 1, 0, 0.025, 3),
        (4, 2, 12, 2, 0.5, 4),
        (3, 1, 3, 1, 0.1, 5),
    ],
)
def test_sgns_equals_per_position_loop(tmp_path, d, epochs, window, negatives, learning_rate, seed):
    path = tmp_path / "c.txt"
    path.write_text(EQUIVALENCE_CORPUS)
    emb = sgns_train(
        path, d=d, epochs=epochs, window=window, negatives=negatives, learning_rate=learning_rate, seed=seed
    )
    vi, vo = per_position_sgns(path, d, epochs, window, negatives, learning_rate, seed)
    assert np.array_equal(emb.input_matrix, vi)
    assert np.array_equal(emb.output_matrix, vo)


def test_sgns_defaults_are_those_of_the_shared_trainer():
    """sgns_train and the trainer the CLI reaches with a corpus it already
    read take the same defaults."""
    public = list(inspect.signature(sgns_train).parameters.values())[1:]
    shared = list(inspect.signature(_sgns_train).parameters.values())[1:]
    assert [(p.name, p.default) for p in public] == [(p.name, p.default) for p in shared]


def test_sgns_validation(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a b\n")
    with pytest.raises(ValueError, match="at least 2"):
        sgns_train(path, d=1)
    empty = tmp_path / "e.txt"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty corpus"):
        sgns_train(empty, d=4)
    # Each of these used to return a model: window=0 and epochs=0 an
    # untrained one, window=-2 one trained on contexts sliced from the end.
    for kwargs, message in [
        ({"window": 0}, "window"),
        ({"window": -2}, "window"),
        ({"epochs": 0}, "epochs"),
        ({"epochs": -1}, "epochs"),
        ({"negatives": -1}, "negatives"),
        ({"learning_rate": 0.0}, "learning rate"),
        ({"learning_rate": -0.025}, "learning rate"),
        ({"learning_rate": float("nan")}, "learning rate"),
        ({"learning_rate": float("inf")}, "learning rate"),
        ({"window": 2.5}, "integers"),
        ({"epochs": 1.0}, "integers"),
        ({"negatives": True}, "integers"),
        ({"d": "4"}, "integers"),
    ]:
        with pytest.raises(ValueError, match=message):
            sgns_train(path, **{"d": 4, **kwargs})


def test_embeddings_file_round_trip(tmp_path):
    emb = crafted_embedding()
    vi_path = tmp_path / "vi.txt"
    vo_path = tmp_path / "vo.txt"
    save_embeddings(emb, vi_path, vo_path)
    assert vi_path.read_text().splitlines()[0] == "2 2"
    back = load_embeddings(vi_path, vo_path)
    assert back.words == emb.words
    assert np.array_equal(back.input_matrix, emb.input_matrix)
    assert np.array_equal(back.output_matrix, emb.output_matrix)


def test_load_embeddings_rejects_mismatched_vocabularies(tmp_path):
    emb = crafted_embedding()
    save_embeddings(emb, tmp_path / "vi.txt", tmp_path / "vo.txt")
    other = EmbeddingModel(
        words=("a", "z"),
        input_matrix=np.eye(2),
        output_matrix=np.eye(2),
    )
    save_embeddings(other, tmp_path / "vi2.txt", tmp_path / "vo2.txt")
    with pytest.raises(ValueError, match="different vocabularies"):
        load_embeddings(tmp_path / "vi.txt", tmp_path / "vo2.txt")


def test_load_embeddings_rejects_duplicate_words(tmp_path):
    (tmp_path / "vi.txt").write_text("2 2\na 1.0 2.0\na 3.0 4.0\n")
    (tmp_path / "vo.txt").write_text("2 2\na 5.0 6.0\na 7.0 8.0\n")
    with pytest.raises(ValueError, match="duplicate words"):
        load_embeddings(tmp_path / "vi.txt", tmp_path / "vo.txt")
    # The constructor holds the same check, and derives each word's row
    # from its place in words, so no caller can pass rows that disagree
    # with the order save_embeddings writes.
    with pytest.raises(ValueError, match="duplicate words"):
        EmbeddingModel(words=("a", "a"), input_matrix=np.eye(2), output_matrix=np.eye(2))
    with pytest.raises(TypeError):
        EmbeddingModel(words=("a", "b"), word_rows={"a": 1, "b": 0}, input_matrix=np.eye(2), output_matrix=np.eye(2))
    emb = crafted_embedding()
    assert emb.word_rows == {"a": 0, "b": 1}
    assert emb.input_vector("a").tolist() == [1.0, 2.0]


def test_load_embeddings_rejects_rows_past_the_header_count(tmp_path):
    emb = crafted_embedding()
    save_embeddings(emb, tmp_path / "vi.txt", tmp_path / "vo.txt")
    with open(tmp_path / "vo.txt", "a", encoding="utf-8") as fh:
        fh.write("c 9.0 10.0\n")
    with pytest.raises(ValueError, match="more rows than the header's 2"):
        load_embeddings(tmp_path / "vi.txt", tmp_path / "vo.txt")
    # Trailing blank lines are not rows.
    save_embeddings(emb, tmp_path / "vi.txt", tmp_path / "vo.txt")
    with open(tmp_path / "vo.txt", "a", encoding="utf-8") as fh:
        fh.write("\n  \n")
    assert load_embeddings(tmp_path / "vi.txt", tmp_path / "vo.txt").words == emb.words


@st.composite
def table_texts(draw):
    """Embedding-table text: either arbitrary characters, or a header and
    rows that are well formed except where the draw breaks them (row
    count, row width, duplicate words, non-finite or unparsable values)."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(st.characters(exclude_categories=("Cs",)), max_size=60))

    def mostly(good, *bad):
        return draw(st.sampled_from((good,) * 6 + bad))

    count = mostly(draw(st.integers(0, 3)), -1)
    dim = mostly(draw(st.integers(1, 3)), 0, -1)
    lines = [mostly(f"{count} {dim}", f"{count}", f"{count} {dim} 1", "x 2")]
    for _ in range(mostly(max(count, 0), max(count, 0) + 1, max(count - 1, 0))):
        word = draw(st.sampled_from(["a", "b", "c", "é"]))
        width = mostly(dim, dim - 1, dim + 1)
        values = [mostly(repr(draw(st.floats())), "1e999", "x", "0x1p3") for _ in range(max(width, 0))]
        lines.append(" ".join([word] + values))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(first=table_texts(), second=table_texts())
def test_embedding_loaders_give_a_model_or_value_error(fuzz_dir, first, second):
    vi_path, vo_path = fuzz_dir / "vi.txt", fuzz_dir / "vo.txt"
    vi_path.write_text(first, encoding="utf-8")
    vo_path.write_text(second, encoding="utf-8")
    duplicated = False
    try:
        words, rows = _read_table(vi_path)
    except ValueError:
        pass
    else:
        # The table reader passes duplicate words on; the EmbeddingModel
        # constructor rejects them, so load_embeddings must raise below.
        assert rows.shape[0] == len(words)
        duplicated = len(set(words)) != len(words)
    try:
        emb = load_embeddings(vi_path, vo_path)
    except ValueError:
        return
    assert not duplicated
    assert len(set(emb.words)) == len(emb.words) == emb.input_matrix.shape[0]
    assert emb.input_matrix.shape == emb.output_matrix.shape
    assert np.all(np.isfinite(emb.input_matrix)) and np.all(np.isfinite(emb.output_matrix))


def test_trained_round_trip_preserves_vectors(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("red green blue\nblue green red\n" * 10)
    emb = sgns_train(path, d=6, epochs=1, seed=SeedSpec(2))
    save_embeddings(emb, tmp_path / "vi.txt", tmp_path / "vo.txt")
    back = load_embeddings(tmp_path / "vi.txt", tmp_path / "vo.txt")
    # repr round-trips doubles exactly
    assert np.array_equal(back.input_matrix, emb.input_matrix)
    assert np.array_equal(back.output_matrix, emb.output_matrix)


def test_shannon_entropy_oracles():
    assert shannon_entropy(np.zeros(4)) == 0.0
    assert shannon_entropy(np.array([0.0, 7.0, 0.0])) == 0.0
    assert shannon_entropy(np.ones(8)) == pytest.approx(np.log(8))
    assert shannon_entropy(np.array([1.0, 1.0, 2.0])) == pytest.approx(
        -(0.25 * np.log(0.25) * 2 + 0.5 * np.log(0.5))
    )
    with pytest.raises(ValueError):
        shannon_entropy(np.array([1.0, -1.0]))


def test_weeds_precision_oracles():
    px = np.array([1.0, 1.0, 0.0])
    py = np.array([1.0, 0.0, 5.0])
    assert weeds_precision(px, py) == pytest.approx(0.5)
    assert weeds_precision(py, px) == pytest.approx(1 / 6)
    assert weeds_precision(np.zeros(3), py) is None
    assert weeds_precision(px, np.zeros(3)) == 0.0


def test_baseline_scores_frequency_and_precedence(tiny_index):
    s = baseline_scores("frequency", "rain", "the", tiny_index)
    assert s.s_xy == 2.0 and s.s_yx == 1.0
    assert s.direction().verdict.value == "x->y"
    p = baseline_scores("precedence", "rain", "wet", tiny_index)
    assert p.s_xy == 1.0 and p.s_yx == 0.0
    tie = baseline_scores("precedence", "street", "wet", tiny_index)
    assert tie.tie
    assert tie.direction().score == 0.0


def test_baseline_scores_cover_all_kinds(tiny_index):
    vocab = vocab_sample(tiny_index, 4)
    for kind in BASELINE_KINDS:
        s = baseline_scores(kind, "rain", "wet", tiny_index, vocab)
        assert np.isfinite(s.s_xy) and np.isfinite(s.s_yx)
    with pytest.raises(ValueError, match="unknown baseline"):
        baseline_scores("zipf", "rain", "wet", tiny_index, vocab)
    with pytest.raises(ValueError, match="needs a vocabulary"):
        baseline_scores("counts_ws", "rain", "wet", tiny_index)


def _old_baseline_direction(s_xy, s_yx):
    """The three-way rule BaselineScores.direction had before it went
    through Direction.compare: the score is the winner's lead."""
    if s_xy > s_yx:
        return Direction(Verdict.X_TO_Y, s_xy - s_yx)
    if s_yx > s_xy:
        return Direction(Verdict.Y_TO_X, s_yx - s_xy)
    return Direction(Verdict.X_TO_Y, 0.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1e300), st.floats(0.0, 1e300))
def test_baseline_direction_keeps_the_lead_bits(s_xy, s_yx):
    d, want = BaselineScores(s_xy, s_yx).direction(), _old_baseline_direction(s_xy, s_yx)
    assert (d.verdict, repr(d.score)) == (want.verdict, repr(want.score))
