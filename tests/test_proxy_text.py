"""Corpus statistics, embeddings, projections, and count baselines."""

import inspect
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxycause.core import Direction, SeedSpec, Verdict
from proxycause.experiments import bundled_data_path
from proxycause.proxy_text import (
    BASELINE_KINDS,
    BaselineScores,
    EmbeddingModel,
    PROJECTION_KINDS,
    VocabSample,
    W2V_TABLES,
    baseline_scores,
    build_index,
    load_embeddings,
    _NOISE_BUCKETS,
    _SGNS_BLOCK,
    _noise_cdf,
    _noise_lookup,
    _read_corpus,
    _read_table,
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
    if kind == "counts":
        return index.cooc(w, x) / index.sentence_count
    if kind == "prec_counts":
        return index.prec_cooc(w, x) / index.sentence_count
    joint = index.cooc(w, x) if kind == "pmi" else index.prec_cooc(w, x)
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
    assert "rain" in tiny_index.vocabulary
    assert "banana" not in tiny_index.vocabulary


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


def oracle_index_bytes(oracle):
    """The bytes of a version-2 index file written with dicts and ``sorted``
    over the dict oracle: what save_index must write."""
    words, ids = list(oracle.vocabulary), oracle.vocabulary
    rows = sorted([ids[w], ids[x], c] for (w, x), c in oracle.prec_counts.items())
    doc = {
        "format": "corpus-index",
        "version": 2,
        "sentence_count": oracle.sentence_count,
        "vocabulary": words,
        "unigram": [oracle.unigram[w] for w in words],
        "prec": [value for row in rows for value in row],
    }
    out = io.StringIO()
    json.dump(doc, out, sort_keys=True)
    return out.getvalue().encode("utf-8")


# Non-ASCII words, which the file escapes, whose code-point order
# (b < ä < ß < é < ω < 日) is not their id order, repeated within a line,
# one-token lines.
scripts = st.lists(
    st.lists(st.sampled_from(["zé", "b", "ä", "a", "Ωmega", "日本", "ß", "b2", "é"]), min_size=1, max_size=5).map(" ".join),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(lines=scripts)
@example(lines=["é", "a a", "日本", "é"])  # no pair at all
@example(lines=["zé b zé", "b", "ä b a ä"])
# The bundled corpus, whose file tests/test_golden.py pins as SAVED_INDEX.
@example(lines=Path(bundled_data_path("mini_corpus.txt")).read_text(encoding="utf-8").splitlines())
def test_saved_index_bytes_equal_the_dict_writer(fuzz_dir, lines):
    path = fuzz_dir / "corpus.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    saved, again = fuzz_dir / "index.json", fuzz_dir / "again.json"
    save_index(build_index(path), saved)
    assert saved.read_bytes() == oracle_index_bytes(OracleIndex(path))
    save_index(load_index(saved), again)
    assert again.read_bytes() == saved.read_bytes()


def zipf_corpus(size, seed):
    """size lines of 1-15 words drawn from size words with Zipf weights."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, size + 1)
    lengths = rng.integers(1, 16, size=size)
    tokens = np.array([f"w{r}" for r in range(size)])[rng.choice(size, size=lengths.sum(), p=weights / weights.sum())]
    return "".join(" ".join(line) + "\n" for line in np.split(tokens, np.cumsum(lengths)[:-1]))


def test_chunked_index_equals_the_dict_oracle_on_a_zipf_corpus(tmp_path, monkeypatch):
    path = tmp_path / "zipf.txt"
    path.write_text(zipf_corpus(2000, seed=11))
    whole = build_index(path)
    monkeypatch.setattr("proxycause.proxy_text._CHUNK", 97)  # 21 chunks, merged into one table
    index, oracle = build_index(path), OracleIndex(path)
    assert_same_index(index, whole)
    assert index.words == tuple(oracle.vocabulary) and len(index.words) > 1000
    assert dict(zip(index.words, index.unigram.tolist())) == oracle.unigram
    assert {(index.words[i], index.words[j]): c for i, j, c in index.prec.tolist()} == oracle.prec_counts


def index_doc(index, tmp_path):
    path = tmp_path / "saved.json"
    save_index(index, path)
    return json.loads(path.read_text())


def drop(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def put(key, value):
    return lambda doc: {**doc, key: value}


def put_at(key, position, value):
    return lambda doc: {**doc, key: doc[key][:position] + [value] + doc[key][position + 1 :]}


def put_entry(entry):
    """The first prec triple replaced by entry."""
    return lambda doc: {**doc, "prec": entry + doc["prec"][3:]}


# The tiny index has 9 words (the, rain, made, street, wet, again,
# everywhere, dry, heat: ids 0-8, each seen in 1 or 2 of its 4 sentences)
# and 15 prec rows, the first (the, rain) and the last (dry, heat).
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda doc: [doc], "not a corpus-index"),
        (put("version", 1), "unsupported index version 1: rebuild it with index-corpus"),
        (drop("vocabulary"), "missing vocabulary"),
        (drop("prec"), "missing prec"),
        (put("vocabulary", "rain street"), "vocabulary must be a list of words"),
        (put("vocabulary", ["rain", 3]), "vocabulary must be a list of words"),
        (put("vocabulary", ["rain", "rain"]), "duplicate vocabulary"),
        (put("sentence_count", 0), "sentence_count"),
        (put("sentence_count", "4"), "sentence_count"),
        (put("sentence_count", True), "sentence_count"),
        (put("sentence_count", 2**63), "sentence_count"),
        (lambda doc: {**doc, "unigram": dict(zip(doc["vocabulary"], doc["unigram"]))}, "unigram must map"),
        (put_at("unigram", 1, 2.5), "unigram must map"),
        (put_at("unigram", 1, 0), "unigram must map"),
        (lambda doc: {**doc, "unigram": doc["unigram"][:-1]}, "unigram must map"),
        (lambda doc: {**doc, "unigram": doc["unigram"] + [1]}, "unigram must map"),
        (put("prec", {"rain": 1}), "prec must be a flat list"),
        (lambda doc: {**doc, "prec": doc["prec"][:-1]}, "prec must be a flat list"),
        (lambda doc: {**doc, "prec": doc["prec"] + [1]}, "prec must be a flat list"),
        (put_entry([0, 1, 1.0]), "malformed prec entry"),
        (put_entry([0, 1, -1]), "malformed prec entry"),
        (put_entry([0, 1, 0]), "malformed prec entry"),
        (put_entry([0, 1, 2**63]), "malformed prec entry"),
        (lambda doc: {**doc, "prec": [doc["prec"][k : k + 3] for k in range(0, 45, 3)]}, "malformed prec entry"),
        (put_entry(["the", "rain", 1]), "malformed prec entry"),
        (put_entry([-(2**70), 1, 5]), r"malformed prec entry \[-1180591620717411303424, 1, 5\]"),
        (put_entry([2**63, 1, 1]), "malformed prec entry"),
        (put_entry([True, 1, 1]), "malformed prec entry"),
        (put_at("prec", 20, True), r"entry \[1, 4, True\]"),
        (put_entry([0, 9, 1]), "outside the vocabulary"),
        (put_entry([9, 8, 1]), "outside the vocabulary"),
        (put_entry([0, 0, 1]), "with itself"),
        pytest.param(
            lambda doc: {**doc, "prec": doc["prec"][:3] + doc["prec"]},
            "prec pairs must be distinct and sorted",
            id="duplicate prec pairs",
        ),
        (lambda doc: {**doc, "prec": doc["prec"][3:6] + doc["prec"][:3] + doc["prec"][6:]}, "must be distinct and sorted"),
        (put("sentence_count", 1), "a unigram count exceeds sentence_count"),
        (put_at("prec", 44, 2), "a cooc count exceeds a word's unigram count"),
        # street, wet: prec 1 in each order and unigram 2 each, so 2 + 1 > 2.
        (put_at("prec", 32, 2), "a cooc count exceeds a word's unigram"),
        # Two counts whose int64 sum wraps to -2.
        (lambda doc: put_at("prec", 32, 2**63 - 1)(put_at("prec", 38, 2**63 - 1)(doc)), "a cooc count exceeds"),
    ],
)
def test_load_index_rejects_malformed_files(tiny_index, tmp_path, corrupt, message):
    doc = index_doc(tiny_index, tmp_path)
    assert doc["prec"][:3] == [0, 1, 1] and doc["prec"][-3:] == [7, 8, 1] and len(doc["prec"]) == 45
    assert doc["prec"][18:21] == [1, 4, 1] and doc["prec"][30:33] + doc["prec"][36:39] == [3, 4, 1, 4, 3, 1]
    path = tmp_path / "index.json"
    path.write_text(json.dumps(doc))
    assert_same_index(load_index(path), tiny_index)
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
    """Index-file text: arbitrary characters, JSON nested too deeply to
    parse, arbitrary JSON, a consistent version-2 index, or a consistent one
    with exactly one thing broken.
    That is one key (dropped, replaced by arbitrary JSON, or given a value
    of the wrong type or range) or one prec entry (short, long, of the wrong
    type or range, a self-pair, an unknown id, a duplicate, or a count above
    the unigram counts)."""
    # Each break kind is drawn twice as often as the others, so that a
    # 1,000-draw run reaches every check of load_index.
    kind = draw(st.sampled_from(["text", "json", "consistent", "key", "key", "entry", "entry"]))
    if kind == "text":
        return draw(st.text(st.characters(exclude_categories=("Cs",)), max_size=60) | st.just("[" * 100_000))
    if kind == "json":
        return json.dumps(draw(json_values))
    broken = kind != "consistent"
    # Only the consistent kind may be empty: a break needs an entry to break.
    words = draw(st.lists(st.sampled_from(["a", "b", "c", "é"]), min_size=2 * broken, max_size=4, unique=True))
    size = len(words)
    ids = st.integers(0, max(size - 1, 0))
    # Counts of 1 or 2 per order stay within unigram counts of 4 to 9.
    pairs = st.tuples(ids, ids).filter(lambda p: p[0] != p[1])
    prec = draw(st.dictionaries(pairs, st.integers(1, 2), min_size=broken, max_size=4))
    entries = [[i, j, c] for (i, j), c in sorted(prec.items())]
    if kind == "entry":
        at = draw(st.integers(0, len(entries) - 1))
        i, j, c = entries[at]
        entries[at : at + 1] = draw(st.sampled_from([
            [[i]], [[i, j, c, 0]], [["a", j, c]], [[i, j, float(c)]], [[i, j, True]], [[-(2**70), j, c]],
            [[i, j, 0]], [[i, j, 2**63]], [[i, size, c]], [[i, i, c]], [[i, j, c], [i, j, c]], [[i, j, 10]],
        ]))
    doc = {
        "format": "corpus-index",
        "version": 2,
        "sentence_count": draw(st.integers(9, 12)),
        "vocabulary": words,
        "unigram": draw(st.lists(st.integers(4, 9), min_size=size, max_size=size)),
        "prec": [v for e in entries for v in e],
    }
    if kind == "key":
        bad = {
            "format": ["other"],
            "version": [1, "2"],
            "sentence_count": [0, -1, 2.0, "3", None, 2**63, 1],
            "vocabulary": [words + words[:1], "a b", [1]],
            "unigram": [{"a": 4}, [4.5] * size, [-2] * size, [4] * (size + 1), [13] * size],
            "prec": [entries, {}, "x", None, doc["prec"][:-1]],
        }
        key = draw(st.sampled_from(sorted(doc)))
        value = draw(st.sampled_from(["drop", "junk", *bad[key]]))
        if value == "drop":
            del doc[key]
        else:
            doc[key] = draw(json_values) if value == "junk" else value
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


def test_index_fuzz_reaches_every_load_index_check(fuzz_dir):
    """Over a derandomized 1,000-draw run of index_texts, every message that
    load_index can raise is raised at least once, after the file's name."""
    source = inspect.getsource(load_index)
    templates = re.findall(r'raise ValueError\(f?"(.*?)"\)', source)
    path = fuzz_dir / "coverage.json"
    prefix = re.escape(f"{path}: ")
    checks = [re.compile(prefix + ".*".join(map(re.escape, re.split(r"\{.*?\}", t))) + "$") for t in templates]
    hits = [0] * len(checks)

    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    @given(text=index_texts())
    def run(text):
        path.write_text(text, encoding="utf-8")
        try:
            load_index(path)
        except ValueError as err:
            for k, check in enumerate(checks):
                hits[k] += bool(check.match(str(err)))

    run()
    assert len(templates) == source.count("raise ValueError") == 13
    assert all(hits), [t for t, n in zip(templates, hits) if not n]


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


def test_a_missing_word_is_named_with_the_vocabulary_that_lacks_it():
    emb = crafted_embedding()
    idx_stub = build_index_from_lines(["a b c"])
    with pytest.raises(ValueError, match=r"^out of the embedding vocabulary: 'c'$"):
        entry("w2vio", "c", "a", idx_stub, emb)
    with pytest.raises(ValueError, match=r"^out of the embedding vocabulary: 'c'$"):
        entry("w2voi", "a", "c", idx_stub, emb)
    with pytest.raises(ValueError, match=r"^out of vocabulary: 'z'$"):
        entry("w2vii", "a", "z", idx_stub, emb)


def test_the_kind_table_leaves_the_count_kinds_to_the_baselines():
    assert [kind for kind in PROJECTION_KINDS if kind in W2V_TABLES] == ["w2vii", "w2vio", "w2voi"]
    assert BASELINE_KINDS == (
        "frequency", "precedence",
        "counts_entropy", "counts_ws", "prec_counts_entropy", "prec_counts_ws",
        "pmi_entropy", "pmi_ws", "prec_pmi_entropy", "prec_pmi_ws",
    )


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


def test_word_pair_scatter_names_a_constant_projection():
    index = build_index(bundled_data_path("mini_corpus.txt"))
    # a uniform 20-word proxy sample that precedes neither 'flooding' nor 'smoke'
    vocab = vocab_sample(index, 20, "uniform", seed=0)
    assert not projection_vector("prec_counts", "flooding", vocab, index).any()
    with pytest.raises(ValueError, match=r"constant projection of 'flooding' \(prec_counts\)"):
        word_pair_scatter("flooding", "rain", "prec_counts", vocab, index)
    with pytest.raises(ValueError, match=r"constant projection of 'smoke' \(prec_pmi\)"):
        word_pair_scatter("fire", "smoke", "prec_pmi", vocab, index)
    # random embedding tables but for a zero input row of 'erosion'
    rng = np.random.default_rng(0)
    vi = rng.standard_normal((len(index.words), 8))
    vi[index.words.index("erosion")] = 0.0
    emb = EmbeddingModel(index.words, vi, rng.standard_normal(vi.shape))
    top = vocab_sample(index, 50)
    with pytest.raises(ValueError, match=r"constant projection of 'erosion' \(w2vii\)"):
        word_pair_scatter("erosion", "overgrazing", "w2vii", top, index, emb)
    with pytest.raises(ValueError, match=r"constant projection of 'erosion' \(w2vii\)"):
        word_pair_scatter("overgrazing", "erosion", "w2vii", top, index, emb)
    assert word_pair_scatter("erosion", "overgrazing", "w2vio", top, index, emb).n == 50


def test_projection_kinds_are_one_tuple():
    assert PROJECTION_KINDS == ("w2vii", "w2vio", "w2voi", "counts", "prec_counts", "pmi", "prec_pmi")


def test_each_projection_baseline_scores_the_projection_it_names(tiny_index):
    """Each projection baseline scores the projection its name starts
    with.  Only the command line reads '-' as '_'."""
    vocab = vocab_sample(tiny_index, 4)
    for kind in COUNT_KINDS:
        px = projection_vector(kind, "rain", vocab, tiny_index)
        py = projection_vector(kind, "wet", vocab, tiny_index)
        entropy = baseline_scores(f"{kind}_entropy", "rain", "wet", tiny_index, vocab)
        assert (entropy.s_xy, entropy.s_yx) == (shannon_entropy(px), shannon_entropy(py))
        ws = baseline_scores(f"{kind}_ws", "rain", "wet", tiny_index, vocab)
        want = (weeds_precision(px, py), weeds_precision(py, px)) if px.any() and py.any() else (0.0, 0.0)
        assert (ws.s_xy, ws.s_yx) == want
    with pytest.raises(ValueError, match="prec-counts"):
        projection_vector("prec-counts", "rain", vocab, tiny_index)
    with pytest.raises(ValueError, match="unknown baseline"):
        baseline_scores("prec-counts-ws", "rain", "wet", tiny_index, vocab)


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
    alpha, beta, delta = (emb.word_rows[w] for w in ("alpha", "beta", "delta"))
    together = float(emb.input_matrix[alpha] @ emb.output_matrix[beta])
    apart = float(emb.input_matrix[alpha] @ emb.output_matrix[delta])
    assert together > apart


def per_position_sgns(corpus_path, d, epochs, window, negatives, learning_rate, seed):
    """SGNS one center position at a time, each with its own negative draw
    and a 2-D np.add.at, with every update deferred: a position's gradients
    are computed from the tables as they stood at the start of its block of
    ``_SGNS_BLOCK`` center positions (counted across sentences, skipping
    positions with no context) and added at the block's end.  The oracle
    the block trainer must match to rounding."""

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
        dvi, dvo, taken = np.zeros_like(vi), np.zeros_like(vo), 0
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
                dvi[center] += grad @ out
                np.add.at(dvo, rows, grad[:, None] * vi[center][None, :])
                taken += 1
                if taken == _SGNS_BLOCK:
                    vi, vo = vi + dvi, vo + dvo
                    dvi, dvo, taken = np.zeros_like(vi), np.zeros_like(vo), 0
        vi, vo = vi + dvi, vo + dvo
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


# (d, epochs, window, negatives, learning_rate, seed)
EQUIVALENCE_RUNS = [
    (8, 2, 2, 3, 0.025, 0),
    (8, 2, 2, 3, 0.025, 1),
    (5, 3, 5, 5, 0.025, 2),
    (6, 2, 1, 0, 0.025, 3),
    # Two runs at lr 0.5 that diverge (a largest entry of 2,255 after 2
    # epochs), and the same run at 0.2, which stays near 1 (1.02).
    (4, 2, 12, 2, 0.5, 4),
    (4, 2, 12, 2, 0.2, 4),
    (3, 1, 3, 1, 0.1, 5),
]


@pytest.mark.parametrize("d, epochs, window, negatives, learning_rate, seed", EQUIVALENCE_RUNS)
def test_sgns_equals_per_position_loop(tmp_path, d, epochs, window, negatives, learning_rate, seed):
    path = tmp_path / "c.txt"
    path.write_text(EQUIVALENCE_CORPUS)
    emb = sgns_train(
        path, d=d, epochs=epochs, window=window, negatives=negatives, learning_rate=learning_rate, seed=seed
    )
    vi, vo = per_position_sgns(path, d, epochs, window, negatives, learning_rate, seed)
    # The two sum each block's gradients in different orders, so they agree
    # to rounding: relative to each table's largest entry, within 1e-12.
    for got, want in ((emb.input_matrix, vi), (emb.output_matrix, vo)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize(
    "corpus, run",
    [(EQUIVALENCE_CORPUS, run) for run in EQUIVALENCE_RUNS]
    + [(zipf_corpus(2000, seed=11), (8, 2, 5, 5, 0.025, 7)), ("solo\nheat\ndog\nsolo\n", (4, 2, 5, 5, 0.025, 0))],
    ids=[f"equivalence-{i}" for i in range(len(EQUIVALENCE_RUNS))] + ["zipf-2000", "one-word-lines"],
)
def test_sgns_tables_do_not_depend_on_the_planning_chunk(tmp_path, monkeypatch, chunk, corpus, run):
    """Planning 1 or 3 blocks at a time, so that chunks end inside the
    corpus and the last one is short, gives the default's tables bit for bit."""
    path = tmp_path / "c.txt"
    path.write_text(corpus)
    d, epochs, window, negatives, learning_rate, seed = run
    kwargs = dict(d=d, epochs=epochs, window=window, negatives=negatives, learning_rate=learning_rate, seed=seed)
    whole = sgns_train(path, **kwargs)
    monkeypatch.setattr("proxycause.proxy_text._SGNS_CHUNK", chunk)
    chunked = sgns_train(path, **kwargs)
    for got, want in ((chunked.input_matrix, whole.input_matrix), (chunked.output_matrix, whole.output_matrix)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "counts",
    [
        np.bincount(np.concatenate(_read_corpus(bundled_data_path("mini_corpus.txt"))[1])),
        np.maximum(1, 10**6 // np.arange(1, 10_001)),  # 10,000 words with Zipf counts
    ],
    ids=["bundled", "zipf-10000"],
)
def test_noise_lookup_equals_searchsorted_on_adversarial_draws(counts):
    """The bucket table gives np.searchsorted's ids bit for bit at 0, at every
    bucket edge, just below 1, and at every CDF entry and its two float
    neighbours: the draws where a bucket or a CDF step begins or ends."""
    noise = counts ** 0.75
    assert np.cumsum(noise / noise.sum())[-1] != 1.0  # the rounded end that the CDF replaces with 1.0
    cdf = _noise_cdf(counts)
    assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0)
    edges = np.arange(_NOISE_BUCKETS) / _NOISE_BUCKETS
    steps = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)])
    draws = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges, steps[steps < 1.0]])
    ids = _noise_lookup(cdf)(draws)
    assert np.array_equal(ids, np.searchsorted(cdf, draws))
    assert ids.max() == counts.size - 1


def test_sgns_tables_stay_bounded_at_the_default_learning_rate(tmp_path):
    """Blocks of 8 positions stay stable on lines that repeat a few words,
    where whole-sentence blocks do not (a max entry of 1.5e6 on the
    alternating line): d=50, 5 epochs, the default learning rate."""
    rng = np.random.default_rng(0)
    words = np.array([f"w{i}" for i in range(50)])
    share = np.full(50, 0.3 / 47)
    share[:3] = 0.7 / 3
    corpora = {
        "alternating": " ".join(["a", "b"] * 100) + "\n",
        "three words": "".join(" ".join(words[rng.choice(50, 300, p=share)]) + "\n" for _ in range(20)),
    }
    for name, text in corpora.items():
        path = tmp_path / "c.txt"
        path.write_text(text)
        emb = sgns_train(path, d=50, epochs=5, seed=0)
        assert max(np.abs(emb.input_matrix).max(), np.abs(emb.output_matrix).max()) < 10, name


def test_sgns_refuses_a_diverged_table(tmp_path):
    """The alternating line that holds at the default rate diverges at
    0.05 (a largest entry of 2.5e17 after one epoch), which raises instead
    of returning tables."""
    path = tmp_path / "c.txt"
    path.write_text(" ".join(["a", "b"] * 100) + "\n")
    with pytest.raises(ValueError, match=r"diverged at learning rate 0\.05: .* in epoch 1 "):
        sgns_train(path, d=50, epochs=5, learning_rate=0.05, seed=0)


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
        ({"learning_rate": 0.0}, "learning_rate"),
        ({"learning_rate": -0.025}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"window": 2.5}, "window must be an integer of at least 1, got 2.5"),
        ({"epochs": 1.0}, "epochs must be an integer of at least 1, got 1.0"),
        ({"negatives": True}, "negatives must be an integer of at least 0, got True"),
        ({"d": "4"}, "d must be an integer of at least 2, got '4'"),
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
    assert emb.input_matrix[emb.word_rows["a"]].tolist() == [1.0, 2.0]


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("b nan 1.0", "embedding vectors must be an array of at least 0 finite numbers, got nan at index (1, 0)"),
        ("b 1.0 -inf", "embedding vectors must be an array of at least 0 finite numbers, got -inf at index (1, 1)"),
        ("a 1.0 1.0", "embedding table has duplicate words"),
    ],
)
@pytest.mark.parametrize("at_fault", ["vi.txt", "vo.txt"])
def test_load_embeddings_names_the_table_at_fault(tmp_path, bad_row, message, at_fault):
    """A table that fails a check of its own is named, whichever of the two it is."""
    for name in ("vi.txt", "vo.txt"):
        second = bad_row if name == at_fault else "b 3.0 4.0"
        (tmp_path / name).write_text(f"2 2\na 1.0 2.0\n{second}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{tmp_path / at_fault}: {message}')}$"):
        load_embeddings(tmp_path / "vi.txt", tmp_path / "vo.txt")


@pytest.mark.parametrize("header", ["", "2", "2 2 2", "x y", "2 x", "2 3.0", "-1 3", "2 0", "２ 3"])
def test_read_table_refuses_a_bad_header(tmp_path, header):
    path = tmp_path / "vi.txt"
    path.write_text(header + "\na 1.0 2.0 3.0\nb 4.0 5.0 6.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad embedding header$"):
        _read_table(path)


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
    try:
        words, rows = _read_table(vi_path)
    except ValueError:
        pass
    else:
        # The table reader refuses duplicate words and non-finite values itself.
        assert rows.shape[0] == len(words) == len(set(words))
        assert np.all(np.isfinite(rows))
    try:
        emb = load_embeddings(vi_path, vo_path)
    except ValueError:
        return
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
    assert tie.s_xy == tie.s_yx
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
