"""Column analysis: ``StandardAnalyzer.analyze_column`` against the per-doc
``analyze_with_positions`` (its oracle), lone surrogates in indexed text,
and index bytes that do not depend on where the corpus sits."""

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lucene_solr_ray.analysis.analyzer import (
    ENGLISH_STOP_WORDS,
    KeywordAnalyzer,
    StandardAnalyzer,
    text_array,
)
from lucene_solr_ray.index.segment import build_segment_tables

# pieces that exercise each route: plain ASCII words (some of them stop
# words), joiners between word chars, underscore runs, non-ASCII and CJK
# text, and lone surrogates
_PIECES = [
    "foo", "Bar", "QUX9", "the", "of", "a", "And", "x_y", "42", "_", "__",
    "_lead", "trail_", "_both_", "a.b", "3,4", "x'y", "a:b", "3;4", "b.",
    ".c", "it's", "'", "café", "ÉCOLE", "İstanbul", "ΟΔΟΣ", "日本語",
    "한국어", "ｶﾀｶﾅ", " ", "\ud800", "\udc00", "😀",
]
_SEPS = [" ", "  ", "\n", "\t", ".", ",", "-", "'", ":", ";", "!?", "/", ""]


@st.composite
def _doc(draw, max_len):
    """One text: pieces and separators, plus runs around ``max_len``."""
    runs = [
        "a" * max_len, "a" * (max_len + 1), "_" * max_len + "b",
        "_" * (max_len + 2), "x1_" * (max_len // 3 + 1),
        "b" * (2 * max_len + 1), "_" + "c" * max_len + "_",
    ]
    word = st.one_of(
        st.sampled_from(_PIECES),
        st.sampled_from(runs),
        st.text(st.characters(min_codepoint=32, max_codepoint=126),
                max_size=12),
    )
    parts = draw(st.lists(st.tuples(word, st.sampled_from(_SEPS)),
                          max_size=12))
    return "".join(w + s for w, s in parts)


@st.composite
def _case(draw):
    max_len = draw(st.sampled_from([255, 1, 2, 5, 8, 40]))
    stop = draw(st.sampled_from(
        [(), ENGLISH_STOP_WORDS, {"foo", "x_y", "café", "a.b"}]))
    kind = draw(st.sampled_from(["standard", "standard", "keyword"]))
    analyzer = (KeywordAnalyzer(lowercase_value=True) if kind == "keyword"
                else StandardAnalyzer(stop, max_token_length=max_len))
    texts = draw(st.lists(st.one_of(st.none(), st.just(""), _doc(max_len)),
                          max_size=8))
    form = draw(st.sampled_from(["list", "array", "chunked", "sliced",
                                 "large_string"]))
    return analyzer, texts, form


def _as_form(texts, form):
    if form == "list":
        return texts
    arr = text_array(texts)
    if form == "chunked":
        k = len(arr) // 2
        return pa.chunked_array([arr[:k], arr[k:]], pa.string())
    if form == "sliced":
        return pa.concat_arrays(
            [text_array(["pad"]), arr, text_array(["pad"])])[1:1 + len(arr)]
    if form == "large_string":
        return arr.cast(pa.large_string())
    return arr


@settings(max_examples=400, deadline=None)
@given(_case())
@example((StandardAnalyzer(), ["a" * 255 + " " + "b" * 256, "a.b c"],
          "list"))
@example((StandardAnalyzer(ENGLISH_STOP_WORDS),
          ["the cat and THE dog", None, "", "___ _x_ of", "日本 the a.b"],
          "array"))
def test_analyze_column_equals_per_doc(case):
    analyzer, texts, form = case
    tokens, docs, positions, lens = analyzer.analyze_column(
        _as_form(texts, form))
    assert len(tokens) == len(docs) == len(positions)
    assert tokens.type == pa.string() and len(lens) == len(texts)
    assert np.all(np.diff(docs) >= 0)
    edges = np.searchsorted(docs, np.arange(len(texts) + 1))
    tokens = tokens.to_pylist()
    for i, text in enumerate(text_array(texts).to_pylist()):
        want = analyzer.analyze_with_positions(text or "")
        a, b = edges[i], edges[i + 1]
        assert (tokens[a:b], positions[a:b].tolist(), int(lens[i])) == \
            tuple(want), (i, text)


def test_lone_surrogate_builds():
    seg = build_segment_tables([0, 1], ["abc\ud800def x", "ok"])
    assert seg.postings.column("term").to_pylist() == \
        ["abc", "def", "ok", "x"]
    assert seg.docmeta.column("field_len").to_pylist() == [3, 1]
    assert seg.docmeta.column("content_sha256")[0].as_py() == \
        hashlib.sha256("abc\ufffddef x".encode("utf-8")).digest()


def test_surrogate_pair_joins_into_one_code_point():
    arr = text_array(["a😀b", "\udc00\ud800", None])
    assert arr.to_pylist() == ["a\U0001f600b", "\ufffd\ufffd", None]


def _corpus(path, texts):
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    }), path)


def test_write_paths_take_lone_surrogates(ray_session, tmp_path):
    from lucene_solr_ray.index.atomic import (
        atomic_update_documents,
        get_current_documents,
    )
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.deletes import add_documents, update_documents
    from lucene_solr_ray.search.searcher import Index

    corpus = str(tmp_path / "c.parquet")
    _corpus(corpus, ["alpha beta", "gamma delta", "alpha gamma"])
    out = str(tmp_path / "idx")
    build_index(corpus, out, text_col="text", id_col="doc_id",
                docs_per_segment=2)
    add_documents(out, [3], ["addone\ud800addtwo"])
    update_documents(out, [1], ["upone\udfffuptwo"])
    # a JSON update may carry a lone surrogate: json.loads accepts it
    atomic_update_documents(out, corpus, json.loads(
        '[{"doc_id": 2, "text": {"set": "setone\\ud800settwo"}}]'))
    idx = Index(out)
    for term, doc in [("addtwo", 3), ("uptwo", 1), ("settwo", 2)]:
        assert idx.search({0: term}, k=5).column(
            "doc_id").to_pylist() == [doc]
    assert get_current_documents(out, corpus, [2])[2] == \
        "setone\ufffdsettwo"


def test_index_bytes_do_not_depend_on_location(ray_session, tmp_path):
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.merge import merge_until_done
    from lucene_solr_ray.index.merge_policy import TieredMergePolicy

    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(50)]
    texts = [" ".join(rng.choice(words, 8)) for _ in range(40)]
    roots = [tmp_path / "a", tmp_path / "b" / "deeper" / "still"]
    for root in roots:
        os.makedirs(root)
        _corpus(str(root / "c.parquet"), texts)
        build_index(str(root / "c.parquet"), str(root / "idx"),
                    text_col="text", id_col="doc_id", docs_per_segment=10)
        merge_until_done(str(root / "idx"), TieredMergePolicy(
            max_merge_at_once=2, segs_per_tier=2.0))
    files = sorted(
        os.path.relpath(os.path.join(d, f), roots[0] / "idx")
        for d, _, fs in os.walk(roots[0] / "idx") for f in fs)
    assert any(f.endswith("segment.json") for f in files)
    assert any(f.startswith("manifest-") for f in files)
    for f in files:
        a = (roots[0] / "idx" / f).read_bytes()
        assert a == (roots[1] / "idx" / f).read_bytes(), f
    meta = json.loads((roots[0] / "idx" / "seg_000000" /
                       "segment.json").read_text())
    assert meta["lineage"]["path"] == os.path.join("..", "c.parquet")
