"""Exact-phrase frequency: the vectorised pass (``exact_phrase_freqs``,
one numpy intersection of (doc, shifted position) keys over all
candidate docs) must give the same (ords, freqs) as the per-doc loop it
replaced, kept here as the oracle: for each candidate doc, intersect
every term's positions shifted by its phrase offset, and count.

Covered: repeated terms (``"a a"``), stop-word position gaps in docs and
phrases, field-scoped phrases on a multi-field segment, a tombstoned
segment, and the one-doc ``MemoryIndex`` reader."""

import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lucene_solr_ray.analysis.analyzer import StandardAnalyzer
from lucene_solr_ray.index import sidecars
from lucene_solr_ray.index.manifest import write_segment_dir
from lucene_solr_ray.index.segment import (
    build_segment_tables,
    build_segment_tables_multi,
)
from lucene_solr_ray.search.memory import MemoryIndex
from lucene_solr_ray.search.query import PhraseQuery
from lucene_solr_ray.search.reader import SegmentReader
from lucene_solr_ray.search.scorer import GlobalStats, _Eval, score_segment
from lucene_solr_ray.search.similarity import BM25Similarity

VOCAB = ["a", "b", "c", "the"]
#: "the" is dropped at analysis and leaves a position gap
ANALYZER = StandardAnalyzer(stop_words={"the"})

texts = st.lists(
    st.lists(st.sampled_from(VOCAB), max_size=30).map(" ".join),
    min_size=1, max_size=25,
)
phrases = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4).filter(
    lambda ws: any(w != "the" for w in ws)
)


def _query(words, field=None) -> PhraseQuery:
    """The phrase of ``words`` as the query parser builds it: stop words
    dropped, each kept word at its position in the phrase."""
    kept = [(w, i) for i, w in enumerate(words) if w != "the"]
    return PhraseQuery(tuple(w for w, _ in kept),
                       tuple(i for _, i in kept), field=field)


def _stats(reader, q) -> GlobalStats:
    st_ = GlobalStats(doc_count=reader.ndocs, sum_total_term_freq=1)
    for key in q.terms():
        p = reader.postings(key)
        st_.df[key] = 0 if p is None else len(p[0])
    return st_


def _loop_freqs(reader, q):
    """The per-doc oracle."""
    readers = [reader.positions(k) for k in q.terms()]
    if any(r is None for r in readers):
        return [], []
    cand = readers[0][0]
    for ords, _ in readers[1:]:
        cand = np.intersect1d(cand, ords, assume_unique=True)
    rel = np.asarray(q.positions, dtype=np.int64)
    rel = rel - rel[0]
    out_ords, out_freqs = [], []
    for d in cand:
        base = None
        for (ords, pos), off in zip(readers, rel):
            p = pos(int(np.searchsorted(ords, d))) - off
            base = p if base is None else np.intersect1d(
                base, p, assume_unique=True)
        if len(base):
            out_ords.append(int(d))
            out_freqs.append(float(len(base)))
    return out_ords, out_freqs


def _assert_same(reader, q):
    stats = _stats(reader, q)
    ords, freqs = _Eval(reader, stats, BM25Similarity())._phrase_freqs(q)
    want_ords, want_freqs = _loop_freqs(reader, q)
    assert ords.tolist() == want_ords, q
    assert freqs.tolist() == want_freqs, q
    assert ords.dtype == np.int32 and freqs.dtype == np.float64
    return stats, want_ords


def _write(tmp: str, seg) -> str:
    return write_segment_dir(tmp, 0, seg.postings, seg.docmeta,
                             {"segment_id": 0, "stats": seg.stats})


@settings(max_examples=150, deadline=None)
@given(texts, phrases, st.sets(st.integers(0, 24)))
@example(["a a a", "b a a", "a the a a"], ["a", "a"], set())
@example(["a the b", "a b", "b the a the b"], ["a", "the", "b"], {0})
def test_exact_phrase_freqs_match_loop(docs, words, deleted):
    q = _query(words)
    with tempfile.TemporaryDirectory() as tmp:
        seg_dir = _write(tmp, build_segment_tables(
            list(range(len(docs))), docs, ANALYZER))
        dead = sorted(d for d in deleted if d < len(docs))
        if dead:
            sidecars.write(seg_dir, sidecars.DELETES, 1, np.asarray(dead))
        reader = SegmentReader(seg_dir)
        assert reader.has_deletes == bool(dead)
        stats, want = _assert_same(reader, q)
        # tombstones leave the phrase's matches, not its frequencies
        got, _ = score_segment(reader, q, stats)
        assert got.tolist() == [d for d in want if d not in dead]


@settings(max_examples=60, deadline=None)
@given(texts, texts, phrases)
def test_field_phrase_freqs_match_loop(body, title, words):
    n = min(len(body), len(title))
    seg = build_segment_tables_multi(
        list(range(n)), {"body": body[:n], "title": title[:n]}, "body",
        analyzer=ANALYZER,
    )
    with tempfile.TemporaryDirectory() as tmp:
        reader = SegmentReader(_write(tmp, seg))
        _assert_same(reader, _query(words, field="title"))
        _assert_same(reader, _query(words))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(VOCAB), max_size=30).map(" ".join), phrases)
@example("a a a the a", ["a", "a"])
def test_memory_index_phrase_freqs_match_loop(text, words):
    mi = MemoryIndex(text, analyzer=ANALYZER)
    _assert_same(mi.reader, _query(words))


def test_repeated_term_phrase_counts_overlaps():
    """``"a a"`` in ``a a a`` starts at positions 0 and 1."""
    mi = MemoryIndex("a a a", analyzer=ANALYZER)
    q = _query(["a", "a"])
    ords, freqs = _Eval(mi.reader, _stats(mi.reader, q),
                        BM25Similarity())._phrase_freqs(q)
    assert ords.tolist() == [0] and freqs.tolist() == [2.0]
