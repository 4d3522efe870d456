"""Exact-phrase frequency: the vectorised pass (``exact_phrase_freqs``,
one numpy intersection of (doc, shifted position) keys over all
candidate docs) must give the same (ords, freqs) as the per-doc loop it
replaced, kept here as the oracle: for each candidate doc, intersect
every term's positions shifted by its phrase offset, and count.

Covered: repeated terms (``"a a"``), stop-word position gaps in docs and
phrases, field-scoped phrases on a multi-field segment, a tombstoned
segment, and the one-doc ``MemoryIndex`` reader.  An index built
without positions refuses every positional query with a ValueError, as
Lucene's ``PhraseWeight`` does, instead of failing inside the kernel or
answering no hits.

Sloppy phrases with repeated terms: the windowed enumeration must give
the same float frequencies as the full product of the terms' positions
it replaced (``_sloppy_freq_product``, kept as the oracle), in bounded
time."""

import dataclasses
import itertools
import signal
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
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
from lucene_solr_ray.search.intervals import Intervals
from lucene_solr_ray.search.query import (
    IntervalQuery,
    PhraseQuery,
    SpanNearQuery,
    TermQuery,
)
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


def _sloppy_freq_product(pos_lists, slop, rel) -> float:
    """The repeated-term sloppy frequency as a full product: every
    alignment of one position per phrase term, all distinct, whose match
    length is within the slop adds ``1/(1 + matchLength)``."""
    freq = 0.0
    for combo in itertools.product(*[p.tolist() for p in pos_lists]):
        adj = [int(p) - int(off) for p, off in zip(combo, rel)]
        ml = max(adj) - min(adj)
        if ml <= slop and len(set(combo)) == len(combo):
            freq += 1.0 / (1.0 + ml)
    return freq


def _sloppy_repeated(reader, q):
    """(ords, freqs) of ``q`` from the scorer and from the product
    oracle, over every doc holding all its terms."""
    got_ords, got = _Eval(reader, _stats(reader, q),
                          BM25Similarity())._phrase_freqs(q)
    readers = [reader.positions(k) for k in q.terms()]
    want_ords, want = [], []
    if all(r is not None for r in readers):
        cand = readers[0][0]
        for ords, _ in readers[1:]:
            cand = np.intersect1d(cand, ords, assume_unique=True)
        rel = np.asarray(q.positions) - q.positions[0]
        for d in cand.tolist():
            f = _sloppy_freq_product(
                [pos(int(np.searchsorted(ords, d))) for ords, pos in readers],
                q.slop, rel)
            if f > 0:
                want_ords.append(d)
                want.append(f)
    return (got_ords.tolist(), got.tolist()), (want_ords, want)


repeated = phrases.filter(
    lambda ws: len({w for w in ws if w != "the"})
    < len([w for w in ws if w != "the"]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(VOCAB), max_size=18).map(" ".join),
       repeated, st.integers(0, 3))
@example("a a b a the a", ["a", "the", "a"], 1)
@example("a b a a", ["a", "b", "a"], 2)
def test_repeated_term_sloppy_freq_matches_product(text, words, slop):
    q = dataclasses.replace(_query(words), slop=slop)
    reader = MemoryIndex(text, analyzer=ANALYZER).reader
    got, want = _sloppy_repeated(reader, q)
    assert got == want, q


def _timeout(signum, frame):
    raise TimeoutError("repeated-term sloppy phrase ran past 10 s")


def test_repeated_term_sloppy_freq_is_bounded():
    """``"a a a"~1`` over 2,000 occurrences of ``a``: the full product
    holds 8·10⁹ alignments; the windowed walk visits nine per occurrence.
    Away from the doc's ends each occurrence adds the same amount, so
    the frequency extrapolates from the oracle's at 40 and 41."""
    q = PhraseQuery(("a", "a", "a"), (0, 1, 2), slop=1)

    def freqs(n):
        return _sloppy_repeated(
            MemoryIndex(" ".join(["a"] * n), analyzer=ANALYZER).reader, q)

    (_, f40), want40 = freqs(40)
    (_, f41), want41 = freqs(41)
    assert (f40, f41) == (want40[1], want41[1])
    old = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        reader = MemoryIndex(" ".join(["a"] * 2000), analyzer=ANALYZER).reader
        ords, f = _Eval(reader, _stats(reader, q),
                        BM25Similarity())._phrase_freqs(q)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert ords.tolist() == [0]
    assert f.tolist() == [f40[0] + (2000 - 40) * (f41[0] - f40[0])]


NO_POSITIONS = "indexed without position data"
POSITIONAL = {
    "exact": PhraseQuery(("a", "b"), (0, 1)),
    "sloppy": PhraseQuery(("a", "b"), (0, 1), slop=2),
    "span": SpanNearQuery(("a", "b"), slop=1, in_order=True),
    "interval": IntervalQuery(Intervals.ordered("a", "b")),
}


@pytest.mark.parametrize("shape", sorted(POSITIONAL))
def test_positionless_segment_refuses_positional_queries(tmp_path, shape):
    """A segment written without positions raises for a positional query
    whose terms it holds; a term query still scores."""
    seg_dir = _write(str(tmp_path), build_segment_tables(
        [0, 1, 2], ["a b c", "b a", "c c"], ANALYZER, with_positions=False))
    reader = SegmentReader(seg_dir)
    q = POSITIONAL[shape]
    with pytest.raises(ValueError, match=NO_POSITIONS):
        score_segment(reader, q, _stats(reader, q))
    term = TermQuery("a")
    assert score_segment(reader, term, _stats(reader, term))[0].tolist() \
        == [0, 1]


@pytest.mark.parametrize("query", ['"merge sort"', '"merge sort"~2'])
def test_positionless_index_phrase_search_raises(ray_session, tmp_path,
                                                 query):
    """Over a two-segment index built without positions, an exact and a
    sloppy phrase search both fail with the message, not an IndexError
    or an empty answer."""
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import Index

    words = ["merge", "sort", "window", "batch", "key"]
    corpus = str(tmp_path / "corpus.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(40), pa.int64()),
        "text": [" ".join(words[(i + j) % 5] for j in range(8))
                 for i in range(40)],
    }), corpus, row_group_size=20)
    out = str(tmp_path / "idx")
    build_index(corpus, out, text_col="text", id_col="doc_id",
                with_positions=False, docs_per_segment=20)
    idx = Index(out)
    assert len(idx.seg_dirs) == 2
    with pytest.raises(Exception, match=NO_POSITIONS):
        idx.search({0: query}, k=5)
    assert idx.search({0: "merge"}, k=5).num_rows == 5
