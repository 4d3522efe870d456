"""Top-k rank contract: ``topk_segment`` at k must equal the first k of
a COMPLETE ranking — every match scored by ``score_segment`` and fully
sorted by (score desc, global doc_id asc) — docs AND float32 scores.
This is the reference's checkTopScores idea
(``lucene/test-framework/.../CheckHits.java:576-640``): a top-k collector
may never lose or reorder a hit of the complete collection.

Corpora follow the reference's randomized-index style: docs drawn from a
small integer vocabulary to force shared terms and deep posting lists
(``TestBlockMaxConjunction.java:43-60``).  Doc ids run in the
reverse of segment order, so a tie broken by ordinal instead of doc id
shows."""

import random

import numpy as np
import pytest

from lucene_solr_ray.index.segment import build_segment_tables, list_views
from lucene_solr_ray.search.parser import parse
from lucene_solr_ray.search.reader import EntrySlices
from lucene_solr_ray.search.scorer import (
    GlobalStats,
    score_segment,
    topk_segment,
)
from lucene_solr_ray.search.similarity import BM25Similarity


class _MemReader:
    """SegmentReader protocol over in-memory tables (no files)."""

    def __init__(self, seg):
        self.norms = seg.docmeta.column("norm").to_numpy()
        self.doc_ids = seg.docmeta.column("doc_id").to_numpy()
        self.ndocs = len(self.norms)
        t = seg.postings
        self._row = {x: i for i, x in enumerate(t.column("term").to_pylist())}
        self._edges, self._ords = list_views(t.column("ords"))
        self._freqs = list_views(t.column("freqs"))[1]
        self._pos_edges, self._pos = list_views(t.column("positions"))

    def postings(self, term):
        r = self._row.get(term)
        if r is None:
            return None
        a, b = self._edges[r], self._edges[r + 1]
        return self._ords[a:b], self._freqs[a:b]

    def positions(self, term):
        r = self._row.get(term)
        if r is None:
            return None
        ords, freqs = self.postings(term)
        a, b = self._pos_edges[r], self._pos_edges[r + 1]
        return ords, EntrySlices(self._pos[a:b], freqs)


def _make_corpus(rng: random.Random, n_docs: int, vocab_n: int):
    vocab = [f"t{i}" for i in range(vocab_n)]
    texts = []
    for _ in range(n_docs):
        n = rng.randint(0, 60)
        # zipf-ish skew: low ids much more frequent
        toks = [vocab[min(int(rng.expovariate(0.3)), vocab_n - 1)]
                for _ in range(n)]
        texts.append(" ".join(toks))
    return texts


def _stats(seg, reader):
    st = GlobalStats(
        doc_count=seg.stats["doc_count"],
        sum_total_term_freq=seg.stats["sum_total_term_freq"],
    )
    t = seg.postings
    for term, df, ttf in zip(
        t.column("term").to_pylist(),
        t.column("df").to_pylist(),
        t.column("ttf").to_pylist(),
    ):
        st.df[term] = df
        st.ttf[term] = ttf
    return st


QUERIES = [
    "t0", "t1", "t5 OR t9", "t0 OR t1 OR t2 OR t3",
    "t0 AND t1", "t0 AND t1 AND t2", "t2 OR t40", "t3^2 OR t7",
    "t0 AND t30", '"t0 t1"', '"t1 t2"', '"t0 t40"',
]


def _reader(texts):
    n = len(texts)
    seg = build_segment_tables(list(range(n - 1, -1, -1)), texts)
    reader = _MemReader(seg)
    return reader, _stats(seg, reader)


def _assert_rank_contract(reader, stats, k):
    sim = BM25Similarity()
    for qs in QUERIES:
        q = parse(qs)
        ords, scores = score_segment(reader, q, stats, sim)
        order = np.lexsort(
            (reader.doc_ids[ords], -scores.astype(np.float64))
        )[:k]
        for pruning in (True, False):
            o, s = topk_segment(reader, q, stats, k, sim, pruning=pruning)
            assert list(o) == list(ords[order]), (qs, k, pruning)
            np.testing.assert_array_equal(s, scores[order],
                                          err_msg=f"{qs} k={k}")
            assert s.dtype == np.float32


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 10])
def test_check_top_scores(seed, k):
    rng = random.Random(seed)
    _assert_rank_contract(*_reader(_make_corpus(rng, 400, 50)), k)
    # deep posting lists over a 10-term vocabulary: every query whose
    # terms are in it matches hundreds of docs
    deep = _reader(_make_corpus(random.Random(9), 3000, 10))
    _assert_rank_contract(*deep, k)


def test_missing_required_term_short_circuits():
    seg = build_segment_tables([0, 1], ["a b", "a c"])
    reader = _MemReader(seg)
    stats = _stats(seg, reader)
    o, s = topk_segment(reader, parse("a AND zzz"), stats, 10, pruning=True)
    assert len(o) == 0
