"""MemoryIndex: a single-document in-RAM index for percolation/matching.

The reference's memory module (``lucene/memory/src/java/org/apache/lucene/
index/memory/MemoryIndex.java`` — 1,734 LoC): index ONE document in RAM and
run many queries against it (alerting / percolation / MLT interestingness).
Reuses the engine's segment kernel and exhaustive evaluator over a one-doc
"segment"; collection stats default to the single doc (as MemoryIndex
does) or can be injected from a real index for corpus-true scores.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from lucene_solr_ray.analysis.analyzer import StandardAnalyzer
from lucene_solr_ray.index.segment import build_segment_tables, list_views
from lucene_solr_ray.search.parser import QueryParser
from lucene_solr_ray.search.query import Query
from lucene_solr_ray.search.reader import EntrySlices
from lucene_solr_ray.search.scorer import GlobalStats, score_segment
from lucene_solr_ray.search.searcher import match_terms, prepare_queries
from lucene_solr_ray.search.similarity import BM25Similarity

__all__ = ["MemoryIndex", "term_vector"]


class _OneDocReader:
    """SegmentReader protocol over the in-memory one-doc tables."""

    def __init__(self, seg):
        self.norms = seg.docmeta.column("norm").to_numpy()
        self.doc_ids = seg.docmeta.column("doc_id").to_numpy()
        self.ndocs = len(self.norms)
        t = seg.postings
        self._terms = t.column("term").to_pylist()
        self._row = {x: i for i, x in enumerate(self._terms)}
        self._edges, self._ords = list_views(t.column("ords"))
        self._freqs = list_views(t.column("freqs"))[1]
        self._pos_edges, self._pos = list_views(t.column("positions"))

    @property
    def terms(self):
        return self._terms

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


class MemoryIndex:
    def __init__(
        self,
        text: str,
        analyzer: Optional[StandardAnalyzer] = None,
        stats: Optional[GlobalStats] = None,
    ):
        self.analyzer = analyzer or StandardAnalyzer()
        seg = build_segment_tables([0], [text], self.analyzer)
        self.reader = _OneDocReader(seg)
        if stats is None:
            # single-doc collection (MemoryIndex default): df/ttf from the
            # doc itself
            stats = GlobalStats(
                doc_count=1,
                sum_total_term_freq=seg.stats["sum_total_term_freq"],
            )
            t = seg.postings
            for term, df, ttf in zip(
                t.column("term").to_pylist(),
                t.column("df").to_pylist(),
                t.column("ttf").to_pylist(),
            ):
                stats.df[term] = df
                stats.ttf[term] = ttf
            self._own_stats = True
        else:
            self._own_stats = False
        self.stats = stats
        self.parser = QueryParser(self.analyzer)

    def score(self, query: str | Query,
              similarity: Optional[BM25Similarity] = None) -> float:
        """Score of the document for the query; 0.0 if it doesn't match."""
        q = self.parser.parse(query) if isinstance(query, str) else query
        (q,), _ = prepare_queries([q], lambda terms, patterns: (
            self.stats,
            {p: tuple(match_terms(p, self.reader.terms)) for p in patterns},
        ))
        if not self._own_stats:
            # corpus stats injected: make sure the query terms exist there
            for t in q.terms():
                self.stats.df.setdefault(t, 1)
                self.stats.ttf.setdefault(t, 1)
        ords, scores = score_segment(
            self.reader, q, self.stats, similarity or BM25Similarity()
        )
        return float(scores[0]) if len(ords) else 0.0

    def matches(self, query: str | Query) -> bool:
        return self.score(query) > 0.0

    def percolate(self, queries: Dict[str, str | Query]) -> Dict[str, float]:
        """name → score for every registered query that matches the doc —
        the percolator/alerting pattern (run per batch inside map_batches
        with the registered query set broadcast)."""
        out: Dict[str, float] = {}
        for name, q in queries.items():
            s = self.score(q)
            if s > 0.0:
                out[name] = s
        return out


def term_vector(text: str, analyzer=None):
    """Per-document term vector: sorted (term, freq, positions) — the
    ``TermVectorsComponent`` / ``Fields.getTermVector`` view (reference
    ``lucene/core/src/java/org/apache/lucene/codecs/
    TermVectorsReader.java``; ours recomputes from the stored text, the
    MemoryIndex route, instead of persisting a third file family)."""
    from collections import defaultdict

    from lucene_solr_ray.analysis.analyzer import StandardAnalyzer

    analyzer = analyzer or StandardAnalyzer()
    terms, positions, _ = analyzer.analyze_with_positions(text or "")
    acc = defaultdict(list)
    for t, p in zip(terms, positions):
        acc[t].append(p)
    return [
        (t, len(ps), tuple(ps)) for t, ps in sorted(acc.items())
    ]
