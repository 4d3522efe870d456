"""Distributed query pipeline: segments → per-segment collectors → merge.

The Ray-Data shape of ``IndexSearcher.search(Query, n)``
(``lucene/core/src/java/org/apache/lucene/search/IndexSearcher.java:428``):

1. **Rewrite** multi-term queries against the term dictionary: each
   pattern's matches over every segment's terms, unioned
   (``IndexSearcher.rewrite:665-672`` + CONSTANT_SCORE_REWRITE).
2. **Global stats** — (df, ttf) of the query's terms and expansion terms
   summed over all leaves, as ``TermStates.build`` walking the leaves +
   ``collectionStatistics`` summing them (``:764-792``) do in-process
   (rank-identical across shardings, as Solr's ExactStatsCache is, with
   no extra round trip).
   Steps 1–2 are :func:`prepare_queries`, shared by every batch search
   (:meth:`Index.prepare`), the warm ``QueryEngine`` and ``MemoryIndex``.
   Both engines read the statistics through :func:`term_stats`, one
   Arrow scan of the segments' ``term, df, ttf`` columns on the driver:
   a batch search once per batch, filtered to its terms and patterns;
   the warm engine once in its life, unfiltered, then answers every
   batch from that dictionary.
3. **Segment scan** — :meth:`Index.scan`, one stateless ``map_batches``
   over the segment list: each task opens its batch's ``SegmentReader``s
   once and hands the ``(reader, seg_ord)`` pairs to a *collector*, a
   plain callable returning one Arrow table (the ``Collector`` /
   ``LeafCollector`` split).  A reader loads each part (doc ids, norms,
   term dictionary, blocks, positions) on first use, so a collector
   reads only what its queries touch.  Collectors here: top score,
   field sort (one or several fields, optionally per group), count,
   grouped, export, rescore; LTR features, join gather, topic pull and
   geo distance live with their features.
   Write passes are collectors too: the tombstone pass (hard or soft),
   the soft-deletes policy and the doc-values update return per-segment
   sidecar rows that ``index.sidecars.write_pass`` folds into one
   manifest commit.  A query-keyed pass runs as a scan; an id-keyed one
   (a delete, update or doc-values write by doc id, and the
   atomic-update stored-column read) reads only ``doc_id`` and the
   sidecars, so it runs its collector on the driver over
   :meth:`Index.readers`, the same pairs opened one at a time.
4. **Merge** — :func:`_merge_topk`, ``TopDocs.merge``
   (``search/TopDocs.java:72-115,188-250``) as one numpy ``lexsort`` on
   the driver, ties broken by global doc id; the warm engine merges its
   actors' replies with it too.  The merge input is ≤ segments × queries
   × k rows.

Steps 1–2 read only postings metadata columns; step 3 is the only pass that
touches posting lists.
"""

from __future__ import annotations

import os
import re
from functools import partial
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa

from lucene_solr_ray.analysis.analyzer import StandardAnalyzer
from lucene_solr_ray.index import indexsort
from lucene_solr_ray.index.manifest import read_latest_manifest, segment_dir_name
from lucene_solr_ray.search.parser import QueryParser
from lucene_solr_ray.search.query import (
    BooleanClause,
    BooleanQuery,
    BoostQuery,
    ConstantScoreQuery,
    DisjunctionMaxQuery,
    FuzzyQuery,
    MatchNoDocsQuery,
    Occur,
    PrefixQuery,
    Query,
    RegexpQuery,
    TermInSetQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
)
from lucene_solr_ray.search.reader import SegmentReader
from lucene_solr_ray.search.scorer import GlobalStats, topk_segment
from lucene_solr_ray.search.similarity import BM25Similarity

__all__ = ["Index", "search", "prepare_queries", "rewrite_query", "term_stats"]

_MULTITERM = (PrefixQuery, WildcardQuery, RegexpQuery, FuzzyQuery, TermRangeQuery)


# ---------------------------------------------------------------------------
# multi-term rewrite
# ---------------------------------------------------------------------------

def _collect_patterns(q: Query, out: List[Query]) -> None:
    if isinstance(q, _MULTITERM):
        if q not in out:
            out.append(q)
    elif isinstance(q, BooleanQuery):
        for c in q.clauses:
            _collect_patterns(c.query, out)
    elif isinstance(q, DisjunctionMaxQuery):
        for d in q.disjuncts:
            _collect_patterns(d, out)
    elif isinstance(q, (BoostQuery, ConstantScoreQuery)):
        _collect_patterns(q.query, out)
    else:
        from lucene_solr_ray.search.join import ToParentBlockJoinQuery

        if isinstance(q, ToParentBlockJoinQuery):
            _collect_patterns(q.child_query, out)


def match_terms(pattern: Query, terms: Sequence[str]) -> List[str]:
    """Expand one multi-term query against a term dictionary slice.

    Patterns match only within their own field's dictionary slice: a
    default-field pattern sees bare terms only (a text wildcard like
    ``lan*`` must not leak matches from a ``lang`` keyword field), and a
    field-scoped pattern sees that field's ``field\x1fterm`` keys with the
    prefix stripped for matching and restored in the result (expansion
    keys feed postings lookups directly)."""
    from lucene_solr_ray.index.segment import FIELD_SEP, field_term

    fld = getattr(pattern, "field", None)
    if fld:
        pre = fld + FIELD_SEP
        suffixes = [t[len(pre):] for t in terms if t.startswith(pre)]
        return [
            field_term(fld, t) for t in _match_bare(pattern, suffixes)
        ]
    terms = [t for t in terms if FIELD_SEP not in t]
    return _match_bare(pattern, terms)


def match_terms_arrow(pattern: Query, terms: "pa.ChunkedArray") -> List[str]:
    """Vectorized :func:`match_terms` over the term column as an Arrow
    array — C kernels instead of a Python loop over the whole dictionary
    (the round-1 review's term-scan hotspot).  Field scoping first slices
    to the field's contiguous dictionary range; fuzzy prunes by prefix +
    length window before the exact edit-distance check; regex falls back
    to the Python path if RE2 rejects the pattern syntax."""
    import pyarrow.compute as pc

    from lucene_solr_ray.index.segment import FIELD_SEP, field_term

    fld = getattr(pattern, "field", None)
    if fld:
        pre = fld + FIELD_SEP
        mask = pc.starts_with(terms, pattern=pre)
        sub = pc.filter(terms, mask)
        suffixes = pc.utf8_slice_codeunits(sub, start=len(pre))
        return [
            field_term(fld, t)
            for t in _match_bare_arrow(pattern, suffixes)
        ]
    mask = pc.invert(pc.match_substring(terms, pattern=FIELD_SEP))
    return _match_bare_arrow(pattern, pc.filter(terms, mask))


def _tolist(terms) -> List[str]:
    """A term column as a Python list, through numpy: about 20x faster
    than ``to_pylist`` on a dictionary-sized column."""
    return terms.to_numpy(zero_copy_only=False).tolist()


def _match_bare_arrow(pattern: Query, terms) -> List[str]:
    import pyarrow.compute as pc

    if isinstance(pattern, PrefixQuery):
        m = pc.starts_with(terms, pattern=pattern.prefix)
        return _tolist(pc.filter(terms, m))
    if isinstance(pattern, WildcardQuery):
        rx = "".join(
            ".*" if ch == "*" else "." if ch == "?" else re.escape(ch)
            for ch in pattern.pattern
        )
        m = pc.match_substring_regex(terms, pattern=f"^(?:{rx})$")
        return _tolist(pc.filter(terms, m))
    if isinstance(pattern, RegexpQuery):
        try:
            m = pc.match_substring_regex(
                terms, pattern=f"^(?:{pattern.pattern})$"
            )
            return _tolist(pc.filter(terms, m))
        except Exception:
            # RE2 rejected the syntax — exact Python-re semantics fallback
            return _match_bare(pattern, _tolist(terms))
    if isinstance(pattern, TermRangeQuery):
        m = None
        if pattern.lower is not None:
            cmp = pc.greater_equal if pattern.include_lower else pc.greater
            m = cmp(terms, pattern.lower)
        if pattern.upper is not None:
            cmp = pc.less_equal if pattern.include_upper else pc.less
            m2 = cmp(terms, pattern.upper)
            m = m2 if m is None else pc.and_(m, m2)
        return (
            _tolist(pc.filter(terms, m)) if m is not None
            else _tolist(terms)
        )
    if isinstance(pattern, FuzzyQuery):
        base = pattern.term
        k = pattern.max_edits
        lens = pc.utf8_length(terms)
        m = pc.and_(
            pc.greater_equal(lens, len(base) - k),
            pc.less_equal(lens, len(base) + k),
        )
        if pattern.prefix_length:
            m = pc.and_(
                m,
                pc.starts_with(
                    terms, pattern=base[: pattern.prefix_length]
                ),
            )
        cand = _tolist(pc.filter(terms, m))
        if len(cand) > 64:
            keep = _edit_distance_le_bulk(base, cand, k)
            return [t for t, ok in zip(cand, keep) if ok]
        return [t for t in cand if _edit_distance_le(base, t, k)]
    raise TypeError(type(pattern))


def _edit_distance_le_bulk(base: str, cands: List[str], k: int) -> np.ndarray:
    """Vectorized Levenshtein ≤ k over MANY candidates at once: one DP
    row per base char, each a numpy min over (n_cands, max_len) arrays —
    the per-candidate Python DP was the warm-pool fuzzy-expansion tail.
    Candidate lengths are already windowed to len(base) ± k, so max_len
    is small and the loop count is |base| × max_len numpy kernels."""
    n = len(cands)
    if n == 0:
        return np.zeros(0, dtype=bool)
    lens = np.fromiter((len(c) for c in cands), dtype=np.int64, count=n)
    max_len = int(lens.max())
    # char matrix, 0-padded; unicode-safe via UCS4 codepoints — built with
    # ONE encode over the joined candidates + a vectorized scatter
    joined = np.frombuffer(
        "".join(cands).encode("utf-32-le"), dtype=np.uint32
    )
    buf = np.zeros((n, max_len), dtype=np.uint32)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    row = np.repeat(np.arange(n), lens)
    colidx = np.arange(len(joined)) - np.repeat(starts, lens)
    buf[row, colidx] = joined
    base_cp = np.frombuffer(base.encode("utf-32-le"), dtype=np.uint32)
    col = np.arange(max_len + 1, dtype=np.int32)
    prev = np.broadcast_to(col, (n, max_len + 1)).copy()
    for bi, bc in enumerate(base_cp, start=1):
        cur = np.empty_like(prev)
        cur[:, 0] = bi
        sub_cost = (buf != bc).astype(np.int32)  # (n, max_len)
        diag = prev[:, :-1] + sub_cost
        up = prev[:, 1:] + 1
        best = np.minimum(diag, up)
        # left-to-right insert propagation can't be fully vectorized, but
        # max_len ≤ |base|+k keeps this loop tiny
        for j in range(1, max_len + 1):
            cur[:, j] = np.minimum(best[:, j - 1], cur[:, j - 1] + 1)
        prev = cur
    final = prev[np.arange(n), lens]
    return final <= k


def _match_bare(pattern: Query, terms: Sequence[str]) -> List[str]:
    if isinstance(pattern, PrefixQuery):
        return [t for t in terms if t.startswith(pattern.prefix)]
    if isinstance(pattern, WildcardQuery):
        rx = re.compile(
            "".join(
                ".*" if ch == "*" else "." if ch == "?" else re.escape(ch)
                for ch in pattern.pattern
            )
            + r"\Z"
        )
        return [t for t in terms if rx.match(t)]
    if isinstance(pattern, RegexpQuery):
        # Lucene regexps are anchored: the group keeps a top-level
        # alternation inside the anchor
        rx = re.compile(f"(?:{pattern.pattern})\\Z")
        return [t for t in terms if rx.match(t)]
    if isinstance(pattern, TermRangeQuery):
        lo, hi = pattern.lower, pattern.upper
        out = []
        for t in terms:
            if lo is not None and (t < lo or (t == lo and not pattern.include_lower)):
                continue
            if hi is not None and (t > hi or (t == hi and not pattern.include_upper)):
                continue
            out.append(t)
        return out
    if isinstance(pattern, FuzzyQuery):
        base = pattern.term
        pl = pattern.prefix_length
        return [
            t
            for t in terms
            if t.startswith(base[:pl])
            and _edit_distance_le(base, t, pattern.max_edits)
        ]
    raise TypeError(type(pattern))


def _edit_distance(a: str, b: str, cap: int) -> int:
    for k in range(cap + 1):
        if _edit_distance_le(a, b, k):
            return k
    return cap + 1


def _edit_distance_le(a: str, b: str, k: int) -> bool:
    if abs(len(a) - len(b)) > k:
        return False
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        lo = len(b) + 1
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            lo = min(lo, cur[j])
        if lo > k:
            return False
        prev = cur
    return prev[-1] <= k


#: FuzzyQuery.maxExpansions default (TopTermsRewrite size)
FUZZY_MAX_EXPANSIONS = 50


def rewrite_query(q: Query, expansions: Dict[Query, Tuple[str, ...]]) -> Query:
    """Replace multi-term nodes with primitives: FuzzyQuery blends
    (TopTermsBlendedFreqScoringRewrite, the reference default); the other
    multi-term queries take CONSTANT_SCORE_REWRITE."""
    if isinstance(q, FuzzyQuery):
        ts = expansions.get(q, ())
        if not ts:
            return MatchNoDocsQuery(f"no terms match {q!r}")
        from lucene_solr_ray.index.segment import FIELD_SEP
        from lucene_solr_ray.search.query import BlendedTermQuery

        # FuzzyTermsEnum boost: 1 - editDistance / min(|term|, |query|);
        # for field-scoped fuzzy the expansion keys carry the field prefix
        # (stripped for the distance, kept as the lookup key)
        prefix_len = len(q.field) + len(FIELD_SEP) if q.field else 0
        scored = []
        for t in ts:
            bare = t[prefix_len:]
            d = _edit_distance(q.term, bare, q.max_edits)
            b = 1.0 - d / max(min(len(bare), len(q.term)), 1)
            scored.append((b, t))
        scored.sort(key=lambda x: (-x[0], x[1]))
        scored = scored[:FUZZY_MAX_EXPANSIONS]
        return BlendedTermQuery(
            tuple(t for _, t in scored), tuple(b for b, _ in scored),
            field=q.field,
        )
    if isinstance(q, _MULTITERM):
        ts = expansions.get(q, ())
        if not ts:
            return MatchNoDocsQuery(f"no terms match {q!r}")
        return ConstantScoreQuery(TermInSetQuery(tuple(ts)))
    if isinstance(q, BooleanQuery):
        return BooleanQuery(
            tuple(
                BooleanClause(rewrite_query(c.query, expansions), c.occur)
                for c in q.clauses
            ),
            q.minimum_should_match,
        )
    if isinstance(q, DisjunctionMaxQuery):
        return DisjunctionMaxQuery(
            tuple(rewrite_query(d, expansions) for d in q.disjuncts),
            q.tie_breaker,
        )
    if isinstance(q, BoostQuery):
        return BoostQuery(rewrite_query(q.query, expansions), q.boost)
    if isinstance(q, ConstantScoreQuery):
        return ConstantScoreQuery(rewrite_query(q.query, expansions))
    return q


def prepare_queries(
    queries: Sequence[Query], fetch
) -> Tuple[List[Query], GlobalStats]:
    """Rewrite + global stats for a batch of parsed queries — the
    ``IndexSearcher.rewrite`` + ``createWeight`` step every search runs
    before scoring, batch (:meth:`Index.prepare`), warm
    (``QueryEngine``) or in-memory (``MemoryIndex``).

    ``fetch(terms, patterns) -> (GlobalStats, expansions)`` resolves the
    explicit terms and expands the multi-term patterns; its stats must
    also cover every expansion term, so the rewritten queries need no
    second fetch."""
    patterns: List[Query] = []
    for q in queries:
        _collect_patterns(q, patterns)
    terms = sorted({t for q in queries for t in q.terms()})
    stats, exp = fetch(terms, patterns)
    if patterns:
        queries = [rewrite_query(q, exp) for q in queries]
    return list(queries), stats


# ---------------------------------------------------------------------------
# global term statistics
# ---------------------------------------------------------------------------

_TERM_STATS_SCHEMA = pa.schema(
    [("term", pa.string()), ("df", pa.int64()), ("ttf", pa.int64())])


def term_stats(
    seg_dirs: Sequence[str], terms: Optional[Sequence[str]] = None,
    patterns: Sequence[Query] = (),
) -> Tuple[pa.Table, Dict[Query, Tuple[str, ...]]]:
    """Global term statistics, read on the driver: ``(table, expansions)``.

    ``table`` holds (term, df, ttf) summed over ``seg_dirs``, sorted by
    term, for ``terms`` and every pattern match (every term when
    ``terms`` is None); ``expansions`` maps each pattern to its sorted
    matches.  Lucene sums the leaves' term dictionaries in-process the
    same way (``IndexSearcher.java:780-792``).

    One threaded Arrow scan streams the ``term, df, ttf`` columns of every
    segment's ``postings.parquet``: without patterns ``isin(terms)``
    prunes row groups by their min/max statistics (the terms are sorted
    on disk); with patterns each batch runs :func:`match_terms_arrow`.
    Each batch's kept rows fold into the running table with one
    ``group_by``, so the driver holds the summed rows plus one batch at
    any segment count."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    acc = _TERM_STATS_SCHEMA.empty_table()
    matches: List[set] = [set() for _ in patterns]
    flt = (pc.field("term").isin(terms)
           if terms is not None and not patterns else None)
    ds = pads.dataset(
        [os.path.join(d, "postings.parquet") for d in seg_dirs],
        schema=_TERM_STATS_SCHEMA, format="parquet")
    for batch in ds.to_batches(columns=_TERM_STATS_SCHEMA.names,
                               filter=flt):
        if patterns:
            found = [match_terms_arrow(p, batch.column("term"))
                     for p in patterns]
            for ms, f in zip(matches, found):
                ms.update(f)
            if terms is not None:
                batch = batch.filter(pc.is_in(batch.column("term"), pa.array(
                    list(chain(terms, *found)), pa.string())))
        sums = pa.concat_tables([acc, pa.Table.from_batches([batch])]
                                ).group_by("term").aggregate(
                                    [("df", "sum"), ("ttf", "sum")])
        acc = pa.table([sums["term"], sums["df_sum"], sums["ttf_sum"]],
                       schema=_TERM_STATS_SCHEMA)
    return acc.sort_by("term"), {
        p: tuple(sorted(ms)) for p, ms in zip(patterns, matches)}


# ---------------------------------------------------------------------------
# Ray stages
# ---------------------------------------------------------------------------


#: the top-k collector's columns, in the order :func:`_topk_columns`
#: returns them
TOPK_COLUMNS = ("qid", "doc_id", "score", "seg_ord", "ord")


def _topk_columns(pairs, parsed, stats: GlobalStats,
                  sim: BM25Similarity) -> Tuple[np.ndarray, ...]:
    """Top-score collector: each query's top-k hits over ``pairs``, as
    numpy columns in :data:`TOPK_COLUMNS` order.

    The batch scan runs it in a Ray Data task (:func:`_collect_topk`);
    a warm-engine actor runs it over its resident readers and replies
    with the arrays pickled into bytes."""
    # per-batch partial merge: when one task scores MANY segments
    # (batched executor plans, 10^6-segment indexes), only the
    # batch-wide top-k per query leaves the task — the driver merge
    # sees k × tasks rows, not k × segments (global top-k of a union
    # == top-k of per-batch top-k unions)
    per_q: Dict[int, List] = {qid: [] for qid, _, _ in parsed}
    for reader, seg_ord in pairs:
        for qid, q, k in parsed:
            o, s = topk_segment(reader, q, stats, k, sim)
            if len(o):
                per_q[qid].append(
                    (reader.doc_ids[o], s,
                     np.full(len(o), seg_ord, dtype=np.int32), o)
                )
    cols: List[List[np.ndarray]] = [
        [np.empty(0, np.int64)], [np.empty(0, np.int64)],
        [np.empty(0, sim.out_dtype)], [np.empty(0, np.int32)],
        [np.empty(0, np.int32)],
    ]
    for qid, q, k in parsed:
        parts = per_q[qid]
        if not parts:
            continue
        d, s, g, o = (np.concatenate(c) for c in zip(*parts))
        if len(d) > k:
            # same comparator as the driver merge: score desc, then
            # global doc_id asc (segmentation-invariant ties)
            sel = np.lexsort((d, -s.astype(np.float64)))[:k]
            d, s, g, o = d[sel], s[sel], g[sel], o[sel]
        for c, a in zip(cols, (np.full(len(d), qid, np.int64), d, s, g, o)):
            c.append(a)
    return tuple(np.concatenate(c) for c in cols)


def _collect_topk(pairs, parsed, stats: GlobalStats,
                  sim: BM25Similarity) -> pa.Table:
    """:func:`_topk_columns` as the Arrow table a Ray Data map returns."""
    return pa.table(dict(zip(
        TOPK_COLUMNS, _topk_columns(pairs, parsed, stats, sim))))


# ---------------------------------------------------------------------------
# Index facade
# ---------------------------------------------------------------------------


class Index:
    """A committed index: manifest + segment dirs + search entry points."""

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        m = read_latest_manifest(index_dir)
        if m is None:
            raise FileNotFoundError(f"no manifest in {index_dir}")
        self.manifest = m

    @property
    def seg_dirs(self) -> List[str]:
        return [
            os.path.join(self.index_dir, segment_dir_name(s["segment_id"]))
            for s in self.manifest["segments"]
        ]

    @property
    def doc_count(self) -> int:
        return self.manifest["doc_count"]

    @property
    def query_fields(self) -> set:
        """Non-default field names usable as ``field:term`` prefixes."""
        return {
            f for f in self.manifest.get("fields", {})
            if f != self.manifest.get("default_field")
        }

    @property
    def field_analyzers(self) -> Dict[str, StandardAnalyzer]:
        """Per-field analyzers reconstructed from manifest specs
        (PerFieldAnalyzerWrapper at query time)."""
        from lucene_solr_ray.analysis.analyzer import analyzer_from_spec

        out = {}
        for f, s in self.manifest.get("field_analyzers", {}).items():
            a = analyzer_from_spec(s)
            if a is not None:  # custom chains must be passed explicitly
                out[f] = a
        return out

    @property
    def default_analyzer(self) -> Optional[StandardAnalyzer]:
        """The build-time default-field analyzer, if recorded."""
        from lucene_solr_ray.analysis.analyzer import analyzer_from_spec

        spec = self.manifest.get("analyzer")
        return analyzer_from_spec(spec) if spec else None

    @property
    def numeric_fields(self) -> Dict[str, str]:
        """Indexed numeric point fields: name → dtype."""
        return dict(self.manifest.get("numeric_fields", {}))

    def make_parser(
        self, analyzer: Optional[StandardAnalyzer] = None
    ) -> QueryParser:
        """QueryParser wired to this index's fields + per-field analyzers."""
        return QueryParser(
            analyzer or self.default_analyzer,
            fields=self.query_fields,
            field_analyzers=self.field_analyzers,
            numeric_fields=self.numeric_fields,
        )

    def search(
        self,
        queries: Dict[int, str] | Sequence[str],
        k: int = 10,
        analyzer: Optional[StandardAnalyzer] = None,
        similarity: Optional[BM25Similarity] = None,
        concurrency: Optional[int] = None,
        respect_soft_deletes: bool = False,
    ) -> pa.Table:
        """Parse + run a batch of query strings; returns
        (qid, rank, doc_id, score) sorted by (qid, rank).
        ``respect_soft_deletes=True`` searches through the
        SoftDeletesDirectoryReaderWrapper view (soft-deleted docs
        excluded); the default sees them, as the reference's unwrapped
        reader does."""
        return self.search_parsed(
            _parse_batch(self.make_parser(analyzer), queries, k),
            similarity=similarity, concurrency=concurrency,
            respect_soft_deletes=respect_soft_deletes,
        )

    def collection_stats(self) -> GlobalStats:
        """The manifest's collection-level stats (``CollectionStatistics``)
        with empty per-term maps."""
        m = self.manifest
        return GlobalStats(
            doc_count=m["doc_count"],
            sum_total_term_freq=m["sum_total_term_freq"],
            field_stats={
                f: (fs["doc_count"], fs["sum_total_term_freq"])
                for f, fs in m.get("fields", {}).items()
                if f != m.get("default_field")
            },
        )

    def collect_stats(
        self, terms: List[str], patterns: Optional[List[Query]] = None
    ) -> Tuple[GlobalStats, Dict[Query, Tuple[str, ...]]]:
        """Exact global (df, ttf) for ``terms`` + multi-term expansions
        (:func:`term_stats`); a term absent from every segment gets no
        entry."""
        patterns = patterns or []
        stats = self.collection_stats()
        if not (terms or patterns):
            return stats, {}
        t, expansions = term_stats(self.seg_dirs, list(terms), patterns)
        keys = t.column("term").to_pylist()
        stats.df.update(zip(keys, t.column("df").to_pylist()))
        stats.ttf.update(zip(keys, t.column("ttf").to_pylist()))
        return stats, expansions

    def more_like_this(
        self,
        text: str,
        k: int = 10,
        max_query_terms: int = 25,
        min_doc_freq: int = 1,
        analyzer: Optional[StandardAnalyzer] = None,
        similarity: Optional[BM25Similarity] = None,
    ) -> pa.Table:
        """MoreLikeThis / KnnStream: select the text's top tf·idf terms
        against the global stats, search them as a SHOULD-disjunction
        (reference ``lucene/queries/.../mlt/MoreLikeThis.java``;
        ``KnnStream``)."""
        import math

        analyzer = analyzer or StandardAnalyzer()
        tf = analyzer.term_freqs(text)
        stats, _ = self.collect_stats(sorted(tf))
        n = max(stats.doc_count, 1)
        scored = []
        for t, f in tf.items():
            df = stats.df.get(t, 0)
            if df < min_doc_freq:
                continue
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            scored.append((f * idf, t))
        scored.sort(key=lambda x: (-x[0], x[1]))
        top = [t for _, t in scored[:max_query_terms]]
        if not top:
            return _merge_topk([], [(0, MatchNoDocsQuery(), k)])
        q = BooleanQuery(
            tuple(BooleanClause(TermQuery(t), Occur.SHOULD) for t in top)
        )
        return self.search_parsed([(0, q, k)], similarity=similarity)

    def prepare(
        self, queries: Sequence[Query]
    ) -> Tuple[List[Query], GlobalStats]:
        """:func:`prepare_queries` against the distributed term
        dictionary (:meth:`collect_stats`)."""
        return prepare_queries(queries, self.collect_stats)

    def scan(
        self,
        collect,
        concurrency: Optional[int] = None,
        respect_soft_deletes: bool = False,
        segments: Optional[Sequence[int]] = None,
    ):
        """The segment-scan stage every batch search shares: a Ray
        Dataset of the tables ``collect`` returns, one call per batch of
        segments with that batch's ``(SegmentReader, seg_ord)`` pairs.

        Readers load their parts on first use, so a collector reads only
        the columns it touches.  ``segments`` restricts the scan to those
        segment ordinals (default: all).  Without ``concurrency`` every
        segment is its own batch; with it, at most ``concurrency`` tasks
        run and each batch holds ``nseg // concurrency`` segments.

        STATELESS tasks, concurrency = a task cap: each segment is visited
        exactly once per scan, so every reader is built once regardless of
        executor shape and an actor pool cannot amortize anything WITHIN a
        call — and a fresh pool per call measured 3.5× slower than tasks
        at 64 segments / 32 cpus (pool startup dominates; rechecked round
        3).  Cross-call reader reuse is the job of the warm
        ``state.query_engine.QueryEngine`` actor pool."""
        import ray.data

        seg_dirs = self.seg_dirs
        items = [
            {"seg_dir": seg_dirs[i], "seg_ord": i}
            for i in (range(len(seg_dirs)) if segments is None else segments)
        ]

        def _scan(batch: pa.Table) -> pa.Table:
            return collect(_reader_pairs(
                batch.column("seg_dir").to_pylist(),
                batch.column("seg_ord").to_pylist(), respect_soft_deletes))

        kwargs = {}
        batch_size = 1
        if concurrency:
            kwargs["concurrency"] = concurrency
            batch_size = max(1, len(items) // concurrency)
        # an index with no segments scans one empty block (Ray rejects
        # zero blocks), so every collector's caller sees no rows
        return ray.data.from_items(
            items, override_num_blocks=max(len(items), 1)
        ).map_batches(
            _scan, batch_format="pyarrow", batch_size=batch_size, **kwargs
        )

    def readers(self):
        """The ``(SegmentReader, seg_ord)`` pairs of every segment, opened
        one at a time on the driver: the in-process twin of :meth:`scan`
        for a collector whose work is smaller than a job's dispatch."""
        return _reader_pairs(self.seg_dirs, range(len(self.seg_dirs)))

    def search_parsed(
        self,
        parsed: List[Tuple[int, Query, int]],
        similarity: Optional[BM25Similarity] = None,
        concurrency: Optional[int] = None,
        respect_soft_deletes: bool = False,
    ) -> pa.Table:
        parsed, stats = _prepare_batch(self.collect_stats, parsed)
        sim = similarity or BM25Similarity()
        parts = self.scan(
            partial(_collect_topk, parsed=parsed, stats=stats, sim=sim),
            concurrency=concurrency,
            respect_soft_deletes=respect_soft_deletes,
        ).iter_batches(batch_size=None, batch_format="numpy")
        return _merge_topk([tuple(b[c] for c in TOPK_COLUMNS) for b in parts],
                           parsed, sim.out_dtype)


def _reader_pairs(seg_dirs, seg_ords, respect_soft_deletes=False):
    """``(SegmentReader, seg_ord)`` pairs, each reader opened as the
    collector reaches it."""
    for d, o in zip(seg_dirs, seg_ords):
        yield SegmentReader(d, respect_soft_deletes=respect_soft_deletes), o


def _batch_items(queries) -> List[Tuple[int, str]]:
    """``{qid: text}`` or a list of texts → ``(qid, text)`` pairs in qid
    order."""
    return (
        sorted(queries.items()) if isinstance(queries, dict)
        else list(enumerate(queries))
    )


def _parse_batch(parser, queries, k: int) -> List[Tuple[int, Query, int]]:
    """``{qid: text}`` or a list of texts → ``(qid, Query, k)`` triples."""
    return [(qid, parser.parse(s), k) for qid, s in _batch_items(queries)]


def _prepare_batch(fetch, parsed):
    """:func:`prepare_queries` over ``(qid, Query, k)`` triples."""
    qs, stats = prepare_queries([q for _, q, _ in parsed], fetch)
    return [(qid, q, k) for (qid, _, k), q in zip(parsed, qs)], stats


def _merge_topk(parts, parsed, score_dtype=np.float32) -> pa.Table:
    """TopDocs.merge: each parsed query's top k over ``parts``, a list of
    numpy column tuples that start (qid, doc_id, score) — collector
    partials, or a warm engine's cached hits.  Returns (qid, rank,
    doc_id, score) sorted by ``parsed`` order, then rank."""
    qids = np.array([qid for qid, _, _ in parsed], np.int64)
    ks = np.array([k for _, _, k in parsed], np.int64)
    q, d, s = (
        np.concatenate([p[i] for p in parts]) if parts
        else np.empty(0, dt)
        for i, dt in enumerate((np.int64, np.int64, score_dtype))
    )
    # each row's query as its position in ``parsed``
    by_qid = np.argsort(qids, kind="stable")
    pos = by_qid[np.searchsorted(qids, q, sorter=by_qid)]
    # ties break on the GLOBAL doc_id — rankings invariant to
    # segmentation (merge/parallelism); stricter than TopDocs.merge's
    # (score, shardIndex, doc), which shifts when segments merge
    order = np.lexsort((d, -s.astype(np.float64), pos))
    pos, d, s = pos[order], d[order], s[order]
    rank = np.arange(len(pos)) - np.searchsorted(pos, pos)
    keep = rank < ks[pos]
    return pa.table(
        {
            "qid": pa.array(qids[pos[keep]]),
            "rank": pa.array(rank[keep].astype(np.int32)),
            "doc_id": pa.array(d[keep].astype(np.int64)),
            "score": pa.array(s[keep].astype(score_dtype)),
        }
    )


def search(
    index_dir: str, queries, k: int = 10, **kw
) -> pa.Table:
    return Index(index_dir).search(queries, k, **kw)


def _sort_schema(seg_dir: Optional[str], sort_fields,
                 grouped: bool = False) -> pa.Schema:
    """Schema of the field-sort collector's partials: qid, doc_id,
    seg_ord, then sort_0..sort_n typed as their columns in ``seg_dir``'s
    docmeta (null type when there is no segment to read one from), then
    ``group``."""
    import pyarrow.parquet as pq

    if seg_dir is None:
        types = [pa.null()] * len(sort_fields)
    else:
        dm = pq.read_schema(os.path.join(seg_dir, "docmeta.parquet"))
        types = [dm.field(f).type for f, _ in sort_fields]
    fields = [("qid", pa.int64()), ("doc_id", pa.int64()),
              ("seg_ord", pa.int32())]
    fields += [(f"sort_{i}", t) for i, t in enumerate(types)]
    if grouped:
        fields.append(("group", pa.string()))
    return pa.schema(fields)


def _collect_field_sort(pairs, parsed, stats, sort_fields,
                        group: "Optional[Tuple[str, str, str]]" = None
                        ) -> pa.Table:
    """Field-sort collector (``TopFieldCollector``, reference
    ``search/TopFieldCollector.java``): per segment, each query's
    matching ords from the exhaustive evaluator, selected by
    :func:`indexsort.select` over the reader's key columns
    (``SegmentReader.values``: the doc values of the commit the reader
    opened on), so an index-sorted segment stops early unless a key
    field has an overlay.  With ``group=(table, key, column)`` it keeps
    each query's top k per group (the grouping module's second pass).
    Columns: :func:`_sort_schema`."""
    from lucene_solr_ray.search.scorer import score_segment

    parts = []
    for reader, seg_ord in pairs:
        keys = [reader.values(f) for f, _ in sort_fields]
        overlaid = any(f in reader.updated_fields for f, _ in sort_fields)
        seg_sort = indexsort.read(reader.meta)
        schema = _sort_schema(reader.seg_dir, sort_fields,
                              group is not None)
        for qid, q, k in parsed:
            ords, _ = score_segment(reader, q, stats)
            groups = (None if group is None
                      else _segment_groups(reader.doc_ids[ords], *group))
            sel, _ = indexsort.select(ords, keys, reader.doc_ids,
                                      sort_fields, k, seg_sort, overlaid,
                                      groups)
            o = ords[sel]
            arrays = [np.full(len(o), qid, np.int64), reader.doc_ids[o],
                      np.full(len(o), seg_ord, np.int32)]
            arrays += [v[o] for v in keys]
            if group is not None:
                arrays.append(groups[sel])
            parts.append(pa.table([
                # NaN marks a missing value in a numpy key only where the
                # column type has no NaN of its own
                pa.array(a, f.type,
                         from_pandas=not pa.types.is_floating(f.type))
                for a, f in zip(arrays, schema)
            ], schema=schema))
    return pa.concat_tables(parts, promote_options="permissive")


def _scan_field_sort(index: "Index", parsed, stats, sort_fields,
                     group=None) -> pa.Table:
    """All segments' field-sort partials as one table, typed from the
    first segment's docmeta."""
    schema = _sort_schema(index.seg_dirs[0] if index.seg_dirs else None,
                          sort_fields, group is not None)
    parts = index.scan(
        partial(_collect_field_sort, parsed=parsed, stats=stats,
                sort_fields=sort_fields, group=group),
    ).iter_batches(batch_size=None, batch_format="pyarrow")
    return pa.concat_tables(
        [schema.empty_table()] + [p.cast(schema) for p in parts])


def search_by_fields(
    index: "Index",
    queries,
    sort_fields: List[tuple],
    k: int = 10,
    analyzer: Optional[StandardAnalyzer] = None,
) -> pa.Table:
    """Sort search (``Sort`` with one or more ``SortField``s and
    ``TopFieldCollector``): match with the query, rank by
    ``[(field, descending), ...]`` over docmeta columns in the index-sort
    comparator (:mod:`lucene_solr_ray.index.indexsort`: strings by code
    point, missing values greatest, final tie ascending doc_id).  Segments
    whose index sort has the query sort as a prefix stop early; the
    answer never depends on the index sort or the segmentation.
    Columns: qid, rank, doc_id, sort_0..sort_n (typed as the docmeta
    columns)."""
    sort_fields = [(f, bool(d)) for f, d in sort_fields]
    parsed, stats = _prepare_batch(
        index.collect_stats,
        _parse_batch(index.make_parser(analyzer), queries, k),
    )
    t = _scan_field_sort(index, parsed, stats, sort_fields)
    qids = np.array([qid for qid, _, _ in parsed], np.int64)
    ks = np.array([kk for _, _, kk in parsed], np.int64)
    by_qid = np.argsort(qids, kind="stable")
    pos = by_qid[np.searchsorted(qids, t.column("qid").to_numpy(),
                                 sorter=by_qid)]
    keys = [t.column(f"sort_{i}").to_numpy(zero_copy_only=False)
            for i in range(len(sort_fields))]
    order = indexsort.order(keys, [d for _, d in sort_fields],
                            t.column("doc_id").to_numpy(), first=pos)
    pos = pos[order]
    rank = np.arange(len(pos)) - np.searchsorted(pos, pos)
    keep = rank < ks[pos]
    out = t.take(order[keep])
    return out.drop_columns(["seg_ord"]).add_column(
        1, "rank", pa.array(rank[keep].astype(np.int32)))


def search_by_field(index: "Index", queries, sort_field: str,
                    descending: bool = True, k: int = 10,
                    analyzer: Optional[StandardAnalyzer] = None) -> pa.Table:
    """:func:`search_by_fields` over one field: (qid, rank, doc_id,
    sort_value float64)."""
    t = search_by_fields(index, queries, [(sort_field, descending)], k,
                         analyzer)
    return t.set_column(3, "sort_value",
                        t.column("sort_0").cast(pa.float64()))


def _collect_count(pairs, parsed, stats) -> pa.Table:
    """Count collector: per-segment match counts (TotalHits with COMPLETE
    accounting — ``search/TotalHits.java`` relation EQUAL_TO; the pruned
    path's ``totalHitsThreshold`` lower bounds are a latency optimization
    this batch API doesn't need)."""
    from lucene_solr_ray.search.scorer import score_segment

    rows = []
    for reader, _ in pairs:
        for qid, q, _ in parsed:
            ords, _s = score_segment(reader, q, stats)
            rows.append({"qid": qid, "n": len(ords)})
    return pa.Table.from_pylist(
        rows, schema=pa.schema([("qid", pa.int64()), ("n", pa.int64())])
    )


def count_hits(index: "Index", queries,
               analyzer: Optional[StandardAnalyzer] = None,
               parser=None) -> pa.Table:
    """Exact total hit counts per query: (qid, total_hits).
    ``parser`` overrides the classic parser (e.g. a
    :class:`~lucene_solr_ray.search.simpleparser.SimpleQueryParser`)."""
    parsed, stats = _prepare_batch(
        index.collect_stats,
        _parse_batch(parser or index.make_parser(analyzer), queries, 0),
    )
    rows = index.scan(
        partial(_collect_count, parsed=parsed, stats=stats),
    ).take_all()
    totals: Dict[int, int] = {qid: 0 for qid, _, _ in parsed}
    for r in rows:
        totals[r["qid"]] += r["n"]
    return pa.table(
        {
            "qid": pa.array(sorted(totals), pa.int64()),
            "total_hits": pa.array(
                [totals[q] for q in sorted(totals)], pa.int64()
            ),
        }
    )


def _segment_groups(doc_ids: np.ndarray, group_table: str, key: str,
                    group_col: str) -> np.ndarray:
    """Each doc's group value, as a string, from the side parquet
    ``group_table`` keyed by ``key``; None when the doc has no row or a
    missing value (TopGroups keeps such docs, in a group of their own).
    Reads only the side rows whose ``key`` falls in ``doc_ids``' range —
    a predicate-pushdown row-group prune (assumes doc ids are clustered
    per segment, true for built segments and merges of adjacent ones; a
    scattered segment just reads more rows)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    out = np.full(len(doc_ids), None, dtype=object)
    if len(doc_ids) == 0:
        return out
    t = pads.dataset(group_table, format="parquet").to_table(
        columns=[key, group_col],
        filter=(pc.field(key) >= int(doc_ids.min()))
        & (pc.field(key) <= int(doc_ids.max())),
    )
    if t.num_rows == 0:
        return out
    keys = t.column(key).to_numpy()
    vals = t.column(group_col).to_pylist()
    by = np.argsort(keys)
    at = by[np.minimum(np.searchsorted(keys, doc_ids, sorter=by),
                       len(keys) - 1)]
    for i in np.flatnonzero(keys[at] == doc_ids):
        g = vals[at[i]]
        if g is not None and g == g:  # NaN is missing too
            out[i] = str(g)
    return out


_GROUPED_SCHEMA = pa.schema([("group", pa.string()), ("doc_id", pa.int64()),
                             ("score", pa.float64())])


def _collect_grouped(pairs, q, stats, sim, group, docs_per_group: int
                     ) -> pa.Table:
    """Grouped collector: per-segment per-group top-n partials by (score
    desc, doc_id asc) — the second-pass collector of the grouping module
    (reference ``lucene/grouping/src/java/org/apache/lucene/search/
    grouping/TopGroupsCollector.java``): each segment emits at most
    ``docs_per_group`` hits PER GROUP, so the driver merge is bounded by
    segments × groups × docs_per_group, never by the hit count.
    ``group=(table, key, column)`` names the side table
    (:func:`_segment_groups`)."""
    from lucene_solr_ray.search.scorer import score_segment

    parts = []
    for reader, _ in pairs:
        ords, scores = score_segment(reader, q, stats, sim)
        dids = reader.doc_ids[ords]
        groups = _segment_groups(dids, *group)
        sel = indexsort.first_n_per_group(
            indexsort.order([scores], [True], dids), groups, docs_per_group)
        parts.append(pa.table(
            [groups[sel], dids[sel], scores[sel].astype(np.float64)],
            schema=_GROUPED_SCHEMA))
    return pa.concat_tables(parts)


def search_grouped(
    index: "Index",
    query: str,
    group_table: str,
    group_col: str,
    top_groups: int = 10,
    docs_per_group: int = 3,
    key: str = "doc_id",
    analyzer: Optional[StandardAnalyzer] = None,
    similarity: Optional[BM25Similarity] = None,
    sort_field: "Optional[Tuple[str, bool]]" = None,
) -> pa.Table:
    """Grouped search (the grouping-module contract, reference
    ``lucene/grouping/`` TopGroups/GroupDocs): match the query, attach the
    group field from a side table, rank groups by their best hit's score,
    keep ``docs_per_group`` hits per group ranked by (score desc, doc asc).
    Columns: group, group_rank, rank_in_group, doc_id, score.

    ``sort_field=(field, descending)`` ranks hits (and groups, by their
    best hit) by a docmeta column instead of score — the grouping
    module's ``Sort`` — through the field-sort collector and the
    index-sort comparator, so index-sorted segments stop early
    (``score`` then carries the field value).

    Distributed: each segment computes per-group top-``docs_per_group``
    partials (the TopGroupsCollector second pass); the driver merges
    ≤ segments × groups × docs_per_group tiny rows — a stop-word-scale
    query no longer dumps its whole result set on the driver."""
    (q,), stats = index.prepare([index.make_parser(analyzer).parse(query)])
    group = (group_table, key, group_col)
    if sort_field is None:
        rows = pa.concat_tables([_GROUPED_SCHEMA.empty_table()] + list(
            index.scan(
                partial(_collect_grouped, q=q, stats=stats,
                        sim=similarity or BM25Similarity(), group=group,
                        docs_per_group=docs_per_group),
            ).iter_batches(batch_size=None, batch_format="pyarrow")))
        vals, desc = rows.column("score"), True
    else:
        sort = indexsort.normalize(sort_field)
        rows = _scan_field_sort(index, [(0, q, docs_per_group)], stats,
                                sort, group)
        vals, desc = rows.column("sort_0"), sort[0][1]
    # global per-group top n in comparator order, then groups ranked by
    # their best hit (its first appearance)
    groups = rows.column("group").to_numpy(zero_copy_only=False)
    sel = indexsort.first_n_per_group(
        indexsort.order([vals.to_numpy(zero_copy_only=False)], [desc],
                        rows.column("doc_id").to_numpy()),
        groups, docs_per_group)
    _, first, inv = np.unique(indexsort.sort_codes(groups[sel]),
                              return_index=True, return_inverse=True)
    group_rank = np.argsort(np.argsort(first))[inv]
    by = np.argsort(group_rank, kind="stable")
    sel, group_rank = sel[by], group_rank[by]
    keep = group_rank < top_groups
    sel, group_rank = sel[keep], group_rank[keep]
    in_group = np.arange(len(sel)) - np.searchsorted(group_rank, group_rank)
    return pa.table({
        "group": rows.column("group").take(sel),
        "group_rank": pa.array(group_rank + 1, pa.int32()),
        "rank_in_group": pa.array(in_group + 1, pa.int32()),
        "doc_id": rows.column("doc_id").take(sel),
        "score": vals.take(sel).cast(pa.float64()),
    })


def elevated_search(
    index: "Index",
    query: str,
    elevations: Dict[str, Dict],
    k: int = 10,
    analyzer: Optional[StandardAnalyzer] = None,
    similarity: Optional[BM25Similarity] = None,
    round_scores: Optional[int] = None,
) -> pa.Table:
    """QueryElevationComponent (reference ``solr/core/src/java/org/apache/
    solr/handler/component/QueryElevationComponent.java:101``): editorial
    result curation keyed by the EXACT query string —

    - ``elevate`` ids are pinned to the top in config order, whether or
      not they match the query (the component injects them); their score
      is the organic score when they matched, else 0;
    - ``exclude`` ids never appear;
    - organic results follow, ranked normally with elevated/excluded ids
      removed from their organic positions.

    ``elevations = {"query text": {"elevate": [ids], "exclude": [ids]}}``
    (the elevate.xml registry).  ``round_scores`` ranks organic hits on
    the ROUNDED score (ties → ascending doc_id) for oracle-stable
    comparisons.  Columns: rank, doc_id, elevated, score."""
    cfg = elevations.get(query) or {}
    elevate = [int(i) for i in cfg.get("elevate", [])]
    exclude = {int(i) for i in cfg.get("exclude", [])}
    pinned = set(elevate)
    fetch_k = k + len(elevate) + len(exclude)
    t = index.search({0: query}, k=fetch_k, analyzer=analyzer,
                     similarity=similarity)
    dids = t.column("doc_id").to_pylist()
    scores = t.column("score").to_pylist()
    by_id = {int(d): float(s) for d, s in zip(dids, scores)}
    # injected docs are SCORED even when they rank below the organic
    # top-k (the component adds them through a boost query) — resolve
    # missing pinned scores with explain()'s driver-side evaluation
    for d in elevate:
        if d not in by_id:
            by_id[d] = float(
                explain(index, query, d, analyzer=analyzer,
                        similarity=similarity).get("value", 0.0)
            )
    if round_scores is not None:
        organic = sorted(
            ((d, round(s, round_scores)) for d, s in by_id.items()
             if d not in exclude and d not in pinned),
            key=lambda x: (-x[1], x[0]),
        )
    else:
        organic = [
            (int(d), float(s)) for d, s in zip(dids, scores)
            if int(d) not in exclude and int(d) not in pinned
        ]
    rows = []
    for d in elevate:
        s = by_id.get(d, 0.0)
        if round_scores is not None:
            s = round(s, round_scores)
        rows.append({"rank": len(rows) + 1, "doc_id": d,
                     "elevated": True, "score": float(s)})
    for d, s in organic:
        if len(rows) >= k:
            break
        rows.append({"rank": len(rows) + 1, "doc_id": d,
                     "elevated": False, "score": float(s)})
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema([
            ("rank", pa.int32()), ("doc_id", pa.int64()),
            ("elevated", pa.bool_()), ("score", pa.float64()),
        ]),
    )


def _collect_export(pairs, q, stats, field: str) -> pa.Table:
    """Export collector: (doc_id, sort value) for EVERY hit — the /export
    handler's per-shard pass (no top-k truncation) — plus the sort keys
    of the index-sort comparator: ``_missing`` (null or NaN) and
    ``_key``, the value with a missing one zeroed, so that a missing
    value sorts as the greatest and ties on doc_id.  Values are the
    reader's (``SegmentReader.values``, overlays applied), typed as the
    stored column."""
    import pyarrow.compute as pc

    from lucene_solr_ray.search.scorer import score_segment

    out = []
    for reader, _ in pairs:
        ords, _s = score_segment(reader, q, stats)
        if len(ords) == 0:
            continue
        typ = reader.docmeta_schema.field(field).type
        # NaN marks a missing value only where the type has no NaN
        v = pa.array(reader.values(field)[ords], typ,
                     from_pandas=not pa.types.is_floating(typ))
        missing = pc.is_null(v, nan_is_null=True)
        zero = pa.scalar("" if pa.types.is_string(v.type) else 0)
        out.append(pa.table({
            "doc_id": pa.array(reader.doc_ids[ords].astype(np.int64)),
            field: v,
            "_missing": missing,
            "_key": pc.if_else(missing, zero.cast(v.type), v),
        }))
    if not out:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             field: pa.array([], pa.int64()),
             "_missing": pa.array([], pa.bool_()),
             "_key": pa.array([], pa.int64())}
        )
    return pa.concat_tables(out)


def export_sorted(
    index: "Index",
    query: str,
    sort_field: str,
    out_dir: str,
    descending: bool = False,
    analyzer: Optional[StandardAnalyzer] = None,
) -> int:
    """ExportStream (the /export handler, reference ``solr/core/src/java/
    org/apache/solr/handler/export/ExportWriter.java``): stream EVERY
    matching doc, globally sorted by a docmeta field, into partitioned
    parquet under ``out_dir`` — the full-result-set path that top-k
    collectors refuse.  Rows are in the index-sort comparator's order
    (a missing value — null or NaN — sorts as the greatest, then doc_id
    ascending), the order ``search_by_field`` ranks in.  Distributed end
    to end: per-segment match export → Ray's distributed sort →
    ``write_parquet`` (one file per output block, resumable by rerunning
    into a fresh dir).  Returns row count."""
    (q,), stats = index.prepare([index.make_parser(analyzer).parse(query)])
    index.scan(
        partial(_collect_export, q=q, stats=stats, field=sort_field)
    ).sort(
        ["_missing", "_key", "doc_id"],
        descending=[descending, descending, False],
    ).drop_columns(["_missing", "_key"]).write_parquet(out_dir)
    import glob
    import pyarrow.parquet as pq

    return sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(os.path.join(out_dir, "*.parquet"))
    )


def explain(
    index: "Index",
    query: str,
    doc_id: int,
    analyzer: Optional[StandardAnalyzer] = None,
    similarity: Optional[BM25Similarity] = None,
) -> Dict:
    """``IndexSearcher.explain(query, doc)`` (reference
    ``search/IndexSearcher.java:716-745`` + ``Weight.explain``): a nested
    breakdown of the document's score — per clause, down to the term
    leaves with their (df, ttf, freq, norm-decoded length) inputs.

    Runs entirely on the driver against the ONE segment holding the doc
    (found by each segment's ``doc_ids``): explain is a debugging call,
    not a throughput path."""
    from lucene_solr_ray.analysis.smallfloat import BYTE4_DECODE_TABLE
    from lucene_solr_ray.index.segment import field_term
    from lucene_solr_ray.search.query import (
        BooleanQuery as BQ,
        BoostQuery as BoQ,
        ConstantScoreQuery as CSQ,
        PhraseQuery as PQ2,
        TermQuery as TQ,
    )
    from lucene_solr_ray.search.scorer import score_segment

    (q,), stats = index.prepare([index.make_parser(analyzer).parse(query)])
    sim = similarity or BM25Similarity()

    # locate the segment containing doc_id
    reader = None
    ord_ = None
    for d in index.seg_dirs:
        r = SegmentReader(d)
        hit = np.nonzero(r.doc_ids == doc_id)[0]
        if len(hit):
            reader, ord_ = r, int(hit[0])
            break
    if reader is None:
        return {"match": False, "value": 0.0,
                "description": f"doc {doc_id} not in index"}

    def _score_of(node: Query) -> float:
        ords, scores = score_segment(reader, node, stats, sim)
        i = np.searchsorted(ords, ord_)
        if i < len(ords) and ords[i] == ord_:
            return float(scores[i])
        return 0.0

    def _tree(node: Query) -> Dict:
        v = _score_of(node)
        out: Dict = {"value": round(v, 6), "match": v != 0.0,
                     "type": type(node).__name__}
        if isinstance(node, TQ):
            key = field_term(node.field, node.term)
            p = reader.postings(key)
            freq = 0
            if p is not None:
                i = np.searchsorted(p[0], ord_)
                if i < len(p[0]) and p[0][i] == ord_:
                    freq = int(p[1][i])
            norms = (
                reader.norms_for(node.field) if node.field
                else reader.norms
            )
            out["description"] = (
                f"weight({key}) [BM25-family] freq={freq} "
                f"df={stats.df.get(key, 0)} ttf={stats.ttf.get(key, 0)} "
                f"dl≈{int(BYTE4_DECODE_TABLE[norms[ord_]])}"
            )
        elif isinstance(node, PQ2):
            out["description"] = (
                f"phrase {' '.join(node.phrase_terms)!r} slop={node.slop}"
            )
        elif isinstance(node, BQ):
            out["description"] = "sum of clauses"
            out["details"] = [
                {**_tree(c.query), "occur": c.occur.value}
                for c in node.clauses
            ]
        elif isinstance(node, BoQ):
            out["description"] = f"boost {node.boost} ×"
            out["details"] = [_tree(node.query)]
        elif isinstance(node, CSQ):
            out["description"] = "constant score"
        else:
            out["description"] = type(node).__name__
        return out

    return _tree(q)


def _collect_rescore(pairs, q1, q2, stats, sim, window: int) -> pa.Table:
    """Rescore collector: each segment's first-pass top-``window`` plus
    the rescore query's score for exactly those docs."""
    from lucene_solr_ray.search.scorer import score_segment

    rows = []
    for reader, _ in pairs:
        o1, s1 = topk_segment(reader, q1, stats, window, sim)
        if len(o1) == 0:
            continue
        o2, s2 = score_segment(reader, q2, stats, sim)
        idx = np.searchsorted(o2, o1)
        idx_c = np.minimum(idx, max(len(o2) - 1, 0))
        hit = (
            (idx < len(o2)) & (o2[idx_c] == o1)
            if len(o2) else np.zeros(len(o1), dtype=bool)
        )
        second = np.where(hit, s2[idx_c] if len(o2) else 0.0, 0.0)
        dids = reader.doc_ids[o1]
        for d, f, s in zip(dids.tolist(), s1.tolist(), second.tolist()):
            rows.append(
                {"doc_id": int(d), "first": float(f), "second": float(s)}
            )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [("doc_id", pa.int64()), ("first", pa.float64()),
             ("second", pa.float64())]
        ),
    )


def rescore(
    index: "Index",
    first_query: str,
    rescore_query: str,
    k: int = 10,
    window: int = 50,
    rescore_weight: float = 1.0,
    analyzer: Optional[StandardAnalyzer] = None,
    similarity: Optional[BM25Similarity] = None,
) -> pa.Table:
    """``QueryRescorer.rescore`` (reference ``search/QueryRescorer.java``):
    take the first-pass top-``window`` hits, re-score them with the
    (usually more expensive) rescore query, final score = first +
    weight·second; return the top-``k`` re-ranked.

    Both passes run in the SAME distributed job — per segment the scorer
    emits its first-pass top-window partial plus the rescore query's score
    for exactly those docs, so the driver merge stays ≤ segments × window
    rows and the expensive query is only ever evaluated per segment, never
    re-dispatched per document."""
    parser = index.make_parser(analyzer)
    (q1, q2), stats = index.prepare(
        [parser.parse(first_query), parser.parse(rescore_query)]
    )
    df = index.scan(
        partial(_collect_rescore, q1=q1, q2=q2, stats=stats,
                sim=similarity or BM25Similarity(), window=window),
    ).to_pandas()
    if df.empty:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "rank": pa.array([], pa.int32()),
             "score": pa.array([], pa.float64()),
             "first_pass": pa.array([], pa.float64())}
        )
    # global first-pass window, then combine + re-rank
    df = df.sort_values(["first", "doc_id"],
                        ascending=[False, True]).head(window)
    df["score"] = df["first"] + rescore_weight * df["second"]
    df = df.sort_values(["score", "doc_id"],
                        ascending=[False, True]).head(k)
    return pa.table(
        {
            "doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
            "rank": pa.array(
                np.arange(len(df), dtype=np.int32)
            ),
            "score": pa.array(df["score"].to_numpy(np.float64)),
            "first_pass": pa.array(df["first"].to_numpy(np.float64)),
        }
    )
