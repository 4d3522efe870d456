"""Warm query engine: a persistent actor pool answering BM25 queries at
low latency.

The ``Index.search`` pipeline launches Ray Data jobs per call — right for
throughput batches, wrong for latency (hundreds of ms of scheduling per
call).  This is the resident form of the reference's hot searcher
(``IndexSearcher`` over a shared ``DirectoryReader`` with leaf slices on an
executor, ``lucene/core/src/java/org/apache/lucene/search/IndexSearcher
.java:183-209,564-593``; Solr's scatter-gather over shard replicas):

- a driver LRU of each (query text, k)'s merged top-k (Solr's
  ``queryResultCache`` in front of the searchers): one engine has one
  parser, similarity and commit point, so a repeat skips even the parse;
- N ``SegmentSearcher`` actors, each OWNING a static partition of the
  segments (round-robin by size) as lazy ``SegmentReader``s: ``warm()``
  loads their term dictionaries, norms, posting blocks and positions,
  which then stay hot across queries;
- the batch search's prepare step (``searcher.prepare_queries``: collect
  patterns, fetch stats + expansions, rewrite), answered on the driver
  from a global term dictionary that the batch search's stats read
  (``searcher.term_stats``) sums over every segment once per engine
  (``IndexSearcher`` summing leaves in-process, not Solr's
  ExactStatsCache round trip);
- ``search`` sends a batch's misses in one fan-out to the actors, which
  run the batch search's top-k collector.  This is the only place the
  engine drops to raw ``@ray.remote`` actors — the Dataset API cannot
  express a resident service.
"""

from __future__ import annotations

import bisect
import functools
import os
import pickle
from collections import OrderedDict
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa

from lucene_solr_ray.analysis.analyzer import StandardAnalyzer
from lucene_solr_ray.search.query import Query, TermQuery
from lucene_solr_ray.search.scorer import GlobalStats
from lucene_solr_ray.search.searcher import (
    Index,
    _batch_items,
    _merge_topk,
    _prepare_batch,
    _tolist,
    _topk_columns,
    match_terms_arrow,
    term_stats,
)
from lucene_solr_ray.search.similarity import BM25Similarity

__all__ = ["QueryEngine"]

#: entries in the driver's result cache and in its expansion cache (both
#: LRU)
CACHE_CAP = 1024


def _make_actor_cls():
    import ray

    @ray.remote
    class SegmentSearcherActor:
        def __init__(self, seg_dirs: List[str], seg_ords: List[int], sim):
            from lucene_solr_ray.search.reader import SegmentReader

            self.readers = [
                (SegmentReader(d), o) for d, o in zip(seg_dirs, seg_ords)
            ]
            self.sim = sim

        def prime(self) -> None:
            """firstSearcher warming (Solr's solrconfig warm-up queries):
            run the collector once per reader, and load its positions,
            so the first real query doesn't pay module-import, kernel-JIT
            or segment-read costs (patterns expand on the driver)."""
            for reader, o in self.readers:
                if reader.terms:
                    t = reader.terms[0]
                    gs = GlobalStats(reader.stats["doc_count"],
                                     reader.stats["sum_total_term_freq"])
                    gs.df[t], gs.ttf[t] = reader.term_stats(t)
                    _topk_columns([(reader, o)], [(0, TermQuery(t), 1)],
                                  gs, self.sim)
                    reader.positions(t)

        def search(self, parsed, stats: GlobalStats) -> bytes:
            """:func:`_topk_columns` over the resident readers, pickled: a
            reply of bare numpy arrays took about 0.5 ms more per call, and
            an Arrow one would import Ray Data into the actor."""
            return pickle.dumps(
                _topk_columns(self.readers, parsed, stats, self.sim))

    return SegmentSearcherActor


class QueryEngine:
    """Resident searcher over a committed index; create once, query many."""

    def __init__(
        self,
        index: Index | str,
        num_actors: int = 4,
        analyzer: Optional[StandardAnalyzer] = None,
        similarity: Optional[BM25Similarity] = None,
        replicas: Optional[Sequence[str]] = None,
    ):
        if isinstance(index, str):
            index = Index(index)
        self.index = index
        self.parser = index.make_parser(analyzer)
        self.sim = similarity or BM25Similarity()
        self._dict: Optional[Tuple] = None  # see ``_dictionary``
        # a pattern → its sorted matches in the global dictionary
        self._expand = functools.lru_cache(CACHE_CAP)(
            lambda p: tuple(sorted(
                match_terms_arrow(p, self._dictionary()[0]))))
        # (query text, k) → that query's merged (doc_ids, scores)
        self._results: "OrderedDict[Tuple[str, int], Tuple]" = OrderedDict()
        self._counts = dict.fromkeys(
            ("result_hits", "result_misses", "actor_calls", "failovers"), 0)

        # replica-aware serving (reference ``lucene/replicator/.../
        # IndexRevision.java``: replicas exist to SERVE searches): actors
        # read their segments from caught-up replica directories,
        # spreading IO; a replica whose committed segment state does not
        # match the primary's (stale generation) is dropped — it would
        # serve a different commit point
        self._replica_roots = [
            r for r in (replicas or ())
            if self._replica_current(index, r)
        ]

        seg_dirs = index.seg_dirs
        n = min(num_actors, max(len(seg_dirs), 1))
        cls = _make_actor_cls()
        self._actor_cls = cls
        # round-robin assignment (by index — sizes are near-uniform by
        # construction; size-aware binpacking drops in trivially)
        parts: List[Tuple[List[str], List[int]]] = [([], []) for _ in range(n)]
        for i, d in enumerate(seg_dirs):
            parts[i % n][0].append(d)
            parts[i % n][1].append(i)
        self._parts = [(dirs, ords) for dirs, ords in parts if dirs]
        self.actors = [
            cls.remote(self._serve_dirs(ai, dirs), ords, self.sim)
            for ai, (dirs, ords) in enumerate(self._parts)
        ]

    @staticmethod
    def _replica_current(index: Index, replica_dir: str) -> bool:
        """True iff the replica's committed segment state (ids + delete /
        DV / soft generations) equals the primary's — the caught-up check
        the reference's replication handler performs before serving."""
        from lucene_solr_ray.index.manifest import read_latest_manifest

        rm = read_latest_manifest(replica_dir)
        if rm is None:
            return False

        def state(m):
            return sorted(
                (int(s["segment_id"]), int(s.get("del_gen", 0)),
                 int(s.get("soft_del_gen", 0)),
                 tuple(sorted((s.get("dv_gens") or {}).items())))
                for s in m["segments"]
            )

        return state(rm) == state(index.manifest)

    def _serve_dirs(self, actor_i: int, dirs: List[str]) -> List[str]:
        """Resolve an actor's segment dirs against its replica root
        (round-robin across replicas; primary serves when none)."""
        if not self._replica_roots:
            return dirs
        root = self._replica_roots[actor_i % len(self._replica_roots)]
        out = []
        for d in dirs:
            rd = os.path.join(root, os.path.basename(os.path.normpath(d)))
            out.append(rd if os.path.isdir(rd) else d)
        return out

    def _gather(self, method: str, *args) -> List:
        """Fan a call to every actor; on an actor death, FAIL OVER by
        rebuilding that actor's partition from the PRIMARY directories
        and retrying its call (the replication handler's
        fall-back-to-master behavior)."""
        import ray

        futs = [getattr(a, method).remote(*args) for a in self.actors]
        self._counts["actor_calls"] += len(futs)
        out: List = []
        for i, f in enumerate(futs):
            try:
                out.append(ray.get(f))
            except ray.exceptions.RayActorError:
                self._counts["failovers"] += 1
                dirs, ords = self._parts[i]
                self.actors[i] = self._actor_cls.remote(dirs, ords, self.sim)
                out.append(ray.get(
                    getattr(self.actors[i], method).remote(*args)
                ))
        return out

    def warm(self, queries: Optional[Sequence[str]] = None,
             k: int = 10) -> None:
        """Block until every actor has loaded its segments AND run the
        firstSearcher-style warm-up (one scoring per reader), read the
        term dictionary, then run (optionally) a list of representative
        warm-up queries as one batch, which also fills the result cache —
        the role of Solr's configured ``firstSearcher``/``newSearcher``
        listener queries (``solr/core/src/java/org/apache/solr/core/
        QuerySenderListener.java``), which exist precisely so production
        latency never pays first-execution costs."""
        self._gather("prime")
        self._dictionary()
        self.search(list(queries or ()), k=k)

    def _dictionary(self) -> Tuple:
        """The global term dictionary: sorted terms (Arrow, to expand
        patterns, and a list, to binary-search) and their df and ttf
        lists, summed over every segment by :func:`term_stats`.  Read
        once per engine: one engine serves one commit point, and an
        actor rebuilt on failover serves the same segments."""
        if self._dict is None:
            t, _ = term_stats(self.index.seg_dirs)
            terms = t.column("term").combine_chunks()
            self._dict = (terms, _tolist(terms),
                          t.column("df").to_pylist(),
                          t.column("ttf").to_pylist())
        return self._dict

    def _stats_for(self, terms: Sequence[str],
                   patterns: List[Query]) -> Tuple[GlobalStats, Dict]:
        """``Index.collect_stats``'s contract (stats for the terms AND
        every expansion term, plus the expansions), answered on the
        driver by binary search over the global dictionary; a term
        absent from it reads (0, 0)."""
        _, keys, dfs, ttfs = self._dictionary()
        expansions = {p: self._expand(p) for p in patterns}
        stats = self.index.collection_stats()
        for t in chain(terms, *expansions.values()):
            i = bisect.bisect_left(keys, t)
            found = i < len(keys) and keys[i] == t
            stats.df[t], stats.ttf[t] = (dfs[i], ttfs[i]) if found else (0, 0)
        return stats, expansions

    def search(self, queries: Dict[int, str] | Sequence[str],
               k: int = 10) -> pa.Table:
        """``Index.search``'s answer for a batch of query texts.  Hits
        come from the result cache; the misses are parsed, prepared and
        sent in one ``search`` fan-out, then cached."""
        items = _batch_items(queries)
        cache = self._results
        # every hit is read before a miss is inserted, which may evict it
        parts, misses = [], []
        for qid, text in items:
            hit = cache.get((text, k))
            if hit is None:
                misses.append((qid, text))
            else:
                cache.move_to_end((text, k))
                parts.append((np.full(len(hit[0]), qid, np.int64), *hit))
        self._counts["result_hits"] += len(parts)
        self._counts["result_misses"] += len(misses)
        if misses:
            parsed, stats = _prepare_batch(self._stats_for, [
                (qid, self.parser.parse(text), k) for qid, text in misses])
            parts += map(pickle.loads, self._gather("search", parsed, stats))
        out = _merge_topk(parts, [(qid, None, k) for qid, _ in items],
                          self.sim.out_dtype)
        qids, doc, score = (out.column(c).to_numpy()
                            for c in ("qid", "doc_id", "score"))
        for qid, text in misses:
            lo, hi = np.searchsorted(qids, [qid, qid + 1])
            cache[(text, k)] = (doc[lo:hi].copy(), score[lo:hi].copy())
            if len(cache) > CACHE_CAP:
                cache.popitem(last=False)
        return out

    def stats(self) -> Dict[str, int]:
        """Counters since construction: result-cache hits and misses (one
        per query), expansion-cache hits and misses (one per pattern),
        actor calls (one per actor per fan-out, failover retries not
        counted), failovers, and both caches' sizes."""
        exp = self._expand.cache_info()
        return {**self._counts, "expansion_hits": exp.hits,
                "expansion_misses": exp.misses,
                "result_cache_size": len(self._results),
                "expansion_cache_size": exp.currsize}

    def shutdown(self) -> None:
        import ray

        for a in self.actors:
            ray.kill(a)
        self.actors = []
