"""``serve``: a 20k-doc index in two 10k-doc segments, answered one query
at a time by one warm ``QueryEngine`` actor (closed loop, one client).

The log's query shapes are weighted as in the 16 code queries (term, AND,
three-way AND, OR, OR within AND, phrase, prefix, fuzzy), and a third of
its words are stop-word-scale keywords, as in those queries (see
``gen.query_pool``).  The query pool is one fixed set; the seed draws the
corpus and the repeats.  One query in three repeats an earlier one, drawn
Zipf from a distinct pool larger than the actor's 1024-entry result
cache: misses expose the scorer (pruned or exhaustive), repeats expose the
actor round trip.  The metrics cover a fixed number of queries from the
start of the log; ``latency_p50_ms`` is the median over the first-seen
ones (see ``report``).

The traced phase replays, in this process and on the same segments,
queries and global stats, what the actor computed: parsing, pattern
expansion (once per distinct pattern, as the engine caches expansions)
and ``topk_segment`` (only on result-cache misses, tracked with an LRU of
the actor's capacity).  ``QueryEngine.search`` minus that replay is the
RPC share.  ``topk_segment(pruning=False)`` and ``topk_pruned`` run on the
same inputs as extra replays: the first times the exhaustive path and must
give the same top-k, the second measures how often pruning applies.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Dict, List

import numpy as np

from perfbench import common, gen

N_DOCS = 20_000
DOCS_PER_SEGMENT = 10_000
LOG_LEN = 6_000
#: the engine's per-actor result cache capacity, mirrored by the replay
ACTOR_CACHE = 1024
#: every phase answers at least this many queries; digest and oracle
#: checks draw from them, so they repeat across runs
N_MIN = 200
#: the metrics cover the first ``MEASURED_PER_S * --seconds`` queries (at
#: least ``N_MIN``), which the phase answers even on a slow host; a run
#: answers more when it has time left, and counting those too made the
#: measured work, and with it the median, depend on the host's speed
MEASURED_PER_S = 70
N_RECHECK = 40


def inputs(ctx: common.Ctx) -> Dict:
    n = ctx.size(N_DOCS, floor=200)
    per = ctx.size(DOCS_PER_SEGMENT, floor=100)
    paths = gen.corpus_files(ctx.cache, ctx.seed, n, per)
    log = gen.serve_log(ctx.seed, LOG_LEN)
    shapes = [log["pool"][i][0] for i in log["log"]]
    seen = set()
    repeats = 0
    for i in log["log"]:
        repeats += i in seen
        seen.add(i)
    props = gen.describe_corpus(paths)
    props["log_queries"] = len(shapes)
    props["repeat_share"] = repeats / len(shapes)
    props["shape_shares"] = {
        s: shapes.count(s) / len(shapes) for s in gen.SHAPES}
    props["keyword_share"] = sum(
        log["pool"][i][2] for i in log["log"]) / len(shapes)
    return {"paths": paths, "per": per, "docs": n, "log": log,
            "props": props, "index_dir": os.path.join(ctx.run_dir, "idx")}


def setup(ctx: common.Ctx, inp: Dict, first: bool) -> Dict:
    """Build the index (first time only, untimed), then construct and warm
    the engine (timed, part of ``setup_s``)."""
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.state.query_engine import QueryEngine

    if first:
        build_index(inp["paths"], inp["index_dir"],
                    docs_per_segment=inp["per"])
    t0 = time.perf_counter()
    engine = QueryEngine(inp["index_dir"], num_actors=1)
    engine.warm()
    return {"engine": engine, "setup_spans": [(t0, time.perf_counter())]}


def teardown(state: Dict) -> None:
    state["engine"].shutdown()


class _Replay:
    """The actor's computation, re-run in this process."""

    def __init__(self, ctx: common.Ctx, index_dir: str):
        from lucene_solr_ray.search.reader import SegmentReader
        from lucene_solr_ray.search.searcher import Index
        from lucene_solr_ray.search.similarity import BM25Similarity

        self.index = Index(index_dir)
        self.parser = self.index.make_parser()
        self.sim = BM25Similarity()
        self.readers = []
        for d in self.index.seg_dirs:
            with ctx.aside("search.reader_load"):
                self.readers.append(SegmentReader(d, load_positions=True))
        self.expansions: Dict = {}
        self.cache: "OrderedDict" = OrderedDict()
        self.pairs = 0
        self.pruned = 0
        self.misses = 0

    def query(self, ctx: common.Ctx, q: str, parent, root) -> None:
        from lucene_solr_ray.search.scorer import GlobalStats, topk_segment
        from lucene_solr_ray.search.searcher import (
            match_terms_arrow,
            rewrite_query,
        )
        from lucene_solr_ray.search.wand import topk_pruned

        with ctx.aside("search.parse", parent):
            pq = self.parser.parse(q)
        pats = common.patterns_of(pq)
        new = [p for p in pats if p not in self.expansions]
        if new:
            with ctx.aside("search.expand", parent):
                for p in new:
                    acc = set()
                    for r in self.readers:
                        acc.update(match_terms_arrow(p, r.terms_arrow))
                    self.expansions[p] = tuple(sorted(acc))
        with ctx.aside("replay.prep", root):
            rq = rewrite_query(pq, self.expansions) if pats else pq
            m = self.index.manifest
            stats = GlobalStats(doc_count=m["doc_count"],
                                sum_total_term_freq=m["sum_total_term_freq"])
            for t in set(rq.terms()):
                df = ttf = 0
                for r in self.readers:
                    st = r.term_stats(t)
                    if st:
                        df += st[0]
                        ttf += st[1]
                stats.df[t], stats.ttf[t] = df, ttf
        misses = []
        for si, r in enumerate(self.readers):
            key = (si, q)
            if key in self.cache:
                self.cache.move_to_end(key)
                continue
            self.cache[key] = True
            if len(self.cache) > ACTOR_CACHE:
                self.cache.popitem(last=False)
            misses.append(r)
        if not misses:
            return
        self.misses += 1
        with ctx.aside("search.score", parent):
            pruned = [topk_segment(r, rq, stats, common.TOP_K, self.sim)
                      for r in misses]
        with ctx.aside("search.exhaustive", root):
            exhaustive = [topk_segment(r, rq, stats, common.TOP_K, self.sim,
                                       pruning=False) for r in misses]
        with ctx.aside("replay.pruned_share", root):
            for r, (po, ps), (eo, es) in zip(misses, pruned, exhaustive):
                self.pairs += 1
                self.pruned += topk_pruned(r, rq, stats, common.TOP_K,
                                           self.sim) is not None
                ctx.check(np.array_equal(po, eo) and np.allclose(ps, es),
                          f"pruned top-k != exhaustive for {q!r}")


def phase(ctx: common.Ctx, inp: Dict, state: Dict, label: str) -> Dict:
    engine = state["engine"]
    pool, log = inp["log"]["pool"], inp["log"]["log"]
    tr = ctx.tracer
    replay = _Replay(ctx, inp["index_dir"]) if tr.enabled else None
    n_measured = max(N_MIN, int(MEASURED_PER_S * ctx.seconds))
    lat: List = []
    kept: List = []
    with ctx.measure() as clock:
        for i, qi in enumerate(log):
            q = pool[qi][1]
            with tr.span("state.rpc", rid=i) as sp:
                t0 = time.perf_counter()
                res = engine.search({0: q}, k=common.TOP_K)
                lat.append((t0, time.perf_counter()))
            ctx.attempted += 1
            if i < N_MIN:
                kept.append(common.table_topk(res, 1)[0])
            if replay is not None:
                replay.query(ctx, q, sp, clock.root)
            ctx.rss.sample()
            if i + 1 >= n_measured and clock.elapsed() >= ctx.seconds:
                break
    answered = len(lat)
    lat = lat[:n_measured]
    work_s = ctx.work_s(clock.start, lat[-1][1])
    _recheck(ctx, inp, kept)
    return {"lat": lat, "items": len(lat), "answered": answered,
            "work_s": work_s, "root": clock.root,
            "digest": common.digest(kept), "replay": replay}


def _recheck(ctx: common.Ctx, inp: Dict, kept: List) -> None:
    """A seeded sample of the answered queries against the oracle."""
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.searcher import Index

    pool, log = inp["log"]["pool"], inp["log"]["log"]
    rng = np.random.default_rng([ctx.seed, 7])
    pos = sorted(rng.choice(len(kept), min(N_RECHECK, len(kept)),
                            replace=False).tolist())
    index = Index(inp["index_dir"])
    parser = index.make_parser()
    qs = [pool[log[p]][1] for p in pos]
    stats, rewritten = common.resolve(index, [parser.parse(q) for q in qs])
    readers = [SegmentReader(d, load_positions=True) for d in index.seg_dirs]
    want = common.oracle_topk(readers, rewritten, stats)
    for p, q, w in zip(pos, qs, want):
        ctx.check(common.same_hits(kept[p], w),
                  f"serve query {q!r} (log position {p}) != oracle")


def report(ctx: common.Ctx, inp: Dict, res: Dict) -> None:
    lat_ms = [x * 1e3 for x in ctx.norm(res["lat"])]
    # Latencies are bimodal: repeats answered from the actor's result
    # cache take ~4 ms, first-seen queries ~10 ms, and the median of all
    # queries falls between the two modes, where a few points of repeat
    # share moved it by a third between seeds.  The gated median is that
    # of first-seen queries (all result-cache misses, so it tracks the
    # scorer); repeats and all queries are reported beside it.
    seen = set()
    fresh, repeat = [], []
    for qi, ms in zip(inp["log"]["log"], lat_ms):
        (repeat if qi in seen else fresh).append(ms)
        seen.add(qi)
    ctx.metric("items_per_s", res["items"] / res["work_s"], "1/s")
    ctx.metric("latency_p50_ms", common.median(fresh), "ms")
    ctx.details["latency_p50_ms"] = {
        "first_seen": common.median(fresh), "repeats": common.median(repeat),
        "all": common.median(lat_ms), "first_seen_n": len(fresh),
        "all_raw": common.median([(b - a) * 1e3 for a, b in res["lat"]])}
    ctx.metric("space_ratio", common.dir_bytes(inp["index_dir"])
               / inp["props"]["content_bytes"], "ratio")
    ctx.details["input"] = inp["props"]
    # the highest percentile with at least ten samples above it
    for q in (99, 95, 90, 50):
        tail = common.pct(lat_ms, q)
        if sum(x > tail for x in lat_ms) >= 10:
            break
    ctx.details["latency_tail"] = {"percentile": q, "ms": tail,
                                   "samples": len(lat_ms)}


def layers(ctx: common.Ctx, inp: Dict, res: Dict) -> Dict[str, float]:
    tr = ctx.tracer
    rp = res["replay"]
    tot = tr.totals()
    cnt = tr.counts()
    self_t = tr.self_times()
    n = res["answered"]

    def per(name: str, base: int) -> float:
        return tot.get(name, 0.0) * 1e3 / base if base else 0.0

    return {
        "search.parse_ms": per("search.parse", n),
        "search.expand_ms": per("search.expand", cnt.get("search.expand", 0)),
        "search.score_ms": per("search.score", rp.misses),
        "search.exhaustive_ms": per("search.exhaustive", rp.misses),
        "search.pruned_share": rp.pruned / rp.pairs if rp.pairs else 0.0,
        "search.reader_load_ms": per("search.reader_load",
                                     cnt.get("search.reader_load", 0)),
        "state.rpc_ms": self_t.get("state.rpc", 0.0) * 1e3 / n,
        "input.repeat_share": inp["props"]["repeat_share"],
    }
