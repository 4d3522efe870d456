"""``ingest``: build a ~40k-doc code corpus at 2,500 docs per segment with
``build_index``, then ``merge_until_done``.

Analysis, inversion, encoding, writing and merging do nearly all the work;
none of them runs in ``serve``.  The traced phase replays each shard's
read, analysis, ``build_segment_tables`` and ``write_segment_dir`` in this
process, plus the ``commit_manifest``, so that ``build_index`` minus the
replay is Ray Data dispatch.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List

import numpy as np

from perfbench import common, gen

N_DOCS = 40_000
DOCS_PER_SEGMENT = 2_500
#: extra seeded queries checked against the oracle after each build
N_POOL_QUERIES = 16


def inputs(ctx: common.Ctx) -> Dict:
    n = ctx.size(N_DOCS, floor=200)
    per = ctx.size(DOCS_PER_SEGMENT, floor=50)
    paths = gen.corpus_files(ctx.cache, ctx.seed, n, per)
    props = gen.describe_corpus(paths)
    queries = common.CODE_QUERIES + [
        q for _, q, _ in gen.query_pool(ctx.seed, N_POOL_QUERIES, salt=1)]
    return {"paths": paths, "docs": n, "per": per, "props": props,
            "queries": queries}


def setup(ctx: common.Ctx, inp: Dict, first: bool) -> Dict:
    return {}


def teardown(state: Dict) -> None:
    pass


def _iteration(ctx: common.Ctx, inp: Dict, out_dir: str, rid: int) -> Dict:
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.merge import merge_until_done

    tr = ctx.tracer
    t0 = time.perf_counter()
    with tr.span("index.build_dispatch", rid=rid) as sp:
        manifest = build_index(inp["paths"], out_dir,
                               docs_per_segment=inp["per"])
    t1 = time.perf_counter()
    if sp is not None:
        _replay_build(ctx, inp, sp)
    t2 = time.perf_counter()
    with tr.span("index.merge", rid=rid):
        merge_until_done(out_dir)
    t3 = time.perf_counter()
    ctx.rss.sample()
    return {"build": (t0, t1), "merge": (t2, t3),
            "built_docs": manifest["doc_count"]}


def _replay_build(ctx: common.Ctx, inp: Dict, parent) -> None:
    """Re-run one build's shard work in this process, as children of the
    ``build_index`` span."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.analysis.analyzer import StandardAnalyzer
    from lucene_solr_ray.index.manifest import (
        commit_manifest,
        write_segment_dir,
    )
    from lucene_solr_ray.index.segment import build_segment_tables

    out = os.path.join(ctx.run_dir, "replay")
    shutil.rmtree(out, ignore_errors=True)
    analyzer = StandardAnalyzer()
    metas = []
    base = 0
    for seg_id, path in enumerate(inp["paths"]):
        with ctx.aside("sources.read", parent):
            texts = pq.read_table(path, columns=["content"]).column(
                "content").to_pylist()
        ids = list(range(base, base + len(texts)))
        base += len(texts)
        with ctx.aside("index.invert_encode", parent) as bst:
            seg = build_segment_tables(ids, texts, analyzer)
        # analysis alone, attributed as a child of build_segment_tables
        # so that the parent's self time is inversion plus encoding
        with ctx.aside("analysis.analyze", bst):
            n_tok = [len(analyzer.analyze_with_positions(t or "")[0])
                     for t in texts]
        ctx.tokens.extend(n_tok)
        meta = {"segment_id": seg_id, "stats": seg.stats,
                "analyzer": analyzer.spec()}
        with ctx.aside("index.write", parent):
            write_segment_dir(out, seg_id, seg.postings, seg.docmeta, meta)
        metas.append(meta)
    with ctx.aside("index.commit", parent):
        commit_manifest(out, metas)


def phase(ctx: common.Ctx, inp: Dict, state: Dict, label: str) -> Dict:
    """Build + merge iterations until ``ctx.seconds`` would be exceeded
    (at least one).  Returns the per-iteration samples and checks the
    last index."""
    from lucene_solr_ray.search.searcher import Index

    iters: List[Dict] = []
    with ctx.measure() as clock:
        while True:
            out_dir = os.path.join(ctx.run_dir, f"{label}-{len(iters)}")
            it = _iteration(ctx, inp, out_dir, rid=len(iters))
            iters.append(it)
            ctx.attempted += 1
            last = sum(b - a for a, b in (it["build"], it["merge"]))
            if clock.elapsed() + 0.5 * last >= ctx.seconds:
                break
    work_s = ctx.work_s(clock.start, clock.end)
    final_dir = os.path.join(ctx.run_dir, f"{label}-{len(iters) - 1}")
    index = Index(final_dir)
    for it in iters:
        ctx.check(it["built_docs"] == inp["docs"],
                  f"build committed {it['built_docs']} docs, "
                  f"want {inp['docs']}")
    ctx.check(index.manifest["live_doc_count"] == inp["docs"],
              "merged live doc count differs from the corpus")
    results = _check_queries(ctx, index, inp["queries"])
    return {
        "iters": iters,
        "items": inp["docs"] * len(iters),
        "work_s": work_s,
        "root": clock.root,
        "index_dir": final_dir,
        "manifest": index.manifest,
        "digest": common.digest(results),
    }


def _check_queries(ctx: common.Ctx, index, queries: List[str]):
    """``Index.search`` on the built index against the exhaustive oracle."""
    from lucene_solr_ray.search.reader import SegmentReader

    got = common.table_topk(
        index.search(queries, k=common.TOP_K), len(queries))
    parser = index.make_parser()
    stats, rewritten = common.resolve(index, [parser.parse(q)
                                              for q in queries])
    readers = [SegmentReader(d, load_positions=True) for d in index.seg_dirs]
    want = common.oracle_topk(readers, rewritten, stats)
    for q, g, w in zip(queries, got, want):
        ctx.check(common.same_hits(g, w), f"ingest query {q!r} != oracle")
    return got


def report(ctx: common.Ctx, inp: Dict, res: Dict) -> None:
    build = ctx.norm([i["build"] for i in res["iters"]])
    merge = ctx.norm([i["merge"] for i in res["iters"]])
    ops_s = [b + m for b, m in zip(build, merge)]
    ctx.metric("items_per_s", res["items"] / sum(ops_s), "1/s")
    ctx.metric("latency_p50_ms", common.median(ops_s) * 1e3, "ms")
    ctx.metric("space_ratio", common.dir_bytes(res["index_dir"])
               / inp["props"]["content_bytes"], "ratio")
    ctx.details["input"] = inp["props"]
    ctx.details["iterations"] = len(res["iters"])
    ctx.details["build_s"] = [round(x, 4) for x in build]
    ctx.details["merge_s"] = [round(x, 4) for x in merge]
    ctx.details["build_merge_s_raw"] = [
        round(i["build"][1] - i["build"][0] + i["merge"][1] - i["merge"][0],
              4) for i in res["iters"]]


def layers(ctx: common.Ctx, inp: Dict, res: Dict) -> Dict[str, float]:
    """Per-layer numbers of the traced phase, per build + merge
    iteration."""
    tr = ctx.tracer
    n = len(res["iters"])
    self_t = tr.self_times()
    m = res["manifest"]
    return {
        "sources.read_s": self_t.get("sources.read", 0.0) / n,
        "analysis.analyze_s": self_t.get("analysis.analyze", 0.0) / n,
        "analysis.tokens": float(sum(ctx.tokens)) / n,
        "index.invert_encode_s": self_t.get("index.invert_encode", 0.0) / n,
        "index.write_s": self_t.get("index.write", 0.0) / n,
        "index.commit_s": self_t.get("index.commit", 0.0) / n,
        "index.build_dispatch_s": self_t.get("index.build_dispatch", 0.0) / n,
        "index.merge_s": self_t.get("index.merge", 0.0) / n,
        "index.postings_bytes": float(
            common.postings_bytes(res["index_dir"], m)),
        "index.segments": float(len(m["segments"])),
        "input.doc_tokens_p50": float(np.median(ctx.tokens))
        if ctx.tokens else 0.0,
    }
