"""``churn``: writes beside reads, starting from a 10k-doc index.

Each round adds a batch of new docs with ``add_documents``, updates a
batch of existing ones with ``update_documents``, then runs one
``Index.search`` batch of the 16 code-query shapes; ``merge_once`` runs
every second round and merges whenever the default policy finds work.
Per-round cost grows with the segment count until a merge lands, so a run
covers whole rounds and reports the merges it saw.

This uses the search layer differently from ``serve``: readers are cold
on every call, tombstoned segments force exhaustive scoring, and every
call pays Ray Data dispatch.  The traced phase replays the search call's
parse, ``Index.collect_stats``, ``SegmentReader`` loads and
``topk_segment`` calls in this process; the rest is batch dispatch.
Commits are replayed with ``commit_manifest`` into a throwaway directory.

Each round's first query is checked against the oracle after the phase, on
a copy of the index taken right after that round's search, so that the
oracle's readers do not count in the measured memory peak.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List

import numpy as np

from perfbench import common, gen

BASE_DOCS = 10_000
DOCS_PER_SEGMENT = 2_500
ADD_BATCH = 200
UPDATE_BATCH = 100
MERGE_EVERY = 2
MAX_ROUNDS = 60
#: every phase runs at least this many rounds, and the metrics and the
#: digest cover just these, so the measured work does not depend on how
#: many more rounds the host's speed left time for
R_MIN = 4


def inputs(ctx: common.Ctx) -> Dict:
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    n = ctx.size(BASE_DOCS, floor=200)
    per = ctx.size(DOCS_PER_SEGMENT, floor=50)
    add, upd = ctx.size(ADD_BATCH, floor=10), ctx.size(UPDATE_BATCH, floor=5)
    paths = gen.corpus_files(ctx.cache, ctx.seed, n, per)
    ops = gen.churn_ops(ctx.seed, n, MAX_ROUNDS, add, upd)
    # content bytes by doc id, for the end-state space ratio
    base_len = np.concatenate([
        pc.binary_length(pq.read_table(p, columns=["content"])
                         .column("content")).to_numpy(zero_copy_only=False)
        for p in paths])
    props = gen.describe_corpus(paths)
    props.update(add_batch=add, update_batch=upd, merge_every=MERGE_EVERY)
    return {"paths": paths, "per": per, "docs": n, "ops": ops,
            "base_len": base_len, "props": props,
            "base_dir": os.path.join(ctx.run_dir, "base")}


def setup(ctx: common.Ctx, inp: Dict, first: bool) -> Dict:
    """The starting index is built once, untimed; each phase copies it."""
    from lucene_solr_ray.index.build import build_index

    if first:
        build_index(inp["paths"], inp["base_dir"],
                    docs_per_segment=inp["per"])
    return {}


def teardown(state: Dict) -> None:
    pass


def _replay_commit(ctx: common.Ctx, manifest: Dict, parent) -> None:
    from lucene_solr_ray.index.manifest import commit_manifest

    out = os.path.join(ctx.run_dir, "replay-commit")
    with ctx.aside("index.commit", parent):
        commit_manifest(out, [dict(s) for s in manifest["segments"]])


def _replay_search(ctx: common.Ctx, index, queries: List[str], parent):
    """What one ``Index.search`` call computed, re-run in this process."""
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.scorer import topk_segment

    with ctx.aside("search.parse", parent):
        parser = index.make_parser()
        parsed = [parser.parse(q) for q in queries]
    with ctx.aside("search.stats", parent):
        stats, rewritten = common.resolve(index, parsed)
    for d in index.seg_dirs:
        with ctx.aside("search.reader_load", parent):
            r = SegmentReader(d, load_positions=True)
        with ctx.aside("search.score", parent):
            for q in rewritten:
                topk_segment(r, q, stats, common.TOP_K)


def _check_first(ctx: common.Ctx, index_dir: str, q: str, got) -> None:
    """The round's first query against the oracle over live docs."""
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.searcher import Index

    index = Index(index_dir)
    stats, rewritten = common.resolve(index, [index.make_parser().parse(q)])
    readers = [SegmentReader(d, load_positions=True) for d in index.seg_dirs]
    want = common.oracle_topk(readers, rewritten, stats)[0]
    ctx.check(common.same_hits(got, want), f"churn query {q!r} != oracle")


def _snapshot(index_dir: str, out: str) -> None:
    """Copy the manifests and the segments the latest one names."""
    from lucene_solr_ray.index.manifest import segment_dir_name
    from lucene_solr_ray.search.searcher import Index

    m = Index(index_dir).manifest
    os.makedirs(out)
    for name in os.listdir(index_dir):
        if name.startswith("manifest-"):
            shutil.copy2(os.path.join(index_dir, name), out)
    for seg in m["segments"]:
        sub = segment_dir_name(seg["segment_id"])
        shutil.copytree(os.path.join(index_dir, sub), os.path.join(out, sub))


def phase(ctx: common.Ctx, inp: Dict, state: Dict, label: str) -> Dict:
    from lucene_solr_ray.index.deletes import add_documents, update_documents
    from lucene_solr_ray.index.merge import merge_once
    from lucene_solr_ray.search.searcher import Index

    d = os.path.join(ctx.run_dir, f"churn-{label}")
    shutil.rmtree(d, ignore_errors=True)
    shutil.copytree(inp["base_dir"], d)
    content_len = dict(enumerate(inp["base_len"].tolist()))
    live = len(content_len)
    tr = ctx.tracer
    add_s: List = []
    upd_s: List = []
    search_s: List = []
    merges: List = []
    kept: List = []
    firsts: List = []
    items = 0
    rounds = 0
    measured_end = 0.0
    measured_items = 0

    def check_live(what: str) -> None:
        with ctx.aside("check"):
            got = Index(d).manifest["live_doc_count"]
            ctx.check(got == live, f"{what}: live docs {got}, ledger {live}")

    with ctx.measure() as clock:
        for r, op in enumerate(inp["ops"]):
            with tr.span("index.add", rid=r) as sp:
                t0 = time.perf_counter()
                m = add_documents(d, op["add_ids"], op["add_texts"])
                add_s.append((t0, time.perf_counter()))
            if sp is not None:
                _replay_commit(ctx, m, sp)
            live += len(op["add_ids"])
            check_live(f"round {r} add")
            with tr.span("index.update", rid=r) as sp:
                t0 = time.perf_counter()
                m = update_documents(d, op["update_ids"], op["update_texts"])
                upd_s.append((t0, time.perf_counter()))
            if sp is not None:
                _replay_commit(ctx, m, sp)
            check_live(f"round {r} update")
            for i, t in zip(op["add_ids"] + op["update_ids"],
                            op["add_texts"] + op["update_texts"]):
                content_len[i] = len(t.encode())
            items += len(op["add_ids"]) + len(op["update_ids"])
            ctx.attempted += 2
            # rotate the batch so each round checks a different first query
            k = r % len(common.CODE_QUERIES)
            batch = common.CODE_QUERIES[k:] + common.CODE_QUERIES[:k]
            with tr.span("search.batch_dispatch", rid=r) as sp:
                t0 = time.perf_counter()
                index = Index(d)
                res = index.search(batch, k=common.TOP_K)
                search_s.append((t0, time.perf_counter()))
            ctx.attempted += 1
            got = common.table_topk(res, len(batch))
            if r < R_MIN:
                kept.extend(got)
            if sp is not None:
                _replay_search(ctx, index, batch, sp)
            with ctx.aside("check"):
                snap = os.path.join(ctx.run_dir, f"snap-{label}-{r}")
                _snapshot(d, snap)
                firsts.append((snap, batch[0], got[0]))
            if r % MERGE_EVERY == MERGE_EVERY - 1:
                with tr.span("index.merge", rid=r):
                    t0 = time.perf_counter()
                    n = merge_once(d)
                    t1 = time.perf_counter()
                ctx.attempted += 1
                if n:
                    merges.append((t0, t1))
                    check_live(f"round {r} merge")
            ctx.rss.sample()
            rounds = r + 1
            if rounds == R_MIN:
                measured_end = time.perf_counter()
                measured_items = items
            if rounds >= R_MIN and clock.elapsed() >= ctx.seconds:
                break
    work_s = ctx.work_s(clock.start, measured_end)
    for snap, q, got in firsts:
        _check_first(ctx, snap, q, got)
        shutil.rmtree(snap, ignore_errors=True)
    index = Index(d)
    return {
        "rounds": rounds, "items": measured_items,
        "work_s": work_s,
        "root": clock.root, "add_s": add_s[:R_MIN], "upd_s": upd_s[:R_MIN],
        "search_s": search_s[:R_MIN], "merges": merges, "index_dir": d,
        "manifest": index.manifest,
        "live_bytes": sum(content_len.values()),
        "digest": common.digest(kept),
    }


def report(ctx: common.Ctx, inp: Dict, res: Dict) -> None:
    ctx.metric("items_per_s", res["items"] / res["work_s"], "1/s")
    ctx.metric("latency_p50_ms",
               common.median([x * 1e3 for x in ctx.norm(res["search_s"])]),
               "ms")
    ctx.metric("space_ratio",
               common.dir_bytes(res["index_dir"]) / res["live_bytes"],
               "ratio")
    ctx.details["input"] = inp["props"]
    ctx.details["rounds"] = res["rounds"]
    ctx.details["merges"] = len(res["merges"])
    ctx.details["queries_per_s"] = (
        len(common.CODE_QUERIES) * len(res["search_s"]) / res["work_s"])
    ctx.details["commit_p50_ms"] = common.median(
        [x * 1e3 for x in ctx.norm(res["add_s"] + res["upd_s"])])
    ctx.details["search_p50_ms_raw"] = common.median(
        [(b - a) * 1e3 for a, b in res["search_s"]])
    ctx.details["end_segments"] = len(res["manifest"]["segments"])


def layers(ctx: common.Ctx, inp: Dict, res: Dict) -> Dict[str, float]:
    tr = ctx.tracer
    tot = tr.totals()
    cnt = tr.counts()
    self_t = tr.self_times()
    calls = res["rounds"]
    nq = calls * len(common.CODE_QUERIES)

    def mean_ms(name: str, base: int, table=tot) -> float:
        return table.get(name, 0.0) * 1e3 / base if base else 0.0

    m = res["manifest"]
    return {
        "index.add_ms": mean_ms("index.add", cnt.get("index.add", 0)),
        "index.update_ms": mean_ms("index.update", cnt.get("index.update", 0)),
        "index.commit_s": tot.get("index.commit", 0.0)
        / max(cnt.get("index.commit", 0), 1),
        "index.merge_s": sum(ctx.norm(res["merges"]))
        / max(len(res["merges"]), 1),
        "index.postings_bytes": float(
            common.postings_bytes(res["index_dir"], m)),
        "index.segments": float(len(m["segments"])),
        "search.parse_ms": mean_ms("search.parse", nq),
        "search.stats_ms": mean_ms("search.stats", calls),
        "search.reader_load_ms": mean_ms(
            "search.reader_load", cnt.get("search.reader_load", 0)),
        "search.score_ms": mean_ms("search.score", nq),
        "search.batch_dispatch_ms": mean_ms("search.batch_dispatch", calls,
                                            self_t),
    }
