"""Payload postings + PayloadScoreQuery — reference contract per
``analysis/payloads/DelimitedPayloadTokenFilter.java`` (FloatEncoder) and
``queries/payloads/PayloadScoreQuery.java`` with Min/Max/Avg/Sum payload
functions; merge/compaction carry payload lists like positions."""

import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.analysis.analyzer import (
    DelimitedPayloadAnalyzer,
    analyzer_from_spec,
)
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.deletes import delete_doc_ids
from lucene_solr_ray.index.manifest import commit_manifest, read_latest_manifest
from lucene_solr_ray.index.merge import merge_segments
from lucene_solr_ray.search.query import (
    PayloadScoreQuery,
    SpanNearQuery,
    SpanTermQuery,
)
from lucene_solr_ray.search.searcher import Index

WORDS = ["merge", "sort", "window", "batch", "key", "fast", "slow", "scan"]


def test_delimited_payload_analyzer_parsing():
    a = DelimitedPayloadAnalyzer()
    terms, positions, payloads, flen = a.analyze_with_payloads(
        "Merge|1.5 plain sort|bad x|2"
    )
    assert terms == ["merge", "plain", "sort", "x"]
    assert positions == [0, 1, 2, 3]
    assert payloads == [1.5, 0.0, 0.0, 2.0]
    assert flen == 4
    # stop words drop after the payload strip, leaving a position gap
    a2 = DelimitedPayloadAnalyzer(stop_words=("the",))
    t2, p2, pay2, _ = a2.analyze_with_payloads("the|9 merge|1 the sort|2")
    assert t2 == ["merge", "sort"] and p2 == [1, 3] and pay2 == [1.0, 2.0]
    # spec round-trips through the manifest
    back = analyzer_from_spec(a2.spec())
    assert isinstance(back, DelimitedPayloadAnalyzer)
    assert back.stop_words == a2.stop_words


def _mk_corpus(tmp_path, n=80, seed=5):
    rng = random.Random(seed)
    texts, plain = [], []
    for _ in range(n):
        toks = [rng.choice(WORDS) for _ in range(rng.randint(3, 10))]
        pays = [round(rng.uniform(0.5, 8.0), 2) for _ in toks]
        texts.append(" ".join(f"{t}|{p}" for t, p in zip(toks, pays)))
        plain.append((toks, pays))
    p = str(tmp_path / "corpus.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(texts)}),
        p,
    )
    return p, plain


@pytest.fixture()
def built(ray_session, tmp_path):
    corpus, plain = _mk_corpus(tmp_path)
    out = str(tmp_path / "idx")
    build_index(corpus, out, text_col="text", id_col="doc_id",
                analyzer=DelimitedPayloadAnalyzer(), with_payloads=True,
                docs_per_segment=20)
    return out, plain


def _expected_term(plain, term, func):
    out = {}
    for d, (toks, pays) in enumerate(plain):
        vals = [p for t, p in zip(toks, pays) if t == term]
        if not vals:
            continue
        arr = np.asarray(vals, dtype=np.float64)
        out[d] = {"min": arr.min(), "max": arr.max(),
                  "sum": arr.sum(), "avg": arr.mean()}[func]
    return out


@pytest.mark.parametrize("func", ["min", "max", "avg", "sum"])
def test_payload_functions_match_bruteforce(built, func):
    out, plain = built
    idx = Index(out)
    t = idx.search_parsed(
        [(0, PayloadScoreQuery(SpanTermQuery("merge"), func=func), 1000)]
    )
    got = {int(r["doc_id"]): float(r["score"]) for r in t.to_pylist()}
    exp = _expected_term(plain, "merge", func)
    assert set(got) == set(exp)
    for d in exp:
        assert got[d] == pytest.approx(exp[d], rel=1e-6)


def test_include_span_score_multiplies(built):
    out, plain = built
    idx = Index(out)
    base = idx.search_parsed([(0, SpanTermQuery("sort"), 1000)])
    pay = idx.search_parsed(
        [(0, PayloadScoreQuery(SpanTermQuery("sort"), func="max"), 1000)]
    )
    both = idx.search_parsed(
        [(0, PayloadScoreQuery(SpanTermQuery("sort"), func="max",
                               include_span_score=True), 1000)]
    )
    b = {int(r["doc_id"]): float(r["score"]) for r in base.to_pylist()}
    p = {int(r["doc_id"]): float(r["score"]) for r in pay.to_pylist()}
    g = {int(r["doc_id"]): float(r["score"]) for r in both.to_pylist()}
    assert set(g) == set(b) == set(p)
    for d in g:
        assert g[d] == pytest.approx(b[d] * p[d], rel=1e-5)


def test_span_near_payload_collection(built):
    out, plain = built
    idx = Index(out)
    q = PayloadScoreQuery(
        SpanNearQuery(("merge", "sort"), slop=0), func="sum"
    )
    t = idx.search_parsed([(0, q, 1000)])
    got = {int(r["doc_id"]): float(r["score"]) for r in t.to_pylist()}
    # brute force: payloads of merge/sort occurrences inside any adjacent
    # [merge, sort] window (the engine's documented interval collection)
    exp = {}
    for d, (toks, pays) in enumerate(plain):
        spans = [
            (i, i + 2) for i in range(len(toks) - 1)
            if toks[i] == "merge" and toks[i + 1] == "sort"
        ]
        if not spans:
            continue
        vals = [
            p for i, (t_, p) in enumerate(zip(toks, pays))
            if t_ in ("merge", "sort")
            and any(s <= i < e for s, e in spans)
        ]
        exp[d] = float(np.asarray(vals, dtype=np.float64).sum())
    assert set(got) == set(exp)
    for d in exp:
        assert got[d] == pytest.approx(exp[d], rel=1e-6)


def test_merge_and_deletes_preserve_payloads(built):
    out, plain = built
    q = [(0, PayloadScoreQuery(SpanTermQuery("merge"), func="avg"), 1000)]
    before = Index(out).search_parsed(q)
    deleted = [3, 11, 40]
    delete_doc_ids(out, deleted)
    m = read_latest_manifest(out)
    ids = [s["segment_id"] for s in m["segments"]]
    meta = merge_segments(out, ids, max(ids) + 1)
    commit_manifest(out, [meta])
    idx = Index(out)
    assert len(idx.seg_dirs) == 1
    after = idx.search_parsed(q)
    b = {int(r["doc_id"]): float(r["score"]) for r in before.to_pylist()}
    a = {int(r["doc_id"]): float(r["score"]) for r in after.to_pylist()}
    assert set(a) == set(b) - set(deleted)
    for d in a:
        assert a[d] == pytest.approx(b[d], rel=1e-6)


def test_payloads_require_capable_analyzer(ray_session, tmp_path):
    corpus, _ = _mk_corpus(tmp_path, n=10)
    with pytest.raises(Exception, match="payload"):
        build_index(corpus, str(tmp_path / "x"), text_col="text",
                    id_col="doc_id", with_payloads=True)
