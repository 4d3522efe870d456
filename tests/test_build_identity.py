"""Segment build identity: the columnar inversion in
``build_segment_tables`` / ``build_segment_tables_multi`` must produce
the same tables, the same parquet bytes and the same stats as the
per-token inversion it replaced, kept here as the oracle: a Python dict
codes each token, ``sorted`` orders the vocabulary, one stable argsort
of ``term * n + doc`` orders the occurrences, ``np.unique`` finds the
(term, doc) and term groups, and every term's ords, freqs, positions,
offsets and payloads are its own Python lists.  Each built segment is
also written with ``write_segment_dir`` and read back term by term
through ``SegmentReader``, which must return the oracle's (df, ttf,
ords, freqs, positions, offsets, payloads).

Covered: positions on and off, offsets, payloads
(``DelimitedPayloadAnalyzer``), ``None`` and empty texts, a stop-word-only
doc, non-ASCII text, a single-doc segment, an all-empty segment, terms
with df of exactly 127, 128 and 129 (around a 128-value encoding block),
and multi-field builds with a per-field analyzer."""

import hashlib
import io
import tempfile
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lucene_solr_ray.analysis.analyzer import (
    DelimitedPayloadAnalyzer,
    KeywordAnalyzer,
    StandardAnalyzer,
)
from lucene_solr_ray.analysis.smallfloat import int_to_byte4_np
from lucene_solr_ray.index.manifest import write_segment_dir
from lucene_solr_ray.index.segment import (
    DOCMETA_SCHEMA,
    POSTINGS_SCHEMA,
    build_segment_tables,
    build_segment_tables_multi,
    field_term,
    postings_writer,
)
from lucene_solr_ray.search.reader import SegmentReader

ANALYZER = StandardAnalyzer(stop_words={"the", "of"})
PAYLOADS = DelimitedPayloadAnalyzer(stop_words={"the"})


def _oracle(doc_ids, texts, analyzer, with_positions=True,
            with_offsets=False, with_payloads=False):
    """The per-token inversion: (postings, docmeta, stats)."""
    n = len(texts)
    shas = [hashlib.sha256((t or "").encode("utf-8")).digest()
            for t in texts]
    all_terms: List[str] = []
    doc_lens = np.zeros(n, dtype=np.int64)
    pos_parts, off_parts, pay_parts = [], [], []
    for ord_, text in enumerate(texts):
        text = "" if text is None else text
        if with_payloads:
            terms, positions, payloads, flen = \
                analyzer.analyze_with_payloads(text)
            pay_parts.append(payloads)
        elif with_offsets:
            terms, positions, starts, ends, flen = \
                analyzer.analyze_with_offsets(text)
            off_parts.append([v for se in zip(starts, ends) for v in se])
        else:
            terms, positions, flen = analyzer.analyze_with_positions(text)
        all_terms.extend(terms)
        pos_parts.append(positions)
        doc_lens[ord_] = flen
    code_map: Dict[str, int] = {}
    inv_list = []
    for t in all_terms:
        inv_list.append(code_map.setdefault(t, len(code_map)))
    vocab = list(code_map)
    vocab_order = sorted(range(len(vocab)), key=vocab.__getitem__)
    rank = np.empty(len(vocab), dtype=np.int64)
    rank[vocab_order] = np.arange(len(vocab), dtype=np.int64)
    inv = rank[np.asarray(inv_list, dtype=np.int64)]
    all_ords = np.repeat(np.arange(n, dtype=np.int64),
                         [len(p) for p in pos_parts])
    norm_bytes = int_to_byte4_np(doc_lens)
    if all_terms:
        order = np.argsort(inv * n + all_ords, kind="stable")
        gkeys, _, gcounts = np.unique(
            (inv * n + all_ords)[order], return_index=True,
            return_counts=True)
        g_term, g_ord = gkeys // n, gkeys % n
        t_codes, t_starts, t_counts = np.unique(
            g_term, return_index=True, return_counts=True)
        terms_sorted = [vocab[vocab_order[c]] for c in t_codes]
        df = t_counts.astype(np.int32)
        edges = np.concatenate([[0], np.cumsum(gcounts)])[
            np.concatenate([[0], np.cumsum(t_counts)])]
        ttf = np.diff(edges).astype(np.int64)
        ords = [g_ord[s:s + c].tolist() for s, c in zip(t_starts, t_counts)]
        freqs = [gcounts[s:s + c].tolist()
                 for s, c in zip(t_starts, t_counts)]

        def per_term(values):
            return [values[edges[i]:edges[i + 1]].ravel().tolist()
                    for i in range(len(t_codes))]

        nulls = [None] * len(t_codes)
        positions = offsets = payloads = nulls
        if with_positions:
            flat = np.concatenate(
                [np.asarray(p, np.int64) for p in pos_parts])
            positions = per_term(flat[order])
        if with_offsets:
            pairs = np.concatenate(
                [np.asarray(p, np.int64).reshape(-1, 2) for p in off_parts])
            offsets = per_term(pairs[order])
        if with_payloads:
            flat = np.concatenate(
                [np.asarray(p, np.float64) for p in pay_parts])
            payloads = per_term(flat[order].astype(np.float32))
    else:
        terms_sorted, ords, freqs = [], [], []
        df = np.empty(0, np.int32)
        ttf = np.empty(0, np.int64)
        positions = offsets = payloads = []
    lists = {"ords": ords, "freqs": freqs, "positions": positions,
             "offsets": offsets, "payloads": payloads}
    postings = pa.table({
        "term": pa.array(terms_sorted, pa.string()),
        "df": pa.array(df), "ttf": pa.array(ttf),
        **{name: pa.array(v, POSTINGS_SCHEMA.field(name).type)
           for name, v in lists.items()},
    }, schema=POSTINGS_SCHEMA)
    docmeta = pa.table({
        "doc_id": pa.array(np.asarray(doc_ids, dtype=np.int64)),
        "norm": pa.array(norm_bytes),
        "field_len": pa.array(doc_lens.astype(np.int32)),
        "content_sha256": pa.array(shas, pa.binary()),
    }, schema=DOCMETA_SCHEMA)
    stats = {
        "doc_count": n,
        "sum_total_term_freq": int(ttf.sum()),
        "sum_doc_freq": int(df.sum()),
        "term_count": len(terms_sorted),
    }
    return postings, docmeta, stats


def _oracle_multi(doc_ids, field_texts, default_field, analyzer,
                  field_analyzers):
    segs = {f: _oracle(doc_ids, texts, field_analyzers.get(f, analyzer))
            for f, texts in field_texts.items()}
    tables = []
    for f, (t, _, _) in segs.items():
        if f != default_field:
            t = t.set_column(0, "term", pa.array(
                [field_term(f, x) for x in t.column("term").to_pylist()],
                pa.string()))
        tables.append(t)
    postings = pa.concat_tables(tables)
    postings = postings.take(pc.sort_indices(postings["term"]))
    docmeta = segs[default_field][1]
    stats = dict(segs[default_field][2])
    stats["fields"] = {}
    for f, (_, dm, st_) in segs.items():
        flens = dm.column("field_len").to_numpy()
        stats["fields"][f] = {
            "doc_count": int((flens > 0).sum()),
            "sum_total_term_freq": st_["sum_total_term_freq"],
        }
        if f != default_field:
            docmeta = docmeta.append_column(
                f"norm__{f}", dm.column("norm")).append_column(
                f"field_len__{f}", dm.column("field_len"))
    stats["term_count"] = postings.num_rows
    stats["sum_doc_freq"] = int(postings.column("df").to_numpy().sum()) \
        if postings.num_rows else 0
    return postings, docmeta, stats


def _parquet(table: pa.Table) -> bytes:
    buf = io.BytesIO()
    if table.schema.equals(POSTINGS_SCHEMA):
        with postings_writer(buf) as writer:
            writer.write_table(table)
    else:
        pq.write_table(table, buf, compression="zstd")
    return buf.getvalue()


def _assert_read_back(seg, postings):
    """Every oracle term read through ``SegmentReader`` from the written
    segment."""
    with tempfile.TemporaryDirectory() as out:
        seg_dir = write_segment_dir(out, 0, seg.postings, seg.docmeta,
                                    {"segment_id": 0, "stats": seg.stats})
        r = SegmentReader(seg_dir)
        for row in postings.to_pylist():
            term = row["term"]
            assert r.term_stats(term) == (row["df"], row["ttf"])
            ords, freqs = r.postings(term)
            assert (ords.tolist(), freqs.tolist()) == \
                (row["ords"], row["freqs"])
            assert r.positions(term)[1].flat.tolist() == \
                (row["positions"] or [])
            if row["offsets"] is not None:
                assert r.offsets(term)[1].flat.ravel().tolist() == \
                    row["offsets"]
            pay = r.payloads(term)
            assert (pay and pay[1].flat.tolist()) == row["payloads"]


def _assert_same(seg, want):
    postings, docmeta, stats = want
    assert seg.postings.schema == postings.schema
    assert seg.postings.equals(postings)
    assert seg.docmeta.equals(docmeta)
    assert seg.stats == stats
    assert _parquet(seg.postings) == _parquet(postings)
    assert _parquet(seg.docmeta) == _parquet(docmeta)
    _assert_read_back(seg, postings)


WORDS = ["alpha", "beta", "the", "of", "zeta", "Äpfel", "naïve", "日本",
         "x1", "b"]
docs = st.lists(
    st.one_of(
        st.none(),
        st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join),
    ),
    min_size=1, max_size=20,
)


@settings(max_examples=60, deadline=None)
@given(docs, st.sampled_from(["none", "positions", "offsets"]))
@example([None], "positions")
@example([""], "offsets")
@example(["the of the"], "positions")
@example(["Äpfel naïve 日本 alpha"], "offsets")
def test_build_matches_per_token_inversion(texts, mode):
    ids = [1000 + 7 * i for i in range(len(texts))]
    kw = {"with_positions": mode != "none",
          "with_offsets": mode == "offsets"}
    _assert_same(build_segment_tables(ids, texts, ANALYZER, **kw),
                 _oracle(ids, texts, ANALYZER, **kw))


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.lists(st.sampled_from(["w|1.5", "v|-2", "the|9", "u", "x|bad",
                              "ünï|0.1"]), max_size=8).map(" ".join),
    min_size=1, max_size=12))
def test_build_payloads_match_per_token_inversion(texts):
    ids = list(range(len(texts)))
    _assert_same(
        build_segment_tables(ids, texts, PAYLOADS, with_payloads=True),
        _oracle(ids, texts, PAYLOADS, with_payloads=True))


def test_build_block_boundaries_and_edge_docs():
    """df of exactly 127, 128 (one full 128-value block) and 129 (a second
    block of one), next to a stop-word-only doc, None, empty and
    non-ASCII texts."""
    texts = []
    for i in range(260):
        words = ["both"]
        if i < 128:
            words += ["full", "over"]  # "over" is in the last doc too
        if i < 127:
            words.append("under")
        if i % 2 == 0:
            words.append("spill")
        texts.append(" ".join(words * (1 + i % 3)))
    texts += [None, "", "the of the", "Ünïcödé straße 東京 over"]
    ids = list(range(len(texts)))
    seg = build_segment_tables(ids, texts, ANALYZER)
    df = dict(zip(seg.postings["term"].to_pylist(),
                  seg.postings["df"].to_pylist()))
    assert (df["under"], df["full"], df["over"], df["spill"],
            df["both"]) == (127, 128, 129, 130, 260)
    _assert_same(seg, _oracle(ids, texts, ANALYZER))


def test_build_single_doc_and_empty_segments():
    for texts in (["one lonely doc doc"], ["naïve 日本"], [None],
                  [None, ""]):
        ids = [42 + i for i in range(len(texts))]
        for kw in ({}, {"with_positions": False}, {"with_offsets": True}):
            _assert_same(build_segment_tables(ids, texts, ANALYZER, **kw),
                         _oracle(ids, texts, ANALYZER, **kw))


@settings(max_examples=30, deadline=None)
@given(docs, docs)
def test_build_multi_matches_per_token_inversion(body, title):
    m = min(len(body), len(title))
    body, title = body[:m], title[:m]
    ids = list(range(m))
    fields = {"body": body, "title": title, "tag": title}
    per_field = {"tag": KeywordAnalyzer()}
    seg = build_segment_tables_multi(ids, fields, "body", ANALYZER,
                                     field_analyzers=per_field)
    _assert_same(seg, _oracle_multi(ids, fields, "body", ANALYZER,
                                    per_field))
