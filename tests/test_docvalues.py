"""In-place numeric DocValues updates — reference contract per
``IndexWriter.updateNumericDocValue`` (IndexWriter.java:1683) +
``DocValuesFieldUpdates``: sidecar overlays, last-write-wins generations,
no updates to deleted docs, merge bakes values in and drops sidecars."""

import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.deletes import delete_doc_ids
from lucene_solr_ray.index.docvalues import (
    dvu_fields,
    segment_dv_overlay,
    update_numeric_docvalue,
    update_numeric_docvalues_by_id,
)
from lucene_solr_ray.index.manifest import commit_manifest, read_latest_manifest
from lucene_solr_ray.index.merge import merge_segments
from lucene_solr_ray.search.query import (
    ExpressionScoreQuery,
    FunctionScoreQuery,
    TermQuery,
)
from lucene_solr_ray.search.reader import SegmentReader
from lucene_solr_ray.search.searcher import (
    Index,
    export_sorted,
    search_by_field,
)

WORDS = ["merge", "sort", "window", "batch", "key", "fast", "slow", "scan"]


def _mk_corpus(tmp_path, n=120, seed=3):
    rng = random.Random(seed)
    texts = [
        " ".join(rng.choice(WORDS) for _ in range(rng.randint(3, 12)))
        for _ in range(n)
    ]
    prio = [rng.randint(0, 500) for _ in range(n)]
    p = str(tmp_path / "corpus.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(texts),
                  "prio": pa.array(prio, pa.int64())}),
        p,
    )
    return p, texts, prio


@pytest.fixture()
def built(ray_session, tmp_path):
    corpus, texts, prio = _mk_corpus(tmp_path)
    out = str(tmp_path / "idx")
    build_index(corpus, out, text_col="text", id_col="doc_id",
                stored_cols=["prio"], docs_per_segment=30)
    return out, texts, prio


def _expected(texts, vals, term, k):
    """Brute-force (doc_id, value) ranking for docs containing ``term``."""
    hits = [(i, vals[i]) for i, t in enumerate(texts) if term in t.split()]
    hits.sort(key=lambda x: (-x[1], x[0]))
    return hits[:k]


def test_update_by_term_sort_reads_overlay(built):
    out, texts, prio = built
    update_numeric_docvalue(out, "merge", "prio", 7)
    vals = [7 if "merge" in t.split() else p for t, p in zip(texts, prio)]
    got = search_by_field(Index(out), {0: "batch"}, "prio",
                          descending=True, k=15).to_pandas()
    exp = _expected(texts, vals, "batch", 15)
    assert list(got.doc_id) == [d for d, _ in exp]
    assert [int(v) for v in got.sort_value] == [v for _, v in exp]


def test_last_write_wins_and_generations(built):
    out, texts, prio = built
    update_numeric_docvalue(out, "merge", "prio", 7)
    update_numeric_docvalue(out, "sort", "prio", 9000)
    vals = [
        9000 if "sort" in t.split()
        else (7 if "merge" in t.split() else p)
        for t, p in zip(texts, prio)
    ]
    idx = Index(out)
    for d in idx.seg_dirs:
        reader = SegmentReader(d)
        got = reader.values("prio")
        assert "prio" in reader.updated_fields
        np.testing.assert_array_equal(
            got, np.asarray([vals[i] for i in reader.doc_ids])
        )
        # two updates touched this segment iff both terms occur in it;
        # generation is monotone and recorded in the manifest
        assert dvu_fields(d).get("prio", 0) >= 1
    m = read_latest_manifest(out)
    assert any(s.get("dv_gens", {}).get("prio") for s in m["segments"])


def test_update_by_id_values(built):
    out, texts, prio = built
    upd = {i: i * 3 + 1 for i in range(0, 120, 7)}
    update_numeric_docvalues_by_id(out, "prio", upd)
    idx = Index(out)
    for d in idx.seg_dirs:
        reader = SegmentReader(d)
        exp = [upd.get(int(i), prio[int(i)]) for i in reader.doc_ids]
        np.testing.assert_array_equal(reader.values("prio"), exp)


def test_deleted_docs_not_updated(built):
    out, texts, prio = built
    delete_doc_ids(out, [5, 6, 7])
    update_numeric_docvalues_by_id(out, "prio", {5: 1, 6: 1, 50: 42})
    idx = Index(out)
    touched = set()
    for d in idx.seg_dirs:
        ov = segment_dv_overlay(d, "prio")
        if ov is None:
            continue
        ids = pq.read_table(
            os.path.join(d, "docmeta.parquet"), columns=["doc_id"]
        ).column("doc_id").to_numpy()
        touched.update(int(ids[o]) for o in ov[0])
    assert touched == {50}


def test_merge_bakes_overlays_and_drops_sidecars(built):
    out, texts, prio = built
    update_numeric_docvalue(out, "merge", "prio", 7)
    update_numeric_docvalue(out, "sort", "prio", 9000)
    before = search_by_field(Index(out), {0: "batch"}, "prio",
                             descending=True, k=15)
    m = read_latest_manifest(out)
    ids = [s["segment_id"] for s in m["segments"]]
    meta = merge_segments(out, ids, max(ids) + 1)
    commit_manifest(out, [meta])
    idx = Index(out)
    assert len(idx.seg_dirs) == 1
    assert dvu_fields(idx.seg_dirs[0]) == {}  # baked in, no sidecars
    assert not SegmentReader(idx.seg_dirs[0]).updated_fields
    after = search_by_field(idx, {0: "batch"}, "prio",
                            descending=True, k=15)
    assert before.equals(after)


def test_overlay_disables_index_sort_early_exit(ray_session, tmp_path):
    corpus, texts, prio = _mk_corpus(tmp_path, seed=9)
    out = str(tmp_path / "isort")
    build_index(corpus, out, text_col="text", id_col="doc_id",
                stored_cols=["prio"], docs_per_segment=30,
                index_sort=("prio", True))
    # rewrite values so physical order no longer matches value order
    update_numeric_docvalue(out, "window", "prio", 10_000)
    vals = [10_000 if "window" in t.split() else p
            for t, p in zip(texts, prio)]
    got = search_by_field(Index(out), {0: "batch"}, "prio",
                          descending=True, k=10).to_pandas()
    exp = _expected(texts, vals, "batch", 10)
    assert list(got.doc_id) == [d for d, _ in exp]
    assert [int(v) for v in got.sort_value] == [v for _, v in exp]


def _merge_hits(texts):
    return sum("merge" in t.split() for t in texts)


def test_function_score_reads_overlay(built):
    """FunctionScoreQuery reads its value column through the doc-values
    overlay: ``replace`` scores every updated doc with the new value."""
    out, texts, _ = built
    update_numeric_docvalue(out, "merge", "prio", 7)
    q = FunctionScoreQuery(TermQuery("merge"), "prio", "replace")
    got = Index(out).search_parsed([(0, q, 200)])
    assert got.num_rows == _merge_hits(texts)
    assert set(got.column("score").to_pylist()) == {7.0}


def test_expression_score_same_alone_and_in_batch(built):
    """An expression over a stored column scores the same alone and after
    a FunctionScoreQuery over that column in one batch: both read the
    reader's overlaid values."""
    import pyarrow.compute as pc

    out, texts, _ = built
    update_numeric_docvalue(out, "merge", "prio", 7)
    idx = Index(out)
    ex = ExpressionScoreQuery(TermQuery("merge"), "prio", ())
    fs = FunctionScoreQuery(TermQuery("merge"), "prio", "multiply")
    alone = idx.search_parsed([(1, ex, 200)])
    batch = idx.search_parsed([(0, fs, 200), (1, ex, 200)])
    batch = batch.filter(pc.equal(batch.column("qid"), 1))
    assert alone.num_rows == _merge_hits(texts)
    assert set(alone.column("score").to_pylist()) == {7.0}
    assert batch.equals(alone)


def test_export_reads_overlay(built, tmp_path):
    """The export handler writes the overlaid value of each hit."""
    out, texts, _ = built
    update_numeric_docvalue(out, "merge", "prio", 7)
    d = str(tmp_path / "export")
    n = export_sorted(Index(out), "merge", "prio", d, descending=True)
    assert n == _merge_hits(texts)
    assert set(pq.read_table(d).column("prio").to_pylist()) == {7}


def test_dv_pass_reads_each_overlay_once(built, monkeypatch):
    """A doc-values write pass merges into the overlay its reader loaded
    at open: each updated segment reads ``dvu-prio`` once per pass."""
    from collections import Counter
    from functools import partial

    from lucene_solr_ray.index import docvalues, sidecars

    out, texts, prio = built
    update_numeric_docvalues_by_id(out, "prio", {0: 1, 40: 2, 70: 3})
    seg_dirs = Index(out).seg_dirs
    updated = [d for d in seg_dirs if SegmentReader(d).updated_fields]
    assert len(updated) == 3
    ids = np.array([1, 41, 71, 100], dtype=np.int64)
    reads = Counter()
    real = sidecars.read

    def spy(seg_dir, kind, gen):
        reads[(seg_dir, kind)] += 1
        return real(seg_dir, kind, gen)

    monkeypatch.setattr(sidecars, "read", spy)
    rows = partial(docvalues._collect_dv_updates, field="prio", ids=ids,
                   id_values=ids * 10)(
        (SegmentReader(d), o) for o, d in enumerate(seg_dirs))
    assert all(r["gen"] > 0 for r in rows.to_pylist())
    assert {d: n for (d, kind), n in reads.items()
            if kind == "dvu-prio"} == {d: 1 for d in updated}


@pytest.mark.parametrize("write", ["delete", "soft_delete", "dv_update"])
def test_orphan_sidecar_in_untouched_segment_stays_invisible(built, write):
    """A write pass that matches nothing in a segment must not commit that
    segment's orphan next-generation sidecar (a crashed earlier write)."""
    from lucene_solr_ray.index.softdeletes import soft_delete_doc_ids

    out, texts, prio = built
    seg1 = Index(out).seg_dirs[1]
    orphan = {
        "delete": ("deletes-1.parquet", {}),
        "soft_delete": ("softdel-1.parquet", {}),
        "dv_update": ("dvu-prio-1.parquet",
                      {"value": pa.array([-777], pa.int64())}),
    }[write]
    pq.write_table(
        pa.table({"ord": pa.array([3], pa.int32()), **orphan[1]}),
        os.path.join(seg1, orphan[0]),
    )

    def seg1_state():
        entry = read_latest_manifest(out)["segments"][1]
        r = SegmentReader(seg1, respect_soft_deletes=True)
        return (
            {k: int(entry.get(k, 0)) for k in ("del_gen", "soft_del_gen")},
            dict(entry.get("dv_gens") or {}),
            r.deleted_ords.tolist(),
            r.values("prio").tolist(),
        )

    before = seg1_state()
    {  # doc 0 lives in segment 0
        "delete": lambda: delete_doc_ids(out, [0]),
        "soft_delete": lambda: soft_delete_doc_ids(out, [0]),
        "dv_update": lambda: update_numeric_docvalues_by_id(
            out, "prio", {0: 100}),
    }[write]()
    assert seg1_state() == before


def test_check_segment_validates_dv_overlays(tmp_path):
    """CheckIndex validates each doc-values overlay at its visible
    generation: ords strictly ascending and in range, and an aligned
    ``value`` column."""
    from lucene_solr_ray.index import sidecars
    from lucene_solr_ray.index.check import check_segment
    from lucene_solr_ray.index.manifest import write_segment_dir
    from lucene_solr_ray.index.segment import build_segment_tables

    seg = build_segment_tables([0, 1, 2], ["merge sort", "fast", "slow"])
    d = write_segment_dir(str(tmp_path), 0, seg.postings, seg.docmeta,
                          {"segment_id": 0, "stats": seg.stats})
    assert check_segment(d)["ok"]

    def errors(table, gen):
        pq.write_table(table, os.path.join(
            d, sidecars.file_name(sidecars.dvu("prio"), gen)))
        return check_segment(d)["errors"]

    sidecars.write(d, sidecars.dvu("prio"), 1, [2, 999], [5, 6])
    r = check_segment(d)
    assert not r["ok"]
    assert r["errors"] == ["dv 'prio' gen 1: ord out of range"]
    assert errors(sidecars.table(np.array([0, 2]), np.array([5, 6])),
                  2) == []
    assert errors(pa.table({"ord": pa.array([2, 0], pa.int32()),
                            "value": pa.array([5, 6], pa.int64())}), 3) \
        == ["dv 'prio' gen 3: ords not strictly ascending"]
    assert errors(sidecars.table(np.array([0, 1])), 4) \
        == ["dv 'prio' gen 4: no value column"]
    assert errors(pa.table({"ord": pa.array([0, 1], pa.int32()),
                            "value": pa.array([5, None], pa.int64())}),
                  5) == ["dv 'prio' gen 5: values not aligned with ords"]
