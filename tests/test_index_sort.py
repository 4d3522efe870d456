"""Index-time sort + sorted-index early termination.

Reference: ``IndexWriterConfig.setIndexSort`` (IndexWriterConfig.java:465)
lays segments down in comparator order; ``TopFieldCollector`` then throws
CollectionTerminatedException after k docs when the search sort matches
the index sort.  Here: build.py permutes each shard by (value, doc_id asc)
and records ``index_sort`` in the segment meta; ``field_sort_topk_ords``
takes the first k matching ords without comparisons.
"""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search.reader import SegmentReader
from lucene_solr_ray.search.searcher import (
    Index,
    field_sort_topk_ords,
    search_by_field,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    rng = np.random.default_rng(11)
    n = 120
    words = ["merge", "sort", "batch", "alpha", "beta", "gamma"]
    texts = [
        " ".join(rng.choice(words, size=rng.integers(3, 9)))
        for _ in range(n)
    ]
    prio = rng.integers(0, 40, size=n)  # duplicate values → tiebreaks
    p = str(tmp_path_factory.mktemp("isort") / "docs.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts),
            "prio": pa.array(prio, pa.int64()),
        }),
        p,
    )
    return p


def _build(corpus, out, **kw):
    return build_index(
        corpus, out, text_col="text", id_col="doc_id",
        stored_cols=["prio"], docs_per_segment=40, **kw
    )


def test_sorted_build_layout_and_meta(ray_session, corpus, tmp_path):
    out = str(tmp_path / "sorted")
    _build(corpus, out, index_sort=("prio", True))
    idx = Index(out)
    assert len(idx.seg_dirs) >= 2  # multi-segment (row-group snapping)
    for d in idx.seg_dirs:
        with open(os.path.join(d, "segment.json")) as f:
            meta = json.load(f)
        assert meta["index_sort"]["field"] == "prio"
        assert meta["index_sort"]["desc"] is True
        assert meta["index_sort"]["fields"] == [
            {"field": "prio", "desc": True}
        ]
        dm = pq.read_table(os.path.join(d, "docmeta.parquet"))
        v = dm.column("prio").to_numpy()
        ids = dm.column("doc_id").to_numpy()
        # non-increasing values; doc_id ascending within equal values
        assert (np.diff(v) <= 0).all()
        same = np.diff(v) == 0
        assert (np.diff(ids)[same] > 0).all()


def test_sorted_vs_unsorted_identity(ray_session, corpus, tmp_path):
    """search_by_field results are byte-identical between a sorted index
    (early-terminating) and an unsorted one (full comparator sort)."""
    plain = str(tmp_path / "plain")
    srt = str(tmp_path / "srt")
    _build(corpus, plain)
    _build(corpus, srt, index_sort=("prio", True))
    queries = {0: "merge", 1: "merge sort", 2: "batch"}
    a = search_by_field(Index(plain), queries, "prio",
                        descending=True, k=7)
    b = search_by_field(Index(srt), queries, "prio",
                        descending=True, k=7)
    assert a.equals(b)
    # ascending search over a DESC-sorted index must NOT early-terminate
    # (direction mismatch) and still agree
    a2 = search_by_field(Index(plain), queries, "prio",
                         descending=False, k=7)
    b2 = search_by_field(Index(srt), queries, "prio",
                         descending=False, k=7)
    assert a2.equals(b2)


def test_early_termination_scan_counts(ray_session, corpus, tmp_path):
    from lucene_solr_ray.search.scorer import score_segment

    srt = str(tmp_path / "srt2")
    _build(corpus, srt, index_sort=("prio", True))
    idx = Index(srt)
    parser = idx.make_parser()
    q = parser.parse("merge")
    stats, _ = idx.collect_stats(sorted(set(q.terms())), [])
    reader = SegmentReader(idx.seg_dirs[0])
    vals = pq.read_table(
        os.path.join(idx.seg_dirs[0], "docmeta.parquet"),
        columns=["prio"],
    ).column("prio").to_numpy()
    ords, _ = score_segment(reader, q, stats)
    assert len(ords) > 3
    k = 3
    sel, scanned = field_sort_topk_ords(reader, ords, vals, True, k, "prio")
    assert scanned == k  # early termination: only k keys examined
    # mismatch (wrong direction / wrong field) scans every candidate
    _, scanned_asc = field_sort_topk_ords(
        reader, ords, vals, False, k, "prio"
    )
    assert scanned_asc == len(ords)
    _, scanned_other = field_sort_topk_ords(
        reader, ords, vals, True, k, "field_len"
    )
    assert scanned_other == len(ords)
    # the early-terminated selection equals the full comparator's answer
    full, _ = field_sort_topk_ords(reader, ords, vals, False, len(ords),
                                   "prio")
    v = vals[full].astype(np.float64)
    order = np.lexsort((reader.doc_ids[full], -v))[:k]
    np.testing.assert_array_equal(sel, full[order])


def test_index_sort_rejects_block_align(ray_session, corpus, tmp_path):
    with pytest.raises(ValueError, match="incompatible"):
        build_index(corpus, str(tmp_path / "x"), text_col="text",
                    index_sort=("prio", True), block_align_col="prio")


@pytest.fixture(scope="module")
def corpus_mf(tmp_path_factory):
    """Corpus with a string + numeric sort-key pair (duplicates in both)."""
    rng = np.random.default_rng(23)
    n = 150
    words = ["merge", "sort", "batch", "alpha", "beta"]
    langs = ["de", "en", "fr", "it"]
    p = str(tmp_path_factory.mktemp("isortmf") / "docs.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array([
                " ".join(rng.choice(words, size=rng.integers(3, 9)))
                for _ in range(n)
            ]),
            "lang": pa.array([str(rng.choice(langs)) for _ in range(n)]),
            "prio": pa.array(rng.integers(0, 12, size=n), pa.int64()),
        }),
        p,
    )
    return p


def test_multi_field_sorted_vs_unsorted_identity(
    ray_session, corpus_mf, tmp_path
):
    """search_by_fields over a multi-field-sorted index (early-terminating
    on the full-sort prefix) is byte-identical to the exhaustive
    comparator over an unsorted index — string + numeric keys, both
    directions, doc_id tiebreak."""
    from lucene_solr_ray.search.searcher import search_by_fields

    def _b(out, **kw):
        return build_index(
            corpus_mf, out, text_col="text", id_col="doc_id",
            stored_cols=["lang", "prio"], docs_per_segment=50, **kw
        )

    plain = str(tmp_path / "plain")
    srt = str(tmp_path / "srt")
    sort = [("lang", False), ("prio", True)]
    _b(plain)
    _b(srt, index_sort=sort)
    # layout: lang ascending; prio non-increasing within lang; doc_id
    # ascending within (lang, prio)
    for d in Index(srt).seg_dirs:
        with open(os.path.join(d, "segment.json")) as f:
            meta = json.load(f)
        assert meta["index_sort"]["fields"] == [
            {"field": "lang", "desc": False},
            {"field": "prio", "desc": True},
        ]
        assert "field" not in meta["index_sort"]  # no ambiguous legacy key
        dm = pq.read_table(os.path.join(d, "docmeta.parquet"))
        tup = list(zip(
            dm.column("lang").to_pylist(),
            [-v for v in dm.column("prio").to_pylist()],
            dm.column("doc_id").to_pylist(),
        ))
        assert tup == sorted(tup)
    queries = {0: "merge", 1: "merge sort", 2: "batch"}
    a = search_by_fields(Index(plain), queries, sort, k=9)
    b = search_by_fields(Index(srt), queries, sort, k=9)
    assert a.equals(b)
    # single-field query sort = a PREFIX of the index sort: the early-
    # terminated result's key values match the exhaustive top-k keys
    # (ties beyond the prefix follow index order, as in the reference)
    a1 = search_by_fields(Index(plain), queries, [("lang", False)], k=9)
    b1 = search_by_fields(Index(srt), queries, [("lang", False)], k=9)
    assert a1.column("sort_0").equals(b1.column("sort_0"))
    # a NON-prefix query sort must not early-terminate and stays identical
    rev = [("prio", True), ("lang", False)]
    a2 = search_by_fields(Index(plain), queries, rev, k=9)
    b2 = search_by_fields(Index(srt), queries, rev, k=9)
    assert a2.equals(b2)


def test_multi_field_single_field_legacy_path(ray_session, corpus, tmp_path):
    """search_by_fields with ONE field agrees with search_by_field."""
    from lucene_solr_ray.search.searcher import search_by_fields

    srt = str(tmp_path / "srt_one")
    _build(corpus, srt, index_sort=("prio", True))
    queries = {0: "merge", 1: "batch"}
    a = search_by_field(Index(srt), queries, "prio", descending=True, k=6)
    b = search_by_fields(Index(srt), queries, [("prio", True)], k=6)
    assert a.column("doc_id").equals(b.column("doc_id"))
    np.testing.assert_allclose(
        a.column("sort_value").to_numpy(),
        b.column("sort_0").to_numpy().astype(np.float64),
    )


def test_sorted_merge_preserves_index_sort(ray_session, corpus_mf, tmp_path):
    """Merging sorted segments keeps comparator order + the index_sort
    marker (MultiSorter.sort semantics): post-merge searches stay
    byte-identical to an unsorted index and still early-terminate."""
    from lucene_solr_ray.index.merge import merge_until_done
    from lucene_solr_ray.search.searcher import search_by_fields

    sort = [("lang", False), ("prio", True)]

    def _b(out, **kw):
        return build_index(
            corpus_mf, out, text_col="text", id_col="doc_id",
            stored_cols=["lang", "prio"], docs_per_segment=40, **kw
        )

    plain = str(tmp_path / "plain")
    srt = str(tmp_path / "srt")
    _b(plain)
    _b(srt, index_sort=sort)
    assert len(Index(srt).seg_dirs) >= 3
    from lucene_solr_ray.index.merge_policy import TieredMergePolicy

    merge_until_done(srt, policy=TieredMergePolicy(segs_per_tier=1.0))
    idx = Index(srt)
    assert len(idx.seg_dirs) < 3  # something merged
    for d in idx.seg_dirs:
        with open(os.path.join(d, "segment.json")) as f:
            meta = json.load(f)
        assert meta["index_sort"]["fields"] == [
            {"field": "lang", "desc": False},
            {"field": "prio", "desc": True},
        ]
        dm = pq.read_table(os.path.join(d, "docmeta.parquet"))
        tup = list(zip(
            dm.column("lang").to_pylist(),
            [-v for v in dm.column("prio").to_pylist()],
            dm.column("doc_id").to_pylist(),
        ))
        assert tup == sorted(tup)
    queries = {0: "merge", 1: "merge sort", 2: "batch"}
    a = search_by_fields(Index(plain), queries, sort, k=9)
    b = search_by_fields(idx, queries, sort, k=9)
    assert a.equals(b)
    # BM25 results also identical (positions/norms survived the remap)
    pa_ = Index(plain).search(queries, k=8)
    pb_ = idx.search(queries, k=8)
    assert pa_.equals(pb_)


def test_sorted_merge_with_deletes(ray_session, corpus_mf, tmp_path):
    """Tombstoned sorted segments compact THEN resort on merge; results
    equal an unsorted index with the same deletes."""
    from lucene_solr_ray.index.deletes import delete_by_query
    from lucene_solr_ray.index.merge import merge_until_done
    from lucene_solr_ray.index.merge_policy import TieredMergePolicy
    from lucene_solr_ray.search.searcher import search_by_fields

    sort = [("lang", False), ("prio", True)]

    def _b(out, **kw):
        return build_index(
            corpus_mf, out, text_col="text", id_col="doc_id",
            stored_cols=["lang", "prio"], docs_per_segment=40, **kw
        )

    plain = str(tmp_path / "plain")
    srt = str(tmp_path / "srt")
    _b(plain)
    _b(srt, index_sort=sort)
    delete_by_query(plain, "beta")
    delete_by_query(srt, "beta")
    # merge BOTH: reclaiming tombstones compacts collection stats, so an
    # unmerged control would score with different doc counts
    merge_until_done(plain, policy=TieredMergePolicy(segs_per_tier=1.0))
    merge_until_done(srt, policy=TieredMergePolicy(segs_per_tier=1.0))
    idx = Index(srt)
    for d in idx.seg_dirs:
        with open(os.path.join(d, "segment.json")) as f:
            meta = json.load(f)
        if meta.get("lineage", {}).get("merged_from"):
            assert "index_sort" in meta  # marker survived the compaction
    queries = {0: "merge", 1: "batch"}
    a = search_by_fields(Index(plain), queries, sort, k=9)
    b = search_by_fields(idx, queries, sort, k=9)
    assert a.equals(b)
    assert Index(plain).search(queries, k=8).equals(idx.search(queries, k=8))


def test_sharded_sorted_merge_identity(ray_session, corpus_mf, tmp_path):
    """A term-range merge (num_shards=3) on SORTED inputs is
    byte-identical to the single-task sorted merge (the DocMaps ride to
    every term-range task)."""
    import pyarrow.parquet as pq2

    from lucene_solr_ray.index.merge import merge_segments

    sort = [("lang", False), ("prio", True)]
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for out in (a, b):
        build_index(
            corpus_mf, out, text_col="text", id_col="doc_id",
            stored_cols=["lang", "prio"], docs_per_segment=40,
            index_sort=sort,
        )
    ids_a = sorted(
        int(d.split("_")[-1]) for d in os.listdir(a)
        if d.startswith("seg_")
    )
    meta1 = merge_segments(a, ids_a, new_id=900)
    ids_b = sorted(
        int(d.split("_")[-1]) for d in os.listdir(b)
        if d.startswith("seg_")
    )
    meta2 = merge_segments(b, ids_b, new_id=900, num_shards=3)
    assert meta2["index_sort"]["fields"] == [
        {"field": "lang", "desc": False}, {"field": "prio", "desc": True}
    ]
    assert meta1["stats"] == meta2["stats"]
    da = os.path.join(a, "seg_000900")
    db = os.path.join(b, "seg_000900")
    for fn in ("postings.parquet", "docmeta.parquet"):
        ta = pq2.read_table(os.path.join(da, fn))
        tb = pq2.read_table(os.path.join(db, fn))
        assert ta.equals(tb), fn


# ---------------------------------------------------------------------------
# grouped-search early termination (round 5 — verdict item "search_grouped
# ignores index sort")
# ---------------------------------------------------------------------------


def test_grouped_early_termination_scan_counts(ray_session, corpus,
                                               tmp_path):
    from lucene_solr_ray.search.scorer import score_segment
    from lucene_solr_ray.search.searcher import grouped_field_topk_ords

    srt = str(tmp_path / "gsrt")
    _build(corpus, srt, index_sort=("prio", True))
    idx = Index(srt)
    parser = idx.make_parser()
    q = parser.parse("merge")
    stats, _ = idx.collect_stats(sorted(set(q.terms())), [])
    reader = SegmentReader(idx.seg_dirs[0])
    vals = pq.read_table(
        os.path.join(idx.seg_dirs[0], "docmeta.parquet"),
        columns=["prio"],
    ).column("prio").to_numpy()
    ords, _ = score_segment(reader, q, stats)
    assert len(ords) > 4
    groups = np.asarray(
        ["even" if v % 2 == 0 else "odd" for v in vals[ords]], dtype=object
    )
    n = 2
    sel, scanned = grouped_field_topk_ords(
        reader, ords, vals, groups, True, n, "prio"
    )
    # early termination: only the SELECTED rows' keys examined
    assert scanned == len(sel) <= 2 * n
    # direction mismatch scans every candidate
    sel_asc, scanned_asc = grouped_field_topk_ords(
        reader, ords, vals, groups, False, n, "prio"
    )
    assert scanned_asc == len(ords)
    # the early-terminated selection equals the full comparator's answer
    # per group (values non-increasing, doc_id tiebreak)
    full_by_group = {}
    order = np.lexsort((reader.doc_ids[ords], -vals[ords].astype(float)))
    for i in order:
        full_by_group.setdefault(groups[i], []).append(i)
    want = sorted(
        i for g, idxs in full_by_group.items() for i in idxs[:n]
    )
    assert sorted(sel.tolist()) == want
    # overlay voids the guarantee
    _, scanned_ov = grouped_field_topk_ords(
        reader, ords, vals, groups, True, n, "prio", overlaid=True
    )
    assert scanned_ov == len(ords)


def test_grouped_sorted_vs_unsorted_identity(ray_session, corpus,
                                             tmp_path):
    """search_grouped(sort_field=...) results are identical between a
    sorted index (early-terminating) and an unsorted one."""
    from lucene_solr_ray.search.searcher import search_grouped

    plain = str(tmp_path / "gplain")
    srt = str(tmp_path / "gsrt2")
    _build(corpus, plain)
    _build(corpus, srt, index_sort=("prio", True))
    # group by lang-ish bucket from a side table: reuse the corpus itself
    a = search_grouped(
        Index(plain), "merge OR sort", corpus, "prio",
        top_groups=5, docs_per_group=2, sort_field=("prio", True),
    )
    b = search_grouped(
        Index(srt), "merge OR sort", corpus, "prio",
        top_groups=5, docs_per_group=2, sort_field=("prio", True),
    )
    assert a.equals(b)
    assert a.num_rows > 0
