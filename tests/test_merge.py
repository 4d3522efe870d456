"""TieredMergePolicy selection + merge execution round-trip.

The merged index must answer queries identically to the unmerged one
(the reference's ``TestTopDocsMerge`` / ``SegmentMerger`` contract)."""

import numpy as np
import pytest

from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.manifest import read_latest_manifest
from lucene_solr_ray.index.merge import merge_until_done
from lucene_solr_ray.index.merge_policy import MB, TieredMergePolicy


def test_policy_budget_and_selection():
    p = TieredMergePolicy(
        max_merge_at_once=4, segs_per_tier=4.0, floor_segment_bytes=1 * MB
    )
    # 12 equal tiny segments, budget 4/tier → merges selected
    sizes = {i: 100_000 for i in range(12)}
    specs = p.find_merges(sizes)
    assert specs, "over-budget segment set must produce merges"
    for sp in specs:
        assert 2 <= len(sp.segment_ids) <= 4
    # within budget → no merges
    assert p.find_merges({0: 100_000, 1: 100_000}) == []


def test_policy_respects_max_merged_bytes():
    p = TieredMergePolicy(
        max_merge_at_once=10, segs_per_tier=2.0,
        floor_segment_bytes=1, max_merged_segment_bytes=250,
    )
    sizes = {i: 100 for i in range(8)}
    for sp in p.find_merges(sizes):
        assert sp.total_bytes <= 250


def test_policy_deterministic():
    p = TieredMergePolicy(segs_per_tier=3.0, floor_segment_bytes=1024)
    sizes = {i: (i * 37123) % 90000 + 1000 for i in range(20)}
    assert p.find_merges(dict(sizes)) == p.find_merges(dict(sizes))


@pytest.mark.usefixtures("ray_session")
def test_merge_preserves_search_results(sf_dir, tmp_path):
    from lucene_solr_ray.search.searcher import Index

    out = str(tmp_path / "idx")
    build_index(
        f"{sf_dir}/documents.parquet", out,
        text_col="text", id_col="doc_id", docs_per_segment=60,
    )
    m0 = read_latest_manifest(out)
    assert len(m0["segments"]) >= 4  # many small segments (row-group snapped)

    queries = {0: "merge", 1: "fast OR slow", 2: "merge AND sort",
               3: '"batch batch"'}
    before = Index(out).search(queries, k=10).to_pandas()

    # aggressive policy: floor far above the tiny segment sizes so the
    # tier budget collapses to ~1 and everything merges
    n = merge_until_done(
        out,
        TieredMergePolicy(max_merge_at_once=4, segs_per_tier=2.0,
                          floor_segment_bytes=1 * MB),
    )
    assert n > 0
    m1 = read_latest_manifest(out)
    assert len(m1["segments"]) < len(m0["segments"])
    assert m1["doc_count"] == m0["doc_count"]
    assert m1["sum_total_term_freq"] == m0["sum_total_term_freq"]

    after = Index(out).search(queries, k=10).to_pandas()
    # same docs, same float32 scores — only segment boundaries moved
    assert list(before["doc_id"]) == list(after["doc_id"])
    np.testing.assert_array_equal(
        before["score"].to_numpy(), after["score"].to_numpy()
    )


@pytest.mark.usefixtures("ray_session")
def test_check_index_after_merge(sf_dir, tmp_path):
    from lucene_solr_ray.index.check import check_index

    out = str(tmp_path / "idx2")
    build_index(f"{sf_dir}/documents.parquet", out, text_col="text",
                id_col="doc_id", docs_per_segment=100)
    merge_until_done(
        out, TieredMergePolicy(max_merge_at_once=4, segs_per_tier=2.0,
                               floor_segment_bytes=1 * MB),
    )
    rep = check_index(out)
    assert rep["ok"], rep["errors"]
    assert rep["docs"] == 500


@pytest.mark.usefixtures("ray_session")
def test_sharded_merge_byte_identical(sf_dir, tmp_path):
    """Term-range-sharded merge must produce the same segment content as
    the single-task merge (same terms, df, ords, freqs and positions)."""
    import os

    import pyarrow.parquet as pq

    from lucene_solr_ray.index.merge import merge_segments
    from lucene_solr_ray.search.searcher import Index

    outs = []
    for variant in ("single", "sharded"):
        out = str(tmp_path / variant)
        build_index(
            f"{sf_dir}/documents.parquet", out, text_col="text",
            id_col="doc_id", docs_per_segment=150,
        )
        ids = [s["segment_id"]
               for s in read_latest_manifest(out)["segments"]]
        if variant == "single":
            merge_segments(out, ids, 99)
        else:
            merge_segments(out, ids, 99, num_shards=4)
        outs.append(out)
    a = pq.read_table(os.path.join(outs[0], "seg_000099/postings.parquet"))
    b = pq.read_table(os.path.join(outs[1], "seg_000099/postings.parquet"))
    assert a.column("term").to_pylist() == b.column("term").to_pylist()
    assert a.column("df").to_pylist() == b.column("df").to_pylist()
    assert a.column("ords").to_pylist() == b.column("ords").to_pylist()
    assert a.column("freqs").to_pylist() == b.column("freqs").to_pylist()
    assert a.column("positions").to_pylist() == b.column("positions").to_pylist()


def test_commit_points_rollback_and_vacuum(ray_session, tmp_path):
    """IndexDeletionPolicy parity: generations are commit points; rollback
    re-commits an old one; vacuum drops segments only the old points
    reference (KeepLastN)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.deletes import add_documents
    from lucene_solr_ray.index.manifest import (
        list_generations,
        read_latest_manifest,
        rollback,
        vacuum,
    )
    from lucene_solr_ray.search.searcher import Index

    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(20), pa.int64()),
                  "text": pa.array(["alpha beta"] * 20)}), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                docs_per_segment=10)
    add_documents(out, [100], ["gamma delta"])
    assert list_generations(out) == [0, 1]

    # rollback to gen 0: the added doc disappears from the live view
    m = rollback(out, 0)
    assert m["generation"] == 2
    assert Index(out).search({0: "gamma"}, k=5).num_rows == 0

    # vacuum keeping 2 newest generations (1, 2): gen-1's extra segment is
    # still referenced by gen 1 → survives; drop to 1 kept gen → it goes
    dropped = vacuum(out, keep_generations=2)
    assert dropped == []
    dropped = vacuum(out, keep_generations=1)
    assert dropped  # the add_documents segment is now unreferenced
    assert list_generations(out) == [2]
    assert read_latest_manifest(out)["doc_count"] == 20
    # rollback to a vacuumed generation is refused
    import pytest as _pytest

    with _pytest.raises(FileNotFoundError):
        rollback(out, 1)


def test_replicate(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.deletes import delete_by_term
    from lucene_solr_ray.index.manifest import replicate
    from lucene_solr_ray.search.searcher import Index

    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(30), pa.int64()),
                  "text": pa.array(["alpha beta"] * 15 +
                                   ["gamma delta"] * 15)}), p)
    src = str(tmp_path / "src")
    build_index(p, src, text_col="text", id_col="doc_id",
                docs_per_segment=10)
    delete_by_term(src, "gamma")

    dst = str(tmp_path / "dst")
    from lucene_solr_ray.index.manifest import read_latest_manifest

    n_segs = len(read_latest_manifest(src)["segments"])
    r1 = replicate(src, dst)
    assert len(r1["copied_segments"]) == n_segs
    # replica answers identically, including tombstones
    a = Index(src).search({0: "alpha", 1: "gamma"}, k=100).to_pandas()
    b = Index(dst).search({0: "alpha", 1: "gamma"}, k=100).to_pandas()
    assert a.equals(b)
    # re-replication is incremental (no segments copied twice)
    r2 = replicate(src, dst)
    assert r2["copied_segments"] == []


def test_log_byte_size_merge_policy():
    from lucene_solr_ray.index.merge_policy import LogByteSizeMergePolicy

    mp = LogByteSizeMergePolicy(merge_factor=3, min_merge_mb=0.001)
    # nine same-level segments -> three merges of three, oldest first
    sizes = {i: 2_000_000 for i in range(9)}
    specs = mp.find_merges(sizes)
    assert [list(s.segment_ids) for s in specs] == [
        [0, 1, 2], [3, 4, 5], [6, 7, 8]
    ]
    # a huge segment above max_merge stays untouched
    mp2 = LogByteSizeMergePolicy(merge_factor=3, max_merge_mb=1.0)
    sizes2 = {0: 5 << 20, 1: 100, 2: 120, 3: 110}
    specs2 = mp2.find_merges(sizes2)
    assert all(0 not in s.segment_ids for s in specs2)
    # different levels don't mix
    mp3 = LogByteSizeMergePolicy(merge_factor=2, min_merge_mb=0.0001)
    sizes3 = {0: 1 << 20, 1: 1 << 20, 2: 1 << 28, 3: 1 << 28}
    got = sorted(
        tuple(s.segment_ids) for s in mp3.find_merges(sizes3)
    )
    assert got == [(0, 1), (2, 3)]


def test_merge_until_done_with_log_policy(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.manifest import read_latest_manifest
    from lucene_solr_ray.index.merge import merge_until_done
    from lucene_solr_ray.index.merge_policy import LogByteSizeMergePolicy
    from lucene_solr_ray.search.searcher import Index
    from lucene_solr_ray.search.similarity import BM25SimilarityF64

    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(60), pa.int64()),
                  "text": pa.array(["alpha beta gamma"] * 60)}), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                docs_per_segment=10)
    before = Index(out).search({0: "alpha"}, k=100,
                               similarity=BM25SimilarityF64()).to_pandas()
    n = merge_until_done(
        out, LogByteSizeMergePolicy(merge_factor=3, min_merge_mb=0.00001)
    )
    assert n >= 1
    after = Index(out).search({0: "alpha"}, k=100,
                              similarity=BM25SimilarityF64()).to_pandas()
    assert before.equals(after)
    assert len(read_latest_manifest(out)["segments"]) < 6


def _alpha_beta_index(tmp_path, n=20, per_seg=5):
    import pyarrow as pa
    import pyarrow.parquet as pq

    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(["alpha beta"] * n)}), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                docs_per_segment=per_seg)
    return out


def _hits(out, term):
    from lucene_solr_ray.search.searcher import Index

    return sorted(Index(out).search({0: term}, k=1000).column(
        "doc_id").to_pylist())


def test_new_segment_skips_rolled_back_segment_dir(ray_session, tmp_path):
    """A segment dir left on disk by a rolled-back commit is not the
    committed view, but its id is taken: the next add must not land on
    it (and so neither resurrect the rolled-back doc nor lose its own)."""
    from lucene_solr_ray.index.deletes import add_documents
    from lucene_solr_ray.index.manifest import rollback

    out = _alpha_beta_index(tmp_path)
    add_documents(out, [100], ["gamma one"])
    rollback(out, 0)
    add_documents(out, [200], ["delta two"])
    assert _hits(out, "gamma") == []
    assert _hits(out, "delta") == [200]


def test_new_segment_skips_uncommitted_merge_dir(ray_session, tmp_path):
    """A merge that wrote its segment but never committed (a crash
    between write and commit) leaves a dir the next add must not reuse."""
    from lucene_solr_ray.index.deletes import add_documents
    from lucene_solr_ray.index.merge import merge_segments

    out = _alpha_beta_index(tmp_path)
    ids = [s["segment_id"] for s in read_latest_manifest(out)["segments"]]
    merge_segments(out, ids, max(ids) + 1)
    add_documents(out, [100], ["beta gamma"])
    assert _hits(out, "gamma") == [100]
    assert _hits(out, "alpha") == list(range(20))
    assert _hits(out, "beta") == list(range(20)) + [100]


def test_merge_once_skips_rolled_back_segment_dir(ray_session, tmp_path):
    """merge_once allocates its output ids past every segment dir on disk,
    committed or not."""
    from lucene_solr_ray.index.deletes import add_documents
    from lucene_solr_ray.index.manifest import rollback
    from lucene_solr_ray.index.merge import merge_once

    out = _alpha_beta_index(tmp_path)
    add_documents(out, [100], ["gamma one"])
    rollback(out, 0)
    n = merge_once(out, TieredMergePolicy(
        segs_per_tier=1.0))
    assert n > 0
    assert _hits(out, "gamma") == []
    assert _hits(out, "alpha") == list(range(20))
    assert read_latest_manifest(out)["doc_count"] == 20
