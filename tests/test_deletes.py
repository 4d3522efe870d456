"""Live docs / deletes / updates — reference contract per
``index/IndexWriter.deleteDocuments`` + ``Lucene50LiveDocsFormat`` +
``TestIndexWriterDelete``-shaped scenarios."""

import random

import numpy as np
import pyarrow as pa
import pytest

from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.deletes import (
    add_documents,
    compact_postings_rows,
    delete_by_query,
    delete_by_term,
    delete_doc_ids,
    update_documents,
)
from lucene_solr_ray.index.manifest import commit_manifest, read_latest_manifest
from lucene_solr_ray.index.merge import merge_segments
from lucene_solr_ray.search.searcher import Index
from lucene_solr_ray.search.similarity import BM25SimilarityF64

WORDS = ["merge", "sort", "window", "batch", "key", "fast", "slow", "scan"]


def _mk_corpus(tmp_path, n=120, seed=7):
    import pyarrow.parquet as pq

    rng = random.Random(seed)
    texts = [
        " ".join(rng.choice(WORDS) for _ in range(rng.randint(3, 12)))
        for _ in range(n)
    ]
    p = str(tmp_path / "corpus.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(texts)}),
        p,
    )
    return p, texts


@pytest.fixture()
def built(ray_session, tmp_path):
    corpus, texts = _mk_corpus(tmp_path)
    out = str(tmp_path / "idx")
    build_index(corpus, out, text_col="text", id_col="doc_id",
                docs_per_segment=25)
    return out, texts


def test_delete_by_term_excludes_docs_keeps_scores(built):
    out, texts = built
    idx = Index(out)
    before = idx.search({0: "merge"}, k=1000,
                        similarity=BM25SimilarityF64()).to_pandas()
    manifest = delete_by_term(out, "window")
    assert manifest["live_doc_count"] < manifest["doc_count"]
    idx2 = Index(out)
    after = idx2.search({0: "merge"}, k=1000,
                        similarity=BM25SimilarityF64()).to_pandas()
    window_docs = {i for i, t in enumerate(texts) if "window" in t.split()}
    # every surviving hit keeps its EXACT pre-delete score (stats stay
    # maxDoc-based until merge), deleted docs vanish
    exp = before[~before.doc_id.isin(window_docs)]
    assert list(after.doc_id) == list(exp.doc_id)
    assert np.allclose(after.score.to_numpy(), exp.score.to_numpy())
    # deleted docs never match anything
    hits_window = idx2.search({0: "window"}, k=1000)
    assert hits_window.num_rows == 0


def test_delete_by_query_and_counts(built):
    out, texts = built
    delete_by_query(out, "fast AND slow")
    idx = Index(out)
    both = {
        i for i, t in enumerate(texts)
        if "fast" in t.split() and "slow" in t.split()
    }
    from lucene_solr_ray.search.searcher import count_hits

    t = count_hits(idx, {0: "fast"}).to_pandas()
    fast_total = sum(1 for t_ in texts if "fast" in t_.split())
    assert int(t.total_hits[0]) == fast_total - len(
        {i for i in both if "fast" in texts[i].split()}
    )


def test_merge_drops_deletes_matches_fresh_build(built, tmp_path):
    import pyarrow.parquet as pq

    out, texts = built
    delete_by_term(out, "window")
    m = read_latest_manifest(out)
    ids = [s["segment_id"] for s in m["segments"]]
    meta = merge_segments(out, ids, max(ids) + 1)
    commit_manifest(out, [meta])

    survivors = [(i, t) for i, t in enumerate(texts)
                 if "window" not in t.split()]
    p2 = str(tmp_path / "fresh.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array([i for i, _ in survivors], pa.int64()),
                  "text": pa.array([t for _, t in survivors])}),
        p2,
    )
    fresh_dir = str(tmp_path / "fresh_idx")
    build_index(p2, fresh_dir, text_col="text", id_col="doc_id",
                docs_per_segment=10_000)

    ma, mb = read_latest_manifest(out), read_latest_manifest(fresh_dir)
    assert ma["doc_count"] == mb["doc_count"] == len(survivors)
    assert ma["sum_total_term_freq"] == mb["sum_total_term_freq"]
    assert ma["sum_doc_freq"] == mb["sum_doc_freq"]

    qa = Index(out).search({0: "merge OR sort", 1: "batch AND key"}, k=50,
                           similarity=BM25SimilarityF64()).to_pandas()
    qb = Index(fresh_dir).search({0: "merge OR sort", 1: "batch AND key"},
                                 k=50,
                                 similarity=BM25SimilarityF64()).to_pandas()
    assert list(qa.doc_id) == list(qb.doc_id)
    assert np.allclose(qa.score.to_numpy(), qb.score.to_numpy())


def test_update_documents_replaces_content(built):
    out, _ = built
    update_documents(out, [3, 5], ["zzzupdated fresh", "zzzupdated stale"])
    idx = Index(out)
    hits = idx.search({0: "zzzupdated"}, k=10).to_pandas()
    assert sorted(hits.doc_id) == [3, 5]
    # the old content of docs 3/5 is gone
    m = read_latest_manifest(out)
    assert m["live_doc_count"] == m["doc_count"] - 2  # 2 tombstones + 2 adds


def test_add_documents_searchable(built):
    out, texts = built
    n = len(texts)
    add_documents(out, [n, n + 1], ["brandnewterm one", "brandnewterm two"])
    idx = Index(out)
    hits = idx.search({0: "brandnewterm"}, k=10).to_pandas()
    assert sorted(hits.doc_id) == [n, n + 1]


def test_compact_postings_byte_identity():
    """Compaction must produce the EXACT bytes a fresh encode of the
    filtered postings would — codec determinism makes this checkable."""
    from lucene_solr_ray.index.postings_codec import encode_postings
    from lucene_solr_ray.index.segment import POSTINGS_SCHEMA

    rng = np.random.default_rng(3)
    ndocs = 500
    norms = rng.integers(1, 255, ndocs).astype(np.uint8)
    ords = np.sort(rng.choice(ndocs, size=200, replace=False)).astype(np.int64)
    freqs = rng.integers(1, 9, len(ords)).astype(np.int64)
    positions = np.arange(int(freqs.sum()), dtype="<i4")
    table = pa.table(
        {
            "term": pa.array(["t"], pa.string()),
            "df": pa.array([len(ords)], pa.int32()),
            "ttf": pa.array([int(freqs.sum())], pa.int64()),
            "blocks": pa.array([encode_postings(ords, freqs, norms[ords])],
                               pa.binary()),
            "positions": pa.array([positions.tobytes()], pa.binary()),
            "offsets": pa.array([None], pa.binary()),
            "payloads": pa.array([None], pa.binary()),
        },
        schema=POSTINGS_SCHEMA,
    )
    deleted = np.sort(rng.choice(ndocs, size=120, replace=False)).astype(
        np.int64
    )
    live_mask = ~np.isin(ords, deleted)
    kept = ords[live_mask]
    new_ords = kept - np.searchsorted(deleted, kept)
    new_norms = norms[np.setdiff1d(np.arange(ndocs), deleted)]

    out = compact_postings_rows(
        table, deleted, lambda fld: new_norms
    )
    assert out.num_rows == 1
    expect_blob = encode_postings(
        new_ords, freqs[live_mask], new_norms[new_ords]
    )
    assert out.column("blocks")[0].as_py() == expect_blob
    keep_vals = np.repeat(live_mask, freqs)
    assert out.column("positions")[0].as_py() == \
        positions[keep_vals].tobytes()
    assert out.column("df")[0].as_py() == int(live_mask.sum())


def test_delete_all_postings_of_term_drops_row(built, tmp_path):
    out, texts = built
    delete_by_term(out, "scan")
    m = read_latest_manifest(out)
    ids = [s["segment_id"] for s in m["segments"]]
    meta = merge_segments(out, ids, max(ids) + 1)
    commit_manifest(out, [meta])
    from lucene_solr_ray.search.reader import SegmentReader
    import os

    seg = os.path.join(out, f"seg_{meta['segment_id']:06d}")
    r = SegmentReader(seg)
    assert "scan" not in r.terms


# -- numeric point fields through deletes + merge ---------------------------


def test_numeric_points_range_and_merge(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    from lucene_solr_ray.search.reader import SegmentReader

    n = 80
    rng = random.Random(11)
    texts = [" ".join(rng.choice(WORDS) for _ in range(5)) for _ in range(n)]
    sizes = [rng.randint(0, 1000) for _ in range(n)]
    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(texts),
                  "size": pa.array(sizes, pa.int64())}), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                numeric_fields={"size": "size"}, docs_per_segment=20)
    idx = Index(out)
    assert idx.numeric_fields == {"size": "int64"}

    def expect(lo, hi, ex=None):
        return sorted(
            i for i, s in enumerate(sizes)
            if (lo is None or s >= lo) and (hi is None or s <= hi)
            and (ex is None or i not in ex)
        )

    hits = idx.search({0: "size:[100 TO 300]"}, k=1000).to_pandas()
    assert sorted(hits.doc_id) == expect(100, 300)
    # exclusive + open bounds
    hits = idx.search({0: "size:{900 TO *}"}, k=1000).to_pandas()
    assert sorted(hits.doc_id) == sorted(
        i for i, s in enumerate(sizes) if s > 900)

    # delete some docs, range must exclude them
    delete_doc_ids(out, list(range(0, n, 3)))
    idx2 = Index(out)
    hits = idx2.search({0: "size:[100 TO 300]"}, k=1000).to_pandas()
    assert sorted(hits.doc_id) == expect(100, 300, ex=set(range(0, n, 3)))

    # merge compacts tombstones; points survive with rebased ords
    m = read_latest_manifest(out)
    ids = [s["segment_id"] for s in m["segments"]]
    meta = merge_segments(out, ids, max(ids) + 1)
    commit_manifest(out, [meta])
    idx3 = Index(out)
    assert idx3.numeric_fields == {"size": "int64"}
    hits = idx3.search({0: "size:[100 TO 300]"}, k=1000).to_pandas()
    assert sorted(hits.doc_id) == expect(100, 300, ex=set(range(0, n, 3)))
    seg = os.path.join(out, f"seg_{meta['segment_id']:06d}")
    r = SegmentReader(seg)
    vals, ords = r.points("size")
    assert (np.diff(vals) >= 0).all() and len(vals) == r.ndocs

    # combined text + numeric MUST: score = BM25 + 1.0 constant
    hits = idx3.search({0: "merge AND size:[0 TO 1000]"}, k=1000).to_pandas()
    base = idx3.search({0: "merge"}, k=1000).to_pandas()
    assert sorted(hits.doc_id) == sorted(base.doc_id)
    assert np.allclose(
        np.sort(hits.score.to_numpy()),
        np.sort(base.score.to_numpy() + np.float32(1.0)),
    )


def test_multifield_delete_merge_matches_fresh(ray_session, tmp_path):
    """Deletes + merge-time compaction on a MULTI-FIELD index: per-field
    norms/stats recompute correctly (the norm__<f> lookup path in
    compact_postings_rows)."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.analysis.analyzer import KeywordAnalyzer

    rng = random.Random(13)
    n = 60
    texts = [" ".join(rng.choice(WORDS) for _ in range(6))
             for _ in range(n)]
    langs = [rng.choice(["en", "de", "fr"]) for _ in range(n)]
    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(texts),
                  "lang": pa.array(langs)}), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                extra_fields={"lang": "lang"},
                field_analyzers={"lang": KeywordAnalyzer()},
                docs_per_segment=15)

    delete_by_term(out, "window")
    m = read_latest_manifest(out)
    ids = [s["segment_id"] for s in m["segments"]]
    meta = merge_segments(out, ids, max(ids) + 1)
    commit_manifest(out, [meta])

    survivors = [i for i, t in enumerate(texts)
                 if "window" not in t.split()]
    p2 = str(tmp_path / "fresh.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(survivors, pa.int64()),
                  "text": pa.array([texts[i] for i in survivors]),
                  "lang": pa.array([langs[i] for i in survivors])}), p2)
    fresh = str(tmp_path / "fresh_idx")
    build_index(p2, fresh, text_col="text", id_col="doc_id",
                extra_fields={"lang": "lang"},
                field_analyzers={"lang": KeywordAnalyzer()},
                docs_per_segment=10_000)

    ma, mb = read_latest_manifest(out), read_latest_manifest(fresh)
    assert ma["fields"] == mb["fields"]  # per-field doc_count + sttf

    qa = Index(out).search(
        {0: "merge AND lang:en", 1: "lang:de"}, k=100,
        similarity=BM25SimilarityF64(),
    ).to_pandas()
    qb = Index(fresh).search(
        {0: "merge AND lang:en", 1: "lang:de"}, k=100,
        similarity=BM25SimilarityF64(),
    ).to_pandas()
    assert list(qa.doc_id) == list(qb.doc_id)
    assert np.allclose(qa.score.to_numpy(), qb.score.to_numpy())


def test_sharded_merge_with_deletes_byte_identical(built, tmp_path):
    """Term-range-sharded merge must produce byte-identical postings to
    the single-task merge when inputs carry tombstones."""
    import os

    import pyarrow.parquet as pq

    from lucene_solr_ray.index.merge import merge_segments_sharded

    out, texts = built
    delete_by_term(out, "window")
    m = read_latest_manifest(out)
    ids = [s["segment_id"] for s in m["segments"]]
    m1 = merge_segments(out, ids, max(ids) + 1)
    m2 = merge_segments_sharded(out, ids, max(ids) + 2, num_shards=3)
    a = pq.read_table(
        os.path.join(out, f"seg_{m1['segment_id']:06d}",
                     "postings.parquet"))
    b = pq.read_table(
        os.path.join(out, f"seg_{m2['segment_id']:06d}",
                     "postings.parquet"))
    assert a.equals(b)
    assert m1["stats"] == m2["stats"]


def test_sharded_merge_points_with_deletes(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq

    from lucene_solr_ray.index.merge import merge_segments_sharded

    rng = random.Random(17)
    n = 60
    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array([" ".join(rng.choice(WORDS) for _ in range(4))
                              for _ in range(n)]),
            "size": pa.array([rng.randint(0, 99) for _ in range(n)],
                             pa.int64()),
        }), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                numeric_fields={"size": "size"}, docs_per_segment=15)
    delete_doc_ids(out, list(range(0, n, 4)))
    m = read_latest_manifest(out)
    ids = [s["segment_id"] for s in m["segments"]]
    m1 = merge_segments(out, ids, max(ids) + 1)
    m2 = merge_segments_sharded(out, ids, max(ids) + 2, num_shards=3)
    pa1 = pq.read_table(os.path.join(
        out, f"seg_{m1['segment_id']:06d}", "points.parquet"))
    pa2 = pq.read_table(os.path.join(
        out, f"seg_{m2['segment_id']:06d}", "points.parquet"))
    assert pa1.equals(pa2)
    # compacted points reference only live (renumbered) ords
    assert pa1.num_rows == n - len(range(0, n, 4))


def test_phrase_soft_delete_and_policy(ray_session, tmp_path):
    """Soft deletes and the retention policy evaluate phrase queries:
    their readers load positions, as the hard-delete pass's do."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.softdeletes import (
        apply_soft_deletes_policy,
        soft_delete_by_query,
        soft_deleted_ords,
    )
    from lucene_solr_ray.search.reader import SegmentReader

    shapes = ["drop token alpha", "token drop alpha", "drop alpha token",
              "alpha beta"]
    texts = [shapes[i % 4] for i in range(20)]
    p = str(tmp_path / "c.parquet")
    pq.write_table(pa.table({"doc_id": pa.array(range(20), pa.int64()),
                             "text": pa.array(texts)}), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                docs_per_segment=10)
    phrase = {i for i, t in enumerate(texts) if "drop token" in t}
    token = {i for i, t in enumerate(texts) if "token" in t.split()}

    def docs(ords_of):
        out_ids = set()
        for d in Index(out).seg_dirs:
            r = SegmentReader(d)
            out_ids.update(int(i) for i in r.doc_ids[ords_of(d, r)])
        return out_ids

    soft = lambda d, r: soft_deleted_ords(d)  # noqa: E731
    hard = lambda d, r: r.deleted_ords  # noqa: E731
    soft_delete_by_query(out, '"drop token"')
    assert docs(soft) == phrase
    soft_delete_by_query(out, "token")
    assert docs(soft) == token
    # retention keeps the phrase docs soft; the rest harden
    apply_soft_deletes_policy(out, '"drop token"')
    assert docs(soft) == phrase
    assert docs(hard) == token - phrase
