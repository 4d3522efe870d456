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
    delete_by_query,
    delete_by_term,
    delete_doc_ids,
    update_documents,
)
from lucene_solr_ray.index.manifest import commit_manifest, read_latest_manifest
from lucene_solr_ray.index.merge import merge_segments, remap_postings_rows
from lucene_solr_ray.search.searcher import Index
from lucene_solr_ray.search.similarity import BM25SimilarityF64

WORDS = ["merge", "sort", "window", "batch", "key", "fast", "slow", "scan"]


def _mk_corpus(tmp_path, n=120, seed=7, prio=False):
    """A random corpus; with ``prio``, also a stored int column drawn
    after the texts."""
    import pyarrow.parquet as pq

    rng = random.Random(seed)
    texts = [
        " ".join(rng.choice(WORDS) for _ in range(rng.randint(3, 12)))
        for _ in range(n)
    ]
    cols = {"doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts)}
    if prio:
        cols["prio"] = pa.array([rng.randint(0, 500) for _ in range(n)],
                                pa.int64())
    p = str(tmp_path / "corpus.parquet")
    pq.write_table(pa.table(cols), p)
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
    """Compaction keeps exactly the live entries of a list, renumbered
    densely, with their freqs and their positions."""
    from lucene_solr_ray.index.segment import POSTINGS_SCHEMA

    rng = np.random.default_rng(3)
    ndocs = 500
    ords = np.sort(rng.choice(ndocs, size=200, replace=False)).astype(np.int64)
    freqs = rng.integers(1, 9, len(ords)).astype(np.int64)
    positions = np.arange(int(freqs.sum()), dtype=np.int64)
    table = pa.Table.from_pylist([{
        "term": "t", "df": len(ords), "ttf": int(freqs.sum()),
        "ords": ords.tolist(), "freqs": freqs.tolist(),
        "positions": positions.tolist(), "offsets": None, "payloads": None,
    }], schema=POSTINGS_SCHEMA)
    deleted = np.sort(rng.choice(ndocs, size=120, replace=False)).astype(
        np.int64
    )
    live_mask = ~np.isin(ords, deleted)
    kept = ords[live_mask]
    new_ords = kept - np.searchsorted(deleted, kept)
    # the compaction DocMap: survivors renumbered densely, deleted → −1
    doc_map = np.arange(ndocs) - np.searchsorted(deleted, np.arange(ndocs))
    doc_map[deleted] = -1

    out = remap_postings_rows(table, doc_map)
    assert out.num_rows == 1
    row = out.to_pylist()[0]
    assert row["ords"] == new_ords.tolist()
    assert row["freqs"] == freqs[live_mask].tolist()
    keep_vals = np.repeat(live_mask, freqs)
    assert row["positions"] == positions[keep_vals].tolist()
    assert row["df"] == int(live_mask.sum())
    assert row["ttf"] == int(freqs[live_mask].sum())


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
    remap_postings_rows)."""
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

    out, texts = built
    delete_by_term(out, "window")
    m = read_latest_manifest(out)
    ids = [s["segment_id"] for s in m["segments"]]
    m1 = merge_segments(out, ids, max(ids) + 1)
    m2 = merge_segments(out, ids, max(ids) + 2, num_shards=3)
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
    m2 = merge_segments(out, ids, max(ids) + 2, num_shards=3)
    pa1 = pq.read_table(os.path.join(
        out, f"seg_{m1['segment_id']:06d}", "points.parquet"))
    pa2 = pq.read_table(os.path.join(
        out, f"seg_{m2['segment_id']:06d}", "points.parquet"))
    assert pa1.equals(pa2)
    # compacted points reference only live (renumbered) ords
    assert pa1.num_rows == n - len(range(0, n, 4))


def test_phrase_soft_delete_and_policy(ray_session, tmp_path):
    """Soft deletes and the retention policy evaluate phrase queries:
    their readers load positions on first use, as the hard-delete
    pass's do."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.softdeletes import (
        apply_soft_deletes_policy,
        soft_delete_by_query,
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

    soft = lambda d, r: SegmentReader(  # noqa: E731
        d, respect_soft_deletes=True).soft_deleted_ords
    hard = lambda d, r: r.deleted_ords  # noqa: E731
    soft_delete_by_query(out, '"drop token"')
    assert docs(soft) == phrase
    soft_delete_by_query(out, "token")
    assert docs(soft) == token
    # retention keeps the phrase docs soft; the rest harden
    apply_soft_deletes_policy(out, '"drop token"')
    assert docs(soft) == phrase
    assert docs(hard) == token - phrase


@pytest.fixture()
def stored(ray_session, tmp_path):
    """``_mk_corpus`` plus a stored numeric column ``pop`` and a side
    table grouping the docs by ``grp``."""
    import pyarrow.parquet as pq

    corpus, texts = _mk_corpus(tmp_path)
    t = pq.read_table(corpus)
    n = t.num_rows
    pq.write_table(t.append_column(
        "pop", pa.array(np.arange(n, dtype=np.int64) % 7)), corpus)
    side = str(tmp_path / "groups.parquet")
    pq.write_table(pa.table({"doc_id": t.column("doc_id"),
                             "grp": [f"g{i % 4}" for i in range(n)]}), side)
    out = str(tmp_path / "idx")
    build_index(corpus, out, text_col="text", id_col="doc_id",
                stored_cols=["pop"], docs_per_segment=25)
    return out, texts, side


def _spy_parquet_reads(monkeypatch):
    """Record the file of every ``pyarrow.parquet`` / ``pyarrow.dataset``
    data read (schema and footer reads are not recorded)."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    seen = []

    def wrap(fn, source_of):
        def spy(*args, **kwargs):
            seen.append(str(source_of(*args, **kwargs)))
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(pq, "read_table", wrap(
        pq.read_table, lambda source, *a, **kw: source))
    monkeypatch.setattr(pads, "dataset", wrap(
        pads.dataset, lambda source, *a, **kw: source))
    init = pq.ParquetFile.__init__

    def remember(self, source, *args, **kwargs):
        self._spied_source = source
        init(self, source, *args, **kwargs)

    monkeypatch.setattr(pq.ParquetFile, "__init__", remember)
    for name in ("read", "read_row_group", "read_row_groups",
                 "iter_batches"):
        monkeypatch.setattr(pq.ParquetFile, name, wrap(
            getattr(pq.ParquetFile, name),
            lambda self, *a, **kw: getattr(self, "_spied_source", "?")))
    return seen


@pytest.mark.parametrize("name", ["delete", "soft_delete", "dv_update",
                                  "stored"])
def test_id_keyed_write_pass_reads_no_postings(stored, monkeypatch, name):
    """An id-keyed write collector needs ``doc_id`` and the tombstones
    only: its readers never read ``postings.parquet``."""
    from functools import partial

    from lucene_solr_ray.index import atomic, deletes, docvalues, sidecars
    from lucene_solr_ray.search.reader import SegmentReader

    out, _, _ = stored
    ids = np.array([3, 30, 31, 77, 119], dtype=np.int64)
    tombstones = partial(deletes._collect_tombstones, query=None,
                         stats=None, ids=ids)
    collect = {
        "delete": partial(tombstones, kind=sidecars.DELETES),
        "soft_delete": partial(tombstones, kind=sidecars.SOFT),
        "dv_update": partial(docvalues._collect_dv_updates, field="pop",
                             ids=ids, id_values=ids * 10),
        "stored": partial(atomic._collect_stored, ids=ids,
                          columns=["pop"]),
    }[name]
    seg_dirs = Index(out).seg_dirs

    def run():
        return collect((SegmentReader(d), o) for o, d in enumerate(seg_dirs))

    want = run()
    seen = _spy_parquet_reads(monkeypatch)
    got = run()
    assert got.equals(want)
    assert seen, "the spy saw no reads"
    assert not [p for p in seen if p.endswith("postings.parquet")]


def test_open_reader_view_is_fixed(built):
    """A reader's live set is the commit it opened on: a delete committed
    after open changes only readers opened later."""
    from lucene_solr_ray.search.query import TermQuery
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.scorer import score_segment

    out, _ = built
    idx = Index(out)
    seg = idx.seg_dirs[0]
    (q,), stats = idx.prepare([TermQuery("merge")])
    probe = SegmentReader(seg)
    ids = np.sort(probe.doc_ids)
    want_live = probe.live_ords(ids)
    want_hits = score_segment(probe, q, stats)
    victims = np.sort(probe.doc_ids[want_hits[0][:3]])
    assert len(victims) == 3

    reader = SegmentReader(seg)  # opened before the delete, nothing read
    delete_doc_ids(out, victims.tolist())
    for got, want in zip(reader.live_ords(ids), want_live):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(score_segment(reader, q, stats), want_hits):
        np.testing.assert_array_equal(got, want)

    fresh = SegmentReader(seg)
    live_ids = fresh.doc_ids[fresh.live_ords(ids)[0]]
    assert not set(victims.tolist()) & set(live_ids.tolist())
    assert len(live_ids) == len(want_live[0]) - 3
    assert not set(victims.tolist()) & set(
        fresh.doc_ids[score_segment(fresh, q, stats)[0]].tolist())


def test_open_reader_sort_keys_are_fixed(ray_session, tmp_path):
    """A reader's doc values are the commit it opened on: a doc-values
    update committed after open leaves its sort keys as they were."""
    from lucene_solr_ray.index.docvalues import update_numeric_docvalue
    from lucene_solr_ray.search.query import TermQuery
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.searcher import _collect_field_sort

    corpus, _ = _mk_corpus(tmp_path, seed=3, prio=True)
    out = str(tmp_path / "idx")
    build_index(corpus, out, text_col="text", id_col="doc_id",
                stored_cols=["prio"], docs_per_segment=30)
    idx = Index(out)
    (q,), stats = idx.prepare([TermQuery("merge")])

    def top(reader):
        return _collect_field_sort([(reader, 0)], [(0, q, 5)], stats,
                                   [("prio", True)]).column(
                                       "sort_0").to_pylist()

    reader = SegmentReader(idx.seg_dirs[0])
    assert top(reader) == [498, 354, 353, 345, 331]
    update_numeric_docvalue(out, "merge", "prio", 7)
    assert top(reader) == [498, 354, 353, 345, 331]
    assert top(SegmentReader(idx.seg_dirs[0])) == [7] * 5


def test_open_reader_reads_after_its_segment_is_dropped(built, tmp_path):
    """A reader keeps its segment's files open: a merge or ``vacuum``
    that removes the directory after open leaves every lazy part
    readable."""
    import shutil

    from lucene_solr_ray.search.reader import SegmentReader

    out, _ = built
    src = Index(out).seg_dirs[0]
    seg = str(tmp_path / "seg")
    shutil.copytree(src, seg)
    want = SegmentReader(src)
    reader = SegmentReader(seg)  # nothing but the sidecars read yet
    shutil.rmtree(seg)
    np.testing.assert_array_equal(reader.doc_ids, want.doc_ids)
    np.testing.assert_array_equal(reader.norms, want.norms)
    assert reader.terms == want.terms
    for term in want.terms:
        got_ords, got_pos = reader.positions(term)
        want_ords, want_pos = want.positions(term)
        np.testing.assert_array_equal(got_ords, want_ords)
        np.testing.assert_array_equal(got_pos.flat, want_pos.flat)


def test_open_reader_points_after_its_segment_is_dropped(ray_session,
                                                        tmp_path):
    """A reader keeps ``points.parquet`` open too: after its directory is
    dropped, a numeric range query still finds its hits."""
    import shutil

    import pyarrow.parquet as pq

    from lucene_solr_ray.search.query import PointRangeQuery
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.scorer import GlobalStats, score_segment

    n = 40
    rng = random.Random(11)
    sizes = [rng.randint(0, 1000) for _ in range(n)]
    p = str(tmp_path / "c.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": [" ".join(rng.choice(WORDS) for _ in range(5))
                 for _ in range(n)],
        "size": pa.array(sizes, pa.int64())}), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                numeric_fields={"size": "size"}, docs_per_segment=n)
    src = Index(out).seg_dirs[0]
    seg = str(tmp_path / "seg")
    shutil.copytree(src, seg)
    want = SegmentReader(src)
    reader = SegmentReader(seg)
    shutil.rmtree(seg)
    got = reader.points("size")
    assert got is not None
    for g, w in zip(got, want.points("size")):
        np.testing.assert_array_equal(g, w)
    assert reader.points("absent") is None
    q = PointRangeQuery("size", 100, 300)
    ords, _ = score_segment(
        reader, q, GlobalStats(doc_count=n, sum_total_term_freq=1))
    assert sorted(reader.doc_ids[ords].tolist()) == [
        i for i, s in enumerate(sizes) if 100 <= s <= 300]


def test_count_sort_grouped_see_deletes_between_calls(stored):
    """``count_hits``, ``search_by_field`` and ``search_grouped`` on one
    ``Index`` drop a doc hard-deleted between two calls, and still see a
    soft-deleted one (the unwrapped view is the default, as in
    ``Index.search``)."""
    from lucene_solr_ray.index.softdeletes import soft_delete_doc_ids
    from lucene_solr_ray.search.searcher import (
        count_hits,
        search_by_field,
        search_grouped,
    )

    out, texts, side = stored
    idx = Index(out)

    def views():
        n = count_hits(idx, {0: "merge"}).column("total_hits")[0].as_py()
        by_field = search_by_field(idx, {0: "merge"}, "pop", k=1000)
        grouped = search_grouped(idx, "merge", side, "grp", top_groups=100,
                                 docs_per_group=1000)
        return (n, set(by_field.column("doc_id").to_pylist()),
                set(grouped.column("doc_id").to_pylist()))

    want = {i for i, t in enumerate(texts) if "merge" in t.split()}
    assert views() == (len(want), want, want)
    gone, soft = sorted(want)[:2]
    delete_doc_ids(out, [gone])
    soft_delete_doc_ids(out, [soft])
    left = want - {gone}
    assert soft in left
    assert views() == (len(left), left, left)
