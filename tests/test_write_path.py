"""The update writes share one flush: ``add_documents``,
``update_documents`` and ``soft_update_documents`` write their segment
under the index's recorded config (analyzer, posting options, stored
columns) and refuse the index shapes the flush cannot represent."""

import filecmp
import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.check import check_index
from lucene_solr_ray.index.deletes import add_documents, update_documents
from lucene_solr_ray.index.manifest import (
    commit_manifest,
    list_generations,
    read_latest_manifest,
    segment_dir_name,
)
from lucene_solr_ray.index.merge import merge_segments
from lucene_solr_ray.index.softdeletes import soft_update_documents
from lucene_solr_ray.search.reader import SegmentReader
from lucene_solr_ray.search.searcher import Index, search_by_field

WORDS = ["merge", "sort", "window", "batch", "key", "fast", "slow", "scan"]
N = 60
#: replacement (update, soft update) or new (add) docs, all with "merge"
NEW_TEXTS = ["merge fresh window", "merge merge key"]

WRITES = {
    "add": lambda out, texts: add_documents(out, [N, N + 1], texts),
    "update": lambda out, texts: update_documents(out, [3, 5], texts),
    "soft_update": lambda out, texts: soft_update_documents(
        out, [3, 5], texts),
}


def _corpus(tmp_path):
    """N random docs; doc 0 has no ``prio``."""
    rng = random.Random(5)
    texts = [" ".join(rng.choice(WORDS) for _ in range(rng.randint(3, 9)))
             for _ in range(N)]
    cols = {"doc_id": pa.array(range(N), pa.int64()),
            "text": pa.array(texts),
            "prio": pa.array([None] + [rng.randint(0, 500)
                                       for _ in range(N - 1)], pa.int64()),
            "lang": pa.array([rng.choice(["en", "de"]) for _ in range(N)])}
    p = str(tmp_path / "corpus.parquet")
    pq.write_table(pa.table(cols), p)
    return p


def _merge_all(out):
    m = read_latest_manifest(out)
    ids = [s["segment_id"] for s in m["segments"]]
    meta = merge_segments(out, ids, max(ids) + 1)
    commit_manifest(out, [meta])
    return os.path.join(out, segment_dir_name(meta["segment_id"]))


def _new_segment(out):
    m = read_latest_manifest(out)
    return os.path.join(out, segment_dir_name(m["segments"][-1]["segment_id"]))


@pytest.mark.parametrize("op", sorted(WRITES))
def test_offsets_index_flush_keeps_offsets(ray_session, tmp_path, op):
    """On an offsets-enabled index the flushed segment carries offsets,
    so ``offsets()`` reads it and the segments merge."""
    out = str(tmp_path / "idx")
    build_index(_corpus(tmp_path), out, text_col="text", id_col="doc_id",
                with_offsets=True, docs_per_segment=25)
    WRITES[op](out, NEW_TEXTS)
    ords, off = SegmentReader(_new_segment(out)).offsets("window")
    assert list(ords) == [0]
    np.testing.assert_array_equal(off(0), [[12, 18]])
    merged = SegmentReader(_merge_all(out))
    assert merged.offsets("fresh") is not None
    assert check_index(out)["ok"]


@pytest.mark.parametrize("op", sorted(WRITES))
def test_positionless_index_flush_writes_no_positions(ray_session,
                                                      tmp_path, op):
    """On an index built without positions the flushed segment has none
    either, so the segments merge."""
    out = str(tmp_path / "idx")
    build_index(_corpus(tmp_path), out, text_col="text", id_col="doc_id",
                with_positions=False, docs_per_segment=25)
    WRITES[op](out, NEW_TEXTS)
    col = pq.read_table(os.path.join(_new_segment(out), "postings.parquet"),
                        columns=["positions"]).column(0)
    assert col.null_count == len(col) > 0
    _merge_all(out)
    assert check_index(out)["ok"]
    assert Index(out).search({0: "fresh"}, k=5).column(
        "doc_id").to_pylist() == [N if op == "add" else 3]


def test_custom_chain_must_be_passed(ray_session, tmp_path):
    """A custom analyzer chain cannot be rebuilt from its recorded spec:
    a write without it raises, a write with it lands."""
    from lucene_solr_ray.analysis.charfilter import MappingCharFilter
    from lucene_solr_ray.analysis.filters import CustomAnalyzer

    def chain():
        return CustomAnalyzer(
            char_filters=[MappingCharFilter({"colour": "color"})])

    out = str(tmp_path / "idx")
    build_index(_corpus(tmp_path), out, text_col="text", id_col="doc_id",
                analyzer=chain())
    with pytest.raises(ValueError, match="custom analyzer"):
        add_documents(out, [N], ["colour"])
    add_documents(out, [N], ["colour"], analyzer=chain())
    assert Index(out).search({0: "color"}, k=5, analyzer=chain()).column(
        "doc_id").to_pylist() == [N]


def test_flush_on_empty_index(ray_session, tmp_path):
    """An index built from an empty corpus has no segment to take the
    config from: the flush writes with the build defaults."""
    p = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({"doc_id": pa.array([], pa.int64()),
                             "text": pa.array([], pa.string())}), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id")
    assert read_latest_manifest(out)["segments"] == []
    add_documents(out, [0, 1], NEW_TEXTS)
    update_documents(out, [0], ["merge slow"])
    hits = Index(out).search({0: '"merge slow"', 1: "merge"}, k=5)
    assert hits.column("doc_id").to_pylist() == [0, 1, 0]


@pytest.mark.parametrize("op", sorted(WRITES))
def test_stored_index_flush_keeps_stored_columns(ray_session, tmp_path,
                                                 op):
    """On an index storing ``prio`` the flushed docmeta has the column:
    docs written without a value sort as missing (after every value,
    ascending), and sort search and merge work before and after the
    merge."""
    out = str(tmp_path / "idx")
    build_index(_corpus(tmp_path), out, text_col="text", id_col="doc_id",
                stored_cols=["prio"], docs_per_segment=25)
    WRITES[op](out, NEW_TEXTS)
    new_ids = [N, N + 1] if op == "add" else [3, 5]
    dm = pq.read_table(os.path.join(_new_segment(out), "docmeta.parquet"))
    assert dm.schema.field("prio").type == pa.int64()
    assert dm.column("prio").null_count == 2

    def tail():
        got = search_by_field(Index(out), {0: "merge"}, "prio",
                              descending=False, k=1000)
        return got.column("doc_id").to_pylist()[-2:]

    assert tail() == new_ids
    _merge_all(out)
    assert tail() == new_ids
    assert check_index(out)["ok"]


def test_update_documents_stored_values_and_unknown_column(ray_session,
                                                           tmp_path):
    """Passed stored values land in the stored type; a column the index
    does not store is refused before anything is written."""
    out = str(tmp_path / "idx")
    build_index(_corpus(tmp_path), out, text_col="text", id_col="doc_id",
                stored_cols=["prio"], docs_per_segment=25)
    update_documents(out, [3, 5], NEW_TEXTS, stored={"prio": [7, 9]})
    dm = pq.read_table(os.path.join(_new_segment(out), "docmeta.parquet"))
    assert dm.column("prio").to_pylist() == [7, 9]
    gens = list_generations(out)
    with pytest.raises(ValueError, match="nosuch"):
        update_documents(out, [3], ["merge"], stored={"nosuch": [1]})
    assert list_generations(out) == gens


def test_atomic_reindex_keeps_a_missing_stored_value(ray_session,
                                                     tmp_path):
    """An atomic text update re-indexes doc 0, whose int ``prio`` is
    missing (read back as NaN): the replacement stores a null int, so
    the segments still merge."""
    from lucene_solr_ray.index.atomic import atomic_update_documents

    corpus = _corpus(tmp_path)
    out = str(tmp_path / "idx")
    build_index(corpus, out, text_col="text", id_col="doc_id",
                stored_cols=["prio"], docs_per_segment=25)
    atomic_update_documents(out, corpus,
                            [{"doc_id": 0, "text": {"add": "zzadded"}}])
    dm = pq.read_table(os.path.join(_new_segment(out), "docmeta.parquet"))
    assert dm.schema.field("prio").type == pa.int64()
    assert dm.column("prio").to_pylist() == [None]
    _merge_all(out)
    assert Index(out).search({0: "zzadded"}, k=5).column(
        "doc_id").to_pylist() == [0]


@pytest.mark.parametrize("op", sorted(WRITES))
@pytest.mark.parametrize("shape", ["multi_field", "points"])
def test_flush_refuses_unrepresentable_index(ray_session, tmp_path, op,
                                             shape):
    """The flush writes one text field and no points, so it refuses a
    multi-field or a points index instead of writing a segment whose
    docs silently stop matching field or range queries."""
    out = str(tmp_path / "idx")
    extra = ({"extra_fields": {"lang": "lang"}} if shape == "multi_field"
             else {"numeric_fields": {"prio": "prio"}})
    build_index(_corpus(tmp_path), out, text_col="text", id_col="doc_id",
                docs_per_segment=25, **extra)
    gens = list_generations(out)
    match = "multi-field" if shape == "multi_field" else "point"
    with pytest.raises(ValueError, match=match):
        WRITES[op](out, NEW_TEXTS)
    assert list_generations(out) == gens


@pytest.mark.parametrize("op", ["add", "update"])
def test_flush_writes_what_build_writes(ray_session, tmp_path, op):
    """On a default index (recorded StandardAnalyzer, no stored columns,
    no offsets) the flush writes the files ``build_segment_tables`` +
    ``write_segment_dir`` write for the same docs and meta."""
    from lucene_solr_ray.analysis.analyzer import StandardAnalyzer
    from lucene_solr_ray.index.manifest import write_segment_dir
    from lucene_solr_ray.index.segment import build_segment_tables

    out = str(tmp_path / "idx")
    build_index(_corpus(tmp_path), out, text_col="text", id_col="doc_id",
                docs_per_segment=25)
    before = read_latest_manifest(out)
    WRITES[op](out, NEW_TEXTS)
    m = read_latest_manifest(out)
    entry = m["segments"][-1]
    ids = [N, N + 1] if op == "add" else [3, 5]
    lineage = {"added_docs": 2, **({"update": True} if op == "update"
                                   else {})}
    seg = build_segment_tables(ids, NEW_TEXTS, StandardAnalyzer())
    meta = {"segment_id": entry["segment_id"], "stats": seg.stats,
            "analyzer": StandardAnalyzer().spec(), "lineage": lineage}
    assert entry == meta
    ref = str(tmp_path / "ref")
    os.makedirs(ref)
    write_segment_dir(ref, meta["segment_id"], seg.postings, seg.docmeta,
                      meta)
    name = segment_dir_name(meta["segment_id"])
    for f in ("postings.parquet", "docmeta.parquet", "segment.json"):
        assert filecmp.cmp(os.path.join(ref, name, f),
                           os.path.join(out, name, f), shallow=False), f
    # the base entries change only by the tombstone pass's del_gen rows
    bumped = 0
    for old, new in zip(before["segments"], m["segments"]):
        new = dict(new)
        gen, count = new.pop("del_gen", 0), new.pop("del_count", 0)
        assert gen in (0, 1) and (count > 0) == (gen == 1)
        bumped += count
        assert new == old
    assert bumped == (2 if op == "update" else 0)
