"""Id-keyed write passes run on the driver.

A delete, soft delete, update or doc-values write by doc id reads only
each segment's ``doc_id`` column and its sidecars, so it runs its
collector over ``Index.readers()`` in-process and starts no Ray Data
job; a query-keyed pass still scans.  The two executors must write the
same bytes: the collectors and their manifest fold are shared."""

import filecmp
import os
import shutil
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index import atomic, deletes, docvalues, sidecars
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.deletes import (
    delete_by_query,
    delete_doc_ids,
    update_documents,
)
from lucene_solr_ray.index.docvalues import (
    update_numeric_docvalue,
    update_numeric_docvalues_by_id,
)
from lucene_solr_ray.index.softdeletes import (
    soft_delete_by_query,
    soft_delete_doc_ids,
    soft_update_documents,
)
from lucene_solr_ray.search.searcher import Index

WORDS = ["merge", "sort", "window", "batch", "key", "fast", "slow", "scan"]
N = 120


@pytest.fixture()
def index(ray_session, tmp_path):
    """A five-segment index storing an int column ``prio``; returns
    (index dir, corpus path)."""
    rng = np.random.default_rng(5)
    corpus = str(tmp_path / "corpus.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(N), pa.int64()),
        "text": [" ".join(rng.choice(WORDS, 6)) for _ in range(N)],
        "prio": pa.array(rng.integers(0, 500, N), pa.int64()),
    }), corpus)
    out = str(tmp_path / "idx")
    build_index(corpus, out, text_col="text", id_col="doc_id",
                stored_cols=["prio"], docs_per_segment=25)
    return out, corpus


def _count_datasets(monkeypatch):
    import ray.data

    made = []
    from_items = ray.data.from_items

    def spy(*a, **kw):
        made.append(1)
        return from_items(*a, **kw)

    monkeypatch.setattr(ray.data, "from_items", spy)
    return made


WRITES = {
    "delete_doc_ids": lambda d, c: delete_doc_ids(d, [3, 30, 77]),
    "soft_delete_doc_ids": lambda d, c: soft_delete_doc_ids(d, [4, 31]),
    "update_documents": lambda d, c: update_documents(
        d, [5, 32], ["merge fresh", "sort fresh"]),
    "soft_update_documents": lambda d, c: soft_update_documents(
        d, [6], ["merge fresh"]),
    "update_numeric_docvalues_by_id": lambda d, c:
        update_numeric_docvalues_by_id(d, "prio", {7: 1, 33: 2}),
    "atomic_in_place": lambda d, c: atomic.atomic_update_documents(
        d, c, [{"doc_id": 8, "prio": {"inc": 5}},
               {"doc_id": 34, "prio": {"set": 9}}]),
    "atomic_reindex": lambda d, c: atomic.atomic_update_documents(
        d, c, [{"doc_id": 9, "text": {"add": "fresh"},
                "prio": {"inc": 1}}]),
}


@pytest.mark.parametrize("name", sorted(WRITES))
def test_id_keyed_write_starts_no_dataset(index, monkeypatch, name):
    out, corpus = index
    gen = Index(out).manifest["generation"]
    made = _count_datasets(monkeypatch)
    WRITES[name](out, corpus)
    assert made == []
    assert Index(out).manifest["generation"] > gen


def test_query_keyed_write_scans_once(index, monkeypatch):
    out, _ = index
    made = _count_datasets(monkeypatch)
    delete_by_query(out, "merge")
    assert len(made) == 1


def _prepared_copies(out, root):
    """Two copies of ``out`` that already hold hard and soft tombstones
    and a ``prio`` overlay, each written by a query-keyed pass."""
    delete_by_query(out, "window")
    soft_delete_by_query(out, "batch")
    update_numeric_docvalue(out, "slow", "prio", 1000)
    copies = []
    for side in ("scan", "driver"):
        shutil.copytree(out, os.path.join(root, side))
        copies.append(os.path.join(root, side))
    return copies


def _same_tree(a, b):
    names = sorted(os.path.relpath(os.path.join(r, f), a)
                   for r, _, fs in os.walk(a) for f in fs)
    assert names == sorted(os.path.relpath(os.path.join(r, f), b)
                           for r, _, fs in os.walk(b) for f in fs)
    for n in names:
        assert filecmp.cmp(os.path.join(a, n), os.path.join(b, n),
                           shallow=False), n


def test_driver_pass_writes_what_scan_writes(index, tmp_path):
    """Each id-keyed collector through ``Index.scan`` in one copy and
    through ``Index.readers()`` in the other: every sidecar file and
    manifest compares equal, and the stored-column read returns the same
    rows."""
    out, _ = index
    by_scan, by_driver = _prepared_copies(out, str(tmp_path))
    ids = np.arange(0, N, 3, dtype=np.int64)
    collectors = [
        partial(deletes._collect_tombstones, kind=sidecars.DELETES,
                query=None, stats=None, ids=ids[::2]),
        partial(deletes._collect_tombstones, kind=sidecars.SOFT,
                query=None, stats=None, ids=ids[1::2]),
        partial(docvalues._collect_dv_updates, field="prio", ids=ids,
                id_values=ids * 10),
    ]
    for collect in collectors:
        idx = Index(by_scan)
        sidecars.write_pass(idx, idx.scan(collect).take_all())
        idx = Index(by_driver)
        sidecars.write_pass(idx, collect(idx.readers()).to_pylist())
        _same_tree(by_scan, by_driver)
    stored = partial(atomic._collect_stored, ids=np.arange(N),
                     columns=["prio"])
    got = stored(Index(by_driver).readers()).to_pylist()
    want = sorted(Index(by_scan).scan(stored).take_all(),
                  key=lambda r: r["doc_id"])
    assert sorted(got, key=lambda r: r["doc_id"]) == want
    assert len(want) == Index(by_scan).manifest["live_doc_count"]


def test_collect_stored_of_no_live_id_keeps_the_schema(index):
    out, _ = index
    delete_doc_ids(out, [2])
    t = atomic._collect_stored(Index(out).readers(), ids=np.array([2, 999]),
                               columns=["prio"])
    assert t.num_rows == 0
    assert t.schema == pa.schema([("doc_id", pa.int64()),
                                  ("prio", pa.int64())])
