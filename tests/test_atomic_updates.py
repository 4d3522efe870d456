"""Atomic updates + TolerantUpdateProcessor (round 5).

Reference semantics: ``AtomicUpdateDocumentMerger.java:57`` (get current
doc, merge set/add/remove/inc, re-index; numeric-DV-only updates go
in-place) and ``TolerantUpdateProcessor.java:72`` (per-doc failure
isolation with maxErrors).
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.index.atomic import (
    atomic_update_documents,
    get_current_documents,
    stored_columns,
)
from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search.searcher import Index, search_by_field


@pytest.fixture()
def small_index(ray_session, tmp_path):
    docs = {
        0: ("alpha beta", 10),
        1: ("gamma delta", 20),
        2: ("alpha gamma", 30),
        3: ("beta beta", 40),
    }
    p = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(sorted(docs), pa.int64()),
            "text": pa.array([docs[i][0] for i in sorted(docs)]),
            "price": pa.array([docs[i][1] for i in sorted(docs)],
                              pa.int64()),
        }),
        p,
    )
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                stored_cols=["price"], docs_per_segment=2)
    return out, p


def _prices(idx_dir,
            q="alpha OR beta OR gamma OR delta OR fresh OR words OR mixed"):
    t = search_by_field(Index(idx_dir), {0: q}, "price",
                        descending=False, k=100)
    return dict(zip(t.column("doc_id").to_pylist(),
                    [int(v) for v in t.column("sort_value").to_pylist()]))


def test_inplace_set_and_inc(small_index):
    out, corpus = small_index
    atomic_update_documents(out, corpus, [
        {"doc_id": 0, "price": {"set": 99}},
        {"doc_id": 1, "price": {"inc": 5}},
    ])
    p = _prices(out)
    assert p[0] == 99 and p[1] == 25 and p[2] == 30
    # chained inc reads through the overlay — exact accumulation
    atomic_update_documents(out, corpus, [
        {"doc_id": 1, "price": {"inc": -10}},
    ])
    assert _prices(out)[1] == 15


def test_text_add_remove_set(small_index):
    out, corpus = small_index
    atomic_update_documents(out, corpus, [
        {"doc_id": 0, "text": {"add": "zadded"}},
        {"doc_id": 3, "text": {"remove": "beta"}},
        {"doc_id": 1, "text": {"set": "fresh words"}},
    ])
    idx = Index(out)
    assert idx.search({0: "zadded"}, k=10).column(
        "doc_id").to_pylist() == [0]
    # doc 3's betas removed; doc 0 still has one
    assert idx.search({0: "beta"}, k=10).column(
        "doc_id").to_pylist() == [0]
    assert idx.search({0: "fresh"}, k=10).column(
        "doc_id").to_pylist() == [1]
    assert idx.search({0: "gamma"}, k=10).column(
        "doc_id").to_pylist() == [2]  # delta gone from 1
    # stored column survived the re-index
    assert _prices(out)[0] == 10
    # realtime-get sees the docstore delta, not the stale corpus
    cur = get_current_documents(out, corpus, [0, 1, 2])
    assert cur[0] == "alpha beta zadded"
    assert cur[1] == "fresh words"
    assert cur[2] == "alpha gamma"


def test_chained_text_updates_use_delta(small_index):
    out, corpus = small_index
    atomic_update_documents(out, corpus, [
        {"doc_id": 0, "text": {"add": "first"}},
    ])
    atomic_update_documents(out, corpus, [
        {"doc_id": 0, "text": {"add": "second"}},
    ])
    cur = get_current_documents(out, corpus, [0])
    assert cur[0] == "alpha beta first second"
    idx = Index(out)
    assert idx.search({0: "first"}, k=10).column(
        "doc_id").to_pylist() == [0]
    assert idx.search({0: "second"}, k=10).column(
        "doc_id").to_pylist() == [0]


def test_two_reindex_updates_to_one_doc_merge(small_index):
    out, corpus = small_index
    live = Index(out).manifest["live_doc_count"]
    # two re-index updates to one doc in ONE call: the second merges from
    # the first's result, and one replacement doc is written
    manifest, errors = atomic_update_documents(out, corpus, [
        {"doc_id": 1, "text": {"add": "zfirst"}},
        {"doc_id": 1, "text": {"add": "zsecond"}},
    ])
    assert errors == []
    assert manifest["live_doc_count"] == live
    idx = Index(out)
    for word in ("zfirst", "zsecond", "gamma"):
        assert 1 in idx.search({0: word}, k=10).column(
            "doc_id").to_pylist()
    for word in ("zfirst", "zsecond"):
        assert idx.search({0: word}, k=10).column(
            "doc_id").to_pylist() == [1]
    assert get_current_documents(out, corpus, [1])[1] == (
        "gamma delta zfirst zsecond"
    )
    assert _prices(out)[1] == 20


@pytest.fixture()
def two_numeric_index(ray_session, tmp_path):
    p = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["alpha", "beta", "gamma"]),
            "price": pa.array([10, 20, 30], pa.int64()),
            "stock": pa.array([1, 2, 3], pa.int64()),
        }),
        p,
    )
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                stored_cols=["price", "stock"], docs_per_segment=2)
    return out, p


def test_tolerant_inplace_update_is_all_or_nothing(two_numeric_index):
    out, corpus = two_numeric_index
    gen = Index(out).manifest["generation"]
    # docs 9 and 7 do not exist: an inc on them fails the WHOLE update
    # (doc 9's set is not applied, so nothing is committed), and each
    # failed update is reported once
    failing = [
        {"doc_id": 9, "price": {"set": 99}, "stock": {"inc": 1}},
        {"doc_id": 7, "price": {"inc": 1}, "stock": {"inc": 1}},
    ]
    manifest, errors = atomic_update_documents(out, corpus, failing,
                                               tolerant=True)
    assert [e["doc_id"] for e in errors] == [9, 7]
    assert manifest["generation"] == gen
    assert Index(out).manifest["generation"] == gen
    # next to a good update, the failing ones are still isolated
    _, errors = atomic_update_documents(out, corpus, failing + [
        {"doc_id": 0, "price": {"set": 11}, "stock": {"inc": 4}},
    ], tolerant=True)
    assert [e["doc_id"] for e in errors] == [9, 7]
    q = "alpha OR beta OR gamma"
    assert _prices(out, q) == {0: 11, 1: 20, 2: 30}
    t = search_by_field(Index(out), {0: q}, "stock", descending=False,
                        k=100)
    assert dict(zip(t.column("doc_id").to_pylist(),
                    [int(v) for v in t.column("sort_value").to_pylist()])
                ) == {0: 5, 1: 2, 2: 3}


def test_mixed_update_reindexes_with_stored(small_index):
    out, corpus = small_index
    # text + numeric in one update: the re-index path carries the
    # mutated stored value into the replacement segment
    atomic_update_documents(out, corpus, [
        {"doc_id": 2, "text": {"add": "mixed"}, "price": {"inc": 7}},
    ])
    assert _prices(out)[2] == 37
    assert Index(out).search({0: "mixed"}, k=10).column(
        "doc_id").to_pylist() == [2]


def test_tolerant_isolates_failures(small_index):
    out, corpus = small_index
    manifest, errors = atomic_update_documents(out, corpus, [
        {"doc_id": 0, "text": {"badop": "x"}},        # unknown op
        {"doc_id": 1, "price": {"inc": "NaN"}},       # non-numeric
        {"doc_id": 2, "nosuch": {"set": 1}},          # unknown field
        {"doc_id": 3, "price": {"set": 123}},         # fine
    ], tolerant=True)
    assert len(errors) == 3
    assert {e["doc_id"] for e in errors} == {0, 1, 2}
    assert _prices(out)[3] == 123                      # the good one landed
    assert _prices(out)[0] == 10                       # bad ones isolated


def test_intolerant_raises_before_applying(small_index):
    out, corpus = small_index
    with pytest.raises(ValueError):
        atomic_update_documents(out, corpus, [
            {"doc_id": 0, "text": {"badop": "x"}},
            {"doc_id": 3, "price": {"set": 123}},
        ])
    assert _prices(out)[3] == 40   # nothing applied


def test_max_errors(small_index):
    out, corpus = small_index
    with pytest.raises(ValueError, match="maxErrors"):
        atomic_update_documents(out, corpus, [
            {"doc_id": 0, "text": {"badop": "x"}},
            {"doc_id": 1, "text": {"badop": "x"}},
        ], tolerant=True, max_errors=1)


def test_stored_columns_discovery(small_index):
    out, _ = small_index
    assert stored_columns(out) == ["price"]


def test_update_of_no_live_id_reports_not_found_and_writes_nothing(
        small_index):
    """Doc 2 is in the corpus but deleted from the index, doc 9 is in
    neither: each update, in place or re-index, reports "doc not found"
    and no file or manifest is written."""
    import os

    from lucene_solr_ray.index.deletes import delete_doc_ids

    out, corpus = small_index
    delete_doc_ids(out, [2])

    def listing():
        return sorted(os.path.relpath(os.path.join(r, f), out)
                      for r, _, fs in os.walk(out) for f in fs)

    before, gen = listing(), Index(out).manifest["generation"]
    manifest, errors = atomic_update_documents(out, corpus, [
        {"doc_id": 2, "price": {"inc": 1}},
        {"doc_id": 9, "price": {"inc": 1}},
        {"doc_id": 2, "text": {"add": "fresh"}},
        {"doc_id": 9, "text": {"set": "fresh"}},
    ], tolerant=True)
    assert [e["doc_id"] for e in errors] == [2, 9, 2, 9]
    assert all("doc not found" in e["error"] for e in errors)
    assert manifest["generation"] == gen
    assert listing() == before
