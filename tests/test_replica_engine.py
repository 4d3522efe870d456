"""Replica-aware QueryEngine (round 5).

Reference: ``lucene/replicator/src/java/org/apache/lucene/replicator/
IndexRevision.java`` — replicas exist to SERVE searches; a stale replica
must not serve, and a failed replica server fails over to the primary.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture()
def replicated(ray_session, tmp_path):
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.manifest import replicate

    docs = {i: f"word{i % 7} merge common text" for i in range(40)}
    p = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(sorted(docs), pa.int64()),
            "text": pa.array([docs[i] for i in sorted(docs)]),
        }),
        p,
    )
    primary = str(tmp_path / "primary")
    build_index(p, primary, text_col="text", id_col="doc_id",
                docs_per_segment=10)
    replica = str(tmp_path / "replica")
    replicate(primary, replica)
    return primary, replica


def test_replica_serving_identity(replicated):
    from lucene_solr_ray.state.query_engine import QueryEngine

    primary, replica = replicated
    e0 = QueryEngine(primary, num_actors=2)
    e1 = QueryEngine(primary, num_actors=2, replicas=[replica])
    try:
        assert e1._replica_roots == [replica]
        # actors actually read from the replica's directories
        q = {0: "merge", 1: "word3 common"}
        a = e0.search(q, k=10)
        b = e1.search(q, k=10)
        assert a.equals(b)
    finally:
        e0.shutdown()
        e1.shutdown()


def test_stale_replica_dropped(replicated):
    from lucene_solr_ray.index.deletes import delete_doc_ids
    from lucene_solr_ray.state.query_engine import QueryEngine

    primary, replica = replicated
    # advance the primary past the replica's commit point
    delete_doc_ids(primary, [5])
    eng = QueryEngine(primary, num_actors=2, replicas=[replica])
    try:
        assert eng._replica_roots == []      # stale: must not serve
        hits = eng.search({0: "merge"}, k=100)
        assert 5 not in hits.column("doc_id").to_pylist()
    finally:
        eng.shutdown()


def test_failover_to_primary(replicated):
    import ray

    from lucene_solr_ray.search.searcher import Index
    from lucene_solr_ray.state.query_engine import QueryEngine

    primary, replica = replicated
    eng = QueryEngine(primary, num_actors=2, replicas=[replica])
    try:
        calls = []
        gather = eng._gather
        eng._gather = lambda m, *a: calls.append(m) or gather(m, *a)
        q = {0: "merge", 1: "word3 common", 2: "word*", 3: "wrod3~1"}
        assert eng.search(q, k=10).equals(Index(primary).search(q, k=10))
        # kill one serving actor: the next first-seen batch must fail
        # over to a rebuilt PRIMARY actor and match the batch search,
        # with the engine's term dictionary (read before the kill)
        # unchanged; a repeat would be answered from the driver's result
        # cache and never reach the dead actor
        killed = eng.actors[0]
        ray.kill(killed)
        q2 = {0: "common", 1: "word4 merge", 2: "wor*", 3: "wrod5~1"}
        after = eng.search(q2, k=10)
        assert after.equals(Index(primary).search(q2, k=10))
        assert calls == ["search", "search"]
        assert eng.actors[0] is not killed
        assert eng.stats()["failovers"] == 1
        # the rebuilt actor serves from the primary dirs: it answered
        # the whole batch, so a repeat makes no call at all
        assert eng.search(q2, k=10).equals(after)
        assert calls == ["search", "search"]
    finally:
        eng.shutdown()
