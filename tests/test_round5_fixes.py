"""Round-5 regression tests for the round-4 ADVICE items.

Reference semantics:
- ``IndexWriter.softUpdateDocument`` (``lucene/core/src/java/org/apache/
  lucene/index/IndexWriter.java``) is atomic — the soft-delete markers
  and the replacement doc become visible in ONE commit point, with the
  writer's single configured analyzer chain applied to the replacement.
- ``CheckIndex`` reports real corruption; a hard tombstone shadowing a
  soft one is a legal state (merge setdiffs it), not corruption.
- ``SoftDeletesRetentionMergePolicy`` takes an arbitrary retention
  Query, including multi-term expansions (wildcard/prefix/fuzzy).
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_docs(tmp_path, docs):
    p = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(sorted(docs), pa.int64()),
            "text": pa.array([docs[i] for i in sorted(docs)]),
        }),
        p,
    )
    return p


def test_soft_update_single_commit(ray_session, tmp_path):
    """soft_update_documents folds the soft-delete bump and the new
    segment into ONE manifest generation (was: two commits, with a
    deleted-but-not-replaced window in between)."""
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.manifest import (
        list_generations,
        read_latest_manifest,
    )
    from lucene_solr_ray.index.softdeletes import soft_update_documents

    p = _write_docs(tmp_path, {0: "old text", 1: "other words"})
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id")
    gens_before = list_generations(out)
    m = soft_update_documents(out, [0], ["new text"])
    gens_after = list_generations(out)
    assert len(gens_after) == len(gens_before) + 1  # exactly one commit
    # and that one commit carries BOTH the soft bump and the new segment
    latest = read_latest_manifest(out)
    assert latest["generation"] == m["generation"]
    soft_counts = [
        int(s.get("soft_del_count", 0)) for s in latest["segments"]
    ]
    assert sum(soft_counts) == 1
    assert any(
        (s.get("lineage") or {}).get("soft_update") for s in latest["segments"]
    )


@pytest.mark.parametrize("op", ["add", "update", "soft_update"])
def test_soft_update_inherits_analyzer_and_options(ray_session, tmp_path,
                                                   op):
    """Added and replacement docs are analyzed with the RECORDED analyzer
    (EnglishAnalyzer here: 'running' stems to 'run'), not a default
    StandardAnalyzer: the three update writes share one flush."""
    from lucene_solr_ray.analysis.en import EnglishAnalyzer
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.deletes import add_documents, update_documents
    from lucene_solr_ray.index.softdeletes import soft_update_documents
    from lucene_solr_ray.search.searcher import Index

    p = _write_docs(tmp_path, {0: "walking dogs", 1: "sleeping cats"})
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                analyzer=EnglishAnalyzer())
    write = {"add": add_documents, "update": update_documents,
             "soft_update": soft_update_documents}[op]
    doc = 2 if op == "add" else 0
    write(out, [doc], ["running horses"])
    idx = Index(out)
    # 'run' only matches if the new doc was stemmed by EnglishAnalyzer
    hits = idx.search({0: "run"}, k=10, respect_soft_deletes=True,
                      analyzer=EnglishAnalyzer())
    assert hits.column("doc_id").to_pylist() == [doc]


def test_checkindex_soft_hard_overlap_is_warning(ray_session, tmp_path):
    """soft-delete then hard-delete the same doc: CheckIndex stays ok
    (the overlap is legal; merge hard-wins) but reports a warning."""
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.check import check_index
    from lucene_solr_ray.index.deletes import delete_doc_ids
    from lucene_solr_ray.index.softdeletes import soft_delete_doc_ids

    p = _write_docs(tmp_path, {0: "alpha", 1: "beta", 2: "gamma"})
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id")
    soft_delete_doc_ids(out, [1])
    delete_doc_ids(out, [1])
    rep = check_index(out)
    assert rep["ok"], rep["errors"]
    assert any("overlap" in w for w in rep["warnings"])


def test_collect_stats_rows_independent_of_segment_count(ray_session,
                                                         tmp_path):
    """The stats read sums every segment's (df, ttf) into one entry per
    term present: the same entries and values at 1 and at 12 segments,
    and none for a term absent from every segment."""
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import Index

    docs = {i: f"alpha beta word{i}" for i in range(24)}
    p = _write_docs(tmp_path, docs)
    one = str(tmp_path / "one_seg")
    many = str(tmp_path / "many_seg")
    build_index(p, one, text_col="text", id_col="doc_id",
                docs_per_segment=1000)
    build_index(p, many, text_col="text", id_col="doc_id",
                docs_per_segment=2)
    i1, im = Index(one), Index(many)
    assert len(im.seg_dirs) > 8 and len(i1.seg_dirs) == 1
    terms = ["alpha", "beta", "word3", "nosuchterm"]
    s1, e1 = i1.collect_stats(terms)
    sm, em = im.collect_stats(terms)
    assert e1 == em == {}

    def as_map(st):
        assert st.df.keys() == st.ttf.keys()
        return {t: (st.df[t], st.ttf[t]) for t in st.df}

    # one entry per term present despite 12× the segments
    assert as_map(s1) == as_map(sm) == {
        "alpha": (24, 24), "beta": (24, 24), "word3": (1, 1)}
    # and the search built on them is identical
    q = {0: "alpha beta", 1: "word3"}
    t1 = i1.search(q, k=5)
    tm = im.search(q, k=5)
    assert t1.column("doc_id").to_pylist() == tm.column("doc_id").to_pylist()


def test_query_elevation(ray_session, tmp_path):
    """QueryElevationComponent: pinned ids first in config order (scored
    even when organically below the cut, or injected when not matching),
    excluded ids absent, organic order preserved otherwise."""
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import Index, elevated_search

    docs = {i: ("merge " * (10 - i)).strip() for i in range(8)}
    docs[7] = "nothing relevant"          # pinned but does not match
    p = _write_docs(tmp_path, docs)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id")
    idx = Index(out)
    elev = {"merge": {"elevate": [5, 7], "exclude": [0]}}
    t = elevated_search(idx, "merge", elev, k=5)
    rows = t.to_pylist()
    assert [r["doc_id"] for r in rows[:2]] == [5, 7]
    assert rows[0]["elevated"] and rows[1]["elevated"]
    assert rows[1]["score"] == 0.0        # injected non-match
    assert rows[0]["score"] > 0.0         # pinned match keeps its score
    organic = [r["doc_id"] for r in rows[2:]]
    assert 0 not in organic and 5 not in organic and 7 not in organic
    # organic order: doc 1 has the most 'merge's among the remaining
    assert organic[0] == 1
    # a query with no elevation config behaves like plain search
    t2 = elevated_search(idx, "nothing", elev, k=3)
    assert [r["doc_id"] for r in t2.to_pylist()] == [7]


def test_graph_bfs_driver_rows_bounded(ray_session):
    """The BFS hop aggregates in-cluster: the driver receives one row
    per REACHED NODE, independent of edge multiplicity (was: the whole
    matched edge set via to_pandas per hop).  A 50× duplicated skewed
    edge table must give byte-identical results and a per-hop driver
    row count equal to the distinct reached nodes."""
    import ray.data

    from lucene_solr_ray.stages.graph import (
        _hop_aggregate,
        gather_nodes,
        shortest_path,
    )

    base = [
        {"src": 0, "dst": d} for d in range(1, 21)       # hub fan-out
    ] + [
        {"src": d, "dst": 100 + d} for d in range(1, 21)
    ] + [{"src": 100 + 1, "dst": 999}]
    dup = base * 50                                       # skew: 50× dup
    edges = ray.data.from_items(dup, override_num_blocks=8)

    reached = _hop_aggregate(edges, "src", "dst", {0}, "ancestors")
    assert len(reached) == 20          # rows to driver == distinct nodes
    assert all(v == 1 for v in reached.values())

    g = gather_nodes(edges, "src", "dst", [0], hops=3)
    edges1 = ray.data.from_items(base, override_num_blocks=4)
    g1 = gather_nodes(edges1, "src", "dst", [0], hops=3)
    assert g.to_dict("records") == g1.to_dict("records")

    p = shortest_path(edges, "src", "dst", 0, 999, max_hops=4)
    assert p == [0, 1, 101, 999]


def test_retention_query_with_wildcard(ray_session, tmp_path):
    """apply_soft_deletes_policy rewrites pattern terms in the retention
    query before the per-segment fan-out (was: TypeError inside the Ray
    task; non-matching docs would harden incorrectly)."""
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.softdeletes import (
        apply_soft_deletes_policy,
        soft_delete_by_query,
    )
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.searcher import Index

    p = _write_docs(tmp_path, {
        0: "keep alpha", 1: "drop beta", 2: "drop retainme",
        3: "keep gamma", 4: "drop retainer",
    })
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                docs_per_segment=3)
    soft_delete_by_query(out, "drop")
    apply_soft_deletes_policy(out, retention_query="retain*")
    idx = Index(out)
    # docs 2,4 (retain*) stay soft — visible unwrapped; doc 1 hardened
    after = set(idx.search({0: "drop"}, k=10).column("doc_id").to_pylist())
    assert after == {2, 4}
    total_soft = sum(
        len(SegmentReader(d, respect_soft_deletes=True).soft_deleted_ords)
        for d in idx.seg_dirs)
    assert total_soft == 2


def test_urp_round5_factories(ray_session):
    """SignatureUpdateProcessor / IgnoreLargeDocument / Classification /
    NestedUpdate factories (round 5)."""
    import hashlib

    import pyarrow as pa
    import ray.data

    from lucene_solr_ray.stages import urp

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": ["short", "x" * 50, "alpha beta", "short"],
        "brand": ["a", "b", "c", "a"],
        "parent": pa.array([None, 1, 1, None], pa.int64()),
    })
    ds = ray.data.from_arrow(t)
    out = urp.chain(ds, [
        urp.signature_field(["text", "brand"]),
        urp.nested_docs("parent"),
        urp.classification_field(
            "text", lambda texts: ["long" if len(x) > 8 else "short"
                                   for x in texts]),
    ]).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # identical (text, brand) → identical signature (docs 1 and 4)
    assert out["signature"][0] == out["signature"][3]
    assert out["signature"][0] == hashlib.md5(b"short|a").hexdigest()
    assert out["signature"][1] != out["signature"][0]
    # nested bookkeeping: roots get their own id + empty path; children
    # get /children#n in input order per parent
    assert out["_root_"].tolist() == [1, 1, 1, 4]
    assert out["_nest_path_"].tolist() == ["", "/children#0",
                                           "/children#1", ""]
    assert out["class"].tolist() == ["short", "long", "long", "short"]
    # size gate drops the oversized doc
    kept = urp.chain(ds, [urp.ignore_large_docs("text", 20)]).to_pandas()
    assert sorted(kept["doc_id"]) == [1, 3, 4]


def test_sql_in_and_subquery(ray_session):
    """IN list / NOT IN / IN (SELECT ...) compile onto the streaming
    algebra (round 5); results match pandas ground truth."""
    import pandas as pd
    import ray.data

    from lucene_solr_ray.stages.sql import SqlError, sql_query

    orders = pd.DataFrame({
        "k": range(10),
        "cust": [1, 2, 3, 1, 2, 3, 4, 5, 4, 5],
        "st": list("FFOOPPFFOO"),
    })
    cust = pd.DataFrame({"id": [1, 2, 3, 4, 5],
                         "seg": ["a", "b", "a", "b", "a"]})
    tabs = {"orders": orders, "cust": cust}

    def r(name):
        return ray.data.from_pandas(tabs[name])

    out = sql_query(
        "SELECT COUNT(*) AS n FROM orders WHERE st IN ('F', 'P')", r)
    assert out["n"][0] == 6
    out = sql_query(
        "SELECT COUNT(*) AS n FROM orders WHERE cust NOT IN (1, 2)", r)
    assert out["n"][0] == 6
    out = sql_query(
        "SELECT COUNT(*) AS n FROM orders WHERE cust IN "
        "(SELECT id FROM cust WHERE seg = 'a')", r)
    assert out["n"][0] == 6  # custs 1,3,5 → rows 0,2,3,5,7,9
    # subquery must be single-column
    import pytest as _pytest
    with _pytest.raises(SqlError):
        sql_query(
            "SELECT COUNT(*) AS n FROM orders WHERE cust IN "
            "(SELECT id, seg FROM cust)", r)


def test_urp_parse_boost_preanalyzed(ray_session):
    """Typed parsers, RegexpBoost, PreAnalyzed (round 5 batch 2)."""
    import json

    import pyarrow as pa
    import ray.data

    from lucene_solr_ray.stages import urp

    pre = json.dumps({"v": "1", "str": "stored text", "tokens": [
        {"t": "one", "s": 0, "e": 3, "i": 1},
        {"t": "two", "s": 4, "e": 7, "i": 1},
    ]})
    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "n": ["3", "4"],
        "url": ["http://a.example.com/x", "https://b.org/y"],
        "body": [pre, "plain words"],
    })
    ds = ray.data.from_arrow(t)
    out = urp.chain(ds, [
        urp.parse_int("n", out="n_i"),
        urp.parse_long("n", out="n_l"),
        urp.parse_float("n", out="n_f"),
        urp.parse_double("n", out="n_d"),
        urp.regexp_boost("url", [(r"http://.*", 0.5),
                                 (r".*\.example\.com.*", 3.0)]),
        urp.pre_analyzed("body"),
    ]).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["n_i"].tolist() == [3, 4] and str(out["n_i"].dtype) == "int32"
    assert str(out["n_l"].dtype) == "int64"
    assert str(out["n_f"].dtype) == "float32"
    assert out["n_d"].tolist() == [3.0, 4.0]
    # both rules match row 1 (full-match semantics): 1.0 * 0.5 * 3.0
    assert out["boost"].tolist() == [1.5, 1.0]
    assert out["body"][0] == "stored text"
    assert list(out["body_tokens"][0]) == ["one", "two"]
    # non-JSON passes through with empty tokens
    assert out["body"][1] == "plain words"
    assert list(out["body_tokens"][1]) == []


def test_urp_version_constraints_and_skip_existing(ray_session, tmp_path):
    import pandas as pd
    import ray.data

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.stages import urp

    # version constraints: highest version per id survives
    updates = ray.data.from_pandas(pd.DataFrame({
        "doc_id": [1, 1, 2, 2, 2, 3],
        "version": [5, 9, 1, 3, 2, 7],
        "text": ["a", "b", "c", "d", "e", "f"],
    }))
    out = urp.version_constraints(updates, "doc_id", "version").to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    assert out["version"].tolist() == [9, 3, 7]
    assert out["text"].tolist() == ["b", "d", "f"]

    # skip_existing: ids already committed to an index are dropped
    src = tmp_path / "src.parquet"
    pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["alpha one", "beta two", "gamma three"],
    }).to_parquet(src)
    idx_dir = str(tmp_path / "idx")
    build_index(str(src), idx_dir, text_col="text", id_col="doc_id")
    incoming = ray.data.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["x", "y", "z", "w"],
    }))
    kept = urp.skip_existing(incoming, idx_dir).to_pandas()
    assert sorted(kept["doc_id"].tolist()) == [3, 4]


def test_skip_existing_lets_deleted_ids_through(ray_session, tmp_path):
    """A deleted id is no longer in the index: skip_existing keeps its
    incoming row and drops only the live ids."""
    import pandas as pd
    import ray.data

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.deletes import delete_doc_ids
    from lucene_solr_ray.stages import urp

    src = tmp_path / "src.parquet"
    pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["alpha one", "beta two", "gamma three"],
    }).to_parquet(src)
    idx_dir = str(tmp_path / "idx")
    build_index(str(src), idx_dir, text_col="text", id_col="doc_id")
    delete_doc_ids(idx_dir, [1])
    incoming = ray.data.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["x", "y", "z"],
    }))
    kept = urp.skip_existing(incoming, idx_dir).to_pandas()
    assert sorted(kept["doc_id"].tolist()) == [1, 3]


def test_sql_between_like_null_count_distinct(ray_session):
    """BETWEEN / [NOT] LIKE / IS [NOT] NULL predicates + COUNT(DISTINCT)
    (round 5 batch 2); ground truth by hand over a small frame."""
    import pandas as pd
    import ray.data

    from lucene_solr_ray.stages.sql import SqlError, sql_query

    df = pd.DataFrame({
        "k": range(8),
        "p": [10.0, 25.0, 40.0, 55.0, 70.0, 85.0, 100.0, None],
        "tag": ["1-URGENT", "2-HIGH", "1-URGENT", "3-LOW", "2-HIGH",
                "1-URGENT", None, "3-LOW"],
        "cust": [1, 1, 2, 2, 3, 3, 3, 4],
    })

    def r(name):
        return ray.data.from_pandas(df)

    q = sql_query
    assert q("SELECT COUNT(*) AS n FROM t WHERE p BETWEEN 25.0 AND 70.0",
             r)["n"][0] == 4
    assert q("SELECT COUNT(*) AS n FROM t WHERE p NOT BETWEEN 25.0 "
             "AND 70.0", r)["n"][0] == 3  # NULL drops out
    assert q("SELECT COUNT(*) AS n FROM t WHERE tag LIKE '1-%'",
             r)["n"][0] == 3
    assert q("SELECT COUNT(*) AS n FROM t WHERE tag LIKE '%H_GH'",
             r)["n"][0] == 2
    assert q("SELECT COUNT(*) AS n FROM t WHERE tag NOT LIKE '1-%'",
             r)["n"][0] == 4  # NULL tag is not TRUE under NOT LIKE
    assert q("SELECT COUNT(*) AS n FROM t WHERE tag IS NULL",
             r)["n"][0] == 1
    assert q("SELECT COUNT(*) AS n FROM t WHERE p IS NOT NULL",
             r)["n"][0] == 7
    # COUNT(DISTINCT): ungrouped, grouped, and mixed with other aggs
    assert q("SELECT COUNT(DISTINCT cust) AS nc FROM t", r)["nc"][0] == 4
    g = q("SELECT tag, COUNT(DISTINCT cust) AS nc, COUNT(*) AS n FROM t "
          "WHERE tag IS NOT NULL GROUP BY tag ORDER BY tag", r)
    assert g["tag"].tolist() == ["1-URGENT", "2-HIGH", "3-LOW"]
    assert g["nc"].tolist() == [3, 2, 2]
    assert g["n"].tolist() == [3, 2, 2]
    # a NULL value is not a distinct value, grouped or not; a group whose
    # values are all NULL counts 0
    nul = pd.DataFrame({
        col: df[col].tolist() + [extra]
        for col, extra in {"k": 8, "p": None, "tag": "4-NONE",
                           "cust": None}.items()
    })

    def rn(name):
        return ray.data.from_pandas(nul)

    assert q("SELECT COUNT(DISTINCT cust) AS nc FROM t", rn)["nc"][0] == 4
    g = q("SELECT tag, COUNT(DISTINCT cust) AS nc, COUNT(*) AS n FROM t "
          "WHERE tag IS NOT NULL GROUP BY tag ORDER BY tag", rn)
    assert g["tag"].tolist() == ["1-URGENT", "2-HIGH", "3-LOW", "4-NONE"]
    assert g["nc"].tolist() == [3, 2, 2, 0]
    assert g["n"].tolist() == [3, 2, 2, 1]
    import pytest as _pytest
    with _pytest.raises(SqlError):
        q("SELECT SUM(DISTINCT p) AS s FROM t", r)


def test_session_two_phase_identity(ray_session):
    """session(chunk_s=) — the bot-scale two-phase shape — is row-exact
    vs the single-phase path, including sessions spanning chunk edges."""
    import numpy as np
    import pandas as pd
    import ray.data

    from lucene_solr_ray.stages.windows import session

    rng = np.random.RandomState(7)
    rows = []
    base = np.datetime64("2026-01-01T00:00:00", "us")
    for user in range(6):
        t = base + np.timedelta64(int(rng.randint(0, 3600) * 1e6), "us")
        for _ in range(rng.randint(30, 120)):
            # mixed dense bursts and > gap pauses, crossing chunk edges
            step = rng.choice([5, 20, 90, 400, 1800])
            t = t + np.timedelta64(int(step * 1e6), "us")
            rows.append({"user_id": user, "ts": t})
    df = pd.DataFrame(rows)
    ds = ray.data.from_pandas(df).repartition(8)
    one = session(ds, "user_id", "ts", gap_s=300).to_pandas()
    two = session(ds, "user_id", "ts", gap_s=300, chunk_s=600).to_pandas()
    k = ["user_id", "session_id", "session_start", "session_end",
         "n_events"]
    one = one[k].sort_values(["user_id", "session_id"]).reset_index(
        drop=True)
    two = two[k].sort_values(["user_id", "session_id"]).reset_index(
        drop=True)
    two["n_events"] = two["n_events"].astype(one["n_events"].dtype)
    pd.testing.assert_frame_equal(one, two)


def test_read_trec_docs(ray_session, tmp_path):
    """TrecContentSource role: SGML DOC/DOCNO/DATE parse + tag strip."""
    f = tmp_path / "fbis.sgml"
    f.write_text(
        "<DOC>\n<DOCNO> FBIS-1 </DOCNO>\n<DATE> 1 May 1996 </DATE>\n"
        "<HEADER><AU>x</AU></HEADER>\n<TEXT>alpha <b>beta</b>\n"
        "gamma</TEXT>\n</DOC>\n"
        "<DOC><DOCNO>FBIS-2</DOCNO><TEXT>second doc</TEXT></DOC>\n"
    )
    from lucene_solr_ray.sources.textline import read_trec_docs

    out = read_trec_docs(str(f)).to_pandas().sort_values(
        "docno").reset_index(drop=True)
    assert out["docno"].tolist() == ["FBIS-1", "FBIS-2"]
    assert out["date"].tolist() == ["1 May 1996", ""]
    assert out["text"].tolist() == ["x alpha beta gamma", "second doc"]


def test_word_break_spellchecker(ray_session, tmp_path):
    """WordBreakSpellChecker.java:34 — break + combine suggestions
    against the live index's exact df."""
    import pandas as pd

    from lucene_solr_ray.functions.spell import (
        combine_word_suggestions,
        word_break_suggestions,
    )
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import Index

    src = tmp_path / "docs.parquet"
    pd.DataFrame({
        "doc_id": range(4),
        "text": ["hash join index", "hash map", "join order",
                 "hashjoin plans"],
    }).to_parquet(src)
    idx_dir = str(tmp_path / "idx")
    build_index(str(src), idx_dir, text_col="text", id_col="doc_id")
    idx = Index(idx_dir)

    got = word_break_suggestions(idx, "hashjoin", k=5)
    assert got and got[0]["words"] == ["hash", "join"]
    assert got[0]["freqs"] == [2, 2] and got[0]["num_changes"] == 1
    # two breaks only when allowed
    two = word_break_suggestions(idx, "hashjoinorder", max_changes=2)
    assert ["hash", "join", "order"] in [s["words"] for s in two]
    assert word_break_suggestions(idx, "zzzqqq") == []

    comb = combine_word_suggestions(idx, ["hash", "join", "plans"])
    assert comb and comb[0]["word"] == "hashjoin"
    assert comb[0]["start"] == 0 and comb[0]["end"] == 1
    assert comb[0]["freq"] == 1
    assert combine_word_suggestions(idx, ["join", "order"],
                                    min_suggestion_freq=2) == []


def test_spellcheck_collate(ray_session, tmp_path):
    """SpellCheckCollator.java:44 — corrected rewrites verified to hit."""
    import pandas as pd

    from lucene_solr_ray.functions.spell import collate
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import Index

    src = tmp_path / "docs.parquet"
    pd.DataFrame({
        "doc_id": range(5),
        "text": ["hash join order", "hash join index", "hash map",
                 "merge join", "sort order"],
    }).to_parquet(src)
    idx_dir = str(tmp_path / "idx")
    build_index(str(src), idx_dir, text_col="text", id_col="doc_id")
    idx = Index(idx_dir)

    got = collate(idx, "hach joyn", max_collations=2)
    assert got and got[0]["collation"] == "hash join"
    # default-OR query semantics: docs with hash OR join
    assert got[0]["hits"] == 4
    assert got[0]["corrections"] == {"hach": "hash", "joyn": "join"}
    # a clean query needs no collation
    assert collate(idx, "hash join") == []


def test_blended_infix_suggester(ray_session):
    """BlendedInfixSuggester.java:58 — positional weight blending."""
    import pandas as pd
    import ray.data

    from lucene_solr_ray.functions.suggest import blended_infix_suggest

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["john works here", "here works john",
                 "nothing relevant", "johnson early"],
        "weight": [100, 100, 100, 50],
    })
    ds = ray.data.from_pandas(df)
    out = blended_infix_suggest(ds, "john", n=3, blender="reciprocal")
    ids = out.column("doc_id").to_pylist()
    scores = out.column("score").to_pylist()
    # doc1: pos 0 → 100; doc4: pos 0 → 50; doc2: pos 2 → 100/3
    assert ids == [1, 4, 2]
    assert scores == [100.0, 50.0, round(100 / 3, 4)]
    lin = blended_infix_suggest(ds, "john", n=3, blender="linear")
    # linear decays slower: doc2 at pos 2 → 80 outranks doc4's 50
    assert lin.column("score").to_pylist() == [100.0, 80.0, 50.0]
    assert lin.column("doc_id").to_pylist() == [1, 2, 4]
