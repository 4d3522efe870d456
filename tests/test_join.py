"""Block join + JoinUtil — reference ``lucene/join`` semantics
(ToParentBlockJoinQuery ScoreModes, JoinUtil.createJoinQuery)."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search.join import ToParentBlockJoinQuery, join_util_query
from lucene_solr_ray.search.query import TermQuery
from lucene_solr_ray.search.searcher import Index
from lucene_solr_ray.search.similarity import BM25SimilarityF64


@pytest.fixture(scope="module")
def family_index(ray_session, tmp_path_factory):
    """3 blocks: children first, parent LAST (addDocuments contract)."""
    import pyarrow.parquet as pq

    rows = [
        # block 0: two children + parent 2
        ("alpha toy red", 0), ("beta toy blue", 0), ("parent one", 1),
        # block 1: three children + parent 6
        ("alpha toy blue", 0), ("gamma sock red", 0), ("alpha alpha toy", 0),
        ("parent two", 1),
        # block 2: one child + parent 8 (child does NOT match 'alpha')
        ("delta shoe green", 0), ("parent three", 1),
    ]
    d = tmp_path_factory.mktemp("bj")
    p = str(d / "c.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(rows)), pa.int64()),
            "text": pa.array([r[0] for r in rows]),
            "parent_flag": pa.array([r[1] for r in rows], pa.int64()),
        }), p)
    out = str(d / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                stored_cols=["parent_flag"], docs_per_segment=100)
    return Index(out)


def test_block_join_score_modes(family_index):
    idx = family_index
    child = TermQuery("alpha")
    # child scores for reference
    base = idx.search_parsed(
        [(0, child, 100)], similarity=BM25SimilarityF64()
    ).to_pandas().set_index("doc_id")["score"]

    for mode, agg in (
        ("none", None),
        ("max", max),
        ("total", sum),
        ("avg", lambda v: sum(v) / len(v)),
        ("min", min),
    ):
        q = ToParentBlockJoinQuery(child, score_mode=mode)
        hits = idx.search_parsed(
            [(0, q, 100)], similarity=BM25SimilarityF64()
        ).to_pandas()
        assert sorted(hits.doc_id) == [2, 6], mode
        if agg is None:
            assert (hits.score == 1.0).all()
        else:
            for _, r in hits.iterrows():
                kids = {2: [0], 6: [3, 5]}[int(r.doc_id)]
                want = agg([base[k] for k in kids])
                assert abs(r.score - want) < 1e-9, mode


def test_block_join_parent_hit_not_child(family_index):
    # 'parent' matches only parent docs — they are not children of anything
    q = ToParentBlockJoinQuery(TermQuery("parent"), score_mode="none")
    hits = family_index.search_parsed([(0, q, 100)]).to_pandas()
    assert len(hits) == 0


def test_join_util(ray_session, tmp_path):
    """from docs matching 'blue' gather color-ish lang values → to-side."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.analysis.analyzer import KeywordAnalyzer

    rows = [
        (0, "blue thing", "en"),
        (1, "red thing", "fr"),
        (2, "blue item", "de"),
        (3, "green item", "en"),
        (4, "plain", "es"),
    ]
    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows]),
            "lang": pa.array([r[2] for r in rows]),
        }), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                extra_fields={"lang": "lang"},
                field_analyzers={"lang": KeywordAnalyzer()})
    idx = Index(out)
    # from: docs matching "blue" → langs {en, de}; to: docs with lang in set
    q = join_util_query(idx, "blue", "lang", "lang")
    hits = idx.search_parsed([(0, q, 100)]).to_pandas()
    assert sorted(hits.doc_id) == [0, 2, 3]  # en, de, en


def test_to_child_block_join(family_index):
    from lucene_solr_ray.search.join import ToChildBlockJoinQuery
    from lucene_solr_ray.search.query import PhraseQuery

    idx = family_index
    # parents matching "two" (parent doc 6) select their children 3,4,5
    q = ToChildBlockJoinQuery(TermQuery("two"))
    hits = idx.search_parsed([(0, q, 100)]).to_pandas()
    assert sorted(hits.doc_id) == [3, 4, 5]
    # children inherit the parent's score
    pscore = idx.search_parsed(
        [(0, TermQuery("two"), 10)]
    ).to_pandas().score.iloc[0]
    assert (abs(hits.score - pscore) < 1e-6).all()
    # a child-term query matches no parents → no children
    q2 = ToChildBlockJoinQuery(TermQuery("alpha"))
    assert idx.search_parsed([(0, q2, 100)]).num_rows == 0
    # a phrase parent query reads positions through the join
    phrase = PhraseQuery(("parent", "two"), (0, 1))
    hits = idx.search_parsed(
        [(0, ToChildBlockJoinQuery(phrase), 100)]
    ).to_pandas()
    assert sorted(hits.doc_id) == [3, 4, 5]
    pscore = idx.search_parsed([(0, phrase, 10)]).to_pandas()
    assert list(pscore.doc_id) == [6]
    assert (abs(hits.score - pscore.score.iloc[0]) < 1e-6).all()


def test_function_score_query(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.query import FunctionScoreQuery, TermQuery
    from lucene_solr_ray.search.similarity import BM25SimilarityF64

    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["apple pie", "apple tart cake", "banana"]),
            "pop": pa.array([2.0, 10.0, 100.0]),
        }), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                stored_cols=["pop"])
    from lucene_solr_ray.search.searcher import Index

    idx = Index(out)
    base = idx.search_parsed(
        [(0, TermQuery("apple"), 10)], similarity=BM25SimilarityF64()
    ).to_pandas().set_index("doc_id").score
    for mode, expect in (
        ("multiply", {0: base[0] * 2.0, 1: base[1] * 10.0}),
        ("sum", {0: base[0] + 2.0, 1: base[1] + 10.0}),
        ("replace", {0: 2.0, 1: 10.0}),
    ):
        q = FunctionScoreQuery(TermQuery("apple"), "pop", mode)
        hits = idx.search_parsed(
            [(0, q, 10)], similarity=BM25SimilarityF64()
        ).to_pandas().set_index("doc_id").score
        for d, want in expect.items():
            assert abs(hits[d] - want) < 1e-9, (mode, d)
    # the boost function reorders: doc 1 outranks doc 0 under multiply
    q = FunctionScoreQuery(TermQuery("apple"), "pop", "multiply")
    ordered = idx.search_parsed([(0, q, 10)]).to_pandas().doc_id.tolist()
    assert ordered[0] == 1
