"""ComplexPhraseQueryParser (reference ``queryparser/complexPhrase/
ComplexPhraseQueryParser.java:63``) — wildcard/fuzzy/alternation inside
phrases, matched with SpanNear semantics."""

import numpy as np
import pandas as pd
import pytest

TEXTS = [
    "john peters works here",          # 0
    "jonathan peterson works here",    # 1
    "jon peters sleeps",               # 2
    "peters john reversed",            # 3
    "john meets mary peters",          # 4
    "unrelated text entirely",         # 5
]


@pytest.fixture()
def idx(ray_session, tmp_path):
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import Index

    src = tmp_path / "docs.parquet"
    pd.DataFrame({"doc_id": range(len(TEXTS)), "text": TEXTS}).to_parquet(src)
    idx_dir = str(tmp_path / "idx")
    build_index(str(src), idx_dir, text_col="text", id_col="doc_id")
    return Index(idx_dir)


def _hits(idx, q):
    out = idx.search_parsed([(0, q, 10)])
    return sorted(out.column("doc_id").to_pylist())


def test_wildcard_inside_phrase(idx):
    from lucene_solr_ray.search.complexphrase import complex_phrase_query

    # "john peter*" exact adjacency
    q = complex_phrase_query(idx, "john peter*")
    assert _hits(idx, q) == [0]
    # alternation group: (john jon jonathan) peter*
    q2 = complex_phrase_query(idx, "(john jon jonathan) peter*")
    assert _hits(idx, q2) == [0, 1, 2]
    # slop lets a gap in: "john peters"~2 matches the mary doc
    q3 = complex_phrase_query(idx, "john peters", slop=2)
    assert _hits(idx, q3) == [0, 4]
    # unordered + slop matches the reversed doc
    q4 = complex_phrase_query(idx, "john peters", slop=1, in_order=False)
    assert 3 in _hits(idx, q4)
    # fuzzy inside the phrase: jhn~1 → {john, jon} (1 edit each)
    q5 = complex_phrase_query(idx, "jhn~1 peters")
    assert _hits(idx, q5) == [0, 2]
    # a pattern matching nothing kills the phrase
    q6 = complex_phrase_query(idx, "zzz* peters")
    assert _hits(idx, q6) == []


def test_scores_are_positive_and_ranked(idx):
    from lucene_solr_ray.search.complexphrase import complex_phrase_query

    q = complex_phrase_query(idx, "(john jon) peter*")
    out = idx.search_parsed([(0, q, 10)])
    scores = out.column("score").to_pylist()
    assert scores == sorted(scores, reverse=True)
    assert all(s > 0 for s in scores)


def test_scores_do_not_depend_on_segmentation(ray_session, tmp_path):
    """The same docs built from one file and from two (``jon`` then sits
    in one segment only) score identically: an alternative adds its idf
    in every segment unless the whole index lacks it, as Lucene builds
    TermStates over the top-level reader."""
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.complexphrase import complex_phrase_query
    from lucene_solr_ray.search.searcher import Index

    docs = pd.DataFrame({"doc_id": range(len(TEXTS)), "text": TEXTS})
    got = []
    for parts in ([docs], [docs[:2], docs[2:]]):
        paths = []
        for i, part in enumerate(parts):
            paths.append(str(tmp_path / f"docs_{len(parts)}_{i}.parquet"))
            part.to_parquet(paths[-1])
        out = str(tmp_path / f"idx_{len(parts)}")
        m = build_index(paths, out, text_col="text", id_col="doc_id")
        assert len(m["segments"]) == len(parts)
        idx = Index(out)
        res = idx.search_parsed(
            [(0, complex_phrase_query(idx, "(john jon) peters"), 10)])
        got.append((res.column("doc_id").to_pylist(),
                    res.column("score").to_numpy()))
    (one_ids, one), (two_ids, two) = got
    assert one_ids == two_ids and sorted(one_ids) == [0, 2]
    assert one.dtype == two.dtype == np.float32
    np.testing.assert_array_equal(one, two)
