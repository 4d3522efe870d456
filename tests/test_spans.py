"""SpanNearQuery — matching-doc semantics vs an exhaustive position-tuple
oracle (reference ``search/spans/SpanNearQuery.java`` + TestSpans-shaped
scenarios)."""

import itertools
import random

import numpy as np
import pyarrow as pa
import pytest

from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.search.query import SpanNearQuery
from lucene_solr_ray.search.searcher import Index

WORDS = ["red", "green", "blue", "cyan", "plum", "gold"]


def _exhaustive_match(text: str, terms, slop: int, in_order: bool) -> bool:
    """∃ a position tuple (one position per term, all distinct; ascending
    when ordered) whose covered length minus #terms ≤ slop."""
    toks = text.split()
    pos_lists = [
        [i for i, t in enumerate(toks) if t == term] for term in terms
    ]
    if any(not pl for pl in pos_lists):
        return False
    for tup in itertools.product(*pos_lists):
        if len(set(tup)) != len(tup):
            continue
        if in_order and list(tup) != sorted(tup):
            continue
        if (max(tup) - min(tup) + 1) - len(terms) <= slop:
            return True
    return False


@pytest.fixture(scope="module")
def span_index(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq

    rng = random.Random(5)
    texts = [
        " ".join(rng.choice(WORDS) for _ in range(rng.randint(4, 14)))
        for _ in range(200)
    ]
    d = tmp_path_factory.mktemp("span")
    p = str(d / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)}), p)
    out = str(d / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                docs_per_segment=50)
    return Index(out), texts


@pytest.mark.parametrize("in_order", [True, False])
@pytest.mark.parametrize("slop", [0, 1, 3])
def test_span_near_matches_exhaustive(span_index, slop, in_order):
    idx, texts = span_index
    for terms in (("red", "green"), ("blue", "cyan", "plum")):
        q = SpanNearQuery(terms, slop=slop, in_order=in_order)
        hits = idx.search_parsed([(0, q, 10_000)]).to_pandas()
        got = set(hits.doc_id)
        want = {
            i for i, t in enumerate(texts)
            if _exhaustive_match(t, terms, slop, in_order)
        }
        # the greedy ordered chain is COMPLETE: picking the smallest next
        # position minimizes the span end for each start, so if any valid
        # ordered tuple exists from a start, the minimal-end chain also
        # fits the slop — matching-doc sets equal the exhaustive scan for
        # both modes
        assert got == want


def test_span_near_ordered_respects_order(ray_session, tmp_path):
    import pyarrow.parquet as pq

    texts = ["alpha beta", "beta alpha", "alpha x beta", "beta x x alpha"]
    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(4), pa.int64()),
                  "text": pa.array(texts)}), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id")
    idx = Index(out)
    q = SpanNearQuery(("alpha", "beta"), slop=1, in_order=True)
    hits = idx.search_parsed([(0, q, 100)]).to_pandas()
    assert sorted(hits.doc_id) == [0, 2]
    q2 = SpanNearQuery(("alpha", "beta"), slop=1, in_order=False)
    hits2 = idx.search_parsed([(0, q2, 100)]).to_pandas()
    assert sorted(hits2.doc_id) == [0, 1, 2]


def test_span_freq_weights_tighter_spans_higher(ray_session, tmp_path):
    import pyarrow.parquet as pq

    # same field length, tighter span → higher sloppy weight → higher score
    texts = ["alpha beta pad pad pad", "alpha pad beta pad pad"]
    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(2), pa.int64()),
                  "text": pa.array(texts)}), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id")
    idx = Index(out)
    q = SpanNearQuery(("alpha", "beta"), slop=2, in_order=True)
    hits = idx.search_parsed([(0, q, 10)]).to_pandas()
    assert list(hits.doc_id) == [0, 1]
    assert hits.score.iloc[0] > hits.score.iloc[1]


# -- composable span family: SpanTerm / SpanFirst / SpanNot / SpanOr --------


def _brute_docs(texts, pred):
    return sorted(i for i, t in enumerate(texts) if pred(t.split()))


@pytest.fixture(scope="module")
def span_family_index(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq

    texts = [
        "alpha beta gamma alpha",
        "gamma beta x alpha",
        "x x alpha beta",
        "beta x x x alpha gamma",
        "delta only here",
        "alpha x beta gamma",
    ]
    d = tmp_path_factory.mktemp("spf")
    p = str(d / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)}), p)
    out = str(d / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                docs_per_segment=3)
    return Index(out), texts


def test_span_first(span_family_index):
    from lucene_solr_ray.search.query import SpanFirstQuery, SpanTermQuery

    idx, texts = span_family_index
    # "alpha" within the first 2 positions (span end <= 2 → position <= 1)
    q = SpanFirstQuery(SpanTermQuery("alpha"), end=2)
    hits = idx.search_parsed([(0, q, 100)]).to_pandas()
    want = _brute_docs(
        texts, lambda toks: "alpha" in toks[:2]
    )
    assert sorted(hits.doc_id) == want


def test_span_not(span_family_index):
    from lucene_solr_ray.search.query import (
        SpanNearQuery,
        SpanNotQuery,
        SpanTermQuery,
    )

    idx, texts = span_family_index
    # alpha not inside an "alpha beta" adjacency
    q = SpanNotQuery(
        SpanTermQuery("alpha"),
        SpanNearQuery(("alpha", "beta"), slop=0, in_order=True),
    )
    hits = idx.search_parsed([(0, q, 100)]).to_pandas()

    def pred(toks):
        pos = [i for i, t in enumerate(toks) if t == "alpha"]
        covered = {
            i for i in pos
            if i + 1 < len(toks) and toks[i + 1] == "beta"
        }
        return bool(set(pos) - covered)

    assert sorted(hits.doc_id) == _brute_docs(texts, pred)


def test_span_or(span_family_index):
    from lucene_solr_ray.search.query import SpanOrQuery, SpanTermQuery

    idx, texts = span_family_index
    q = SpanOrQuery((SpanTermQuery("gamma"), SpanTermQuery("delta")))
    hits = idx.search_parsed([(0, q, 100)]).to_pandas()
    want = _brute_docs(
        texts, lambda toks: "gamma" in toks or "delta" in toks
    )
    assert sorted(hits.doc_id) == want
    # freq = total occurrences (all width-1 spans, gap 0): a doc with both
    # terms outranks equal-length docs with one
    assert hits.score.min() > 0


def test_span_nested_first_of_near(span_family_index):
    from lucene_solr_ray.search.query import SpanFirstQuery, SpanNearQuery

    idx, texts = span_family_index
    # "alpha beta" adjacency fully inside the first 2 positions
    q = SpanFirstQuery(SpanNearQuery(("alpha", "beta"), 0, True), end=2)
    hits = idx.search_parsed([(0, q, 100)]).to_pandas()
    want = _brute_docs(
        texts,
        lambda toks: len(toks) >= 2 and toks[0] == "alpha"
        and toks[1] == "beta",
    )
    assert sorted(hits.doc_id) == want


def test_span_not_scores_include_side_only(ray_session, tmp_path):
    """SpanNot idf comes from the include side alone: a doc's score for
    spanNot(include, exclude) where no exclude span overlaps equals the
    plain include query's score (SpanNotWeight.extractTermStates)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.query import SpanNearQuery, SpanNotQuery, SpanTermQuery
    from lucene_solr_ray.search.searcher import Index

    p = str(tmp_path / "c.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["alpha beta here", "alpha beta excl"]),
    }), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id")
    idx = Index(out)
    inc = SpanNearQuery(("alpha", "beta"), slop=0, in_order=True)
    notq = SpanNotQuery(inc, SpanTermQuery("excl"))
    a = idx.search_parsed([(0, notq, 10)])
    b = idx.search_parsed([(0, inc, 10)])
    # doc 0 has no excl at all; its score must equal the plain include
    sa = {d: s for d, s in zip(a.column("doc_id").to_pylist(),
                               a.column("score").to_pylist())}
    sb = {d: s for d, s in zip(b.column("doc_id").to_pylist(),
                               b.column("score").to_pylist())}
    assert 0 in sa and sa[0] == sb[0]


def test_unordered_span_near_repeated_term_takes_distinct_positions():
    """Each slot of an unordered span takes a position of its own, as the
    exhaustive oracle above requires: ``c c`` within slop 2 over
    ``"c x c"`` is the one span (0, 3) with one gap (a zero-width window
    over one ``c`` used to give gaps -1 and divide by zero), for a
    SpanNear and for a complex phrase; a slot whose alternatives include
    the other slot's term takes the position the other one leaves."""
    from lucene_solr_ray.search.memory import MemoryIndex
    from lucene_solr_ray.search.query import ComplexPhraseQuery
    from lucene_solr_ray.search.scorer import _Eval
    from lucene_solr_ray.search.similarity import BM25Similarity

    mi = MemoryIndex("c x c")

    def spans(q):
        ords, s = _Eval(mi.reader, mi.stats, BM25Similarity())._spans(q)
        assert ords.tolist() == ([0] if s else [])
        assert (mi.score(q) > 0) == bool(s)
        return s

    for slop, want in ((2, [[(0, 3, 1)]]), (0, [])):
        assert spans(SpanNearQuery(("c", "c"), slop=slop,
                                   in_order=False)) == want
        assert spans(ComplexPhraseQuery((("c",), ("c",)), slop=slop,
                                        in_order=False)) == want
    assert spans(ComplexPhraseQuery((("c",), ("c", "x")), slop=0,
                                    in_order=False)) == [[(0, 2, 0),
                                                          (1, 3, 0)]]
