"""Rank identity under re-partitioning: the same corpus indexed with
different segmentation (the sandbox proxy for different cluster sizes)
must return IDENTICAL top-k docs and float32 scores.

This is the north rule's N-vs-4N requirement: global stats are summed
before scoring (ExactStatsCache semantics) and ties break on the global
doc_id, so results cannot depend on how documents were sharded."""

import numpy as np
import pytest

from lucene_solr_ray.index.build import build_index


QUERIES = {
    0: "merge",
    1: "fast OR slow",
    2: "merge AND sort",
    3: "(fast OR slow) AND merge",
    4: '"batch batch"',
    5: "the",
    6: "mer*",
    7: '"batch batch"~1',
}


def _positional_queries():
    """One query of each positional shape, run through ``search_parsed``:
    span trees, intervals and complex phrases have no query syntax."""
    from lucene_solr_ray.search.intervals import Intervals
    from lucene_solr_ray.search.query import (
        ComplexPhraseQuery,
        IntervalQuery,
        SpanFirstQuery,
        SpanNearQuery,
        SpanNotQuery,
        SpanOrQuery,
        SpanTermQuery,
    )

    near = SpanNearQuery(("merge", "sort"), slop=3, in_order=False)
    return [
        SpanNearQuery(("merge", "sort"), slop=3, in_order=True),
        near,
        SpanOrQuery((SpanTermQuery("merge"), SpanTermQuery("batch"))),
        SpanNotQuery(near, SpanTermQuery("fast")),
        SpanFirstQuery(SpanTermQuery("merge"), 5),
        IntervalQuery(Intervals.maxwidth(
            6, Intervals.ordered("merge", Intervals.or_("sort", "key")))),
        ComplexPhraseQuery((("dup", "fast"), ("merge", "sort")), slop=2),
    ]


@pytest.mark.usefixtures("ray_session")
def test_topk_identical_across_segmentations(sf_dir, tmp_path):
    from lucene_solr_ray.search.searcher import Index

    results = []
    for docs_per_segment in (80, 500):  # many small vs one big segment
        out = str(tmp_path / f"idx_{docs_per_segment}")
        m = build_index(
            f"{sf_dir}/documents.parquet", out,
            text_col="text", id_col="doc_id",
            docs_per_segment=docs_per_segment,
        )
        idx = Index(out)
        # every match, not the top 10, so a score off in one segment shows
        parsed = [(i, q, 500) for i, q in enumerate(_positional_queries())]
        results.append((
            len(m["segments"]),
            idx.search(QUERIES, k=10).to_pandas(),
            idx.search_parsed(parsed).to_pandas(),
        ))
    (n1, *a), (n2, *b) = results
    assert n1 != n2  # genuinely different parallelism/partitioning
    for x, y in zip(a, b):
        assert list(x["qid"]) == list(y["qid"])
        assert list(x["doc_id"]) == list(y["doc_id"])
        np.testing.assert_array_equal(
            x["score"].to_numpy(), y["score"].to_numpy()
        )
    # every positional shape matches something
    assert set(a[1]["qid"]) == set(range(len(_positional_queries())))


@pytest.mark.usefixtures("ray_session")
def test_concurrency_batches_merge_partials_identically(sf_dir, tmp_path):
    """``concurrency`` below the segment count puts several segments in
    one scan batch, so each batch merges its segments' top-k partials
    before the driver merge; the result must equal one segment per
    batch."""
    import pyarrow as pa

    from lucene_solr_ray.search.searcher import Index

    out = str(tmp_path / "idx")
    m = build_index(
        f"{sf_dir}/documents.parquet", out,
        text_col="text", id_col="doc_id", docs_per_segment=80,
    )
    assert len(m["segments"]) >= 4
    idx = Index(out)
    sizes = idx.scan(
        lambda pairs: pa.table({"n": [len(list(pairs))]}), concurrency=2,
    ).take_all()
    assert max(r["n"] for r in sizes) > 1
    queries = {0: "merge", 1: "the", 2: '"batch batch"',
               3: '"merge sort"~2', 4: "merg~1", 5: "fsat~2 OR slow"}
    for k in (3, 10):
        base = idx.search(queries, k=k).to_pandas()
        assert len(base) > 0
        for c in (2, 3):
            got = idx.search(queries, k=k, concurrency=c).to_pandas()
            assert got["qid"].tolist() == base["qid"].tolist()
            assert got["doc_id"].tolist() == base["doc_id"].tolist()
            np.testing.assert_array_equal(
                got["score"].to_numpy(), base["score"].to_numpy()
            )
