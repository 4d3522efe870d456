"""BM25 float32-exact scoring — golden scalars + TestBM25Similarity-style
parameter validation + monotonicity properties (reference
``TestBM25Similarity.java:24-62`` and ``BaseSimilarityTestCase``)."""

import math

import numpy as np
import pytest

from lucene_solr_ray.analysis.smallfloat import int_to_byte4
from lucene_solr_ray.search.similarity import BM25Similarity


def test_idf_golden():
    # df=1, docCount=2: ln(1 + 1.5/1.5) = ln 2
    assert BM25Similarity.idf(1, 2) == np.float32(math.log(2.0))
    # df=docCount (term everywhere): ln(1 + 0.5/(N+0.5))
    assert BM25Similarity.idf(10, 10) == np.float32(
        math.log(1.0 + 0.5 / 10.5)
    )


def test_score_golden_hand_computed():
    sim = BM25Similarity()  # k1=1.2, b=0.75
    # docCount=3, sumTotalTermFreq=9 -> avgdl=3.0; df=1
    sc = sim.scorer(1.0, doc_count=3, sum_total_term_freq=9, doc_freq=1)
    # field length 4 -> norm byte 4 -> decoded 4
    # cache[4] = 1.2 * (0.25 + 0.75*4/3) = 1.2 * 1.25 = 1.5 (exact in f32)
    # idf = ln(1 + 2.5/1.5); weight = 2.2 * idf (f32)
    idf = np.float32(math.log(1.0 + 2.5 / 1.5))
    weight = np.float32(np.float32(np.float32(2.2)) * idf)
    want = weight * np.float32(2.0 / (2.0 + 1.5))
    got = sc.score(np.array([2.0]), np.array([int_to_byte4(4)]))
    assert got.dtype == np.float32
    assert got[0] == want


def test_param_validation():
    # TestBM25Similarity.java:24-62
    for bad_k1 in [float("inf"), float("nan"), -1.0]:
        with pytest.raises(ValueError):
            BM25Similarity(k1=bad_k1)
    for bad_b in [2.0, -0.5, float("nan")]:
        with pytest.raises(ValueError):
            BM25Similarity(b=bad_b)
    BM25Similarity(k1=0.0, b=0.0)
    BM25Similarity(k1=3.0, b=1.0)


def test_monotonic_in_freq():
    sim = BM25Similarity()
    sc = sim.scorer(1.0, 100, 1000, 10)
    freqs = np.arange(1, 50, dtype=np.float64)
    norms = np.full(49, int_to_byte4(10), dtype=np.uint8)
    s = sc.score(freqs, norms)
    assert (np.diff(s) > 0).all()
    assert (s <= sc.max_score()).all()


def test_decreasing_in_df():
    sim = BM25Similarity()
    scores = [
        sim.scorer(1.0, 100, 1000, df).score(
            np.array([3.0]), np.array([int_to_byte4(10)])
        )[0]
        for df in [1, 5, 20, 100]
    ]
    assert all(a > b for a, b in zip(scores, scores[1:]))


def test_longer_docs_score_lower():
    sim = BM25Similarity()
    sc = sim.scorer(1.0, 100, 1000, 10)
    short = sc.score(np.array([3.0]), np.array([int_to_byte4(5)]))[0]
    long_ = sc.score(np.array([3.0]), np.array([int_to_byte4(500)]))[0]
    assert short > long_


def test_round2_similarity_families(ray_session, tmp_path):
    """LMJelinekMercer / DFI / AxiomaticF2EXP / DFR / IB-LL: sane ranking
    behavior end-to-end (higher tf ranks higher at equal length; all
    scores finite and non-negative)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import Index
    from lucene_solr_ray.search.similarity import (
        AxiomaticF2EXPSimilarity,
        DFISimilarity,
        DFRSimilarity,
        IBSimilarityLL,
        LMJelinekMercerSimilarity,
    )

    texts = [
        "apple apple apple pad pad",
        "apple pad pad pad pad",
        "pad pad pad pad pad",
        "apple apple pad pad pad",
    ]
    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)}), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id")
    idx = Index(out)
    for sim in (LMJelinekMercerSimilarity(), DFISimilarity(),
                AxiomaticF2EXPSimilarity(), DFRSimilarity(),
                IBSimilarityLL()):
        hits = idx.search({0: "apple"}, k=10, similarity=sim).to_pandas()
        name = type(sim).__name__
        assert set(hits.doc_id) <= {0, 1, 3}, name
        assert list(hits.doc_id)[0] == 0, name  # tf=3 ranks first
        # DFI legitimately scores 0 for freq at/below expectation
        assert (hits.score >= 0).all() and np.isfinite(hits.score).all(), \
            name
        # tf monotonicity at equal dl
        sc = hits.set_index("doc_id").score
        assert sc[0] > sc[3] >= sc[1], name
