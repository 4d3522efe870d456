"""BM25 similarity with Lucene-exact float32 arithmetic.

Reproduces the scoring contract of the reference
``lucene/core/src/java/org/apache/lucene/search/similarities/BM25Similarity.java``
bit-for-bit in numpy:

- ``idf = (float) log(1 + (docCount - df + 0.5)/(df + 0.5))``  (:109-111,
  double math, one final float32 cast)
- ``avgdl = (float) (sumTotalTermFreq / (double) docCount)``  (:125-127)
- per-norm-byte cache ``cache[b] = k1 * ((1-b) + b * LENGTH_TABLE[b]/avgdl)``
  computed in float32 (:184-193), where ``LENGTH_TABLE[b] =
  SmallFloat.byte4ToInt(b)`` as float32 (:151-157)
- ``weight = (k1 + 1) * boost * idf``  in float32 (:213-220)
- ``score = weight * (float) (freq / (freq + (double) cache[norm]))``
  — the tf fraction is computed in float64 with the float32 cache value
  widened, then cast to float32 and multiplied in float32 (:225-228)
- defaults ``k1 = 1.2, b = 0.75`` (:64-66)

Norm byte is ``SmallFloat.intToByte4(field_length - num_overlap)`` per
``computeNorm`` (:160-170, ``discountOverlaps`` default true).
"""

from __future__ import annotations

import math

import numpy as np

from lucene_solr_ray.analysis.smallfloat import BYTE4_DECODE_TABLE

__all__ = ["BM25Similarity", "BM25Scorer", "BM25SimilarityF64",
           "ClassicSimilarity", "LMDirichletSimilarity", "BooleanSimilarity"]

#: float32 decoded-length table, == BM25Similarity.LENGTH_TABLE
_LENGTH_TABLE_F32 = BYTE4_DECODE_TABLE.astype(np.float32)


class BM25Similarity:
    """Stateless similarity: holds (k1, b) and builds per-term scorers."""

    #: dtype of emitted scores; the boolean combiner casts its float64
    #: accumulator to this (float32 == Lucene contract)
    out_dtype = np.float32

    def __init__(self, k1: float = 1.2, b: float = 0.75) -> None:
        if not np.isfinite(k1) or k1 < 0:
            raise ValueError(
                f"illegal k1 value: {k1}, must be a non-negative finite value"
            )
        if np.isnan(b) or b < 0 or b > 1:
            raise ValueError(f"illegal b value: {b}, must be between 0 and 1")
        self.k1 = np.float32(k1)
        self.b = np.float32(b)

    @staticmethod
    def idf(doc_freq: int, doc_count: int) -> np.float32:
        """float32 of double ``log(1 + (docCount - df + 0.5)/(df + 0.5))``."""
        return np.float32(
            np.log(1.0 + (float(doc_count) - doc_freq + 0.5) / (doc_freq + 0.5))
        )

    @staticmethod
    def avg_field_length(sum_total_term_freq: int, doc_count: int) -> np.float32:
        return np.float32(float(sum_total_term_freq) / float(doc_count))

    def idf_value(self, doc_freq: int, doc_count: int):
        """idf in this similarity's arithmetic (overridden by the f64 mode)."""
        return self.idf(doc_freq, doc_count)

    def scorer(
        self,
        boost: float,
        doc_count: int,
        sum_total_term_freq: int,
        doc_freq: int,
        total_term_freq: int = -1,  # kept for parity; unused by BM25 scoring
    ) -> "BM25Scorer":
        return self.scorer_from_idf(
            boost, self.idf(doc_freq, doc_count), doc_count, sum_total_term_freq
        )

    def scorer_from_idf(
        self,
        boost: float,
        idf: "np.float32",
        doc_count: int,
        sum_total_term_freq: int,
    ) -> "BM25Scorer":
        """Scorer from a precomputed idf — used by PhraseQuery/SynonymQuery
        whose idf is the float32 sum of per-term idfs (``BM25Similarity.
        idfExplain`` over multiple TermStatistics)."""
        avgdl = self.avg_field_length(sum_total_term_freq, doc_count)
        # float32 elementwise, same op order as the Java loop
        one = np.float32(1.0)
        cache = self.k1 * (
            (one - self.b) + self.b * _LENGTH_TABLE_F32 / avgdl
        )  # float32[256]
        return BM25Scorer(np.float32(boost), self.k1, idf, cache)


class BM25Scorer:
    """Per-term scorer; vectorized ``score(freqs, norm_bytes)``."""

    __slots__ = ("weight", "idf", "_cache_f64", "_max_score")

    def __init__(
        self,
        boost: np.float32,
        k1: np.float32,
        idf: np.float32,
        cache_f32: np.ndarray,
    ) -> None:
        self.idf = idf
        # (k1 + 1) * boost * idf, all float32 ops
        self.weight = np.float32(
            np.float32(np.float32(k1 + np.float32(1.0)) * boost) * idf
        )
        # the tf fraction widens the float32 cache entry to double
        self._cache_f64 = cache_f32.astype(np.float64)
        self._max_score = None

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        """float32 scores for parallel arrays of term freqs and norm bytes."""
        norm = self._cache_f64[np.asarray(norm_bytes, dtype=np.uint8)]
        f = np.asarray(freqs, dtype=np.float64)
        frac = (f / (f + norm)).astype(np.float32)
        return self.weight * frac  # float32 * float32

    def score_scalar(self, freq: float, norm_byte: int) -> np.float32:
        norm = self._cache_f64[norm_byte & 0xFF]
        f = float(np.float32(freq))
        return np.float32(self.weight * np.float32(f / (f + norm)))

    def max_score(self) -> np.float32:
        """Upper bound over all (freq, norm): freq→inf gives weight itself."""
        return self.weight


class BM25ScorerF64:
    """Pure-float64 per-term scorer (oracle-comparable mode)."""

    __slots__ = ("weight", "idf", "_cache")

    def __init__(self, weight: float, idf: float, cache: np.ndarray) -> None:
        self.weight = weight
        self.idf = idf
        self._cache = cache  # float64[256]

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        norm = self._cache[np.asarray(norm_bytes, dtype=np.uint8)]
        f = np.asarray(freqs, dtype=np.float64)
        return self.weight * (f / (f + norm))

    def max_score(self) -> float:
        return self.weight


class BM25SimilarityF64(BM25Similarity):
    """BM25 with **pure float64** arithmetic throughout — NOT the Lucene
    contract (which is float32 at defined cast points), but bit-comparable
    with an ANSI-SQL double-precision oracle (DuckDB) computing

        idf    = ln(1 + (N - df + 0.5)/(df + 0.5))
        cache  = k1 * ((1 - b) + b * decoded_len / avgdl)
        score  = ((k1 + 1) * idf) * (f / (f + cache))

    in the same operation order.  Used only by the driver-gated oracle
    queries; the engine's default similarity stays float32-exact."""

    out_dtype = np.float64

    def __init__(self, k1: float = 1.2, b: float = 0.75) -> None:
        super().__init__(k1, b)
        self.k1_f = float(k1)
        self.b_f = float(b)

    def idf_value(self, doc_freq: int, doc_count: int):
        return self.idf64(doc_freq, doc_count)

    @staticmethod
    def idf64(doc_freq: int, doc_count: int) -> float:
        return float(
            np.log(1.0 + (float(doc_count) - doc_freq + 0.5) / (doc_freq + 0.5))
        )

    def scorer(self, boost, doc_count, sum_total_term_freq, doc_freq,
               total_term_freq=-1):
        return self.scorer_from_idf(
            boost, self.idf64(doc_freq, doc_count), doc_count,
            sum_total_term_freq,
        )

    def scorer_from_idf(self, boost, idf, doc_count, sum_total_term_freq):
        idf = float(idf)
        avgdl = float(sum_total_term_freq) / float(doc_count)
        lt = BYTE4_DECODE_TABLE.astype(np.float64)
        cache = self.k1_f * ((1.0 - self.b_f) + self.b_f * lt / avgdl)
        weight = (self.k1_f + 1.0) * float(boost) * idf
        return BM25ScorerF64(weight, idf, cache)


class _SimpleScorer:
    """Shared shape for the non-BM25 similarities: vectorized
    score(freqs, norm_bytes) from a closure."""

    __slots__ = ("_fn", "_mx")

    def __init__(self, fn, mx: float):
        self._fn = fn
        self._mx = mx

    def score(self, freqs, norm_bytes):
        return self._fn(
            np.asarray(freqs, dtype=np.float64),
            BYTE4_DECODE_TABLE[np.asarray(norm_bytes, dtype=np.uint8)]
            .astype(np.float64),
        ).astype(np.float32)

    def max_score(self):
        return np.float32(self._mx)


class ClassicSimilarity(BM25Similarity):
    """Classic TF-IDF (reference ``search/similarities/ClassicSimilarity
    .java`` / ``TFIDFSimilarity``): score = sqrt(tf) · idf² · boost ·
    1/sqrt(dl); idf = ln((docCount+1)/(df+1)) + 1.  Semantics-faithful
    (float64 internally, float32 out); not bit-exact to the reference's
    float path."""

    out_dtype = np.float32

    def __init__(self) -> None:
        super().__init__(1.2, 0.75)  # k1/b unused

    def scorer(self, boost, doc_count, sum_total_term_freq, doc_freq,
               total_term_freq=-1):
        idf = math.log((doc_count + 1) / (doc_freq + 1)) + 1.0
        w = float(boost) * idf * idf

        def fn(f, dl):
            return w * np.sqrt(f) / np.sqrt(np.maximum(dl, 1.0))

        return _SimpleScorer(fn, w * 1e3)

    def scorer_from_idf(self, boost, idf, doc_count, sum_total_term_freq):
        w = float(boost) * float(idf) * float(idf)

        def fn(f, dl):
            return w * np.sqrt(f) / np.sqrt(np.maximum(dl, 1.0))

        return _SimpleScorer(fn, w * 1e3)


class LMDirichletSimilarity(BM25Similarity):
    """Dirichlet-smoothed language model (reference
    ``search/similarities/LMDirichletSimilarity.java``, µ=2000):
    score = boost · max(0, log(1 + tf/(µ·P(t|C))) + log(µ/(dl+µ)))."""

    out_dtype = np.float32

    def __init__(self, mu: float = 2000.0) -> None:
        super().__init__(1.2, 0.75)
        self.mu = float(mu)

    def scorer(self, boost, doc_count, sum_total_term_freq, doc_freq,
               total_term_freq=-1):
        ttf = max(int(total_term_freq), 1) if total_term_freq and \
            total_term_freq > 0 else max(int(doc_freq), 1)
        p_c = ttf / max(float(sum_total_term_freq), 1.0)
        mu = self.mu
        b = float(boost)

        def fn(f, dl):
            s = np.log(1.0 + f / (mu * p_c)) + np.log(mu / (dl + mu))
            return b * np.maximum(s, 0.0)

        return _SimpleScorer(fn, b * math.log(1.0 + 1e6 / (mu * p_c)))

    def scorer_from_idf(self, boost, idf, doc_count, sum_total_term_freq):
        return self.scorer(boost, doc_count, sum_total_term_freq, 1, 1)


class BooleanSimilarity(BM25Similarity):
    """Matching docs score ``boost`` (reference
    ``search/similarities/BooleanSimilarity.java``)."""

    out_dtype = np.float32

    def __init__(self) -> None:
        super().__init__(1.2, 0.75)

    def scorer(self, boost, doc_count, sum_total_term_freq, doc_freq,
               total_term_freq=-1):
        b = float(boost)

        def fn(f, dl):
            return np.full(len(f), b)

        return _SimpleScorer(fn, b)

    def scorer_from_idf(self, boost, idf, doc_count, sum_total_term_freq):
        return self.scorer(boost, doc_count, sum_total_term_freq, 1)


class LMJelinekMercerSimilarity(BM25Similarity):
    """Jelinek-Mercer-smoothed language model (reference
    ``search/similarities/LMJelinekMercerSimilarity.java``, λ=0.1):
    score = boost · max(0, log(1 + ((1−λ)·tf/dl) / (λ·P(t|C))))."""

    out_dtype = np.float32

    def __init__(self, lam: float = 0.1) -> None:
        super().__init__(1.2, 0.75)
        self.lam = float(lam)

    def scorer(self, boost, doc_count, sum_total_term_freq, doc_freq,
               total_term_freq=-1):
        ttf = max(int(total_term_freq), 1) if total_term_freq and \
            total_term_freq > 0 else max(int(doc_freq), 1)
        p_c = ttf / max(float(sum_total_term_freq), 1.0)
        lam = self.lam
        b = float(boost)

        def fn(f, dl):
            s = np.log(
                1.0 + ((1.0 - lam) * f / np.maximum(dl, 1.0))
                / (lam * p_c)
            )
            return b * np.maximum(s, 0.0)

        return _SimpleScorer(fn, b * math.log(1 + (1 - lam) / (lam * p_c)))

    def scorer_from_idf(self, boost, idf, doc_count, sum_total_term_freq):
        return self.scorer(boost, doc_count, sum_total_term_freq, 1, 1)


class DFISimilarity(BM25Similarity):
    """Divergence-from-independence, chi-squared measure (reference
    ``search/similarities/DFISimilarity.java`` +
    ``IndependenceChiSquared.java``): expected = ttf·dl / sttf; freq at or
    below expectation scores 0; else score = boost·log2((f−e)²/e + 1)."""

    out_dtype = np.float32

    def scorer(self, boost, doc_count, sum_total_term_freq, doc_freq,
               total_term_freq=-1):
        ttf = max(int(total_term_freq), 1) if total_term_freq and \
            total_term_freq > 0 else max(int(doc_freq), 1)
        sttf = max(float(sum_total_term_freq), 1.0)
        b = float(boost)

        def fn(f, dl):
            e = ttf * np.maximum(dl, 1.0) / sttf
            m = (f - e) ** 2 / np.maximum(e, 1e-12)
            out = b * np.log2(m + 1.0)
            return np.where(f <= e, 0.0, out)

        return _SimpleScorer(fn, b * 64.0)

    def scorer_from_idf(self, boost, idf, doc_count, sum_total_term_freq):
        return self.scorer(boost, doc_count, sum_total_term_freq, 1, 1)


class AxiomaticF2EXPSimilarity(BM25Similarity):
    """Axiomatic F2EXP (reference ``search/similarities/AxiomaticF2EXP.java``,
    s=0.5, k=0.35): score = boost · ((N+1)/df)^k · f/(f + s + s·dl/avgdl)."""

    out_dtype = np.float32

    def __init__(self, s: float = 0.5, k: float = 0.35) -> None:
        super().__init__(1.2, 0.75)
        self.s = float(s)
        self.k = float(k)

    def scorer(self, boost, doc_count, sum_total_term_freq, doc_freq,
               total_term_freq=-1):
        avgdl = max(float(sum_total_term_freq), 1.0) / max(doc_count, 1)
        idf_pow = ((doc_count + 1.0) / max(doc_freq, 1)) ** self.k
        s = self.s
        b = float(boost) * idf_pow

        def fn(f, dl):
            return b * f / (f + s + s * np.maximum(dl, 1.0) / avgdl)

        return _SimpleScorer(fn, b)

    def scorer_from_idf(self, boost, idf, doc_count, sum_total_term_freq):
        return self.scorer(boost, doc_count, sum_total_term_freq, 1, 1)


class DFRSimilarity(BM25Similarity):
    """DFR with BasicModelG + AfterEffectL + NormalizationH2 (reference
    ``search/similarities/DFRSimilarity.java``, ``BasicModelG.java``,
    ``AfterEffectL.java``, ``NormalizationH2.java``, c=1):
    tfn = f·log2(1 + c·avgdl/dl); λ = (F=ttf+1)/(N+F) (geometric model,
    always < 1 — BasicModelG.java:46-52);
    score = boost · (log2(1+λ) + tfn·log2((1+λ)/λ)) / (tfn + 1)."""

    out_dtype = np.float32

    def __init__(self, c: float = 1.0) -> None:
        super().__init__(1.2, 0.75)
        self.c = float(c)

    def scorer(self, boost, doc_count, sum_total_term_freq, doc_freq,
               total_term_freq=-1):
        ttf = max(int(total_term_freq), 1) if total_term_freq and \
            total_term_freq > 0 else max(int(doc_freq), 1)
        n = max(doc_count, 1)
        avgdl = max(float(sum_total_term_freq), 1.0) / n
        F = ttf + 1.0
        lam = F / (n + F)
        c = self.c
        b = float(boost)

        def fn(f, dl):
            tfn = f * np.log2(1.0 + c * avgdl / np.maximum(dl, 1.0))
            gain = math.log2(1.0 + lam) + tfn * math.log2(
                (1.0 + lam) / lam
            )
            return b * gain / (tfn + 1.0)

        return _SimpleScorer(fn, b * 64.0)

    def scorer_from_idf(self, boost, idf, doc_count, sum_total_term_freq):
        return self.scorer(boost, doc_count, sum_total_term_freq, 1, 1)


class IBSimilarityLL(BM25Similarity):
    """Information-based model: DistributionLL + LambdaDF + NormalizationH2
    (reference ``search/similarities/IBSimilarity.java``,
    ``DistributionLL.java``, ``LambdaDF.java``):
    λ = (df+1)/(N+1); tfn = f·log2(1 + c·avgdl/dl);
    score = boost · −log(λ / (tfn + λ))."""

    out_dtype = np.float32

    def __init__(self, c: float = 1.0) -> None:
        super().__init__(1.2, 0.75)
        self.c = float(c)

    def scorer(self, boost, doc_count, sum_total_term_freq, doc_freq,
               total_term_freq=-1):
        n = max(doc_count, 1)
        avgdl = max(float(sum_total_term_freq), 1.0) / n
        lam = (max(doc_freq, 0) + 1.0) / (n + 1.0)
        c = self.c
        b = float(boost)

        def fn(f, dl):
            tfn = f * np.log2(1.0 + c * avgdl / np.maximum(dl, 1.0))
            return b * -np.log(lam / (tfn + lam))

        return _SimpleScorer(fn, b * 64.0)

    def scorer_from_idf(self, boost, idf, doc_count, sum_total_term_freq):
        return self.scorer(boost, doc_count, sum_total_term_freq, 1, 1)
