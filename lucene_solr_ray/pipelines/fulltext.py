"""Driver-gated full-text pipelines over the ``documents`` table + their
DuckDB oracle SQL.

The documents corpus is plain lowercase space-separated words, so the
StandardAnalyzer chain reduces to a space split there (property-checked in
tests) and the whole indexing + BM25 pipeline becomes ANSI-SQL-expressible:
the oracle recomputes tokenization, SmallFloat norm quantization
(``util/SmallFloat.java:147-169``), collection stats, and BM25 in pure SQL.

Scores in the gated queries use :class:`BM25SimilarityF64` (pure float64,
same operation order as the SQL) so both sides agree to the last ulp; the
engine's Lucene-exact float32 mode is covered by pytest golden tests
instead (float32 cast points aren't expressible in portable SQL).
"""

from __future__ import annotations

import functools
import glob
import hashlib
import os
from typing import Dict, List, Tuple

import numpy as np
import pyarrow as pa

from lucene_solr_ray.index.build import build_index
from lucene_solr_ray.index.manifest import read_latest_manifest
from lucene_solr_ray.search.searcher import Index
from lucene_solr_ray.search.similarity import BM25SimilarityF64

__all__ = [
    "documents_index",
    "bm25_topk",
    "bm25_topk_sql",
    "term_stats",
    "term_stats_sql",
    "doc_norms",
    "doc_norms_sql",
    "phrase_topk",
]

_CACHE_ROOT = "/tmp/lsr_indexes"


@functools.lru_cache(maxsize=None)
def _code_digest() -> str:
    """Digest of the sources that build, merge and analyze an index
    (``index/*.py`` and ``analysis/*.py``): a cached gate index is rebuilt
    when that code changes, not only when ``FORMAT_VERSION`` does."""
    pkg = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.md5()
    for sub in ("index", "analysis"):
        for path in sorted(glob.glob(os.path.join(pkg, sub, "*.py"))):
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _cache_dir(kind: str, sf_dir: str) -> str:
    """The cache path of one gate artifact (an index, a generated corpus,
    an export) over the testdata at ``sf_dir``, under ``_CACHE_ROOT``.
    Its key covers the kind, ``FORMAT_VERSION``, the testdata path and
    :func:`_code_digest`."""
    from lucene_solr_ray.index.segment import FORMAT_VERSION

    key = hashlib.md5(
        (os.path.abspath(sf_dir) + _code_digest()).encode()
    ).hexdigest()[:12]
    os.makedirs(_CACHE_ROOT, exist_ok=True)
    return os.path.join(_CACHE_ROOT, f"{kind}_v{FORMAT_VERSION}_{key}")
DOCS_PER_SEGMENT = 250

#: the reference-style query set (conf/query-terms.txt shapes): single terms
#: (common + rare + stopword-scale + missing), AND chains, OR pairs, nested.
#: spec: (qid, query string, k, AND-of-OR-groups for the SQL oracle)
QUERY_SET: List[Tuple[int, str, int, List[List[str]]]] = [
    (0, "merge", 10, [["merge"]]),
    (1, "fast OR slow", 10, [["fast", "slow"]]),
    (2, "merge AND sort", 10, [["merge"], ["sort"]]),
    (3, "merge AND sort AND window", 10, [["merge"], ["sort"], ["window"]]),
    (4, "(fast OR slow) AND merge", 10, [["fast", "slow"], ["merge"]]),
    (5, "query window", 10, [["query", "window"]]),
    (6, "zzzmissing", 10, [["zzzmissing"]]),
    (7, "the", 10, [["the"]]),
    (8, "data AND batch", 10, [["data"], ["batch"]]),
    (9, "scan OR zzzmissing", 10, [["scan", "zzzmissing"]]),
    (10, "group", 100, [["group"]]),
    (11, "join", 1, [["join"]]),
    (12, "vector AND the AND a", 10, [["vector"], ["the"], ["a"]]),
]


def documents_index(sf_dir: str) -> Index:
    """Build-or-open the cached index over ``{sf_dir}/documents.parquet``."""
    out = _cache_dir("documents", sf_dir)
    if read_latest_manifest(out) is None:
        build_index(
            os.path.join(sf_dir, "documents.parquet"),
            out,
            text_col="text",
            id_col="doc_id",
            docs_per_segment=DOCS_PER_SEGMENT,
        )
    return Index(out)


# ---------------------------------------------------------------------------
# bm25_topk
# ---------------------------------------------------------------------------


def bm25_topk(sf_dir: str) -> pa.Table:
    """Top-k BM25 (float64 oracle mode) for the reference query set.

    Columns (qid, doc_id, rank, score) — rank 1-based, score ROUND(·, 4).
    """
    idx = documents_index(sf_dir)
    # ONE batched search job for the whole query set (one stats pass + one
    # scoring pass over all segments), with per-query k via search_parsed.
    # Oracle-tie hardening: DuckDB's parallel SUM accumulation order can
    # flip exact-f64 ranks at ulp-tied boundaries on multi-term queries —
    # over-fetch 3×k, re-rank BOTH sides on the ROUNDED score with doc_id
    # tiebreak, cut to k.
    import pandas as pd

    parser = idx.make_parser()
    parsed = [(qid, parser.parse(qs), 3 * k) for qid, qs, k, _ in QUERY_SET]
    t = idx.search_parsed(parsed, similarity=BM25SimilarityF64())
    ks = {qid: k for qid, _, k, _ in QUERY_SET}
    df = pd.DataFrame({
        "qid": t.column("qid").to_numpy(),
        "doc_id": t.column("doc_id").to_numpy(),
        "score": np.round(t.column("score").to_numpy(), 4),
    })
    df = df.sort_values(["qid", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
    df["rank"] = df.groupby("qid").cumcount() + 1
    df = df[df["rank"] <= df["qid"].map(ks)]
    return pa.table(
        {
            "qid": pa.array(df["qid"].to_numpy(np.int64)),
            "doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
            "rank": pa.array(df["rank"].to_numpy(np.int64)),
            "score": pa.array(df["score"].to_numpy(np.float64)),
        }
    )


_BM25_CTE = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term
  FROM documents WHERE text <> ''
),
tf AS (
  SELECT doc_id, term, COUNT(*)::DOUBLE AS f
  FROM tok GROUP BY doc_id, term
),
dl AS (
  SELECT doc_id,
         CASE WHEN text = '' THEN 0
              ELSE array_length(string_split(text, ' ')) END::BIGINT AS dl
  FROM documents
),
dln AS (
  SELECT doc_id, dl,
    CASE WHEN dl < 40 THEN dl
         ELSE 24 + ((dl - 24) // CAST(POWER(2, FLOOR(LOG2(dl - 24)) - 3) AS BIGINT))
                 * CAST(POWER(2, FLOOR(LOG2(dl - 24)) - 3) AS BIGINT)
    END::DOUBLE AS dlq
  FROM dl
),
stats AS (SELECT COUNT(*)::DOUBLE AS n, SUM(dl)::DOUBLE AS sttf FROM dl),
dfs AS (SELECT term, COUNT(*)::DOUBLE AS df FROM tf GROUP BY term),
scores AS (
  SELECT tf.doc_id, tf.term,
    ((1.2 + 1) * ln(1 + (s.n - d.df + 0.5) / (d.df + 0.5)))
      * (tf.f / (tf.f + 1.2 * ((1 - 0.75) + 0.75 * dn.dlq / (s.sttf / s.n))))
      AS tscore
  FROM tf
  JOIN dfs d USING (term)
  JOIN dln dn ON tf.doc_id = dn.doc_id
  CROSS JOIN stats s
)
"""


def bm25_topk_sql() -> str:
    selects = []
    for qid, _, k, groups in QUERY_SET:
        all_terms = sorted({t for g in groups for t in g})
        in_list = ", ".join(f"'{t}'" for t in all_terms)
        having = " AND ".join(
            "SUM(CASE WHEN term IN ({}) THEN 1 ELSE 0 END) > 0".format(
                ", ".join(f"'{t}'" for t in g)
            )
            for g in groups
        )
        # rank over the ROUNDED score (see bm25_topk: exact-f64 ordering
        # is sensitive to the parallel SUM accumulation order)
        selects.append(
            f"""
  SELECT {qid} AS qid, doc_id, rank, score FROM (
    SELECT doc_id, score,
           ROW_NUMBER() OVER (ORDER BY score DESC, doc_id ASC) AS rank
    FROM (
      SELECT doc_id, ROUND(SUM(tscore), 4) AS score
      FROM scores WHERE term IN ({in_list})
      GROUP BY doc_id
      HAVING {having}
    )
  ) WHERE rank <= {k}"""
        )
    return _BM25_CTE + "\nUNION ALL\n".join(selects)


# ---------------------------------------------------------------------------
# term_stats: the index's term dictionary (df/ttf) via a groupby shuffle
# ---------------------------------------------------------------------------


def term_stats(sf_dir: str) -> pa.Table:
    """Global per-term (df, ttf) — the ``CollectionStatistics`` build —
    as a Ray groupby-aggregate over per-segment postings metadata."""
    import ray.data
    from ray.data.aggregate import Sum

    idx = documents_index(sf_dir)
    paths = [os.path.join(d, "postings.parquet") for d in idx.seg_dirs]
    ds = ray.data.read_parquet(paths, columns=["term", "df", "ttf"])
    out = (
        ds.groupby("term")
        .aggregate(Sum("df", alias_name="df"), Sum("ttf", alias_name="ttf"))
    )
    t = out.sort("term").to_pandas()
    return pa.table(
        {
            "term": pa.array(t["term"], pa.string()),
            "df": pa.array(t["df"].astype("int64")),
            "ttf": pa.array(t["ttf"].astype("int64")),
        }
    )


def term_stats_sql() -> str:
    return """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term
  FROM documents WHERE text <> ''
),
tf AS (SELECT doc_id, term, COUNT(*) AS f FROM tok GROUP BY doc_id, term)
SELECT term, COUNT(*)::BIGINT AS df, SUM(f)::BIGINT AS ttf
FROM tf GROUP BY term ORDER BY term
"""


# ---------------------------------------------------------------------------
# doc_norms: field lengths + SmallFloat norm quantization per doc
# ---------------------------------------------------------------------------


def doc_norms(sf_dir: str) -> pa.Table:
    """Per-doc (field_len, norm-decoded length) from the docmeta tables —
    validates the SmallFloat encode/decode chain end-to-end."""
    import ray.data

    from lucene_solr_ray.analysis.smallfloat import BYTE4_DECODE_TABLE

    idx = documents_index(sf_dir)
    paths = [os.path.join(d, "docmeta.parquet") for d in idx.seg_dirs]
    ds = ray.data.read_parquet(paths, columns=["doc_id", "norm", "field_len"])

    def decode(batch: pa.Table) -> pa.Table:
        norm = batch.column("norm").to_numpy()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "field_len": pa.array(
                    batch.column("field_len").to_numpy().astype(np.int64)
                ),
                "norm_len": pa.array(BYTE4_DECODE_TABLE[norm]),
            }
        )

    t = ds.map_batches(decode, batch_format="pyarrow").sort("doc_id").to_pandas()
    return pa.Table.from_pandas(t, preserve_index=False)


def doc_norms_sql() -> str:
    return """
SELECT doc_id,
  CASE WHEN text = '' THEN 0
       ELSE array_length(string_split(text, ' ')) END::BIGINT AS field_len,
  CASE WHEN field_len < 40 THEN field_len
       ELSE 24 + ((field_len - 24) // CAST(POWER(2, FLOOR(LOG2(field_len - 24)) - 3) AS BIGINT))
               * CAST(POWER(2, FLOOR(LOG2(field_len - 24)) - 3) AS BIGINT)
  END::BIGINT AS norm_len
FROM documents ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# phrase_topk — positions path, EXACT phrases, SQL-matched: the oracle
# recomputes positions via unnest ordinality and adjacency self-joins
# ---------------------------------------------------------------------------

#: (qid, phrase terms) — exact phrases only; the sloppy matcher keeps its
#: pytest positional oracle + the rows-only phrase_sloppy_topk gate
PHRASE_SET: List[Tuple[int, List[str]]] = [
    (0, ["batch", "batch"]),
    (1, ["fast", "key"]),
    (2, ["the", "key", "value"]),
]


def phrase_topk(sf_dir: str) -> pa.Table:
    idx = documents_index(sf_dir)
    qs = {qid: '"' + " ".join(terms) + '"' for qid, terms in PHRASE_SET}
    t = idx.search(qs, k=10, similarity=BM25SimilarityF64())
    return pa.table(
        {
            "qid": t.column("qid"),
            "doc_id": t.column("doc_id"),
            "rank": pa.array(
                (t.column("rank").to_numpy() + 1).astype(np.int64)
            ),
            "score": pa.array(np.round(t.column("score").to_numpy(), 4)),
        }
    )


def phrase_topk_sql() -> str:
    """Positional oracle: token positions via aligned unnest +
    generate_subscripts, exact-phrase matches via adjacency self-joins,
    phraseFreq = COUNT(start positions), scored as BM25 with the phrase's
    summed per-occurrence idf (PhraseWeight semantics)."""
    selects = []
    for qid, terms in PHRASE_SET:
        joins = "\n".join(
            f"  JOIN pos p{i} ON p{i}.doc_id = p0.doc_id "
            f"AND p{i}.p = p0.p + {i} AND p{i}.term = '{t}'"
            for i, t in enumerate(terms[1:], start=1)
        )
        idf_sum = " + ".join(
            f"(SELECT ln(1 + (s.n - d.df + 0.5) / (d.df + 0.5)) "
            f"FROM dfs d CROSS JOIN stats s WHERE d.term = '{t}')"
            for t in terms
        )
        selects.append(f"""
  SELECT {qid} AS qid, doc_id, rank, ROUND(score, 4) AS score FROM (
    SELECT doc_id, score,
           ROW_NUMBER() OVER (ORDER BY score DESC, doc_id ASC) AS rank
    FROM (
      SELECT m.doc_id,
        (1.2 + 1) * ({idf_sum})
          * (m.pf / (m.pf + 1.2 * ((1 - 0.75) + 0.75 * dn.dlq / (s.sttf / s.n))))
        AS score
      FROM (
        SELECT p0.doc_id, COUNT(*)::DOUBLE AS pf FROM pos p0
{joins}
        WHERE p0.term = '{terms[0]}'
        GROUP BY p0.doc_id
      ) m
      JOIN dln dn ON m.doc_id = dn.doc_id
      CROSS JOIN stats s
    )
  ) WHERE rank <= 10""")
    return _BM25_CTE + """
, pos AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term,
         generate_subscripts(string_split(text, ' '), 1) AS p
  FROM documents WHERE text <> ''
)
""" + "\nUNION ALL\n".join(selects)


def phrase_sloppy_topk(sf_dir: str) -> pa.Table:
    """Sloppy matcher gate (rows-only: SloppyPhraseScorer's min-heap match
    enumeration is not expressible in portable SQL; pytest carries the
    exhaustive positional oracle)."""
    idx = documents_index(sf_dir)
    return idx.search({0: '"merge sort"~2', 1: '"fast key"~1'}, k=10)


# ---------------------------------------------------------------------------
# fetch_topk: two-phase fetch — score, then join winners to stored fields
# ---------------------------------------------------------------------------


def fetch_topk(sf_dir: str) -> pa.Table:
    """Top-5 for "merge" joined back to the documents docstore
    (QueryComponent PURPOSE_GET_FIELDS / FetchStream semantics).
    Columns: qid, doc_id, rank, score, lang, source, n_chars."""
    from lucene_solr_ray.search.fetch import fetch_from_corpus

    idx = documents_index(sf_dir)
    res = idx.search({0: "merge"}, k=5, similarity=BM25SimilarityF64())
    out = fetch_from_corpus(
        res,
        os.path.join(sf_dir, "documents.parquet"),
        "doc_id",
        ["lang", "source", "n_chars"],
    )
    out = out.sort_by([("qid", "ascending"), ("rank", "ascending")])
    return pa.table(
        {
            "qid": out.column("qid"),
            "doc_id": out.column("doc_id"),
            "rank": pa.array((out.column("rank").to_numpy() + 1).astype(np.int64)),
            "score": pa.array(np.round(out.column("score").to_numpy(), 4)),
            "lang": out.column("lang"),
            "source": out.column("source"),
            "n_chars": out.column("n_chars"),
        }
    )


def fetch_topk_sql() -> str:
    return _BM25_CTE + """
SELECT 0 AS qid, r.doc_id, r.rank, ROUND(r.score, 4) AS score,
       d.lang, d.source, d.n_chars
FROM (
  SELECT doc_id, score,
         ROW_NUMBER() OVER (ORDER BY score DESC, doc_id ASC) AS rank
  FROM (
    SELECT doc_id, SUM(tscore) AS score FROM scores
    WHERE term = 'merge' GROUP BY doc_id
  )
) r JOIN documents d USING (doc_id)
WHERE r.rank <= 5 ORDER BY r.rank
"""


# ---------------------------------------------------------------------------
# suggest: prefix completion from the distributed term dictionary
# ---------------------------------------------------------------------------


def suggest_prefix_s(sf_dir: str) -> pa.Table:
    from lucene_solr_ray.functions.suggest import suggest_terms

    idx = documents_index(sf_dir)
    rows = suggest_terms(idx, "s", n=5)
    return pa.table(
        {
            "term": pa.array([r[0] for r in rows], pa.string()),
            "weight": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


def suggest_prefix_s_sql() -> str:
    return """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term
  FROM documents WHERE text <> ''
)
SELECT term, CAST(COUNT(*) AS BIGINT) AS weight
FROM tok WHERE term LIKE 's%'
GROUP BY term ORDER BY weight DESC, term LIMIT 5
"""


def suggest_fuzzy(sf_dir: str) -> pa.Table:
    """FuzzySuggester gate (reference ``lucene/suggest/src/java/org/
    apache/lucene/search/suggest/analyzing/FuzzySuggester.java``):
    completions whose prefix is within 1 edit of the key "sma"
    (nonFuzzyPrefix=1, minFuzzyLength=3, plain Levenshtein);
    the oracle replays the prefix edit distance with
    ``MIN(levenshtein(key, substr(term, 1, j)))``."""
    from lucene_solr_ray.functions.suggest import fuzzy_suggest

    idx = documents_index(sf_dir)
    rows = fuzzy_suggest(idx, "sma", n=10, max_edits=1,
                         prefix_length=1, min_fuzzy_length=3)
    return pa.table(
        {
            "term": pa.array([r[0] for r in rows], pa.string()),
            "weight": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


def suggest_fuzzy_sql() -> str:
    return """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term
  FROM documents WHERE text <> ''
),
tstats AS (SELECT term, COUNT(*) AS ttf FROM tok GROUP BY term),
cand AS (
  SELECT t.term, t.ttf,
    MIN(levenshtein('sma', substr(t.term, 1, g.j))) AS pdist
  FROM tstats t
  CROSS JOIN (SELECT unnest([1, 2, 3, 4]) AS j) g
  WHERE substr(t.term, 1, 1) = 's'
    AND length(t.term) >= length('sma') - 1
    AND g.j <= length(t.term)
  GROUP BY t.term, t.ttf
)
SELECT term, CAST(ttf AS BIGINT) AS weight FROM cand
WHERE pdist <= 1 ORDER BY weight DESC, term LIMIT 10
"""


def suggest_analyzing(sf_dir: str) -> pa.Table:
    """AnalyzingSuggester gate (reference ``analyzing/
    AnalyzingSuggester.java``): the raw key "The MERG" runs through the
    index's analyzer (stopword drop + lowercase) before completing — the
    oracle uses the analyzed form 'so' literally, so a pass proves the
    analysis happened."""
    from lucene_solr_ray.functions.suggest import analyzing_suggest

    idx = documents_index(sf_dir)
    rows = analyzing_suggest(idx, "The SO", n=5)
    return pa.table(
        {
            "term": pa.array([r[0] for r in rows], pa.string()),
            "weight": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


def suggest_analyzing_sql() -> str:
    return """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term
  FROM documents WHERE text <> ''
)
SELECT term, CAST(COUNT(*) AS BIGINT) AS weight
FROM tok WHERE term LIKE 'so%'
GROUP BY term ORDER BY weight DESC, term LIMIT 5
"""


# ---------------------------------------------------------------------------
# more-like-this (KnnStream) — rows-only (tf·idf term selection + BM25)
# ---------------------------------------------------------------------------


def mlt_doc0(sf_dir: str) -> pa.Table:
    """MoreLikeThis gate, SQL-matched: the oracle recomputes the tf·idf
    term selection (top-8 by weight desc, term asc) and the BM25
    SHOULD-disjunction in SQL."""
    import pyarrow.parquet as pq

    idx = documents_index(sf_dir)
    text = (
        pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["text"]
        )
        .column("text")[0]
        .as_py()
    )
    t = idx.more_like_this(
        text, k=10, max_query_terms=8, similarity=BM25SimilarityF64()
    )
    return pa.table(
        {
            "qid": t.column("qid"),
            "doc_id": t.column("doc_id"),
            "rank": pa.array(
                (t.column("rank").to_numpy() + 1).astype(np.int64)
            ),
            "score": pa.array(np.round(t.column("score").to_numpy(), 4)),
        }
    )


def mlt_doc0_sql() -> str:
    return _BM25_CTE + """
, mlt_terms AS (
  SELECT term FROM (
    SELECT tf.term, tf.f * ln(1 + (s.n - d.df + 0.5) / (d.df + 0.5)) AS w
    FROM tf JOIN dfs d USING (term) CROSS JOIN stats s
    WHERE tf.doc_id = (SELECT MIN(doc_id) FROM documents)
  ) ORDER BY w DESC, term LIMIT 8
)
SELECT 0 AS qid, doc_id, rank, ROUND(score, 4) AS score FROM (
  SELECT doc_id, score,
         ROW_NUMBER() OVER (ORDER BY score DESC, doc_id ASC) AS rank
  FROM (
    SELECT doc_id, SUM(tscore) AS score FROM scores
    WHERE term IN (SELECT term FROM mlt_terms) GROUP BY doc_id
  )
) WHERE rank <= 10
"""


# ---------------------------------------------------------------------------
# grouped search results (the grouping-module role): top docs per group
# ---------------------------------------------------------------------------


def grouped_topk(sf_dir: str) -> pa.Table:
    """Top-2 hits for "merge" per ``lang`` group (reference
    ``lucene/grouping/`` TopGroups semantics: groups ranked by best hit,
    docs ranked within group). Columns: lang, rank_in_group, doc_id, score.

    Runs the DISTRIBUTED grouped collector (per-segment per-group top-2
    partials; bounded driver merge) — no full-result-set fetch."""
    from lucene_solr_ray.search.searcher import search_grouped

    idx = documents_index(sf_dir)
    t = search_grouped(
        idx, "merge",
        os.path.join(sf_dir, "documents.parquet"), "lang",
        top_groups=1_000_000, docs_per_group=2,
        similarity=BM25SimilarityF64(),
    ).to_pandas()
    out = t[["group", "rank_in_group", "doc_id", "score"]].rename(
        columns={"group": "lang"}
    )
    out = out.sort_values(["lang", "rank_in_group"]).reset_index(drop=True)
    out["score"] = out["score"].round(4)
    out["rank_in_group"] = out["rank_in_group"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def grouped_topk_sql() -> str:
    return _BM25_CTE + """
SELECT lang, rank_in_group, doc_id, ROUND(score, 4) AS score FROM (
  SELECT d.lang, s.doc_id, s.score,
    ROW_NUMBER() OVER (PARTITION BY d.lang
                       ORDER BY s.score DESC, s.doc_id) AS rank_in_group
  FROM (
    SELECT doc_id, SUM(tscore) AS score FROM scores
    WHERE term = 'merge' GROUP BY doc_id
  ) s JOIN documents d USING (doc_id)
) WHERE rank_in_group <= 2 ORDER BY lang, rank_in_group
"""


# ---------------------------------------------------------------------------
# TextProfileSignature dedup + KNN classification (rows-only)
# ---------------------------------------------------------------------------


def textprofile_dedup(sf_dir: str):
    """TextProfileSignature dedup, SQL-matched: DuckDB recomputes the
    quantized token-frequency profile and its md5 (same float path for the
    QUANT rounding — mx*0.01 is never an exact .5 in doubles, so ROUND
    agrees with Python's round())."""
    import ray.data

    from lucene_solr_ray.functions.dedup import text_profile_dedup

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = text_profile_dedup(ds, "text", "doc_id").to_pandas()
    out = out[["keep_id", "n_dups"]]
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("keep_id").reset_index(drop=True)


def textprofile_dedup_sql() -> str:
    # reference semantics per TextProfileSignature.java:39-117 (quant =
    # round(maxFreq*0.01) floored at 2 when maxFreq > 1; freqs rounded DOWN
    # to a quant multiple; profile "token freq" sorted by (freq desc,
    # token), newline-joined, md5-hexed)
    return """
WITH tok AS (
  SELECT doc_id,
    regexp_replace(unnest(string_split(lower(text), ' ')),
                   '[^a-z0-9]', '', 'g') AS tk
  FROM documents
),
tok2 AS (SELECT doc_id, tk FROM tok WHERE length(tk) >= 2),
cnts AS (SELECT doc_id, tk, COUNT(*) AS f FROM tok2 GROUP BY doc_id, tk),
mx AS (SELECT doc_id, MAX(f) AS m FROM cnts GROUP BY doc_id),
qt AS (
  SELECT doc_id,
    CASE WHEN m <= 1 THEN 1
         ELSE GREATEST(CAST(ROUND(m * 0.01) AS BIGINT), 2) END AS quant
  FROM mx
),
kept AS (
  SELECT c.doc_id, c.tk, (c.f // q.quant) * q.quant AS qf
  FROM cnts c JOIN qt q USING (doc_id)
  WHERE c.f >= q.quant
),
prof AS (
  SELECT doc_id,
    string_agg(tk || ' ' || qf, chr(10) ORDER BY qf DESC, tk) AS profile
  FROM kept GROUP BY doc_id
),
sigs AS (
  SELECT d.doc_id, md5(COALESCE(p.profile, '')) AS signature
  FROM documents d LEFT JOIN prof p USING (doc_id)
)
SELECT CAST(MIN(doc_id) AS BIGINT) AS keep_id,
       CAST(COUNT(*) AS BIGINT) AS n_dups
FROM sigs GROUP BY signature ORDER BY keep_id
"""


def knn_classify_docs(sf_dir: str):
    """Classify the first 5 docs' text by majority lang of their BM25
    neighborhood (KNearestNeighborClassifier)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from lucene_solr_ray.functions.classify import knn_classify

    idx = documents_index(sf_dir)
    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )
    rows = []
    for i in range(min(5, t.num_rows)):
        label, conf = knn_classify(
            idx, t.column("text")[i].as_py(),
            os.path.join(sf_dir, "documents.parquet"), "lang",
            similarity=BM25SimilarityF64(),
        )
        rows.append(
            {"doc_id": t.column("doc_id")[i].as_py(),
             "pred_lang": label, "confidence": round(conf, 4)}
        )
    return pd.DataFrame(rows)


def knn_classify_docs_sql() -> str:
    """Oracle for KNearestNeighborClassifier: per query doc, MLT term
    selection (top-15 by tf·idf desc, term asc) → BM25 top-10 neighbors →
    lang votes weighted by score → winner (weight desc, lang desc),
    confidence = share ROUND(·, 4)."""
    parts = []
    for d in range(5):
        parts.append(f"""
  SELECT {d} AS doc_id, v.lang AS pred_lang,
         ROUND(v.w / t.total, 4) AS confidence
  FROM (
    SELECT d.lang, SUM(n.score) AS w
    FROM (
      SELECT doc_id, score FROM (
        SELECT doc_id, score,
          ROW_NUMBER() OVER (ORDER BY score DESC, doc_id) AS rank
        FROM (
          SELECT doc_id, SUM(tscore) AS score FROM scores
          WHERE term IN (
            SELECT term FROM (
              SELECT tf.term,
                tf.f * ln(1 + (s.n - d2.df + 0.5) / (d2.df + 0.5)) AS wgt
              FROM tf JOIN dfs d2 USING (term) CROSS JOIN stats s
              WHERE tf.doc_id = {d}
            ) ORDER BY wgt DESC, term LIMIT 15
          )
          GROUP BY doc_id
        )
      ) WHERE rank <= 10
    ) n JOIN documents d ON n.doc_id = d.doc_id
    GROUP BY d.lang ORDER BY w DESC, d.lang DESC LIMIT 1
  ) v CROSS JOIN (
    SELECT SUM(score) AS total FROM (
      SELECT doc_id, score FROM (
        SELECT doc_id, score,
          ROW_NUMBER() OVER (ORDER BY score DESC, doc_id) AS rank
        FROM (
          SELECT doc_id, SUM(tscore) AS score FROM scores
          WHERE term IN (
            SELECT term FROM (
              SELECT tf.term,
                tf.f * ln(1 + (s.n - d2.df + 0.5) / (d2.df + 0.5)) AS wgt
              FROM tf JOIN dfs d2 USING (term) CROSS JOIN stats s
              WHERE tf.doc_id = {d}
            ) ORDER BY wgt DESC, term LIMIT 15
          )
          GROUP BY doc_id
        )
      ) WHERE rank <= 10
    )
  ) t""")
    return _BM25_CTE + "\nUNION ALL\n".join(parts) + "\nORDER BY doc_id"


# ---------------------------------------------------------------------------
# sort-by-field search (TopFieldCollector)
# ---------------------------------------------------------------------------


def sortfield_topk(sf_dir: str) -> pa.Table:
    """Docs matching "merge AND sort" ranked by field length (longest
    first), ties by doc_id — the sort-by-field collector path."""
    from lucene_solr_ray.search.searcher import search_by_field

    idx = documents_index(sf_dir)
    t = search_by_field(
        idx, {0: "merge AND sort"}, "field_len", descending=True, k=10
    )
    return pa.table(
        {
            "qid": t.column("qid"),
            "doc_id": t.column("doc_id"),
            "rank": pa.array(
                (t.column("rank").to_numpy() + 1).astype(np.int64)
            ),
            "field_len": pa.array(
                t.column("sort_value").to_numpy().astype(np.int64)
            ),
        }
    )


def sortfield_topk_sql() -> str:
    return """
WITH dl AS (
  SELECT doc_id,
    CASE WHEN text = '' THEN 0
         ELSE array_length(string_split(text, ' ')) END::BIGINT AS field_len,
    string_split(text, ' ') AS toks
  FROM documents
)
SELECT 0 AS qid, doc_id, rank, field_len FROM (
  SELECT doc_id, field_len,
    ROW_NUMBER() OVER (ORDER BY field_len DESC, doc_id) AS rank
  FROM dl
  WHERE list_contains(toks, 'merge') AND list_contains(toks, 'sort')
) WHERE rank <= 10
"""


# ---------------------------------------------------------------------------
# total hit counts (TotalHits, COMPLETE accounting)
# ---------------------------------------------------------------------------


def hit_counts(sf_dir: str) -> pa.Table:
    from lucene_solr_ray.search.searcher import count_hits

    idx = documents_index(sf_dir)
    return count_hits(idx, {qid: qs for qid, qs, _, _ in QUERY_SET})


def hit_counts_sql() -> str:
    parts = []
    for qid, _, _, groups in QUERY_SET:
        conds = " AND ".join(
            "({})".format(" OR ".join(
                f"list_contains(toks, '{t}')" for t in g
            ))
            for g in groups
        )
        parts.append(
            f"SELECT {qid} AS qid, CAST(COUNT(*) AS BIGINT) AS total_hits "
            f"FROM tok WHERE {conds}"
        )
    return (
        "WITH tok AS (SELECT doc_id, string_split(text, ' ') AS toks "
        "FROM documents WHERE text <> '')\n"
        + "\nUNION ALL\n".join(parts)
    )


# ---------------------------------------------------------------------------
# multi-field search: per-field postings, norms, and collection stats
# ---------------------------------------------------------------------------


def documents_index_mf(sf_dir: str) -> Index:
    """documents indexed with text (default) + a ``lang`` keyword field."""
    out = _cache_dir("documents_mf", sf_dir)
    if read_latest_manifest(out) is None:
        build_index(
            os.path.join(sf_dir, "documents.parquet"),
            out,
            text_col="text",
            id_col="doc_id",
            extra_fields={"lang": "lang"},
            docs_per_segment=DOCS_PER_SEGMENT,
        )
    return Index(out)


def multifield_topk(sf_dir: str) -> pa.Table:
    """Top-10 for ``merge AND lang:en`` (float64 oracle mode): the text
    term scores with the default field's stats/norms, the ``lang`` term
    with the lang field's own docCount/avgdl/norms."""
    idx = documents_index_mf(sf_dir)
    t = idx.search({0: "merge AND lang:en"}, k=10,
                   similarity=BM25SimilarityF64())
    return pa.table(
        {
            "qid": t.column("qid"),
            "doc_id": t.column("doc_id"),
            "rank": pa.array(
                (t.column("rank").to_numpy() + 1).astype(np.int64)
            ),
            "score": pa.array(np.round(t.column("score").to_numpy(), 4)),
        }
    )


def multifield_topk_sql() -> str:
    # text-term score from the shared CTE; lang-term score per-field:
    # every doc has exactly one lang token → dl=1, avgdl=1, norm exact
    return _BM25_CTE + """
, lang_stats AS (
  SELECT COUNT(*)::DOUBLE AS n_f,
         COUNT(*) FILTER (lang = 'en')::DOUBLE AS df_en
  FROM documents
)
SELECT 0 AS qid, doc_id, rank, ROUND(score, 4) AS score FROM (
  SELECT d.doc_id,
    s.score
      + ((1.2 + 1) * ln(1 + (ls.n_f - ls.df_en + 0.5) / (ls.df_en + 0.5)))
        * (1.0 / (1.0 + 1.2 * ((1 - 0.75) + 0.75 * 1.0 / (ls.n_f / ls.n_f))))
      AS score,
    ROW_NUMBER() OVER (
      ORDER BY s.score
        + ((1.2 + 1) * ln(1 + (ls.n_f - ls.df_en + 0.5) / (ls.df_en + 0.5)))
          * (1.0 / (1.0 + 1.2 * ((1 - 0.75) + 0.75 * 1.0 / (ls.n_f / ls.n_f))))
        DESC, d.doc_id ASC
    ) AS rank
  FROM documents d
  CROSS JOIN lang_stats ls
  JOIN (
    SELECT doc_id, SUM(tscore) AS score FROM scores
    WHERE term = 'merge' GROUP BY doc_id
  ) s USING (doc_id)
  WHERE d.lang = 'en'
) WHERE rank <= 10
"""


def stemmed_search_topk(sf_dir: str) -> pa.Table:
    """EnglishAnalyzer (possessive + stop + Porter) index: morphological
    variants collapse at index AND query time.  Rows-only (stemming is not
    SQL-expressible); the analyzer itself is fixture-oracled in pytest
    (reference ``analysis/en/EnglishAnalyzer.java:41``)."""
    from lucene_solr_ray.analysis.en import EnglishAnalyzer
    out = _cache_dir("documents_en", sf_dir)
    if read_latest_manifest(out) is None:
        build_index(
            os.path.join(sf_dir, "documents.parquet"),
            out,
            text_col="text",
            id_col="doc_id",
            analyzer=EnglishAnalyzer(),
            docs_per_segment=DOCS_PER_SEGMENT,
        )
    idx = Index(out)
    t = idx.search(
        {0: "merges", 1: "sorting AND windows", 2: "batches OR keyed"},
        k=10, similarity=BM25SimilarityF64(),
    )
    return pa.table(
        {
            "qid": t.column("qid"),
            "doc_id": t.column("doc_id"),
            "rank": pa.array(
                (t.column("rank").to_numpy() + 1).astype(np.int64)
            ),
            "score": pa.array(np.round(t.column("score").to_numpy(), 4)),
        }
    )


def span_near_docs(sf_dir: str) -> pa.Table:
    """SpanNearQuery gate, SQL-matched: ordered and unordered near-spans
    over documents (slop=1 keeps every sloppyFreq contribution a binary
    fraction — 1 or 0.5 — so both engines sum order-independently exactly;
    larger slops keep their exhaustive pytest positional oracle)."""
    from lucene_solr_ray.search.query import SpanNearQuery

    idx = documents_index(sf_dir)
    parsed = [
        (0, SpanNearQuery(("merge", "sort"), slop=1, in_order=True), 20),
        (1, SpanNearQuery(("fast", "key"), slop=1, in_order=False), 20),
    ]
    t = idx.search_parsed(parsed, similarity=BM25SimilarityF64())
    return pa.table(
        {
            "qid": t.column("qid"),
            "doc_id": t.column("doc_id"),
            "rank": pa.array(
                (t.column("rank").to_numpy() + 1).astype(np.int64)
            ),
            "score": pa.array(np.round(t.column("score").to_numpy(), 4)),
        }
    )


def span_near_docs_sql() -> str:
    """Positional SQL oracle for SpanNearQuery (reference
    ``lucene/core/src/java/org/apache/lucene/search/spans/
    SpanNearQuery.java`` + NearSpansOrdered/NearSpansUnordered):

    - ORDERED minimal spans (2 terms): each start position of the first
      term chains to the SMALLEST position of the second term strictly
      after it (``MIN(b.p)`` per start);
    - UNORDERED minimal spans (2 terms): mutually-nearest opposite-term
      pairs — no occurrence of either term strictly between them (the
      sliding-window minimal-interval emission reduces to exactly this
      for two terms);
    - sloppyFreq = Σ 1/(1 + gaps), gaps = span length − #terms, matches
      with gaps ≤ slop only;
    - scored as BM25 with the span's summed distinct-term idf
      (SpanWeight building one sim weight from Map<Term,TermStates>).
    """
    k1, b = "1.2", "0.75"

    def idf(term: str) -> str:
        return (
            f"(SELECT ln(1 + (s.n - d.df + 0.5) / (d.df + 0.5)) "
            f"FROM dfs d CROSS JOIN stats s WHERE d.term = '{term}')"
        )

    ordered_pf = """
      SELECT doc_id, SUM(1.0 / (1.0 + (nxt - p - 1))) AS pf FROM (
        SELECT a.doc_id, a.p, MIN(b.p) AS nxt
        FROM pos a
        JOIN pos b ON b.doc_id = a.doc_id AND b.term = 'sort'
                  AND b.p > a.p
        WHERE a.term = 'merge'
        GROUP BY a.doc_id, a.p
      ) WHERE nxt - p - 1 <= 1
      GROUP BY doc_id"""
    unordered_pf = """
      SELECT doc_id, SUM(1.0 / (1.0 + (ys - xs - 1))) AS pf FROM (
        SELECT x.doc_id, x.p AS xs, y.p AS ys
        FROM pos x
        JOIN pos y ON y.doc_id = x.doc_id AND y.p > x.p
        WHERE ((x.term = 'fast' AND y.term = 'key')
               OR (x.term = 'key' AND y.term = 'fast'))
          AND NOT EXISTS (
            SELECT 1 FROM pos z
            WHERE z.doc_id = x.doc_id AND z.term IN ('fast', 'key')
              AND z.p > x.p AND z.p < y.p
          )
      ) WHERE ys - xs - 1 <= 1
      GROUP BY doc_id"""
    selects = []
    for qid, pf_sql, idf_sum in (
        (0, ordered_pf, f"{idf('merge')} + {idf('sort')}"),
        (1, unordered_pf, f"{idf('fast')} + {idf('key')}"),
    ):
        selects.append(f"""
  SELECT {qid} AS qid, doc_id, rank, ROUND(score, 4) AS score FROM (
    SELECT doc_id, score,
           ROW_NUMBER() OVER (ORDER BY score DESC, doc_id ASC) AS rank
    FROM (
      SELECT m.doc_id,
        ({k1} + 1) * ({idf_sum})
          * (m.pf / (m.pf + {k1} * ((1 - {b}) + {b} * dn.dlq / (s.sttf / s.n))))
        AS score
      FROM ({pf_sql}
      ) m
      JOIN dln dn ON m.doc_id = dn.doc_id
      CROSS JOIN stats s
    )
  ) WHERE rank <= 20""")
    return _BM25_CTE + """
, pos AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term,
         generate_subscripts(string_split(text, ' '), 1) AS p
  FROM documents WHERE text <> ''
)
""" + "\nUNION ALL\n".join(selects)


def common_terms_docs(sf_dir: str) -> pa.Table:
    """CommonTermsQuery gate (reference ``lucene/queries/src/java/org/
    apache/lucene/queries/CommonTermsQuery.java``): with
    maxTermFrequency=0.77 over this corpus, 'merge' lands in the
    high-frequency SHOULD group and {'the','key'} in the low-frequency
    MUST(SHOULD…) group — docs match on the low group, the high term
    only contributes score.  The oracle replays the rewritten boolean
    shape."""
    from lucene_solr_ray.search.query import CommonTermsQuery

    idx = documents_index(sf_dir)
    q = CommonTermsQuery(("the", "merge", "key"), max_term_frequency=0.77)
    # rank by the ROUNDED score with doc_id tiebreak on BOTH sides: the
    # 'the' clause gives many docs scores equal to the last ulp, and the
    # oracle's parallel SUM accumulation order is run-dependent there —
    # ranking on exact f64 made the gate flaky (observed rank 9/10 swap).
    # Over-fetch, re-rank deterministically, cut to 10.
    t = idx.search_parsed([(0, q, 30)], similarity=BM25SimilarityF64())
    import pandas as pd

    df = pd.DataFrame({
        "doc_id": t.column("doc_id").to_numpy(),
        "score": np.round(t.column("score").to_numpy(), 4),
    })
    df = df.sort_values(["score", "doc_id"],
                        ascending=[False, True]).head(10)
    return pa.table(
        {
            "qid": pa.array([0] * len(df), pa.int64()),
            "doc_id": pa.array(df["doc_id"].to_numpy()),
            "rank": pa.array(
                np.arange(1, len(df) + 1, dtype=np.int64)
            ),
            "score": pa.array(df["score"].to_numpy()),
        }
    )


def common_terms_docs_sql() -> str:
    # the rewrite's split at sf0.01/sf0.001 (df ratios ~0.75-0.79):
    # high = merge (> 0.77·maxDoc), low = the, key
    # rank over the ROUNDED score (see common_terms_docs: exact-f64
    # ordering is sensitive to the parallel SUM accumulation order)
    return _BM25_CTE + """
SELECT 0 AS qid, doc_id, rank, score FROM (
  SELECT doc_id, score,
         ROW_NUMBER() OVER (ORDER BY score DESC, doc_id ASC) AS rank
  FROM (
    SELECT doc_id, ROUND(SUM(tscore), 4) AS score
    FROM scores WHERE term IN ('the', 'key', 'merge')
    GROUP BY doc_id
    HAVING SUM(CASE WHEN term IN ('the', 'key') THEN 1 ELSE 0 END) > 0
  )
) WHERE rank <= 10
"""


def intervals_docs(sf_dir: str) -> pa.Table:
    """Intervals-query gate, SQL-matched with a positional oracle
    (reference ``lucene/sandbox/.../intervals/IntervalQuery.java`` +
    ``IntervalFunction.java``).  Output = (qid, doc_id, n) interval
    COUNTS (integers — no float-sum ordering hazards):

    - q0 ordered(merge, sort): minimal ordered intervals = mutually
      nearest ordered pairs (no occurrence of either term strictly
      between);
    - q1 maxwidth(2, unordered(fast, key)): adjacent opposite-term
      pairs;
    - q2 containing(maxwidth(4, unordered(fast, key)), term(value)):
      near-windows that contain a 'value' occurrence.
    """
    from lucene_solr_ray.search.intervals import Intervals
    from lucene_solr_ray.search.query import IntervalQuery

    idx = documents_index(sf_dir)
    sources = [
        (0, Intervals.ordered("merge", "sort")),
        (1, Intervals.maxwidth(2, Intervals.unordered("fast", "key"))),
        (2, Intervals.containing(
            Intervals.maxwidth(4, Intervals.unordered("fast", "key")),
            Intervals.term("value"),
        )),
    ]
    # count intervals per doc: run each source through the searcher's
    # scoring pass with a count-preserving similarity? Simpler and
    # exact: evaluate per segment via the interval scorer's freq is a
    # float — instead count via a dedicated map over segments.
    import ray.data

    items = [
        {"seg_dir": d, "qid": qid}
        for d in idx.seg_dirs
        for qid, _ in sources
    ]
    srcmap = {qid: s for qid, s in sources}

    def _count(t: pa.Table) -> pa.Table:
        import numpy as np

        from lucene_solr_ray.search.reader import SegmentReader

        out_qid, out_doc, out_n = [], [], []
        for seg_dir, qid in zip(t.column("seg_dir").to_pylist(),
                                t.column("qid").to_pylist()):
            reader = SegmentReader(seg_dir)
            src = srcmap[int(qid)]
            leaf_terms = list(dict.fromkeys(src.leaves()))
            readers = {}
            for lt in leaf_terms:
                pr = reader.positions(lt)
                if pr is not None:
                    readers[lt] = pr
            cand = None
            dead = False
            for alts in src.requires():
                docs = None
                for lt in alts:
                    pr = readers.get(lt)
                    if pr is None:
                        continue
                    docs = pr[0] if docs is None else np.union1d(
                        docs, pr[0]
                    )
                if docs is None or len(docs) == 0:
                    dead = True
                    break
                cand = docs if cand is None else np.intersect1d(cand, docs)
            if dead or cand is None:
                continue
            live = reader.live_mask(np.asarray(cand))
            for d in np.asarray(cand)[live]:
                pos = {}
                for lt, (ords, posfn) in readers.items():
                    i = np.searchsorted(ords, d)
                    if i < len(ords) and ords[i] == d:
                        pos[lt] = posfn(int(i))
                ivs = src.eval(pos)
                if ivs:
                    out_qid.append(int(qid))
                    out_doc.append(int(reader.doc_ids[d]))
                    out_n.append(len(ivs))
        return pa.table(
            {
                "qid": pa.array(out_qid, pa.int64()),
                "doc_id": pa.array(out_doc, pa.int64()),
                "n": pa.array(out_n, pa.int64()),
            }
        )

    t = (
        ray.data.from_items(items, override_num_blocks=len(items))
        .map_batches(_count, batch_format="pyarrow")
        .sort(["qid", "doc_id"])
        .to_pandas()
    )
    return pa.Table.from_pandas(t, preserve_index=False)


def intervals_docs_sql() -> str:
    both = "('merge', 'sort')"
    fk = "('fast', 'key')"
    return f"""
WITH pos AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term,
         generate_subscripts(string_split(text, ' '), 1) AS p
  FROM documents WHERE text <> ''
),
q0 AS (
  SELECT a.doc_id, a.p AS s, b.p AS e
  FROM pos a JOIN pos b ON b.doc_id = a.doc_id AND b.p > a.p
  WHERE a.term = 'merge' AND b.term = 'sort'
    AND NOT EXISTS (
      SELECT 1 FROM pos z WHERE z.doc_id = a.doc_id
        AND z.term IN {both} AND z.p > a.p AND z.p < b.p
    )
),
q1 AS (
  SELECT x.doc_id, x.p AS s, y.p AS e
  FROM pos x JOIN pos y ON y.doc_id = x.doc_id AND y.p = x.p + 1
  WHERE (x.term = 'fast' AND y.term = 'key')
     OR (x.term = 'key' AND y.term = 'fast')
),
q2w AS (
  SELECT x.doc_id, x.p AS s, y.p AS e
  FROM pos x JOIN pos y ON y.doc_id = x.doc_id AND y.p > x.p
  WHERE ((x.term = 'fast' AND y.term = 'key')
         OR (x.term = 'key' AND y.term = 'fast'))
    AND y.p - x.p <= 3
    AND NOT EXISTS (
      SELECT 1 FROM pos z WHERE z.doc_id = x.doc_id
        AND z.term IN {fk} AND z.p > x.p AND z.p < y.p
    )
),
q2 AS (
  SELECT u.doc_id, u.s, u.e FROM q2w u
  WHERE EXISTS (
    SELECT 1 FROM pos v WHERE v.doc_id = u.doc_id
      AND v.term = 'value' AND v.p BETWEEN u.s AND u.e
  )
)
SELECT 0 AS qid, doc_id, CAST(COUNT(*) AS BIGINT) AS n
FROM q0 GROUP BY doc_id
UNION ALL
SELECT 1, doc_id, CAST(COUNT(*) AS BIGINT) FROM q1 GROUP BY doc_id
UNION ALL
SELECT 2, doc_id, CAST(COUNT(*) AS BIGINT) FROM q2 GROUP BY doc_id
ORDER BY qid, doc_id
"""


def random_sample_docs(sf_dir: str) -> pa.Table:
    """RandomStream (reference ``solr/solrj/src/java/org/apache/solr/
    client/solrj/io/stream/RandomStream.java``): a seeded pseudo-random
    sample of the documents table.  Deterministic given the seed (the gate
    re-runs byte-identically): the sample decision is a pure hash of
    (seed, doc_id), so it is independent of partitioning and parallelism —
    stronger than ``Dataset.random_sample``, whose draw depends on block
    iteration order.  SQL-matched: DuckDB recomputes the same hash."""
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "n_chars"],
    )
    seed = 42
    rate_num, rate_den = 1, 10  # 10% sample

    def _sample(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        # Knuth multiplicative hash of (doc_id + seed) mod 2^32 — the
        # products fit int64 exactly, so DuckDB computes the identical
        # buckets (no wrapping 64-bit arithmetic needed on either side)
        h = ((ids + seed) * 2654435761) % 4294967296
        keep = (h % rate_den) < rate_num
        return t.filter(pa.array(keep))

    out = ds.map_batches(_sample, batch_format="pyarrow").to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def random_sample_docs_sql() -> str:
    return """
SELECT doc_id, n_chars FROM documents
WHERE (((doc_id + 42) * 2654435761) % 4294967296) % 10 < 1
ORDER BY doc_id
"""


def block_join_parents(sf_dir: str) -> pa.Table:
    """ToParentBlockJoinQuery gate (reference ``lucene/join/.../
    ToParentBlockJoinQuery.java``): orders become parent docs, their
    lineitems child docs indexed as contiguous blocks (children first,
    parent last — the addDocuments contract).  Query: parents with a child
    matching "r" (l_returnflag R), ScoreMode.None.  SQL-matched: the oracle
    recomputes the block doc-id layout with window functions."""
    import pandas as pd
    import pyarrow.parquet as pq

    from lucene_solr_ray.search.join import ToParentBlockJoinQuery
    from lucene_solr_ray.search.query import TermQuery

    out = _cache_dir("blockjoin", sf_dir)
    if read_latest_manifest(out) is None:
        li = pq.read_table(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_orderkey", "l_linenumber", "l_returnflag"],
        ).to_pandas().sort_values(["l_orderkey", "l_linenumber"])
        orders = pq.read_table(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_orderpriority"],
        ).to_pandas().sort_values("o_orderkey")
        rows = []
        li_groups = {k: g for k, g in li.groupby("l_orderkey", sort=True)}
        for _, o in orders.iterrows():
            g = li_groups.get(o.o_orderkey)
            if g is not None:
                for _, c in g.iterrows():
                    rows.append((c.l_returnflag, 0))
            rows.append((o.o_orderpriority, 1))
        corpus = pd.DataFrame(rows, columns=["text", "parent_flag"])
        corpus.insert(0, "doc_id", np.arange(len(corpus), dtype=np.int64))
        cp = out + ".parquet"
        pq.write_table(pa.Table.from_pandas(corpus, preserve_index=False),
                       cp)
        build_index(cp, out, text_col="text", id_col="doc_id",
                    stored_cols=["parent_flag"],
                    block_align_col="parent_flag",
                    docs_per_segment=DOCS_PER_SEGMENT * 20)
    idx = Index(out)
    q = ToParentBlockJoinQuery(TermQuery("r"), score_mode="none")
    t = idx.search_parsed([(0, q, 10_000_000)])
    outp = t.sort_by("doc_id")
    return pa.table(
        {
            "doc_id": outp.column("doc_id"),
            "score": pa.array(
                outp.column("score").to_numpy().astype(np.float64)
            ),
        }
    )


def block_join_parents_sql() -> str:
    # recompute the block layout: parent doc_id(order) = (#docs before its
    # block) + (#children in its block); blocks ordered by o_orderkey,
    # children by l_linenumber
    return """
WITH lc AS (
  SELECT l_orderkey, COUNT(*) AS c FROM lineitem GROUP BY l_orderkey
),
ordred AS (
  SELECT o.o_orderkey, COALESCE(lc.c, 0) AS c
  FROM orders o LEFT JOIN lc ON o.o_orderkey = lc.l_orderkey
),
pd AS (
  SELECT o_orderkey,
    SUM(c + 1) OVER (ORDER BY o_orderkey) - 1 AS parent_doc_id
  FROM ordred
)
SELECT CAST(parent_doc_id AS BIGINT) AS doc_id, 1.0 AS score
FROM pd WHERE o_orderkey IN (
  SELECT DISTINCT l_orderkey FROM lineitem
  WHERE lower(l_returnflag) = 'r'
) ORDER BY doc_id
"""


def joinutil_docs(sf_dir: str) -> pa.Table:
    """JoinUtil.createJoinQuery gate: from docs matching "window" gather
    their ``lang`` values, match all docs whose lang is in that set
    (ScoreMode.None constant score)."""
    from lucene_solr_ray.search.join import join_util_query

    idx = documents_index_mf(sf_dir)
    q = join_util_query(idx, "window", "lang", "lang")
    t = idx.search_parsed([(0, q, 10_000_000)])
    outp = t.sort_by("doc_id")
    return pa.table(
        {
            "doc_id": outp.column("doc_id"),
            "score": pa.array(
                outp.column("score").to_numpy().astype(np.float64)
            ),
        }
    )


def joinutil_docs_sql() -> str:
    return """
SELECT doc_id, 1.0 AS score FROM documents
WHERE lang IN (
  SELECT DISTINCT lang FROM documents
  WHERE list_contains(string_split(text, ' '), 'window')
) ORDER BY doc_id
"""


def image_decode_stats(sf_dir: str) -> pa.Table:
    """Real multimodal decode gate (rows-only: BMP decoding is not
    SQL-expressible): a deterministic synthetic BMP corpus decodes through
    the actor-pool image stage; returns per-image (height, width, mean
    embedding cell) — values are pixel-exact functions of the seeded
    generator, so the gate is rerun-stable."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.functions.multimodal import decode_images, encode_bmp

    corpus = _cache_dir("images", sf_dir) + ".parquet"
    if not os.path.exists(corpus):
        rng = np.random.default_rng(12345)
        rows = []
        for i in range(200):
            h = int(rng.integers(4, 40))
            w = int(rng.integers(4, 40))
            img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
            rows.append({"img_id": i, "image": encode_bmp(img)})
        pq.write_table(
            pa.table(
                {
                    "img_id": pa.array(
                        [r["img_id"] for r in rows], pa.int64()
                    ),
                    "image": pa.array(
                        [r["image"] for r in rows], pa.binary()
                    ),
                }
            ),
            corpus,
        )
    import ray.data

    ds = ray.data.read_parquet(corpus)
    out = decode_images(
        ds, concurrency=(1, 4), target_size=(16, 16), embed_dim=16
    ).to_pandas().sort_values("img_id")
    return pa.table(
        {
            "img_id": pa.array(out["img_id"].to_numpy(np.int64)),
            "height": pa.array(out["height"].to_numpy(np.int64)),
            "width": pa.array(out["width"].to_numpy(np.int64)),
            "emb0": pa.array(
                np.round(
                    np.asarray([e[0] for e in out["embedding"]],
                               dtype=np.float64), 6
                )
            ),
        }
    )


def topic_pull_docs(sf_dir: str) -> pa.Table:
    """TopicStream gate: a fresh subscription pulls the "merge" topic in
    two checkpointed micro-batches of 120 (reference
    ``io/stream/TopicStream.java`` checkpoint semantics).  SQL-matched:
    the oracle reproduces both batches with row_number windows."""
    from lucene_solr_ray.stages.streaming import TopicStream

    idx_dir = documents_index(sf_dir).index_dir
    ckpt = _cache_dir("topic_gate", sf_dir) + ".json"
    if os.path.exists(ckpt):
        os.remove(ckpt)  # deterministic: every gate run starts fresh
    t = TopicStream(idx_dir, "merge", checkpoint_path=ckpt)
    parts = []
    for b in (1, 2):
        pulled = t.pull(batch_size=120)
        df = pulled.to_pandas()
        df.insert(0, "batch", b)
        parts.append(df[["batch", "doc_id"]])
    import pandas as pd

    out = pd.concat(parts, ignore_index=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def topic_pull_docs_sql() -> str:
    return """
SELECT CAST(CASE WHEN rn <= 120 THEN 1 ELSE 2 END AS BIGINT) AS batch,
       doc_id
FROM (
  SELECT doc_id, ROW_NUMBER() OVER (ORDER BY doc_id) AS rn
  FROM documents
  WHERE list_contains(string_split(text, ' '), 'merge')
)
WHERE rn <= 240 ORDER BY batch, doc_id
"""


class _PercolateFn:
    """Actor-pool percolator: queries parse ONCE per actor (__init__),
    every batch builds a MemoryIndex per doc and reports matches — the
    reference's percolation pattern (``MemoryIndex`` javadoc use case)."""

    def __init__(self, query_strings: List[Tuple[int, str]]):
        from lucene_solr_ray.search.parser import QueryParser

        parser = QueryParser()
        self.queries = [(qid, parser.parse(qs)) for qid, qs in query_strings]

    def __call__(self, t: pa.Table) -> pa.Table:
        from lucene_solr_ray.search.memory import MemoryIndex

        out_doc, out_qid = [], []
        for doc_id, text in zip(t.column("doc_id").to_pylist(),
                                t.column("text").to_pylist()):
            mi = MemoryIndex(text or "")
            for qid, q in self.queries:
                if mi.matches(q):
                    out_doc.append(doc_id)
                    out_qid.append(qid)
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "qid": pa.array(out_qid, pa.int64()),
            }
        )


def percolate_docs(sf_dir: str) -> pa.Table:
    """Percolation gate: the reference query set registered as standing
    queries; the first 100 docs stream through per-doc MemoryIndexes in an
    actor pool.  SQL-matched (boolean structure is token-set logic)."""
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    ).filter(expr="doc_id < 100")
    qs = [(qid, s) for qid, s, _, _ in QUERY_SET]
    out = ds.map_batches(
        _PercolateFn,
        fn_constructor_kwargs={"query_strings": qs},
        batch_format="pyarrow",
        concurrency=(1, 4),
    ).to_pandas()
    return pa.Table.from_pandas(
        out.sort_values(["doc_id", "qid"]).reset_index(drop=True),
        preserve_index=False,
    )


def percolate_docs_sql() -> str:
    parts = []
    for qid, _, _, groups in QUERY_SET:
        conds = " AND ".join(
            "({})".format(" OR ".join(
                f"list_contains(toks, '{t}')" for t in g
            ))
            for g in groups
        )
        parts.append(
            f"SELECT doc_id, {qid} AS qid FROM tok WHERE {conds}"
        )
    return (
        "WITH tok AS (SELECT doc_id, string_split(text, ' ') AS toks "
        "FROM documents WHERE doc_id < 100)\n"
        + "\nUNION ALL\n".join(parts)
        + "\nORDER BY doc_id, qid"
    )


def highlight_merge(sf_dir: str) -> pa.Table:
    """Highlighter gate: best-passage snippets (30-token window,
    <em>-wrapped matches) for docs containing "merge" among doc_id < 200.
    SQL-matched — the space-separated corpus makes the passage window and
    tag insertion reproducible with list functions."""
    import ray.data

    from lucene_solr_ray.functions.highlight import highlight_batch

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    ).filter(expr="doc_id < 200")

    def _has_merge(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks = pc.split_pattern(t.column("text"), " ")
        # vectorized membership: any list element == 'merge'
        mask = pa.array(
            ["merge" in row for row in toks.to_pylist()]
        )
        return t.filter(mask)

    out = highlight_batch(
        ds.map_batches(_has_merge, batch_format="pyarrow"),
        "text", {"merge": 1.0},
    ).to_pandas()[["doc_id", "snippet"]]
    return pa.Table.from_pandas(
        out.sort_values("doc_id").reset_index(drop=True),
        preserve_index=False,
    )


def highlight_merge_sql() -> str:
    # engine semantics for a single-term weight set: the best window is the
    # earliest candidate start covering the FIRST match —
    # start0 = max(0, first_pos - 29), 30 tokens, every matched token
    # wrapped (ties all score equal; best_passage breaks ties by start)
    return """
WITH d AS (
  SELECT doc_id, string_split(text, ' ') AS toks
  FROM documents WHERE doc_id < 200
),
m AS (
  SELECT doc_id, toks, list_position(toks, 'merge') AS p,
         len(toks) AS n
  FROM d WHERE list_contains(toks, 'merge')
),
win AS (
  SELECT doc_id,
    list_slice(toks, GREATEST(p - 29, 1),
               LEAST(GREATEST(p - 29, 1) + 29, n)) AS sl
  FROM m
)
SELECT doc_id,
  array_to_string(
    list_transform(
      sl, x -> CASE WHEN x = 'merge' THEN '<em>merge</em>' ELSE x END
    ), ' '
  ) AS snippet
FROM win ORDER BY doc_id
"""


def unified_highlight_docs(sf_dir: str) -> pa.Table:
    """UnifiedHighlighter gate (reference ``lucene/highlighter/.../
    uhighlight/UnifiedHighlighter.java`` + ``PassageScorer.java``): top-2
    passages per doc for 'merge' among doc_id < 150, 12-token break
    iterator (the corpus has no sentence punctuation; the reference's
    BreakIterator is pluggable), real PassageScorer formula
    (k1=1.2 b=0.75 pivot=87, position norm), passages in document order,
    <b>-tagged matches.  The SQL oracle replays the formula exactly."""
    import ray.data

    from lucene_solr_ray.functions.highlight import UnifiedHighlighter

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    ).filter(expr="doc_id < 150")

    class _UH:
        def __init__(self):
            self.hl = UnifiedHighlighter(max_passages=2, fixed_tokens=12)

        def __call__(self, t: pa.Table) -> pa.Table:
            rows = []
            for did, txt in zip(
                t.column("doc_id").to_pylist(),
                t.column("text").to_pylist(),
            ):
                ps = self.hl.passages(txt or "", ["merge"])
                if not ps or not ps[0].matches:
                    continue
                for p in ps:
                    rows.append({
                        "doc_id": did,
                        "p_start": p.start,
                        "score": round(p.score, 4),
                        "snippet": self.hl.format(txt, [p]),
                    })
            return pa.Table.from_pylist(
                rows,
                schema=pa.schema(
                    [("doc_id", pa.int64()), ("p_start", pa.int64()),
                     ("score", pa.float64()), ("snippet", pa.string())]
                ),
            )

    out = ds.map_batches(
        _UH, batch_format="pyarrow", concurrency=(1, 4)
    ).to_pandas()
    return pa.Table.from_pandas(
        out.sort_values(["doc_id", "p_start"]).reset_index(drop=True),
        preserve_index=False,
    )


def unified_highlight_docs_sql() -> str:
    # PassageScorer replay: weight=(k1+1)*ln(1+(1+len/pivot+0.5)/(ttf+.5)),
    # tf=freq/(freq+k1*((1-b)+b*plen/pivot)), norm=1+1/ln(pivot+start);
    # 12-token chunks over the single-space corpus make char offsets a
    # prefix-join length
    return """
WITH d AS (
  SELECT doc_id, text, string_split(text, ' ') AS toks,
         len(string_split(text, ' ')) AS n
  FROM documents WHERE doc_id < 150
),
m AS (
  SELECT * FROM d WHERE list_contains(toks, 'merge')
),
chunks AS (
  SELECT doc_id, text, toks, n,
         unnest(range(CAST(CEIL(n / 12.0) AS BIGINT))) AS i
  FROM m
),
scored AS (
  SELECT doc_id,
    list_slice(toks, i * 12 + 1, LEAST((i + 1) * 12, n)) AS sl,
    CASE WHEN i = 0 THEN 0
         ELSE len(array_to_string(list_slice(toks, 1, i * 12), ' ')) + 1
    END AS p_start,
    len(array_to_string(list_slice(toks, 1, LEAST((i + 1) * 12, n)), ' '))
      - CASE WHEN i = 0 THEN 0
             ELSE len(array_to_string(list_slice(toks, 1, i * 12), ' ')) + 1
        END AS p_len,
    len(list_filter(sl, x -> x = 'merge')) AS freq,
    len(list_filter(toks, x -> x = 'merge')) AS ttf,
    len(text) AS clen
  FROM chunks
),
withscore AS (
  SELECT doc_id, sl, p_start,
    (1 + 1 / LN(87.0 + p_start))
      * (2.2 * LN(1 + ((1 + clen / 87.0) + 0.5) / (ttf + 0.5)))
      * (freq / (freq + 1.2 * (0.25 + 0.75 * p_len / 87.0))) AS score
  FROM scored WHERE freq > 0
),
ranked AS (
  SELECT *, ROW_NUMBER() OVER (
    PARTITION BY doc_id ORDER BY score DESC, p_start ASC
  ) AS rk
  FROM withscore
)
SELECT doc_id, p_start, ROUND(score, 4) AS score,
  array_to_string(
    list_transform(
      sl, x -> CASE WHEN x = 'merge' THEN '<b>merge</b>' ELSE x END
    ), ' '
  ) AS snippet
FROM ranked WHERE rk <= 2
ORDER BY doc_id, p_start
"""


def spell_corrections(sf_dir: str) -> pa.Table:
    """DirectSpellChecker gate: corrections for misspelled query terms,
    ranked (edit distance asc, df desc, term asc).  SQL-matched via
    DuckDB's levenshtein over the recomputed term dictionary."""
    from lucene_solr_ray.functions.spell import suggest_corrections

    idx = documents_index(sf_dir)
    rows = []
    for qid, bad in enumerate(("mergw", "windoq", "batsh")):
        for rank, (t, dist, df) in enumerate(
            suggest_corrections(idx, bad, n=5, max_edits=2)
        ):
            rows.append(
                {"qid": qid, "rank": rank + 1, "term": t,
                 "dist": dist, "df": df}
            )
    import pandas as pd

    return pa.Table.from_pandas(
        pd.DataFrame(rows, columns=["qid", "rank", "term", "dist", "df"])
        .astype({"qid": "int64", "rank": "int64", "dist": "int64",
                 "df": "int64"}),
        preserve_index=False,
    )


def spell_corrections_sql() -> str:
    parts = []
    for qid, bad in enumerate(("mergw", "windoq", "batsh")):
        parts.append(f"""
  SELECT {qid} AS qid,
    CAST(ROW_NUMBER() OVER (ORDER BY dist, df DESC, term) AS BIGINT)
      AS rank,
    term, dist, df
  FROM (
    SELECT term, CAST(levenshtein(term, '{bad}') AS BIGINT) AS dist,
           CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
    FROM tok GROUP BY term
    HAVING levenshtein(term, '{bad}') <= 2 AND term <> '{bad}'
  ) QUALIFY rank <= 5""")
    return (
        "WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS "
        "term FROM documents WHERE text <> '')\n"
        + "\nUNION ALL\n".join(parts)
        + "\nORDER BY qid, rank"
    )


def documents_index_pts(sf_dir: str) -> Index:
    """documents indexed with an INDEXED NUMERIC point field ``n_chars``
    (LongPoint semantics: flat-sorted per-segment points, PointRangeQuery
    in the query language)."""
    out = _cache_dir("documents_pts", sf_dir)
    if read_latest_manifest(out) is None:
        build_index(
            os.path.join(sf_dir, "documents.parquet"),
            out,
            text_col="text",
            id_col="doc_id",
            numeric_fields={"n_chars": "n_chars"},
            docs_per_segment=DOCS_PER_SEGMENT,
        )
    return Index(out)


def numeric_range_topk(sf_dir: str) -> pa.Table:
    """Indexed numeric range queries (reference ``search/PointRangeQuery``):
    BM25 text score + constant-score numeric clause; inclusive, exclusive
    and half-open ranges."""
    idx = documents_index_pts(sf_dir)
    t = idx.search(
        {
            0: "merge AND n_chars:[200 TO 400]",
            1: "sort AND n_chars:{500 TO *}",
            2: "n_chars:[* TO 120]",
        },
        k=10, similarity=BM25SimilarityF64(),
    )
    return pa.table(
        {
            "qid": t.column("qid"),
            "doc_id": t.column("doc_id"),
            "rank": pa.array(
                (t.column("rank").to_numpy() + 1).astype(np.int64)
            ),
            "score": pa.array(np.round(t.column("score").to_numpy(), 4)),
        }
    )


def numeric_range_topk_sql() -> str:
    return _BM25_CTE + """
SELECT 0 AS qid, doc_id, rank, ROUND(score, 4) AS score FROM (
  SELECT d.doc_id, s.score + 1.0 AS score,
    ROW_NUMBER() OVER (ORDER BY s.score + 1.0 DESC, d.doc_id) AS rank
  FROM (
    SELECT doc_id, SUM(tscore) AS score FROM scores
    WHERE term = 'merge' GROUP BY doc_id
  ) s JOIN documents d USING (doc_id)
  WHERE d.n_chars BETWEEN 200 AND 400
) WHERE rank <= 10
UNION ALL
SELECT 1 AS qid, doc_id, rank, ROUND(score, 4) AS score FROM (
  SELECT d.doc_id, s.score + 1.0 AS score,
    ROW_NUMBER() OVER (ORDER BY s.score + 1.0 DESC, d.doc_id) AS rank
  FROM (
    SELECT doc_id, SUM(tscore) AS score FROM scores
    WHERE term = 'sort' GROUP BY doc_id
  ) s JOIN documents d USING (doc_id)
  WHERE d.n_chars > 500
) WHERE rank <= 10
UNION ALL
SELECT 2 AS qid, doc_id, rank, 1.0 AS score FROM (
  SELECT doc_id,
    ROW_NUMBER() OVER (ORDER BY doc_id) AS rank
  FROM documents WHERE n_chars <= 120
) WHERE rank <= 10
"""


def delete_then_search(sf_dir: str) -> pa.Table:
    """Deletes gate (``IndexWriter.deleteDocuments`` semantics): build a
    private index copy, tombstone every doc containing 'window', re-run a
    BM25 batch — survivors keep their EXACT pre-delete scores (stats stay
    maxDoc-based until merge), deleted docs vanish from every result."""
    from lucene_solr_ray.index.deletes import delete_by_query
    out = _cache_dir("documents_del", sf_dir)
    if read_latest_manifest(out) is None:
        build_index(
            os.path.join(sf_dir, "documents.parquet"),
            out,
            text_col="text",
            id_col="doc_id",
            docs_per_segment=DOCS_PER_SEGMENT,
        )
    # idempotent: re-running unions to the same tombstone set
    delete_by_query(out, "window")
    idx = Index(out)
    t = idx.search(
        {0: "merge", 1: "fast OR slow", 2: "sort AND batch"},
        k=10, similarity=BM25SimilarityF64(),
    )
    return pa.table(
        {
            "qid": t.column("qid"),
            "doc_id": t.column("doc_id"),
            "rank": pa.array(
                (t.column("rank").to_numpy() + 1).astype(np.int64)
            ),
            "score": pa.array(np.round(t.column("score").to_numpy(), 4)),
        }
    )


def delete_then_search_sql() -> str:
    # scores use the FULL corpus stats (deleted docs still count, exactly
    # the engine's pre-merge semantics); only the result set excludes docs
    # matching the delete query
    specs = [
        (0, ["merge"], [["merge"]]),
        (1, ["fast", "slow"], [["fast", "slow"]]),
        (2, ["sort", "batch"], [["sort"], ["batch"]]),
    ]
    selects = []
    for qid, all_terms, groups in specs:
        in_list = ", ".join(f"'{t}'" for t in sorted(all_terms))
        having = " AND ".join(
            "SUM(CASE WHEN term IN ({}) THEN 1 ELSE 0 END) > 0".format(
                ", ".join(f"'{t}'" for t in g)
            )
            for g in groups
        )
        selects.append(
            f"""
  SELECT {qid} AS qid, doc_id, rank, ROUND(score, 4) AS score FROM (
    SELECT doc_id, score,
           ROW_NUMBER() OVER (ORDER BY score DESC, doc_id ASC) AS rank
    FROM (
      SELECT doc_id, SUM(tscore) AS score
      FROM scores WHERE term IN ({in_list})
        AND doc_id NOT IN (
          SELECT doc_id FROM tok WHERE term = 'window'
        )
      GROUP BY doc_id
      HAVING {having}
    )
  ) WHERE rank <= 10"""
        )
    return _BM25_CTE + "\nUNION ALL\n".join(selects)


def soft_delete_then_search(sf_dir: str) -> pa.Table:
    """Soft-deletes gate (``IndexWriter.softUpdateDocument`` marker +
    ``SoftDeletesDirectoryReaderWrapper``): soft-delete every doc
    containing 'window'; the WRAPPED view (qids 0-2) excludes them with
    hard-delete-identical scores, the UNWRAPPED view (qid 3) still sees
    every doc — both against one index."""
    from lucene_solr_ray.index.softdeletes import soft_delete_by_query

    out = _cache_dir("documents_softdel", sf_dir)
    if read_latest_manifest(out) is None:
        build_index(
            os.path.join(sf_dir, "documents.parquet"),
            out,
            text_col="text",
            id_col="doc_id",
            docs_per_segment=DOCS_PER_SEGMENT,
        )
    # idempotent: re-running unions to the same soft set
    soft_delete_by_query(out, "window")
    idx = Index(out)
    wrapped = idx.search(
        {0: "merge", 1: "fast OR slow", 2: "sort AND batch"},
        k=10, similarity=BM25SimilarityF64(), respect_soft_deletes=True,
    )
    unwrapped = idx.search(
        {3: "merge"}, k=10, similarity=BM25SimilarityF64(),
    )
    t = pa.concat_tables([wrapped, unwrapped])
    return pa.table(
        {
            "qid": t.column("qid"),
            "doc_id": t.column("doc_id"),
            "rank": pa.array(
                (t.column("rank").to_numpy() + 1).astype(np.int64)
            ),
            "score": pa.array(np.round(t.column("score").to_numpy(), 4)),
        }
    )


def soft_delete_then_search_sql() -> str:
    # wrapped view = hard-delete result shape; unwrapped view = plain BM25
    specs = [
        (0, ["merge"], [["merge"]]),
        (1, ["fast", "slow"], [["fast", "slow"]]),
        (2, ["sort", "batch"], [["sort"], ["batch"]]),
    ]
    selects = []
    for qid, all_terms, groups in specs:
        in_list = ", ".join(f"'{t}'" for t in sorted(all_terms))
        having = " AND ".join(
            "SUM(CASE WHEN term IN ({}) THEN 1 ELSE 0 END) > 0".format(
                ", ".join(f"'{t}'" for t in g)
            )
            for g in groups
        )
        selects.append(
            f"""
  SELECT {qid} AS qid, doc_id, rank, ROUND(score, 4) AS score FROM (
    SELECT doc_id, score,
           ROW_NUMBER() OVER (ORDER BY score DESC, doc_id ASC) AS rank
    FROM (
      SELECT doc_id, SUM(tscore) AS score
      FROM scores WHERE term IN ({in_list})
        AND doc_id NOT IN (
          SELECT doc_id FROM tok WHERE term = 'window'
        )
      GROUP BY doc_id
      HAVING {having}
    )
  ) WHERE rank <= 10"""
        )
    selects.append(
        """
  SELECT 3 AS qid, doc_id, rank, ROUND(score, 4) AS score FROM (
    SELECT doc_id, score,
           ROW_NUMBER() OVER (ORDER BY score DESC, doc_id ASC) AS rank
    FROM (
      SELECT doc_id, SUM(tscore) AS score
      FROM scores WHERE term = 'merge' GROUP BY doc_id
    )
  ) WHERE rank <= 10"""
    )
    return _BM25_CTE + "\nUNION ALL\n".join(selects)


def dv_update_then_sort(sf_dir: str) -> pa.Table:
    """In-place numeric DocValues update gate
    (``IndexWriter.updateNumericDocValue``, IndexWriter.java:1683): build
    a private index storing ``n_chars``, stamp ``n_chars=7`` on every doc
    containing 'merge', then ``n_chars=9000`` on every doc containing
    'sort' (the later write wins on docs with both — update generations),
    and rank docs matching 'data' by the column: the sort path reads
    through the overlay sidecars without rewriting any segment."""
    from lucene_solr_ray.index.docvalues import update_numeric_docvalue
    from lucene_solr_ray.search.searcher import search_by_field

    out = _cache_dir("documents_dvu", sf_dir)
    if read_latest_manifest(out) is None:
        build_index(
            os.path.join(sf_dir, "documents.parquet"),
            out,
            text_col="text",
            id_col="doc_id",
            stored_cols=["n_chars"],
            docs_per_segment=DOCS_PER_SEGMENT,
        )
    # idempotent: re-running re-stamps the same final values
    update_numeric_docvalue(out, "merge", "n_chars", 7)
    update_numeric_docvalue(out, "sort", "n_chars", 9000)
    t = search_by_field(
        Index(out), {0: "data"}, "n_chars", descending=True, k=15
    )
    return pa.table(
        {
            "qid": t.column("qid"),
            "doc_id": t.column("doc_id"),
            "rank": pa.array(
                (t.column("rank").to_numpy() + 1).astype(np.int64)
            ),
            "n_chars": pa.array(
                t.column("sort_value").to_numpy().astype(np.int64)
            ),
        }
    )


def dv_update_then_sort_sql() -> str:
    return """
WITH upd AS (
  SELECT doc_id, string_split(text, ' ') AS toks,
    CASE WHEN list_contains(string_split(text, ' '), 'sort') THEN 9000
         WHEN list_contains(string_split(text, ' '), 'merge') THEN 7
         ELSE n_chars END::BIGINT AS n_chars_u
  FROM documents
)
SELECT 0 AS qid, doc_id, rank, n_chars FROM (
  SELECT doc_id, n_chars_u AS n_chars,
    ROW_NUMBER() OVER (ORDER BY n_chars_u DESC, doc_id) AS rank
  FROM upd WHERE list_contains(toks, 'data')
) WHERE rank <= 15
"""


def _payload_corpus(sf_dir: str) -> str:
    """Derive a payload-delimited corpus from documents.parquet (ONE
    distributed map_batches pass, cached): token at 0-based position i
    becomes ``tok|((i % 7) + 1)`` — the DelimitedPayloadTokenFilter input
    shape with a deterministic, SQL-recomputable payload."""
    import ray.data

    out = _cache_dir("payload_corpus", sf_dir)
    done = os.path.join(out, "_DONE")
    if os.path.exists(done):
        return out
    if os.path.isdir(out):  # partial write without the marker: start over
        import shutil

        shutil.rmtree(out)

    def addpay(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        new = [
            " ".join(
                f"{w}|{(i % 7) + 1}" for i, w in enumerate(s.split())
            )
            for s in texts
        ]
        return t.set_column(
            t.schema.get_field_index("text"), "text", pa.array(new)
        )

    (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        .map_batches(addpay, batch_format="pyarrow")
        .write_parquet(out)
    )
    with open(done, "w") as f:
        f.write("ok")
    return out


def payload_index(sf_dir: str) -> Index:
    """Build-or-open the payload-carrying index (DelimitedPayloadAnalyzer
    + per-occurrence float32 payload lists in the postings)."""
    from lucene_solr_ray.analysis.analyzer import DelimitedPayloadAnalyzer
    out = _cache_dir("documents_pay", sf_dir)
    if read_latest_manifest(out) is None:
        corpus = _payload_corpus(sf_dir)
        paths = sorted(
            os.path.join(corpus, f)
            for f in os.listdir(corpus)
            if f.endswith(".parquet")
        )
        build_index(
            paths,
            out,
            text_col="text",
            id_col="doc_id",
            analyzer=DelimitedPayloadAnalyzer(),
            with_payloads=True,
            docs_per_segment=DOCS_PER_SEGMENT,
        )
    return Index(out)


def payload_score_docs(sf_dir: str) -> pa.Table:
    """PayloadScoreQuery gate (reference ``queries/payloads/
    PayloadScoreQuery.java`` + Min/Max/Avg/SumPayloadFunction): docs
    ranked by the avg payload of 'merge' occurrences (qid 0) and the sum
    payload of 'sort' occurrences (qid 1)."""
    from lucene_solr_ray.search.query import PayloadScoreQuery, SpanTermQuery

    idx = payload_index(sf_dir)
    t = idx.search_parsed(
        [
            (0, PayloadScoreQuery(SpanTermQuery("merge"), func="avg"), 15),
            (1, PayloadScoreQuery(SpanTermQuery("sort"), func="sum"), 15),
        ],
        similarity=BM25SimilarityF64(),
    )
    return pa.table(
        {
            "qid": t.column("qid"),
            "doc_id": t.column("doc_id"),
            "rank": pa.array(
                (t.column("rank").to_numpy() + 1).astype(np.int64)
            ),
            "score": pa.array(np.round(t.column("score").to_numpy(), 4)),
        }
    )


def payload_score_docs_sql() -> str:
    return """
WITH pos AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term,
         generate_subscripts(string_split(text, ' '), 1) - 1 AS p
  FROM documents WHERE text <> ''
)
SELECT 0 AS qid, doc_id, rank, ROUND(score, 4) AS score FROM (
  SELECT doc_id, score,
         ROW_NUMBER() OVER (ORDER BY score DESC, doc_id ASC) AS rank
  FROM (
    SELECT doc_id, AVG((p % 7) + 1) AS score
    FROM pos WHERE term = 'merge' GROUP BY doc_id
  )
) WHERE rank <= 15
UNION ALL
SELECT 1 AS qid, doc_id, rank, ROUND(score, 4) AS score FROM (
  SELECT doc_id, score,
         ROW_NUMBER() OVER (ORDER BY score DESC, doc_id ASC) AS rank
  FROM (
    SELECT doc_id, SUM((p % 7) + 1)::DOUBLE AS score
    FROM pos WHERE term = 'sort' GROUP BY doc_id
  )
) WHERE rank <= 15
"""


def indexsort_topk(sf_dir: str) -> pa.Table:
    """Index-time-sort gate (``IndexWriterConfig.setIndexSort``,
    IndexWriterConfig.java:465): segments laid down in (n_chars DESC,
    doc_id ASC) comparator order; ``search_by_field`` on the matching sort
    early-terminates per segment after k matching ords — results must be
    byte-identical to the full comparator over an unsorted index."""
    from lucene_solr_ray.search.searcher import search_by_field

    out = _cache_dir("documents_isort", sf_dir)
    if read_latest_manifest(out) is None:
        build_index(
            os.path.join(sf_dir, "documents.parquet"),
            out,
            text_col="text",
            id_col="doc_id",
            stored_cols=["n_chars"],
            index_sort=("n_chars", True),
            docs_per_segment=DOCS_PER_SEGMENT,
        )
    t = search_by_field(
        Index(out), {0: "batch"}, "n_chars", descending=True, k=12
    )
    return pa.table(
        {
            "qid": t.column("qid"),
            "doc_id": t.column("doc_id"),
            "rank": pa.array(
                (t.column("rank").to_numpy() + 1).astype(np.int64)
            ),
            "n_chars": pa.array(
                t.column("sort_value").to_numpy().astype(np.int64)
            ),
        }
    )


def indexsort_topk_sql() -> str:
    return """
SELECT 0 AS qid, doc_id, rank, n_chars FROM (
  SELECT doc_id, n_chars,
    ROW_NUMBER() OVER (ORDER BY n_chars DESC, doc_id) AS rank
  FROM documents WHERE list_contains(string_split(text, ' '), 'batch')
) WHERE rank <= 12
"""


def indexsort_multi_topk(sf_dir: str) -> pa.Table:
    """Multi-field index-time sort gate (``IndexWriterConfig.setIndexSort``
    with a multi-field ``Sort``, IndexWriterConfig.java:465): segments laid
    down in (lang ASC, n_chars DESC, doc_id ASC) comparator order;
    ``search_by_fields`` on the full matching sort early-terminates per
    segment and must equal the exhaustive comparator."""
    from lucene_solr_ray.search.searcher import search_by_fields

    out = _cache_dir("documents_isortmf", sf_dir)
    if read_latest_manifest(out) is None:
        build_index(
            os.path.join(sf_dir, "documents.parquet"),
            out,
            text_col="text",
            id_col="doc_id",
            stored_cols=["lang", "n_chars"],
            index_sort=[("lang", False), ("n_chars", True)],
            docs_per_segment=DOCS_PER_SEGMENT,
        )
    t = search_by_fields(
        Index(out), {0: "batch"},
        [("lang", False), ("n_chars", True)], k=12,
    )
    return pa.table(
        {
            "qid": t.column("qid"),
            "doc_id": t.column("doc_id"),
            "rank": pa.array(
                (t.column("rank").to_numpy() + 1).astype(np.int64)
            ),
            "lang": t.column("sort_0"),
            "n_chars": pa.array(
                t.column("sort_1").to_numpy().astype(np.int64)
            ),
        }
    )


def indexsort_multi_topk_sql() -> str:
    return """
SELECT 0 AS qid, doc_id, rank, lang, n_chars FROM (
  SELECT doc_id, lang, n_chars,
    ROW_NUMBER() OVER (ORDER BY lang ASC, n_chars DESC, doc_id) AS rank
  FROM documents WHERE list_contains(string_split(text, ' '), 'batch')
) WHERE rank <= 12
"""


def field_wildcard_docs(sf_dir: str) -> pa.Table:
    """Field-scoped wildcard over the ``lang`` keyword field:
    docs whose lang starts with 'e' (constant-score rewrite)."""
    idx = documents_index_mf(sf_dir)
    t = idx.search({0: "lang:e*"}, k=100_000)
    out = t.sort_by("doc_id")
    return pa.table(
        {
            "doc_id": out.column("doc_id"),
            "score": pa.array(
                out.column("score").to_numpy().astype(np.float64)
            ),
        }
    )


def field_wildcard_docs_sql() -> str:
    return """
SELECT doc_id, 1.0 AS score FROM documents
WHERE lang LIKE 'e%' ORDER BY doc_id
"""


def suggest_infix_er(sf_dir: str) -> pa.Table:
    """Infix suggester gate: terms containing "er", ttf-weighted."""
    from lucene_solr_ray.functions.suggest import suggest_infix

    idx = documents_index(sf_dir)
    rows = suggest_infix(idx, "er", n=8)
    return pa.table(
        {
            "term": pa.array([r[0] for r in rows], pa.string()),
            "weight": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


def suggest_infix_er_sql() -> str:
    return """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term
  FROM documents WHERE text <> ''
)
SELECT term, CAST(COUNT(*) AS BIGINT) AS weight
FROM tok WHERE term LIKE '%er%'
GROUP BY term ORDER BY weight DESC, term LIMIT 8
"""


def term_vectors_docs(sf_dir: str) -> pa.Table:
    """Term-vector gate: (doc_id, term, freq, first_pos) for docs 0-2."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.search.memory import term_vector

    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )
    rows = []
    for i in range(3):
        d = t.column("doc_id")[i].as_py()
        for term, freq, positions in term_vector(
            t.column("text")[i].as_py()
        ):
            rows.append({"doc_id": d, "term": term, "freq": freq,
                         "first_pos": positions[0]})
    import pandas as pd

    return pa.Table.from_pandas(
        pd.DataFrame(rows).astype(
            {"doc_id": "int64", "freq": "int64", "first_pos": "int64"}
        ),
        preserve_index=False,
    )


def term_vectors_docs_sql() -> str:
    return """
WITH pos AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term,
         generate_subscripts(string_split(text, ' '), 1) - 1 AS p
  FROM documents WHERE doc_id < 3 AND text <> ''
)
SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS freq,
       CAST(MIN(p) AS BIGINT) AS first_pos
FROM pos GROUP BY doc_id, term ORDER BY doc_id, term
"""


def export_sorted_docs(sf_dir: str) -> pa.Table:
    """ExportStream gate: every doc matching "merge OR sort" exported to
    partitioned parquet globally sorted by (field_len, doc_id); the gate
    reads the export back in file-name order and raises unless its rows
    come in that order (the oracle diff sorts both sides, so the row
    order is checked here).  SQL-matched."""
    import shutil

    import pyarrow.parquet as pq

    from lucene_solr_ray.search.searcher import export_sorted

    idx = documents_index(sf_dir)
    out_dir = _cache_dir("export", sf_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    export_sorted(idx, "merge OR sort", "field_len", out_dir)
    t = pa.concat_tables([
        pq.read_table(f)
        for f in sorted(glob.glob(os.path.join(out_dir, "*.parquet")))
    ])
    t = t.set_column(t.column_names.index("field_len"), "field_len",
                     t.column("field_len").cast(pa.int64()))
    fl, d = (t.column(c).to_numpy() for c in ("field_len", "doc_id"))
    step = (fl[1:] > fl[:-1]) | ((fl[1:] == fl[:-1]) & (d[1:] > d[:-1]))
    if not step.all():
        raise AssertionError(
            "export_sorted rows are not in (field_len, doc_id) order")
    return t


def export_sorted_docs_sql() -> str:
    return """
SELECT doc_id,
  CAST(CASE WHEN text = '' THEN 0
       ELSE array_length(string_split(text, ' ')) END AS BIGINT)
    AS field_len
FROM documents
WHERE list_contains(string_split(text, ' '), 'merge')
   OR list_contains(string_split(text, ' '), 'sort')
ORDER BY field_len, doc_id
"""


def geo_distance_docs(sf_dir: str) -> pa.Table:
    """Geo distance gate (LatLonPoint.newDistanceQuery + distance sort):
    lat/lon derived DETERMINISTICALLY from doc_id with a Knuth hash both
    sides compute (the oracle runs over the pre-registered documents
    view); top-20 within 500 km of (50, 5).  SQL-matched."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.search.geo import geo_distance_search

    corpus = _cache_dir("geo_corpus", sf_dir) + ".parquet"
    if not os.path.exists(corpus):
        ids = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        ).column("doc_id").to_numpy().astype(np.int64)
        h1 = ((ids + 7) * 2654435761) % 4294967296
        h2 = ((ids + 13) * 2654435761) % 4294967296
        pq.write_table(
            pa.table({
                "doc_id": pa.array(ids),
                "text": pa.array(["point"] * len(ids)),
                "lat": pa.array(40.0 + (h1 % 20001) / 1000.0),
                "lon": pa.array(-10.0 + (h2 % 30001) / 1000.0),
            }),
            corpus,
        )
    out = _cache_dir("geo", sf_dir)
    if read_latest_manifest(out) is None:
        build_index(corpus, out, text_col="text", id_col="doc_id",
                    stored_cols=["lat", "lon"], docs_per_segment=1000)
    idx = Index(out)
    t = geo_distance_search(idx, 50.0, 5.0, 500_000.0, k=20)
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "rank": t.column("rank"),
            "distance_m": pa.array(
                np.round(t.column("distance_m").to_numpy(), 3)
            ),
        }
    )


def geo_distance_docs_sql() -> str:
    return """
WITH pts AS (
  SELECT doc_id,
    40.0 + ((((doc_id + 7) * 2654435761) % 4294967296) % 20001) / 1000.0
      AS lat,
    -10.0 + ((((doc_id + 13) * 2654435761) % 4294967296) % 30001) / 1000.0
      AS lon
  FROM documents
)
SELECT doc_id, rank, ROUND(distance_m, 3) AS distance_m FROM (
  SELECT doc_id,
    CAST(ROW_NUMBER() OVER (ORDER BY d, doc_id) AS BIGINT) AS rank,
    d AS distance_m
  FROM (
    SELECT doc_id,
      2.0 * 6371008.8 * asin(sqrt(
        LEAST(1.0, GREATEST(0.0,
          pow(sin(radians(lat - 50.0) / 2), 2)
          + cos(radians(50.0)) * cos(radians(lat))
            * pow(sin(radians(lon - 5.0) / 2), 2)
        ))
      )) AS d
    FROM pts
  ) WHERE d <= 500000.0
) WHERE rank <= 20 ORDER BY rank
"""


#: the LatLonShape gate's query polygon — irregular pentagon over the
#: deterministic point field (lat 40–60, lon −10–20); shared verbatim by
#: the Ray kernel and the generated SQL oracle
GEO_POLYGON = [
    (45.1, -2.3), (52.7, -6.1), (58.3, 1.7), (55.9, 12.3), (46.2, 8.7),
]


def geo_polygon_docs(sf_dir: str) -> pa.Table:
    """LatLonShape polygon-query gate (the fork's signature feature:
    ``lucene/sandbox/.../LatLonShapePolygonQuery.java``): each doc indexes
    its deterministic (lat, lon) as a degenerate point shape in the
    bbox-sorted triangle table; the query returns docs inside the pentagon.
    SQL-matched — the oracle ray-casts with the identical crossing formula
    (richer triangle/line shapes are exercised by tests/test_shape.py)."""
    import pyarrow.parquet as pq
    import ray.data

    from lucene_solr_ray.search.shape import (
        build_shape_index,
        shape_polygon_query,
    )

    idx = _cache_dir("shape", sf_dir)
    if not os.path.isdir(idx) or not os.listdir(idx):
        ids = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        ).column("doc_id").to_numpy().astype(np.int64)
        h1 = ((ids + 7) * 2654435761) % 4294967296
        h2 = ((ids + 13) * 2654435761) % 4294967296
        lat = 40.0 + (h1 % 20001) / 1000.0
        lon = -10.0 + (h2 % 30001) / 1000.0
        geoms = pa.array(
            [[[la, lo]] for la, lo in zip(lat, lon)],
            pa.list_(pa.list_(pa.float64())),
        )
        ds = ray.data.from_arrow(
            pa.table({"doc_id": pa.array(ids), "geom": geoms})
        )
        build_shape_index(ds, "doc_id", "geom", idx)
    hits = shape_polygon_query(idx, GEO_POLYGON).to_pandas()
    return pa.table(
        {"doc_id": pa.array(np.sort(hits["doc_id"].to_numpy()))}
    )


def geo_polygon_docs_sql() -> str:
    n = len(GEO_POLYGON)
    edges = ", ".join(
        f"({GEO_POLYGON[i][1]}, {GEO_POLYGON[i][0]}, "
        f"{GEO_POLYGON[(i + 1) % n][1]}, {GEO_POLYGON[(i + 1) % n][0]})"
        for i in range(n)
    )
    return f"""
WITH pts AS (
  SELECT doc_id,
    40.0 + ((((doc_id + 7) * 2654435761) % 4294967296) % 20001) / 1000.0
      AS lat,
    -10.0 + ((((doc_id + 13) * 2654435761) % 4294967296) % 30001) / 1000.0
      AS lon
  FROM documents
), edges(x1, y1, x2, y2) AS (VALUES {edges})
SELECT doc_id FROM (
  SELECT p.doc_id,
    SUM(CASE WHEN ((e.y1 > p.lat) <> (e.y2 > p.lat))
          AND (p.lon < (e.x2 - e.x1) * (p.lat - e.y1) / (e.y2 - e.y1)
               + e.x1)
        THEN 1 ELSE 0 END) AS crossings
  FROM pts p CROSS JOIN edges e GROUP BY p.doc_id
) WHERE crossings % 2 = 1 ORDER BY doc_id
"""


def free_text_suggest_merge(sf_dir: str) -> pa.Table:
    """FreeTextSuggester gate: top next-words after "merge" by bigram
    frequency; SQL-matched with a positions self-join oracle."""
    import ray.data

    from lucene_solr_ray.functions.suggest import free_text_suggest

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )
    rows = free_text_suggest(ds, "text", "merge", n=8)
    return pa.table(
        {
            "next": pa.array([r[0] for r in rows], pa.string()),
            "weight": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


def free_text_suggest_merge_sql() -> str:
    return """
WITH pos AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term,
         generate_subscripts(string_split(text, ' '), 1) AS p
  FROM documents WHERE text <> ''
)
SELECT b.term AS next, CAST(COUNT(*) AS BIGINT) AS weight
FROM pos a JOIN pos b ON a.doc_id = b.doc_id AND b.p = a.p + 1
WHERE a.term = 'merge'
GROUP BY b.term ORDER BY weight DESC, next LIMIT 8
"""


def terms_enum_docs(sf_dir: str) -> pa.Table:
    """The /terms handler (reference ``solr/core/src/java/org/apache/solr/
    handler/component/TermsComponent.java``): enumerate dictionary terms
    in [lower, upper) with a df floor, ordered by term — straight off the
    distributed postings metadata columns."""
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Sum

    idx = documents_index(sf_dir)
    paths = [os.path.join(d, "postings.parquet") for d in idx.seg_dirs]
    ds = ray.data.read_parquet(paths, columns=["term", "df"])

    def _slice(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(t.column("term"), "m"),
            pc.less(t.column("term"), "t"),
        )
        return t.filter(m)

    out = (
        ds.map_batches(_slice, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
        .to_pandas()
    )
    out = out[out["df"] >= 50].sort_values("term").reset_index(drop=True)
    out["df"] = out["df"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def terms_enum_docs_sql() -> str:
    return """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term
  FROM documents WHERE text <> ''
),
tf AS (SELECT term, COUNT(DISTINCT doc_id) AS df FROM tok GROUP BY term)
SELECT term, CAST(df AS BIGINT) AS df FROM tf
WHERE term >= 'm' AND term < 't' AND df >= 50
ORDER BY term
"""


def realtime_get_docs(sf_dir: str) -> pa.Table:
    """Realtime get (``solr/core/.../handler/component/
    RealTimeGetComponent.java``): fetch stored fields for explicit ids —
    a pruned-row-group docstore read, no search."""
    from lucene_solr_ray.search.fetch import fetch_from_corpus

    ids = [3, 141, 400]
    hits = pa.table(
        {
            "qid": pa.array([0] * len(ids), pa.int64()),
            "rank": pa.array(range(len(ids)), pa.int32()),
            "doc_id": pa.array(ids, pa.int64()),
            "score": pa.array([0.0] * len(ids), pa.float32()),
        }
    )
    out = fetch_from_corpus(
        hits, os.path.join(sf_dir, "documents.parquet"), "doc_id",
        ["lang", "n_chars"],
    ).sort_by("doc_id")
    return pa.table(
        {
            "doc_id": out.column("doc_id"),
            "lang": out.column("lang"),
            "n_chars": out.column("n_chars"),
        }
    )


def realtime_get_docs_sql() -> str:
    return """
SELECT doc_id, lang, n_chars FROM documents
WHERE doc_id IN (3, 141, 400) ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# LTR re-ranking — linear and additive-trees models (solr/contrib/ltr);
# SQL-matched: every feature is SQL-expressible (BM25 scores from the
# shared CTE, SmallFloat-bucketed field length, constants)
# ---------------------------------------------------------------------------

#: first pass + window shared by both LTR gates
_LTR_Q1 = "merge sort"
_LTR_WINDOW = 50


def _ltr_features():
    from lucene_solr_ray.search.ltr import (
        FieldLengthFeature,
        OriginalScoreFeature,
        SolrFeature,
        ValueFeature,
    )

    return [
        OriginalScoreFeature("orig"),
        FieldLengthFeature("len"),
        SolrFeature("qbatch", q="batch"),
        ValueFeature("bias", efi_key="bias"),
    ]


def ltr_rerank_docs(sf_dir: str) -> pa.Table:
    """LinearModel re-rank of the first-pass top-50 for ``merge sort``:
    score = 1·origScore + 0.3·minmax(fieldLength, 0, 100) +
    0.8·score(q=batch) + 1·efi(bias=0.5)."""
    from lucene_solr_ray.search.ltr import (
        LinearModel,
        MinMaxNormalizer,
        ltr_rescore,
    )

    idx = documents_index(sf_dir)
    t = ltr_rescore(
        idx,
        _LTR_Q1,
        LinearModel({"orig": 1.0, "len": 0.3, "qbatch": 0.8, "bias": 1.0}),
        _ltr_features(),
        k=10,
        window=_LTR_WINDOW,
        norms={"len": MinMaxNormalizer(0.0, 100.0)},
        efi={"bias": 0.5},
        similarity=BM25SimilarityF64(),
    )
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "rank": t.column("rank"),
            "score": pa.array(np.round(t.column("score").to_numpy(), 4)),
            "first_pass": pa.array(
                np.round(t.column("first_pass").to_numpy(), 4)
            ),
        }
    )


_LTR_WIN_CTE = _BM25_CTE + """
, fp AS (
  SELECT doc_id, SUM(tscore) AS first
  FROM scores WHERE term IN ('merge', 'sort') GROUP BY doc_id
),
win AS (
  SELECT doc_id, first FROM fp
  ORDER BY first DESC, doc_id ASC LIMIT 50
),
fb AS (
  SELECT doc_id, SUM(tscore) AS fbatch
  FROM scores WHERE term = 'batch' GROUP BY doc_id
)
"""


def ltr_rerank_docs_sql() -> str:
    return _LTR_WIN_CTE + """
SELECT doc_id,
       ROW_NUMBER() OVER (ORDER BY score DESC, doc_id ASC) AS rank,
       ROUND(score, 4) AS score, ROUND(first, 4) AS first_pass
FROM (
  SELECT w.doc_id, w.first,
    1.0 * w.first + 0.3 * (dn.dlq / 100.0)
      + 0.8 * COALESCE(fb.fbatch, 0) + 1.0 * 0.5 AS score
  FROM win w
  JOIN dln dn ON w.doc_id = dn.doc_id
  LEFT JOIN fb ON fb.doc_id = w.doc_id
)
ORDER BY score DESC, doc_id ASC LIMIT 10
"""


def ltr_trees_docs(sf_dir: str) -> pa.Table:
    """MultipleAdditiveTrees re-rank (LambdaMART shape) over (orig, len)
    with the reference's value <= threshold+1e-6 split rule."""
    from lucene_solr_ray.search.ltr import (
        FieldLengthFeature,
        MultipleAdditiveTreesModel,
        OriginalScoreFeature,
        ltr_rescore,
    )

    idx = documents_index(sf_dir)
    model = MultipleAdditiveTreesModel((
        {
            "weight": 1.0,
            "root": {
                "feature": "len", "threshold": 30.0,
                "left": {"value": 0.1},
                "right": {
                    "feature": "orig", "threshold": 2.0,
                    "left": {"value": 0.5},
                    "right": {"value": 1.5},
                },
            },
        },
        {
            "weight": 2.0,
            "root": {
                "feature": "orig", "threshold": 1.0,
                "left": {"value": 0.0},
                "right": {"value": 0.25},
            },
        },
    ))
    t = ltr_rescore(
        idx,
        _LTR_Q1,
        model,
        [OriginalScoreFeature("orig"), FieldLengthFeature("len")],
        k=10,
        window=_LTR_WINDOW,
        similarity=BM25SimilarityF64(),
    )
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "rank": t.column("rank"),
            "score": pa.array(np.round(t.column("score").to_numpy(), 4)),
        }
    )


def ltr_trees_docs_sql() -> str:
    return _LTR_WIN_CTE + """
SELECT doc_id,
       ROW_NUMBER() OVER (ORDER BY score DESC, doc_id ASC) AS rank,
       ROUND(score, 4) AS score
FROM (
  SELECT w.doc_id,
    1.0 * (CASE WHEN dn.dlq <= 30.0 + 1e-6 THEN 0.1
                WHEN w.first <= 2.0 + 1e-6 THEN 0.5
                ELSE 1.5 END)
    + 2.0 * (CASE WHEN w.first <= 1.0 + 1e-6 THEN 0.0
                  ELSE 0.25 END) AS score
  FROM win w JOIN dln dn ON w.doc_id = dn.doc_id
)
ORDER BY score DESC, doc_id ASC LIMIT 10
"""


# ---------------------------------------------------------------------------
# synonym_graph_docs — multi-word synonyms (SynonymGraphFilter +
# FlattenGraphFilter, round 5)
# ---------------------------------------------------------------------------


def _synonym_analyzer():
    from lucene_solr_ray.analysis.filters import (
        CustomAnalyzer,
        LowerCaseFilter,
        SynonymGraphFilter,
    )

    return CustomAnalyzer(filters=[
        LowerCaseFilter(),
        SynonymGraphFilter({
            "merge sort": ["msort"],       # multi-word → single token
            "spark": ["spark engine"],     # single token → multi-word
        }),
    ])


def documents_index_syn(sf_dir: str) -> Index:
    """Cached index over documents analyzed through the synonym graph
    chain (``SynonymGraphFilter`` → ``FlattenGraphFilter``, the
    reference's index-time multi-word synonym configuration)."""
    out = _cache_dir("documents_syn", sf_dir)
    if read_latest_manifest(out) is None:
        build_index(
            os.path.join(sf_dir, "documents.parquet"),
            out,
            text_col="text",
            id_col="doc_id",
            docs_per_segment=DOCS_PER_SEGMENT,
            analyzer=_synonym_analyzer(),
        )
    return Index(out)


def synonym_graph_docs(sf_dir: str) -> pa.Table:
    """Multi-word synonym gate with a POSITIONAL oracle:

    - ``msort`` (term): matches docs where the synonym rule "merge sort"
      → msort fired — i.e. 'merge' immediately followed by 'sort';
    - ``"spark engine"`` (phrase): matches docs containing the token
      'spark' (expanded to the two-token side path at index time);
    - ``"slow fast"`` (phrase): adjacency must survive the graph filter's
      position shifts — a doc where an expansion landed BETWEEN the two
      words must not match, exactly like the raw-text adjacency test.

    Columns (q, doc_id), sorted.  Queries parse through a PLAIN analyzer
    — synonyms applied at index time only, the reference's recommended
    configuration (expanding on both sides double-counts)."""
    from lucene_solr_ray.analysis.analyzer import StandardAnalyzer

    idx = documents_index_syn(sf_dir)
    t = idx.search(
        {0: "msort", 1: '"spark engine"', 2: '"slow fast"'},
        k=100_000,
        analyzer=StandardAnalyzer(),
    )
    labels = {0: "msort", 1: "spark_engine", 2: "slow_fast"}
    qs = [labels[q] for q in t.column("qid").to_pylist()]
    out = pa.table(
        {"q": pa.array(qs, pa.string()), "doc_id": t.column("doc_id")}
    )
    return out.sort_by([("q", "ascending"), ("doc_id", "ascending")])


def synonym_graph_docs_sql() -> str:
    # raw-text adjacency reproduces the graph semantics: "merge sort"
    # fires on adjacency; phrase "spark engine" hits every doc carrying
    # the token spark (index-time expansion); "slow fast" is plain
    # adjacency (positions preserved through flattening)
    return """
SELECT 'msort' AS q, doc_id FROM documents
WHERE (' ' || text || ' ') LIKE '% merge sort %'
UNION ALL
SELECT 'slow_fast' AS q, doc_id FROM documents
WHERE (' ' || text || ' ') LIKE '% slow fast %'
UNION ALL
SELECT 'spark_engine' AS q, doc_id FROM documents
WHERE (' ' || text || ' ') LIKE '% spark %'
ORDER BY q, doc_id
"""


# ---------------------------------------------------------------------------
# html_highlight_docs — CharFilter layer with offset correction (round 5)
# ---------------------------------------------------------------------------


def html_highlight_docs(sf_dir: str) -> pa.Table:
    """Offset-exact highlighting on an HTML corpus (HTMLStripCharFilter).

    Deterministic markup over the documents table: the content is padded
    with spaces, every whole-word ``fast`` wrapped in ``<em>…</em>``
    (inline tag — stripped to nothing), then framed as
    ``<div>&nbsp;…&nbsp;</div>`` (block tag + entity).  For each doc the
    FIRST ``fast`` token and the FIRST ``merge`` token are located by the
    analyzer and their offsets corrected back into the raw HTML; the
    emitted snippet is ``html[start:end]`` — byte-equality against the
    SQL-computed substring proves the correction math.  Per the
    reference's ``BaseCharFilter.correct`` contract, an end offset at a
    strip boundary extends past the stripped region, so the ``fast``
    snippet is exactly ``fast</em>``.

    Columns (q, doc_id, start, end, snippet), sorted.  This is ONE
    ``map_batches`` over the corpus — stateless, no shuffle."""
    import ray.data

    from lucene_solr_ray.analysis.charfilter import HTMLStripCharFilter
    from lucene_solr_ray.analysis.filters import (
        CustomAnalyzer,
        LowerCaseFilter,
    )

    ana = CustomAnalyzer(
        filters=[LowerCaseFilter()],
        char_filters=[HTMLStripCharFilter()],
    )

    def _hl(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            wrap = (" " + (text or "") + " ").replace(
                " fast ", " <em>fast</em> "
            )
            html = "<div>&nbsp;" + wrap + "&nbsp;</div>"
            terms, _, starts, ends, _ = ana.analyze_with_offsets(html)
            for q in ("fast", "merge"):
                try:
                    i = terms.index(q)
                except ValueError:
                    continue
                s, e = starts[i], ends[i]
                rows.append({
                    "q": q, "doc_id": int(doc_id),
                    "start": int(s), "end": int(e),
                    "snippet": html[s:e],
                })
        return pa.Table.from_pylist(
            rows,
            schema=pa.schema([
                ("q", pa.string()), ("doc_id", pa.int64()),
                ("start", pa.int64()), ("end", pa.int64()),
                ("snippet", pa.string()),
            ]),
        )

    rows = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        .map_batches(_hl, batch_format="pyarrow")
        .take_all()
    )
    t = pa.Table.from_pylist(
        rows,
        schema=pa.schema([
            ("q", pa.string()), ("doc_id", pa.int64()),
            ("start", pa.int64()), ("end", pa.int64()),
            ("snippet", pa.string()),
        ]),
    )
    return t.sort_by([("q", "ascending"), ("doc_id", "ascending")])


def html_highlight_docs_sql() -> str:
    # the same construction in SQL; strpos is 1-based.  html prefix
    # '<div>&nbsp;' is 11 chars.  fast: token starts 4 chars into
    # '<em>fast</em>' and its corrected end extends past '</em>'
    # (reference correct() at a strip boundary).  merge: plain token,
    # located within the WRAPPED string so earlier <em> inserts shift it.
    return """
WITH h AS (
  SELECT doc_id,
         '<div>&nbsp;' || replace(' ' || text || ' ', ' fast ',
                                  ' <em>fast</em> ') || '&nbsp;</div>'
         AS html
  FROM documents
),
f AS (
  SELECT doc_id, html, strpos(html, '<em>fast</em>') AS p FROM h
),
m AS (
  SELECT doc_id, html, strpos(html, ' merge ') AS p FROM h
)
SELECT 'fast' AS q, doc_id,
       CAST(p + 3 AS BIGINT) AS start,
       CAST(p + 12 AS BIGINT) AS "end",
       substr(html, p + 4, 9) AS snippet
FROM f WHERE p > 0
UNION ALL
SELECT 'merge' AS q, doc_id,
       CAST(p AS BIGINT) AS start,
       CAST(p + 5 AS BIGINT) AS "end",
       substr(html, p + 1, 5) AS snippet
FROM m WHERE p > 0
ORDER BY q, doc_id
"""


# ---------------------------------------------------------------------------
# atomic_update_docs — AtomicUpdateDocumentMerger + tolerant chain (round 5)
# ---------------------------------------------------------------------------


def atomic_update_docs(sf_dir: str) -> pa.Table:
    """Atomic-update gate (``AtomicUpdateDocumentMerger``): private index
    storing ``n_chars``; apply text add/remove (re-index path, stored
    column propagated) and numeric set→inc (in-place DV path, chained —
    idempotent across re-runs because the set re-stamps the base), then
    verify via search membership and the mutated column:

    - ``zz`` rows: docs matching the token added to doc 1;
    - ``value`` rows: docs containing token 'value' after it was removed
      from doc 4;
    - ``n_chars`` rows: current column values for docs 1-4 (1 and 4 kept
      their stored value through the re-index; 2 = 100+5; 3 = 77).

    Columns (q, doc_id, val), sorted."""
    from lucene_solr_ray.index.atomic import (
        _current_stored,
        atomic_update_documents,
    )
    out = _cache_dir("documents_atu", sf_dir)
    corpus = os.path.join(sf_dir, "documents.parquet")
    if read_latest_manifest(out) is None:
        build_index(
            corpus, out, text_col="text", id_col="doc_id",
            stored_cols=["n_chars"], docs_per_segment=DOCS_PER_SEGMENT,
        )
    _, errors = atomic_update_documents(out, corpus, [
        {"doc_id": 1, "text": {"add": "zzadded"}},
        {"doc_id": 4, "text": {"remove": "value"}},
        {"doc_id": 2, "n_chars": {"set": 100}},
        {"doc_id": 3, "n_chars": {"set": 77}},
        # a malformed update the tolerant chain must isolate
        {"doc_id": 0, "nosuchfield": {"set": 1}},
    ], tolerant=True)
    assert len(errors) == 1 and errors[0]["doc_id"] == 0
    atomic_update_documents(out, corpus, [
        {"doc_id": 2, "n_chars": {"inc": 5}},
    ])
    idx = Index(out)
    rows = []
    for d in idx.search({0: "zzadded"}, k=100_000).column(
            "doc_id").to_pylist():
        rows.append({"q": "zz", "doc_id": int(d), "val": 0})
    for d in idx.search({0: "value"}, k=100_000).column(
            "doc_id").to_pylist():
        rows.append({"q": "value", "doc_id": int(d), "val": 0})
    cur = _current_stored(out, [1, 2, 3, 4], ["n_chars"])
    for d in (1, 2, 3, 4):
        rows.append({"q": "n_chars", "doc_id": d,
                     "val": int(cur[d]["n_chars"])})
    t = pa.Table.from_pylist(rows, schema=pa.schema([
        ("q", pa.string()), ("doc_id", pa.int64()), ("val", pa.int64()),
    ]))
    return t.sort_by([("q", "ascending"), ("doc_id", "ascending")])


def atomic_update_docs_sql() -> str:
    return """
SELECT 'zz' AS q, CAST(1 AS BIGINT) AS doc_id, CAST(0 AS BIGINT) AS val
UNION ALL
SELECT 'value' AS q, doc_id, CAST(0 AS BIGINT) AS val FROM documents
WHERE list_contains(string_split(text, ' '), 'value') AND doc_id <> 4
UNION ALL
SELECT 'n_chars' AS q, doc_id,
       CAST(CASE doc_id WHEN 2 THEN 105 WHEN 3 THEN 77
            ELSE n_chars END AS BIGINT) AS val
FROM documents WHERE doc_id IN (1, 2, 3, 4)
ORDER BY q, doc_id
"""


# ---------------------------------------------------------------------------
# elevation_docs — QueryElevationComponent (round 5)
# ---------------------------------------------------------------------------

#: elevate.xml registry for the gate: pin two ids (the second one need
#: not match), drop one
_ELEVATIONS = {"merge": {"elevate": [42, 7], "exclude": [3]}}


def elevation_docs(sf_dir: str) -> pa.Table:
    """QueryElevationComponent gate: query 'merge' with ids 42 and 7
    pinned first (config order) and id 3 excluded; organic hits follow,
    ranked on the ROUNDED f64 score (doc_id ties ascending) so the
    DuckDB oracle rank is ulp-stable."""
    from lucene_solr_ray.search.searcher import elevated_search

    idx = documents_index(sf_dir)
    t = elevated_search(
        idx, "merge", _ELEVATIONS, k=10,
        similarity=BM25SimilarityF64(), round_scores=4,
    )
    return t


def elevation_docs_sql() -> str:
    return _BM25_CTE + """
, organic AS (
  SELECT doc_id, ROUND(SUM(tscore), 4) AS score
  FROM scores WHERE term = 'merge' GROUP BY doc_id
),
org_ranked AS (
  SELECT doc_id, score,
         ROW_NUMBER() OVER (ORDER BY score DESC, doc_id ASC) AS r
  FROM organic WHERE doc_id NOT IN (42, 7, 3)
),
pins AS (
  SELECT * FROM (VALUES (1, 42), (2, 7)) AS p(rank, doc_id)
)
SELECT CAST(rank AS INTEGER) AS rank, CAST(p.doc_id AS BIGINT) AS doc_id,
       TRUE AS elevated, COALESCE(o.score, 0.0) AS score
FROM pins p LEFT JOIN organic o ON p.doc_id = o.doc_id
UNION ALL
SELECT CAST(r + 2 AS INTEGER) AS rank, doc_id, FALSE AS elevated, score
FROM org_ranked WHERE r <= 8
ORDER BY rank
"""


# ---------------------------------------------------------------------------
# SimpleQueryParser gate (round 5): the +|-"()* syntax over documents
# ---------------------------------------------------------------------------

#: (qid, simple-syntax query, oracle condition groups) — each group is
#: OR-of-tokens; groups AND together; a leading "!" group negates
SIMPLE_QUERY_SET = [
    (0, "join +hash", [("join",), ("hash",)]),
    (1, "row | batch scan", [("row", "batch"), ("scan",)]),
    (2, '"hash join"', "PHRASE:hash join"),
    (3, "merge -vector", [("merge",), ("!", "vector")]),
    (4, "(customer | filter) +small", [("customer", "filter"),
                                       ("small",)]),
]


def simple_query_hits(sf_dir: str) -> pa.Table:
    """Hit counts for SimpleQueryParser-parsed queries — the parser gate
    (``queryparser/simple/SimpleQueryParser.java:63``); MUST default so
    `-` negation is effective (the oracle's NOT arm)."""
    from lucene_solr_ray.search.query import Occur
    from lucene_solr_ray.search.searcher import count_hits
    from lucene_solr_ray.search.simpleparser import SimpleQueryParser

    idx = documents_index(sf_dir)
    parser = SimpleQueryParser(default_operator=Occur.MUST)
    return count_hits(
        idx, {qid: qs for qid, qs, _ in SIMPLE_QUERY_SET}, parser=parser
    )


def simple_query_hits_sql() -> str:
    parts = []
    for qid, _, groups in SIMPLE_QUERY_SET:
        if isinstance(groups, str):  # PHRASE:a b
            phrase = groups.split(":", 1)[1]
            cond = f"contains(' ' || text || ' ', ' {phrase} ')"
        else:
            conds = []
            for g in groups:
                if g[0] == "!":
                    conds.append("NOT ({})".format(" OR ".join(
                        f"list_contains(toks, '{t}')" for t in g[1:]
                    )))
                else:
                    conds.append("({})".format(" OR ".join(
                        f"list_contains(toks, '{t}')" for t in g
                    )))
            cond = " AND ".join(conds)
        parts.append(
            f"SELECT {qid} AS qid, CAST(COUNT(*) AS BIGINT) AS total_hits "
            f"FROM tok WHERE {cond}"
        )
    return (
        "WITH tok AS (SELECT doc_id, text, string_split(text, ' ') AS toks "
        "FROM documents WHERE text <> '')\n"
        + "\nUNION ALL\n".join(parts)
        + "\nORDER BY qid"
    )


def word_break_docs(sf_dir: str) -> pa.Table:
    """WordBreakSpellChecker gate: the best break of the run-on term
    ``hashjoin`` over the documents index — (pos, word, freq) rows whose
    freq is the word's exact docFreq; the oracle recomputes both from
    the token lists."""
    from lucene_solr_ray.functions.spell import word_break_suggestions

    idx = documents_index(sf_dir)
    best = word_break_suggestions(idx, "hashjoin", k=1)[0]
    return pa.table({
        "pos": pa.array(range(len(best["words"])), pa.int64()),
        "word": pa.array(best["words"], pa.string()),
        "freq": pa.array(best["freqs"], pa.int64()),
    })


WORD_BREAK_SQL = """
WITH tok AS (SELECT string_split(text, ' ') AS toks
             FROM documents WHERE text <> '')
SELECT 0 AS pos, 'hash' AS word, CAST(COUNT(*) AS BIGINT) AS freq
FROM tok WHERE list_contains(toks, 'hash')
UNION ALL
SELECT 1, 'join', CAST(COUNT(*) AS BIGINT)
FROM tok WHERE list_contains(toks, 'join')
ORDER BY pos
"""


def word_break_docs_sql() -> str:
    return WORD_BREAK_SQL


def complex_phrase_docs(sf_dir: str) -> pa.Table:
    """ComplexPhraseQueryParser gate: ``"(hash merge) jo*"`` — an
    alternation slot and a prefix slot, exact adjacency; the oracle
    replays it as an adjacent-token-pair scan (matching doc set only —
    slop=0 makes match semantics score-free)."""
    from lucene_solr_ray.search.complexphrase import complex_phrase_query

    idx = documents_index(sf_dir)
    q = complex_phrase_query(idx, "(hash merge) jo*")
    t = idx.search_parsed([(0, q, 100000)])
    ids = sorted(t.column("doc_id").to_pylist())
    return pa.table({"doc_id": pa.array(ids, pa.int64())})


COMPLEX_PHRASE_SQL = """
WITH tok AS (SELECT doc_id, string_split(text, ' ') AS toks
             FROM documents WHERE text <> ''),
pairs AS (
  SELECT doc_id, toks[i] AS a, toks[i + 1] AS b
  FROM tok, UNNEST(generate_series(1, len(toks) - 1)) AS u(i)
)
SELECT DISTINCT CAST(doc_id AS BIGINT) AS doc_id FROM pairs
WHERE a IN ('hash', 'merge') AND b LIKE 'jo%'
ORDER BY doc_id
"""


def complex_phrase_docs_sql() -> str:
    return COMPLEX_PHRASE_SQL


def blended_infix_docs(sf_dir: str) -> pa.Table:
    """BlendedInfixSuggester gate: documents as (text, weight=n_chars)
    entries, fragment ``jo``, reciprocal blender — the oracle replays
    weight × 1/(first-matching-token position + 1) with a token scan."""
    import ray.data

    from lucene_solr_ray.functions.suggest import blended_infix_suggest

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "n_chars"],
    )
    return blended_infix_suggest(
        ds, "jo", n=10, blender="reciprocal", weight_col="n_chars",
    )


BLENDED_INFIX_SQL = """
WITH tok AS (
  SELECT doc_id, n_chars, toks[i] AS tk, i
  FROM (SELECT doc_id, n_chars, string_split(text, ' ') AS toks
        FROM documents WHERE text <> ''),
       UNNEST(generate_series(1, len(toks))) AS u(i)
),
firstpos AS (
  SELECT doc_id, n_chars, MIN(i) - 1 AS pos
  FROM tok WHERE tk LIKE 'jo%' GROUP BY doc_id, n_chars
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       ROUND(n_chars * 1.0 / (pos + 1), 4) AS score
FROM firstpos ORDER BY score DESC, doc_id ASC LIMIT 10
"""


def blended_infix_docs_sql() -> str:
    return BLENDED_INFIX_SQL
