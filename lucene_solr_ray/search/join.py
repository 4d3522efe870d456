"""Block join + query-time join — the reference's ``lucene/join`` module.

- :class:`ToParentBlockJoinQuery` (reference ``lucene/join/src/java/org/
  apache/lucene/search/join/ToParentBlockJoinQuery.java``): parent/child
  documents are indexed as contiguous BLOCKS — children first, their
  parent LAST (``IndexWriter.addDocuments`` block contract).  The query
  matches a child query, maps every child hit to its enclosing parent via
  the parent bitset, and aggregates child scores per parent with
  ``ScoreMode`` none/max/total/avg/min (``join/ScoreMode.java``).
- :func:`join_util_query` (reference ``join/JoinUtil.java`` —
  ``createJoinQuery``): two-phase value join — run ``from_query``, gather
  the matching docs' ``from_field`` terms (one distributed stats/term
  pass), return a query matching docs whose ``to_field`` holds any of
  them (CONSTANT_SCORE semantics of ``ScoreMode.None``).

The parent bitset is a per-segment sorted ordinal array derived from a
stored docmeta flag column written at build time (``parent_flag``), the
columnar analogue of the ``BitSetProducer`` filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from lucene_solr_ray.search.query import Query

__all__ = [
    "ToParentBlockJoinQuery",
    "ToChildBlockJoinQuery",
    "join_util_query",
]


@dataclass(frozen=True)
class ToParentBlockJoinQuery(Query):
    """Child-query hits roll up to their block parent.

    ``score_mode``: "none" (constant 1.0), "max", "total", "avg", "min"
    over the block's matching children (``join/ScoreMode.java``)."""

    child_query: Query
    score_mode: str = "none"
    #: docmeta column holding the parent flag (nonzero = parent row)
    parent_col: str = "parent_flag"

    def terms(self) -> List[str]:
        return self.child_query.terms()


def eval_block_join(ev, q: ToParentBlockJoinQuery, boost: float):
    """Evaluator hook (called from ``scorer._Eval``): map child hits to
    parents (parent = first parent ordinal AFTER the child, children
    precede their parent) and aggregate scores per ScoreMode."""
    reader = ev.reader
    parents = _parent_ords(reader, q.parent_col)
    if len(parents) == 0:
        from lucene_solr_ray.search.scorer import _EMPTY_F, _EMPTY_I

        return _EMPTY_I, _EMPTY_F
    ords, scores = ev.eval(q.child_query, boost)
    if len(ords) == 0:
        from lucene_solr_ray.search.scorer import _EMPTY_F, _EMPTY_I

        return _EMPTY_I, _EMPTY_F
    # a child's parent is the first parent ordinal >= child+1; a matching
    # PARENT doc itself is not a child of anything — drop it (the
    # reference rejects parent hits from the child scorer)
    is_parent = np.isin(ords, parents)
    ords, scores = ords[~is_parent], scores[~is_parent]
    if len(ords) == 0:
        from lucene_solr_ray.search.scorer import _EMPTY_F, _EMPTY_I

        return _EMPTY_I, _EMPTY_F
    pidx = np.searchsorted(parents, ords, side="left")
    ok = pidx < len(parents)
    ords, scores, pidx = ords[ok], scores[ok], pidx[ok]
    dt = ev.sim.out_dtype
    n_par = len(parents)
    cnt = np.zeros(n_par, dtype=np.int64)
    np.add.at(cnt, pidx, 1)
    hit = cnt > 0
    if q.score_mode == "none":
        out_p = parents[hit].astype(np.int32)
        return out_p, np.full(len(out_p), dt(boost), dtype=dt)
    s64 = scores.astype(np.float64)
    if q.score_mode in ("total", "avg"):
        acc = np.zeros(n_par, dtype=np.float64)
        np.add.at(acc, pidx, s64)
        vals = acc[hit] / (cnt[hit] if q.score_mode == "avg" else 1)
    elif q.score_mode == "max":
        acc = np.full(n_par, -np.inf)
        np.maximum.at(acc, pidx, s64)
        vals = acc[hit]
    elif q.score_mode == "min":
        acc = np.full(n_par, np.inf)
        np.minimum.at(acc, pidx, s64)
        vals = acc[hit]
    else:
        raise ValueError(f"unknown ScoreMode {q.score_mode!r}")
    return parents[hit].astype(np.int32), vals.astype(dt)


def _parent_ords(reader, parent_col: str) -> np.ndarray:
    """Sorted parent ordinals from the stored flag column (none when the
    segment has no such column)."""
    if parent_col not in reader.docmeta_schema.names:
        return np.empty(0, dtype=np.int64)
    return np.nonzero(reader.values(parent_col) != 0)[0].astype(np.int64)


def _collect_join_terms(pairs, q, stats, ffield: Optional[str]):
    """Join gather collector: the ``ffield`` terms of the docs matching
    ``q`` — walk the field's slice of the term dictionary and intersect
    postings with the hits."""
    import pyarrow as pa

    from lucene_solr_ray.index.segment import FIELD_SEP
    from lucene_solr_ray.search.scorer import score_segment

    vals = set()
    for reader, _ in pairs:
        ords, _ = score_segment(reader, q, stats)
        if len(ords) == 0:
            continue
        pre = (ffield + FIELD_SEP) if ffield else ""
        for t in reader.terms:
            if ffield:
                if not t.startswith(pre):
                    continue
            elif FIELD_SEP in t:
                continue
            p = reader.postings(t)
            if p is None:
                continue
            if len(np.intersect1d(p[0], ords)):
                vals.add(t[len(pre):])
    return pa.table({"value": pa.array(sorted(vals), pa.string())})


def join_util_query(
    index,
    from_query_str: str,
    from_field: Optional[str],
    to_field: Optional[str],
    analyzer=None,
) -> Query:
    """``JoinUtil.createJoinQuery(fromField, fromQuery, toField, ...)``:
    run the from-query, collect the matching docs' ``from_field`` terms
    with one distributed pass, and return a constant-score TermInSet over
    ``to_field`` (ScoreMode.None semantics).

    ``from_field``/``to_field`` are indexed keyword fields (None = the
    default text field).  The gathered term set is bounded by the
    from-side's distinct values — the small side of a lookup join."""
    from functools import partial

    from lucene_solr_ray.index.segment import field_term
    from lucene_solr_ray.search.query import (
        ConstantScoreQuery,
        MatchNoDocsQuery,
        TermInSetQuery,
    )

    (fq,), stats = index.prepare(
        [index.make_parser(analyzer).parse(from_query_str)]
    )
    rows = index.scan(
        partial(_collect_join_terms, q=fq, stats=stats, ffield=from_field)
    ).take_all()
    values = sorted({r["value"] for r in rows})
    if not values:
        return MatchNoDocsQuery("join: no from-side values")
    return ConstantScoreQuery(
        TermInSetQuery(tuple(field_term(to_field, v) for v in values))
    )


@dataclass(frozen=True)
class ToChildBlockJoinQuery(Query):
    """The inverse join (reference ``search/join/
    ToChildBlockJoinQuery.java``): parents matching ``parent_query``
    select ALL their block children; each child scores its parent's score
    (the reference propagates the parent score to children)."""

    parent_query: Query
    parent_col: str = "parent_flag"

    def terms(self) -> List[str]:
        return self.parent_query.terms()


def eval_child_join(ev, q: ToChildBlockJoinQuery, boost: float):
    reader = ev.reader
    parents = _parent_ords(reader, q.parent_col)
    from lucene_solr_ray.search.scorer import _EMPTY_F, _EMPTY_I

    if len(parents) == 0:
        return _EMPTY_I, _EMPTY_F
    ords, scores = ev.eval(q.parent_query, boost)
    if len(ords) == 0:
        return _EMPTY_I, _EMPTY_F
    # only PARENT hits participate
    keep = np.isin(ords, parents)
    p_ords, p_scores = ords[keep], scores[keep]
    if len(p_ords) == 0:
        return _EMPTY_I, _EMPTY_F
    out_o: List[int] = []
    out_s: List[float] = []
    for po, sc in zip(p_ords.tolist(), p_scores.tolist()):
        i = int(np.searchsorted(parents, po))
        start = int(parents[i - 1]) + 1 if i > 0 else 0
        for c in range(start, po):  # children precede their parent
            out_o.append(c)
            out_s.append(sc)
    if not out_o:
        return _EMPTY_I, _EMPTY_F
    dt = ev.sim.out_dtype
    return (np.asarray(out_o, dtype=np.int32),
            np.asarray(out_s, dtype=dt))
