"""ComplexPhraseQueryParser: wildcards/fuzzy/alternation INSIDE phrases.

Reference ``lucene/queryparser/src/java/org/apache/lucene/queryparser/
complexPhrase/ComplexPhraseQueryParser.java:63``: a quoted phrase like
``"(john jon jonath*) peters~"~2`` rewrites each slot to a SpanOr of its
expanded terms and the phrase to a SpanNear with the given slop.  Here
the parse produces a :class:`~lucene_solr_ray.search.query
.ComplexPhraseQuery` whose pattern slots are expanded against the LIVE
index dictionary (one ``collect_stats`` read of the segments' term
columns for all patterns) before construction — the rewrite the
reference performs at weight-creation time.

Slot syntax inside the quoted phrase:
- ``word`` — analyzed term
- ``wild*card`` / ``wi?d`` — wildcard (expanded)
- ``fuzzy~`` / ``fuzzy~1`` — fuzzy (expanded)
- ``(a b c*)`` — explicit alternation: any of the group matches the slot

``in_order=False`` is the reference's ``setInOrder(false)`` switch.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from lucene_solr_ray.search.query import (
    ComplexPhraseQuery,
    FuzzyQuery,
    PrefixQuery,
    Query,
    WildcardQuery,
)

__all__ = ["complex_phrase_query"]

_GROUP = re.compile(r"\(([^)]*)\)|(\S+)")
_FUZZY = re.compile(r"^(.+?)~(\d*)$")


def _slot_queries(token: str, field, analyzer) -> List[Query] | List[str]:
    m = _FUZZY.match(token)
    if m and "*" not in token and "?" not in token:
        base = analyzer.analyze(m.group(1))
        term = base[0] if base else m.group(1).lower()
        return [FuzzyQuery(term, max_edits=int(m.group(2) or 2),
                           field=field)]
    if "*" in token or "?" in token:
        low = token.lower()
        if low.endswith("*") and "*" not in low[:-1] and "?" not in low:
            return [PrefixQuery(low[:-1], field=field)]
        return [WildcardQuery(low, field=field)]
    terms = analyzer.analyze(token)
    return list(terms) if terms else []


def complex_phrase_query(
    index, phrase: str, slop: int = 0, in_order: bool = True,
    field: Optional[str] = None, analyzer=None,
) -> ComplexPhraseQuery:
    """Parse one quoted-phrase body and expand its patterns against
    ``index``'s dictionary; returns the runnable ComplexPhraseQuery."""
    analyzer = analyzer or index.default_analyzer
    if analyzer is None:
        from lucene_solr_ray.analysis.analyzer import StandardAnalyzer

        analyzer = StandardAnalyzer()
    raw_slots: List[List] = []
    patterns: List[Query] = []
    for g, single in _GROUP.findall(phrase):
        toks = g.split() if g else [single]
        slot: List = []
        for tok in toks:
            for item in _slot_queries(tok, field, analyzer):
                slot.append(item)
                if isinstance(item, Query) and item not in patterns:
                    patterns.append(item)
        if slot:
            raw_slots.append(slot)
    if not raw_slots:
        raise ValueError(f"empty complex phrase: {phrase!r}")
    expansions = {}
    if patterns:
        from lucene_solr_ray.index.segment import FIELD_SEP

        _, exp = index.collect_stats([], patterns)
        prefix = len(field) + len(FIELD_SEP) if field else 0
        expansions = {
            p: tuple(t[prefix:] for t in ts) for p, ts in exp.items()
        }
    slots: List[Tuple[str, ...]] = []
    for slot in raw_slots:
        terms: List[str] = []
        for item in slot:
            if isinstance(item, Query):
                terms.extend(expansions.get(item, ()))
            else:
                terms.append(item)
        # a slot with no surviving terms can never match — keep it so
        # the query correctly matches nothing (the reference's rewritten
        # SpanOr with no clauses behaves the same)
        slots.append(tuple(dict.fromkeys(terms)) or ("\x00nomatch",))
    return ComplexPhraseQuery(tuple(slots), slop=slop,
                              in_order=in_order, field=field)
