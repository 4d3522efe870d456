"""Spell correction from the index term dictionary.

The DirectSpellChecker role (reference ``lucene/suggest/.../spell/
DirectSpellChecker.java``): candidate corrections come straight from the
live term dictionary via fuzzy expansion (no side dictionary), ranked by
(edit distance asc, docFreq desc, term asc); terms already frequent enough
in the index need no correction.
"""

from __future__ import annotations

from typing import List, Tuple

from lucene_solr_ray.search.query import FuzzyQuery
from lucene_solr_ray.search.searcher import Index, _edit_distance

__all__ = ["suggest_corrections"]


def suggest_corrections(
    index: Index,
    term: str,
    n: int = 5,
    max_edits: int = 2,
    max_doc_freq_frac: float = 0.01,
) -> List[Tuple[str, int, int]]:
    """[(candidate, edit_distance, df), ...] best-first.

    ``max_doc_freq_frac``: a term present in more than this fraction of
    docs is considered correctly spelled (DirectSpellChecker's
    maxQueryFrequency) and returned as its own sole suggestion."""
    pat = FuzzyQuery(term, max_edits=max_edits)
    # one stats read: it carries the df of every expansion term too
    stats, exp = index.collect_stats([term], [pat])
    own_df = stats.df.get(term, 0)
    if own_df > max_doc_freq_frac * max(stats.doc_count, 1):
        return [(term, 0, own_df)]
    candidates = [t for t in exp.get(pat, ()) if t != term]
    if not candidates:
        return []
    ranked = sorted(
        (
            (t, _edit_distance(term, t, max_edits), stats.df.get(t, 0))
            for t in candidates
        ),
        key=lambda x: (x[1], -x[2], x[0]),
    )
    return ranked[:n]


# ---------------------------------------------------------------------------
# WordBreakSpellChecker (reference ``lucene/suggest/src/java/org/apache/
# lucene/search/spell/WordBreakSpellChecker.java:34``)
# ---------------------------------------------------------------------------


def word_break_suggestions(
    index, term: str, k: int = 5, min_suggestion_freq: int = 1,
    min_break_word_length: int = 1, max_changes: int = 1,
    max_evaluations: int = 1000,
):
    """``suggestWordBreaks``: split a run-on term into dictionary words.

    Ray shape: ONE distributed stats pass over ALL contiguous substrings
    of ``term`` (O(len²) tiny strings — ``Index.collect_stats`` is the
    ``ir.docFreq`` oracle, exact across segments), then the reference's
    break recursion runs driver-side on that small df map.  Returns up
    to ``k`` suggestions as dicts ``{words, freqs, num_changes}``,
    fewest-changes-then-highest-max-freq first
    (``NUM_CHANGES_THEN_MAX_FREQUENCY``)."""
    mbl = max(1, int(min_break_word_length))
    n = len(term)
    if n < 2 * mbl:
        return []
    subs = sorted({
        term[i:j] for i in range(n) for j in range(i + 1, n + 1)
        if j - i >= mbl
    })
    stats, _ = index.collect_stats(subs)
    df = stats.df
    out = []
    evals = [0]

    def rec(text: str, prefix, breaks: int):
        m = len(text)
        if m < 2 * mbl:
            return
        for i in range(mbl, m - mbl + 1):
            left, right = text[:i], text[i:]
            lf = df.get(left, 0)
            if lf >= min_suggestion_freq:
                rf = df.get(right, 0)
                if rf >= min_suggestion_freq:
                    words = prefix + [(left, lf), (right, rf)]
                    out.append({
                        "words": [w for w, _ in words],
                        "freqs": [f for _, f in words],
                        "num_changes": len(words) - 1,
                    })
                if breaks + 1 <= max_changes:
                    rec(right, prefix + [(left, lf)], breaks + 1)
            evals[0] += 1
            if evals[0] >= max_evaluations:
                break

    rec(term, [], 0)
    out.sort(key=lambda s: (s["num_changes"], -max(s["freqs"]),
                            s["words"]))
    return out[:k]


def combine_word_suggestions(
    index, terms, k: int = 5, min_suggestion_freq: int = 1,
    max_changes: int = 1, max_combine_word_length: int = 20,
):
    """``suggestWordCombinations``: join runs of adjacent query terms
    into one dictionary word (``thequick`` ← ``the quick``).  One stats
    pass over every candidate join; returns dicts ``{start, end, word,
    freq, num_changes}`` sorted fewest-changes-then-freq-desc."""
    terms = list(terms)
    cands = {}
    for i in range(len(terms) - 1):
        if len(terms[i]) > max_combine_word_length:
            continue
        joined = terms[i]
        for j in range(i + 1, min(len(terms), i + 1 + max_changes)):
            joined = joined + terms[j]
            if len(joined) > max_combine_word_length:
                break
            cands.setdefault(joined, []).append((i, j))
    if not cands:
        return []
    stats, _ = index.collect_stats(sorted(cands))
    out = []
    for word, spans in cands.items():
        f = stats.df.get(word, 0)
        if f >= min_suggestion_freq:
            for i, j in spans:
                out.append({"start": i, "end": j, "word": word,
                            "freq": int(f), "num_changes": j - i})
    out.sort(key=lambda s: (s["num_changes"], -s["freq"], s["word"]))
    return out[:k]


# ---------------------------------------------------------------------------
# SpellCheckCollator (reference ``solr/core/src/java/org/apache/solr/
# spelling/SpellCheckCollator.java:44``)
# ---------------------------------------------------------------------------


def collate(
    index: Index, query_str: str, max_collations: int = 1,
    max_tries: int = 10, max_edits: int = 2,
    max_doc_freq_frac: float = 0.01, analyzer=None,
):
    """``spellcheck.collate``: rewrite the query with per-term
    corrections, keep only rewrites that actually produce hits (the
    collator re-queries the index with each candidate combination,
    best-correction-first, up to ``max_tries``).

    Returns [{collation, hits, corrections: {orig: fixed}}, ...] sorted
    by hits descending — the reference's collation list."""
    import itertools

    from lucene_solr_ray.search.searcher import count_hits

    parser = index.make_parser(analyzer)
    q = parser.parse(query_str)
    terms = list(dict.fromkeys(q.terms()))
    # per-term candidate lists, own-term first when it exists at all
    per_term = {}
    for t in terms:
        sug = suggest_corrections(
            index, t, n=3, max_edits=max_edits,
            max_doc_freq_frac=max_doc_freq_frac,
        )
        if sug and sug[0][0] == t and sug[0][1] == 0:
            per_term[t] = [t]  # correctly spelled
        else:
            per_term[t] = [s[0] for s in sug] or [t]
    combos = list(itertools.islice(
        itertools.product(*(per_term[t] for t in terms)), max_tries
    ))
    if not combos:
        return []
    # ONE distributed count pass over every candidate collation
    rewrites = []
    for combo in combos:
        mapping = dict(zip(terms, combo))
        text = " ".join(
            mapping.get(w.lower(), w) for w in query_str.split()
        )
        rewrites.append((mapping, text))
    counts = count_hits(index, [text for _, text in rewrites])
    hits = dict(zip(counts.column("qid").to_pylist(),
                    counts.column("total_hits").to_pylist()))
    out = []
    for i, (mapping, text) in enumerate(rewrites):
        n = int(hits.get(i, 0))
        if n > 0 and text != query_str:
            out.append({
                "collation": text,
                "hits": n,
                "corrections": {o: c for o, c in mapping.items()
                                if o != c},
            })
    out.sort(key=lambda r: (-r["hits"], r["collation"]))
    return out[:max_collations]
