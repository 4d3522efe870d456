"""Global term statistics (``searcher.term_stats`` / ``Index.collect_stats``)
against a frozen per-segment fold.

The oracle below is the per-segment fold the batch search used before the
statistics were read on the driver: per segment, look each explicit term
up in the sorted term column, expand each pattern over that column, and
count every key once; then sum the segments' partials in Python.  The
read must give the same stats and expansions at any segmentation, for
field-scoped keys and every multi-term pattern, and with tombstones (df
and ttf count deleted docs until a merge, as Lucene's do)."""

from __future__ import annotations

import bisect
import os
import random
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_solr_ray.search.query import (
    FuzzyQuery,
    PrefixQuery,
    RegexpQuery,
    TermRangeQuery,
    WildcardQuery,
)

WORDS = (["alpha", "alpine", "alps", "beta", "betta", "gamma", "gamme",
          "delta", "zeta"] + [f"w{i}" for i in range(120)])


def _oracle(seg_dirs, terms, patterns):
    """The frozen fold: ``(df, ttf, expansions)`` summed over segments."""
    from lucene_solr_ray.search.searcher import match_terms_arrow

    df, ttf = {}, {}
    exp = {p: set() for p in patterns}
    for d in seg_dirs:
        t = pq.read_table(os.path.join(d, "postings.parquet"),
                          columns=["term", "df", "ttf"])
        col = t.column("term").combine_chunks()
        keys = col.to_pylist()
        dfs, ttfs = t.column("df").to_pylist(), t.column("ttf").to_pylist()

        def lookup(term):
            i = bisect.bisect_left(keys, term)
            if i < len(keys) and keys[i] == term:
                return dfs[i], ttfs[i]
            return None

        seg = {}
        for term in terms:
            st = lookup(term)
            if st:
                seg[term] = st
        for p in patterns:
            for term in match_terms_arrow(p, col):
                exp[p].add(term)
                seg.setdefault(term, lookup(term))
        for term, (a, b) in seg.items():
            df[term] = df.get(term, 0) + a
            ttf[term] = ttf.get(term, 0) + b
    return df, ttf, {p: tuple(sorted(ts)) for p, ts in exp.items()}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    rng = random.Random(7)
    n = 120
    path = str(tmp_path_factory.mktemp("ts") / "c.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": [" ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 12)))
                 for _ in range(n)],
        "title": [" ".join(rng.choice(WORDS[:20]) for _ in range(3))
                  for _ in range(n)],
    }), path)
    return path


@pytest.fixture(scope="module")
def indexes(ray_session, corpus, tmp_path_factory):
    """The corpus at 1 and at about 12 segments."""
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import Index

    root = tmp_path_factory.mktemp("ts_idx")
    out = {}
    for name, per in (("one", 1000), ("many", 10)):
        d = str(root / name)
        build_index(corpus, d, text_col="text", id_col="doc_id",
                    extra_fields={"title": "title"}, docs_per_segment=per)
        out[name] = Index(d)
    assert len(out["one"].seg_dirs) == 1 and len(out["many"].seg_dirs) > 8
    return out


TERMS = ["alpha", "beta", "w7", "nosuchterm", "title\x1falpha",
         "title\x1fw3", "title\x1fnosuch"]
PATTERNS = [
    PrefixQuery("alp"), WildcardQuery("w1?"), WildcardQuery("*eta"),
    FuzzyQuery("gamma", max_edits=1), FuzzyQuery("w10", max_edits=1),
    RegexpQuery("w[2-3][0-9]"), RegexpQuery("be(t|tt)a|zeta"),
    TermRangeQuery("beta", "delta", include_upper=False),
    TermRangeQuery("w5", None),
    PrefixQuery("w1", field="title"), FuzzyQuery("alps", field="title"),
    TermRangeQuery("alpha", "beta", field="title"),
]


def _check(index, terms, patterns):
    stats, exp = index.collect_stats(terms, patterns)
    df, ttf, want_exp = _oracle(index.seg_dirs, terms, patterns)
    assert stats.df == df and stats.ttf == ttf
    assert exp == want_exp
    return stats, exp


@pytest.mark.parametrize("patterns", [[], PATTERNS],
                         ids=["terms", "patterns"])
def test_collect_stats_equals_frozen_fold(indexes, patterns):
    one = _check(indexes["one"], TERMS, patterns)
    many = _check(indexes["many"], TERMS, patterns)
    assert one == many
    stats, exp = one
    assert "nosuchterm" not in stats.df and "title\x1fw3" in stats.df
    for p in patterns:
        assert exp[p], p  # every pattern matches something here
        assert all(t.startswith("title\x1f") == (p.field == "title")
                   for t in exp[p])


def test_patterns_alone_and_nothing_asked(indexes):
    """Patterns with no explicit terms (the complex-phrase expansion)
    give stats for the expansions only; nothing asked, nothing read."""
    _check(indexes["many"], [], PATTERNS)
    stats, exp = indexes["many"].collect_stats([], [])
    assert stats.df == {} and exp == {}


def test_unfiltered_read_is_the_summed_dictionary(indexes):
    """``term_stats`` with no filter (the warm engine's dictionary) is
    every segment's (term, df, ttf) summed, sorted by term."""
    from lucene_solr_ray.search.searcher import term_stats

    for index in indexes.values():
        sums = {}
        for d in index.seg_dirs:
            t = pq.read_table(os.path.join(d, "postings.parquet"),
                              columns=["term", "df", "ttf"])
            for term, a, b in zip(*(t.column(c).to_pylist()
                                    for c in ("term", "df", "ttf"))):
                acc = sums.setdefault(term, [0, 0])
                acc[0] += a
                acc[1] += b
        t, exp = term_stats(index.seg_dirs)
        assert exp == {}
        assert t.column("term").to_pylist() == sorted(sums)
        assert t.column("df").to_pylist() == [sums[k][0] for k in sorted(sums)]
        assert t.column("ttf").to_pylist() == [sums[k][1]
                                               for k in sorted(sums)]
    assert term_stats([])[0].num_rows == 0


def test_tombstones_count_until_merge(indexes, tmp_path):
    """Deleting docs leaves df and ttf as they were (the postings still
    hold the deleted docs), equal to the fold over the same files."""
    from lucene_solr_ray.index.deletes import delete_doc_ids
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.searcher import Index

    d = str(tmp_path / "del")
    shutil.copytree(indexes["many"].index_dir, d)
    before = Index(d).collect_stats(TERMS, PATTERNS)
    delete_doc_ids(d, list(range(0, 120, 3)))
    idx = Index(d)
    assert sum(SegmentReader(s).live_doc_count for s in idx.seg_dirs) == 80
    assert _check(idx, TERMS, PATTERNS)[0].df == before[0].df


def test_search_runs_one_dataset(indexes, monkeypatch):
    """A batch search reads its statistics on the driver: the scan is its
    only Ray Data dataset, with patterns too."""
    import ray.data

    made = []
    from_items = ray.data.from_items

    def spy(*a, **kw):
        made.append(1)
        return from_items(*a, **kw)

    monkeypatch.setattr(ray.data, "from_items", spy)
    t = indexes["many"].search({0: "alpha beta", 1: "alp*", 2: "gamma~1"})
    assert len(made) == 1
    assert set(t.column("qid").to_pylist()) == {0, 1, 2}
