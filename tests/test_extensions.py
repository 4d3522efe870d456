"""Windows, URP, sketches, similarities, TextProfile, highlight, suggest,
fetch, MLT, classify — the extension-operator suite."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def docs_index(ray_session, sf_dir):
    from lucene_solr_ray.pipelines.fulltext import documents_index

    return documents_index(sf_dir)


# -- windows -----------------------------------------------------------------

def test_session_windows(ray_session):
    import ray.data

    from lucene_solr_ray.stages.windows import session

    ts = np.array(
        ["2024-01-01T00:00", "2024-01-01T00:10", "2024-01-01T02:00",
         "2024-01-01T00:05"], dtype="datetime64[us]",
    )
    ds = ray.data.from_pandas(
        pd.DataFrame({"user_id": [1, 1, 1, 2], "ts": ts})
    )
    out = session(ds, "user_id", "ts", gap_s=1800).to_pandas()
    u1 = out[out["user_id"] == 1]
    assert sorted(u1["n_events"]) == [1, 2]  # 2-event session + late one
    assert len(out[out["user_id"] == 2]) == 1


def test_tumbling_and_sliding(ray_session):
    import ray.data

    from lucene_solr_ray.stages.windows import sliding, tumbling

    ts = np.array(
        ["2024-01-01T00:10", "2024-01-01T00:50", "2024-01-01T01:10"],
        dtype="datetime64[us]",
    )
    ds = ray.data.from_pandas(pd.DataFrame({"ts": ts, "v": [1, 2, 3]}))
    t = tumbling(ds, "ts", 3600, [("count", None, "n")]).to_pandas()
    assert sorted(t["n"]) == [1, 2]
    s = sliding(ds, "ts", 7200, 3600, [("count", None, "n")]).to_pandas()
    # every event lands in exactly 2 windows
    assert s["n"].sum() == 6


# -- similarities ------------------------------------------------------------

def test_alternative_similarities(docs_index):
    from lucene_solr_ray.search.similarity import (
        BooleanSimilarity,
        ClassicSimilarity,
        LMDirichletSimilarity,
    )

    for sim in (ClassicSimilarity(), LMDirichletSimilarity()):
        r = docs_index.search({0: "merge"}, k=5, similarity=sim).to_pandas()
        assert len(r) == 5
        assert (r["score"].to_numpy() > 0).all()
        assert (np.diff(r["score"].to_numpy()) <= 0).all()  # sorted desc
    rb = docs_index.search(
        {0: "merge"}, k=5, similarity=BooleanSimilarity()
    ).to_pandas()
    assert (rb["score"] == 1.0).all()


# -- TextProfileSignature ----------------------------------------------------

def test_text_profile_signature():
    from lucene_solr_ray.functions.dedup import text_profile_signature as tps

    base = "the quick brown fox jumps over the lazy dog " * 30
    assert tps(base) == tps(base + " tiny tail change")  # quantized: same
    assert tps(base) != tps("entirely different words here " * 30)
    assert tps("") == tps("a")  # sub-min-length tokens ignored


# -- highlight ---------------------------------------------------------------

def test_highlight_tags_terms():
    from lucene_solr_ray.functions.highlight import best_passage, highlight

    text = "alpha beta gamma delta target epsilon zeta " * 3
    out = highlight(text, {"target": 1.0}, window=5)
    assert "<em>target</em>" in out
    s, e, score = best_passage(text, {"target": 1.0}, window=5)
    assert score == 1.0
    assert highlight("", {"x": 1.0}) == ""


# -- suggest -----------------------------------------------------------------

def test_suggest_terms(docs_index, sf_dir):
    import pyarrow.parquet as pq

    from lucene_solr_ray.functions.suggest import suggest_terms

    got = suggest_terms(docs_index, "s", n=5)
    # oracle: ttf-weighted completions from the raw corpus
    from collections import Counter

    c = Counter()
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    for x in t.column("text").to_pylist():
        c.update(w for w in x.split() if w.startswith("s"))
    want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert got == want
    # fuzzy completion finds near-misses
    fz = suggest_terms(docs_index, "sortt", n=3, max_edits=1)
    assert any(t == "sort" for t, _ in fz)


# -- fetch + MLT + classify --------------------------------------------------

def test_fetch_from_corpus(docs_index, sf_dir):
    from lucene_solr_ray.search.fetch import fetch_from_corpus

    res = docs_index.search({0: "merge"}, k=3)
    out = fetch_from_corpus(
        res, f"{sf_dir}/documents.parquet", "doc_id", ["lang", "n_chars"]
    )
    assert out.num_rows == 3
    assert {"lang", "n_chars"} <= set(out.schema.names)
    assert not any(v is None for v in out.column("lang").to_pylist())


def test_mlt_finds_near_copy(ray_session, tmp_path):
    """On a corpus with distinctive vocabulary, MLT must retrieve the
    source doc and its near-copy at the top (the testdata documents table
    has a 31-word shared vocab where 'similarity' is degenerate)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import Index

    texts = [f"filler{i} common words here" for i in range(50)]
    texts.append("zebra quagga okapi tapir zebra quagga binturong")  # 50
    texts.append("zebra quagga okapi pangolin zebra aardvark")       # 51
    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": list(range(len(texts))),
                  "text": pa.array(texts, pa.string())}), p
    )
    out_dir = str(tmp_path / "idx")
    build_index(p, out_dir, text_col="text", id_col="doc_id",
                docs_per_segment=20)
    got = Index(out_dir).more_like_this(texts[50], k=3).to_pandas()
    assert got["doc_id"][0] == 50  # the source itself
    assert 51 in set(got["doc_id"])  # its near-copy


def test_knn_classify_runs(docs_index, sf_dir):
    import pyarrow.parquet as pq

    from lucene_solr_ray.functions.classify import knn_classify

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    label, conf = knn_classify(
        docs_index, t.column("text")[0].as_py(),
        f"{sf_dir}/documents.parquet", "lang",
    )
    assert label in {"en", "de", "fr", "es", "zh"}
    assert 0 < conf <= 1


# -- warm query engine -------------------------------------------------------

def _spy_gathers(eng, sent=None):
    """Wrap ``eng._gather``; returns the list of actor methods the engine
    fans out to (one entry per round trip), appended as it goes.  When
    given, ``sent`` gets the qids of each ``search`` fan-out."""
    calls = []
    gather = eng._gather

    def spy(m, *args):
        calls.append(m)
        if sent is not None and m == "search":
            sent.append([qid for qid, _, _ in args[0]])
        return gather(m, *args)

    eng._gather = spy
    return calls


def _assert_same_topk(a, b):
    assert list(a["qid"]) == list(b["qid"])
    assert list(a["doc_id"]) == list(b["doc_id"])
    np.testing.assert_array_equal(a["score"].to_numpy(), b["score"].to_numpy())


@pytest.fixture(scope="module")
def docs_index_3seg(ray_session, sf_dir, tmp_path_factory):
    """The documents index in three segments, for a two-actor engine."""
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import Index

    out = str(tmp_path_factory.mktemp("docs3"))
    build_index(f"{sf_dir}/documents.parquet", out, text_col="text",
                id_col="doc_id", docs_per_segment=150)
    idx = Index(out)
    assert len(idx.seg_dirs) == 3
    return idx


def test_query_engine_matches_dataset_path(docs_index, docs_index_3seg):
    q = {0: "merge", 1: "fast OR slow", 2: "merge AND sort",
         3: '"batch batch"', 4: "mer*",
         # multi-term rewrites: a blended fuzzy query scores with its
         # expansion terms' stats, which the stats round trip must bring
         5: "merg~1", 6: "mrege~2", 7: "merge OR merg~1", 8: "me?ge",
         9: "/mer.e/"}
    for index in (docs_index, docs_index_3seg):
        _check_query_engine(index, q)


def _check_query_engine(index, q):
    from lucene_solr_ray.state.query_engine import QueryEngine

    a = index.search(q, k=10).to_pandas()
    assert set(a["qid"]) == set(q)

    # never warmed: the first search reads the term dictionary on the
    # driver, with no actor call; a first-seen batch fans out to
    # ``search`` alone, and its repeat is answered with no actor call
    eng = QueryEngine(index, num_actors=2)
    try:
        calls = _spy_gathers(eng)
        b = eng.search(q, k=10).to_pandas()
        _assert_same_topk(a, b)
        assert calls == ["search"]
        c = eng.search(q, k=10).to_pandas()
        _assert_same_topk(b, c)
        assert calls == ["search"]
    finally:
        eng.shutdown()

    # warmed, one query at a time in reverse order: the dictionary comes
    # with ``warm``, each first-seen query costs exactly one ``search``
    # round trip and each repeat none
    eng = QueryEngine(index, num_actors=2)
    try:
        sent = []
        calls = _spy_gathers(eng, sent)
        eng.warm()
        assert calls == ["prime"]
        singles = []
        for qid in sorted(q, reverse=True):
            del calls[:]
            singles.append(eng.search({qid: q[qid]}, k=10).to_pandas())
            _assert_same_topk(singles[-1],
                              eng.search({qid: q[qid]}, k=10).to_pandas())
            assert calls == ["search"]
        b = pd.concat(singles).sort_values(["qid", "rank"])
        _assert_same_topk(a, b)
        # a mixed batch sends only its first-seen queries, in one fan-out
        mixed = {**q, 100: "sort", 101: "fast AND batch"}
        del calls[:], sent[:]
        _assert_same_topk(index.search(mixed, k=10).to_pandas(),
                          eng.search(mixed, k=10).to_pandas())
        assert calls == ["search"] and sent == [[100, 101]]
        st = eng.stats()
        assert st["result_hits"] == 2 * len(q)
        assert st["result_misses"] == len(q) + 2
    finally:
        eng.shutdown()


def test_query_engine_over_empty_index(ray_session, tmp_path):
    """An index built from no documents has no segments, so no actors:
    the engine still answers, with no hits."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.state.query_engine import QueryEngine

    p = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({"doc_id": pa.array([], pa.int64()),
                             "text": pa.array([], pa.string())}), p)
    build_index(p, str(tmp_path / "idx"), text_col="text", id_col="doc_id")
    eng = QueryEngine(str(tmp_path / "idx"))
    try:
        eng.warm()
        assert eng.search({0: "merge", 1: "mer*"}, k=10).num_rows == 0
    finally:
        eng.shutdown()


def test_query_engine_expansion_cache_is_bounded(docs_index_3seg,
                                                 monkeypatch):
    """More distinct patterns than the cache holds: the expansion LRU
    stays at its cap, and patterns evicted and expanded again still give
    the batch search's answers."""
    from lucene_solr_ray.state import query_engine
    from lucene_solr_ray.state.query_engine import QueryEngine

    monkeypatch.setattr(query_engine, "CACHE_CAP", 4)
    words = ["merge", "sort", "fast", "slow", "batch", "index", "query",
             "data", "search", "test"]
    q = {i: f"{w[:3]}* OR {w[:4]}~1" for i, w in enumerate(words)}
    a = docs_index_3seg.search(q, k=10).to_pandas()
    eng = QueryEngine(docs_index_3seg, num_actors=2)
    try:
        for _ in range(2):  # the second pass re-expands evicted patterns
            singles = []
            for qid in sorted(q):
                singles.append(eng.search({qid: q[qid]}, k=10).to_pandas())
                assert eng.stats()["expansion_cache_size"] <= 4
            _assert_same_topk(a, pd.concat(singles))
        _assert_same_topk(a, eng.search(q, k=10).to_pandas())
        assert eng.stats()["expansion_cache_size"] <= 4
    finally:
        eng.shutdown()


def test_query_engine_result_cache_is_bounded(docs_index_3seg,
                                              monkeypatch):
    """More distinct queries than the result cache holds, one at a time
    and in one batch larger than the cap: the LRU stays at its cap, and
    every answer equals the batch search's, also when a batch's misses
    evict the hits it has already read."""
    from lucene_solr_ray.state import query_engine
    from lucene_solr_ray.state.query_engine import QueryEngine

    monkeypatch.setattr(query_engine, "CACHE_CAP", 4)
    words = ["merge", "sort", "fast", "slow", "batch", "index", "query",
             "data", "search", "test"]
    q = {i: f"{w} OR {words[i - 1]}" for i, w in enumerate(words)}
    a = docs_index_3seg.search(q, k=10).to_pandas()
    eng = QueryEngine(docs_index_3seg, num_actors=2)
    try:
        for _ in range(2):
            singles = []
            for qid in sorted(q):
                singles.append(eng.search({qid: q[qid]}, k=10).to_pandas())
                assert eng.stats()["result_cache_size"] <= 4
            _assert_same_topk(a, pd.concat(singles))
            # hits: the last 4 singles; the 6 misses evict them
            _assert_same_topk(a, eng.search(q, k=10).to_pandas())
            assert eng.stats()["result_cache_size"] == 4
    finally:
        eng.shutdown()


def test_query_engine_does_not_cache_a_parse_error(docs_index_3seg):
    """A query that fails to parse raises, is not cached, and raises
    again on a repeat, without an actor call."""
    from lucene_solr_ray.search.parser import ParseError
    from lucene_solr_ray.state.query_engine import QueryEngine

    eng = QueryEngine(docs_index_3seg, num_actors=2)
    try:
        eng.warm()
        calls = _spy_gathers(eng)
        for _ in range(2):
            with pytest.raises(ParseError):
                eng.search({0: "merge", 1: '"merge'}, k=10)
        assert calls == []
        assert eng.stats()["result_cache_size"] == 0
        eng.search({0: "merge"}, k=10)
        assert calls == ["search"]
    finally:
        eng.shutdown()


def test_cli_serve_prints_engine_stats(docs_index_3seg, monkeypatch,
                                       capsys):
    """``cli serve`` answers one JSON line per query and prints the
    engine's counters for a ``:stats`` line: the repeat was a result-cache
    hit, and only the first-seen query called the actor."""
    import io
    import json

    import ray

    from lucene_solr_ray import cli

    # the CLI owns its Ray session and shuts it down on exit; the test
    # session's must outlive it
    monkeypatch.setattr(ray, "shutdown", lambda: None)
    monkeypatch.setattr("sys.stdin", io.StringIO("merge\nmerge\n:stats\n"))
    assert cli.main(["serve", "--index", docs_index_3seg.index_dir,
                     "--actors", "1"]) == 0
    lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert lines[0]["ready"]
    assert lines[1]["hits"] == lines[2]["hits"] != []
    st = lines[3]
    assert st["result_hits"] == 1 and st["result_misses"] == 1
    assert st["result_cache_size"] == 1
    # warm: one prime call; then one search
    assert st["actor_calls"] == 2 and st["failovers"] == 0
    assert st["expansion_hits"] == st["expansion_misses"] == 0


def test_salted_groupby_exact(ray_session):
    import ray.data

    from lucene_solr_ray.stages.partition import salted_groupby_sum

    df = pd.DataFrame(
        {"k": ["hot"] * 1000 + ["a", "b"] * 10, "v": 1}
    )
    ds = ray.data.from_pandas(df)
    out = salted_groupby_sum(ds, "k", "v", hot_keys=["hot"]).to_pandas()
    got = dict(zip(out["k"], out["v"]))
    assert got == {"hot": 1000, "a": 10, "b": 10}


# -- MemoryIndex (percolation) ----------------------------------------------

def test_memory_index_percolation():
    from lucene_solr_ray.search.memory import MemoryIndex

    mi = MemoryIndex("the quick brown fox jumps over the lazy dog")
    assert mi.matches("quick AND fox")
    assert mi.matches('"quick brown fox"')
    assert not mi.matches("zebra")
    assert not mi.matches("quick AND zebra")
    assert mi.matches("qu*")
    hits = mi.percolate({
        "a": "fox", "b": "zebra", "c": '"lazy dog"', "d": "fox -dog",
    })
    assert set(hits) == {"a", "c"}
    assert all(s > 0 for s in hits.values())


# -- CheckIndex --------------------------------------------------------------

def test_check_index_clean_and_corrupt(ray_session, sf_dir, tmp_path):
    import json
    import os

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.check import check_index

    out = str(tmp_path / "idx")
    build_index(f"{sf_dir}/documents.parquet", out, text_col="text",
                id_col="doc_id", docs_per_segment=200)
    rep = check_index(out)
    assert rep["ok"], rep["errors"]
    assert rep["docs"] == 500

    # corrupt a segment's stats → CheckIndex must flag it
    seg = [d for d in os.listdir(out) if d.startswith("seg_")][0]
    p = os.path.join(out, seg, "segment.json")
    meta = json.load(open(p))
    meta["stats"]["sum_doc_freq"] += 1
    json.dump(meta, open(p, "w"))
    rep2 = check_index(out)
    assert not rep2["ok"]
    assert any("sum_doc_freq" in e for e in rep2["errors"])


# -- spell correction --------------------------------------------------------

def test_spell_corrections(docs_index):
    from lucene_solr_ray.functions.spell import suggest_corrections

    # misspelling of an indexed term
    got = suggest_corrections(docs_index, "merqe", n=3)
    assert got and got[0][0] == "merge" and got[0][1] == 1
    # a very frequent term corrects to itself
    got2 = suggest_corrections(docs_index, "merge", n=3)
    assert got2 == [("merge", 0, got2[0][2])]
    # garbage finds nothing
    assert suggest_corrections(docs_index, "zzzzqqqq", n=3) == []



def test_spell_corrections_read_stats_once(docs_index, monkeypatch):
    """One term-stats read ranks the corrections: the fuzzy expansion's
    read already carries every candidate's df."""
    from lucene_solr_ray.functions.spell import suggest_corrections
    from lucene_solr_ray.search import searcher
    from lucene_solr_ray.search.query import FuzzyQuery

    pat = FuzzyQuery("merqe", max_edits=2)
    _, exp = docs_index.collect_stats(["merqe"], [pat])
    cands = [t for t in exp[pat] if t != "merqe"]
    stats, _ = docs_index.collect_stats(cands)
    want = sorted(((t, searcher._edit_distance("merqe", t, 2),
                    stats.df.get(t, 0)) for t in cands),
                  key=lambda x: (x[1], -x[2], x[0]))[:4]
    calls = []
    real = searcher.term_stats
    monkeypatch.setattr(searcher, "term_stats",
                        lambda *a: calls.append(a) or real(*a))
    assert suggest_corrections(docs_index, "merqe", n=4) == want
    assert len(calls) == 1

def test_count_and_fieldsort_with_phrases(docs_index):
    """count_hits / search_by_field must open positions for phrase queries
    (review finding)."""
    from lucene_solr_ray.search.searcher import count_hits, search_by_field

    c = count_hits(docs_index, {0: '"batch batch"', 1: "merge"}).to_pandas()
    assert len(c) == 2 and (c["total_hits"] > 0).all()
    s = search_by_field(
        docs_index, {0: '"batch batch"'}, "field_len", k=5
    ).to_pandas()
    assert len(s) > 0


def test_dismax_with_phrase_and_wildcard(docs_index):
    """A DisMax holding a phrase and a wildcard: the phrase reads
    positions and the wildcard expands (review finding)."""
    from lucene_solr_ray.search.query import (
        DisjunctionMaxQuery,
        PhraseQuery,
        PrefixQuery,
        TermQuery,
    )

    q = DisjunctionMaxQuery(
        (PhraseQuery(("batch", "batch"), (0, 1)), TermQuery("merge")), 0.1
    )
    r = docs_index.search_parsed([(0, q, 5)]).to_pandas()
    assert len(r) == 5
    q2 = DisjunctionMaxQuery((PrefixQuery("mer"), TermQuery("slow")), 0.0)
    r2 = docs_index.search_parsed([(0, q2, 5)]).to_pandas()
    assert len(r2) == 5


def test_highlight_with_stopword_analyzer():
    """Snippet indices stay aligned when the analyzer drops stopwords
    (review finding)."""
    from lucene_solr_ray.analysis.analyzer import (
        ENGLISH_STOP_WORDS,
        StandardAnalyzer,
    )
    from lucene_solr_ray.functions.highlight import highlight

    a = StandardAnalyzer(stop_words=ENGLISH_STOP_WORDS)
    text = ("the quick brown fox filler filler filler filler filler "
            "jumps over the lazy dog")
    out = highlight(text, {"dog": 2.0}, window=5, analyzer=a)
    assert "<em>dog</em>" in out


def test_fetch_empty_keeps_types(docs_index, sf_dir):
    from lucene_solr_ray.search.fetch import fetch_from_corpus

    empty = docs_index.search({0: "zzzmissingterm"}, k=5)
    out = fetch_from_corpus(
        empty, f"{sf_dir}/documents.parquet", "doc_id", ["n_chars", "lang"]
    )
    import pyarrow as pa

    assert out.schema.field("n_chars").type == pa.int64()
    assert out.schema.field("lang").type == pa.string()


# -- multi-field indexing ----------------------------------------------------

@pytest.fixture(scope="module")
def mf_index(ray_session, sf_dir, tmp_path_factory):
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import Index

    out = str(tmp_path_factory.mktemp("mf"))
    build_index(
        f"{sf_dir}/documents.parquet", out, text_col="text", id_col="doc_id",
        extra_fields={"lang": "lang", "source": "source"},
        docs_per_segment=150,
    )
    return Index(out)


def test_multifield_scoped_match_set(mf_index, sf_dir):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text", "lang"])
    want = {
        d for d, x, lg in zip(
            t.column("doc_id").to_pylist(), t.column("text").to_pylist(),
            t.column("lang").to_pylist(),
        )
        if lg == "en" and "merge" in x.split()
    }
    got = set(
        mf_index.search({0: "merge AND lang:en"}, k=10_000)
        .to_pandas()["doc_id"]
    )
    assert got == want


def test_multifield_unknown_prefix_dropped(mf_index):
    # unknown field prefixes keep single-field behavior (dropped)
    a = mf_index.search({0: "nosuchfield:merge"}, k=5).to_pandas()
    b = mf_index.search({0: "merge"}, k=5).to_pandas()
    assert list(a["doc_id"]) == list(b["doc_id"])


def test_multifield_bare_query_matches_single_field(mf_index, docs_index):
    # default-field scoring identical to a single-field index
    a = mf_index.search({0: "merge AND sort"}, k=10).to_pandas()
    b = docs_index.search({0: "merge AND sort"}, k=10).to_pandas()
    assert list(a["doc_id"]) == list(b["doc_id"])
    np.testing.assert_array_equal(a["score"].to_numpy(), b["score"].to_numpy())


def test_multifield_merge_preserves_field_scores(ray_session, sf_dir, tmp_path):
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.merge import merge_until_done
    from lucene_solr_ray.index.merge_policy import MB, TieredMergePolicy
    from lucene_solr_ray.search.searcher import Index

    out = str(tmp_path / "mfm")
    build_index(
        f"{sf_dir}/documents.parquet", out, text_col="text", id_col="doc_id",
        extra_fields={"lang": "lang"}, docs_per_segment=100,
    )
    q = {0: "merge AND lang:en", 1: "lang:de"}
    before = Index(out).search(q, k=10).to_pandas()
    n = merge_until_done(
        out, TieredMergePolicy(max_merge_at_once=4, segs_per_tier=2.0,
                               floor_segment_bytes=1 * MB),
    )
    assert n > 0
    m = Index(out).manifest
    assert "fields" in m and m.get("default_field") == "text"
    after = Index(out).search(q, k=10).to_pandas()
    assert list(before["doc_id"]) == list(after["doc_id"])
    np.testing.assert_array_equal(
        before["score"].to_numpy(), after["score"].to_numpy()
    )


def test_multifield_query_engine(mf_index):
    from lucene_solr_ray.state.query_engine import QueryEngine

    q = {0: "merge AND lang:en", 1: "merge AND lang:en~1",
         2: "merge AND lang:e*"}
    eng = QueryEngine(mf_index, num_actors=2)
    try:
        a = mf_index.search(q, k=10).to_pandas()
        assert set(a["qid"]) == set(q)
        calls = _spy_gathers(eng)
        _assert_same_topk(a, eng.search(q, k=10).to_pandas())
        _assert_same_topk(a, eng.search(q, k=10).to_pandas())
        assert calls == ["search"]  # the repeat: no call
    finally:
        eng.shutdown()


# -- offsets (DOCS_AND_FREQS_AND_POSITIONS_AND_OFFSETS) ----------------------

def test_offsets_round_trip_and_index_highlight(ray_session, sf_dir, tmp_path):
    import pyarrow.parquet as pq

    from lucene_solr_ray.functions.highlight import highlight_from_index
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.searcher import Index

    out = str(tmp_path / "offidx")
    build_index(
        f"{sf_dir}/documents.parquet", out, text_col="text", id_col="doc_id",
        docs_per_segment=200, with_offsets=True,
    )
    idx = Index(out)
    # offsets agree with the analyzer's own offsets for a sample doc
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    did = t.column("doc_id")[3].as_py()
    text = t.column("text")[3].as_py()
    reader = SegmentReader(idx.seg_dirs[0])
    loc = int(np.searchsorted(reader.doc_ids, did))
    tok0 = text.split()[0]
    ords, offfn = reader.offsets(tok0)
    j = int(np.searchsorted(ords, loc))
    assert ords[j] == loc
    for s0, e0 in offfn(j):
        assert text[s0:e0] == tok0
    # index-driven highlighting wraps real spans without re-tokenizing
    snip = highlight_from_index(idx, did, text, {tok0: 1.0}, window=10)
    assert f"<em>{tok0}</em>" in snip


def test_offsets_survive_merge(ray_session, sf_dir, tmp_path):
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.merge import merge_until_done
    from lucene_solr_ray.index.merge_policy import MB, TieredMergePolicy
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.searcher import Index

    out = str(tmp_path / "offm")
    build_index(
        f"{sf_dir}/documents.parquet", out, text_col="text", id_col="doc_id",
        docs_per_segment=100, with_offsets=True,
    )
    merge_until_done(
        out, TieredMergePolicy(max_merge_at_once=4, segs_per_tier=2.0,
                               floor_segment_bytes=1 * MB),
    )
    idx = Index(out)
    reader = SegmentReader(idx.seg_dirs[0])
    ords, offfn = reader.offsets("merge")
    assert len(ords) > 0 and len(offfn(0)) > 0


def test_keyword_analyzer_field(ray_session, sf_dir, tmp_path):
    """StringField semantics: a KeywordAnalyzer field keeps multi-word
    values atomic (part names with spaces match only as whole values)."""
    from lucene_solr_ray.analysis.analyzer import KeywordAnalyzer
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.query import TermQuery
    from lucene_solr_ray.search.searcher import Index

    out = str(tmp_path / "kw")
    build_index(
        f"{sf_dir}/part.parquet", out, text_col="p_name",
        id_col="p_partkey",
        extra_fields={"brand": "p_brand"},
        field_analyzers={"brand": KeywordAnalyzer()},
        docs_per_segment=500,
    )
    idx = Index(out)
    # "Brand#2" has '#' — atomic keyword token, unreachable by tokenization
    hits = idx.search_parsed(
        [(0, TermQuery("Brand#2", field="brand"), 10_000)]
    ).to_pandas()
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/part.parquet",
                      columns=["p_partkey", "p_brand"])
    want = {
        k for k, b in zip(t.column("p_partkey").to_pylist(),
                          t.column("p_brand").to_pylist())
        if b == "Brand#2"
    }
    assert set(hits["doc_id"]) == want


def test_keyword_analyzer_unit():
    from lucene_solr_ray.analysis.analyzer import KeywordAnalyzer

    k = KeywordAnalyzer()
    assert k.analyze("Foo Bar-Baz!") == ["Foo Bar-Baz!"]
    assert k.analyze("") == []
    assert KeywordAnalyzer(lowercase_value=True).analyze("FooBar") == ["foobar"]
    t, p, s0, e0, n = k.analyze_with_offsets("Some Value")
    assert (t, p, s0, e0, n) == (["Some Value"], [0], [0], [10], 1)


# -- line-doc source + resumable sink ----------------------------------------

def test_line_doc_source(ray_session, tmp_path):
    from lucene_solr_ray.sources.textline import read_line_docs

    p = tmp_path / "docs.txt"
    p.write_text("Title A\t2024-01-01\tbody words here\nbare line doc\n")
    out = read_line_docs(str(p)).to_pandas()
    assert len(out) == 2
    rows = {
        (r["title"], r["body"]) for _, r in out.iterrows()
    }  # streaming executor may reorder blocks
    assert rows == {("Title A", "body words here"), ("", "bare line doc")}


def test_resumable_partitioned_sink(ray_session, tmp_path):
    import ray.data

    from lucene_solr_ray.stages.sinks import resume_state, write_partitioned

    ds = ray.data.from_items(
        [{"grp": g, "v": i} for i, g in enumerate(["a", "a", "b", "c"])]
    )
    out = str(tmp_path / "sink")
    w1 = write_partitioned(ds, out, "grp")
    assert w1 == {"a": 2, "b": 1, "c": 1}
    assert resume_state(out) == {"a": 2, "b": 1, "c": 1}
    # rerun skips everything
    w2 = write_partitioned(ds, out, "grp")
    assert w2 == {}
    # partial wipe → only that partition rewrites
    import shutil

    shutil.rmtree(out + "/grp=b")
    w3 = write_partitioned(ds, out, "grp")
    assert w3 == {"b": 1}


def test_field_scoped_multiterm(mf_index, sf_dir):
    """Field-scoped wildcard/prefix expand within that field's dictionary
    slice only; default-field wildcards never leak other fields' values."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "lang"])
    langs = dict(zip(t.column("doc_id").to_pylist(),
                     t.column("lang").to_pylist()))
    # lang:e* == docs with lang in {en, es}
    got = set(
        mf_index.search({0: "lang:e*"}, k=10_000).to_pandas()["doc_id"]
    )
    want = {d for d, lg in langs.items() if lg.startswith("e")}
    assert got == want
    # default-field wildcard must not see lang values
    assert mf_index.search({0: "lan*"}, k=10).to_pandas().empty
    # field fuzzy (constant-score) matches the right docs
    got_f = set(
        mf_index.search({0: "lang:een~1"}, k=10_000).to_pandas()["doc_id"]
    )
    assert got_f >= {d for d, lg in langs.items() if lg == "en"}


def test_plumbing_streams(ray_session):
    import ray.data

    from lucene_solr_ray.stages.plumbing import (
        Let,
        cell_stream,
        echo_stream,
        list_stream,
        null_stream,
        priority_stream,
        tup_stream,
    )

    a = ray.data.from_items([{"x": 1}, {"x": 2}])
    b = ray.data.from_items([{"x": 3}])
    assert list_stream(a, b).count() == 3
    assert null_stream(a).take(1)[0]["nullCount"] == 2
    assert echo_stream("hi").take(1)[0]["echo"] == "hi"
    assert tup_stream(k=7).take(1)[0]["k"] == 7
    cell = cell_stream("rows", b).take(1)[0]
    assert cell["rows"][0]["x"] == 3
    empty = ray.data.from_items([{"x": 0}]).filter(expr="x > 10")
    assert priority_stream(empty, b) is b
    env = Let(docs=a).let("n", 2)
    assert env.get("n") == 2 and env.get("docs") is a


def test_quantile_approx_close_to_exact(ray_session, sf_dir):
    import ray.data

    from lucene_solr_ray.stages.sketches import quantile, quantile_approx

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    exact = quantile(ds, "l_extendedprice", 0.5)
    approx = quantile_approx(ds, "l_extendedprice", 0.5, bins=2048)
    spread = quantile(ds, "l_extendedprice", 0.99) - quantile(
        ds, "l_extendedprice", 0.01
    )
    assert abs(approx - exact) <= spread / 100  # well within bin error
    # multi-q form
    q10, q90 = quantile_approx(ds, "l_extendedprice", [0.1, 0.9])
    assert q10 < q90


def test_field_terms_topk_rank_contract(mf_index):
    """Field-scoped term queries (per-field norms and stats): the top-k of
    each segment is the first k of its complete ranking, (score desc,
    doc_id asc)."""
    from lucene_solr_ray.search.parser import QueryParser
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.scorer import score_segment, topk_segment

    parser = QueryParser(fields=mf_index.query_fields)
    for qs in ["lang:en", "merge AND lang:en", "lang:de OR lang:fr",
               "source:src3"]:
        q = parser.parse(qs)
        terms = sorted(set(q.terms()))
        stats, _ = mf_index.collect_stats(terms)
        for seg_dir in mf_index.seg_dirs:
            reader = SegmentReader(seg_dir)
            ords, scores = score_segment(reader, q, stats)
            order = np.lexsort(
                (reader.doc_ids[ords], -scores.astype(np.float64))
            )[:10]
            o, s = topk_segment(reader, q, stats, 10)
            assert list(o) == list(ords[order]), qs
            np.testing.assert_array_equal(s, scores[order], err_msg=qs)


def test_search_grouped(docs_index, sf_dir):
    from lucene_solr_ray.search.searcher import search_grouped

    out = search_grouped(
        docs_index, "merge", f"{sf_dir}/documents.parquet", "lang",
        top_groups=3, docs_per_group=2,
    ).to_pandas()
    assert set(out["group_rank"]) <= {1, 2, 3}
    assert out.groupby("group")["rank_in_group"].max().max() <= 2
    # group 1's best hit outscores group 2's best hit
    best = out[out["rank_in_group"] == 1].sort_values("group_rank")
    assert (best["score"].diff().dropna() <= 0).all()
    # no empty-match query
    empty = search_grouped(
        docs_index, "zzznope", f"{sf_dir}/documents.parquet", "lang"
    )
    assert empty.num_rows == 0


def test_search_grouped_null_group(docs_index, sf_dir, tmp_path):
    """Docs missing from the side table form a NULL group instead of
    silently vanishing (TopGroups keeps them) — round-2 fix."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.search.searcher import search_grouped

    full = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    # drop half the docs from the side table
    half = full.slice(0, full.num_rows // 2)
    side = str(tmp_path / "side.parquet")
    pq.write_table(half, side)

    out = search_grouped(
        docs_index, "merge", side, "lang",
        top_groups=100, docs_per_group=2,
    ).to_pandas()
    cutoff = full.column("doc_id")[full.num_rows // 2].as_py()
    missing_hits = out[out["doc_id"] >= cutoff]
    if len(missing_hits):
        assert missing_hits["group"].isna().all()
    # total groups = langs present + possibly the null bucket
    assert out["group"].nunique(dropna=True) >= 1


def test_explain(docs_index, sf_dir):
    from lucene_solr_ray.search.searcher import explain

    hits = docs_index.search({0: "merge AND sort"}, k=1).to_pandas()
    d = int(hits.doc_id[0])
    ex = explain(docs_index, "merge AND sort", d)
    assert ex["match"] and ex["value"] > 0
    # clause values sum to the boolean total (both MUST clauses score)
    vals = [c["value"] for c in ex["details"]]
    assert abs(sum(vals) - ex["value"]) < 1e-4
    assert all(c["occur"] == "MUST" for c in ex["details"])
    assert "df=" in ex["details"][0]["description"]
    # non-matching doc
    miss = docs_index.search({0: "-merge zzz"}, k=1)
    ex2 = explain(docs_index, "zzzmissing", d)
    assert not ex2["match"] and ex2["value"] == 0.0
    # absent doc id
    ex3 = explain(docs_index, "merge", 10**9)
    assert not ex3["match"]


def test_rescore(docs_index, sf_dir):
    """QueryRescorer: phrase rescoring of a term query — combined score
    equals first + weight*second for every returned doc."""
    from lucene_solr_ray.search.searcher import rescore
    from lucene_solr_ray.search.similarity import BM25SimilarityF64

    out = rescore(
        docs_index, "merge", '"merge sort"', k=5, window=30,
        rescore_weight=2.0, similarity=BM25SimilarityF64(),
    ).to_pandas()
    assert len(out) == 5
    assert out.score.is_monotonic_decreasing

    # verify the combination arithmetic against independent searches
    first = docs_index.search(
        {0: "merge"}, k=30, similarity=BM25SimilarityF64()
    ).to_pandas().set_index("doc_id").score
    second = docs_index.search(
        {0: '"merge sort"'}, k=100000, similarity=BM25SimilarityF64()
    ).to_pandas().set_index("doc_id").score
    for _, r in out.iterrows():
        want = first[r.doc_id] + 2.0 * second.get(r.doc_id, 0.0)
        assert abs(r.score - want) < 1e-9


#: known cities (doc id, lat, lon): Paris, London (~343 km from Paris),
#: Brussels (~264 km) and Madrid (~1052 km)
_CITIES = [(0, 48.8566, 2.3522), (1, 51.5074, -0.1278),
           (2, 50.8503, 4.3517), (3, 40.4168, -3.7038)]


def _geo_index(tmp_path, pts, **kw):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import Index

    p = str(tmp_path / "c.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([x[0] for x in pts], pa.int64()),
        "text": pa.array(["city"] * len(pts), pa.string()),
        "lat": pa.array([x[1] for x in pts], pa.float64()),
        "lon": pa.array([x[2] for x in pts], pa.float64()),
    }), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                stored_cols=["lat", "lon"], **kw)
    return Index(out)


def test_geo_distance_search(ray_session, tmp_path):
    from lucene_solr_ray.search.geo import geo_distance_search, haversine_m

    idx = _geo_index(tmp_path, _CITIES, docs_per_segment=2)
    res = geo_distance_search(idx, 48.8566, 2.3522, 400_000.0,
                              k=10).to_pandas()
    assert list(res.doc_id) == [0, 2, 1]  # Paris, Brussels, London
    # distances sane (within 2% of known values)
    assert abs(res.distance_m[1] - 264_000) / 264_000 < 0.02
    assert abs(res.distance_m[2] - 343_000) / 343_000 < 0.02
    # scalar haversine sanity
    assert abs(float(haversine_m(0, 0, 0, 1)) - 111_195) < 200


def test_geo_distance_search_skips_deleted_docs(ray_session, tmp_path):
    """A deleted doc leaves geo results as it leaves ``Index.search``."""
    from lucene_solr_ray.index.deletes import delete_doc_ids
    from lucene_solr_ray.search.geo import geo_distance_search
    from lucene_solr_ray.search.searcher import Index

    idx = _geo_index(tmp_path, _CITIES, docs_per_segment=2)
    delete_doc_ids(idx.index_dir, [2])
    idx = Index(idx.index_dir)
    assert 2 not in idx.search({0: "city"}).column("doc_id").to_pylist()
    res = geo_distance_search(idx, 48.8566, 2.3522, 400_000.0, k=10)
    assert res.column("doc_id").to_pylist() == [0, 1]
    assert res.column("rank").to_pylist() == [1, 2]


def test_geo_distance_search_over_empty_index(ray_session, tmp_path):
    """An index with no segments answers with no rows, typed as usual."""
    import pyarrow as pa

    from lucene_solr_ray.search.geo import geo_distance_search

    idx = _geo_index(tmp_path, [])
    assert idx.seg_dirs == []
    res = geo_distance_search(idx, 48.8566, 2.3522, 400_000.0, k=10)
    assert res.num_rows == 0
    assert res.schema == pa.schema([("doc_id", pa.int64()),
                                    ("rank", pa.int64()),
                                    ("distance_m", pa.float64())])


def test_batch_searches_over_empty_index(ray_session, tmp_path):
    """An index built from no documents has no segments: ``Index.search``
    and ``search_by_fields`` return no rows and ``count_hits`` counts
    zero per query, each with its usual schema."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.searcher import (
        Index,
        count_hits,
        search_by_fields,
    )

    p = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({"doc_id": pa.array([], pa.int64()),
                             "text": pa.array([], pa.string())}), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id")
    idx = Index(out)
    queries = {0: "merge", 1: "mer*"}
    hits = idx.search(queries, k=10)
    assert hits.num_rows == 0
    assert hits.schema == pa.schema([
        ("qid", pa.int64()), ("rank", pa.int32()), ("doc_id", pa.int64()),
        ("score", pa.float32())])
    counts = count_hits(idx, queries)
    assert counts.column("qid").to_pylist() == [0, 1]
    assert counts.column("total_hits").to_pylist() == [0, 0]
    by_fields = search_by_fields(idx, queries, [("field_len", True)], k=5)
    assert by_fields.num_rows == 0
    assert by_fields.schema.names == ["qid", "rank", "doc_id", "sort_0"]
    assert by_fields.schema.field("rank").type == pa.int32()


def test_gate_cache_dir_is_keyed_on_the_build_code(monkeypatch):
    """A gate's cached index directory changes when the digest of the
    index and analysis sources does, not only with ``FORMAT_VERSION``."""
    from lucene_solr_ray.pipelines import fulltext

    a = fulltext._cache_dir("documents", "/data/sf")
    assert fulltext._cache_dir("documents", "/data/sf") == a
    assert fulltext._cache_dir("documents_mf", "/data/sf") != a
    assert fulltext._cache_dir("documents", "/data/other") != a
    monkeypatch.setattr(fulltext, "_code_digest", lambda: "changed")
    assert fulltext._cache_dir("documents", "/data/sf") != a
