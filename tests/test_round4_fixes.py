"""Round-4 regression tests (VERDICT.md / ADVICE.md follow-ups):

1. embedding_near_dups pair outputs are identical to an exhaustive
   brute-force cosine scan (cluster-side pair enumeration — no driver
   list proportional to blocks² — must not change results);
2. SQL plain SELECT with ORDER BY/LIMIT never collects the full table
   (sql_dataset stays lazy; sql_query returns the sorted head);
3. SQL JOIN compiles onto the size-aware join and matches pandas merge;
4. inner_join broadcast vs shuffle paths return identical rows;
5. reader visibility: an uncommitted delete sidecar is invisible until
   its manifest generation commits (commit-point semantics);
6. CommonGramsFilter emits the gram at the FIRST unigram's position;
7. ValueFeature with a required efi key raises when the key is absent.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _embed_ds(n=60, dim=8, seed=3):
    import ray.data

    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, dim))
    # plant near-dup clusters across prospective blocks
    M[37] = M[2] + rng.normal(scale=1e-3, size=dim)
    M[55] = M[11] + rng.normal(scale=1e-3, size=dim)
    ids = np.arange(n, dtype=np.int64)
    return M, ray.data.from_arrow(
        pa.table({
            "vec_id": pa.array(ids),
            "embedding": pa.array([list(map(float, r)) for r in M]),
        })
    )


def test_embedding_neardups_matches_bruteforce(ray_session, tmp_path):
    from lucene_solr_ray.functions.dedup import embedding_near_dups

    M, ds = _embed_ds()
    thr = 0.98
    out = embedding_near_dups(
        ds, "embedding", "vec_id", threshold=thr, block=16,
        scratch_dir=str(tmp_path / "nd"),
    ).to_pandas()
    got = set(zip(out.id_a, out.id_b))
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    S = Mn @ Mn.T
    want = {
        (i, j)
        for i in range(len(M)) for j in range(i + 1, len(M))
        if S[i, j] >= thr
    }
    assert got == want and len(want) >= 2


def test_sql_select_limit_streams(ray_session):
    import ray.data

    from lucene_solr_ray.stages.sql import sql_dataset, sql_query

    df = pd.DataFrame({
        "k": np.arange(1000, dtype=np.int64),
        "v": (np.arange(1000, dtype=np.int64) * 37) % 1000,
    })
    resolver = lambda name: ray.data.from_pandas(df)  # noqa: E731
    sql = ("SELECT k, v FROM t WHERE v >= 10 "
           "ORDER BY v DESC, k ASC LIMIT 7")
    lazy = sql_dataset(sql, resolver)
    import ray.data as rd

    assert isinstance(lazy, rd.Dataset)  # still a Dataset — not collected
    out = sql_query(sql, resolver)
    want = (
        df[df.v >= 10].sort_values(["v", "k"], ascending=[False, True])
        .head(7).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, want)


def test_sql_join_matches_pandas(ray_session):
    import ray.data

    from lucene_solr_ray.stages.sql import sql_query

    rng = np.random.default_rng(5)
    facts = pd.DataFrame({
        "fk": rng.integers(0, 20, 500).astype(np.int64),
        "x": rng.integers(0, 1000, 500).astype(np.int64),
    })
    dims = pd.DataFrame({
        "dk": np.arange(20, dtype=np.int64),
        "seg": [f"s{i % 4}" for i in range(20)],
    })
    tables = {"facts": facts, "dims": dims}
    resolver = lambda name: ray.data.from_pandas(tables[name])  # noqa: E731
    out = sql_query(
        "SELECT seg, COUNT(*) AS n, MAX(x) AS mx FROM facts "
        "JOIN dims ON facts.fk = dims.dk WHERE x > 100 "
        "GROUP BY seg ORDER BY seg",
        resolver,
    )
    j = facts[facts.x > 100].merge(dims, left_on="fk", right_on="dk")
    want = (
        j.groupby("seg").agg(n=("seg", "size"), mx=("x", "max"))
        .reset_index().sort_values("seg").reset_index(drop=True)
    )
    out["n"] = out["n"].astype(np.int64)
    pd.testing.assert_frame_equal(out, want)


def test_inner_join_broadcast_equals_shuffle(ray_session):
    import ray.data

    from lucene_solr_ray.stages.relational import inner_join

    rng = np.random.default_rng(11)
    left = pd.DataFrame({
        "k": rng.integers(0, 50, 400).astype(np.int64),
        "a": np.arange(400, dtype=np.int64),
    })
    right = pd.DataFrame({
        "k2": np.arange(0, 40, dtype=np.int64),
        "b": np.arange(40, dtype=np.int64) * 2,
    })

    def run(limit):
        out = inner_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            on="k", right_on="k2", broadcast_limit=limit,
        ).to_pandas()
        return (
            out[sorted(out.columns)]
            .sort_values(sorted(out.columns), kind="mergesort")
            .reset_index(drop=True)
        )

    bcast = run(10_000)     # right side (40 rows) broadcasts
    shuffled = run(0)       # forced hash-partitioned shuffle join
    pd.testing.assert_frame_equal(bcast, shuffled)
    assert len(bcast) == len(
        left.merge(right, left_on="k", right_on="k2")
    )


def test_uncommitted_delete_sidecar_invisible(ray_session, tmp_path):
    import os

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.searcher import Index

    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(30), pa.int64()),
            "text": pa.array([f"common token doc{i}" for i in range(30)]),
        }), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id")
    idx = Index(out)
    seg = os.path.join(out, sorted(
        d for d in os.listdir(out) if d.startswith("seg_")
    )[0])
    # orphan sidecar (crash between sidecar write and commit)
    pq.write_table(
        pa.table({"ord": pa.array([0, 1, 2], pa.int32())}),
        os.path.join(seg, "deletes-7.parquet"),
    )
    r = SegmentReader(seg)
    assert len(r.deleted_ords) == 0  # uncommitted → invisible
    n = idx.search({0: "common"}, k=50).num_rows
    assert n == 30


def test_common_grams_first_position():
    from lucene_solr_ray.analysis.misc import CommonGramsFilter

    f = CommonGramsFilter({"the"})
    out = f.apply([("the", 0), ("quick", 1)])
    assert ("the_quick", 0) in out and ("quick", 1) in out


def test_value_feature_required_efi(ray_session, tmp_path):
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.search.ltr import (
        LinearModel,
        ValueFeature,
        ltr_rescore,
    )

    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(10), pa.int64()),
            "text": pa.array(["shared text"] * 10),
        }), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id")
    from lucene_solr_ray.search.searcher import Index
    idx = Index(out)
    feats = [ValueFeature("uq", efi_key="user_query_boost")]
    model = LinearModel({"uq": 1.0})
    with pytest.raises(Exception):
        ltr_rescore(idx, "shared", model, feats, efi={})
    res = ltr_rescore(
        idx, "shared", model, feats, efi={"user_query_boost": 2.0}
    )
    assert len(res) > 0


def test_free_text_model_reuse(ray_session):
    """Build once, look up twice — the corpus is scanned ONCE (the
    reference FreeTextSuggester.build/lookup split)."""
    import ray.data

    from lucene_solr_ray.functions.suggest import FreeTextSuggester

    scans = {"n": 0}

    def _counted_read():
        df = pd.DataFrame({
            "text": ["a b c", "a b d", "b c d", "a b c d"],
        })
        scans["n"] += 1
        return ray.data.from_pandas(df)

    sug = FreeTextSuggester.build(_counted_read(), "text")
    assert scans["n"] == 1
    out1 = sug.lookup("a", n=3)
    out2 = sug.lookup("b", n=3)
    assert out1[0] == ("b", 3)
    assert out2[0] == ("c", 3) and ("d", 1) in out2
    assert scans["n"] == 1  # no re-read


def test_free_text_model_parquet(ray_session, tmp_path):
    import ray.data

    from lucene_solr_ray.functions.suggest import FreeTextSuggester

    df = pd.DataFrame({"text": ["x y z", "x y", "y z"]})
    sug = FreeTextSuggester.build(
        ray.data.from_pandas(df), "text",
        model_dir=str(tmp_path / "ft_model"),
    )
    assert sug.lookup("x", n=2) == [("y", 2)]
    assert sug.lookup("y", n=2) == [("z", 2)]


def test_fuzzy_suggest_prefix_edit_distance():
    from lucene_solr_ray.functions.suggest import _prefix_edit_distance

    # exact prefix
    assert _prefix_edit_distance("sma", "small", 1) == 0
    # one substitution within the prefix
    assert _prefix_edit_distance("sma", "spark", 1) == 1
    # far away
    assert _prefix_edit_distance("sma", "sort", 1) >= 2
    # brute-force cross-check
    import itertools

    def brute(key, term, k):
        import numpy as np

        def lev(a, b):
            d = np.zeros((len(a) + 1, len(b) + 1), dtype=int)
            d[:, 0] = range(len(a) + 1)
            d[0, :] = range(len(b) + 1)
            for i in range(1, len(a) + 1):
                for j in range(1, len(b) + 1):
                    d[i, j] = min(
                        d[i - 1, j] + 1, d[i, j - 1] + 1,
                        d[i - 1, j - 1] + (a[i - 1] != b[j - 1]),
                    )
            return d[-1, -1]

        return min(
            lev(key, term[:j])
            for j in range(1, min(len(term), len(key) + k) + 1)
        )

    rng = np.random.default_rng(2)
    alpha = "abc"
    for _ in range(80):
        key = "".join(rng.choice(list(alpha), size=rng.integers(1, 5)))
        term = "".join(rng.choice(list(alpha), size=rng.integers(1, 7)))
        got = _prefix_edit_distance(key, term, 2)
        want = brute(key, term, 2)
        assert (got <= 2) == (want <= 2), (key, term, got, want)


def test_taxonomy_and_drill_sideways(ray_session):
    import ray.data

    from lucene_solr_ray.stages.facets import (
        drill_down,
        drill_sideways,
        taxonomy_counts,
    )

    df = pd.DataFrame({
        "place": ["eu/fr", "eu/fr", "eu/de", "us/ca", "us/ny", "eu/fr/paris"],
        "color": ["red", "blue", "red", "red", "blue", "red"],
    })
    ds = ray.data.from_pandas(df)
    tc = taxonomy_counts(ds, "place").to_pandas()
    got = dict(zip(tc.path, tc.n))
    assert got["eu"] == 4 and got["eu/fr"] == 3 and got["eu/fr/paris"] == 1
    assert got["us"] == 2

    dd = drill_down(ds, {"place": "eu/fr"}).to_pandas()
    assert len(dd) == 3  # eu/fr x2 + eu/fr/paris (prefix match)

    sw = drill_sideways(
        ds, {"place": "eu", "color": "red"}
    ).to_pandas()
    m = {(r.dim, r.value): r.n for r in sw.itertuples()}
    # place dim counted under color=red only (raw path values)
    assert m[("place", "eu/fr")] == 1 and m[("place", "us/ca")] == 1
    assert m[("place", "eu/fr/paris")] == 1 and m[("place", "eu/de")] == 1
    # color dim counted under place=eu only
    assert m[("color", "red")] == 3 and m[("color", "blue")] == 1
    assert m[("__hits__", "")] == 3


def test_common_terms_build_split():
    from lucene_solr_ray.search.query import (
        BooleanQuery,
        CommonTermsQuery,
        Occur,
    )

    q = CommonTermsQuery(("the", "rare"), max_term_frequency=0.5)
    built = q.build({"the": 90, "rare": 3}, 100)
    assert isinstance(built, BooleanQuery)
    occurs = [c.occur for c in built.clauses]
    assert occurs == [Occur.MUST, Occur.SHOULD]  # low group MUST first
    # all-high → conjunction guard: high group becomes MUST
    q2 = CommonTermsQuery(("the", "of"), max_term_frequency=0.5)
    built2 = q2.build({"the": 90, "of": 95}, 100)
    inner = built2.clauses[0].query.query
    assert all(c.occur == Occur.MUST for c in inner.clauses)
    # absolute threshold form (mtf >= 1)
    q3 = CommonTermsQuery(("a", "b"), max_term_frequency=50.0)
    b3 = q3.build({"a": 60, "b": 10}, 100)
    assert len(b3.clauses) == 2


def test_unified_highlighter_sentences_and_format():
    from lucene_solr_ray.functions.highlight import (
        PassageScorer,
        UnifiedHighlighter,
        _sentence_spans,
    )

    text = ("The merge ran fast. Nothing here at all. "
            "Another merge happened with merge twice! Trailing words.")
    spans = _sentence_spans(text)
    assert len(spans) == 4
    assert text[spans[0][0]:spans[0][1]].startswith("The merge")
    # two passages, document order, ellipsis between non-contiguous
    hl = UnifiedHighlighter(max_passages=2)
    out = hl.highlight(text, ["merge"])
    assert out.index("The <b>merge</b>") == 0
    assert "... " in out  # sentence 2 (no match) skipped
    assert out.count("<b>merge</b>") == 3
    assert "Nothing here" not in out
    # the two-match sentence outranks the one-match sentence
    ps = hl.passages(text, ["merge"])
    assert len(ps) == 2 and ps[0].start < ps[1].start
    assert ps[1].score < ps[0].score or len(ps[1].matches) >= len(
        ps[0].matches
    )
    # no-match → first passage, untagged (summary path)
    out2 = UnifiedHighlighter().highlight(text, ["absent"])
    assert out2 == "The merge ran fast. " and "<b>" not in out2
    # PassageScorer: position norm prefers early passages
    sc = PassageScorer()
    assert sc.norm(0) > sc.norm(500)
    # tf saturates with passage length
    assert sc.tf(2, 50) > sc.tf(2, 500)


def test_unified_highlighter_fixed_tokens_matches_scorer():
    import numpy as np

    from lucene_solr_ray.functions.highlight import (
        PassageScorer,
        UnifiedHighlighter,
    )

    text = " ".join(["pad"] * 10 + ["merge"] + ["pad"] * 13 + ["merge",
                                                               "merge"])
    hl = UnifiedHighlighter(max_passages=2, fixed_tokens=12)
    ps = hl.passages(text, ["merge"])
    assert len(ps) == 2
    sc = PassageScorer()
    for p in ps:
        plen = p.end - p.start
        freq = len(p.matches)
        want = sc.norm(p.start) * sc.weight(len(text), 3) * sc.tf(freq, plen)
        assert np.isclose(p.score, want)


def test_soft_deletes_lifecycle(ray_session, tmp_path):
    """soft delete → wrapper visibility → retention policy → merge
    reclaim (SoftDeletesRetentionMergePolicy composition)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.softdeletes import (
        apply_soft_deletes_policy,
        soft_delete_by_query,
        soft_update_documents,
    )
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.searcher import Index

    docs = {
        0: "keep alpha", 1: "drop beta", 2: "drop retainme",
        3: "keep gamma", 4: "drop beta retainme",
    }
    p = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(sorted(docs), pa.int64()),
            "text": pa.array([docs[i] for i in sorted(docs)]),
        }),
        p,
    )
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                docs_per_segment=3)
    soft_delete_by_query(out, "drop")
    idx = Index(out)
    # unwrapped reader still sees soft-deleted docs
    plain = set(idx.search({0: "beta"}, k=10)
                .column("doc_id").to_pylist())
    assert plain == {1, 4}
    # wrapped view excludes them
    wrapped = idx.search({0: "beta"}, k=10, respect_soft_deletes=True)
    assert wrapped.num_rows == 0
    w2 = set(idx.search({0: "keep"}, k=10, respect_soft_deletes=True)
             .column("doc_id").to_pylist())
    assert w2 == {0, 3}
    # retention policy: soft docs matching 'retainme' stay soft, the
    # rest harden into real tombstones
    apply_soft_deletes_policy(out, retention_query="retainme")
    idx2 = Index(out)
    # hardened: doc 1 invisible even unwrapped; retained 2,4 visible
    after = set(idx2.search({0: "beta OR retainme"}, k=10)
                .column("doc_id").to_pylist())
    assert after == {2, 4}
    # and still excluded under the wrapper
    aw = idx2.search({0: "retainme"}, k=10, respect_soft_deletes=True)
    assert aw.num_rows == 0
    total_soft = sum(
        len(SegmentReader(d, respect_soft_deletes=True).soft_deleted_ords)
        for d in idx2.seg_dirs
    )
    assert total_soft == 2  # docs 2 and 4 stay soft


def test_soft_update_documents(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.softdeletes import soft_update_documents
    from lucene_solr_ray.search.searcher import Index

    p = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["old text", "other words", "more stuff"]),
        }),
        p,
    )
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id")
    soft_update_documents(out, [0], ["new text"])
    idx = Index(out)
    # wrapped view: only the replacement matches 'text'
    hits = idx.search({0: "text"}, k=10, respect_soft_deletes=True)
    assert hits.column("doc_id").to_pylist() == [0]
    assert hits.num_rows == 1
    # unwrapped: both the soft-deleted original and the replacement
    both = idx.search({0: "text"}, k=10)
    assert sorted(both.column("doc_id").to_pylist()) == [0, 0]


def test_urp_new_factories(ray_session):
    import pyarrow as pa
    import ray.data

    from lucene_solr_ray.stages import urp

    t = pa.table({
        "vals": [[3, 1], [7], [2, 9, 5]],
        "flag": ["Yes", "off", "maybe"],
        "a": ["x", "y", "z"],
        "num": ["10", "20", "30"],
        "mixed": ["1.5", "oops", "2"],
        "url": ["https://Ex.COM/a/b/c?q=1#frag", "http://h.io/", ""],
        "ttl": [3600, 1, 7200],
    })
    ds = ray.data.from_arrow(t)
    out = urp.chain(ds, [
        urp.first_value("vals"),
        urp.parse_boolean("flag", out="flag_b"),
        urp.template_field("tpl", "id-${a}-${num}"),
        urp.add_schema_fields(["num", "mixed"]),
        urp.url_classify("url"),
        urp.rename_fields(r"^a$", "alpha"),
    ]).to_arrow_refs()
    import ray as _ray

    r = pa.concat_tables([_ray.get(x) for x in out])
    assert r.column("vals").to_pylist() == [3, 7, 2]
    assert r.column("flag_b").to_pylist() == [True, False, None]
    assert r.column("tpl").to_pylist() == [
        "id-x-10", "id-y-20", "id-z-30"
    ]
    assert r.schema.field("num").type == pa.int64()    # all parse
    assert r.schema.field("mixed").type == pa.string()  # one bad value
    assert r.column("url_domain").to_pylist() == ["ex.com", "h.io", ""]
    assert r.column("url_levels").to_pylist() == [3, 0, 0]
    assert r.column("url_canonical").to_pylist()[0] == \
        "https://ex.com/a/b/c?q=1"
    assert "alpha" in r.column_names and "a" not in r.column_names


def test_urp_expiration_and_langid(ray_session):
    import pyarrow as pa
    import ray.data

    from lucene_solr_ray.stages import urp

    t = pa.table({
        "text": ["the quick brown fox jumps over the lazy dog and runs",
                 "der schnelle braune fuchs springt und das ist ein haus"],
        "ttl": [-5, 3600],
    })
    r = urp.chain(ray.data.from_arrow(t), [
        urp.doc_expiration("ttl", now="2026-01-01T00:00:00"),
        urp.langid_field("text"),
    ]).take_all()
    # the expired row (negative ttl) was dropped
    assert len(r) == 1
    assert r[0]["lang"] in ("de", "en")
    assert r[0]["ttl"] == 3600


def test_urp_last_value_and_script(ray_session):
    import pyarrow as pa

    from lucene_solr_ray.stages import urp

    t = pa.table({"vals": [[3, 1, 8], [7]]})
    out = urp.last_value("vals")(t)
    assert out.column("vals").to_pylist() == [8, 7]
    double = urp.script_stage(
        lambda tt: tt.set_column(0, "vals", pa.array(
            [v * 2 for v in tt.column("vals").to_pylist()]))
    )
    assert double(out).column("vals").to_pylist() == [16, 14]


def test_evaluator_additions(ray_session):
    import pyarrow as pa
    import ray.data

    from lucene_solr_ray.stages.evaluators import evaluate

    t = pa.table({
        "a": [1.0, 2.0, 3.0],
        "b": [1.0, 5.0, 3.0],
        "text": ["The Quick FOX", "and the dog", "Running Fast"],
    })
    rows = evaluate(ray.data.from_arrow(t), {
        "ne": "neq(a, b)",
        "x": "eor(gt(a, 2), gt(b, 2))",
        "toks": "analyze(text)",
    }).take_all()
    assert [r["ne"] for r in rows] == [False, True, False]
    assert [r["x"] for r in rows] == [False, True, False]
    assert rows[0]["toks"] == ["the", "quick", "fox"]
    assert rows[2]["toks"] == ["running", "fast"]


def test_ngram_jaccard_pairs_identity_and_cap(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from lucene_solr_ray.functions.dedup import (
        ngram_jaccard,
        ngram_jaccard_pairs,
    )

    rng = np.random.default_rng(29)
    words = ["alpha", "beta", "gamma", "delta", "eps"]
    base = [" ".join(rng.choice(words, 12)) for _ in range(30)]
    texts = list(base)
    texts[7] = base[3]                       # exact dup
    texts[9] = base[3] + " beta"             # near dup
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    })

    def run(nblocks):
        ds = ray.data.from_arrow(t).repartition(nblocks)
        df = ngram_jaccard_pairs(
            ds, "text", "doc_id", k=3, threshold=0.3, max_gram_df=1000
        ).to_pandas()
        return df.sort_values(["id_a", "id_b"]).reset_index(drop=True)

    a, b = run(1), run(7)
    # identical output regardless of block layout
    assert a.equals(b)
    got = {(r.id_a, r.id_b): r.jaccard for r in a.itertuples()}
    assert got[(3, 7)] == 1.0
    # spot-check against the scalar oracle (no df cap binding here)
    assert abs(got[(3, 9)] - ngram_jaccard(base[3], texts[9], 3)) < 1e-6
    # every emitted pair respects the threshold
    assert (a["jaccard"] >= 0.3).all()
    # the stop-gram cap shrinks/empties the result (shared grams exceed
    # the tiny cap, so the pair space collapses)
    capped = ray.data.from_arrow(t)
    small = ngram_jaccard_pairs(
        capped, "text", "doc_id", k=3, threshold=0.3, max_gram_df=1
    ).to_pandas()
    assert len(small) <= len(a)


def test_sql_scalar_expressions(ray_session):
    import ray.data

    from lucene_solr_ray.stages.sql import SqlError, sql_query

    df = pd.DataFrame({
        "a": np.array([1, 2, 3, 4], dtype=np.int64),
        "b": np.array([10.0, 20.0, 30.0, 40.0]),
        "g": ["x", "y", "x", "y"],
    })
    resolver = lambda n: ray.data.from_pandas(df)  # noqa: E731
    out = sql_query("SELECT a, b * 2 + 1 AS c FROM t ORDER BY a", resolver)
    assert out["c"].tolist() == [21.0, 41.0, 61.0, 81.0]
    # '/' is float division even on ints (DuckDB semantics)
    out2 = sql_query("SELECT a / 2 AS h FROM t ORDER BY h", resolver)
    assert out2["h"].tolist() == [0.5, 1.0, 1.5, 2.0]
    # expressions inside aggregates + grouped
    out3 = sql_query(
        "SELECT g, SUM(a * b) AS s FROM t GROUP BY g ORDER BY g", resolver
    )
    assert out3["s"].tolist() == [1.0 * 10 + 3 * 30, 2.0 * 20 + 4 * 40]
    # unary minus + parens + negative literal in WHERE
    out4 = sql_query(
        "SELECT -(a - 5) AS m FROM t WHERE a > -10 ORDER BY m", resolver
    )
    assert out4["m"].tolist() == [1, 2, 3, 4]
    # expression items require an alias
    with pytest.raises(SqlError, match="AS alias"):
        sql_query("SELECT a + b FROM t", resolver)


def test_checkindex_soft_deletes_and_sort_marker(ray_session, tmp_path):
    import os

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.check import check_segment
    from lucene_solr_ray.index.softdeletes import soft_delete_by_query

    p = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(20), pa.int64()),
            "text": pa.array(
                ["drop token"] * 5 + ["keep token"] * 15
            ),
            "prio": pa.array(list(range(20)), pa.int64()),
        }), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id",
                stored_cols=["prio"], index_sort=("prio", True))
    soft_delete_by_query(out, "drop")
    seg = os.path.join(out, sorted(
        d for d in os.listdir(out) if d.startswith("seg_")
    )[0])
    r = check_segment(seg)
    assert r["ok"], r["errors"]
    # corrupt: out-of-range soft ord in the COMMITTED generation's file
    committed = os.path.join(seg, "softdel-1.parquet")
    healthy = pq.read_table(committed)
    pq.write_table(
        pa.table({"ord": pa.array([3, 999], pa.int32())}), committed
    )
    r2 = check_segment(seg)
    assert not r2["ok"]
    assert any("soft-deletes" in e for e in r2["errors"])
    pq.write_table(healthy, committed)
    # corrupt: break the recorded comparator order
    dm = pq.read_table(os.path.join(seg, "docmeta.parquet"))
    idx0 = dm.schema.get_field_index("prio")
    vals = dm.column("prio").to_pylist()
    vals[0], vals[-1] = vals[-1], vals[0]
    pq.write_table(
        dm.set_column(idx0, "prio", pa.array(vals, pa.int64())),
        os.path.join(seg, "docmeta.parquet"),
    )
    r3 = check_segment(seg)
    assert any("comparator order" in e for e in r3["errors"])


def test_checkindex_orphan_sidecar_is_not_corruption(ray_session, tmp_path):
    """A sidecar no commit names (a write that crashed before its manifest
    commit) is listed as an orphan; the committed generations it would
    shadow are what CheckIndex validates."""
    import os

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.check import check_index, check_segment
    from lucene_solr_ray.index.softdeletes import soft_delete_by_query

    p = str(tmp_path / "c.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(20), pa.int64()),
        "text": pa.array(["drop token"] * 5 + ["keep token"] * 15),
    }), p)
    out = str(tmp_path / "idx")
    build_index(p, out, text_col="text", id_col="doc_id")
    soft_delete_by_query(out, "drop")
    seg = os.path.join(out, sorted(
        d for d in os.listdir(out) if d.startswith("seg_")
    )[0])
    # an orphan that would fail every soft-delete check
    pq.write_table(
        pa.table({"ord": pa.array([7, 3, 999], pa.int32())}),
        os.path.join(seg, "softdel-9.parquet"),
    )
    r = check_segment(seg)
    assert r["ok"], r["errors"]
    assert r["orphans"] == ["softdel-9.parquet"]
    rep = check_index(out)
    assert rep["ok"], rep["errors"]
    assert rep["orphans"] == [f"seg {r['segment_id']}: softdel-9.parquet"]


def test_replicate_carries_late_sidecars(ray_session, tmp_path):
    """Re-replication after deletes / DV updates / soft deletes must ship
    the new generation-stamped sidecars into already-copied segment dirs
    — the committed replica manifest references their generations."""
    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.deletes import delete_by_query
    from lucene_solr_ray.index.docvalues import update_numeric_docvalue
    from lucene_solr_ray.index.manifest import replicate
    from lucene_solr_ray.index.softdeletes import soft_delete_by_query
    from lucene_solr_ray.search.searcher import Index

    p = str(tmp_path / "c.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(30), pa.int64()),
        "text": pa.array(
            ["drop alpha"] * 10 + ["soft alpha"] * 10 + ["keep alpha"] * 10
        ),
        "prio": pa.array([1] * 30, pa.int64()),
    }), p)
    src = str(tmp_path / "src")
    dst = str(tmp_path / "dst")
    build_index(p, src, text_col="text", id_col="doc_id",
                stored_cols=["prio"])
    replicate(src, dst)  # initial copy, no sidecars yet
    delete_by_query(src, "drop")
    soft_delete_by_query(src, "soft")
    update_numeric_docvalue(src, "keep", "prio", 7)
    r2 = replicate(src, dst)
    assert r2["copied_segments"] == []  # cores already present
    assert len(r2["copied_sidecars"]) >= 3  # deletes + softdel + dvu
    # the replica answers identically to the primary
    a, b = Index(src), Index(dst)
    for kwargs in ({}, {"respect_soft_deletes": True}):
        assert a.search({0: "alpha"}, k=40, **kwargs).equals(
            b.search({0: "alpha"}, k=40, **kwargs)
        )


def test_replicate_ships_only_committed_sidecars(ray_session, tmp_path):
    """An orphan sidecar (a crashed write) on the primary never reaches
    the replica, and once that generation commits for real the replica
    receives the committed file — it serves the primary's answers."""
    import os

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.deletes import delete_doc_ids
    from lucene_solr_ray.index.manifest import replicate
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.searcher import Index

    p = str(tmp_path / "c.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(20), pa.int64()),
        "text": pa.array([f"common doc{i}" for i in range(20)]),
    }), p)
    src = str(tmp_path / "src")
    dst = str(tmp_path / "dst")
    build_index(p, src, text_col="text", id_col="doc_id")
    delete_doc_ids(src, [0])  # committed deletes generation 1: {0}
    seg = Index(src).seg_dirs[0]
    pq.write_table(  # orphan generation 2: docs 0, 10..19
        pa.table({"ord": pa.array([0, *range(10, 20)], pa.int32())}),
        os.path.join(seg, "deletes-2.parquet"),
    )
    r1 = replicate(src, dst)
    rseg = os.path.join(dst, os.path.basename(seg))
    assert not os.path.exists(os.path.join(rseg, "deletes-2.parquet"))
    assert SegmentReader(rseg).deleted_ords.tolist() == [0]
    assert r1["copied_segments"]
    delete_doc_ids(src, [1])  # generation 2 commits for real: {0, 1}
    replicate(src, dst)
    assert SegmentReader(rseg).deleted_ords.tolist() == [0, 1]
    for d in (src, dst):
        assert Index(d).search({0: "common"}, k=50).num_rows == 18


def test_soft_deletes_survive_merges(ray_session, tmp_path):
    """Soft-deleted docs stay soft-deleted through merges (both paths),
    with ords remapped through compaction and the sorted-merge DocMap."""
    import os

    from lucene_solr_ray.index.build import build_index
    from lucene_solr_ray.index.deletes import delete_by_query
    from lucene_solr_ray.index.merge import merge_segments
    from lucene_solr_ray.index.manifest import commit_manifest
    from lucene_solr_ray.index.softdeletes import soft_delete_by_query
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.searcher import Index

    p = str(tmp_path / "c.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(60), pa.int64()),
        "text": pa.array(
            ["hard alpha"] * 15 + ["soft alpha"] * 15 + ["keep alpha"] * 30
        ),
        "prio": pa.array([i % 7 for i in range(60)], pa.int64()),
    }), p)

    def mk(out, sharded, **bkw):
        build_index(p, out, text_col="text", id_col="doc_id",
                    stored_cols=["prio"], docs_per_segment=20, **bkw)
        delete_by_query(out, "hard")
        soft_delete_by_query(out, "soft")
        ids = sorted(int(d.split("_")[-1]) for d in os.listdir(out)
                     if d.startswith("seg_"))
        if sharded:
            m = merge_segments(out, ids, new_id=500, num_shards=3)
        else:
            m = merge_segments(out, ids, new_id=500)
        commit_manifest(out, [m])
        return Index(out)

    for sharded in (False, True):
        for bkw in ({}, {"index_sort": ("prio", True)}):
            out = str(tmp_path / f"idx_{sharded}_{bool(bkw)}")
            idx = mk(out, sharded, **bkw)
            # hard-deleted gone entirely; soft-deleted visible unwrapped
            assert idx.search({0: "alpha"}, k=100).num_rows == 45
            w = idx.search({0: "alpha"}, k=100,
                           respect_soft_deletes=True)
            assert w.num_rows == 30
            assert set(w.column("doc_id").to_pylist()) == set(range(30, 60))
            seg = os.path.join(out, "seg_000500")
            assert len(SegmentReader(
                seg, respect_soft_deletes=True).soft_deleted_ords) == 15
