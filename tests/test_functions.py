"""Training-data ops: dedup/minhash/simhash/ANN vs brute-force oracles."""

import numpy as np
import pandas as pd
import pytest

from lucene_solr_ray.functions.dedup import (
    minhash_signatures,
    ngram_jaccard,
    simhash64,
)


def test_ngram_jaccard_basics():
    assert ngram_jaccard("a b c d", "a b c d") == 1.0
    assert ngram_jaccard("a b c", "x y z") == 0.0
    assert 0.0 < ngram_jaccard("a b c d e", "a b c d x") < 1.0
    assert ngram_jaccard("", "") == 1.0
    assert ngram_jaccard("a b c", "") == 0.0


def test_minhash_estimates_jaccard():
    a = "the quick brown fox jumps over the lazy dog " * 5
    b = "the quick brown fox leaps over the lazy dog " * 5
    sigs = minhash_signatures([a, b], num_perm=256)
    est = float((sigs[0] == sigs[1]).mean())
    true = ngram_jaccard(a, b)
    assert abs(est - true) < 0.15


def test_minhash_deterministic():
    s1 = minhash_signatures(["hello world foo bar"], num_perm=64)
    s2 = minhash_signatures(["hello world foo bar"], num_perm=64)
    assert (s1 == s2).all()


def test_simhash_near_texts_close():
    a = "alpha beta gamma delta epsilon zeta eta theta " * 4
    b = a.replace("zeta", "zetaX")
    far = "one two three four five six seven eight nine ten " * 4
    ham_ab = bin(simhash64(a) ^ simhash64(b)).count("1")
    ham_af = bin(simhash64(a) ^ simhash64(far)).count("1")
    assert ham_ab < ham_af
    assert simhash64(a) == simhash64(a)


@pytest.fixture(scope="module")
def emb_ds(ray_session, sf_dir):
    import ray.data

    return ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )


def _numpy_oracle_topk(sf_dir, k, nq):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    ids = np.asarray(t.column("vec_id").to_pylist())
    M = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    M = M / np.linalg.norm(M, axis=1, keepdims=True)
    S = M[:nq] @ M.T
    out = {}
    for r in range(nq):
        order = np.lexsort((ids, -S[r]))[:k]
        out[int(ids[r])] = list(ids[order])
    return out, S


def test_brute_force_ann_matches_oracle(emb_ds, sf_dir):
    import pyarrow.parquet as pq

    from lucene_solr_ray.functions.ann import brute_force_topk

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    Q = np.asarray(t.column("embedding").to_pylist()[:5], dtype=np.float64)
    qids = np.asarray(t.column("vec_id").to_pylist()[:5])
    got = brute_force_topk(emb_ds, Q, qids, "embedding", "vec_id", k=8)
    want, _ = _numpy_oracle_topk(sf_dir, 8, 5)
    for qid, g in got.groupby("qid"):
        assert list(g["vec_id"]) == want[qid]


def test_lsh_ann_recall(emb_ds, sf_dir):
    import pyarrow.parquet as pq

    from lucene_solr_ray.functions.ann import lsh_topk

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    Q = np.asarray(t.column("embedding").to_pylist()[:5], dtype=np.float64)
    qids = np.asarray(t.column("vec_id").to_pylist()[:5])
    got = lsh_topk(emb_ds, Q, qids, "embedding", "vec_id", k=8, n_bits=4)
    want, _ = _numpy_oracle_topk(sf_dir, 8, 5)
    recalls = []
    for qid, g in got.groupby("qid"):
        recalls.append(
            len(set(g["vec_id"]) & set(want[qid])) / len(want[qid])
        )
    assert np.mean(recalls) >= 0.5  # approximate path: recall, not identity


def test_exact_dedup_keeps_min_id(ray_session):
    import ray.data

    from lucene_solr_ray.functions.dedup import exact_dedup

    ds = ray.data.from_items(
        [
            {"doc_id": 3, "text": "aaa"},
            {"doc_id": 1, "text": "aaa"},
            {"doc_id": 2, "text": "bbb"},
        ]
    )
    out = exact_dedup(ds, "text", "doc_id").to_pandas()
    got = dict(zip(out["keep_id"], out["n_dups"]))
    assert got == {1: 2, 2: 1}


def test_minhash_lsh_finds_near_dups(ray_session):
    import ray.data

    from lucene_solr_ray.functions.dedup import minhash_lsh_pairs

    base = "the quick brown fox jumps over the lazy dog and runs far away " * 3
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base.replace("lazy", "sleepy")},
        {"doc_id": 2, "text": "completely different content about trains " * 5},
    ]
    ds = ray.data.from_items(rows)
    out = minhash_lsh_pairs(
        ds, "text", "doc_id", num_perm=64, bands=32,
        jaccard_threshold=0.5,
    ).to_pandas()
    pairs = set(zip(out["id_a"], out["id_b"]))
    assert (0, 1) in pairs
    assert (0, 2) not in pairs and (1, 2) not in pairs


def test_multimodal_stub_plumbing(ray_session):
    import ray.data

    from lucene_solr_ray.functions.multimodal import decode_images

    rows = [{"img_id": i, "image": bytes([i] * 64)} for i in range(10)]
    ds = ray.data.from_items(rows)
    out = decode_images(ds, concurrency=(1, 2), fake=True).to_pandas()
    assert len(out) == 10
    assert {"height", "width", "embedding"} <= set(out.columns)
    assert len(out["embedding"][0]) == 16
    # deterministic fake: same bytes → same features
    out2 = decode_images(ds, concurrency=(1, 2), fake=True).to_pandas()
    a = np.asarray([np.asarray(x) for x in out["embedding"]])
    b = np.asarray([np.asarray(x) for x in out2["embedding"]])
    assert (a == b).all()


def test_langid_stage_direct():
    import pyarrow as pa

    from lucene_solr_ray.functions.textstats import LangIdStage

    stage = LangIdStage()
    t = pa.table({"text": ["the thing and the other thing for importing",
                           "der ich und die schule", ""]})
    out = stage(t)
    assert out.column("lang_pred").to_pylist()[0] == "en"
    assert out.column("lang_pred").to_pylist()[2] == "und"


def test_corpus_generator_deterministic(tmp_path):
    import pyarrow.parquet as pq

    from lucene_solr_ray.sources.codegen import generate_corpus

    p1 = generate_corpus(str(tmp_path / "a"), n_docs=200, n_files=2)
    p2 = generate_corpus(str(tmp_path / "b"), n_docs=200, n_files=2)
    t1 = pq.read_table(p1[0])
    t2 = pq.read_table(p2[0])
    assert t1.equals(t2)
    assert t1.schema.names == ["repo", "path", "commit", "lang", "content"]
    # regeneration is a no-op (cache marker)
    import os
    mt = os.path.getmtime(p1[0])
    generate_corpus(str(tmp_path / "a"), n_docs=200, n_files=2)
    assert os.path.getmtime(p1[0]) == mt


# -- json_facet round-2: metric sort, sub-facet metrics, strict errors ------


def test_json_facet_metric_sort_and_sub_metrics(ray_session, sf_dir):
    import ray.data
    from lucene_solr_ray.stages.json_facet import json_facet

    ds = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_brand", "p_retailprice", "p_size"],
    )
    res = json_facet(ds, {
        "type": "terms", "field": "p_brand", "limit": 3,
        "sort": "avg_price desc",
        "facet": {
            "avg_price": "avg(p_retailprice)",
            "by_size": {
                "type": "terms", "field": "p_size", "limit": 2,
                "facet": {"max_price": "max(p_retailprice)"},
            },
        },
    })
    bks = res["buckets"]
    assert len(bks) == 3
    avgs = [b["avg_price"] for b in bks]
    assert avgs == sorted(avgs, reverse=True)
    for b in bks:
        for sb in b["by_size"]["buckets"]:
            assert "max_price" in sb and sb["max_price"] >= 0


def test_json_facet_rejects_unsupported(ray_session, sf_dir):
    import pytest as _pytest
    import ray.data
    from lucene_solr_ray.stages.json_facet import json_facet

    ds = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_brand", "p_size"]
    )
    with _pytest.raises(ValueError, match="sort"):
        json_facet(ds, {"type": "terms", "field": "p_brand",
                        "sort": "bogus_metric desc"})
    with _pytest.raises(ValueError, match="nesting"):
        json_facet(ds, {
            "type": "terms", "field": "p_brand",
            "facet": {"s": {"type": "terms", "field": "p_size",
                            "facet": {"t": {"type": "terms",
                                            "field": "p_brand"}}}},
        })


# -- SQL front-end (stages/sql.py) ------------------------------------------


def test_sql_query_shapes(ray_session, sf_dir):
    import ray.data

    from lucene_solr_ray.stages.sql import SqlError, sql_query

    def resolver(name):
        return ray.data.read_parquet(f"{sf_dir}/{name}.parquet")

    # plain select + where + order + limit
    out = sql_query(
        "SELECT o_orderkey, o_totalprice FROM orders "
        "WHERE o_totalprice >= 100000 AND NOT o_orderpriority = '1-URGENT' "
        "ORDER BY o_totalprice DESC, o_orderkey LIMIT 5",
        resolver,
    )
    assert list(out.columns) == ["o_orderkey", "o_totalprice"]
    assert len(out) <= 5
    assert (out.o_totalprice >= 100000).all()
    assert out.o_totalprice.is_monotonic_decreasing

    # aggregates without GROUP BY
    out = sql_query(
        "SELECT COUNT(*) AS n, MIN(o_totalprice) AS lo FROM orders",
        resolver,
    )
    assert len(out) == 1 and out.n[0] > 0 and out.lo[0] > 0

    # OR + string literals with escaped quote path
    out = sql_query(
        "SELECT COUNT(*) AS n FROM orders "
        "WHERE o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'",
        resolver,
    )
    assert out.n[0] > 0

    # errors
    import pytest as _pytest

    with _pytest.raises(SqlError):
        sql_query("SELECT o_orderkey, COUNT(*) AS n FROM orders", resolver)
    with _pytest.raises(SqlError):
        sql_query("SELECT FROM orders", resolver)
    with _pytest.raises(SqlError):
        sql_query("SELECT x FROM orders; DROP TABLE orders", resolver)


def test_sql_matches_duckdb(ray_session, sf_dir):
    import duckdb
    import ray.data

    from lucene_solr_ray.stages.sql import sql_query

    q = ("SELECT o_orderpriority, COUNT(*) AS n, MAX(o_totalprice) AS mx "
         "FROM orders WHERE o_totalprice < 200000 "
         "GROUP BY o_orderpriority ORDER BY o_orderpriority")
    mine = sql_query(q, lambda n: ray.data.read_parquet(
        f"{sf_dir}/{n}.parquet"))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{sf_dir}/orders.parquet')")
    want = con.execute(q).df()
    assert list(mine.o_orderpriority) == list(want.o_orderpriority)
    assert list(mine.n.astype("int64")) == list(want.n.astype("int64"))
    assert (abs(mine.mx - want.mx) < 1e-9).all()


# -- multimodal REAL decoders (BMP/PPM, WAV, RVID) --------------------------


def test_image_decode_real(ray_session):
    import ray.data

    from lucene_solr_ray.functions.multimodal import (
        decode_bmp,
        decode_images,
        decode_ppm,
        encode_bmp,
    )

    rng = np.random.default_rng(1)
    imgs = [rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
            for h, w in ((13, 17), (32, 8), (5, 5))]
    # BMP roundtrip is pixel-exact
    for img in imgs:
        assert (decode_bmp(encode_bmp(img)) == img).all()
    # PPM decode
    img = imgs[0]
    ppm = b"P6\n# comment\n17 13\n255\n" + img.tobytes()
    assert (decode_ppm(ppm) == img).all()

    rows = [{"img_id": i, "image": encode_bmp(im)}
            for i, im in enumerate(imgs)]
    out = decode_images(
        ray.data.from_items(rows), concurrency=(1, 2),
        target_size=(16, 16), embed_dim=16,
    ).to_pandas().sort_values("img_id")
    assert list(out.height) == [13, 32, 5]
    assert list(out.width) == [17, 8, 5]
    emb = np.asarray(out.embedding.iloc[0])
    assert emb.shape == (16,) and 0.0 <= emb.min() and emb.max() <= 1.0
    # embedding tracks brightness: an all-white image maxes the cells
    white = np.full((10, 10, 3), 255, np.uint8)
    o2 = decode_images(
        ray.data.from_items([{"image": encode_bmp(white)}]),
        target_size=(16, 16), embed_dim=16,
    ).to_pandas()
    assert np.allclose(np.asarray(o2.embedding.iloc[0]), 1.0)


def test_audio_features_real():
    import io as _io
    import wave

    from lucene_solr_ray.functions.multimodal import (
        AudioFeatureStage,
        decode_wav,
    )

    rate = 8000
    t = np.arange(rate) / rate
    for freq_lo, freq_hi in ((60, None), (None, 3500)):
        f = freq_lo or freq_hi
        sig = (0.5 * np.sin(2 * np.pi * f * t) * 32767).astype("<i2")
        buf = _io.BytesIO()
        with wave.open(buf, "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(rate)
            wf.writeframes(sig.tobytes())
        data = buf.getvalue()
        dec, r = decode_wav(data)
        assert r == rate and abs(len(dec) - rate) < 2
        st = AudioFeatureStage(n_mels=8)
        feats = st._features(data)
        assert feats.shape == (8,)
        # low tone concentrates energy in low filters, high tone in high
        if freq_lo:
            low_feats = feats
        else:
            high_feats = feats
    # tone position in the filterbank tracks frequency
    assert int(np.argmax(low_feats)) < int(np.argmax(high_feats))
    assert int(np.argmax(high_feats)) >= 6


def test_frame_sampling_real():
    from lucene_solr_ray.functions.multimodal import (
        FrameSampleStage,
        encode_rvid,
    )
    import pyarrow as pa

    frames = np.stack([
        np.full((4, 6, 3), i * 10, np.uint8) for i in range(10)
    ])
    blob = encode_rvid(frames)
    st = FrameSampleStage(every_n=3)
    t = pa.table({"video": pa.array([blob], pa.binary())})
    out = st(t)
    offs = out.column("frame_offsets")[0].as_py()
    means = out.column("frame_mean_rgb")[0].as_py()
    assert len(offs) == 4  # frames 0,3,6,9
    assert [m[0] for m in means] == [0.0, 30.0, 60.0, 90.0]
    frame_bytes = 4 * 6 * 3
    assert offs == [12 + i * frame_bytes for i in (0, 3, 6, 9)]


def test_unsupported_media_errors():
    import pytest as _pytest

    from lucene_solr_ray.functions.multimodal import (
        FrameSampleStage,
        ImageDecodeStage,
        UnsupportedMediaError,
    )

    with _pytest.raises(UnsupportedMediaError):
        ImageDecodeStage(embed_dim=16)._decode_one(b"\x89PNG fake")
    with _pytest.raises(UnsupportedMediaError):
        FrameSampleStage()._sample(b"not a video")


# -- IVF ANN: bucket-partitioned index ---------------------------------------


def test_ivf_index_recall(ray_session, sf_dir, tmp_path):
    import pyarrow.parquet as pq
    import ray.data

    from lucene_solr_ray.functions.ann import (
        brute_force_topk,
        build_ivf_index,
        ivf_topk,
    )

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    Q = np.asarray(t.column("embedding").to_pylist()[:5], dtype=np.float64)
    qids = np.arange(5)

    out_dir = str(tmp_path / "ivf")
    build_ivf_index(ds, "embedding", "vec_id", out_dir, n_clusters=16,
                    sample_size=2000)
    import os

    assert os.path.exists(os.path.join(out_dir, "centroids.npy"))
    # cluster partitions on disk
    parts = os.listdir(os.path.join(out_dir, "vectors"))
    assert any(p.startswith("cluster=") for p in parts)

    exact = brute_force_topk(ds, Q, qids, "embedding", "vec_id", k=10)
    approx = ivf_topk(out_dir, Q, qids, "embedding", "vec_id", k=10,
                      n_probe=8)
    # recall@10 against the exact oracle
    rec = []
    for q in qids:
        e = set(exact[exact.qid == q].vec_id)
        a = set(approx[approx.qid == q].vec_id)
        rec.append(len(e & a) / max(len(e), 1))
    assert sum(rec) / len(rec) >= 0.6, rec
    # each query's own vector is its top hit (cosine 1.0)
    for q in qids:
        top = approx[approx.qid == q].iloc[0]
        assert abs(top.cosine - 1.0) < 1e-9


def test_winnowing_coverage_guarantee(ray_session):
    """The winnowing paper's guarantee: two docs sharing a substring of
    length >= w + k - 1 (= 11 here) share at least one fingerprint."""
    import ray.data

    from lucene_solr_ray.functions.textstats import winnow_fingerprints

    shared = "commonblockxyz"  # 14 chars >= 11
    rows = [
        {"doc_id": 0, "text": "aaaa " + shared + " bbbb"},
        {"doc_id": 1, "text": "cccc dddd " + shared},
        {"doc_id": 2, "text": "totally unrelated content here"},
    ]
    out = winnow_fingerprints(
        ray.data.from_items(rows), "text", "doc_id", k=8, w=4
    ).to_pandas()
    fps = {d: set(g.fp) for d, g in out.groupby("doc_id")}
    assert fps[0] & fps[1], "shared substring must share a fingerprint"
    assert not (fps[0] & fps[1] & fps[2])
    # selection is deterministic
    out2 = winnow_fingerprints(
        ray.data.from_items(rows), "text", "doc_id", k=8, w=4
    ).to_pandas()
    assert out.sort_values(["doc_id", "pos"]).reset_index(drop=True).equals(
        out2.sort_values(["doc_id", "pos"]).reset_index(drop=True)
    )


# -- ML streams: FeaturesSelection + TextLogit ------------------------------


def test_features_selection_and_text_logit(ray_session):
    import random

    import ray.data

    from lucene_solr_ray.stages.ml import TextLogit, features_selection

    rng = random.Random(3)
    rows = []
    for i in range(400):
        pos = i % 2 == 0
        toks = ["filler%d" % rng.randint(0, 30) for _ in range(6)]
        # informative terms: 'good' for positive, 'bad' for negative (with
        # noise), 'meh' uninformative
        if pos and rng.random() < 0.9:
            toks.append("good")
        if not pos and rng.random() < 0.9:
            toks.append("bad")
        if rng.random() < 0.5:
            toks.append("meh")
        rows.append({"doc_id": i, "text": " ".join(toks),
                     "label": "pos" if pos else "neg"})
    ds = ray.data.from_items(rows)

    feats = features_selection(ds, "text", "label", "doc_id", "pos",
                               top_n=5)
    top2 = set(feats.head(2).term)
    assert top2 == {"good", "bad"}, feats
    assert "meh" not in set(feats.term[:3])

    model = TextLogit(["good", "bad", "meh"], lr=2.0, iterations=8)
    model.fit(ds, "text", "label", "pos")
    # training loss decreases
    assert model.history[-1] < model.history[0]
    # learned signs: 'good' positive weight, 'bad' negative
    w = dict(zip(model.features, model.weights[:-1]))
    assert w["good"] > 0.5 and w["bad"] < -0.5
    # accuracy on the training distribution is far above chance
    texts = [r["text"] for r in rows]
    y = np.asarray([1 if r["label"] == "pos" else 0 for r in rows])
    acc = (model.predict(texts) == y).mean()
    assert acc >= 0.85, acc


def test_shortest_path_and_gather(ray_session):
    import ray.data

    from lucene_solr_ray.stages.graph import gather_nodes, shortest_path

    edges = ray.data.from_items([
        {"src": a, "dst": b} for a, b in
        [(1, 2), (2, 3), (3, 4), (1, 5), (5, 4), (4, 6), (9, 1)]
    ])
    # two 3-hop routes 1→4→6; BFS depth = 3; deterministic tie-break picks
    # the smallest predecessor of 4 (which is 3 via 1-2-3? no: level-2
    # nodes are {3, 4}: 4 is reached at level 2 via 5 ... check)
    p = shortest_path(edges, "src", "dst", 1, 6)
    assert p is not None and p[0] == 1 and p[-1] == 6 and len(p) == 4
    assert shortest_path(edges, "src", "dst", 6, 1, max_hops=3) is None

    g = gather_nodes(edges, "src", "dst", [1], hops=2)
    lv = dict(zip(g.node, g.level))
    assert lv[1] == 0 and lv[2] == 1 and lv[5] == 1
    assert lv[3] == 2 and lv[4] == 2
    assert 6 not in lv  # 3 hops away


def test_round2_urp_factories(ray_session):
    import ray.data

    from lucene_solr_ray.stages import urp

    rows = [
        {"a": "Hello World", "b": "", "x": 3, "y": 7,
         "tags": "red blue red green blue"},
        {"a": "bye", "b": "keep", "x": 9, "y": 2,
         "tags": "one one"},
    ]
    out = urp.chain(ray.data.from_items(rows), [
        urp.lowercase_field("a"),
        urp.remove_blank("b"),
        urp.min_value(["x", "y"], "lo"),
        urp.max_value(["x", "y"], "hi"),
        urp.count_values("tags", "n_tags"),
        urp.dedupe_values("tags"),
        urp.timestamp_field("ingested", "2026-01-02T03:04:05"),
        urp.ignore_field("y"),
    ]).to_pandas()
    assert list(out.a) == ["hello world", "bye"]
    assert out.b.isna().tolist() == [True, False]
    assert list(out.lo) == [3, 2] and list(out.hi) == [7, 9]
    assert list(out.n_tags) == [5, 2]
    assert list(out.tags) == ["red blue green", "one"]
    assert "y" not in out.columns
    assert str(out.ingested.iloc[0]).startswith("2026-01-02 03:04:05")


def test_evaluator_expressions(ray_session):
    import ray.data

    from lucene_solr_ray.stages.evaluators import EvalError, compile_expr, evaluate

    ds = ray.data.from_items([
        {"a": 3.0, "b": 4.0, "s": "Hi"},
        {"a": -1.5, "b": 2.0, "s": "yo"},
    ])
    out = evaluate(ds, {
        "hyp": "sqrt(add(mult(a, a), mult(b, b)))",
        "cls": "if(and(gt(a, 0), lt(b, 10)), 1, 0)",
        "r": "round(a)",
        "cat": "concat(lower(s), '-', b)",
        "m": "max(a, b, 2.5)",
    }).to_pandas().sort_values("a", ascending=False).reset_index(drop=True)
    assert out.hyp[0] == 5.0
    assert list(out.cls) == [1, 0]
    assert list(out.r) == [3.0, -2.0]  # half AWAY from zero (-1.5 -> -2)
    assert out.cat[0] == "hi-4.0"
    assert list(out.m) == [4.0, 2.5]

    import pytest as _pytest

    with _pytest.raises(EvalError):
        compile_expr("nope(a)")
    with _pytest.raises(EvalError):
        compile_expr("add(a")


def test_corpus_feeds_jsonl_csv(ray_session, tmp_path):
    import json

    from lucene_solr_ray.sources.textline import (
        corpus_from_csv,
        corpus_from_jsonl,
    )

    jp = tmp_path / "feed.jsonl"
    jp.write_text("\n".join(
        json.dumps({"id": i, "body": f"doc {i} text", "junk": "x"})
        for i in range(5)
    ))
    ds = corpus_from_jsonl(str(jp), "body", "id")
    out = ds.to_pandas().sort_values("doc_id")
    assert list(out.columns) == ["doc_id", "text"]
    assert out.text.iloc[0] == "doc 0 text"

    cp = tmp_path / "feed.csv"
    cp.write_text("id,body\n" + "\n".join(
        f"{i},row {i} words" for i in range(4)
    ))
    out2 = corpus_from_csv(str(cp), "body", "id").to_pandas()
    assert len(out2) == 4 and set(out2.columns) == {"doc_id", "text"}


def test_json_facet_pulls_only_limit_top_buckets(ray_session, sf_dir,
                                                 monkeypatch):
    """The top-level buckets are sorted and limited in the cluster: at
    most ``limit`` rows reach the driver, in the order of the full
    sort."""
    import ray.data

    from lucene_solr_ray.stages.json_facet import json_facet

    ds = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_brand", "p_retailprice"]
    ).materialize()
    request = {"type": "terms", "field": "p_brand", "limit": 4,
               "sort": "count desc",
               "facet": {"avg_price": "avg(p_retailprice)"}}
    pulled = []
    to_pandas = ray.data.Dataset.to_pandas

    def spy(self, *a, **kw):
        df = to_pandas(self, *a, **kw)
        pulled.append(len(df))
        return df

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", spy)
    for sort in ("count desc", "index asc", "avg_price asc"):
        pulled.clear()
        res = json_facet(ds, dict(request, sort=sort))
        assert pulled and max(pulled) <= 4
        monkeypatch.setattr(ray.data.Dataset, "to_pandas", to_pandas)
        full = ds.to_pandas().groupby("p_brand").agg(
            count=("p_brand", "size"),
            avg_price=("p_retailprice", "mean")).reset_index()
        monkeypatch.setattr(ray.data.Dataset, "to_pandas", spy)
        key, direction = sort.split()
        key = {"index": "p_brand"}.get(key, key)
        want = full.sort_values(
            [key, "p_brand"], ascending=[direction == "asc", True],
            kind="mergesort").head(4)
        assert [b["val"] for b in res["buckets"]] == want.p_brand.tolist()
        assert [b["count"] for b in res["buckets"]] == \
            want["count"].tolist()


def test_json_facet_pulls_only_kept_sub_buckets(ray_session, sf_dir,
                                                monkeypatch):
    """A subfacet's buckets are filtered to the kept parents and capped
    to its limit per parent in the cluster: at most ``limit x climit``
    rows reach the driver, and each parent's children are its top
    ``climit`` under the full sort."""
    import ray.data

    from lucene_solr_ray.stages.json_facet import json_facet

    ds = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_brand", "p_size", "p_retailprice"]).materialize()
    full = ds.to_pandas()
    pulled = []
    to_pandas = ray.data.Dataset.to_pandas

    def spy(self, *a, **kw):
        df = to_pandas(self, *a, **kw)
        pulled.append(len(df))
        return df

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", spy)
    for csort in ("count desc", "index asc", "max_price desc"):
        pulled.clear()
        res = json_facet(ds, {
            "type": "terms", "field": "p_brand", "limit": 4,
            "facet": {"by_size": {
                "type": "terms", "field": "p_size", "limit": 3,
                "sort": csort,
                "facet": {"max_price": "max(p_retailprice)"}}}})
        assert pulled and max(pulled) <= 4 * 3
        key, direction = csort.split()
        key = {"index": "p_size"}.get(key, key)
        assert len(res["buckets"]) == 4
        for b in res["buckets"]:
            g = full[full.p_brand == b["val"]].groupby("p_size").agg(
                count=("p_size", "size"),
                max_price=("p_retailprice", "max")).reset_index()
            want = g.sort_values(
                [key, "p_size"], ascending=[direction == "asc", True],
                kind="mergesort").head(3)
            got = b["by_size"]["buckets"]
            assert [s["val"] for s in got] == want.p_size.tolist()
            assert [s["count"] for s in got] == want["count"].tolist()
            assert [s["max_price"] for s in got] == \
                want.max_price.tolist()
    pulled.clear()
    res = json_facet(ds, {
        "type": "terms", "field": "p_brand", "limit": 2,
        "facet": {"by_size": {"type": "terms", "field": "p_size",
                              "limit": 0}}})
    assert [b["by_size"]["buckets"] for b in res["buckets"]] == [[], []]
    assert max(pulled) <= 2
