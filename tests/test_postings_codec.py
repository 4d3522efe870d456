"""The postings file's round trip (Base*FormatTestCase style, reference
``test-framework/.../index/BasePostingsFormatTestCase.java``): posting
lists laid out by ``segment.postings_table``, written by
``segment.postings_writer`` (Parquet ``DELTA_BINARY_PACKED`` list values
under zstd) and read back, for single lists, many terms at once and
merged inputs."""

import io

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_solr_ray.index.merge import _merge_postings_rows
from lucene_solr_ray.index.segment import (
    POSTINGS_SCHEMA,
    list_views,
    postings_table,
    postings_writer,
)


def _table(terms):
    """The postings table of per-term (ords, freqs) lists."""
    counts = [len(o) for o, _ in terms]
    cat = (lambda xs: np.concatenate(xs) if xs
           else np.empty(0, np.int64))
    return postings_table(
        pa.array([f"t{i:05d}" for i in range(len(terms))], pa.string()),
        np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]),
        cat([o for o, _ in terms]), cat([f for _, f in terms]))


def _write(table: pa.Table) -> bytes:
    buf = io.BytesIO()
    with postings_writer(buf) as writer:
        writer.write_table(table)
    return buf.getvalue()


def _lists(data: bytes):
    """Per-term (ords, freqs) read back from a written postings file."""
    t = pq.read_table(pa.BufferReader(data))
    assert t.schema.equals(POSTINGS_SCHEMA)
    edges, ords = list_views(t.column("ords"))
    freqs = list_views(t.column("freqs"))[1]
    return [(ords[a:b], freqs[a:b]) for a, b in zip(edges, edges[1:])]


def _assert_round_trip(terms):
    back = _lists(_write(_table(terms)))
    assert len(back) == len(terms)
    for (o, f), (want_o, want_f) in zip(back, terms):
        np.testing.assert_array_equal(o, want_o)
        np.testing.assert_array_equal(f, want_f)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round_trip_fuzz(seed):
    rng = np.random.RandomState(seed)
    terms = []
    for _ in range(100):
        n = rng.randint(1, 800)
        ords = np.unique(rng.randint(0, 10000, n))
        terms.append((ords, rng.randint(1, 1000, len(ords))))
    _assert_round_trip(terms)


def test_all_values_equal_case():
    ords = np.arange(0, 128 * 3, 1)
    freqs = np.full(len(ords), 7)
    data = _write(_table([(ords, freqs)]))
    # dense ords (every delta 1) and equal freqs pack to ~0 bits a value
    rg = pq.ParquetFile(pa.BufferReader(data)).metadata.row_group(0)
    sizes = {rg.column(i).path_in_schema: rg.column(i).total_compressed_size
             for i in range(rg.num_columns)}
    assert sizes["ords.list.element"] + sizes["freqs.list.element"] \
        < len(ords)  # far below 1 byte/posting
    _assert_round_trip([(ords, freqs)])


def test_single_posting():
    _assert_round_trip([(np.array([42]), np.array([3]))])


def test_postings_writer_encodings():
    """DELTA_BINARY_PACKED on every int32 list, DELTA_BYTE_ARRAY on the
    terms, the dictionary on df and ttf."""
    data = _write(postings_table(
        pa.array(["a", "b"]), np.array([0, 2, 3]), np.array([1, 5, 7]),
        np.array([1, 2, 1]), {"positions": np.arange(4),
                              "offsets": np.arange(8).reshape(-1, 2)}))
    rg = pq.ParquetFile(pa.BufferReader(data)).metadata.row_group(0)
    enc = {rg.column(i).path_in_schema: rg.column(i).encodings
           for i in range(rg.num_columns)}
    for name in ("ords", "freqs", "positions", "offsets"):
        assert "DELTA_BINARY_PACKED" in enc[f"{name}.list.element"], name
    assert "DELTA_BYTE_ARRAY" in enc["term"]
    assert "RLE_DICTIONARY" in enc["df"] and "RLE_DICTIONARY" in enc["ttf"]
    assert rg.column(0).compression == "ZSTD"


def test_concat_postings_equals_reencode():
    """Inputs merged at their doc bases (ords shifted, one term's rows
    joined in input order) equal the concatenated lists encoded anew."""
    rng = np.random.RandomState(5)
    for _ in range(60):
        tables, bases, want_o, want_f = [], [], [], []
        base = 0
        for _seg in range(rng.randint(1, 5)):
            n = rng.randint(1, 400)
            ords = np.unique(rng.randint(0, 2000, n))
            freqs = rng.randint(1, 50, len(ords))
            tables.append(_table([(ords, freqs)]))
            bases.append(base)
            want_o.append(ords + base)
            want_f.append(freqs)
            base += 2000 + rng.randint(0, 100)
        merged = _merge_postings_rows(tables, bases)
        want = _table([(np.concatenate(want_o), np.concatenate(want_f))])
        assert merged.equals(want)
        assert _write(merged) == _write(want)


@st.composite
def _term_sets(draw):
    """Posting lists of several terms over one segment: per-term (ords,
    freqs).  The df values sit on and around the 128-value block edges;
    freqs are drawn from one value (a block of equal values), small values
    or values up to 2^20; ordinals reach past 2^16."""
    ndocs = draw(st.sampled_from([300, 5000, 70_000, 2**20]))
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        df = draw(st.one_of(
            st.sampled_from([1, 2, 127, 128, 129, 255, 256, 257]),
            st.integers(1, 300)))
        rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
        ords = np.sort(rng.choice(ndocs, min(df, ndocs), replace=False))
        kind = draw(st.sampled_from(["equal", "small", "wide"]))
        if kind == "equal":
            freqs = np.full(len(ords), draw(st.integers(1, 2**20)))
        elif kind == "small":
            freqs = rng.randint(1, 4, len(ords))
        else:
            freqs = rng.randint(1, 2**20 + 1, len(ords))
        terms.append((ords, freqs.astype(np.int64)))
    return terms


@settings(max_examples=200, deadline=None)
@given(_term_sets())
def test_encode_postings_batch_equals_per_term(terms):
    """Many terms laid out and written at once read back as each term's
    own lists."""
    _assert_round_trip(terms)


def test_encode_postings_batch_no_terms():
    t = _table([])
    assert t.num_rows == 0 and t.schema.equals(POSTINGS_SCHEMA)
    assert _lists(_write(t)) == []


def _format5_index(root) -> str:
    """A hand-written one-segment index in postings format 5: ``blocks``
    and ``positions`` binary columns, no ``ords``."""
    import json
    import os

    from lucene_solr_ray.index.manifest import commit_manifest
    from lucene_solr_ray.index.segment import DOCMETA_SCHEMA

    seg_dir = os.path.join(root, "seg_000000")
    os.makedirs(seg_dir)
    pq.write_table(pa.table({
        "term": ["a"],
        "df": pa.array([1], pa.int32()),
        "ttf": pa.array([1], pa.int64()),
        "blocks": pa.array([b"SL\x01\x00\x00\x00"], pa.binary()),
        "positions": pa.array([b"\x00\x00\x00\x00"], pa.binary()),
    }), os.path.join(seg_dir, "postings.parquet"))
    pq.write_table(pa.table({
        "doc_id": pa.array([7], pa.int64()),
        "norm": pa.array([1], pa.uint8()),
        "field_len": pa.array([1], pa.int32()),
        "content_sha256": pa.array([b"\x00" * 32], pa.binary()),
    }, schema=DOCMETA_SCHEMA), os.path.join(seg_dir, "docmeta.parquet"))
    meta = {"segment_id": 0, "stats": {
        "doc_count": 1, "sum_total_term_freq": 1, "sum_doc_freq": 1,
        "term_count": 1}}
    with open(os.path.join(seg_dir, "segment.json"), "w") as f:
        json.dump(meta, f)
    commit_manifest(root, [meta])
    return seg_dir


def test_format5_segment_is_refused_with_one_message(ray_session, tmp_path):
    """A reader and CheckIndex both name the outdated format and say to
    rebuild; CheckIndex reports it as the segment's one error."""
    from lucene_solr_ray.index.check import check_index
    from lucene_solr_ray.search.reader import SegmentReader

    seg_dir = _format5_index(str(tmp_path))
    with pytest.raises(ValueError, match="format 5 or older.*rebuild"):
        SegmentReader(seg_dir)
    rep = check_index(str(tmp_path))
    assert not rep["ok"]
    assert len(rep["errors"]) == 1
    assert "format 5 or older" in rep["errors"][0]
    assert "rebuild" in rep["errors"][0]


def test_check_segment_flags_corrupt_postings(tmp_path):
    """``check_segment`` reads the list columns whole and names the term
    behind each broken content rule."""
    import os

    from lucene_solr_ray.index.check import check_segment
    from lucene_solr_ray.index.manifest import write_segment_dir
    from lucene_solr_ray.index.segment import build_segment_tables

    texts = ["alpha beta alpha", "beta gamma", "gamma alpha beta", "delta"]
    seg = build_segment_tables(list(range(len(texts))), texts)
    seg_dir = write_segment_dir(str(tmp_path), 0, seg.postings, seg.docmeta,
                                {"segment_id": 0, "stats": seg.stats})
    assert check_segment(seg_dir)["ok"]
    path = os.path.join(seg_dir, "postings.parquet")
    rows = pq.read_table(path).to_pylist()
    assert [r["term"] for r in rows] == ["alpha", "beta", "delta", "gamma"]

    def corrupt(edit, what):
        bad = [dict(r) for r in rows]
        edit(bad)
        with postings_writer(path) as writer:
            writer.write_table(pa.Table.from_pylist(bad,
                                                    schema=POSTINGS_SCHEMA))
        rep = check_segment(seg_dir)
        assert not rep["ok"]
        assert any(what in e for e in rep["errors"]), rep["errors"]

    def swap_terms(b):
        b[0], b[1] = b[1], b[0]

    def unsorted_ords(b):
        b[1]["ords"] = b[1]["ords"][::-1]

    def out_of_range(b):
        b[2]["ords"] = [len(texts)]

    def short_positions(b):
        b[0]["positions"] = b[0]["positions"][:-1]

    def wrong_freqs(b):
        b[3]["freqs"] = [f + 1 for f in b[3]["freqs"]]

    def wrong_df(b):
        b[1]["df"] += 1

    corrupt(swap_terms, "'alpha': terms not strictly sorted")
    corrupt(unsorted_ords, "'beta': ords not strictly ascending")
    corrupt(out_of_range, "'delta': ord out of range")
    corrupt(short_positions, "'alpha': positions length != 1·ttf")
    corrupt(wrong_freqs, "'gamma': ttf != Σfreqs")
    corrupt(wrong_df, "'beta': df != len(ords)")
