"""Block postings codec: round-trip fuzz + skip/impact invariants
(Base*FormatTestCase style, reference
``test-framework/.../index/BasePostingsFormatTestCase.java``), and the
batch encoder against the per-term one."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_solr_ray.index.postings_codec import (
    BLOCK_SIZE,
    block_max_scores,
    decode_block_skips,
    decode_postings,
    encode_postings,
    encode_postings_batch,
)
from lucene_solr_ray.search.similarity import BM25Similarity


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round_trip_fuzz(seed):
    rng = np.random.RandomState(seed)
    for _ in range(100):
        n = rng.randint(1, 800)
        ords = np.unique(rng.randint(0, 10000, n))
        freqs = rng.randint(1, 1000, len(ords)).astype(np.int64)
        norms = rng.randint(0, 256, len(ords)).astype(np.uint8)
        blob = encode_postings(ords, freqs, norms)
        o, f = decode_postings(blob)
        np.testing.assert_array_equal(o, ords)
        np.testing.assert_array_equal(f, freqs)


def test_all_values_equal_case():
    ords = np.arange(0, BLOCK_SIZE * 3, 1)
    freqs = np.full(len(ords), 7)
    norms = np.full(len(ords), 5, np.uint8)
    blob = encode_postings(ords, freqs, norms)
    # dense ords (delta-1 == 0) + equal freqs pack to ~0 payload bits
    assert len(blob) < len(ords)  # far below 1 byte/posting
    o, f = decode_postings(blob)
    np.testing.assert_array_equal(o, ords)
    np.testing.assert_array_equal(f, freqs)


def test_single_posting():
    blob = encode_postings(np.array([42]), np.array([3]), np.array([9], np.uint8))
    o, f = decode_postings(blob)
    assert list(o) == [42] and list(f) == [3]


def test_skip_entries():
    ords = np.unique(np.random.RandomState(3).randint(0, 100000, 1000))
    freqs = np.ones(len(ords), dtype=np.int64)
    norms = np.zeros(len(ords), dtype=np.uint8)
    blob = encode_postings(ords, freqs, norms)
    skips = decode_block_skips(blob)
    assert len(skips) == (len(ords) + BLOCK_SIZE - 1) // BLOCK_SIZE
    i = 0
    for base, last, cnt, _, _ in skips:
        assert base == ords[i]
        assert last == ords[i + cnt - 1]
        i += cnt


def test_block_max_is_exact_bound():
    rng = np.random.RandomState(7)
    ords = np.unique(rng.randint(0, 50000, 3000))
    freqs = rng.randint(1, 60, len(ords)).astype(np.int64)
    norms = rng.randint(0, 220, len(ords)).astype(np.uint8)
    blob = encode_postings(ords, freqs, norms)
    sc = BM25Similarity().scorer(1.0, 50000, 900000, len(ords))
    bm = block_max_scores(blob, sc)
    true = sc.score(freqs.astype(np.float64), norms)
    i = 0
    for b, (_base, _last, cnt, _f, _n) in enumerate(decode_block_skips(blob)):
        # the impacts give the EXACT per-block max (not merely an upper bound)
        assert float(bm[b]) == pytest.approx(float(true[i:i + cnt].max()))
        i += cnt


def test_concat_postings_equals_reencode():
    """Merged blobs (header rebasing only) must decode identically to
    concatenating the decoded lists — the zero-decode merge invariant."""
    from lucene_solr_ray.index.postings_codec import concat_postings

    rng = np.random.RandomState(5)
    for _ in range(60):
        parts, want_o, want_f = [], [], []
        base = 0
        for _seg in range(rng.randint(1, 5)):
            n = rng.randint(1, 400)
            ords = np.unique(rng.randint(0, 2000, n))
            freqs = rng.randint(1, 50, len(ords)).astype(np.int64)
            norms = rng.randint(0, 200, len(ords)).astype(np.uint8)
            parts.append((encode_postings(ords, freqs, norms), base))
            want_o.append(ords.astype(np.int64) + base)
            want_f.append(freqs)
            base += 2000 + rng.randint(0, 100)
        blob = concat_postings(parts)
        o, f = decode_postings(blob)
        np.testing.assert_array_equal(o, np.concatenate(want_o))
        np.testing.assert_array_equal(f, np.concatenate(want_f))
        # skip entries stay consistent after rebasing
        i = 0
        for b, last, cnt, _, _ in decode_block_skips(blob):
            assert o[i] == b and o[i + cnt - 1] == last
            i += cnt


@st.composite
def _term_sets(draw):
    """Posting lists of several terms over one segment: (per-term ords,
    freqs) and the segment's norm bytes.  The df values sit on and around
    the 128-entry block edges; freqs are drawn from one value (an
    ALL_VALUES_EQUAL block), small values or values up to 2^20; ordinals
    reach past 2^16."""
    ndocs = draw(st.sampled_from([300, 5000, 70_000, 2**20]))
    norms = np.random.RandomState(draw(st.integers(0, 2**31 - 1))).randint(
        0, 256, ndocs).astype(np.uint8)
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
    return terms, norms


@settings(max_examples=200, deadline=None)
@given(_term_sets())
def test_encode_postings_batch_equals_per_term(case):
    """The block-level batch encoder gives, byte for byte, what
    ``encode_postings`` gives for each term on its own."""
    terms, norms = case
    counts = np.array([len(o) for o, _ in terms])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    got = encode_postings_batch(
        np.concatenate([o for o, _ in terms]),
        np.concatenate([f for _, f in terms]),
        norms, starts, counts,
    )
    assert got.type == pa.binary()
    assert got.to_pylist() == [
        encode_postings(o, f, norms[o]) for o, f in terms]


def test_encode_postings_batch_no_terms():
    empty = np.empty(0, np.int64)
    got = encode_postings_batch(empty, empty, np.zeros(3, np.uint8),
                                empty, empty)
    assert len(got) == 0 and got.type == pa.binary()
