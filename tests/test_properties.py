"""Hypothesis property tests — the reference's randomized-testing style
(``RandomPostingsTester``, ``BaseSimilarityTestCase`` fuzzing) driven by a
real property-based engine.

All properties run on pure kernels (no Ray): postings-file round trips
and merges, SmallFloat
monotonicity, tokenizer window laws, BM25 bounds, checkTopScores, and
multi-term expansion (Arrow kernels against the Python reference).
"""

import io
from itertools import product

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lucene_solr_ray.analysis.smallfloat import byte4_to_int, int_to_byte4
from lucene_solr_ray.analysis.tokenizer import tokenize
from lucene_solr_ray.index.merge import _merge_postings_rows
from lucene_solr_ray.index.segment import (
    list_views,
    postings_table,
    postings_writer,
)
from lucene_solr_ray.search.query import FuzzyQuery, RegexpQuery
from lucene_solr_ray.search.similarity import BM25Similarity


def _one_term(ords, freqs) -> pa.Table:
    return postings_table(pa.array(["t"]), np.array([0, len(ords)]),
                          ords, freqs)


def _read_back(table: pa.Table):
    """(ords, freqs) of the first term, through a written postings file."""
    buf = io.BytesIO()
    with postings_writer(buf) as writer:
        writer.write_table(table)
    t = pq.read_table(pa.BufferReader(buf.getvalue()))
    edges, ords = list_views(t.column("ords"))
    return ords[:edges[1]], list_views(t.column("freqs"))[1][:edges[1]]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 1 << 20), min_size=1, max_size=500, unique=True),
    st.data(),
)
def test_codec_round_trip(ords, data):
    ords = np.sort(np.asarray(ords, dtype=np.int64))
    freqs = np.asarray(
        data.draw(
            st.lists(st.integers(1, 1 << 20), min_size=len(ords),
                     max_size=len(ords))
        ),
        dtype=np.int64,
    )
    o, f = _read_back(_one_term(ords, freqs))
    np.testing.assert_array_equal(o, ords)
    np.testing.assert_array_equal(f, freqs)


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.lists(st.integers(0, 5000), min_size=1, max_size=200, unique=True),
    min_size=1, max_size=4,
))
def test_concat_equals_decode_concat(segments):
    tables, bases, want = [], [], []
    base = 0
    for seg in segments:
        ords = np.sort(np.asarray(seg, dtype=np.int64))
        tables.append(_one_term(ords, np.ones(len(ords), dtype=np.int64)))
        bases.append(base)
        want.append(ords + base)
        base += 5001
    o, _ = _read_back(_merge_postings_rows(tables, bases))
    np.testing.assert_array_equal(o, np.concatenate(want))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, (1 << 31) - 1), st.integers(0, (1 << 31) - 1))
def test_smallfloat_order_preserving(a, b):
    ea, eb = int_to_byte4(a), int_to_byte4(b)
    if a <= b:
        assert ea <= eb
    da = byte4_to_int(ea)
    assert da <= a and int_to_byte4(da) == ea


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab_9. '-x", max_size=300), st.integers(4, 64))
def test_tokenizer_window_law(text, max_len):
    """No emitted token exceeds the window; tokens cover disjoint spans;
    every token is non-empty and contains at least one alnum."""
    toks = tokenize(text, max_token_length=max_len)
    for t in toks:
        assert 0 < len(t) <= max_len
        assert any(c.isalnum() or not c.isascii() for c in t)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 1000), st.integers(1, 1000), st.floats(1.0, 1000.0),
    st.integers(0, 255),
)
def test_bm25_bounds(df, extra, freq, norm):
    doc_count = df + extra
    sim = BM25Similarity()
    sc = sim.scorer(1.0, doc_count, doc_count * 10, df)
    s = sc.score(np.array([freq]), np.array([norm], dtype=np.uint8))[0]
    assert 0.0 <= s <= sc.max_score()
    # monotone in freq
    s2 = sc.score(np.array([freq + 1.0]), np.array([norm], dtype=np.uint8))[0]
    assert s2 >= s


# -- multi-term expansion: Arrow kernels against the Python reference ------

_WORD = st.text("abé日.-", min_size=1, max_size=5)
_FIELD = st.sampled_from([None, "lang", "la"])


@st.composite
def _vocabulary(draw):
    """A term dictionary as stored: sorted unique bare terms plus
    ``field\\x1f``-prefixed keyword terms."""
    from lucene_solr_ray.index.segment import field_term

    bare = draw(st.lists(_WORD, max_size=150))
    keyed = draw(st.lists(
        st.tuples(st.sampled_from(["lang", "tag"]), _WORD), max_size=60))
    return sorted(set(bare) | {field_term(f, w) for f, w in keyed})


@st.composite
def _pattern(draw):
    from lucene_solr_ray.search.query import (
        FuzzyQuery,
        PrefixQuery,
        RegexpQuery,
        TermRangeQuery,
        WildcardQuery,
    )

    fld = draw(_FIELD)
    kind = draw(st.sampled_from(
        ["prefix", "wildcard", "regexp", "range", "fuzzy"]))
    if kind == "prefix":
        return PrefixQuery(draw(st.text("abé日", max_size=3)), field=fld)
    if kind == "wildcard":
        return WildcardQuery(
            draw(st.text("abé日.-*?", min_size=1, max_size=5)), field=fld)
    if kind == "regexp":
        atom = st.sampled_from(["a", "b", "é", "日", ".", "[aé]", "(a|b)"])
        piece = st.tuples(atom, st.sampled_from(["", "*", "+", "?"]))
        alts = st.lists(st.lists(piece, min_size=1, max_size=4),
                        min_size=1, max_size=2)
        return RegexpQuery("|".join(
            "".join(a + q for a, q in alt) for alt in draw(alts)),
            field=fld)
    if kind == "range":
        lo, hi = draw(st.one_of(st.none(), _WORD)), draw(
            st.one_of(st.none(), _WORD))
        return TermRangeQuery(lo, hi, draw(st.booleans()),
                              draw(st.booleans()), field=fld)
    return FuzzyQuery(draw(_WORD), max_edits=draw(st.integers(0, 2)),
                      prefix_length=draw(st.integers(0, 2)), field=fld)


#: every word of up to three letters over four: more than 64 fuzzy
#: candidates, which sends ``match_terms_arrow`` down its bulk
#: edit-distance path
_ALL3 = sorted("".join(w) for n in (1, 2, 3)
               for w in product("abé日", repeat=n))


@settings(max_examples=400, deadline=None)
@given(_vocabulary(), _pattern())
@example(_ALL3, FuzzyQuery("aé", max_edits=2))
@example(_ALL3, FuzzyQuery("日b", max_edits=1, prefix_length=1))
# a top-level alternation stays inside the anchor
@example(["."], RegexpQuery("a*|a"))
# a prefix longer than the term: the whole term is the prefix
@example(["日a"], FuzzyQuery("日", max_edits=1, prefix_length=2))
def test_match_terms_arrow_equals_python(vocab, pattern):
    import pyarrow as pa

    from lucene_solr_ray.search.searcher import match_terms, match_terms_arrow

    assert match_terms_arrow(pattern, pa.array(vocab, pa.string())) == \
        match_terms(pattern, vocab)
