"""Segment construction and reading — the per-partition DWPT analogue.

A *segment* is the immutable unit of the index, mirroring the reference's
per-thread in-RAM segment flushed to codec files
(``lucene/core/src/java/org/apache/lucene/index/DocumentsWriterPerThread.java``,
``index/FreqProxTermsWriter.java:83-126``).  One build task consumes a
contiguous slice of corpus rows and emits:

- ``postings.parquet`` — one row per term, byte-sorted by term (as the
  reference sorts terms before flush, ``FreqProxTermsWriter.java:88-103``):
  ``term, df:int32, ttf:int64`` and the term's postings as list columns:
  ``ords`` (absolute doc ordinals, ascending) and ``freqs``, then
  ``positions``, ``offsets`` ((start, end) pairs, flattened) and
  ``payloads``, one value (pair) per occurrence in (doc, occurrence) order,
  null when the build did not ask for them.  Parquet encodes the int32
  list values ``DELTA_BINARY_PACKED`` — the delta + FOR 128-value blocks
  of ``Lucene50PostingsFormat`` / ``ForUtil``, run in C++ — and
  :func:`postings_writer` is the one place that sets the encodings.
- ``docmeta.parquet`` — one row per doc ordinal: ``doc_id:int64,
  norm:uint8, field_len:int32, content_sha256:binary`` (the norm byte per
  ``BM25Similarity.computeNorm``, ``BM25Similarity.java:115-126``).
- a manifest entry with per-segment stats: ``doc_count, sum_total_term_freq,
  sum_doc_freq, term_count`` — the inputs to ``CollectionStatistics``
  (``search/CollectionStatistics.java``; summed over segments at query time
  exactly as ``IndexSearcher.java:780-792`` sums leaves).

Segment-local ordinals keep posting arrays dense int32 regardless of global
doc_id assignment; ``docmeta`` row *i* is ordinal *i* (ords → doc_id is one
``take``).  This mirrors Lucene's segment-local docIDs + ``ctx.docBase``.

Texts arrive as an Arrow string column (a list is converted once, unpaired
surrogates becoming U+FFFD) and are analyzed as a column by
``StandardAnalyzer.analyze_column``: ASCII docs without joiners go through
Arrow string kernels, the rest through the per-doc
``analyze_with_positions`` (see ``analysis/analyzer.py``).  The offset and
payload attribute paths analyze doc by doc.  Inversion reads the flat
token column that either path returns.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Dict, List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lucene_solr_ray.analysis.analyzer import StandardAnalyzer, text_array
from lucene_solr_ray.analysis.smallfloat import int_to_byte4_np

__all__ = ["build_segment_tables", "SegmentData", "POSTINGS_SCHEMA",
           "DOCMETA_SCHEMA", "FORMAT_VERSION", "postings_table",
           "postings_writer", "list_views", "outdated_format"]

#: bump when the on-disk segment layout changes (cache keys include it)
FORMAT_VERSION = 6


def _list(value_type: pa.DataType) -> pa.DataType:
    # "element" is the child name Parquet's nested list layout reads back
    return pa.list_(pa.field("element", value_type))


POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int32()),
        ("ttf", pa.int64()),
        # absolute doc ordinals, ascending within each term, and their
        # freqs (the .doc file: doc ids + freqs)
        ("ords", _list(pa.int32())),
        ("freqs", _list(pa.int32())),
        # one position per occurrence, in (doc, occurrence) order; per-doc
        # boundaries are implied by the freqs (freq == #positions)
        ("positions", _list(pa.int32())),
        # (start, end) char-offset pairs, flattened, in the same order —
        # DOCS_AND_FREQS_AND_POSITIONS_AND_OFFSETS (IndexOptions.java:25-48)
        ("offsets", _list(pa.int32())),
        # per-occurrence float32 payloads in the same order — the
        # PayloadAttribute value (``analysis/tokenattributes/
        # PayloadAttribute.java`` with the FloatEncoder layout
        # PayloadScoreQuery decodes)
        ("payloads", _list(pa.float32())),
    ]
)

#: the per-occurrence list columns and how many values one occurrence has
OCCURRENCE_COLUMNS = (("positions", 1), ("offsets", 2), ("payloads", 1))

DOCMETA_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("norm", pa.uint8()),
        ("field_len", pa.int32()),
        ("content_sha256", pa.binary()),
    ]
)


class SegmentData:
    """In-memory segment: the return value of :func:`build_segment_tables`."""

    __slots__ = ("postings", "docmeta", "stats")

    def __init__(self, postings: pa.Table, docmeta: pa.Table, stats: dict):
        self.postings = postings
        self.docmeta = docmeta
        self.stats = stats


def postings_writer(path) -> "pq.ParquetWriter":
    """The writer of every postings file (segments and merge parts): the
    one place that decides the encodings.  zstd on the file;
    ``DELTA_BYTE_ARRAY`` on the sorted terms (shared prefixes, the
    block-tree terms dictionary's role; a dictionary on unique terms only
    adds bytes); the dictionary on ``df`` and ``ttf``, whose small values
    repeat; ``DELTA_BINARY_PACKED`` on the int32 list values.  pyarrow
    names a list child by its nested path: a bare ``"ords"`` key is
    ignored and leaves the column PLAIN."""
    import pyarrow.parquet as pq

    encodings = {"term": "DELTA_BYTE_ARRAY"}
    for f in POSTINGS_SCHEMA:
        if pa.types.is_list(f.type) and f.type.value_type == pa.int32():
            encodings[f"{f.name}.list.element"] = "DELTA_BINARY_PACKED"
    return pq.ParquetWriter(path, POSTINGS_SCHEMA, compression="zstd",
                            use_dictionary=["df", "ttf"],
                            column_encoding=encodings)


def outdated_format(seg_dir: str, names: List[str]) -> Optional[str]:
    """Why a segment whose postings columns are ``names`` cannot be read,
    or None when it is current."""
    if "ords" in names:
        return None
    return (f"segment {seg_dir} uses an outdated on-disk format (postings "
            f"format 5 or older: no 'ords' column); rebuild the index with "
            f"the current engine (format {FORMAT_VERSION})")


def list_views(arr: "pa.Array | pa.ChunkedArray"):
    """(offsets int64, values) zero-copy numpy views of a list column:
    row r's values are ``values[offsets[r]:offsets[r + 1]]`` (a null row
    is empty)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    offsets = arr.offsets.to_numpy().astype(np.int64)
    return offsets - offsets[0], arr.flatten().to_numpy()


def postings_table(terms: pa.Array, edges: np.ndarray, ords: np.ndarray,
                   freqs: np.ndarray,
                   occurrences: "Optional[Dict[str, np.ndarray]]" = None,
                   ) -> pa.Table:
    """The postings table of terms whose postings lie flat: term *i* has
    the (ord, freq) entries ``[edges[i], edges[i + 1])``, and each entry
    its ``freq`` occurrences in order.  ``occurrences`` maps a column of
    :data:`OCCURRENCE_COLUMNS` to one row (an offset pair: two values)
    per occurrence; a column it leaves out is null."""
    edges = np.asarray(edges, dtype=np.int64)
    occ_edges = np.concatenate(
        [[0], np.cumsum(freqs, dtype=np.int64)])[edges]
    n = len(edges) - 1

    def lists(name: str, values: np.ndarray, offsets: np.ndarray):
        typ = POSTINGS_SCHEMA.field(name).type
        return pa.ListArray.from_arrays(
            pa.array(offsets.astype(np.int32)),
            pa.array(np.ravel(values).astype(
                typ.value_type.to_pandas_dtype(), copy=False)), type=typ)

    cols = {
        "term": terms,
        "df": pa.array(np.diff(edges).astype(np.int32)),
        "ttf": pa.array(np.diff(occ_edges)),
        "ords": lists("ords", ords, edges),
        "freqs": lists("freqs", freqs, edges),
    }
    for name, width in OCCURRENCE_COLUMNS:
        values = (occurrences or {}).get(name)
        cols[name] = (
            pa.nulls(n, POSTINGS_SCHEMA.field(name).type) if values is None
            else lists(name, values, width * occ_edges))
    return pa.table(cols, schema=POSTINGS_SCHEMA)


def _sha256_each(texts: pa.Array) -> List[bytes]:
    """SHA-256 of each value's UTF-8 bytes, read off the Arrow buffers."""
    offsets = np.frombuffer(texts.buffers()[1], np.int32)[
        texts.offset:texts.offset + len(texts) + 1].tolist()
    data = memoryview(texts.buffers()[2] or b"")
    sha = hashlib.sha256
    return [sha(data[a:b]).digest() for a, b in zip(offsets, offsets[1:])]


def build_segment_tables(
    doc_ids: Sequence[int],
    texts: "Sequence[Optional[str]] | pa.Array | pa.ChunkedArray",
    analyzer: Optional[StandardAnalyzer] = None,
    with_positions: bool = True,
    with_offsets: bool = False,
    with_payloads: bool = False,
) -> SegmentData:
    """Invert a slice of documents into sorted postings + docmeta tables.

    ``texts`` is an Arrow string (chunked) array or a sequence of
    ``str``/``None``; ``None`` indexes as ``""``.  Pure function of its
    inputs — same rows in, same bytes out, under any parallelism (the
    determinism the resume/checkpoint protocol relies on).
    """
    analyzer = analyzer or StandardAnalyzer()
    if with_offsets and not with_positions:
        raise ValueError(
            "with_offsets requires with_positions (the offsets column is "
            "indexed by the freq boundaries the positions path defines)"
        )
    if with_payloads and (not with_positions or with_offsets):
        raise ValueError(
            "with_payloads requires with_positions and is exclusive with "
            "with_offsets (one attribute path per chain)"
        )
    if with_payloads and not hasattr(analyzer, "analyze_with_payloads"):
        raise ValueError(
            "with_payloads needs a payload-producing analyzer "
            "(e.g. DelimitedPayloadAnalyzer)"
        )
    texts = text_array(texts)
    if texts.null_count:
        texts = texts.fill_null("")
    n = len(texts)
    assert len(doc_ids) == n
    shas = _sha256_each(texts)

    if with_offsets or with_payloads:
        # the offset and payload attribute paths analyze doc by doc, into
        # the columns (terms, positions, payloads | starts, ends,
        # field_length); empty ones when there are no docs
        analyze = (analyzer.analyze_with_payloads if with_payloads
                   else analyzer.analyze_with_offsets)
        cols = list(zip(*map(analyze, texts.to_pylist()))) or [()] * 5
        n_toks = np.fromiter(map(len, cols[0]), np.int64, n)
        total = int(n_toks.sum())

        def flat(lists, dtype) -> np.ndarray:
            return np.fromiter(chain.from_iterable(lists), dtype, total)

        tokens = pa.array(flat(cols[0], object), pa.string())
        tok_docs = np.repeat(np.arange(n, dtype=np.int64), n_toks)
        tok_pos = flat(cols[1], np.int64)
        attrs = [flat(c, np.float64 if with_payloads else np.int64)
                 for c in cols[2:-1]]
        doc_lens = np.array(cols[-1], dtype=np.int64)
    else:
        tokens, tok_docs, tok_pos, doc_lens = analyzer.analyze_column(texts)

    # columnar inversion (the TermsHash + sortPostings analogue, reference
    # index/TermsHashPerField.java / FreqProxTermsWriter.java): dictionary-
    # code the flat token column, rank the dictionary by byte order, stable-
    # sort the tokens by term rank (they arrive in (doc, position) order, so
    # this is the (term, doc, occurrence) order), and read the (term, doc)
    # groups and the term groups off the boundaries of the sorted columns
    enc = pc.dictionary_encode(tokens)
    by_term = pc.sort_indices(enc.dictionary).to_numpy()
    rank = np.empty(len(by_term), dtype=np.int64)
    rank[by_term] = np.arange(len(by_term), dtype=np.int64)
    # the smallest unsigned type that holds the ranks (numpy radix-sorts
    # 8- and 16-bit keys)
    code = rank.astype(np.min_scalar_type(len(rank)))[enc.indices.to_numpy()]
    order = np.argsort(code, kind="stable")
    n_occurrences = len(order)
    s_code = code[order]
    s_ord = tok_docs[order]
    new_group = np.ones(n_occurrences, dtype=bool)
    new_group[1:] = (s_code[1:] != s_code[:-1]) | (s_ord[1:] != s_ord[:-1])
    g_start = np.flatnonzero(new_group)
    g_freq = np.diff(np.append(g_start, n_occurrences))
    g_ord = s_ord[g_start]
    g_code = s_code[g_start]
    new_term = np.ones(len(g_start), dtype=bool)
    new_term[1:] = g_code[1:] != g_code[:-1]
    t_starts = np.flatnonzero(new_term)
    # every dictionary entry occurs, so the sorted dictionary is the terms
    terms_sorted = enc.dictionary.take(pa.array(by_term))
    norm_bytes = int_to_byte4_np(doc_lens)

    occurrences = {}
    if with_positions:
        occurrences["positions"] = tok_pos[order]
    if with_offsets:
        occurrences["offsets"] = np.stack(
            [attrs[0][order], attrs[1][order]], axis=1)
    if with_payloads:
        occurrences["payloads"] = attrs[0][order]
    postings = postings_table(
        terms_sorted, np.append(t_starts, len(g_start)), g_ord, g_freq,
        occurrences)
    df = postings.column("df").to_numpy()
    ttf = postings.column("ttf").to_numpy()

    docmeta = pa.table(
        {
            "doc_id": pa.array(np.asarray(doc_ids, dtype=np.int64)),
            "norm": pa.array(norm_bytes),
            "field_len": pa.array(doc_lens.astype(np.int32)),
            "content_sha256": pa.array(shas, type=pa.binary()),
        },
        schema=DOCMETA_SCHEMA,
    )

    stats = {
        "doc_count": int(n),
        "sum_total_term_freq": int(ttf.sum()) if len(ttf) else 0,
        "sum_doc_freq": int(df.sum()) if len(df) else 0,
        "term_count": int(len(terms_sorted)),
    }
    return SegmentData(postings, docmeta, stats)


#: separator between field name and term in the term dictionary for
#: non-default fields; the default field's terms stay bare (so single-field
#: indexes are byte-identical with or without the multi-field API)
FIELD_SEP = "\x1f"


def field_term(field: Optional[str], term: str) -> str:
    """Term-dictionary key for (field, term); default field = bare term."""
    return term if not field else f"{field}{FIELD_SEP}{term}"


def build_segment_tables_multi(
    doc_ids: Sequence[int],
    field_texts: "Dict[str, Sequence[Optional[str]]]",
    default_field: str,
    analyzer: Optional[StandardAnalyzer] = None,
    with_positions: bool = True,
    with_offsets: bool = False,
    field_analyzers: "Optional[Dict[str, StandardAnalyzer]]" = None,
) -> SegmentData:
    """Multi-field inversion: run the single-field kernel per field, prefix
    non-default fields' terms with ``field\\x1f`` (terms stay byte-sorted:
    the prefix groups each field's dictionary contiguously), and carry one
    norm/len column pair per extra field on docmeta
    (``norm__<f>``, ``field_len__<f>``).

    The reference's per-field structure: ``FieldInfos`` + per-field postings
    and norms (``index/FieldInfos.java``, ``Lucene70NormsConsumer``); our
    docmeta keeps the default field's norm under the legacy column names so
    every single-field consumer is unaffected.

    ``content_sha256`` covers the DEFAULT field's value (the per-row
    invariant column of the corpus contract).
    """
    assert default_field in field_texts
    field_analyzers = field_analyzers or {}
    segs = {
        f: build_segment_tables(
            doc_ids, texts, field_analyzers.get(f, analyzer),
            with_positions, with_offsets,
        )
        for f, texts in field_texts.items()
    }
    base = segs[default_field]

    # combined postings: default field bare + prefixed others, then re-sort
    tables = []
    for f, seg in segs.items():
        t = seg.postings
        if f != default_field:
            t = t.set_column(0, "term", pc.binary_join_element_wise(
                field_term(f, ""), t.column("term"), ""))
        tables.append(t)
    postings = pa.concat_tables(tables)
    order = pc.sort_indices(postings.column("term"))
    postings = postings.take(order)

    docmeta = base.docmeta
    stats = dict(base.stats)
    stats["fields"] = {}
    for f, seg in segs.items():
        flens = seg.docmeta.column("field_len").to_numpy()
        stats["fields"][f] = {
            # docCount = docs with ≥1 term for the field
            # (CollectionStatistics.docCount / Terms.getDocCount)
            "doc_count": int((flens > 0).sum()),
            "sum_total_term_freq": seg.stats["sum_total_term_freq"],
        }
        if f != default_field:
            docmeta = docmeta.append_column(
                f"norm__{f}", seg.docmeta.column("norm")
            ).append_column(
                f"field_len__{f}", seg.docmeta.column("field_len")
            )
    stats["term_count"] = postings.num_rows
    stats["sum_doc_freq"] = int(
        np.asarray(postings.column("df").to_numpy()).sum()
    ) if postings.num_rows else 0
    return SegmentData(postings, docmeta, stats)
