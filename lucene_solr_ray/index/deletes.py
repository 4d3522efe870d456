"""Deletes and updates: one tombstone pass and one flush for every write.

The reference's delete path (``lucene/core/src/java/org/apache/lucene/
index/IndexWriter.java`` ``deleteDocuments(Term/Query)`` /
``updateDocument``; ``codecs/lucene50/Lucene50LiveDocsFormat.java:30-60``):
segments stay immutable, deletions materialize as a generation-stamped
live-docs sidecar next to each segment (ours: ``deletes-<gen>.parquet``
with one sorted ``ord:int32`` column of DELETED segment-local ordinals),
and deleted docs physically disappear only when the segment merges
(``SegmentMerger`` skips non-live docs via ``MergeState.DocMap``).

Semantics preserved exactly:

- deleted docs still count in docFreq / totalTermFreq / avgdl until the
  merge drops them (Lucene's stats are maxDoc-based until reclaim);
- search results exclude tombstoned docs (``LeafReader.getLiveDocs``);
- ``update_documents`` = delete-by-id + add a fresh segment, the
  ``updateDocument`` two-step.

**One tombstone pass.**  Hard and soft deletes differ only in the
sidecar kind (``sidecars.DELETES`` / ``sidecars.SOFT``).  Both run
:func:`tombstone_pass`, the :func:`_collect_tombstones` collector over
every segment: it evaluates the query or doc-id set against the segment
(:func:`matching_ords`), unions it with the segment's current
tombstones of that kind, and writes the next-generation sidecar
atomically (:mod:`lucene_solr_ray.index.sidecars`).  The driver then
commits one manifest generation.  A query runs as one ``Index.scan``:
at 100 TB the work per task is one query evaluation over one segment,
no shuffle, one (segment, generation, count) row per segment back.  A
doc-id set reads only each segment's ``doc_id`` column, so it runs on
the driver over ``Index.readers()``, one segment at a time, as Lucene's
``IndexWriter`` applies id deletes in-process.

**One flush.**  ``add_documents``, ``update_documents`` and
``soft_update_documents`` write their segment through :func:`flush`,
as Lucene's three ``IndexWriter`` calls flush through one
``DocumentsWriter.updateDocuments`` under one ``IndexWriterConfig``: the
index's recorded analyzer, its position / offset / payload posting
options and its stored columns (:func:`writer_config`) apply to every
flushed segment, an update's tombstone pass runs uncommitted, and ONE
manifest commit publishes tombstones and segment together.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Dict, NamedTuple, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_solr_ray.index import sidecars
from lucene_solr_ray.index.manifest import (
    commit_manifest,
    next_segment_id,
    segment_dir_name,
    write_segment_dir,
)
from lucene_solr_ray.index.segment import DOCMETA_SCHEMA

__all__ = [
    "delete_by_query",
    "delete_by_term",
    "delete_doc_ids",
    "add_documents",
    "update_documents",
]


def matching_ords(reader, query, stats, ids: Optional[np.ndarray]):
    """Live ordinals of ``reader`` matching ``query``, or whose doc id is
    in the sorted array ``ids`` when it is given."""
    if ids is not None:
        return reader.live_ords(ids)[0]
    from lucene_solr_ray.search.scorer import score_segment

    # score_segment already excludes current tombstones
    return score_segment(reader, query, stats)[0].astype(np.int64)


def _collect_tombstones(pairs, kind, query, stats, ids) -> pa.Table:
    """Write collector: add the matching live docs to each segment's next
    ``kind`` generation (hard-deleted docs never enter the soft set).
    The hard tombstones come from the reader, which read them at open."""
    rows = []
    for reader, o in pairs:
        cur = (reader.deleted_ords if kind == sidecars.DELETES else
               sidecars.read_ords(reader.seg_dir, reader.sidecar_gens, kind))
        merged = np.union1d(cur, matching_ords(reader, query, stats, ids))
        rows.append(sidecars.advance(reader, o, kind, merged,
                                     len(merged) > len(cur)))
    return pa.Table.from_pylist(rows)


def tombstone_pass(idx, kind: str, query=None, stats=None,
                   ids: Optional[np.ndarray] = None, commit: bool = True):
    """Run the ``kind`` tombstone pass over the open ``Index`` ``idx``;
    commit the next manifest (or, with ``commit=False``, return the
    updated segment entries so the caller can fold more changes into ONE
    manifest generation)."""
    collect = partial(_collect_tombstones, kind=kind, query=query,
                      stats=stats, ids=ids)
    rows = (idx.scan(collect).take_all() if ids is None
            else collect(idx.readers()).to_pylist())
    return sidecars.write_pass(idx, rows, commit=commit)


def tombstone_by_query(index_dir: str, query_str: str, analyzer,
                       kind: str) -> Dict:
    """Tombstone every doc matching a query string; returns the new
    manifest."""
    from lucene_solr_ray.search.searcher import Index

    idx = Index(index_dir)
    (q,), stats = idx.prepare([idx.make_parser(analyzer).parse(query_str)])
    return tombstone_pass(idx, kind, query=q, stats=stats)


def _sorted_ids(doc_ids: Sequence[int]) -> np.ndarray:
    return np.asarray(sorted(set(int(d) for d in doc_ids)), dtype=np.int64)


def tombstone_doc_ids(index_dir: str, doc_ids: Sequence[int],
                      kind: str) -> Dict:
    """Tombstone by GLOBAL doc id; returns the new manifest."""
    from lucene_solr_ray.search.searcher import Index

    return tombstone_pass(Index(index_dir), kind, ids=_sorted_ids(doc_ids))


def delete_by_query(index_dir: str, query_str: str, analyzer=None) -> Dict:
    """Delete every doc matching a query string; returns the new manifest
    (``IndexWriter.deleteDocuments(Query)``)."""
    return tombstone_by_query(index_dir, query_str, analyzer,
                              sidecars.DELETES)


def delete_by_term(index_dir: str, term: str,
                   field: Optional[str] = None) -> Dict:
    """``IndexWriter.deleteDocuments(Term)`` — the raw (unanalyzed) term."""
    from lucene_solr_ray.search.query import TermQuery
    from lucene_solr_ray.search.searcher import Index

    idx = Index(index_dir)
    q = TermQuery(term, field=field)
    stats, _ = idx.collect_stats(sorted(set(q.terms())))
    return tombstone_pass(idx, sidecars.DELETES, query=q, stats=stats)


def delete_doc_ids(index_dir: str, doc_ids: Sequence[int]) -> Dict:
    """Delete by GLOBAL doc id (the update path's delete half)."""
    return tombstone_doc_ids(index_dir, doc_ids, sidecars.DELETES)


# -- the flush ---------------------------------------------------------------


class WriterConfig(NamedTuple):
    """What a flushed segment takes from the index's first segment."""

    with_positions: bool
    with_offsets: bool
    with_payloads: bool
    #: the stored (docstore) columns and their Arrow types, in order
    stored: pa.Schema


def _postings_col_stored(f: pq.ParquetFile, col: str) -> Optional[bool]:
    """Whether the named postings list column is stored, decided from
    parquet row-group statistics alone (no data read): True if any list
    is non-null, False if every one is null, None if there are no rows."""
    try:
        ci = f.schema_arrow.names.index(col)
    except ValueError:
        return False
    md = f.metadata
    seen = False
    for rg in range(md.num_row_groups):
        c = md.row_group(rg).column(ci)
        if c.num_values == 0:
            continue
        seen = True
        st = c.statistics
        if st is None or st.null_count is None:
            return True  # no stats recorded: assume present
        if st.null_count < c.num_values:
            return True
    return False if seen else None


def writer_config(index_dir: str, manifest: Dict) -> WriterConfig:
    """The posting options and stored columns of the index's first
    segment, read from its footers (no data read).  A segment without
    postings rows shows no option: it keeps the build defaults."""
    if not manifest["segments"]:
        return WriterConfig(True, False, False, pa.schema([]))
    seg = os.path.join(index_dir, segment_dir_name(
        manifest["segments"][0]["segment_id"]))
    postings = pq.ParquetFile(os.path.join(seg, "postings.parquet"))
    positions, offsets, payloads = (
        _postings_col_stored(postings, c)
        for c in ("positions", "offsets", "payloads"))
    docmeta = pq.read_schema(os.path.join(seg, "docmeta.parquet"))
    return WriterConfig(
        positions is not False, bool(offsets), bool(payloads),
        pa.schema([f for f in docmeta
                   if f.name not in DOCMETA_SCHEMA.names
                   and not f.name.startswith(("norm__", "field_len__"))]),
    )


def flush(index_dir: str, doc_ids: Sequence[int],
          texts: Sequence[Optional[str]], analyzer, *, fn_name: str,
          lineage: Dict, stored: Optional[Dict[str, Sequence]] = None,
          tombstone: Optional[str] = None) -> Dict:
    """Write the docs as one fresh segment under the index's recorded
    config and commit it in ONE manifest generation; returns it.

    The analyzer is the explicit one, else the recorded one; positions,
    offsets, payloads and stored columns follow :func:`writer_config` (a
    stored column not in ``stored`` is written as nulls of its stored
    type, a ``stored`` key the index does not store raises).  With
    ``tombstone`` (``sidecars.DELETES`` or ``sidecars.SOFT``) the old
    copies of ``doc_ids`` are tombstoned uncommitted first, so readers,
    which resolve sidecar generations from the committed manifest, see
    the tombstones and the segment together or neither; a crash before
    the commit leaves the previous commit point intact (uncommitted
    sidecars and segments are inert garbage the next commit supersedes)."""
    from lucene_solr_ray.analysis.analyzer import StandardAnalyzer
    from lucene_solr_ray.index.segment import build_segment_tables
    from lucene_solr_ray.search.searcher import Index

    idx = Index(index_dir)
    manifest = idx.manifest
    if manifest.get("default_field"):
        raise ValueError(
            f"{fn_name} cannot write to a multi-field index: the flush "
            "writes one text field, without per-field norms or terms"
        )
    if manifest.get("numeric_fields"):
        raise ValueError(
            f"{fn_name} cannot write to an index with numeric point "
            "fields: the flush writes no points"
        )
    cfg = writer_config(index_dir, manifest)
    if analyzer is None:
        # the RECORDED analyzer; a custom chain cannot be rebuilt from
        # its spec and must be passed explicitly
        analyzer = idx.default_analyzer
    if analyzer is None:
        if (manifest.get("analyzer") or {}).get("kind") == "custom":
            raise ValueError(
                "index was built with a custom analyzer chain; pass "
                f"the same analyzer explicitly to {fn_name}"
            )
        analyzer = StandardAnalyzer()
    stored = stored or {}
    unknown = sorted(set(stored) - set(cfg.stored.names))
    if unknown:
        raise ValueError(f"{fn_name}: the index stores no column {unknown}")
    ids = list(doc_ids)
    seg = build_segment_tables(ids, list(texts), analyzer,
                               with_positions=cfg.with_positions,
                               with_offsets=cfg.with_offsets,
                               with_payloads=cfg.with_payloads)
    docmeta = seg.docmeta
    for f in cfg.stored:  # docstore columns ride along docmeta
        vals = stored.get(f.name)
        docmeta = docmeta.append_column(f.name, (
            pa.nulls(len(ids), f.type) if vals is None
            else pa.array(list(vals), f.type, from_pandas=True)))
    segs = ([dict(s) for s in manifest["segments"]] if tombstone is None
            else tombstone_pass(idx, tombstone, ids=_sorted_ids(ids),
                                commit=False))
    new_id = next_segment_id(index_dir, manifest)
    meta = {
        "segment_id": new_id,
        "stats": seg.stats,
        "analyzer": analyzer.spec(),
        "lineage": {"added_docs": len(ids), **lineage},
    }
    write_segment_dir(index_dir, new_id, seg.postings, docmeta, meta)
    return commit_manifest(index_dir, segs + [meta])


def add_documents(
    index_dir: str,
    doc_ids: Sequence[int],
    texts: Sequence[Optional[str]],
    analyzer=None,
) -> Dict:
    """Append one fresh segment with the given docs and commit
    (``IndexWriter.addDocument`` flush on an existing index).  New docs are
    searchable after the commit; single-segment because updates arrive in
    driver-sized batches — bulk loads go through ``build_index``."""
    return flush(index_dir, doc_ids, texts, analyzer,
                 fn_name="add_documents", lineage={})


def update_documents(
    index_dir: str,
    doc_ids: Sequence[int],
    texts: Sequence[Optional[str]],
    analyzer=None,
    stored: Optional[Dict[str, Sequence]] = None,
) -> Dict:
    """``updateDocument``: delete-by-id + re-add committed as ONE manifest
    generation (:func:`flush`), matching the reference's atomic
    ``IndexWriter.updateDocument``; ``stored`` maps stored columns to the
    replacement docs' values."""
    return flush(index_dir, doc_ids, texts, analyzer,
                 fn_name="update_documents", lineage={"update": True},
                 stored=stored, tombstone=sidecars.DELETES)
