"""Deletes and updates: per-segment live-docs tombstones (reclaimed by merge).

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

Ray shape: the delete is one ``Index.scan`` over the segment list with
the :func:`_collect_deletes` collector — each task evaluates the delete
query against its segment (postings metadata + the existing evaluator),
unions with the segment's current tombstones, and writes the
next-generation sidecar atomically (:mod:`lucene_solr_ray.index.sidecars`).
The driver then commits a new manifest generation carrying per-segment
``del_gen``/``del_count``.  At 100 TB the work per task is one query
evaluation over one segment — no shuffle, no driver materialization
beyond one (segment, generation, count) row per segment.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Dict, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_solr_ray.index import sidecars
from lucene_solr_ray.index.manifest import (
    commit_manifest,
    next_segment_id,
    read_latest_manifest,
    segment_dir_name,
)

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


def _collect_deletes(pairs, query, stats, ids) -> pa.Table:
    """Write collector: tombstone the matching docs in each segment's
    next ``deletes`` generation."""
    rows = []
    for reader, o in pairs:
        cur = reader.deleted_ords
        merged = np.union1d(cur, matching_ords(reader, query, stats, ids))
        rows.append(sidecars.advance(reader, o, sidecars.DELETES, merged,
                                     len(merged) > len(cur)))
    return pa.Table.from_pylist(rows)


def _apply_delete(index_dir: str, query=None, stats=None,
                  by_doc_ids: Optional[np.ndarray] = None,
                  commit: bool = True):
    """Run the delete write pass; commit the next manifest (or, with
    ``commit=False``, return the updated segment entries so the caller
    can fold more changes into ONE manifest generation)."""
    return sidecars.write_pass(
        index_dir,
        partial(_collect_deletes, query=query, stats=stats, ids=by_doc_ids),
        commit=commit,
    )


def delete_by_query(index_dir: str, query_str: str, analyzer=None) -> Dict:
    """Delete every doc matching a query string; returns the new manifest
    (``IndexWriter.deleteDocuments(Query)``)."""
    from lucene_solr_ray.search.searcher import Index

    idx = Index(index_dir)
    (q,), stats = idx.prepare([idx.make_parser(analyzer).parse(query_str)])
    return _apply_delete(index_dir, query=q, stats=stats)


def delete_by_term(index_dir: str, term: str,
                   field: Optional[str] = None) -> Dict:
    """``IndexWriter.deleteDocuments(Term)`` — the raw (unanalyzed) term."""
    from lucene_solr_ray.search.query import TermQuery
    from lucene_solr_ray.search.searcher import Index

    idx = Index(index_dir)
    q = TermQuery(term, field=field)
    stats, _ = idx.collect_stats(sorted(set(q.terms())))
    return _apply_delete(index_dir, query=q, stats=stats)


def delete_doc_ids(index_dir: str, doc_ids: Sequence[int]) -> Dict:
    """Delete by GLOBAL doc id (the update path's delete half)."""
    ids = np.asarray(sorted(set(int(d) for d in doc_ids)), dtype=np.int64)
    return _apply_delete(index_dir, by_doc_ids=ids)


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
    from lucene_solr_ray.analysis.analyzer import StandardAnalyzer
    from lucene_solr_ray.index.manifest import write_segment_dir
    from lucene_solr_ray.index.segment import build_segment_tables

    manifest = read_latest_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(index_dir)
    analyzer = analyzer or StandardAnalyzer()
    seg = build_segment_tables(list(doc_ids), list(texts), analyzer)
    new_id = next_segment_id(index_dir, manifest)
    meta = {
        "segment_id": new_id,
        "stats": seg.stats,
        "analyzer": analyzer.spec(),
        "lineage": {"added_docs": len(list(doc_ids))},
    }
    write_segment_dir(index_dir, new_id, seg.postings, seg.docmeta, meta)
    return commit_manifest(
        index_dir, [dict(s) for s in manifest["segments"]] + [meta]
    )


def _postings_col_nonnull(path: str, col: str) -> bool:
    """True if the named postings column carries any non-null list —
    decided from parquet row-group statistics alone (no data read)."""
    f = pq.ParquetFile(path)
    try:
        ci = f.schema_arrow.names.index(col)
    except ValueError:
        return False
    md = f.metadata
    for rg in range(md.num_row_groups):
        c = md.row_group(rg).column(ci)
        if c.num_values == 0:
            continue
        st = c.statistics
        if st is None or st.null_count is None:
            return True  # no stats recorded: assume present
        if st.null_count < c.num_values:
            return True
    return False


def resolve_update_config(index_dir: str, manifest: Dict, analyzer,
                          fn_name: str = "update_documents"):
    """Shared update/soft-update config resolution: the index's RECORDED
    analyzer (manifest spec) unless one is passed, plus the base index's
    offset/payload posting options (parquet row-group stats, no data
    read).  Returns ``(analyzer, with_offsets, with_payloads)``."""
    from lucene_solr_ray.analysis.analyzer import (
        StandardAnalyzer,
        analyzer_from_spec,
    )

    if analyzer is None:
        spec = manifest.get("analyzer")
        analyzer = analyzer_from_spec(spec) if spec else None
        if analyzer is None:
            if spec and spec.get("kind") == "custom":
                raise ValueError(
                    "index was built with a custom analyzer chain; pass "
                    f"the same analyzer explicitly to {fn_name}"
                )
            analyzer = StandardAnalyzer()
    first_path = os.path.join(
        index_dir, segment_dir_name(manifest["segments"][0]["segment_id"]),
        "postings.parquet",
    )
    with_offsets = _postings_col_nonnull(first_path, "offsets")
    with_payloads = _postings_col_nonnull(first_path, "payloads")
    return analyzer, with_offsets, with_payloads


def update_documents(
    index_dir: str,
    doc_ids: Sequence[int],
    texts: Sequence[Optional[str]],
    analyzer=None,
    stored: Optional[Dict[str, Sequence]] = None,
) -> Dict:
    """``updateDocument``: delete-by-id + re-add committed as ONE manifest
    generation.  Readers resolve sidecar generations from the committed
    manifest (:mod:`lucene_solr_ray.index.sidecars`), so neither the delete sidecars
    nor the replacement segment is visible before the single commit below
    — the intermediate deleted-but-not-readded state cannot be observed,
    and a crash anywhere before the commit leaves the previous commit
    point fully intact (uncommitted sidecars/segments are inert garbage
    the next commit's generations supersede), matching the reference's
    atomic ``IndexWriter.updateDocument``.

    The replacement segment is tokenized with the index's RECORDED
    analyzer (manifest spec) and inherits its payload/offset posting
    options unless an analyzer is passed explicitly — mixed-config
    segments would fail to merge (``IndexWriter`` likewise applies its one
    configured analyzer chain to updates)."""
    from lucene_solr_ray.index.manifest import write_segment_dir
    from lucene_solr_ray.index.segment import build_segment_tables

    ids = np.asarray(sorted(set(int(d) for d in doc_ids)), dtype=np.int64)
    manifest = read_latest_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(index_dir)
    analyzer, with_offsets, with_payloads = resolve_update_config(
        index_dir, manifest, analyzer, "update_documents"
    )
    # 1) build + write the replacement segment (invisible until commit)
    seg = build_segment_tables(
        list(doc_ids), list(texts), analyzer,
        with_offsets=with_offsets, with_payloads=with_payloads,
    )
    docmeta = seg.docmeta
    if stored:
        # docstore columns ride along docmeta, as in the build path —
        # replacement docs must carry the index's stored fields or
        # column reads across segments would break
        for c, vals in stored.items():
            docmeta = docmeta.append_column(c, pa.array(list(vals)))
    segs = _apply_delete(index_dir, by_doc_ids=ids, commit=False)
    new_id = next_segment_id(index_dir, manifest)
    meta = {
        "segment_id": new_id,
        "stats": seg.stats,
        "analyzer": analyzer.spec(),
        "lineage": {"added_docs": len(list(doc_ids)), "update": True},
    }
    write_segment_dir(index_dir, new_id, seg.postings, docmeta, meta)
    # 2) ONE commit carrying both the del_gen bumps and the new segment
    return commit_manifest(index_dir, segs + [meta])
