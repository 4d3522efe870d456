"""Soft deletes: retention-aware tombstones readers can opt out of seeing.

The reference's soft-delete path (``lucene/core/src/java/org/apache/
lucene/index/IndexWriter.java`` ``softUpdateDocument``;
``SoftDeletesDirectoryReaderWrapper.java``;
``SoftDeletesRetentionMergePolicy.java``): instead of a hard tombstone,
a soft delete sets a doc-values field on the doc.  An unwrapped reader
still sees the doc; ``SoftDeletesDirectoryReaderWrapper`` folds the field
into liveDocs; at merge time ``SoftDeletesRetentionMergePolicy`` keeps
soft-deleted docs matching a retention query and reclaims the rest like
hard deletes.

Engine mapping: the soft-deletes field's materialization is a
generation-stamped per-segment sidecar ``softdel-<gen>.parquet`` (one
sorted ``ord:int32`` column — same shape as the hard-delete sidecar),
committed through the manifest as ``soft_del_gen``/``soft_del_count``.
``SegmentReader(respect_soft_deletes=True)`` is the wrapper role;
:func:`apply_soft_deletes_policy` is the merge policy role — it converts
non-retained soft deletes into HARD tombstones (which the existing
merge/compaction path reclaims) and rewrites the soft sidecar to the
retained set, exactly the decision ``SoftDeletesRetentionMergePolicy``
makes per merge.

Ray shape: every operation is one ``Index.scan`` over the segment list
with a write collector (:func:`_collect_soft_deletes`,
:func:`_collect_policy`) — per-segment query evaluation, sidecar write,
tiny (segment, generation, count) rows back to the driver for a single
manifest commit.  No shuffle, no driver materialization; identical scale
behavior to the hard-delete path at 100 TB.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Sequence

import numpy as np
import pyarrow as pa

from lucene_solr_ray.index import sidecars
from lucene_solr_ray.index.deletes import matching_ords, resolve_update_config
from lucene_solr_ray.index.manifest import (
    commit_manifest,
    next_segment_id,
    read_latest_manifest,
)

__all__ = [
    "soft_delete_by_query",
    "soft_delete_doc_ids",
    "soft_update_documents",
    "apply_soft_deletes_policy",
]


def _collect_soft_deletes(pairs, query, stats, ids) -> pa.Table:
    """Write collector: add the matching live docs to each segment's next
    ``softdel`` generation (hard-deleted docs never enter the soft set)."""
    rows = []
    for reader, o in pairs:
        cur = sidecars.read_ords(reader.seg_dir, reader.sidecar_gens,
                                 sidecars.SOFT)
        merged = np.union1d(cur, matching_ords(reader, query, stats, ids))
        rows.append(sidecars.advance(reader, o, sidecars.SOFT, merged,
                                     len(merged) > len(cur)))
    return pa.Table.from_pylist(rows)


def _apply_soft_delete(index_dir: str, query=None, stats=None,
                       by_doc_ids: Optional[np.ndarray] = None,
                       commit: bool = True):
    return sidecars.write_pass(
        index_dir,
        partial(_collect_soft_deletes, query=query, stats=stats,
                ids=by_doc_ids),
        commit=commit,
    )


def soft_delete_by_query(index_dir: str, query_str: str,
                         analyzer=None) -> Dict:
    """Soft-delete every doc matching a query string (the
    ``softUpdateDocument`` marker half); returns the new manifest."""
    from lucene_solr_ray.search.searcher import Index

    idx = Index(index_dir)
    (q,), stats = idx.prepare([idx.make_parser(analyzer).parse(query_str)])
    return _apply_soft_delete(index_dir, query=q, stats=stats)


def soft_delete_doc_ids(index_dir: str, doc_ids: Sequence[int]) -> Dict:
    ids = np.asarray(sorted(set(int(d) for d in doc_ids)), dtype=np.int64)
    return _apply_soft_delete(index_dir, by_doc_ids=ids)


def soft_update_documents(
    index_dir: str,
    doc_ids: Sequence[int],
    texts: Sequence[Optional[str]],
    analyzer=None,
) -> Dict:
    """``IndexWriter.softUpdateDocument``: soft-delete the old doc ids,
    add the replacements as a fresh segment — ONE manifest commit, like
    ``update_documents``.  Readers resolve soft sidecar generations from
    the committed manifest, so neither the soft tombstones nor the
    replacement segment is visible before the single commit below; a
    crash in between leaves the previous commit point intact (the
    reference's ``softUpdateDocument`` is likewise atomic).

    The replacement segment is tokenized with the index's RECORDED
    analyzer and inherits its offset/payload posting options unless an
    analyzer is passed explicitly — mixed-config segments would produce
    wrong analyzed terms and refuse to merge."""
    from lucene_solr_ray.index.manifest import write_segment_dir
    from lucene_solr_ray.index.segment import build_segment_tables

    ids = np.asarray(sorted(set(int(d) for d in doc_ids)), dtype=np.int64)
    manifest = read_latest_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(index_dir)
    analyzer, with_offsets, with_payloads = resolve_update_config(
        index_dir, manifest, analyzer, "soft_update_documents"
    )
    # 1) build + write the replacement segment (invisible until commit)
    seg = build_segment_tables(
        list(doc_ids), list(texts), analyzer,
        with_offsets=with_offsets, with_payloads=with_payloads,
    )
    segs = _apply_soft_delete(index_dir, by_doc_ids=ids, commit=False)
    new_id = next_segment_id(index_dir, manifest)
    meta = {
        "segment_id": new_id,
        "stats": seg.stats,
        "analyzer": analyzer.spec(),
        "lineage": {"added_docs": len(list(doc_ids)), "soft_update": True},
    }
    write_segment_dir(index_dir, new_id, seg.postings, seg.docmeta, meta)
    # 2) ONE commit carrying both the soft_del_gen bumps and the segment
    return commit_manifest(index_dir, segs + [meta])


def _collect_policy(pairs, query, stats) -> pa.Table:
    """Write collector for the SoftDeletesRetentionMergePolicy decision:
    soft ords matching the retention query stay soft; the rest become
    hard tombstones for the normal merge path to reclaim."""
    from lucene_solr_ray.search.scorer import score_segment

    rows = []
    for reader, o in pairs:
        soft = sidecars.read_ords(reader.seg_dir, reader.sidecar_gens,
                                  sidecars.SOFT)
        retained = np.empty(0, dtype=np.int64)
        if query is not None and len(soft):
            # the retention query runs over the UNWRAPPED view: soft-
            # deleted docs must be visible to it (the reference scores
            # the retention query against the wrapped-in docs)
            ords, _ = score_segment(reader, query, stats)
            retained = np.intersect1d(soft, ords.astype(np.int64))
        reclaim = np.setdiff1d(soft, retained)
        hard = np.union1d(reader.deleted_ords, reclaim)
        rows.append(sidecars.advance(reader, o, sidecars.DELETES, hard,
                                     len(reclaim) > 0))
        rows.append(sidecars.advance(reader, o, sidecars.SOFT, retained,
                                     len(retained) != len(soft)))
    return pa.Table.from_pylist(rows)


def apply_soft_deletes_policy(
    index_dir: str, retention_query: Optional[str] = None, analyzer=None
) -> Dict:
    """Materialize the ``SoftDeletesRetentionMergePolicy`` decision:
    soft-deleted docs NOT matching ``retention_query`` become hard
    tombstones (reclaimed by the next merge/compaction); matching docs
    stay soft-deleted.  ``retention_query=None`` retains nothing — every
    soft delete hardens (the wrapped policy with a MatchNoDocs retention).
    One manifest commit; returns it."""
    from lucene_solr_ray.search.searcher import Index

    q = stats = None
    if retention_query is not None:
        idx = Index(index_dir)
        # wildcard/prefix/fuzzy retention terms expand the same way
        # soft_delete_by_query's do — before the per-segment fan-out
        (q,), stats = idx.prepare(
            [idx.make_parser(analyzer).parse(retention_query)]
        )
    return sidecars.write_pass(
        index_dir, partial(_collect_policy, query=q, stats=stats)
    )
