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

Soft and hard deletes share one tombstone pass
(:func:`lucene_solr_ray.index.deletes.tombstone_pass`, the sidecar kind
is the only difference), and ``soft_update_documents`` shares the one
flush of ``add_documents`` / ``update_documents``
(:func:`lucene_solr_ray.index.deletes.flush`).  The policy is its own
write collector (:func:`_collect_policy`) over the same
``matching_ords``: per-segment query evaluation, sidecar write, tiny
(segment, generation, count) rows back to the driver for a single
manifest commit.  No shuffle, no driver materialization.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Sequence

import numpy as np
import pyarrow as pa

from lucene_solr_ray.index import sidecars
from lucene_solr_ray.index.deletes import (
    flush,
    matching_ords,
    tombstone_by_query,
    tombstone_doc_ids,
)

__all__ = [
    "soft_delete_by_query",
    "soft_delete_doc_ids",
    "soft_update_documents",
    "apply_soft_deletes_policy",
]


def soft_delete_by_query(index_dir: str, query_str: str,
                         analyzer=None) -> Dict:
    """Soft-delete every doc matching a query string (the
    ``softUpdateDocument`` marker half); returns the new manifest."""
    return tombstone_by_query(index_dir, query_str, analyzer, sidecars.SOFT)


def soft_delete_doc_ids(index_dir: str, doc_ids: Sequence[int]) -> Dict:
    return tombstone_doc_ids(index_dir, doc_ids, sidecars.SOFT)


def soft_update_documents(
    index_dir: str,
    doc_ids: Sequence[int],
    texts: Sequence[Optional[str]],
    analyzer=None,
) -> Dict:
    """``IndexWriter.softUpdateDocument``: soft-delete the old doc ids,
    add the replacements as a fresh segment — ONE manifest commit through
    the flush ``update_documents`` uses, so neither the soft tombstones
    nor the replacement segment is visible before it (the reference's
    ``softUpdateDocument`` is likewise atomic)."""
    return flush(index_dir, doc_ids, texts, analyzer,
                 fn_name="soft_update_documents",
                 lineage={"soft_update": True}, tombstone=sidecars.SOFT)


def _collect_policy(pairs, query, stats) -> pa.Table:
    """Write collector for the SoftDeletesRetentionMergePolicy decision:
    soft ords matching the retention query stay soft; the rest become
    hard tombstones for the normal merge path to reclaim."""
    rows = []
    for reader, o in pairs:
        soft = sidecars.read_ords(reader.seg_dir, reader.sidecar_gens,
                                  sidecars.SOFT)
        retained = np.empty(0, dtype=np.int64)
        if query is not None and len(soft):
            # the retention query runs over the UNWRAPPED view: soft-
            # deleted docs must be visible to it (the reference scores
            # the retention query against the wrapped-in docs)
            retained = np.intersect1d(
                soft, matching_ords(reader, query, stats, None))
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

    idx = Index(index_dir)
    q = stats = None
    if retention_query is not None:
        # wildcard/prefix/fuzzy retention terms expand the same way
        # soft_delete_by_query's do — before the per-segment fan-out
        (q,), stats = idx.prepare(
            [idx.make_parser(analyzer).parse(retention_query)]
        )
    return sidecars.write_pass(
        idx, idx.scan(partial(_collect_policy, query=q, stats=stats))
        .take_all()
    )
