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

Ray shape: every operation is ONE ``map_batches`` over the segment list —
per-segment query evaluation, sidecar write, tiny (segment_id, gen,
count) rows back to the driver for a single manifest commit.  No shuffle,
no driver materialization; identical scale behavior to the hard-delete
path at 100 TB.
"""

from __future__ import annotations

import os
import re
import uuid
from typing import Dict, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_solr_ray.index.manifest import (
    commit_manifest,
    read_latest_manifest,
    segment_dir_name,
)

__all__ = [
    "soft_delete_by_query",
    "soft_delete_doc_ids",
    "soft_update_documents",
    "soft_deleted_ords",
    "apply_soft_deletes_policy",
]

_SOFT_RE = re.compile(r"^softdel-(\d+)\.parquet$")


def latest_soft_file(seg_dir: str) -> Optional[str]:
    """Highest-generation ``softdel-N.parquet`` (writer-side helper and
    standalone-segment fallback, like ``latest_deletes_file``)."""
    best, best_gen = None, -1
    try:
        names = os.listdir(seg_dir)
    except OSError:
        return None
    for name in names:
        m = _SOFT_RE.match(name)
        if m and int(m.group(1)) > best_gen:
            best_gen = int(m.group(1))
            best = name
    return best


def soft_deleted_ords(seg_dir: str) -> np.ndarray:
    """Sorted soft-deleted ordinals from the COMMITTED sidecar generation
    (manifest-resolved; newest on-disk file for standalone dirs)."""
    from lucene_solr_ray.search.reader import committed_segment

    seg = committed_segment(seg_dir)
    gen = -1 if seg is None else int(seg.get("soft_del_gen", 0))
    if gen == 0:
        return np.empty(0, dtype=np.int64)
    f = f"softdel-{gen}.parquet" if gen > 0 else latest_soft_file(seg_dir)
    if f is None or not os.path.exists(os.path.join(seg_dir, f)):
        return np.empty(0, dtype=np.int64)
    return np.sort(
        pq.read_table(os.path.join(seg_dir, f))
        .column("ord").to_numpy().astype(np.int64)
    )


def _write_soft_file(seg_dir: str, gen: int, ords: np.ndarray) -> str:
    name = f"softdel-{gen}.parquet"
    tmp = os.path.join(seg_dir, f".{name}.tmp-{uuid.uuid4().hex[:8]}")
    pq.write_table(
        pa.table({"ord": pa.array(np.sort(ords).astype(np.int32))}),
        tmp,
        compression="zstd",
    )
    os.rename(tmp, os.path.join(seg_dir, name))
    return name


class _SoftDeleteFn:
    """Per-segment soft-delete task: evaluate, union, next generation."""

    def __init__(self, query, stats, by_doc_ids: Optional[np.ndarray] = None):
        self.query = query
        self.stats = stats
        self.by_doc_ids = by_doc_ids

    def __call__(self, batch: pa.Table) -> pa.Table:
        from lucene_solr_ray.search.reader import SegmentReader
        from lucene_solr_ray.search.scorer import score_segment

        rows = []
        for seg_dir, seg_id, cur_gen in zip(
            batch.column("seg_dir").to_pylist(),
            batch.column("segment_id").to_pylist(),
            batch.column("soft_del_gen").to_pylist(),
        ):
            reader = SegmentReader(seg_dir)
            cur = soft_deleted_ords(seg_dir)
            if self.by_doc_ids is not None:
                mask = np.isin(reader.doc_ids, self.by_doc_ids)
                hit_ords = np.nonzero(mask)[0].astype(np.int64)
            else:
                ords, _ = score_segment(reader, self.query, self.stats)
                hit_ords = ords.astype(np.int64)
            # hard-deleted docs never re-enter through the soft set
            if len(reader.deleted_ords):
                hit_ords = np.setdiff1d(hit_ords, reader.deleted_ords)
            merged = np.union1d(cur, hit_ords)
            if len(merged) > len(cur):
                gen = int(cur_gen) + 1
                _write_soft_file(seg_dir, gen, merged)
            else:
                gen = int(cur_gen)
            rows.append(
                {"segment_id": int(seg_id), "soft_del_gen": gen,
                 "soft_del_count": int(len(merged))}
            )
        return pa.Table.from_pylist(rows)


def _apply_soft_delete(index_dir: str, query=None, stats=None,
                       by_doc_ids: Optional[np.ndarray] = None,
                       commit: bool = True):
    import ray.data

    manifest = read_latest_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(index_dir)
    segs = {s["segment_id"]: dict(s) for s in manifest["segments"]}
    items = [
        {
            "seg_dir": os.path.join(index_dir, segment_dir_name(sid)),
            "segment_id": sid,
            "soft_del_gen": int(s.get("soft_del_gen", 0)),
        }
        for sid, s in sorted(segs.items())
    ]
    res = (
        ray.data.from_items(items, override_num_blocks=len(items))
        .map_batches(
            _SoftDeleteFn(query, stats, by_doc_ids), batch_format="pyarrow"
        )
        .take_all()
    )
    for r in res:
        s = segs[int(r["segment_id"])]
        s["soft_del_gen"] = int(r["soft_del_gen"])
        s["soft_del_count"] = int(r["soft_del_count"])
    if not commit:
        return list(segs.values())
    return commit_manifest(index_dir, list(segs.values()))


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
    from lucene_solr_ray.index.deletes import resolve_update_config
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
    new_id = max(s["segment_id"] for s in segs) + 1
    meta = {
        "segment_id": new_id,
        "stats": seg.stats,
        "analyzer": analyzer.spec(),
        "lineage": {"added_docs": len(list(doc_ids)), "soft_update": True},
    }
    write_segment_dir(index_dir, new_id, seg.postings, seg.docmeta, meta)
    # 2) ONE commit carrying both the soft_del_gen bumps and the segment
    return commit_manifest(index_dir, segs + [meta])


class _PolicyFn:
    """Per-segment SoftDeletesRetentionMergePolicy decision: soft ords
    matching the retention query stay soft; the rest become hard
    tombstones for the normal merge path to reclaim."""

    def __init__(self, retention_query, stats):
        self.retention_query = retention_query
        self.stats = stats

    def __call__(self, batch: pa.Table) -> pa.Table:
        from lucene_solr_ray.index.deletes import _write_deletes_file
        from lucene_solr_ray.search.reader import SegmentReader
        from lucene_solr_ray.search.scorer import score_segment

        rows = []
        for seg_dir, seg_id, del_gen, soft_gen in zip(
            batch.column("seg_dir").to_pylist(),
            batch.column("segment_id").to_pylist(),
            batch.column("del_gen").to_pylist(),
            batch.column("soft_del_gen").to_pylist(),
        ):
            reader = SegmentReader(seg_dir)
            soft = soft_deleted_ords(seg_dir)
            if self.retention_query is not None and len(soft):
                # the retention query runs over the UNWRAPPED view: soft-
                # deleted docs must be visible to it (the reference scores
                # the retention query against the wrapped-in docs)
                ords, _ = score_segment(
                    reader, self.retention_query, self.stats
                )
                retained = np.intersect1d(soft, ords.astype(np.int64))
            else:
                retained = np.empty(0, dtype=np.int64)
            reclaim = np.setdiff1d(soft, retained)
            new_del_gen, new_soft_gen = int(del_gen), int(soft_gen)
            merged = reader.deleted_ords
            if len(reclaim):
                merged = np.union1d(reader.deleted_ords, reclaim)
                new_del_gen += 1
                _write_deletes_file(seg_dir, new_del_gen, merged)
            if len(retained) != len(soft):
                new_soft_gen += 1
                _write_soft_file(seg_dir, new_soft_gen, retained)
            rows.append({
                "segment_id": int(seg_id),
                "del_gen": new_del_gen,
                "del_count": int(len(merged)),
                "soft_del_gen": new_soft_gen,
                "soft_del_count": int(len(retained)),
            })
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
    import ray.data

    from lucene_solr_ray.search.searcher import Index

    manifest = read_latest_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(index_dir)
    q = stats = None
    if retention_query is not None:
        idx = Index(index_dir)
        # wildcard/prefix/fuzzy retention terms expand the same way
        # soft_delete_by_query's do — before the per-segment fan-out
        (q,), stats = idx.prepare(
            [idx.make_parser(analyzer).parse(retention_query)]
        )
    segs = {s["segment_id"]: dict(s) for s in manifest["segments"]}
    items = [
        {
            "seg_dir": os.path.join(index_dir, segment_dir_name(sid)),
            "segment_id": sid,
            "del_gen": int(s.get("del_gen", 0)),
            "soft_del_gen": int(s.get("soft_del_gen", 0)),
        }
        for sid, s in sorted(segs.items())
    ]
    res = (
        ray.data.from_items(items, override_num_blocks=len(items))
        .map_batches(_PolicyFn(q, stats), batch_format="pyarrow")
        .take_all()
    )
    for r in res:
        s = segs[int(r["segment_id"])]
        for k in ("del_gen", "del_count", "soft_del_gen", "soft_del_count"):
            s[k] = int(r[k])
    return commit_manifest(index_dir, list(segs.values()))
