"""Segment merging: TieredMergePolicy specs executed as Ray tasks.

The SegmentMerger analogue (reference
``lucene/core/src/java/org/apache/lucene/index/SegmentMerger.java:105-139``).
Each input segment gets ONE DocMap (``MergeState.DocMap``): an array from
its old ordinal to its ordinal in the merged segment, −1 for a deleted
doc.  It composes compaction (survivors renumbered densely), the input's
doc base (cumulative in spec order, like ``ctx.docBase``) and, when every
input shares one index sort, the merged comparator permutation
(``MultiSorter.sort``).  That one map drives the postings, the points,
the carried soft-deleted ordinals and the docmeta ``take``.

Postings merge as column operations over the format-6 list columns, with
no loop over terms or blocks: the inputs' rows are concatenated, each
input's ords shifted by its raw doc base (:func:`_merge_postings_rows`:
the rows of one term regroup into one list, in input order), and the
result is sent through the concatenated DocMaps
(:func:`remap_postings_rows`: a ``take`` of every ord, a filter on
``>= 0``, one stable lexsort on (term row, new ord) when the map is not
monotonic, the per-occurrence columns carried along, emptied terms
dropped).  The same code merges one term range or many.

``merge_segments(..., num_shards=N)`` splits the term space at quantile
terms of the largest input's dictionary.  One range merges in the calling
task; more run one Ray task per range, each writing a part file (parquet
row-group statistics prune each input's read to its range), and the
parts stream into the segment's postings file.  ``merge_once`` uses 8
ranges for specs above ``SHARDED_MERGE_THRESHOLD``.

Merged-away segment dirs are dropped from the next manifest generation
(the ``IndexFileDeleter`` role; dirs are removed once the new manifest is
committed).  ``merge_until_done`` loops policy → execute → commit until
the policy returns no spec, mirroring ``ConcurrentMergeScheduler``
convergence.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from lucene_solr_ray.index import indexsort, sidecars
from lucene_solr_ray.index.manifest import (
    commit_manifest,
    next_segment_id,
    read_latest_manifest,
    read_segment_meta,
    segment_dir_name,
    write_segment_dir,
)
from lucene_solr_ray.index.merge_policy import (
    TieredMergePolicy,
    segment_size_bytes,
)
from lucene_solr_ray.index.segment import (
    OCCURRENCE_COLUMNS,
    list_views,
    postings_table,
    postings_writer,
)

__all__ = ["merge_segments", "merge_once", "merge_until_done"]

#: specs above this size merge in term ranges, one Ray task per range
SHARDED_MERGE_THRESHOLD = 512 * 1024 * 1024


def _occurrence_values(postings: pa.Table) -> Dict[str, np.ndarray]:
    """The per-occurrence columns a postings table stores, flat: one row
    (an offset pair: two values) per occurrence."""
    out = {}
    for name, width in OCCURRENCE_COLUMNS:
        col = postings.column(name)
        if col.null_count == len(col):
            continue
        if col.null_count:
            raise ValueError(
                f"cannot merge segments with and without {name}")
        out[name] = list_views(col)[1].reshape(-1, width)
    return out


def _merge_postings_rows(tables: List[pa.Table],
                         bases: List[int]) -> pa.Table:
    """Term-aligned merge of input postings tables (already filtered to a
    common term range): every input's ords shifted by its base, and the
    rows of one term joined into one list in input order."""
    t = pa.concat_tables(tables)
    # a stable sort keeps each term's rows in input order
    order = pc.sort_indices(t.column("term"))
    # int32 like the ords: merged ords stay below 2^31
    row_base = np.repeat(np.asarray(bases, dtype=np.int32),
                         [x.num_rows for x in tables])[order.to_numpy()]
    t = t.take(order)
    terms = t.column("term").combine_chunks()
    new_term = np.ones(t.num_rows, dtype=bool)
    new_term[1:] = pc.not_equal(terms[1:], terms[:-1]).to_numpy(
        zero_copy_only=False)
    starts = np.flatnonzero(new_term)
    edges, ords = list_views(t.column("ords"))
    ords = ords + np.repeat(row_base, np.diff(edges))
    return postings_table(
        terms.take(starts), edges[np.append(starts, t.num_rows)], ords,
        list_views(t.column("freqs"))[1], _occurrence_values(t))


def remap_postings_rows(postings: pa.Table,
                        doc_map: np.ndarray) -> pa.Table:
    """Rewrite a postings table through a DocMap: ``doc_map[old_ord]`` is
    the new ordinal, or −1 for a deleted doc (reference
    ``MergeState.DocMap``).  Deleted docs drop out (and a term with none
    left, as ``SegmentMerger`` omits terms with no live docs); unless the
    map is monotonic each term's entries re-sort by new ord, and the
    per-occurrence positions / offsets / payloads move with their
    entry.  The identity map (no deletes, no sort) returns the table as
    it is."""
    if np.array_equal(doc_map, np.arange(len(doc_map))):
        return postings
    edges, ords = list_views(postings.column("ords"))
    freqs = list_views(postings.column("freqs"))[1]
    new_ords = doc_map[ords]
    keep = new_ords >= 0
    kept_below = np.concatenate([[0], np.cumsum(keep)])
    df = kept_below[edges[1:]] - kept_below[edges[:-1]]
    live_map = doc_map[doc_map >= 0]
    if np.all(live_map[1:] > live_map[:-1]):
        # entries keep their order: masks over entries and occurrences
        occ = np.repeat(keep, freqs)
    else:
        # one stable sort on (term row, new ord); each kept entry's
        # occurrence slice moves with it
        row = np.repeat(np.arange(postings.num_rows), np.diff(edges))
        keep = np.flatnonzero(keep)
        keep = keep[np.lexsort((new_ords[keep], row[keep]))]
        kept_freqs = freqs[keep].astype(np.int64)
        occ_start = np.cumsum(freqs, dtype=np.int64) - freqs
        occ = np.repeat(occ_start[keep] - (np.cumsum(kept_freqs)
                                           - kept_freqs), kept_freqs)
        occ += np.arange(len(occ))
    rows = np.flatnonzero(df)
    return postings_table(
        postings.column("term").take(rows),
        np.concatenate([[0], np.cumsum(df[rows])]), new_ords[keep],
        freqs[keep],
        {name: values[occ]
         for name, values in _occurrence_values(postings).items()})


@dataclass
class _MergePlan:
    """What every term range of one merge needs (shipped to range tasks)."""

    seg_dirs: List[str]
    doc_maps: List[np.ndarray]   # per input: old ord → merged ord, or −1


def _read_postings(seg_dir: str, lo: Optional[str],
                   hi: Optional[str]) -> pa.Table:
    """One input's postings rows with ``lo <= term < hi`` (None: open)."""
    path = os.path.join(seg_dir, "postings.parquet")
    if lo is None and hi is None:
        return pq.read_table(path)
    import pyarrow.dataset as pads

    filt = None
    if lo is not None:
        filt = pc.field("term") >= lo
    if hi is not None:
        f2 = pc.field("term") < hi
        filt = f2 if filt is None else (filt & f2)
    return pads.dataset(path, format="parquet").to_table(filter=filt)


def _merge_range(plan: _MergePlan, lo: Optional[str],
                 hi: Optional[str]) -> pa.Table:
    """The merged postings rows of one term range: every input at its raw
    doc base, then one rewrite through the concatenated DocMaps."""
    tables = [_read_postings(d, lo, hi) for d in plan.seg_dirs]
    counts = [len(m) for m in plan.doc_maps]
    return remap_postings_rows(
        _merge_postings_rows(tables, [0] + list(np.cumsum(counts[:-1]))),
        np.concatenate(plan.doc_maps))


def _term_ranges(seg_dirs: List[str], num_shards: int):
    """[lo, hi) term ranges at quantile terms of the largest input's
    dictionary (None: open end)."""
    if num_shards <= 1:
        return [(None, None)]
    big = max(seg_dirs, key=lambda d: os.path.getsize(
        os.path.join(d, "postings.parquet")))
    terms = pq.read_table(
        os.path.join(big, "postings.parquet"), columns=["term"]
    ).column("term").to_pylist()
    cuts = sorted(set(
        terms[(len(terms) * i) // num_shards] for i in range(1, num_shards)
    )) if terms else []
    return list(zip([None] + cuts, cuts + [None]))


def _merge_ranges_in_tasks(index_dir: str, new_id: int, plan: _MergePlan,
                           ranges) -> tuple:
    """One Ray task per term range, each writing a part file; returns
    (part paths in term order, Σ df, term count, parts dir)."""
    import uuid

    import ray
    import ray.data

    parts_dir = os.path.join(
        index_dir, f".merge-{new_id}.parts-{uuid.uuid4().hex[:8]}"
    )
    os.makedirs(parts_dir, exist_ok=True)
    paths = [os.path.join(parts_dir, f"part-{i:04d}.parquet")
             for i in range(len(ranges))]
    plan_ref = ray.put(plan)

    def _one_range(batch: pa.Table) -> pa.Table:
        p = ray.get(plan_ref)
        out_rows = []
        for ri in batch.column("ri").to_pylist():
            part = _merge_range(p, *ranges[ri])
            with postings_writer(paths[ri]) as writer:
                writer.write_table(part)
            out_rows.append({
                "terms": part.num_rows,
                "df": int(part.column("df").to_numpy().sum()),
            })
        return pa.Table.from_pylist(out_rows)

    # items carry only the range index: a None bound would type its
    # column as null in one block and string in another
    items = [{"ri": i} for i in range(len(ranges))]
    done = ray.data.from_items(
        items, override_num_blocks=len(items)
    ).map_batches(_one_range, batch_size=1,
                  batch_format="pyarrow").take_all()
    return (paths, sum(r["df"] for r in done),
            sum(r["terms"] for r in done), parts_dir)


def _input_stats(meta: Dict, dm: pa.Table, compacted: bool) -> Dict:
    """An input's stats over its live docs: recomputed from the compacted
    docmeta when it had tombstones (the field_len columns ARE the
    per-field token sums; df-based numbers come from merged postings)."""
    if not compacted:
        return meta["stats"]
    flens = dm.column("field_len").to_numpy()
    st = {"doc_count": int(dm.num_rows),
          "sum_total_term_freq": int(flens.sum())}
    if meta["stats"].get("fields"):
        st["fields"] = {}
        for fname in meta["stats"]["fields"]:
            col = f"field_len__{fname}"
            fl = (dm.column(col).to_numpy()
                  if col in dm.schema.names else flens)
            st["fields"][fname] = {
                "doc_count": int((fl > 0).sum()),
                "sum_total_term_freq": int(fl.sum()),
            }
    return st


def _sort_permutation(in_metas: List[Dict], docmeta: pa.Table):
    """(shared sort, permutation): when every input was laid down in one
    index sort whose key columns ride docmeta, the comparator order of
    the merged docs (``MultiSorter.sort``), so the merged segment keeps
    the sort and collectors can still stop early.  The permutation is
    None when it is the identity; the sort is None when the inputs share
    none (a mixed merge cannot keep any)."""
    sorts = [indexsort.read(im) for im in in_metas]
    shared = sorts[0]
    if shared is None or any(s != shared for s in sorts) or not all(
        f in docmeta.column_names for f, _ in shared
    ):
        return None, None
    perm = indexsort.permutation(shared, docmeta,
                                 docmeta.column("doc_id").to_numpy())
    if np.array_equal(perm, np.arange(len(perm))):
        return shared, None
    return shared, perm


def _doc_maps(counts: List[int], dels: List[np.ndarray], bases: List[int],
              perm: Optional[np.ndarray]) -> List[np.ndarray]:
    """One DocMap per input: old ord → merged ord, −1 when deleted.
    Survivors are renumbered densely from the input's base, then sent
    through the sort permutation when there is one."""
    rank = None
    if perm is not None:
        rank = np.empty(len(perm), dtype=np.int64)
        rank[perm] = np.arange(len(perm))
    maps = []
    for n, deleted, base in zip(counts, dels, bases):
        live = np.ones(n, dtype=bool)
        live[deleted] = False
        m = np.full(n, -1, dtype=np.int64)
        m[live] = np.arange(base, base + int(live.sum()))
        if rank is not None:
            m[live] = rank[m[live]]
        maps.append(m)
    return maps


def _merged_soft_ords(readers, doc_maps: List[np.ndarray]) -> np.ndarray:
    """Soft-deleted ordinals carried through the merge: soft-deleted docs
    stay soft-deleted in the merged segment (hard-deleted ones vanish),
    as the reference's soft-deletes-aware merging keeps the DV marker."""
    ords = np.concatenate([np.empty(0, dtype=np.int64)] + [
        m[sidecars.read_ords(r.seg_dir, r.sidecar_gens, sidecars.SOFT)]
        for r, m in zip(readers, doc_maps)
    ])
    return np.sort(ords[ords >= 0])


def _merge_points(seg_dirs: List[str], doc_maps: List[np.ndarray]):
    """The inputs' points.parquet (numeric point fields) merged through
    their DocMaps; None when no input has points."""
    from lucene_solr_ray.index.points import merge_points_tables

    tabs = []
    for d in seg_dirs:
        p = os.path.join(d, "points.parquet")
        tabs.append(pq.read_table(p) if os.path.exists(p) else None)
    if all(t is None for t in tabs):
        return None
    return merge_points_tables(tabs, doc_maps)


def _merged_meta(new_id: int, spec_ids: List[int], in_metas: List[Dict],
                 in_stats: List[Dict], doc_count: int, sum_doc_freq: int,
                 term_count: int, shared_sort, n_soft: int,
                 n_ranges: int) -> Dict:
    """segment.json of the merged segment.  Top-level stats sum the
    inputs' live stats: for multi-field segments those cover the default
    field only (the collection stats BM25's avgdl derives from), while Σ
    over the merged term rows would also count field-prefixed terms."""
    stats = {
        "doc_count": doc_count,
        "sum_total_term_freq": int(
            sum(st["sum_total_term_freq"] for st in in_stats)
        ),
        "sum_doc_freq": sum_doc_freq,
        "term_count": term_count,
    }
    fields_acc: Dict[str, Dict[str, int]] = {}
    for st in in_stats:
        for fname, fs in (st.get("fields") or {}).items():
            acc = fields_acc.setdefault(
                fname, {"doc_count": 0, "sum_total_term_freq": 0}
            )
            acc["doc_count"] += fs["doc_count"]
            acc["sum_total_term_freq"] += fs["sum_total_term_freq"]
    if fields_acc:
        stats["fields"] = fields_acc
    lineage = {"merged_from": list(spec_ids)}
    if n_ranges > 1:
        lineage["sharded"] = n_ranges
    meta = {"segment_id": new_id, "stats": stats, "lineage": lineage}
    meta.update(indexsort.meta_entry(shared_sort))
    if n_soft:
        meta["soft_del_gen"] = 1
        meta["soft_del_count"] = n_soft
    # per-index settings carry over from the first input that has them
    for key in ("default_field", "analyzer", "field_analyzers",
                "numeric_fields"):
        val = next((im[key] for im in in_metas if im.get(key)), None)
        if val:
            meta[key] = val
    return meta


def merge_segments(index_dir: str, spec_ids: List[int], new_id: int,
                   num_shards: int = 1) -> Dict:
    """Execute one merge spec → new segment dir; returns its meta.
    Pure function of the input segment dirs (deterministic, idempotent).
    Deleted docs are dropped here, as in Lucene.  ``num_shards`` term
    ranges: one merges in the calling task and starts no Ray task; more
    merge one range per Ray task (for specs too big for one task)."""
    from lucene_solr_ray.search.reader import SegmentReader

    seg_dirs = [os.path.join(index_dir, segment_dir_name(s)) for s in spec_ids]
    # one reader per input: its sidecar generations, resolved once, fix
    # the tombstones, soft deletes and doc values the merge reads
    readers = [SegmentReader(d) for d in seg_dirs]
    in_metas, docmetas, dels, in_stats, counts = [], [], [], [], []
    for r in readers:
        # DocValues-update overlays bake into the merged docmeta (the
        # reference rewrites doc values on merge, dropping dvu generations)
        dm = r.docmeta()
        deleted = r.deleted_ords
        counts.append(dm.num_rows)
        if len(deleted):
            live = np.ones(dm.num_rows, dtype=bool)
            live[deleted] = False
            dm = dm.filter(pa.array(live))
        in_metas.append(r.meta)
        docmetas.append(dm)
        dels.append(deleted)
        in_stats.append(_input_stats(r.meta, dm, bool(len(deleted))))
    live_counts = [dm.num_rows for dm in docmetas]
    bases = [int(b) for b in np.cumsum([0] + live_counts[:-1])]
    docmeta = pa.concat_tables(docmetas)
    shared_sort, perm = _sort_permutation(in_metas, docmeta)
    if perm is not None:
        docmeta = docmeta.take(perm)
    doc_maps = _doc_maps(counts, dels, bases, perm)
    plan = _MergePlan(seg_dirs=seg_dirs, doc_maps=doc_maps)
    points = _merge_points(seg_dirs, doc_maps)
    soft_ords = _merged_soft_ords(readers, doc_maps)

    ranges = _term_ranges(seg_dirs, num_shards)
    parts_dir = None
    if len(ranges) == 1:
        postings = _merge_range(plan, None, None)
        sum_doc_freq = (int(postings.column("df").to_numpy().sum())
                        if postings.num_rows else 0)
        term_count = postings.num_rows
    else:
        paths, sum_doc_freq, term_count, parts_dir = _merge_ranges_in_tasks(
            index_dir, new_id, plan, ranges
        )
        # streamed part by part into the segment (bounded memory)
        postings = (pq.read_table(p) for p in paths)
    meta = _merged_meta(
        new_id, spec_ids, in_metas, in_stats, docmeta.num_rows,
        sum_doc_freq, term_count, shared_sort, int(len(soft_ords)),
        len(ranges),
    )
    extra = None
    if len(soft_ords):
        extra = {sidecars.file_name(sidecars.SOFT, 1):
                 sidecars.table(soft_ords)}
    try:
        write_segment_dir(index_dir, new_id, postings, docmeta, meta,
                          points=points, extra_files=extra)
    finally:
        if parts_dir is not None:
            shutil.rmtree(parts_dir, ignore_errors=True)
    return meta


def merge_once(
    index_dir: str, policy: Optional[TieredMergePolicy] = None,
    drop_merged: bool = True,
) -> int:
    """One merge round: policy over the latest manifest, execute specs in
    parallel (Ray tasks via a Dataset over specs; a spec above
    ``SHARDED_MERGE_THRESHOLD`` merges in 8 term ranges, one task each),
    commit the next generation. Returns the number of merges executed."""
    import ray.data

    policy = policy or TieredMergePolicy()
    manifest = read_latest_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(index_dir)
    live = {s["segment_id"]: s for s in manifest["segments"]}
    sizes = {
        sid: segment_size_bytes(os.path.join(index_dir, segment_dir_name(sid)))
        for sid in live
    }
    specs = policy.find_merges(sizes)
    if not specs:
        return 0
    next_id = next_segment_id(index_dir, manifest)
    items = [{"spec_ids": list(sp.segment_ids), "new_id": next_id + i}
             for i, sp in enumerate(specs)]
    big = [sp.total_bytes > SHARDED_MERGE_THRESHOLD for sp in specs]
    small_items = [it for it, b in zip(items, big) if not b]

    def _run(batch: pa.Table) -> pa.Table:
        out = []
        for row in batch.to_pylist():
            out.append(merge_segments(index_dir, row["spec_ids"], row["new_id"]))
        return pa.Table.from_pylist(
            [{"segment_id": m["segment_id"]} for m in out]
        )

    if small_items:
        ray.data.from_items(
            small_items, override_num_blocks=len(small_items)
        ).map_batches(_run, batch_size=1, batch_format="pyarrow").take_all()
    for it, b in zip(items, big):
        if b:
            merge_segments(index_dir, it["spec_ids"], it["new_id"],
                           num_shards=8)

    merged_away = {sid for sp in specs for sid in sp.segment_ids}
    survivors = [m for sid, m in live.items() if sid not in merged_away]
    for it in items:
        survivors.append(read_segment_meta(
            os.path.join(index_dir, segment_dir_name(it["new_id"]))
        ))
    commit_manifest(index_dir, survivors)
    if drop_merged:
        for sid in merged_away:
            shutil.rmtree(
                os.path.join(index_dir, segment_dir_name(sid)),
                ignore_errors=True,
            )
    return len(specs)


def merge_until_done(
    index_dir: str, policy: Optional[TieredMergePolicy] = None,
    max_rounds: int = 20,
) -> int:
    total = 0
    for _ in range(max_rounds):
        n = merge_once(index_dir, policy)
        if n == 0:
            break
        total += n
    return total
