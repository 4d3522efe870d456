"""Segment merging: TieredMergePolicy specs executed as Ray tasks.

The SegmentMerger analogue (reference
``lucene/core/src/java/org/apache/lucene/index/SegmentMerger.java:105-139``):
each merge re-streams the postings of its input segments with ordinal
rebasing (``index/DocIDMerger.java`` — new ord = per-segment base + old
ord, bases cumulative in segment order, exactly like ``ctx.docBase``) into
one new segment, re-encoding posting blocks and recomputing skip/impact
data.  Merged-away segment dirs are dropped from the next manifest
generation (the ``IndexFileDeleter`` role; dirs are removed once the new
manifest is committed).

The merge of one spec runs inside a single task: term-aligned streams are
concatenated (posting ords stay ascending after rebase because segment
bases are assigned in spec order).  A merge bigger than one worker's
memory would instead shuffle ``(term, block)`` rows via ``groupby(term)``
— the policy's 5 GB ``maxMergedSegmentBytes`` cap keeps specs below that.

``merge_until_done`` loops policy → execute → commit until the policy
returns no spec, mirroring ``ConcurrentMergeScheduler`` convergence.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa

from lucene_solr_ray.index import sidecars
from lucene_solr_ray.index.manifest import (
    commit_manifest,
    list_valid_segments,
    read_latest_manifest,
    segment_dir_name,
    write_segment_dir,
)
from lucene_solr_ray.index.merge_policy import (
    MergeSpec,
    TieredMergePolicy,
    segment_size_bytes,
)
from lucene_solr_ray.index.postings_codec import concat_postings
from lucene_solr_ray.index.segment import DOCMETA_SCHEMA, POSTINGS_SCHEMA

__all__ = ["merge_segments", "merge_once", "merge_until_done"]


def _merge_postings_rows(tables, bases) -> "pa.Table":
    """Term-aligned merge of input postings tables (already filtered to a
    common term range) into one combined table — the per-term concat logic
    shared by the single-task and term-sharded merge paths."""
    term_lists: Dict[str, List] = {}
    has_positions = False
    has_offsets = False
    has_payloads = False
    for si, t in enumerate(tables):
        terms = t.column("term").to_pylist()
        blocks = t.column("blocks").to_pylist()
        dfs_in = t.column("df").to_pylist()
        ttfs_in = t.column("ttf").to_pylist()
        poss = t.column("positions").to_pylist()
        offs = (
            t.column("offsets").to_pylist()
            if "offsets" in t.schema.names else [None] * t.num_rows
        )
        pays = (
            t.column("payloads").to_pylist()
            if "payloads" in t.schema.names else [None] * t.num_rows
        )
        for term, blob, df_i, ttf_i, pos, off, pay in zip(
            terms, blocks, dfs_in, ttfs_in, poss, offs, pays
        ):
            if pos is not None:
                has_positions = True
            if off is not None:
                has_offsets = True
            if pay is not None:
                has_payloads = True
            term_lists.setdefault(term, []).append(
                (si, blob, df_i, ttf_i, pos, off, pay)
            )

    terms_sorted = sorted(term_lists)
    blobs, dfs, ttfs = [], [], []
    positions_out, offsets_out, payloads_out = [], [], []
    for term in terms_sorted:
        parts = sorted(term_lists[term], key=lambda x: x[0])
        blobs.append(
            concat_postings([(p[1], bases[p[0]]) for p in parts])
        )
        dfs.append(sum(p[2] for p in parts))
        ttfs.append(sum(p[3] for p in parts))
        if has_positions:
            if any(p[4] is None for p in parts):
                raise ValueError(
                    f"term {term!r}: cannot merge segments with and "
                    "without positions"
                )
            positions_out.append(b"".join(p[4] for p in parts))
        else:
            positions_out.append(None)
        if has_offsets:
            if any(p[5] is None for p in parts):
                raise ValueError(
                    f"term {term!r}: cannot merge segments with and "
                    "without offsets"
                )
            offsets_out.append(b"".join(p[5] for p in parts))
        else:
            offsets_out.append(None)
        if has_payloads:
            if any(p[6] is None for p in parts):
                raise ValueError(
                    f"term {term!r}: cannot merge segments with and "
                    "without payloads"
                )
            payloads_out.append(b"".join(p[6] for p in parts))
        else:
            payloads_out.append(None)
    return pa.table(
        {
            "term": pa.array(terms_sorted, pa.string()),
            "df": pa.array(np.asarray(dfs, dtype=np.int32)),
            "ttf": pa.array(np.asarray(ttfs, dtype=np.int64)),
            "blocks": pa.array(blobs, pa.binary()),
            "positions": pa.array(positions_out, type=pa.binary()),
            "offsets": pa.array(offsets_out, type=pa.binary()),
            "payloads": pa.array(payloads_out, type=pa.binary()),
        },
        schema=POSTINGS_SCHEMA,
    )


def _effective_inputs(seg_dirs: List[str]):
    """Per-input (docmeta, meta, deleted_ords, effective_stats): segments
    with tombstones get COMPACTED docmeta + recomputed stats — the merge
    physically drops deleted docs (``SegmentMerger`` + ``MergeState.DocMap``,
    reference ``index/SegmentMerger.java:105-139``)."""
    import json

    from lucene_solr_ray.index.deletes import segment_deleted_ords
    from lucene_solr_ray.index.docvalues import docmeta_with_overlays

    docmetas, in_metas, dels, eff_stats = [], [], [], []
    for d in seg_dirs:
        with open(os.path.join(d, "segment.json")) as f:
            meta = json.load(f)
        # DocValues-update overlays bake into the merged docmeta (the
        # reference rewrites doc values on merge, dropping dvu generations)
        dm = docmeta_with_overlays(d)
        deleted = segment_deleted_ords(d)
        if len(deleted):
            live = np.ones(dm.num_rows, dtype=bool)
            live[deleted] = False
            dm = dm.filter(pa.array(live))
        docmetas.append(dm)
        in_metas.append(meta)
        dels.append(deleted)
        if len(deleted):
            # recompute default-field + per-field sums off compacted docmeta
            # (field_len columns ARE the per-field token sums); df-based
            # numbers are filled by the caller from compacted postings
            flens = dm.column("field_len").to_numpy()
            st = {
                "doc_count": int(dm.num_rows),
                "sum_total_term_freq": int(flens.sum()),
            }
            if meta["stats"].get("fields"):
                st["fields"] = {}
                for fname in meta["stats"]["fields"]:
                    col = f"field_len__{fname}"
                    fl = (
                        dm.column(col).to_numpy()
                        if col in dm.schema.names else flens
                    )
                    st["fields"][fname] = {
                        "doc_count": int((fl > 0).sum()),
                        "sum_total_term_freq": int(fl.sum()),
                    }
            eff_stats.append(st)
        else:
            eff_stats.append(meta["stats"])
    return docmetas, in_metas, dels, eff_stats


def _shared_index_sort(in_metas: List[Dict]) -> Optional[List[Dict]]:
    """The common ``index_sort`` fields list when EVERY input segment was
    laid down with the identical sort, else None (a mixed merge cannot
    preserve any sort)."""
    sorts = []
    for im in in_metas:
        isort = im.get("index_sort") or {}
        fields = isort.get("fields")
        if fields is None and "field" in isort:
            fields = [{"field": isort["field"],
                       "desc": bool(isort["desc"])}]
        if not fields:
            return None
        sorts.append(fields)
    return sorts[0] if all(s == sorts[0] for s in sorts) else None


def remap_postings_rows(postings: pa.Table, ord_map: np.ndarray,
                        norm_for_field) -> pa.Table:
    """Rewrite a postings table under an ARBITRARY (non-monotonic) ordinal
    permutation — the sorted-merge DocMap (reference
    ``MergeState.DocMap`` built by ``MultiSorter.sort`` when
    ``IndexWriterConfig.getIndexSort`` is set).  Per term: decode, map
    ords, re-sort ascending, and permute freqs plus the per-OCCURRENCE
    positions/offsets/payloads blobs to match the new doc order.  Full
    O(postings) re-encode — sorted merges pay this in the reference too."""
    from lucene_solr_ray.index.postings_codec import (
        decode_postings,
        encode_postings,
    )
    from lucene_solr_ray.index.segment import FIELD_SEP, POSTINGS_SCHEMA

    has_off = "offsets" in postings.schema.names
    has_pay = "payloads" in postings.schema.names
    terms = postings.column("term").to_pylist()
    blocks = postings.column("blocks").to_pylist()
    poss = postings.column("positions").to_pylist()
    offs = (postings.column("offsets").to_pylist() if has_off
            else [None] * postings.num_rows)
    pays = (postings.column("payloads").to_pylist() if has_pay
            else [None] * postings.num_rows)
    out = {"term": [], "df": [], "ttf": [], "blocks": [], "positions": [],
           "offsets": [], "payloads": []}
    for term, blob, posblob, offblob, payblob in zip(
        terms, blocks, poss, offs, pays
    ):
        ords, freqs = decode_postings(blob)
        new_ords = ord_map[ords.astype(np.int64)]
        perm = np.argsort(new_ords, kind="mergesort")
        sorted_ords = new_ords[perm]
        sorted_freqs = freqs[perm]
        fld = term.split(FIELD_SEP, 1)[0] if FIELD_SEP in term else None
        norms = norm_for_field(fld)
        out["term"].append(term)
        out["df"].append(len(sorted_ords))
        out["ttf"].append(int(sorted_freqs.sum()))
        out["blocks"].append(
            encode_postings(sorted_ords, sorted_freqs,
                            norms[sorted_ords])
        )
        if freqs.sum() and (posblob is not None or offblob is not None
                            or payblob is not None):
            # occurrence-level gather: doc i's occurrence slice moves as
            # one unit to its new position
            starts = np.zeros(len(freqs), dtype=np.int64)
            np.cumsum(freqs[:-1], out=starts[1:])
            pf = freqs[perm].astype(np.int64)
            occ = np.repeat(starts[perm], pf) + (
                np.arange(int(pf.sum()))
                - np.repeat(np.cumsum(pf) - pf, pf)
            )
        else:
            occ = None
        if posblob is not None:
            vals = np.frombuffer(posblob or b"", dtype="<i4")
            out["positions"].append(
                vals[occ].tobytes() if occ is not None else posblob
            )
        else:
            out["positions"].append(None)
        if offblob is not None:
            pairs = np.frombuffer(offblob or b"", dtype="<i4").reshape(-1, 2)
            out["offsets"].append(
                pairs[occ].tobytes() if occ is not None else offblob
            )
        else:
            out["offsets"].append(None)
        if payblob is not None:
            pvals = np.frombuffer(payblob or b"", dtype="<f4")
            out["payloads"].append(
                pvals[occ].tobytes() if occ is not None else payblob
            )
        else:
            out["payloads"].append(None)
    return pa.table(
        {
            "term": pa.array(out["term"], pa.string()),
            "df": pa.array(np.asarray(out["df"], dtype=np.int32)),
            "ttf": pa.array(np.asarray(out["ttf"], dtype=np.int64)),
            "blocks": pa.array(out["blocks"], pa.binary()),
            "positions": pa.array(out["positions"], type=pa.binary()),
            "offsets": pa.array(out["offsets"], type=pa.binary()),
            "payloads": pa.array(out["payloads"], type=pa.binary()),
        },
        schema=POSTINGS_SCHEMA,
    )


def _merged_soft_ords(seg_dirs, dels, bases) -> np.ndarray:
    """Soft-deleted ordinals carried through a merge: per input, drop
    soft ords that are also HARD-deleted (those docs vanish), renumber
    through the compaction DocMap, rebase — soft-deleted docs stay
    soft-deleted in the merged segment, as the reference's
    soft-deletes-aware merging preserves the DV marker."""
    from lucene_solr_ray.index.softdeletes import soft_deleted_ords

    parts = []
    for d, deleted, b in zip(seg_dirs, dels, bases):
        so = soft_deleted_ords(d)
        if not len(so):
            continue
        if len(deleted):
            so = np.setdiff1d(so, deleted)
            so = so - np.searchsorted(deleted, so)
        if len(so):
            parts.append(so + b)
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(parts))


def merge_segments(index_dir: str, spec_ids: List[int], new_id: int) -> Dict:
    """Execute one merge spec → new committed segment dir; returns its meta.
    Pure function of the input segment dirs (deterministic, idempotent).
    Inputs carrying tombstones are compacted first (deleted docs dropped,
    survivors renumbered) — deletions are reclaimed here, as in Lucene."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.deletes import (
        _compacted_norm_lookup,
        compact_postings_rows,
    )

    seg_dirs = [os.path.join(index_dir, segment_dir_name(s)) for s in spec_ids]
    docmetas, in_metas, dels, eff_stats = _effective_inputs(seg_dirs)
    bases: List[int] = []
    base = 0
    for dm in docmetas:
        bases.append(base)
        base += dm.num_rows
    docmeta = pa.concat_tables(docmetas)

    # term-aligned merge WITHOUT codec work: within-block deltas are
    # (sorted inputs take the sorted-merge path below instead)
    # invariant under the ordinal rebase, so each term's merged posting
    # list is its input blobs concatenated with block headers patched by
    # the segment's doc base (postings_codec.concat_postings); df/ttf are
    # column sums. Only block headers are touched — O(blocks), not
    # O(postings).  Segments WITH deletes pay a decode-filter-reencode
    # compaction first (O(postings) for those segments only).
    tables = []
    for d, dm, deleted in zip(seg_dirs, docmetas, dels):
        t = pq.read_table(os.path.join(d, "postings.parquet"))
        if len(deleted):
            t = compact_postings_rows(t, deleted, _compacted_norm_lookup(dm))
        tables.append(t)
    postings = _merge_postings_rows(tables, bases)
    points = _merge_points(seg_dirs, bases, dels)
    soft_ords = _merged_soft_ords(seg_dirs, dels, bases)

    # sorted merge (MultiSorter.sort + MergeState.DocMap): when every
    # input shares one index_sort whose key columns ride docmeta, lay the
    # merged segment down in comparator order so it keeps the sort marker
    # and collectors can still early-terminate after the merge.  Costs a
    # full O(postings) re-encode — only sorted inputs pay it.
    shared_sort = _shared_index_sort(in_metas)
    if shared_sort is not None and all(
        f["field"] in docmeta.column_names for f in shared_sort
    ):
        from lucene_solr_ray.index.deletes import _compacted_norm_lookup

        keys = [docmeta.column("doc_id").to_numpy()]
        for f in reversed(shared_sort):
            v = docmeta.column(f["field"]).to_numpy(zero_copy_only=False)
            codes = np.unique(v, return_inverse=True)[1]
            keys.append(-codes if f["desc"] else codes)
        perm = np.lexsort(tuple(keys))
        if not np.array_equal(perm, np.arange(len(perm))):
            docmeta = docmeta.take(perm)
            ord_map = np.empty(len(perm), dtype=np.int64)
            ord_map[perm] = np.arange(len(perm))
            postings = remap_postings_rows(
                postings, ord_map, _compacted_norm_lookup(docmeta)
            )
            if points is not None:
                points = points.set_column(
                    points.schema.get_field_index("ord"), "ord",
                    pa.array(
                        ord_map[points.column("ord").to_numpy()].astype(
                            points.schema.field("ord").type.to_pandas_dtype()
                        )
                    ),
                )
            if len(soft_ords):
                soft_ords = np.sort(ord_map[soft_ords])
    else:
        shared_sort = None
    # top-level stats sum the inputs' EFFECTIVE stats (post-compaction):
    # for multi-field segments those cover the default field only (the
    # collection stats BM25's avgdl derives from), while Σ over the merged
    # term rows would also count field-prefixed terms
    stats = {
        "doc_count": docmeta.num_rows,
        "sum_total_term_freq": int(
            sum(st["sum_total_term_freq"] for st in eff_stats)
        ),
        "sum_doc_freq": int(
            postings.column("df").to_numpy().sum()
        ) if postings.num_rows else 0,
        "term_count": postings.num_rows,
    }
    # per-field stats + default_field carry through merges (multi-field)
    fields_acc: Dict[str, Dict[str, int]] = {}
    for st in eff_stats:
        for fname, fs in (st.get("fields") or {}).items():
            acc = fields_acc.setdefault(
                fname, {"doc_count": 0, "sum_total_term_freq": 0}
            )
            acc["doc_count"] += fs["doc_count"]
            acc["sum_total_term_freq"] += fs["sum_total_term_freq"]
    if fields_acc:
        stats["fields"] = fields_acc
    meta = {
        "segment_id": new_id,
        "stats": stats,
        "lineage": {"merged_from": list(spec_ids)},
        **(
            {"index_sort": {
                "fields": shared_sort,
                **(
                    {"field": shared_sort[0]["field"],
                     "desc": bool(shared_sort[0]["desc"])}
                    if len(shared_sort) == 1 else {}
                ),
            }}
            if shared_sort is not None else {}
        ),
        **(
            {"soft_del_gen": 1, "soft_del_count": int(len(soft_ords))}
            if len(soft_ords) else {}
        ),
    }
    df_field = next(
        (im.get("default_field") for im in in_metas
         if im.get("default_field")), None,
    )
    if df_field:
        meta["default_field"] = df_field
    for im in in_metas:
        if im.get("analyzer"):
            meta["analyzer"] = im["analyzer"]
            break
    for im in in_metas:
        if im.get("field_analyzers"):
            meta["field_analyzers"] = im["field_analyzers"]
            break
    nf = next(
        (im.get("numeric_fields") for im in in_metas
         if im.get("numeric_fields")), None,
    )
    if nf:
        meta["numeric_fields"] = nf
    extra = None
    if len(soft_ords):
        extra = {sidecars.file_name(sidecars.SOFT, 1):
                 sidecars.table(soft_ords)}
    write_segment_dir(index_dir, new_id, postings, docmeta, meta,
                      points=points, extra_files=extra)
    return meta


def _merge_points(seg_dirs: List[str], bases: List[int], dels):
    """Merge the inputs' points.parquet (numeric point fields), rebasing
    ords and compacting tombstones with the same DocMap as postings."""
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.points import merge_points_tables

    tabs = []
    any_points = False
    for d in seg_dirs:
        p = os.path.join(d, "points.parquet")
        if os.path.exists(p):
            tabs.append(pq.read_table(p))
            any_points = True
        else:
            tabs.append(None)
    if not any_points:
        return None
    return merge_points_tables(tabs, bases, dels)


def merge_segments_sharded(
    index_dir: str, spec_ids: List[int], new_id: int, num_shards: int = 8,
) -> Dict:
    """Term-range-sharded merge for specs too big for one task's CPU: the
    term space is split at sampled boundaries; each Ray task merges ONE
    range (parquet row-group statistics prune each input's read to the
    range — terms are sorted on disk), writing a part file; the finalize
    step streams the parts into the final postings.parquet row-group by
    row-group (bounded memory).  This is the groupby(term-range) shuffle
    of the north rule's skew story — a stop-word-scale posting list still
    lands in ONE range, but concat_postings makes its work O(blocks).
    Byte-identical output to :func:`merge_segments`."""
    import json
    import shutil
    import uuid

    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data

    from lucene_solr_ray.index.deletes import compact_postings_rows

    seg_dirs = [os.path.join(index_dir, segment_dir_name(s)) for s in spec_ids]
    docmetas, in_metas, dels, eff_stats = _effective_inputs(seg_dirs)
    bases: List[int] = []
    base = 0
    for dm in docmetas:
        bases.append(base)
        base += dm.num_rows
    docmeta = pa.concat_tables(docmetas)

    # sorted merge in sharded form: the global comparator permutation is
    # computed ONCE on the driver (docmeta is already here for the
    # finalize step) and the DocMap broadcast to every term-range task,
    # which remaps its rows after the concat — term order within a range
    # is untouched, so the streamed finalize stays term-sorted and the
    # output is byte-identical to the single-task sorted path.
    shared_sort = _shared_index_sort(in_metas)
    ord_map = None
    if shared_sort is not None and all(
        f["field"] in docmeta.column_names for f in shared_sort
    ):
        keys = [docmeta.column("doc_id").to_numpy()]
        for f in reversed(shared_sort):
            v = docmeta.column(f["field"]).to_numpy(zero_copy_only=False)
            codes = np.unique(v, return_inverse=True)[1]
            keys.append(-codes if f["desc"] else codes)
        perm = np.lexsort(tuple(keys))
        if not np.array_equal(perm, np.arange(len(perm))):
            docmeta = docmeta.take(perm)
            ord_map = np.empty(len(perm), dtype=np.int64)
            ord_map[perm] = np.arange(len(perm))
    else:
        shared_sort = None
    soft_ords = _merged_soft_ords(seg_dirs, dels, bases)
    if ord_map is not None and len(soft_ords):
        soft_ords = np.sort(ord_map[soft_ords])
    sorted_norms: Dict[Optional[str], np.ndarray] = {}
    if ord_map is not None:
        sorted_norms[None] = docmeta.column("norm").to_numpy()
        for c in docmeta.schema.names:
            if c.startswith("norm__"):
                sorted_norms[c[len("norm__"):]] = docmeta.column(
                    c
                ).to_numpy()
    ord_map_ref = ray.put(ord_map) if ord_map is not None else None
    sorted_norms_ref = (
        ray.put(sorted_norms) if ord_map is not None else None
    )
    # per-segment compacted norm arrays (uint8) for re-encode impacts —
    # small enough to ride the task closure / object store broadcast
    seg_norms: List[Dict[Optional[str], np.ndarray]] = []
    for dm in docmetas:
        m: Dict[Optional[str], np.ndarray] = {
            None: dm.column("norm").to_numpy()
        }
        for c in dm.schema.names:
            if c.startswith("norm__"):
                m[c[len("norm__"):]] = dm.column(c).to_numpy()
        seg_norms.append(m)

    # boundaries: quantile terms of the largest input's dictionary
    big = max(seg_dirs, key=lambda d: os.path.getsize(
        os.path.join(d, "postings.parquet")))
    terms = pq.read_table(
        os.path.join(big, "postings.parquet"), columns=["term"]
    ).column("term").to_pylist()
    cuts = [
        terms[(len(terms) * i) // num_shards]
        for i in range(1, num_shards)
    ] if terms else []
    cuts = sorted(set(cuts))
    ranges = []
    lo = None
    for c in cuts:
        ranges.append((lo, c))
        lo = c
    ranges.append((lo, None))

    tmp_parts = os.path.join(
        index_dir, f".merge-{new_id}.parts-{uuid.uuid4().hex[:8]}"
    )
    os.makedirs(tmp_parts, exist_ok=True)

    def _one_range(batch: pa.Table) -> pa.Table:
        out_rows = []
        for row in batch.to_pylist():
            lo_, hi_, ri = row["lo"], row["hi"], row["ri"]
            filt = None
            if lo_ is not None:
                filt = pc.field("term") >= lo_
            if hi_ is not None:
                f2 = pc.field("term") < hi_
                filt = f2 if filt is None else (filt & f2)
            tables = []
            for si, d in enumerate(seg_dirs):
                dsrc = pads.dataset(
                    os.path.join(d, "postings.parquet"), format="parquet"
                )
                t = (
                    dsrc.to_table(filter=filt) if filt is not None
                    else dsrc.to_table()
                )
                if len(dels[si]):
                    nm = seg_norms[si]
                    t = compact_postings_rows(
                        t, dels[si],
                        lambda fld, _nm=nm: _nm.get(
                            fld,
                            np.zeros(
                                len(_nm[None]), dtype=np.uint8
                            ),
                        ),
                    )
                tables.append(t)
            part = _merge_postings_rows(tables, bases)
            if ord_map_ref is not None:
                om = ray.get(ord_map_ref)
                nm = ray.get(sorted_norms_ref)
                part = remap_postings_rows(
                    part, om,
                    lambda fld, _nm=nm: _nm.get(
                        fld, np.zeros(len(_nm[None]), dtype=np.uint8)
                    ),
                )
            pq.write_table(
                part, os.path.join(tmp_parts, f"part-{ri:04d}.parquet"),
                compression="zstd",
            )
            out_rows.append({"ri": ri, "terms": part.num_rows})
        return pa.Table.from_pylist(out_rows)

    items = [
        {"lo": lo_, "hi": hi_, "ri": i}
        for i, (lo_, hi_) in enumerate(ranges)
    ]
    ray.data.from_items(items, override_num_blocks=len(items)).map_batches(
        _one_range, batch_size=1, batch_format="pyarrow"
    ).take_all()

    # finalize: stream parts (in term order) into one postings file
    final_tmp = os.path.join(
        index_dir, segment_dir_name(new_id) + ".tmp-" + uuid.uuid4().hex[:8]
    )
    os.makedirs(final_tmp, exist_ok=True)
    writer = None
    df_total = 0
    n_terms = 0
    for i in range(len(ranges)):
        part = pq.read_table(os.path.join(tmp_parts, f"part-{i:04d}.parquet"))
        if writer is None:
            writer = pq.ParquetWriter(
                os.path.join(final_tmp, "postings.parquet"), part.schema,
                compression="zstd",
            )
        if part.num_rows:
            writer.write_table(part)
            df_total += int(part.column("df").to_numpy().sum())
        n_terms += part.num_rows
    if writer is not None:
        writer.close()
    shutil.rmtree(tmp_parts, ignore_errors=True)
    pq.write_table(
        docmeta, os.path.join(final_tmp, "docmeta.parquet"),
        compression="zstd",
    )
    points = _merge_points(seg_dirs, bases, dels)
    if points is not None:
        if ord_map is not None:
            points = points.set_column(
                points.schema.get_field_index("ord"), "ord",
                pa.array(
                    ord_map[points.column("ord").to_numpy()].astype(
                        points.schema.field("ord").type.to_pandas_dtype()
                    )
                ),
            )
        pq.write_table(
            points, os.path.join(final_tmp, "points.parquet"),
            compression="zstd",
        )
    if len(soft_ords):
        sidecars.write(final_tmp, sidecars.SOFT, 1, soft_ords)
    stats = {
        "doc_count": docmeta.num_rows,
        "sum_total_term_freq": int(
            sum(st["sum_total_term_freq"] for st in eff_stats)
        ),
        "sum_doc_freq": df_total,
        "term_count": n_terms,
    }
    fields_acc: Dict[str, Dict[str, int]] = {}
    for st in eff_stats:
        for fname, fs in (st.get("fields") or {}).items():
            acc = fields_acc.setdefault(
                fname, {"doc_count": 0, "sum_total_term_freq": 0}
            )
            acc["doc_count"] += fs["doc_count"]
            acc["sum_total_term_freq"] += fs["sum_total_term_freq"]
    if fields_acc:
        stats["fields"] = fields_acc
    meta = {
        "segment_id": new_id,
        "stats": stats,
        "lineage": {"merged_from": list(spec_ids), "sharded": len(ranges)},
        **(
            {"index_sort": {
                "fields": shared_sort,
                **(
                    {"field": shared_sort[0]["field"],
                     "desc": bool(shared_sort[0]["desc"])}
                    if len(shared_sort) == 1 else {}
                ),
            }}
            if shared_sort is not None else {}
        ),
        **(
            {"soft_del_gen": 1, "soft_del_count": int(len(soft_ords))}
            if len(soft_ords) else {}
        ),
    }
    df_field = next(
        (im.get("default_field") for im in in_metas
         if im.get("default_field")), None,
    )
    if df_field:
        meta["default_field"] = df_field
    for im in in_metas:
        if im.get("analyzer"):
            meta["analyzer"] = im["analyzer"]
            break
    for im in in_metas:
        if im.get("field_analyzers"):
            meta["field_analyzers"] = im["field_analyzers"]
            break
    nf = next(
        (im.get("numeric_fields") for im in in_metas
         if im.get("numeric_fields")), None,
    )
    if nf:
        meta["numeric_fields"] = nf
    with open(os.path.join(final_tmp, "segment.json"), "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    final = os.path.join(index_dir, segment_dir_name(new_id))
    try:
        os.rename(final_tmp, final)
    except OSError:
        if os.path.isdir(final):
            shutil.rmtree(final_tmp, ignore_errors=True)
        else:
            raise
    return meta


#: specs above this size run term-range-sharded (one task per range)
SHARDED_MERGE_THRESHOLD = 512 * 1024 * 1024


def merge_once(
    index_dir: str, policy: Optional[TieredMergePolicy] = None,
    drop_merged: bool = True,
    shard_threshold_bytes: int = SHARDED_MERGE_THRESHOLD,
) -> int:
    """One merge round: policy over the latest manifest, execute specs in
    parallel (Ray tasks via a Dataset over specs), commit the next
    generation. Returns the number of merges executed."""
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
    next_id = max(live) + 1
    small_items = []
    big = []
    for i, sp in enumerate(specs):
        if sp.total_bytes > shard_threshold_bytes:
            big.append({"spec_ids": list(sp.segment_ids),
                        "new_id": next_id + i})
        else:
            small_items.append({"spec_ids": list(sp.segment_ids),
                                "new_id": next_id + i})

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
    for row in big:
        # over-threshold merges parallelize internally by term range
        merge_segments_sharded(index_dir, row["spec_ids"], row["new_id"])

    merged_away = {sid for sp in specs for sid in sp.segment_ids}
    survivors = [m for sid, m in live.items() if sid not in merged_away]
    new_metas = list_valid_segments(index_dir)
    for i in range(len(specs)):
        survivors.append(new_metas[next_id + i])
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
