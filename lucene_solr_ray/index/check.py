"""CheckIndex: integrity validation of a committed index.

The reference's ``index/CheckIndex.java`` walks every segment validating
postings/terms/norms/stored fields cross-consistency.  Ours validates, per
segment (distributed — one task per segment) and globally:

- manifest ↔ segment.json agreement (ids, stats);
- the postings format is current (an older segment is one error saying
  to rebuild);
- postings content, as column operations: terms strictly sorted,
  df == len(ords) == len(freqs), ords strictly ascending within each
  list and in ``[0, doc_count)``, ttf == Σfreqs, and positions, offsets
  and payloads (when stored) of ``ttf``, ``2·ttf`` and ``ttf`` values;
- norms/docmeta row counts match doc_count; sha256 column present;
- global stats = Σ per-segment stats;
- sidecars: deletes, soft deletes and doc-values overlays hold strictly
  ascending, in-range ords, and each overlay a value per ord;
- an index-sorted segment's docmeta is in its comparator order (a legacy
  single-field marker, read as unsorted, is a warning).

Sidecars are validated at their committed generations; newer, never
committed sidecar files are reported under ``orphans``, not as errors.
Returns a report dict; ``ok`` False lists the violations found.
"""

from __future__ import annotations

import os
from typing import Dict, List

import numpy as np

from lucene_solr_ray.index import indexsort, sidecars
from lucene_solr_ray.index.manifest import read_latest_manifest, segment_dir_name
from lucene_solr_ray.index.segment import (
    OCCURRENCE_COLUMNS,
    list_views,
    outdated_format,
)

__all__ = ["check_index", "check_segment"]


def check_segment(seg_dir: str) -> Dict:
    import json

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    errors: List[str] = []
    warnings: List[str] = []
    with open(os.path.join(seg_dir, "segment.json")) as f:
        meta = json.load(f)
    stats = meta["stats"]

    dm = pq.read_table(os.path.join(seg_dir, "docmeta.parquet"))
    if dm.num_rows != stats["doc_count"]:
        errors.append(
            f"docmeta rows {dm.num_rows} != doc_count {stats['doc_count']}"
        )
    if "content_sha256" not in dm.schema.names:
        errors.append("docmeta missing content_sha256")

    n_docs = dm.num_rows
    path = os.path.join(seg_dir, "postings.parquet")
    outdated = outdated_format(seg_dir, pq.read_schema(path).names)
    if outdated:
        return {"segment_id": meta["segment_id"], "ok": False,
                "errors": [outdated], "warnings": [], "orphans": [],
                "terms": 0, "docs": n_docs}
    t = pq.read_table(path)
    terms = t.column("term")
    df = t.column("df").to_numpy()
    ttf = t.column("ttf").to_numpy()

    def report(bad: np.ndarray, what: str) -> None:
        for i in np.flatnonzero(bad)[:5]:
            errors.append(f"{terms[int(i)].as_py()!r}: {what}")

    if t.num_rows > 1:
        report(np.append(False, pc.less_equal(
            terms[1:], terms[:-1]).to_numpy(zero_copy_only=False)),
            "terms not strictly sorted")
    edges, ords = list_views(t.column("ords"))
    f_edges, freqs = list_views(t.column("freqs"))
    report(np.diff(edges) != df, "df != len(ords)")
    report(np.diff(f_edges) != df, "df != len(freqs)")
    if len(ords) == len(freqs) == edges[-1]:
        # ords ascend inside a list; the first of each list starts anew
        row = np.repeat(np.arange(t.num_rows), np.diff(edges))
        step = np.append(True, np.diff(ords.astype(np.int64)) > 0)
        step[edges[:-1][np.diff(edges) > 0]] = True
        report(np.bincount(row[~step], minlength=t.num_rows),
               "ords not strictly ascending")
        report(np.bincount(row[(ords < 0) | (ords >= n_docs)],
                           minlength=t.num_rows), "ord out of range")
        sums = np.concatenate([[0], np.cumsum(freqs, dtype=np.int64)])
        report(sums[edges[1:]] - sums[edges[:-1]] != ttf, "ttf != Σfreqs")
    for name, width in OCCURRENCE_COLUMNS:
        col = t.column(name)
        if col.null_count < len(col):
            lens = np.diff(list_views(col)[0])
            report(lens != width * ttf, f"{name} length != {width}·ttf")
    sum_df = int(df.sum())
    sum_ttf = int(ttf.sum())
    if sum_df != stats["sum_doc_freq"]:
        errors.append(f"sum_doc_freq {stats['sum_doc_freq']} != {sum_df}")
    if sum_ttf != stats["sum_total_term_freq"]:
        errors.append(
            f"sum_total_term_freq {stats['sum_total_term_freq']} != {sum_ttf}"
        )

    # live-docs sidecar (round 2): sorted, unique, in-range tombstones.
    # Sidecars are checked at the generations a reader sees (the committed
    # manifest's); a newer file no commit names is an orphan of a write
    # that never committed — listed, not validated.
    gens = sidecars.segment_gens(seg_dir)
    orphans = sidecars.orphans(seg_dir, gens)

    def sidecar_ords(kind: str) -> np.ndarray:
        t = sidecars.read(seg_dir, kind, gens.get(kind, 0))
        return np.empty(0) if t is None else t.column("ord").to_numpy()

    dords = sidecar_ords(sidecars.DELETES)
    if len(dords):
        if (np.diff(dords) <= 0).any():
            errors.append("deletes: ords not strictly ascending")
        if dords[0] < 0 or dords[-1] >= n_docs:
            errors.append("deletes: ord out of range")

    # soft-deletes sidecar (round 4): sorted, in-range.  Overlap with hard
    # tombstones is LEGAL (soft_delete then delete_by_query hard-deletes a
    # soft-deleted doc without purging the soft sidecar; a merge's DocMap
    # drops the overlap) — report it informationally,
    # not as corruption.
    sords = sidecar_ords(sidecars.SOFT)
    if len(sords):
        if (np.diff(sords) <= 0).any():
            errors.append("soft-deletes: ords not strictly ascending")
        if sords[0] < 0 or sords[-1] >= n_docs:
            errors.append("soft-deletes: ord out of range")
        if len(dords) and np.intersect1d(sords, dords).size:
            warnings.append(
                "soft-deletes: overlap with hard tombstones "
                "(hard wins; soft entry is inert)"
            )

    # doc-values overlays: per field, ords sorted, unique and in range,
    # each with its value
    for field, gen in sorted(sidecars.dv_fields(gens).items()):
        dv = sidecars.read(seg_dir, sidecars.dvu(field), gen)
        where = f"dv {field!r} gen {gen}"
        ords = dv.column("ord").to_numpy()
        if (np.diff(ords) <= 0).any():
            errors.append(f"{where}: ords not strictly ascending")
        if len(ords) and (ords.min() < 0 or ords.max() >= n_docs):
            errors.append(f"{where}: ord out of range")
        if "value" not in dv.schema.names:
            errors.append(f"{where}: no value column")
        elif dv.column("value").null_count:
            errors.append(f"{where}: values not aligned with ords")

    # index sort: docmeta rows must be in the recorded comparator order
    sort = indexsort.read(meta)
    if indexsort.has_legacy_marker(meta):
        warnings.append(
            "index_sort: legacy field/desc marker read as unsorted; merge "
            "or rebuild to restore early termination"
        )
    elif sort and all(f in dm.schema.names for f, _ in sort):
        perm = indexsort.permutation(sort, dm,
                                     dm.column("doc_id").to_numpy())
        if not np.array_equal(perm, np.arange(len(perm))):
            errors.append("index_sort: docmeta not in comparator order")

    # numeric points (round 2): per-field values ascending, ords in range
    pts_path = os.path.join(seg_dir, "points.parquet")
    if os.path.exists(pts_path):
        pt = pq.read_table(pts_path)
        fields = pt.column("field").to_pylist()
        vals = pt.column("value").to_numpy()
        pords = pt.column("ord").to_numpy()
        if len(pords) and (
            (pords < 0).any() or (pords >= n_docs).any()
        ):
            errors.append("points: ord out of range")
        start = 0
        for i in range(1, len(fields) + 1):
            if i == len(fields) or fields[i] != fields[start]:
                seg_vals = vals[start:i]
                if len(seg_vals) > 1 and (np.diff(seg_vals) < 0).any():
                    errors.append(
                        f"points: {fields[start]!r} values not sorted"
                    )
                start = i

    return {"segment_id": meta["segment_id"], "ok": not errors,
            "errors": errors[:20], "warnings": warnings[:20],
            "orphans": orphans, "terms": t.num_rows, "docs": n_docs}


def check_index(index_dir: str) -> Dict:
    """Distributed CheckIndex over all live segments + global invariants."""
    import pyarrow as pa
    import ray.data

    manifest = read_latest_manifest(index_dir)
    if manifest is None:
        return {"ok": False, "errors": ["no manifest"]}
    seg_dirs = [
        os.path.join(index_dir, segment_dir_name(s["segment_id"]))
        for s in manifest["segments"]
    ]

    def _check(t: pa.Table) -> pa.Table:
        rows = [check_segment(d) for d in t.column("seg_dir").to_pylist()]
        return pa.Table.from_pylist(
            [
                {"segment_id": r["segment_id"], "ok": r["ok"],
                 "errors": "; ".join(r["errors"]),
                 "warnings": "; ".join(r["warnings"]),
                 "orphans": ", ".join(r["orphans"]),
                 "terms": r["terms"], "docs": r["docs"]}
                for r in rows
            ]
        )

    res = (
        ray.data.from_items(
            [{"seg_dir": d} for d in seg_dirs],
            override_num_blocks=max(len(seg_dirs), 1),
        )
        .map_batches(_check, batch_format="pyarrow")
        .take_all()
    )
    errors = [f"seg {r['segment_id']}: {r['errors']}" for r in res if not r["ok"]]
    warnings = [
        f"seg {r['segment_id']}: {r['warnings']}" for r in res if r["warnings"]
    ]
    orphans = [
        f"seg {r['segment_id']}: {r['orphans']}" for r in res if r["orphans"]
    ]
    total_docs = sum(r["docs"] for r in res)
    if total_docs != manifest["doc_count"]:
        errors.append(
            f"manifest doc_count {manifest['doc_count']} != Σ segments {total_docs}"
        )
    return {
        "ok": not errors,
        "segments": len(res),
        "docs": total_docs,
        "errors": errors,
        "warnings": warnings,
        "orphans": orphans,
    }
