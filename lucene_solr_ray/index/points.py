"""Indexed numeric point fields — the flat-sorted analogue of the BKD tree.

The reference indexes numeric fields as 1-D BKD trees queried by
``PointRangeQuery`` (``lucene/core/src/java/org/apache/lucene/search/
PointRangeQuery.java:47``, ``util/bkd/BKDWriter.java:82``).  A BKD tree's
1-D case degenerates to a sorted array of (value, docID) with binary-search
range lookup — which is exactly what a columnar engine wants: per segment
we store ``points.parquet`` with one row per (field, doc): ``field:string,
value:float64, ord:int32``, sorted by (field, value, ord).  A range query
is two ``np.searchsorted`` calls per segment; the per-field min/max in the
segment meta prunes segments whose range can't intersect (the
``PointValues.getMinPackedValue`` / BKD root-cell check).

int64 values ride the float64 column exactly up to 2^53 — beyond that a
dedicated int64 column would be needed (the synthetic corpora stay far
below; the dtype is recorded per field in the manifest for parsing).

Merging sends each input's ords through its merge DocMap (rebase,
compaction and any sort permutation in one map, as postings do), then
re-sorts (a linear merge of sorted runs).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa

__all__ = ["POINTS_SCHEMA", "build_points_table", "merge_points_tables"]

POINTS_SCHEMA = pa.schema(
    [
        ("field", pa.string()),
        ("value", pa.float64()),
        ("ord", pa.int32()),
    ]
)


def build_points_table(field_values: Dict[str, np.ndarray]) -> pa.Table:
    """(field, value, ord) rows sorted by (field, value, ord); nulls (NaN)
    are dropped — a doc without a value simply never matches a range."""
    fields: List[str] = []
    vals: List[np.ndarray] = []
    ords: List[np.ndarray] = []
    for fname in sorted(field_values):
        v = np.asarray(field_values[fname], dtype=np.float64)
        o = np.arange(len(v), dtype=np.int64)
        ok = ~np.isnan(v)
        v, o = v[ok], o[ok]
        order = np.lexsort((o, v))
        fields.append(fname)
        vals.append(v[order])
        ords.append(o[order].astype(np.int32))
    if not vals:
        return pa.table(
            {"field": pa.array([], pa.string()),
             "value": pa.array([], pa.float64()),
             "ord": pa.array([], pa.int32())},
            schema=POINTS_SCHEMA,
        )
    return pa.table(
        {
            "field": pa.array(
                np.repeat(fields, [len(v) for v in vals]).tolist(),
                pa.string(),
            ),
            "value": pa.array(np.concatenate(vals)),
            "ord": pa.array(np.concatenate(ords)),
        },
        schema=POINTS_SCHEMA,
    )


def merge_points_tables(
    tables: List[Optional[pa.Table]], doc_maps: List[np.ndarray],
) -> Optional[pa.Table]:
    """Merge per-segment points through each input's DocMap (old ord →
    merged ord, −1 for a deleted doc — the map postings use).  Rows stay
    sorted by (field, value, inputs' order), so equal values keep the
    merged order from before any sort permutation."""
    parts = []
    for si, (t, doc_map) in enumerate(zip(tables, doc_maps)):
        if t is None or t.num_rows == 0:
            continue
        f = t.column("field").to_numpy(zero_copy_only=False)
        v = t.column("value").to_numpy()
        o = t.column("ord").to_numpy().astype(np.int64)
        new = doc_map[o]
        live = new >= 0
        parts.append((f[live], v[live], o[live],
                      np.full(int(live.sum()), si), new[live]))
    if not parts:
        return None
    f, v, o, src, new = (np.concatenate(c) for c in zip(*parts))
    order = np.lexsort((o, src, v, f))
    return pa.table(
        {
            "field": pa.array(f[order].tolist(), pa.string()),
            "value": pa.array(v[order]),
            "ord": pa.array(new[order].astype(np.int32)),
        },
        schema=POINTS_SCHEMA,
    )
