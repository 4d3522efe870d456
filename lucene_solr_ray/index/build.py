"""Distributed index build: corpus Parquet → committed segment manifests.

The Ray-Data shape of the reference ingest path
(``IndexWriter.addDocument`` → DWPT → flush,
``lucene/core/src/java/org/apache/lucene/index/DocumentsWriter.java:55-99``):

1. **Plan shards** from Parquet *metadata only* (row counts per file) —
   contiguous row slices of ``target docs per segment``, each with a
   deterministic ``segment_id`` and global ``doc_base``.  This is the
   docID-assignment rule (doc_id = doc_base + row offset), stable under any
   parallelism — the analogue of per-DWPT sequential docIDs +
   ``ctx.docBase`` rebasing.
2. **Build** — a Ray Data pipeline over the shard list; each task reads its
   own row slice (columns pruned to the text/id columns), inverts it with
   the analysis chain, and writes one segment dir atomically.  One shard =
   one segment = one task: embarrassingly parallel, no shuffle (the
   all-to-all only appears at *merge* time, as in Lucene).
3. **Commit** — sum per-segment stats, write ``manifest-N.json`` atomically.

Resume: shards whose segment dir already validates are skipped
(idempotent + deterministic ⇒ safe), then a new generation is committed.

At 100 TB scale the shard list is ~10^6 rows of metadata — tiny — while all
heavy I/O happens inside the distributed tasks; planning cost stays O(files).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

import numpy as np
import pyarrow.parquet as pq

from lucene_solr_ray.analysis.analyzer import StandardAnalyzer
from lucene_solr_ray.index import indexsort
from lucene_solr_ray.index.manifest import (
    commit_manifest,
    list_valid_segments,
    segment_dir_name,
    write_segment_dir,
)
from lucene_solr_ray.index.segment import (
    build_segment_tables,
    build_segment_tables_multi,
)

__all__ = ["plan_shards", "build_index"]

DEFAULT_DOCS_PER_SEGMENT = 100_000


def plan_shards(
    paths: Sequence[str],
    docs_per_segment: int = DEFAULT_DOCS_PER_SEGMENT,
    block_align_col: Optional[str] = None,
) -> List[Dict]:
    """Metadata-only pass: contiguous row slices with global doc bases.

    Shard boundaries snap to Parquet row-group boundaries whenever the
    groups are no larger than ~2x the target — a mid-group split makes
    every build task decompress the whole covering group to keep a slice
    (read amplification measured at ~3x for 1/3-group shards).  Groups much
    larger than the target are still split (memory cap wins).

    ``block_align_col``: parent/child BLOCK alignment (the
    ``IndexWriter.addDocuments`` atomicity contract — a block must never
    straddle segments): shard ends snap FORWARD to just after the next
    parent row (nonzero flag).  Costs one extra read of that single column
    per file at planning time."""
    shards: List[Dict] = []
    doc_base = 0
    seg_id = 0
    for path in paths:
        md = pq.ParquetFile(path).metadata
        num_rows = md.num_rows
        rg_edges = [0]
        for rg in range(md.num_row_groups):
            rg_edges.append(rg_edges[-1] + md.row_group(rg).num_rows)
        parent_pos = None
        if block_align_col is not None:
            flags = pq.read_table(
                path, columns=[block_align_col]
            ).column(block_align_col).to_numpy(zero_copy_only=False)
            parent_pos = np.nonzero(np.asarray(flags) != 0)[0]
        start = 0
        edge_i = 0
        while start < num_rows:
            want = start + docs_per_segment
            # smallest row-group edge ≥ want (snap forward), unless that
            # overshoots 2x the target — then split mid-group
            while edge_i < len(rg_edges) and rg_edges[edge_i] <= start:
                edge_i += 1
            end = None
            for j in range(edge_i, len(rg_edges)):
                if rg_edges[j] >= want:
                    if rg_edges[j] - start <= 2 * docs_per_segment:
                        end = rg_edges[j]
                    break
            if end is None:
                end = min(want, num_rows)
            end = min(end, num_rows)
            if parent_pos is not None and end < num_rows:
                # snap forward to just AFTER the next parent at/after end-1
                k = np.searchsorted(parent_pos, end - 1)
                end = (
                    int(parent_pos[k]) + 1 if k < len(parent_pos)
                    else num_rows
                )
            shards.append(
                {
                    "segment_id": seg_id,
                    "path": path,
                    "row_start": start,
                    "row_end": end,
                    "doc_base": doc_base + start,
                }
            )
            seg_id += 1
            start = end
        doc_base += num_rows
    return shards


def _read_shard_columns(shard: Dict, columns: List[str]):
    """Read [row_start, row_end) of the shard's file, pruned to columns."""
    f = pq.ParquetFile(shard["path"])
    md = f.metadata
    # find covering row groups, then slice off the overhang
    rg_first = 0
    acc = 0
    groups = []
    first_row_of_groups = None
    for rg in range(md.num_row_groups):
        n = md.row_group(rg).num_rows
        if acc + n > shard["row_start"] and acc < shard["row_end"]:
            if first_row_of_groups is None:
                first_row_of_groups = acc
            groups.append(rg)
        acc += n
        if acc >= shard["row_end"]:
            break
    if not groups:
        import pyarrow as pa

        return pa.table({c: [] for c in columns})
    t = f.read_row_groups(groups, columns=columns)
    off = shard["row_start"] - first_row_of_groups
    return t.slice(off, shard["row_end"] - shard["row_start"])


class _BuildShard:
    """One call = one shard → one committed segment dir + manifest row."""

    def __init__(
        self,
        out_dir: str,
        text_col: str,
        id_col: Optional[str],
        analyzer: StandardAnalyzer,
        with_positions: bool,
        stored_cols: Sequence[str] = (),
        extra_fields: Optional[Dict[str, str]] = None,
        with_offsets: bool = False,
        field_analyzers: Optional[Dict[str, StandardAnalyzer]] = None,
        numeric_fields: Optional[Dict[str, str]] = None,
        index_sort: Optional[tuple] = None,
        with_payloads: bool = False,
    ) -> None:
        self.out_dir = out_dir
        self.text_col = text_col
        self.id_col = id_col
        self.analyzer = analyzer
        self.with_positions = with_positions
        self.stored_cols = list(stored_cols)
        self.extra_fields = dict(extra_fields or {})
        self.with_offsets = with_offsets
        self.field_analyzers = dict(field_analyzers or {})
        self.numeric_fields = dict(numeric_fields or {})
        self.index_sort = indexsort.normalize(index_sort)
        self.with_payloads = with_payloads

    def __call__(self, batch):
        import pyarrow as pa

        rows = batch.to_pylist()
        out = []
        for shard in rows:
            out.append(self._build_one(shard))
        return pa.Table.from_pylist(out)

    def _build_one(self, shard: Dict) -> Dict:
        cols = [self.text_col] + self.stored_cols + list(
            self.extra_fields.values()
        ) + list(self.numeric_fields.values())
        if self.id_col:
            cols = [self.id_col] + cols
        if self.index_sort:
            cols.extend(f for f, _ in self.index_sort)
        t = _read_shard_columns(shard, list(dict.fromkeys(cols)))
        if self.id_col:
            doc_ids = t.column(self.id_col).to_pylist()
        else:
            doc_ids = list(
                range(shard["doc_base"], shard["doc_base"] + len(t))
            )
        if self.index_sort and len(t):
            # IndexWriterConfig.setIndexSort (IndexWriterConfig.java:465):
            # rows are laid down in comparator order so ord order == sort
            # order and collectors can terminate early.  doc_ids ride
            # with their rows — only the within-segment ordinal changes.
            perm = indexsort.permutation(self.index_sort, t, doc_ids)
            t = t.take(perm)
            doc_ids = [doc_ids[i] for i in perm]
        # text columns stay Arrow: build_segment_tables analyzes columns
        texts = t.column(self.text_col)
        if self.extra_fields:
            field_texts = {self.text_col: texts}
            for fname, colname in self.extra_fields.items():
                field_texts[fname] = t.column(colname)
            seg = build_segment_tables_multi(
                doc_ids, field_texts, self.text_col, self.analyzer,
                self.with_positions, self.with_offsets,
                self.field_analyzers,
            )
        else:
            seg = build_segment_tables(
                doc_ids, texts, self.analyzer, self.with_positions,
                self.with_offsets, self.with_payloads,
            )
        docmeta = seg.docmeta
        for c in self.stored_cols:  # docstore columns ride along docmeta
            docmeta = docmeta.append_column(c, t.column(c))
        points = None
        numeric_meta: Dict[str, str] = {}
        points_minmax: Dict[str, list] = {}
        if self.numeric_fields:
            from lucene_solr_ray.index.points import build_points_table

            field_vals = {}
            for fname, colname in self.numeric_fields.items():
                arr = t.column(colname).to_numpy(zero_copy_only=False)
                field_vals[fname] = arr
                numeric_meta[fname] = (
                    "double" if arr.dtype.kind == "f" else "int64"
                )
                fin = arr[~np.isnan(arr.astype(np.float64))] if len(arr) \
                    else arr
                if len(fin):
                    points_minmax[fname] = [float(fin.min()),
                                            float(fin.max())]
            points = build_points_table(field_vals)
        meta = {
            "segment_id": shard["segment_id"],
            "stats": seg.stats,
            **indexsort.meta_entry(self.index_sort),
            **({"default_field": self.text_col} if self.extra_fields else {}),
            **({"numeric_fields": numeric_meta} if numeric_meta else {}),
            **({"points_minmax": points_minmax} if points_minmax else {}),
            "analyzer": self.analyzer.spec(),
            **(
                {
                    "field_analyzers": {
                        f: a.spec() for f, a in self.field_analyzers.items()
                    }
                }
                if self.field_analyzers
                else {}
            ),
            "lineage": {
                # relative to the index, so that an index's bytes do not
                # depend on where the corpus and index sit
                "path": os.path.relpath(shard["path"], self.out_dir),
                "row_start": shard["row_start"],
                "row_end": shard["row_end"],
                "doc_base": shard["doc_base"],
            },
        }
        write_segment_dir(
            self.out_dir, shard["segment_id"], seg.postings, docmeta, meta,
            points=points,
        )
        return meta


def build_index(
    paths: Sequence[str] | str,
    out_dir: str,
    *,
    text_col: str = "content",
    id_col: Optional[str] = None,
    stored_cols: Sequence[str] = (),
    extra_fields: Optional[Dict[str, str]] = None,
    analyzer: Optional[StandardAnalyzer] = None,
    docs_per_segment: int = DEFAULT_DOCS_PER_SEGMENT,
    with_positions: bool = True,
    with_offsets: bool = False,
    field_analyzers: Optional[Dict[str, StandardAnalyzer]] = None,
    numeric_fields: Optional[Dict[str, str]] = None,
    block_align_col: Optional[str] = None,
    concurrency: Optional[int] = None,
    index_sort: Optional[tuple | Sequence[tuple]] = None,
    with_payloads: bool = False,
) -> Dict:
    """Build (or resume) an index over corpus Parquet; returns the manifest.

    ``index_sort=(column, descending)`` — or a multi-field
    ``[(col1, desc1), (col2, desc2), ...]``, mirroring the multi-field
    ``Sort`` that ``IndexWriterConfig.setIndexSort``
    (IndexWriterConfig.java:465) accepts — lays each segment down in the
    comparator order of :mod:`lucene_solr_ray.index.indexsort` (values in
    order, missing values greatest, then doc_id ascending).  A sorted
    search (``search_by_field``, ``search_by_fields``, ``search_grouped``
    with ``sort_field``) whose sort is a prefix of it then stops early per
    segment, with the same answer as on an unsorted index.  Sort columns
    must also be stored columns for query-time value reads.  Incompatible
    with ``block_align_col`` (sorting would tear blocks).

    Ray must already be initialised by the caller (driver contract).
    """
    import ray.data

    if index_sort and block_align_col:
        raise ValueError("index_sort is incompatible with block_align_col")

    if isinstance(paths, str):
        paths = [
            os.path.join(paths, f)
            for f in sorted(os.listdir(paths))
            if f.endswith(".parquet")
        ] if os.path.isdir(paths) else [paths]
    analyzer = analyzer or StandardAnalyzer()
    os.makedirs(out_dir, exist_ok=True)

    shards = plan_shards(paths, docs_per_segment, block_align_col)
    existing = list_valid_segments(out_dir)
    todo = [s for s in shards if s["segment_id"] not in existing]

    built: List[Dict] = [existing[s["segment_id"]] for s in shards
                         if s["segment_id"] in existing]
    if todo:
        fn = _BuildShard(
            out_dir, text_col, id_col, analyzer, with_positions, stored_cols,
            extra_fields, with_offsets, field_analyzers, numeric_fields,
            index_sort, with_payloads,
        )
        # one block per shard — map_batches parallelism follows block count,
        # so without this from_items may pack shards into few blocks and
        # serialize the build
        ds = ray.data.from_items(todo, override_num_blocks=len(todo))
        kwargs = {}
        if concurrency:
            kwargs["concurrency"] = concurrency
        res = ds.map_batches(
            fn, batch_size=1, batch_format="pyarrow", **kwargs
        )
        built.extend(res.take_all())

    # normalize nested values that Arrow may have turned into numpy scalars
    def _py(x):
        if isinstance(x, dict):
            return {k: _py(v) for k, v in x.items()}
        if hasattr(x, "item"):
            return x.item()
        return x

    built = [_py(b) for b in built]
    return commit_manifest(out_dir, built)


def segment_paths(out_dir: str, manifest: Dict) -> List[str]:
    return [
        os.path.join(out_dir, segment_dir_name(s["segment_id"]))
        for s in manifest["segments"]
    ]
