"""In-place numeric DocValues updates.

Reference: ``IndexWriter.updateNumericDocValue(Term, String, long)``
(``lucene/core/src/java/org/apache/lucene/index/IndexWriter.java:1683``)
with ``DocValuesFieldUpdates`` / ``ReadersAndUpdates``: segments stay
immutable; an update re-writes NO documents — the new values ride in a
generation-stamped per-field sidecar next to the segment,
``SegmentReader.values`` overlays the sidecar generation the reader
opened on over the base column, and merges bake the overlay into the
rewritten doc values (``SegmentReader.docmeta``), dropping the sidecar —
exactly the reference's ``.dvm``/``.dvd`` update-generation files.

Ours: ``dvu-<field>-<gen>.parquet`` with sorted ``ord:int32`` +
``value:int64`` (the reference API is long-valued).  Each new generation
carries the FULL merged overlay for its field, so readers load exactly one
file per updated field.

Ray shape (same as :mod:`lucene_solr_ray.index.deletes`): the
:func:`_collect_dv_updates` collector runs over every segment — it
resolves the term / doc-id predicate against the segment
(``deletes.matching_ords``, the tombstone pass's predicate), merges with
the overlay its reader loaded at open (new values win), writes the
next-generation sidecar atomically — then the driver commits one
manifest generation carrying per-segment ``dv_gens``.  The term form is
one ``Index.scan`` (per-task work is one postings lookup, only
(segment, generation, count) rows return); the doc-id form reads only
``doc_id`` and runs on the driver over ``Index.readers()``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Mapping, Optional, Tuple

import numpy as np
import pyarrow as pa

from lucene_solr_ray.index import sidecars
from lucene_solr_ray.index.manifest import read_latest_manifest

__all__ = [
    "update_numeric_docvalue",
    "update_numeric_docvalues_by_id",
    "segment_dv_overlay",
]

def dvu_fields(seg_dir: str) -> Dict[str, int]:
    """{field: newest on-disk generation} for every updated field in the
    dir, committed or not."""
    return sidecars.dv_fields(sidecars.on_disk(seg_dir))


def segment_dv_overlay(
    seg_dir: str, field: str, gen: Optional[int] = None
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(sorted ords, values) of the COMMITTED overlay generation for
    ``field`` (manifest-resolved unless ``gen`` is given; standalone
    segment dirs fall back to the newest on-disk sidecar), or None."""
    kind = sidecars.dvu(field)
    if gen is None:
        gen = sidecars.segment_gens(seg_dir).get(kind, 0)
    t = sidecars.read(seg_dir, kind, gen)
    if t is None:
        return None
    return (
        t.column("ord").to_numpy().astype(np.int64),
        t.column("value").to_numpy().astype(np.int64),
    )


def _merge_overlay(
    old: Optional[Tuple[np.ndarray, np.ndarray]],
    ords: np.ndarray,
    vals: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Union of overlays where the NEW assignment wins on collision."""
    if old is None or len(old[0]) == 0:
        return ords, vals
    o = np.concatenate([old[0], ords])
    v = np.concatenate([old[1], vals])
    # np.unique on the reversed array: first occurrence there == last
    # (newest) assignment in original order
    uniq, first_rev = np.unique(o[::-1], return_index=True)
    sel = len(o) - 1 - first_rev
    return uniq, v[sel]


def _collect_dv_updates(pairs, field, query=None, stats=None, value=None,
                        ids=None, id_values=None) -> pa.Table:
    """Write collector: set ``field`` on each segment's matching live docs
    (``value`` for docs matching ``query``; ``id_values`` aligned with the
    sorted doc ids ``ids``) in the overlay's next generation."""
    from lucene_solr_ray.index.deletes import matching_ords

    rows = []
    for reader, o in pairs:
        if ids is not None:
            # updates never resurrect tombstoned docs (the reference
            # drops updates to deleted docs at write time)
            ords, pos = reader.live_ords(ids)
            vals = id_values[pos]
        else:
            ords = matching_ords(reader, query, stats, None)
            vals = np.full(len(ords), int(value), dtype=np.int64)
        if len(ords):
            # merge into the overlay the reader loaded at open
            ords, vals = _merge_overlay(reader.overlay(field), ords, vals)
        rows.append(sidecars.advance(reader, o, sidecars.dvu(field), ords,
                                     len(ords) > 0, vals))
    return pa.Table.from_pylist(rows)


def update_numeric_docvalue(
    index_dir: str,
    term: str,
    field: str,
    value: int,
    term_field: Optional[str] = None,
) -> Dict:
    """Set ``field = value`` on every doc matching ``term`` — the exact
    ``IndexWriter.updateNumericDocValue(Term, field, long)`` surface.
    Returns the new manifest."""
    from lucene_solr_ray.search.query import TermQuery
    from lucene_solr_ray.search.searcher import Index

    idx = Index(index_dir)
    q = TermQuery(term, field=term_field)
    stats, _ = idx.collect_stats(sorted(set(q.terms())))
    return sidecars.write_pass(idx, idx.scan(partial(
        _collect_dv_updates, field=field, query=q, stats=stats,
        value=int(value),
    )).take_all())


def update_numeric_docvalues_by_id(
    index_dir: str, field: str, updates: Mapping[int, int]
) -> Dict:
    """Per-doc values keyed by GLOBAL doc id, in driver-sized batches:
    the pass reads each segment's ``doc_id`` column on the driver, one
    segment at a time, and starts no Ray job (the term form above is the
    scale path — one posting lookup per segment task)."""
    from lucene_solr_ray.search.searcher import Index

    if not updates:
        return read_latest_manifest(index_dir)
    ids = np.asarray(sorted(updates), dtype=np.int64)
    vals = np.asarray([int(updates[int(i)]) for i in ids], dtype=np.int64)
    idx = Index(index_dir)
    return sidecars.write_pass(idx, _collect_dv_updates(
        idx.readers(), field=field, ids=ids, id_values=vals,
    ).to_pylist())
