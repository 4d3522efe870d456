"""Generation-stamped per-segment sidecar files and their commit points.

Segments stay immutable; what changes after a segment is written rides
in sidecar files next to it, one new file per generation — the
reference's ``.liv`` live-docs files and ``.dvd`` doc-values update
generations (``codecs/lucene50/Lucene50LiveDocsFormat.java:30-60``,
``index/ReadersAndUpdates.java``).  A sidecar is visible only once the
committed ``manifest-N.json`` names its generation in the segment's
entry (``SegmentCommitInfo.getDelGen()/getDocValuesGen()``): a crash
between the sidecar write and the commit leaves the previous commit
point intact, and the orphan file is superseded by the next generation.

This module is the only code that knows the format.  A sidecar *kind*
and its manifest entry fields:

- ``deletes-<gen>.parquet`` — hard tombstones; ``del_gen``/``del_count``;
- ``softdel-<gen>.parquet`` — soft tombstones;
  ``soft_del_gen``/``soft_del_count``;
- ``dvu-<field>-<gen>.parquet`` — one field's doc-values overlay;
  ``dv_gens[field]``.

Every file holds a sorted ``ord:int32`` column (segment-local ordinals),
plus an aligned ``value:int64`` column for a doc-values overlay, written
zstd-compressed via tmp+rename.

Write passes are segment collectors: each returns one row per
(segment, kind) from :func:`advance`, and :func:`write_pass` folds the
rows into the manifest's segment entries.  There are three: the one
tombstone pass, which writes ``deletes`` or ``softdel`` and differs by
kind alone (``deletes.tombstone_pass``; an update's runs uncommitted
inside the one flush, ``deletes.flush``), the soft-deletes policy, and
the doc-values update.  A query-keyed pass runs as ``Index.scan``; an
id-keyed one reads only ``doc_id`` and the sidecars, less work than a Ray
Data job's dispatch, so it runs on the driver over ``Index.readers()``
(as ``IndexWriter`` applies id deletes, ``FrozenBufferedUpdates``).
"""

from __future__ import annotations

import os
import re
import uuid
from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_solr_ray.index.manifest import (
    SEGMENT_PREFIX,
    commit_manifest,
    read_latest_manifest,
)

DELETES = "deletes"
SOFT = "softdel"
_DVU = "dvu-"
_NAME_RE = re.compile(r"^(deletes|softdel|dvu-.+)-(\d+)\.parquet$")


def dvu(field: str) -> str:
    """The sidecar kind of ``field``'s doc-values overlay."""
    return _DVU + field


def file_name(kind: str, gen: int) -> str:
    return f"{kind}-{int(gen)}.parquet"


def is_sidecar(name: str) -> bool:
    return _NAME_RE.match(name) is not None


def dv_fields(gens: Dict[str, int]) -> Dict[str, int]:
    """{field: gen} of the doc-values overlays among ``gens``."""
    return {k[len(_DVU):]: g for k, g in gens.items() if k.startswith(_DVU)}


def entry_gens(entry: Dict) -> Dict[str, int]:
    """{kind: gen} of the sidecars a manifest segment entry names."""
    gens = {DELETES: int(entry.get("del_gen", 0)),
            SOFT: int(entry.get("soft_del_gen", 0))}
    for field, g in (entry.get("dv_gens") or {}).items():
        gens[dvu(field)] = int(g)
    return {k: g for k, g in gens.items() if g > 0}


def committed_files(entry: Dict) -> List[str]:
    """File names of the sidecars a manifest segment entry names."""
    return [file_name(k, g) for k, g in entry_gens(entry).items()]


def _files(seg_dir: str) -> List[Tuple[str, int]]:
    """(kind, gen) of every sidecar file in the dir, committed or not."""
    try:
        names = os.listdir(seg_dir)
    except OSError:
        return []
    return [(m.group(1), int(m.group(2)))
            for m in map(_NAME_RE.match, names) if m]


def on_disk(seg_dir: str) -> Dict[str, int]:
    """{kind: newest generation} of the sidecar files in the dir,
    committed or not (next-generation choice is NOT made from this —
    writers advance the committed generation)."""
    out: Dict[str, int] = {}
    for kind, gen in _files(seg_dir):
        out[kind] = max(gen, out.get(kind, gen))
    return out


def orphans(seg_dir: str, gens: Dict[str, int]) -> List[str]:
    """Sorted names of the sidecar files newer than the generation
    ``gens`` gives their kind: written by a pass that never committed."""
    return sorted(file_name(kind, gen) for kind, gen in _files(seg_dir)
                  if gen > gens.get(kind, 0))


def committed_segment(seg_dir: str) -> Optional[Dict]:
    """This segment's entry in the COMMITTED manifest of the enclosing
    index directory, or None if the segment is standalone (no manifest,
    or not listed in it)."""
    base = os.path.basename(os.path.normpath(seg_dir))
    if not base.startswith(SEGMENT_PREFIX):
        return None
    try:
        seg_id = int(base[len(SEGMENT_PREFIX):])
    except ValueError:
        return None
    manifest = read_latest_manifest(os.path.dirname(os.path.normpath(seg_dir)))
    if manifest is None:
        return None
    for s in manifest["segments"]:
        if int(s["segment_id"]) == seg_id:
            return s
    return None


def segment_gens(seg_dir: str) -> Dict[str, int]:
    """{kind: gen} visible to a reader of this segment: the committed
    manifest's, or the newest on disk for a standalone segment dir."""
    entry = committed_segment(seg_dir)
    return on_disk(seg_dir) if entry is None else entry_gens(entry)


def read(seg_dir: str, kind: str, gen: int) -> Optional[pa.Table]:
    """Generation ``gen`` of ``kind`` as stored, or None for gen 0."""
    if gen <= 0:
        return None
    return pq.read_table(os.path.join(seg_dir, file_name(kind, gen)))


def read_ords(seg_dir: str, gens: Dict[str, int], kind: str) -> np.ndarray:
    """Sorted int64 ordinals of ``kind`` at its generation in ``gens``."""
    t = read(seg_dir, kind, gens.get(kind, 0))
    if t is None:
        return np.empty(0, dtype=np.int64)
    return np.sort(t.column("ord").to_numpy().astype(np.int64))


def table(ords: np.ndarray, values: Optional[np.ndarray] = None) -> pa.Table:
    """The on-disk table: ``ord:int32`` ascending (+ aligned
    ``value:int64``)."""
    order = np.argsort(ords, kind="stable")
    cols = {"ord": pa.array(np.asarray(ords)[order].astype(np.int32))}
    if values is not None:
        cols["value"] = pa.array(np.asarray(values)[order].astype(np.int64))
    return pa.table(cols)


def write(seg_dir: str, kind: str, gen: int, ords: np.ndarray,
          values: Optional[np.ndarray] = None) -> str:
    """Atomically write generation ``gen`` of ``kind`` (tmp + rename)."""
    name = file_name(kind, gen)
    tmp = os.path.join(seg_dir, f".{name}.tmp-{uuid.uuid4().hex[:8]}")
    pq.write_table(table(ords, values), tmp, compression="zstd")
    os.rename(tmp, os.path.join(seg_dir, name))
    return name


def advance(reader, seg_ord: int, kind: str, ords: np.ndarray,
            changed: bool, values: Optional[np.ndarray] = None) -> Dict:
    """Collector step: when ``changed``, write ``ords`` (+ ``values``) as
    the generation after the reader's committed one; return the
    segment's manifest row for :func:`write_pass`."""
    gen = reader.sidecar_gens.get(kind, 0)
    if changed:
        gen += 1
        write(reader.seg_dir, kind, gen, ords, values)
    return {"seg_ord": int(seg_ord), "kind": kind, "gen": gen,
            "count": int(len(ords))}


def _apply_row(entry: Dict, kind: str, gen: int, count: int) -> None:
    if kind == DELETES:
        entry.update(del_gen=gen, del_count=count)
    elif kind == SOFT:
        entry.update(soft_del_gen=gen, soft_del_count=count)
    elif gen > 0:
        entry["dv_gens"] = {**entry.get("dv_gens", {}),
                            kind[len(_DVU):]: gen}


def write_pass(idx, rows, commit: bool = True):
    """Fold the :func:`advance` rows of a write collector over the open
    ``Index`` ``idx`` into the manifest's segment entries: rows from
    ``collect(idx.readers()).to_pylist()`` for an id-keyed pass, from
    ``idx.scan(collect).take_all()`` for a query-keyed one.  Commits one
    new manifest generation and returns it, or with ``commit=False``
    returns the updated segment entries so the caller can fold more
    changes into the same commit."""
    segs = [dict(s) for s in idx.manifest["segments"]]
    for r in rows:
        _apply_row(segs[int(r["seg_ord"])], r["kind"], int(r["gen"]),
                   int(r["count"]))
    return commit_manifest(idx.index_dir, segs) if commit else segs
