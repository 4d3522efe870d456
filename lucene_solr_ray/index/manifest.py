"""Commit points: atomic per-segment + global manifests (segments_N analogue).

Mirrors the reference's two-phase commit protocol at the filesystem level:
``segments_N`` lists the live segments and a generation counter
(``lucene/core/src/java/org/apache/lucene/index/SegmentInfos.java:57-67,
135-136``; ``IndexWriter.prepareCommit``/``commitInternal``
``index/IndexWriter.java:3130,3427``).  Ours:

- each segment directory ``seg_<id>/`` is written under a temp name and
  atomically renamed into place; it contains ``postings.parquet``,
  ``docmeta.parquet`` and ``segment.json`` (stats + lineage: input file
  relative to the index directory, row range, doc_base, content-sha256
  roll-up);
- ``manifest-<N>.json`` lists the live segment dirs plus summed collection
  stats; written via tmp+rename; the largest N wins (generation counter).

Resume: a rerun lists valid segment dirs, skips their shards, and commits a
new generation — the checkpoint/lineage requirement of the north rule.
"""

from __future__ import annotations

import json
import os
import re
import uuid
from typing import Dict, List, Optional

__all__ = [
    "SEGMENT_PREFIX",
    "segment_dir_name",
    "next_segment_id",
    "write_segment_dir",
    "read_segment_meta",
    "list_valid_segments",
    "commit_manifest",
    "read_latest_manifest",
    "list_generations",
    "read_manifest",
    "rollback",
    "vacuum",
    "replicate",
]

SEGMENT_PREFIX = "seg_"
_MANIFEST_RE = re.compile(r"^manifest-(\d+)\.json$")
_SEGMENT_RE = re.compile(r"^" + SEGMENT_PREFIX + r"(\d+)$")


def segment_dir_name(segment_id: int) -> str:
    return f"{SEGMENT_PREFIX}{segment_id:06d}"


def next_segment_id(out_dir: str, manifest: Dict) -> int:
    """The id for a new segment: past every id the manifest lists AND
    every ``seg_<id>`` dir on disk, committed or not.  A dir left by a
    rolled-back commit or by a write that crashed before its commit is
    not live, but :func:`write_segment_dir` keeps an existing dir, so
    reusing its id would publish the stale segment in place of the new
    one."""
    ids = [s["segment_id"] for s in manifest["segments"]]
    for name in os.listdir(out_dir):
        m = _SEGMENT_RE.match(name)
        if m:
            ids.append(int(m.group(1)))
    return max(ids, default=-1) + 1


def write_segment_dir(
    out_dir: str,
    segment_id: int,
    postings,
    docmeta,
    meta: Dict,
    points=None,
    extra_files: Optional[Dict[str, object]] = None,
) -> str:
    """Write one segment atomically (tmp dir + rename). Idempotent: if the
    final dir already exists (another attempt won), keep the existing one.
    ``postings`` is one Arrow table, or an iterable of term-ordered part
    tables streamed in as one row group each (bounded memory).
    ``extra_files`` maps file names to Arrow tables written alongside
    (e.g. a carried-through soft-delete sidecar) INSIDE the atomic
    rename, so the meta never references a missing file."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_ray.index.segment import postings_writer

    final = os.path.join(out_dir, segment_dir_name(segment_id))
    if os.path.isdir(final) and os.path.exists(
        os.path.join(final, "segment.json")
    ):
        return final
    tmp = final + ".tmp-" + uuid.uuid4().hex[:8]
    os.makedirs(tmp, exist_ok=True)
    with postings_writer(os.path.join(tmp, "postings.parquet")) as writer:
        for part in ([postings] if isinstance(postings, pa.Table)
                     else postings):
            if part.num_rows:
                writer.write_table(part)
    pq.write_table(
        docmeta, os.path.join(tmp, "docmeta.parquet"), compression="zstd"
    )
    if points is not None:
        pq.write_table(
            points, os.path.join(tmp, "points.parquet"), compression="zstd"
        )
    for name, table in (extra_files or {}).items():
        pq.write_table(table, os.path.join(tmp, name), compression="zstd")
    with open(os.path.join(tmp, "segment.json"), "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    try:
        os.rename(tmp, final)
    except OSError:
        # lost the race to a concurrent retry — its segment is identical
        # (build is deterministic); drop ours
        import shutil

        if os.path.isdir(final):
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            raise
    return final


def read_segment_meta(seg_dir: str) -> Optional[Dict]:
    p = os.path.join(seg_dir, "segment.json")
    try:
        with open(p) as f:
            meta = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
    for fn in ("postings.parquet", "docmeta.parquet"):
        if not os.path.exists(os.path.join(seg_dir, fn)):
            return None
    return meta


def list_valid_segments(out_dir: str) -> Dict[int, Dict]:
    """segment_id → meta for every valid committed segment dir on disk."""
    out: Dict[int, Dict] = {}
    if not os.path.isdir(out_dir):
        return out
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith(SEGMENT_PREFIX) or ".tmp-" in name:
            continue
        meta = read_segment_meta(os.path.join(out_dir, name))
        if meta is not None:
            out[int(name[len(SEGMENT_PREFIX):])] = meta
    return out


def commit_manifest(out_dir: str, segments: List[Dict]) -> Dict:
    """Write the next-generation global manifest atomically; returns it."""
    os.makedirs(out_dir, exist_ok=True)
    gen = 0
    for name in os.listdir(out_dir):
        m = _MANIFEST_RE.match(name)
        if m:
            gen = max(gen, int(m.group(1)) + 1)
    manifest = {
        "generation": gen,
        "segments": sorted(segments, key=lambda s: s["segment_id"]),
        # maxDoc semantics: tombstoned docs still count here (and in the
        # collection stats) until a merge reclaims them, as in Lucene
        "doc_count": sum(s["stats"]["doc_count"] for s in segments),
        "live_doc_count": sum(
            s["stats"]["doc_count"] - int(s.get("del_count", 0))
            for s in segments
        ),
        "sum_total_term_freq": sum(
            s["stats"]["sum_total_term_freq"] for s in segments
        ),
        "sum_doc_freq": sum(s["stats"]["sum_doc_freq"] for s in segments),
    }
    # per-field collection stats (multi-field indexes)
    fields: Dict[str, Dict[str, int]] = {}
    for s in segments:
        for f, fs in (s["stats"].get("fields") or {}).items():
            acc = fields.setdefault(
                f, {"doc_count": 0, "sum_total_term_freq": 0}
            )
            acc["doc_count"] += fs["doc_count"]
            acc["sum_total_term_freq"] += fs["sum_total_term_freq"]
    if fields:
        manifest["fields"] = fields
    if segments and segments[0].get("default_field"):
        manifest["default_field"] = segments[0]["default_field"]
    # analyzer specs (PerFieldAnalyzerWrapper reconstruction at query time)
    if segments and segments[0].get("analyzer"):
        manifest["analyzer"] = segments[0]["analyzer"]
    if segments and segments[0].get("field_analyzers"):
        manifest["field_analyzers"] = segments[0]["field_analyzers"]
    if segments and segments[0].get("numeric_fields"):
        manifest["numeric_fields"] = segments[0]["numeric_fields"]
    tmp = os.path.join(out_dir, f".manifest-{gen}.json.tmp-{uuid.uuid4().hex[:8]}")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.rename(tmp, os.path.join(out_dir, f"manifest-{gen}.json"))
    return manifest


def read_latest_manifest(out_dir: str) -> Optional[Dict]:
    best = None
    best_gen = -1
    if not os.path.isdir(out_dir):
        return None
    for name in os.listdir(out_dir):
        m = _MANIFEST_RE.match(name)
        if m and int(m.group(1)) > best_gen:
            best_gen = int(m.group(1))
            best = name
    if best is None:
        return None
    with open(os.path.join(out_dir, best)) as f:
        return json.load(f)


def list_generations(out_dir: str) -> List[int]:
    """All committed manifest generations, ascending."""
    gens = []
    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            m = _MANIFEST_RE.match(name)
            if m:
                gens.append(int(m.group(1)))
    return sorted(gens)


def read_manifest(out_dir: str, generation: int) -> Optional[Dict]:
    p = os.path.join(out_dir, f"manifest-{generation}.json")
    try:
        with open(p) as f:
            return json.load(f)
    except OSError:
        return None


def rollback(out_dir: str, generation: int) -> Dict:
    """Roll back to an earlier commit point: re-commit generation G's
    segment list as the NEXT generation (``IndexWriter.rollback`` /
    ``IndexDeletionPolicy`` commit points, reference
    ``index/IndexDeletionPolicy.java``).  Fails if any of G's segment dirs
    has been vacuumed away."""
    m = read_manifest(out_dir, generation)
    if m is None:
        raise FileNotFoundError(
            f"no manifest generation {generation} in {out_dir}"
        )
    for s in m["segments"]:
        d = os.path.join(out_dir, segment_dir_name(s["segment_id"]))
        if read_segment_meta(d) is None:
            raise FileNotFoundError(
                f"segment {s['segment_id']} of generation {generation} "
                "has been vacuumed; rollback impossible"
            )
    return commit_manifest(out_dir, m["segments"])


def vacuum(out_dir: str, keep_generations: int = 2) -> List[int]:
    """Delete segment dirs referenced ONLY by manifests older than the
    newest ``keep_generations`` (the ``IndexFileDeleter`` role with a
    KeepLastN deletion policy: point-in-time readers of recent commits
    stay valid; merge itself never deletes when run with
    ``drop_merged=False``).  Returns the dropped segment ids."""
    import shutil

    gens = list_generations(out_dir)
    keep = set(gens[-keep_generations:]) if keep_generations else set()
    live: set = set()
    for g in keep:
        m = read_manifest(out_dir, g)
        if m:
            live.update(s["segment_id"] for s in m["segments"])
    dropped = []
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith(SEGMENT_PREFIX) or ".tmp-" in name:
            continue
        sid = int(name[len(SEGMENT_PREFIX):])
        if sid not in live:
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
            dropped.append(sid)
    # old manifests go too (their commit points are no longer honored)
    for g in gens:
        if g not in keep:
            try:
                os.remove(os.path.join(out_dir, f"manifest-{g}.json"))
            except OSError:
                pass
    return dropped


def _same_stat(a: str, b: str) -> bool:
    """Same size and mtime (``shutil.copy2`` keeps the mtime)."""
    try:
        sa, sb = os.stat(a), os.stat(b)
    except OSError:
        return False
    return (sa.st_size, sa.st_mtime_ns) == (sb.st_size, sb.st_mtime_ns)


def replicate(src_dir: str, dest_dir: str) -> Dict:
    """Replicate the LATEST commit point to another directory (the
    replicator module's role, reference ``lucene/replicator/src/java/org/
    apache/lucene/replicator/IndexReplicationHandler.java``): copy the
    manifest's segment dirs (skipping ones already present — segment
    immutability makes the copy resumable and incremental, exactly the
    revision-file diffing the reference does), then commit the manifest
    LAST so a reader of ``dest_dir`` only ever sees a complete commit."""
    import shutil

    from lucene_solr_ray.index import sidecars

    m = read_latest_manifest(src_dir)
    if m is None:
        raise FileNotFoundError(f"no manifest in {src_dir}")
    os.makedirs(dest_dir, exist_ok=True)
    copied = []
    side_copied = []
    for s in m["segments"]:
        name = segment_dir_name(s["segment_id"])
        sdir = os.path.join(src_dir, name)
        ddir = os.path.join(dest_dir, name)
        want = sidecars.committed_files(s)
        if read_segment_meta(ddir) is not None:
            # segment CORE files are immutable, but delete / DV-update /
            # soft-delete sidecars are generation-stamped files added
            # later INSIDE the dir — the manifest committed below
            # references their generations, so they must ship too (the
            # reference replicator diffs revision FILES, carrying .liv /
            # .dvd updates, IndexReplicationHandler.java).  Only the
            # generations the source COMMIT names ship — an orphan (a
            # crashed write) must not — and a replica file of the same
            # name but another size or mtime (an orphan that generation
            # has since replaced) is overwritten.
            for fn in want:
                src, dst = os.path.join(sdir, fn), os.path.join(ddir, fn)
                if _same_stat(src, dst):
                    continue
                tmpf = os.path.join(ddir, f".{fn}.tmp-{uuid.uuid4().hex[:8]}")
                shutil.copy2(src, tmpf)
                os.rename(tmpf, dst)
                side_copied.append(f"{name}/{fn}")
            continue
        tmp = ddir + ".tmp-" + uuid.uuid4().hex[:8]
        shutil.copytree(sdir, tmp, ignore=lambda _, names: [
            n for n in names if sidecars.is_sidecar(n) and n not in want
        ])
        os.rename(tmp, ddir)
        copied.append(s["segment_id"])
    # commit LAST so replica readers only ever see a complete commit point
    out = commit_manifest(dest_dir, m["segments"])
    return {"generation": out["generation"], "copied_segments": copied,
            "copied_sidecars": side_copied,
            "doc_count": out["doc_count"]}
