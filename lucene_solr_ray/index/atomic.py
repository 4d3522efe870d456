"""Atomic (partial-document) updates + tolerant update processing.

Reference: ``solr/core/src/java/org/apache/solr/update/processor/
AtomicUpdateDocumentMerger.java:57`` — an update request carrying field
ops (``{"set": v} / {"add": v} / {"remove": v} / {"inc": n}``) fetches the
CURRENT stored document, merges, and re-indexes it; updates touching only
in-place-updatable numeric docvalues fields skip re-indexing entirely
(``computeInPlaceUpdatableFields``).  ``TolerantUpdateProcessor.java:72``
isolates per-document failures: bad updates are reported, the rest of the
batch still lands.

Engine mapping:

- the DOCSTORE is the corpus parquet plus generation-stamped
  ``docstore-delta-N.parquet`` files this module appends under the index
  dir — the newest delta row wins (Solr's stored-fields + tlog view);
- IN-PLACE path: updates whose fields are all numeric docmeta columns
  compile to DV-overlay writes (``update_numeric_docvalues_by_id``);
  ``inc`` reads current values through the overlay, so chained incs are
  exact;
- RE-INDEX path: the text field is treated as the multiValued token bag
  (``set`` replaces, ``add`` appends, ``remove`` drops matching tokens);
  the merged doc re-indexes through ``update_documents`` in ONE commit,
  with every stored column propagated into the replacement segment.

Ray shape: updates arrive in driver-sized batches (they are user
requests, not data-plane volume); current-value reads run the
:func:`_collect_stored` collector on the driver over ``Index.readers()``
(each segment's ``doc_id`` column and the stored columns of at most
|ids| docs), and the writes are the id-keyed passes, so an atomic update
starts no Ray job.
"""

from __future__ import annotations

import os
import re
import uuid
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from lucene_solr_ray.analysis.analyzer import text_array
from lucene_solr_ray.index.deletes import writer_config
from lucene_solr_ray.index.manifest import read_latest_manifest

__all__ = [
    "atomic_update_documents",
    "get_current_documents",
    "stored_columns",
]

_DELTA_RE = re.compile(r"^docstore-delta-(\d+)\.parquet$")
_OPS = {"set", "add", "remove", "inc"}


def stored_columns(index_dir: str) -> List[str]:
    """The index's docstore columns: docmeta columns beyond the base
    schema (per-field norm/len pairs excluded)."""
    return _stored_schema(index_dir)[1].names


def _stored_schema(index_dir: str) -> Tuple[Dict, pa.Schema]:
    """(latest manifest, the stored columns with their Arrow types)."""
    m = read_latest_manifest(index_dir)
    if m is None:
        raise FileNotFoundError(index_dir)
    return m, writer_config(index_dir, m).stored


def _delta_files(index_dir: str) -> List[str]:
    """Docstore delta files, OLDEST first."""
    out = []
    for name in os.listdir(index_dir):
        mm = _DELTA_RE.match(name)
        if mm:
            out.append((int(mm.group(1)), name))
    return [n for _, n in sorted(out)]


def _write_delta(index_dir: str, doc_ids: Sequence[int],
                 texts: Sequence[str]) -> str:
    gen = 0
    files = _delta_files(index_dir)
    if files:
        gen = int(_DELTA_RE.match(files[-1]).group(1))
    name = f"docstore-delta-{gen + 1}.parquet"
    tmp = os.path.join(index_dir, f".{name}.tmp-{uuid.uuid4().hex[:8]}")
    pq.write_table(
        pa.table({
            "doc_id": pa.array(list(doc_ids), pa.int64()),
            "text": text_array(texts),
        }),
        tmp, compression="zstd",
    )
    os.rename(tmp, os.path.join(index_dir, name))
    return name


def get_current_documents(
    index_dir: str,
    corpus_path: str,
    ids: Sequence[int],
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dict[int, str]:
    """Realtime-get of the CURRENT text for explicit ids: newest docstore
    delta wins, the corpus parquet is the base (RealTimeGetComponent's
    tlog-then-index order)."""
    want = set(int(i) for i in ids)
    out: Dict[int, str] = {}
    for name in reversed(_delta_files(index_dir)):  # newest first
        if not want:
            break
        t = pq.read_table(os.path.join(index_dir, name))
        for i, txt in zip(t.column("doc_id").to_pylist(),
                          t.column("text").to_pylist()):
            if i in want:
                out[i] = txt
                want.discard(i)
    if want:
        import pyarrow.dataset as pads

        t = pads.dataset(corpus_path, format="parquet").to_table(
            columns=[id_col, text_col],
            filter=pc.field(id_col).isin(sorted(want)),
        )
        for i, txt in zip(t.column(id_col).to_pylist(),
                          t.column(text_col).to_pylist()):
            out[int(i)] = txt or ""
    return out


def _collect_stored(pairs, ids: np.ndarray, columns: List[str]) -> pa.Table:
    """Segment collector: overlay-aware stored columns of the LIVE copies
    of the sorted doc ids ``ids`` (no rows: an empty table of ``doc_id``
    and the columns at their stored types)."""
    rows = []
    fields = {c: pa.field(c, pa.null()) for c in columns}
    for reader, _ in pairs:
        fields = {c: reader.docmeta_schema.field(c) for c in columns}
        ords, _ = reader.live_ords(ids)
        if not len(ords):
            continue
        cols = {c: reader.values(c)[ords] for c in columns}
        for k, o in enumerate(ords):
            rows.append({
                "doc_id": int(reader.doc_ids[o]),
                **{c: cols[c][k].item() if hasattr(cols[c][k], "item")
                   else cols[c][k] for c in columns},
            })
    if not rows:
        return pa.schema([pa.field("doc_id", pa.int64()),
                          *fields.values()]).empty_table()
    return pa.Table.from_pylist(rows)


def _current_stored(index_dir: str, ids: Sequence[int],
                    columns: List[str]) -> Dict[int, Dict]:
    """Current stored-column values (DV overlays applied) for the LIVE
    copy of each id, read on the driver one segment at a time."""
    from lucene_solr_ray.search.searcher import Index

    if not columns or not len(ids):
        return {}
    by_ids = np.asarray(sorted(set(int(i) for i in ids)), dtype=np.int64)
    rows = _collect_stored(Index(index_dir).readers(), by_ids,
                           columns).to_pylist()
    return {int(r["doc_id"]): {c: r[c] for c in columns} for r in rows}


def _merge_text(cur: str, ops: Dict) -> str:
    """AtomicUpdateDocumentMerger text-field semantics over the token
    bag: set replaces, add appends, remove drops matching tokens."""
    out = cur or ""
    for op, val in ops.items():
        vals = val if isinstance(val, (list, tuple)) else [val]
        if op == "set":
            out = " ".join(str(v) for v in vals)
        elif op == "add":
            add = " ".join(str(v) for v in vals)
            out = (out + " " + add).strip() if out else add
        elif op == "remove":
            drop = {str(v) for v in vals}
            out = " ".join(t for t in out.split() if t not in drop)
        else:
            raise ValueError(f"op {op!r} not valid for the text field")
    return out


def atomic_update_documents(
    index_dir: str,
    corpus_path: str,
    updates: Sequence[Dict],
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    analyzer=None,
    tolerant: bool = False,
    max_errors: int = -1,
) -> Tuple[Dict, List[Dict]]:
    """Apply a batch of atomic updates; returns ``(manifest, errors)``.

    Each update: ``{"doc_id": id, "<field>": {"set"|"add"|"remove"|"inc":
    value}, ...}``.  Updates whose fields are ALL numeric stored columns
    take the in-place DV path; any update touching the text field
    re-indexes the merged document (one ``update_documents`` commit for
    the whole batch).  Updates to one doc apply in order: re-index ones
    merge into ONE replacement document.  With ``tolerant=True``
    (TolerantUpdateProcessor), malformed or failing updates are collected
    into ``errors``, one entry per update (up to ``max_errors``; -1 =
    unlimited), none of a failed update's fields land, and the rest land;
    otherwise the first error raises before anything is applied."""
    manifest, schema = _stored_schema(index_dir)
    stored_cols = schema.names
    # numeric stored columns are the in-place-updatable set
    numeric_cols = {
        f.name for f in schema
        if pa.types.is_integer(f.type) or pa.types.is_floating(f.type)
    }

    errors: List[Dict] = []

    def fail(doc_id, msg):
        if not tolerant:
            raise ValueError(f"doc {doc_id}: {msg}")
        errors.append({"doc_id": doc_id, "error": msg})
        if 0 <= max_errors < len(errors):
            raise ValueError(
                f"too many failed updates ({len(errors)} > "
                f"maxErrors={max_errors}); first: {errors[0]}"
            )

    # -- validate + classify ------------------------------------------------
    inplace: List[Dict] = []
    reindex: List[Dict] = []
    for u in updates:
        doc_id = u.get("doc_id")
        if doc_id is None:
            fail(None, "update missing doc_id")
            continue
        ops = {k: v for k, v in u.items() if k != "doc_id"}
        bad = None
        for fld, spec in ops.items():
            if not isinstance(spec, dict) or len(spec) != 1:
                bad = f"field {fld!r}: op must be one {{op: value}} dict"
                break
            op = next(iter(spec))
            if op not in _OPS:
                bad = f"field {fld!r}: unknown op {op!r}"
                break
            if fld == text_col:
                if op == "inc":
                    bad = f"field {fld!r}: 'inc' on a non-numeric field"
                    break
            elif fld in numeric_cols:
                if op in ("add", "remove"):
                    bad = (f"field {fld!r}: {op!r} needs a multiValued "
                           "field")
                    break
                try:
                    int(spec[op])
                except (TypeError, ValueError):
                    bad = f"field {fld!r}: non-numeric value {spec[op]!r}"
                    break
            else:
                bad = f"unknown field {fld!r}"
                break
        if bad:
            fail(doc_id, bad)
            continue
        if not ops:
            fail(doc_id, "no field ops")
            continue
        if all(f in numeric_cols for f in ops):
            inplace.append(u)
        else:
            reindex.append(u)

    # -- in-place DV path (computeInPlaceUpdatableFields) -------------------
    from lucene_solr_ray.index.docvalues import (
        update_numeric_docvalues_by_id,
    )

    if inplace:
        need_cur = sorted({
            int(u["doc_id"]) for u in inplace
            if any("inc" in spec for f, spec in u.items() if f != "doc_id")
        })
        cur = _current_stored(index_dir, need_cur, sorted(numeric_cols))
        per_field: Dict[str, Dict[int, int]] = {}
        for u in inplace:
            doc_id = int(u["doc_id"])
            ops = [(fld, *next(iter(spec.items())))
                   for fld, spec in u.items() if fld != "doc_id"]
            # an update applies whole or not at all
            if doc_id not in cur and any(op == "inc" for _, op, _ in ops):
                fail(doc_id, "doc not found in index")
                continue
            for fld, op, val in ops:
                vals = per_field.setdefault(fld, {})
                if op == "set":
                    vals[doc_id] = int(val)
                else:  # inc
                    vals[doc_id] = (
                        vals.get(doc_id, int(cur[doc_id][fld])) + int(val)
                    )
        for fld, vals in per_field.items():
            if vals:
                manifest = update_numeric_docvalues_by_id(
                    index_dir, fld, vals
                )

    # -- re-index path (get, merge, update_documents) -----------------------
    if reindex:
        from lucene_solr_ray.index.deletes import update_documents

        # one merged document per doc_id: its updates apply in order, each
        # merging from the previous one's result
        by_doc: Dict[int, List[Dict]] = {}
        for u in reindex:
            by_doc.setdefault(int(u["doc_id"]), []).append(u)
        ids = sorted(by_doc)
        cur_text = get_current_documents(
            index_dir, corpus_path, ids, id_col, text_col
        )
        cur_stored = _current_stored(index_dir, ids, stored_cols)
        merged_ids, merged_texts = [], []
        merged_stored: Dict[str, list] = {c: [] for c in stored_cols}
        for doc_id, group in by_doc.items():
            if doc_id not in cur_text or doc_id not in (
                cur_stored if stored_cols else cur_text
            ):
                for _ in group:
                    fail(doc_id, "doc not found in index/docstore")
                continue
            text = cur_text[doc_id]
            svals = dict(cur_stored.get(doc_id, {}))
            applied = False
            for u in group:
                new_text, new_svals = text, dict(svals)
                try:
                    for fld, spec in u.items():
                        if fld == "doc_id":
                            continue
                        if fld == text_col:
                            new_text = _merge_text(new_text, spec)
                        else:
                            op, val = next(iter(spec.items()))
                            new_svals[fld] = (
                                int(val) if op == "set"
                                else int(new_svals[fld]) + int(val)
                            )
                except ValueError as e:
                    fail(doc_id, str(e))
                    continue
                text, svals, applied = new_text, new_svals, True
            if not applied:
                continue
            merged_ids.append(doc_id)
            merged_texts.append(text)
            for c in stored_cols:
                merged_stored[c].append(svals[c])
        if merged_ids:
            manifest = update_documents(
                index_dir, merged_ids, merged_texts, analyzer=analyzer,
                stored={c: v for c, v in merged_stored.items()} or None,
            )
            _write_delta(index_dir, merged_ids, merged_texts)
    return manifest, errors
