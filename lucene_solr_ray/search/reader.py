"""SegmentReader — a lazy, point-in-time view of one segment's files.

The per-actor hot state of the query path (the analogue of an
``IndexSearcher`` leaf over a ``DirectoryReader``,
``lucene/core/src/java/org/apache/lucene/search/IndexSearcher.java:183-209``).
Opening a reader reads ``segment.json``, the committed sidecar
generations with their tombstones and doc-values overlays, and the
footers of ``postings.parquet`` (to refuse an outdated format) and
``docmeta.parquet``, whose files it keeps open.  The sidecars are read
eagerly on purpose: they fix the reader's live set and doc values when
it opens, so a delete or doc-values update committed later never
changes it.  Every other part loads the first time it is used, reading
only its own columns through the open file, and then stays cached:

- docmeta: ``doc_ids``; the norm columns when a scorer first needs them;
  each stored column on its first ``values()`` call, with its overlay at
  the open generation applied (every sort, function score, export,
  join, stored-field read and merge reads doc values here, as Lucene's
  ``SegmentReader`` opens them at its commit's ``docValuesGen``);
- the term dictionary (sorted terms, df, ttf); a term lookup bisects the
  sorted terms (the FST role);
- the ``ords`` and ``freqs`` list columns, on the first ``postings()``;
- positions, offsets and payloads, each on the first ``positions()`` /
  ``offsets()`` / ``payloads()`` call — as Lucene's postings reader opens
  ``.pos`` only when a scorer asks its ``PostingsEnum`` for positions.

Parquet decodes a whole list column in C++ (``DELTA_BINARY_PACKED``), so
a loaded column is the cache: there is no per-term decode and no
per-term cache.

Segment files are immutable once written, so a lazy load sees what an
eager one would have; and as Lucene's open ``IndexInput``s do, the open
files stay readable after a merge or ``vacuum`` drops the segment's
directory.  ``points.parquet``, when the segment has one, is opened with
the other two and read per field by ``points()``.  Posting arrays are
zero-copy numpy slices of the list values.
"""

from __future__ import annotations

import bisect
import json
import os
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from lucene_solr_ray.index import sidecars
from lucene_solr_ray.index.docvalues import segment_dv_overlay
from lucene_solr_ray.index.segment import list_views, outdated_format

__all__ = ["EntrySlices", "SegmentReader"]


class SegmentReader:
    """One segment's view; parts load on first use (module docstring).

    ``load_positions`` is accepted for callers that name it (the
    benchmark's) and ignored: positions load on the first
    ``positions()`` call."""

    def __init__(self, seg_dir: str, load_positions: bool = False,
                 respect_soft_deletes: bool = False) -> None:
        self.seg_dir = seg_dir
        with open(os.path.join(seg_dir, "segment.json")) as f:
            self.meta = json.load(f)
        self.segment_id = int(self.meta["segment_id"])
        self.stats = self.meta["stats"]

        self._postings = pq.ParquetFile(
            os.path.join(seg_dir, "postings.parquet"))
        self._docmeta = pq.ParquetFile(
            os.path.join(seg_dir, "docmeta.parquet"))
        outdated = outdated_format(seg_dir,
                                   self._postings.schema_arrow.names)
        if outdated:
            raise ValueError(outdated)
        points = os.path.join(seg_dir, "points.parquet")
        self._points_file = (pq.ParquetFile(points)
                             if os.path.exists(points) else None)
        self._points: Dict[str, Optional[Tuple[np.ndarray, np.ndarray]]] = {}
        self._values: Dict[str, np.ndarray] = {}

        # live docs: deleted ordinals from the COMMITTED sidecar generations
        # (an uncommitted sidecar stays invisible, and a crash between
        # sidecar write and commit loses nothing); standalone segment dirs
        # see the newest sidecar on disk
        self.sidecar_gens = sidecars.segment_gens(seg_dir)
        self.deleted_ords = sidecars.read_ords(
            seg_dir, self.sidecar_gens, sidecars.DELETES
        )
        # soft deletes stay VISIBLE unless the caller opts into the
        # SoftDeletesDirectoryReaderWrapper role (reference ``lucene/core/
        # .../index/SoftDeletesDirectoryReaderWrapper.java``: the wrapper
        # folds the soft-deletes field into liveDocs; unwrapped readers
        # still see the docs)
        self.soft_deleted_ords = np.empty(0, dtype=np.int64)
        if respect_soft_deletes:
            so = sidecars.read_ords(seg_dir, self.sidecar_gens, sidecars.SOFT)
            if len(so):
                self.soft_deleted_ords = so
                self.deleted_ords = np.union1d(self.deleted_ords, so)
        self.has_deletes = len(self.deleted_ords) > 0
        # doc-values overlays: {field: (ords, values)} at the open gens
        self._overlays = {
            f: segment_dv_overlay(seg_dir, f, g)
            for f, g in sidecars.dv_fields(self.sidecar_gens).items()
        }
        self.updated_fields = frozenset(self._overlays)

    def _lists(self, name: str, optional: bool = True):
        """(offsets, values) of one postings list column; None for an
        ``optional`` one the segment does not store (every row null)."""
        col = self._postings.read(columns=[name]).column(0)
        if optional and col.null_count == len(col) > 0:
            return None
        return list_views(col)

    # -- docmeta -----------------------------------------------------------
    @cached_property
    def doc_ids(self) -> np.ndarray:
        return self._docmeta.read(columns=["doc_id"]).column(0).to_numpy()

    @property
    def ndocs(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def _norm_columns(self) -> Dict[str, np.ndarray]:
        """``norm`` plus every ``norm__<field>`` column, read together."""
        names = [c for c in self._docmeta.schema_arrow.names
                 if c == "norm" or c.startswith("norm__")]
        t = self._docmeta.read(columns=names)
        return {c: t.column(c).to_numpy() for c in names}

    @property
    def docmeta_schema(self) -> pa.Schema:
        """The Arrow schema of ``docmeta.parquet``: the stored columns."""
        return self._docmeta.schema_arrow

    def values(self, field: str) -> np.ndarray:
        """One stored column in its native numpy dtype (strings stay
        objects, an int column with nulls reads as float64 NaN), with the
        field's doc-values overlay at the open generation applied on a
        copy.  Raises ``KeyError`` when the column is absent."""
        if field not in self._values:
            vals = self._docmeta.read(columns=[field]).column(
                field).to_numpy(zero_copy_only=False)
            if field in self._overlays:
                ords, new = self._overlays[field]
                vals = vals.copy()
                vals[ords] = new.astype(vals.dtype)
            self._values[field] = vals
        return self._values[field]

    def overlay(self, field: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(sorted ords, values) of ``field``'s doc-values overlay at the
        open generation, or None when the field has none."""
        return self._overlays.get(field)

    def docmeta(self) -> pa.Table:
        """The whole docmeta table with every overlay baked in, each
        column cast back to its stored type (what a merge writes)."""
        dm = self._docmeta.read()
        for field in self.updated_fields:
            i = dm.schema.get_field_index(field)
            if i < 0:
                continue
            f = dm.schema.field(i)
            dm = dm.set_column(i, f,
                               pa.array(self.values(field)).cast(f.type))
        return dm

    @property
    def norms(self) -> np.ndarray:
        """Norm bytes of the default field."""
        return self._norm_columns["norm"]

    def points(self, field: str):
        """(values float64 sorted asc, ords int32 aligned) of one numeric
        point field, or None if the segment has no values for it.  Lazy:
        each field reads the open points.parquet on first use and caches
        (the BKD leaf-block read of the 1-D flat-sorted representation)."""
        if field in self._points:
            return self._points[field]
        out = None
        if self._points_file is not None:
            t = self._points_file.read(columns=["field", "value", "ord"])
            t = t.filter(pc.equal(t.column("field"), field))
            if t.num_rows:
                out = (t.column("value").to_numpy(),
                       t.column("ord").to_numpy())
        self._points[field] = out
        return out

    def live_mask(self, ords: np.ndarray) -> np.ndarray:
        """Boolean mask of which ords are LIVE (not tombstoned)."""
        d = self.deleted_ords
        if not self.has_deletes or len(ords) == 0:
            return np.ones(len(ords), dtype=bool)
        idx = np.searchsorted(d, ords)
        idx_c = np.minimum(idx, len(d) - 1)
        return ~((idx < len(d)) & (d[idx_c] == ords))

    def live_ords(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(ords, pos)``: int64 ordinals of the LIVE docs whose doc id is
        in the sorted id array ``ids``, and each one's index into ``ids``."""
        if len(ids) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        pos = np.searchsorted(ids, self.doc_ids)
        pos_c = np.minimum(pos, len(ids) - 1)
        hit = (pos < len(ids)) & (ids[pos_c] == self.doc_ids)
        hit[self.deleted_ords] = False
        return np.nonzero(hit)[0].astype(np.int64), pos_c[hit]

    @property
    def live_doc_count(self) -> int:
        return self.ndocs - len(self.deleted_ords)

    def norms_for(self, field: "Optional[str]") -> np.ndarray:
        """Norm bytes for a field (None/default → the legacy column)."""
        if not field:
            return self.norms
        arr = self._norm_columns.get("norm__" + field)
        if arr is None:
            # field absent from this segment: all docs norm 0 (no terms)
            arr = np.zeros(self.ndocs, dtype=np.uint8)
        return arr

    # -- term dictionary ---------------------------------------------------
    @cached_property
    def _dictionary(self) -> Tuple[pa.Array, List[str], np.ndarray,
                                   np.ndarray]:
        t = self._postings.read(columns=["term", "df", "ttf"])
        terms = t.column("term").combine_chunks()
        return (terms, terms.to_numpy(zero_copy_only=False).tolist(),
                t.column("df").to_numpy(), t.column("ttf").to_numpy())

    @property
    def terms(self) -> List[str]:
        return self._dictionary[1]

    @property
    def terms_arrow(self) -> "pa.Array":
        """The sorted terms as Arrow, for C-kernel pattern expansion."""
        return self._dictionary[0]

    def _row(self, term: str) -> Optional[int]:
        terms = self._dictionary[1]
        r = bisect.bisect_left(terms, term)
        return r if r < len(terms) and terms[r] == term else None

    def term_stats(self, term: str) -> Optional[Tuple[int, int]]:
        r = self._row(term)
        if r is None:
            return None
        _, _, df, ttf = self._dictionary
        return int(df[r]), int(ttf[r])

    # -- postings ----------------------------------------------------------
    @cached_property
    def _postings_lists(self):
        t = self._postings.read(columns=["ords", "freqs"])
        offsets, ords = list_views(t.column("ords"))
        return offsets, ords, list_views(t.column("freqs"))[1]

    @cached_property
    def _positions(self):
        # a segment without positions reads as empty lists
        return self._lists("positions", optional=False)

    @cached_property
    def _offsets(self):
        return self._lists("offsets")

    @cached_property
    def _payloads(self):
        return self._lists("payloads")

    def postings(self, term: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(ords asc int32, freqs int32) or None: zero-copy slices of the
        list columns."""
        r = self._row(term)
        if r is None:
            return None
        offsets, ords, freqs = self._postings_lists
        a, b = offsets[r], offsets[r + 1]
        return ords[a:b], freqs[a:b]

    def _occurrences(self, term: str, lists, width: int = 1):
        """(ords, EntrySlices) of a per-occurrence column's slice for the
        term; None when the term is absent."""
        r = self._row(term)
        if r is None:
            return None
        ords, freqs = self.postings(term)
        offsets, values = lists
        flat = values[offsets[r]: offsets[r + 1]]
        return ords, EntrySlices(flat.reshape(-1, width) if width > 1
                                 else flat, freqs)

    def positions(
        self, term: str
    ) -> Optional[Tuple[np.ndarray, "EntrySlices"]]:
        """(ords, pos): ``pos(i)`` is the positions array of the i-th
        posting entry, and ``pos.flat`` / ``pos.offsets`` hold every
        entry's at once (empty when the index has no positions)."""
        return self._occurrences(term, self._positions)

    def offsets(self, term: str):
        """(ords, off) — off(i) = (start, end) int32 pairs array of the
        i-th posting entry (requires an offsets-enabled index)."""
        if self._offsets is None and self._row(term) is not None:
            raise RuntimeError("index built without offsets")
        return self._occurrences(term, self._offsets, 2)

    def payloads(self, term: str):
        """(ords, pay) — pay(i) = float32 payloads of the i-th posting
        entry, aligned with ``positions``; None if the term is absent or
        the segment carries no payloads (PayloadAttribute read,
        reference ``index/PostingsEnum.getPayload``)."""
        if self._payloads is None:
            return None
        return self._occurrences(term, self._payloads)


class EntrySlices:
    """Per-posting-entry values of one term (positions, offset pairs or
    payloads), stored entry after entry: ``flat`` holds them all and
    entry i's are ``flat[offsets[i]:offsets[i + 1]]``, which calling the
    object with ``i`` returns."""

    __slots__ = ("flat", "offsets")

    def __init__(self, flat: np.ndarray, freqs: np.ndarray) -> None:
        self.flat = flat
        self.offsets = np.concatenate(
            [[0], np.cumsum(freqs, dtype=np.int64)]
        )

    def __call__(self, i: int) -> np.ndarray:
        return self.flat[self.offsets[i]: self.offsets[i + 1]]
