"""SegmentReader — mmap-style in-memory view of one segment's files.

The per-actor hot state of the query path (the analogue of an
``IndexSearcher`` leaf over a ``DirectoryReader``,
``lucene/core/src/java/org/apache/lucene/search/IndexSearcher.java:183-209``):
postings loaded once per actor, term → row dict as the term dictionary
(FST analogue), posting arrays exposed as zero-copy numpy views over the
Arrow list buffers.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_solr_ray.index import sidecars
from lucene_solr_ray.index.postings_codec import decode_postings

__all__ = ["EntrySlices", "SegmentReader"]


def _binary_views(arr: pa.Array) -> Tuple[np.ndarray, np.ndarray]:
    """(offsets, bytes) zero-copy numpy views of a binary column: value r
    is ``bytes[offsets[r]:offsets[r + 1]]`` (a null value is empty)."""
    _, offs, data = arr.buffers()
    offs = np.frombuffer(offs, dtype=np.int32)[
        arr.offset: arr.offset + len(arr) + 1]
    return offs, np.frombuffer(data, dtype=np.uint8)


class SegmentReader:
    def __init__(self, seg_dir: str, load_positions: bool = False,
                 respect_soft_deletes: bool = False) -> None:
        self.seg_dir = seg_dir
        with open(os.path.join(seg_dir, "segment.json")) as f:
            self.meta = json.load(f)
        self.segment_id = int(self.meta["segment_id"])
        self.stats = self.meta["stats"]

        cols = ["term", "df", "ttf", "blocks"]
        pq_schema = pq.read_schema(os.path.join(seg_dir, "postings.parquet"))
        if "positions" in pq_schema.names and not pa.types.is_binary(
            pq_schema.field("positions").type
        ):
            raise ValueError(
                f"segment {seg_dir} uses an outdated on-disk format "
                "(nested-list positions); rebuild the index with the "
                "current engine (FORMAT_VERSION >= 3)"
            )
        self._has_offsets_col = "offsets" in pq_schema.names
        self._has_payloads_col = "payloads" in pq_schema.names
        if load_positions:
            cols.append("positions")
            if self._has_offsets_col:
                cols.append("offsets")
            if self._has_payloads_col:
                cols.append("payloads")
        t = pq.read_table(
            os.path.join(seg_dir, "postings.parquet"), columns=cols
        )
        self._terms: List[str] = t.column("term").to_numpy(
            zero_copy_only=False).tolist()
        # Arrow view of the term dictionary (zero extra copy) — pattern
        # expansion runs C kernels over it instead of a Python loop
        self._terms_arrow = t.column("term").combine_chunks()
        self._term_row: Dict[str, int] = {
            term: i for i, term in enumerate(self._terms)
        }
        self._df = t.column("df").to_numpy()
        self._ttf = t.column("ttf").to_numpy()
        blocks = t.column("blocks").combine_chunks()
        if isinstance(blocks, pa.ChunkedArray):
            blocks = blocks.chunk(0) if blocks.num_chunks else pa.array(
                [], type=pa.binary()
            )
        self._blocks = blocks
        self._decoded: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

        self._has_positions = load_positions
        if load_positions:
            poscol = t.column("positions").combine_chunks()
            if isinstance(poscol, pa.ChunkedArray):
                poscol = poscol.chunk(0) if poscol.num_chunks else pa.array(
                    [], type=pa.binary()
                )
            self._pos_offs, self._pos_bytes = _binary_views(poscol)
            if self._has_offsets_col:
                offcol = t.column("offsets").combine_chunks()
                if isinstance(offcol, pa.ChunkedArray):
                    offcol = offcol.chunk(0) if offcol.num_chunks else \
                        pa.array([], type=pa.binary())
                self._off_blobs = offcol
            else:
                self._off_blobs = None
            if self._has_payloads_col:
                paycol = t.column("payloads").combine_chunks()
                if isinstance(paycol, pa.ChunkedArray):
                    paycol = paycol.chunk(0) if paycol.num_chunks else \
                        pa.array([], type=pa.binary())
                self._pay_blobs = paycol
            else:
                self._pay_blobs = None

        dm_schema = pq.read_schema(os.path.join(seg_dir, "docmeta.parquet"))
        extra = [c for c in dm_schema.names if c.startswith("norm__")]
        dm = pq.read_table(
            os.path.join(seg_dir, "docmeta.parquet"),
            columns=["doc_id", "norm", "field_len", *extra],
        )
        self.doc_ids: np.ndarray = dm.column("doc_id").to_numpy()
        self.norms: np.ndarray = dm.column("norm").to_numpy()
        self.field_lens: np.ndarray = dm.column("field_len").to_numpy()
        #: per-extra-field norms (default field stays on the legacy column)
        self.field_norms: Dict[str, np.ndarray] = {
            c[len("norm__"):]: dm.column(c).to_numpy() for c in extra
        }
        self.ndocs = len(self.doc_ids)

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

    def points(self, field: str):
        """(values float64 sorted asc, ords int32 aligned) of one numeric
        point field, or None if the segment has no values for it.  Lazy:
        points.parquet loads on first use and caches per field (the BKD
        leaf-block read of the 1-D flat-sorted representation)."""
        cached = getattr(self, "_points_cache", None)
        if cached is None:
            cached = self._points_cache = {}
        hit = cached.get(field)
        if hit is not None:
            return hit if hit != () else None
        path = os.path.join(self.seg_dir, "points.parquet")
        if not os.path.exists(path):
            cached[field] = ()
            return None
        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        t = pads.dataset(path, format="parquet").to_table(
            filter=pc.field("field") == field
        )
        if t.num_rows == 0:
            cached[field] = ()
            return None
        out = (t.column("value").to_numpy(), t.column("ord").to_numpy())
        cached[field] = out
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
        arr = self.field_norms.get(field)
        if arr is None:
            # field absent from this segment: all docs norm 0 (no terms)
            arr = np.zeros(self.ndocs, dtype=np.uint8)
        return arr

    # -- term dictionary ---------------------------------------------------
    @property
    def terms(self) -> List[str]:
        return self._terms

    @property
    def terms_arrow(self) -> "pa.Array":
        return self._terms_arrow

    @property
    def term_columns(self) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """The dictionary's sorted terms with their df and ttf."""
        return self._terms, self._df, self._ttf

    def term_stats(self, term: str) -> Optional[Tuple[int, int]]:
        r = self._term_row.get(term)
        if r is None:
            return None
        return int(self._df[r]), int(self._ttf[r])

    # -- postings ----------------------------------------------------------
    def postings(self, term: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(ords asc int32, freqs int32) or None — decoded from the block
        codec on first access, cached per term (the hot-block cache of the
        reference's ``LRUQueryCache`` idea).  Every query's scoring reads
        through this cache, which is unbounded within an actor."""
        r = self._term_row.get(term)
        if r is None:
            return None
        hit = self._decoded.get(r)
        if hit is None:
            hit = decode_postings(self._blocks[r].as_py())
            self._decoded[r] = hit
        return hit

    def positions(
        self, term: str
    ) -> Optional[Tuple[np.ndarray, "EntrySlices"]]:
        """(ords, pos): ``pos(i)`` is the positions array of the i-th
        posting entry, and ``pos.flat`` / ``pos.offsets`` hold every
        entry's at once.  Requires load_positions=True."""
        if not self._has_positions:
            raise RuntimeError("reader opened without positions")
        r = self._term_row.get(term)
        if r is None:
            return None
        ords, freqs = self.postings(term)
        # a view into the column: no copy of the term's positions
        flat = self._pos_bytes[self._pos_offs[r]: self._pos_offs[r + 1]]
        return ords, EntrySlices(flat.view("<i4"), freqs)

    def offsets(self, term: str):
        """(ords, off) — off(i) = (start, end) int32 pairs array of the
        i-th posting entry (requires an offsets-enabled index)."""
        if not self._has_positions or self._off_blobs is None:
            raise RuntimeError("index built without offsets")
        r = self._term_row.get(term)
        if r is None:
            return None
        blob = self._off_blobs[r].as_py()
        if blob is None:
            raise RuntimeError("index built without offsets")
        ords, freqs = self.postings(term)
        pairs = np.frombuffer(blob, dtype="<i4").reshape(-1, 2)
        return ords, EntrySlices(pairs, freqs)

    def payloads(self, term: str):
        """(ords, pay) — pay(i) = float32 payloads of the i-th posting
        entry, aligned with ``positions``; None if the term is absent or
        the segment carries no payloads for it (PayloadAttribute read,
        reference ``index/PostingsEnum.getPayload``)."""
        if not self._has_positions:
            raise RuntimeError("reader opened without positions")
        r = self._term_row.get(term)
        if r is None or self._pay_blobs is None:
            return None
        blob = self._pay_blobs[r].as_py()
        if blob is None:
            return None
        ords, freqs = self.postings(term)
        return ords, EntrySlices(np.frombuffer(blob, dtype="<f4"), freqs)


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
