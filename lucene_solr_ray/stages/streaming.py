"""Streaming pub/sub over the index: TopicStream + DaemonStream.

The reference's continuous-dataflow pair (``solr/solrj/src/java/org/
apache/solr/client/solrj/io/stream/TopicStream.java`` and
``DaemonStream.java``): a topic is a CHECKPOINTED subscription — each
read returns only documents that arrived since the last checkpoint and
atomically advances it; a daemon wraps any stream and re-runs it on an
interval, queueing results.

Ray-Data shape: a topic pull is one distributed search restricted to
segments that can contain new docs — the per-segment max doc id in the
manifest prunes fully-consumed segments before any task launches, so a
steady-state pull over an N-segment index touches only the segments
appended since the checkpoint (the delta, not the corpus).  Checkpoints
are tmp+rename files, matching the manifest commit protocol.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
from queue import Empty, Queue
from typing import Callable, List, Optional

import numpy as np
import pyarrow as pa

__all__ = ["TopicStream", "DaemonStream"]


class TopicStream:
    """Checkpointed subscription: ``pull()`` returns docs matching the
    query with doc_id > checkpoint (doc-id order = arrival order under the
    engine's monotonic id assignment), then advances the checkpoint."""

    def __init__(self, index_dir: str, query: str,
                 checkpoint_path: Optional[str] = None,
                 analyzer=None):
        self.index_dir = index_dir
        self.query = query
        self.analyzer = analyzer
        self.checkpoint_path = checkpoint_path or os.path.join(
            index_dir, f"topic-{_topic_id(query)}.json"
        )

    # -- checkpoint --------------------------------------------------------
    @property
    def checkpoint(self) -> int:
        try:
            with open(self.checkpoint_path) as f:
                return int(json.load(f)["last_doc_id"])
        except (OSError, json.JSONDecodeError, KeyError):
            return -1

    def _commit(self, last_doc_id: int) -> None:
        tmp = self.checkpoint_path + ".tmp-" + uuid.uuid4().hex[:8]
        with open(tmp, "w") as f:
            json.dump({"last_doc_id": int(last_doc_id)}, f)
        os.rename(tmp, self.checkpoint_path)

    # -- pull --------------------------------------------------------------
    def pull(self, batch_size: int = 1000) -> pa.Table:
        """One micro-batch of NEW matching docs (doc_id asc, ≤ batch_size);
        the checkpoint advances to the last returned id."""
        from functools import partial

        from lucene_solr_ray.search.query import MatchNoDocsQuery
        from lucene_solr_ray.search.searcher import Index

        idx = Index(self.index_dir)
        ckpt = self.checkpoint
        # prune segments already fully consumed (their max doc id is in
        # segment meta lineage or computable from docmeta stats)
        live = []
        for i, (sdir, seg) in enumerate(
            zip(idx.seg_dirs, idx.manifest["segments"])
        ):
            hi = _segment_max_doc_id(sdir, seg)
            if hi is None or hi > ckpt:
                live.append(i)
        if not live:
            return _empty_topic_table()
        (q,), stats = idx.prepare(
            [idx.make_parser(self.analyzer).parse(self.query)]
        )
        if isinstance(q, MatchNoDocsQuery):
            return _empty_topic_table()
        rows = idx.scan(
            partial(_collect_topic, q=q, stats=stats, ckpt=ckpt,
                    cap=batch_size),
            segments=live,
        ).to_pandas()
        if rows.empty:
            return _empty_topic_table()
        rows = rows.sort_values("doc_id").head(batch_size)
        out = pa.table(
            {
                "doc_id": pa.array(rows["doc_id"].to_numpy(np.int64)),
                "score": pa.array(rows["score"].to_numpy(np.float64)),
            }
        )
        self._commit(int(rows["doc_id"].iloc[-1]))
        return out


def _topic_id(query: str) -> str:
    import hashlib

    return hashlib.md5(query.encode()).hexdigest()[:10]


def _segment_max_doc_id(seg_dir: str, seg_meta) -> Optional[int]:
    """Max doc id of a segment from parquet column statistics only."""
    import pyarrow.parquet as pq

    try:
        md = pq.ParquetFile(
            os.path.join(seg_dir, "docmeta.parquet")
        ).metadata
        cols = [
            j for j in range(md.num_columns)
            if md.schema.column(j).name == "doc_id"
        ]
        mx = None
        for rg in range(md.num_row_groups):
            for j in cols:
                st = md.row_group(rg).column(j).statistics
                if st is None or st.max is None:
                    return None
                mx = st.max if mx is None else max(mx, st.max)
        return int(mx) if mx is not None else None
    except Exception:
        return None


def _collect_topic(pairs, q, stats, ckpt: int, cap: int) -> pa.Table:
    """Topic collector: matching docs with doc_id > checkpoint, capped to
    the batch size per segment (the driver re-caps globally)."""
    from lucene_solr_ray.search.scorer import score_segment

    out_ids, out_scores = [], []
    for reader, _ in pairs:
        ords, scores = score_segment(reader, q, stats)
        if len(ords) == 0:
            continue
        dids = reader.doc_ids[ords]
        new = dids > ckpt
        dids, scores = dids[new], scores[new]
        order = np.argsort(dids)[:cap]
        out_ids.append(dids[order])
        out_scores.append(scores[order].astype(np.float64))
    if not out_ids:
        return _empty_topic_table()
    return pa.table(
        {
            "doc_id": pa.array(np.concatenate(out_ids).astype(np.int64)),
            "score": pa.array(np.concatenate(out_scores)),
        }
    )


def _empty_topic_table() -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        }
    )


class DaemonStream:
    """Background re-runner (``DaemonStream.java``): calls ``fn()`` every
    ``interval_s`` seconds on a thread, queueing each non-empty result;
    ``drain()`` collects queued results, ``stop()`` joins the thread."""

    def __init__(self, fn: Callable[[], pa.Table], interval_s: float = 1.0,
                 queue_size: int = 64):
        self.fn = fn
        self.interval_s = interval_s
        self.queue: "Queue[pa.Table]" = Queue(maxsize=queue_size)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.iterations = 0

    def start(self) -> "DaemonStream":
        def _loop():
            while not self._stop.is_set():
                t = self.fn()
                self.iterations += 1
                if t is not None and t.num_rows:
                    self.queue.put(t)
                self._stop.wait(self.interval_s)

        self._thread = threading.Thread(target=_loop, daemon=True)
        self._thread.start()
        return self

    def drain(self) -> List[pa.Table]:
        out = []
        while True:
            try:
                out.append(self.queue.get_nowait())
            except Empty:
                return out

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30)
