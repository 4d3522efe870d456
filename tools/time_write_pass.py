"""Min and median ms of ``update_documents`` and ``delete_doc_ids`` for
one 100-id batch, each call on a fresh copy of the index in DIR.

When DIR holds no index, the churn benchmark's starting index is built
there first: 10,000 docs of the perfbench code corpus (seed 501, cached
in DIR.corpus) at 2,500 docs per segment.  Each operation runs once
untimed, then REPS (default 7) timed calls alternate the two operations.
Run from the root of a checkout (Ray workers import the package from the
working directory): python tools/time_write_pass.py DIR [REPS]
"""

import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

BATCH = 100


def _build(index_dir: str) -> None:
    from lucene_solr_ray.index.build import build_index
    from perfbench.gen import corpus_files

    os.makedirs(index_dir + ".corpus", exist_ok=True)
    build_index(corpus_files(index_dir + ".corpus", 501, 10_000, 2_500),
                index_dir, docs_per_segment=2_500)


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from lucene_solr_ray.index.deletes import delete_doc_ids, update_documents
    from lucene_solr_ray.index.manifest import read_latest_manifest
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.searcher import Index
    from perfbench.gen import corpus_table, vocabulary

    root = os.path.abspath(sys.argv[1])
    reps = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    if read_latest_manifest(root) is None:
        _build(root)
    all_ids = np.concatenate([SegmentReader(d).doc_ids
                              for d in Index(root).seg_dirs])
    ids = sorted(np.random.default_rng(7).choice(
        all_ids, BATCH, replace=False).tolist())
    texts = corpus_table(502, BATCH, 0, np.array(vocabulary(), dtype=object)
                         )["content"].to_pylist()
    ops = {"update_documents": lambda d: update_documents(d, ids, texts),
           "delete_doc_ids": lambda d: delete_doc_ids(d, ids)}
    ms = {name: [] for name in ops}
    scratch = tempfile.mkdtemp(prefix="time_write_pass-")
    try:
        for rep in range(reps + 1):
            for name, op in ops.items():
                copy = os.path.join(scratch, "index")
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(root, copy)
                t0 = time.perf_counter()
                op(copy)
                if rep:  # the first call of each is a warm-up
                    ms[name].append((time.perf_counter() - t0) * 1e3)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        ray.shutdown()
    for name, xs in ms.items():
        print(f"{name:18s} min {min(xs):8.1f} ms  median "
              f"{statistics.median(xs):8.1f} ms  ({len(xs)} calls)",
              flush=True)


if __name__ == "__main__":
    main()
