"""Min-of-3 ``topk_segment`` ms of each positional query shape on one
10k-doc segment of the perfbench code corpus (seed 601), built in (or
reused from) a directory.  Run: python tools/time_positional.py DIR
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    from lucene_solr_ray.analysis.analyzer import StandardAnalyzer
    from lucene_solr_ray.index.manifest import write_segment_dir
    from lucene_solr_ray.index.segment import build_segment_tables
    from lucene_solr_ray.search import query as Q
    from lucene_solr_ray.search.reader import SegmentReader
    from lucene_solr_ray.search.scorer import GlobalStats, topk_segment
    from perfbench.gen import corpus_table, vocabulary

    near = ("def", "return")
    shapes = {
        "exact": Q.PhraseQuery(near, (0, 1)),
        "sloppy": Q.PhraseQuery(near, (0, 1), slop=3),
        "span_near_ordered": Q.SpanNearQuery(near, 3, True),
        "span_near_unordered": Q.SpanNearQuery(near, 3, False),
        "span_term": Q.SpanTermQuery("def"),
        "span_or": Q.SpanOrQuery(tuple(Q.SpanTermQuery(t) for t in near)),
        "complex_phrase": Q.ComplexPhraseQuery((("def", "self"), near[1:]), 3),
        '"def def"~2': Q.PhraseQuery(("def", "def"), (0, 1), slop=2),
    }
    root = sys.argv[1]
    seg_dir = os.path.join(root, "seg_000000")
    if not os.path.exists(seg_dir):
        vocab = np.array(vocabulary(), dtype=object)
        texts = corpus_table(601, 10_000, 0, vocab)["content"].to_pylist()
        seg = build_segment_tables(list(range(10_000)), texts,
                                   StandardAnalyzer())
        seg_dir = write_segment_dir(root, 0, seg.postings, seg.docmeta,
                                    {"segment_id": 0, "stats": seg.stats})
    reader = SegmentReader(seg_dir)
    st = reader.stats
    for name, q in shapes.items():
        stats = GlobalStats(st["doc_count"], st["sum_total_term_freq"])
        for key in q.terms():  # every shape's terms are corpus keywords
            stats.df[key], stats.ttf[key] = reader.term_stats(key)
        ms = []
        for _ in range(3):
            t0 = time.perf_counter()
            topk_segment(reader, q, stats, 10)
            ms.append((time.perf_counter() - t0) * 1e3)
        print(f"{name:22s} {min(ms):10.1f} ms", flush=True)


if __name__ == "__main__":
    main()
