"""Min-of-3 ms per shard of ``StandardAnalyzer.analyze_column`` and of
``build_segment_tables`` (which calls it), for each Parquet shard given.
The text column is ``content`` when the shard has one, else ``text``; the
doc ids are the row numbers.  The last line sums both columns.

Run: python tools/time_analysis.py SHARD.parquet [...]
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _min_ms(fn, *args) -> float:
    ms = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn(*args)
        ms.append((time.perf_counter() - t0) * 1e3)
    return min(ms)


def main() -> None:
    import pyarrow.parquet as pq

    from lucene_solr_ray.analysis.analyzer import StandardAnalyzer
    from lucene_solr_ray.index.segment import build_segment_tables

    analyzer = StandardAnalyzer()
    total = [0.0, 0.0]
    for path in sys.argv[1:]:
        names = pq.ParquetFile(path).schema_arrow.names
        col = "content" if "content" in names else "text"
        texts = pq.read_table(path, columns=[col]).column(0)
        ids = list(range(len(texts)))
        row = (_min_ms(analyzer.analyze_column, texts),
               _min_ms(build_segment_tables, ids, texts, analyzer))
        total = [t + r for t, r in zip(total, row)]
        print(f"{path}: {len(texts)} docs, analyze_column {row[0]:.1f} ms, "
              f"build_segment_tables {row[1]:.1f} ms", flush=True)
    print(f"total: analyze_column {total[0]:.1f} ms, "
          f"build_segment_tables {total[1]:.1f} ms")


if __name__ == "__main__":
    main()
