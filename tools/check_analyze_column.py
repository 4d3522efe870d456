"""Check ``StandardAnalyzer.analyze_column`` against the per-doc path.

For every Parquet file given, reads the text column (``--col``, default
``content`` when present, else ``text``) in batches of ``--batch`` rows and
compares, doc by doc, the terms, positions and field length of the column
path with ``analyze_with_positions``.  Runs three analyzers: the default
(no stop words), the 33 English stop words, and ``max_token_length=8``
(which makes many runs longer than the limit, so the column path cuts
them into windows).

Usage: python tools/check_analyze_column.py FILE.parquet [...]
       [--col NAME] [--batch N]

Prints one line per file and analyzer (docs, docs that ``analyze_column``
still hands to ``analyze_with_positions``: the non-ASCII ones and those
with a joiner, mismatches) and exits 1 if any doc differs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
import pyarrow.parquet as pq

from lucene_solr_ray.analysis.analyzer import (
    ENGLISH_STOP_WORDS,
    StandardAnalyzer,
    text_array,
)

ANALYZERS = {
    "default": StandardAnalyzer(),
    "english-stop": StandardAnalyzer(stop_words=ENGLISH_STOP_WORDS),
    "max-len-8": StandardAnalyzer(max_token_length=8),
}


def check_batch(analyzer: StandardAnalyzer, texts) -> tuple:
    """(docs, docs analyzed per doc, mismatches)."""
    col = text_array(texts)
    per_doc = []
    oracle = analyzer.analyze_with_positions
    # count the docs analyze_column hands to the per-doc path
    analyzer.analyze_with_positions = \
        lambda text: per_doc.append(text) or oracle(text)
    try:
        tokens, docs, positions, lens = analyzer.analyze_column(col)
    finally:
        del analyzer.analyze_with_positions
    edges = np.searchsorted(docs, np.arange(len(col) + 1))
    tokens = tokens.to_pylist()
    bad = 0
    for i, text in enumerate(col.to_pylist()):
        a, b = edges[i], edges[i + 1]
        got = (tokens[a:b], positions[a:b].tolist(), int(lens[i]))
        if got != tuple(oracle(text)):
            bad += 1
    return len(col), len(per_doc), bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--col")
    ap.add_argument("--batch", type=int, default=2500)
    args = ap.parse_args(argv)
    failed = False
    for path in args.files:
        f = pq.ParquetFile(path)
        col = args.col or (
            "content" if "content" in f.schema_arrow.names else "text")
        for name, analyzer in ANALYZERS.items():
            totals = np.zeros(3, dtype=np.int64)
            for batch in f.iter_batches(args.batch, columns=[col]):
                totals += check_batch(analyzer, batch.column(0))
            failed |= bool(totals[2])
            print(f"{path} [{col}] {name}: {totals[0]} docs, "
                  f"{totals[1]} per doc, {totals[2]} mismatched")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
