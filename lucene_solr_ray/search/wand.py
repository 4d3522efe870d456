"""Pruned (TOP_SCORES) top-k: no query shape takes a pruned path.

The reference's dynamic-pruning scorers (``WANDScorer``,
``BlockMaxConjunctionScorer``, ``ImpactsDISI`` + ``MaxScoreCache``) were
ported here as block-max WAND / MaxScore over per-block impacts that
the segments stored.  Measured on one-segment indexes of 1k, 20k and
100k docs, that path was slower than exhaustive numpy scoring
(``scorer.topk_segment``) on every query shape, so it was removed, and
postings format 6 stores no impacts.

``topk_pruned`` stays as the answer "not pruned" for callers that ask
which queries take a pruned path.
"""

from __future__ import annotations

__all__ = ["topk_pruned"]


def topk_pruned(reader, query, stats, k, sim=None) -> None:
    """Always None: every top-k is scored exhaustively."""
    return None
