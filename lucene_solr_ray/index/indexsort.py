"""Index sort: the one comparator that lays segments down and ranks
sorted hits.

``IndexWriterConfig.setIndexSort`` (IndexWriterConfig.java:465) lays each
segment down in comparator order, and ``TopFieldCollector`` stops early
when the search sort matches (``canEarlyTerminate``).  That is safe only
because one comparator does both, so every path here calls this module:
the build layout, the merge permutation, ``check_segment``, the
per-segment sorted selection and the driver merges of the sorted
searches.

- Spec: ``(field, desc)`` or ``[(field, desc), ...]``, normalised by
  :func:`normalize`.
- Meta: ``segment.json`` holds ``{"index_sort": {"fields": [{"field": f,
  "desc": d}, ...]}}`` (:func:`meta_entry` writes it, :func:`read` reads
  it).  A meta with only the legacy single-field ``field``/``desc`` keys
  reads as unsorted: its answers are the same, only early termination
  is lost.
- Comparator: the key values in order, each ascending or descending, then
  ``doc_id`` ascending.  A missing value (null or NaN) sorts as the
  greatest value, so it comes last ascending and first descending.
- Selection: :func:`select` takes a segment's matching ords to its top k
  (or top k per group), stopping early when the query sort is a prefix of
  the segment's sort and no key has a doc-values overlay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["normalize", "meta_entry", "read", "has_legacy_marker",
           "sort_codes", "order", "permutation", "first_n_per_group",
           "select"]

Sort = List[Tuple[str, bool]]


def normalize(index_sort) -> Optional[Sort]:
    """``(field, desc)`` | ``[(field, desc), ...]`` → a list of pairs, or
    None for no sort."""
    if not index_sort:
        return None
    seq = list(index_sort)
    if isinstance(seq[0], str):  # single (field, desc) pair
        return [(seq[0], bool(seq[1]))]
    return [(f, bool(d)) for f, d in seq]


def meta_entry(sort: Optional[Sort]) -> Dict:
    """The ``segment.json`` entry recording ``sort`` ({} when None)."""
    if not sort:
        return {}
    return {"index_sort": {
        "fields": [{"field": f, "desc": bool(d)} for f, d in sort]
    }}


def read(meta: Dict) -> Optional[Sort]:
    """The sort a segment was laid down in, or None when unsorted."""
    fields = (meta.get("index_sort") or {}).get("fields")
    if not fields:
        return None
    return [(f["field"], bool(f["desc"])) for f in fields]


def has_legacy_marker(meta: Dict) -> bool:
    """True when the meta carries only the legacy ``field``/``desc`` keys
    (read as unsorted)."""
    isort = meta.get("index_sort") or {}
    return "field" in isort and not isort.get("fields")


def _missing(v: np.ndarray) -> np.ndarray:
    if v.dtype.kind == "f":
        return np.isnan(v)
    if v.dtype.kind == "O":
        return (v == None) | (v != v)  # noqa: E711 — elementwise
    return np.zeros(len(v), dtype=bool)


def sort_codes(values, desc: bool = False) -> np.ndarray:
    """Ordinal codes of one key column (equal values, equal codes),
    missing values greatest, negated when ``desc``: sorting the codes
    ascending sorts the column in comparator order.  Strings sort by
    code point, like SortedDocValues ordinals."""
    v = np.asarray(values)
    miss = _missing(v)
    if miss.any():
        codes = np.empty(len(v), dtype=np.int64)
        present = np.unique(v[~miss], return_inverse=True)[1]
        codes[~miss] = present
        codes[miss] = present.max() + 1 if len(present) else 0
    else:
        codes = np.unique(v, return_inverse=True)[1].astype(np.int64)
    return -codes if desc else codes


def order(keys: Sequence, descs: Sequence[bool], doc_ids,
          first: Optional[np.ndarray] = None) -> np.ndarray:
    """The permutation that puts rows in comparator order: ``keys`` in
    order, then ``doc_ids`` ascending.  ``first`` (optional) is an integer
    key that sorts before all of them (a query's position, say)."""
    cols = [np.asarray(doc_ids)]
    cols += [sort_codes(k, d) for k, d in zip(reversed(keys),
                                               reversed(descs))]
    if first is not None:
        cols.append(first)
    return np.lexsort(tuple(cols))


def permutation(sort: Sort, table, doc_ids) -> np.ndarray:
    """The comparator order of an Arrow table's rows, whose key columns
    ``sort`` names: the layout of a segment sorted by ``sort``."""
    return order(
        [table.column(f).to_numpy(zero_copy_only=False) for f, _ in sort],
        [d for _, d in sort], doc_ids,
    )


def _tie_run_end(keys: Sequence[np.ndarray], ords: np.ndarray,
                 k: int) -> int:
    """The end of the run of ``ords`` from the k-th on whose keys equal
    the k-th's.  Ord order is sorted by these keys, so the run is one
    stretch; windows double until one holds a different key."""
    end, width = k, 1
    while end < len(ords):
        win = ords[k - 1:end + width]
        same = np.ones(len(win), dtype=bool)
        for v in keys:
            codes = sort_codes(v[win])
            same &= codes == codes[0]
        if not same.all():
            return k - 1 + int(np.argmin(same))
        end += width
        width *= 2
    return len(ords)


def first_n_per_group(sel: np.ndarray, groups: np.ndarray,
                      n: int) -> np.ndarray:
    """The first ``n`` entries of ``sel`` of each group, in ``sel``
    order."""
    g = sort_codes(groups[sel])
    by = np.argsort(g, kind="stable")
    gs = g[by]
    rank = np.empty(len(sel), dtype=np.int64)
    rank[by] = np.arange(len(sel)) - np.searchsorted(gs, gs)
    return sel[rank < n]


def select(ords: np.ndarray, keys: Sequence[np.ndarray], doc_ids,
           sort: Sort, k: int, seg_sort: Optional[Sort],
           overlaid: bool = False,
           groups: Optional[np.ndarray] = None) -> Tuple[np.ndarray, int]:
    """Top ``k`` of the matching ``ords`` (ascending) by ``sort`` over the
    segment's key columns ``keys``: (indices into ``ords`` in comparator
    order, number of candidates whose keys were examined).  With
    ``groups`` (one value per ord), the top ``k`` of each group.

    Early termination applies when ``sort`` is a prefix of the segment's
    ``seg_sort`` and no key has a doc-values overlay: ord order is then
    comparator order up to ties on the query keys.  For the full index
    sort the first k ords are the answer (ord order ends in doc_id).  For
    a proper prefix, the candidates are the first k ords plus the rest of
    the run whose keys equal the k-th's, ordered by the comparator, so
    the answer never depends on segmentation."""
    n = len(ords)
    descs = [d for _, d in sort]
    early = (not overlaid and seg_sort is not None
             and seg_sort[:len(sort)] == list(sort))
    if early and len(sort) == len(seg_sort):
        sel = np.arange(n)
        if groups is None:
            sel = sel[:k]
        else:
            sel = first_n_per_group(sel, groups, k)
        return sel, len(sel)
    m = n
    if early and groups is None and k < n:
        m = _tie_run_end(keys, ords, k) if k else 0
    cand = ords[:m]
    sel = order([v[cand] for v in keys], descs, np.asarray(doc_ids)[cand])
    if groups is None:
        return sel[:k], m
    return first_n_per_group(sel, groups, k), m
