"""Merge DocMap identity: ``remap_postings_rows`` rewrites a postings
table through ONE map per input (old ord → merged ord, −1 for a deleted
doc).  It replaced two per-term rewrites, kept here as frozen oracles:
compaction (deleted docs dropped, survivors renumbered densely, emptied
terms dropped) and the sorted-merge remap (an arbitrary permutation).
The column rewrite must equal them table for table:

- a compaction map equals the compaction oracle;
- a permutation equals the remap oracle;
- compaction composed with a permutation equals the remap oracle over
  the compaction oracle's output (the sorted merge of a tombstoned input);
- a compaction map with a doc base equals the compaction oracle's ords
  shifted by that base (the doc base of a merged input).

``merge_segments`` must equal the oracle merge (each input compacted,
the inputs joined term by term at their doc bases, then remapped through
the sort permutation), with one term range and with four.

Covered: random tombstones, terms whose every doc is deleted, all docs
deleted, monotonic and non-monotonic maps, positions, offsets, payloads,
lists longer than one 128-value block and ``field\\x1f`` terms."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lucene_solr_ray.index.merge import remap_postings_rows
from lucene_solr_ray.index.segment import FIELD_SEP, POSTINGS_SCHEMA

#: the per-occurrence columns and the values one occurrence has
OCC = (("positions", 1), ("offsets", 2), ("payloads", 1))


def _table(rows) -> pa.Table:
    return pa.Table.from_pylist(rows, schema=POSTINGS_SCHEMA)


def _oracle_compact(postings: pa.Table, deleted: np.ndarray) -> pa.Table:
    """The per-term compaction (new ord = old ord − #deleted below)."""
    if len(deleted) == 0:
        return postings
    deleted = np.sort(np.asarray(deleted, dtype=np.int64))
    out = []
    for row in postings.to_pylist():
        ords = np.asarray(row["ords"], dtype=np.int64)
        freqs = np.asarray(row["freqs"], dtype=np.int64)
        idx = np.searchsorted(deleted, ords)
        idx_c = np.minimum(idx, len(deleted) - 1)
        live = ~((idx < len(deleted)) & (deleted[idx_c] == ords))
        if not live.any():
            continue
        kept_ords = ords[live]
        new = dict(row, df=int(live.sum()), ttf=int(freqs[live].sum()),
                   ords=(kept_ords - np.searchsorted(deleted, kept_ords)
                         ).tolist(),
                   freqs=freqs[live].tolist())
        keep_vals = np.repeat(live, freqs)
        for name, width in OCC:
            if row[name] is not None:
                new[name] = np.asarray(row[name]).reshape(-1, width)[
                    keep_vals].ravel().tolist()
        out.append(new)
    return _table(out)


def _oracle_remap(postings: pa.Table, ord_map: np.ndarray) -> pa.Table:
    """The per-term sorted-merge remap under an arbitrary permutation."""
    out = []
    for row in postings.to_pylist():
        ords = np.asarray(row["ords"], dtype=np.int64)
        freqs = np.asarray(row["freqs"], dtype=np.int64)
        new_ords = ord_map[ords]
        perm = np.argsort(new_ords, kind="mergesort")
        new = dict(row, ords=new_ords[perm].tolist(),
                   freqs=freqs[perm].tolist())
        starts = np.zeros(len(freqs), dtype=np.int64)
        np.cumsum(freqs[:-1], out=starts[1:])
        pf = freqs[perm]
        occ = np.repeat(starts[perm], pf) + (
            np.arange(int(pf.sum())) - np.repeat(np.cumsum(pf) - pf, pf))
        for name, width in OCC:
            if row[name] is not None:
                new[name] = np.asarray(row[name]).reshape(-1, width)[
                    occ].ravel().tolist()
        out.append(new)
    return _table(out)


def _oracle_join(tables, bases) -> pa.Table:
    """Inputs joined term by term, in input order, ords at their bases."""
    acc = {}
    for t, base in zip(tables, bases):
        for row in t.to_pylist():
            row["ords"] = [o + base for o in row["ords"]]
            cur = acc.setdefault(row["term"], row)
            if cur is row:
                continue
            cur["df"] += row["df"]
            cur["ttf"] += row["ttf"]
            for name in ("ords", "freqs") + tuple(n for n, _ in OCC):
                if cur[name] is not None:
                    cur[name] = cur[name] + row[name]
    return _table([acc[t] for t in sorted(acc)])


TERMS = ["alpha", "beta", "zeta", f"a{FIELD_SEP}x", f"a{FIELD_SEP}y",
         f"b{FIELD_SEP}x"]


def _case(seed: int, ndocs: int, n_terms: int, occ: str, del_share: float):
    """(postings, deleted ords) for one random segment."""
    rng = np.random.default_rng(seed)
    deleted = np.flatnonzero(rng.random(ndocs) < del_share)
    rows = []
    terms = sorted(rng.choice(TERMS, size=n_terms, replace=False).tolist())
    if len(deleted):
        terms = sorted(terms + ["gone"])   # every doc of it is deleted
    for term in terms:
        if term == "gone":
            ords = np.sort(rng.choice(deleted, size=rng.integers(
                1, len(deleted) + 1), replace=False))
        else:
            ords = np.sort(rng.choice(ndocs, size=rng.integers(
                1, ndocs + 1), replace=False))
        freqs = rng.integers(1, 5, len(ords))
        n_occ = int(freqs.sum())
        rows.append({
            "term": term, "df": len(ords), "ttf": n_occ,
            "ords": ords.tolist(), "freqs": freqs.tolist(),
            "positions": rng.integers(0, 1 << 20, n_occ).tolist()
            if occ != "none" else None,
            "offsets": rng.integers(0, 1 << 20, 2 * n_occ).tolist()
            if occ in ("offsets", "all") else None,
            "payloads": rng.random(n_occ).astype(np.float32).tolist()
            if occ in ("payloads", "all") else None,
        })
    return _table(rows), deleted


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.integers(1, len(TERMS)),
    st.sampled_from(["none", "positions", "offsets", "payloads", "all"]),
    st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),
    st.integers(0, 5000),
)
@example(0, 1, 1, "all", 1.0, 0)
@example(1, 300, 6, "all", 0.0, 7)
@example(2, 257, 6, "positions", 0.5, 128)
def test_one_docmap_equals_frozen_oracles(seed, ndocs, n_terms, occ,
                                          del_share, base):
    postings, deleted = _case(seed, ndocs, n_terms, occ, del_share)
    live = np.ones(ndocs, dtype=bool)
    live[deleted] = False
    n_live = int(live.sum())
    compact_map = np.full(ndocs, -1, dtype=np.int64)
    compact_map[live] = np.arange(n_live)

    # compaction
    compacted = _oracle_compact(postings, deleted)
    assert remap_postings_rows(postings, compact_map).equals(compacted)

    # a permutation of the survivors; then compaction composed with it
    perm = np.random.default_rng(seed + 1).permutation(n_live)
    rank = np.empty(n_live, dtype=np.int64)
    rank[perm] = np.arange(n_live)
    sorted_ = _oracle_remap(compacted, rank)
    assert remap_postings_rows(compacted, rank).equals(sorted_)
    composed = compact_map.copy()
    composed[live] = rank[compact_map[live]]
    assert remap_postings_rows(postings, composed).equals(sorted_)

    # compaction straight to merged ords (doc base added) = the
    # compaction oracle's ords shifted by the base
    shifted = compact_map.copy()
    shifted[live] += base
    assert remap_postings_rows(postings, shifted).equals(
        _oracle_join([compacted], [base]))


WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]


def _oracle_merge(seg_dirs, dels, sort_desc):
    """The merged postings as the oracles make them: each tombstoned
    input compacted, inputs joined at their doc bases, then (sorted
    merge) remapped through the merged sort permutation."""
    import os

    import pyarrow.parquet as pq

    tables, bases, dms, base = [], [], [], 0
    for d, deleted in zip(seg_dirs, dels):
        t = pq.read_table(os.path.join(d, "postings.parquet"))
        dm = pq.read_table(os.path.join(d, "docmeta.parquet"))
        live = np.ones(dm.num_rows, dtype=bool)
        live[deleted] = False
        dm = dm.filter(pa.array(live))
        tables.append(_oracle_compact(t, deleted))
        bases.append(base)
        base += dm.num_rows
        dms.append(dm)
    merged = _oracle_join(tables, bases)
    if sort_desc is None:
        return merged
    dm = pa.concat_tables(dms)
    codes = np.unique(dm.column("prio").to_numpy(), return_inverse=True)[1]
    perm = np.lexsort((dm.column("doc_id").to_numpy(),
                       -codes if sort_desc else codes))
    if np.array_equal(perm, np.arange(len(perm))):
        return merged
    rank = np.empty(len(perm), dtype=np.int64)
    rank[perm] = np.arange(len(perm))
    return _oracle_remap(merged, rank)


def _merge_case(out, seed, inputs, sort_desc):
    """Write one segment per input (with its tombstones) under ``out``;
    returns (segment dirs, deleted ords per input, doc count)."""
    from lucene_solr_ray.index import sidecars
    from lucene_solr_ray.index.manifest import write_segment_dir
    from lucene_solr_ray.index.segment import build_segment_tables

    rng = np.random.default_rng(seed)
    seg_dirs, dels, doc = [], [], 0
    for sid, (n, del_share) in enumerate(inputs):
        texts = [" ".join(rng.choice(WORDS, size=rng.integers(1, 12)))
                 for _ in range(n)]
        seg = build_segment_tables(list(range(doc, doc + n)), texts)
        doc += n
        docmeta = seg.docmeta
        meta = {"segment_id": sid, "stats": seg.stats}
        if sort_desc is not None:
            docmeta = docmeta.append_column(
                "prio", pa.array(rng.integers(0, 5, n)))
            meta["index_sort"] = {"fields": [
                {"field": "prio", "desc": sort_desc}]}
        d = write_segment_dir(out, sid, seg.postings, docmeta, meta)
        deleted = np.flatnonzero(rng.random(n) < del_share)
        if len(deleted):
            sidecars.write(d, sidecars.DELETES, 1, deleted)
        seg_dirs.append(d)
        dels.append(deleted)
    return seg_dirs, dels, doc


def _check_merge(out, seed, inputs, sort_desc, num_shards):
    import os

    import pyarrow.parquet as pq

    from lucene_solr_ray.index.merge import merge_segments

    seg_dirs, dels, doc = _merge_case(out, seed, inputs, sort_desc)
    meta = merge_segments(out, list(range(len(inputs))), 99,
                          num_shards=num_shards)
    got = pq.read_table(os.path.join(out, "seg_000099", "postings.parquet"))
    want = _oracle_merge(seg_dirs, dels, sort_desc)
    assert got.to_pylist() == want.to_pylist()
    assert meta["stats"]["term_count"] == want.num_rows
    assert meta["stats"]["doc_count"] == doc - sum(len(x) for x in dels)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(1, 200),
                       st.sampled_from([0.0, 0.1, 0.6, 1.0])),
             min_size=1, max_size=4),
    st.sampled_from([None, False, True]),
)
@example(3, [(150, 0.1), (1, 1.0), (140, 0.0)], True)
@example(4, [(130, 0.6), (20, 0.0), (140, 0.1)], None)
def test_merge_segments_postings_equal_oracle_merge(
    tmp_path_factory, seed, inputs, sort_desc
):
    """merge_segments (one range, no Ray task) builds each input's DocMap
    from its tombstones, its base and the sort permutation, and its
    postings equal the oracle merge's, term for term."""
    _check_merge(str(tmp_path_factory.mktemp("idx")), seed, inputs,
                 sort_desc, 1)


@pytest.mark.parametrize("sort_desc", [None, True])
def test_merge_term_ranges_equal_oracle_merge(ray_session, tmp_path,
                                             sort_desc):
    """Four term ranges, one Ray task each, equal the oracle merge."""
    _check_merge(str(tmp_path), 5, [(150, 0.1), (1, 1.0), (140, 0.0),
                                    (90, 0.6)], sort_desc, 4)
