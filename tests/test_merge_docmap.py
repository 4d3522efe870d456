"""Merge DocMap identity: ``remap_postings_rows`` rewrites a postings
table through ONE map per input (old ord → merged ord, −1 for a deleted
doc).  It replaced two per-term rewrites, kept here as frozen oracles:
compaction (deleted docs dropped, survivors renumbered densely, emptied
terms dropped) and the sorted-merge remap (an arbitrary permutation).
The unified rewrite must equal them table for table:

- a compaction map equals the compaction oracle;
- a permutation equals the remap oracle;
- compaction composed with a permutation equals the remap oracle over
  the compaction oracle's output (the sorted merge of a tombstoned input);
- a compaction map with a doc base equals the compaction oracle's blobs
  with their block headers shifted by that base (the unsorted merge
  rewrites an input straight to merged ords, then concatenates it
  unshifted).

Covered: random tombstones, terms whose every doc is deleted, all docs
deleted, monotonic and non-monotonic maps, positions, offsets, payloads,
multi-block lists and ``field\\x1f`` terms (per-field norms, and a field
without a norm column)."""

from typing import Dict, Optional

import numpy as np
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lucene_solr_ray.index.merge import remap_postings_rows
from lucene_solr_ray.index.postings_codec import (
    concat_postings,
    decode_postings,
    encode_postings,
)
from lucene_solr_ray.index.segment import FIELD_SEP, POSTINGS_SCHEMA


def _oracle_compact(postings: pa.Table, deleted: np.ndarray,
                    norm_for_field) -> pa.Table:
    """The per-term compaction (new ord = old ord − #deleted below)."""
    if len(deleted) == 0:
        return postings
    deleted = np.sort(np.asarray(deleted, dtype=np.int64))
    has_off = "offsets" in postings.schema.names
    has_pay = "payloads" in postings.schema.names
    terms = postings.column("term").to_pylist()
    blocks = postings.column("blocks").to_pylist()
    poss = postings.column("positions").to_pylist()
    offs = (postings.column("offsets").to_pylist() if has_off
            else [None] * postings.num_rows)
    pays = (postings.column("payloads").to_pylist() if has_pay
            else [None] * postings.num_rows)
    out = {"term": [], "df": [], "ttf": [], "blocks": [], "positions": [],
           "offsets": [], "payloads": []}
    for term, blob, posblob, offblob, payblob in zip(
        terms, blocks, poss, offs, pays
    ):
        ords, freqs = decode_postings(blob)
        ords64 = ords.astype(np.int64)
        idx = np.searchsorted(deleted, ords64)
        idx_c = np.minimum(idx, len(deleted) - 1)
        live = ~((idx < len(deleted)) & (deleted[idx_c] == ords64))
        if not live.any():
            continue
        kept_ords = ords64[live]
        kept_freqs = freqs[live]
        new_ords = kept_ords - np.searchsorted(deleted, kept_ords)
        fld = term.split(FIELD_SEP, 1)[0] if FIELD_SEP in term else None
        norms = norm_for_field(fld)
        out["term"].append(term)
        out["df"].append(int(live.sum()))
        out["ttf"].append(int(kept_freqs.sum()))
        out["blocks"].append(
            encode_postings(new_ords, kept_freqs, norms[new_ords])
        )
        keep_vals = np.repeat(live, freqs)
        if posblob is not None:
            vals = np.frombuffer(posblob or b"", dtype="<i4")
            out["positions"].append(vals[keep_vals].tobytes())
        else:
            out["positions"].append(None)
        if offblob is not None:
            pairs = np.frombuffer(offblob or b"", dtype="<i4").reshape(-1, 2)
            out["offsets"].append(pairs[keep_vals].tobytes())
        else:
            out["offsets"].append(None)
        if payblob is not None:
            pvals = np.frombuffer(payblob or b"", dtype="<f4")
            out["payloads"].append(pvals[keep_vals].tobytes())
        else:
            out["payloads"].append(None)
    return _table(out)


def _oracle_remap(postings: pa.Table, ord_map: np.ndarray,
                  norm_for_field) -> pa.Table:
    """The per-term sorted-merge remap under an arbitrary permutation."""
    has_off = "offsets" in postings.schema.names
    has_pay = "payloads" in postings.schema.names
    terms = postings.column("term").to_pylist()
    blocks = postings.column("blocks").to_pylist()
    poss = postings.column("positions").to_pylist()
    offs = (postings.column("offsets").to_pylist() if has_off
            else [None] * postings.num_rows)
    pays = (postings.column("payloads").to_pylist() if has_pay
            else [None] * postings.num_rows)
    out = {"term": [], "df": [], "ttf": [], "blocks": [], "positions": [],
           "offsets": [], "payloads": []}
    for term, blob, posblob, offblob, payblob in zip(
        terms, blocks, poss, offs, pays
    ):
        ords, freqs = decode_postings(blob)
        new_ords = ord_map[ords.astype(np.int64)]
        perm = np.argsort(new_ords, kind="mergesort")
        sorted_ords = new_ords[perm]
        sorted_freqs = freqs[perm]
        fld = term.split(FIELD_SEP, 1)[0] if FIELD_SEP in term else None
        norms = norm_for_field(fld)
        out["term"].append(term)
        out["df"].append(len(sorted_ords))
        out["ttf"].append(int(sorted_freqs.sum()))
        out["blocks"].append(
            encode_postings(sorted_ords, sorted_freqs, norms[sorted_ords])
        )
        if freqs.sum() and (posblob is not None or offblob is not None
                            or payblob is not None):
            starts = np.zeros(len(freqs), dtype=np.int64)
            np.cumsum(freqs[:-1], out=starts[1:])
            pf = freqs[perm].astype(np.int64)
            occ = np.repeat(starts[perm], pf) + (
                np.arange(int(pf.sum()))
                - np.repeat(np.cumsum(pf) - pf, pf)
            )
        else:
            occ = None
        if posblob is not None:
            vals = np.frombuffer(posblob or b"", dtype="<i4")
            out["positions"].append(
                vals[occ].tobytes() if occ is not None else posblob
            )
        else:
            out["positions"].append(None)
        if offblob is not None:
            pairs = np.frombuffer(offblob or b"", dtype="<i4").reshape(-1, 2)
            out["offsets"].append(
                pairs[occ].tobytes() if occ is not None else offblob
            )
        else:
            out["offsets"].append(None)
        if payblob is not None:
            pvals = np.frombuffer(payblob or b"", dtype="<f4")
            out["payloads"].append(
                pvals[occ].tobytes() if occ is not None else payblob
            )
        else:
            out["payloads"].append(None)
    return _table(out)


def _table(cols: Dict[str, list]) -> pa.Table:
    return pa.table(
        {
            "term": pa.array(cols["term"], pa.string()),
            "df": pa.array(np.asarray(cols["df"], dtype=np.int32)),
            "ttf": pa.array(np.asarray(cols["ttf"], dtype=np.int64)),
            "blocks": pa.array(cols["blocks"], pa.binary()),
            "positions": pa.array(cols["positions"], type=pa.binary()),
            "offsets": pa.array(cols["offsets"], type=pa.binary()),
            "payloads": pa.array(cols["payloads"], type=pa.binary()),
        },
        schema=POSTINGS_SCHEMA,
    )


# "b" has no norm column: its lookups fall back to zeros
TERMS = ["alpha", "beta", "zeta", f"a{FIELD_SEP}x", f"a{FIELD_SEP}y",
         f"b{FIELD_SEP}x"]
NORM_FIELDS = (None, "a")


def _lookup(norms: Dict[Optional[str], np.ndarray]):
    def norm_for_field(fld):
        arr = norms.get(fld)
        return arr if arr is not None else np.zeros(
            len(norms[None]), dtype=np.uint8)
    return norm_for_field


def _case(seed: int, ndocs: int, n_terms: int, occ: str, del_share: float):
    """(postings, raw norms, deleted ords) for one random segment."""
    rng = np.random.default_rng(seed)
    norms = {f: rng.integers(0, 256, ndocs).astype(np.uint8)
             for f in NORM_FIELDS}
    deleted = np.flatnonzero(rng.random(ndocs) < del_share)
    cols = {"term": [], "df": [], "ttf": [], "blocks": [], "positions": [],
            "offsets": [], "payloads": []}
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
        fld = term.split(FIELD_SEP, 1)[0] if FIELD_SEP in term else None
        nf = _lookup(norms)(fld)
        n_occ = int(freqs.sum())
        cols["term"].append(term)
        cols["df"].append(len(ords))
        cols["ttf"].append(n_occ)
        cols["blocks"].append(encode_postings(ords, freqs, nf[ords]))
        cols["positions"].append(
            rng.integers(0, 1 << 20, n_occ).astype("<i4").tobytes()
            if occ != "none" else None)
        cols["offsets"].append(
            rng.integers(0, 1 << 20, 2 * n_occ).astype("<i4").tobytes()
            if occ in ("offsets", "all") else None)
        cols["payloads"].append(
            rng.random(n_occ).astype("<f4").tobytes()
            if occ in ("payloads", "all") else None)
    return _table(cols), norms, deleted


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
    postings, norms, deleted = _case(seed, ndocs, n_terms, occ, del_share)
    live = np.ones(ndocs, dtype=bool)
    live[deleted] = False
    n_live = int(live.sum())
    compact_map = np.full(ndocs, -1, dtype=np.int64)
    compact_map[live] = np.arange(n_live)
    compact_norms = {f: a[live] for f, a in norms.items()}

    # compaction
    compacted = _oracle_compact(postings, deleted, _lookup(compact_norms))
    got = remap_postings_rows(postings, compact_map, _lookup(compact_norms))
    assert got.equals(compacted)

    # a permutation of the survivors; then compaction composed with it
    perm = np.random.default_rng(seed + 1).permutation(n_live)
    rank = np.empty(n_live, dtype=np.int64)
    rank[perm] = np.arange(n_live)
    final_norms = {f: a[perm] for f, a in compact_norms.items()}
    sorted_ = _oracle_remap(compacted, rank, _lookup(final_norms))
    assert remap_postings_rows(
        compacted, rank, _lookup(final_norms)).equals(sorted_)
    composed = compact_map.copy()
    composed[live] = rank[compact_map[live]]
    assert remap_postings_rows(
        postings, composed, _lookup(final_norms)).equals(sorted_)

    # compaction straight to merged ords (doc base added) = the
    # compaction oracle's blobs with their headers shifted by the base
    shifted = compact_map.copy()
    shifted[live] += base
    based_norms = {f: np.concatenate([np.zeros(base, np.uint8), a])
                   for f, a in compact_norms.items()}
    got = remap_postings_rows(postings, shifted, _lookup(based_norms))
    assert got.column("term").equals(compacted.column("term"))
    assert got.column("blocks").to_pylist() == [
        concat_postings([(b, base)])
        for b in compacted.column("blocks").to_pylist()
    ]
    assert got.drop_columns(["blocks"]).equals(
        compacted.drop_columns(["blocks"]))


WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]


def _oracle_merge(seg_dirs, dels, sort_desc):
    """The merged postings as the oracles made them: each tombstoned
    input compacted with its own compacted norms, inputs concatenated at
    their doc bases, then (sorted merge) remapped with the merged norms."""
    import os

    import pyarrow.parquet as pq

    from lucene_solr_ray.index.merge import _merge_postings_rows

    tables, bases, dms, base = [], [], [], 0
    for d, deleted in zip(seg_dirs, dels):
        t = pq.read_table(os.path.join(d, "postings.parquet"))
        dm = pq.read_table(os.path.join(d, "docmeta.parquet"))
        live = np.ones(dm.num_rows, dtype=bool)
        live[deleted] = False
        dm = dm.filter(pa.array(live))
        tables.append(_oracle_compact(
            t, deleted, _lookup({None: dm.column("norm").to_numpy()})))
        bases.append(base)
        base += dm.num_rows
        dms.append(dm)
    merged = _merge_postings_rows(tables, bases)
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
    norms = {None: dm.column("norm").to_numpy()[perm]}
    return _oracle_remap(merged, rank, _lookup(norms))


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
    postings equal the oracle merge's, blob for blob."""
    import os

    import pyarrow.parquet as pq

    from lucene_solr_ray.index import sidecars
    from lucene_solr_ray.index.manifest import write_segment_dir
    from lucene_solr_ray.index.merge import merge_segments
    from lucene_solr_ray.index.segment import build_segment_tables

    rng = np.random.default_rng(seed)
    out = str(tmp_path_factory.mktemp("idx"))
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

    meta = merge_segments(out, list(range(len(inputs))), 99)
    got = pq.read_table(os.path.join(out, "seg_000099", "postings.parquet"))
    want = _oracle_merge(seg_dirs, dels, sort_desc)
    assert got.combine_chunks().equals(want)
    assert meta["stats"]["term_count"] == want.num_rows
    assert meta["stats"]["doc_count"] == doc - sum(len(x) for x in dels)
