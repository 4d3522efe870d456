"""Update-request-processor chain: per-field mutators before indexing.

The Solr URP factories re-expressed as composable vectorized
``map_batches`` stages (reference
``solr/core/src/java/org/apache/solr/update/processor/`` — ~60 factories;
implemented here: 42 covering the text/value mutators, multivalued
subsetters (first/last/min/max/uniq), type parsers (date/number/boolean
+ schemaless guessing), langid/URL/TTL enrichment, template rendering,
field renaming, and the stateless-script escape hatch):

=============================  ==========================================
reference factory               here
=============================  ==========================================
TrimFieldUpdateProcessor        :func:`trim_field`
RegexReplaceProcessorFactory    :func:`regex_replace`
ConcatFieldUpdateProcessor      :func:`concat_fields`
ParseDateFieldUpdateProcessor   :func:`parse_date`
ParseIntFieldUpdateProcessor/   :func:`parse_number`
ParseDoubleField...
DefaultValueUpdateProcessor     :func:`default_value`
UUIDUpdateProcessorFactory      :func:`uuid_field` (deterministic: content
                                hash, so reruns are idempotent)
HTMLStripFieldUpdateProcessor   :func:`html_strip`
FieldLengthUpdateProcessor      :func:`field_length`
CloneFieldUpdateProcessor       :func:`clone_field`
TruncateFieldUpdateProcessor    :func:`truncate_field`
=============================  ==========================================

``chain(ds, [stage, ...])`` applies them in order — the URP chain.  Each
stage compiles its pattern ONCE at construction; the returned closures are
pure batch transforms (stateless Ray tasks).
"""

from __future__ import annotations

import hashlib
import re
from typing import Callable, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "chain",
    "trim_field",
    "regex_replace",
    "concat_fields",
    "parse_date",
    "parse_number",
    "default_value",
    "uuid_field",
    "html_strip",
    "field_length",
    "clone_field",
    "truncate_field",
    "ignore_field",
    "remove_blank",
    "lowercase_field",
    "uppercase_field",
    "timestamp_field",
    "count_values",
    "min_value",
    "max_value",
    "dedupe_values",
    "first_value",
    "last_value",
    "parse_boolean",
    "template_field",
    "rename_fields",
    "langid_field",
    "doc_expiration",
    "url_classify",
    "add_schema_fields",
    "script_stage",
    "signature_field",
    "ignore_large_docs",
    "classification_field",
    "nested_docs",
    "parse_int",
    "parse_long",
    "parse_float",
    "parse_double",
    "regexp_boost",
    "pre_analyzed",
    "version_constraints",
    "skip_existing",
]

Stage = Callable[[pa.Table], pa.Table]


def chain(ds, stages: List[Stage]):
    """Apply a URP chain; one fused map_batches per pipeline."""

    def _apply(t: pa.Table) -> pa.Table:
        for s in stages:
            t = s(t)
        return t

    return ds.map_batches(_apply, batch_format="pyarrow")


def _set(t: pa.Table, col: str, arr) -> pa.Table:
    if col in t.column_names:
        return t.set_column(t.schema.get_field_index(col), col, arr)
    return t.append_column(col, arr)


def trim_field(col: str) -> Stage:
    def s(t: pa.Table) -> pa.Table:
        return _set(t, col, pc.utf8_trim_whitespace(t.column(col)))

    return s


def regex_replace(col: str, pattern: str, replacement: str) -> Stage:
    def s(t: pa.Table) -> pa.Table:
        return _set(
            t, col,
            pc.replace_substring_regex(
                t.column(col), pattern=pattern, replacement=replacement
            ),
        )

    return s


def concat_fields(out: str, cols: List[str], sep: str = " ") -> Stage:
    def s(t: pa.Table) -> pa.Table:
        arr = pc.binary_join_element_wise(
            *[t.column(c) for c in cols], sep
        )
        return _set(t, out, arr)

    return s


def parse_date(col: str, out: Optional[str] = None) -> Stage:
    def s(t: pa.Table) -> pa.Table:
        arr = pc.strptime(t.column(col), format="%Y-%m-%d", unit="us")
        return _set(t, out or col, arr)

    return s


def parse_number(col: str, out: Optional[str] = None,
                 type_: pa.DataType = None) -> Stage:
    ty = type_ or pa.float64()

    def s(t: pa.Table) -> pa.Table:
        return _set(t, out or col, pc.cast(t.column(col), ty))

    return s


def default_value(col: str, value) -> Stage:
    def s(t: pa.Table) -> pa.Table:
        c = t.column(col)
        return _set(t, col, pc.fill_null(c, value))

    return s


def uuid_field(out: str, from_cols: List[str]) -> Stage:
    """Deterministic doc id from content (idempotent across reruns —
    unlike random UUIDs, safe for resumable builds)."""

    def s(t: pa.Table) -> pa.Table:
        cols = [t.column(c).to_pylist() for c in from_cols]
        ids = [
            hashlib.sha1("|".join(str(v) for v in row).encode()).hexdigest()
            for row in zip(*cols)
        ]
        return _set(t, out, pa.array(ids, pa.string()))

    return s


_TAG_RE = r"<[^>]*>"


def html_strip(col: str) -> Stage:
    def s(t: pa.Table) -> pa.Table:
        return _set(
            t, col,
            pc.replace_substring_regex(
                t.column(col), pattern=_TAG_RE, replacement=""
            ),
        )

    return s


def field_length(col: str, out: str) -> Stage:
    def s(t: pa.Table) -> pa.Table:
        return _set(t, out, pc.utf8_length(t.column(col)))

    return s


def clone_field(src: str, dst: str) -> Stage:
    def s(t: pa.Table) -> pa.Table:
        return _set(t, dst, t.column(src))

    return s


def truncate_field(col: str, max_len: int) -> Stage:
    def s(t: pa.Table) -> pa.Table:
        return _set(t, col, pc.utf8_slice_codeunits(t.column(col), 0, max_len))

    return s


def ignore_field(col: str) -> Stage:
    """``IgnoreFieldUpdateProcessorFactory`` — drop the column."""
    def s(t: pa.Table) -> pa.Table:
        if col in t.column_names:
            return t.drop([col])
        return t
    return s


def remove_blank(col: str) -> Stage:
    """``RemoveBlankFieldUpdateProcessorFactory`` — empty string → null."""
    def s(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        c = t.column(col)
        blank = pc.equal(c, "")
        return _set(t, col, pc.if_else(blank, pa.nulls(len(t), c.type), c))
    return s


def lowercase_field(col: str) -> Stage:
    """``FieldMutating`` lowercase (Solr lowercase processor)."""
    def s(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return _set(t, col, pc.utf8_lower(t.column(col)))
    return s


def uppercase_field(col: str) -> Stage:
    def s(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return _set(t, col, pc.utf8_upper(t.column(col)))
    return s


def timestamp_field(out: str, value: str) -> Stage:
    """``TimestampUpdateProcessorFactory`` — a fixed ingest timestamp
    column (the caller supplies the commit time so reruns stay
    deterministic/resumable)."""
    ts = np.datetime64(value, "us")

    def s(t: pa.Table) -> pa.Table:
        return _set(
            t, out,
            pa.array([ts] * t.num_rows, pa.timestamp("us")),
        )
    return s


def count_values(col: str, out: str, sep: str = " ") -> Stage:
    """``CountFieldValuesUpdateProcessorFactory`` over a delimited field."""
    def s(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        parts = pc.split_pattern(t.column(col), sep)
        return _set(t, out, pc.list_value_length(parts))
    return s


def min_value(cols: List[str], out: str) -> Stage:
    """``MinFieldValueUpdateProcessorFactory`` across columns."""
    def s(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        acc = t.column(cols[0])
        for c in cols[1:]:
            acc = pc.min_element_wise(acc, t.column(c))
        return _set(t, out, acc)
    return s


def max_value(cols: List[str], out: str) -> Stage:
    """``MaxFieldValueUpdateProcessorFactory`` across columns."""
    def s(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        acc = t.column(cols[0])
        for c in cols[1:]:
            acc = pc.max_element_wise(acc, t.column(c))
        return _set(t, out, acc)
    return s


def dedupe_values(col: str, sep: str = " ") -> Stage:
    """``UniqFieldsUpdateProcessorFactory`` — first-occurrence dedupe of a
    delimited field's values."""
    def s(t: pa.Table) -> pa.Table:
        vals = []
        for v in t.column(col).to_pylist():
            if v is None:
                vals.append(None)
                continue
            seen = dict.fromkeys(v.split(sep))
            vals.append(sep.join(seen))
        return _set(t, col, pa.array(vals, pa.string()))
    return s


def first_value(col: str) -> Stage:
    """``FirstFieldValueUpdateProcessorFactory`` — keep the first element
    of a multivalued (list) column."""
    def s(t: pa.Table) -> pa.Table:
        return _set(t, col, pc.list_element(t.column(col), 0))
    return s


def last_value(col: str) -> Stage:
    """``LastFieldValueUpdateProcessorFactory`` — last element via the
    list offsets (pyarrow's list_element only takes scalar indices)."""
    def s(t: pa.Table) -> pa.Table:
        arr = t.column(col).combine_chunks()
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.chunk(0) if arr.num_chunks else pa.array(
                [], type=arr.type
            )
        if not len(arr):
            return t
        off = arr.offsets.to_numpy(zero_copy_only=False)
        idx = off[1:] - 1  # last element of each row; empty row → off[i]-1
        valid = off[1:] > off[:-1]
        taken = arr.values.take(
            pa.array([int(i) if v else 0 for i, v in zip(idx, valid)])
        )
        out = pa.array(
            [taken[i].as_py() if v else None
             for i, v in enumerate(valid)],
            type=arr.type.value_type,
        )
        return _set(t, col, out)
    return s


def parse_boolean(col: str, out: Optional[str] = None,
                  true_values=("true", "yes", "on", "1"),
                  false_values=("false", "no", "off", "0")) -> Stage:
    """``ParseBooleanFieldUpdateProcessorFactory``: case-insensitive
    true/false vocabularies; unparseable values become null."""
    tv = frozenset(v.lower() for v in true_values)
    fv = frozenset(v.lower() for v in false_values)

    def s(t: pa.Table) -> pa.Table:
        low = pc.utf8_lower(t.column(col))
        ist = pc.is_in(low, value_set=pa.array(sorted(tv)))
        isf = pc.is_in(low, value_set=pa.array(sorted(fv)))
        arr = pc.if_else(ist, True, pc.if_else(isf, False, None))
        return _set(t, out or col, arr)
    return s


def template_field(out: str, template: str) -> Stage:
    """``TemplateUpdateProcessorFactory``: render ``${field}``
    placeholders from row values (vectorized as a join of the literal
    segments and the referenced columns)."""
    parts = re.split(r"\$\{([A-Za-z0-9_]+)\}", template)
    # parts alternate: literal, field, literal, field, ..., literal

    def s(t: pa.Table) -> pa.Table:
        pieces = []
        for i, seg in enumerate(parts):
            if i % 2 == 0:
                pieces.append(pa.array([seg] * t.num_rows, pa.string()))
            else:
                pieces.append(pc.cast(t.column(seg), pa.string()))
        arr = pc.binary_join_element_wise(*pieces, "")
        return _set(t, out, arr)
    return s


def rename_fields(pattern: str, replacement: str) -> Stage:
    """``FieldNameMutatingUpdateProcessorFactory``: regex-rename columns."""
    rx = re.compile(pattern)

    def s(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            [rx.sub(replacement, c) for c in t.column_names]
        )
    return s


def langid_field(col: str, out: str = "lang") -> Stage:
    """``LangDetectLanguageIdentifierUpdateProcessorFactory`` role: set a
    language field from the trigram classifier.  The profile model
    compiles lazily ONCE per worker process and is shared by every batch
    the closure sees (the factory's langid model reuse)."""
    holder = {}

    def s(t: pa.Table) -> pa.Table:
        stage = holder.get("m")
        if stage is None:
            from lucene_solr_ray.functions.textstats import LangIdStage

            stage = holder["m"] = LangIdStage()
        langs = pa.array(
            [stage._classify(v or "")[0]
             for v in t.column(col).to_pylist()],
            pa.string(),
        )
        return _set(t, out, langs)
    return s


def doc_expiration(ttl_col: str, now: str, expire_col: str = "_expire_at_",
                   drop_expired: bool = True) -> Stage:
    """``DocExpirationUpdateProcessorFactory``: compute the expiration
    timestamp from a per-doc TTL-seconds column relative to ``now``
    (ISO timestamp string — passed in, never wall-clock, so reruns are
    deterministic) and drop already-expired docs."""
    now_ts = np.datetime64(now, "us")

    def s(t: pa.Table) -> pa.Table:
        ttl = t.column(ttl_col).to_numpy(zero_copy_only=False).astype(
            "timedelta64[s]"
        ).astype("timedelta64[us]")
        exp = now_ts + ttl
        t = _set(t, expire_col, pa.array(exp, pa.timestamp("us")))
        if drop_expired:
            t = t.filter(pa.array(exp > now_ts))
        return t
    return s


def url_classify(col: str) -> Stage:
    """``URLClassifyProcessorFactory``: derive url_length / url_levels /
    url_domain / url_canonical from a URL column."""
    def s(t: pa.Table) -> pa.Table:
        from urllib.parse import urlsplit, urlunsplit

        lengths, levels, domains, canon = [], [], [], []
        for v in t.column(col).to_pylist():
            v = v or ""
            sp = urlsplit(v)
            path = sp.path or "/"
            lengths.append(len(v))
            levels.append(max(0, len([p for p in path.split("/") if p])))
            domains.append(sp.hostname or "")
            canon.append(urlunsplit(
                (sp.scheme.lower(), (sp.netloc or "").lower(),
                 path.rstrip("/") or "/", sp.query, "")
            ))
        t = _set(t, "url_length", pa.array(lengths, pa.int64()))
        t = _set(t, "url_levels", pa.array(levels, pa.int64()))
        t = _set(t, "url_domain", pa.array(domains, pa.string()))
        return _set(t, "url_canonical", pa.array(canon, pa.string()))
    return s


def add_schema_fields(cols: Optional[List[str]] = None) -> Stage:
    """``AddSchemaFieldsUpdateProcessorFactory`` (schemaless type
    guessing): cast a string column to int64 or float64 when EVERY
    non-null value parses; otherwise leave it a string."""
    def s(t: pa.Table) -> pa.Table:
        targets = cols or [
            f.name for f in t.schema if pa.types.is_string(f.type)
        ]
        for c in targets:
            if c not in t.column_names or not pa.types.is_string(
                t.schema.field(c).type
            ):
                continue
            arr = t.column(c)
            for typ in (pa.int64(), pa.float64()):
                try:
                    cast = pc.cast(arr, typ)
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                    continue
                t = _set(t, c, cast)
                break
        return t
    return s


def script_stage(fn: Callable[[pa.Table], pa.Table]) -> Stage:
    """``StatelessScriptUpdateProcessorFactory``: a user batch transform
    slotted into the chain."""
    return fn


def signature_field(cols: List[str], out: str = "signature") -> Stage:
    """``SignatureUpdateProcessorFactory`` (MD5 over the named fields,
    concatenated in order — the exact-dup signature Solr computes at
    update time; the dedup pipelines in functions/dedup.py consume the
    same shape)."""
    def s(t: pa.Table) -> pa.Table:
        parts = [
            pc.cast(t.column(c), pa.string()) if not pa.types.is_string(
                t.schema.field(c).type
            ) else t.column(c)
            for c in cols
        ]
        joined = parts[0]
        for p in parts[1:]:
            joined = pc.binary_join_element_wise(joined, p, "|")
        sigs = [
            hashlib.md5((v or "").encode("utf-8")).hexdigest()
            for v in joined.to_pylist()
        ]
        return _set(t, out, pa.array(sigs, pa.string()))
    return s


def ignore_large_docs(col: str, max_chars: int) -> Stage:
    """``IgnoreLargeDocumentProcessorFactory``: drop documents whose
    field exceeds the size limit (the reference measures the JavaBin
    size; chars of the payload field are the engine's equivalent)."""
    def s(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.less_equal(pc.utf8_length(t.column(col)), max_chars)
        )
    return s


def classification_field(col: str, classify_fn: Callable[[List[str]],
                                                          List[str]],
                         out: str = "class") -> Stage:
    """``ClassificationUpdateProcessorFactory``: assign a class at index
    time with a trained classifier.  The reference delegates to the
    classification module (KNN / SimpleNaiveBayes); here
    ``classify_fn(texts) -> labels`` is that trained predictor — e.g. a
    closure over ``stages/model.load_model`` logistic weights or a
    driver-trained NB table — applied per batch."""
    def s(t: pa.Table) -> pa.Table:
        labels = classify_fn(t.column(col).to_pylist())
        return _set(t, out, pa.array(labels, pa.string()))
    return s


def nested_docs(parent_col: str, path_col: str = "_nest_path_",
                root_col: str = "_root_") -> Stage:
    """``NestedUpdateProcessorFactory``: stamp the nested-document
    bookkeeping fields — ``_root_`` (the block root id) and
    ``_nest_path_`` (the path of this child under its parent) — onto
    rows carrying a parent id.  Root documents (null parent) get their
    own id as root and an empty path; children get ``#<n>`` suffixes in
    input order per parent, the reference's path scheme."""
    def s(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist() if "doc_id" in \
            t.column_names else list(range(t.num_rows))
        parents = t.column(parent_col).to_pylist()
        roots, paths = [], []
        counters: dict = {}
        for i, p in zip(ids, parents):
            if p is None:
                roots.append(i)
                paths.append("")
            else:
                n = counters.get(p, 0)
                counters[p] = n + 1
                roots.append(p)
                paths.append(f"/children#{n}")
        return _set(
            _set(t, root_col, pa.array(roots)),
            path_col, pa.array(paths, pa.string()),
        )
    return s


def parse_int(col: str, out: Optional[str] = None) -> Stage:
    """``ParseIntFieldUpdateProcessorFactory``."""
    return parse_number(col, out, pa.int32())


def parse_long(col: str, out: Optional[str] = None) -> Stage:
    """``ParseLongFieldUpdateProcessorFactory``."""
    return parse_number(col, out, pa.int64())


def parse_float(col: str, out: Optional[str] = None) -> Stage:
    """``ParseFloatFieldUpdateProcessorFactory``."""
    return parse_number(col, out, pa.float32())


def parse_double(col: str, out: Optional[str] = None) -> Stage:
    """``ParseDoubleFieldUpdateProcessorFactory``."""
    return parse_number(col, out, pa.float64())


def regexp_boost(col: str, rules, boost_col: str = "boost") -> Stage:
    """``RegexpBoostProcessor(Factory)``: multiply ``boost_col`` by the
    boost of every rule whose regex matches the FULL value of ``col``
    (the reference's ``matches()`` contract), starting from the existing
    boost (default 1.0).  ``rules`` = [(pattern, boost), ...] — compiled
    once at construction, the boost file's in-memory form."""
    compiled = [(re.compile(p), float(b)) for p, b in rules]

    def s(t: pa.Table) -> pa.Table:
        vals = t.column(col).to_pylist()
        if boost_col in t.column_names:
            boosts = [1.0 if b is None else float(b)
                      for b in t.column(boost_col).to_pylist()]
        else:
            boosts = [1.0] * len(vals)
        for i, v in enumerate(vals):
            if v is None:
                continue
            for rx, b in compiled:
                if rx.fullmatch(v):
                    boosts[i] *= b
        return _set(t, boost_col, pa.array(boosts, pa.float64()))

    return s


def pre_analyzed(col: str, tokens_out: Optional[str] = None) -> Stage:
    """``PreAnalyzedUpdateProcessorFactory`` + the PreAnalyzed JSON field
    format (v=1): parse ``{"v":"1","str":stored,"tokens":[{"t":term,
    "s":start,"e":end,"i":posIncr},...]}`` — the stored text replaces the
    column, the token terms land in ``tokens_out`` (default
    ``<col>_tokens``) for the indexing chain to consume verbatim."""
    import json

    out_col = tokens_out or f"{col}_tokens"

    def s(t: pa.Table) -> pa.Table:
        stored, toks = [], []
        for v in t.column(col).to_pylist():
            if not v:
                stored.append(v)
                toks.append([])
                continue
            try:
                obj = json.loads(v)
            except (TypeError, ValueError):
                stored.append(v)  # not pre-analyzed: pass through
                toks.append([])
                continue
            stored.append(obj.get("str"))
            toks.append([tk["t"] for tk in obj.get("tokens", [])])
        t2 = _set(t, col, pa.array(stored, pa.string()))
        return _set(t2, out_col, pa.array(toks, pa.list_(pa.string())))

    return s


# -- Dataset-level URPs (need cross-row state: a groupby or an index) --------

def version_constraints(ds, id_col: str, version_col: str):
    """``DocBasedVersionConstraintsProcessor(Factory)``: among competing
    updates for one doc id, only the highest ``version_col`` survives
    (older versions are silently dropped, the reference's
    leader-side constraint).  One groupby(id) shuffle; ties keep the
    first-encountered row, matching the reference's ``newVersion <=
    oldVersion → drop``."""
    import pandas as pd

    def best(g: "pd.DataFrame") -> "pd.DataFrame":
        return g.sort_values(version_col, ascending=False,
                             kind="mergesort").head(1)

    return ds.groupby(id_col).map_groups(best, batch_format="pandas")


def _collect_live_ids(pairs, id_col: str) -> pa.Table:
    """Scan collector: the doc ids of each segment's live docs."""
    ids = [r.doc_ids[r.live_mask(np.arange(r.ndocs))] for r, _ in pairs]
    return pa.table({id_col: pa.array(
        np.concatenate([np.empty(0, np.int64)] + ids), pa.int64())})


def skip_existing(ds, index_dir: str, id_col: str = "doc_id"):
    """``SkipExistingDocumentsProcessorFactory``: drop rows whose id is
    live in the committed index (a deleted id no longer exists).  The
    existing-id side is an ``Index.scan`` Dataset of each segment's live
    ids, anti-joined via ``complement_stream`` — broadcast under the key
    limit, hash-partition shuffle above it; never a driver-side id set."""
    from functools import partial

    from lucene_solr_ray.search.searcher import Index
    from lucene_solr_ray.stages.relational import complement_stream

    try:
        index = Index(index_dir)
    except FileNotFoundError:  # no committed index: nothing exists yet
        return ds
    existing = index.scan(partial(_collect_live_ids, id_col=id_col))
    return complement_stream(ds, existing, on=id_col)
