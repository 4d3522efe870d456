"""Solr JSON Facet API façade: nested term/range facets with metrics.

Executes a facet request dict with the reference's JSON semantics
(``solr/core/src/java/org/apache/solr/search/facet/`` — ``FacetField``,
``FacetRange``, metric aggs, nested subfacets; distributed bucket merge in
``FacetFieldMerger``):

    json_facet(parts_ds, {
        "type": "terms", "field": "p_brand", "limit": 5,
        "sort": "count desc",
        "facet": {
            "avg_price": "avg(p_retailprice)",
            "max_size": "max(p_size)",
            "by_size": {"type": "terms", "field": "p_size", "limit": 2},
        },
    })
    → {"buckets": [{"val": ..., "count": ..., "avg_price": ...,
                    "by_size": {"buckets": [...]}} ...]}

Execution strategy: metrics ride ONE grouped aggregate per facet level;
a nested terms subfacet costs one extra groupby on (parent, child) — no
per-bucket queries (the distributed-merge shape, not the single-node
loop).  The top level's buckets are sorted and cut to ``limit`` in Ray
Data, and a subfacet's buckets are filtered to the kept parents and cut
to the subfacet's ``limit`` per parent there, so at most ``limit`` and
``limit`` x sub-``limit`` rows reach the driver.  Supported metrics:
count/sum/avg/min/max (``SumAgg`` family);
``sort``: "count desc" (default) or "index asc".
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

__all__ = ["json_facet"]

_METRIC_RE = re.compile(r"^(sum|avg|min|max|count)\((\w*)\)$")


def _parse_metrics(facet_spec: Dict) -> List:
    out = []
    for name, spec in (facet_spec or {}).items():
        if isinstance(spec, str):
            m = _METRIC_RE.match(spec.replace(" ", ""))
            if not m:
                raise ValueError(f"unsupported metric {spec!r}")
            out.append((name, m.group(1), m.group(2) or None))
    return out


def _subfacets(facet_spec: Dict) -> Dict[str, Dict]:
    return {
        name: spec
        for name, spec in (facet_spec or {}).items()
        if isinstance(spec, dict)
    }


def json_facet(ds, request: Dict) -> Dict:
    from lucene_solr_ray.stages.relational import rollup

    if request.get("type", "terms") != "terms":
        raise ValueError("only terms facets implemented (use facet_range "
                         "for ranges)")
    field = request["field"]
    limit = int(request.get("limit", 10))
    sort = request.get("sort", "count desc")
    metrics = _parse_metrics(request.get("facet"))
    subs = _subfacets(request.get("facet"))

    aggs = [("count", None, "count")]
    for name, op, col in metrics:
        if op == "count":
            continue
        aggs.append((op, col, name))
    keys, descending = _sort_keys(field, sort, [n for n, _, _ in metrics])
    top = rollup(ds, [field], aggs).sort(
        keys, descending=descending).limit(limit).to_pandas()

    buckets = []
    # no kept bucket (limit 0, or no rows) leaves ``top`` without columns
    kept_vals = set(top[field]) if len(top) else set()
    sub_results: Dict[str, Dict] = {}
    for name, spec in subs.items():
        if _subfacets(spec.get("facet")):
            raise ValueError(
                f"sub-facet {name!r}: nesting deeper than 2 levels is not "
                "implemented"
            )
        child = spec["field"]
        climit = int(spec.get("limit", 10))
        csort = spec.get("sort", "count desc")
        cmetrics = _parse_metrics(spec.get("facet"))
        caggs = [("count", None, "count")] + [
            (op, col, mname) for mname, op, col in cmetrics
            if op != "count"
        ]
        cnames = [n for n, _, _ in cmetrics]
        _sort_keys(child, csort, cnames)  # reject a bad sort before the job
        if not kept_vals or climit <= 0:
            sub_results[name] = {}
            continue

        def kept_parents(df):
            return df[df[field].isin(kept_vals)]

        def top_children(g):
            return _sort_buckets(g, child, csort, cnames).head(climit)

        # filter to the kept parents and cap each one's children in the
        # cluster: at most limit x climit rows reach the driver
        nested = rollup(ds, [field, child], caggs).map_batches(
            kept_parents, batch_format="pandas").groupby(field).map_groups(
            top_children, batch_format="pandas").to_pandas()
        nested = _sort_buckets(nested, child, csort, cnames)
        sub_results[name] = {
            val: [
                {
                    "val": r[child],
                    "count": int(r["count"]),
                    **{
                        mname: float(r[mname])
                        for mname, op, _ in cmetrics
                        if op != "count"
                    },
                }
                for _, r in g.iterrows()
            ]
            for val, g in nested.groupby(field, sort=False)
        }

    for _, row in top.iterrows():
        b = {"val": row[field], "count": int(row["count"])}
        for name, op, _col in metrics:
            if op != "count":
                b[name] = float(row[name])
        for name in subs:
            b[name] = {"buckets": sub_results[name].get(row[field], [])}
        buckets.append(b)
    return {"buckets": buckets}


def _sort_keys(field: str, sort: str,
               metric_names: List[str]) -> Tuple[List[str], List[bool]]:
    """(sort keys, descending flags) of ``sort``: "count desc" (default),
    "index asc/desc", or "<metric> asc/desc" over a requested metric, ties
    by index asc (as FacetFieldProcessor's secondary sort) — anything else
    raises (the reference rejects unknown sorts; silent fallback gives
    well-formed-but-wrong buckets)."""
    parts = sort.strip().split()
    key = parts[0] if parts else "count"
    direction = parts[1] if len(parts) > 1 else "desc"
    if direction not in ("asc", "desc"):
        raise ValueError(f"unsupported facet sort direction {sort!r}")
    desc = direction == "desc"
    if key == "index":
        return [field], [desc]
    if key == "count" or key in metric_names:
        return [key, field], [desc, False]
    raise ValueError(
        f"unsupported facet sort {sort!r} (not count/index/a requested "
        "metric)"
    )


def _sort_buckets(df, field: str, sort: str, metric_names: List[str]):
    """A pandas frame of buckets in :func:`_sort_keys` order."""
    keys, descending = _sort_keys(field, sort, metric_names)
    return df.sort_values(keys, ascending=[not d for d in descending],
                          kind="mergesort")
