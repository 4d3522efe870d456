"""CLI entrypoints — the ``ray job submit`` surface.

Usage (each command owns its Ray session; on a cluster submit with
``ray job submit -- python -m lucene_solr_ray.cli <cmd> ...`` and drop
``--local``):

    python -m lucene_solr_ray.cli build  --input DIR_OR_FILE --out IDX \\
        [--text-col content] [--id-col ID] [--docs-per-segment N]
    python -m lucene_solr_ray.cli merge  --index IDX
    python -m lucene_solr_ray.cli search --index IDX --query 'a AND b' [-k 10]
    python -m lucene_solr_ray.cli suggest --index IDX --prefix s [-n 10]
    python -m lucene_solr_ray.cli stats  --index IDX
    python -m lucene_solr_ray.cli check  --index IDX
    python -m lucene_solr_ray.cli serve  --index IDX   # queries on stdin;
        # a ``:stats`` line prints the engine's counters as one JSON line
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_init(num_cpus=None):
    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "ignore_reinit_error": True,
                  "logging_level": "ERROR"}
        if num_cpus:
            kwargs.update(address="local", num_cpus=num_cpus)
        ray.init(**kwargs)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="lucene_solr_ray")
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="local mode with this many CPUs (default: cluster)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("--input", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--text-col", default="content")
    b.add_argument("--id-col", default=None)
    b.add_argument("--docs-per-segment", type=int, default=100_000)
    b.add_argument("--no-positions", action="store_true")
    b.add_argument("--field", action="append", default=[],
                   metavar="NAME=COLUMN",
                   help="extra indexed field (repeatable)")

    m = sub.add_parser("merge")
    m.add_argument("--index", required=True)

    s = sub.add_parser("search")
    s.add_argument("--index", required=True)
    s.add_argument("--query", required=True, action="append")
    s.add_argument("-k", type=int, default=10)

    g = sub.add_parser("suggest")
    g.add_argument("--index", required=True)
    g.add_argument("--prefix", required=True)
    g.add_argument("-n", type=int, default=10)

    st = sub.add_parser("stats")
    st.add_argument("--index", required=True)

    ck = sub.add_parser("check")
    ck.add_argument("--index", required=True)

    ct = sub.add_parser("count")
    ct.add_argument("--index", required=True)
    ct.add_argument("--query", required=True, action="append")

    sv = sub.add_parser("serve")
    sv.add_argument("--index", required=True)
    sv.add_argument("--actors", type=int, default=4)
    sv.add_argument("-k", type=int, default=10)

    dl = sub.add_parser("delete", help="delete docs matching a query "
                        "(live-docs tombstones; reclaimed at merge)")
    dl.add_argument("--index", required=True)
    dl.add_argument("--query", required=True)

    sd = sub.add_parser(
        "soft-delete",
        help="soft-delete docs matching a query (visible to unwrapped "
             "readers; search with --respect-soft-deletes to exclude)",
    )
    sd.add_argument("--index", required=True)
    sd.add_argument("--query", required=True)
    sd.add_argument("--harden", action="store_true",
                    help="apply the retention policy now: soft deletes "
                         "NOT matching --retain become hard tombstones")
    sd.add_argument("--retain", default=None,
                    help="retention query for --harden")

    hl = sub.add_parser(
        "highlight",
        help="UnifiedHighlighter passages for query terms over a corpus "
             "parquet column",
    )
    hl.add_argument("--input", required=True)
    hl.add_argument("--text-col", default="content")
    hl.add_argument("--terms", required=True,
                    help="comma-separated query terms")
    hl.add_argument("--max-passages", type=int, default=1)
    hl.add_argument("--fixed-tokens", type=int, default=None)
    hl.add_argument("--limit", type=int, default=10)

    sq = sub.add_parser("sql", help="run a SQL subset over parquet tables")
    sq.add_argument("--tables", required=True,
                    help="directory containing <name>.parquet tables")
    sq.add_argument("--query", required=True)

    se = sub.add_parser(
        "stream",
        help="run a streaming expression (the /stream handler surface): "
             "rollup(search(orders, q=\"...\", fl=\"...\"), over=..., ...)",
    )
    se.add_argument("--tables", required=True,
                    help="directory containing <name>.parquet tables")
    se.add_argument("--index", action="append", default=[],
                    metavar="NAME=DIR",
                    help="full-text index binding for search(NAME, ...)")
    se.add_argument("--expr", required=True)
    se.add_argument("--limit", type=int, default=20)

    tp = sub.add_parser("topic", help="pull one checkpointed micro-batch")
    tp.add_argument("--index", required=True)
    tp.add_argument("--query", required=True)
    tp.add_argument("--batch-size", type=int, default=1000)
    tp.add_argument("--checkpoint", default=None)

    args = ap.parse_args(argv)
    _ray_init(args.num_cpus)

    if args.cmd == "build":
        from lucene_solr_ray.index.build import build_index

        extra = dict(f.split("=", 1) for f in args.field)
        manifest = build_index(
            args.input, args.out,
            text_col=args.text_col, id_col=args.id_col,
            docs_per_segment=args.docs_per_segment,
            with_positions=not args.no_positions,
            extra_fields=extra or None,
        )
        print(json.dumps({
            "generation": manifest["generation"],
            "doc_count": manifest["doc_count"],
            "segments": len(manifest["segments"]),
        }))
    elif args.cmd == "delete":
        from lucene_solr_ray.index.deletes import delete_by_query

        manifest = delete_by_query(args.index, args.query)
        print(json.dumps({
            "generation": manifest["generation"],
            "doc_count": manifest["doc_count"],
            "live_doc_count": manifest["live_doc_count"],
        }))
    elif args.cmd == "soft-delete":
        from lucene_solr_ray.index.softdeletes import (
            apply_soft_deletes_policy,
            soft_delete_by_query,
        )

        manifest = soft_delete_by_query(args.index, args.query)
        if args.harden:
            manifest = apply_soft_deletes_policy(
                args.index, retention_query=args.retain
            )
        print(json.dumps({
            "generation": manifest["generation"],
            "soft_deleted": int(sum(
                s.get("soft_del_count", 0) for s in manifest["segments"]
            )),
            "hard_deleted": int(sum(
                s.get("del_count", 0) for s in manifest["segments"]
            )),
        }))
    elif args.cmd == "highlight":
        import ray.data

        from lucene_solr_ray.functions.highlight import (
            unified_highlight_batch,
        )

        terms = [t for t in args.terms.split(",") if t]
        ds = ray.data.read_parquet(args.input)
        out = unified_highlight_batch(
            ds, args.text_col, terms,
            max_passages=args.max_passages,
            fixed_tokens=args.fixed_tokens,
        ).limit(args.limit)
        for row in out.take(args.limit):
            print(json.dumps({
                k: v for k, v in row.items()
                if k == "snippet" or not isinstance(v, str) or len(v) < 200
            }, default=str))
    elif args.cmd == "sql":
        import os as _os

        import ray.data

        from lucene_solr_ray.stages.sql import sql_query

        out = sql_query(
            args.query,
            lambda name: ray.data.read_parquet(
                _os.path.join(args.tables, f"{name}.parquet")
            ),
        )
        print(out.to_string(index=False))
    elif args.cmd == "stream":
        import os as _os

        import ray.data

        from lucene_solr_ray.search.searcher import Index
        from lucene_solr_ray.stages.streamexpr import StreamFactory

        indexes = {}
        for spec in args.index:
            name, d = spec.split("=", 1)
            indexes[name] = Index(d)
        f = StreamFactory(
            tables=lambda name: ray.data.read_parquet(
                _os.path.join(args.tables, f"{name}.parquet")
            ),
            indexes=indexes,
        )
        out = f.run(args.expr)
        if hasattr(out, "to_pandas"):
            out = (out.limit(args.limit).to_pandas()
                   if hasattr(out, "limit") else out.to_pandas())
        if hasattr(out, "to_string"):
            print(out.to_string(index=False))
        else:
            print(json.dumps(out, default=str))
    elif args.cmd == "topic":
        from lucene_solr_ray.stages.streaming import TopicStream

        t = TopicStream(args.index, args.query,
                        checkpoint_path=args.checkpoint)
        got = t.pull(batch_size=args.batch_size)
        print(json.dumps({
            "rows": got.num_rows,
            "doc_ids": got.column("doc_id").to_pylist()[:50],
            "checkpoint": t.checkpoint,
        }))
    elif args.cmd == "merge":
        from lucene_solr_ray.index.merge import merge_until_done

        n = merge_until_done(args.index)
        print(json.dumps({"merges": n}))
    elif args.cmd == "search":
        from lucene_solr_ray.search.searcher import Index

        idx = Index(args.index)
        res = idx.search(
            {i: q for i, q in enumerate(args.query)}, k=args.k
        )
        for row in res.to_pylist():
            print(json.dumps(row))
    elif args.cmd == "suggest":
        from lucene_solr_ray.functions.suggest import suggest_terms
        from lucene_solr_ray.search.searcher import Index

        for term, w in suggest_terms(Index(args.index), args.prefix,
                                     n=args.n):
            print(json.dumps({"term": term, "weight": w}))
    elif args.cmd == "count":
        from lucene_solr_ray.search.searcher import Index, count_hits

        res = count_hits(
            Index(args.index), {i: q for i, q in enumerate(args.query)}
        )
        for row in res.to_pylist():
            print(json.dumps(row))
    elif args.cmd == "serve":
        from lucene_solr_ray.state.query_engine import QueryEngine

        eng = QueryEngine(args.index, num_actors=args.actors)
        eng.warm()
        print(json.dumps({"ready": True, "actors": len(eng.actors)}),
              flush=True)
        try:
            for line in sys.stdin:  # one query per line → one JSON per hit
                q = line.strip()
                if not q:
                    continue
                if q == ":stats":  # the engine's cache and call counters
                    print(json.dumps(eng.stats()), flush=True)
                    continue
                import time as _t

                t0 = _t.time()
                try:
                    res = eng.search({0: q}, k=args.k)
                except Exception as exc:  # bad query syntax etc.
                    print(json.dumps({
                        "query": q, "error": f"{type(exc).__name__}: {exc}",
                    }), flush=True)
                    continue
                ms = round((_t.time() - t0) * 1000, 2)
                print(json.dumps({
                    "query": q, "ms": ms,
                    "hits": res.to_pylist(),
                }), flush=True)
        finally:
            eng.shutdown()
    elif args.cmd == "check":
        from lucene_solr_ray.index.check import check_index

        rep = check_index(args.index)
        print(json.dumps(rep))
        if not rep["ok"]:
            import ray as _r

            _r.shutdown()
            return 1
    elif args.cmd == "stats":
        from lucene_solr_ray.search.searcher import Index

        m = Index(args.index).manifest
        print(json.dumps({
            "generation": m["generation"],
            "doc_count": m["doc_count"],
            "sum_total_term_freq": m["sum_total_term_freq"],
            "segments": len(m["segments"]),
        }))
    import ray

    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
