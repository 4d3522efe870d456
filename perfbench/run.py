"""Benchmark entry point: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload {ingest,serve,churn} --seed N \\
        --seconds S --trace {0,1} [--scale F]

Inputs come from ``perfbench.gen`` (seeded, cached outside timing).  Set-up
(Ray start, worker warm-up and, for ``serve``, engine construction plus
``warm()``) runs ``SETUP_REPS`` times in an untraced run and ``setup_s``
is the median.  The measured phase lasts about ``--seconds`` of workload
time; correctness checks run beside it and are not timed.

Measured phases run with every process pinned to one CPU.  Every time
metric is reported at a reference host speed, from samplers on the CPUs
(see ``perfbench.hostspeed``); raw wall times are in the details line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the phase
twice, untraced then traced with replays, from the same starting state; it
prints the per-layer metrics and the tracing overhead, checks that both
phases give the same top-k digest and that the layers account for the
traced phase's time, and writes the spans under ``.pbwork/traces``.  Span
times, like every other time, are work at the reference host speed.

The last stdout line is the result object; the line before it carries the
details (input properties, host facts, digest, extra percentiles).
``--scale`` shrinks every input size, for the smoke test.

Everything is written under ``.pbwork`` in the repository root.  Ray's
session files go to ``.pbwork/r``, or to a fresh system temp directory
when the repository path is too long for Ray's 107-byte socket paths;
either is removed at exit, after every Ray process has stopped.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ingest", "serve", "churn")
#: set-ups per untraced run; ``setup_s`` is their median.  Each costs a
#: full Ray start and stop, which bounds how many a run can afford.
SETUP_REPS = 2
#: layer self times must sum to this share of the traced wall time or more
MIN_LAYER_SHARE = 0.9
#: call spans whose self time is the residual left after their replays;
#: each must stay above ``-RESIDUAL_TOL`` times the traced wall time
RESIDUALS = ("index.build_dispatch", "search.batch_dispatch", "state.rpc")
RESIDUAL_TOL = 0.02

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "space_ratio": "ratio",
    "rss_mb": "MB",
}
PER_LAYER = {
    "sources.read_s": "s",
    "analysis.analyze_s": "s",
    "analysis.tokens": "count",
    "index.invert_encode_s": "s",
    "index.write_s": "s",
    "index.commit_s": "s",
    "index.build_dispatch_s": "s",
    "index.merge_s": "s",
    "index.postings_bytes": "bytes",
    "index.segments": "count",
    "index.add_ms": "ms",
    "index.update_ms": "ms",
    "search.parse_ms": "ms",
    "search.expand_ms": "ms",
    "search.score_ms": "ms",
    "search.exhaustive_ms": "ms",
    "search.pruned_share": "ratio",
    "search.reader_load_ms": "ms",
    "search.stats_ms": "ms",
    "search.batch_dispatch_ms": "ms",
    "state.rpc_ms": "ms",
    "input.repeat_share": "ratio",
    "input.doc_tokens_p50": "count",
    "host.probe_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.layer_share": "ratio",
}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size multiplier (smoke tests use < 1)")
    return p.parse_args(argv)


def _setup(ctx, wl, inp, reps):
    """Start Ray and the workload ``reps`` times; keep the last.  Returns
    each set-up's timed intervals: Ray start with worker warm-up, then the
    workload's own timed set-up, if any."""
    spans = []
    state = None
    for rep in range(reps):
        if state is not None:
            wl.teardown(state)
            ctx.ray_stop()
        gc.collect()
        t0 = time.perf_counter()
        ctx.ray_start()
        ctx.warm_workers()
        t1 = time.perf_counter()
        state = wl.setup(ctx, inp, first=rep == 0)
        spans.append([(t0, t1)] + state.get("setup_spans", []))
    return state, spans


def run(args) -> dict:
    # imports in this process belong to its start, not to set-up
    import ray.data  # noqa: F401

    import lucene_solr_ray.index.build  # noqa: F401
    import lucene_solr_ray.state.query_engine  # noqa: F401
    from perfbench import churn, common, ingest, serve
    from perfbench.spans import Tracer

    wl = {"ingest": ingest, "serve": serve, "churn": churn}[args.workload]
    ctx = common.Ctx(args.seed, args.seconds, args.scale, ROOT)
    ctx.start_samplers()
    # wall time of each stage of the run, for its time budget
    stages = {}
    last = [time.perf_counter()]

    def mark(name):
        now = time.perf_counter()
        stages[name] = now - last[0]
        last[0] = now

    started = False
    try:
        inp = wl.inputs(ctx)
        ctx.probe()
        mark("inputs_s")
        started = True
        state, setup_spans = _setup(ctx, wl, inp,
                                    1 if args.trace else SETUP_REPS)
        ctx.probe()
        mark("setup_s")
        if not args.trace:
            res = wl.phase(ctx, inp, state, "a")
            wl.report(ctx, inp, res)
            setup_times = [ctx.norm_setup(sp) for sp in setup_spans]
            ctx.metric("setup_s", common.median(setup_times), "s")
            ctx.details["setup_s_samples"] = setup_times
            ctx.metric("rss_mb", ctx.rss.peak_mb(), "MB")
            digest = res["digest"]
        else:
            ctx.seconds = args.seconds / 2
            plain = wl.phase(ctx, inp, state, "a")
            wl.teardown(state)
            state = wl.setup(ctx, inp, first=False)
            ctx.tracer = Tracer(True)
            res = wl.phase(ctx, inp, state, "b")
            ctx.check(res["digest"] == plain["digest"],
                      "traced and untraced top-k digests differ")
            # spans as work at the reference speed, so that a replay and
            # the call it explains compare across a change of host speed
            ctx.tracer.rescale(ctx.norm)
            root = res["root"]
            phase_work = ctx.work_s(root.start, root.end)
            layers = wl.layers(ctx, inp, res)
            per_item = res["work_s"] / res["items"]
            layers["trace.overhead_share"] = (
                per_item / (plain["work_s"] / plain["items"]) - 1.0)
            share = ctx.tracer.layer_sum(root) / phase_work
            layers["trace.layer_share"] = share
            ctx.check(share >= MIN_LAYER_SHARE,
                      f"layers cover {share:.3f} of the traced wall time")
            # a replay slower than the call it explains leaves a negative
            # dispatch or RPC residual, which the telescoping sum above
            # cannot see
            self_t = ctx.tracer.self_times()
            for name in RESIDUALS:
                if name in self_t:
                    ctx.check(
                        self_t[name] >= -RESIDUAL_TOL * phase_work,
                        f"{name} self time {self_t[name]:.4f} s is negative")
            ctx.details["min_self_s"] = ctx.tracer.min_self()
            trace_dir = os.path.join(ctx.work, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            ctx.tracer.dump(os.path.join(
                trace_dir, f"{args.workload}-{args.seed}.json"))
            digest = res["digest"]
        ctx.probe()
        if args.trace:
            layers["host.probe_ms"] = common.median(ctx.probes)
            for name, unit in PER_LAYER.items():
                ctx.metric(name, layers.get(name, 0.0), unit)
        wl.teardown(state)
        mark("phases_s")
        details = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale, "digest": digest,
            "setup_s_raw": [sum(b - a for a, b in sp)
                            for sp in setup_spans],
            "host": ctx.host_facts(), "errors": ctx.errors,
            "stages": stages, **ctx.details,
        }
    finally:
        if started:
            ctx.ray_stop()
        ctx.close()
    mark("stop_s")
    return {"details": details, "ctx": ctx}


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, ROOT)
    try:
        import lucene_solr_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: the package under test is missing: {e}",
              file=sys.stderr)
        return 2
    # Ray workers import the package from this tree, not an install
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    os.environ.setdefault("RAY_DEDUP_LOGS", "0")
    try:
        out = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    ctx = out["ctx"]
    print(json.dumps(out["details"], sort_keys=True, default=float))
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in ctx.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
