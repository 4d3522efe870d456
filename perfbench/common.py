"""Run context shared by the workloads: the Ray session, the CPU pin and
host-speed sampler, host facts and probe, process memory, the exhaustive
top-k oracle and result digests."""

from __future__ import annotations

import gc
import hashlib
import logging
import os
import shutil
import signal
import statistics
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.hostspeed import HostSpeed, kernel
from perfbench.spans import Tracer

#: the 16 query shapes of the repository's headline benchmark, copied so a
#: change to that script cannot change this benchmark's inputs
CODE_QUERIES = [
    "def", "return AND import", "public", "mergesort OR merge_sort",
    "data AND index", "query", "hash AND map AND key",
    "(read OR write) AND merge", "self", "databaz", '"def return"',
    "scanquery OR scan_query", "tree AND node", "import AND the",
    "doc*", "qux~1",
]
TOP_K = 10
#: AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets
#: up to 64 bytes below its temp dir
_MAX_RAY_TMP = 43


class Ctx:
    """One benchmark run: arguments, work dir, tracer, counters, results."""

    def __init__(self, seed: int, seconds: float, scale: float, root: str):
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.work = os.path.join(root, ".pbwork")
        self.cache = os.path.join(self.work, "inputs")
        self.run_dir = os.path.join(self.work, f"run-{os.getpid()}")
        os.makedirs(self.cache, exist_ok=True)
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        self.tracer = Tracer(False)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.details: Dict = {}
        self.probes: List[float] = []
        #: per-doc analyzed token counts seen by the ingest replay
        self.tokens: List[int] = []
        #: seconds and (start, end) intervals of aside work (checks,
        #: replays) in the current phase
        self.aside_s = 0.0
        self.aside_spans: List[Tuple[float, float]] = []
        self._aside_depth = 0
        self.rss = RssMeter()
        self.ray_tmp: Optional[str] = None
        #: one host-speed sampler per CPU; measured phases run on ``cpu``
        cpus = sorted(os.sched_getaffinity(0))
        self.affinity_cpus = len(cpus)
        self.cpu = cpus[-1]
        self.hosts = {c: HostSpeed(c, os.path.join(self.run_dir, f"speed{c}"))
                      for c in cpus}
        self.host = self.hosts[self.cpu]

    def start_samplers(self) -> None:
        for h in self.hosts.values():
            h.start()

    def pin(self) -> None:
        """Move every thread of this process and of the Ray processes to
        ``cpu``; processes started later inherit it.  Set-up runs on every
        CPU, as Ray starts a dozen processes at once; measured phases run
        on one, where the sampler sees the speed the workload gets."""
        samplers = {h.pid for h in self.hosts.values()}
        me = os.getpid()
        for pid in [me] + descendants(me):
            if pid in samplers:
                continue
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tids:
                try:
                    os.sched_setaffinity(int(tid), {self.cpu})
                except OSError:
                    pass  # the thread exited

    def norm(self, spans: Sequence[Tuple[float, float]]) -> List[float]:
        """Seconds of work at the reference host speed, per interval of a
        measured phase (pinned to ``cpu``)."""
        self.host.load()
        return self.host.norm(spans)

    def norm_setup(self, spans: Sequence[Tuple[float, float]]) -> float:
        """Summed seconds of set-up at the reference host speed: set-up
        runs on every CPU, so its speed is the mean over their samplers."""
        per_cpu = []
        for h in self.hosts.values():
            h.load()
            per_cpu.append(sum(h.norm(spans, busy=False)))
        return sum(per_cpu) / len(per_cpu)

    def work_s(self, start: float, end: float) -> float:
        """Workload time at the reference host speed from ``start`` to
        ``end`` of the current phase, without the aside work in it."""
        whole = self.norm([(start, end)])[0]
        return whole - sum(self.norm(
            [(a, b) for a, b in self.aside_spans if start <= a < end]))

    def size(self, n: int, floor: int = 1) -> int:
        return max(floor, int(round(n * self.scale)))

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked result; a wrong one is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    @contextmanager
    def measure(self) -> Iterator["Clock"]:
        """One measured phase: collect garbage, reset the memory peaks,
        then time the body as the root span.  The clock excludes aside
        work; its ``end`` is set when the body ends."""
        self.pin()
        gc.collect()
        self.rss.reset()
        self.aside_s = 0.0
        self.aside_spans = []
        clock = Clock(self)
        with self.tracer.span("phase", rid=0) as root:
            clock.root = root
            yield clock
        clock.end = time.perf_counter()
        self.rss.sample(force=True)

    @contextmanager
    def aside(self, name: str, parent=None) -> Iterator:
        """Benchmark work beside the workload (a check or a replay): traced
        as an aside span and kept out of the workload's wall time."""
        t0 = time.perf_counter()
        self._aside_depth += 1
        try:
            with self.tracer.span(name, aside=True,
                                  parent=None if parent is None
                                  else parent.sid) as sp:
                yield sp
        finally:
            self._aside_depth -= 1
            if self._aside_depth == 0:
                t1 = time.perf_counter()
                self.aside_s += t1 - t0
                self.aside_spans.append((t0, t1))

    # -- Ray ---------------------------------------------------------------
    def ray_start(self) -> None:
        import ray

        if self.ray_tmp is None:
            self.ray_tmp = os.path.join(self.work, "r")
            if len(self.ray_tmp) > _MAX_RAY_TMP:
                # the repository path is too deep for Ray's socket paths
                self.ray_tmp = tempfile.mkdtemp(prefix="pbray")
        ray.init(
            address="local", num_cpus=1, include_dashboard=False,
            log_to_driver=False, logging_level="ERROR",
            object_store_memory=256 << 20, _temp_dir=self.ray_tmp,
        )
        import ray.data

        dctx = ray.data.DataContext.get_current()
        dctx.enable_progress_bars = False
        dctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def ray_stop(self) -> None:
        """Shut Ray down and wait until every process it started has
        exited."""
        import ray

        samplers = {h.pid for h in self.hosts.values()}
        kids = [p for p in descendants(os.getpid()) if p not in samplers]
        ray.shutdown()
        deadline = time.monotonic() + 20
        while kids and time.monotonic() < deadline:
            kids = [p for p in kids if _alive(p)]
            if kids:
                time.sleep(0.05)
        for p in kids:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10
        while any(_alive(p) for p in kids) and time.monotonic() < deadline:
            time.sleep(0.05)

    def close(self) -> None:
        for h in self.hosts.values():
            h.stop()
        shutil.rmtree(self.run_dir, ignore_errors=True)
        if self.ray_tmp:
            shutil.rmtree(self.ray_tmp, ignore_errors=True)

    def warm_workers(self) -> None:
        """Start the task worker and import the package in it, so the first
        timed Ray Data call does not pay worker start-up."""
        import ray.data

        ray.data.range(2, override_num_blocks=2).map_batches(
            _import_package, batch_size=1
        ).materialize()

    def probe(self) -> None:
        self.probes.append(host_probe_ms())

    def host_facts(self) -> Dict:
        import ray

        self.host.load()
        kms = self.host.kernel_ms()
        return {
            "nproc": _nproc(),
            "affinity_cpus": self.affinity_cpus,
            "pinned_cpu": self.cpu,
            "sampler": {"mode": self.host.mode, "samples": len(kms),
                        "kernel_ms_p10_p50_p90": [
                            round(pct(kms, q), 3) for q in (10, 50, 90)]},
            "ray_version": ray.__version__,
            "ray_num_cpus": 1,
            "client_threads": 1,
            "host_probe_ms": [round(p, 3) for p in self.probes],
        }


class Clock:
    """Workload time of a measured phase: wall time minus aside work."""

    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.start = time.perf_counter()
        self.end = self.start
        self.root = None

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.ctx.aside_s


def _import_package(batch):
    import lucene_solr_ray.index.build  # noqa: F401
    import lucene_solr_ray.index.merge  # noqa: F401
    import lucene_solr_ray.search.searcher  # noqa: F401

    return batch


def _nproc() -> int:
    # what `nproc` prints: OMP_NUM_THREADS caps it when set
    omp = os.environ.get("OMP_NUM_THREADS", "")
    n = len(os.sched_getaffinity(0))
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def host_probe_ms() -> float:
    """A fixed pure-Python kernel; its time tracks the host's speed."""
    t0 = time.perf_counter()
    for _ in range(15):
        kernel()
    return (time.perf_counter() - t0) * 1e3


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def descendants(pid: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(name))
    out: List[int] = []
    stack = [pid]
    while stack:
        for c in children.get(stack.pop(), ()):
            out.append(c)
            stack.append(c)
    return out


class RssMeter:
    """Peak RSS of this process plus the Ray worker processes during a
    measured phase, from the kernel's per-process high-water mark (VmHWM)
    in /proc.  ``reset`` lowers each mark to the current RSS, so input
    generation and set-up peaks do not count."""

    def __init__(self):
        self.peak_kb: Dict[int, int] = {}
        self._last = 0.0

    def _pids(self) -> List[int]:
        me = os.getpid()
        return [me] + [p for p in descendants(me) if _is_worker(p)]

    def reset(self) -> None:
        self.peak_kb.clear()
        for pid in self._pids():
            try:
                with open(f"/proc/{pid}/clear_refs", "w") as f:
                    f.write("5")
            except OSError:
                pass  # the process exited, or the kernel refuses
        self.sample(force=True)

    def sample(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last < 0.5:
            return
        self._last = now
        for pid in self._pids():
            kb = _vm_hwm_kb(pid)
            if kb:
                self.peak_kb[pid] = max(self.peak_kb.get(pid, 0), kb)

    def peak_mb(self) -> float:
        return sum(self.peak_kb.values()) / 1024.0


def _is_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def dir_bytes(path: str) -> int:
    total = 0
    for dp, _, files in os.walk(path):
        for fn in files:
            total += os.path.getsize(os.path.join(dp, fn))
    return total


def postings_bytes(index_dir: str, manifest: Dict) -> int:
    from lucene_solr_ray.index.manifest import segment_dir_name

    return sum(
        os.path.getsize(os.path.join(
            index_dir, segment_dir_name(s["segment_id"]), "postings.parquet"))
        for s in manifest["segments"]
    )


def pct(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    if not values:
        return float("nan")
    v = sorted(values)
    i = min(len(v) - 1, max(0, int(np.ceil(q / 100.0 * len(v))) - 1))
    return float(v[i])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


# -- oracle ----------------------------------------------------------------

def patterns_of(q) -> List:
    """Multi-term nodes of a parsed query, in first-seen order."""
    from lucene_solr_ray.search.query import (
        BooleanQuery,
        FuzzyQuery,
        PrefixQuery,
        WildcardQuery,
    )

    out: List = []
    stack = [q]
    while stack:
        node = stack.pop()
        if isinstance(node, (PrefixQuery, WildcardQuery, FuzzyQuery)):
            if node not in out:
                out.append(node)
        elif isinstance(node, BooleanQuery):
            stack.extend(c.query for c in reversed(node.clauses))
    return out


def resolve(index, parsed: Sequence):
    """Exact global stats and rewritten queries for a batch of parsed
    queries: ``Index.collect_stats`` over the terms and multi-term
    patterns, the rewrite, then a top-up for terms the rewrite added."""
    from lucene_solr_ray.search.searcher import rewrite_query

    pats: List = []
    for q in parsed:
        for p in patterns_of(q):
            if p not in pats:
                pats.append(p)
    terms = sorted({t for q in parsed for t in q.terms()})
    stats, exp = index.collect_stats(terms, pats)
    rewritten = [rewrite_query(q, exp) for q in parsed]
    extra = sorted({t for q in rewritten for t in q.terms()} - set(stats.df))
    if extra:
        more, _ = index.collect_stats(extra)
        stats.df.update(more.df)
        stats.ttf.update(more.ttf)
    return stats, rewritten


def oracle_topk(readers: Sequence, queries: Sequence, stats,
                k: int = TOP_K) -> List[List[Tuple[int, float]]]:
    """Exhaustive top-k per query: ``topk_segment(pruning=False)`` on every
    segment, merged by score descending, then doc_id ascending."""
    from lucene_solr_ray.search.scorer import topk_segment

    out = []
    for q in queries:
        hits: List[Tuple[int, float]] = []
        for r in readers:
            ords, scores = topk_segment(r, q, stats, k, pruning=False)
            hits.extend(zip(r.doc_ids[ords].tolist(), scores.tolist()))
        hits.sort(key=lambda h: (-h[1], h[0]))
        out.append(hits[:k])
    return out


def table_topk(table, n_queries: int) -> List[List[Tuple[int, float]]]:
    """(qid, rank, doc_id, score) result table -> per-query hit lists."""
    out: List[List[Tuple[int, float]]] = [[] for _ in range(n_queries)]
    cols = [table.column(c).to_pylist() for c in ("qid", "doc_id", "score")]
    for qid, did, sc in zip(*cols):
        out[qid].append((did, sc))
    return out


def same_hits(got: List[Tuple[int, float]],
              want: List[Tuple[int, float]]) -> bool:
    """Same doc ids in the same order, scores equal to float32 precision."""
    if [d for d, _ in got] != [d for d, _ in want]:
        return False
    return all(abs(a - b) <= 1e-6 * max(1.0, abs(b))
               for (_, a), (_, b) in zip(got, want))


def digest(results: Sequence[List[Tuple[int, float]]]) -> str:
    h = hashlib.sha256()
    for hits in results:
        for d, s in hits:
            h.update(f"{d}:{np.float32(s)!r};".encode())
        h.update(b"|")
    return h.hexdigest()[:16]
