"""Host-speed sampler and the normalisation of measured times.

The host's speed drifts: a fixed pure-Python kernel swings between about
30 and 55 ms on every vCPU, in spells of seconds to minutes, with CPU time
equal to wall time and no steal.  Raw wall times of one workload moved by
2x between runs of identical code.  So each measured phase is pinned to
one CPU, and a sampler process pinned to each CPU, at real-time priority
when the kernel allows it, times a short fixed kernel every ``PERIOD_S``.
Its real-time priority means it preempts the program under test, so its
samples track the host, not the program.

A measured interval ``[a, b]`` is reported as work at the reference speed:
its length minus the sampler's own time inside it, times the mean of
``REF_KERNEL_MS / sample`` over the samples taken during it.  At the
reference speed this is the wall time; on a host twice as slow it is half
the wall time.  Raw wall times are kept in the details line.

Run as a script, this module is the sampler:
``python3 hostspeed.py CPU OUT_PATH PARENT_PID``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: kernel iterations per sample
KERNEL_ITERS = 10_000
#: the kernel's time at the reference speed: its time on a 2.0 GHz Xeon
#: vCPU in a fast spell (3.3 ms in a slow one)
REF_KERNEL_MS = 2.1
PERIOD_S = 0.1
#: an interval's speed uses the samples within this margin of it
PAD_S = 0.15
#: an interval with fewer samples than this uses its nearest ones
MIN_SAMPLES = 3


def kernel() -> None:
    acc = 0
    d: Dict[int, int] = {}
    for i in range(KERNEL_ITERS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        d[acc & 1023] = i


def _sample_loop(cpu: int, out_path: str, parent: int) -> None:
    os.sched_setaffinity(0, {cpu})
    mode = "fifo"
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
    except (OSError, AttributeError):
        mode = "normal"
    with open(out_path, "w", buffering=1) as f:
        f.write(f"# {mode}\n")
        nxt = time.perf_counter()
        while os.getppid() == parent:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            f.write(f"{t0:.6f} {t1 - t0:.7f}\n")
            nxt += PERIOD_S
            time.sleep(max(0.0, nxt - time.perf_counter()))


class HostSpeed:
    """Starts and stops the sampler and normalises intervals with its
    samples (``time.perf_counter`` is CLOCK_MONOTONIC, shared by every
    process on the host)."""

    def __init__(self, cpu: int, out_path: str):
        self.cpu = cpu
        self.out_path = out_path
        self.proc: Optional[subprocess.Popen] = None
        self._t: List[float] = []
        self._d: List[float] = []
        self.mode = "none"

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(self.cpu),
             self.out_path, str(os.getpid())],
            stdin=subprocess.DEVNULL)

    def stop(self) -> None:
        if self.proc is None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def load(self) -> None:
        """Read every sample taken so far."""
        import numpy as np

        t, d = [], []
        try:
            with open(self.out_path) as f:
                for line in f:
                    if line.startswith("#"):
                        self.mode = line[1:].strip()
                        continue
                    parts = line.split()
                    if len(parts) == 2:
                        t.append(float(parts[0]))
                        d.append(float(parts[1]))
        except OSError:
            pass
        self._t = np.array(t)
        self._d = np.array(d)

    def kernel_ms(self) -> List[float]:
        return [float(x) * 1e3 for x in self._d]

    def norm(self, spans: Sequence[Tuple[float, float]],
             busy: bool = True) -> List[float]:
        """Each ``(start, end)`` as seconds of work at the reference speed.
        With ``busy``, the sampler's own time inside an interval is taken
        out first (the interval ran on the sampler's CPU).  Needs ``load``
        after the intervals ended."""
        import numpy as np

        t, d = self._t, self._d
        if len(t) < MIN_SAMPLES:
            raise RuntimeError("the host-speed sampler recorded too little")
        speed = (REF_KERNEL_MS / 1e3) / d
        cum_speed = np.concatenate([[0.0], np.cumsum(speed)])
        ends = t + d
        cum_busy = np.concatenate([[0.0], np.cumsum(d)])
        out = []
        for a, b in spans:
            lo = int(np.searchsorted(t, a - PAD_S))
            hi = int(np.searchsorted(t, b + PAD_S))
            if hi - lo < MIN_SAMPLES:
                mid = int(np.searchsorted(t, (a + b) / 2))
                lo = max(0, min(mid - MIN_SAMPLES // 2,
                                len(t) - MIN_SAMPLES))
                hi = min(len(t), lo + MIN_SAMPLES)
            s = (cum_speed[hi] - cum_speed[lo]) / (hi - lo)
            out.append(max(0.0, (b - a) - (
                self._busy(a, b, cum_busy, ends) if busy else 0.0)) * s)
        return out

    def _busy(self, a: float, b: float, cum_busy, ends) -> float:
        """The sampler's own time inside [a, b]: whole samples, plus the
        clipped ones at either edge."""
        import numpy as np

        t = self._t
        i = int(np.searchsorted(t, a))
        j = int(np.searchsorted(ends, b))
        out = cum_busy[j] - cum_busy[i] if j > i else 0.0
        if i > 0 and ends[i - 1] > a:
            out += min(ends[i - 1], b) - a
        if i <= j < len(t) and t[j] < b:
            out += b - max(t[j], a)
        return out


if __name__ == "__main__":
    _sample_loop(int(sys.argv[1]), sys.argv[2], int(sys.argv[3]))
