"""The host-speed normalisation on synthetic sampler records.

    python3 -m pytest perfbench/tests/test_hostspeed.py -q
"""

from __future__ import annotations

import pytest

from perfbench.hostspeed import PERIOD_S, REF_KERNEL_MS, HostSpeed


def _sampler(tmp_path, kernel_ms, n=100, t0=100.0):
    """A sampler record with one sample every ``PERIOD_S`` seconds."""
    path = tmp_path / "speed"
    with open(path, "w") as f:
        f.write("# fifo\n")
        for i in range(n):
            f.write(f"{t0 + i * PERIOD_S:.6f} {kernel_ms(i) / 1e3:.7f}\n")
    h = HostSpeed(0, str(path))
    h.load()
    return h


def test_reference_speed_keeps_wall_time_minus_sampler(tmp_path):
    h = _sampler(tmp_path, lambda i: REF_KERNEL_MS)
    busy = REF_KERNEL_MS / 1e3
    # [101.0, 102.0) holds ten whole samples
    (got,) = h.norm([(101.0, 102.0)])
    assert got == pytest.approx(1.0 - 10 * busy)
    (got,) = h.norm([(101.0, 102.0)], busy=False)
    assert got == pytest.approx(1.0)


def test_half_speed_halves_the_work(tmp_path):
    h = _sampler(tmp_path, lambda i: 2 * REF_KERNEL_MS)
    (got,) = h.norm([(101.0, 103.0)], busy=False)
    assert got == pytest.approx(1.0)


def test_interval_inside_one_sample_is_all_sampler(tmp_path):
    h = _sampler(tmp_path, lambda i: REF_KERNEL_MS)
    a = 101.0 + 0.0005
    (got,) = h.norm([(a, a + 0.001)])
    assert got == pytest.approx(0.0, abs=1e-9)


def test_speed_follows_the_samples_near_the_interval(tmp_path):
    # fast for the first five seconds, half speed after
    h = _sampler(tmp_path,
                 lambda i: REF_KERNEL_MS if i < 50 else 2 * REF_KERNEL_MS)
    fast, slow = h.norm([(101.0, 102.0), (107.0, 108.0)], busy=False)
    assert fast == pytest.approx(1.0)
    assert slow == pytest.approx(0.5)


def test_too_few_samples_is_an_error(tmp_path):
    h = _sampler(tmp_path, lambda i: REF_KERNEL_MS, n=1)
    with pytest.raises(RuntimeError):
        h.norm([(100.0, 100.5)])
