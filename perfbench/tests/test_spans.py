"""Unit test of the tracer's self times before and after ``rescale``.

    python3 -m pytest perfbench/tests/test_spans.py -q
"""

from __future__ import annotations

import pytest

from perfbench.spans import Span, Tracer


def _tracer():
    """A 1.0 s call whose replay, run later while the host was twice as
    slow, took 1.6 s of wall time."""
    tr = Tracer(True)
    call = Span(0, "call", 0.0, None, 0, False)
    call.end = 1.0
    replay = Span(1, "replay", 5.0, 0, 0, True)
    replay.end = 6.6
    tr.spans = [call, replay]
    return tr


def test_raw_residual_negative():
    assert _tracer().self_times()["call"] == pytest.approx(-0.6)


def test_rescaled_residual():
    tr = _tracer()
    # work at the reference speed: full speed before 2 s, half after
    tr.rescale(lambda spans: [(b - a) * (1.0 if a < 2 else 0.5)
                              for a, b in spans])
    assert tr.self_times() == pytest.approx({"call": 0.2, "replay": 0.8})
    assert tr.totals() == pytest.approx({"call": 1.0, "replay": 0.8})
    assert tr.min_self() == pytest.approx(0.2)
