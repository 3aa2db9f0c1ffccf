"""Order statistics and span arithmetic shared by the benchmark.

Everything here is plain Python over lists of floats, so the rules the
benchmark reports by (the tail-percentile rule, self time, coverage of
a wall interval by spans) are unit-tested without running a workload.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Optional, Sequence

# Percentiles the tail rule may report, highest last.  The ladder stops
# at p90: on a shared two-vCPU host a few percent of steps hit host
# stalls, and how many varies from run to run, so p95 and p99 tails
# spread 0.26-0.36 of their median across ten runs (see README).
# ``summarize`` still records the higher percentiles for provenance.
TAIL_LADDER = (50.0, 90.0)
EXTRA_PERCENTILES = (95.0, 99.0, 99.9)
# Samples that must lie strictly beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence: the value at
    rank ``ceil(pct/100 * n)`` (1-based), as ``repro.service`` uses."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[min(rank, n) - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ``TAIL_MIN_BEYOND``
    samples beyond it, or ``None`` when ``n`` is too small for any."""
    best = None
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def summarize(values: Iterable[float]) -> dict:
    """Median and rule-chosen tail of a latency sample, with the counts
    behind them.  ``tail`` falls back to the maximum (``tail_pct``
    ``100``) when too few samples exist; ``higher`` holds the
    ``EXTRA_PERCENTILES`` that have enough samples beyond them."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "p50": None, "tail": None, "tail_pct": None,
                "tail_beyond": 0, "higher": {}}
    higher = {f"p{pct:g}": nearest_rank(ordered, pct)
              for pct in EXTRA_PERCENTILES
              if beyond(n, pct) >= TAIL_MIN_BEYOND}
    pct = tail_percentile(n)
    if pct is None:
        return {"n": n, "p50": nearest_rank(ordered, 50.0),
                "tail": ordered[-1], "tail_pct": 100.0, "tail_beyond": 0,
                "higher": higher}
    return {"n": n, "p50": nearest_rank(ordered, 50.0),
            "tail": nearest_rank(ordered, pct), "tail_pct": pct,
            "tail_beyond": beyond(n, pct), "higher": higher}


def median(values: Iterable[float]) -> float:
    """Nearest-rank median (0.0 for an empty sample)."""
    ordered = sorted(values)
    return nearest_rank(ordered, 50.0) if ordered else 0.0


def merge_intervals(intervals: Iterable[tuple[float, float]],
                    ) -> list[tuple[float, float]]:
    """The union of ``intervals`` as sorted disjoint intervals."""
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def covered(windows: Sequence[tuple[float, float]],
            merged: Sequence[tuple[float, float]]) -> float:
    """Total length of ``windows`` covered by the disjoint sorted
    intervals ``merged`` (windows may overlap each other)."""
    total = 0.0
    starts = [a for a, _ in merged]
    for lo, hi in windows:
        i = max(0, bisect.bisect_right(starts, lo) - 1)
        while i < len(merged) and merged[i][0] < hi:
            a, b = merged[i]
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                total += overlap
            i += 1
    return total


def self_times(spans: Sequence[tuple]) -> dict:
    """Self time of every span: its duration minus the part of it that
    its child spans cover.

    ``spans`` are ``(span_id, parent_id, start, end)`` tuples (extra
    trailing fields are ignored); a child is any span whose
    ``parent_id`` names another span in the sequence.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[2], span[3]))
    out = {}
    for span in spans:
        sid, _, start, end = span[:4]
        kids = children.get(sid)
        inside = covered([(start, end)], merge_intervals(kids)) if kids \
            else 0.0
        out[sid] = (end - start) - inside
    return out
