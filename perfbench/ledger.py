"""Pure helpers of the benchmark: percentiles, span self time, scrape deltas.

Nothing here touches a socket, a process or a file, so the unit tests in
``test_perfbench.py`` exercise every rule the reported numbers rest on.
"""

from __future__ import annotations

import statistics
import threading

import numpy as np

#: candidate tail percentiles, highest first
TAIL_CANDIDATES = (99, 95, 90)

#: nesting depth of the executor's trace spans on one thread: a span is
#: a child of another on the same (pid, thread) when it is deeper and
#: lies inside it
SPAN_DEPTH = {"granule": 0, "filter": 1, "gather": 1, "aggregate": 1,
              "join": 1, "load": 2}


def beyond(n: int, pct: float) -> float:
    """Samples that lie above the ``pct`` percentile of ``n`` samples."""
    return n * (100.0 - pct) / 100.0


def tail_pct(n: int, wanted: int | None = None) -> int | None:
    """The percentile ``tail_ms`` reports for ``n`` samples.

    ``wanted`` (the workload's recorded percentile) is used when at least
    ten samples lie beyond it; otherwise the highest candidate that has
    ten beyond it.  ``None`` when not even p90 has ten samples beyond.
    """
    if wanted is not None and beyond(n, wanted) >= 10:
        return wanted
    for pct in TAIL_CANDIDATES:
        if beyond(n, pct) >= 10:
            return pct
    return None


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles``
    gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


class Window:
    """One slice of a run: its ops' latencies, wall and CPU seconds."""

    def __init__(self, latencies, wall_s: float, cpu_s: float):
        self.latencies = list(latencies)
        self.wall_s = wall_s
        self.cpu_s = cpu_s


def window_medians(windows, wanted_pct: int) -> tuple[dict, str]:
    """``p50_ms``, ``tail_ms``, ``ops_per_s`` and ``cpu_ms_per_op`` of
    each window that completed an op, each the median over windows — a
    burst of noise from a neighbouring process spoils one window, not the
    run.  The tail percentile is the workload's ``wanted_pct`` when every
    window has ten samples beyond it (else the highest that does); when
    not even p90 qualifies per window, the tail is taken over all the
    run's ops.  Returns the values and how the tail was taken."""
    rows = [w for w in windows if w.latencies and w.wall_s > 0]
    if not rows:
        raise ValueError("no window completed an op")
    out = {
        "p50_ms": statistics.median(
            percentile(w.latencies, 50) for w in rows) * 1e3,
        "ops_per_s": statistics.median(
            len(w.latencies) / w.wall_s for w in rows),
        "cpu_ms_per_op": statistics.median(
            w.cpu_s / len(w.latencies) for w in rows) * 1e3,
    }
    pct = tail_pct(min(len(w.latencies) for w in rows), wanted_pct)
    if pct is not None:
        out["tail_ms"] = statistics.median(
            percentile(w.latencies, pct) for w in rows) * 1e3
        return out, f"p{pct}, median of {len(rows)} windows"
    pooled = [x for w in rows for x in w.latencies]
    pct = tail_pct(len(pooled), wanted_pct)
    out["tail_ms"] = (percentile(pooled, pct) if pct is not None
                      else max(pooled)) * 1e3
    return out, f"p{pct} of all ops" if pct is not None else "max of all ops"


# ---------------------------------------------------------------- spans
def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` are dicts with ``name``, ``start``, ``end`` and ``key``
    (anything naming the thread that ran it, e.g. ``(pid, thread)``).
    A span's self time is its duration minus the union of the deeper
    spans (per :data:`SPAN_DEPTH`) on the same key that lie inside it,
    so overlapping children are not subtracted twice.  Names outside
    :data:`SPAN_DEPTH` have no children and are reported whole.
    """
    by_key: dict = {}
    for s in spans:
        by_key.setdefault(s["key"], []).append(s)
    out: dict[str, float] = {}
    for group in by_key.values():
        for s in group:
            depth = SPAN_DEPTH.get(s["name"])
            children = [] if depth is None else [
                (max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in group
                if SPAN_DEPTH.get(c["name"], -1) > depth
                and c["start"] >= s["start"] and c["end"] <= s["end"]]
            own = (s["end"] - s["start"]) - _union_length(children)
            out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


# --------------------------------------------------------------- scrapes
def _samples(families: dict, sample_name: str, labels: dict):
    family = families.get(sample_name)
    if family is None:
        for suffix in ("_sum", "_count", "_bucket"):
            if sample_name.endswith(suffix):
                family = families.get(sample_name[: -len(suffix)])
    if family is None:
        return
    for name, lab, value in family["samples"]:
        if name == sample_name and all(lab.get(k) == v
                                       for k, v in labels.items()):
            yield value


def scrape_total(families: dict, sample_name: str, **labels) -> float:
    """Sum of every series of ``sample_name`` whose labels include
    ``labels`` — local and ``proc="wN"`` merged series alike."""
    return float(sum(_samples(families, sample_name, labels)))


def scrape_delta(before: dict, after: dict, sample_name: str,
                 **labels) -> float:
    """Growth of :func:`scrape_total` between two parsed scrapes."""
    return scrape_total(after, sample_name, **labels) \
        - scrape_total(before, sample_name, **labels)


def hist_mean(before: dict, after: dict, family: str, **labels) -> float:
    """Mean observation (in the histogram's unit) between two scrapes,
    over every series of ``family``; 0.0 when nothing was observed."""
    n = scrape_delta(before, after, family + "_count", **labels)
    if n <= 0:
        return 0.0
    return scrape_delta(before, after, family + "_sum", **labels) / n


class LoopResult:
    """What one closed loop did: latencies of the ops that succeeded,
    attempts, failures (with the first few messages), wall time, and one
    :class:`Window` per measurement window."""

    def __init__(self):
        self.latencies: list[float] = []
        self.windows: list[Window] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.samples: list[dict] = []   # traced loops: per-op ledger rows
        self.lock = threading.Lock()

    def fail(self, message: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(message)
