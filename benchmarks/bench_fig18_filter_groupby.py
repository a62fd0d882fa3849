"""Figure 18 — filter-groupby-aggregation query time vs selectivity (§5.1.1).

    SELECT AVG(val) FROM T WHERE ts_begin < ts < ts_end GROUP BY id

over a sensor table (ts/id/val) in two flavours — ``random`` (id and val
incompressible) and ``correlated`` (clustered ids, trending vals) — with
Default (dictionary), Delta, FOR, and LeCo column encodings.  Reports the
CPU (filter/groupby) and simulated-I/O breakdown per selectivity.
"""

import sys

import numpy as np

from repro.bench import render_table
from repro.datasets.synthetic import gen_ml
from repro.engine import IOModel, ParquetLikeFile, ParquetSource
from repro.exec import Plan, col

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, headline

SELECTIVITIES = [0.0001, 0.001, 0.01, 0.1]
ENCODINGS = ["dict", "delta", "for", "leco"]


def make_sensor_table(n: int, flavour: str, seed: int = 0):
    rng = np.random.default_rng(seed)
    ts = gen_ml(n, seed)
    if flavour == "random":
        ids = rng.integers(1, 10_000, n).astype(np.int64)
        vals = rng.integers(0, 1 << 40, n).astype(np.int64)
    else:  # correlated: clustered ids, vals trending across groups
        ids = (np.arange(n) // 100 % 10_000).astype(np.int64)
        base = (np.arange(n) // 100) * 1000
        vals = base + rng.integers(0, 1000, n)
    return {"ts": ts, "id": ids, "val": vals.astype(np.int64)}


def run_experiment(n: int = 60_000) -> str:
    rows = []
    for flavour in ("random", "correlated"):
        table = make_sensor_table(n, flavour)
        ts = table["ts"]
        files = {
            enc: ParquetLikeFile.write(table, enc, row_group_size=20_000,
                                       partition_size=1000)
            for enc in ENCODINGS
        }
        for sel in SELECTIVITIES:
            span = max(int(n * sel), 1)
            lo = int(ts[n // 3])
            hi = int(ts[min(n // 3 + span, n - 1)])
            plan = (Plan.scan(["id", "val"])
                    .where(col("ts").between(lo, hi))
                    .aggregate({"avg": ("avg", "val")}, group_by="id"))
            reference = None
            for enc in ENCODINGS:
                res = plan.execute(ParquetSource(files[enc], io=IOModel()))
                if reference is None:
                    reference = res.groups
                assert res.groups == reference, enc
                stats = res.stats
                groupby_s = stats.cpu_gather_s + stats.cpu_aggregate_s
                rows.append([
                    flavour, f"{sel:.2%}", enc,
                    f"{files[enc].file_size_bytes() / 1e6:.2f}MB",
                    f"{stats.cpu_filter_s * 1e3:.1f}",
                    f"{groupby_s * 1e3:.1f}",
                    f"{stats.io_s * 1e3:.2f}",
                    f"{stats.total_s * 1e3:.1f}",
                ])
    return headline(
        "Figure 18: filter-groupby-aggregation",
        "per-encoding CPU/IO breakdown across selectivities (ms)",
    ) + render_table(
        ["flavour", "selectivity", "encoding", "file", "filter ms",
         "groupby ms", "io ms", "total ms"], rows)


def test_fig18_filter_groupby(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(result)


if __name__ == "__main__":
    emit(run_experiment())
