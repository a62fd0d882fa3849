"""Columnar analytics on LeCo-encoded sensor data (paper §5.1).

The paper's motivating query: 10k sensors log (timestamp, id, reading);
analysts run highly selective filter-groupby-aggregation queries.  This
example writes the table into the Parquet-like columnar format under
different encodings and compares the full query pipeline — filter pushdown,
late-materialised groupby — including the simulated I/O bill.

Run:  python examples/sensor_analytics.py
"""

import numpy as np

from repro.datasets.synthetic import gen_ml
from repro.engine import IOModel, ParquetLikeFile, ParquetSource
from repro.exec import Plan, col

N = 80_000
rng = np.random.default_rng(7)

print("building sensor table:", N, "rows (ts, id, val)")
ids = (np.arange(N) // 100 % 10_000).astype(np.int64)     # clustered ids
vals = (np.arange(N) // 100) * 1000 + rng.integers(0, 1000, N)
table = {"ts": gen_ml(N), "id": ids, "val": vals.astype(np.int64)}

# a one-hour-style window: ~0.5% of the rows
ts = table["ts"]
lo, hi = int(ts[N // 2]), int(ts[N // 2 + N // 200])

print(f"\nquery: SELECT AVG(val) WHERE {lo} <= ts < {hi} GROUP BY id\n")
plan = (Plan.scan(["id", "val"])
        .where(col("ts").between(lo, hi))
        .aggregate({"avg": ("avg", "val")}, group_by="id"))
print(f"{'encoding':>8}  {'file':>9}  {'filter':>9}  {'groupby':>9}  "
      f"{'io':>8}  {'total':>9}")
reference = None
for encoding in ("dict", "delta", "for", "leco"):
    file = ParquetLikeFile.write(table, encoding, row_group_size=20_000,
                                 partition_size=1000)
    res = plan.execute(ParquetSource(file, io=IOModel()))
    answer = {key: row["avg"] for key, row in res.groups.items()}
    if reference is None:
        reference = answer
    assert answer == reference, "encodings must agree"
    stats = res.stats
    groupby_s = stats.cpu_gather_s + stats.cpu_aggregate_s
    print(f"{encoding:>8}  {file.file_size_bytes() / 1e6:7.2f}MB  "
          f"{stats.cpu_filter_s * 1e3:7.1f}ms  "
          f"{groupby_s * 1e3:7.1f}ms  "
          f"{stats.io_s * 1e3:6.2f}ms  {stats.total_s * 1e3:7.1f}ms")

groups = len(reference)
print(f"\nanswer: {groups} sensor groups; e.g. "
      f"{dict(list(sorted(reference.items()))[:3])}")
print("\nLeCo gets the dictionary-free file size of Delta with the "
      "random-access groupby speed of FOR — the paper's §5.1 result.")
