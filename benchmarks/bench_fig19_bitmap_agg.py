"""Figure 19 — single-column bitmap aggregation vs selectivity (§5.1.2).

Sum the bitmap-selected entries of one column (normal, booksale, poisson,
ml), with zipf-clustered bitmaps, skipping row groups whose bitmap region is
empty.  LeCo's advantage combines I/O reduction with random-access decode of
only the selected entries.
"""

import sys

from repro.bench import render_table
from repro.datasets import load
from repro.engine import IOModel, ParquetLikeFile, ParquetSource, \
    zipf_cluster_bitmap
from repro.exec import Bitmap, Plan

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, headline

DATASETS = ("normal", "booksale", "poisson", "ml")
ENCODINGS = ["dict", "delta", "for", "leco"]
SELECTIVITIES = [0.0001, 0.001, 0.01, 0.1]


def run_experiment(n: int = 60_000) -> str:
    rows = []
    for name in DATASETS:
        values = load(name, n=n).values
        files = {
            enc: ParquetLikeFile.write({"val": values}, enc,
                                       row_group_size=10_000,
                                       partition_size=1000)
            for enc in ENCODINGS
        }
        for sel in SELECTIVITIES:
            bitmap = zipf_cluster_bitmap(n, sel, seed=7)
            plan = (Plan.scan(["val"])
                    .where(Bitmap(bitmap))
                    .aggregate({"total": ("sum", "val")}))
            reference = None
            for enc in ENCODINGS:
                res = plan.execute(ParquetSource(files[enc], io=IOModel()))
                if reference is None:
                    reference = res.groups
                assert res.groups == reference, (name, enc)
                stats = res.stats
                groupby_s = stats.cpu_gather_s + stats.cpu_aggregate_s
                rows.append([
                    name, f"{sel:.2%}", enc,
                    f"{groupby_s * 1e3:.1f}",
                    f"{stats.io_s * 1e3:.2f}",
                    f"{stats.total_s * 1e3:.1f}",
                ])
    return headline(
        "Figure 19: bitmap aggregation",
        "CPU/IO per encoding and selectivity (ms); row groups with empty "
        "bitmap regions are skipped",
    ) + render_table(["dataset", "selectivity", "encoding", "cpu ms",
                      "io ms", "total ms"], rows)


def test_fig19_bitmap_agg(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(result)


if __name__ == "__main__":
    emit(run_experiment())
