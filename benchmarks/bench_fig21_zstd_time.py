"""Figure 21 — CPU/IO breakdown of block compression on the query path.

Repeats the bitmap-selection query (ml, selectivity 0.01%) with block
compression on and off, for Default/FOR/LeCo encodings.  The paper's
finding: zstd's I/O savings are outweighed by its decompression CPU — the
motivation for lightweight compression in §2.
"""

import sys

from repro.bench import render_table
from repro.datasets import load
from repro.engine import IOModel, ParquetLikeFile, ParquetSource, \
    zipf_cluster_bitmap
from repro.exec import Bitmap, Plan

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, headline

ENCODINGS = ["dict", "for", "leco"]


def run_experiment(n: int = 60_000) -> str:
    values = load("ml", n=n).values
    bitmap = zipf_cluster_bitmap(n, 0.0001, seed=3)
    plan = (Plan.scan(["v"])
            .where(Bitmap(bitmap))
            .aggregate({"total": ("sum", "v")}))
    reference = None
    rows = []
    for enc in ENCODINGS:
        for compressed in (False, True):
            file = ParquetLikeFile.write({"v": values}, enc,
                                         row_group_size=10_000,
                                         partition_size=1000,
                                         block_compression=compressed)
            res = plan.execute(ParquetSource(file, io=IOModel()))
            if reference is None:
                reference = res.groups
            assert res.groups == reference, (enc, compressed)
            stats = res.stats
            groupby_s = stats.cpu_gather_s + stats.cpu_aggregate_s
            rows.append([
                enc, "on" if compressed else "off",
                f"{file.file_size_bytes() / 1e6:.3f}MB",
                f"{groupby_s * 1e3:.2f}",
                f"{stats.io_s * 1e3:.3f}",
                f"{stats.total_s * 1e3:.2f}",
            ])
    return headline(
        "Figure 21: time breakdown with block compression",
        "bitmap query on ml at 0.01% selectivity (ms); block decompression "
        "CPU vs I/O savings",
    ) + render_table(["encoding", "zstd", "file", "cpu ms", "io ms",
                      "total ms"], rows)


def test_fig21_zstd_time(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(result)


if __name__ == "__main__":
    emit(run_experiment())
