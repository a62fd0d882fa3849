"""Exec-layer benchmark: pushdown vs naive execution on both backends.

The same logical plans — 1-, 2-, and 3-predicate conjunctions at several
selectivities over the sensor fixture — execute through ``repro.exec``
twice per backend:

* **pushdown** — zone-map granule pruning, ``filter_range`` inside
  surviving chunks, residual on gathered batches, late materialization;
* **naive** — ``pushdown=False, prune=False``: decode every needed
  column fully, then filter (the decode-all-then-filter baseline).

A ``covered_range`` shape times a grouped aggregate over a ``ts``
range spanning whole store granules: the zone maps prove the predicate
for every interior granule, so those granules run no filter and never
load their ``ts`` chunk (checks ``covered_matches_naive`` and
``covered_skips_predicate_chunks``).

Backends are the persistent store (``StoreSource``, chunk-level zone
maps from the footer catalog, cache disabled for honest bytes) and the
in-memory row-grouped file (``ParquetSource``, model-derived bounds via
the codecs' ``supports_model_bounds`` capability).  Also verifies the
acceptance path: one logical 2-predicate filter + groupby-avg plan
returns identical groups on both backends, and the 1-predicate version
matches the Fig. 18 plan over a ``(ts, id, val)`` ``ParquetSource``
exactly.

Writes ``BENCH_exec.json`` with wall clocks, speedups, pruning counts,
an ``explain()`` transcript of the selective store query, and pass/fail
checks::

    python benchmarks/bench_exec.py [--quick] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.datasets import sensor_fixture
from repro.engine import IOModel, ParquetLikeFile, ParquetSource
from repro.exec import Plan, col
from repro.store import Table, write_table
from repro.store.executor import StoreSource

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, headline

FULL_N = 300_000
QUICK_N = 60_000
SELECTIVITIES = (0.005, 0.05, 0.25)
PROJECTION = ("sensor_id", "reading")
REPEATS = 5


def _measure(fn, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _predicate(columns, n_preds: int, lo: int, hi: int):
    """1..3-conjunct expression + the equivalent numpy mask."""
    ts, sid, reading = (columns["ts"], columns["sensor_id"],
                        columns["reading"])
    expr = col("ts").between(lo, hi)
    mask = (ts >= lo) & (ts < hi)
    if n_preds >= 2:
        n_sensors = int(sid.max()) + 1
        expr = expr & col("sensor_id").between(0, n_sensors // 2)
        mask = mask & (sid < n_sensors // 2)
    if n_preds >= 3:
        r_lo, r_hi = (int(np.quantile(reading, 0.25)),
                      int(np.quantile(reading, 0.75)))
        expr = expr & col("reading").between(r_lo, r_hi)
        mask = mask & (reading >= r_lo) & (reading < r_hi)
    return expr, mask


def _ts_window(ts: np.ndarray, selectivity: float):
    n = len(ts)
    i0 = n // 2
    i1 = i0 + max(int(n * selectivity), 1)
    return int(ts[i0]), int(ts[i1])


def _covered_range(source, columns, repeats: int):
    """Grouped aggregate over a ``ts`` range from one granule edge to
    another (the middle half of the table), not projecting ``ts``."""
    ts = columns["ts"]
    granules = source.granules()
    first, last = len(granules) // 4, 3 * len(granules) // 4
    lo = int(ts[granules[first].row_start])
    hi = int(ts[granules[last].row_start])
    mask = (ts >= lo) & (ts < hi)
    plan = (Plan.scan(PROJECTION).where(col("ts").between(lo, hi))
            .aggregate({"s": ("sum", "reading"), "c": ("count", "reading")},
                       group_by="sensor_id"))
    t_push, pushed = _measure(lambda: plan.execute(source), repeats)
    t_naive, naive = _measure(
        lambda: plan.execute(source, prune=False, pushdown=False), repeats)
    sid, reading = columns["sensor_id"][mask], columns["reading"][mask]
    reference = {int(k): {"s": int(reading[sid == k].sum()),
                          "c": int((sid == k).sum())}
                 for k in np.unique(sid)}
    # chunks the pushdown run must charge: each unpruned granule loads
    # its ts chunk unless the zone map covers the range, and its
    # projected chunks when any row survives
    covered = expected_chunks = 0
    for g in granules:
        zmin, zmax = source.bounds(g, "ts")
        if zmax < lo or zmin >= hi:
            continue
        is_covered = lo <= zmin and zmax < hi
        covered += is_covered
        expected_chunks += (not is_covered) + len(PROJECTION) * bool(
            mask[g.row_start: g.row_start + g.n_rows].any())
    entry = {
        "rows_out": int(mask.sum()),
        "pushdown_ms": t_push * 1e3,
        "naive_ms": t_naive * 1e3,
        "speedup": t_naive / max(t_push, 1e-9),
        "granules_pruned": pushed.stats.granules_pruned,
        "granules_total": pushed.stats.granules_total,
        "granules_covered": covered,
        "chunks_scanned_pushdown": pushed.stats.chunks_scanned,
        "chunks_scanned_naive": naive.stats.chunks_scanned,
        "bytes_read_pushdown": pushed.stats.bytes_read,
        "bytes_read_naive": naive.stats.bytes_read,
    }
    checks = {
        "covered_matches_naive": bool(
            pushed.groups == naive.groups == reference),
        "covered_skips_predicate_chunks": bool(
            covered > 0
            and pushed.stats.chunks_scanned == expected_chunks
            and pushed.stats.rows_scanned == int(mask.sum())),
    }
    return entry, checks


def run(directory: str, n: int, repeats: int) -> dict:
    columns = sensor_fixture(n, seed=0)
    write_table(directory, columns, codec="auto",
                shard_rows=max(n // 8, 1024), chunk_rows=2048,
                overwrite=True)
    file = ParquetLikeFile.write(columns, "leco",
                                 row_group_size=max(n // 24, 2048),
                                 partition_size=1024)

    results: dict[str, dict] = {"store": {}, "parquet": {}}
    checks: dict[str, bool] = {}
    explain_transcript = ""
    with Table.open(directory, cache_bytes=0) as table:
        sources = {"store": StoreSource(table),
                   "parquet": ParquetSource(file)}
        for backend, source in sources.items():
            for n_preds in (1, 2, 3):
                for selectivity in SELECTIVITIES:
                    lo, hi = _ts_window(columns["ts"], selectivity)
                    expr, mask = _predicate(columns, n_preds, lo, hi)
                    plan = Plan.scan(PROJECTION).where(expr)
                    t_push, pushed = _measure(
                        lambda: plan.execute(source), repeats)
                    t_naive, naive = _measure(
                        lambda: plan.execute(source, prune=False,
                                             pushdown=False), repeats)
                    ok = (np.array_equal(pushed.row_ids,
                                         np.flatnonzero(mask))
                          and np.array_equal(pushed.row_ids,
                                             naive.row_ids)
                          and all(np.array_equal(pushed.columns[c],
                                                 naive.columns[c])
                                  for c in PROJECTION))
                    checks.setdefault("pushdown_matches_naive", True)
                    if not ok:
                        checks["pushdown_matches_naive"] = False
                    key = f"preds{n_preds}_sel{selectivity}"
                    results[backend][key] = {
                        "rows_out": pushed.n_rows,
                        "pushdown_ms": t_push * 1e3,
                        "naive_ms": t_naive * 1e3,
                        "speedup": t_naive / max(t_push, 1e-9),
                        "granules_pruned": pushed.stats.granules_pruned,
                        "granules_total": pushed.stats.granules_total,
                        "bytes_read_pushdown": pushed.stats.bytes_read,
                        "bytes_read_naive": naive.stats.bytes_read,
                    }
                    if backend == "store" and n_preds == 1 and \
                            selectivity == SELECTIVITIES[0]:
                        explain_transcript = pushed.explain()
                        checks["store_pushdown_beats_naive"] = \
                            bool(t_push < t_naive)
                        checks["store_explain_reports_pruning"] = bool(
                            pushed.stats.granules_pruned > 0
                            and "pruned" in explain_transcript)

        results["store"]["covered_range"], covered_checks = \
            _covered_range(sources["store"], columns, repeats)
        checks.update(covered_checks)

        # acceptance: one logical groupby plan, both backends, == Fig. 18
        lo, hi = _ts_window(columns["ts"], SELECTIVITIES[1])
        expr2, mask2 = _predicate(columns, 2, lo, hi)
        agg = (Plan.scan()
               .where(expr2)
               .aggregate({"avg": ("avg", "reading")},
                          group_by="sensor_id"))
        groups = {backend: agg.execute(source).groups
                  for backend, source in sources.items()}
        reference = {
            int(k): columns["reading"][mask2][
                columns["sensor_id"][mask2] == k].mean()
            for k in np.unique(columns["sensor_id"][mask2])}
        checks["two_pred_groupby_backends_agree"] = bool(
            groups["store"] == groups["parquet"]
            and {k: v["avg"] for k, v in groups["store"].items()}
            == reference)
        legacy_file = ParquetLikeFile.write(
            {"ts": columns["ts"], "id": columns["sensor_id"],
             "val": columns["reading"]}, "leco",
            row_group_size=max(n // 24, 2048), partition_size=1024)
        fig18 = (Plan.scan(["id", "val"])
                 .where(col("ts").between(lo, hi))
                 .aggregate({"avg": ("avg", "val")}, group_by="id"))
        legacy = {k: v["avg"] for k, v in fig18.execute(
            ParquetSource(legacy_file, io=IOModel())).groups.items()}
        one_pred = (Plan.scan()
                    .where(col("ts").between(lo, hi))
                    .aggregate({"avg": ("avg", "reading")},
                               group_by="sensor_id"))
        checks["groupby_matches_legacy"] = all(
            {k: v["avg"] for k, v in one_pred.execute(src).groups.items()}
            == legacy for src in sources.values())

    rows = []
    for backend in results:
        for key, entry in results[backend].items():
            rows.append([
                backend, key, f"{entry['rows_out']}",
                f"{entry['pushdown_ms']:.2f}", f"{entry['naive_ms']:.2f}",
                f"{entry['speedup']:.1f}x",
                f"{entry['granules_pruned']}/{entry['granules_total']}"])
    emit(render_table(
        ["backend", "query", "rows", "pushdown ms", "naive ms",
         "speedup", "pruned/granules"], rows))
    emit("checks: " + ", ".join(f"{k}={v}" for k, v in checks.items()))
    emit("\nexplain (store, 1 predicate, 0.5% selectivity):\n"
         + explain_transcript)
    return {"n": n, "selectivities": list(SELECTIVITIES),
            "backends": results, "checks": checks,
            "explain": explain_transcript}


def render_table(header, rows) -> str:
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    lines = ["  ".join(f"{str(c):>{w}}" for c, w in zip(r, widths))
             for r in [header] + rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", default="BENCH_exec.json")
    parser.add_argument("--dir", default=None,
                        help="store table directory (default: a temp dir)")
    args = parser.parse_args(argv)
    n = QUICK_N if args.quick else FULL_N
    repeats = 3 if args.quick else REPEATS
    emit(headline(
        "Unified execution layer benchmark",
        f"pushdown vs naive, 1-3 predicates, n={n}, "
        f"selectivities {SELECTIVITIES}, store + parquet backends"))
    directory = args.dir or tempfile.mkdtemp(prefix="repro_exec_bench_")
    try:
        payload = run(directory, n, repeats)
    finally:
        if args.dir is None:
            shutil.rmtree(directory, ignore_errors=True)
    with open(args.json, "w") as fh:
        json.dump(payload, fh, indent=2)
    emit(f"\nwrote {args.json}")
    failed = [name for name, ok in payload["checks"].items() if not ok]
    if failed:  # the CI smoke step must go red, not just record it
        raise SystemExit(f"exec bench checks failed: {', '.join(failed)}")


if __name__ == "__main__":
    main()
