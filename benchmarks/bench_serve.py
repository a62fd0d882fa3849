"""Serving-layer benchmark: shared morsel scheduler vs pool-per-query.

Concurrent clients hammer one :class:`repro.serve.TableServer` over
real sockets with a mixed workload — 0.5%-selectivity row queries
(limit-capped responses) alternating with full-scan aggregates — at
1, 8, and 64 connections.  Each client count runs twice:

* **shared** — the server's serving shape: every query's granules
  interleave on one bounded :class:`~repro.exec.pool.MorselScheduler`;
* **pool-per-query** — the baseline: :class:`PoolPerQuery`, assigned
  to ``server.scheduler``, runs each request on its own fresh
  ``MorselScheduler(workers=WORKERS)``, so N concurrent queries
  oversubscribe N pools onto the same cores.

Both modes share everything else (wire protocol, chunk cache size,
table).  Reports QPS and p50/p99 latency per mode and client count,
verifies every response row-for-row, and checks that the shared
scheduler wins at >= 8 clients.  Writes ``BENCH_serve.json``::

    python benchmarks/bench_serve.py [--quick] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time

import numpy as np

from repro.datasets import sensor_fixture
from repro.exec import MorselScheduler, Plan, col
from repro.serve import ServeClient, TableServer
from repro.store import TableWriter

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, headline

FULL_N = 200_000
QUICK_N = 40_000
CLIENTS_FULL = (1, 8, 64)
CLIENTS_QUICK = (1, 8)
#: requests per client per run (alternating selective / full scan)
REQUESTS_PER_CLIENT = 6
#: worker threads per scheduler (shared) / per query pool (baseline)
WORKERS = 4


class PoolPerQuery:
    """The pool-per-query baseline, swapped in for a server's scheduler:
    every request gets a private pool of ``workers`` threads, torn down
    when the request finishes (no sharing, no admission control)."""

    def __init__(self, workers: int):
        self.workers = workers

    def run_query(self, fn, items, cancel, deadline=None, trace=None):
        with MorselScheduler(workers=self.workers,
                             name="bench-pool-per-query") as pool:
            return pool.run_query(fn, items, cancel, deadline, trace=trace)

    def stats(self) -> dict:
        return {"workers": self.workers, "tier": "thread",
                "inflight": 0, "parked": 0}

    def close(self, drain: bool = True, timeout: float | None = None
              ) -> None:
        pass  # nothing outlives a request


def _build_root(n: int) -> tuple[str, dict]:
    root = tempfile.mkdtemp(prefix="repro_serve_bench_")
    columns = sensor_fixture(n, seed=0)
    with TableWriter(os.path.join(root, "events"), codec="auto",
                     shard_rows=max(n // 8, 4096),
                     chunk_rows=2048) as writer:
        writer.append(columns)
    return root, columns


def _workload(columns) -> list[tuple]:
    """(name, plan, checker) for the two request shapes in the mix."""
    ts = columns["ts"]
    n = len(ts)
    i0 = n // 2
    i1 = i0 + max(int(n * 0.005), 1)  # ~0.5% selectivity
    lo, hi = int(ts[i0]), int(ts[i1])
    n_selected = int(((ts >= lo) & (ts < hi)).sum())
    selective = (Plan.scan(["sensor_id", "reading"])
                 .where(col("ts").between(lo, hi)))
    fullscan = Plan.scan(["reading"]).aggregate(
        {"total": ("sum", "reading"), "n": ("count", "reading")})
    total = int(columns["reading"].sum())
    return [
        ("selective", selective,
         lambda res: res["n_rows"] == n_selected),
        ("fullscan", fullscan,
         lambda res: res["groups"][0][1] == {"total": total, "n": n}),
    ]


def _drive(server: TableServer, n_clients: int, workload) -> dict:
    """Hammer ``server`` with ``n_clients`` concurrent connections."""
    host, port = server.address
    per_client: list[list] = [[] for _ in range(n_clients)]
    errors: list[str] = []

    def client(idx: int) -> None:
        try:
            with ServeClient(host, port) as c:
                for r in range(REQUESTS_PER_CLIENT):
                    name, plan, check = workload[(idx + r)
                                                 % len(workload)]
                    start = time.perf_counter()
                    res = c.query("events", plan, timeout_s=300.0,
                                  limit=64)
                    per_client[idx].append(
                        (name, time.perf_counter() - start))
                    if not check(res):
                        errors.append(f"{name}: wrong answer")
        except Exception as exc:
            errors.append(f"client {idx}: {exc!r}")

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(n_clients)]
    wall_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_start

    samples = [s for client_samples in per_client
               for s in client_samples]
    lats = np.asarray([dt for _, dt in samples]) * 1e3
    out = {
        "clients": n_clients,
        "requests": len(samples),
        "errors": errors,
        "wall_s": wall,
        "qps": len(samples) / wall,
        "p50_ms": float(np.percentile(lats, 50)),
        "p99_ms": float(np.percentile(lats, 99)),
    }
    for name in ("selective", "fullscan"):
        sub = np.asarray([dt for k, dt in samples if k == name]) * 1e3
        out[f"p50_{name}_ms"] = float(np.percentile(sub, 50))
    return out


def run(n: int, client_counts) -> dict:
    root, columns = _build_root(n)
    workload = _workload(columns)
    results: dict[str, dict] = {"shared": {}, "pool_per_query": {}}
    checks: dict[str, bool] = {"responses_correct": True,
                               "server_counts_exact": True}
    try:
        for mode in results:
            for n_clients in client_counts:
                server = TableServer(root, workers=WORKERS,
                                     max_inflight=None, queue_depth=None)
                if mode == "pool_per_query":
                    server.scheduler.close()
                    server.scheduler = PoolPerQuery(WORKERS)
                server.start()
                try:
                    warm = _drive(server, 1, workload)  # cache + threads
                    entry = _drive(server, n_clients, workload)
                    entry["server"] = {
                        k: server.stats()[k]
                        for k in ("queries_ok", "rejected_busy")}
                    driven = warm["requests"] + entry["requests"]
                    if entry["server"] != {"queries_ok": driven,
                                           "rejected_busy": 0}:
                        checks["server_counts_exact"] = False
                    entry["cache_hit_rate"] = \
                        server.stats()["cache"]["hit_rate"]
                finally:
                    server.shutdown()
                if entry["errors"]:
                    checks["responses_correct"] = False
                results[mode][str(n_clients)] = entry
    finally:
        shutil.rmtree(root, ignore_errors=True)

    for n_clients in client_counts:
        if n_clients >= 8:
            shared_qps = results["shared"][str(n_clients)]["qps"]
            pool_qps = results["pool_per_query"][str(n_clients)]["qps"]
            checks[f"shared_beats_pool_at_{n_clients}_clients"] = \
                bool(shared_qps > pool_qps)

    rows = []
    for mode in results:
        for n_clients in client_counts:
            e = results[mode][str(n_clients)]
            rows.append([
                mode, f"{n_clients}", f"{e['requests']}",
                f"{e['qps']:.1f}", f"{e['p50_ms']:.1f}",
                f"{e['p99_ms']:.1f}", f"{e['p50_selective_ms']:.1f}",
                f"{e['p50_fullscan_ms']:.1f}",
                f"{len(e['errors'])}"])
    emit(render_table(
        ["mode", "clients", "reqs", "QPS", "p50 ms", "p99 ms",
         "p50 sel", "p50 full", "errs"], rows))
    emit("checks: " + ", ".join(f"{k}={v}" for k, v in checks.items()))
    return {"n": n, "workers": WORKERS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "client_counts": list(client_counts),
            "modes": results, "checks": checks}


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
    parser.add_argument("--json", default="BENCH_serve.json")
    args = parser.parse_args(argv)
    n = QUICK_N if args.quick else FULL_N
    client_counts = CLIENTS_QUICK if args.quick else CLIENTS_FULL
    emit(headline(
        "Serving-layer benchmark",
        f"shared morsel scheduler vs pool-per-query, n={n}, "
        f"clients {client_counts}, {REQUESTS_PER_CLIENT} requests each "
        f"(0.5% selective + full-scan aggregate mix)"))
    payload = run(n, client_counts)
    with open(args.json, "w") as fh:
        json.dump(payload, fh, indent=2)
    emit(f"\nwrote {args.json}")
    failed = [name for name, ok in payload["checks"].items() if not ok]
    if failed:  # the CI smoke step must go red, not just record it
        raise SystemExit(f"serve bench checks failed: {', '.join(failed)}")


if __name__ == "__main__":
    main()
