"""Unit tests of the benchmark's own helpers (run with pytest)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ingest  # noqa: E402
import ledger  # noqa: E402
import procfs  # noqa: E402
from oracle import ChurnOracle, ReadOracle  # noqa: E402

from repro.datasets.store_fixtures import (  # noqa: E402
    apply_churn_op, churn_fixture, sensor_fixture)
from repro.exec import Plan, col  # noqa: E402
from repro.mutate import MutableTable  # noqa: E402
from repro.obs.metrics import (  # noqa: E402
    MetricsRegistry, parse_text, snapshot_delta)
from repro.serve import wire  # noqa: E402
from repro.store import StoreSource, Table, write_table  # noqa: E402


# ------------------------------------------------------------ tail rule
@pytest.mark.parametrize("n, wanted, expected", [
    (1000, 99, 99),     # exactly ten beyond p99
    (999, 99, 95),      # 9.99 beyond p99: fall back
    (200, 99, 95),
    (199, 99, 90),
    (100, 90, 90),
    (99, 90, None),     # not even p90 has ten beyond
    (5000, 90, 90),     # the recorded percentile wins when it qualifies
    (5000, None, 99),
])
def test_tail_pct_needs_ten_samples_beyond(n, wanted, expected):
    assert ledger.tail_pct(n, wanted) == expected


def test_quartile_spread_matches_statistics_quantiles():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, med, q3 = 11.75, 14.5, 17.25
    assert ledger.quartile_spread(values) == pytest.approx((q3 - q1) / med)


# ------------------------------------------------------------ self time
def _span(name, start, end, key="a"):
    return {"name": name, "start": start, "end": end, "key": key}


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span("granule", 0, 10),
        _span("filter", 1, 6),
        _span("load", 2, 4),
        _span("load", 3, 5),        # overlaps the first load
        _span("gather", 6, 9),
        _span("load", 7, 8),
        # another thread's span inside the same interval is no child
        _span("load", 0, 10, key="b"),
    ]
    own = ledger.self_times(spans)
    assert own["granule"] == pytest.approx(10 - 8)   # children cover 1..9
    assert own["filter"] == pytest.approx(5 - 3)     # loads cover 2..5
    assert own["gather"] == pytest.approx(3 - 1)
    assert own["load"] == pytest.approx(2 + 2 + 1 + 10)


def test_self_time_of_unknown_names_is_their_duration():
    own = ledger.self_times([_span("merge", 1.0, 3.5),
                             _span("park", 0.0, 0.5)])
    assert own == {"merge": pytest.approx(2.5), "park": pytest.approx(0.5)}


# ---------------------------------------------------------------- scrapes
def test_hist_mean_and_counters_include_merged_worker_series():
    driver = MetricsRegistry()
    hist = driver.histogram("repro_t_seconds", "t", labels=("sched",))
    hits = driver.counter("repro_t_total", "t", labels=("outcome",))
    hist.labels(sched="s").observe(0.1)
    hits.labels(outcome="hit").inc(5)
    before = parse_text(driver.render())

    hist.labels(sched="s").observe(0.3)
    hits.labels(outcome="hit").inc(1)
    hits.labels(outcome="miss").inc(7)
    worker = MetricsRegistry()
    whist = worker.histogram("repro_t_seconds", "t", labels=("sched",))
    whits = worker.counter("repro_t_total", "t", labels=("outcome",))
    base = worker.snapshot()
    whist.labels(sched="s").observe(0.5)
    whist.labels(sched="s").observe(0.7)
    whits.labels(outcome="hit").inc(2)
    driver.merge(snapshot_delta(base, worker.snapshot()), proc="w1")
    after = parse_text(driver.render())

    assert 'proc="w1"' in driver.render()
    assert ledger.hist_mean(before, after, "repro_t_seconds") == \
        pytest.approx((0.3 + 0.5 + 0.7) / 3)
    assert ledger.scrape_delta(before, after, "repro_t_total",
                               outcome="hit") == pytest.approx(3)
    assert ledger.scrape_delta(before, after, "repro_t_total") == \
        pytest.approx(10)
    assert ledger.hist_mean(before, before, "repro_t_seconds") == 0.0
    assert ledger.scrape_delta(before, after, "repro_absent_total") == 0.0


# ------------------------------------------------------------------ oracle
def _as_client_result(res) -> dict:
    """An ExecResult as ``ServeClient.query`` hands it back."""
    result = json.loads(json.dumps(wire.encode_result(res)))
    if result.get("row_ids") is not None:
        result["row_ids"] = np.asarray(result["row_ids"], dtype=np.int64)
        result["columns"] = {k: np.asarray(v, dtype=np.int64)
                             for k, v in result["columns"].items()}
    return result


def test_read_oracle_on_a_tiny_table(tmp_path):
    columns = sensor_fixture(5000, seed=3)
    path = str(tmp_path / "t")
    write_table(path, columns, codec="auto", chunk_rows=512)
    oracle = ReadOracle(columns)
    lo, hi = int(columns["ts"][1200]), int(columns["ts"][1300])
    with Table.open(path) as table:
        source = StoreSource(table)
        rows = _as_client_result(
            Plan.scan(None).where(col("ts").between(lo, hi))
            .execute(source))
        agg = _as_client_result(
            Plan.scan(["sensor_id", "reading"])
            .where(col("ts").between(lo, hi))
            .aggregate({"s": ("sum", "reading"), "c": ("count", "reading"),
                        "m": ("max", "reading")}, group_by="sensor_id")
            .execute(source))
    assert oracle.row_slice(lo, hi) == slice(1200, 1300)
    assert oracle.rows_match(rows, lo, hi)
    expected = oracle.groups(lo, hi)
    assert sum(g["c"] for g in expected.values()) == 100
    assert oracle.groups_match(agg, expected)

    rows["columns"]["reading"][7] += 1
    assert not oracle.rows_match(rows, lo, hi)
    agg["groups"][0][1]["m"] += 1
    assert not oracle.groups_match(agg, expected)


def test_churn_oracle_matches_every_flushed_generation(tmp_path):
    base, ops = churn_fixture(3000, n_ops=40, seed=5, n_sensors=8)
    steps = ingest.schedule(ops, flush_every=10)
    returns, digests, tails = ingest.expected_outcomes(base, steps)
    path = str(tmp_path / "m")
    generations = []
    with MutableTable.create(path, schema=tuple(base),
                             chunk_rows=256) as table:
        table.append(base)
        table.flush()
        for step, want in zip(steps, returns):
            if step["op"] == "flush":
                generations.append(table.flush())
            elif step["op"] == "compact":
                table.compact()
            else:
                assert apply_churn_op(table, step) == want
    names = tuple(base)
    assert len(generations) == len(digests) == len(tails)
    for g, want in zip(generations, digests):
        assert ingest.table_digest(path, g, names) == want
    assert ingest.table_digest(path, None, names) == digests[-1]
    # a wrong replay is caught: drop the last append from the oracle's
    victim = max(i for i, s in enumerate(steps) if s["op"] == "append")
    _, wrong, _ = ingest.expected_outcomes(
        base, steps[:victim] + steps[victim + 1:])
    assert wrong[-1] != digests[-1]


def test_churn_oracle_tail_is_what_the_next_flush_encodes():
    base = {"k": np.arange(5, dtype=np.int64),
            "v": np.zeros(5, dtype=np.int64)}
    oracle = ChurnOracle(base)
    oracle.apply({"op": "append", "batch": {"k": np.array([7, 8]),
                                            "v": np.array([1, 1])}})
    assert oracle.apply({"op": "update", "key_column": "k", "key": 2,
                         "values": {"v": 9}}) == 1
    assert oracle.apply({"op": "delete", "where": ("k", 8, 9)}) == 1
    tail = oracle.flushed()
    assert tail["k"].tolist() == [7, 2] and tail["v"].tolist() == [1, 9]
    assert oracle.columns["k"].tolist() == [0, 1, 3, 4, 7, 2]
    assert oracle.flushed()["k"].size == 0


def test_fixed_mix_keeps_stream_order_and_quotas():
    _, ops = churn_fixture(1000, n_ops=200, seed=1)
    mix = {"append": 20, "delete_ts": 5, "delete_sensor_id": 5,
           "update": 5}
    picked = ingest.fixed_mix(ops, mix)
    kinds = [ingest.op_kind(op) for op in picked]
    assert {k: kinds.count(k) for k in mix} == mix
    positions = [next(i for i, op in enumerate(ops) if op is p)
                 for p in picked]
    assert positions == sorted(positions)
    with pytest.raises(RuntimeError):
        ingest.fixed_mix(ops[:10], mix)


# ---------------------------------------------------------------- procfs
def test_proc_tree_counts_reaped_children_and_skips_vanished_pids():
    tree = procfs.ProcTree(os.getpid())
    before = tree.cpu_s()
    child = subprocess.Popen([sys.executable, "-c",
                              "import time\nt = time.process_time()\n"
                              "while time.process_time() - t < 0.3: pass"])
    assert child.pid in procfs.descendants(os.getpid())
    child.wait(timeout=30)
    # reaped: its CPU now lives in this process's cutime/cstime
    assert tree.cpu_s() - before >= 0.25
    assert child.pid not in procfs.descendants(os.getpid())
    assert procfs._stat_fields(child.pid) is None
    assert procfs._hwm_kb(child.pid) is None
    tree.sample_memory()
    assert tree.peak_rss_mb() > 0
