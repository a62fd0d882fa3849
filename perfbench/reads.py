"""The three read workloads: a ``python -m repro.serve`` subprocess driven
over its socket by closed-loop clients in this process.

Each run writes one 200k-row ``sensor_fixture`` table with
``TableWriter(codec="auto")`` (49 granules of 4096 rows), starts the
server on it, warms it with ``explain`` requests (the traced run's
slow-query log keeps only ``query`` records, so warm-up never reaches
the ledger) and then drives it for the run's seconds.  Every response
is checked against :class:`oracle.ReadOracle`.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import ledger
from oracle import ReadOracle
from procfs import ProcTree

from repro import obs
from repro.datasets.store_fixtures import sensor_fixture
from repro.exec import Plan, col, execute
from repro.serve import ServeClient, wire
from repro.store import StoreSource, Table, write_table

TABLE = "events"
READ_ROWS = 200_000
#: distinct requests generated per run (cycled by the clients)
N_REQUESTS = 1024
#: requests replayed in process for the exec/codec/store ledger
N_REPLAY = 8
SERVER_START_TIMEOUT_S = 30.0
SERVER_STOP_TIMEOUT_S = 20.0
#: how long past the run's end a client may wait for its last answer
CLIENT_GRACE_S = 30.0
#: worker processes flush telemetry after this much pipe silence
#: (``repro.par.worker.IDLE_FLUSH_S`` is 0.5 s)
TELEMETRY_SETTLE_S = 0.8


# ------------------------------------------------------------- requests
def make_requests(width: int, ts: np.ndarray, seed: int,
                  n: int = N_REQUESTS) -> list[tuple[int, int]]:
    """``n`` ``ts`` ranges covering exactly ``width`` consecutive rows."""
    rng = np.random.default_rng([seed, 0x5E])
    starts = rng.integers(0, len(ts) - width, n)
    return [(int(ts[s]), int(ts[s + width])) for s in starts]


def make_plan(kind: str, lo: int, hi: int) -> Plan:
    where = col("ts").between(lo, hi)
    if kind == "rows":
        return Plan.scan(None).where(where)
    return Plan.scan(["sensor_id", "reading"]).where(where).aggregate(
        {"s": ("sum", "reading"), "c": ("count", "reading"),
         "m": ("max", "reading")}, group_by="sensor_id")


class Checker:
    """Per-request oracle answers, computed once per distinct request."""

    def __init__(self, oracle: ReadOracle, kind: str, requests):
        self.oracle = oracle
        self.kind = kind
        self.requests = requests
        self._groups: dict[int, dict] = {}
        self._lock = threading.Lock()

    def __call__(self, idx: int, result: dict) -> bool:
        lo, hi = self.requests[idx]
        if self.kind == "rows":
            return self.oracle.rows_match(result, lo, hi)
        with self._lock:
            expected = self._groups.get(idx)
            if expected is None:
                expected = self._groups[idx] = self.oracle.groups(lo, hi)
        return self.oracle.groups_match(result, expected)


# --------------------------------------------------------------- server
class Server:
    """``python -m repro.serve`` in its own session; :meth:`stop` drains
    it with SIGINT and kills the whole group if it does not exit."""

    def __init__(self, root: str, flags: list[str], src: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--root", root, *flags],
            stdout=subprocess.PIPE, text=True, env=env,
            start_new_session=True)
        self.pid = self.proc.pid
        self.address = None
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        try:
            while True:
                # nothing is printed before the one line we wait for, so
                # a readable pipe means a whole line (or EOF) is there
                left = deadline - time.monotonic()
                if left <= 0 or not select.select(
                        [self.proc.stdout], [], [], left)[0]:
                    raise RuntimeError(
                        "server did not report 'listening on' within "
                        f"{SERVER_START_TIMEOUT_S:g} s")
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"server exited during start-up "
                        f"(status {self.proc.wait()})")
                if line.startswith("listening on "):
                    host, port = line.split()[-1].rsplit(":", 1)
                    self.address = (host, int(port))
                    return
        except BaseException:
            self.kill()
            raise

    def kill(self) -> None:
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()

    def stop(self) -> int:
        """Graceful drain; returns the exit status (0 = clean)."""
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=SERVER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1
        # the drain also closes worker processes; reap any straggler
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return self.proc.returncode


# ---------------------------------------------------------- client loop
def _served_op(client: ServeClient, plan: Plan) -> tuple[dict, dict]:
    return client.query(TABLE, plan), {}


def _traced_op(sock: socket.socket, plan: Plan) -> tuple[dict, dict]:
    """One query through the wire functions ``ServeClient.query`` uses,
    with a span around each client step."""
    t0 = time.perf_counter()
    wire.send_frame(sock, {"v": wire.WIRE_VERSION, "op": "query",
                           "table": TABLE, "plan": plan.to_json()})
    t1 = time.perf_counter()
    resp = wire.recv_frame(sock)
    t2 = time.perf_counter()
    if resp is None:
        raise ConnectionError("server closed the connection")
    if not resp.get("ok"):
        raise RuntimeError(f"{resp.get('kind')}: {resp.get('error')}")
    result = resp["result"]
    wire_result = dict(result)   # the lists, sized after the op
    if result.get("row_ids") is not None:
        result["row_ids"] = np.asarray(result["row_ids"], dtype=np.int64)
        result["columns"] = {
            name: np.asarray(values, dtype=np.int64)
            for name, values in result["columns"].items()}
    t3 = time.perf_counter()
    return result, {"send": t1 - t0, "recv": t2 - t1, "decode": t3 - t2,
                    "wire_result": wire_result}


def closed_loop(address, plans, check, conns: int, seconds: float,
                traced: bool = False, windows: int = 1,
                cpu_probe=None) -> ledger.LoopResult:
    """``conns`` clients, each sending its next request only after the
    previous answer was decoded and checked, until ``seconds`` pass.

    The run is cut into ``windows`` equal windows; an op belongs to the
    window it completed in, and ``cpu_probe()`` (CPU seconds so far) is
    read at every window edge."""
    out = ledger.LoopResult()
    counter = itertools.count()
    done: list[tuple[float, float]] = []   # (completion time, latency)
    t_start = time.perf_counter()
    deadline = t_start + seconds

    def client_main() -> None:
        if traced:
            conn = socket.create_connection(address)
            op = _traced_op
        else:
            conn = ServeClient(*address)
            op = _served_op
        try:
            while time.perf_counter() < deadline:
                idx = next(counter) % len(plans)
                with out.lock:
                    out.attempted += 1
                t0 = time.perf_counter()
                try:
                    result, spans = op(conn, plans[idx])
                except (ConnectionError, wire.WireError) as err:
                    out.fail(f"{type(err).__name__}: {err}")
                    return
                except Exception as err:  # ServerBusy, ExecTimeout, ...
                    out.fail(f"{type(err).__name__}: {err}")
                    continue
                t1 = time.perf_counter()
                if not check(idx, result):
                    out.fail(f"wrong answer to request {idx}")
                    continue
                with out.lock:
                    out.latencies.append(t1 - t0)
                    done.append((t1, t1 - t0))
                    if traced:
                        spans["stats"] = result["stats"]
                        out.samples.append(spans)
                if traced:
                    # the frame the server sent: same JSON, same separators
                    spans["response_bytes"] = 4 + len(json.dumps(
                        {"ok": True, "result": spans.pop("wire_result")},
                        separators=(",", ":")).encode("utf-8"))
        finally:
            conn.close()

    probe = cpu_probe or (lambda: 0.0)
    edges = [(t_start, probe())]
    # daemon: a hung server must not keep the benchmark alive
    threads = [threading.Thread(target=client_main, name=f"client{i}",
                                daemon=True)
               for i in range(conns)]
    for t in threads:
        t.start()
    for w in range(1, windows + 1):
        time.sleep(max(0.0, t_start + seconds * w / windows
                       - time.perf_counter()))
        edges.append((time.perf_counter(), probe()))
    for t in threads:
        t.join(timeout=max(deadline + CLIENT_GRACE_S
                           - time.perf_counter(), 0.0))
        if t.is_alive():
            raise RuntimeError(f"a client waited over {CLIENT_GRACE_S:g} s "
                               f"for an answer")
    out.wall_s = time.perf_counter() - t_start
    for (lo, cpu_lo), (hi, cpu_hi) in zip(edges, edges[1:]):
        out.windows.append(ledger.Window(
            [lat for t, lat in done if lo <= t < hi], hi - lo,
            cpu_hi - cpu_lo))
    out.cpu_s = edges[-1][1] - edges[0][1]
    return out


# ------------------------------------------------------------- workload
class ReadWorkload:
    """One read workload bound to a seed, a spec and a work directory."""

    def __init__(self, spec: dict, seed: int, workdir: str, src: str):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.src = src
        self.kind = spec["plan"]
        self.flags = list(spec["server_flags"])
        self.table_path = None
        self.plans = self.checker = None

    def setup(self, index: int, extra_flags=()) -> tuple[Server, float]:
        """Data generation → table write → server start → warm-up;
        returns the warmed server and the seconds it took."""
        t0 = time.perf_counter()
        columns = sensor_fixture(READ_ROWS, seed=self.seed)
        root = os.path.join(self.workdir, f"setup{index}")
        self.table_path = os.path.join(root, TABLE)
        write_table(self.table_path, columns, codec="auto")
        requests = make_requests(self.spec["rows_per_request"],
                                 columns["ts"], self.seed)
        self.requests = requests
        self.plans = [make_plan(self.kind, lo, hi) for lo, hi in requests]
        self.checker = Checker(ReadOracle(columns), self.kind, requests)
        server = Server(root, self.flags + list(extra_flags), self.src)
        try:
            with ServeClient(*server.address) as client:
                if self.kind == "rows":
                    # every chunk into the server's cache
                    client.explain(TABLE, Plan.scan(None))
                for plan in self.plans[:self.spec["warmup_requests"]]:
                    client.explain(TABLE, plan)
        except BaseException:
            server.kill()
            raise
        return server, time.perf_counter() - t0

    # ---------------------------------------------------------- e2e run
    def measure(self, server: Server, seconds: float) -> dict:
        with ProcTree(server.pid) as tree:
            loop = closed_loop(server.address, self.plans, self.checker,
                               self.spec["conns"], seconds,
                               windows=self.spec["windows"],
                               cpu_probe=tree.cpu_s)
        return {"loop": loop, "peak_rss_mb": tree.peak_rss_mb(),
                "server_pids_seen": tree.pids_seen()}

    def compression_ratio(self) -> float:
        with Table.open(self.table_path, cache_bytes=0) as table:
            raw = table.n_rows * len(table.column_names) * 8
            return raw / table.stored_bytes()

    def run_e2e(self, seconds: float, setups: int) -> dict:
        setup_times = []
        for i in range(setups):
            server, took = self.setup(i)
            setup_times.append(took)
            if i < setups - 1:
                server.stop()
        try:
            measured = self.measure(server, seconds)
        finally:
            status = server.stop()
        measured.update(setup_s=setup_times, server_status=status,
                        compression_ratio=self.compression_ratio())
        return measured

    # ------------------------------------------------------- traced run
    def run_traced(self, seconds: float) -> dict:
        """Half the seconds untraced (for the overhead baseline), half
        against a server started with ``--slow-query-ms 0`` so every
        query's executor spans land in its slow-query log."""
        half = seconds / 2.0
        server, _ = self.setup(0)
        try:
            plain = self.measure(server, half)
        finally:
            plain_status = server.stop()
        log_path = os.path.join(self.workdir, "slow.jsonl")
        server, _ = self.setup(1, ["--slow-query-ms", "0",
                                   "--slow-query-log", log_path])
        try:
            with ServeClient(*server.address) as client:
                time.sleep(TELEMETRY_SETTLE_S)
                before = obs.parse_text(client.metrics())
                loop = closed_loop(server.address, self.plans,
                                   self.checker, self.spec["conns"], half,
                                   traced=True)
                time.sleep(TELEMETRY_SETTLE_S)
                after = obs.parse_text(client.metrics())
        finally:
            traced_status = server.stop()
        records = []
        with open(log_path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["op"] == "query":
                    records.append(rec)
        return {"plain": plain["loop"], "loop": loop,
                "ledger": self.build_ledger(plain["loop"], loop, before,
                                            after, records),
                "server_status": max(abs(plain_status),
                                     abs(traced_status))}

    def build_ledger(self, plain: ledger.LoopResult,
                     loop: ledger.LoopResult, before: dict, after: dict,
                     records: list[dict]) -> dict:
        samples = loop.samples
        ops = max(len(samples), 1)
        untraced_p50 = ledger.percentile(plain.latencies, 50) * 1e3
        traced_p50 = ledger.percentile(loop.latencies, 50) * 1e3
        # means add up (mean op = mean send + recv + decode; mean recv =
        # mean server time + transport); what the median of the op
        # latency leaves over is serve.unattributed_ms
        mean = {k: statistics.fmean(s[k] for s in samples) * 1e3
               for k in ("send", "recv", "decode")}
        request_ms = ledger.hist_mean(
            before, after, "repro_serve_request_seconds") * 1e3
        transport_ms = mean["recv"] - request_ms
        out = {
            "serve.client.send_ms": mean["send"],
            "serve.client.recv_ms": mean["recv"],
            "serve.client.decode_ms": mean["decode"],
            "serve.response_bytes": statistics.median(
                s["response_bytes"] for s in samples),
            "serve.server.request_ms": request_ms,
            "serve.transport_ms": transport_ms,
            "serve.unattributed_ms": traced_p50 - (
                mean["send"] + transport_ms + request_ms + mean["decode"]),
            "obs.untraced_p50_ms": untraced_p50,
            "obs.traced_p50_ms": traced_p50,
            "obs.trace_overhead_pct":
                (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        }
        # ExecStats of every traced response
        stats = [s["stats"] for s in samples]
        out["exec.run.granules"] = sum(
            st["granules_total"] - st["granules_pruned"]
            for st in stats) / ops
        out["exec.run.pruned_ratio"] = sum(
            st["granules_pruned"] / max(st["granules_total"], 1)
            for st in stats) / ops
        out["exec.run.wall_ms"] = sum(st["wall_s"] for st in stats) \
            / ops * 1e3
        out["exec.run.cpu_reported_ms"] = sum(
            st["cpu_filter_s"] + st["cpu_gather_s"]
            + st["cpu_aggregate_s"] + st["cpu_join_s"]
            for st in stats) / ops * 1e3
        out["store.read_kb_per_op"] = sum(
            st["bytes_read"] for st in stats) / ops / 1024.0
        out.update(span_ledger(records))
        # scrapes: cache, par lanes
        hits = ledger.scrape_delta(before, after,
                                   "repro_cache_lookups_total",
                                   outcome="hit")
        misses = ledger.scrape_delta(before, after,
                                     "repro_cache_lookups_total",
                                     outcome="miss")
        out["store.cache.hit_ratio"] = hits / (hits + misses) \
            if hits + misses else 0.0
        shipped = sum(ledger.scrape_delta(
            before, after, "repro_par_granules_total", outcome=o)
            for o in ("ok", "error", "abandoned"))
        executed = ledger.scrape_delta(before, after,
                                       "repro_exec_granules_total",
                                       outcome="executed")
        out["par.granules_shipped_per_op"] = shipped / ops
        out["par.wasted_ratio"] = (shipped - executed) / shipped \
            if shipped else 0.0
        out["par.pipe_roundtrip_ms"] = ledger.hist_mean(
            before, after, "repro_par_pipe_roundtrip_seconds") * 1e3
        out["par.dispatch_wait_ms"] = ledger.hist_mean(
            before, after, "repro_par_dispatch_wait_seconds") * 1e3
        out["par.pipe_kb_per_op"] = ledger.scrape_delta(
            before, after, "repro_par_bytes_total") / ops / 1024.0
        out.update(self.replay())
        return out

    # ---------------------------------------------------- in-process
    def replay(self) -> dict:
        """Time the layers below the wire in this process, on the first
        :data:`N_REPLAY` requests of the run."""
        plans = self.plans[:N_REPLAY]
        requests = self.requests[:N_REPLAY]
        out: dict[str, float] = {}
        with Table.open(self.table_path) as table:
            source = StoreSource(table)
            docs = [plan.to_json() for plan in plans]
            out["exec.plan.revive_ms"] = _median_ms(
                lambda: [Plan.from_json(d) for d in docs]) / len(docs)
            results = [execute(plan, source) for plan in plans]
            out["serve.wire.encode_ms"] = _median_ms(lambda: [
                json.dumps(wire.encode_result(r), separators=(",", ":"))
                for r in results]) / len(results)
            serial, default = [], []
            for plan in plans:
                t0 = time.perf_counter()
                execute(plan, source, threads=1)
                t1 = time.perf_counter()
                execute(plan, source)
                serial.append(t1 - t0)
                default.append(time.perf_counter() - t1)
            out["exec.run.serial_ms"] = statistics.median(serial) * 1e3
            out["exec.run.default_ms"] = statistics.median(default) * 1e3
            columns = table.column_names if self.kind == "rows" \
                else ("ts", "sensor_id", "reading")
            out.update(chunk_ledger(table, requests, columns))
        return out


def _median_ms(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


# ----------------------------------------------------------- ledgers
def span_ledger(records: list[dict]) -> dict:
    """Per-query means of the executor's trace spans from the server's
    slow-query log: self time per span name, parking, and dispatch (admit
    → first granule span)."""
    totals: dict[str, float] = {}
    park = dispatch = 0.0
    for rec in records:
        spans = [{"name": s["name"], "start": s["start_ms"],
                  "end": s["end_ms"], "key": (s["pid"], s["thread"])}
                 for s in rec["trace"]["spans"]]
        for name, ms in ledger.self_times(spans).items():
            totals[name] = totals.get(name, 0.0) + ms
        admitted = [s["end"] for s in spans if s["name"] in ("admit",
                                                             "park")]
        park += sum(s["end"] - s["start"] for s in spans
                    if s["name"] == "park")
        starts = [s["start"] for s in spans if s["name"] == "granule"]
        if admitted and starts:
            dispatch += max(min(starts) - max(admitted), 0.0)
    n = max(len(records), 1)
    out = {f"exec.run.{name}_ms": totals.get(name, 0.0) / n
           for name in ("load", "filter", "gather", "aggregate", "merge")}
    out["exec.pool.park_ms"] = park / n
    out["exec.pool.dispatch_ms"] = dispatch / n
    return out


CODEC_IDS = ("leco", "dict")


def chunk_ledger(table: Table, requests, columns) -> dict:
    """Revive and codec timings on every chunk of ``columns`` the
    requests touch (zone map overlaps the ``ts`` range, as the
    executor's pruning decides)."""
    revive_ns: list[int] = []
    per_codec: dict[str, dict[str, list[float]]] = {}
    touched = 0
    for lo, hi in requests:
        for shard_idx, shard in enumerate(table.shards):
            ts_chunks = shard.by_column["ts"]
            for chunk_idx, ts_meta in enumerate(ts_chunks):
                if ts_meta.zmax < lo or ts_meta.zmin >= hi:
                    continue
                ts_seq = table.revive_chunk(shard_idx, ts_meta)
                t0 = time.perf_counter_ns()
                mask = ts_seq.filter_range(lo, hi)
                filter_ns = time.perf_counter_ns() - t0
                positions = np.flatnonzero(mask)
                _codec_row(per_codec, ts_meta.codec)["filter"].append(
                    filter_ns / ts_meta.n_rows)
                for name in columns:
                    meta = shard.by_column[name][chunk_idx]
                    t0 = time.perf_counter_ns()
                    seq = table.revive_chunk(shard_idx, meta)
                    revive_ns.append(time.perf_counter_ns() - t0)
                    touched += 1
                    row = _codec_row(per_codec, meta.codec)
                    row["chunks"] += 1
                    t0 = time.perf_counter_ns()
                    seq.decode_all()
                    row["decode"].append(
                        (time.perf_counter_ns() - t0) / meta.n_rows)
                    if positions.size:
                        t0 = time.perf_counter_ns()
                        seq.gather(positions)
                        row["gather"].append(
                            (time.perf_counter_ns() - t0) / positions.size)
    out = {"store.revive_us_per_chunk":
           statistics.median(revive_ns) / 1e3 if revive_ns else 0.0}
    for cid in CODEC_IDS:
        row = per_codec.get(cid, {})
        out[f"codecs.{cid}.share"] = row.get("chunks", 0) / max(touched, 1)
        for key, metric in (("filter", "filter_range_ns_per_row"),
                            ("gather", "gather_ns_per_row"),
                            ("decode", "decode_ns_per_row")):
            values = row.get(key)
            out[f"codecs.{cid}.{metric}"] = \
                statistics.median(values) if values else 0.0
    return out


def _codec_row(per_codec: dict, cid: str) -> dict:
    return per_codec.setdefault(
        cid, {"chunks": 0, "filter": [], "gather": [], "decode": []})
