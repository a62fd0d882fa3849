"""The ``ingest`` workload: ``churn_fixture`` replayed in process on a
``MutableTable``.

A run replays ``streams`` churn streams (stream ``k`` of seed ``s`` is
``churn_fixture(seed=16 * s + k)``), so its figures average over several
op streams instead of hanging on one.  Set-up publishes each stream's
base (``base_rows``, 50k) as generation 1.  Each stream's ops are cut to
a fixed mix (``mix``: so many appends, retention deletes, sensor deletes
and key updates, taken in stream order):

* the natural mix is half appends, which puts the median op on the
  cliff between sub-millisecond appends and 10-70 ms deletes, so
  ``p50_ms`` would jump from seed to seed; with appends well over half
  of the ops it is an append on every seed, and the slow kinds show in
  ``tail_ms``, ``ops_per_s`` and ``cpu_ms_per_op``;
* retention deletes are few because each may drop up to a twentieth of
  the table, which made a run's cost hang on the seed.

One *episode* copies a stream's base, opens it, and replays the stream
with ``sync=False``, flushing after every ``flush_every`` ops (the flush
policy, fixed in ``workloads.json``), then flushes and compacts once;
every call (a flush and a compact included) is one timed op.  A *round*
runs one episode per stream and is one measurement window; rounds repeat
until the run's seconds are spent, so ``compression_ratio`` (the mean
over the streams) is deterministic per seed.  After each episode every
op's return value and the final snapshot are checked against
:class:`oracle.ChurnOracle`, and after a stream's first episode also
every flushed generation (``Table.open(path, version=g)``).
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import numpy as np

import ledger
from oracle import ChurnOracle, digest
from procfs import ProcTree

from repro import codecs, obs
from repro.datasets.store_fixtures import apply_churn_op, churn_fixture
from repro.exec import Plan
from repro.mutate import MutableTable
from repro.store import StoreSource, Table

#: the store writer's chunk and in-chunk partition sizes
CHUNK_ROWS = 4096
PARTITION_ROWS = 1024
#: chunks encoded per codec for ``codecs.<id>.encode_ns_per_row``
ENCODE_SAMPLE = 24

KINDS = ("append", "delete", "update", "flush", "compact")


def op_kind(op: dict) -> str:
    """``append``, ``update``, or ``delete_<column>``."""
    if op["op"] == "delete":
        return f"delete_{op['where'][0]}"
    return op["op"]


def fixed_mix(ops: list[dict], mix: dict[str, int]) -> list[dict]:
    """The first ``mix[kind]`` ops of each kind, in stream order."""
    left = dict(mix)
    out = []
    for op in ops:
        kind = op_kind(op)
        if left.get(kind, 0) > 0:
            out.append(op)
            left[kind] -= 1
    if any(left.values()):
        raise RuntimeError(f"churn stream too short for the mix: {left}")
    return out


def schedule(ops: list[dict], flush_every: int) -> list[dict]:
    """The timed op sequence of one episode: the churn ops with a flush
    after every ``flush_every``, then a final flush and a compact."""
    out = []
    for i, op in enumerate(ops, 1):
        out.append(op)
        if i % flush_every == 0:
            out.append({"op": "flush"})
    return out + [{"op": "flush"}, {"op": "compact"}]


def expected_outcomes(base, steps) -> tuple[list, list, list]:
    """Oracle replay: per step the expected return value (``None`` for
    flush/compact), the digest after every flush, and the rows every
    flush encodes."""
    oracle = ChurnOracle(base)
    returns, digests, tails = [], [], []
    for step in steps:
        if step["op"] in ("flush", "compact"):
            returns.append(None)
            if step["op"] == "flush":
                tails.append(oracle.flushed())
                digests.append(oracle.digest())
        else:
            returns.append(oracle.apply(step))
    return returns, digests, tails


def table_digest(path: str, version: int | None, names) -> tuple:
    with Table.open(path, version=version, cache_bytes=0) as table:
        res = Plan.scan(None).execute(StoreSource(table), threads=1)
        return digest(res.columns, names)


class IngestResult(ledger.LoopResult):
    def __init__(self):
        super().__init__()
        self.rounds = 0
        self.by_kind: dict[str, list[float]] = {k: [] for k in KINDS}
        #: final compression ratio of each stream's episode
        self.ratios: dict[int, float] = {}


class Stream:
    """One churn stream: its published base and the oracle's answers."""

    def __init__(self, spec: dict, seed: int, path: str):
        base, ops = churn_fixture(spec["base_rows"], n_ops=spec["draw_ops"],
                                  seed=seed)
        with MutableTable.create(path, schema=tuple(base),
                                 sync=False) as table:
            table.append(base)
            table.flush()
        self.path = path
        self.base = base
        self.names = tuple(base)
        self.steps = schedule(fixed_mix(ops, spec["mix"]),
                              spec["flush_every"])
        self.returns = self.digests = self.tails = None

    def prepare(self) -> None:
        self.returns, self.digests, self.tails = \
            expected_outcomes(self.base, self.steps)


class IngestWorkload:
    """``streams`` churn streams per seed; a *round* replays each once,
    and each round is one measurement window."""

    def __init__(self, spec: dict, seed: int, workdir: str):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.streams: list[Stream] = []

    def setup(self, index: int) -> float:
        """Data generation → every stream's base table published."""
        t0 = time.perf_counter()
        self.streams = [
            Stream(self.spec, self.seed * 16 + k,
                   os.path.join(self.workdir, f"setup{index}-base{k}"))
            for k in range(self.spec["streams"])]
        return time.perf_counter() - t0

    def prepare(self) -> None:
        for stream in self.streams:
            stream.prepare()

    # ------------------------------------------------------------ episode
    def episode(self, k: int, result: IngestResult, window: dict,
                walk=None) -> None:
        """Replay stream ``k`` once on a copy of its base, then check it."""
        stream = self.streams[k]
        path = os.path.join(self.workdir, f"episode{k}")
        shutil.copytree(stream.path, path)
        generations = []
        table = MutableTable.open(path, sync=False)
        try:
            for step, want in zip(stream.steps, stream.returns):
                kind = step["op"]
                result.attempted += 1
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    if kind == "flush":
                        got = table.flush()
                    elif kind == "compact":
                        got = table.compact(
                            threshold=self.spec["compact_threshold"])
                    else:
                        got = apply_churn_op(table, step)
                except Exception as err:  # counted, reported, run goes on
                    result.fail(f"{kind}: {type(err).__name__}: {err}")
                    continue
                elapsed = time.perf_counter() - t0
                window["cpu_s"] += time.process_time() - cpu0
                window["wall_s"] += elapsed
                window["latencies"].append(elapsed)
                result.latencies.append(elapsed)
                result.by_kind[kind].append(elapsed)
                if kind in ("flush", "compact") and walk is not None:
                    walk(path)
                if kind == "flush":
                    generations.append(got)
                elif kind != "compact" and got != want:
                    result.fail(f"{kind} returned {got}, oracle {want}")
        finally:
            table.close()
        # every flushed generation the first time a stream is replayed
        # (later rounds repeat the same ops on the same base); the op
        # return values and the current, compacted snapshot every time
        if k not in result.ratios:
            for g, want in zip(generations, stream.digests):
                if table_digest(path, g, stream.names) != want:
                    result.fail(f"generation {g} differs from the oracle")
        if table_digest(path, None, stream.names) != stream.digests[-1]:
            result.fail("final snapshot differs from the oracle")
        with Table.open(path, cache_bytes=0) as final:
            result.ratios.setdefault(
                k, final.live_rows * len(final.column_names) * 8
                / final.stored_bytes())
        shutil.rmtree(path)

    def loop(self, seconds: float, walk=None) -> IngestResult:
        """Whole rounds for about ``seconds``: a round starts only while
        at least half of the last round's duration is left."""
        result = IngestResult()
        deadline = time.perf_counter() + seconds
        round_s = 0.0
        while time.perf_counter() + round_s / 2 < deadline:
            t_round = time.perf_counter()
            window = {"latencies": [], "wall_s": 0.0, "cpu_s": 0.0}
            for k in range(len(self.streams)):
                self.episode(k, result, window, walk)
            result.windows.append(ledger.Window(**window))
            result.wall_s += window["wall_s"]
            result.cpu_s += window["cpu_s"]
            result.rounds += 1
            round_s = time.perf_counter() - t_round
        return result

    # --------------------------------------------------------------- runs
    def run_e2e(self, seconds: float, setups: int) -> dict:
        setup_times = [self.setup(i) for i in range(setups)]
        self.prepare()
        # CPU is the process's own, summed over the op calls only (the
        # oracle checks between episodes are not the program's work)
        with ProcTree(os.getpid()) as tree:
            loop = self.loop(seconds)
        return {"loop": loop, "server_status": 0,
                "peak_rss_mb": tree.peak_rss_mb(), "setup_s": setup_times,
                "compression_ratio": statistics.fmean(loop.ratios.values())}

    def run_traced(self, seconds: float) -> dict:
        self.setup(0)
        self.prepare()
        half = seconds / 2.0
        plain = self.loop(half)
        written: dict[str, int] = {}

        def walk(path: str) -> None:
            # shards, DV sidecars, manifests written since the base copy
            k = int(os.path.basename(path)[len("episode"):])
            known = os.listdir(self.streams[k].path)
            for name in os.listdir(path):
                if name not in known and not name.startswith("wal-"):
                    written[f"{k}/{name}"] = os.path.getsize(
                        os.path.join(path, name))

        registry = obs.default_registry()
        before = obs.parse_text(registry.render())
        traced = self.loop(half, walk)
        after = obs.parse_text(registry.render())
        appended = sum(len(step["batch"]["ts"]) for stream in self.streams
                       for step in stream.steps
                       if step["op"] == "append") * traced.rounds
        wal = ledger.scrape_delta(before, after, "repro_wal_bytes_total")
        # every round rewrites the same file names; one round's files
        # stand for each
        files = sum(written.values()) * traced.rounds
        untraced_p50 = ledger.percentile(plain.latencies, 50) * 1e3
        traced_p50 = ledger.percentile(traced.latencies, 50) * 1e3
        out = {f"mutate.{k}_ms": statistics.median(v) * 1e3 if v else 0.0
               for k, v in traced.by_kind.items()}
        names = self.streams[0].names
        out.update({
            "mutate.wal_bytes_per_row": wal / appended,
            "mutate.write_amp": (wal + files) / (appended * 8 * len(names)),
            "obs.untraced_p50_ms": untraced_p50,
            "obs.traced_p50_ms": traced_p50,
            "obs.trace_overhead_pct":
                (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        })
        out.update(encode_ledger(
            [tail for stream in self.streams for tail in stream.tails],
            names))
        return {"plain": plain, "loop": traced, "ledger": out,
                "server_status": 0}


def encode_ledger(tails, names) -> dict:
    """``codecs.<id>.encode_ns_per_row`` over the 4096-row chunks the
    episode's flushes encode (every column), built as the store writer
    builds its candidates."""
    chunks = [tail[name][i:i + CHUNK_ROWS]
              for tail in tails for name in names
              for i in range(0, len(tail[name]), CHUNK_ROWS)]
    chunks = [c for c in chunks if len(c)][:ENCODE_SAMPLE]
    builders = {"leco": codecs.get("leco", partitioner=PARTITION_ROWS),
                "dict": codecs.get("dict")}
    out = {}
    for cid, codec in builders.items():
        per_row = []
        for chunk in chunks:
            t0 = time.perf_counter_ns()
            codec.encode(chunk)
            per_row.append((time.perf_counter_ns() - t0) / len(chunk))
        out[f"codecs.{cid}.encode_ns_per_row"] = \
            float(np.median(per_row)) if per_row else 0.0
    return out
