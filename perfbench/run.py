"""Served end-to-end benchmark of the repro stack, with a per-layer ledger.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point --seed 0 --seconds 10 --trace 0

Workloads (``perfbench/workloads.json`` holds each one's why, loop type,
connections, tier and cache flags, and the prediction map):

* ``point``, ``export``, ``agg_cold`` — closed-loop clients against a
  ``python -m repro.serve`` subprocess (see ``reads.py``);
* ``ingest`` — ``churn_fixture`` replayed on a ``MutableTable`` in this
  process (see ``ingest.py``).

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``
and, marked as not gated, ``p50_ms``, ``tail_ms`` and ``ops_per_s``;
``--trace 1`` is a separate run that reports the per-layer ones.  Every
op is checked against a numpy oracle.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it print every metric by name and unit, the error rate
and the run's provenance.  Exit status: 0 when every op was correct,
1 when any op failed or was wrong, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback

import ledger
import procfs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space for tables, inside the checkout (git-ignored)
WORK_ROOT = os.path.join(ROOT, ".perfbench")
#: set-ups per end-to-end run; ``setup_s`` is their median
SETUPS = 3
#: end-to-end metrics printed every run but left out of BENCHMARK.json:
#: on a shared host, hypervisor steal moves wall-clock latency and
#: throughput by more than any bound allows (see workloads.json notes)
UNGATED = {"p50_ms": "ms", "tail_ms": "ms", "ops_per_s": "ops/s"}


def provenance(argv: list[str], seed: int, spec: dict) -> dict:
    def git(*args) -> str | None:
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    import numpy

    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": bool(dirty) if dirty is not None else None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "command": [sys.executable, *argv],
        "seed": seed,
        "server_flags": spec.get("server_flags", []),
        "tier": spec.get("tier"),
        "conns": spec.get("conns"),
    }


def e2e_metrics(spec: dict, out: dict) -> tuple[dict, dict]:
    """End-to-end values plus the extra facts printed beside them."""
    loop = out["loop"]
    if not loop.latencies:
        raise RuntimeError("no op completed; nothing to report")
    values, tail_how = ledger.window_medians(loop.windows, spec["tail_pct"])
    values.update({
        "peak_rss_mb": out["peak_rss_mb"],
        "compression_ratio": out["compression_ratio"],
        "setup_s": statistics.median(out["setup_s"]),
    })
    extra = {"tail_percentile": tail_how,
             "samples": len(loop.latencies),
             "window_samples": [len(w.latencies) for w in loop.windows],
             "setup_s_each": [round(s, 4) for s in out["setup_s"]]}
    return values, extra


def run(args, bench: dict, spec: dict, notes: dict, workdir: str) -> dict:
    """Run one workload; returns the printed report's pieces."""
    # these import the program, so only once SRC is on the path
    import ingest
    import reads

    if args.workload == "ingest":
        work = ingest.IngestWorkload(spec, args.seed, workdir)
    else:
        work = reads.ReadWorkload(spec, args.seed, workdir, SRC)
    ungated: dict = {}
    if args.trace:
        out = work.run_traced(args.seconds)
        loops = [out["plain"], out["loop"]]
        led = out["ledger"]
        values = {m["name"]: led.get(m["name"], 0.0)
                  for m in bench["per_layer"]}
        extra = {"not_measured_on_this_workload": sorted(
            m["name"] for m in bench["per_layer"] if m["name"] not in led)}
        if "serve.transport_ms" in led:
            parts = ("serve.client.send_ms", "serve.transport_ms",
                     "serve.server.request_ms", "serve.client.decode_ms",
                     "serve.unattributed_ms")
            extra["reconcile"] = (
                " + ".join(f"{led[p]:.3f}" for p in parts)
                + f" = {sum(led[p] for p in parts):.3f} ms"
                + f" = traced p50 {led['obs.traced_p50_ms']:.3f} ms"
                + f" ({', '.join(parts)})")
        if args.workload == "agg_cold":
            extra["par_sampling"] = notes["par_sampling"]
        metrics_meta = bench["per_layer"]
    else:
        steal0, total0 = procfs.host_ticks()
        out = work.run_e2e(args.seconds, SETUPS)
        steal1, total1 = procfs.host_ticks()
        loops = [out["loop"]]
        values, extra = e2e_metrics(spec, out)
        if "server_pids_seen" in out:
            extra["server_pids_seen"] = out["server_pids_seen"]
        # CPU time the hypervisor gave other guests during the run: a
        # slow run with high steal was slowed by the machine, not the code
        extra["host_steal_pct"] = round(
            100.0 * (steal1 - steal0) / max(total1 - total0, 1), 2)
        metrics_meta = bench["end_to_end"]
        ungated = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in UNGATED.items()}
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    errors = [e for loop in loops for e in loop.errors]
    if out["server_status"] != 0:
        failed += 1
        errors.append(f"server exit status {out['server_status']}")
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in metrics_meta}
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "metrics": metrics, "ungated": ungated, "extra": extra}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's source ({SRC}/repro) is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        catalog = json.load(fh)
    specs = catalog["workloads"]
    if args.workload not in specs:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(specs)}")
    spec = specs[args.workload]
    sys.path.insert(0, SRC)

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        report = run(args, bench, spec, catalog["notes"], workdir)
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)   # only when no other run is using it
        except OSError:
            pass

    attempted, failed = report["attempted"], report["failed"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, metric in report["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for name, metric in report["ungated"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}"
              f"  (not gated)")
    print(f"  {'error_rate':34s} {failed / max(attempted, 1):14.6g} "
          f"fraction ({failed} of {attempted} ops)")
    for key, value in report["extra"].items():
        print(f"  {key}: {value}")
    for message in report["errors"]:
        print(f"  error: {message}")
    if report["ungated"]:
        print("ungated: " + json.dumps(report["ungated"]))
    print("provenance: " + json.dumps(
        provenance([os.path.relpath(__file__, ROOT), *argv], args.seed,
                   spec)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
