"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it.

Runs ``run.py`` once per seed on each named workload, one run at a time,
and prints per metric the median and the quartile spread
((Q3 - Q1) / median, ``statistics.quantiles(values, n=4)``) next to the
metric's bound from ``BENCHMARK.json``::

    python3 perfbench/spread.py --workloads point export --seeds 0-9
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import ledger

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", f"{args.seconds:g}", "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            took = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            found = {key: line.split(":", 1)[1].strip() for line in lines
                     for key in ("host_steal_pct", "ungated")
                     if line.strip().startswith(key + ":")}
            steal = found.get("host_steal_pct", "?")
            metrics = dict(result["metrics"])
            metrics.update(json.loads(found.get("ungated", "{}")))
            for name, metric in metrics.items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {took:.1f} s, "
                  f"{result['attempted']} ops, steal {steal}%, "
                  + ", ".join(
                      f"{k}={v['value']:.4g}"
                      for k, v in metrics.items()), flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            spread = ledger.quartile_spread(vals)
            bound = bounds.get(name)
            if bound is None:
                flag = "  (not gated)"
            else:
                flag = f"  bound {bound:.2f}" + (
                    "" if spread < bound / 3
                    else "  <-- above a third of the bound")
            print(f"  {workload:9s} {name:18s} median "
                  f"{statistics.median(vals):10.4g}  spread {spread:6.3f}"
                  f"{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
