#!/usr/bin/env python3
"""Run the benchmark over many seeds and record the spread of each metric.

    python3 perfbench/sweep.py --set set1 --seeds 1-10 [--workloads general,complete]
                               [--seconds 40] [--out perfbench/baseline.json]

From the root of a source checkout. For each seed, runs every workload once
with ``--trace 0`` (seed-major, so slow spells of the host spread over all
workloads), and stores under ``workloads/<w>/<metric>/<set>`` the ten values
with their median, quartiles (``statistics.quantiles(values, n=4)``) and
spread = (Q3 - Q1) / median. When the file holds two sets, ``change`` is the
second median over the first, minus 1. A run that is not correct, or that
fails, stops the sweep.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--set", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True)
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", default="perfbench/baseline.json")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["command"] = f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    run_s: dict[str, list[float]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            t0 = time.monotonic()
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"], capture_output=True, text=True)
            run_s[w].append(round(time.monotonic() - t0, 1))
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stdout[-2000:]}{p.stderr[-2000:]}", file=sys.stderr)
                return 1
            doc["meta"] = json.loads(lines[-2])["meta"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed} ({run_s[w][-1]} s): "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    for w in workloads:
        per_w = doc.setdefault("workloads", {}).setdefault(w, {})
        per_w.setdefault("run_s", {})[args.set] = run_s[w]
        for name, vs in values[w].items():
            entry = per_w.setdefault(name, {})
            entry[args.set] = summary(vs)
            sets = [k for k in entry if k != "change"]
            if len(sets) == 2:
                entry["change"] = entry[sets[1]]["median"] / entry[sets[0]]["median"] - 1
            print(f"{w} {name} {args.set}: median {entry[args.set]['median']:.4g} "
                  f"spread {entry[args.set]['spread']:.3f}"
                  + (f" change {entry['change']:+.3f}" if "change" in entry else ""))
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
