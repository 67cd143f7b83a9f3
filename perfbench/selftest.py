#!/usr/bin/env python3
"""Self-test of the benchmark harness: corrupted outputs count as failed ops.

    python3 perfbench/selftest.py      (from the checkout root; about a minute)

It runs the complete workload's own op path (run.Bench.draw_verify, with its
checks) five times:

  crossing-control   draw complete:12 --algo c2, untouched: must pass.
  crossing           the same draw, but before the harness checks it one leaf
                     is moved so that its edge crosses exactly one other edge.
                     The draw op and the verify op on that file must fail.
  out-of-range       the same draw, with one leaf moved to x = 2^63, beyond the
                     int64 the checks work in. Both ops must fail, not crash
                     the harness.
  cache-control      draw complete:12 --algo pareto-min on the primed frontier
                     cache: must pass.
  cache-row          the same op after one row of the primed frontier_h12.txt
                     is rewritten to claim a 3x2 drawing, so that min_area
                     returns a wrong pair. The draw op must fail.

Exits 0 when every case behaves as stated, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def add_crossing(path: Path) -> None:
    """Move one leaf of the drawing so that the edge to its parent crosses
    exactly one other edge, interior to interior, and touches nothing else."""
    obj = json.loads(path.read_text())
    children = obj["tree"]["children"]
    pos = [tuple(p) for p in obj["pos"]]
    parent = {c: v for v, kids in enumerate(children) for c in kids}
    nodes = set(pos)
    interior = {}  # lattice point strictly inside an edge -> (child id, horizontal)
    for c, v in parent.items():
        (x1, y1), (x2, y2) = pos[v], pos[c]
        dx, dy = (x2 > x1) - (x2 < x1), (y2 > y1) - (y2 < y1)
        for k in range(1, abs(x2 - x1) + abs(y2 - y1)):
            interior[(x1 + k * dx, y1 + k * dy)] = (c, dy == 0)
    for leaf, v in parent.items():
        if children[leaf]:
            continue
        px, py = pos[v]
        for dx, dy in DIRS:
            k, crossed = 1, None
            while True:
                z = (px + k * dx, py + k * dy)
                hit = interior.get(z)
                if hit is not None and hit[0] == leaf:
                    hit = None  # the leaf's own edge goes away when it moves
                if z in nodes and z != pos[leaf]:
                    break
                if hit is None and z != pos[leaf]:
                    if crossed is not None:
                        pos[leaf] = z
                        obj["pos"] = [list(p) for p in pos]
                        path.write_text(json.dumps(obj))
                        return
                elif hit is not None:
                    if crossed is not None or hit[1] == (dy == 0):
                        break  # a second crossing, or an overlap
                    crossed = z
                k += 1
    raise RuntimeError("no leaf can be moved to make a single crossing")


def move_out_of_range(path: Path) -> None:
    """Move the last node, a leaf, to x = 2^63 on its own row."""
    obj = json.loads(path.read_text())
    obj["pos"][-1][0] = 2 ** 63
    path.write_text(json.dumps(obj))


def alter_cache_row(cache: Path) -> None:
    path = cache / "frontier_h12.txt"
    lines = path.read_text().splitlines()
    _, _, a, c, cn = lines[1].split()
    lines[1] = f"3 2 {a} {c} {cn}"
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "ternarydraw" / "cli.py").is_file():
        print("error: run from a ternarydraw source checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bench = run.Bench(root, spec, "complete", seed=0, seconds=60, trace=False)
    ok = True
    try:
        bench.setup([])
        tree = f"complete:{run.COMPLETE_H}"

        def case(name: str, algo: str, want_failed: set[str]) -> None:
            nonlocal ok
            first = len(bench.ops)
            bench.draw_verify(tree, algo, False, name)
            failed = {o.kind for o in bench.ops[first:] if o.error}
            good = failed == want_failed
            ok &= good
            errors = "; ".join(f"{o.kind}: {o.error}" for o in bench.ops[first:] if o.error)
            print(f"{'PASS' if good else 'FAIL'} {name}: failed ops {sorted(failed)} "
                  f"(expected {sorted(want_failed)}) {errors}")

        case("crossing-control", "c2", set())
        bench.tamper = lambda op, path: add_crossing(path)
        case("crossing", "c2", {"draw", "verify"})
        bench.tamper = lambda op, path: move_out_of_range(path)
        case("out-of-range", "c2", {"draw", "verify"})
        bench.tamper = None
        case("cache-control", "pareto-min", set())
        alter_cache_row(bench.inputs / "cache")
        case("cache-row", "pareto-min", {"draw"})
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
