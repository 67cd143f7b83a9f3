"""Code the benchmark runs in fresh interpreters, with ``src`` on the path.

    child.py prepare <workload> <dir> <size> [tree_seed ...]
        Workload set-up: import the package and make the inputs exist.
        general  - build random_ternary_tree(size, s) per op seed and write
                   the digest of each children table to dir/trees.json;
        complete - compute the frontier cache up to h = size in dir/cache;
        frontier - create the empty cache dir dir/cache.

    child.py trace <spans_out> <op_id> <spawn_monotonic> <cli arg> ...
        Traced run of one CLI op: wrap the package functions the CLI reaches
        with spans, then run ``cli.main`` on the op's own arguments. The
        wrappers replace module attributes, so calls made inside the package
        (build_report's checks, min_area's frontier reads) are caught too.
        Spans and counters go to <spans_out> as JSON when the op ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types

from check import tree_sha256
from ternarydraw import cli, geometry, layout_general, pareto, tree, verify

IMPORTED = time.monotonic()

# (module, attribute, span name): each attribute is looked up at call time by
# the CLI or by the package function that calls it.
WRAPPED = (
    (cli, "random_ternary_tree", "tree.random_ternary_tree"),
    (tree, "complete_tree", "tree.complete_tree"),  # cli imports it per call
    (geometry, "tree_from_json", "tree.tree_from_json"),
    (cli, "draw_general", "layout_general.draw_general"),
    (cli, "draw_c1_only", "layout_complete.draw_c1_only"),
    (cli, "draw_c2_only", "layout_complete.draw_c2_only"),
    (cli, "draw_golden", "layout_complete.draw_golden"),
    (cli, "draw_upper_1149", "layout_complete.draw_upper_1149"),
    (pareto, "min_area", "pareto.min_area"),
    (pareto, "frontier", "pareto.frontier"),
    (pareto, "reconstruct_drawing", "pareto.reconstruct_drawing"),
    (pareto, "load_frontier", "pareto.load_frontier"),
    (pareto, "save_frontier", "pareto.save_frontier"),
    (cli, "build_report", "verify.build_report"),
    *((verify, name, f"verify.{name}") for name in (
        "check_on_grid", "check_orthogonal", "check_planar", "check_top_visibility",
        "check_subtree_separation", "leg_arm_lengths")),
    (verify, "edge_segments", "geometry.edge_segments"),
    (verify, "extents", "geometry.extents"),
    (cli, "extents", "geometry.extents"),
    (cli, "drawing_to_json", "geometry.drawing_to_json"),
    (cli, "drawing_from_json", "geometry.drawing_from_json"),
)


class Tracer:
    """Spans (name, start, end, parent, op) and counters, kept in memory and
    written once when the op ends."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent, "op": self.op})

    def call(self, name: str, fn, *args, **kwargs):
        rec = {"name": name, "start": time.monotonic(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "op": self.op}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counters": self.counters}, f)


def instrument(tr: Tracer) -> None:
    for module, attr, name in WRAPPED:
        setattr(module, attr, tr.wrap(name, getattr(module, attr)))

    # The CLI's own JSON calls only: verify.report_to_json also calls
    # json.dumps, so cli gets a json module of its own.
    cli_json = types.ModuleType("json")
    cli_json.__dict__.update(json.__dict__)
    cli_json.dumps = tr.wrap("cli.json_dumps", json.dumps)
    cli_json.load = tr.wrap("cli.json_loads", json.load)
    cli.json = cli_json

    # One call per decomposition the layout recursion performs; counted, not
    # timed, as there is one per rail.
    decompose = layout_general._decompose

    def counted_decompose(*args, **kwargs):
        tr.counters["layout_general.decompositions"] = tr.counters.get("layout_general.decompositions", 0) + 1
        return decompose(*args, **kwargs)

    layout_general._decompose = counted_decompose

    # One call per frontier level the DP computes: a span named by the level
    # it adds, its size, and the candidates it filters (every center with
    # every arm under 2 constructions; computed, not counted).
    next_frontier = pareto._next_frontier

    def level(prev):
        fr = tr.call(f"pareto.frontier_level.h{prev.h + 1:02d}", next_frontier, prev)
        tr.counters[f"pareto.frontier_size.h{fr.h}"] = len(fr.pairs)
        tr.counters[f"pareto.candidates.h{fr.h}"] = 2 * len(prev.pairs) ** 2
        return fr

    pareto._next_frontier = level


def prepare(workload: str, out_dir: str, size: int, seeds: list[int]) -> None:
    if workload == "general":
        digests = {str(s): tree_sha256(tree.tree_to_json(tree.random_ternary_tree(size, s))["children"])
                   for s in seeds}
        with open(os.path.join(out_dir, "trees.json"), "w") as f:
            json.dump(digests, f)
    elif workload == "complete":
        pareto.frontier(size, os.path.join(out_dir, "cache"))
    elif workload == "frontier":
        os.makedirs(os.path.join(out_dir, "cache"))
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def trace(spans_out: str, op: str, spawn: float, argv: list[str]) -> int:
    tr = Tracer(op)
    tr.add("cli.process_start", spawn, IMPORTED)
    instrument(tr)
    try:
        return cli.main(argv)
    finally:
        tr.dump(spans_out)


if __name__ == "__main__":
    if sys.argv[1] == "prepare":
        prepare(sys.argv[2], sys.argv[3], int(sys.argv[4]), [int(s) for s in sys.argv[5:]])
    elif sys.argv[1] == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3], float(sys.argv[4]), sys.argv[5:]))
    else:
        raise SystemExit(f"unknown mode {sys.argv[1]!r}")
