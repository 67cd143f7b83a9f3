#!/usr/bin/env python3
"""End-to-end benchmark of the ternarydraw CLI.

    python3 perfbench/run.py --workload {general,complete,frontier}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding
``BENCHMARK.json`` and ``src/``). One client runs one CLI op at a time in a
fresh interpreter (closed loop), times it from spawn to exit, takes its peak
RSS from its own rusage, and then, outside the timed region, checks its output
with ``check.py``. See ``perfbench/README.md`` for the workloads and metrics.

With ``--trace 1`` the ops are also run by ``child.py trace``, which wraps
the package functions the CLI reaches with spans and then runs the CLI's own
``main``; the per-layer metrics are printed instead of the end-to-end ones.

The last line printed is the result object
``{"correct", "attempted", "failed", "metrics"}``. Everything the run wrote
lives under ``.perfbench/`` in the checkout; the per-run detail (metadata,
every op with its timing, digest and check outcome, spans) is kept in
``.perfbench/results/``; the op directories are removed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import check

HERE = Path(__file__).resolve().parent

GENERAL_N = 200_000
COMPLETE_H = 12
# A complete cycle draws (and verifies) these 1-2 algorithms once each, in
# this order, so produce_s and consume_s on complete always average the same
# three: the 19601x376, 4095x2048 and 1223x1243 drawings. A traced run also
# draws the other two, c2 and upper1149, so that every layout has a span.
COMPLETE_ALGOS = ("golden-narrow", "c1", "pareto-min")
COMPLETE_TRACED = COMPLETE_ALGOS + ("c2", "upper1149")
TABLE_H = 15
WARM_PER_COLD = 4
SETUP_REPS = 3
# Typical seconds of one cycle on a 2-vCPU host. A run plans
# max(1, round(--seconds / budget)) cycles, at 40 s: 2 general pairs, 1
# complete cycle of three pairs and 2 frontier cycles. Every planned cycle
# runs, however slow the host, so the ops a run measures never depend on
# its speed.
CYCLE_BUDGET_S = {"general": 20.0, "complete": 35.0, "frontier": 20.0}
OP_TIMEOUT_S = 150.0
SPAWN_TIME = "{spawn_time}"


@dataclass
class Op:
    id: str
    kind: str          # draw | verify | table-cold | table-warm
    role: str          # produce | consume
    key: str           # what the op computes; a traced op shares its untraced twin's key
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int | None = None
    sha256: str | None = None
    error: str | None = None


class SetupError(Exception):
    pass


def _median(xs):
    return statistics.median(xs) if xs else None


def _timing(xs: list[float]) -> dict:
    out = {"median": _median(xs), "mean": statistics.fmean(xs) if xs else None, "n": len(xs), "samples": xs}
    if len(xs) >= 100:  # at least 10 samples beyond the 90th percentile
        out["p90"] = float(np.percentile(xs, 90))
    return out


class Bench:
    def __init__(self, root: Path, spec: dict, workload: str, seed: int, seconds: int, trace: bool):
        self.root, self.spec = root, spec
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        (root / ".perfbench").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root / ".perfbench"))
        pythonpath = str(root / "src")
        if os.environ.get("PYTHONPATH"):
            pythonpath += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=pythonpath)
        self.ops: list[Op] = []
        self.spans: list[dict] = []
        self.counters: list[dict] = []
        self.setup_s: list[float] = []
        self.inputs = self.work / "setup0"
        self.trees: dict[str, str] = {}
        # selftest.py sets this to corrupt a draw op's output before its check
        self.tamper = None

    # -- processes -------------------------------------------------------

    def spawn(self, argv: list[str], cwd: Path, stdout: Path, stderr: Path) -> tuple[float, float, float, int]:
        """Run one child interpreter to completion; return wall seconds, CPU
        seconds and peak RSS in MB (from the child's own rusage) and the
        exit code. An argument SPAWN_TIME is replaced by the spawn's
        time.monotonic()."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.monotonic()
            argv = [repr(t0) if a == SPAWN_TIME else a for a in argv]
            p = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=self.env,
                                 stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            watchdog = threading.Timer(OP_TIMEOUT_S, p.kill)
            watchdog.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.monotonic() - t0
        p.returncode = code = os.waitstatus_to_exitcode(status)
        return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, code

    def new_op(self, kind: str, key: str, traced: bool) -> tuple[Op, Path]:
        role = "produce" if kind in ("draw", "table-cold") else "consume"
        op = Op(f"op{len(self.ops):03d}", kind, role, key, traced)
        self.ops.append(op)
        d = self.work / op.id
        d.mkdir()
        return op, d

    def run_op(self, op: Op, d: Path, cli_args: list[str]) -> tuple[str, str]:
        """Run the op through the CLI, traced or not; return its stdout and
        stderr."""
        out, err = d / "stdout", d / "stderr"
        if op.traced:
            spans_out = d / "spans.json"
            argv = [str(HERE / "child.py"), "trace", str(spans_out), op.id, SPAWN_TIME, *cli_args]
        else:
            argv = ["-m", "ternarydraw.cli", *cli_args]
        op.wall_s, op.cpu_s, op.rss_mb, op.exit_code = self.spawn(argv, d, out, err)
        if op.traced and spans_out.exists():
            traced = json.loads(spans_out.read_text())
            self.spans.extend(traced["spans"])
            self.counters.extend({"op": op.id, "name": k, "value": v} for k, v in traced["counters"].items())
        return (out.read_text(errors="replace"), err.read_text(errors="replace"))

    def checked(self, op: Op, fn):
        """Run an output check outside the timed region; a failed check, like
        a non-zero exit, marks the op failed. Any exception a malformed
        output raises inside a check is a failed check."""
        try:
            if op.exit_code != 0:
                raise check.CheckError(f"exit code {op.exit_code}")
            return fn()
        except Exception as e:
            op.error = str(e) if isinstance(e, check.CheckError) else f"{type(e).__name__}: {e}"
            return None

    # -- set-up ----------------------------------------------------------

    def setup(self, tree_seeds: list[int]) -> None:
        """Set the workload up SETUP_REPS times, each in a fresh interpreter
        from spawn to exit; the first set of inputs is used and the others
        must be identical to it."""
        digests = []
        for r in range(SETUP_REPS):
            d = self.work / f"setup{r}"
            d.mkdir()
            size = {"general": GENERAL_N, "complete": COMPLETE_H}.get(self.workload, 0)
            wall, _, _, code = self.spawn([str(HERE / "child.py"), "prepare", self.workload, str(d),
                                           str(size), *map(str, tree_seeds)], d, d / "stdout", d / "stderr")
            if code != 0:
                raise SetupError(f"set-up exited {code}: {(d / 'stderr').read_text()[-2000:]}")
            self.setup_s.append(wall)
            digests.append(_dir_digest(d, skip=("stdout", "stderr")))
        if len(set(digests)) != 1:
            raise SetupError("set-up is not deterministic: repetitions made different inputs")
        if self.workload == "general":
            self.trees = json.loads((self.inputs / "trees.json").read_text())

    # -- ops -------------------------------------------------------------

    def draw_verify(self, tree_spec: str, algo: str, traced: bool, key: str) -> str | None:
        """One draw op and the verify op on its output; returns the digest
        of the drawing."""
        op, d = self.new_op("draw", key, traced)
        cache = d / "cache"
        if algo == "pareto-min":
            shutil.copytree(self.inputs / "cache", cache)
        else:
            cache.mkdir()
        drawing = d / "drawing.json"
        _, err = self.run_op(op, d, ["--cache-dir", str(cache), "draw", tree_spec, "--algo", algo,
                                     "--out", str(drawing)])
        if self.tamper is not None:
            self.tamper(op, drawing)
        one_two = algo != "general"
        if one_two:
            n, kw = (3 ** COMPLETE_H - 1) // 2, {"complete_h": COMPLETE_H}
        else:
            n, kw = GENERAL_N, {"tree_digest": self.trees[tree_spec.rsplit(":", 1)[1]]}

        found = {}

        def check_draw():
            op.sha256 = check.sha256_file(drawing)
            try:
                with open(drawing) as f:
                    obj = json.load(f)
            except ValueError as e:
                raise check.CheckError(f"drawing is not JSON: {e}") from None
            try:
                found["dims"] = check.check_drawing(obj, n=n, algo=algo, **kw)
            except check.GuaranteeError as e:
                found["dims"] = e.dims  # still a valid drawing to verify
                raise
            check.check_draw_summary(err, n, found["dims"])

        self.checked(op, check_draw)
        dims = found.get("dims")

        vop, vd = self.new_op("verify", key, traced)
        out, _ = self.run_op(vop, vd, ["--cache-dir", str(vd / "cache"), "verify", str(drawing)])

        def check_verify():
            if dims is None:
                raise check.CheckError("the drawing it verified is not a valid drawing")
            check.check_verify_report(out, dims, one_two)

        self.checked(vop, check_verify)
        return op.sha256

    def table(self, cache: Path, cold: bool, traced: bool) -> str:
        kind = "table-cold" if cold else "table-warm"
        op, d = self.new_op(kind, kind, traced)
        out, _ = self.run_op(op, d, ["--cache-dir", str(cache), "table", str(TABLE_H)])
        op.sha256 = hashlib.sha256(out.encode()).hexdigest()
        self.checked(op, lambda: check.check_table(out, TABLE_H))
        return op.sha256

    def frontier_cycle(self, traced: bool) -> list[str]:
        cache = self.work / f"cache{len(self.ops):03d}"
        shutil.copytree(self.inputs / "cache", cache)  # the empty dir set-up made
        return [self.table(cache, True, traced)] + [self.table(cache, False, traced)
                                                    for _ in range(WARM_PER_COLD)]

    # -- workloads -------------------------------------------------------

    def plan(self) -> int:
        return max(1, round(self.seconds / CYCLE_BUDGET_S[self.workload]))

    def cycle(self, i: int, tree_seeds: list[int], traced: bool = False,
              algos: tuple[str, ...] = COMPLETE_ALGOS) -> list[str | None]:
        """Run cycle i; return the digests of the outputs it produced."""
        if self.workload == "general":
            spec = f"random:{GENERAL_N}:{tree_seeds[i]}"
            return [self.draw_verify(spec, "general", traced, spec)]
        if self.workload == "complete":
            return [self.draw_verify(f"complete:{COMPLETE_H}", a, traced, a) for a in algos]
        return self.frontier_cycle(traced)

    def run(self) -> None:
        cycles = 1 if self.trace else self.plan()
        rng = random.Random(self.seed)
        tree_seeds = [rng.randrange(1, 2 ** 31) for _ in range(cycles)] if self.workload == "general" else []
        self.setup(tree_seeds)
        if not self.trace:
            for i in range(cycles):
                self.cycle(i, tree_seeds)
            return
        # Traced run: an untraced twin of the first cycle (for complete, of
        # its first pair only, to keep the run short), then the cycle traced
        # (for complete, with all five algorithms).
        twins = self.cycle(0, tree_seeds, algos=COMPLETE_ALGOS[:1])
        self._same_output(twins, self.cycle(0, tree_seeds, traced=True, algos=COMPLETE_TRACED))

    def _same_output(self, untraced: list, traced: list) -> None:
        """A traced op must write what its untraced twin wrote, byte for byte."""
        produced = [o for o in self.ops if o.traced and o.role == "produce"]
        for op, a, b in zip(produced, untraced, traced):
            if a != b:
                op.error = op.error or "traced output differs from the untraced twin's"

    # -- metrics ---------------------------------------------------------

    def walls(self, role: str) -> list[float]:
        """Wall times of the untraced ops in one role."""
        return [o.wall_s for o in self.ops if o.role == role and not o.traced]

    def end_to_end(self) -> dict:
        # complete's ops are three different algorithms, so they are averaged:
        # a median would hide a change in any one of them
        typical = statistics.fmean if self.workload == "complete" else _median
        return {
            "setup_s": _median(self.setup_s),
            "produce_s": typical(self.walls("produce")),
            "consume_s": typical(self.walls("consume")),
            "peak_rss_mb": max(o.rss_mb for o in self.ops),
        }

    def per_layer(self) -> dict:
        totals: dict[tuple[str, str], float] = {}
        for s in self.spans:
            k = (s["op"], s["name"])
            totals[k] = totals.get(k, 0.0) + (s["end"] - s["start"])
        by_name: dict[str, list[float]] = {}
        for (_, name), t in totals.items():
            by_name.setdefault(name, []).append(t)
        counts: dict[str, list[int]] = {}
        for c in self.counters:
            counts.setdefault(c["name"], []).append(c["value"])
        twin_keys = {o.key for o in self.ops if not o.traced}
        values = {}
        for m in self.spec["per_layer"]:
            name = m["name"]
            if name.startswith("trace.overhead."):
                role = name[len("trace.overhead."):-len("_s")]
                traced = [o.wall_s for o in self.ops if o.traced and o.role == role and o.key in twin_keys]
                values[name] = _median(traced) - _median(self.walls(role))
            elif m["unit"] != "s":
                values[name] = _median(counts.get(name, [])) or 0
            else:
                span = name[:-2] if name.endswith("_s") else name.replace("_s.", ".", 1)
                values[name] = _median(by_name.get(span, [])) or 0.0
        return values

    def detail(self, metrics: dict, attempted: int, failed: int) -> dict:
        untraced = [o for o in self.ops if not o.traced]
        by_kind = {"draw_s": "draw", "verify_s": "verify",
                   "table_cold_s": "table-cold", "table_warm_s": "table-warm"}
        named = {m: _timing([o.wall_s for o in untraced if o.kind == k]) for m, k in by_kind.items()}
        return {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds, "trace": self.trace,
            "meta": metadata(self.root),
            "metrics": metrics,
            "samples": {
                "setup_s": _timing(self.setup_s),
                "produce_s": _timing(self.walls("produce")),
                "consume_s": _timing(self.walls("consume")),
                "peak_rss_mb": {"n": len(self.ops), "per_op": [o.rss_mb for o in self.ops]},
                **{m: t for m, t in named.items() if t["n"]},
            },
            "error_rate": failed / attempted,
            "ops": [asdict(o) for o in self.ops],
            "spans": self.spans,
            "counters": self.counters,
        }


def _dir_digest(d: Path, skip: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for p in sorted(d.rglob("*")):
        if p.is_file() and p.name not in skip:
            h.update(str(p.relative_to(d)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def metadata(root: Path) -> dict:
    src = sorted((root / "src").rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for p in src:
        data = p.read_bytes()
        h.update(str(p.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_rev": _git_rev(root),
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _git_rev(root: Path) -> str | None:
    """HEAD's commit, read from .git directly; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("general", "complete", "frontier"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # so that a terminated run still kills its op and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "ternarydraw" / "cli.py").is_file():
        print("error: run from a ternarydraw source checkout (src/ternarydraw not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bench = Bench(root, spec, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        bench.run()
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    attempted = len(bench.ops)
    failed = sum(1 for o in bench.ops if o.error is not None)
    wanted = spec["per_layer"] if bench.trace else spec["end_to_end"]
    values = bench.per_layer() if bench.trace else bench.end_to_end()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    detail = bench.detail(metrics, attempted, failed)
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1))

    for o in bench.ops:
        if o.error:
            print(f"FAILED {o.id} {o.kind} {o.key}: {o.error}")
    print(json.dumps({"detail": str(path.relative_to(root)), "meta": detail["meta"],
                      "error_rate": detail["error_rate"],
                      "samples": {k: {"median": v["median"], "n": v["n"]}
                                  for k, v in detail["samples"].items() if "median" in v}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
