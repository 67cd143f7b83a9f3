"""Command-line entry point: draw, tabulate, fit, verify.

Exit codes: 0 ok, 1 verification-negative, 2 user error (a failed write to
standard output included), 3 internal error (a construction produced a
drawing that failed its own verification, or an unexpected exception).

``run()`` is the console entry point: ``main()``, then the process ends
without the interpreter's teardown. In-process callers use ``main()``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from importlib import import_module
from typing import TYPE_CHECKING, NoReturn, Optional

if TYPE_CHECKING:
    from .geometry import GridDrawing
    from .pareto import ParetoFrontier
    from .tree import TernaryTree

# The package names draw and verify call are read as _cli.<name>, so each is
# bound on first use by module __getattr__ (any name of the package's export
# table): `table` on a warm cache imports neither numpy nor the layouts, and a
# draw loads only its own layout module. A name already set on this module
# (tests and perfbench/child.py set some to wrap them) is the one called.
def __getattr__(name: str):
    package = import_module(__package__)
    if name not in package._EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(package, name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]


class UserError(Exception):
    pass


def _emit(blocks, path: Optional[str] = None) -> None:
    """Write blocks to the file at path, or to standard output and flush it,
    so that a failed write surfaces here, buffered or not: a user error
    (exit 2), not a crash."""
    try:
        if path is not None:
            with open(path, "w") as f:
                f.writelines(blocks)
        else:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
    except OSError as e:
        raise UserError(f"cannot write {path!r}: {e}" if path is not None
                        else f"cannot write standard output: {e}") from e


# What the tree and drawing readers raise on input they reject (exit 2): TreeError
# is a ValueError, MemoryError an input too large to hold. The rest exit 3.
_BAD_INPUT = (ValueError, OSError, RecursionError, MemoryError)


def count(text: str) -> int:
    """A count of the CLI's grammar (<h>, <n>, <seed>, table's h): ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII digits, got {text!r}")
    return int(text)


def _parse_treespec(spec: str) -> TernaryTree:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "complete":
            from .tree import complete_tree
            return complete_tree(count(rest))
        if kind == "random":
            n, _, seed = rest.partition(":")
            return _cli.random_ternary_tree(count(n), count(seed))
        if kind == "file":
            with open(rest) as f:
                return _cli.tree_from_json(json.load(f))
    except _BAD_INPUT as e:
        raise UserError(f"bad tree spec {spec!r}: {e}") from e
    raise UserError(f"unknown tree spec kind {kind!r} "
                    "(expected complete:<h>, random:<n>:<seed>, or file:<path>)")


def _levels(h: int, cache_dir: str) -> list[ParetoFrontier]:
    """Frontiers of T_1..T_h, every cached level read and checked before
    any is used."""
    if not cache_dir:
        raise UserError("--cache-dir must not be empty")
    from . import pareto  # imported where used: verify and the other draws never load it
    try:
        return list(pareto.levels(h, cache_dir))
    except (pareto.CacheError, OSError) as e:
        raise UserError(f"unusable frontier cache {cache_dir!r}: {e}") from e


def _build(tree: TernaryTree, algo: str, cache_dir: str) -> GridDrawing:
    if algo == "general":
        return _cli.draw_general(tree)
    h = tree.complete_height
    if h is None:
        raise UserError(f"algorithm {algo!r} requires a complete ternary tree")
    if algo == "c1":
        drawing = _cli.draw_c1_only(h)
    elif algo == "c2":
        drawing = _cli.draw_c2_only(h)
    elif algo in ("golden-narrow", "golden-wide"):
        drawing = _cli.draw_golden(h)[algo == "golden-wide"]
    elif algo == "upper1149":
        drawing = _cli.draw_upper_1149(h)
    else:  # pareto-min, the last of argparse's choices
        from . import pareto

        fronts = _levels(h, cache_dir)
        drawing = pareto.reconstruct_drawing(fronts, fronts[-1].min_area()[1])
    from .tree import level_order
    drawn = drawing.tree  # complete_tree(h): what every 1-2 construction draws
    if tree == drawn:
        return drawing
    # both are complete of height h: node i of tree by level takes the place of node i of drawn
    return _cli.GridDrawing(tree, drawing.pos[level_order(drawn)[level_order(tree).argsort()]])


def cmd_draw(args) -> int:
    tree = _parse_treespec(args.tree)
    drawing = _build(tree, args.algo, args.cache_dir)
    report = _cli.build_report(drawing)
    ext, n = report.extents, tree.n
    if args.algo == "general":  # at most n columns and 2*n^c - 1 rows
        promised = ext.width <= n and ext.height <= _cli.max_rows(n)
    else:  # every other algorithm draws 1-2 drawings
        promised = report.subtree_separated
    if not (report.planar and report.orthogonal and report.on_grid
            and report.top_visible and promised):
        print("internal error: construction failed verification, refusing to write",
              file=sys.stderr)
        return 3
    # held as blocks, never joined: a formatter that raises writes nothing
    blocks = ([_cli.drawing_to_svg(drawing)] if args.format == "svg"
              else list(_cli.drawing_json_blocks(drawing)))
    _emit([*blocks, "\n"], args.out)
    print(f"nodes={n} width={ext.width} height={ext.height} area={ext.area}",
          file=sys.stderr)
    return 0


def cmd_table(args) -> int:
    if not 1 <= args.h_max <= 20:
        raise UserError("h must be between 1 and 20")
    fronts = _levels(args.h_max, args.cache_dir)
    lines = [f"{'h':>3} {'n':>12} {'min area':>14}\n"]
    for fr in fronts:
        area, _ = fr.min_area()
        n = (3 ** fr.h - 1) // 2
        lines.append(f"{fr.h:>3} {n:>12} {area:>14}\n")
    _emit(lines)
    return 0


def _load_table(path: str) -> list[tuple[float, float]]:
    points = []
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                toks = line.split()
                if not line or line.startswith("#") or toks == ["h", "n", "min", "area"]:  # table's header
                    continue
                if len(toks) < 2 or not line.isascii() or "_" in line:  # ASCII numbers only
                    raise ValueError(f"bad row: {line!r}")
                points.append((float(toks[-2]), float(toks[-1])))
    except (OSError, ValueError) as e:
        raise UserError(f"malformed table {path!r}: {e}") from e
    return points


def cmd_fit(args) -> int:
    from . import pareto

    if args.builtin == bool(args.table):
        raise UserError("pass a table path or --builtin")
    if args.builtin:
        points = [(float(n), float(area)) for _, n, area in pareto.REFERENCE_AREA_TABLE]
    else:
        points = _load_table(args.table)
    try:
        fit = pareto.fit_power_law(points)
    except ValueError as e:
        raise UserError(str(e)) from e
    _emit([f"a={fit.a:.6g} b={fit.b:.6g} c={fit.c:.6g} sse={fit.sse:.6g}\n"])
    return 0


def _read_drawing(path: str) -> GridDrawing:
    """The file's bytes are read once. draw's document, in any whitespace
    layout, is parsed by geometry.read_drawing_json; any other goes through
    json, decoded from those bytes as ``open(path)`` would decode the file."""
    try:
        with open(path, "rb") as f:
            data = f.read()
        return (_cli.read_drawing_json(data)
                or _cli.drawing_from_json(json.load(io.TextIOWrapper(io.BytesIO(data)))))
    except _BAD_INPUT as e:
        raise UserError(f"cannot read drawing {path!r}: {e}") from e


def cmd_verify(args) -> int:
    report = _cli.build_report(_read_drawing(args.drawing))
    _emit([_cli.report_to_json(report), "\n"])
    return 0 if (report.planar and report.orthogonal and report.on_grid) else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ternarydraw",
                                 description="layout and verification of planar "
                                             "orthogonal ternary-tree drawings")
    ap.add_argument("--cache-dir", default="./cache",
                    help="frontier cache directory (default ./cache)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("draw", help="construct and emit a drawing")
    p.add_argument("tree", help="complete:<h> | random:<n>:<seed> | file:<path>, counts in ASCII digits")
    p.add_argument("--algo", default="general",
                   choices=["general", "c1", "c2", "golden-narrow", "golden-wide",
                            "upper1149", "pareto-min"])
    p.add_argument("--format", default="json", choices=["json", "svg"])
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_draw)

    p = sub.add_parser("table", help="minimum 1-2 drawing areas per height")
    p.add_argument("h_max", type=count, help="largest height, ASCII digits, 1 to 20")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("fit", help="fit a*n^b + c to an (n, area) table")
    p.add_argument("table", nargs="?", default=None)
    p.add_argument("--builtin", action="store_true",
                   help="use the embedded 20-row area table")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify", help="verify a drawing JSON file")
    p.add_argument("drawing")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    # OpenBLAS reads this once, as numpy loads: no command does BLAS work
    # worth the start-up of its thread pool. A value set by the user wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UserError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # exit 1 means verification-negative, never a crash
        message = " ".join(f"{type(e).__name__}: {e}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return 3


def run() -> NoReturn:
    """Console entry point: ``main()``, then stdout and stderr flushed and
    the process ended by ``os._exit``, without the interpreter's teardown
    (so no ``atexit`` handler runs). argparse's SystemExit (``--help``, bad
    arguments) passes through."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:  # main() flushes stdout and reported its failed write
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
