"""Layout algorithms and verification tools for planar straight-line
orthogonal drawings of ternary trees on the integer grid.

The names below are re-exported from their submodules, each imported on the
first use of one of its names (PEP 562): ``import ternarydraw`` loads no
submodule, so a command that needs no numpy, such as ``table`` on a warm
cache, never imports it."""

from importlib import import_module

_EXPORTS = {
    **dict.fromkeys(("Extents", "GridDrawing", "drawing_from_json", "drawing_json",
                     "drawing_json_blocks", "drawing_to_json", "edge_segments", "extents",
                     "read_canonical"), "geometry"),
    **dict.fromkeys(("draw_c1_only", "draw_c2_only", "draw_golden", "draw_upper_1149"),
                    "layout_complete"),
    **dict.fromkeys(("FrameStats", "LayoutParams", "draw_general", "frame_stats"),
                    "layout_general"),
    **dict.fromkeys(("REFERENCE_AREA_TABLE", "ParetoFrontier", "PowerLawFit",
                     "exhaustive_frontier", "fit_power_law", "frontier", "min_area",
                     "reconstruct_drawing"), "pareto"),
    "drawing_to_svg": "render",
    **dict.fromkeys(("TernaryTree", "TreeError", "complete_tree", "random_ternary_tree",
                     "tree_from_json", "tree_to_json"), "tree"),
    **dict.fromkeys(("VerificationError", "VerificationReport", "build_report",
                     "check_on_grid", "check_orthogonal", "check_orthogonal_grid",
                     "check_planar", "check_subtree_separation", "check_top_visibility",
                     "fib_lower_bound", "leg_arm_lengths", "naive_check_planar",
                     "report_to_json"), "verify"),
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:  # a submodule not imported yet is found by the import system
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
