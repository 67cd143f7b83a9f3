"""Layout algorithms and verification tools for planar straight-line
orthogonal drawings of ternary trees on the integer grid."""

from .geometry import (Extents, GridDrawing, drawing_from_json,
                       drawing_json, drawing_to_json, edge_segments, extents,
                       rotate)
from .layout_complete import (construction1, construction2, draw_c1_only,
                              draw_c2_only, draw_golden, draw_upper_1149)
from .layout_general import (DecompositionStats, LayoutParams,
                             RailDecomposition, all_decompositions, decompose,
                             decomposition_stats, draw_general)
from .pareto import (REFERENCE_AREA_TABLE, ParetoFrontier, PowerLawFit,
                     exhaustive_frontier, fit_power_law, frontier, min_area,
                     reconstruct_drawing)
from .render import RenderSpec, drawing_to_svg
from .tree import (HeavyOrder, TernaryTree, TreeError, complete_height,
                   complete_tree, heavy_order, heavy_path, is_complete,
                   random_ternary_tree, subtree_sizes, tree_from_json,
                   tree_to_json)
from .verify import (VerificationError, VerificationReport, build_report,
                     check_on_grid, check_orthogonal, check_orthogonal_grid,
                     check_planar, check_subtree_separation,
                     check_top_visibility, fib_lower_bound, leg_arm_lengths,
                     naive_check_planar, report_to_json)

__version__ = "0.1.0"
