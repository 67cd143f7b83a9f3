import math

import pytest
from hypothesis import given, settings, strategies as st

from ternarydraw.geometry import extents
from ternarydraw.pareto import (REFERENCE_AREA_TABLE, exhaustive_dimension_tuples,
                                exhaustive_frontier, fit_power_law, frontier,
                                load_frontier, min_area, reconstruct_drawing,
                                save_frontier)
from ternarydraw.verify import (check_planar, check_subtree_separation,
                                check_top_visibility)


def test_frontier_base():
    assert frontier(1).pairs == ((1, 1),)


def test_frontier_small_values():
    assert frontier(3).pairs == ((5, 5), (7, 4))
    assert frontier(4).pairs == ((9, 11), (11, 9), (15, 8), (17, 7))


def test_frontier_rejects_bad_height():
    with pytest.raises(ValueError):
        frontier(0)


def test_frontier_matches_exhaustive_oracle():
    for h in range(1, 5):
        assert set(frontier(h).pairs) == set(exhaustive_frontier(h).pairs)


def test_exhaustive_tuples_h2():
    # the unique 1-2 drawing of T_2 under both constructions
    assert exhaustive_dimension_tuples(2) == {(3, 2, 1, 1)}


def test_frontier_is_pareto_and_odd():
    for h in range(1, 10):
        pairs = frontier(h).pairs
        assert len(pairs) <= (3 ** h - 1) // 2
        for (w1, e1), (w2, e2) in zip(pairs, pairs[1:]):
            assert w1 < w2 and e1 > e2
        assert all(w % 2 == 1 for w, _ in pairs)


def test_min_area_against_table():
    for h, n, area in REFERENCE_AREA_TABLE[:12]:
        got, pair = min_area(h)
        assert got == area
        assert pair[0] * pair[1] == area


def test_reconstruction_realizes_frontier_pairs():
    for h in range(1, 8):
        fr = frontier(h)
        for pair in fr.pairs:
            d = reconstruct_drawing(h, pair)
            e = extents(d)
            assert (e.width, e.height) == pair
            assert check_planar(d)
            assert check_top_visibility(d)
            assert check_subtree_separation(d)


def test_reconstruction_rejects_off_frontier_pair():
    with pytest.raises(ValueError):
        reconstruct_drawing(3, (6, 6))


def test_reconstruction_saves_the_levels_it_computes(tmp_path):
    _, pair = min_area(5)
    d = reconstruct_drawing(5, pair, str(tmp_path))
    assert (extents(d).width, extents(d).height) == pair
    assert [load_frontier(str(tmp_path), h) for h in range(2, 6)] == [frontier(h) for h in range(2, 6)]
    assert reconstruct_drawing(5, pair, str(tmp_path)) == d


def test_cache_roundtrip(tmp_path):
    fr = frontier(6)
    save_frontier(fr, str(tmp_path))
    loaded = load_frontier(str(tmp_path), 6)
    assert loaded == fr
    # a warm cache reproduces the same frontier and area
    assert min_area(8, cache_dir=str(tmp_path)) == min_area(8)
    assert load_frontier(str(tmp_path), 8) is not None
    assert min_area(8, cache_dir=str(tmp_path)) == min_area(8)


def test_load_frontier_missing(tmp_path):
    assert load_frontier(str(tmp_path), 3) is None


def test_fit_builtin_beats_reference():
    points = [(float(n), float(area)) for _, n, area in REFERENCE_AREA_TABLE]
    fit = fit_power_law(points)
    ref_sse = sum((3.3262 * n ** 1.047 - 181209.1337 - y) ** 2 for n, y in points)
    assert fit.sse <= ref_sse
    assert math.isclose(
        fit.sse,
        sum((fit.a * n ** fit.b + fit.c - y) ** 2 for n, y in points),
        rel_tol=1e-9,
    )


def test_fit_recovers_linear():
    points = [(float(n), 2.0 * n) for n in range(1, 30)]
    fit = fit_power_law(points)
    assert abs(fit.b - 1.0) < 1e-4


def test_fit_recovers_synthetic_exponent():
    points = [(float(n), 5.0 * n ** 0.7 + 3.0) for n in range(1, 40)]
    fit = fit_power_law(points)
    assert abs(fit.b - 0.7) < 1e-3
    assert abs(fit.a - 5.0) < 1e-2


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0), (1.0, 2.0), (3.0, 3.0)])


@settings(max_examples=25, deadline=None)
@given(st.floats(0.55, 1.9), st.floats(0.5, 20), st.floats(-50, 50))
def test_fit_property_recovers_parameters(b, a, c):
    points = [(float(n), a * n ** b + c) for n in range(2, 40)]
    fit = fit_power_law(points)
    assert fit.sse <= 1e-4 * max(1.0, max(y for _, y in points)) ** 2
