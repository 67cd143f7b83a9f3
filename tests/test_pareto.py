import hashlib
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ternarydraw.geometry import extents
from ternarydraw.pareto import (_EMPTY, REFERENCE_AREA_TABLE, ParetoFrontier,
                                _next_frontier, exhaustive_dimension_tuples,
                                exhaustive_frontier, fit_power_law, frontier,
                                levels, load_frontier, min_area,
                                reconstruct_drawing, save_frontier)
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


def brute_next_frontier(prev: ParetoFrontier) -> ParetoFrontier:
    """The DP step by its definition: every (center, arm) pair under both
    constructions, 2k^2 candidates, then one lexsort Pareto filter that
    resolves ties toward the smallest (arm, center, construction)."""
    w = np.array([p[0] for p in prev.pairs], dtype=np.int64)
    e = np.array([p[1] for p in prev.pairs], dtype=np.int64)
    lam = (w - 1) // 2
    center, arm = (a.ravel() for a in np.indices((w.size, w.size)))
    W = np.concatenate((w[center] + 2 * e[arm], 2 * np.maximum(lam[center], e[arm]) + 1))
    H = np.concatenate((lam[arm] + np.maximum(lam[arm], e[center]) + 1, w[arm] + e[center]))
    arm, center = np.tile(arm, 2), np.tile(center, 2)
    constr = np.repeat([1, 2], w.size ** 2)
    order = np.lexsort((constr, center, arm, H, W))
    W, H, arm, center, constr = (a[order] for a in (W, H, arm, center, constr))
    keep = np.empty(H.size, dtype=bool)
    keep[0] = True
    keep[1:] = H[1:] < np.minimum.accumulate(H)[:-1]
    return ParetoFrontier(prev.h + 1, tuple(zip(W[keep].tolist(), H[keep].tolist())),
                          tuple(zip(arm[keep].tolist(), center[keep].tolist(),
                                    constr[keep].tolist())))


def test_next_frontier_matches_brute_force_up_to_h12():
    for fr in levels(11):
        assert _next_frontier(fr) == brute_next_frontier(fr)


@st.composite
def staircases(draw):
    """Frontier-shaped inputs: odd widths increasing, heights decreasing, all
    from small ranges so that equal W and H are common, and heights partly
    drawn from the lam = (w - 1) / 2 values so that e_j == lam_i occurs."""
    k = draw(st.integers(1, 10))
    lam = sorted(draw(st.sets(st.integers(0, 12), min_size=k, max_size=k)))
    e = draw(st.sets(st.one_of(st.sampled_from(lam), st.integers(1, 14)),
                     min_size=k, max_size=k))
    return ParetoFrontier(2, tuple((2 * x + 1, y) for x, y in zip(lam, sorted(e, reverse=True))))


@settings(max_examples=400, deadline=None)
@given(staircases())
@example(ParetoFrontier(2, ((1, 3), (3, 2), (5, 1))))
@example(ParetoFrontier(2, ((3, 4), (5, 2), (9, 1))))
def test_next_frontier_matches_brute_force_on_staircases(prev):
    assert _next_frontier(prev) == brute_next_frontier(prev)


def test_next_frontier_rejects_keys_beyond_int64():
    # H reaches w_top + e_top = 2^62 + 2, and 2k^2 = 8 keys per value of H
    prev = ParetoFrontier(3, ((1, 2 ** 61), (2 ** 61 + 1, 1)))
    with pytest.raises(ValueError, match="int64"):
        _next_frontier(prev)


@pytest.fixture(scope="module")
def levels_to_18():
    return list(levels(18))


# sha256 of repr((pairs, recipes)) for levels 13-15, recorded from the DP
# that Pareto-filtered all 2k^2 candidates with one lexsort.
LEVEL_SHA256 = {
    13: "6bc2219ccafcfa25e0c588448865502f3caf057981b42226c758dd054c319473",
    14: "fb8b0925985b0524002c9836f745cd979cc06809d2576cef685a776f3627023c",
    15: "e0e9ff5de740c0804572595b8be270a5bcc035daa7baec72a0fd52df6461465a",
}


def test_levels_13_to_15_match_recorded_digests(levels_to_18):
    for fr in levels_to_18[12:15]:
        digest = hashlib.sha256(repr((fr.pairs, fr.recipes)).encode()).hexdigest()
        assert digest == LEVEL_SHA256[fr.h]


def test_min_area_rows_13_to_18(levels_to_18):
    got = [(fr.h, fr.min_area()[0]) for fr in levels_to_18[12:]]
    assert got == [(h, area) for h, _, area in REFERENCE_AREA_TABLE[12:18]]


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


def test_failed_cache_write_leaves_no_level_file(tmp_path):
    # A file-size limit makes the write fail partway through, as a full disk
    # would; neither the level file nor a temporary file may be left behind.
    script = textwrap.dedent(f"""
        import resource, signal
        from ternarydraw.pareto import frontier, save_frontier
        fr = frontier(6)
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (64, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
        try:
            save_frontier(fr, {str(tmp_path)!r})
        except OSError:
            raise SystemExit(0)
        raise SystemExit("the write did not fail")
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert os.listdir(tmp_path) == []
    assert load_frontier(str(tmp_path), 6) is None


def test_load_frontier_missing(tmp_path):
    assert load_frontier(str(tmp_path), 3) is None


def test_every_saved_level_passes_the_read_checks(tmp_path):
    computed = list(levels(13, str(tmp_path)))
    assert list(levels(13, str(tmp_path))) == computed


def test_empty_key_is_the_int64_maximum():
    assert _EMPTY == np.iinfo(np.int64).max


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
