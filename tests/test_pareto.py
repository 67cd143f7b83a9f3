import hashlib
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ternarydraw import pareto
from ternarydraw.geometry import extents
from ternarydraw.pareto import (_ARM_BLOCK, _EMPTY, REFERENCE_AREA_TABLE, ParetoFrontier,
                                _next_frontier, fit_power_law, frontier, levels,
                                load_frontier, min_area, reconstruct_drawing,
                                save_frontier)
from ternarydraw.verify import (check_planar, check_subtree_separation,
                                check_top_visibility)

from frontier_oracle import exhaustive_dimension_tuples, exhaustive_frontier


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


@pytest.mark.parametrize("h", [0, 5])
def test_exhaustive_tuples_reject_heights_out_of_range(h):
    with pytest.raises(ValueError, match="h must be >= 1|limited to h <= 4"):
        exhaustive_dimension_tuples(h)


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


def unpruned_next_frontier(prev: ParetoFrontier) -> ParetoFrontier:
    """The DP step before the tile test: the same three O(k) groups, then
    every construction-1 pair with e_i >= lam_j, in blocks of _ARM_BLOCK
    arms by all their centers."""
    k = len(prev.pairs)
    span = 2 * k * k  # keys per value of H
    w = np.array([p[0] for p in prev.pairs], dtype=np.int64)
    e = np.array([p[1] for p in prev.pairs], dtype=np.int64)
    lam = (w - 1) // 2
    best = np.full(int(lam[-1] + e[0]) + 1, _EMPTY, dtype=np.int64)

    def offer(slot, H, arm, center, constr):
        key = H * span + (arm * (2 * k) + (constr - 1) + center * 2)
        np.minimum.at(best, slot.ravel(), key.ravel())

    center = np.searchsorted(lam, e, side="right") - 1
    arm = np.flatnonzero(center >= 0)
    center = center[arm]
    offer(e[arm], w[arm] + e[center], arm, center, 2)
    x = np.arange(k)
    y = np.searchsorted(-e, -lam, side="left")
    x, y = x[y < k], y[y < k]
    offer(lam[x], w[y] + e[x], y, x, 2)
    offer(lam[y] + e[x], w[x], x, y, 1)
    count = np.searchsorted(-e, -lam, side="right")
    for j0 in range(0, k, _ARM_BLOCK):
        m = int(count[j0])
        if m == 0:
            break
        arm = np.arange(j0, min(j0 + _ARM_BLOCK, k))[:, None]
        center = np.arange(m)[None, :]
        H = np.maximum(lam[arm], e[center]) + (lam[arm] + 1)
        offer(lam[center] + e[arm], H, arm, center, 1)

    slot = np.flatnonzero(best != _EMPTY)
    key = best[slot]
    H = key // span
    keep = np.empty(H.size, dtype=bool)
    keep[0] = True
    keep[1:] = H[1:] < np.minimum.accumulate(H)[:-1]
    slot, key, H = slot[keep], key[keep] % span, H[keep]
    pairs = tuple(zip((2 * slot + 1).tolist(), H.tolist()))
    recipes = tuple(zip((key // (2 * k)).tolist(), (key // 2 % k).tolist(),
                        (key % 2 + 1).tolist()))
    return ParetoFrontier(prev.h + 1, pairs, recipes)


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


@pytest.mark.parametrize("block", [1, 2, 3])
@settings(max_examples=400, deadline=None)
@given(prev=staircases())
def test_next_frontier_matches_brute_force_with_small_tiles(block, prev):
    # k <= 10 here, so with 64 x 64 tiles the tile test never skips a tile
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pareto, "_ARM_BLOCK", block)
        assert _next_frontier(prev) == brute_next_frontier(prev)


def test_next_frontier_rejects_keys_beyond_int64():
    # H reaches w_top + e_top = 2^62 + 2, and 2k^2 = 8 keys per value of H
    prev = ParetoFrontier(3, ((1, 2 ** 61), (2 ** 61 + 1, 1)))
    with pytest.raises(ValueError, match="int64"):
        _next_frontier(prev)


@pytest.fixture(scope="module")
def levels_to_18():
    return list(levels(18))


@pytest.fixture(scope="module")
def levels_19_20(levels_to_18):
    fr19 = _next_frontier(levels_to_18[-1])
    return [fr19, _next_frontier(fr19)]


def level_sha256(fr: ParetoFrontier) -> str:
    return hashlib.sha256(repr((fr.pairs, fr.recipes)).encode()).hexdigest()


# sha256 of repr((pairs, recipes)): levels 13-15 recorded from the DP that
# Pareto-filtered all 2k^2 candidates with one lexsort, levels 16-20 from
# the DP without the tile test (unpruned_next_frontier).
LEVEL_SHA256 = {
    13: "6bc2219ccafcfa25e0c588448865502f3caf057981b42226c758dd054c319473",
    14: "fb8b0925985b0524002c9836f745cd979cc06809d2576cef685a776f3627023c",
    15: "e0e9ff5de740c0804572595b8be270a5bcc035daa7baec72a0fd52df6461465a",
    16: "cb2990d485e246d0a264fce6abcf922844f612e93effe49039f94add37f7dff6",
    17: "4dc25b6eeb215482efd5dfc9965fc64d77d58cbc29798eebc84e645da126a7d4",
    18: "58edbdede31c574d84d548b5f9e1988498ab2a867cca844ed2c2927d0b87b411",
    19: "a463eac3c654393f1284219a9c6017aec6cc37b91aa60947dc748fe5bb6820e8",
    20: "f0d4fe81d90d8dafb06ca976248293e34dd0bfe0d782bc1342b9822584fe8fb9",
}


def test_levels_13_to_15_match_recorded_digests(levels_to_18):
    for fr in levels_to_18[12:15]:
        assert level_sha256(fr) == LEVEL_SHA256[fr.h]


def test_levels_16_to_20_match_recorded_digests(levels_to_18, levels_19_20):
    for fr in levels_to_18[15:] + levels_19_20:
        assert level_sha256(fr) == LEVEL_SHA256[fr.h]


def test_next_frontier_matches_unpruned_step_up_to_h18(levels_to_18):
    for fr, nxt in zip(levels_to_18, levels_to_18[1:]):
        assert unpruned_next_frontier(fr) == nxt


class CountingMinimum:
    """Stands in for numpy.minimum: forwards calls and ``accumulate``, and
    counts the keys that ``at`` offers to the DP's dense array."""

    def __init__(self, ufunc):
        self.ufunc, self.keys = ufunc, 0

    def __call__(self, *args, **kwargs):
        return self.ufunc(*args, **kwargs)

    def accumulate(self, *args, **kwargs):
        return self.ufunc.accumulate(*args, **kwargs)

    def at(self, a, indices, values):
        self.keys += len(indices)
        return self.ufunc.at(a, indices, values)


# Keys offered per level, recorded from the tile-pruned _next_frontier with
# tiles of 64 (the default), 2 and 1 arms by as many centers. The output
# alone cannot show a weaker tile test that skips fewer tiles; these bounds
# do. A cap of H + 2 skips the same 64 x 64 tiles at every level up to 20,
# so the small tiles are the ones that catch it.
OFFERED_KEYS = {
    64: {15: 452_502, 16: 929_228, 17: 1_942_676, 18: 4_348_829},
    2: {12: 8_320, 13: 21_691, 14: 56_602, 15: 150_568},
    1: {12: 8_004, 13: 21_127, 14: 55_723, 15: 148_861},
}


@pytest.mark.parametrize("block", OFFERED_KEYS)
def test_next_frontier_offers_at_most_the_recorded_keys(levels_to_18, monkeypatch, block):
    monkeypatch.setattr(pareto, "_ARM_BLOCK", block)
    for h, bound in OFFERED_KEYS[block].items():
        counter = CountingMinimum(np.minimum)
        with monkeypatch.context() as m:
            m.setattr(np, "minimum", counter)
            assert _next_frontier(levels_to_18[h - 2]) == levels_to_18[h - 1]
        assert 0 < counter.keys <= bound, h


def test_min_area_rows_13_to_18(levels_to_18):
    got = [(fr.h, fr.min_area()[0]) for fr in levels_to_18[12:]]
    assert got == [(h, area) for h, _, area in REFERENCE_AREA_TABLE[12:18]]


def test_min_area_rows_19_20(levels_19_20):
    got = [(fr.h, fr.min_area()[0]) for fr in levels_19_20]
    assert got == [(h, area) for h, _, area in REFERENCE_AREA_TABLE[18:20]]


def test_min_area_against_table():
    for h, n, area in REFERENCE_AREA_TABLE[:12]:
        got, pair = min_area(h)
        assert got == area
        assert pair[0] * pair[1] == area


def test_reconstruction_realizes_frontier_pairs():
    for h in range(1, 8):
        fronts = list(levels(h))
        for pair in fronts[-1].pairs:
            d = reconstruct_drawing(fronts, pair)
            e = extents(d)
            assert (e.width, e.height) == pair
            assert check_planar(d)
            assert check_top_visibility(d)
            assert check_subtree_separation(d)


def test_reconstruction_rejects_off_frontier_pair():
    with pytest.raises(ValueError):
        reconstruct_drawing(list(levels(3)), (6, 6))


def test_reconstruction_rejects_recipes_that_build_another_pair():
    # T_3's two pairs with their recipes swapped: each recipe builds the other pair
    fronts = list(levels(3))
    top = fronts[-1]
    assert top.pairs == ((5, 5), (7, 4))
    fronts[-1] = ParetoFrontier(3, top.pairs, top.recipes[::-1])
    with pytest.raises(ValueError, match="build a 7x4 drawing, not the pair"):
        reconstruct_drawing(fronts, (5, 5))


def test_reconstruction_saves_the_levels_it_computes(tmp_path):
    # the walk that feeds a reconstruction saves each level it computes, and
    # the levels read back rebuild the same drawing
    _, pair = min_area(5)
    d = reconstruct_drawing(list(levels(5, str(tmp_path))), pair)
    assert (extents(d).width, extents(d).height) == pair
    assert ([load_frontier(str(tmp_path), h, frontier(h - 1)) for h in range(2, 6)]
            == [frontier(h) for h in range(2, 6)])
    assert reconstruct_drawing(list(levels(5, str(tmp_path))), pair) == d


def test_cache_roundtrip(tmp_path):
    fr = frontier(6)
    save_frontier(fr, str(tmp_path))
    loaded = load_frontier(str(tmp_path), 6, frontier(5))
    assert loaded == fr
    # a warm cache reproduces the same frontier and area
    assert min_area(8, cache_dir=str(tmp_path)) == min_area(8)
    assert load_frontier(str(tmp_path), 8, frontier(7)) is not None
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
    assert load_frontier(str(tmp_path), 6, frontier(5)) is None


def test_load_frontier_missing(tmp_path):
    assert load_frontier(str(tmp_path), 3, frontier(2)) is None


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


@pytest.mark.parametrize("row", [(2.0, math.nan), (2.0, math.inf), (math.nan, 2.0),
                                 (-math.inf, 2.0), (0.0, 2.0), (-1.0, 2.0)])
def test_fit_rejects_non_finite_values_and_non_positive_n(row):
    points = [row, (3.0, 6.0), (4.0, 8.0), (5.0, 10.0)]
    with pytest.raises(ValueError, match="finite|positive"):
        fit_power_law(points)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.55, 1.9), st.floats(0.5, 20), st.floats(-50, 50))
def test_fit_property_recovers_parameters(b, a, c):
    points = [(float(n), a * n ** b + c) for n in range(2, 40)]
    fit = fit_power_law(points)
    assert fit.sse <= 1e-4 * max(1.0, max(y for _, y in points)) ** 2
