import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from multipack import (
    BudgetError,
    Constellation,
    FiniteCode,
    PointList,
    achieved_rate,
    avg_sq_radius,
    density_report,
    enumerate_window,
    expurgate,
    find_bad_lists,
    lambda_n_threshold,
    min_avg_subset,
    sample_code,
    tile,
    verify_packing,
)
from multipack import construction
from multipack.bounds import BoundQuery, ExponentQuery, lb_ppp, log_threshold_size
from oracles import (
    box_translates,
    cell_samples,
    cross_tile_min_sq_band,
    cross_tile_min_sq_gram,
    cross_tile_min_sq_lattice,
    expurgate_counter,
    offset_box,
    offset_reach,
    ring_covered,
    ring_offsets,
    same_tile_min_per_tile,
    scan_subsets,
    tree_covered,
    walk_step_rows,
    window_bad_lists,
    window_rows,
)


def tile_offsets(P, w, r, center, one_sign):
    """The offset walk of one point at the origin, in a constellation of
    period P: the tiles k with sum_i (|k_i*P - center_i| - w)_+^2 <= r^2,
    in lexicographic order."""
    return np.rint(construction._near_points(np.zeros((1, len(center))), P, r, w, center, one_sign)[1] / P).astype(np.intp)


def code_1d(points, N, K=10.0, L=2):
    pts = np.asarray(points, dtype=float).reshape(-1, 1)
    return FiniteCode(points=pts, n=1, L=L, N=N, K=K, seed=None)


class TestFindBadLists:
    def test_single_close_pair(self):
        # pair (0, 1): avg_sq = (0.1/2)^2 = 0.0025 <= 0.01; the far point is clean
        code = code_1d([0.0, 0.1, 5.0], N=0.01)
        assert find_bad_lists(code) == [(0, 1)]

    def test_chain_shares_middle_point(self):
        # both adjacent pairs violate, the outer pair does not
        code = code_1d([0.0, 0.05, 0.1], N=0.0009)
        assert find_bad_lists(code) == [(0, 1), (1, 2)]

    def test_lexicographic_order(self):
        code = code_1d([0.0, 0.01, 0.02, 0.03], N=0.001)
        bad = find_bad_lists(code)
        assert bad == sorted(bad)
        assert (0, 1) in bad and (2, 3) in bad

    def test_triples(self):
        pts = np.array([[0.0, 0.0], [0.01, 0.0], [0.0, 0.01], [3.0, 3.0]])
        code = FiniteCode(points=pts, n=2, L=3, N=0.001, K=5.0, seed=None)
        bad = find_bad_lists(code)
        assert bad == [(0, 1, 2)]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(15)
        for L in (2, 3):
            pts = rng.uniform(-1, 1, size=(12, 2))
            N = 0.03
            code = FiniteCode(points=pts, n=2, L=L, N=N, K=1.0, seed=None)
            want = []
            for idx in itertools.combinations(range(12), L):
                if avg_sq_radius(PointList(pts[list(idx)]), "pairwise") <= 2 * N:
                    want.append(idx)
            assert find_bad_lists(code) == want

    def test_empty_when_spread(self):
        code = code_1d([0.0, 1.0, 2.0, 3.0], N=0.01)
        assert find_bad_lists(code) == []


def oracle_codes(L, rng):
    """Random, clustered and duplicated codes, plus M = L - 1 and M = L."""
    for M in (L - 1, L, L + 1, 10, 13):
        n = int(rng.integers(1, 4))
        yield FiniteCode(rng.uniform(-1, 1, size=(M, n)), n, L, rng.uniform(0.005, 0.1), 1.0, None)
    for _ in range(3):
        n = int(rng.integers(1, 4))
        centers = rng.uniform(-0.9, 0.9, size=(3, n))
        pts = np.vstack([c + rng.normal(scale=0.03, size=(4, n)) for c in centers])
        pts = np.clip(np.vstack([pts, rng.uniform(-1, 1, size=(2, n))]), -1, 1)
        yield FiniteCode(pts[rng.permutation(len(pts))], n, L, 0.002, 1.0, None)
    n = 2
    pts = rng.uniform(-1, 1, size=(6, n))
    pts = np.vstack([pts, pts[[0, 0, 3, 5]], pts[[0]]])
    yield FiniteCode(pts[rng.permutation(len(pts))], n, L, 0.01, 1.0, None)


class TestListEngineOracle:
    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_find_bad_lists_matches_scan(self, L):
        rng = np.random.default_rng(100 + L)
        for code in oracle_codes(L, rng):
            want, _ = scan_subsets(code.points, L, code.n * code.N)
            assert find_bad_lists(code) == want

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_min_avg_subset_matches_scan(self, L):
        rng = np.random.default_rng(200 + L)
        for code in oracle_codes(L, rng):
            value, subset = min_avg_subset(code)
            _, (want_value, want_subset) = scan_subsets(code.points, L, -math.inf)
            assert subset == want_subset
            assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)

    def test_candidate_budget(self, monkeypatch):
        code = code_1d(np.linspace(0.0, 0.01, 12), N=1.0, L=3)
        monkeypatch.setattr(construction, "SUBSET_BUDGET", 50)
        with pytest.raises(BudgetError, match="candidate cliques"):
            find_bad_lists(code)

    @pytest.mark.parametrize("L", [2, 3])
    def test_candidate_budget_counts_the_pairs(self, monkeypatch, L):
        # all C(12, 2) = 66 pairs are close: the pair count alone is held to
        # the budget, at L = 2 too, where no clique grows past a pair
        code = code_1d(np.linspace(0.0, 0.01, 12), N=1.0, L=L)
        monkeypatch.setattr(construction, "SUBSET_BUDGET", 65)
        with pytest.raises(BudgetError, match="^66 candidate cliques of 12 points exceed"):
            find_bad_lists(code)
        monkeypatch.setattr(construction, "SUBSET_BUDGET", 66)
        if L == 2:
            assert len(find_bad_lists(code)) == 66


class TestMinAvgSubset:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(25)
        pts = rng.uniform(-1, 1, size=(10, 3))
        code = FiniteCode(points=pts, n=3, L=3, N=0.001, K=1.0, seed=None)
        value, subset = min_avg_subset(code)
        best = min(
            (avg_sq_radius(PointList(pts[list(idx)]), "centroid"), idx)
            for idx in itertools.combinations(range(10), 3)
        )
        assert value == pytest.approx(best[0], rel=1e-10)
        assert subset == best[1]


class TestExpurgate:
    def test_greedy_removes_shared_point(self):
        code = code_1d([0.0, 0.05, 0.1], N=0.0009)
        clean = expurgate(code, find_bad_lists(code))
        # index 1 covers both violating pairs, so one removal suffices
        assert clean.expurgated_count == 1
        assert clean.M == 2
        assert clean.points[:, 0].tolist() == [0.0, 0.1]
        assert find_bad_lists(clean) == []

    def test_tie_breaks_to_lowest_index(self):
        code = code_1d([0.0, 0.05, 1.0, 1.05], N=0.0009)
        clean = expurgate(code, find_bad_lists(code))
        assert clean.expurgated_count == 2
        assert clean.points[:, 0].tolist() == [0.05, 1.05]

    def test_no_bad_lists_is_identity(self):
        code = code_1d([0.0, 1.0], N=0.001)
        clean = expurgate(code, [])
        assert clean.M == 2 and clean.expurgated_count == 0

    def test_random_codes_come_out_clean(self):
        for seed in range(8):
            code = sample_code(n=3, L=2, N=0.02, K=1.0, rate_margin=-0.05, seed=seed)
            clean = expurgate(code, find_bad_lists(code))
            assert find_bad_lists(clean) == []

    @staticmethod
    def assert_matches_counter_greedy(code, bad):
        clean, ref = expurgate(code, bad), expurgate_counter(code, bad)
        assert np.array_equal(clean.points, ref.points)
        assert clean.expurgated_count == ref.expurgated_count

    # the construct benchmark's shapes at its defaults, and the (6,3) frontier
    @pytest.mark.parametrize("n, L", [(4, 2), (5, 2), (6, 2), (2, 4), (3, 3), (4, 3)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_counter_greedy(self, n, L, seed):
        code = sample_code(n=n, L=L, N=0.005, K=1.0, rate_margin=-0.1, seed=seed)
        self.assert_matches_counter_greedy(code, find_bad_lists(code))

    def test_matches_counter_greedy_at_frontier(self):
        code = sample_code(n=6, L=3, N=0.005, K=1.0, rate_margin=-0.1, seed=0)
        self.assert_matches_counter_greedy(code, find_bad_lists(code))

    def test_planted_tie_with_stale_counts(self):
        # points 3, 4 and 5 lie in two lists each: 3 goes first on the index;
        # that leaves 4 in one list, so 5 (still in two) goes next
        code = code_1d(np.arange(6.0), N=0.001)
        bad = [(0, 3), (3, 4), (4, 5), (1, 5)]
        clean = expurgate(code, bad)
        assert clean.points[:, 0].tolist() == [0.0, 1.0, 2.0, 4.0]
        self.assert_matches_counter_greedy(code, bad)


class TestSampleCode:
    def test_size_formula(self):
        # the size as a product of lambda_n, e^(n*margin) and (2K)^n, kept as
        # an oracle where no factor leaves the doubles: the log form rounds
        # to the same M wherever the product is a code of 1..2000 points,
        # (4,2) at the bench's N, K and margin among them
        cases = 0
        grid = itertools.product(range(1, 41), range(2, 8), (0.001, 0.005, 0.02, 0.05, 0.2), (0.5, 1.0, 2.0), (0.0, -0.1, -0.5))
        for n, L, N, K, margin in grid:
            size = round(lambda_n_threshold(ExponentQuery(N=N, L=L, K=K), n) * math.exp(n * margin) * (2.0 * K) ** n)
            if 1 <= size <= 2000:
                assert sample_code(n, L, N, K, margin, 0).M == size, (n, L, N, K, margin)
                cases += 1
        assert cases > 500

    def test_override_size(self):
        code = sample_code(n=2, L=2, N=0.01, K=1.0, rate_margin=-0.1, seed=0, M=37)
        assert code.M == 37

    def test_support_and_reproducibility(self):
        a = sample_code(n=3, L=2, N=0.01, K=2.0, rate_margin=-0.1, seed=5)
        b = sample_code(n=3, L=2, N=0.01, K=2.0, rate_margin=-0.1, seed=5)
        assert np.array_equal(a.points, b.points)
        assert np.max(np.abs(a.points)) <= 2.0

    def test_positive_margin_rejected(self):
        with pytest.raises(ValueError):
            sample_code(n=2, L=2, N=0.01, K=1.0, rate_margin=0.1, seed=0)

    def test_explicit_size_over_the_budget_is_refused(self, monkeypatch):
        # an explicit M is held to the same point budget as a computed one,
        # before anything is drawn
        monkeypatch.setattr(construction, "WINDOW_BUDGET", 100)
        with pytest.raises(BudgetError, match=r"^M = 101 points exceeds the 1e\+02 point budget; pass a smaller explicit M$"):
            sample_code(n=2, L=2, N=0.01, K=1.0, rate_margin=-0.1, seed=0, M=101)
        assert sample_code(n=2, L=2, N=0.01, K=1.0, rate_margin=-0.1, seed=0, M=100).M == 100

    def test_overflowing_factor(self):
        # n * lb_ppp = 2493 overflows lambda_n, and M with it: refused by its
        # log, a budget error
        with pytest.raises(BudgetError, match=r"^M = e\^3086\.23 points exceeds the 1e\+07 point budget"):
            sample_code(n=1000, L=2, N=1e-4, K=1.0, rate_margin=-0.1, seed=1)
        # (2K)^2000 overflows while lambda_n underflows to 0, and M rounds to 0
        with pytest.raises(ValueError, match="rounds to 0"):
            sample_code(n=2000, L=2, N=0.4, K=1.0, rate_margin=-0.1, seed=1)
        # lambda_n = e^792 overflows alone; the product, from logs, is e^4.92
        lb = lb_ppp(BoundQuery(N=0.003, L=2))
        code = sample_code(n=1000, L=2, N=0.003, K=0.2514, rate_margin=-0.1, seed=1)
        assert code.M == round(math.exp(1000 * (lb - 0.1 + math.log(0.5028)))) == 137
        # e^(n*margin) = e^-750 underflows to 0 while neither other factor
        # overflows; ln M = 449.8 is far over the budget, not a size of 0
        with pytest.raises(BudgetError, match=r"^M = e\^449\.789 points"):
            sample_code(n=1000, L=2, N=0.00441, K=0.911, rate_margin=-0.75, seed=1)

    @pytest.mark.parametrize("n,L", [(2, 4), (3, 3), (4, 2), (4, 3), (5, 2), (6, 3), (8, 2)])
    def test_accounting(self, n, L):
        # nld - lb_ppp splits exactly into the margin, the prefactor
        # (L!/2)^(1/(L-1)), M's rounding, the expurgated share and the guard
        # gap
        q = ExponentQuery(N=0.005, L=L, K=1.0)
        log_size = log_threshold_size(q, n, -0.1)
        for seed in range(3):
            code = sample_code(n=n, L=L, N=0.005, K=1.0, rate_margin=-0.1, seed=seed)
            c = tile(expurgate(code, find_bad_lists(code)))
            terms = (
                -0.1
                + math.log(math.factorial(L) / 2.0) / (L - 1) / n
                + (math.log(code.M) - log_size) / n
                + math.log(1.0 - c.base.expurgated_count / code.M) / n
                + math.log(c.base.K / (c.base.K + c.gap))
            )
            assert c.nld - lb_ppp(q.query) == pytest.approx(terms, rel=0, abs=1e-12)

    def test_subset_budget_reports_computed_size(self):
        with pytest.raises(BudgetError, match=r"^M = e\^34\.6202 points"):
            sample_code(n=8, L=2, N=1e-5, K=1.0, rate_margin=-0.01, seed=0)

    @pytest.mark.parametrize("n,L", [(6, 3), (5, 4)])
    def test_threshold_density_frontier(self, n, L):
        # C(M, L) is 2.9e10 at (6,3) and 4.4e12 at (5,4); the near-pair
        # graph keeps both cheap
        code = sample_code(n=n, L=L, N=0.005, K=1.0, rate_margin=-0.1, seed=0)
        assert math.comb(code.M, L) > 10**10
        bad = find_bad_lists(code)
        clean = expurgate(code, bad)
        assert bad and clean.expurgated_count > 0
        assert find_bad_lists(clean) == []

    def test_achieved_rate(self):
        code = sample_code(n=4, L=2, N=0.005, K=1.0, rate_margin=-0.1, seed=0)
        assert achieved_rate(code) == pytest.approx(
            math.log(code.M) / 4 - math.log(2.0), rel=1e-12
        )


class TestTile:
    def make_clean(self, seed=3):
        code = sample_code(n=4, L=2, N=0.005, K=1.0, rate_margin=-0.1, seed=seed)
        return expurgate(code, find_bad_lists(code))

    def test_default_gap_and_period(self):
        clean = self.make_clean()
        cons = tile(clean)
        want_gap = 1.01 * math.sqrt(4 * 0.005)
        assert cons.gap == pytest.approx(want_gap, rel=1e-12)
        assert cons.period == pytest.approx(2 * 1.0 + 2 * want_gap, rel=1e-12)

    def test_gap_is_not_an_argument(self):
        # tile always uses 1.01 times the minimum gap; Constellation takes any
        # other, below the minimum too
        clean = self.make_clean()
        for gap in (0.9 * math.sqrt(4 * 0.005), 1.01 * math.sqrt(4 * 0.005), 0.5):
            with pytest.raises(TypeError, match="gap"):
                tile(clean, gap=gap)
            assert Constellation(clean, gap).gap == gap

    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_list_size_sets_minimum_gap(self, L):
        code = code_1d([0.0], N=0.01, K=1.0, L=L)
        g_min = L / (2 * math.sqrt(L - 1)) * 0.1
        assert tile(code).gap == pytest.approx(1.01 * g_min, rel=1e-12)

    def test_density_accounting_identity(self):
        clean = self.make_clean()
        for gap in (None, 0.2, 0.5):
            cons = tile(clean) if gap is None else Constellation(clean, gap)
            g = cons.gap
            want = achieved_rate(clean) + math.log(clean.K / (clean.K + g))
            assert abs(cons.nld - want) <= 1e-12
            assert cons.nld == pytest.approx(
                math.log(clean.M / cons.period**4) / 4, rel=1e-12
            )

    def test_window_enumeration_1d(self):
        base = code_1d([0.5], N=0.01, K=1.0)
        cons = Constellation(base, 1.0)  # period 4
        pts = enumerate_window(cons, np.zeros(1), 6.0)
        assert sorted(pts[:, 0].tolist()) == [-3.5, 0.5, 4.5]
        wide = enumerate_window(cons, np.zeros(1), 8.0)
        assert sorted(wide[:, 0].tolist()) == [-7.5, -3.5, 0.5, 4.5]

    def test_window_rows_in_tile_order(self):
        # the window oracles split enumerate_window's points by tile and base
        # index, with rows ascending by (tile, base index)
        code = sample_code(n=3, L=2, N=0.005, K=1.0, rate_margin=-0.1, seed=4)
        cons = tile(code)
        pts, tiles, base_idx = window_rows(cons, np.full(3, 0.3), 1.7 * cons.period)
        assert np.array_equal(pts, enumerate_window(cons, np.full(3, 0.3), 1.7 * cons.period))
        assert tiles.dtype.kind == "i" and tiles.shape == pts.shape
        assert np.array_equal(pts, tiles * cons.period + code.points[base_idx])
        keys = [tuple(t) + (b,) for t, b in zip(tiles.tolist(), base_idx.tolist())]
        assert keys == sorted(set(keys))

    @pytest.mark.parametrize("n,L,seed", [(1, 2, 5), (2, 3, 6), (3, 2, 4), (4, 3, 7)])
    def test_window_matches_box_oracle(self, n, L, seed):
        # enumerate_window and verify_packing's counts walk only the tiles
        # that reach the ball, the oracle every tile of its bounding box;
        # half the coordinates lie on the cube's faces, so that tiles just
        # reaching the ball hold points in it
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1, 1, size=(40, n))
        cons = tile(FiniteCode(np.where(rng.random(pts.shape) < 0.5, np.sign(pts), pts), n, L, 0.005, 1.0, None))
        centres = [np.zeros(n), np.full(n, 0.3)] + list(rng.uniform(-2, 2, size=(2, n)) * cons.period)
        for R in [0.0] + [f * cons.period for f in (0.5, 1.5, 2.7)]:
            for centre in centres:
                pts, tiles, _ = window_rows(cons, centre, R)
                assert np.array_equal(enumerate_window(cons, centre, R), pts)
                if not centre.any():
                    # verify_packing counts the window about the origin
                    v = verify_packing(cons, R)
                    sizes = np.unique(tiles, axis=0, return_counts=True)[1]
                    assert v.window_points == len(pts)
                    assert v.same_tile_lists == sum(math.comb(int(m), L) for m in sizes)


class TestVerifyPacking:
    def make_cons(self, seed=3):
        code = sample_code(n=4, L=2, N=0.005, K=1.0, rate_margin=-0.1, seed=seed)
        return tile(expurgate(code, find_bad_lists(code)))

    def test_clean_constellation_passes(self):
        cons = self.make_cons()
        v = verify_packing(cons, 1.5 * cons.period)
        assert v.passed
        assert v.window_points > cons.base.M
        assert v.min_avg_radius_sq == math.inf
        # at L = 2 the default gap, 1.01*sqrt(nN), puts every cross-tile
        # pair beyond the listing radius 2*sqrt(nN)
        assert v.min_cross_half_dist_sq == math.inf
        assert v.violation is None

    def test_planted_pair_detected(self):
        cons = self.make_cons()
        base = cons.base
        extra = base.points[0] + np.array([0.1, 0.0, 0.0, 0.0])
        pts = np.vstack([base.points, np.clip(extra, -1, 1)])
        planted = FiniteCode(points=pts, n=4, L=2, N=0.005, K=1.0, seed=None)
        v = verify_packing(tile(planted), 1.5 * 2.2856711395993652)
        assert not v.passed
        assert v.violation_base_indices == (0, pts.shape[0] - 1)
        assert v.violation.shape == (2, 4)

    def test_cross_tile_certificate(self):
        # points pushed to the cube faces make cross-tile pairs the binding
        # case: the nearest sits 2*gap + 2*0.05 apart
        pts = np.array([[0.95], [-0.95]])
        code = FiniteCode(points=pts, n=1, L=2, N=0.005, K=1.0, seed=None)
        cons = Constellation(code, 0.3)
        v = verify_packing(cons, 1.5 * cons.period)
        assert v.passed
        # 0.7 lies beyond the listing radius sqrt(2L*nN) = 0.1414
        assert v.min_cross_half_dist_sq == math.inf
        # at gap 0.0205 the pair is 0.141 apart, inside it, and a bad list
        narrow = Constellation(base=code, gap=0.0205)
        v = verify_packing(narrow, 1.5 * narrow.period)
        assert v.min_cross_half_dist_sq == pytest.approx(0.0705**2, rel=1e-9)
        assert not v.passed and v.violation_base_indices == (0, 1)
        assert v.min_avg_radius_sq == v.min_cross_half_dist_sq

    def test_tight_gap_still_packs(self):
        pts = np.array([[0.0]])
        code = FiniteCode(points=pts, n=1, L=2, N=0.01, K=1.0, seed=None)
        cons = tile(code)  # gap = 1.01 * 0.1
        v = verify_packing(cons, 1.5 * cons.period)
        assert v.passed

    def test_three_list_across_tiles_caught(self):
        # At gap 1.01 * sqrt(nN) = 0.101, the L = 2 default, the list
        # {0.998, 0.999, -0.999 + period} has avg_sq_radius 0.00929 < nN.
        code = FiniteCode(points=[[0.998], [0.999], [-0.999]], n=1, L=3, N=0.01, K=1, seed=0)
        narrow = Constellation(base=code, gap=0.101)
        v = verify_packing(narrow, 1.5 * narrow.period)
        assert not v.passed
        assert v.violation_base_indices == (0, 1, 2)
        assert avg_sq_radius(PointList(v.violation)) == pytest.approx(0.083642 / 9, rel=1e-9)
        wide = tile(code)
        assert verify_packing(wide, 1.5 * wide.period).passed

    def test_diagonal_translate_caught(self):
        # the only close pair joins opposite corners through the diagonal
        # tile offset (1, 1): at half the minimum gap it is 0.22*sqrt(2)
        # apart, and the face translates lie farther than sqrt(2L*n*N)
        code = FiniteCode([[0.99, 0.99], [-0.99, -0.99]], 2, 2, 0.02, 1.0, None)
        cons = Constellation(base=code, gap=0.1)
        v = verify_packing(cons, 1.5 * cons.period)
        assert not v.passed and min_avg_subset(code)[0] > v.threshold
        assert v.min_avg_radius_sq == pytest.approx(2 * 0.22**2 / 4, rel=1e-9)
        assert v.violation_base_indices == (0, 1)
        assert np.allclose(v.violation, [[0.99, 0.99], [1.21, 1.21]], rtol=0, atol=1e-12)
        _, bad = window_bad_lists(cons, 1.5 * cons.period)
        assert bad

    @pytest.mark.parametrize("L,N,passed", [(2, 0.25, False), (5, 0.25, True)])
    def test_gap_at_minimum_runs_exact_fallback(self, L, N, passed):
        # points on the cube faces put the nearest cross-tile pair exactly
        # D = 2 * g_min apart, within the listing radius, so
        # (L-1)/L^2 * D^2 = nN; every quantity here is exact in binary
        code = FiniteCode(points=[[1.0], [-1.0]], n=1, L=L, N=N, K=1.0, seed=None)
        g_min = L / (2 * math.sqrt(L - 1)) * math.sqrt(N)
        cons = Constellation(code, g_min)
        v = verify_packing(cons, 1.5 * cons.period)
        assert 4 * (L - 1) * v.min_cross_half_dist_sq == L * L * v.threshold
        assert v.passed is passed
        assert v.min_avg_radius_sq == (math.inf if passed else v.threshold)
        _, bad = window_bad_lists(cons, 1.5 * cons.period)
        assert (not bad) is passed
        if not passed:
            # the cross-tile pair {1, 2} at distance 1 has avg exactly nN:
            # base point 0 with base point 1 translated by one period
            assert v.violation[:, 0].tolist() == [1.0, 2.0]
            assert v.violation_base_indices == (0, 1)

    @pytest.mark.parametrize("L", [2, 3])
    def test_smaller_cross_tile_list_is_reported(self, L):
        # below the minimum gap a same-tile bad list (the L points near 0,
        # avg about 0.0056) and a smaller cross-tile one (points 0.005 from
        # the faces x = 1 and x = -1, 0.06 apart across a gap of 0.02) both
        # exist; the cross-tile one is reported with its own radius
        near = [[0.0], [0.15], [0.075]][:L]
        faces = [[0.995]] * (L - 1) + [[-0.995]]
        code = FiniteCode(near + faces, 1, L, 0.01, 1.0, None)
        same, _ = min_avg_subset(code)
        cons = Constellation(base=code, gap=0.02)
        v = verify_packing(cons, 1.5 * cons.period)
        assert same <= v.threshold and not v.passed
        assert self.kind(cons, v) == "cross-tile"
        assert v.violation_base_indices == tuple(range(L, 2 * L))
        assert v.min_avg_radius_sq == pytest.approx(avg_sq_radius(PointList(v.violation)), rel=1e-12)
        assert v.min_avg_radius_sq == pytest.approx((L - 1) / L**2 * 0.05**2, rel=1e-9)
        assert v.min_avg_radius_sq < same

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_cross_distance_is_capped_at_the_listing_radius(self, L):
        # points on the faces put the nearest cross-tile pair exactly 2*gap
        # apart: reported just inside the listing radius sqrt(2L*nN), inf
        # just outside it
        code = FiniteCode([[1.0], [-1.0]], 1, L, 0.01, 1.0, None)
        r = math.sqrt(2 * L * 0.01)
        for f, want in ((0.99, (0.99 * r / 2) ** 2), (1.01, math.inf)):
            c = Constellation(base=code, gap=f * r / 2)
            assert cross_tile_min_sq_lattice(c) == pytest.approx((f * r) ** 2, rel=1e-12)
            assert verify_packing(c, 0.5).min_cross_half_dist_sq == pytest.approx(want, rel=1e-12)

    @staticmethod
    def oracle_constellations(L, rng, count=16):
        for trial in range(count):
            if trial % 2:
                n, N = 2, rng.uniform(0.01, 0.2)
                pts = rng.uniform(-1, 1, size=(int(rng.integers(1, 4)), n))
            else:
                # a points near +1 and L - a near -1: no same-tile list is
                # small, but across a narrow gap the two groups form one
                n, N = 1, rng.uniform(0.005, 0.05)
                a = int(rng.integers(1, L))
                depth = rng.uniform(0, math.sqrt(N), size=L)
                pts = np.concatenate([1 - depth[:a], depth[a:] - 1]).reshape(-1, 1)
            code = FiniteCode(pts, n, L, N, 1.0, None)
            g_min = L / (2 * math.sqrt(L - 1)) * math.sqrt(n * N)
            gap = g_min * [0.3, 0.6, 1.0, 1.2][(trial // 2) % 4]
            yield Constellation(base=code, gap=gap)

    @staticmethod
    def planted_at_gap_bound(L):
        # one point on the face x = 1 and L - 1 on x = -1, at the minimum gap:
        # the first with the translates of the others, 2*gap away, has
        # avg = (L-1)/L^2 * (2*gap)^2 = nN, which rounds to <= nN at
        # N = 1/16 for every L in 2..5
        code = FiniteCode([[1.0]] + [[-1.0]] * (L - 1), 1, L, 0.0625, 1.0, None)
        return Constellation(code, L / (2.0 * math.sqrt(L - 1)) * math.sqrt(0.0625))

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_matches_window_oracle(self, L):
        rng = np.random.default_rng(300 + L)
        kinds = set()
        planted = self.planted_at_gap_bound(L)
        for cons in list(self.oracle_constellations(L, rng)) + [planted]:
            R = 1.5 * cons.period
            v = verify_packing(cons, R)
            for r in (0.5, 0.8 * cons.period, R):
                pts, bad = window_bad_lists(cons, r)
                w = verify_packing(cons, r)
                assert w.window_points == len(pts)
                # the window sizes only the counts: the verdict is the
                # constellation's, which fails wherever a window does
                assert (w.passed, w.violation_base_indices) == (v.passed, v.violation_base_indices)
                assert not (bad and v.passed)
            # the 1.5-period window holds a translate of every list
            assert v.passed == (not bad)
            if not v.passed:
                assert avg_sq_radius(PointList(v.violation)) <= v.threshold * (1 + 1e-12)
                back = v.violation - cons.period * np.round(v.violation / cons.period)
                assert np.allclose(back, cons.base.points[list(v.violation_base_indices)], atol=1e-12)
            kinds.add(self.kind(cons, v))
        assert {"pass", "cross-tile"} <= kinds
        # at the bound the planted list spans tiles, with avg = nN
        v = verify_packing(planted, 1.5 * planted.period)
        assert 4 * (L - 1) * v.min_cross_half_dist_sq <= L * L * v.threshold
        assert not v.passed and min_avg_subset(planted.base)[0] > v.threshold
        assert v.min_avg_radius_sq <= v.threshold
        assert sorted(v.violation_base_indices) == list(range(L))

    @staticmethod
    def kind(cons, v):
        """A verdict's kind: a reported list lies in the base tile exactly
        when its points are the base points it names."""
        if v.passed:
            return "pass"
        same = np.array_equal(v.violation, cons.base.points[list(v.violation_base_indices)])
        return "same-tile" if same else "cross-tile"

    @staticmethod
    def capped(c, d2):
        """A squared cross-tile distance as verify_packing reports it: kept
        within the listing radius sqrt(2L*n*N)*(1 + 1e-6), inf beyond."""
        r = math.sqrt(2 * c.base.L * c.base.n * c.base.N) * (1 + 1e-6)
        return d2 if d2 <= r * r else math.inf

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_cross_tile_distance_matches_gram_oracle(self, L):
        rng = np.random.default_rng(400 + L)
        spread = [Constellation(FiniteCode(rng.uniform(-1, 1, size=(25, n)), n, L, 0.01, 1.0, None), 0.1)
                  for n in (2, 3)]
        for cons in list(self.oracle_constellations(L, rng)) + spread:
            code = cons.base
            g_min = L / (2 * math.sqrt(L - 1)) * math.sqrt(code.n * code.N)
            # a gap wider than the cube keeps same-tile pairs closer than D
            for c in (cons, Constellation(code, g_min), Constellation(code, 2.5)):
                got = verify_packing(c, 1.5 * c.period).min_cross_half_dist_sq
                assert got == self.capped(c, cross_tile_min_sq_lattice(c)) / 4
                # a window of radius 0.5 holds the base tile alone: its D is inf
                for R in (1.5 * c.period, 0.5):
                    window = self.capped(c, cross_tile_min_sq_gram(c, R)) / 4
                    assert got <= window * (1 + 1e-12)
                    if R >= 1.5 * c.period:
                        assert got == pytest.approx(window, rel=1e-12, abs=0.0)

    def test_cross_distance_makes_no_tree_query(self, monkeypatch):
        # D is read off the listing's near-pair graph, so no KD-tree is
        # queried for nearest points; the window counts use ball counts
        import scipy.spatial

        queries = []

        class Counting(cKDTree):
            def query(self, *args, **kwargs):
                queries.append(len(args[0]))
                return super().query(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", Counting)
        for L in (2, 3, 4, 5):
            c = self.planted_at_gap_bound(L)
            v = verify_packing(c, 1.5 * c.period)
            assert v.min_cross_half_dist_sq == self.capped(c, cross_tile_min_sq_lattice(c)) / 4
            assert not v.passed
        c = self.make_cons()
        assert verify_packing(c, 1.5 * c.period).passed
        assert queries == []
        # the counting tree does count: min_avg_subset makes one k-NN query
        min_avg_subset(c.base)
        assert queries == [c.base.M]

    @staticmethod
    def window_minima(c, periods=(0.8, 1.5, 2.7)):
        """The window band search at radius 0.5 (the base tile alone) and at
        the given multiples of the period: part of the ring, the bench's
        window and more."""
        for R in [0.5] + [f * c.period for f in periods]:
            window = window_rows(c, np.zeros(c.base.n), R)
            yield R, cross_tile_min_sq_band(c, *window, 2.0 * R)

    @staticmethod
    def check_lattice_minimum(c, periods=(0.8, 1.5, 2.7)):
        """The verdict's cross-tile distance is the lattice scan's within the
        listing radius and inf beyond it, is at most every window's minimum
        so capped, and is that minimum once the window reaches 1.5 periods.
        Returns whether it was within the radius."""
        got = 4 * verify_packing(c, 0.5).min_cross_half_dist_sq
        assert got == TestVerifyPacking.capped(c, cross_tile_min_sq_lattice(c)), c.gap
        for R, want in TestVerifyPacking.window_minima(c, periods):
            want = TestVerifyPacking.capped(c, want)
            assert got <= want * (1 + 1e-12), (c.gap, R)
            if R >= 1.5 * c.period:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (c.gap, R)
            if R == 0.5:
                assert math.isinf(want)
        return math.isfinite(got)

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_cross_tile_distance_matches_band_oracle(self, L):
        rng = np.random.default_rng(600 + L)
        kinds = set()
        spread = [Constellation(FiniteCode(rng.uniform(-1, 1, size=(25, n)), n, L, 0.01, 1.0, None), 0.1)
                  for n in (2, 3)]
        # two or three points, fewer than L, near the faces and below the
        # minimum gap: no list grows, but their cross-tile pairs are listed
        g_min = L / (2 * math.sqrt(L - 1)) * math.sqrt(2 * 0.01)
        few = [Constellation(FiniteCode(pts, 2, L, 0.01, 1.0, None), 0.6 * g_min)
               for pts in ([[0.99, 0.5], [-0.98, 0.5]], [[0.99, 0.5], [-0.98, 0.5], [0.2, 0.995]])
               if len(pts) < L]
        for cons in list(self.oracle_constellations(L, rng)) + spread + few:
            code = cons.base
            g_min = L / (2 * math.sqrt(L - 1)) * math.sqrt(code.n * code.N)
            for c in (cons, Constellation(code, g_min), tile(code), Constellation(code, 2.5)):
                kinds.add(self.check_lattice_minimum(c))
        # both sides of the listing radius occur
        assert kinds == {True, False}

    @pytest.mark.parametrize("n,L,seed", [(3, 3, 1), (4, 2, 2), (5, 2, 3)])
    def test_cross_tile_distance_matches_band_oracle_seeded(self, n, L, seed):
        code = sample_code(n=n, L=L, N=0.005, K=1.0, rate_margin=-0.1, seed=seed)
        clean = expurgate(code, find_bad_lists(code))
        g_min = L / (2 * math.sqrt(L - 1)) * math.sqrt(n * clean.N)
        # in 5-D a 2.7-period window holds 2e5 points, and the window band
        # search takes seconds on it: that radius at the default gap only
        wide = (0.8, 1.5, 2.7)
        other = wide if n < 5 else (0.8, 1.5)
        for c, periods in ((Constellation(clean, g_min), other), (tile(clean), wide), (Constellation(clean, 2.5), other)):
            self.check_lattice_minimum(c, periods)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_offset_rule_is_the_ring_below_2K_plus_4_gap(self, n):
        # the offsets k that can reach r, sum_i (|k_i|*period - 2K)_+^2
        # <= r^2, are the ring shells nnz(k)*4*gap^2 <= r^2 while
        # r < 2K + 4*gap: |k_i| = 2 alone costs (2K + 4*gap)^2
        K, gap = 1.0, 0.3
        P = 2 * K + 2 * gap
        zero = (0.0,) * n
        grid = offset_box((2,) * n)
        edge = 2 * K + 4 * gap
        # radii inside each shell, and just below the edge
        for j, r in [(j, 2 * gap * math.sqrt(j + 0.5)) for j in range(n)] + [(n, edge * (1 - 1e-9))]:
            want = {tuple(k) for k in ring_offsets(n, j).astype(int)}
            assert {tuple(k) for k in tile_offsets(P, 2 * K, r, zero, False)} == want
        # just past it, |k_i| = 2 comes in
        assert (np.abs(tile_offsets(P, 2 * K, edge * (1 + 1e-9), zero, False)) == 2).any()
        assert len(grid) == (5**n - 1) // 2
        assert not (set(map(tuple, grid)) & set(map(tuple, -grid)))

    @staticmethod
    def check_filtered_box(P, w, r, center):
        # the whole box around the walk's per-axis ranges, filtered by the
        # exact sum, and its rows whose first nonzero coordinate is positive
        axes = [np.arange(math.floor((ci - w - r) / P) - 1, math.ceil((ci + w + r) / P) + 2) for ci in center]
        box = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
        want = box[offset_reach(box, P, w, center) <= r * r]
        first = want[np.arange(len(want)), (want != 0).argmax(axis=1)]
        # the centre as a tuple and as an array
        for c in (tuple(center), np.asarray(center, dtype=float)):
            got = tile_offsets(P, w, r, c, False)
            assert got.shape == want.shape and (got == want).all()
            got = tile_offsets(P, w, r, c, True)
            assert got.shape == want[first > 0].shape and (got == want[first > 0]).all()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_offsets_within_are_the_filtered_box(self, n):
        # the same rows in the same order as the whole box filtered by reach,
        # so the fallback still reports the first clique in row order
        rng = np.random.default_rng(n)
        for K, gap in ((1.0, 0.3), (1.0, 0.05), (0.5, 0.7)):
            P = 2 * K + 2 * gap
            radii = [2 * gap * math.sqrt(j) for j in range(1, n + 1)] + [2 * K + 4 * gap]
            radii += list(np.linspace(0.01, 1.6 * P if n < 8 else 0.9 * P, 9))
            for r in radii:
                box = offset_box((int((r + 2 * K) / P),) * n)
                want = box[offset_reach(box, P, 2 * K, 0.0) <= r * r]
                got = tile_offsets(P, 2 * K, r, (0.0,) * n, True)
                assert got.shape == want.shape and (got == want).all()
            # both signs, the three box widths and random centres, while the
            # padded box, about 6^n rows, stays small
            if n > 5:
                continue
            for center in [np.zeros(n)] + list(rng.uniform(-P, P, size=(2, n))):
                for w in (K, 2 * K, P / 2 + K):
                    for r in (0.0, gap, 0.7 * P, 1.3 * P if n <= 3 else 0.4 * P):
                        self.check_filtered_box(P, w, r, center)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cell_offsets_are_the_ring_within_r(self, n):
        # from the fold cell, half-width period/2, each nonzero coordinate of
        # a translate of the base cube costs (period/2 - K)^2 = gap^2, so the
        # offsets that reach r, with k and -k both, are the ring shells
        # nnz(k)*gap^2 <= r^2; |k_i| = 2 alone costs (2K + 3*gap)^2 > r^2
        for K, gap in ((1.0, 0.3), (1.0, 0.05), (0.5, 0.7), (0.01, 1.0)):
            P = 2 * K + 2 * gap
            for j in range(n + 1):
                r = gap * math.sqrt(j + 0.5)
                got = tile_offsets(P, P / 2 + K, r, (0.0,) * n, True)
                both = {tuple(k) for k in np.vstack([got, -got])}
                want = {tuple(k) for k in ring_offsets(n, j).astype(int)} - {(0,) * n}
                assert both == want and 2 * len(got) == len(want)

    def test_offsets_stay_small_at_n13(self):
        # the box {-1..1}^13 has 797161 rows; the reach filter keeps at most
        # the 27625 with <= 5 nonzero coordinates in the search's last round
        rng = np.random.default_rng(0)
        code = FiniteCode(rng.uniform(-1, 1, size=(40, 13)), 13, 3, 0.01, 1.0, None)
        c = tile(code)
        tracemalloc.start()
        try:
            verdict = verify_packing(c, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.passed
        assert peak <= 32 * 2**20

    def test_offset_rows_are_refused_while_grown(self, monkeypatch):
        # every ring offset reaches r: the 3^9/2 nonzero prefixes grow into
        # 3 rows each and the zero prefix into 2 at the last step, which
        # exceeds the budget that every earlier step (at most 3^9/2 + 1
        # rows) fits
        count = 3 * (3**9 - 1) // 2 + 2
        monkeypatch.setattr(construction, "WINDOW_BUDGET", count)
        assert len(tile_offsets(2.2, 2.1, 1.0, (0.0,) * 10, True)) == (3**10 - 1) // 2
        monkeypatch.setattr(construction, "WINDOW_BUDGET", count - 1)
        with pytest.raises(BudgetError, match=f"^{count} translates within reach on 10 of 10 axes"):
            tile_offsets(2.2, 2.1, 1.0, (0.0,) * 10, True)

    @staticmethod
    def walk_bytes(X, P, r, half, centre, steps):
        # what the walk holds when its last step is refused: per candidate
        # of that step (a value on one of the previous step's rows) the
        # translate and the running sum, 8 bytes each, and a mask byte; per
        # row of either step its index, reach, key, flag, coordinates and
        # the step's two index arrays
        n = len(centre)
        span = math.floor((centre[-1] + half + r - X[:, -1].min()) / P) - math.ceil((centre[-1] - half - r - X[:, -1].max()) / P) + 1
        return 24 * span * steps[-2] + (8 * n + 32) * (steps[-2] + steps[-1]) + 2**16

    def test_window_over_the_budget_is_refused(self, monkeypatch):
        # the budget counts the rows the walk holds, the points of the ball
        # on the axes walked so far, not the tiles * M points of the tiles
        # reaching it: at the last step's count, the ball, the window is
        # listed, one point below it is refused, and the peak stays within
        # what that step holds
        rng = np.random.default_rng(80)
        cons = tile(FiniteCode(rng.uniform(-1, 1, size=(400, 3)), 3, 2, 0.005, 1.0, None))
        centre, R = np.full(3, 0.3), 2.5 * cons.period
        want = enumerate_window(cons, centre, R)
        steps = walk_step_rows(cons.base.points, cons.period, R, 0.0, centre, False)
        tiles = len(tile_offsets(cons.period, cons.base.K, R, centre, False))
        assert steps == [2000, 7898, len(want)] and len(want) == 26300 < tiles * 400
        monkeypatch.setattr(construction, "WINDOW_BUDGET", len(want))
        assert np.array_equal(enumerate_window(cons, centre, R), want)
        monkeypatch.setattr(construction, "WINDOW_BUDGET", len(want) - 1)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=rf"^{len(want)} translates within reach on 3 of 3 axes exceed the {len(want) - 1} point"):
                enumerate_window(cons, centre, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.walk_bytes(cons.base.points, cons.period, R, 0.0, centre, steps)

    def test_listing_over_the_budget_is_refused(self, monkeypatch):
        # at a narrow gap the listing reaches many tiles but keeps only the
        # translates within the pair radius of the base cube, 88 of their
        # 390 points; the walk's rows only grow at half = K, and its last
        # step holds those translates and the 30 zero-offset rows it drops
        # at the end: at that count the verdict is the unbudgeted one, and
        # one row below it is refused, holding no more than that step
        rng = np.random.default_rng(81)
        code = FiniteCode(rng.uniform(-1, 1, size=(30, 3)), 3, 3, 0.05, 1.0, None)
        cons = Constellation(code, 0.05)
        r = math.sqrt(2 * 3 * 3 * 0.05) * (1 + 1e-6)
        tiles = len(tile_offsets(cons.period, 2 * code.K, r, np.zeros(3), True))
        kept = len(construction._near_points(code.points, cons.period, r, code.K, one_sign=True)[0])
        steps = walk_step_rows(code.points, cons.period, r, code.K, np.zeros(3), True)
        assert (kept, tiles * 30, steps) == (88, 390, [42, 70, 88 + 30])
        want = verify_packing(cons, 0.5)
        monkeypatch.setattr(construction, "WINDOW_BUDGET", steps[-1])
        got = verify_packing(cons, 0.5)
        assert (got.passed, got.min_avg_radius_sq, got.violation_base_indices) == (
            want.passed, want.min_avg_radius_sq, want.violation_base_indices)
        monkeypatch.setattr(construction, "WINDOW_BUDGET", steps[-1] - 1)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=rf"^{steps[-1]} translates within reach on 3 of 3 axes exceed the {steps[-1] - 1} point"):
                verify_packing(cons, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.walk_bytes(code.points, cons.period, r, code.K, np.zeros(3), steps)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_translates_are_the_filtered_box(self, n):
        # every (x, k) of the padded offset box, filtered by the exact sum,
        # in tile-then-base order: rows and points bit for bit, about random
        # centres, from a point box, the base cube and the fold cell; gap 0
        # is the torus of period 2K, with a point on the corner of the cube
        rng = np.random.default_rng(40 + n)
        for K, gap in ((1.0, 0.3), (1.0, 0.05), (0.5, 0.7), (1.0, 0.0)):
            X = rng.uniform(-K, K, size=(int(rng.integers(1, 25)), n))
            if gap == 0.0:
                X[0] = K
            P = 2 * K + 2 * gap
            for centre in [np.zeros(n)] + list(rng.uniform(-P, P, size=(2, n))):
                for half in (0.0, K, P / 2):
                    for r in (0.0, gap, 0.7 * P, 1.3 * P if n <= 3 else 0.4 * P):
                        for one_sign in (False, True):
                            rows, pts = construction._near_points(X, P, r, half, centre, one_sign)
                            want_rows, want_pts = box_translates(X, P, r, half, centre, one_sign)
                            assert np.array_equal(rows, want_rows)
                            assert pts.shape == want_pts.shape and pts.tobytes() == want_pts.tobytes()

    @pytest.mark.parametrize("L", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_torus_listing_is_the_offset_box_scan(self, n, L):
        # at period exactly 2K > sqrt(2L*n*N) a list's members lie in tiles
        # at most one apart on each axis, so up to translation the bad lists
        # are those of the 3^n offset box; the walk's listing, its rows
        # starting in the base, gives each once as (base index, offset) sets
        rng = np.random.default_rng(100 * n + L)
        K, P = 1.0, 2.0
        # a list holds no point with its own translate, so M >= L; else the
        # box's 3^n * M points have at most 4e5 L-subsets, but at (3, 4) its
        # 108 points have 5.2e6, scanned in one trial
        M = max(m for m in range(L, 7) if m == L or math.comb(3**n * m, L) <= 4 * 10**5)
        box = offset_box((1,) * n)
        box = np.vstack([np.zeros((1, n), dtype=box.dtype), box, -box])
        for trial in range(1 if (n, L) == (3, 4) else 2):
            N = rng.uniform(0.1, 0.5) * P**2 / (2 * L * n)
            X = rng.uniform(-K, K, size=(M, n))
            # half the coordinates on the faces, where translates meet; the
            # first trial wraps L points about the corner (K, ..., K) round
            # the torus, a list across up to 2^n tiles
            X = np.where(rng.random((M, n)) < 0.5, np.sign(X) * K, X)
            if trial == 0:
                X[:L] = (2 * K + rng.normal(scale=0.3 * math.sqrt(N), size=(L, n))) % P - K
            r = construction._pair_radius(L, n * N)
            assert r < P
            rows, Q = construction._near_points(X, P, r, K, one_sign=True)
            lists, _, _ = construction._near_lists(np.vstack([X, Q]), L, n * N)
            members = [(b, (0,) * n) for b in range(M)]
            members += [(int(b), tuple(int(v) for v in k)) for b, k in zip(rows, np.rint((Q - X[rows]) / P))]
            got = [frozenset(members[j] for j in row) for row in lists if row[0] < M]
            Y = (X[None, :, :] + (box * P)[:, None, :]).reshape(-1, n)
            flat = [(b, tuple(int(v) for v in k)) for k in box for b in range(M)]
            want = set()
            for row in scan_subsets(Y, L, n * N)[0]:
                lo = min(flat[j][1] for j in row)
                want.add(frozenset((flat[j][0], tuple(a - b for a, b in zip(flat[j][1], lo))) for j in row))
            assert len(got) == len(set(got)) and set(got) == want
            if trial == 0:
                assert any(any(any(k) for _, k in lst) for lst in want)

    def test_verifier_builds_no_code(self, monkeypatch):
        # the window tiles are walked from an array, so verify_packing
        # validates no FiniteCode or Constellation of its own
        code = sample_code(n=3, L=3, N=0.005, K=1.0, rate_margin=-0.1, seed=1)
        c = tile(expurgate(code, find_bad_lists(code)))
        built = []
        for cls in (FiniteCode, Constellation):
            init = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda self, init=init: built.append(type(self)) or init(self))
        assert verify_packing(c, 1.5 * c.period).passed
        assert built == []
        # the counter sees what a one-point code of the same shape builds
        Constellation(FiniteCode(np.zeros((1, 3)), 3, 3, 0.005, 1.0, None), c.gap)
        assert built == [FiniteCode, Constellation]

    @staticmethod
    def same_tile_constellations(L, rng, count=8):
        # L..L+1 points in n = 1..3 (n <= 2 from L = 4 on, so the exhaustive
        # window oracle stays small) at the default gap; every other code has
        # L - 1 points planted near point 0, a same-tile violation
        for trial in range(count):
            n = 1 + trial % (3 if L <= 3 else 2)
            N = rng.uniform(0.005, 0.05)
            pts = rng.uniform(-1, 1, size=(int(rng.integers(L, L + 2)), n))
            if trial % 2:
                near = pts[0] + rng.normal(scale=0.3 * math.sqrt(N), size=(L - 1, n))
                pts[1:L] = np.clip(near, -1, 1)
            yield tile(FiniteCode(pts, n, L, N, 1.0, None))

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_same_tile_matches_per_tile_oracle(self, L):
        rng = np.random.default_rng(500 + L)
        kinds = set()
        for cons in self.same_tile_constellations(L, rng):
            code = cons.base
            # the smaller windows cut through the origin tile
            for R in [f * code.K * math.sqrt(code.n) for f in (0.3, 0.7, 1.0)] + [1.5 * cons.period]:
                v = verify_packing(cons, R)
                want, want_indices, lists = same_tile_min_per_tile(cons, R)
                pts, bad = window_bad_lists(cons, R)
                assert v.window_points == len(pts)
                assert v.same_tile_lists == lists
                # a window FAIL is a constellation FAIL, and every window
                # tile holds a translated subset of the base code
                assert not (bad and v.passed)
                # the reported list is the smallest bad list
                if want <= v.threshold:
                    assert v.min_avg_radius_sq <= want * (1 + 1e-12)
                if R >= 1.5 * cons.period:
                    assert v.passed == (not bad) == (want > v.threshold)
                    if v.passed:
                        assert v.min_avg_radius_sq == math.inf
                    else:
                        assert v.min_avg_radius_sq == pytest.approx(want, rel=1e-12, abs=0.0)
                        assert v.violation_base_indices == want_indices
                # at the default gap a bad list lies in one tile
                kinds.add(self.kind(cons, v))
        assert kinds == {"pass", "same-tile"}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_tile_minimum_is_the_base_minimum(self, seed):
        # a same-tile list is listed on the base code untranslated, so with
        # two points planted near point 0 the reported radius is
        # min_avg_subset's bit for bit, not a rounded translated copy
        code = sample_code(n=3, L=3, N=0.005, K=1.0, rate_margin=-0.1, seed=seed)
        clean = expurgate(code, find_bad_lists(code))
        cons = tile(clean)
        assert verify_packing(cons, 1.5 * cons.period).passed
        pts = np.vstack([clean.points, 0.99 * clean.points[0], 0.98 * clean.points[0]])
        base = FiniteCode(pts, 3, 3, clean.N, clean.K, None)
        cons = tile(base)
        v = verify_packing(cons, 1.5 * cons.period)
        assert not v.passed
        assert v.min_avg_radius_sq == min_avg_subset(base)[0]
        assert v.violation_base_indices == min_avg_subset(base)[1]

    def test_empty_base_passes(self):
        # a base code with no points left is an empty constellation
        cons = tile(FiniteCode(np.empty((0, 3)), 3, 3, 0.005, 1.0, None))
        v = verify_packing(cons, 1.5 * cons.period)
        assert v.passed and v.violation is None and v.violation_base_indices is None
        assert v.min_cross_half_dist_sq == math.inf and v.min_avg_radius_sq == math.inf
        assert v.window_points == 0 and v.same_tile_lists == 0

    def test_single_point_is_one_period_from_its_translates(self):
        # x = 0 and its translates k*period differ exactly, so D = period,
        # beyond the listing radius sqrt(2L*nN) = 0.3
        cons = tile(FiniteCode(np.zeros((1, 3)), 3, 3, 0.005, 1.0, None))
        v = verify_packing(cons, 1.5 * cons.period)
        assert v.passed and v.min_avg_radius_sq == math.inf
        assert cross_tile_min_sq_lattice(cons) == cons.period**2
        assert v.min_cross_half_dist_sq == math.inf
        # with the listing radius sqrt(8) past one period, D is reported
        wide = Constellation(FiniteCode(np.zeros((1, 1)), 1, 2, 2.0, 1.0, None), 0.1)
        assert verify_packing(wide, 0.5).min_cross_half_dist_sq == wide.period**2 / 4

    @pytest.mark.parametrize("M", [2, 3])
    def test_fewer_points_than_list_size(self, M):
        rng = np.random.default_rng(M)
        cons = tile(FiniteCode(rng.uniform(-1, 1, size=(M, 2)), 2, 4, 0.005, 1.0, None))
        v = verify_packing(cons, 1.5 * cons.period)
        assert v.min_avg_radius_sq == math.inf
        assert v.same_tile_lists == 0
        assert v.passed

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0])
    def test_rejects_bad_window_radius(self, radius):
        code = sample_code(n=3, L=3, N=0.005, K=1.0, rate_margin=-0.1, seed=0)
        cons = tile(expurgate(code, find_bad_lists(code)))
        with pytest.raises(ValueError, match="radius"):
            verify_packing(cons, radius)
        with pytest.raises(ValueError, match="radius"):
            enumerate_window(cons, np.zeros(3), radius)

    def test_rejects_non_finite_window_centre(self):
        cons = tile(code_1d([0.0], N=0.01, K=1.0))
        with pytest.raises(ValueError, match="centre"):
            enumerate_window(cons, [math.nan], 1.0)
        assert len(enumerate_window(cons, np.zeros(1), 0.0)) == 1


class TestDensityReport:
    def test_single_point_code_is_exact(self):
        # disjoint balls: covered fraction = ball volume / cell volume
        code = FiniteCode(points=np.zeros((1, 3)), n=3, L=2, N=0.02, K=1.0, seed=None)
        cons = Constellation(code, 0.5)
        rep = density_report(cons, 9.0, 200_000, seed=17)
        r = math.sqrt(3 * 0.02)
        ball = (4.0 / 3) * math.pi * r**3
        want = math.log(ball / cons.period**3) / 3
        assert rep.delta_ci_low - 0.02 <= want <= rep.delta_ci_high + 0.02
        assert rep.predicted_delta == pytest.approx(want, abs=0.05)

    def test_sandwich_at_small_dimension(self):
        code = sample_code(n=4, L=2, N=0.005, K=1.0, rate_margin=-0.1, seed=3)
        cons = tile(expurgate(code, find_bad_lists(code)))
        rep = density_report(cons, 25.0, 100_000, seed=11)
        assert rep.covered > 0
        assert abs(rep.delta_hat - rep.predicted_delta) <= 0.1

    def test_zero_coverage(self):
        code = FiniteCode(points=np.zeros((1, 2)), n=2, L=2, N=1e-8, K=1.0, seed=None)
        cons = Constellation(code, 0.5)
        rep = density_report(cons, 100.0, 2_000, seed=2)
        assert rep.covered == 0
        assert rep.delta_hat == -math.inf
        assert rep.delta_ci_high > -math.inf

    def test_reproducible(self):
        code = FiniteCode(points=np.zeros((1, 2)), n=2, L=2, N=0.05, K=1.0, seed=None)
        cons = Constellation(code, 0.5)
        a = density_report(cons, 4.0, 10_000, seed=6)
        b = density_report(cons, 4.0, 10_000, seed=6)
        assert a.covered == b.covered

    def test_covered_matches_full_ring_oracle(self):
        cases = []
        # the default gap exceeds sqrt(nN): only the base code can cover
        for n, L, seed in ((4, 2, 3), (3, 3, 1)):
            code = sample_code(n=n, L=L, N=0.005, K=1.0, rate_margin=-0.1, seed=seed)
            cases.append(tile(expurgate(code, find_bad_lists(code))))
        # gap = sqrt(nN) at L = 2 with points on the cube faces: the 2n face
        # neighbours are kept
        faces = np.array([[1.0, 0.2, -0.3], [-1.0, 0.5, 0.0], [0.1, 1.0, 0.4], [0.3, -1.0, -1.0], [0.0, 0.0, 1.0]])
        code = FiniteCode(faces, 3, 2, 0.05, 1.0, None)
        r_cov = math.sqrt(3 * 0.05)
        cases.append(Constellation(code, r_cov))
        # narrower gaps, which only the constructor accepts, keep the face,
        # edge and corner neighbours in turn
        cases += [Constellation(base=code, gap=f * r_cov) for f in (0.8, 0.6, 0.3)]
        for c in cases:
            rep = density_report(c, 9.0, 20_000, seed=5)
            assert rep.covered == ring_covered(c, 9.0, 20_000, 5)

    def test_high_dimension(self, monkeypatch):
        # at the default gap only the base code can cover a sample
        rng = np.random.default_rng(12)
        code = FiniteCode(rng.uniform(-1, 1, size=(1000, 12)), 12, 2, 0.1, 1.0, None)
        cons = tile(code)
        rep = density_report(cons, 0.3, 2_000, seed=4)
        samples = np.vstack(list(cell_samples(12, cons.period, math.sqrt(12 * 0.3), 2_000, 4)))
        d2 = ((samples[:, None, :] - code.points[None, :, :]) ** 2).sum(axis=2)
        assert rep.covered == int((d2.min(axis=1) <= 12 * 0.1).sum()) > 0
        # at gap 0.1 the cell keeps 381,320 translates from the 3^12 ring;
        # the walk goes point by point, so the report runs end to end, and
        # its count is that of the nearest translates: x + k*period nearest
        # y has k_i = round((y_i - x_i)/period) on each axis
        # (each sample's tree query over the ring's 12-D points takes ms,
        # so it runs on fewer samples)
        ring = Constellation(base=code, gap=0.1)
        rep = density_report(ring, 0.3, 400, seed=4)
        samples = np.vstack(list(cell_samples(12, ring.period, math.sqrt(12 * 0.3), 400, 4)))
        best = np.full(len(samples), np.inf)
        for x in np.array_split(code.points, 10):
            d = samples[:, None, :] - x[None, :, :]
            d -= np.round(d / ring.period) * ring.period
            np.minimum(best, np.einsum("ijk,ijk->ij", d, d).min(axis=1), out=best)
        assert rep.covered == int((best <= 12 * 0.1).sum()) > 0
        # the walk's rows only grow at half = period/2 >= K, so a budget
        # below the kept translates refuses the ring at its last step
        monkeypatch.setattr(construction, "WINDOW_BUDGET", 381_319)
        with pytest.raises(BudgetError, match="^381320 translates within reach on 12 of 12 axes"):
            density_report(ring, 0.3, 400, seed=4)

    # The cell index sends only rounding ties to the tree, so the counts are
    # equal to those of the tree alone, with and without the index; 6000
    # samples are one and a partial chunk.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_covered_equals_tree_oracle_on_expurgated_codes(self, n, L, monkeypatch):
        code = sample_code(n=n, L=L, N=0.005, K=1.0, rate_margin=-0.1, seed=10 * n + L)
        c = tile(expurgate(code, find_bad_lists(code)))
        rep = density_report(c, 9.0, 6_000, seed=5)
        assert rep.covered == tree_covered(c, 9.0, 6_000, 5)
        # a budget of the kept points alone leaves no room for the cells
        monkeypatch.setattr(construction, "WINDOW_BUDGET", c.base.M)
        r = math.sqrt(n * c.base.N)
        assert construction._cell_index(c.base.points, r, c.period / 2) is None
        assert density_report(c, 9.0, 6_000, seed=5).covered == rep.covered

    @pytest.mark.parametrize("factor", [1.0, 0.8, 0.6, 0.3])
    def test_covered_equals_tree_oracle_with_translates(self, factor, monkeypatch):
        # points on the cube's faces, edges and corners, so that the face,
        # edge and corner translates kept at narrower gaps reach into the cell
        rng = np.random.default_rng(21)
        pts = rng.uniform(-1.0, 1.0, size=(40, 3))
        pts[:30, :] = np.where(rng.random((30, 3)) < 0.5, np.sign(pts[:30, :]), pts[:30, :])
        pts[30:34] = [[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]]
        code = FiniteCode(pts, 3, 2, 0.05, 1.0, None)
        r_cov = math.sqrt(3 * 0.05)
        c = Constellation(base=code, gap=factor * r_cov)
        rep = density_report(c, 9.0, 20_001, seed=8)
        assert 0 < rep.covered == tree_covered(c, 9.0, 20_001, 8)
        # the budget counts the rows the walk holds, which only grow at half
        # = period/2 >= K, so the last step's are the kept translates, far
        # fewer than the points of their tiles: at that count the report is
        # the same, one below it is refused
        h = construction._cover_radius(r_cov)
        tiles = len(tile_offsets(c.period, c.period / 2 + 1.0, h, np.zeros(3), False))
        kept = len(construction._near_points(code.points, c.period, h, c.period / 2)[0])
        assert max(walk_step_rows(pts, c.period, h, c.period / 2, np.zeros(3), False)) == kept < tiles * 40 / 2
        monkeypatch.setattr(construction, "WINDOW_BUDGET", kept)
        assert density_report(c, 9.0, 20_001, seed=8).covered == rep.covered
        monkeypatch.setattr(construction, "WINDOW_BUDGET", kept - 1)
        with pytest.raises(BudgetError, match=rf"^{kept} translates within reach on 3 of 3 axes exceed the {kept - 1} point"):
            density_report(c, 9.0, 20_001, seed=8)

    def test_tie_band_decisions_equal_the_tree(self):
        # samples planted at r, r*(1 +- 1e-13) and r*(1 +- 1e-6) from base
        # points and from their face translates at gap = r: the index decides
        # the outer ones, the tree the ties, and every decision is the tree's
        faces = np.array([[1.0, 0.2, -0.3], [-1.0, 0.5, 0.0], [0.1, 1.0, 0.4], [0.3, -1.0, -1.0], [0.0, 0.0, 1.0]])
        code = FiniteCode(faces, 3, 2, 0.05, 1.0, None)
        r = math.sqrt(3 * 0.05)
        c = Constellation(base=code, gap=r)
        pts = (ring_offsets(3, 1)[:, None, :] * c.period + faces[None, :, :]).reshape(-1, 3)
        rng = np.random.default_rng(40)
        u = rng.standard_normal((len(pts), 64, 3))
        u /= np.linalg.norm(u, axis=2, keepdims=True)
        rho = r * np.array([1.0, 1 - 1e-13, 1 + 1e-13, 1 - 1e-6, 1 + 1e-6])
        y = (pts[:, None, None, :] + rho[None, None, :, None] * u[:, :, None, :]).reshape(-1, 3)
        y = y[np.abs(y).max(axis=1) <= c.period / 2]
        tree = cKDTree(pts)
        index = construction._cell_index(pts, r, c.period / 2)
        got = construction._covered(y, lambda: tree, index, r)
        want = tree.query(y, k=1)[0] <= r
        assert (got == want).all() and want.any() and not want.all()
        # the index misses no point within h, and ties reach the band
        d2 = index.min_sq(y)
        brute = ((y[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        near = brute <= (r * (1 + 1e-6)) ** 2
        assert np.allclose(d2[near], brute[near], rtol=1e-12, atol=0)
        assert (np.abs(d2 / (r * r) - 1) <= 1e-12).sum() > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_min_sq_equals_brute_force(self, n):
        # a sparse cloud, and far from it a clump of 12 points within 0.02
        # of one spot, numbered last: the rows of the cells around the clump
        # list exactly the clump, are the widest, and end with its last point
        rng = np.random.default_rng(60 + n)
        r, half = 0.25, 1.2
        pts = np.vstack([rng.uniform(0.1, 1.2, size=(10, n)), -0.9 + rng.uniform(-0.02, 0.02, size=(12, n))])
        index = construction._cell_index(pts, r, half)
        h = r * (1.0 + 1e-6)
        # stored column by column: column j of every row, row 0 all pad
        pad = index.table == len(pts)
        assert len(index.table) == 12 and (index.table[-1] == len(pts) - 1).sum() >= 2 ** n
        assert pad[:, 0].all() and pad[-1, 1:].any()
        # samples anywhere in the cell, within h of a point, and on every
        # point, which only its own table entry puts at distance 0
        u = rng.standard_normal((len(pts), 8, n))
        u *= h * rng.random((len(pts), 8, 1)) / np.linalg.norm(u, axis=2, keepdims=True)
        near = (pts[:, None, :] + u).reshape(-1, n)
        assert (index.min_sq(pts) == 0).all()
        for y in (rng.uniform(-half, half, size=(3000, n)), near, near[:1]):
            d2 = index.min_sq(y)
            brute = ((y[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2).min(axis=1)
            within = brute <= h * h
            assert np.array_equal(d2[within], brute[within])
            # the candidates are points: never nearer than the nearest, and
            # none in a cell farther than h from every point
            assert (d2 >= brute).all()
            assert np.isinf(d2[brute > (h + h * math.sqrt(n)) ** 2]).all()

    def test_table_wider_than_the_budget_is_refused(self, monkeypatch):
        # 22 cells, but a clump of 30 points makes a table of 33 x 17 entries
        rng = np.random.default_rng(71)
        pts = np.vstack([rng.uniform(-1.0, 1.0, size=(10, 1)), rng.uniform(-0.01, 0.01, size=(30, 1))])
        index = construction._cell_index(pts, 0.1, 1.0)
        assert index.slots.size < index.table.size
        monkeypatch.setattr(construction, "WINDOW_BUDGET", index.table.size)
        assert construction._cell_index(pts, 0.1, 1.0) is not None
        monkeypatch.setattr(construction, "WINDOW_BUDGET", index.table.size - 1)
        assert construction._cell_index(pts, 0.1, 1.0) is None

    def test_min_sq_chunk_without_hits(self):
        # every sample in the empty corner of the cell
        rng = np.random.default_rng(70)
        pts = rng.uniform(-1.0, -0.5, size=(30, 3))
        index = construction._cell_index(pts, 0.1, 1.2)
        y = rng.uniform(0.5, 1.2, size=(500, 3))
        assert np.isinf(index.min_sq(y)).all()
        assert np.isinf(index.min_sq(y[:1])).all() and index.min_sq(y[:0]).shape == (0,)

    def test_no_tree_unless_a_sample_ties(self, monkeypatch):
        # the golden (3,3) report below has no sample in the tie band, so no
        # KD-tree is built; without the index one tree serves every chunk
        import scipy.spatial

        code = sample_code(n=3, L=3, N=0.005, K=1.0, rate_margin=-0.1, seed=33)
        c = tile(expurgate(code, find_bad_lists(code)))
        built = []

        def counting(*args, **kwargs):
            built.append(len(args[0]))
            return cKDTree(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", counting)
        rep = density_report(c, 25.0, 30_000, seed=34)
        assert (rep.covered, repr(rep.delta_hat)) == (1794, "-0.9389165393418503") and built == []
        monkeypatch.setattr(construction, "WINDOW_BUDGET", c.base.M)
        assert density_report(c, 25.0, 30_000, seed=34).covered == 1794 and built == [c.base.M]

    # Chunks split over MULTIPACK_THREADS workers give the counts of one
    # worker: a (3,3) code on the cell index, with no sample in the tie band,
    # and the (6,3) seed-0 demo code (M = 5511), which has no index and sends
    # every sample to one tree, built before the workers start; 20_000
    # samples are five chunks, in runs of 1, 2 and 2 on three workers.
    @pytest.mark.parametrize("n, L, seed, indexed", [(3, 3, 1, True), (6, 3, 0, False)])
    def test_covered_is_worker_invariant(self, n, L, seed, indexed, monkeypatch):
        import scipy.spatial

        code = sample_code(n=n, L=L, N=0.005, K=1.0, rate_margin=-0.1, seed=seed)
        c = tile(expurgate(code, find_bad_lists(code)))
        r = math.sqrt(n * c.base.N)
        _, pts = construction._near_points(c.base.points, c.period, r * (1.0 + 1e-6), c.period / 2)
        assert (construction._cell_index(pts, r, c.period / 2) is not None) == indexed
        want = tree_covered(c, 25.0, 20_000, seed)
        built = []

        def counting(*args, **kwargs):
            built.append(len(args[0]))
            return cKDTree(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", counting)
        for threads in (None, "1", "2", "3"):
            if threads is None:
                monkeypatch.delenv("MULTIPACK_THREADS", raising=False)
            else:
                monkeypatch.setenv("MULTIPACK_THREADS", threads)
            built.clear()
            rep = density_report(c, 25.0, 20_000, seed=seed)
            assert (rep.covered, rep.delta_hat) == (want, math.log(want / 20_000) / n), threads
            assert built == ([] if indexed else [len(pts)]), threads

    # Seeded outputs pinned at the commit before the cell index: covered and
    # repr(delta_hat) must repeat to the bit, through the fold and the index.
    @pytest.mark.parametrize(
        "n, L, seed, covered, delta_hat",
        [
            (4, 2, 41, 197, "-1.256437232976576"),
            (2, 4, 24, 7093, "-0.7210444997211028"),
            (3, 3, 33, 1794, "-0.9389165393418503"),
            (5, 2, 52, 70, "-1.2120914837189867"),
        ],
    )
    def test_golden_seeded_reports(self, n, L, seed, covered, delta_hat):
        code = sample_code(n=n, L=L, N=0.005, K=1.0, rate_margin=-0.1, seed=seed)
        c = tile(expurgate(code, find_bad_lists(code)))
        rep = density_report(c, 25.0, 30_000, seed=seed + 1)
        assert (rep.covered, repr(rep.delta_hat)) == (covered, delta_hat)

    def test_golden_face_translates(self):
        faces = np.array([[1.0, 0.2, -0.3], [-1.0, 0.5, 0.0], [0.1, 1.0, 0.4], [0.3, -1.0, -1.0], [0.0, 0.0, 1.0]])
        c = Constellation(FiniteCode(faces, 3, 2, 0.05, 1.0, None), math.sqrt(3 * 0.05))
        rep = density_report(c, 9.0, 30_000, seed=5)
        assert (rep.covered, repr(rep.delta_hat)) == (1643, "-0.9682245142023415")

    def test_covered_equals_tree_oracle_on_projected_table(self):
        # at n = 8 the cells of side sqrt(nN) number more than WINDOW_BUDGET,
        # so there is no cell index and every sample goes to the tree
        rng = np.random.default_rng(30)
        code = FiniteCode(rng.uniform(0, 1, size=(2000, 8)), 8, 2, 0.015, 1.0, None)
        c = tile(code)
        assert (c.period / math.sqrt(8 * 0.015)) ** 8 > construction.WINDOW_BUDGET
        rep = density_report(c, 0.125, 20_000, seed=3)
        assert 0 < rep.covered == tree_covered(c, 0.125, 20_000, 3)

    def test_covered_equals_tree_oracle_without_table_axes(self):
        # one axis alone would need 6e9 cells: every sample goes to the tree
        code = code_1d([-1.0, 0.0, 0.3, 1.0], N=1e-19, K=1.0)
        c = tile(code)
        rep = density_report(c, 1.0, 5_000, seed=2)
        assert rep.covered == tree_covered(c, 1.0, 5_000, 2)

    @pytest.mark.parametrize(
        "P, mc_samples, match", [(9.0, 1e4, "mc_samples"), (9.0, 2500.5, "mc_samples"), (math.inf, 10_000, "P")]
    )
    def test_rejects_bad_sample_settings(self, P, mc_samples, match):
        cons = tile(code_1d([0.0], N=0.01, K=1.0))
        with pytest.raises(ValueError, match=match):
            density_report(cons, P, mc_samples, seed=0)

    @pytest.mark.parametrize("n, L, seed", [(3, 3, 7), (5, 2, 3)])
    def test_refuses_a_power_past_the_fold_rounding(self, n, L, seed):
        # at P = 1e31 rounding in the fold put samples past the cell index's
        # spare cell (an IndexError), and at P = 1e308 n*P overflows
        code = sample_code(n, L, 0.005, 1.0, -0.1, seed)
        c = tile(expurgate(code, find_bad_lists(code)))
        h = construction._cover_radius(math.sqrt(n * 0.005))
        r_max = (2.0**53 * (1 - 1e-6) * h - 1.01 * c.period) / 2.01
        for P in (1e31, 1e308, 1.0001 * r_max**2 / n):
            with pytest.raises(ValueError, match=r"^P must keep sqrt\(n\*P\) at most .*, got "):
                density_report(c, P, 20_000, 1)
        rep = density_report(c, 0.9999 * r_max**2 / n, 20_000, 1)
        assert 0 < rep.covered < rep.mc_samples

    def test_refuses_a_power_past_the_fold_rounding_with_no_index(self):
        # six axes of about 17 cells exceed WINDOW_BUDGET, so the tree
        # decides every sample; at P = 1e308 the samples were NaN
        cons = Constellation(FiniteCode(np.zeros((1, 6)), 6, 2, 0.005, 1.0, None), 0.5)
        _, pts = construction._near_points(cons.base.points, cons.period, math.sqrt(0.03), cons.period / 2)
        assert construction._cell_index(pts, math.sqrt(0.03), cons.period / 2) is None
        with pytest.raises(ValueError, match="^P must keep"):
            density_report(cons, 1e308, 1_000, 1)
        assert density_report(cons, 1e28, 1_000, 1).mc_samples == 1_000


class TestFiniteCodeValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FiniteCode(points=np.array([[0.1], [bad], [0.2]]), n=1, L=2, N=0.01, K=1.0, seed=0)

    @pytest.mark.parametrize("gap", [0.0, -0.1, math.nan, math.inf])
    def test_constellation_rejects_bad_gap(self, gap):
        with pytest.raises(ValueError, match="gap"):
            Constellation(base=code_1d([0.0], N=0.01), gap=gap)

    def test_rejects_out_of_cube(self):
        with pytest.raises(ValueError):
            FiniteCode(points=np.array([[1.5]]), n=1, L=2, N=0.01, K=1.0, seed=None)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            FiniteCode(points=np.zeros((3, 2)), n=3, L=2, N=0.01, K=1.0, seed=None)

    def test_immutable(self):
        code = code_1d([0.0, 1.0], N=0.01)
        with pytest.raises(ValueError):
            code.points[0, 0] = 9.0
