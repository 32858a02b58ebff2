import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from multipack import (
    BudgetError,
    ConvergenceWarning,
    ExponentQuery,
    TailEstimate,
    exponent_E,
    lambda_star,
    laplace_check,
    mc_tail,
    mgf_log,
    rate_function,
)
from multipack import deviation
from multipack.bounds import BoundQuery
from multipack.deviation import _mgf_log_derivatives, _shoulder_derivatives, cube_form_mean
from multipack.rng import CHUNK
from oracles import (
    mgf_log_panels,
    mgf_log_tensor,
    rate_function_golden,
    shoulder_integral_panels,
    tail_hits_two_sums,
)

# the analysis bench's rate_function grid
RATE_GRID = [(L, K, N) for L in (2, 3, 4, 5) for K in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
             for N in (0.005, 0.01, 0.02, 0.05)]


def with_warnings(f, *args):
    """f(*args) and the classes of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = f(*args)
    return value, [w.category for w in caught]


class TestMgfLog:
    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_against_dense_tensor_rule(self, L, lam):
        a = mgf_log(L, 1.0, lam, quad_order=64)
        b = mgf_log_tensor(L, 1.0, lam, quad_order=160)
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_two_list_triangular_oracle(self, lam):
        # at L=2 the centered form reduces to (t1-t2)^2/2; the difference of
        # two uniforms has the triangular density, so adaptive 1-D quadrature
        # gives an independent reference
        K = 1.0
        val, _ = integrate.quad(
            lambda u: math.exp(-lam * u * u / 2.0) * (2 * K - abs(u)) / (4 * K * K),
            -2 * K,
            2 * K,
            epsabs=1e-14,
            epsrel=1e-14,
        )
        assert mgf_log(2, K, lam, quad_order=64) == pytest.approx(math.log(val), abs=1e-12)

    def test_scale_parameter(self):
        a = mgf_log(3, 3.0, 0.7, quad_order=64)
        b = mgf_log_tensor(3, 3.0, 0.7, quad_order=160)
        assert a == pytest.approx(b, abs=1e-12)

    def test_zero_is_exact(self):
        assert mgf_log(4, 2.0, 0.0) == 0.0

    def test_nonpositive(self):
        # log E exp(-lam * nonneg form) <= 0 always
        for lam in np.geomspace(1e-6, 1e4, 12):
            assert mgf_log(3, 1.5, float(lam)) <= 0.0

    @given(st.floats(1e-3, 50.0), st.floats(0.2, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_lambda(self, lam, K):
        assert mgf_log(2, K, lam * 1.5) <= mgf_log(2, K, lam) + 1e-12

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            mgf_log(2, 1.0, 1.0, quad_order=8)

    @pytest.mark.parametrize("L", [2.5, 1, 0])
    def test_rejects_invalid_list_size(self, L):
        # malformed input is a ValueError, not a budget to fall back from
        with pytest.raises(ValueError, match="L must be an integer >= 2"):
            mgf_log(L, 1.0, 1.0)

    def test_list_size_budget(self):
        # only the tensor oracle has a budget; mgf_log's 1-D integral serves
        # every L
        with pytest.raises(BudgetError):
            mgf_log_tensor(4, 1.0, 1.0, quad_order=100)  # 100^4 nodes

    def test_refinement_warning(self):
        with pytest.warns(ConvergenceWarning):
            mgf_log(2, 1.0, 5e6, quad_order=16)

    def test_refinement_warning_repeats(self):
        # the quadrature keeps its last result, but the two-rule check sits
        # above that memo, so a repeated call warns again
        first = with_warnings(mgf_log, 2, 1.0, 5e6, 16)
        assert first[1] == [ConvergenceWarning]
        assert with_warnings(mgf_log, 2, 1.0, 5e6, 16) == first

    @pytest.mark.parametrize("order", [16, 64, 96])
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_per_panel_oracle(self, L, order):
        # the panels switch from 4 equal ones to 3 shoulder-pinned ones where
        # the shoulder half-width 8/sqrt(c) drops below 0.5, i.e. at c = 256
        for c in (1e-3, 0.7, 40.0, 255.0, 256.0, 257.0, 5e3, 1e6, 5e8):
            assert _shoulder_derivatives(L, c, order)[:2] == (
                shoulder_integral_panels(L, c, order),
                shoulder_integral_panels(L, c, 2 * order),
            )
        for K, lam in ((1.0, 0.3), (2.0, 16.0), (0.5, 1030.0), (4.0, 1e3), (1.0, 5e6)):
            assert with_warnings(mgf_log, L, K, lam, order) == with_warnings(
                mgf_log_panels, L, K, lam, order
            )

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_derivatives_match_central_differences(self, L):
        # psi' = -L*N - dm/dlam and psi'' = -d2m/dlam2, so the quadrature's
        # derivatives of m = mgf_log are checked; five-point stencils at a
        # step of 1% of max(lam, 0.01), which keeps the rounding of m's O(10)
        # terms below 1e-6 of the second difference at c = 1e-3
        for c in (1e-3, 0.7, 40.0, 255.0, 256.0, 257.0, 5e3, 1e6):
            for K in (1.0, 2.0):
                lam = c / (K * K)
                value, d1, d2 = _mgf_log_derivatives(L, K, lam, 64)
                assert value == mgf_log(L, K, lam, 64)
                h = 0.01 * max(lam, 0.01)
                fm2, fm1, f0, fp1, fp2 = (mgf_log(L, K, lam + j * h, 64) for j in (-2, -1, 0, 1, 2))
                assert d1 == pytest.approx((fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h), rel=1e-6)
                assert d2 == pytest.approx((-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h), rel=1e-4)

    # the last two have finite K and lam, but c = K^2 * lam overflows to inf
    # or underflows to 0
    @pytest.mark.parametrize(
        "K, lam",
        [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf), (1e200, 1.0), (1e-200, 1e-200)],
    )
    def test_rejects_non_finite_arguments(self, K, lam):
        with pytest.raises(ValueError, match="finite"):
            mgf_log(3, K, lam)


class TestLaplace:
    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_asymptotic_ratio(self, L):
        r4 = laplace_check(L, 1.0, 1e4, quad_order=96).ratio
        r6 = laplace_check(L, 1.0, 1e6, quad_order=96).ratio
        assert abs(r4 - 1.0) <= 0.02
        assert abs(r6 - 1.0) <= 0.003
        # convergence is from below and improves with the argument
        assert abs(r6 - 1.0) < abs(r4 - 1.0)

    @pytest.mark.parametrize(
        "K, lam, match", [(1.0, math.inf, "finite"), (math.inf, 1.0, "finite"), (1.0, math.nan, "positive")]
    )
    def test_rejects_non_finite_arguments(self, K, lam, match):
        with pytest.raises(ValueError, match=match):
            laplace_check(3, K, lam)

    @pytest.mark.parametrize("order", [64, 96])
    def test_at_the_rate_optimum_reuses_the_last_quadrature(self, order, monkeypatch):
        # rate_function's last Newton step integrates at c = K^2 lambda_opt,
        # so laplace_check there computes no nodes, and gives the ratio a
        # fresh quadrature gives
        nodes, calls = deviation._shoulder_nodes, []

        def counting(*args):
            calls.append(args)
            return nodes(*args)

        monkeypatch.setattr(deviation, "_shoulder_nodes", counting)
        for L, K, N in RATE_GRID[::5]:
            lam = rate_function(L, K, N, order).lambda_opt
            calls.clear()
            check = laplace_check(L, K, lam, order)
            assert calls == []
            _shoulder_derivatives.cache_clear()
            assert laplace_check(L, K, lam, order) == check
            assert len(calls) == 1

    @pytest.mark.parametrize("L", [6, 7, 8])
    def test_large_lists_at_large_scale(self, L):
        # beyond the bench's L <= 5, at K = 32: the rate is within 1e-3 of
        # the closed-form exponent (4.9e-4 measured), and the Laplace ratio
        # at the optimum approaches 1 from below, with both quadrature orders
        # agreeing to 1e-9 at every evaluation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for N in (0.005, 0.01, 0.02, 0.05):
                res = rate_function(L, 32.0, N, quad_order=96)
                E = exponent_E(ExponentQuery(N=N, L=L, K=32.0))
                assert abs(res.rate - E) <= 1e-3 * E
                ratio = laplace_check(L, 32.0, res.lambda_opt, quad_order=96).ratio
                assert 0.0 < 1.0 - ratio <= 0.02


class TestRateFunction:
    def test_matches_closed_form_at_large_scale(self):
        for L in (2, 3):
            res = rate_function(L, 8.0, 0.01, quad_order=96)
            E = exponent_E(ExponentQuery(N=0.01, L=L, K=8.0))
            assert abs(res.rate - E) / E <= 0.03

    def test_optimal_point_near_gaussian_value(self):
        for L in (2, 3):
            res = rate_function(L, 16.0, 0.01, quad_order=96)
            ls = lambda_star(BoundQuery(N=0.01, L=L))
            assert abs(res.lambda_opt - ls) / ls <= 0.05

    def test_rate_value_is_consistent(self):
        res = rate_function(2, 2.0, 0.1, quad_order=64)
        want = -(res.lambda_opt * 2 * 0.1 + res.mgf_log_at_opt)
        assert res.rate == pytest.approx(want, abs=1e-12)
        assert res.rate > 0

    def test_not_rare_regime_rejected(self):
        with pytest.raises(ValueError, match="not rare"):
            rate_function(2, 1.0, 0.17)

    @pytest.mark.parametrize(
        "K, N, match",
        [
            (math.inf, 0.01, "finite"),
            (math.nan, 0.01, "positive"),
            (1.0, math.nan, "positive"),
            (1e200, 0.01, "positive finite"),  # K^2 * lam overflows in the bracket search
        ],
    )
    def test_rejects_non_finite_arguments(self, K, N, match):
        with pytest.raises(ValueError, match=match):
            rate_function(3, K, N)

    def test_boundary_rate_vanishes(self):
        res = rate_function(2, 1.0, 0.1666, quad_order=64)
        assert 0 <= res.rate < 1e-6

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    @pytest.mark.parametrize("K", [0.5, 1.0, 2.0, 8.0])
    def test_rate_is_zero_at_the_mean(self, L, K):
        # Jensen: psi(lam) <= lam * (mean - L*N) = 0 at L*N = mean
        res = rate_function(L, K, cube_form_mean(L, K) / L)
        assert (res.rate, res.lambda_opt, res.mgf_log_at_opt) == (0.0, 0.0, 0.0)

    @staticmethod
    def assert_matches_golden(L, K, N):
        res = rate_function(L, K, N, quad_order=96)
        ref = rate_function_golden(L, K, N, quad_order=96)
        assert res.rate == pytest.approx(ref.rate, rel=1e-12, abs=1e-15)
        assert res.lambda_opt == pytest.approx(ref.lambda_opt, rel=1e-6)
        assert res.rate == pytest.approx(-(res.lambda_opt * L * N + res.mgf_log_at_opt), rel=1e-12)
        # derived from the optimum value, yet the quadrature at lambda_opt
        assert res.mgf_log_at_opt == pytest.approx(mgf_log(L, K, res.lambda_opt, 96), abs=1e-12)
        return res

    def test_matches_golden_section_on_bench_grid(self):
        # the flat maximum leaves lambda_opt resolved to about 1e-7 relative
        # by either search; the rate agrees to rounding
        evaluations = [self.assert_matches_golden(L, K, N).iterations for L, K, N in RATE_GRID]
        assert max(evaluations) <= 30

    def test_matches_golden_section_at_random_points(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            L = int(rng.integers(2, 6))
            K = float(np.exp(rng.uniform(math.log(0.3), math.log(40.0))))
            N = cube_form_mean(L, K) / L * float(np.exp(rng.uniform(math.log(1e-4), math.log(0.999))))
            self.assert_matches_golden(L, K, N)

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_near_the_mean(self, L):
        # at N = mean/L * (1 - 10^-k), lambda_opt ~ 10^-k and the rate ~ 10^-2k
        # sinks into the rounding of mgf_log's terms, which no search can
        # resolve; the search must still end cleanly, at a rate >= 0 within
        # Jensen's bound
        for k in range(2, 9):
            N = cube_form_mean(L, 1.0) / L * (1.0 - 10.0**-k)
            res, caught = with_warnings(rate_function, L, 1.0, N, 96)
            assert caught == []
            assert math.isfinite(res.rate) and res.rate >= 0.0
            assert res.rate <= res.lambda_opt * (cube_form_mean(L, 1.0) - L * N)
            if res.rate > 1e-12:
                # the searches end at different lambda, and each evaluation of
                # mgf_log there rounds terms of up to 30 (ln c is -13 at k = 6):
                # the rates agree to 8 units in the last place of 30
                ref = rate_function_golden(L, 1.0, N, quad_order=96)
                assert res.rate == pytest.approx(ref.rate, rel=1e-12, abs=8 * math.ulp(30.0))

    def test_unconverged_search_warns(self, monkeypatch):
        monkeypatch.setattr(deviation, "RATE_MAX_STEPS", 1)
        with pytest.warns(ConvergenceWarning, match="rate search"):
            rate_function(3, 4.0, 0.01)

    def test_cube_form_mean(self):
        # E (t - tbar)^2 summed over the list, per coordinate
        assert cube_form_mean(2, 1.0) == pytest.approx(1.0 / 3, rel=1e-12)
        assert cube_form_mean(3, 2.0) == pytest.approx(4.0 * 2 / 3, rel=1e-12)
        rng = np.random.default_rng(0)
        t = rng.uniform(-2.0, 2.0, size=(200000, 3))
        emp = np.mean(np.sum((t - t.mean(axis=1, keepdims=True)) ** 2, axis=1))
        assert emp == pytest.approx(cube_form_mean(3, 2.0), rel=0.01)


class TestMcTail:
    def test_exact_triangular_point(self):
        # P(|U1 - U2| <= 0.4) = 0.4 - 0.4^2/4 = 0.36 for uniforms on [-1, 1]
        est = mc_tail(L=2, n=1, K=1.0, N=0.04, samples=10**6, seed=42)
        sigma = math.sqrt(0.36 * 0.64 / 10**6)
        assert abs(est.p_hat - 0.36) <= 3 * sigma
        assert est.ci_low <= est.p_hat <= est.ci_high
        assert est.exponent_hat == pytest.approx(-math.log(est.p_hat), rel=1e-12)

    def test_worker_invariance(self, monkeypatch):
        kw = dict(L=2, n=16, K=1.0, N=0.05, samples=30_000, seed=99)
        hits = set()
        for w in (1, 2, 3, 7):
            monkeypatch.setenv("MULTIPACK_THREADS", str(w))
            hits.add(mc_tail(**kw).hits)
        assert len(hits) == 1

    def test_seed_changes_stream(self):
        a = mc_tail(L=2, n=8, K=1.0, N=0.05, samples=20_000, seed=1)
        b = mc_tail(L=2, n=8, K=1.0, N=0.05, samples=20_000, seed=2)
        assert a.hits != b.hits

    def test_finite_size_bias_decays(self, monkeypatch):
        # the estimated exponent approaches the quadrature rate from above
        monkeypatch.setenv("MULTIPACK_THREADS", "2")
        N = 0.14
        rate = rate_function(2, 1.0, N, quad_order=96).rate
        prev = None
        prev_w = 0.0
        for n in (32, 64, 128):
            est = mc_tail(L=2, n=n, K=1.0, N=N, samples=200_000, seed=5)
            assert est.hits > 0
            w = (math.log(est.ci_high) - math.log(est.ci_low)) / n
            assert est.exponent_hat >= rate
            if prev is not None:
                assert est.exponent_hat <= prev + prev_w + w
            prev, prev_w = est.exponent_hat, w

    def test_zero_hits_one_sided(self, monkeypatch):
        monkeypatch.setenv("MULTIPACK_THREADS", "2")
        est = mc_tail(L=2, n=128, K=2.0, N=0.3643, samples=50_000, seed=0)
        assert est.hits == 0
        assert est.p_hat == 0.0
        assert est.ci_low == 0.0
        assert 0 < est.ci_high < 1e-4
        # reported exponent is the bound implied by the CI ceiling
        assert est.exponent_hat == pytest.approx(-math.log(est.ci_high) / 128, rel=1e-12)

    def test_csv_row(self):
        est = mc_tail(L=2, n=4, K=1.0, N=0.01, samples=10_000, seed=7)
        assert TailEstimate.CSV_HEADER == "L,n,K,N,samples,hits,p_hat,exponent_hat,ci_low,ci_high,seed"
        row = est.csv_row()
        parts = row.split(",")
        assert len(parts) == 11
        assert parts[0] == "2" and parts[1] == "4" and parts[-1] == "7"
        assert float(parts[6]) == est.p_hat

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_tail(L=2, n=1, K=1.0, N=0.04, samples=10, seed=0)
        with pytest.raises(ValueError):
            mc_tail(L=1, n=1, K=1.0, N=0.04, samples=5000, seed=0)
        with pytest.raises(ValueError):
            mc_tail(L=2, n=1, K=1.0, N=0.04, samples=5000, seed=-3)

    @pytest.mark.parametrize(
        "kw",
        [dict(K=math.inf), dict(N=math.inf), dict(K=math.nan), dict(L=2.5), dict(n=2.5), dict(n=math.inf)],
    )
    def test_rejects_degenerate_arguments(self, kw):
        args = dict(L=2, n=4, K=1.0, N=0.04, samples=5000, seed=0) | kw
        with pytest.raises(ValueError):
            mc_tail(**args)

    @pytest.mark.parametrize("samples", [1e4, 2500.5, math.inf])
    def test_rejects_non_integer_samples(self, samples):
        with pytest.raises(ValueError, match="samples"):
            mc_tail(L=2, n=4, K=1.0, N=0.04, samples=samples, seed=0)

    @pytest.mark.parametrize(
        "L, n", [(L, n) for L in (2, 3, 4, 5) for n in (1, 8, 129)] + [(3, 16), (2, 300)]
    )
    def test_hits_match_two_sum_oracle(self, L, n, monkeypatch):
        # N at the mean of the form puts p near 1/2, so every sample counts;
        # n = 300 spans three coordinate blocks, 9000 samples three chunks;
        # the sampler adds each list's points one by one, the oracle takes
        # numpy's sum over the list axis
        monkeypatch.setenv("MULTIPACK_THREADS", "2")
        N = cube_form_mean(L, 1.0) / L
        est = mc_tail(L=L, n=n, K=1.0, N=N, samples=9000, seed=3)
        assert 0 < est.hits < est.samples
        assert est.hits == tail_hits_two_sums(L, n, 1.0, N, 9000, 3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hits_match_two_sum_oracle_at_other_K(self, workers, monkeypatch):
        # the in-place scaling of the standard uniforms must equal
        # rng.uniform(-K, K) bit for bit at a K whose 2K is not a power of 2;
        # one thread reuses its buffer for all three chunks, the last partial
        monkeypatch.setenv("MULTIPACK_THREADS", str(workers))
        N = cube_form_mean(2, 0.7) / 2
        est = mc_tail(L=2, n=300, K=0.7, N=N, samples=9000, seed=5)
        assert 0 < est.hits < est.samples
        assert est.hits == tail_hits_two_sums(2, 300, 0.7, N, 9000, 5)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_stays_within_slices(self, workers, monkeypatch):
        # a whole (5, 128) block for a chunk would be 4096 * 5 * 128 floats,
        # 21 MB; slices of 2^15 floats keep a call far below 2 MB
        monkeypatch.setenv("MULTIPACK_THREADS", str(workers))
        tracemalloc.start()
        try:
            mc_tail(5, 128, 1.0, 0.2, 2 * CHUNK, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_probability_scales_with_threshold(self):
        small = mc_tail(L=2, n=2, K=1.0, N=0.01, samples=100_000, seed=4)
        large = mc_tail(L=2, n=2, K=1.0, N=0.04, samples=100_000, seed=4)
        assert small.p_hat < large.p_hat
