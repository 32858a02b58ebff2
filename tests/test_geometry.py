import math
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multipack import (
    AVG_FORMULAS,
    BudgetError,
    ConvergenceWarning,
    PointList,
    SimplexWeights,
    avg_sq_radius,
    avg_sq_radius_spherical,
    chebyshev_radius,
    pairwise_sq_dists,
    quadratic_form_g,
    rad_p,
    spectral_pair,
)
from multipack import geometry
from oracles import (
    chebyshev_radius_active,
    chebyshev_radius_exact,
    chebyshev_radius_fw,
    rad_p_descent,
    rad_p_mean,
)


def oracle_lists(seed, count):
    """Random lists with L = 2..8 and n = 1..6, every fourth with its last
    point a copy of its first."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        X = rng.normal(size=(2 + k % 7, 1 + (k // 7) % 6)) * rng.uniform(0.2, 4.0)
        if k % 4 == 0:
            X[-1] = X[0]
        yield PointList(X)


def sweep_lists():
    """200 Gaussian lists with L = 2..8 and n = 1..7."""
    rng = np.random.default_rng(7)
    lists = []
    for _ in range(200):
        L, n = int(rng.integers(2, 9)), int(rng.integers(1, 8))
        lists.append(PointList(rng.normal(size=(L, n))))
    return lists


def hard_lists(seed, count):
    """Lists with L = 2..12 and n = 1..6 (so often L > n + 1), cycling
    through plain Gaussian, repeated points, collinear, cospherical and
    integer-grid lists (exact affine dependences and ties)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        L = int(rng.integers(2, 13))
        n = int(rng.integers(1, 7))
        kind = k % 5
        if kind == 0:
            X = rng.normal(size=(L, n)) * rng.uniform(0.2, 4.0)
        elif kind == 1:
            X = rng.normal(size=(L, n))
            X[L // 2 :] = X[0]
        elif kind == 2:
            X = np.outer(rng.normal(size=L), rng.normal(size=n)) + rng.normal(size=n)
        elif kind == 3:
            X = rng.normal(size=(L, n))
            X = 2.5 * X / np.linalg.norm(X, axis=1)[:, None] + rng.normal(size=n)
        else:
            X = rng.integers(-2, 3, size=(L, n)).astype(float)
        yield PointList(X)


def random_list(rng, L=None, n=None, scale=None):
    L = L or int(rng.integers(2, 9))
    n = n or int(rng.integers(1, 17))
    scale = scale or rng.uniform(0.2, 4.0)
    return PointList(rng.normal(size=(L, n)) * scale)


@st.composite
def point_lists(draw):
    L = draw(st.integers(2, 6))
    n = draw(st.integers(1, 8))
    flat = draw(
        st.lists(
            st.floats(-50, 50, allow_nan=False, width=32),
            min_size=L * n,
            max_size=L * n,
        )
    )
    return PointList(np.array(flat, dtype=float).reshape(L, n))


class TestPointList:
    def test_validation(self):
        with pytest.raises(ValueError):
            PointList(np.zeros((1, 3)))  # L >= 2
        with pytest.raises(ValueError):
            PointList(np.zeros((3,)))  # needs 2-D
        with pytest.raises(ValueError):
            PointList(np.array([[0.0, np.nan], [1.0, 2.0]]))

    def test_radii_refuse_coordinates_past_2_400(self):
        # 1e200 apart the squared distances overflow: every radius came out
        # inf or nan, and rad_p ran for minutes; the list itself, which
        # point files carry, holds any finite doubles
        ok = PointList(np.array([[0.0, 1.0], [2.0**400, 1.0]]))
        assert rad_p(ok, 2.0) == pytest.approx(2.0**798, rel=1e-9)
        for big in (np.nextafter(2.0**400, math.inf), 1e200, -1e300):
            pl = PointList(np.array([[0.0, 1.0], [big, 1.0]]))
            for radius in [lambda pl, f=f: avg_sq_radius(pl, f) for f in AVG_FORMULAS] + [chebyshev_radius, lambda pl: rad_p(pl, 2.0)]:
                with pytest.raises(ValueError, match="at most 2\\^400 in magnitude"):
                    radius(pl)

    def test_immutable(self):
        pl = PointList(np.ones((2, 3)))
        with pytest.raises(ValueError):
            pl.points[0, 0] = 5.0


class TestSimplexWeights:
    def test_validation(self):
        SimplexWeights(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            SimplexWeights(np.array([0.7, 0.5]))
        with pytest.raises(ValueError):
            SimplexWeights(np.array([-0.1, 1.1]))


class TestAvgSqRadius:
    def test_formulas_agree_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pl = random_list(rng)
            vals = [avg_sq_radius(pl, f) for f in AVG_FORMULAS]
            ref = vals[0]
            scale = max(abs(ref), 1.0)
            for v in vals[1:]:
                assert abs(v - ref) <= 1e-10 * scale

    @given(point_lists())
    @settings(max_examples=60, deadline=None)
    def test_formulas_agree_property(self, pl):
        vals = [avg_sq_radius(pl, f) for f in AVG_FORMULAS]
        scale = max(abs(vals[0]), 1.0)
        assert max(vals) - min(vals) <= 1e-9 * scale

    def test_two_point_quarter_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pl = random_list(rng, L=2)
            d2 = float(np.sum((pl.points[0] - pl.points[1]) ** 2))
            assert avg_sq_radius(pl, "centroid") == pytest.approx(d2 / 4, rel=1e-12, abs=1e-12)

    def test_translation_invariant(self):
        rng = np.random.default_rng(11)
        pl = random_list(rng, L=5, n=4)
        shifted = PointList(pl.points + 17.5)
        a = avg_sq_radius(pl, "pairwise")
        b = avg_sq_radius(shifted, "pairwise")
        assert a == pytest.approx(b, rel=1e-9)

    def test_unknown_formula(self):
        pl = PointList(np.zeros((2, 1)))
        with pytest.raises(ValueError):
            avg_sq_radius(pl, "nope")

    def test_spherical_matches_centroid_form(self):
        rng = np.random.default_rng(5)
        n, P = 6, 2.0
        for L in (2, 4, 7):
            x = rng.normal(size=(L, n))
            x *= np.sqrt(n * P) / np.linalg.norm(x, axis=1, keepdims=True)
            pl = PointList(x)
            assert avg_sq_radius_spherical(pl, P) == pytest.approx(
                avg_sq_radius(pl, "centroid"), rel=1e-9
            )

    def test_spherical_rejects_off_sphere_naming_index(self):
        x = np.ones((3, 4)) / 2.0  # norm^2 = 1, n*P = 4*0.25 = 1
        x[2] *= 1.5
        with pytest.raises(ValueError, match="point 2"):
            avg_sq_radius_spherical(PointList(x), 0.25)


class TestPairwise:
    def test_matches_loops(self):
        rng = np.random.default_rng(2)
        pl = random_list(rng, L=6, n=3)
        D = pairwise_sq_dists(pl.points)
        for i in range(6):
            for j in range(6):
                want = float(np.sum((pl.points[i] - pl.points[j]) ** 2))
                assert D[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestSpectralPair:
    def test_structure_all_sizes(self):
        for L in range(2, 17):
            sp = spectral_pair(L)
            eye = np.eye(L)
            A = eye - np.ones((L, L)) / L
            assert np.max(np.abs(sp.A - A)) <= 1e-15
            assert np.max(np.abs(sp.U.T @ sp.U - eye)) <= 1e-12
            assert np.max(np.abs(sp.U @ sp.D @ sp.U.T - sp.A)) <= 1e-12
            d = np.diag(sp.D)
            assert np.all(d[:-1] == 1.0) and d[-1] == 0.0
            # the kernel direction has l1 norm sqrt(L): the slab width seen
            # along it by the unit cube is 2*sqrt(L)
            assert np.abs(sp.U[:, -1]).sum() == pytest.approx(np.sqrt(L), rel=1e-12)

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(9)
        for L in (2, 3, 5, 8):
            sp = spectral_pair(L)
            for _ in range(20):
                t = rng.uniform(-3, 3, size=L)
                direct = float(t @ sp.A @ t)
                centered = float(np.sum((t - t.mean()) ** 2))
                assert quadratic_form_g(t) == pytest.approx(direct, rel=1e-12, abs=1e-12)
                assert quadratic_form_g(t) == pytest.approx(centered, rel=1e-12, abs=1e-12)


class TestChebyshev:
    def test_two_points(self):
        pl = PointList(np.array([[0.0, 0.0], [2.0, 0.0]]))
        res = chebyshev_radius(pl)
        assert res.radius_sq == pytest.approx(1.0, abs=1e-9)
        assert res.center == pytest.approx([1.0, 0.0], abs=1e-6)

    def test_equilateral_triangle(self):
        # circumradius of side-s equilateral triangle is s/sqrt(3)
        s = 2.0
        pts = np.array([[0.0, 0.0], [s, 0.0], [s / 2, s * np.sqrt(3) / 2]])
        res = chebyshev_radius(PointList(pts))
        assert res.radius_sq == pytest.approx(s * s / 3, rel=1e-8)

    def test_interior_point_inactive(self):
        # the centroid of a triangle never supports the enclosing ball
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0 / 3, 4.0 / 3]])
        res = chebyshev_radius(PointList(pts))
        assert res.radius_sq == pytest.approx(8.0, rel=1e-8)
        assert res.weights.z[3] <= 1e-9

    def test_certificates(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            pl = random_list(rng, n=int(rng.integers(1, 6)))
            res = chebyshev_radius(pl)
            assert res.lower <= res.upper + 1e-12
            assert res.gap <= 1e-9
            assert res.converged
            w = res.weights.z
            assert np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9
            assert res.radius_sq == res.upper

    def test_matches_exact_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            L = int(rng.integers(2, 9))
            n = int(rng.integers(1, 6))
            pl = PointList(rng.normal(size=(L, n)) * rng.uniform(0.5, 3.0))
            res = chebyshev_radius(pl)
            ex, center = chebyshev_radius_exact(pl)
            assert res.radius_sq == pytest.approx(ex, rel=1e-6, abs=1e-9)
            # the exact center must cover every point at the exact radius
            d2 = np.max(np.sum((pl.points - center) ** 2, axis=1))
            assert d2 <= ex * (1 + 1e-9) + 1e-12

    def test_sandwich(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            pl = random_list(rng)
            avg = avg_sq_radius(pl, "centroid")
            res = chebyshev_radius(pl)
            centroid = pl.points.mean(axis=0)
            maxd2 = float(np.max(np.sum((pl.points - centroid) ** 2, axis=1)))
            assert avg <= res.radius_sq + 1e-9 * max(1.0, avg)
            assert res.radius_sq <= maxd2 + 1e-9 * max(1.0, maxd2)

    def test_exact_budget(self):
        pl = PointList(np.zeros((13, 2)))
        with pytest.raises(BudgetError):
            chebyshev_radius_exact(pl)

    def test_duplicate_points(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 1.0]])
        res = chebyshev_radius(PointList(pts))
        assert res.radius_sq == pytest.approx(1.0, abs=1e-9)

    def test_matches_active_set_oracle(self):
        # the away vertex from argmin over a masked gap vector is the one
        # argmin picks among the active indices, so every iterate is equal
        for pl in oracle_lists(5, 280):
            res = chebyshev_radius_fw(pl)
            radius_sq, lower, center, z, iterations = chebyshev_radius_active(pl)
            assert (res.radius_sq, res.lower, res.iterations) == (radius_sq, lower, iterations)
            assert np.array_equal(res.center, center)
            assert np.array_equal(res.weights.z, z)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, 1e-9])
    def test_rejects_bad_tol(self, tol):
        # the tolerance is geometry.TOL, so no value is accepted, not even it
        with pytest.raises(TypeError, match="tol"):
            chebyshev_radius(PointList(np.eye(2)), tol=tol)

    @pytest.mark.parametrize("max_iters", [-1, 2.5, 10.0, "3", 100])
    def test_rejects_bad_max_iters(self, max_iters):
        # the step cap is fixed, so no value is accepted, not even a count
        with pytest.raises(TypeError, match="max_iters"):
            chebyshev_radius(PointList(np.eye(2)), max_iters=max_iters)

    def test_step_cap_warns_and_still_encloses(self, monkeypatch):
        # with no major step left the solver stops on its first support, the
        # point farthest from the centroid: unconverged, but upper is still
        # the largest squared distance from the returned center
        rng = np.random.default_rng(55)
        lists = [random_list(rng) for _ in range(30)]
        exact = [chebyshev_radius(pl).upper for pl in lists]
        monkeypatch.setattr(geometry, "CHEB_STEPS", 0)
        for pl, r in zip(lists, exact):
            with pytest.warns(ConvergenceWarning, match="after 0 iterations"):
                res = chebyshev_radius(pl)
            assert not res.converged and res.iterations == 0
            d = ((pl.points - res.center) ** 2).sum(axis=1)
            assert d.max() <= res.upper * (1 + 1e-12)
            assert res.lower <= r * (1 + 1e-12) and r <= res.upper

    def test_one_factorization_per_support(self, monkeypatch):
        # the hull test and the circumcentre of a new support share one QR;
        # only a face step, which changes the support, factors again
        qr, factored = np.linalg.qr, []

        def recording(B, mode):
            factored[-1].append((B.shape, B.tobytes()))
            return qr(B, mode)

        monkeypatch.setattr(np.linalg, "qr", recording)
        for pl in oracle_lists(9, 140):
            factored.append([])
            chebyshev_radius(pl)
            assert len(set(factored[-1])) == len(factored[-1])
        assert sum(map(len, factored)) >= 140

    def test_round_off_stop_keeps_the_solution(self, monkeypatch):
        # a tolerance below round-off cannot be met; the solver stops once the
        # farthest point is already in the support, where TOL = 1e-9
        # converged, instead of stepping on round-off
        rng = np.random.default_rng(0)
        for _ in range(60):
            pl = PointList(rng.normal(size=(int(rng.integers(3, 13)), int(rng.integers(1, 7)))))
            ref = chebyshev_radius(pl)
            with warnings.catch_warnings(record=True) as caught, monkeypatch.context() as m:
                warnings.simplefilter("always")
                m.setattr(geometry, "TOL", 1e-300)
                res = chebyshev_radius(pl)
            assert res.converged == (not caught)
            if caught:
                assert issubclass(caught[0].category, ConvergenceWarning)
                assert res.gap <= 1e-12 * res.upper
            d = ((pl.points - res.center) ** 2).sum(axis=1)
            assert d.max() <= res.upper * (1 + 1e-12)
            assert res.upper == pytest.approx(ref.upper, rel=1e-12)

    def test_property_lists(self):
        # exact to round-off on degenerate lists too: the certificate closes,
        # the radius is the exhaustive oracle's, and every point strictly
        # inside the ball has weight exactly 0
        for pl in hard_lists(31, 150):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = chebyshev_radius(pl)
            assert res.converged
            assert 0.0 <= res.gap <= 1e-12 * max(1.0, res.upper)
            if min(pl.L, pl.n + 1) <= 6:
                ex, _ = chebyshev_radius_exact(pl)
                assert res.radius_sq == pytest.approx(ex, rel=1e-12, abs=1e-300)
            d2 = np.sum((pl.points - res.center) ** 2, axis=1)
            assert np.all(res.weights.z[d2 < res.upper * (1 - 1e-9)] == 0.0)
            assert max(d2) <= res.radius_sq * (1 + 1e-12)

    def test_within_conditional_gradient_gap(self):
        # the first-order solver's certificate brackets the exact answer, up
        # to the round-off of evaluating that certificate
        for pl in oracle_lists(5, 140):
            res = chebyshev_radius(pl)
            fw = chebyshev_radius_fw(pl)
            assert fw.converged
            assert abs(res.radius_sq - fw.radius_sq) <= fw.gap + 1e-14 * max(1.0, fw.upper)

    @pytest.mark.parametrize("offset", [1e4, 1e8])
    def test_translation_invariance(self, offset):
        # the points sit at exact offsets; |x|^2 - 2 x.y + |y|^2 on the raw
        # coordinates cancels to 0 at 1e8, so the solver works on centred points
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]]) + offset
        res = chebyshev_radius(PointList(pts))
        assert res.converged
        assert res.radius_sq == pytest.approx(1.0, abs=1e-9)
        assert res.lower <= 1.0 + 1e-9 and res.gap == res.upper - res.lower <= 1e-9
        assert res.center == pytest.approx([offset + 1.0, offset], abs=1e-9 * offset)
        # lists on the grid 2^-20 Z^3 translate exactly; their weights are not
        # dyadic, so a center formed from the raw coordinates rounds at offset * 1e-16
        rng = np.random.default_rng(54)
        for _ in range(20):
            pts = rng.integers(-(2**21), 2**21, size=(int(rng.integers(2, 9)), 3)) * 2.0**-20
            near = chebyshev_radius(PointList(pts))
            far = chebyshev_radius(PointList(pts + offset))
            assert far.converged and far.gap <= 1e-12 * far.upper
            assert far.radius_sq == pytest.approx(near.radius_sq, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e3, 1e4])
    def test_tolerance_scales_with_the_list(self, scale):
        # the certificate rounds at about 3 * eps * upper, which passes an
        # absolute 1e-9 once the squared radius is near 1e6
        rng = np.random.default_rng(0)
        for _ in range(100):
            L, n = int(rng.integers(3, 9)), int(rng.integers(2, 9))
            pl = PointList(rng.standard_normal((L, n)) * scale)
            with warnings.catch_warnings():
                warnings.simplefilter("error", ConvergenceWarning)
                res = chebyshev_radius(pl)
            assert res.converged and res.gap <= 1e-9 * res.upper


class TestRadP:
    def test_p1_is_avg(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            pl = random_list(rng, n=int(rng.integers(1, 8)))
            assert rad_p(pl, 1.0) == pytest.approx(
                avg_sq_radius(pl, "centroid"), rel=1e-9
            )

    def test_monotone_in_p(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            pl = random_list(rng, L=5, n=3)
            r1 = rad_p(pl, 1.0)
            r2 = rad_p(pl, 2.0)
            r4 = rad_p(pl, 4.0)
            assert r1 <= r2 * (1 + 1e-7)
            assert r2 <= r4 * (1 + 1e-7)

    def test_below_worst_case(self):
        # for any y, mean^(1/p) <= max; the optimum is below the Chebyshev bound
        rng = np.random.default_rng(14)
        for _ in range(20):
            pl = random_list(rng, L=4, n=2)
            cheb = chebyshev_radius(pl).radius_sq
            assert rad_p(pl, 6.0) <= cheb * (1 + 1e-6)

    @pytest.mark.parametrize("p", [1.0, 2.0, 8.0, 1e8])
    def test_underflowing_lists(self, p):
        # two points at d have rad_p = d^2/4 at every p: at 1e-160 that is
        # subnormal, at 1e-200 below the subnormals, and the squared
        # distances underflow in both; the value comes back rounded, in
        # normal time, also beside a large coordinate shared by both points
        for d in (1e-160, 1e-200):
            start = time.perf_counter()
            assert rad_p(PointList(np.array([[0.0, 1e100], [d, 1e100]])), p) == float(Fraction(d) ** 2 / 4)
            assert time.perf_counter() - start < 5.0
        assert float(Fraction(1e-200) ** 2 / 4) == 0.0 < float(Fraction(1e-160) ** 2 / 4)

    def test_scaled_lists_scale_the_value(self):
        # with every squared distance from the centroid below 2^-800 the
        # list is solved scaled by a power of two, which scales the value
        # by its square
        rng = np.random.default_rng(31)
        for _ in range(10):
            pl = random_list(rng, n=int(rng.integers(1, 5)), scale=1.0)
            for p in (1.0, 3.0, 12.0):
                want = math.ldexp(rad_p(PointList(pl.points - pl.points[0]), p), -1200)
                assert rad_p(PointList(np.ldexp(pl.points, -600)), p) == pytest.approx(want, rel=1e-8)

    def test_rejects_bad_p(self):
        pl = PointList(np.zeros((2, 1)))
        with pytest.raises(ValueError):
            rad_p(pl, 0.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rejects_non_finite_p(self, p):
        with pytest.raises(ValueError, match="p must be finite"):
            rad_p(PointList(np.eye(2)), p)

    @pytest.mark.parametrize("tol", [0.0, math.nan, math.inf, 1e-9])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(TypeError, match="tol"):
            rad_p(PointList(np.eye(2)), 2.0, tol=tol)

    @pytest.mark.parametrize("max_iters", [-1, 20000])
    def test_rejects_max_iters(self, max_iters):
        with pytest.raises(TypeError, match="max_iters"):
            rad_p(PointList(np.eye(2)), 2.0, max_iters=max_iters)

    def test_step_cap_warns_and_stays_a_descent(self, monkeypatch):
        # stopped early, the value is F^(1/p) at an iterate of a descent from
        # the centroid: at least the converged value, hence avg_sq_radius, and
        # at most the centroid's value (no step at all)
        rng = np.random.default_rng(56)
        for _ in range(20):
            pl = random_list(rng, L=6, n=3)
            avg, converged = avg_sq_radius(pl), rad_p(pl, 4.0)
            values = []
            for steps in (0, 1, 2):
                monkeypatch.setattr(geometry, "RAD_P_STEPS", steps)
                with pytest.warns(ConvergenceWarning, match="rad_p"):
                    values.append(rad_p(pl, 4.0))
            monkeypatch.undo()
            assert avg <= converged * (1 + 1e-12)
            assert converged <= values[2] * (1 + 1e-12)
            assert values[2] <= values[1] * (1 + 1e-12) and values[1] <= values[0] * (1 + 1e-12)

    def test_step_cap_stays_below_chebyshev(self, monkeypatch):
        # at large p a stopped descent can lie above the squared Chebyshev
        # radius; the enclosing ball's centre keeps an unconverged value
        # below it
        rng = np.random.default_rng(3)
        for _ in range(20):
            pl = PointList(rng.normal(size=(5, 2)))
            upper = chebyshev_radius(pl).upper
            for steps in (0, 1, 2):
                monkeypatch.setattr(geometry, "RAD_P_STEPS", steps)
                for p in (1e5, 1e8):
                    with pytest.warns(ConvergenceWarning, match="rad_p"):
                        assert rad_p(pl, p) <= upper * (1 + 1e-12)

    @pytest.mark.parametrize("p", [1e5, 1e8])
    def test_continuation_needs_few_solves_at_large_p(self, p, monkeypatch):
        # at very large p one point dominates, and Newton on F from the
        # centroid would crawl; continuation in the power reaches p in a few
        # stages of a few Newton steps each, one solve per step (the floor's
        # enclosing ball, when a call is unconverged, adds a few), and stays
        # below the Chebyshev value
        rng = np.random.default_rng(3)
        solve, steps = np.linalg.solve, []

        def counting(*args):
            steps[-1] += 1
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counting)
        for _ in range(20):
            pl = PointList(rng.normal(size=(5, 2)))
            steps.append(0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                value = rad_p(pl, p)
            assert value <= chebyshev_radius(pl).upper * (1 + 1e-12)
        assert max(steps) <= 100

    def test_large_p_sweep(self):
        # p = 1e4 and p = 1e8 converge on every list: at p = 1e8 some calls
        # stop at round-off, where the Newton decrement, not the relative
        # gradient, puts the value within TOL of the minimum; every value
        # lies between the p = 1e4 value and the squared Chebyshev radius
        lists = sweep_lists()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            low = [rad_p(pl, 1e4) for pl in lists]
            high = [rad_p(pl, 1e8) for pl in lists]
        for pl, a, b in zip(lists, low, high):
            assert a * (1 - 1e-12) <= b <= chebyshev_radius(pl).upper * (1 + 1e-12)

    def test_bench_list_at_large_p(self):
        # the analysis benchmark's radius list 88 of seed 424242 (L = 3,
        # n = 6): at p = 1e8, (r2/m)^q amplifies the rounding of r2/m about
        # q-fold, so every step "lowers" F by ~1e-9 relative and the
        # round-off stop never fires; the Newton decrement ends the stage
        shapes = [(L, n) for L in range(3, 9) for n in range(2, 9)]
        rng = np.random.default_rng(424242)
        for k in range(89):
            X = rng.standard_normal(shapes[k % len(shapes)])
        pl = PointList(X)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            low, high = rad_p(pl, 1e4), rad_p(pl, 1e8)
        assert low <= high <= chebyshev_radius(pl).upper * (1 + 1e-12)

    def test_newton_systems_are_positive_definite(self, monkeypatch):
        # the docstring's bound sum(w) I <= (Lm/(2q)) H <= (2q - 1) sum(w) I:
        # every matrix solved is symmetric positive definite and every
        # direction descends, so rad_p needs no fallback step
        solve, systems = np.linalg.solve, []

        def recording(H, g):
            d = solve(H, g)
            # the enclosing-ball floor solves triangular systems of its own
            if sys._getframe(1).f_code.co_name == "rad_p":
                systems.append((H, g, d))
            return d

        monkeypatch.setattr(np.linalg, "solve", recording)
        lists = sweep_lists()
        for p in (1.01, 4.0, 1e4, 1e8):
            for pl in lists:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ConvergenceWarning)
                    rad_p(pl, p)
        assert len(systems) > 800
        for H, g, d in systems:
            assert np.abs(H - H.T).max() <= 1e-12 * np.abs(H).max()
            np.linalg.cholesky(H)
            assert float(g @ -d) < 0.0

    def test_within_descent_oracle(self):
        # never above the gradient-descent value; equal to it within 1e-12 at
        # unit scale and above, where the descent's absolute stop test is tight
        for pl in oracle_lists(7, 140):
            for p in (1.0, 1.01, 2.5, 4.0, 6.0):
                assert rad_p(pl, p) <= rad_p_descent(pl, p) * (1 + 1e-12)
        rng = np.random.default_rng(52)
        for _ in range(60):
            pl = random_list(rng, n=int(rng.integers(1, 7)), scale=rng.uniform(1.0, 4.0))
            for p in (1.0, 1.01, 2.5, 4.0, 6.0):
                assert rad_p(pl, p) == pytest.approx(rad_p_descent(pl, p), rel=1e-12)

    def test_scale_free(self):
        # the stop tests are relative, so rad_p(s X) = s^2 rad_p(X)
        rng = np.random.default_rng(53)
        for _ in range(30):
            pl = random_list(rng, n=int(rng.integers(1, 7)), scale=1.0)
            for p in (1.01, 2.5, 6.0):
                value = rad_p(pl, p)
                for s in (1e-3, 1e3):
                    assert rad_p(PointList(pl.points * s), p) == pytest.approx(value * s * s, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.01, 2.5, 4.0, 6.0])
    def test_point_at_the_optimum(self, p):
        # on the line, {a, -1, -1, 0} with a^(2p-1) = 2 has its optimum at 0,
        # on the last point, where r = 0 and the r^(2(p-2)) factor of the
        # Hessian of F is singular for p < 2; the centroid (a - 2)/4 is not 0
        # unless p = 1
        a = 2.0 ** (1.0 / (2.0 * p - 1.0))
        pl = PointList(np.array([[a], [-1.0], [-1.0], [0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = rad_p(pl, p)
        assert value == pytest.approx(((a ** (2 * p) + 2.0) / 4.0) ** (1.0 / p), rel=1e-12)

    def test_repeated_point(self):
        assert rad_p(PointList(np.ones((3, 2))), 2.5) == 0.0

    def test_large_p(self):
        # in units of max r^2 nothing overflows: finite, nondecreasing in p,
        # at most the Chebyshev value (here all three points lie on the
        # Chebyshev circle), and no warnings
        pl = PointList(np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]]))
        cheb = chebyshev_radius(pl).upper
        assert cheb == pytest.approx(18.0, rel=1e-15)
        previous = 0.0
        for p in (50.0, 150.0, 300.0, 1000.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = rad_p(pl, p)
            assert math.isfinite(value)
            assert previous <= value <= cheb * (1 + 1e-12)
            previous = value

    def test_matches_mean_oracle(self):
        # sum / L is the reduce and division np.mean performs
        for pl in oracle_lists(6, 140):
            for p in (1.0, 2.5, 4.0):
                assert rad_p_descent(pl, p) == rad_p_mean(pl, p)
