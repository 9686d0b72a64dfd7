import math
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heis import core, geodesy
from heis.geodesy import (
    CENTER_TOL,
    TWO_PI,
    GeodesicParam,
    NonUniqueGeodesic,
    angle,
    cc_distance,
    gamma,
    gamma_inverse,
    midpoint,
    midpoint_set,
    pair_table,
)


def pt(*vals):
    return np.array(vals, dtype=float)


def rand_points(rng, k, n=1, scale=2.0):
    return rng.normal(size=(k, 2 * n + 1)) * scale


class TestGamma:
    def test_theta_zero_is_straight(self):
        p = GeodesicParam(np.array([1.5 - 0.5j]), 0.0)
        for s in (0.0, 0.3, 1.0):
            got = gamma(s, p)
            assert np.allclose(got, pt(1.5 * s, -0.5 * s, 0.0), atol=1e-15)

    def test_starts_at_origin(self):
        p = GeodesicParam(np.array([1.0 + 2.0j]), 1.0)
        assert np.allclose(gamma(0.0, p), core.origin(1), atol=1e-300)

    def test_full_turn_lands_on_center(self):
        # chi=1, theta=2pi, s=1: zeta factor vanishes, t = 2 * 2pi / (2pi)^2
        p = GeodesicParam(np.array([1.0 + 0j]), TWO_PI)
        got = gamma(1.0, p)
        assert abs(got[0]) < 1e-15 and abs(got[1]) < 1e-15
        assert got[2] == pytest.approx(1.0 / np.pi, abs=1e-14)

    def test_scaling_identity(self):
        # Gamma_s(chi, theta) == Gamma_1(s chi, s theta)
        rng = np.random.default_rng(0)
        for _ in range(20):
            chi = rng.normal(size=2) @ np.array([1, 1j])
            theta = rng.uniform(-TWO_PI, TWO_PI)
            s = rng.uniform(0, 1)
            p = GeodesicParam(np.array([chi]), theta)
            q = GeodesicParam(np.array([s * chi]), s * theta)
            assert np.allclose(gamma(s, p), gamma(1.0, q), atol=1e-14)

    def test_continuity_at_theta_zero(self):
        chi = np.array([0.7 + 0.2j])
        a = gamma(1.0, GeodesicParam(chi, 1e-9))
        b = gamma(1.0, GeodesicParam(chi, 0.0))
        assert np.allclose(a, b, atol=1e-8)

    @pytest.mark.parametrize("chi", [[0.8 - 0.3j], [0.8 - 0.3j, -0.2 + 1.1j]])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_t_against_exact_taylor_sum(self, chi, sign):
        # t = 2 |chi|^2 s^2 V(theta s), V(a) = (a - sin a) / a^2
        #   = sum_k (-1)^k a^(2k+1) / (2k+3)!, summed in exact rationals at
        # the float inputs until a term drops below 2^-80 of the sum
        s = 0.6
        nchi2 = sum(Fraction(c.real) ** 2 + Fraction(c.imag) ** 2 for c in chi)
        for a in np.logspace(-6.0, np.log10(3.0), 150):
            theta = sign * a / s
            x = Fraction(theta) * Fraction(s)
            v, term, k = Fraction(0), x / 6, 0
            while abs(term) > abs(v) * Fraction(1, 2 ** 80):
                v += term
                k += 1
                term *= -x * x / ((2 * k + 2) * (2 * k + 3))
            want = 2 * nchi2 * Fraction(s) ** 2 * v
            got = gamma(s, GeodesicParam(np.array(chi), theta))[-1]
            assert abs(Fraction(got) - want) <= Fraction(4e-15) * abs(want), (a, got)

    def test_range_errors(self):
        p = GeodesicParam(np.array([1.0 + 0j]), 0.0)
        with pytest.raises(ValueError):
            gamma(1.5, p)
        with pytest.raises(ValueError):
            GeodesicParam(np.array([1.0 + 0j]), 7.0)

    @pytest.mark.parametrize("chi, theta", [
        ([1.0 + 0j], np.nan), ([1.0 + 0j], -np.inf),
        ([complex(np.nan, 0)], 1.0), ([1.0, complex(0, np.inf)], 1.0)])
    def test_non_finite_datum_rejected(self, chi, theta):
        with pytest.raises(ValueError, match="theta|chi must be finite"):
            GeodesicParam(np.array(chi), theta)


class TestGammaInverse:
    def test_horizontal_point(self):
        res = gamma_inverse(pt(1.0, 0.0, 0.0))
        assert res.unique
        assert res.param.theta == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(res.param.chi, [1.0 + 0j], atol=1e-12)
        assert res.distance == pytest.approx(1.0, abs=1e-12)

    def test_center_point_family(self):
        res = gamma_inverse(pt(0.0, 0.0, 1.0 / np.pi))
        assert not res.unique
        assert res.param.theta == pytest.approx(TWO_PI)
        assert res.distance == pytest.approx(1.0, abs=1e-12)
        # the representative reproduces the point through the forward map
        back = gamma(1.0, res.param)
        assert np.allclose(back, pt(0.0, 0.0, 1.0 / np.pi), atol=1e-12)

    def test_origin(self):
        res = gamma_inverse(core.origin(1))
        assert res.unique and res.distance == 0.0

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        ys = rand_points(rng, 500)
        for y in ys:
            res = gamma_inverse(y)
            back = gamma(1.0, res.param)
            assert np.allclose(back, y, atol=1e-9)

    def test_round_trip_n2(self):
        rng = np.random.default_rng(2)
        for y in rand_points(rng, 50, n=2):
            back = gamma(1.0, gamma_inverse(y).param)
            assert np.allclose(back, y, atol=1e-9)

    def test_residual_tolerance(self):
        # the solved theta satisfies the defining scalar equation tightly
        rng = np.random.default_rng(3)
        for y in rand_points(rng, 200):
            zeta, t = core.to_complex(y)
            az2 = float(np.sum(np.abs(zeta) ** 2))
            u = t / az2
            th = gamma_inverse(y).param.theta
            assert abs(geodesy._m(th) - u) <= 1e-12 * max(1.0, abs(u))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            gamma_inverse(pt(np.nan, 0.0, 0.0))


class TestDistance:
    def test_identity(self):
        rng = np.random.default_rng(4)
        for x in rand_points(rng, 10):
            assert cc_distance(x, x) == 0.0

    def test_horizontal_segment(self):
        for r in (0.5, 1.0, 3.0):
            assert cc_distance(core.origin(1), pt(r, 0.0, 0.0)) == pytest.approx(r, abs=1e-12)

    def test_center_distance(self):
        for t in (0.1, 1.0, 10.0):
            want = np.sqrt(np.pi * t)
            assert cc_distance(core.origin(1), pt(0.0, 0.0, t)) == pytest.approx(want, abs=1e-9)
            assert cc_distance(core.origin(1), pt(0.0, 0.0, -t)) == pytest.approx(want, abs=1e-9)

    def test_left_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            z, x, y = rand_points(rng, 3)
            d0 = cc_distance(x, y)
            d1 = cc_distance(core.group_mul(z, x), core.group_mul(z, y))
            assert abs(d0 - d1) <= 1e-9

    def test_dilation_homogeneity(self):
        rng = np.random.default_rng(6)
        for lam in (0.5, 2.0, 3.0):
            x, y = rand_points(rng, 2)
            d = cc_distance(x, y)
            dl = cc_distance(core.dilate(lam, x), core.dilate(lam, y))
            assert abs(dl - lam * d) <= 1e-9 * max(1.0, lam)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x, y, z = rand_points(rng, 3)
            assert cc_distance(x, z) <= cc_distance(x, y) + cc_distance(y, z) + 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x, y = rand_points(rng, 2)
            assert cc_distance(x, y) == pytest.approx(cc_distance(y, x), abs=1e-12)

    def test_constant_speed(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            chi = np.array([rng.normal() + 1j * rng.normal()])
            theta = rng.uniform(-TWO_PI + 0.05, TWO_PI - 0.05)
            p = GeodesicParam(chi, theta)
            s1, s2 = sorted(rng.uniform(0, 1, size=2))
            d = cc_distance(gamma(s1, p), gamma(s2, p))
            assert abs(d - (s2 - s1) * np.linalg.norm(p.chi)) <= 1e-9


class TestAngle:
    def test_self_angle_zero(self):
        rng = np.random.default_rng(10)
        for x in rand_points(rng, 5):
            assert angle(x, x) == 0.0

    def test_center_pair(self):
        assert angle(core.origin(1), pt(0.0, 0.0, 1.0)) == pytest.approx(TWO_PI)

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = rand_points(rng, 2)
            assert angle(x, y) == pytest.approx(angle(y, x), abs=1e-10)


class TestMidpoint:
    def test_endpoints(self):
        rng = np.random.default_rng(12)
        x, y = rand_points(rng, 2)
        assert np.allclose(midpoint(0.0, x, y), x, atol=1e-12)
        assert np.allclose(midpoint(1.0, x, y), y, atol=1e-9)

    def test_constant_geodesic(self):
        x = pt(0.3, -0.7, 0.9)
        assert np.allclose(midpoint(0.5, x, x), x, atol=1e-12)

    def test_straight_line(self):
        got = midpoint(0.5, core.origin(1), pt(2.0, 0.0, 0.0))
        assert np.allclose(got, pt(1.0, 0.0, 0.0), atol=1e-12)

    def test_metric_split(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            x, y = rand_points(rng, 2)
            s = rng.uniform(0, 1)
            z = midpoint(s, x, y)
            d = cc_distance(x, y)
            assert abs(cc_distance(x, z) - s * d) <= 1e-9
            assert abs(cc_distance(z, y) - (1 - s) * d) <= 1e-9

    def test_center_pair_raises(self):
        with pytest.raises(NonUniqueGeodesic):
            midpoint(0.5, core.origin(1), pt(0.0, 0.0, 1.0))


class TestScalarViews:
    """cc_distance, angle and midpoint are the paired kernel on one pair."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_bits_of_the_paired_kernel(self, n):
        rng = np.random.default_rng(40 + n)
        xs = rand_points(rng, 60, n=n)
        ys = rand_points(rng, 60, n=n)
        ys[:5] = xs[:5]
        ys[5:10, :-1] = xs[5:10, :-1]  # center pairs
        theta, dist, unique = geodesy.paired_invert(xs, ys)
        zs = geodesy._paired_midpoints(0.3, xs, ys)[0]
        assert not np.any(unique[5:10])
        for k in range(60):
            assert cc_distance(xs[k], ys[k]) == dist[k]
            assert angle(xs[k], ys[k]) == abs(theta[k])
            if unique[k]:
                assert np.array_equal(midpoint(0.3, xs[k], ys[k]), zs[k])
            else:
                with pytest.raises(NonUniqueGeodesic):
                    midpoint(0.3, xs[k], ys[k])

    def test_rejects_nonfinite(self):
        bad = pt(np.nan, 0.0, 0.0)
        for call in (lambda: cc_distance(bad, pt(0.0, 0.0, 1.0)),
                     lambda: angle(core.origin(1), bad),
                     lambda: midpoint(0.5, pt(np.inf, 0.0, 0.0), core.origin(1))):
            with pytest.raises(ValueError):
                call()


ROW = np.zeros((1, 3))
CLOUD = np.zeros((4, 3))


class TestInputShapes:
    """One-point functions take one point of shape (2n+1,); the bulk ones
    take clouds of shape (k, 2n+1), and the paired ones equal row counts.
    Every other input is a ValueError that names the shapes."""

    @pytest.mark.parametrize("call, shapes", [
        (lambda: gamma_inverse(pt(1.0, 0.0, 0.0, 0.0)), "(4,)"),
        (lambda: gamma_inverse(ROW), "(1, 3)"),
        (lambda: gamma_inverse(2.0), "()"),
        (lambda: midpoint(0.5, ROW, ROW + [1.0, 0.0, 0.0]), "(1, 3)"),
        (lambda: midpoint(0.5, pt(0.0, 0.0), pt(1.0, 0.0)), "(2,)"),
        (lambda: cc_distance(ROW, ROW), "(1, 3)"),
        (lambda: cc_distance(0.0, 1.0), "()"),
        (lambda: cc_distance(np.zeros(4), np.ones(4)), "(4,)"),
        (lambda: cc_distance(np.zeros(3), np.zeros(5)), "(3,) and (5,)"),
        (lambda: angle(ROW, ROW), "(1, 3)"),
        (lambda: angle(0.0, 1.0), "()"),
        (lambda: angle(np.zeros(4), np.ones(4)), "(4,)"),
        (lambda: angle(np.zeros(5), np.zeros(3)), "(5,) and (3,)"),
    ], ids=["gamma_inverse-even", "gamma_inverse-row", "gamma_inverse-scalar",
            "midpoint-row", "midpoint-short", "cc_distance-row", "cc_distance-scalar",
            "cc_distance-even", "cc_distance-dims", "angle-row", "angle-scalar",
            "angle-even", "angle-dims"])
    def test_one_point_functions(self, call, shapes):
        with pytest.raises(ValueError, match=re.escape(shapes)):
            call()

    @pytest.mark.parametrize("call, shapes", [
        (lambda: pair_table(np.zeros(3), CLOUD), "(3,)"),
        (lambda: pair_table(CLOUD, 1.0), "()"),
        (lambda: pair_table(np.zeros((2, 2, 3)), CLOUD), "(2, 2, 3)"),
        (lambda: pair_table(np.zeros((4, 4)), np.zeros((4, 4))), "(4, 4)"),
        (lambda: pair_table(CLOUD, np.zeros((2, 5))), "(4, 3) and (2, 5)"),
        (lambda: midpoint_set(0.5, np.zeros(3), CLOUD), "(3,)"),
        (lambda: geodesy.cc_distance_many(np.zeros(3), np.ones(3)), "(3,)"),
        (lambda: geodesy.cc_distance_many(np.zeros((4, 2)), np.zeros((4, 2))), "(4, 2)"),
        (lambda: geodesy.cc_distance_many(CLOUD, np.zeros((5, 3))), "(4, 3) and (5, 3)"),
        (lambda: geodesy.cc_distance_many(CLOUD, np.zeros((4, 5))), "(4, 3) and (4, 5)"),
        (lambda: geodesy.paired_invert(CLOUD, ROW), "(4, 3) and (1, 3)"),
    ], ids=["pair_table-point", "pair_table-scalar", "pair_table-3d", "pair_table-even",
            "pair_table-dims", "midpoint_set-point", "cc_distance_many-points",
            "cc_distance_many-even", "cc_distance_many-rows", "cc_distance_many-dims",
            "paired_invert-rows"])
    def test_bulk_functions(self, call, shapes):
        with pytest.raises(ValueError, match=re.escape(shapes)):
            call()

    def test_accepted_shapes(self):
        x, y = pt(0.0, 0.0, 0.0), pt(2.0, 0.0, 0.0)
        assert cc_distance(x, y) == 2.0 and angle(x, y) == 0.0
        assert midpoint(0.5, x, y).shape == (3,)
        assert gamma_inverse(y).distance == 2.0
        assert geodesy.cc_distance_many(x[None], y[None]).shape == (1,)
        assert pair_table(CLOUD, np.zeros((2, 3))).dist.shape == (4, 2)


class TestMidpointSet:
    def test_singleton(self):
        x = pt(0.5, 0.5, 0.5)
        ms = midpoint_set(0.5, x[None, :], x[None, :])
        assert ms.points.shape == (1, 3)
        assert np.allclose(ms.points[0], x, atol=1e-12)
        assert ms.skipped == 0

    def test_s_zero_returns_source_set(self):
        rng = np.random.default_rng(14)
        A = rand_points(rng, 6)
        B = rand_points(rng, 4)
        ms = midpoint_set(0.0, A, B)
        assert ms.points.shape[0] == 6
        got = set(map(tuple, np.round(ms.points, 9)))
        want = set(map(tuple, np.round(A, 9)))
        assert got == want

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_endpoints_are_the_clouds_row_for_row(self, s):
        rng = np.random.default_rng(19)
        A = rand_points(rng, 7)
        B = rand_points(rng, 5)
        ms = midpoint_set(s, A, B)
        assert np.array_equal(ms.points, A if s == 0.0 else B)
        assert ms.skipped == 0
        # the interior set holds all 35 midpoints, which at the endpoints
        # are (near-)copies of the rows returned here
        table = pair_table(A, B, want_chi=True)
        near = table.midpoints(s)
        assert len(midpoint_set(0.5, A, B, table=table).points) == 35
        rows = np.repeat(A, 5, axis=0) if s == 0.0 else np.tile(B, (7, 1))
        assert np.allclose(near, rows, rtol=0.0, atol=1e-12)

    def test_endpoints_drop_rows_with_only_center_pairs(self):
        # the origin reaches B's only point along the center: that pair is
        # skipped, and the origin has no other pair
        A = np.vstack([core.origin(1), pt(1.0, 0.0, 0.0)])
        B = np.vstack([pt(0.0, 0.0, 1.0), pt(1.0, 0.0, 0.0)])
        for s, want in ((0.0, A), (1.0, B)):
            ms = midpoint_set(s, A, B)
            assert ms.skipped == 1
            assert np.array_equal(ms.points, want)
        A1 = core.origin(1)[None, :]
        B1 = pt(0.0, 0.0, 1.0)[None, :]
        for s in (0.0, 1.0):
            ms = midpoint_set(s, A1, B1)
            assert ms.skipped == 1
            assert ms.points.shape == (0, 3)

    def test_derived_pair(self):
        ms = midpoint_set(0.5, core.origin(1)[None, :], pt(2.0, 0.0, 0.0)[None, :])
        assert np.allclose(ms.points, pt(1.0, 0.0, 0.0)[None, :], atol=1e-12)

    def test_center_pairs_skipped(self):
        A = np.vstack([core.origin(1), pt(1.0, 0.0, 0.0)])
        B = pt(0.0, 0.0, 1.0)[None, :]
        ms = midpoint_set(0.5, A, B)
        assert ms.skipped == 1
        assert ms.points.shape[0] == 1

    def test_matches_scalar_midpoint(self):
        rng = np.random.default_rng(15)
        A = rand_points(rng, 3)
        B = rand_points(rng, 3)
        ms = midpoint_set(0.3, A, B)
        singles = np.array([midpoint(0.3, a, b) for a in A for b in B])
        got = np.array(sorted(map(tuple, np.round(ms.points, 10))))
        want = np.array(sorted(map(tuple, np.round(singles, 10))))
        assert np.allclose(got, want, atol=1e-9)


class TestPairTable:
    def test_matches_scalar_ops(self):
        rng = np.random.default_rng(16)
        xs = rand_points(rng, 7)
        ys = rand_points(rng, 5)
        tab = pair_table(xs, ys, want_chi=True)
        for i in range(7):
            for j in range(5):
                assert tab.dist[i, j] == pytest.approx(cc_distance(xs[i], ys[j]), abs=1e-10)
                assert abs(tab.theta[i, j]) == pytest.approx(angle(xs[i], ys[j]), abs=1e-10)

    def test_zero_diagonal(self):
        rng = np.random.default_rng(17)
        xs = rand_points(rng, 5)
        tab = pair_table(xs, xs)
        assert np.array_equal(np.diag(tab.dist), np.zeros(5))

    def test_default_worker_count_is_the_cpus_the_process_may_run_on(self):
        # in a fresh process, since tests set the count; narrowing the
        # affinity before the import is what `taskset` does from outside
        def probe(narrow=""):
            code = (f"import os; {narrow}from heis import geodesy; "
                    "print(geodesy._max_workers, len(os.sched_getaffinity(0)))")
            return subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, check=True).stdout.split()

        workers, cpus = probe()
        assert workers == cpus
        assert probe("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); ") == ["1", "1"]

    def test_worker_count_invariance(self):
        rng = np.random.default_rng(18)
        xs = rand_points(rng, 40)
        ys = rand_points(rng, 30)
        workers = geodesy._max_workers
        geodesy.set_max_workers(1)
        try:
            tab1 = pair_table(xs, ys)
            geodesy.set_max_workers(4)
            tab2 = pair_table(xs, ys)
        finally:
            geodesy.set_max_workers(workers)
        assert np.array_equal(tab1.dist, tab2.dist)
        assert np.array_equal(tab1.theta, tab2.theta)

    @pytest.mark.parametrize("n", [1, 2])
    def test_bytes_across_block_sizes_and_workers(self, n, monkeypatch):
        rng = np.random.default_rng(25)
        xs = rand_points(rng, 30, n=n)
        ys = rand_points(rng, 23, n=n)
        ys[3] = xs[4]  # an equal pair
        ys[7, :-1] = xs[9, :-1]  # a center pair: same zeta, different t

        def table_bytes():
            tab = pair_table(xs, ys, want_chi=True)
            return [a.tobytes() for a in (tab.dist, tab.theta, tab.unique, tab.chi,
                                          tab.midpoints(0.25), tab.midpoints(0.5))]

        want = table_bytes()
        tab = pair_table(xs, ys)
        assert tab.dist[4, 3] == 0.0 and tab.unique[4, 3] and not tab.unique[9, 7]
        # 1 << 6 pairs are two rows of 23: most blocks hold neither special pair
        default = geodesy._max_workers
        for chunk in (geodesy._CHUNK, 1 << 6):
            monkeypatch.setattr(geodesy, "_CHUNK", chunk)
            for workers in (1, 2):
                geodesy.set_max_workers(workers)
                try:
                    assert table_bytes() == want, (chunk, workers)
                finally:
                    geodesy.set_max_workers(default)

    def test_bytes_across_many_blocks(self, monkeypatch):
        # 150 x 400 pairs span more than three default blocks; 1 << 6 pairs
        # take one row of 400 per block
        rng = np.random.default_rng(27)
        xs = rand_points(rng, 150)
        ys = rand_points(rng, 400)
        ys[17] = xs[120]
        ys[300, :-1] = xs[3, :-1]
        assert xs.shape[0] * ys.shape[0] >= 3 * geodesy._CHUNK

        def table_bytes():
            tab = pair_table(xs, ys, want_chi=True)
            return [a.tobytes() for a in (tab.dist, tab.theta, tab.unique, tab.chi,
                                          tab.midpoints(0.5))]

        want = table_bytes()
        default = geodesy._max_workers
        monkeypatch.setattr(geodesy, "_CHUNK", 1 << 6)
        for workers in (1, 2):
            geodesy.set_max_workers(workers)
            try:
                assert table_bytes() == want, workers
            finally:
                geodesy.set_max_workers(default)

    @pytest.mark.parametrize("N", [400, 800])
    def test_block_memory(self, N):
        # what a table or a midpoint set needs beyond its own output is a
        # few blocks' temporaries, whatever N
        rng = np.random.default_rng(26)
        xs = rng.random((N, 3))
        ys = rng.random((N, 3)) + [2.0, 0.0, 0.0]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tab = pair_table(xs, ys, want_chi=True)
            table_peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            z = tab.midpoints(0.5)
            midpoint_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        table_bytes = sum(a.nbytes for a in (tab.dist, tab.theta, tab.unique, tab.chi))
        assert table_peak - table_bytes < 16 * 2 ** 20
        assert z.shape == (N * N, 3)
        assert midpoint_peak - z.nbytes < 16 * 2 ** 20

    @pytest.mark.parametrize("want_chi", [False, True])
    def test_empty_clouds(self, want_chi):
        pts = rand_points(np.random.default_rng(19), 4, n=2)
        empty = np.empty((0, 5))
        for xs, ys, shape in ((empty, pts, (0, 4)), (pts, empty, (4, 0))):
            tab = pair_table(xs, ys, want_chi=want_chi)
            assert tab.dist.shape == tab.theta.shape == tab.unique.shape == shape
            if want_chi:
                assert tab.chi.shape == shape + (2,)
            else:
                assert tab.chi is None
        assert midpoint_set(0.5, empty, pts).points.shape == (0, 5)


# queries from the origin to (u^{-1/2}, 0, 1): u = t / |zeta|^2 sweeps the
# whole domain of the root solve, into the center branch past u = 1e20
NEAR_AXIS_U = np.logspace(-12, 24, 145)


def near_axis_query(u):
    return pt(u ** -0.5, 0.0, 1.0)


class TestNearAxis:
    def test_round_trip(self):
        for u in NEAR_AXIS_U:
            y = near_axis_query(u)
            back = gamma(1.0, gamma_inverse(y).param)
            assert np.max(np.abs(back - y)) <= 1e-9, u

    def test_sandwich(self):
        origin = core.origin(1)
        for u in NEAR_AXIS_U:
            y = near_axis_query(u)
            d = cc_distance(origin, y)
            lo = max(y[0], np.sqrt(np.pi / 2.0))
            hi = y[0] + np.sqrt(np.pi)
            assert lo * (1 - 1e-12) <= d <= hi * (1 + 1e-12), u

    def test_center_limit(self):
        # near the axis d = sqrt(pi t) - |zeta| + O(|zeta|^3)
        origin = core.origin(1)
        for u in NEAR_AXIS_U[(NEAR_AXIS_U >= 1e12) & (NEAR_AXIS_U < CENTER_TOL ** -2)]:
            y = near_axis_query(u)
            assert abs(cc_distance(origin, y) - (np.sqrt(np.pi) - y[0])) <= 1e-12, u
        assert cc_distance(origin, pt(1e-7, 0.0, 1.0)) == pytest.approx(
            np.sqrt(np.pi) - 1e-7, abs=1e-9)

    def test_continuous_across_center_tol(self):
        origin = core.origin(1)
        below = gamma_inverse(pt(CENTER_TOL * (1 + 1e-12), 0.0, 1.0))
        above = gamma_inverse(pt(CENTER_TOL * (1 - 1e-12), 0.0, 1.0))
        assert below.unique and not above.unique
        assert abs(below.distance - above.distance) <= 1e-9
        assert abs(below.param.theta - above.param.theta) <= 1e-9
        assert cc_distance(origin, pt(0.0, 0.0, 1.0)) == np.sqrt(np.pi)


class TestTinyZeta:
    """Points whose |zeta|^2 underflows: to 0 below |zeta| of about 1.5e-162,
    to a subnormal with lost bits below about 1.5e-154."""

    def test_horizontal_point(self):
        origin = core.origin(1)
        y = pt(1e-162, 0.0, 0.0)
        assert cc_distance(origin, y) == 1e-162
        assert angle(origin, y) == 0.0
        res = gamma_inverse(y)
        assert res.unique and res.distance == 1e-162 and res.param.theta == 0.0
        assert res.param.chi.tolist() == [1e-162 + 0j]

    @pytest.mark.parametrize("zeta, t", [
        ([3e-162], 2.0 ** -1073),                # u = t / |zeta|^2 near 1.1
        ([3e-162, 2e-162j], -(2.0 ** -1072)),    # n = 2, u near -1.5
        ([1e-155], 1e-310),                      # |zeta|^2 subnormal, u near 1
        ([1e-160, 1e-160j], 1e-317),             # above theta = pi, u near 500
    ])
    def test_inverts_as_its_dilate(self, zeta, t):
        y = core.from_complex(np.array(zeta, dtype=complex), t)
        lam = 2.0 ** 500
        origin = core.origin(len(zeta))
        res, big = gamma_inverse(y), gamma_inverse(core.dilate(lam, y))
        assert res.unique and big.unique
        assert res.param.theta == pytest.approx(big.param.theta, rel=1e-14)
        assert res.distance * lam == pytest.approx(big.distance, rel=1e-14)
        assert np.allclose(res.param.chi * lam, big.param.chi, rtol=1e-14, atol=0.0)
        assert angle(origin, y) == abs(res.param.theta)
        assert cc_distance(origin, y) == res.distance

    def test_center_point(self):
        # t != 0 and |zeta| far below CENTER_TOL sqrt(|t|): the center branch
        res = gamma_inverse(pt(1e-162, 0.0, 1.0))
        assert not res.unique
        assert res.param.theta == TWO_PI
        assert res.distance == np.sqrt(np.pi)
        assert cc_distance(core.origin(1), pt(1e-162, 0.0, -1.0)) == np.sqrt(np.pi)


# ---------------------------------------------------------------------------
# property tests of the inversion across its whole domain
# ---------------------------------------------------------------------------

# subnormal coordinates would make dilation by powers of two inexact
coord = st.floats(-4.0, 4.0).map(lambda v: v if abs(v) > 1e-100 else 0.0)
# one-row clouds, the bulk kernels' input
points = st.tuples(coord, coord, coord).map(lambda p: np.array([p]))
# geodesic data (chi, theta) with theta up to 2pi(1 - 1e-12); y = Gamma_1 of it
speeds = st.floats(0.1, 10.0)
phases = st.floats(0.0, TWO_PI)
thetas = st.one_of(
    st.floats(-TWO_PI * (1 - 1e-12), TWO_PI * (1 - 1e-12)),
    # 2pi - theta log-uniform in [2pi 1e-12, 1]: the near-axis end of the domain
    st.builds(lambda k, sign: sign * (TWO_PI - 10.0 ** k),
              st.floats(np.log10(TWO_PI * 1e-12), 0.0), st.sampled_from([-1.0, 1.0])),
)
log_u = st.floats(-12.0, np.log10(CENTER_TOL ** -2))


def geodesic_end(speed, phase, theta):
    p = GeodesicParam(np.array([speed * np.exp(1j * phase)]), theta)
    return p, gamma(1.0, p)


# u = t / |zeta|^2 from every branch of the root solve, with both signs
u_values = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan]),
    st.builds(lambda lu, sign: sign * 10.0 ** lu, log_u, st.sampled_from([-1.0, 1.0])),
)
# (zeta, t) rows: generic, on the center, at the origin, and just off the center
rows = st.one_of(
    st.tuples(st.lists(st.tuples(coord, coord), min_size=2, max_size=2), coord),
    coord.map(lambda t: ([(0.0, 0.0), (0.0, 0.0)], t)),
    st.just(([(0.0, 0.0), (0.0, 0.0)], 0.0)),
    st.sampled_from([0.5, 1.0, 2.0]).map(
        lambda f: ([(f * CENTER_TOL, 0.0), (0.0, 0.0)], 1.0)),
    # |zeta|^2 underflows: horizontal, u near 1.1, and on the center
    st.sampled_from([0.0, 2.0 ** -1073, 1.0]).map(lambda t: ([(3e-162, 0.0), (0.0, 0.0)], t)),
)


def m_polyval(theta):
    """_m_series by np.polyval on the Taylor coefficients of its docstring."""
    w = theta * theta
    sn = np.polyval([(-1) ** k / math.factorial(2 * k + 3) for k in range(7)][::-1], w)
    cs = np.polyval([(-1) ** k / math.factorial(2 * k + 2) for k in range(7)][::-1], w)
    return theta * sn / cs, 1.0 - sn * (1.0 - w * sn) / (cs * cs)


def m_residual(u):
    """|m(theta) - u| / |u| at the solved roots, elementwise.  m is evaluated
    from theta up to pi; beyond, from the half-angle sine and cosine the
    solve returns, since theta cannot resolve 2pi - theta there.  Below
    |theta| = 1e-300, where m(theta) = theta / 3 to double precision, theta
    and u are scaled by 2^600 first, so that m's products stay normal."""
    th, s, c = geodesy._solve_theta(u)
    scale = np.where(np.abs(th) < 1e-300, 2.0 ** 600, 1.0)
    th, u = th * scale, u * scale
    below = np.abs(th) <= np.pi
    m = np.empty_like(th)
    m[below] = geodesy._m(th[below])
    th, s, c = th[~below], s[~below], c[~below]
    m[~below] = (th - 2.0 * s * c) / (2.0 * s * s)
    return np.abs(m - u) / np.abs(u)


def theta_table_nodes():
    """The Chebyshev nodes z in [-1/2, 1/2] of every interval of the theta
    table, in increasing order."""
    n = geodesy._THETA_DEGREE + 1
    return np.sort(0.5 * np.cos((np.arange(n) + 0.5) * np.pi / n))


def both_sides(u):
    """u and its neighbours: the next floats and a relative 1e-15 and 1e-9."""
    return np.concatenate([u * f for f in (1 - 1e-9, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-9)]
                          + [np.nextafter(u, 0.0), np.nextafter(u, np.inf)])


def worst_case_u():
    """u where the root solve is weakest.  Below theta = pi: between the
    Chebyshev nodes of every interval of the theta table (the interpolant's
    error peaks there), both sides of every interval edge, both sides of
    pi/2, and subnormal u.  Above: every interval midpoint of the log eps
    start table (the linear start's error peaks there), both sides of its
    last node and of _U_ASYMPTOTE, and the largest u off the center branch."""
    k = np.arange(geodesy._THETA_LAST + 1)[:, None]
    z = theta_table_nodes()
    between = np.abs(k + 0.5 * (z[1:] + z[:-1])) * geodesy._U_STEP
    edges = (k[:-1] + 0.5) * geodesy._U_STEP
    tiny = np.finfo(float).tiny
    subnormal = np.array([5e-324, 1e-323, 2.5e-320, 1e-310, np.nextafter(tiny, 0.0)])
    j = np.arange(geodesy._TABLE_STEPS) + 0.5
    midpoints = np.exp(geodesy._LOG_U0 + j * geodesy._LOG_U_STEP)
    last_node = np.exp(geodesy._LOG_U0 + geodesy._TABLE_STEPS * geodesy._LOG_U_STEP)
    ends = np.array([np.pi / 2.0, last_node, geodesy._U_ASYMPTOTE])
    u = np.concatenate([between.ravel(), both_sides(edges.ravel()), subnormal, [tiny],
                        midpoints, both_sides(ends), [CENTER_TOL ** -2]])
    return np.concatenate([u, -u])


def m_exact(theta):
    """m(theta) for 0 < theta <= pi in exact rationals at the float theta:
    theta S / C with S = (x - sin x) / x^3 and C = (1 - cos x) / x^2 by
    their Taylor series, summed until a term drops below 2^-80 of the sum."""
    x = Fraction(theta)
    w = x * x

    def series(p):  # sum_j (-1)^j w^j / (2j + p)!
        total, term, j = Fraction(0), Fraction(1, math.factorial(p)), 0
        while abs(term) > abs(total) * Fraction(1, 2 ** 80):
            total += term
            term *= -w / ((2 * j + p + 1) * (2 * j + p + 2))
            j += 1
        return total

    return x * series(3) / series(2)


class TestInversionProperties:
    @settings(deadline=None)
    @given(speeds, phases, thetas)
    def test_round_trip(self, speed, phase, theta):
        _, y = geodesic_end(speed, phase, theta)
        back = gamma(1.0, gamma_inverse(y).param)
        assert np.max(np.abs(back - y)) <= 1e-9

    @settings(deadline=None)
    @given(log_u, st.sampled_from([-1.0, 1.0]))
    def test_relative_residual(self, lu, sign):
        assert m_residual(np.array([sign * 10.0 ** lu]))[0] <= 1e-12

    def test_worst_case_residual(self):
        u = worst_case_u()
        res = m_residual(u)
        assert np.max(res) <= 1e-12, u[np.argmax(res)]

    @pytest.mark.parametrize("n", [1, 2])
    def test_newton_step_moves_theta_at_most_2_ulp(self, n):
        # at the midpoint of every interval of the theta table (a quarter
        # step into interval 0, whose midpoint is u = 0), inverted from
        # points of H^n: one Newton step with m in exact rationals moves
        # the returned theta by at most 2 ulp
        u = np.arange(geodesy._THETA_LAST + 1) * geodesy._U_STEP
        u[0] = geodesy._U_STEP / 4.0
        zeta = np.tile(np.array([0.6 + 0.3j, -0.2 + 0.7j])[:n], (len(u), 1))
        az = np.sqrt(np.sum(zeta.real ** 2 + zeta.imag ** 2, axis=-1))
        t = u * az * az
        u = t / (az * az)  # the u the kernel forms
        theta = geodesy._invert_arrays(zeta, t)[1]
        dm = geodesy._series_or_closed(theta, geodesy._m_series, geodesy._m_direct)[1]
        for th, uk, d in zip(theta, u, dm):
            step = float((m_exact(th) - Fraction(uk)) / Fraction(d))
            assert abs(step) <= 2.0 * np.spacing(th), (uk, step / np.spacing(th))

    @given(st.floats(0.3, 0.6))
    def test_series_matches_direct_form(self, theta):
        # where both are accurate, the series form of m agrees with the
        # closed form (whose cancellation error is below 6 eps / theta^2)
        direct = (theta - np.sin(theta)) / (2.0 * np.sin(theta / 2.0) ** 2)
        assert geodesy._m_series(np.array([theta]))[0][0] == pytest.approx(direct, rel=1e-14)

    @given(st.lists(st.floats(0.0, 0.6), min_size=1, max_size=8))
    def test_series_is_polyval_bitwise(self, thetas):
        theta = np.array(thetas)
        for got, want in zip(geodesy._m_series(theta), m_polyval(theta)):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(geodesy._m_series(theta[0]), m_polyval(theta[0])):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @settings(deadline=None)
    @example([0.0, -0.0, np.nan, 0.05, -0.05, 1.0, -1.0, 100.0, -1e15])
    @given(st.lists(u_values, min_size=1, max_size=12))
    def test_solve_is_elementwise(self, us):
        # the branches of a mixed array give each element the bits it gets alone
        u = np.array(us)
        together = geodesy._solve_theta(u)
        for k in range(len(u)):
            for col, alone in zip(together, geodesy._solve_theta(u[k:k + 1])):
                assert col[k:k + 1].tobytes() == alone.tobytes(), us[k]

    @settings(deadline=None)
    @given(st.lists(rows, min_size=1, max_size=10), st.sampled_from([1, 2]))
    def test_inversion_is_elementwise(self, rs, n):
        zeta = np.array([[complex(*z) for z in zs[:n]] for zs, _ in rs])
        t = np.array([t for _, t in rs])
        together = geodesy._invert_arrays(zeta, t, want_chi=True)
        for k in range(len(t)):
            alone = geodesy._invert_arrays(zeta[k:k + 1], t[k:k + 1], want_chi=True)
            for col, one in zip(together, alone):
                assert col[k:k + 1].tobytes() == one.tobytes(), rs[k]

    @settings(deadline=None)
    @given(points, speeds, phases, thetas)
    def test_symmetry_exact(self, x, speed, phase, theta):
        _, g = geodesic_end(speed, phase, theta)
        y = core.group_mul(x, g)
        assert np.array_equal(geodesy.cc_distance_many(x, y), geodesy.cc_distance_many(y, x))

    @settings(deadline=None)
    @given(points, points, speeds, phases, thetas)
    def test_left_invariance(self, z, x, speed, phase, theta):
        _, g = geodesic_end(speed, phase, theta)
        y = core.group_mul(x, g)
        d0 = geodesy.cc_distance_many(x, y)[0]
        d1 = geodesy.cc_distance_many(core.group_mul(z, x), core.group_mul(z, y))[0]
        assert abs(d1 - d0) <= 1e-9 * max(1.0, d0)

    @settings(deadline=None)
    @given(points, speeds, phases, thetas, st.integers(-8, 8))
    def test_dilation_by_powers_of_two_bitwise(self, x, speed, phase, theta, k):
        _, g = geodesic_end(speed, phase, theta)
        y = core.group_mul(x, g)
        lam = 2.0 ** k
        th0, d0, u0 = geodesy.paired_invert(x, y)
        th1, d1, u1 = geodesy.paired_invert(core.dilate(lam, x), core.dilate(lam, y))
        assert np.array_equal(th0, th1)
        assert np.array_equal(lam * d0, d1)
        assert np.array_equal(u0, u1)
