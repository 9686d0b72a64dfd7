import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from heis import core, distortion, geodesy, measures
from heis.measures import (
    BoxRegion,
    CCBallRegion,
    DiscreteMeasure,
    UnionRegion,
    estimate_density,
    estimate_volume,
    normalized_measure,
    region_from_json,
    renyi_entropy,
    renyi_entropy_estimate,
    sample_uniform,
    step_approximate,
    theta_deviation,
)


BALL_PROPOSALS = 200_000  # bounding-box proposals of the Monte-Carlo ball volume oracle


def two_box_union(shift=2.0):
    return UnionRegion((BoxRegion.unit(1), BoxRegion.shifted([shift, 0.0, 0.0])))


class TestRegions:
    def test_box_basics(self):
        b = BoxRegion.unit(1)
        assert b.volume() == 1.0
        assert b.contains(np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])).tolist() == [True, False]

    def test_shifted_reads_n_from_the_offsets(self):
        box = BoxRegion.shifted([2.0, 0.0, 0.0, 0.0, 0.0])
        assert box.n == 2
        assert np.array_equal(box.intervals, BoxRegion.unit(2).intervals + [[2.0], [0], [0], [0], [0]])
        with pytest.raises(ValueError, match="odd"):
            BoxRegion.shifted([1.0, 0.0])

    def test_box_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            BoxRegion(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_regions_rejected(self, bad):
        with pytest.raises(ValueError, match="box intervals must be finite"):
            BoxRegion(np.array([[0.0, bad], [0.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="ball center must be finite"):
            CCBallRegion(np.array([0.0, bad, 0.0]), 1.0)
        with pytest.raises(ValueError, match="ball radius must be positive and finite"):
            CCBallRegion(np.zeros(3), abs(bad))
        box = BoxRegion.unit(1).to_json()
        box["intervals"][2][0] = bad
        with pytest.raises(ValueError, match="box intervals must be finite"):
            region_from_json({"kind": "union", "members": [BoxRegion.unit(1).to_json(), box]})

    def test_json_roundtrip(self):
        for reg in (BoxRegion.unit(1), CCBallRegion(core.origin(1), 1.0), two_box_union()):
            back = region_from_json(reg.to_json())
            assert back.to_json() == reg.to_json()

    def test_union_rejects_overlap(self):
        with pytest.raises(ValueError):
            UnionRegion((BoxRegion.unit(1), BoxRegion.shifted([0.5, 0.0, 0.0])))

    def test_ball_bounding_box_contains_samples(self):
        ball = CCBallRegion(np.array([1.0, -2.0, 0.5]), 0.8)
        pts = sample_uniform(ball, 500, seed=5)
        assert np.all(ball.bounding_box().contains(pts))

    @pytest.mark.parametrize("n, want", [
        (1, 3.303503048836701), (2, 4.823649863843579), (3, 4.619214423014482)])
    def test_unit_ball_volume_matches_adaptive_quadrature(self, n, want):
        # want: scipy.integrate.quad of the same integral at epsrel 1e-13
        def jac(a):
            return np.sinc(a / np.pi) ** (2 * n - 1) * float(distortion._f_over_cube(a)) / 3.0

        integral, err = quad(jac, 0.0, np.pi, epsabs=0.0, epsrel=1e-13, limit=200)
        assert err < 1e-13 * integral
        sphere = 2.0 * np.pi ** n / math.factorial(n - 1)
        assert sphere / (n + 1) * 2.0 * integral == pytest.approx(want, rel=1e-13)
        got = CCBallRegion(core.origin(n), 1.0).volume()
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n, want", [
        (1, 3.3035030488367), (2, 4.82364986384358), (3, 4.619214423014483)])
    def test_unit_ball_volume_bits(self, n, want):
        # the Gauss-Legendre sum of the Jacobian that tau shares, to the bit
        assert measures._unit_ball_volume(n) == want

    @pytest.mark.parametrize("center", [[0.0, 0.0, 0.0], [1.0, -2.0, 0.5],
                                        [0.3, 0.0, -0.2, 0.4, 1.0]])
    def test_ball_volume_within_monte_carlo_oracle(self, center):
        ball = CCBallRegion(np.array(center), 0.8)
        box = ball.bounding_box()
        hit = ball.contains(box.sample(BALL_PROPOSALS, np.random.default_rng(5))).mean()
        sigma = np.sqrt(hit * (1.0 - hit) / BALL_PROPOSALS) * box.volume()
        assert abs(ball.volume() - hit * box.volume()) <= 3.0 * sigma

    def test_ball_volume_scaling(self):
        # homogeneous dimension 2n+2, and Lebesgue measure is left-invariant
        for n in (1, 2, 3):
            unit = CCBallRegion(core.origin(n), 1.0).volume()
            assert 0 < unit < CCBallRegion(core.origin(n), 1.0).bounding_box().volume()
            for radius in (1e-3, 0.7, 2.0, 5e4):
                ball = CCBallRegion(core.origin(n), radius)
                assert ball.volume() == pytest.approx(radius ** (2 * n + 2) * unit, rel=1e-15)
            assert CCBallRegion(core.origin(n), 2.0).volume() == 2.0 ** (2 * n + 2) * unit
            # congruent balls, the same bits
            moved = np.arange(1.0, 2 * n + 2)
            assert CCBallRegion(moved, 0.7).volume() == CCBallRegion(core.origin(n), 0.7).volume()

    def test_box_dilation(self):
        b = BoxRegion.shifted([1.0, 0.0, 0.5])
        d = b.dilated(2.0)
        assert np.array_equal(d.intervals[0], [2.0, 4.0])
        assert np.array_equal(d.intervals[2], [2.0, 6.0])


class TestSampling:
    def test_zero_samples(self):
        assert sample_uniform(BoxRegion.unit(1), 0, seed=0).shape == (0, 3)

    def test_deterministic(self):
        a = sample_uniform(BoxRegion.unit(1), 100, seed=7)
        b = sample_uniform(BoxRegion.unit(1), 100, seed=7)
        assert np.array_equal(a, b)
        c = sample_uniform(BoxRegion.unit(1), 100, seed=8)
        assert not np.array_equal(a, c)

    def test_box_mean_clt(self):
        # per-coordinate mean of U[0,1] has sd sqrt(1/12)/sqrt(N)
        N = 10_000
        pts = sample_uniform(BoxRegion.unit(1), N, seed=11)
        sd = np.sqrt(1.0 / 12.0 / N)
        assert np.all(np.abs(pts.mean(axis=0) - 0.5) <= 5 * sd)

    def test_ball_membership_by_construction(self):
        ball = CCBallRegion(core.origin(1), 1.0)
        pts = sample_uniform(ball, 10_000, seed=3)
        d = geodesy.cc_distance_many(np.broadcast_to(core.origin(1), pts.shape), pts)
        assert np.all(d <= 1.0)

    def test_dilated_box_samples_are_dilated_samples(self):
        box = BoxRegion.shifted([0.5, -1.0, 2.0])
        a = sample_uniform(box, 64, seed=9)
        b = sample_uniform(box.dilated(2.0), 64, seed=9)
        assert np.array_equal(b, core.dilate(2.0, a))

    def test_dilated_ball_samples_are_dilated_samples(self):
        ball = CCBallRegion(np.array([1.0, 0.5, -0.25]), 0.75)
        a = sample_uniform(ball, 64, seed=13)
        b = sample_uniform(ball.dilated(4.0), 64, seed=13)
        assert np.array_equal(b, core.dilate(4.0, a))

    def test_union_density_constant(self):
        m = normalized_measure(two_box_union(), 256, seed=1)
        assert np.allclose(m.density, 0.5)
        assert np.allclose(m.weights, 1.0 / 256)


class TestDiscreteMeasure:
    def test_weight_validation(self):
        pts = np.zeros((2, 3))
        with pytest.raises(ValueError):
            DiscreteMeasure(pts, np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            DiscreteMeasure(pts, np.array([1.2, -0.2]))

    def test_normalized_measure_shape(self):
        m = normalized_measure(BoxRegion.unit(1), 50, seed=0)
        assert len(m) == 50
        assert m.n == 1
        assert np.allclose(m.density, 1.0)


class TestDensityAndEntropy:
    def test_single_cell_density(self):
        pts = np.full((10, 3), 0.2)
        m = DiscreteMeasure(pts, np.full(10, 0.1))
        est = estimate_density(m, h=1.0)
        assert np.allclose(est.density, 1.0)
        est2 = estimate_density(m, h=0.5)
        assert np.allclose(est2.density, 1.0 / 0.125)

    def test_uniform_density_multinomial(self):
        # lambda ~ 312 per cell: every cell within 5 sigma at this seed
        N, h = 20_000, 0.25
        m = normalized_measure(BoxRegion.unit(1), N, seed=21)
        est = estimate_density(m, h)
        p = h ** 3
        sd = np.sqrt(p * (1 - p) / N) / p
        assert np.all(np.abs(est.density - 1.0) <= 5 * sd)

    def test_entropy_uniform_exact_density(self):
        m = normalized_measure(BoxRegion.unit(1), 100, seed=2)
        assert renyi_entropy(m) == pytest.approx(-1.0, abs=1e-12)

    def test_entropy_two_boxes_exact_density(self):
        m = normalized_measure(two_box_union(), 200, seed=3)
        assert renyi_entropy(m) == pytest.approx(-(2.0 ** (1.0 / 3.0)), abs=1e-12)

    def test_entropy_requires_density(self):
        m = DiscreteMeasure(np.zeros((1, 3)), np.array([1.0]))
        with pytest.raises(ValueError):
            renyi_entropy(m)

    def test_richardson_pair_reduces_bias(self):
        m = normalized_measure(BoxRegion.unit(1), 2000, seed=5)
        plain = renyi_entropy(estimate_density(m, 0.1))
        rich, stderr = renyi_entropy_estimate(m, 0.1)
        assert abs(rich - (-1.0)) < abs(plain - (-1.0))
        assert abs(rich - (-1.0)) <= 3 * stderr + 0.02

    def test_jensen_holds_for_plain_pair(self):
        # -sum w rho^{-1/3} >= -(occupied volume)^{1/3} is Hoelder-exact
        # when entropy and support volume use the same grid and r = 0
        rng = np.random.default_rng(17)
        pts = rng.random((500, 3)) * [2.0, 1.0, 0.5]
        m = DiscreteMeasure(pts, np.full(500, 1 / 500))
        h = 0.1
        ent = renyi_entropy(estimate_density(m, h))
        vol = estimate_volume(pts, r=0.0, h=h).volume
        assert ent >= -vol ** (1.0 / 3.0) - 1e-12


def entropy_reference(m, h, n_boot, seed):
    """`renyi_entropy_estimate` as a per-replicate loop that bins every
    bootstrap cloud from scratch on both grids."""
    d = m.points.shape[1]
    k = 2.0 ** d

    def corrected(points, weights):
        e1 = measures._entropy(weights, measures._histogram_density(points, weights, h), d)
        e2 = measures._entropy(weights, measures._histogram_density(points, weights, 2.0 * h), d)
        return (k * e2 - e1) / (k - 1.0), e1, e2

    value, e1, e2 = corrected(m.points, m.weights)
    rng = measures._rng(seed ^ 0xB007)
    N = len(m.points)
    boots = np.empty(n_boot)
    for b in range(n_boot):
        pick = rng.choice(N, size=N, replace=True, p=m.weights)
        boots[b], _, _ = corrected(m.points[pick], np.full(N, 1.0 / N))
    guard = abs(e2 - e1) / (k - 1.0)
    return float(value), float(np.sqrt(np.var(boots) + guard * guard))


@st.composite
def entropy_cases(draw):
    """A weighted cloud in H^n (n = 1, 2) whose rows repeat, with a cell size."""
    n = draw(st.integers(1, 2))
    N = draw(st.integers(1, 300))
    distinct = draw(st.integers(1, N))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.uniform(-scale, scale, (distinct, 2 * n + 1))
    points = rows[rng.integers(distinct, size=N)]
    w = rng.uniform(0.05, 1.0, N) ** draw(st.sampled_from([0.0, 1.0, 4.0]))
    m = DiscreteMeasure(points, w / w.sum())
    h = draw(st.floats(1e-6, 10.0))
    return m, h


class TestEntropyAgainstReference:
    @settings(deadline=None, max_examples=120)
    @given(entropy_cases(), st.integers(0, 2 ** 16), st.sampled_from([2, 3, 24]))
    def test_bit_identical_to_per_replicate_binning(self, case, seed, n_boot):
        m, h = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_N_BOOT", n_boot)
            mp.setattr(measures, "_BOOT_SEED", seed)
            got = renyi_entropy_estimate(m, h)
        want = entropy_reference(m, h, n_boot, seed)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("n_boot", [2, 24])
    def test_bins_each_grid_once(self, monkeypatch, n_boot):
        calls = []
        cell_index = measures._cell_index

        def counting(points, h):
            calls.append(h)
            return cell_index(points, h)

        monkeypatch.setattr(measures, "_cell_index", counting)
        monkeypatch.setattr(measures, "_N_BOOT", n_boot)
        renyi_entropy_estimate(normalized_measure(BoxRegion.unit(1), 200, seed=6), 0.1)
        assert sorted(calls) == [0.1, 0.2]


class TestThetaDeviation:
    def test_overlap_gives_zero(self):
        rng = np.random.default_rng(4)
        A = rng.random((5, 3))
        B = np.vstack([A[2], rng.random((3, 3))])
        assert theta_deviation(A, B) == 0.0

    def test_center_pair(self):
        A = core.origin(1)[None, :]
        B = np.array([[0.0, 0.0, 1.0]])
        assert theta_deviation(A, B) == pytest.approx(2 * np.pi)

    def test_dilation_invariant_bitwise(self):
        rng = np.random.default_rng(6)
        A = rng.random((20, 3))
        B = rng.random((20, 3)) + [2.0, 0.0, 0.0]
        t1 = theta_deviation(A, B)
        t2 = theta_deviation(core.dilate(2.0, A), core.dilate(2.0, B))
        assert t1 == t2

    def test_monotone_under_refinement(self):
        rng = np.random.default_rng(7)
        A = rng.random((10, 3))
        B = rng.random((10, 3)) + [1.5, 0.0, 0.0]
        more = np.vstack([B, rng.random((10, 3)) + [1.5, 0.0, 0.0]])
        assert theta_deviation(A, more) <= theta_deviation(A, B)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            theta_deviation(np.empty((0, 3)), np.zeros((1, 3)))


class TestStepApproximate:
    def test_depth_zero_single_piece(self):
        m = normalized_measure(BoxRegion.unit(1), 100, seed=8)
        sm = step_approximate(m, BoxRegion.unit(1), depth=0)
        assert len(sm.regions) == 1
        assert sm.masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert sm.levels[0] == pytest.approx(1.0)

    def test_uniform_input_levels_equal(self):
        # quadrature grid: every depth-d cell gets identical mass
        g = np.linspace(0, 1, 9)[:-1] + 1.0 / 16.0
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        m = DiscreteMeasure(pts, np.full(len(pts), 1.0 / len(pts)))
        for depth in (1, 2, 3):
            sm = step_approximate(m, BoxRegion.unit(1), depth)
            assert len(sm.regions) == 2 ** depth
            assert np.allclose(sm.levels, 1.0)

    def test_two_level_exact_recovery(self):
        # density 4/3 on x < 1/2 and 2/3 on x > 1/2, quadrature representation
        gx_lo = np.arange(4) / 8.0 + 1.0 / 16.0
        gx_hi = 0.5 + gx_lo
        g8 = np.arange(8) / 8.0 + 1.0 / 16.0
        lo = np.stack(np.meshgrid(gx_lo, g8, g8, indexing="ij"), axis=-1).reshape(-1, 3)
        hi = np.stack(np.meshgrid(gx_hi, g8, g8, indexing="ij"), axis=-1).reshape(-1, 3)
        pts = np.vstack([np.repeat(lo, 2, axis=0), hi])
        w = np.full(len(pts), 1.0 / len(pts))
        m = DiscreteMeasure(pts, w)
        sm = step_approximate(m, BoxRegion.unit(1), depth=1)
        assert len(sm.regions) == 2
        levels = sorted(sm.levels)
        assert levels[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert levels[1] == pytest.approx(4.0 / 3.0, abs=1e-12)
        # deeper splits keep the two exact levels
        sm5 = step_approximate(m, BoxRegion.unit(1), depth=5)
        assert set(np.round(sm5.levels, 12)) == {np.round(2.0 / 3.0, 12), np.round(4.0 / 3.0, 12)}
        assert sm5.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_support_check(self):
        m = normalized_measure(BoxRegion.shifted([5.0, 0.0, 0.0]), 10, seed=0)
        with pytest.raises(ValueError):
            step_approximate(m, BoxRegion.unit(1), 1)


class TestEstimateVolume:
    def test_empty(self):
        est = estimate_volume(np.empty((0, 3)), 0.0, 0.1)
        assert est.volume == 0.0

    def test_single_point_r0(self):
        est = estimate_volume(np.array([[0.55, 0.55, 0.55]]), 0.0, 0.1)
        assert est.volume == pytest.approx(0.1 ** 3)
        assert est.cells_occupied == 1

    def test_saturation_unit_box(self):
        pts = sample_uniform(BoxRegion.unit(1), 100_000, seed=30)
        est = estimate_volume(pts, 0.0, 0.1)
        assert est.volume == pytest.approx(1.0, rel=0.05)

    def test_monotone_in_r(self):
        rng = np.random.default_rng(9)
        pts = rng.random((50, 3))
        vols = [estimate_volume(pts, r, 0.1).volume for r in (0.0, 0.1, 0.2)]
        assert vols[0] <= vols[1] <= vols[2]

    def test_r_positive_matches_bruteforce(self):
        rng = np.random.default_rng(10)
        pts = rng.random((40, 3))
        h, r = 0.25, 0.3
        est = estimate_volume(pts, r, h)
        # brute force: every grid cell center in [-1, 3]^3, min distance
        lo = np.floor(-1.0 / h) - 1
        hi = np.floor(3.0 / h) + 2
        ks = np.arange(lo, hi)
        ctr = np.stack(np.meshgrid(ks, ks, ks, indexing="ij"), axis=-1).reshape(-1, 3)
        centers = (ctr + 0.5) * h
        occupied = 0
        pt_cells = set(map(tuple, np.floor(pts / h).astype(int)))
        for c in centers:
            dmin = geodesy.cc_distance_many(np.broadcast_to(c, pts.shape), pts).min()
            if dmin <= r or tuple(np.floor(c / h).astype(int)) in pt_cells:
                occupied += 1
        assert est.volume == pytest.approx(occupied * h ** 3, abs=1e-12)

    def test_under_resolution_warning(self):
        with pytest.warns(UserWarning):
            estimate_volume(np.array([[0.5, 0.5, 0.5]]), 0.05, 0.2)

    @pytest.mark.parametrize("pts, match", [
        ([[0.5, 0.5, 0.5], [0.2, np.nan, 0.1]], "finite"),
        ([[0.5, 0.5, 0.5], [0.2, np.inf, 0.1]], "finite"),
        ([[0.5, 0.5]] * 3, "odd"), ([[0.5] * 4] * 3, "odd")])
    def test_malformed_points_rejected(self, pts, match):
        for r in (0.0, 0.1):
            with pytest.raises(ValueError, match=match):
                estimate_volume(np.array(pts), r, 0.1)

    @pytest.mark.parametrize("r, h", [(np.nan, 0.1), (np.inf, 0.1), (0.1, np.nan), (0.1, np.inf),
                                      (-0.1, 0.1), (0.1, 0.0)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_r_or_h_rejected(self, r, h):
        with pytest.raises(ValueError, match="need finite r >= 0 and h > 0"):
            estimate_volume(np.array([[0.5, 0.5, 0.5]]), r, h)

    def test_stderr_positive_for_sparse_cloud(self):
        rng = np.random.default_rng(11)
        pts = rng.random((30, 3))
        est = estimate_volume(pts, 0.08, 0.05)
        assert est.stderr > 0
        assert est.cells_boundary > 0


def brute_covered(queries, points, r):
    """covered(q) from every (probe, point) pair through the probe search's
    float test chain: |dzeta|^2 <= r^2, pi |dt| / 2 <= r^2, then
    |dzeta| + sqrt(pi |dt|) <= r, then the root solve."""
    qi, pi = np.divmod(np.arange(len(queries) * len(points)), len(points))
    dq, dp = queries[qi], points[pi]
    diff = dp[:, :-1] - dq[:, :-1]
    dz2 = np.sum(diff * diff, axis=1)
    dzeta, dt = geodesy._twisted_difference(dq, dp)
    adt = np.abs(dt)
    near = (dz2 <= r * r) & (np.pi * adt / 2.0 <= r * r)
    hit = near & (np.sqrt(dz2) + np.sqrt(np.pi * adt) <= r)
    rest = near & ~hit
    if np.any(rest):
        hit[rest] = geodesy._invert_arrays(dzeta[rest], dt[rest])[2] <= r
    covered = np.zeros(len(queries), dtype=bool)
    covered[qi[hit]] = True
    return covered


def cluster_case(rng, n, h, r, abs_zeta0, abs_t0, spread, n_pts, n_q, t_spread=None):
    """Points around (zeta0, t0) in a generic direction (round coordinates
    such as (1e3, 0) hide rounding), and probes of three kinds: copies of
    points, points moved by about r, and uniform draws over the cluster.
    The cluster is (zeta0, t0) times a box of half-widths `spread` in zeta
    and `t_spread` (default spread^2) in t."""
    direction = rng.normal(size=2 * n)
    center = np.append(abs_zeta0 * direction / np.linalg.norm(direction),
                       abs_t0 * rng.uniform(-1.0, 1.0))

    def local(k, size, t_size=None):
        t_size = size * size if t_size is None else t_size
        g = np.empty((k, 2 * n + 1))
        g[:, :-1] = rng.uniform(-size, size, (k, 2 * n))
        g[:, -1] = rng.uniform(-t_size, t_size, k)
        return g

    points = core.group_mul(center, local(n_pts, spread, t_spread))
    picked = points[rng.integers(n_pts, size=n_q)]
    kind = rng.choice(3, size=n_q, p=[0.3, 0.5, 0.2])
    queries = np.where((kind == 0)[:, None], picked,
                       np.where((kind == 1)[:, None],
                                core.group_mul(picked, local(n_q, 1.2 * r)),
                                core.group_mul(center, local(n_q, spread, t_spread))))
    return queries, points


@st.composite
def probe_cases(draw):
    """n = 1, 2; r < h, r = h, r > h; |zeta0| up to 1e3 and |t0| up to 1e6.
    Large cells let the shear term of the search window span cells; cells
    as small as 1e-10 put the rounding of the sheared keys at the scale of
    a cell."""
    n = draw(st.sampled_from([1, 2]))
    h = draw(st.sampled_from([1e-10, 1e-4, 0.05, 0.5, 2.0]))
    r = h * draw(st.sampled_from([0.6, 1.0, 1.7]))
    abs_zeta0 = draw(st.sampled_from([0.0, 1.0, 30.0, 1e3]))
    abs_t0 = draw(st.sampled_from([0.0, 1.0, 1e2, 1e6]))
    spread = r * draw(st.sampled_from([1.0, 4.0, 20.0]))
    n_pts = draw(st.integers(1, 40))
    n_q = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    queries, points = cluster_case(rng, n, h, r, abs_zeta0, abs_t0, spread, n_pts, n_q)
    return queries, points, r, h


class TestProbeSearch:
    @settings(deadline=None, max_examples=150)
    @given(probe_cases())
    def test_matches_all_pairs(self, case):
        queries, points, r, h = case
        got = measures._covered_queries(queries, measures._sheared_index(points, h), r)
        assert np.array_equal(got, brute_covered(queries, points, r))

    @pytest.mark.parametrize("n, h, abs_zeta0, abs_t0", [
        (1, 2.0, 30.0, 1e2),     # the shear term 2|b|r spans cells
        (2, 2.0, 30.0, 1e2),
        (1, 1e-10, 1e3, 1e6),    # rounding of S_p and Q spans cells
        (2, 1e-10, 1e3, 1e6),
    ])
    def test_matches_all_pairs_where_the_window_terms_matter(self, n, h, abs_zeta0, abs_t0):
        rng = np.random.default_rng(41)
        r = h
        queries, points = cluster_case(rng, n, h, r, abs_zeta0, abs_t0, 20.0 * r, 200, 400)
        got = measures._covered_queries(queries, measures._sheared_index(points, h), r)
        want = brute_covered(queries, points, r)
        assert 0.2 < want.mean() < 0.9
        assert np.array_equal(got, want)

    def test_empty_neighbour_cells_and_far_probes(self):
        # the first point is (0.5, 0.5, 0.5) * (0.02, 0.01, 0): at distance 0.0224
        points = np.array([core.group_mul([0.5, 0.5, 0.5], [0.02, 0.01, 0.0]),
                           [3.0, 3.0, 3.0]])
        queries = np.array([[0.5, 0.5, 0.5], [1.9, 1.9, 0.0], [3.0, 3.0, 3.0],
                            [-5.0, 0.0, 0.0], [0.5, 0.5, 9.0]])
        got = measures._covered_queries(queries, measures._sheared_index(points, 0.05), 0.05)
        assert got.tolist() == [True, False, True, False, False]
        assert np.array_equal(got, brute_covered(queries, points, 0.05))


@st.composite
def within_cases(draw):
    """Pairs (x, x g) around (zeta0, t0), with g of size about r: a third
    horizontal (t = 0), a third vertical (zeta = 0), so that the bounds of
    the predicate are met with equality."""
    n = draw(st.sampled_from([1, 2]))
    r = draw(st.sampled_from([1e-3, 0.05, 1.0, 30.0]))
    abs_zeta0 = draw(st.sampled_from([0.0, 1.0, 1e3]))
    abs_t0 = draw(st.sampled_from([0.0, 1.0, 1e6]))
    k = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    _, xs = cluster_case(rng, n, r, r, abs_zeta0, abs_t0, r, k, 1)
    size = r * rng.choice([0.3, 0.7, 1.0, 1.4], size=(k, 1))
    g = np.empty((k, 2 * n + 1))
    g[:, :-1] = rng.uniform(-1.0, 1.0, (k, 2 * n)) * size
    g[:, -1] = rng.uniform(-1.0, 1.0, k) * size[:, 0] ** 2
    kind = rng.integers(3, size=k)
    g[kind == 0, -1] = 0.0
    g[kind == 1, :-1] = 0.0
    return xs, core.group_mul(xs, g), r


class TestWithin:
    @settings(deadline=None, max_examples=150)
    @given(within_cases())
    def test_is_the_distance_test(self, case):
        xs, ys, r = case
        got = measures._within(xs, ys, r)
        assert np.array_equal(got, measures._within(ys, xs, r))
        d = geodesy.cc_distance_many(xs, ys)
        clear = np.abs(d - r) > 1e-12 * r
        assert np.array_equal(got[clear], d[clear] <= r)


class TestBoundaryMask:
    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.integers(-3, 60), max_size=40), st.lists(st.integers(-3, 60), max_size=40))
    def test_membership_is_isin(self, occupied, keys):
        occupied = np.unique(np.array(occupied, dtype=np.int64))
        keys = np.array(keys, dtype=np.int64)
        assert np.array_equal(measures._in_sorted(keys, occupied), np.isin(keys, occupied))

    def test_faces_on_a_block(self):
        # a 3x3x3 block of occupied cells: only its centre has no free face
        lo, shape = np.zeros(3, dtype=np.int64), (5, 5, 5)
        cells = np.stack(np.meshgrid(*[np.arange(1, 4)] * 3, indexing="ij"), -1).reshape(-1, 3)
        keys = measures._encode(cells, lo, shape)
        order = np.argsort(keys)
        mask = measures._boundary_mask(cells[order], keys[order], lo, shape)
        assert mask.sum() == 26
        assert not mask[np.all(cells[order] == 2, axis=1)][0]

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from([3, 5]), st.floats(0.2, 0.95), st.integers(0, 2 ** 32 - 1))
    def test_faces_match_brute_force(self, d, density, seed):
        # random occupied sets on small grids, some cells on the grid's faces
        rng = np.random.default_rng(seed)
        shape = tuple(int(v) for v in rng.integers(1, 6, d))
        lo = rng.integers(-3, 4, d)
        cells = np.stack(np.meshgrid(*[np.arange(m) for m in shape], indexing="ij"),
                         -1).reshape(-1, d) + lo
        cells = cells[rng.random(len(cells)) < density]
        keys = np.ravel_multi_index((cells - lo).T, shape)
        order = np.argsort(keys)
        cells, keys = cells[order], keys[order]
        occupied = set(map(tuple, cells.tolist()))
        want = []
        for c in cells.tolist():
            free = False
            for ax in range(d):
                for step in (-1, 1):
                    nb = list(c)
                    nb[ax] += step
                    off_grid = not lo[ax] <= nb[ax] < lo[ax] + shape[ax]
                    free |= off_grid or tuple(nb) not in occupied
            want.append(free)
        assert measures._boundary_mask(cells, keys, lo, shape).tolist() == want


@st.composite
def int_rows(draw):
    """Int arrays of 0-200 rows and 1-5 columns, from a small range (many
    repeated rows, negative entries) or at a scale of 1e12, where a key
    raveled from the rows would overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, cols = draw(st.integers(0, 200)), draw(st.integers(1, 5))
    bound = draw(st.sampled_from([3, 10 ** 12]))
    return rng.integers(-bound, bound + 1, (rows, cols))


class TestBitEqualHelpers:
    """The occupancy and histogram helpers that stand in for numpy's slower
    generic paths give numpy's own outputs, bit for bit."""

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.one_of(st.integers(-5, 5), st.integers(-2 ** 62, 2 ** 62)), max_size=60))
    def test_sorted_unique_is_unique(self, keys):
        keys = np.array(keys, dtype=np.int64)
        got = measures._sorted_unique(keys)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(keys))

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from([2, 4, 6, 8, 14]), st.integers(1, 300),
           st.floats(-8.0, 8.0), st.integers(0, 2 ** 32 - 1))
    def test_sq_norm_is_numpy_sum(self, width, rows, log_scale, seed):
        # magnitudes spread over 1e-8 to 1e8; the callers pass the zeta
        # columns of a cloud, a strided view
        rng = np.random.default_rng(seed)
        cloud = rng.normal(size=(rows, width + 1)) * 10.0 ** rng.uniform(-8.0, 8.0,
                                                                         (rows, width + 1))
        for z in (cloud[:, :-1], 10.0 ** log_scale * np.ascontiguousarray(cloud[:, :-1])):
            assert np.array_equal(measures._sq_norm(z), np.sum(z * z, axis=1))

    @pytest.mark.parametrize("width", [2, 3, 7, 8, 14])
    def test_sq_norm_long_arrays(self, width):
        z = np.random.default_rng(width).normal(size=(8193, width)) * 1e3
        for rows in (1, 7, 8, 9, 1024, 8193):
            assert np.array_equal(measures._sq_norm(z[:rows]), np.sum(z[:rows] ** 2, axis=1))

    @settings(deadline=None, max_examples=100)
    @given(int_rows())
    def test_row_labels_are_unique_rows(self, idx):
        first, labels = measures._row_labels(idx)
        want_cells, want_first, want_labels = np.unique(idx, axis=0, return_index=True,
                                                        return_inverse=True)
        assert np.array_equal(first, want_first)
        assert np.array_equal(idx[first], want_cells)
        assert np.array_equal(labels, want_labels.ravel())

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from([1, 2, 3, 5]), st.integers(0, 2 ** 32 - 1))
    def test_encode_and_in_box(self, d, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(v) for v in rng.integers(1, 40, d))
        lo = rng.integers(-10 ** 6, 10 ** 6, d)
        idx = lo + rng.integers(0, shape, (int(rng.integers(0, 200)), d))
        assert np.array_equal(measures._encode(idx, lo, shape),
                              np.ravel_multi_index((idx - lo).T, shape))
        box_lo, box_hi = lo + rng.integers(0, 5, d), lo + rng.integers(0, 40, d)
        assert np.array_equal(measures._in_box(idx, box_lo, box_hi),
                              np.all((idx >= box_lo) & (idx < box_hi), axis=1))


class TestRejectionGuard:
    def test_low_acceptance_raises(self):
        # in H^7 the unit ball fills about 2e-5 of its box, so the
        # acceptance ratio collapses and the sampler must refuse
        ball = CCBallRegion(np.zeros(15), 1.0)
        with pytest.raises(ValueError, match="acceptance"):
            ball.sample(100, measures._rng(0))

    def test_far_off_axis_ball_samples(self):
        # proposals come from the centred ball's box, translated: the far
        # center does not shear them, and every sample is in the ball
        ball = CCBallRegion(np.array([1e4, 0.0, 0.0]), 1.0)
        pts = sample_uniform(ball, 500, seed=0)
        assert pts.shape == (500, 3)
        assert ball.contains(pts).all()

    def test_zero_volume_region_rejected(self):
        # radius^4 underflows, so the exact volume itself is zero
        ball = CCBallRegion(np.zeros(3), 1e-100)
        assert ball.volume() == 0.0
        with pytest.raises(ValueError, match="positive volume"):
            sample_uniform(ball, 100, seed=0)


def cloud_grid(points, h, pad):
    """lo and shape of an origin-anchored grid over the cloud's box widened
    by `pad` per axis, laid out as `measures._cloud_grid` lays out its grid."""
    lo = np.floor((points.min(axis=0) - pad) / h).astype(np.int64) - 1
    hi = np.floor((points.max(axis=0) + pad) / h).astype(np.int64) + 2
    return lo, tuple((hi - lo).tolist())


def occupied_cells(points, r, h, lo, shape):
    """The occupied set of `estimate_volume` on the grid (lo, shape): the
    cells that hold a point and the cells that `_covered_cells` adds."""
    base = np.unique(measures._encode(measures._cell_index(points, h), lo, shape))
    index = measures._sheared_index(points, h)
    return np.union1d(base, measures._covered_cells(index, base, r, lo, shape))


def brute_cells(points, r, h, lo, shape):
    """Keys of the cells of the grid (lo, shape) whose center passes
    `_within` against some point, from every (point, cell) pair in a window
    around each point.  The window holds the zeta-cells whose center passes
    `_within`'s zeta test, and the t-cells of each whose center is within
    2 r^2 / pi of the point's twisted t, widened by one cell and 4 ulps of t
    on either side.  `_within`'s t test reads the dt of p^{-1} c, which
    does not decrease with the cell's t: dt fails the test below the
    window's first cell and above its last, so no cell beyond them passes,
    and a pair inside that fails it, or whose cell is off the grid, is not
    handed to `_within`."""
    d = points.shape[1]
    m = int(np.ceil(r / h)) + 1
    base = np.floor(points[:, :-1] / h).astype(np.int64)
    pick, cols = [], []
    for off in itertools.product(range(-m, m + 1), repeat=d - 1):
        if np.sum(np.maximum(np.abs(off) - 1.0, 0.0) ** 2) * h * h > r * r:
            continue  # every center of the column is farther than r from the cell
        col = base + off
        near = np.flatnonzero(np.sum(((col + 0.5) * h - points[:, :-1]) ** 2, axis=1) <= r * r)
        pick.append(near)
        cols.append(col[near])
    p, col = points[np.concatenate(pick)], np.concatenate(cols)
    cz = (col + 0.5) * h
    tw = core._twist(p[:, :-1], cz)
    w_t = 2.0 * r * r / np.pi
    pad = 1 + np.ceil(4 * np.spacing(np.abs(p[:, -1]) + np.abs(tw)) / h)
    j0 = (np.floor((p[:, -1] + tw - w_t) / h - 0.5) - pad).astype(np.int64)
    j1 = (np.ceil((p[:, -1] + tw + w_t) / h - 0.5) + pad).astype(np.int64)

    def t_test(i, j, side):
        """`_within`'s t test of point i against the center of cell j of its
        column, and whether dt lies on `side` of 0."""
        dt, near = measures._t_test(p[i, -1], tw[i], (j + 0.5) * h, r)
        return near, side * dt > 0

    every = np.arange(len(p))
    for ends, side in ((j0, -1.0), (j1, 1.0)):
        passes, beyond = t_test(every, ends, side)
        assert np.all(~passes & beyond)
    counts = j1 - j0 + 1
    rep = np.repeat(every, counts)
    js = j0[rep] + np.arange(len(rep)) - np.repeat(np.cumsum(counts) - counts, counts)
    cells = np.column_stack([col[rep], js])
    on = np.all((cells >= lo) & (cells < lo + np.asarray(shape)), axis=1)
    keep = t_test(rep, js, 1.0)[0] & on
    rep, js = rep[keep], js[keep]
    keys = np.ravel_multi_index((cells[keep] - lo).T, shape)
    # in blocks, each skipping the cells that earlier blocks found
    found = np.empty(0, dtype=np.int64)
    for block in np.array_split(np.arange(len(rep)), 8):
        block = block[~np.isin(keys[block], found)]
        i, j = rep[block], js[block]
        hit = measures._within(p[i], np.column_stack([cz[i], (j + 0.5) * h]), r)
        found = np.union1d(found, keys[block[hit]])
    return found


def assert_search_is_brute(points, r, h, lo, shape):
    base = np.unique(measures._encode(measures._cell_index(points, h), lo, shape))
    got = measures._covered_cells(measures._sheared_index(points, h), base, r, lo, shape)
    assert np.array_equal(got, np.setdiff1d(brute_cells(points, r, h, lo, shape), base))


def dense_case(rng, n, h, r, abs_zeta0, abs_t0, cells, per_cell):
    """A `cluster_case` cloud `cells` = (zeta, t) cells wide per axis, with
    about `per_cell` points per cell, so that most sheared groups away from
    the cloud's edge are interior.  Density per cell is what the skip of
    occupied cells sees: at r ~ h < 1 a CC ball (volume ~ 3.3 r^4 in H^1)
    is much thinner in t than a cell."""
    m_z, m_t = cells
    n_pts = int(per_cell * m_z ** (2 * n) * m_t)
    _, points = cluster_case(rng, n, h, r, abs_zeta0, abs_t0, m_z * h / 2, n_pts, 1,
                             t_spread=m_t * h / 2)
    return points


@st.composite
def dense_cases(draw):
    """n = 1, 2; r/h in {0.6, 1, 1.7}; |zeta0| up to 1e3 and |t0| up to 1e6.
    Cells of edge 2 let the twist across a cell, up to h^2 sum |off|, span
    cells; cells of 1e-9 and 1e-10 put the rounding of the sheared keys at
    the scale of a cell.  A grid without padding clips the search's
    t-ranges.  Where 2 |zeta0|, the t-shear across one column in cells,
    exceeds the cloud's t-width in cells, a column's points spread over
    more cells than they fill and few candidate cells are occupied."""
    n = draw(st.sampled_from([1, 2]))
    h = draw(st.sampled_from([1e-10, 1e-9, 1e-4, 0.05, 0.5, 2.0]))
    r = h * draw(st.sampled_from([0.6, 1.0, 1.7]))
    abs_zeta0 = draw(st.sampled_from([0.0, 1.0, 30.0, 1e3]))
    abs_t0 = draw(st.sampled_from([0.0, 1.0, 1e2, 1e6]))
    cells, per_cell = draw(st.sampled_from([((10, 8), 5), ((8, 40), 4)] if n == 1
                                           else [((5, 4), 6)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = dense_case(rng, n, h, r, abs_zeta0, abs_t0, cells, per_cell)
    if draw(st.booleans()):
        grid = cloud_grid(points, h, np.zeros(2 * n + 1))
    else:
        grid = measures._cloud_grid(points, r, h)
    return points, r, h, grid


class TestShellPrune:
    """`_covered_cells` skips the cells that already hold a point and
    decides the rest against their sheared group; the occupied set equals
    the brute-force reference."""

    @settings(deadline=None, max_examples=50)
    @given(dense_cases())
    def test_pruned_search_gives_the_same_cells(self, case):
        points, r, h, (lo, shape) = case
        assert_search_is_brute(points, r, h, lo, shape)

    @settings(deadline=None, max_examples=100)
    @given(probe_cases())
    def test_sparse_clouds_give_the_same_cells(self, case):
        # at most 40 points, most of them alone in their sheared group, so
        # few cells are reached from more than one point
        _, points, r, h = case
        assert_search_is_brute(points, r, h, *measures._cloud_grid(points, r, h))

    @pytest.mark.parametrize("n, h, ratio, abs_zeta0, abs_t0, cells, per_cell", [
        # the twist across a cell, h^2 sum |off|, is half a cell to several cells
        (1, 0.5, 1.0, 0.0, 0.0, (8, 40), 4),
        (1, 2.0, 0.6, 0.0, 0.0, (8, 40), 4),
        (2, 0.05, 0.6, 0.0, 0.0, (5, 4), 6),
        # the rounding of t near 1e6 is a tenth of a cell, and the margin
        # a million cells, clipped to the grid and narrowed by bisection
        (1, 1e-9, 1.0, 30.0, 1e6, (8, 40), 4),
    ])
    def test_pruned_search_where_the_range_terms_matter(self, n, h, ratio, abs_zeta0, abs_t0,
                                                        cells, per_cell):
        rng = np.random.default_rng(43)
        r = ratio * h
        points = dense_case(rng, n, h, r, abs_zeta0, abs_t0, cells, per_cell)
        lo, shape = cloud_grid(points, h, np.zeros(2 * n + 1))
        base = np.unique(measures._encode(measures._cell_index(points, h), lo, shape))
        want = brute_cells(points, r, h, lo, shape)
        assert np.array_equal(occupied_cells(points, r, h, lo, shape), np.union1d(base, want))

    def test_cells_where_t_over_h_nears_2_53(self):
        # t / h reaches 8.9e15, where floats are one apart: the window that
        # the search used to take per point in t / h lost 151 of 4849 cells
        r, h = 6e-11, 1e-10
        points = dense_case(np.random.default_rng(5), 2, h, r, 0.0, 1e6, (5, 4), 6)
        assert np.max(np.abs(points[:, -1])) / h > 2.0 ** 52
        lo, shape = measures._cloud_grid(points, r, h)
        want = np.union1d(np.unique(measures._encode(measures._cell_index(points, h), lo, shape)),
                          brute_cells(points, r, h, lo, shape))
        assert len(want) == 4849
        assert estimate_volume(points, r, h).cells_occupied == len(want)
        assert np.array_equal(occupied_cells(points, r, h, lo, shape), want)

    def test_prune_drops_most_of_a_dense_cloud(self):
        # about 6 points per cell; the shear 2 |zeta| r stays below two cells
        box = BoxRegion(np.array([[-0.5, 0.5], [-0.5, 0.5], [0.0, 1.0]]))
        pts = sample_uniform(box, 40_000, seed=31)
        r = h = 0.05
        lo, shape = measures._cloud_grid(pts, r, h)
        base = np.unique(measures._encode(measures._cell_index(pts, h), lo, shape))
        want = np.union1d(base, brute_cells(pts, r, h, lo, shape))
        assert len(want) > len(base)
        assert estimate_volume(pts, r, h).cells_occupied == len(want)

    def test_sparse_and_r_zero_counts(self):
        pts = np.array([[0.5, 0.5, 0.5], [0.52, 0.5, 0.5], [1.5, 1.5, 1.5]])
        lo, shape = measures._cloud_grid(pts, 0.05, 0.05)
        want = np.union1d(np.unique(measures._encode(measures._cell_index(pts, 0.05), lo, shape)),
                          brute_cells(pts, 0.05, 0.05, lo, shape))
        assert estimate_volume(pts, 0.05, 0.05).cells_occupied == len(want)
        # the first two points share a cell
        assert estimate_volume(pts, 0.0, 0.05).cells_occupied == 2


@st.composite
def thickened_clouds(draw):
    """Dense clouds in H^1 and H^2, most of whose candidate cells hold a
    point, with r > 0."""
    n = draw(st.sampled_from([1, 2]))
    h = draw(st.sampled_from([0.05, 0.1]))
    abs_zeta0 = draw(st.sampled_from([0.0, 1.0]))
    ratio = draw(st.sampled_from([0.6, 1.0, 1.7]) if n == 1 else st.just(0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cells, per_cell = ((10, 8), 5) if n == 1 else ((5, 4), 6)
    points = dense_case(rng, n, h, ratio * h, abs_zeta0, 0.0, cells, per_cell)
    return points, ratio * h, h


class TestVolumeMonotone:
    @settings(deadline=None, max_examples=30)
    @given(thickened_clouds())
    def test_monotone_in_r(self, case):
        points, r, h = case
        vols = [estimate_volume(points, rr, h).volume for rr in (0.0, r, 1.5 * r)]
        assert vols == sorted(vols)

    @settings(deadline=None, max_examples=30)
    @given(thickened_clouds(), st.floats(0.1, 0.9))
    def test_adding_points_adds_cells(self, case, frac):
        points, r, h = case
        part = points[: max(1, int(frac * len(points)))]
        lo, shape = measures._cloud_grid(points, r, h)
        small = occupied_cells(part, r, h, lo, shape)
        large = occupied_cells(points, r, h, lo, shape)
        assert np.all(np.isin(small, large))
        assert estimate_volume(part, r, h).volume <= estimate_volume(points, r, h).volume
