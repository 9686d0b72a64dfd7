import warnings

import numpy as np
import pytest

from heis import geodesy, verify
from heis.distortion import p_mean, tau, tau_tilde
from heis.geodesy import CENTER_TOL, TWO_PI, angle, midpoint
from heis.measures import (
    BoxRegion,
    CCBallRegion,
    DiscreteMeasure,
    UnionRegion,
    normalized_measure,
)
from heis.transport import cost_matrix, geodesic_plan, solve_exact
from heis.verify import (
    GridFunction,
    HypothesisViolated,
    InequalityReport,
    StepLimitRow,
    cd_functional,
    step_limit_experiment,
    verify_bbl,
    verify_bmi_sweep,
    verify_cd_sweep,
    verify_sbmi_sweep,
)

UNIT = BoxRegion.unit(1)
OFFSET = BoxRegion.shifted([2.0, 0.0, 0.0])


def quadrature_measure(density_left=1.0, density_right=1.0):
    """8x8x8 quadrature grid on the unit box, two x-levels, exact densities."""
    g8 = np.arange(8) / 8.0 + 1.0 / 16.0
    pts = np.stack(np.meshgrid(g8, g8, g8, indexing="ij"), axis=-1).reshape(-1, 3)
    rho = np.where(pts[:, 0] < 0.5, density_left, density_right)
    w = rho / rho.sum()
    return DiscreteMeasure(pts, w, density=rho * (512.0 / rho.sum()), density_h=None)


class TestClassify:
    def test_three_values(self):
        assert InequalityReport.classify(1.0, 0.1) == "holds"
        assert InequalityReport.classify(-1.0, 0.1) == "fails"
        assert InequalityReport.classify(0.1, 0.1) == "inconclusive"

    def test_zero_stderr(self):
        assert InequalityReport.classify(0.0, 0.0) == "holds"
        assert InequalityReport.classify(-1e-9, 0.0) == "fails"

    def test_csv_row(self):
        rep = InequalityReport.build("CD", 0.5, -1.0, -0.5, 0.5, 0.01)
        row = rep.csv_row()
        assert row.startswith("CD,0.5,")
        assert row.endswith(",holds")
        assert len(row.split(",")) == 7


class TestCdFunctional:
    def setup_method(self):
        self.mu = normalized_measure(UNIT, 64, seed=1)
        self.nu = normalized_measure(OFFSET, 64, seed=2)

    def test_s_zero_collapses_to_source_entropy(self):
        plan = solve_exact(cost_matrix(self.mu, self.nu), self.mu.weights, self.nu.weights)
        # tau_1 == 1 and tau_0 == 0 for theta < 2pi, so F = Ent(mu_0) = -1
        assert cd_functional(plan, self.mu, self.nu, 0.0) == pytest.approx(-1.0, abs=1e-12)

    def test_s_one_collapses_to_target_entropy(self):
        plan = solve_exact(cost_matrix(self.mu, self.nu), self.mu.weights, self.nu.weights)
        assert cd_functional(plan, self.mu, self.nu, 1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_identity_coupling_closed_form(self):
        # identical unit-volume uniforms coupled by identity, n=1, s=1/2:
        # theta == 0 on the diagonal, so F = -2 (1/2)^{5/3} = -2^{-2/3}
        mu = normalized_measure(UNIT, 50, seed=3)
        plan = solve_exact(cost_matrix(mu, mu), mu.weights, mu.weights)
        assert cd_functional(plan, mu, mu, 0.5) == pytest.approx(-(2.0 ** (-2.0 / 3.0)), abs=1e-12)

    def test_missing_density_rejected(self):
        plan = solve_exact(cost_matrix(self.mu, self.nu), self.mu.weights, self.nu.weights)
        bare = DiscreteMeasure(self.mu.points, self.mu.weights)
        with pytest.raises(ValueError):
            cd_functional(plan, bare, self.nu, 0.5)


class TestVerifyCd:
    def test_identical_boxes_interior_s(self):
        rep = verify_cd_sweep(UNIT, UNIT, [0.5], N=200, seed=5, h=0.1)[0]
        assert rep.name == "CD"
        assert rep.holds in ("holds", "inconclusive")
        assert rep.margin >= -3 * rep.mc_stderr
        # tau >= tau(0), so rhs sits below the theta = 0 closed form
        assert rep.rhs <= -(2.0 ** (-2.0 / 3.0)) + 1e-9
        assert rep.lhs == pytest.approx(-1.0, abs=0.15)

    def test_endpoint_margins_vanish(self):
        for rep in verify_cd_sweep(UNIT, OFFSET, [0.0, 1.0], N=200, seed=6, h=0.1):
            assert abs(rep.margin) <= 3 * rep.mc_stderr

    def test_offset_boxes_hold(self):
        rep = verify_cd_sweep(UNIT, OFFSET, [0.5], N=200, seed=7, h=0.1)[0]
        assert rep.holds in ("holds", "inconclusive")
        assert rep.margin >= -3 * rep.mc_stderr

    def test_jensen_side_report(self):
        rep = verify_cd_sweep(UNIT, UNIT, [0.25], N=150, seed=8, h=0.1)[0]
        jen = rep.extras["jensen"]
        assert jen["margin"] >= -0.05
        assert jen["name"] == "JENSEN"


class TestVerifyBmi:
    def test_identical_boxes_hold(self):
        rep = verify_bmi_sweep(UNIT, UNIT, [0.5], N=300, seed=10, r=0.1, h=0.1)[0]
        assert rep.holds == "holds"
        assert rep.extras["theta"] >= 0.0

    def test_endpoint_margin_exactly_zero(self):
        reps = verify_bmi_sweep(UNIT, OFFSET, [0.0, 1.0], N=150, seed=11, r=0.1, h=0.1)
        for rep in reps:
            assert rep.margin == 0.0

    @pytest.mark.parametrize("seed, r, h", [(1, 0.05, 0.05), (2, 0.05, 0.05),
                                            (3, 0.1, 0.05), (4, 0.05, 0.1)])
    def test_endpoint_sets_are_the_clouds(self, seed, r, h):
        # Z_0 = A and Z_1 = B row for row, so their volumes are the very
        # estimates of vol_A and vol_B and the margins are exactly 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # h > r: under-resolved on purpose
            reps = verify_bmi_sweep(UNIT, OFFSET, [0.0, 1.0], N=200, seed=seed, r=r, h=h)
        assert reps[0].extras["vol_Z"] == reps[0].extras["vol_A"]
        assert reps[1].extras["vol_Z"] == reps[1].extras["vol_B"]
        for rep in reps:
            assert rep.margin == 0.0
            assert rep.extras["skipped_pairs"] == 0

    def test_offset_boxes_hold(self):
        rep = verify_bmi_sweep(UNIT, OFFSET, [0.5], N=300, seed=12, r=0.1, h=0.1)[0]
        assert rep.holds == "holds"
        assert rep.lhs > rep.rhs

    def test_rhs_uses_sampled_theta(self):
        rep = verify_bmi_sweep(UNIT, OFFSET, [0.5], N=100, seed=13, r=0.1, h=0.1)[0]
        assert 0.0 <= rep.extras["theta"] < 2 * np.pi
        assert rep.extras["tau_A"] >= 0.5 ** (5.0 / 3.0) - 1e-12


class TestVerifySbmi:
    def test_identical_boxes(self):
        rep = verify_sbmi_sweep(UNIT, UNIT, [0.5], N=200, seed=14, r=0.1, h=0.1)[0]
        assert rep.holds == "holds"
        # the interpolant support stays inside the midpoint set
        assert rep.lhs <= rep.extras["lhs_bmi"] + 3 * rep.extras["containment_stderr"]

    def test_containment_in_midpoint_set(self):
        reps = verify_sbmi_sweep(UNIT, OFFSET, [0.25, 0.5, 0.75], N=150, seed=15,
                                 r=0.1, h=0.1)
        for rep in reps:
            assert rep.extras["containment_margin"] >= -3 * rep.extras["containment_stderr"]

    def test_endpoint_margin_exactly_zero(self):
        reps = verify_sbmi_sweep(UNIT, OFFSET, [0.0, 1.0], N=100, seed=16, r=0.1, h=0.1)
        for rep in reps:
            assert rep.margin == 0.0


    def test_carries_the_bmi_sweep_bit_for_bit(self):
        args = (UNIT, OFFSET, [0.0, 0.5, 1.0], 150, 17, 0.1, 0.1)
        for bmi, sbmi in zip(verify_bmi_sweep(*args), verify_sbmi_sweep(*args)):
            assert sbmi.extras["lhs_bmi"] == bmi.lhs
            assert sbmi.rhs == bmi.rhs
            for key in ("theta", "vol_A", "vol_B", "tau_A", "tau_B"):
                assert sbmi.extras[key] == bmi.extras[key]


def snap_zeta(monkeypatch, snap):
    """Make BoxRegion.sample keep its draws but map their zeta through `snap`."""
    sample = BoxRegion.sample

    def snapped(self, N, rng):
        pts = sample(self, N, rng)
        pts[:, :-1] = snap(pts[:, :-1])
        return pts

    monkeypatch.setattr(BoxRegion, "sample", snapped)


def assert_inconclusive(reps, name, s_values, note):
    assert [rep.s for rep in reps] == s_values
    for rep in reps:
        assert rep.name == name
        assert rep.holds == "inconclusive"
        assert np.isnan(rep.margin) and np.isnan(rep.mc_stderr)
        assert rep.discretization_note.startswith(note)


class TestSampleSize:
    @pytest.mark.parametrize("sweep, tail", [
        (verify_cd_sweep, {"h": 0.1}),
        (verify_bmi_sweep, {"r": 0.1, "h": 0.1}),
        (verify_sbmi_sweep, {"r": 0.1, "h": 0.1}),
    ], ids=["cd", "bmi", "sbmi"])
    @pytest.mark.parametrize("N", [0, -3])
    def test_no_sample_raises_value_error(self, sweep, tail, N):
        with pytest.raises(ValueError, match=f"N must be at least 1, got {N}"):
            sweep(UNIT, OFFSET, [0.5], N=N, seed=1, **tail)


class TestDegenerateReports:
    S = [0.25, 0.5]

    def test_theta_two_pi(self, monkeypatch):
        # one shared zeta puts every pair of A^{-1} B on the center axis
        snap_zeta(monkeypatch, lambda z: np.full_like(z, 0.5))
        for name, sweep in (("BMI", verify_bmi_sweep), ("SBMI", verify_sbmi_sweep)):
            reps = sweep(UNIT, OFFSET, self.S, N=20, seed=1, r=0.1, h=0.1)
            assert_inconclusive(reps, name, self.S, "Theta = 2pi")

    def test_center_pairs_in_the_plan(self, monkeypatch):
        # zeta on a lattice of four sites: pairs on one site are center
        # pairs, pairs across sites are not, so Theta < 2pi
        snap_zeta(monkeypatch, lambda z: np.floor(2.0 * z) / 2.0)
        bmi = verify_bmi_sweep(UNIT, UNIT, self.S, N=20, seed=2, r=0.1, h=0.1)
        assert bmi[0].extras["theta"] < TWO_PI
        assert_inconclusive(verify_cd_sweep(UNIT, UNIT, self.S, N=20, seed=2, h=0.1),
                            "CD", self.S, "center pairs in the optimal plan")
        # the plan is solved before any volume is estimated
        volumes = []
        estimate_volume = verify.estimate_volume

        def counting(*args):
            volumes.append(args)
            return estimate_volume(*args)

        monkeypatch.setattr(verify, "estimate_volume", counting)
        assert_inconclusive(verify_sbmi_sweep(UNIT, UNIT, self.S, N=20, seed=2, r=0.1, h=0.1),
                            "SBMI", self.S, "center pairs in the optimal plan")
        assert volumes == []

    @pytest.mark.parametrize("n, tau_half", [(1, 964.75), (2, 4.9116e5)])
    @pytest.mark.parametrize("t", [1e-6, 1.0, -3.7, 1e6])
    def test_unique_pairs_have_finite_coefficients(self, n, tau_half, t):
        # CD routes plans with center pairs to `inconclusive`, so its rhs
        # only meets unique pairs.  The unique pair nearest the center, at
        # |zeta| = CENTER_TOL sqrt|t|, still has |theta| < 2pi and finite
        # coefficients, so the rhs is finite for every plan CD scores.
        x = np.zeros((1, 2 * n + 1))
        y = x.copy()
        y[0, 0], y[0, -1] = CENTER_TOL * np.sqrt(abs(t)), t
        table = geodesy.pair_table(x, y)
        th = abs(table.theta[0, 0])
        assert table.unique[0, 0] and th < TWO_PI
        s = np.linspace(0.0, 1.0, 41)
        assert np.all(np.isfinite(tau(n, s, th)))
        assert tau(n, 0.5, th) == pytest.approx(tau_half, rel=1e-4)
        # one ulp closer to the axis the pair is a center pair
        y[0, 0] = np.nextafter(y[0, 0], 0.0)
        assert not geodesy.pair_table(x, y).unique[0, 0]


class TestChainLastLink:
    """-F^n_s >= tau_{1-s}(Theta) Leb(A)^{1/d} + tau_s(Theta) Leb(B)^{1/d}
    with the exact densities 1/Leb: term by term, since tau is increasing
    in theta and every theta_ij >= Theta.  No estimator enters."""

    @pytest.mark.parametrize("A, B, N", [
        (UNIT, OFFSET, 200),
        (CCBallRegion(np.zeros(3), 1.0), CCBallRegion(np.array([2.5, 0.0, 0.0]), 1.0), 200),
        (BoxRegion.unit(2), BoxRegion.shifted([2.0, 0.0, 0.0, 0.0, 0.0]), 100),
    ], ids=["boxes-n1", "balls-n1", "boxes-n2"])
    def test_minus_f_bounds_the_tau_rhs(self, A, B, N):
        mu0, mu1 = verify.sampled_measures(A, B, N, seed=5)
        plan = solve_exact(cost_matrix(mu0, mu1), mu0.weights, mu1.weights)
        n, d = mu0.n, mu0.points.shape[1]
        theta = np.min(np.abs(geodesy.pair_table(mu0.points, mu1.points).theta))
        for s in [0.0, 0.25, 0.5, 0.75, 1.0]:
            lhs = -cd_functional(plan, mu0, mu1, s)
            rhs = (tau(n, 1.0 - s, theta) * A.volume() ** (1.0 / d)
                   + tau(n, s, theta) * B.volume() ** (1.0 / d))
            assert lhs - rhs >= -1e-12 * rhs


class TestVerifyBbl:
    def grid(self, scale_f, scale_g, scale_h, shape=(16, 16, 16)):
        box = UNIT
        f = GridFunction.indicator(UNIT, box, shape, scale=scale_f)
        g = GridFunction.indicator(UNIT, box, shape, scale=scale_g)
        h = GridFunction.indicator(UNIT, box, shape, scale=scale_h)
        return f, g, h

    def test_proof_instantiation_holds(self):
        # f = c1^3 1_A, g = c2^3 1_A, h = 1_A with the diagonal coupling;
        # conclusion margin is 1 - ((1-s)^{5/3} + s^{5/3})^3 >= 0
        s = 0.5
        c1 = tau_tilde(1, 1.0 - s, 0.0) ** 3
        c2 = tau_tilde(1, s, 0.0) ** 3
        f, g, h = self.grid(c1, c2, 1.0)
        rep = verify_bbl(f, g, h, s=s, p=np.inf, n_samples=500, seed=0,
                         pairing="diagonal")
        assert rep.holds == "holds"
        want = 1.0 - ((0.5 ** (5.0 / 3.0)) * 2) ** 3
        assert rep.margin == pytest.approx(want, abs=1e-9)

    def test_zero_f_trivial(self):
        f, g, h = self.grid(0.0, 1.0, 1.0)
        rep = verify_bbl(f, g, h, s=0.5, p=1.0, n_samples=100, seed=1)
        assert rep.rhs == 0.0
        assert rep.holds == "holds"

    def test_scaling_homogeneity(self):
        s = 0.3
        c1 = tau_tilde(1, 1.0 - s, 0.0) ** 3
        c2 = tau_tilde(1, s, 0.0) ** 3
        lam = 2.5
        rep1 = verify_bbl(*self.grid(c1, c2, 1.0), s=s, p=np.inf,
                          n_samples=200, seed=2, pairing="diagonal")
        rep2 = verify_bbl(*self.grid(lam * c1, lam * c2, lam), s=s, p=np.inf,
                          n_samples=200, seed=2, pairing="diagonal")
        assert rep2.margin == pytest.approx(lam * rep1.margin, rel=1e-9)

    def test_hypothesis_violation_detected(self):
        s = 0.5
        c1 = tau_tilde(1, 1.0 - s, 0.0) ** 3
        c2 = tau_tilde(1, s, 0.0) ** 3
        f, g, h = self.grid(c1, c2, 0.25)  # h too small on the diagonal
        with pytest.raises(HypothesisViolated) as ei:
            verify_bbl(f, g, h, s=s, p=np.inf, n_samples=200, seed=3,
                       pairing="diagonal")
        assert "x" in ei.value.witness

    def test_p_range_checked(self):
        f, g, h = self.grid(1.0, 1.0, 1.0)
        for p in (-1.0, np.nan):
            with pytest.raises(ValueError):
                verify_bbl(f, g, h, s=0.5, p=p)

    def test_unknown_pairing_rejected_without_samples(self):
        f, g, h = self.grid(0.0, 1.0, 1.0)  # f = 0: no triple is drawn
        with pytest.raises(ValueError):
            verify_bbl(f, g, h, s=0.5, p=1.0, pairing="bogus")


def bbl_reference(f, g, h_fn, s, p, n_samples, seed, pairing):
    """The BBL hypothesis check one triple at a time, from the public scalar
    functions: (index, witness) of every failing triple, in sample order."""
    n = (f.box.intervals.shape[0] - 1) // 2
    d = 2 * n + 1
    if np.all(f.values == 0.0) or np.all(g.values == 0.0):
        return []
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    xs = f.support_points(n_samples, rng)
    ys = g.support_points(n_samples, rng) if pairing == "independent" else xs.copy()
    fails = []
    for k in range(n_samples):
        fx = float(f.value_at(xs[k])[0])
        gy = float(g.value_at(ys[k])[0])
        if fx == 0.0 and gy == 0.0:
            continue
        th = angle(xs[k], ys[k])
        if th >= TWO_PI:
            continue
        z = midpoint(s, xs[k], ys[k])
        bound = p_mean(p, s, fx / tau_tilde(n, 1.0 - s, th) ** d,
                       gy / tau_tilde(n, s, th) ** d)
        hz = float(h_fn.value_at(z)[0])
        if hz < bound - 1e-9:
            fails.append((k, {"x": xs[k].tolist(), "y": ys[k].tolist(),
                              "z": z.tolist(), "h_z": hz, "bound": bound}))
    return fails


class Holed(GridFunction):
    """A grid function read as 0 where xi_1 < 0.4, so that some of the
    points it samples from its support have value 0."""

    def value_at(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return np.where(p[:, 0] < 0.4, 0.0, super().value_at(points))


def bbl_case(n=1, s=0.3, h_scale=0.9, h_zeta=(0.0, 1.0), h_t=(-0.5, 1.5), cells=16,
             kind=GridFunction, f_scale=None):
    """f, g = the normalised indicators of the unit box of H^n, h = h_scale
    on the box h_zeta^{2n} x h_t."""
    d = 2 * n + 1
    unit = BoxRegion.unit(n)
    hbox = BoxRegion(np.array([list(h_zeta)] * (2 * n) + [list(h_t)]))
    shape = (cells,) * d
    c1 = tau_tilde(n, 1.0 - s, 0.0) ** d if f_scale is None else f_scale
    c2 = tau_tilde(n, s, 0.0) ** d
    return (kind.indicator(unit, unit, shape, scale=c1),
            kind.indicator(unit, unit, shape, scale=c2),
            GridFunction.indicator(hbox, hbox, shape, scale=h_scale))


class TestBblAgainstReference:
    """verify_bbl checks the hypothesis on whole arrays; the per-triple loop
    above is its oracle: same verdict, same first failing triple, and the
    same witness to the last bit."""

    def check(self, fgh, s, p, n_samples, seed, pairing):
        """The reference's failures; verify_bbl must raise on the first."""
        fails = bbl_reference(*fgh, s, p, n_samples, seed, pairing)
        if fails:
            with pytest.raises(HypothesisViolated) as ei:
                verify_bbl(*fgh, s=s, p=p, n_samples=n_samples, seed=seed, pairing=pairing)
            assert ei.value.witness == fails[0][1]
        else:
            verify_bbl(*fgh, s=s, p=p, n_samples=n_samples, seed=seed, pairing=pairing)
        return fails

    @pytest.mark.parametrize("p", [-1.0 / 3.0, 0.0, 1.0, np.inf])
    def test_independent_pairing_fails_at_several_triples(self, p):
        fails = self.check(bbl_case(), 0.3, p, 200, 21, "independent")
        assert len(fails) >= 2 and fails[0][0] > 0

    @pytest.mark.parametrize("p", [-1.0 / 3.0, 0.0, 1.0, np.inf])
    def test_witness_bits_over_many_seeds(self, p):
        # h = 0 fails the first triple, so each seed compares one bound: the
        # C library's pow in both, where numpy's vectorised ** misses ~5 %
        # of them by a bit
        fgh = bbl_case(h_scale=0.0)
        for seed in range(60):
            assert self.check(fgh, 0.3, p, 2, seed, "independent")

    @pytest.mark.parametrize("p", [0.0, np.inf])
    def test_samples_with_zero_values(self, p):
        fgh = bbl_case(kind=Holed)
        fails = self.check(fgh, 0.3, p, 200, 22, "independent")
        rng = np.random.Generator(np.random.Philox(key=np.uint64(22)))
        x0 = fgh[0].support_points(200, rng)[:, 0] < 0.4
        y0 = fgh[1].support_points(200, rng)[:, 0] < 0.4
        assert np.any(x0 & y0) and np.any(x0 ^ y0) and fails

    @pytest.mark.parametrize("h_scale", [1.0, 0.25])
    def test_diagonal_pairing(self, h_scale):
        # theta = 0 and z = x on the diagonal; the 0.25 instance fails at triple 0
        fails = self.check(bbl_case(s=0.5, h_scale=h_scale), 0.5, np.inf, 200, 23,
                           "diagonal")
        assert bool(fails) == (h_scale < 1.0)

    @pytest.mark.parametrize("h_scale, h_zeta, h_t", [(0.9, (0.0, 1.0), (-0.5, 1.5)),
                                                      (1.0, (-1.0, 2.0), (-3.0, 4.0))])
    def test_n2_on_a_4_grid(self, h_scale, h_zeta, h_t):
        fgh = bbl_case(n=2, s=0.4, h_scale=h_scale, h_zeta=h_zeta, h_t=h_t, cells=4)
        fails = self.check(fgh, 0.4, 0.0, 150, 24, "independent")
        assert bool(fails) == (h_scale < 1.0)

    def test_all_zero_f_checks_no_triple(self):
        fgh = bbl_case(f_scale=0.0)
        assert self.check(fgh, 0.3, 1.0, 100, 25, "independent") == []
        rep = verify_bbl(*fgh, s=0.3, p=1.0, n_samples=100, seed=25)
        assert rep.discretization_note == "hypothesis checked on 0 independent triples"


class TestStepLimit:
    def test_uniform_marginals_constant_f(self):
        mu = quadrature_measure(1.0, 1.0)
        nu = quadrature_measure(1.0, 1.0)
        rows = step_limit_experiment(mu, nu, depths=[0, 1, 2], s=0.5, K=UNIT)
        f_vals = [r.f_value for r in rows]
        # theta == 0 and rho == 1 throughout: F = -2 (1/2)^{5/3} at all depths
        want = -(2.0 ** (-2.0 / 3.0))
        for v in f_vals:
            assert v == pytest.approx(want, abs=1e-9)

    def test_two_level_w2_decreases_and_f_stabilizes(self):
        mu = quadrature_measure(4.0 / 3.0, 2.0 / 3.0)
        nu = quadrature_measure(2.0 / 3.0, 4.0 / 3.0)
        rows = step_limit_experiment(mu, nu, depths=[0, 1, 2, 3], s=0.5, K=UNIT)
        errs = [r.w2_error for r in rows if r.depth is not None]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
        f_exact = rows[-1].f_value
        assert rows[-2].f_value == pytest.approx(f_exact, rel=0.05)

    def test_density_required(self):
        mu = quadrature_measure()
        bare = DiscreteMeasure(mu.points, mu.weights)
        with pytest.raises(ValueError):
            step_limit_experiment(bare, mu, [0], 0.5)
