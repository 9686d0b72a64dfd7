import warnings

import numpy as np
import pytest

from heis.distortion import tau_tilde
from heis.measures import BoxRegion, DiscreteMeasure, UnionRegion, normalized_measure
from heis.transport import cost_matrix, geodesic_plan, solve_exact
from heis.verify import (
    GridFunction,
    HypothesisViolated,
    InequalityReport,
    StepLimitRow,
    cd_functional,
    step_limit_experiment,
    verify_bbl,
    verify_bmi,
    verify_bmi_sweep,
    verify_cd,
    verify_cd_sweep,
    verify_sbmi,
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
        rep = verify_cd(UNIT, UNIT, 0.5, N=200, seed=5, h=0.1)
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
        rep = verify_cd(UNIT, OFFSET, 0.5, N=200, seed=7, h=0.1)
        assert rep.holds in ("holds", "inconclusive")
        assert rep.margin >= -3 * rep.mc_stderr

    def test_jensen_side_report(self):
        rep = verify_cd(UNIT, UNIT, 0.25, N=150, seed=8, h=0.1)
        jen = rep.extras["jensen"]
        assert jen["margin"] >= -0.05
        assert jen["name"] == "JENSEN"

    def test_sweep_is_consistent_with_single(self):
        sweep = verify_cd_sweep(UNIT, OFFSET, [0.25, 0.75], N=100, seed=9, h=0.1)
        single = verify_cd(UNIT, OFFSET, 0.25, N=100, seed=9, h=0.1)
        assert sweep[0].lhs == single.lhs
        assert sweep[0].rhs == single.rhs


class TestVerifyBmi:
    def test_identical_boxes_hold(self):
        rep = verify_bmi(UNIT, UNIT, 0.5, N=300, seed=10, r=0.1, h=0.1)
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
        rep = verify_bmi(UNIT, OFFSET, 0.5, N=300, seed=12, r=0.1, h=0.1)
        assert rep.holds == "holds"
        assert rep.lhs > rep.rhs

    def test_rhs_uses_sampled_theta(self):
        rep = verify_bmi(UNIT, OFFSET, 0.5, N=100, seed=13, r=0.1, h=0.1)
        assert 0.0 <= rep.extras["theta"] < 2 * np.pi
        assert rep.extras["tau_A"] >= 0.5 ** (5.0 / 3.0) - 1e-12


class TestVerifySbmi:
    def test_identical_boxes(self):
        rep = verify_sbmi(UNIT, UNIT, 0.5, N=200, seed=14, r=0.1, h=0.1)
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
        with pytest.raises(ValueError):
            verify_bbl(f, g, h, s=0.5, p=-1.0)


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
