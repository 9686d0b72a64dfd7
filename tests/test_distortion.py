import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heis import distortion
from heis.distortion import TWO_PI, p_mean, tau, tau_tilde

EPS = np.finfo(float).eps


def rounding_tol(s):
    """Relative rounding error allowed in tau^n_s: a few ulp per factor,
    plus eps |ln s| from the rounded exponents (2n-1)/(2n+1), 1/(2n+1)
    applied to factors of size s and s^3 (at s = 0 both sides are 0)."""
    return 32.0 * EPS * (1.0 + abs(np.log(max(s, np.finfo(float).tiny))))


class TestTau:
    def test_theta_zero_closed_form(self):
        assert tau(1, 0.5, 0.0) == pytest.approx(0.5 ** (5.0 / 3.0), abs=1e-15)
        for n in (1, 2, 3):
            for s in (0.1, 0.37, 0.9):
                want = s ** ((2 * n + 3.0) / (2 * n + 1.0))
                assert tau(n, s, 0.0) == pytest.approx(want, abs=1e-14)

    def test_s_one_is_unity(self):
        for theta in (0.0, 1.0, np.pi, TWO_PI - 1e-9):
            assert tau(1, 1.0, theta) == pytest.approx(1.0, abs=1e-12)

    def test_theta_two_pi_is_infinite(self):
        for s in (0.0, 0.3, 1.0):
            assert np.isposinf(tau(1, s, TWO_PI))

    def test_s_zero(self):
        for theta in (0.0, 1.0, TWO_PI - 1e-6):
            assert tau(1, 0.0, theta) == 0.0

    def test_continuity_at_theta_zero(self):
        for n in (1, 2):
            for s in (0.25, 0.8):
                a = tau(n, s, 1e-9)
                b = tau(n, s, 0.0)
                assert abs(a - b) <= 1e-12

    def test_series_direct_seam(self):
        # evaluation is smooth across the series cutoff for the inner factor
        s = 0.37
        thetas = np.linspace(0.4, 1.2, 2000)  # theta/2 crosses 0.25 and 0.5 here
        vals = tau(1, s, thetas)
        assert np.all(np.diff(vals) > 0)

    def test_monotone_in_theta(self):
        grid = np.linspace(0.0, TWO_PI - 1e-6, 10001)
        for s in (0.25, 0.5, 0.75):
            vals = tau(1, s, grid)
            assert np.all(np.diff(vals) >= 0)

    def test_lower_bound(self):
        grid = np.linspace(0.0, TWO_PI - 1e-6, 2001)
        for n in (1, 2):
            for s in (0.3, 0.6):
                floor = s ** ((2 * n + 3.0) / (2 * n + 1.0))
                assert np.all(tau(n, s, grid) >= floor - 1e-13)

    def test_divergence_near_two_pi(self):
        # tau ~ eps^{-(2n-1)/(2n+1)}; for n=1 this is eps^{-1/3}
        v1 = tau(1, 0.5, TWO_PI - 1e-6)
        v2 = tau(1, 0.5, TWO_PI - 1e-9)
        assert v1 > 50
        assert v2 > 10 * v1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tau(1, -0.1, 1.0)
        with pytest.raises(ValueError):
            tau(1, 0.5, -1.0)
        with pytest.raises(ValueError):
            tau(1, 0.5, TWO_PI + 0.1)
        with pytest.raises(ValueError):
            tau(0, 0.5, 1.0)

    @pytest.mark.parametrize("call", [
        lambda: tau(1, np.nan, 1.0), lambda: tau(1, 0.5, np.nan),
        lambda: tau(2, np.array([0.5, np.nan]), 1.0), lambda: tau_tilde(1, np.nan, 1.0),
        lambda: p_mean(1.0, 0.5, np.nan, 1.0), lambda: p_mean(0.0, 0.5, 1.0, np.nan)])
    def test_nan_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    def test_array_broadcast(self):
        grid = np.array([0.0, 1.0, TWO_PI])
        vals = tau(1, 0.5, grid)
        assert vals.shape == (3,)
        assert vals[0] == tau(1, 0.5, 0.0)
        assert np.isposinf(vals[2])


class TestTauProperties:
    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 3), st.floats(0.0, 1.0),
           st.floats(0.0, TWO_PI, exclude_max=True),
           st.floats(0.0, TWO_PI, exclude_max=True))
    def test_nondecreasing_in_theta(self, n, s, th1, th2):
        lo, hi = sorted((th1, th2))
        t_lo, t_hi = tau(n, s, lo), tau(n, s, hi)
        assert t_hi >= t_lo * (1.0 - rounding_tol(s)), (t_lo, t_hi)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 3), st.floats(0.0, 1.0),
           st.floats(0.0, TWO_PI, exclude_max=True))
    def test_at_least_the_theta_zero_floor(self, n, s, theta):
        floor = s ** ((2 * n + 3.0) / (2 * n + 1.0))
        assert tau(n, s, theta) >= floor * (1.0 - rounding_tol(s))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_where_f_of_theta_s_underflows(self, n):
        # F(theta s / 2) ~ (theta s / 2)^3 / 3 underflows below theta s ~ 1e-100;
        # tau is then its s -> 0 form s^{(2n+3)/(2n+1)} K(theta), not 0 or NaN
        e = 2 * n + 1
        for s, theta in ((0.5, 5e-324), (1e-170, 1e-170), (1e-90, 1e-12)):
            floor = s ** ((2 * n + 3.0) / e)
            assert tau(n, s, theta) == pytest.approx(floor, rel=rounding_tol(s))
        for theta in (3.0, 4.5):
            k = tau(n, 1e-9, theta) / 1e-9 ** ((2 * n + 3.0) / e)
            for s in (1e-99, 1e-101, 1e-150):
                got = tau(n, s, theta) / s ** ((2 * n + 3.0) / e)
                assert got == pytest.approx(k, rel=1e-12)


def two_branch_tau(n, s, theta):
    """tau^n_s(theta) by a second route, kept as a reference: the sin and
    F = sin x - x cos x ratios of the module docstring, and the s -> 0 form
    s^{(2n+3)/(2n+1)} K(theta) where a = theta s / 2 is below 1e-100."""
    def f_over_cube(x):  # 3 F(x) / x^3, by its series below 0.25
        if x < 0.25:
            x2 = x * x
            return 1.0 - x2 / 10.0 + x2 * x2 / 280.0 - x2 ** 3 / 15120.0 + x2 ** 4 / 1330560.0
        return 3.0 * (np.sin(x) - x * np.cos(x)) / x ** 3

    def f(x):
        return x ** 3 / 3.0 * f_over_cube(x) if x < 0.25 else np.sin(x) - x * np.cos(x)

    e = 2 * n + 1
    if theta >= TWO_PI:
        return np.inf
    a, b = theta * s / 2.0, theta / 2.0
    if a < 1e-100:
        k = np.sinc(b / np.pi) ** (-(2 * n - 1.0) / e) * f_over_cube(b) ** (-1.0 / e)
        return s ** ((2 * n + 3.0) / e) * k
    return (s ** (1.0 / e) * (np.sin(a) / np.sin(b)) ** ((2 * n - 1.0) / e)
            * (f(a) / f(b)) ** (1.0 / e))


@st.composite
def n_s_theta(draw):
    """(n, s, theta) with s uniform on [0, 1], log-uniform down to 1e-300, or
    putting a = theta s / 2 within a factor 100 of the old 1e-100 seam."""
    n, theta = draw(st.integers(1, 3)), draw(st.floats(0.0, TWO_PI))
    kind = draw(st.sampled_from(["uniform", "log", "seam"]))
    if kind == "uniform":
        return n, draw(st.floats(0.0, 1.0)), theta
    if kind == "log":
        return n, 10.0 ** draw(st.floats(-300.0, 0.0)), theta
    theta = draw(st.floats(0.1, TWO_PI))
    return n, 2e-100 * 10.0 ** draw(st.floats(-2.0, 2.0)) / theta, theta


def f_over_cube_exact(x):
    """3 F(x) / x^3 at the float x, summed exactly in rationals and rounded
    once; 15 terms leave a truncation below 1e-39 for x <= 0.7."""
    w = Fraction(x) ** 2
    return float(sum(Fraction((-1) ** k * 3 * (2 * k + 2), math.factorial(2 * k + 3)) * w ** k
                     for k in range(15)))


class TestJacobianForm:
    def test_f_over_cube_against_exact_taylor_sum(self):
        x = np.concatenate([np.geomspace(1e-8, 0.7, 600), np.linspace(0.2, 0.7, 601)])
        want = np.array([f_over_cube_exact(v) for v in x])
        err = np.abs(distortion._f_over_cube(x) - want) / want
        series = x < 0.5
        assert err[series].max() <= 2.5e-16
        # above, the closed form cancels: about 3 eps / x^2, plus rounding
        assert np.all(err[~series] <= 8.0 * EPS / x[~series] ** 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_jacobian_is_one_at_zero(self, n):
        assert distortion._jacobian(n, np.array([0.0, -0.0])).tolist() == [1.0, 1.0]

    @settings(deadline=None, max_examples=500)
    @given(n_s_theta())
    def test_matches_the_two_branch_formula(self, args):
        n, s, theta = args
        got, want = tau(n, s, theta), two_branch_tau(n, s, theta)
        if np.isinf(want):
            assert got == want
        else:
            # a subnormal result is rounded to a fixed grid
            assert abs(got - want) <= rounding_tol(s) * want + 2 * 5e-324, (got, want)


class TestTauTilde:
    def test_normalization_identity(self):
        assert tau_tilde(1, 0.125, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_s_one_equals_tau(self):
        for theta in (0.0, 1.5, 3.0):
            assert tau_tilde(1, 1.0, theta) == tau(1, 1.0, theta)

    def test_theta_two_pi_propagates_infinity(self):
        assert np.isposinf(tau_tilde(1, 0.5, TWO_PI))

    def test_s_zero_rejected(self):
        with pytest.raises(ValueError):
            tau_tilde(1, 0.0, 1.0)

    def test_theta_zero_closed_form(self):
        for n in (1, 2):
            for s in (0.2, 0.7):
                assert tau_tilde(n, s, 0.0) == pytest.approx(
                    s ** (2.0 / (2 * n + 1.0)), abs=1e-14
                )


class TestPMean:
    def test_arithmetic_mean(self):
        assert p_mean(1.0, 0.25, 2.0, 6.0) == pytest.approx(0.75 * 2 + 0.25 * 6)

    def test_zero_argument_convention(self):
        for p in (-1.0, 0.0, 1.0, np.inf, -np.inf):
            assert p_mean(p, 0.5, 2.0, 0.0) == 0.0
            assert p_mean(p, 0.5, 0.0, 3.0) == 0.0

    def test_infinite_p(self):
        assert p_mean(np.inf, 0.5, 2.0, 3.0) == 3.0
        assert p_mean(-np.inf, 0.5, 2.0, 3.0) == 2.0

    def test_geometric_mean(self):
        assert p_mean(0.0, 0.5, 4.0, 9.0) == pytest.approx(6.0)

    def test_endpoint_weights(self):
        assert p_mean(np.inf, 0.0, 2.0, 5.0) == 2.0
        assert p_mean(2.0, 1.0, 2.0, 5.0) == 5.0

    def test_monotone_in_p(self):
        ps = [-np.inf, -2.0, -0.5, 0.0, 0.5, 2.0, np.inf]
        vals = [p_mean(p, 0.3, 1.5, 4.0) for p in ps]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_homogeneity(self):
        lam = 3.5
        assert p_mean(2.0, 0.4, lam * 1.0, lam * 2.0) == pytest.approx(
            lam * p_mean(2.0, 0.4, 1.0, 2.0)
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            p_mean(1.0, 0.5, -1.0, 2.0)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_nan_p_rejected(self, s):
        with pytest.raises(ValueError, match="p must not be NaN"):
            p_mean(np.nan, s, 1.0, 2.0)


nonneg = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(0.0, 10.0))


class TestPMeanArrays:
    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from([-np.inf, -1.0 / 3.0, -0.2, 0.0, 1.0 / 3.0, 1.0, 2.0, np.inf])
           | st.floats(-4.0, 4.0),
           st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           st.lists(st.tuples(nonneg, nonneg), min_size=1, max_size=8))
    def test_array_equals_scalar_elementwise(self, p, s, pairs):
        a = np.array([x for x, _ in pairs])
        b = np.array([y for _, y in pairs])
        with np.errstate(all="ignore"):  # both sides overflow alike
            got = p_mean(p, s, a, b)
            want = [p_mean(p, s, x, y) for x, y in pairs]
        assert isinstance(got, np.ndarray) and got.shape == a.shape
        assert got.tolist() == want

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from([-1.0 / 3.0, 0.0, 0.5]) | st.floats(-4.0, 4.0),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    def test_scalar_is_c_library_pow(self, p, s, a, b):
        # the report bits of verify_bbl's rhs rest on this; numpy scalars
        # take the C library's pow as Python floats do, but give inf, not
        # OverflowError, when 1/p is huge
        a, b = np.float64(a), np.float64(b)
        with np.errstate(over="ignore"):
            want = a ** (1.0 - s) * b ** s if p == 0.0 else ((1.0 - s) * a ** p + s * b ** p) ** (1.0 / p)
            assert p_mean(p, s, a, b) == want

    def test_broadcasts(self):
        got = p_mean(1.0, 0.25, np.array([0.0, 2.0, 4.0]), 6.0)
        assert got.tolist() == [0.0, 0.75 * 2 + 0.25 * 6, 0.75 * 4 + 0.25 * 6]

    def test_scalar_inputs_return_python_float(self):
        for a, b in ((2.0, 3.0), (np.float64(2.0), 3), (np.array(2.0), np.array(3.0)),
                     (0.0, 3.0)):
            for p in (0.0, 1.0, np.inf, -0.5):
                assert type(p_mean(p, 0.4, a, b)) is float

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            p_mean(1.0, 0.5, np.array([1.0, -1.0]), 2.0)
