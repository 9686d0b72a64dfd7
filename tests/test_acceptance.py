"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with `pytest -v -s tests/test_acceptance.py` to see them)."""

import itertools
import time

import numpy as np
import pytest

from heis import core, geodesy
from heis.distortion import tau
from heis.geodesy import TWO_PI, GeodesicParam, gamma, gamma_inverse
from heis.measures import (
    BoxRegion,
    DiscreteMeasure,
    UnionRegion,
    renyi_entropy_estimate,
    sample_uniform,
)
from heis.transport import (
    cost_matrix,
    geodesic_plan,
    interpolate,
    solve_exact,
    solve_sinkhorn,
    w2,
)
from heis.verify import (
    step_limit_experiment,
    verify_bmi_sweep,
    verify_cd_sweep,
    verify_sbmi_sweep,
)

UNIT = BoxRegion.unit(1)
OFFSET = BoxRegion.shifted([2.0, 0.0, 0.0])
S_ENDPOINTS = [0.0, 1.0]
S_INTERIOR = [0.25, 0.5, 0.75]
S_ALL = [0.0, 0.25, 0.5, 0.75, 1.0]


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


# shared heavy runs ---------------------------------------------------------

@pytest.fixture(scope="module")
def cd_runs():
    out = {}
    for label, B in (("identical", UNIT), ("offset", OFFSET)):
        t0 = time.perf_counter()
        out[label] = verify_cd_sweep(UNIT, B, S_ALL, N=400, seed=808, h=0.1)
        out[label + "_time"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def bmi_runs():
    return {
        "identical": verify_bmi_sweep(UNIT, UNIT, S_ALL, N=2000, seed=909, r=0.05, h=0.05),
        "offset": verify_bmi_sweep(UNIT, OFFSET, S_ALL, N=2000, seed=919, r=0.05, h=0.05),
    }


@pytest.fixture(scope="module")
def sbmi_runs():
    return {
        "identical": verify_sbmi_sweep(UNIT, UNIT, S_ALL, N=2000, seed=929, r=0.05, h=0.05),
        "offset": verify_sbmi_sweep(UNIT, OFFSET, S_ALL, N=2000, seed=939, r=0.05, h=0.05),
    }


# criteria ------------------------------------------------------------------

def test_c01_geodesic_round_trip():
    rng = np.random.default_rng(1)
    K = 1000
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(K):
        chi = rng.normal(size=2) @ np.array([1.0, 1.0j])
        theta = rng.uniform(-(TWO_PI - 0.1), TWO_PI - 0.1)
        y = gamma(1.0, GeodesicParam(np.array([chi]), theta))
        back = gamma(1.0, gamma_inverse(y).param)
        worst = max(worst, float(np.max(np.abs(back - y))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 2.0
    report("criterion 1 (geodesic round trip)",
           ok, f"max coord error {worst:.2e} (<=1e-9), {elapsed:.2f}s (<2s)")
    assert worst <= 1e-9
    assert elapsed < 2.0


def test_c02_metric_suite():
    rng = np.random.default_rng(2)
    M = 10_000
    xs = rng.normal(size=(M, 3)) * 2.0
    ys = rng.normal(size=(M, 3)) * 2.0
    zs = rng.normal(size=(M, 3)) * 2.0

    d_xy = geodesy.cc_distance_many(xs, ys)
    d_yx = geodesy.cc_distance_many(ys, xs)
    sym_exact = np.array_equal(d_xy, d_yx)

    d_xz = geodesy.cc_distance_many(xs, zs)
    d_yz = geodesy.cc_distance_many(ys, zs)
    tri_slack = float(np.max(d_xz - (d_xy + d_yz)))

    zx = core.group_mul(zs, xs)
    zy = core.group_mul(zs, ys)
    left_err = float(np.max(np.abs(geodesy.cc_distance_many(zx, zy) - d_xy)))

    dil_ok = True
    dil_worst = 0.0
    for lam in (0.5, 2.0, 3.7):
        dl = geodesy.cc_distance_many(core.dilate(lam, xs), core.dilate(lam, ys))
        err = float(np.max(np.abs(dl - lam * d_xy)))
        dil_worst = max(dil_worst, err / max(1.0, lam))
        dil_ok &= err <= 1e-9 * max(1.0, lam)

    ok = sym_exact and tri_slack <= 1e-9 and left_err <= 1e-9 and dil_ok
    report("criterion 2 (metric suite)", ok,
           f"symmetry exact={sym_exact}, triangle slack {tri_slack:.2e}, "
           f"left-invariance {left_err:.2e}, dilation {dil_worst:.2e}")
    assert sym_exact
    assert tri_slack <= 1e-9
    assert left_err <= 1e-9
    assert dil_ok


def test_c03_center_distance():
    worst = 0.0
    for t in (0.1, 1.0, 10.0):
        d = geodesy.cc_distance(core.origin(1), np.array([0.0, 0.0, t]))
        worst = max(worst, abs(d - np.sqrt(np.pi * t)))
    report("criterion 3 (center distance)", worst <= 1e-9,
           f"max |d - sqrt(pi t)| = {worst:.2e}")
    assert worst <= 1e-9


def test_c04_distortion_suite():
    s_vals = np.linspace(0.0, 1.0, 100)
    closed_err = float(np.max(np.abs(tau(1, s_vals, 0.0) - s_vals ** (5.0 / 3.0))))
    grid = np.linspace(0.0, TWO_PI - 1e-6, 10_000)
    mono = True
    floor_ok = True
    for s in (0.25, 0.5, 0.75):
        vals = tau(1, s, grid)
        mono &= bool(np.all(np.diff(vals) >= 0))
        floor_ok &= bool(np.all(vals >= s ** (5.0 / 3.0) - 1e-13))
    divergence = float(tau(1, 0.5, TWO_PI - 1e-6))
    div_ok = divergence > 1e3
    ok = closed_err <= 1e-12 and mono and floor_ok and div_ok
    report("criterion 4 (distortion suite)", ok,
           f"theta=0 closed form err {closed_err:.2e}, monotone={mono}, "
           f"floor={floor_ok}, tau(2pi-1e-6; s=1/2)={divergence:.1f} "
           f"(criterion demands >1e3; the formula diverges like "
           f"(2pi-theta)^(-1/3) for n=1, giving ~68.3 at 1e-6)")
    assert closed_err <= 1e-12
    assert mono
    assert floor_ok
    # Faithful assertion of the stated threshold.  tau^1_s near 2pi grows
    # like (2pi - theta)^{-(2n-1)/(2n+1)} = eps^{-1/3}; at eps = 1e-6 and
    # s = 1/2 the value is ~68.3, so 1e3 is not attainable for n = 1.
    assert divergence > 1e3, (
        f"tau(1, 0.5, 2pi-1e-6) = {divergence:.4f} <= 1e3: the stated "
        "threshold exceeds the coefficient's actual eps^{-1/3} divergence rate"
    )


def test_c05_exact_ot_oracle():
    rng = np.random.default_rng(5)
    worst_mismatch = 0
    for trial in range(50):
        m = int(rng.integers(2, 7))
        A = rng.normal(size=(m, 3))
        B = rng.normal(size=(m, 3)) + [1.0, 0.0, 0.0]
        w = np.full(m, 1.0 / m)
        C = cost_matrix(DiscreteMeasure(A, w), DiscreteMeasure(B, w))
        got = solve_exact(C, w, w).cost
        best = min(sum(C.cost[i, p[i]] for i in range(m)) / m
                   for p in itertools.permutations(range(m)))
        if np.round(got, 12) != np.round(best, 12):
            worst_mismatch += 1
    report("criterion 5 (exact OT vs permutation oracle)", worst_mismatch == 0,
           f"{50 - worst_mismatch}/50 instances match bitwise after 1e-12 rounding")
    assert worst_mismatch == 0


def test_c06_sinkhorn_accuracy():
    rng = np.random.default_rng(6)
    errs = []
    for trial in range(3):
        A = rng.random((50, 3))
        B = rng.random((50, 3)) + [1.0, 0.0, 0.0]
        w = np.full(50, 0.02)
        C = cost_matrix(DiscreteMeasure(A, w), DiscreteMeasure(B, w))
        w2_exact = np.sqrt(solve_exact(C, w, w).cost)
        eps = 0.01 * float(np.median(C.cost))
        w2_sink = np.sqrt(solve_sinkhorn(C, w, w, eps).cost)
        errs.append(abs(w2_sink - w2_exact) / w2_exact)
    ok = max(errs) <= 0.02
    report("criterion 6 (sinkhorn accuracy)", ok,
           f"max relative W2 error {max(errs):.4f} (<=0.02)")
    assert max(errs) <= 0.02


def test_c07_wasserstein_geodesic_property():
    rng = np.random.default_rng(7)
    src = DiscreteMeasure(rng.random((64, 3)), np.full(64, 1 / 64))
    tgt = DiscreteMeasure(rng.random((64, 3)) + [1.5, 0.0, 0.0], np.full(64, 1 / 64))
    gp = geodesic_plan(src, tgt)
    w01 = np.sqrt(gp.plan.cost)
    worst = 0.0
    for s in S_INTERIOR:
        mu_s = interpolate(gp, s)
        worst = max(worst,
                    abs(w2(src, mu_s) - s * w01),
                    abs(w2(mu_s, tgt) - (1 - s) * w01))
    ok = worst <= 1e-3 * w01
    report("criterion 7 (Wasserstein geodesic property)", ok,
           f"max |W2(mu_0, mu_s) - s W2| = {worst:.2e} (<= {1e-3 * w01:.2e})")
    assert worst <= 1e-3 * w01


def test_c08_cd_inequality(cd_runs):
    ok = True
    details = []
    for label in ("identical", "offset"):
        reps = {r.s: r for r in cd_runs[label]}
        for s in S_INTERIOR:
            r = reps[s]
            good = r.holds in ("holds", "inconclusive") and r.margin >= -3 * r.mc_stderr
            ok &= good
            details.append(f"{label} s={s}: margin={r.margin:.4f}+-{r.mc_stderr:.4f} {r.holds}")
        for s in S_ENDPOINTS:
            r = reps[s]
            ok &= abs(r.margin) <= 3 * r.mc_stderr
            details.append(f"{label} s={s}: |margin|={abs(r.margin):.4f}<=3x{r.mc_stderr:.4f}")
        ok &= cd_runs[label + "_time"] < 60.0
    report("criterion 8 (CD inequality)", ok,
           "; ".join(details) + f"; times {cd_runs['identical_time']:.1f}s/"
           f"{cd_runs['offset_time']:.1f}s (<60s)")
    for label in ("identical", "offset"):
        reps = {r.s: r for r in cd_runs[label]}
        for s in S_INTERIOR:
            assert reps[s].holds in ("holds", "inconclusive")
            assert reps[s].margin >= -3 * reps[s].mc_stderr
        for s in S_ENDPOINTS:
            assert abs(reps[s].margin) <= 3 * reps[s].mc_stderr
        assert cd_runs[label + "_time"] < 60.0


def test_c09_bmi(bmi_runs):
    ok = True
    details = []
    for label in ("identical", "offset"):
        reps = {r.s: r for r in bmi_runs[label]}
        for s in S_INTERIOR:
            ok &= reps[s].holds == "holds"
            details.append(f"{label} s={s}: margin={reps[s].margin:.4f} {reps[s].holds}")
        for s in S_ENDPOINTS:
            ok &= abs(reps[s].margin) <= 3 * reps[s].mc_stderr
    report("criterion 9 (BMI)", ok, "; ".join(details))
    for label in ("identical", "offset"):
        reps = {r.s: r for r in bmi_runs[label]}
        for s in S_INTERIOR:
            assert reps[s].holds == "holds"
        for s in S_ENDPOINTS:
            assert abs(reps[s].margin) <= 3 * reps[s].mc_stderr


def test_c10_sbmi(sbmi_runs, bmi_runs):
    ok = True
    details = []
    for label in ("identical", "offset"):
        sreps = {r.s: r for r in sbmi_runs[label]}
        for s in S_INTERIOR:
            r = sreps[s]
            ok &= r.holds == "holds"
            contain = r.extras["containment_margin"] >= -3 * r.extras["containment_stderr"]
            ok &= contain
            details.append(f"{label} s={s}: margin={r.margin:.4f} {r.holds} "
                           f"containment={r.extras['containment_margin']:.4f}")
        for s in S_ENDPOINTS:
            r = sreps[s]
            ok &= abs(r.margin) <= 3 * r.mc_stderr
            ok &= r.extras["containment_margin"] >= -3 * r.extras["containment_stderr"]
    report("criterion 10 (SBMI)", ok, "; ".join(details))
    for label in ("identical", "offset"):
        sreps = {r.s: r for r in sbmi_runs[label]}
        for s in S_INTERIOR:
            assert sreps[s].holds == "holds"
        for s in S_ALL:
            r = sreps[s]
            assert r.extras["containment_margin"] >= -3 * r.extras["containment_stderr"]
        for s in S_ENDPOINTS:
            assert abs(sreps[s].margin) <= 3 * sreps[s].mc_stderr


def test_c11_jensen_bound(cd_runs):
    worst = np.inf
    for label in ("identical", "offset"):
        for r in cd_runs[label]:
            worst = min(worst, r.extras["jensen"]["margin"])
    ok = worst >= -0.05
    report("criterion 11 (Jensen bound)", ok,
           f"min Ent(mu_s) + V^(1/3) over all CD runs = {worst:.4f} (>= -0.05)")
    for label in ("identical", "offset"):
        for r in cd_runs[label]:
            assert r.extras["jensen"]["margin"] >= -0.05


def test_c12_dilation_invariance():
    base = verify_bmi_sweep(UNIT, OFFSET, [0.5], N=2000, seed=777, r=0.05, h=0.05)
    ok = True
    details = []
    for lam in (2.0, 4.0):
        scaled = verify_bmi_sweep(UNIT.dilated(lam), OFFSET.dilated(lam), [0.5],
                                  N=2000, seed=777, r=lam * 0.05, h=lam * 0.05)
        theta_same = base[0].extras["theta"] == scaled[0].extras["theta"]
        holds_same = base[0].holds == scaled[0].holds
        ok &= theta_same and holds_same
        details.append(f"lam={lam:g}: theta bit-identical={theta_same}, "
                       f"holds {base[0].holds}->{scaled[0].holds}")
    # cheap full-sweep cross-check on the identical pair
    b2 = verify_bmi_sweep(UNIT, UNIT, S_ALL, N=400, seed=787, r=0.1, h=0.1)
    s2 = verify_bmi_sweep(UNIT.dilated(2.0), UNIT.dilated(2.0), S_ALL,
                          N=400, seed=787, r=0.2, h=0.2)
    for a, b in zip(b2, s2):
        ok &= (a.extras["theta"] == b.extras["theta"]) and (a.holds == b.holds)
    report("criterion 12 (dilation invariance)", ok, "; ".join(details))
    assert ok


def test_c13_step_limit():
    g8 = (2 * np.arange(8) + 1) / 16.0
    pts = np.stack(np.meshgrid(g8, g8, g8, indexing="ij"), axis=-1).reshape(-1, 3)

    def two_level(left, right, flip=False):
        rho = np.where((pts[:, 0] < 0.5) != flip, left, right)
        return DiscreteMeasure(pts, rho / rho.sum(), density=rho, density_h=None)

    mu = two_level(4.0 / 3.0, 2.0 / 3.0)
    nu = two_level(4.0 / 3.0, 2.0 / 3.0, flip=True)
    rows = step_limit_experiment(mu, nu, [0, 1, 2, 3, 4, 5], 0.5, K=UNIT)
    errs = [r.w2_error for r in rows if r.depth is not None]
    noninc = all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    f_exact = rows[-1].f_value
    f5 = next(r.f_value for r in rows if r.depth == 5)
    rel = abs(f5 - f_exact) / abs(f_exact)
    ok = noninc and rel <= 0.02
    report("criterion 13 (step limit)", ok,
           f"W2 errors {[f'{e:.3f}' for e in errs]} nonincreasing={noninc}; "
           f"|F(5)-F|/|F| = {rel:.4f} (<=0.02)")
    assert noninc
    assert rel <= 0.02


def test_c14_entropy_closed_forms():
    pts = sample_uniform(UNIT, 10_000, seed=14)
    m = DiscreteMeasure(pts, np.full(10_000, 1e-4))
    ent1, _ = renyi_entropy_estimate(m, 0.05)
    err1 = abs(ent1 - (-1.0))

    union = UnionRegion((UNIT, OFFSET))
    pts2 = sample_uniform(union, 10_000, seed=15)
    m2 = DiscreteMeasure(pts2, np.full(10_000, 1e-4))
    ent2, _ = renyi_entropy_estimate(m2, 0.05)
    err2 = abs(ent2 - (-(2.0 ** (1.0 / 3.0))))

    ok = err1 <= 0.02 and err2 <= 0.03
    report("criterion 14 (entropy closed forms)", ok,
           f"unit box {ent1:.4f} (err {err1:.4f} <= 0.02); "
           f"two boxes {ent2:.4f} (err {err2:.4f} <= 0.03)")
    assert err1 <= 0.02
    assert err2 <= 0.03
