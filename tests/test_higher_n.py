"""Smoke tests that the whole pipeline is generic over n (here H^2, d=5)."""

import numpy as np
import pytest

from heis import core, geodesy
from heis.distortion import tau
from heis.measures import (
    BoxRegion,
    estimate_density,
    estimate_volume,
    normalized_measure,
    renyi_entropy,
    sample_uniform,
    theta_deviation,
)
from heis.transport import cost_matrix, geodesic_plan, interpolate, solve_exact
from heis.verify import verify_cd_sweep

UNIT5 = BoxRegion.unit(2)


def test_group_ops_n2():
    rng = np.random.default_rng(0)
    x, y, z = rng.normal(size=(3, 5))
    assert np.allclose(
        core.group_mul(core.group_mul(x, y), z),
        core.group_mul(x, core.group_mul(y, z)), atol=1e-12)
    assert geodesy.cc_distance(x, x) == 0.0
    d = geodesy.cc_distance(x, y)
    dl = geodesy.cc_distance(core.dilate(2.0, x), core.dilate(2.0, y))
    assert dl == pytest.approx(2.0 * d, abs=1e-9)


def test_tau_exponent_n2():
    assert tau(2, 0.5, 0.0) == pytest.approx(0.5 ** (7.0 / 5.0), abs=1e-14)


def test_uniform_entropy_n2():
    m = normalized_measure(UNIT5, 64, seed=1)
    assert renyi_entropy(m) == pytest.approx(-1.0, abs=1e-12)
    est = estimate_density(m, h=0.5)
    assert np.all(est.density > 0)


def test_volume_and_theta_n2():
    pts = sample_uniform(UNIT5, 500, seed=2)
    est = estimate_volume(pts, 0.0, 0.25)
    assert 0 < est.volume <= 1.5
    assert theta_deviation(pts[:20], pts[20:40]) >= 0.0


def test_transport_and_cd_n2():
    mu = normalized_measure(UNIT5, 40, seed=3)
    nu = normalized_measure(BoxRegion.shifted([1.5, 0, 0, 0, 0]), 40, seed=4)
    plan = solve_exact(cost_matrix(mu, nu), mu.weights, nu.weights)
    assert plan.cost > 0
    gp = geodesic_plan(mu, nu)
    mid = interpolate(gp, 0.5)
    assert len(mid) == 40
    rep = verify_cd_sweep(UNIT5, BoxRegion.shifted([1.5, 0, 0, 0, 0]),
                          [0.5], N=64, seed=5, h=0.25)[0]
    assert rep.holds in ("holds", "inconclusive")
    assert np.isfinite(rep.margin)
