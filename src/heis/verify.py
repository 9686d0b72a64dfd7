"""Inequality verification at desk scale.

Checks, with explicit Monte-Carlo error bars, the entropy inequality along
Wasserstein geodesics (CD), the Brunn-Minkowski inequality on midpoint
sets (BMI), its strengthening on interpolant supports (SBMI), the
Borell-Brascamp-Lieb inequality on grid functions (BBL), and the Jensen
support bound.  Every check returns a three-valued report: a `fails` on a
theorem-backed inequality signals a defect in the estimators, not in the
theorem, and the report note says so.

Margins are oriented so that margin >= 0 means the inequality holds:
the side the inequality claims to be larger minus the smaller one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import geodesy
from .distortion import p_mean, tau, tau_tilde
from .geodesy import TWO_PI, NonUniqueGeodesic
from .measures import (
    BoxRegion,
    DiscreteMeasure,
    Region,
    _rng,
    estimate_density,
    estimate_volume,
    normalized_measure,
    renyi_entropy,
    renyi_entropy_estimate,
    step_approximate,
    theta_deviation,
)
from .transport import (
    TransportPlan,
    cost_matrix,
    geodesic_plan,
    interpolate,
    solve_exact,
    w2,
)

__all__ = [
    "InequalityReport",
    "HypothesisViolated",
    "GridFunction",
    "cd_functional",
    "verify_cd_sweep",
    "verify_bmi_sweep",
    "verify_sbmi_sweep",
    "verify_bbl",
    "sampled_measures",
    "step_limit_experiment",
    "StepLimitRow",
]

K_SIGMA = 3.0


class HypothesisViolated(ValueError):
    """The pointwise BBL hypothesis failed on a sampled triple (an input
    problem, not a theorem failure); carries the witness."""

    def __init__(self, msg, witness):
        super().__init__(msg)
        self.witness = witness


@dataclass
class InequalityReport:
    """One inequality instance: sides, oriented margin, error bar, verdict."""

    name: str
    s: float
    lhs: float
    rhs: float
    margin: float
    mc_stderr: float
    discretization_note: str = ""
    holds: str = "inconclusive"
    extras: dict = field(default_factory=dict)

    @staticmethod
    def classify(margin: float, stderr: float) -> str:
        if stderr == 0.0:
            return "holds" if margin >= 0 else "fails"
        if abs(margin) < K_SIGMA * stderr:
            return "inconclusive"
        return "holds" if margin >= K_SIGMA * stderr else "fails"

    @classmethod
    def build(cls, name, s, lhs, rhs, margin, stderr, note="", extras=None):
        return cls(
            name=name, s=float(s), lhs=float(lhs), rhs=float(rhs),
            margin=float(margin), mc_stderr=float(stderr),
            discretization_note=note,
            holds=cls.classify(float(margin), float(stderr)),
            extras=extras or {},
        )

    def to_json(self) -> dict:
        return asdict(self)

    CSV_HEADER = "name,s,lhs,rhs,margin,stderr,holds"

    def csv_row(self) -> str:
        vals = [self.s, self.lhs, self.rhs, self.margin, self.mc_stderr]
        return ",".join([self.name] + [repr(float(v)) for v in vals] + [self.holds])


# ---------------------------------------------------------------------------
# the CD functional and verifier
# ---------------------------------------------------------------------------

def _cd_terms(plan: TransportPlan, src: DiscreteMeasure, tgt: DiscreteMeasure,
              s: float, angles: np.ndarray) -> np.ndarray:
    """The pair terms of F^n_s, so that F^n_s = -sum_ij pi_ij terms_ij."""
    e = 2 * src.n + 1
    return (tau(src.n, 1.0 - s, angles) * src.density[plan.i] ** (-1.0 / e)
            + tau(src.n, s, angles) * tgt.density[plan.j] ** (-1.0 / e))


def cd_functional(plan: TransportPlan, src: DiscreteMeasure, tgt: DiscreteMeasure,
                  s: float) -> float:
    """F^n_s of the plan:

        -sum_ij pi_ij [ tau^n_{1-s}(theta_ij) rho0(x_i)^{-1/(2n+1)}
                        + tau^n_s(theta_ij) rho1(y_j)^{-1/(2n+1)} ].

    Returns -inf when the support contains a theta = 2pi pair (the
    distortion coefficient is infinite there); callers should flag it.
    """
    if src.density is None or tgt.density is None:
        raise ValueError("cd_functional needs marginal densities")
    angles = np.abs(geodesy.paired_invert(src.points[plan.i], tgt.points[plan.j])[0])
    return float(-np.sum(plan.mass * _cd_terms(plan, src, tgt, s, angles)))


def _inconclusive(name, s, note) -> InequalityReport:
    """A report whose margin cannot be formed: NaN sides, margin and stderr."""
    return InequalityReport(name=name, s=float(s), lhs=np.nan, rhs=np.nan, margin=np.nan,
                            mc_stderr=np.nan, holds="inconclusive", discretization_note=note)


def sampled_measures(A: Region, B: Region, N: int, seed: int):
    """Normalized measures of N atoms on A (seed) and B (seed + 1)."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    return normalized_measure(A, N, seed), normalized_measure(B, N, seed + 1)


def _sampled_instance(A: Region, B: Region, N: int, seed: int):
    """The sampled measures and their pair table with chi."""
    mu0, mu1 = sampled_measures(A, B, N, seed)
    return mu0, mu1, geodesy.pair_table(mu0.points, mu1.points, want_chi=True)


def _exact_geodesics(name, s_values, mu0, mu1, table):
    """(exact geodesic plan, None), or (None, inconclusive reports) if it holds center pairs."""
    try:
        return geodesic_plan(mu0, mu1, table), None
    except NonUniqueGeodesic as err:
        return None, [_inconclusive(name, s, f"center pairs in the optimal plan: {err}")
                      for s in s_values]


def _weighted_spread(mass, terms):
    """Stderr of a plan-weighted mean, treating supported pairs as a
    weighted iid sample (effective size 1 / sum mass^2)."""
    mean = np.sum(mass * terms)
    var = np.sum(mass * (terms - mean) ** 2)
    neff = 1.0 / np.sum(mass ** 2)
    return float(np.sqrt(max(var, 0.0) / neff))


def _jensen_report(mu_s: DiscreteMeasure, s, h) -> InequalityReport:
    """Ent(mu_s) >= -Leb(spt mu_s)^{1/(2n+1)}, checked with the plug-in
    pair on one grid (the discrete inequality is then exact by Hoelder)."""
    d = mu_s.points.shape[1]
    ent = renyi_entropy(estimate_density(mu_s, h))
    vol = estimate_volume(mu_s.points, 0.0, h)
    rhs = -vol.volume ** (1.0 / d)
    margin = ent - rhs
    return InequalityReport.build(
        "JENSEN", s, lhs=ent, rhs=rhs, margin=margin, stderr=0.0,
        note=f"plug-in entropy vs occupancy volume on the h={h:g} grid",
        extras={"support_volume": vol.volume, "volume_stderr": vol.stderr},
    )


def verify_cd_sweep(A: Region, B: Region, s_values, N: int, seed: int,
                    h: float) -> list[InequalityReport]:
    """Entropy inequality Ent(mu_s) <= F^n_s along the exact-plan geodesic
    between the normalized restrictions of A and B; one report per s.

    lhs is the Richardson-extrapolated histogram entropy of the
    interpolant; rhs uses the exact marginal densities, so its only error
    is the Monte-Carlo spread of the pair terms.  Each report carries a
    JENSEN side-report in extras.
    """
    mu0, mu1, table = _sampled_instance(A, B, N, seed)
    gp, degenerate = _exact_geodesics("CD", s_values, mu0, mu1, table)
    if gp is None:
        return degenerate

    note = f"N={N} h={h:g} exact plan"
    # the plan supports unique pairs only: |theta| < 2pi, so every tau is finite
    angles = np.abs(table.theta[gp.plan.i, gp.plan.j])
    reports = []
    for s in s_values:
        mu_s = interpolate(gp, s)
        lhs, lhs_err = renyi_entropy_estimate(mu_s, h)
        terms = _cd_terms(gp.plan, mu0, mu1, s, angles)
        rhs = float(-np.sum(gp.plan.mass * terms))
        rhs_err = _weighted_spread(gp.plan.mass, -terms)
        margin = rhs - lhs
        stderr = float(np.hypot(lhs_err, rhs_err))
        rep = InequalityReport.build(
            "CD", s, lhs=lhs, rhs=rhs, margin=margin, stderr=stderr, note=note,
            extras={"w2": float(np.sqrt(gp.plan.cost)),
                    "jensen": _jensen_report(mu_s, s, h).to_json()},
        )
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# BMI / SBMI
# ---------------------------------------------------------------------------

def _bmi_rhs(n, s, theta_dev, volA, volB, volA_err, volB_err):
    d = 2 * n + 1
    tA = tau(n, 1.0 - s, theta_dev)
    tB = tau(n, s, theta_dev)
    la, lb = volA ** (1.0 / d), volB ** (1.0 / d)
    rhs = tA * la + tB * lb
    # delta method on the volume estimates
    da = tA * la / (d * volA) * volA_err if volA > 0 else 0.0
    db = tB * lb / (d * volB) * volB_err if volB > 0 else 0.0
    return rhs, float(np.hypot(da, db)), tA, tB


_THETA_DEGENERATE_NOTE = (
    "Theta = 2pi: A^{-1}*B sits in the center, which forces "
    "Leb(A) = Leb(B) = 0; no content to verify at sample scale")


def _root(vol, d):
    """Leb^{1/d} of a volume estimate, with its delta-method stderr."""
    err = vol.stderr / (d * vol.volume ** ((d - 1.0) / d)) if vol.volume > 0 else 0.0
    return vol.volume ** (1.0 / d), err


def _bmi_sides(A_pts, B_pts, table, theta_dev, s_values, r, h):
    """Per s, the BMI sides on the sampled midpoint set as (lhs, lhs_err,
    rhs, rhs_err, extras), extras holding Theta = `theta_dev` (< 2pi) and
    the volumes."""
    volA = estimate_volume(A_pts, r, h)
    volB = estimate_volume(B_pts, r, h)
    n = (A_pts.shape[1] - 1) // 2
    sides = []
    for s in s_values:
        Z = geodesy.midpoint_set(s, A_pts, B_pts, table=table)
        volZ = estimate_volume(Z.points, r, h)
        rhs, rhs_err, tA, tB = _bmi_rhs(n, s, theta_dev, volA.volume, volB.volume,
                                        volA.stderr, volB.stderr)
        sides.append((*_root(volZ, 2 * n + 1), rhs, rhs_err,
                      {"theta": theta_dev, "vol_A": volA.volume, "vol_B": volB.volume,
                       "vol_Z": volZ.volume, "skipped_pairs": Z.skipped,
                       "tau_A": tA, "tau_B": tB}))
    return sides


def verify_bmi_sweep(A: Region, B: Region, s_values, N: int, seed: int,
                     r: float, h: float) -> list[InequalityReport]:
    """Brunn-Minkowski inequality on the sampled midpoint set:

        Leb(Z_s(A,B))^{1/(2n+1)} >=
            tau^n_{1-s}(Theta) Leb(A)^{1/(2n+1)} + tau^n_s(Theta) Leb(B)^{1/(2n+1)}

    All three volumes use the same occupancy estimator (thickening r, grid
    h), so the endpoint margins vanish identically; Theta uses the sampled
    minimum, which can only overestimate the essential infimum and
    therefore only strengthens the claimed bound.
    """
    mu0, mu1, table = _sampled_instance(A, B, N, seed)
    theta_dev = theta_deviation(mu0.points, mu1.points, table=table)
    if theta_dev >= TWO_PI:
        return [_inconclusive("BMI", s, _THETA_DEGENERATE_NOTE) for s in s_values]
    sides = _bmi_sides(mu0.points, mu1.points, table, theta_dev, s_values, r, h)
    return [InequalityReport.build(
        "BMI", s, lhs=lhs, rhs=rhs, margin=lhs - rhs, stderr=np.hypot(lhs_err, rhs_err),
        note=f"N={N} r={r:g} h={h:g}; volumes share one estimator", extras=extras)
        for s, (lhs, lhs_err, rhs, rhs_err, extras) in zip(s_values, sides)]


def verify_sbmi_sweep(A: Region, B: Region, s_values, N: int, seed: int,
                      r: float, h: float) -> list[InequalityReport]:
    """Strong BMI: the midpoint-set volume on the left is replaced by the
    volume of the interpolant support spt((T_s)#eta) along the exact plan.
    Reports also carry the BMI left side and the containment margin
    lhs_SBMI <= lhs_BMI (the support sits inside the midpoint set).
    """
    mu0, mu1, table = _sampled_instance(A, B, N, seed)
    theta_dev = theta_deviation(mu0.points, mu1.points, table=table)
    if theta_dev >= TWO_PI:
        return [_inconclusive("SBMI", s, _THETA_DEGENERATE_NOTE) for s in s_values]
    gp, degenerate = _exact_geodesics("SBMI", s_values, mu0, mu1, table)
    if gp is None:
        return degenerate
    sides = _bmi_sides(mu0.points, mu1.points, table, theta_dev, s_values, r, h)

    d = 2 * mu0.n + 1
    reports = []
    for s, (lhs_bmi, lhs_bmi_err, rhs, rhs_err, bmi) in zip(s_values, sides):
        volS = estimate_volume(interpolate(gp, s).points, r, h)
        lhs, lhs_err = _root(volS, d)
        reports.append(InequalityReport.build(
            "SBMI", s, lhs=lhs, rhs=rhs, margin=lhs - rhs, stderr=np.hypot(lhs_err, rhs_err),
            note=f"N={N} r={r:g} h={h:g}; exact plan interpolant support",
            extras={"theta": bmi["theta"], "vol_A": bmi["vol_A"], "vol_B": bmi["vol_B"],
                    "vol_support": volS.volume, "lhs_bmi": lhs_bmi,
                    "lhs_bmi_stderr": lhs_bmi_err,
                    "containment_margin": lhs_bmi - lhs,
                    "containment_stderr": float(np.hypot(lhs_err, lhs_bmi_err)),
                    "tau_A": bmi["tau_A"], "tau_B": bmi["tau_B"]},
        ))
    return reports


# ---------------------------------------------------------------------------
# Borell-Brascamp-Lieb on grid functions
# ---------------------------------------------------------------------------

@dataclass
class GridFunction:
    """Piecewise-constant nonnegative function on a box grid (0 outside)."""

    box: BoxRegion
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != self.box.intervals.shape[0]:
            raise ValueError("values must have one axis per coordinate")
        if self.values.size == 0:
            raise ValueError("grid must have at least one cell")
        if np.any(self.values < 0):
            raise ValueError("grid function must be nonnegative")

    @property
    def widths(self) -> np.ndarray:
        iv = self.box.intervals
        return (iv[:, 1] - iv[:, 0]) / np.asarray(self.values.shape)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.widths))

    @classmethod
    def indicator(cls, region: Region, box: BoxRegion, shape, scale: float = 1.0):
        """scale * 1_region sampled at cell centers of the given grid."""
        shape = tuple(shape)
        if len(shape) != len(box.intervals) or not all(
                isinstance(m, (int, np.integer)) and m >= 1 for m in shape):
            raise ValueError(f"grid must have at least one cell on each of its "
                             f"{len(box.intervals)} axes, got shape {shape}")
        widths = (box.intervals[:, 1] - box.intervals[:, 0]) / np.asarray(shape)
        axes = [box.intervals[k, 0] + (np.arange(m) + 0.5) * widths[k]
                for k, m in enumerate(shape)]
        centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(shape))
        vals = np.where(region.contains(centers), scale, 0.0).reshape(shape)
        return cls(box=box, values=vals)

    def value_at(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        rel = (p - self.box.intervals[:, 0]) / self.widths
        idx = np.floor(rel).astype(np.int64)
        inside = np.all((idx >= 0) & (idx < np.asarray(self.values.shape)), axis=1)
        out = np.zeros(len(p))
        if np.any(inside):
            out[inside] = self.values[tuple(idx[inside].T)]
        return out

    def integral(self) -> float:
        return float(self.values.sum() * self.cell_volume)

    def support_points(self, k: int, rng) -> np.ndarray:
        """k points uniform on the (cellwise) support."""
        flat = np.nonzero(self.values.ravel() > 0)[0]
        if len(flat) == 0:
            raise ValueError("grid function has empty support")
        pick = flat[rng.integers(0, len(flat), size=k)]
        idx = np.stack(np.unravel_index(pick, self.values.shape), axis=1)
        return (self.box.intervals[:, 0] + (idx + rng.random((k, idx.shape[1])))
                * self.widths)


def _bbl_exponent(n: int, p: float) -> float:
    d = 2 * n + 1
    if np.isposinf(p):
        return 1.0 / d
    if p == 0.0:
        return 0.0
    denom = 1.0 + d * p
    if denom == 0.0:
        return -np.inf
    return p / denom


def verify_bbl(f: GridFunction, g: GridFunction, h_fn: GridFunction,
               s: float, p: float, n_samples: int = 2000, seed: int = 0,
               pairing: str = "independent") -> InequalityReport:
    """Borell-Brascamp-Lieb check: the hypothesis

        h(z) >= M_s^p( f(x) / tau~^n_{1-s}(theta(y,x))^{2n+1},
                       g(y) / tau~^n_s(theta(x,y))^{2n+1} )

    is CHECKED on sampled triples (x, y, z = Z_s(x, y)) before comparing

        integral h >= M_s^{p/(1+(2n+1)p)}(integral f, integral g).

    `pairing` = "independent" samples x and y separately from the supports
    of f and g; "diagonal" couples them (x = y draws), matching coupled
    instantiations where the hypothesis is only meant along a plan.
    Raises HypothesisViolated with a witness triple when the bound fails.
    """
    n = (f.box.intervals.shape[0] - 1) // 2
    d = 2 * n + 1
    if not 0.0 < s < 1.0:
        raise ValueError("verify_bbl needs s strictly inside (0, 1)")
    if p < -1.0 / d:
        raise ValueError(f"p must be >= -1/(2n+1) = {-1.0 / d:g}")
    if pairing not in ("independent", "diagonal"):
        raise ValueError(f"unknown pairing {pairing!r}")

    if np.all(f.values == 0.0) or np.all(g.values == 0.0):
        n_samples = 0  # every pointwise bound is M(0, .) = 0: vacuous
    rng = _rng(seed)
    if n_samples > 0:
        xs = f.support_points(n_samples, rng)
        ys = g.support_points(n_samples, rng) if pairing == "independent" else xs.copy()
    else:
        xs = ys = np.empty((0, f.box.intervals.shape[0]))

    fx = f.value_at(xs)
    gy = g.value_at(ys)
    z, theta, _ = geodesy._paired_midpoints(s, xs, ys)
    th = np.abs(theta)
    # skip f(x) = g(y) = 0, and theta = 2pi: a non-unique midpoint, where
    # the coefficient is infinite anyway
    live = np.nonzero(((fx != 0.0) | (gy != 0.0)) & (th < TWO_PI))[0]
    th = th[live]
    # tau~ < inf for theta < 2pi; float_power, as in p_mean, is the C
    # library's pow, which numpy's vectorised ** can miss by a bit
    bound = p_mean(p, s, fx[live] / np.float_power(tau_tilde(n, 1.0 - s, th), d),
                   gy[live] / np.float_power(tau_tilde(n, s, th), d))
    hz = h_fn.value_at(z[live])
    bad = np.nonzero(hz < bound - 1e-9)[0]
    if len(bad):
        i = bad[0]  # the first failing triple in sample order
        k = live[i]
        raise HypothesisViolated(
            f"h(z) = {hz[i]:g} < required {bound[i]:g} at sampled triple",
            witness={"x": xs[k].tolist(), "y": ys[k].tolist(), "z": z[k].tolist(),
                     "h_z": float(hz[i]), "bound": float(bound[i])},
        )

    If = f.integral()
    Ig = g.integral()
    Ih = h_fn.integral()
    q = _bbl_exponent(n, p)
    rhs = p_mean(q, s, If, Ig)
    margin = Ih - rhs
    return InequalityReport.build(
        "BBL", s, lhs=Ih, rhs=rhs, margin=margin, stderr=0.0,
        note=f"hypothesis checked on {n_samples} {pairing} triples",
        extras={"integral_f": If, "integral_g": Ig, "exponent": q, "p": p},
    )


# ---------------------------------------------------------------------------
# step-measure limit experiment
# ---------------------------------------------------------------------------

@dataclass
class StepLimitRow:
    depth: int | None  # None marks the un-approximated reference row
    w2_error: float
    f_value: float


def _hull_box(points) -> BoxRegion:
    """The smallest box holding the points."""
    return BoxRegion(np.stack([points.min(axis=0), points.max(axis=0)], axis=1))


def step_limit_experiment(mu: DiscreteMeasure, nu: DiscreteMeasure,
                          depths, s: float, K: Region | None = None) -> list[StepLimitRow]:
    """Step-approximate both marginals at each depth, re-solve transport,
    and report the approximation error max(W2(step mu, mu), W2(step nu, nu))
    together with F^n_s of the step plan.  The final row (depth None) is
    the un-approximated functional.  K is the partitioned region (default:
    the hull box of each marginal's points).
    """
    if mu.density is None or nu.density is None:
        raise ValueError("step_limit_experiment needs bounded measures with densities")
    K_mu = K if K is not None else _hull_box(mu.points)
    K_nu = K if K is not None else _hull_box(nu.points)
    rows = []
    for depth in depths:
        sm_mu = step_approximate(mu, K_mu, depth).as_discrete()
        sm_nu = step_approximate(nu, K_nu, depth).as_discrete()
        err = max(w2(sm_mu, mu), w2(sm_nu, nu))
        plan = solve_exact(cost_matrix(sm_mu, sm_nu), sm_mu.weights, sm_nu.weights)
        rows.append(StepLimitRow(depth=int(depth), w2_error=err,
                                 f_value=cd_functional(plan, sm_mu, sm_nu, s)))
    plan = solve_exact(cost_matrix(mu, nu), mu.weights, nu.weights)
    rows.append(StepLimitRow(depth=None, w2_error=0.0,
                             f_value=cd_functional(plan, mu, nu, s)))
    return rows
