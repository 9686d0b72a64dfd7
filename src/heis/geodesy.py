"""Geodesics of H^n from the origin, their inversion, and the CC distance.

The unit-time geodesic with horizontal datum chi in C^n and vertical angle
theta in [-2pi, 2pi] is

    Gamma_s(chi, theta) = ( i (e^{-i theta s} - 1) / theta * chi ,
                            2 |chi|^2 (theta s - sin(theta s)) / theta^2 )

and (s*chi, 0) for theta = 0.  This is the unique reading of the printed
formula that is continuous at theta = 0 and horizontal for the group law
used in `core` (t' = 2 sum Im(zeta conj(zeta'))).  Useful identities:

    Gamma_s(chi, theta) = Gamma_1(s*chi, s*theta)
    zeta(s) = s * sinc(theta*s / 2pi) * e^{-i theta s / 2} * chi
    |zeta(1)| = |chi| * sinc(theta / 2pi)

The exponential map (chi, theta) -> Gamma_1(chi, theta), in the real
coordinates of chi, has the Jacobian determinant |chi|^2 J(theta/2) / 3, with

    J(x) = (sin x / x)^{2n-1} * 3 (sin x - x cos x) / x^3,   J(0) = 1

(`distortion._jacobian`).  The distortion coefficients tau^n_s are ratios
of J, and the volume of a CC ball is its integral (`measures`).

Inversion at s=1 reduces, for zeta != 0, to the scalar monotone equation

    t / |zeta|^2 = m(theta) := (theta - sin theta) / (2 sin^2(theta/2))

on (-2pi, 2pi).  Each root starts from a tabulated inverse of m, good to
about 1.6e-6 relative, and takes two Newton steps, which square that
error twice: on theta below theta = pi, and on eps = 2pi - theta above
it, where theta cannot hold eps to full precision; there |chi| and the
phase of chi come from eps as well.  The relative residual of m at
the root is at most 1e-12 for every u = t/|zeta|^2 off the center branch,
i.e. |u| <= CENTER_TOL^-2.  Points on the center (zeta = 0, t != 0) sit
on the non-unique theta = +-2pi family with |chi| = sqrt(pi |t|).

The CC distance is d(x, y) = |chi| of Gamma_1^{-1}(x^{-1} * y); the angle
theta(x, y) is the corresponding |theta|.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import core

__all__ = [
    "NonUniqueGeodesic",
    "GeodesicParam",
    "InversionResult",
    "MidpointSet",
    "gamma",
    "gamma_inverse",
    "cc_distance",
    "angle",
    "midpoint",
    "midpoint_set",
    "pair_table",
    "PairTable",
    "set_max_workers",
]

TWO_PI = 2.0 * np.pi

# |zeta| < CENTER_TOL * sqrt(|t|) routes to the theta = +-2pi branch, where
# the generic inversion is ill-conditioned but the branch formula is exact.
CENTER_TOL = 1e-10

# pairs per row block of the bulk kernels.  glibc's malloc maps a request
# of at least its mmap threshold (128 KiB by default) afresh, and each free
# of a larger mapping raises that threshold and the free heap it keeps; so
# temporaries above it run at a speed that depends on what the process
# freed before.  A block's largest temporaries are complex arrays of 16
# bytes a pair for n = 1, so _CHUNK pairs keep them within the default.
_MMAP_THRESHOLD = 128 * 1024
_CHUNK = _MMAP_THRESHOLD // np.dtype(complex).itemsize

_max_workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


class NonUniqueGeodesic(ValueError):
    """Raised when a unique geodesic is required but theta = +-2pi."""


def set_max_workers(k: int):
    """Set the worker threads of the bulk pair kernels, by default the CPUs the
    process may run on (results are identical for any count: fixed blocks)."""
    global _max_workers
    if k < 1:
        raise ValueError(f"worker count must be >= 1, got {k}")
    _max_workers = int(k)


@dataclass(frozen=True)
class GeodesicParam:
    """Initial datum (chi, theta) of a geodesic from the origin."""

    chi: np.ndarray  # complex, shape (n,)
    theta: float

    def __post_init__(self):
        chi = np.atleast_1d(np.asarray(self.chi, dtype=complex))
        if not np.all(np.isfinite(chi)):
            raise ValueError(f"chi must be finite, got {chi}")
        if not abs(self.theta) <= TWO_PI + 1e-15:  # NaN fails too
            raise ValueError(f"|theta| must be <= 2*pi, got {self.theta}")
        object.__setattr__(self, "chi", chi)


@dataclass(frozen=True)
class InversionResult:
    """Output of Gamma_1^{-1}.

    For |theta| < 2pi `param` is the unique datum.  For center points the
    geodesic is not unique: `unique` is False and `param` is one canonical
    representative (chi = |chi| * e_1) of the family
    {(chi, sign(t) 2pi) : |chi| = sqrt(pi |t|)}; callers must not treat it
    as a selection.
    """

    param: GeodesicParam
    unique: bool
    distance: float


# ---------------------------------------------------------------------------
# scalar auxiliary map m and the vectorized root solve
# ---------------------------------------------------------------------------

# Taylor coefficients in w = x^2, highest power first, with the numerators
# 1, 2k+3 and 3 (2k+2) over (2k+3)!, of (x - sin x) / x^3, (1 - cos x) / x^2
# and 3 (sin x - x cos x) / x^3 = 3 (second - first): the exponential map's
# functions that cancel near 0 (`distortion` reads the third).  Seven terms
# leave a relative truncation error below 1e-17 for x <= 0.5.
_SERIES = np.array([[(-1) ** k * c / math.factorial(2 * k + 3) for c in (1, 2 * k + 3, 6 * k + 6)]
                    for k in range(7)][::-1])
_SERIES_THETA = 0.5


def _series_or_closed(x, series, closed):
    """series(x) where |x| < _SERIES_THETA and closed(x) elsewhere,
    elementwise; each form sees 0, resp. 1, where the other is taken."""
    small = np.abs(x) < _SERIES_THETA
    return np.where(small, series(np.where(small, x, 0.0)), closed(np.where(small, 1.0, x)))


def _m_series(theta):
    """m and m' for 0 <= theta <= _SERIES_THETA (a little beyond is fine),
    as polynomials in theta^2: no cancellation, no underflow near 0.  Both
    series run in one in-place Horner loop with the steps of np.polyval:
    the same bits in half the array operations, which one-point solves
    feel most."""
    w = np.asarray(theta * theta)
    y = np.zeros((2,) + w.shape)
    for coef in _SERIES[:, :2].reshape((len(_SERIES), 2) + (1,) * w.ndim):
        y *= w
        y += coef
    sn, cs = y
    return theta * sn / cs, 1.0 - sn * (1.0 - w * sn) / (cs * cs)


def _m_direct(theta):
    """m and m' for 0 < theta <= pi, from sin(theta/2) and sin(theta)."""
    s = np.sin(0.5 * theta)
    d = 2.0 * s * s
    sn = np.sin(theta)
    m = (theta - sn) / d
    return m, 1.0 - m * sn / d


def _m(theta):
    """m(theta) = (theta - sin theta) / (2 sin^2(theta/2)), odd, increasing
    on (-2pi, 2pi); a Taylor series below |theta| = 0.5 avoids the
    cancellation in theta - sin theta."""
    theta = np.asarray(theta, dtype=float)
    m = _series_or_closed(np.abs(theta), lambda a: _m_series(a)[0], lambda a: _m_direct(a)[0])
    return np.copysign(m, theta)


def _m_eps_terms(eps):
    """m(2pi - eps) = num / d from eps: num = 2pi - eps + sin eps and
    d = 2 sin^2(eps/2); returns (num, d, sin eps)."""
    s = np.sin(0.5 * eps)
    sn = np.sin(eps)
    return TWO_PI - eps + sn, 2.0 * s * s, sn


# Start tables.  Below theta = pi (u <= pi/2) theta is tabulated on a
# uniform grid of u; above, log eps with eps = 2pi - theta on a uniform grid
# of log u, out to _U_ASYMPTOTE, past which eps ~ sqrt(4 pi / u) is good to
# a relative eps^2 / 24 < 1e-8.  A uniform grid gives the interval by
# arithmetic, not by a search.
_TABLE_STEPS = 2048
_U_STEP = (np.pi / 2.0) / _TABLE_STEPS
_LOG_U0 = np.log(np.pi / 2.0)
_U_ASYMPTOTE = 1e8
_LOG_U_STEP = (np.log(_U_ASYMPTOTE) - _LOG_U0) / _TABLE_STEPS


def _start_tables():
    """(values, steps) of both start tables, resampled from forward tables
    of m twice as fine."""
    def resample(x_fine, y_fine, x0, step):
        y = np.interp(x0 + step * np.arange(_TABLE_STEPS + 1), x_fine, y_fine)
        return y, np.append(np.diff(y), 0.0)

    th = np.linspace(0.0, np.pi, 2 * _TABLE_STEPS + 1)
    # eps from pi down past sqrt(4 pi / _U_ASYMPTOTE), so that u covers the table
    log_eps = np.linspace(np.log(np.pi), 0.5 * np.log(4.0 * np.pi / _U_ASYMPTOTE) - 1.0,
                          2 * _TABLE_STEPS + 1)
    num, d, _ = _m_eps_terms(np.exp(log_eps))
    return (resample(_m(th), th, 0.0, _U_STEP),
            resample(np.log(num / d), log_eps, _LOG_U0, _LOG_U_STEP))


_THETA_START, _LOG_EPS_START = _start_tables()
_U_SERIES = float(_m(_SERIES_THETA))


def _interp_start(x, table):
    """Linear interpolation in a start table at fractional grid index x >= 0
    (constant past the last node)."""
    y, dy = table
    i = np.minimum(x.astype(np.intp), _TABLE_STEPS)
    return y[i] + (x - i) * dy[i]


def _solve_below_pi(u, m_and_dm):
    """theta in (0, pi] with m(theta) = u, for 0 < u <= pi/2."""
    th = _interp_start(u / _U_STEP, _THETA_START)
    for _ in range(2):
        m, dm = m_and_dm(th)
        th = th - (m - u) / dm
    return th, np.sin(0.5 * th), np.cos(0.5 * th)


def _solve_above_pi(u):
    """theta in (pi, 2pi) with m(theta) = u, for u > pi/2, carried as
    eps = 2pi - theta with Newton on log m = log u.  Returns theta together
    with sin(theta/2) and cos(theta/2) evaluated from eps."""
    lu = np.log(u)
    x = (lu - _LOG_U0) / _LOG_U_STEP
    log_eps = np.where(x < _TABLE_STEPS, _interp_start(x, _LOG_EPS_START),
                       0.5 * (np.log(4.0 * np.pi) - lu))
    eps = np.exp(log_eps)
    for _ in range(2):
        num, d, sn = _m_eps_terms(eps)
        # d/deps log m = -d / num - sin(eps) / d
        eps = eps - np.log(num / (d * u)) / (-d / num - sn / d)
    return TWO_PI - eps, np.sin(0.5 * eps), -np.cos(0.5 * eps)


def _solve_theta(u):
    """Solve m(theta) = u for theta in (-2pi, 2pi), elementwise.

    Returns (theta, sin(theta/2), cos(theta/2)).  Each root starts from a
    tabulated inverse of m, good to about 1.6e-6 relative, and takes two
    Newton steps: quadratic convergence takes that error below the
    rounding of m itself, so a third step would change only last bits.
    Below theta = pi the iterate is theta (Newton on m, by Taylor series
    for theta < 0.5); above, it is eps = 2pi - theta (Newton on log m),
    and the half-angle sine and cosine come from eps, which theta cannot
    hold to full precision as theta -> 2pi.  Contract: the relative
    residual of m at the returned root is at most 1e-12 for every
    |u| <= CENTER_TOL^-2 (the largest u off the center branch); the result
    is a pure function of |u| and sign(u).
    """
    u = np.asarray(u, dtype=float)
    au = np.abs(u).reshape(-1)  # flat, for the branches' integer indices
    theta = au * 0.0  # 0 at u = 0, NaN at NaN
    s = theta.copy()
    c = theta + 1.0
    above = au > np.pi / 2.0
    series = (au > 0.0) & (au < _U_SERIES)
    direct = (au >= _U_SERIES) & ~above
    for mask, solve in ((series, lambda v: _solve_below_pi(v, _m_series)),
                        (direct, lambda v: _solve_below_pi(v, _m_direct)),
                        (above, _solve_above_pi)):
        k = np.count_nonzero(mask)
        if k == 0:
            continue
        if k == mask.size:  # one branch takes every element, as in a one-point call
            theta, s, c = solve(au)
        else:  # integer indices gather and scatter 3-5x faster than the mask
            idx = np.flatnonzero(mask)
            theta[idx], s[idx], c[idx] = solve(au[idx])
    theta, s, c = (a.reshape(u.shape) for a in (theta, s, c))
    neg = u < 0
    return np.where(neg, -theta, theta), np.where(neg, -s, s), c


# ---------------------------------------------------------------------------
# forward map
# ---------------------------------------------------------------------------

def _v_factor(alpha):
    """V(a) = (a - sin a) / a^2, odd; below |a| = _SERIES_THETA it is
    a * (a - sin a) / a^3 by the first column of _SERIES, which avoids the
    cancellation in a - sin a."""
    return _series_or_closed(np.asarray(alpha, dtype=float),
                             lambda a: a * np.polyval(_SERIES[:, 0], a * a),
                             lambda a: (a - np.sin(a)) / (a * a))


def _gamma_arrays(s, chi, theta):
    """Gamma_s for arrays chi (..., n) complex, theta (...)."""
    theta = np.asarray(theta, dtype=float)
    chi = np.asarray(chi, dtype=complex)
    a = theta * s
    zfac = s * np.sinc(a / TWO_PI) * np.exp(-0.5j * a)
    zeta = chi * zfac[..., None]
    nchi2 = core._row_sum(lambda j: chi.real[..., j] ** 2 + chi.imag[..., j] ** 2, chi.shape[-1])
    t = 2.0 * nchi2 * (s * s) * _v_factor(a)
    return zeta, t


def gamma(s: float, p: GeodesicParam) -> np.ndarray:
    """Point gamma_{chi,theta}(s) as coordinates, s in [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must be in [0, 1], got {s}")
    zeta, t = _gamma_arrays(s, p.chi[None, :], np.array([p.theta]))
    return core.from_complex(zeta[0], t[0])


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def _invert_arrays(zeta, t, want_chi=False):
    """Vectorized Gamma_1^{-1} for zeta (..., n) complex, t (...).

    Returns (chi, theta, dist, unique); chi is None unless want_chi.  Center
    entries get the canonical representative chi = sqrt(pi|t|) e_1 and
    unique = False.
    """
    zeta = np.asarray(zeta, dtype=complex)
    t = np.asarray(t, dtype=float)
    az = np.sqrt(core._row_sum(lambda j: zeta.real[..., j] ** 2 + zeta.imag[..., j] ** 2,
                               zeta.shape[-1]))
    at = np.abs(t)
    on_center = az < CENTER_TOL * np.sqrt(at)
    generic = ~(on_center | ((az == 0.0) & (t == 0.0)))
    # gather and scatter only when some entry is not generic
    every = generic.all()
    zeta_g, t_g, az_g = (zeta, t, az) if every else (zeta[generic], t[generic], az[generic])
    th, s, c = _solve_theta(t_g / (az_g * az_g))
    # |chi| / |zeta| = (theta/2) / sin(theta/2), and 1 at theta = 0
    ratio = np.divide(0.5 * th, s, out=np.ones_like(s), where=s != 0.0)
    dist_g = az_g * ratio
    chi_g = zeta_g * ((c + 1j * s) * ratio)[..., None] if want_chi else None
    if every:
        return chi_g, th, dist_g, ~on_center

    theta = np.zeros_like(at)
    dist = np.zeros_like(at)
    chi = np.zeros_like(zeta) if want_chi else None
    theta[generic] = th
    dist[generic] = dist_g
    if want_chi:
        chi[generic] = chi_g

    r = np.sqrt(np.pi * at[on_center])
    theta[on_center] = np.copysign(TWO_PI, t[on_center])
    dist[on_center] = r
    if want_chi:
        chi[on_center, 0] = r
    return chi, theta, dist, ~on_center


def _points(x, ndim):
    """x as a float array of ndim axes whose last holds the 2n+1 coordinates
    of a point of H^n: one point (ndim 1) or a cloud of row points (ndim 2)."""
    x = np.asarray(x, dtype=float)
    form = "one point of shape (2n+1,)" if ndim == 1 else "a point cloud of shape (k, 2n+1)"
    if x.ndim != ndim:
        raise ValueError(f"need {form}, got shape {x.shape}")
    try:
        core.dim_to_n(x)
    except ValueError as err:
        raise ValueError(f"need {form}, got shape {x.shape}") from err
    return x


def _two_points(x, y, ndim, paired):
    """x and y through _points; paired ones (two single points, matched
    clouds) need equal shapes, the clouds of a pair table equal widths."""
    x, y = _points(x, ndim), _points(y, ndim)
    same = x.shape == y.shape if paired else x.shape[1] == y.shape[1]
    if not same:
        need = "equal shapes" if paired else "clouds of one point dimension"
        raise ValueError(f"need {need}, got shapes {x.shape} and {y.shape}")
    return x, y


def gamma_inverse(y) -> InversionResult:
    """Gamma_1^{-1}(y) for a single point (origin inverts to (0, 0))."""
    y = _points(y, 1)
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite input point")
    zeta, t = core.to_complex(y)
    chi, theta, dist, unique = _invert_arrays(zeta[None, :], np.array([t]), want_chi=True)
    return InversionResult(param=GeodesicParam(chi[0], float(theta[0])),
                           unique=bool(unique[0]), distance=float(dist[0]))


def _twisted_difference(xs, ys):
    """(zeta, t) of x_k^{-1} * y_k for matched clouds: zeta_y - zeta_x and
    t_y - t_x - 2 sum Im(zeta_x conj(zeta_y)), the latter from real parts so
    that equal points cancel exactly and swapping x and y negates it exactly."""
    zx, tx = core.to_complex(xs)
    zy, ty = core.to_complex(ys)
    return zy - zx, ty - tx - core._twist(xs[..., :-1], ys[..., :-1])


def paired_invert(xs, ys):
    """Gamma_1^{-1}(x_k^{-1} * y_k) elementwise for matched clouds.

    Returns (theta, dist, unique) arrays of length len(xs)."""
    xs, ys = _two_points(xs, ys, 2, paired=True)
    _, theta, dist, unique = _invert_arrays(*_twisted_difference(xs, ys))
    return theta, dist, unique


def _along(s, xs, chi, theta):
    """x_k * Gamma_s(chi_k, theta_k) as coordinates (k, 2n+1)."""
    return core.group_mul(xs, core.from_complex(*_gamma_arrays(s, chi, theta)))


def _paired_midpoints(s, xs, ys):
    """Z_s(x_k, y_k) = x_k * Gamma_s(Gamma_1^{-1}(x_k^{-1} y_k)) for matched
    clouds (k, 2n+1), with the inversion's theta and unique flags.  Rows
    with unique False hold the midpoint along the canonical center
    representative, which is not a selection: callers drop them."""
    chi, theta, _, unique = _invert_arrays(*_twisted_difference(xs, ys), want_chi=True)
    return _along(s, xs, chi, theta), theta, unique


def cc_distance_many(xs, ys) -> np.ndarray:
    """d(x_k, y_k) for matched point clouds."""
    return paired_invert(xs, ys)[1]


def _one_pair(x, y):
    """Single points x, y as the one-row clouds of the paired kernel."""
    x, y = _two_points(x, y, 1, paired=True)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite input point")
    return x[None], y[None]


def cc_distance(x, y) -> float:
    """Carnot-Caratheodory distance, via left invariance."""
    return float(_invert_arrays(*_twisted_difference(*_one_pair(x, y)))[2][0])


def angle(x, y) -> float:
    """|theta| of Gamma_1^{-1}(x^{-1} * y); 0 when x == y; symmetric."""
    return float(abs(_invert_arrays(*_twisted_difference(*_one_pair(x, y)))[1][0]))


def midpoint(s: float, x, y) -> np.ndarray:
    """The s-intermediate point Z_s(x, y) = x * Gamma_s(Gamma_1^{-1}(x^{-1} y)).

    Raises NonUniqueGeodesic when theta(x, y) = 2pi (center case); callers
    must handle that branch explicitly.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must be in [0, 1], got {s}")
    z, _, unique = _paired_midpoints(s, *_one_pair(x, y))
    if not unique[0]:
        raise NonUniqueGeodesic(
            "x^{-1} * y lies on the center: the s-intermediate point is not unique"
        )
    return z[0]


# ---------------------------------------------------------------------------
# bulk pair kernel
# ---------------------------------------------------------------------------

@dataclass
class PairTable:
    """All-pairs inversion data between two point clouds.

    dist[i, j] and theta[i, j] describe Gamma_1^{-1}(x_i^{-1} * y_j) for
    the rows x_i of xs and y_j of ys; chi (complex, shape (N, M, n)) is kept
    only when requested, by the midpoint sets (BMI, SBMI), which read every
    pair; a geodesic plan holds its own support's chi.  unique is False
    exactly on center pairs.  The table is the shared input for cost
    matrices, midpoint sets, and the deviation functional.
    """

    dist: np.ndarray
    theta: np.ndarray
    unique: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    chi: np.ndarray | None = None

    def midpoints(self, s: float) -> np.ndarray:
        """Midpoint coordinates for every unique pair, shape (K, 2n+1), in
        row-major pair order; computed in the row blocks of pair_table."""
        if self.chi is None:
            raise ValueError("pair table was built without chi")
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"s must be in [0, 1], got {s}")
        offsets = np.concatenate(([0], np.cumsum(np.count_nonzero(self.unique, axis=1))))
        out = np.empty((offsets[-1], self.xs.shape[1]))

        def work(start, stop):
            unique = self.unique[start:stop]
            if unique.all():  # every pair of the block: broadcast, no gather
                x = self.xs[start:stop, None]
                chi, theta = self.chi[start:stop], self.theta[start:stop]
            else:
                ii, jj = np.nonzero(unique)
                x = self.xs[start + ii]
                chi, theta = self.chi[start:stop][ii, jj], self.theta[start:stop][ii, jj]
            out[offsets[start]:offsets[stop]] = _along(s, x, chi, theta).reshape(-1, out.shape[1])

        _for_row_blocks(work, *self.unique.shape)
        return out


def _for_row_blocks(work, n_rows, n_cols):
    """Call work(start, stop) on fixed row blocks of about _CHUNK pairs of an
    (n_rows, n_cols) pair array; an empty array is one empty block.  The
    blocks do not depend on the worker count (see set_max_workers), and
    work writes each block's rows of outputs allocated by the caller, so
    the outputs are identical for any worker count."""
    rows = max(1, _CHUNK // max(1, n_cols))
    starts = range(0, max(n_rows, 1), rows)

    def block(start):
        work(start, min(start + rows, n_rows))

    if _max_workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=min(_max_workers, len(starts))) as pool:
            list(pool.map(block, starts))
    else:
        for start in starts:
            block(start)


def pair_table(xs, ys, want_chi: bool = False) -> PairTable:
    """Invert x_i^{-1} * y_j for all pairs, in row blocks of about _CHUNK
    pairs written into tables allocated once.  The result has the same
    bytes for any block size and any worker count."""
    xs, ys = _two_points(xs, ys, 2, paired=False)
    shape = (xs.shape[0], ys.shape[0])
    theta = np.empty(shape)
    dist = np.empty(shape)
    unique = np.empty(shape, dtype=bool)
    chi = np.empty(shape + (core.dim_to_n(xs),), dtype=complex) if want_chi else None

    def work(start, stop):
        c, theta[start:stop], dist[start:stop], unique[start:stop] = _invert_arrays(
            *_twisted_difference(xs[start:stop, None], ys[None]), want_chi)
        if want_chi:
            chi[start:stop] = c

    _for_row_blocks(work, *shape)
    return PairTable(dist=dist, theta=theta, unique=unique, xs=xs, ys=ys, chi=chi)


@dataclass
class MidpointSet:
    """s-intermediate points of A x B with a skip count for non-unique
    (center) pairs."""

    points: np.ndarray
    skipped: int = 0


def midpoint_set(s: float, A, B, table: PairTable | None = None) -> MidpointSet:
    """Z_s(A, B) over sample clouds, in the pair table's row-major order.

    Center pairs are skipped and counted.  At s = 0 and s = 1 every pair's
    midpoint is its endpoint (x * Gamma_1(x^{-1} y) = y), so the set is the
    rows of A, resp. B, that have at least one non-center pair; in between
    it holds all |A|*|B| - skipped midpoints, duplicates included (no
    consumer depends on multiplicity: occupancy counts cells).
    """
    if table is None:
        table = pair_table(A, B, want_chi=True)
    skipped = int(table.unique.size - np.count_nonzero(table.unique))
    if s == 0.0:
        pts = table.xs[np.any(table.unique, axis=1)]
    elif s == 1.0:
        pts = table.ys[np.any(table.unique, axis=0)]
    else:
        pts = table.midpoints(s)
    return MidpointSet(points=pts, skipped=skipped)
