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

on (-2pi, 2pi).  Below theta = pi (|u| <= pi/2, u = t/|zeta|^2) the root
is read from a table of theta(u) / u, one polynomial of degree 5 per
interval of u, built at import from roots polished in long double; it is
good to about 2 ulp and takes no iteration.  Above, the root is carried
as eps = 2pi - theta, which theta cannot hold to full precision: it
starts from a tabulated log eps, good to about 1.6e-6 relative, and
takes two Newton steps, and |chi| and the phase of chi come from eps as
well.  The relative residual of m at the root is at most 1e-12 for every
u off the center branch, i.e. |u| <= CENTER_TOL^-2.  Points on the
center (zeta = 0, t != 0) sit on the non-unique theta = +-2pi family with
|chi| = sqrt(pi |t|).

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
    as polynomials in theta^2: no cancellation, no underflow near 0."""
    w = theta * theta
    sn = np.polyval(_SERIES[:, 0], w)
    cs = np.polyval(_SERIES[:, 1], w)
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


# Below theta = pi (|u| <= pi/2) theta comes from one table of theta(u) / u,
# which is even in u because m is odd.  Interval k, |u / _U_STEP - k| <= 1/2,
# holds one polynomial of degree _THETA_DEGREE in z = u / _U_STEP - k, and a
# power-of-two step makes z exact.  theta / u rather than theta keeps the
# full relative precision as u -> 0, and theta(0) = 0 exactly.
_U_STEP = 2.0 ** -8
_THETA_DEGREE = 5
_THETA_LAST = round(np.pi / 2.0 / _U_STEP)  # the interval that holds u = pi/2


def _m_long(theta):
    """m in long double for 0 < theta <= 3.2: (x - sin x) / x^3 by its
    Taylor series to 16 terms, whose terms cancel by at most a factor 3
    there, over 2 sin^2(x/2).  Where the platform's long double is wider than
    double, it carries m's rounding error well below double precision."""
    theta = np.asarray(theta, dtype=np.longdouble)
    k = np.arange(16, dtype=np.longdouble)
    coef = -np.cumprod(-1.0 / ((2.0 * k + 2.0) * (2.0 * k + 3.0)))  # (-1)^k / (2k+3)!
    w = theta * theta
    s = np.sin(0.5 * theta)
    return theta * w * np.polyval(coef[::-1], w) / (2.0 * s * s)


def _theta_table():
    """Coefficients in z of theta(u) / u: one row per power of z, highest
    first, and one column per interval 0.._THETA_LAST.  Each polynomial
    interpolates its interval's Chebyshev nodes, in long double.  The
    roots there take two Newton steps in double from a linear start and a
    third with m in long double; the interpolant comes from the nodes by
    the discrete cosine sums of its Chebyshev coefficients, also in long
    double, and is rounded to double only at the end."""
    n = _THETA_DEGREE + 1
    ang = (np.arange(n) + 0.5) * (np.arccos(np.longdouble(-1.0)) / n)
    u = np.abs(np.arange(_THETA_LAST + 1)[:, None] + 0.5 * np.cos(ang)) * _U_STEP
    u_double = u.astype(float)
    grid = np.linspace(0.0, 3.2, 4097)  # past pi: the last interval reaches past u = pi/2
    th = np.interp(u_double, _m(grid), grid)
    for _ in range(2):
        m, dm = _series_or_closed(th, _m_series, _m_direct)
        th = th - (m - u_double) / dm
    y = (th - (_m_long(th) - u) / dm) / u
    # Chebyshev coefficients in x = 2z, and T_j(2z) in powers of z by
    # T_{j+1}(2z) = 4z T_j(2z) - T_{j-1}(2z)
    cheb = y @ np.cos(np.outer(ang, np.arange(n))) / (0.5 * n)  # 2 / n would round
    cheb[:, 0] *= 0.5
    powers = np.zeros((n, n))
    powers[0, 0], powers[1, 1] = 1.0, 2.0
    for j in range(1, n - 1):
        powers[j + 1, 1:] = 4.0 * powers[j, :-1]
        powers[j + 1] -= powers[j - 1]
    return (cheb @ powers)[:, ::-1].T.astype(float, order="C")


_THETA_TABLE = _theta_table()

# Start table above theta = pi: log eps with eps = 2pi - theta on a uniform
# grid of log u, out to _U_ASYMPTOTE, past which eps ~ sqrt(4 pi / u) is good
# to a relative eps^2 / 24 < 1e-8.  A uniform grid gives the interval by
# arithmetic, not by a search.
_TABLE_STEPS = 2048
_LOG_U0 = np.log(np.pi / 2.0)
_U_ASYMPTOTE = 1e8
_LOG_U_STEP = (np.log(_U_ASYMPTOTE) - _LOG_U0) / _TABLE_STEPS


def _log_eps_start():
    """(values, steps) of the start table, resampled from a forward table of
    log m twice as fine."""
    # eps from pi down past sqrt(4 pi / _U_ASYMPTOTE), so that u covers the table
    log_eps = np.linspace(np.log(np.pi), 0.5 * np.log(4.0 * np.pi / _U_ASYMPTOTE) - 1.0,
                          2 * _TABLE_STEPS + 1)
    num, d, _ = _m_eps_terms(np.exp(log_eps))
    y = np.interp(_LOG_U0 + _LOG_U_STEP * np.arange(_TABLE_STEPS + 1), np.log(num / d), log_eps)
    return y, np.append(np.diff(y), 0.0)


_LOG_EPS_START = _log_eps_start()


def _interp_start(x, table):
    """Linear interpolation in a start table at fractional grid index x >= 0
    (constant past the last node)."""
    y, dy = table
    i = np.minimum(x.astype(np.intp), _TABLE_STEPS)
    return y[i] + (x - i) * dy[i]


def _solve_below_pi(u):
    """theta in [0, pi] with m(theta) = u, for 0 <= u <= pi/2 (NaN gives
    NaN), from the table: no iteration."""
    z = u * (1.0 / _U_STEP)
    i = np.fmin(z + 0.5, _THETA_LAST).astype(np.intp)  # fmin: NaN takes the last row
    z -= i  # exact, by the power-of-two step
    theta = _THETA_TABLE[0].take(i)
    for coef in _THETA_TABLE[1:]:
        theta *= z
        theta += coef.take(i)
    theta *= u
    return theta


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

    Returns (theta, sin(theta/2), cos(theta/2)).  Below theta = pi
    (|u| <= pi/2) theta is read from the polynomial table of theta / u,
    good to about 2 ulp, with no iteration.  Above, the iterate is
    eps = 2pi - theta: it starts from a tabulated log eps, good to about
    1.6e-6 relative, and takes two Newton steps on log m, and the
    half-angle sine and cosine come from eps, which theta cannot hold to
    full precision as theta -> 2pi.  Unless every element lies above pi,
    every element takes the table and only those above pi are gathered for
    the Newton steps.  Contract:
    the relative residual of m at the returned root is at most 1e-12 for
    every |u| <= CENTER_TOL^-2 (the largest u off the center branch); the
    result is a pure function of |u| and sign(u).
    """
    u = np.asarray(u, dtype=float)
    au = np.abs(u).reshape(-1)  # flat, for the integer indices of the elements above pi
    above = np.flatnonzero(au > np.pi / 2.0)
    if above.size == au.size:  # as in a one-point call near the axis: no table
        theta, s, c = _solve_above_pi(au)
    else:
        theta = _solve_below_pi(np.minimum(au, np.pi / 2.0))
        s = 0.5 * theta
        c = np.cos(s)
        np.sin(s, out=s)
        if above.size:
            theta[above], s[above], c[above] = _solve_above_pi(au[above])
    neg = (u < 0).reshape(-1)
    np.negative(theta, out=theta, where=neg)
    np.negative(s, out=s, where=neg)
    return tuple(a.reshape(u.shape) for a in (theta, s, c))


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
    az2 = core._row_sum(lambda j: zeta.real[..., j] ** 2 + zeta.imag[..., j] ** 2, zeta.shape[-1])
    az = np.sqrt(az2)
    # below the smallest normal float the sum of squares has lost bits to
    # underflow, or all of them for |zeta| < 1.5e-162: such rows take |zeta|
    # by hypot, and u below divides by |zeta| twice, not by its square
    low = az2 < np.finfo(float).tiny
    underflow = low.any()
    if underflow:
        az[low] = np.hypot.reduce(np.abs(zeta[low]), axis=-1)
    at = np.abs(t)
    on_center = az < CENTER_TOL * np.sqrt(at)
    generic = ~(on_center | ((az == 0.0) & (t == 0.0)))
    # gather and scatter only when some entry is not generic
    every = generic.all()
    zeta_g, t_g, az_g = (zeta, t, az) if every else (zeta[generic], t[generic], az[generic])
    num, den = t_g, az_g * az_g
    if underflow:  # where |zeta|^2 underflows, u = t / |zeta| / |zeta|
        lo = low if every else low[generic]
        num = np.where(lo, t_g / az_g / az_g, t_g)
        den[lo] = 1.0
    th, s, c = _solve_theta(num / den)
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
