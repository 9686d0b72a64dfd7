"""Heisenberg distortion coefficients tau^n_s and p-means.

For s in [0,1] and theta in [0, 2pi]:

    tau^n_s(2pi)   = +inf
    tau^n_s(0)     = s^{(2n+3)/(2n+1)}
    tau^n_s(theta) = s^{1/(2n+1)}
                     * (sin(theta s/2) / sin(theta/2))^{(2n-1)/(2n+1)}
                     * (F(theta s/2) / F(theta/2))^{1/(2n+1)}
      with F(x) = sin x - x cos x,   theta in (0, 2pi).

With J(x) = (sin x / x)^{2n-1} * 3 F(x) / x^3, J(0) = 1 (the exponential
map's Jacobian determinant is |chi|^2 J(theta/2) / 3, see `geodesy`;
Balogh, Kristaly and Sipos 2018), for every theta in [0, 2pi)

    tau^n_s(theta) = s^{(2n+3)/(2n+1)} * (J(theta s/2) / J(theta/2))^{1/(2n+1)},

the form evaluated here: no power of theta s is left in sin or F to
underflow, and 3 F(x) / x^3 is summed from `geodesy._SERIES` below 0.5.
`measures` integrates the same J for the volume of a CC ball.

theta -> tau^n_s(theta) is increasing, diverges at 2pi, and is bounded
below by the theta = 0 value.  tau~^n_s = tau^n_s / s is the normalized
coefficient used by the Borell-Brascamp-Lieb inequality.
"""

from __future__ import annotations

import numpy as np

from . import geodesy

__all__ = ["tau", "tau_tilde", "p_mean"]

TWO_PI = 2.0 * np.pi


def _f_over_cube(x):
    """3 F(x) / x^3 for x >= 0: the third column of `geodesy._SERIES` below
    its cut, the closed form above."""
    return geodesy._series_or_closed(x, lambda x: np.polyval(geodesy._SERIES[:, 2], x * x),
                                     lambda x: 3.0 * (np.sin(x) - x * np.cos(x)) / x ** 3)


def _jacobian(n, x):
    """J(x) = (sin x / x)^{2n-1} 3 F(x) / x^3 for x >= 0, with J(0) = 1 and
    no power of x left to underflow."""
    return np.sinc(x / np.pi) ** (2 * n - 1) * _f_over_cube(x)


def _check_ranges(n, s, theta):
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    s = np.asarray(s, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if not np.all((s >= 0) & (s <= 1)):  # NaN fails both tests
        raise ValueError("s must lie in [0, 1]")
    if not np.all((theta >= 0) & (theta <= TWO_PI)):
        raise ValueError("theta must lie in [0, 2*pi]")
    return s, theta


def tau(n: int, s, theta):
    """Distortion coefficient tau^n_s(theta); +inf at theta = 2pi.

    Scalar in, scalar out; arrays broadcast elementwise.
    """
    s, theta = _check_ranges(n, s, theta)
    scalar = s.ndim == 0 and theta.ndim == 0
    # scalars as one-element arrays: numpy's 0-d ** can differ from its
    # array ** in the last bit, and scalar callers compare with array ones
    s, theta = np.broadcast_arrays(np.atleast_1d(s), np.atleast_1d(theta))
    e = 2 * n + 1
    half = theta / 2.0
    ratio = _jacobian(n, half * s) / _jacobian(n, half)
    out = np.where(theta >= TWO_PI, np.inf, s ** ((2 * n + 3.0) / e) * ratio ** (1.0 / e))
    return float(out[0]) if scalar else out


def tau_tilde(n: int, s, theta):
    """Normalized coefficient tau~^n_s(theta) = tau^n_s(theta) / s, s > 0."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr == 0.0):
        raise ValueError("tau_tilde is undefined at s = 0")
    return tau(n, s, theta) / s_arr if s_arr.ndim else tau(n, s, theta) / float(s_arr)


def p_mean(p: float, s: float, a, b):
    """The p-mean M_s^p(a, b) for a, b >= 0, elementwise over arrays.

        M_s^p(a, b) = ((1-s) a^p + s b^p)^{1/p}   if a*b != 0, else 0,

    with the limits p = 0 (geometric mean), +inf (max), -inf (min).
    Scalar a and b give a Python float; arrays broadcast.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.all(a >= 0) and np.all(b >= 0)):  # NaN fails it
        raise ValueError("p_mean arguments must be nonnegative")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must be in [0, 1], got {s}")
    if np.isnan(p):
        raise ValueError("p_mean exponent p must not be NaN")
    live = (a != 0.0) & (b != 0.0)
    # 1 in place of a zero argument keeps a^p finite for p < 0
    a = np.where(live, a, 1.0)
    b = np.where(live, b, 1.0)
    # float_power is the C library's pow, like Python float arithmetic;
    # numpy's vectorised ** can differ from it in the last bit
    pw = np.float_power
    if s == 0.0:
        m = a
    elif s == 1.0:
        m = b
    elif p == 0.0:
        m = pw(a, 1.0 - s) * pw(b, s)
    elif np.isposinf(p):
        m = np.maximum(a, b)
    elif np.isneginf(p):
        m = np.minimum(a, b)
    else:
        m = pw((1.0 - s) * pw(a, p) + s * pw(b, p), 1.0 / p)
    out = np.where(live, m, 0.0)
    return float(out) if out.ndim == 0 else out
