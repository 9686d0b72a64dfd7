"""Exact arithmetic of the Heisenberg group H^n.

A point is stored as a flat float array [xi_1, eta_1, ..., xi_n, eta_n, t]
of length 2n+1, where zeta_j = xi_j + i*eta_j.  The group product is

    (zeta, t) * (zeta', t') = (zeta + zeta', t + t' + 2 sum_j Im(zeta_j conj(zeta'_j)))

with neutral element 0, inverse (-zeta, -t), and dilations
delta_lam(zeta, t) = (lam*zeta, lam^2*t).

All functions accept arrays of shape (..., 2n+1) and broadcast; they never
mutate their inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dim_to_n",
    "origin",
    "to_complex",
    "from_complex",
    "group_mul",
    "group_inv",
    "dilate",
    "check_same_dim",
]


def dim_to_n(coords) -> int:
    """n from a coordinate array of length 2n+1."""
    d = np.shape(coords)[-1]
    if d < 3 or d % 2 == 0:
        raise ValueError(f"coordinate length must be odd and >= 3, got {d}")
    return (d - 1) // 2


def check_same_dim(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]} coordinates"
        )
    return x, y


def origin(n: int = 1) -> np.ndarray:
    return np.zeros(2 * n + 1)


def to_complex(coords) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates -> (zeta complex array of shape (..., n), t)."""
    coords = np.asarray(coords, dtype=float)
    return coords[..., 0:-1:2] + 1j * coords[..., 1:-1:2], coords[..., -1]


def from_complex(zeta, t) -> np.ndarray:
    """(zeta complex (..., n), t) -> interleaved real coordinates."""
    zeta = np.asarray(zeta, dtype=complex)
    t = np.asarray(t, dtype=float)
    n = zeta.shape[-1]
    out = np.empty(np.broadcast_shapes(zeta.shape[:-1], t.shape) + (2 * n + 1,))
    out[..., 0:-1:2] = zeta.real
    out[..., 1:-1:2] = zeta.imag
    out[..., -1] = t
    return out


def _row_sum(term, width):
    """sum_j term(j) over j < width, bit for bit np.sum(term(slice(None)), axis=-1).
    numpy adds up to 7 terms left to right from 0.0, as this column loop does
    without numpy's slow reduction along a short axis; from 8 terms on it
    groups them, and the sum is numpy's own."""
    if width >= 8:
        return np.sum(term(slice(None)), axis=-1)
    out = term(0) + 0.0
    for j in range(1, width):
        out += term(j)
    return out


def _twist(zx, zy):
    """2 sum_j Im(zeta_j conj(zeta'_j)) = 2 sum_j (eta_j xi'_j - xi_j eta'_j)
    for zeta parts given as interleaved reals (..., 2n)."""
    xi, eta, xip, etap = zx[..., 0::2], zx[..., 1::2], zy[..., 0::2], zy[..., 1::2]
    return 2.0 * _row_sum(lambda j: eta[..., j] * xip[..., j] - xi[..., j] * etap[..., j],
                          xi.shape[-1])


def group_mul(x, y) -> np.ndarray:
    """Group product x * y."""
    x, y = check_same_dim(x, y)
    out = x + y
    out[..., -1] = x[..., -1] + y[..., -1] + _twist(x[..., :-1], y[..., :-1])
    return out


def group_inv(x) -> np.ndarray:
    """Group inverse (-zeta, -t)."""
    return -np.asarray(x, dtype=float)


def dilate(lam: float, x) -> np.ndarray:
    """delta_lam(zeta, t) = (lam*zeta, lam^2*t), lam > 0."""
    if not lam > 0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    x = np.asarray(x, dtype=float)
    out = lam * x
    out[..., -1] = lam * lam * x[..., -1]
    return out
