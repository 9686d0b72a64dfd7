"""Sub-Riemannian Heisenberg group H^n: group arithmetic, geodesics and the
CC distance, distortion coefficients, discrete optimal transport, and
numerical checks of the entropy (CD), Brunn-Minkowski, strong
Brunn-Minkowski, and Borell-Brascamp-Lieb inequalities."""

from .core import dilate, group_inv, group_mul, origin
from .distortion import p_mean, tau, tau_tilde
from .geodesy import (
    GeodesicParam,
    InversionResult,
    NonUniqueGeodesic,
    angle,
    cc_distance,
    gamma,
    gamma_inverse,
    midpoint,
    midpoint_set,
)

__version__ = "0.1.0"
