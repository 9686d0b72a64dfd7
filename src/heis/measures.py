"""Regions, sampling, discrete and step measures, histogram densities,
Renyi entropy, the deviation functional, and occupancy-grid volume.

Conventions used throughout:

* The reference measure is the Haar = Lebesgue measure on R^{2n+1}.
* All grids are axis-aligned with cell edge h and anchored at the origin
  (cell index = floor(coord / h)), so dilations by powers of two map grid
  cells to grid cells exactly.
* Sampling is driven by the counter-based Philox generator keyed by the
  user seed, so a draw is a pure function of (seed, stream position) and
  results do not depend on worker counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import core, distortion, geodesy

__all__ = [
    "Region",
    "BoxRegion",
    "CCBallRegion",
    "UnionRegion",
    "region_from_json",
    "DiscreteMeasure",
    "StepMeasure",
    "sample_uniform",
    "normalized_measure",
    "estimate_density",
    "renyi_entropy",
    "renyi_entropy_estimate",
    "theta_deviation",
    "step_approximate",
    "estimate_volume",
    "VolumeEstimate",
]

_MIN_ACCEPT = 1e-4
_BALL_GAUSS_NODES = 32  # Gauss-Legendre nodes of the unit CC-ball volume integral
_DISJOINT_PROBES = 512  # sample points per member in a union's overlap check
_MC_PER_CELL = 6  # stderr probes of the occupancy volume per boundary cell ...
_MAX_MC_CELLS = 1024  # ... and on at most this many boundary cells
_WIDE = 8  # the cell search bisects t-ranges of more cells (shorter: cheaper to check)
_N_BOOT = 24  # bootstrap replicates of the entropy estimate ...
_BOOT_SEED = 0  # ... and the seed of their draws


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

class Region:
    """A sampleable subset of H^n with a Lebesgue volume.

    JSON schema:
        {"kind": "box", "intervals": [[lo, hi], ...]}
        {"kind": "cc_ball", "center": [...], "radius": r}
        {"kind": "union", "members": [...]}
    """

    kind = "abstract"

    @property
    def n(self) -> int:
        raise NotImplementedError

    def contains(self, points) -> np.ndarray:
        raise NotImplementedError

    def volume(self) -> float:
        raise NotImplementedError

    def bounding_box(self) -> "BoxRegion":
        raise NotImplementedError

    def sample(self, N: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def dilated(self, lam: float) -> "Region":
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class BoxRegion(Region):
    """Product of coordinate intervals, one per axis (2n+1 of them)."""

    intervals: np.ndarray  # shape (2n+1, 2)

    kind = "box"

    def __post_init__(self):
        iv = np.asarray(self.intervals, dtype=float)
        if iv.ndim != 2 or iv.shape[1] != 2:
            raise ValueError("intervals must have shape (2n+1, 2)")
        core.dim_to_n(iv[:, 0])
        if not np.all(np.isfinite(iv)):
            raise ValueError("box intervals must be finite")
        if np.any(iv[:, 1] <= iv[:, 0]):
            raise ValueError("box intervals must be nonempty")
        object.__setattr__(self, "intervals", iv)

    @classmethod
    def unit(cls, n: int = 1) -> "BoxRegion":
        return cls(np.tile([0.0, 1.0], (2 * n + 1, 1)))

    @classmethod
    def shifted(cls, offsets) -> "BoxRegion":
        """Unit box translated coordinatewise by `offsets`, 2n+1 of them."""
        offsets = np.asarray(offsets, dtype=float)
        return cls(np.tile([0.0, 1.0], (len(offsets), 1)) + offsets[:, None])

    @property
    def n(self) -> int:
        return core.dim_to_n(self.intervals[:, 0])

    def contains(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        ok = np.all((p >= self.intervals[:, 0]) & (p <= self.intervals[:, 1]), axis=1)
        return ok

    def volume(self) -> float:
        return float(np.prod(self.intervals[:, 1] - self.intervals[:, 0]))

    def bounding_box(self) -> "BoxRegion":
        return self

    def sample(self, N, rng) -> np.ndarray:
        u = rng.random((int(N), self.intervals.shape[0]))
        lo = self.intervals[:, 0]
        return lo + u * (self.intervals[:, 1] - lo)

    def dilated(self, lam) -> "BoxRegion":
        iv = self.intervals.copy()
        iv[:-1] *= lam
        iv[-1] *= lam * lam
        return BoxRegion(iv)

    def to_json(self) -> dict:
        return {"kind": "box", "intervals": self.intervals.tolist()}


@dataclass(frozen=True)
class CCBallRegion(Region):
    """Closed CC-metric ball {y : d(center, y) <= radius}."""

    center: np.ndarray
    radius: float

    kind = "cc_ball"

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        core.dim_to_n(c)
        if not np.all(np.isfinite(c)):
            raise ValueError("ball center must be finite")
        if not 0 < self.radius < np.inf:
            raise ValueError("ball radius must be positive and finite")
        object.__setattr__(self, "center", c)

    @property
    def n(self) -> int:
        return core.dim_to_n(self.center)

    def contains(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return geodesy.cc_distance_many(np.broadcast_to(self.center, p.shape), p) <= self.radius

    def bounding_box(self) -> BoxRegion:
        # B(0, r) sits inside {|zeta| <= r, |t| <= 2 r^2 / pi}: the vertical
        # reach 2 |chi|^2 (theta - sin theta)/theta^2 peaks at theta = pi.
        # Left translation by the center shears the t-window by 2 |zeta_c| r.
        c, r = self.center, self.radius
        zc = np.sqrt(np.sum(c[:-1] ** 2))
        tw = 2.0 * r * r / np.pi + 2.0 * zc * r
        iv = np.empty((len(c), 2))
        iv[:-1, 0] = c[:-1] - r
        iv[:-1, 1] = c[:-1] + r
        iv[-1] = (c[-1] - tw, c[-1] + tw)
        return BoxRegion(iv)

    def volume(self) -> float:
        # Lebesgue measure is left-invariant and scales by lam^{2n+2} under
        # the dilation delta_lam, so Leb(B(c, r)) = r^{2n+2} Leb(B(0, 1))
        n = self.n
        return self.radius ** (2 * n + 2) * _unit_ball_volume(n)

    def sample(self, N, rng) -> np.ndarray:
        # proposals from the box of B(0, r), left-translated by the center:
        # the acceptance is that of the centred ball wherever the center is
        N = int(N)
        box = CCBallRegion(np.zeros_like(self.center), self.radius).bounding_box()
        out = np.empty((N, len(self.center)))
        got, proposed = 0, 0
        while got < N:
            k = max(4 * (N - got), 1024)
            cand = core.group_mul(self.center, box.sample(k, rng))
            ok = self.contains(cand)
            take = min(int(np.count_nonzero(ok)), N - got)
            out[got:got + take] = cand[ok][:take]
            got += take
            proposed += k
            if proposed >= 20_000 and got / proposed < _MIN_ACCEPT:
                raise ValueError("rejection acceptance below 1e-4 in the box around "
                                 "the centred ball")
        return out

    def dilated(self, lam) -> "CCBallRegion":
        return CCBallRegion(core.dilate(lam, self.center), lam * self.radius)

    def to_json(self) -> dict:
        return {"kind": "cc_ball", "center": self.center.tolist(), "radius": self.radius}


@dataclass(frozen=True)
class UnionRegion(Region):
    """Disjoint union of regions (disjointness spot-checked by sampling)."""

    members: tuple

    kind = "union"

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("union needs at least one member")
        object.__setattr__(self, "members", tuple(self.members))
        ns = {m.n for m in self.members}
        if len(ns) != 1:
            raise ValueError("union members must share n")
        self._check_disjoint()

    def _check_disjoint(self):
        rng = _rng(0xD157)
        for i, m in enumerate(self.members):
            pts = m.sample(_DISJOINT_PROBES, rng)
            for j, other in enumerate(self.members):
                if i != j and np.any(other.contains(pts)):
                    raise ValueError(f"union members {i} and {j} overlap")

    @property
    def n(self) -> int:
        return self.members[0].n

    def contains(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(p), dtype=bool)
        for m in self.members:
            out |= m.contains(p)
        return out

    def volume(self) -> float:
        return float(sum(m.volume() for m in self.members))

    def bounding_box(self) -> BoxRegion:
        boxes = [m.bounding_box().intervals for m in self.members]
        lo = np.min([b[:, 0] for b in boxes], axis=0)
        hi = np.max([b[:, 1] for b in boxes], axis=0)
        return BoxRegion(np.stack([lo, hi], axis=1))

    def sample(self, N, rng) -> np.ndarray:
        vols = np.array([m.volume() for m in self.members])
        counts = rng.multinomial(int(N), vols / vols.sum())
        parts = [m.sample(k, rng) for m, k in zip(self.members, counts) if k > 0]
        return np.concatenate(parts, axis=0)

    def dilated(self, lam) -> "UnionRegion":
        return UnionRegion(tuple(m.dilated(lam) for m in self.members))

    def to_json(self) -> dict:
        return {"kind": "union", "members": [m.to_json() for m in self.members]}


_UNIT_BALL_VOLUMES: dict[int, float] = {}


def _unit_ball_volume(n: int) -> float:
    """Leb(B(0, 1)) in H^n, once per n.  The exponential map has the
    Jacobian determinant |chi|^2 J(theta/2) / 3 (`geodesy`; the same J
    whose ratios give tau^n_s), so the volume is |S^{2n-1}| / (2n+2) times
    the integral of J(theta/2) / 3 over theta in (-2pi, 2pi).  J is entire,
    so a fixed Gauss-Legendre rule meets adaptive quadrature.
    """
    if n not in _UNIT_BALL_VOLUMES:
        x, w = np.polynomial.legendre.leggauss(_BALL_GAUSS_NODES)
        a = np.pi / 2.0 * (x + 1.0)
        integral = np.pi / 2.0 * float(np.dot(w, distortion._jacobian(n, a) / 3.0))
        sphere = 2.0 * np.pi ** n / np.prod(np.arange(1.0, n))  # |S^{2n-1}|
        _UNIT_BALL_VOLUMES[n] = float(sphere / (n + 1) * 2.0 * integral)
    return _UNIT_BALL_VOLUMES[n]


_REGION_KEYS = {"box": ("intervals",), "cc_ball": ("center", "radius"), "union": ("members",)}


def region_from_json(data: dict) -> Region:
    """The region of a JSON object (see Region); a malformed one is a
    ValueError naming the field."""
    if type(data) is not dict:
        raise ValueError(f"a region must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind not in ("box", "cc_ball", "union"):  # not the dict: a list kind is unhashable
        raise ValueError(f"unknown region kind: {kind!r}")
    for key in _REGION_KEYS[kind]:
        if key not in data:
            raise ValueError(f"{kind} region lacks {key!r}")
    if kind == "box":
        return BoxRegion(_floats(data, "intervals"))
    if kind == "cc_ball":
        if type(data["radius"]) not in (int, float):
            raise ValueError(f"ball radius must be a number, got {data['radius']!r}")
        return CCBallRegion(_floats(data, "center"), float(data["radius"]))
    if type(data["members"]) is not list or not data["members"]:
        raise ValueError(f"union members must be a non-empty list, got {data['members']!r}")
    return UnionRegion(tuple(region_from_json(m) for m in data["members"]))


def _floats(data: dict, key: str) -> np.ndarray:
    try:
        return np.asarray(data[key], dtype=float)
    except (TypeError, ValueError):  # a ragged list, or a value that is not a number
        raise ValueError(f"{data['kind']} {key} must be numbers, got {data[key]!r}") from None


# ---------------------------------------------------------------------------
# discrete and step measures
# ---------------------------------------------------------------------------

@dataclass
class DiscreteMeasure:
    """Weighted point cloud of unit total mass.

    `density` optionally holds the density of the represented measure
    against Haar measure at each point; `density_h` records the histogram
    scale it came from (None means the values are exact, e.g. the constant
    1/vol(A) of a normalized restriction).
    """

    points: np.ndarray
    weights: np.ndarray
    density: np.ndarray | None = None
    density_h: float | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights length mismatch")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        if self.density is not None:
            self.density = np.asarray(self.density, dtype=float)
            if len(self.density) != len(self.points):
                raise ValueError("density length mismatch")
            if np.any(self.density <= 0):
                raise ValueError("density values must be positive")

    @property
    def n(self) -> int:
        return core.dim_to_n(self.points[0])

    def __len__(self):
        return len(self.points)


@dataclass
class StepMeasure:
    """Finite sum of constant-density restrictions: sum_i level_i * Leb|_{A_i}."""

    regions: list
    levels: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if not (len(self.regions) == len(self.levels) == len(self.masses)):
            raise ValueError("pieces length mismatch")
        if np.any(self.levels <= 0):
            raise ValueError("levels must be positive")

    def as_discrete(self) -> DiscreteMeasure:
        """Cell-center atom surrogate carrying the exact piece densities."""
        centers = np.array([r.intervals.mean(axis=1) for r in self.regions])
        return DiscreteMeasure(centers, self.masses / self.masses.sum(),
                               density=self.levels.copy(), density_h=None)


def sample_uniform(region: Region, N: int, seed: int) -> np.ndarray:
    """N pseudo-uniform points in the region; pure function of (region, N, seed)."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if N == 0:
        return np.empty((0, 2 * region.n + 1))
    if not region.volume() > 0:
        raise ValueError("region must have positive volume")
    return region.sample(N, _rng(seed))


def normalized_measure(region: Region, N: int, seed: int) -> DiscreteMeasure:
    """Equal-weight sample of the normalized restriction Leb|_A / Leb(A),
    carrying the exact constant density 1/vol(A)."""
    pts = sample_uniform(region, N, seed)
    vol = region.volume()
    return DiscreteMeasure(
        points=pts,
        weights=np.full(N, 1.0 / N),
        density=np.full(N, 1.0 / vol),
        density_h=None,
    )


# ---------------------------------------------------------------------------
# histogram density and Renyi entropy
# ---------------------------------------------------------------------------

def _cell_index(points, h):
    return np.floor(np.asarray(points, dtype=float) / h).astype(np.int64)


def _row_labels(idx):
    """np.unique(idx, axis=0, return_index=True, return_inverse=True)[1:] of
    a 2-D array by one stable lexsort: the index of each distinct row's
    first occurrence, the distinct rows in lexicographic order, and the
    index of each row among them."""
    order = np.lexsort(idx.T[::-1])
    rows = idx[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = rows[1:, 0] != rows[:-1, 0]
    for j in range(1, rows.shape[1]):
        new[1:] |= rows[1:, j] != rows[:-1, j]
    labels = np.empty(len(rows), dtype=np.intp)
    labels[order] = np.cumsum(new) - 1
    return order[new], labels


def _cell_labels(points, h):
    """Label of each point's grid cell; equal labels mean the same cell."""
    return _row_labels(_cell_index(points, h))[1]


def _label_density(labels, weights, h, d):
    """Per-point histogram density from cell labels: (mass of the point's
    cell) / h^d.  bincount adds each cell's weights in input order."""
    return np.bincount(labels, weights=weights)[labels] / h ** d


def _histogram_density(points, weights, h):
    """Per-point histogram density: (mass of the point's cell) / h^{2n+1}."""
    return _label_density(_cell_labels(points, h), weights, h, points.shape[1])


def _entropy(weights, rho, d):
    """-sum_i w_i rho_i^{-1/d}, the entropy of a d = 2n+1 dimensional measure."""
    return float(-np.sum(weights * rho ** (-1.0 / d)))


def estimate_density(m: DiscreteMeasure, h: float) -> DiscreteMeasure:
    """Histogram density on the grid of cell edge h anchored at 0:
    rho(x) = (mass of the cell of x) / h^{2n+1}."""
    if not h > 0:
        raise ValueError("grid cell size h must be positive")
    return replace(m, density=_histogram_density(m.points, m.weights, h), density_h=h)


def renyi_entropy(m: DiscreteMeasure) -> float:
    """Ent(mu | Leb) = -integral rho^{1 - 1/(2n+1)} dLeb = -sum_i w_i rho_i^{-1/(2n+1)}."""
    if m.density is None:
        raise ValueError("measure has no density; call estimate_density first")
    return _entropy(m.weights, m.density, 2 * m.n + 1)


def renyi_entropy_estimate(m: DiscreteMeasure, h: float) -> tuple[float, float]:
    """Entropy of the underlying measure estimated from the sample.

    The plain histogram plug-in at cell count lambda = N h^{2n+1} rho has a
    downward bias of order 1/lambda, which scales as h^{-(2n+1)} between
    grids; the pair (h, 2h) extrapolates it out:

        Ent ~= (2^{2n+1} Ent(2h) - Ent(h)) / (2^{2n+1} - 1).

    Returns (value, stderr) where stderr combines a bootstrap spread with
    the full applied extrapolation step as a model-residual guard (the
    bias ratio between the two grids is only nominally 2^{2n+1}).
    """
    if not h > 0:
        raise ValueError("grid cell size h must be positive")
    d = m.points.shape[1]
    k = 2.0 ** d
    # A replicate holds copies of sample points, and a copy lies in the cell
    # of the point it copies: each grid is binned once, and a replicate
    # resamples the cell labels.
    grids = [(g, _cell_labels(m.points, g)) for g in (h, 2.0 * h)]

    def corrected(pick, weights):
        e1, e2 = (_entropy(weights, _label_density(labels[pick], weights, g, d), d)
                  for g, labels in grids)
        return (k * e2 - e1) / (k - 1.0), e1, e2

    value, e1, e2 = corrected(slice(None), m.weights)

    rng = _rng(_BOOT_SEED ^ 0xB007)
    N = len(m.points)
    w = np.full(N, 1.0 / N)
    boots = np.empty(_N_BOOT)
    for b in range(_N_BOOT):
        pick = rng.choice(N, size=N, replace=True, p=m.weights)
        boots[b], _, _ = corrected(pick, w)
    guard = abs(e2 - e1) / (k - 1.0)
    stderr = float(np.sqrt(np.var(boots) + guard * guard))
    return float(value), stderr


# ---------------------------------------------------------------------------
# deviation functional
# ---------------------------------------------------------------------------

def theta_deviation(A_pts, B_pts, table: geodesy.PairTable | None = None) -> float:
    """Discrete surrogate of the deviation Theta_{A,B}: the minimum of
    |theta(x, y)| over sampled pairs.  Sampled pairs can only see angles at
    least as large as the essential infimum, so this estimates it from
    above and refining the sample can only decrease the value."""
    A_pts = np.atleast_2d(np.asarray(A_pts, dtype=float))
    B_pts = np.atleast_2d(np.asarray(B_pts, dtype=float))
    if len(A_pts) == 0 or len(B_pts) == 0:
        raise ValueError("theta_deviation needs nonempty clouds")
    if table is None:
        table = geodesy.pair_table(A_pts, B_pts)
    return float(np.min(np.abs(table.theta)))


# ---------------------------------------------------------------------------
# step approximation
# ---------------------------------------------------------------------------

def step_approximate(m: DiscreteMeasure, K: Region, depth: int) -> StepMeasure:
    """Dyadic step-measure approximation of `m` on the bounding box of K.

    Depth counts single bisections cycling through the axes (depth d gives
    2^d boxes); level_i = mass(A_i) / vol(A_i); zero-mass cells are dropped
    and the total mass is preserved exactly.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    box = K.bounding_box().intervals
    if not np.all(K.contains(m.points)):
        raise ValueError("measure support must lie inside K")
    d = box.shape[0]
    splits = np.zeros(d, dtype=int)
    for j in range(depth):
        splits[j % d] += 1
    counts = 2 ** splits
    widths = (box[:, 1] - box[:, 0]) / counts

    rel = (m.points - box[:, 0]) / widths
    idx = np.clip(np.floor(rel).astype(np.int64), 0, counts - 1)
    first, inv = _row_labels(idx)
    cells = idx[first]
    masses = np.bincount(inv, weights=m.weights, minlength=len(cells))

    keep = masses > 0
    cells, masses = cells[keep], masses[keep]
    cell_vol = float(np.prod(widths))
    regions = []
    for c in cells:
        lo = box[:, 0] + c * widths
        regions.append(BoxRegion(np.stack([lo, lo + widths], axis=1)))
    return StepMeasure(regions=regions, levels=masses / cell_vol, masses=masses)


# ---------------------------------------------------------------------------
# occupancy-grid volume of a union of CC balls
# ---------------------------------------------------------------------------

@dataclass
class VolumeEstimate:
    volume: float
    stderr: float
    cells_occupied: int = 0
    cells_boundary: int = 0


def _encode(idx, lo, shape):
    """Keys of cells inside the grid (lo, shape) in C order, one column at a
    time: np.ravel_multi_index((idx - lo).T, shape)."""
    key = idx[:, 0] - lo[0]
    for j in range(1, idx.shape[1]):
        key = key * shape[j] + (idx[:, j] - lo[j])
    return key


def _sorted_unique(keys):
    """np.unique of 1-D int keys: a sort, then a mask of each key that
    differs from its left neighbour (numpy's unique hashes integer keys,
    which is slower)."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _sq_norm(z):
    """np.sum(z * z, axis=1), bit for bit, by `core._row_sum`."""
    return core._row_sum(lambda j: z[:, j] * z[:, j], z.shape[1])


def _in_box(idx, lo, hi):
    """np.all((idx >= lo) & (idx < hi), axis=1), one column at a time."""
    ok = (idx[:, 0] >= lo[0]) & (idx[:, 0] < hi[0])
    for j in range(1, idx.shape[1]):
        ok &= (idx[:, j] >= lo[j]) & (idx[:, j] < hi[j])
    return ok


def _t_test(t_x, twist, t_y, r):
    """The t of x^{-1} y as `geodesy._twisted_difference` forms it (twist =
    core._twist(zeta_x, zeta_y)), and `_within`'s bound pi |dt| / 2 <= r^2."""
    dt = t_y - t_x - twist
    return dt, np.pi * np.abs(dt) / 2.0 <= r * r


def _within(xs, ys, r):
    """d(x_k, y_k) <= r elementwise for matched clouds.

    With (dzeta, dt) = x_k^{-1} y_k, the bounds |dzeta| <= d,
    sqrt(pi |dt| / 2) <= d and d <= |dzeta| + sqrt(pi |dt|) settle most
    pairs; the rest take the root solve.
    """
    dz2 = _sq_norm(ys[:, :-1] - xs[:, :-1])
    out = np.zeros(len(xs), dtype=bool)
    live = np.flatnonzero(dz2 <= r * r)
    xs, ys = np.take(xs, live, axis=0), np.take(ys, live, axis=0)
    dt, near = _t_test(xs[:, -1], core._twist(xs[:, :-1], ys[:, :-1]), ys[:, -1], r)
    keep = np.flatnonzero(near)
    live, dz2, dt = live[keep], dz2[live][keep], dt[keep]
    sure = np.sqrt(dz2) + np.sqrt(np.pi * np.abs(dt)) <= r
    out[live[sure]] = True
    rest = keep[~sure]
    if len(rest):
        dzeta, _ = geodesy._twisted_difference(xs[rest], ys[rest])
        _, _, dist, _ = geodesy._invert_arrays(dzeta, dt[~sure])
        out[live[~sure]] = dist <= r
    return out


def _zeta_offsets(n, r, h, gap):
    """Integer zeta-cell offsets whose cells can lie within r of the base
    cell, and that distance: an offset's reach shrinks each component by
    `gap` cells (0.5 from a cell's center, 1 from anywhere in it)."""
    m_z = int(np.ceil(r / h)) + 1
    offsets = np.stack(np.meshgrid(*([np.arange(-m_z, m_z + 1)] * (2 * n)),
                                   indexing="ij"), axis=-1).reshape(-1, 2 * n)
    reach = np.sqrt(np.sum((np.maximum(np.abs(offsets) - gap, 0.0) * h) ** 2, axis=1))
    ok = reach <= r
    return offsets[ok], reach[ok]


def _boundary_mask(cells_idx, occupied_keys, lo, shape):
    """Occupied cells with at least one unoccupied (or off-grid) face neighbor.
    Row i of `cells_idx` is the cell of `occupied_keys[i]`; its neighbour one
    step along an axis has that key +- the axis's stride."""
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    boundary = np.zeros(len(cells_idx), dtype=bool)
    for ax, stride in enumerate(strides.tolist()):
        col = cells_idx[:, ax]
        boundary |= (col == lo[ax]) | (col == lo[ax] + shape[ax] - 1)
        for step in (-stride, stride):
            boundary |= ~_in_sorted(occupied_keys + step, occupied_keys)
    return boundary


def _in_sorted(keys, sorted_keys):
    """np.isin(keys, sorted_keys) for sorted, unique sorted_keys, in one
    binary search per key."""
    pos = np.searchsorted(sorted_keys, keys)
    hit = pos < len(sorted_keys)
    hit[hit] = sorted_keys[pos[hit]] == keys[hit]
    return hit


def _ranges_concat(starts, counts):
    """concat(arange(s, s + c) for s, c in zip(starts, counts)), vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rep = np.repeat(np.arange(len(counts)), counts)
    run0 = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total) - run0
    return rep, starts[rep] + within


@dataclass(frozen=True)
class _ShearedIndex:
    """A cloud sorted by its sheared key: the zeta-cell of each point p and
    floor(S_p / h), where S_p is the t of c_p^{-1} p and c_p = (center of
    p's zeta-cell, t = 0).  The keys of one zeta-cell are contiguous and
    ordered by k = floor(S_p / h)."""

    points: np.ndarray
    h: float
    z_lo: np.ndarray
    k_lo: int
    k_hi: int
    shape: tuple
    order: np.ndarray
    sorted_keys: np.ndarray


def _sheared_index(points, h) -> _ShearedIndex:
    zp = points[:, :-1]
    cell_p = np.floor(zp / h).astype(np.int64)
    k_p = np.floor((points[:, -1] - core._twist((cell_p + 0.5) * h, zp)) / h).astype(np.int64)
    z_lo = np.array([col.min() for col in cell_p.T])
    z_hi = np.array([col.max() for col in cell_p.T])
    k_lo, k_hi = int(k_p.min()), int(k_p.max())
    shape = tuple((z_hi - z_lo + 1).tolist()) + (k_hi - k_lo + 1,)
    keys = _encode(cell_p, z_lo, shape[:-1]) * shape[-1] + (k_p - k_lo)
    order = np.argsort(keys)  # no consumer depends on the order of ties
    return _ShearedIndex(points, h, z_lo, k_lo, k_hi, shape, order, keys[order])


def _t_range(index, first, size, groups, cz, j0, j1, r):
    """The t-ranges [j0, j1] of the sheared `groups` (starting at `first` in
    sorted order, `size` points) without the cells at either end at which
    every point of the group fails `_t_test` against a center of its column
    `cz`.  The dt of p^{-1} c that the test reads does not decrease with the
    cell, so each new end is a bisection, the upper one over -j."""
    pr, pos = _ranges_concat(first[groups], size[groups])
    xs = np.take(index.points, index.order[pos], axis=0)
    tw = core._twist(xs[:, :-1], np.take(cz, groups[pr], axis=0))
    reps = size[groups]
    starts = np.cumsum(reps) - reps
    ends = []
    for side, lo, hi in ((-1, j0, j1 + 1), (1, -j1, 1 - j0)):
        while np.any(lo < hi):
            mid = (lo + hi) // 2
            dt, near = _t_test(xs[:, -1], tw, (np.repeat(-side * mid, reps) + 0.5) * index.h, r)
            fail = np.logical_and.reduceat((side * dt > 0) & ~near, starts)
            lo, hi = np.where(fail & (lo < hi), mid + 1, lo), np.where(fail, hi, mid)
        ends.append(-side * lo)
    return ends


def _covered_cells(index, occupied, r, lo, shape):
    """Keys of the cells of the grid (lo, shape) that are not in `occupied`
    (sorted keys) and whose center lies within CC distance r of some point
    of the indexed cloud.

    Take a group of points with the same zeta-cell (center c_0) and the same
    k = floor(S_p / h).  For a zeta-offset `off`, `_within(p, c)` passes a
    center c of column c_0 + off h only if its t lies in t_p + twist(zeta_p,
    c_0 + off h) +- 2 r^2 / pi.  By bilinearity that is S_p + T +
    twist(zeta_p - c_0, off h) with T = twist(c_0, off h), and the last
    term is at most h^2 sum |off|; so for every point of the group the
    centers lie in [k h + T - e, (k + 1) h + T + e], e = 2 r^2 / pi +
    h^2 sum |off| + a rounding margin, clipped to the grid.  A column is
    skipped where the float zeta test of `_within` fails for the nearest
    corner of a zeta box around the group (its one point, or its cell), and
    so for each of its points.  A range of more than _WIDE cells is
    narrowed by `_t_range`, and each cell left that is not occupied is
    decided against every point of its group by `_within`.
    """
    h, points, order, sk = index.h, index.points, index.order, index.sorted_keys
    d = points.shape[1]
    first = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
    size = np.diff(np.r_[first, len(sk)])
    gidx = np.stack(np.unravel_index(sk[first], index.shape), axis=1)
    cell = gidx[:, :-1] + index.z_lo
    k = gidx[:, -1] + index.k_lo
    c0 = (cell + 0.5) * h
    # a group's zeta box: its one point, or its cell widened past the
    # rounding of floor(zeta / h), which spares gathering the whole cloud
    half = 0.5 * h + 1e-9 * (np.abs(c0) + h)
    z_min, z_max = c0 - half, c0 + half
    one = np.flatnonzero(size == 1)
    z_min[one] = z_max[one] = np.take(points[:, :-1], order[first[one]], axis=0)
    margin = 1e-9 * (1.0 + np.abs(k * h) + h + (np.sqrt(_sq_norm(c0)) + r + h) ** 2)
    w_t = 2.0 * r * r / np.pi
    lo_z, hi_z = lo[:-1], lo[:-1] + np.asarray(shape[:-1])
    lo_t, hi_t = lo[-1], lo[-1] + shape[-1] - 1
    # key of (column, t-cell j) = zkey + j, and a column `off` away adds a
    # fixed amount to the key of an on-grid column
    zkey = _encode(cell, lo_z, shape[:-1]) * shape[-1] - lo_t
    stride = np.cumprod(shape[:0:-1])[::-1]
    found = [np.empty(0, dtype=np.int64)]
    for off in _zeta_offsets((d - 1) // 2, r, h, 0.5)[0]:
        col = cell + off
        cz = (col + 0.5) * h
        gap = np.maximum(z_min - cz, cz - z_max)
        g = np.flatnonzero(_sq_norm(np.maximum(gap, 0.0, out=gap)) <= r * r)
        g = g[_in_box(np.take(col, g, axis=0), lo_z, hi_z)]
        T = core._twist(np.take(c0, g, axis=0), off * h)
        e = w_t + h * h * np.sum(np.abs(off)) + margin[g]
        j0 = np.maximum(k[g] + np.ceil((T - e) / h - 0.5).astype(np.int64), lo_t)
        j1 = np.minimum(k[g] + np.floor((T + e) / h + 0.5).astype(np.int64), hi_t)
        wide = np.flatnonzero(j1 - j0 > _WIDE)
        if len(wide):
            j0[wide], j1[wide] = _t_range(index, first, size, g[wide], cz, j0[wide], j1[wide], r)
        rep, js = _ranges_concat(j0, np.maximum(j1 - j0 + 1, 0))
        keys = zkey[g[rep]] + (int(np.dot(off, stride)) + js)
        free = np.flatnonzero(~_in_sorted(keys, occupied))
        grp = g[rep[free]]
        keys, js = keys[free], js[free]
        pr, pos = _ranges_concat(first[grp], size[grp])
        ctr = np.empty((len(pr), d))
        ctr[:, :-1] = np.take(cz, grp[pr], axis=0)
        ctr[:, -1] = (js[pr] + 0.5) * h
        hit = _within(np.take(points, order[pos], axis=0), ctr, r)
        found.append(keys[pr[hit]])
    return _sorted_unique(np.concatenate(found))


def _covered_queries(queries, index, r):
    """covered(q) = some point of the indexed cloud lies within CC distance
    r of q.

    For a probe q and a neighbour zeta-cell with center c, b = zeta_q - c
    and Q = t_q + 2 sum(b_eta xi_q - b_xi eta_q), the twisted t of q^{-1} p
    is exactly S_p - Q - 2 sum(b_eta dxi - b_xi deta), so every pair with
    |dzeta| <= r and pi |dt| / 2 <= r^2 has |S_p - Q| <= 2 r^2 / pi + 2 |b| r;
    a neighbour cell farther than r from zeta_q is not searched.  Rounding
    margins on both bounds make the candidates a superset of the pairs that
    pass the float tests of `_within`, which decides every candidate.
    """
    d = queries.shape[1]
    n = (d - 1) // 2
    covered = np.zeros(len(queries), dtype=bool)
    points, h, order, sorted_keys = index.points, index.h, index.order, index.sorted_keys
    z_lo, k_lo, k_hi, shape = index.z_lo, index.k_lo, index.k_hi, index.shape

    zq = np.ascontiguousarray(queries[:, :-1])
    tq = queries[:, -1]
    base = np.floor(zq / h).astype(np.int64)
    zq_abs = np.sqrt(_sq_norm(zq))
    w_t = 2.0 * r * r / np.pi
    margin = 1e-9 * (1.0 + np.abs(tq) + (zq_abs + r + h) ** 2)
    offsets, reach = _zeta_offsets(n, r, h, 1.0)
    # nearest cells first, the probe's own cell before all: most probes are
    # covered there and leave the search
    offsets = offsets[np.lexsort((_sq_norm(offsets), reach))]
    z_hi = z_lo + np.asarray(shape[:-1])
    slack = 1e-9 * (1.0 + zq_abs + r + h)
    live = np.arange(len(queries))  # the probes not yet covered
    for off in offsets:
        zl = np.take(zq, live, axis=0)
        cell = np.take(base, live, axis=0) + off
        # gap from zeta_q to the neighbour cell, per axis
        gap = np.zeros(cell.shape)
        for j, o in enumerate(off.tolist()):
            if o > 0:
                gap[:, j] = cell[:, j] * h - zl[:, j]
            elif o < 0:
                gap[:, j] = zl[:, j] - (cell[:, j] + 1) * h
        gap2 = _sq_norm(np.maximum(gap, 0.0))
        sel = np.flatnonzero(_in_box(cell, z_lo, z_hi) & (gap2 <= (r + slack[live]) ** 2))
        if len(sel) == 0:
            continue
        qi, cell, zs = live[sel], np.take(cell, sel, axis=0), np.take(zl, sel, axis=0)
        b = zs - (cell + 0.5) * h
        Q = tq[qi] + core._twist(b, zs)
        w = w_t + 2.0 * np.sqrt(_sq_norm(b)) * r + margin[qi]
        k0 = np.maximum(np.floor((Q - w) / h).astype(np.int64), k_lo)
        k1 = np.minimum(np.floor((Q + w) / h).astype(np.int64), k_hi)
        # the neighbour cell's points with k0 <= k <= k1, none where k0 > k1
        zkey = _encode(cell, z_lo, shape[:-1]) * shape[-1] - k_lo
        p0 = np.searchsorted(sorted_keys, zkey + k0, side="left")
        p1 = np.searchsorted(sorted_keys, zkey + k1, side="right")
        rep, pos = _ranges_concat(p0, np.maximum(p1 - p0, 0))
        if len(rep) == 0:
            continue
        qi = qi[rep]
        hit = _within(np.take(queries, qi, axis=0), np.take(points, order[pos], axis=0), r)
        covered[qi[hit]] = True
        live = live[~covered[live]]
        if len(live) == 0:
            break
    return covered


def _cloud_grid(points, r, h):
    """Lowest cell index and shape of an origin-anchored grid holding the
    r-thickened cloud: a point within CC distance r of p has |dzeta| <= r,
    and its t is within 2 r^2 / pi plus the twist 2 |zeta_p| r of t_p.  The
    grid covers the cloud's box padded by that reach and two cells, and one
    cell more at each end."""
    zmax = float(np.sqrt(np.max(_sq_norm(points[:, :-1]))))
    pad = np.full(points.shape[1], r + 2 * h)
    pad[-1] = 2.0 * r * r / np.pi + 2.0 * (zmax + r) * r + 2 * h
    lo = np.floor((np.array([col.min() for col in points.T]) - pad) / h).astype(np.int64) - 1
    hi = np.floor((np.array([col.max() for col in points.T]) + pad) / h).astype(np.int64) + 2
    return lo, tuple((hi - lo).tolist())


def estimate_volume(points, r: float, h: float) -> VolumeEstimate:
    """Occupancy-grid volume of the union of CC balls B(x_i, r).

    A cell counts as occupied when it contains a sample point or its center
    lies within CC distance r of one (the two notions agree in the limit
    and together keep the estimate monotone in r; r = 0 is plain cell
    occupancy).  Volume = occupied cells * h^{2n+1}.  The stderr is a
    boundary-cell uncertainty: for r > 0 the covered fraction of boundary
    cells is probed with Monte Carlo points, for r = 0 each boundary cell
    contributes half a cell of spread.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        return VolumeEstimate(0.0, 0.0)
    if not (np.isfinite(r) and np.isfinite(h) and r >= 0 and h > 0):
        raise ValueError(f"need finite r >= 0 and h > 0, got r={r}, h={h}")
    if r > 0 and h > r:
        warnings.warn("grid cell size h exceeds thickening radius r; "
                      "occupancy is under-resolved", stacklevel=2)
    core.dim_to_n(points[0])
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")

    d = points.shape[1]
    lo, shape = _cloud_grid(points, r, h)

    base_keys = _sorted_unique(_encode(_cell_index(points, h), lo, shape))
    if r > 0:
        # one sheared index serves the r-thickening and the boundary probes
        index = _sheared_index(points, h)
        covered = _covered_cells(index, base_keys, r, lo, shape)
        keys = np.sort(np.concatenate([base_keys, covered]))
    else:
        keys = base_keys

    cells_idx = np.stack(np.unravel_index(keys, shape), axis=1) + lo
    volume = len(keys) * h ** d
    boundary = _boundary_mask(cells_idx, keys, lo, shape)
    n_bnd = int(boundary.sum())

    if n_bnd == 0:
        stderr = 0.0
    elif r == 0:
        stderr = 0.5 * np.sqrt(n_bnd) * h ** d
    else:
        rng = _rng(0x0CC0)
        bidx = np.nonzero(boundary)[0]
        if len(bidx) > _MAX_MC_CELLS:
            bidx = bidx[np.linspace(0, len(bidx) - 1, _MAX_MC_CELLS).astype(int)]
        scale = n_bnd / len(bidx)
        q = (np.repeat(cells_idx[bidx], _MC_PER_CELL, axis=0)
             + rng.random((len(bidx) * _MC_PER_CELL, d))) * h
        cov = _covered_queries(q, index, r)
        f = cov.reshape(len(bidx), _MC_PER_CELL).mean(axis=1)
        stderr = float(np.sqrt(np.sum(f * (1.0 - f)) * scale) * h ** d)

    return VolumeEstimate(float(volume), float(stderr), cells_occupied=len(keys),
                          cells_boundary=n_bnd)
