"""Discrete optimal transport for the squared CC cost.

W_2(mu, nu) = (min_pi sum_ij pi_ij d(x_i, y_j)^2)^{1/2} over couplings pi
with the prescribed marginals.  The exact solver is a network simplex on
the bipartite transport polytope with deterministic lexicographic
tie-breaking; equal-size uniform clouds take the assignment-problem fast
path (the optimal vertex is then a permutation).  The approximate solver
is a log-domain Sinkhorn iteration with epsilon-scaling.

Displacement interpolation evaluates the plan's geodesics at time s:
mu_s = (T_s)#eta has an atom at the s-intermediate point of every
supported pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp

from . import core, geodesy
from .geodesy import NonUniqueGeodesic, PairTable
from .measures import DiscreteMeasure, VolumeEstimate, estimate_volume

__all__ = [
    "CostMatrix",
    "TransportPlan",
    "GeodesicPlan",
    "SinkhornError",
    "cost_matrix",
    "solve_exact",
    "solve_sinkhorn",
    "w2",
    "geodesic_plan",
    "interpolate",
    "interpolant_support_volume",
]

_MARGINAL_TOL = 1e-9
_PRUNE = 1e-15


class SinkhornError(RuntimeError):
    """Sinkhorn failed to reach the marginal tolerance; carries the last
    violation in .violation."""

    def __init__(self, msg, violation):
        super().__init__(msg)
        self.violation = violation


@dataclass
class CostMatrix:
    """Pairwise squared CC distances with the angles cached alongside."""

    cost: np.ndarray     # (rows, cols) d(x_i, y_j)^2
    angles: np.ndarray   # (rows, cols) |theta(x_i, y_j)|
    table: PairTable | None = None

    @property
    def rows(self) -> int:
        return self.cost.shape[0]

    @property
    def cols(self) -> int:
        return self.cost.shape[1]


def cost_matrix(src: DiscreteMeasure, tgt: DiscreteMeasure,
                want_chi: bool = False) -> CostMatrix:
    """All-pairs d^2 and angles between two clouds (deterministic)."""
    core.check_same_dim(src.points, tgt.points)
    table = geodesy.pair_table(src.points, tgt.points, want_chi=want_chi)
    return CostMatrix(cost=table.dist ** 2, angles=np.abs(table.theta), table=table)


@dataclass
class TransportPlan:
    """Sparse coupling with marginal constraints and total squared cost."""

    i: np.ndarray
    j: np.ndarray
    mass: np.ndarray
    cost: float
    method: str
    cost_regularized: float | None = None
    marginal_violation: float = 0.0

    def __len__(self):
        return len(self.mass)

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        out = np.zeros((rows, cols))
        out[self.i, self.j] = self.mass
        return out

    def row_sums(self, rows: int) -> np.ndarray:
        return np.bincount(self.i, weights=self.mass, minlength=rows)

    def col_sums(self, cols: int) -> np.ndarray:
        return np.bincount(self.j, weights=self.mass, minlength=cols)

    def to_json(self) -> dict:
        out = {
            "pairs": [[int(a), int(b), float(m)]
                      for a, b, m in zip(self.i, self.j, self.mass)],
            "cost": float(self.cost),
            "method": self.method,
        }
        if self.cost_regularized is not None:
            out["cost_regularized"] = float(self.cost_regularized)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "TransportPlan":
        pairs = np.asarray(data["pairs"], dtype=float)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 3)
        return cls(
            i=pairs[:, 0].astype(np.int64),
            j=pairs[:, 1].astype(np.int64),
            mass=pairs[:, 2],
            cost=float(data["cost"]),
            method=str(data["method"]),
            cost_regularized=data.get("cost_regularized"),
        )


def _check_weights(C: CostMatrix, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != C.rows or len(b) != C.cols:
        raise ValueError("weight vectors do not match the cost matrix")
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("weights must be positive")
    if abs(a.sum() - b.sum()) > _MARGINAL_TOL:
        raise ValueError(
            f"infeasible marginals: sums differ by {abs(a.sum() - b.sum()):.3e}"
        )
    return a, b * (a.sum() / b.sum())


# ---------------------------------------------------------------------------
# exact solver
# ---------------------------------------------------------------------------

def _northwest_corner(a, b):
    """Deterministic initial basic feasible flow (m + n - 1 arcs)."""
    m, n = len(a), len(b)
    ra, rb = a.copy(), b.copy()
    arcs, flows = [], []
    i = j = 0
    while True:
        q = min(ra[i], rb[j])
        arcs.append((i, j))
        flows.append(q)
        ra[i] -= q
        rb[j] -= q
        if i == m - 1 and j == n - 1:
            break
        # on ties advance the row only, keeping the basis a tree
        if ra[i] <= 0 and i < m - 1:
            i += 1
        else:
            j += 1
    return arcs, flows


def _tree_adjacency(arcs, m):
    adj = {}
    for k, (i, j) in enumerate(arcs):
        u, v = i, m + j
        adj.setdefault(u, []).append((v, k))
        adj.setdefault(v, []).append((u, k))
    return adj


def _potentials(arcs, cost, m, n):
    """u_i + v_j = c_ij on basic arcs, rooted at u_0 = 0."""
    adj = _tree_adjacency(arcs, m)
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    stack = [0]
    seen = {0}
    while stack:
        node = stack.pop()
        for nb, k in adj.get(node, ()):
            if nb in seen:
                continue
            seen.add(nb)
            i, j = arcs[k]
            if nb >= m:
                v[nb - m] = cost[i, j] - u[i]
            else:
                u[nb] = cost[i, j] - v[j]
            stack.append(nb)
    return u, v


def _tree_path(adj, start, goal):
    """Arc-index path between two tree nodes (BFS, deterministic)."""
    prev = {start: (None, None)}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for nb, k in adj.get(node, ()):
                if nb not in prev:
                    prev[nb] = (node, k)
                    if nb == goal:
                        path = []
                        cur = goal
                        while cur != start:
                            pn, pk = prev[cur]
                            path.append((pn, cur, pk))
                            cur = pn
                        return path[::-1]
                    nxt.append(nb)
        frontier = nxt
    raise RuntimeError("basis lost tree connectivity")


def _network_simplex(cost, a, b, max_pivots=None):
    """Exact transportation LP, lexicographic entering-arc preference.

    Dantzig pricing (most negative reduced cost, first in row-major order
    on ties) with a Bland fallback after a long degenerate stall, so the
    pivot sequence is deterministic and finite.
    """
    m, n = cost.shape
    arcs, flows = _northwest_corner(a, b)
    scale = max(1.0, float(np.max(np.abs(cost))))
    tol = 1e-11 * scale
    if max_pivots is None:
        max_pivots = 200 * (m + n) * max(m, n)
    stall = 0
    bland_after = 4 * (m + n) ** 2

    for _ in range(max_pivots):
        u, v = _potentials(arcs, cost, m, n)
        red = cost - u[:, None] - v[None, :]
        if stall < bland_after:
            e_flat = int(np.argmin(red))
            if red.flat[e_flat] >= -tol:
                break
        else:  # Bland: first improving arc in lexicographic order
            neg = np.nonzero(red.ravel() < -tol)[0]
            if len(neg) == 0:
                break
            e_flat = int(neg[0])
        ei, ej = divmod(e_flat, n)

        adj = _tree_adjacency(arcs, m)
        path = _tree_path(adj, m + ej, ei)
        # adding flow on (ei, ej): walk sink -> source; a path step from a
        # sink to its source decreases that arc, source to sink increases
        dec = []
        for frm, to, k in path:
            if frm >= m:  # sink -> source: arc (to, frm - m) loses flow
                dec.append(k)
        delta = min(flows[k] for k in dec)
        # ties break on the arc's (i, j) order, as Bland's rule requires
        leave = min((arcs[k][0] * n + arcs[k][1], k) for k in dec
                    if flows[k] == delta)[1]

        for frm, to, k in path:
            if frm >= m:
                flows[k] -= delta
            else:
                flows[k] += delta
        arcs[leave] = (ei, ej)
        flows[leave] = delta
        stall = stall + 1 if delta <= 0 else 0
    else:
        raise RuntimeError("network simplex exceeded its pivot budget")

    arcs = np.asarray(arcs, dtype=np.int64)
    flows = np.asarray(flows, dtype=float)
    keep = flows > 0
    return arcs[keep, 0], arcs[keep, 1], flows[keep]


def solve_exact(C: CostMatrix, src_weights, tgt_weights) -> TransportPlan:
    """Exact minimizer of sum pi_ij c_ij subject to the marginals.

    Equal-size uniform clouds dispatch to the assignment problem (the
    optimal basic solution is a permutation); everything else runs the
    network simplex.  Both paths are deterministic.
    """
    a, b = _check_weights(C, src_weights, tgt_weights)
    uniform = (
        len(a) == len(b)
        and np.all(a == a[0])
        and np.all(b == b[0])
        and a[0] == b[0]
    )
    if uniform:
        rows, cols = linear_sum_assignment(C.cost)
        mass = np.full(len(rows), a[0])
        i, j, mass = rows.astype(np.int64), cols.astype(np.int64), mass
    else:
        i, j, mass = _network_simplex(C.cost, a, b)
    cost = float(np.sum(mass * C.cost[i, j]))
    plan = TransportPlan(i=i, j=j, mass=mass, cost=cost, method="exact_lp")
    _assert_marginals(plan, a, b)
    return plan


def _assert_marginals(plan: TransportPlan, a, b, tol=_MARGINAL_TOL):
    ra = np.max(np.abs(plan.row_sums(len(a)) - a))
    rb = np.max(np.abs(plan.col_sums(len(b)) - b))
    plan.marginal_violation = float(max(ra, rb))
    if plan.method == "exact_lp" and plan.marginal_violation > tol:
        raise RuntimeError(f"plan violates marginals by {plan.marginal_violation:.3e}")


# ---------------------------------------------------------------------------
# Sinkhorn
# ---------------------------------------------------------------------------

def solve_sinkhorn(C: CostMatrix, src_weights, tgt_weights, epsilon: float,
                   max_iter: int = 200_000, tol: float = 1e-8) -> TransportPlan:
    """Entropic-regularized plan by log-domain scaling with eps-halving.

    Stops when the L1 marginal violation is <= tol; raises SinkhornError
    (carrying the last violation) if max_iter total iterations do not get
    there.  Entries below 1e-15 are pruned after convergence; `cost` is
    the unregularized transport cost of the returned plan and
    `cost_regularized` adds the epsilon * KL penalty.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    a, b = _check_weights(C, src_weights, tgt_weights)
    la, lb = np.log(a), np.log(b)
    cost = C.cost
    f = np.zeros(len(a))
    g = np.zeros(len(b))

    eps_levels = []
    e = max(epsilon, 0.5 * float(np.median(cost)))
    while e > epsilon * 1.0001:
        eps_levels.append(e)
        e /= 2.0
    eps_levels.append(epsilon)

    def violation(eps):
        logp = (f[:, None] + g[None, :] - cost) / eps + la[:, None] + lb[None, :]
        with np.errstate(over="ignore"):
            p = np.exp(logp)
        return max(np.abs(p.sum(axis=1) - a).sum(), np.abs(p.sum(axis=0) - b).sum()), p

    iters = 0
    p = None
    for lvl, eps in enumerate(eps_levels):
        final = lvl == len(eps_levels) - 1
        inner = max_iter - iters if final else min(200, max_iter - iters)
        for k in range(inner):
            # pi_ij = exp((f_i + g_j - c_ij)/eps + log a_i + log b_j)
            f = -eps * logsumexp((g[None, :] - cost) / eps + lb[None, :], axis=1)
            g = -eps * logsumexp((f[:, None] - cost) / eps + la[:, None], axis=0)
            iters += 1
            if k % 10 == 9 or k == inner - 1:
                viol, p = violation(eps)
                if viol <= tol:
                    break
        if iters >= max_iter:
            break

    viol, p = violation(epsilon)
    if viol > tol:
        raise SinkhornError(
            f"sinkhorn did not reach tol={tol:g} in {max_iter} iterations "
            f"(violation {viol:.3e})", viol)

    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(p > 0, p * (np.log(p / (a[:, None] * b[None, :])) - 1.0), 0.0)
    reg_cost = float(np.sum(p * cost) + epsilon * np.sum(kl))

    ii, jj = np.nonzero(p > _PRUNE)
    mass = p[ii, jj]
    plan = TransportPlan(
        i=ii.astype(np.int64), j=jj.astype(np.int64), mass=mass,
        cost=float(np.sum(mass * cost[ii, jj])),
        method=f"sinkhorn({epsilon:g})",
        cost_regularized=reg_cost,
    )
    _assert_marginals(plan, a, b, tol=max(tol, _MARGINAL_TOL))
    return plan


def w2(src: DiscreteMeasure, tgt: DiscreteMeasure, method: str = "exact",
       epsilon: float | None = None, **kw) -> float:
    """Wasserstein distance: sqrt of the (possibly regularized) optimal cost."""
    C = cost_matrix(src, tgt)
    if method == "exact":
        plan = solve_exact(C, src.weights, tgt.weights)
    elif method == "sinkhorn":
        eps = epsilon if epsilon is not None else 0.05 * float(np.median(C.cost))
        plan = solve_sinkhorn(C, src.weights, tgt.weights, eps, **kw)
    else:
        raise ValueError(f"unknown method {method!r}")
    return float(np.sqrt(max(plan.cost, 0.0)))


# ---------------------------------------------------------------------------
# displacement interpolation
# ---------------------------------------------------------------------------

@dataclass
class GeodesicPlan:
    """An optimal plan together with the geodesic data of its support, so
    that (T_s)#eta can be evaluated for any s in [0, 1]."""

    plan: TransportPlan
    source: DiscreteMeasure
    target: DiscreteMeasure
    table: PairTable

    def __post_init__(self):
        bad = ~self.table.unique[self.plan.i, self.plan.j]
        if np.any(bad):
            pairs = list(zip(self.plan.i[bad][:8].tolist(),
                             self.plan.j[bad][:8].tolist()))
            raise NonUniqueGeodesic(
                f"plan supports center pairs with non-unique geodesics: {pairs}"
            )


def geodesic_plan(src: DiscreteMeasure, tgt: DiscreteMeasure,
                  method: str = "exact", epsilon: float | None = None,
                  C: CostMatrix | None = None, **kw) -> GeodesicPlan:
    """Solve transport and keep the geodesic data for interpolation."""
    if C is None or C.table is None or C.table.chi is None:
        C = cost_matrix(src, tgt, want_chi=True)
    if method == "exact":
        plan = solve_exact(C, src.weights, tgt.weights)
    elif method == "sinkhorn":
        eps = epsilon if epsilon is not None else 0.05 * float(np.median(C.cost))
        plan = solve_sinkhorn(C, src.weights, tgt.weights, eps, **kw)
    else:
        raise ValueError(f"unknown method {method!r}")
    return GeodesicPlan(plan=plan, source=src, target=tgt, table=C.table)


def interpolate(gp: GeodesicPlan, s: float, merge_tol: float = 1e-12) -> DiscreteMeasure:
    """mu_s = (T_s)#eta: an atom of mass pi_ij at the s-intermediate point
    of each supported pair; coincident midpoints merge by weight addition.
    s = 0 and s = 1 reproduce the marginals exactly."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must be in [0, 1], got {s}")
    if s == 0.0:
        return DiscreteMeasure(gp.source.points.copy(),
                               gp.plan.row_sums(len(gp.source)))
    if s == 1.0:
        return DiscreteMeasure(gp.target.points.copy(),
                               gp.plan.col_sums(len(gp.target)))
    ii, jj = gp.plan.i, gp.plan.j
    zeta, t = geodesy._gamma_arrays(s, gp.table.chi[ii, jj], gp.table.theta[ii, jj])
    pts = core.group_mul(gp.source.points[ii], core.from_complex(zeta, t))
    keys = geodesy._merge_keys(pts, merge_tol)
    _, uniq_idx, inv = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    mass = np.bincount(inv, weights=gp.plan.mass)
    return DiscreteMeasure(pts[uniq_idx], mass / mass.sum())


def interpolant_support_volume(gp: GeodesicPlan, s: float, r: float, h: float,
                               bound) -> VolumeEstimate:
    """Occupancy-grid volume of the interpolant's point cloud: the discrete
    surrogate for Leb(spt((T_s)#eta))."""
    mu_s = interpolate(gp, s)
    return estimate_volume(mu_s.points, r, h, bound)
