"""Discrete optimal transport for the squared CC cost.

W_2(mu, nu) = (min_pi sum_ij pi_ij d(x_i, y_j)^2)^{1/2} over couplings pi
with the prescribed marginals.  The exact solver is the HiGHS dual simplex
on a shortlist of arcs, certified optimal by its duals on the full cost
matrix; equal-size uniform clouds take the assignment-problem fast path
(the optimal vertex is then a permutation).  HiGHS is called through the
core that scipy bundles (`scipy.optimize._highspy`), without presolve and
without `linprog`'s per-call Python overhead (`_highs_solve`); the plan's
masses are the unique flow on the support it certifies, a forest
(`_forest_flow`), so they do not depend on HiGHS's pivot path.  Both paths,
above 64 atoms, start from the duals of the stride-2 sub-problem,
c-transformed to the whole matrix (`_coarse_reduced`): the LP takes the
arcs cheapest in that reduced cost as its first shortlist, and the
assignment, where the rows' cheapest columns collide, solves the reduced
cost.  The duals steer
the search only: the LP is certified on the raw cost, and the reduction
shifts every permutation's cost by one constant, so both plans are exact
optima.  A cost matrix holding NaN or inf is rejected (ValueError): it
would let the LP's certificate pass unchecked.  The approximate solver is
a log-domain Sinkhorn iteration with epsilon-scaling.

Displacement interpolation evaluates the plan's geodesics at time s:
mu_s = (T_s)#eta has an atom at the s-intermediate point of every
supported pair.
"""

from __future__ import annotations

import heapq
from dataclasses import InitVar, dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.optimize._highspy._core import (HighsDebugLevel, HighsModelStatus, HighsOptions,
                                           MatrixFormat, ObjSense, _Highs, kHighsInf,
                                           simplex_constants)
from scipy.special import logsumexp

from . import geodesy
from .geodesy import NonUniqueGeodesic, PairTable
from .measures import DiscreteMeasure, _row_labels

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
]

_MARGINAL_TOL = 1e-9
_SINKHORN_TOL = 1e-8  # L1 marginal violation at which solve_sinkhorn stops
_SINKHORN_MAX_ITER = 200_000  # ... or raises SinkhornError after this many iterations
_PRUNE = 1e-15
_MERGE_TOL = 1e-12  # interpolant atoms this close merge
_SHORTLIST_K = 16  # first-LP candidate arcs per row and per column
_COLD_ROWS = 64  # exact solves up to this many atoms (LP: on the shorter side) start cold
# the tightest HiGHS accepts; at its default 1e-7 plans can miss _MARGINAL_TOL
_HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _merge_keys(points):
    """Rounded coordinates points / _MERGE_TOL as float keys: equal keys mean
    equal points within the tolerance.  Float keys cannot overflow, and -0.0
    is turned into 0.0 so that byte-wise comparisons agree with numeric ones."""
    return np.round(points / _MERGE_TOL) + 0.0


class SinkhornError(RuntimeError):
    """Sinkhorn failed to reach the marginal tolerance; carries the last
    violation in .violation."""

    def __init__(self, msg, violation):
        super().__init__(msg)
        self.violation = violation


@dataclass
class CostMatrix:
    """Pairwise squared CC distances: cost[i, j] = d(x_i, y_j)^2."""

    cost: np.ndarray     # (rows, cols)


def cost_matrix(src: DiscreteMeasure, tgt: DiscreteMeasure) -> CostMatrix:
    """All-pairs d^2 between two clouds (deterministic)."""
    return CostMatrix(cost=geodesy.pair_table(src.points, tgt.points).dist ** 2)


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


def _check_weights(C: CostMatrix, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if (len(a), len(b)) != C.cost.shape:
        raise ValueError("weight vectors do not match the cost matrix")
    if not np.isfinite(C.cost).all():
        raise ValueError("cost matrix must be finite")
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
    """Arcs (i, j) of the northwest-corner flow, a feasible plan."""
    ra, rb = a.copy(), b.copy()
    arcs = [(0, 0)]
    i = j = 0
    while (i, j) != (len(a) - 1, len(b) - 1):
        q = min(ra[i], rb[j])
        ra[i] -= q
        rb[j] -= q
        if ra[i] <= 0 and i < len(a) - 1:
            i += 1
        else:
            j += 1
        arcs.append((i, j))
    return tuple(np.asarray(arcs).T)


def _cheapest(values, k):
    """Mask of each row's k smallest entries and each column's k smallest."""
    m, n = values.shape
    mask = np.zeros((m, n), dtype=bool)
    np.put_along_axis(mask, np.argpartition(values, min(k, n) - 1, axis=1)[:, :k], True, axis=1)
    np.put_along_axis(mask, np.argpartition(values, min(k, m) - 1, axis=0)[:k], True, axis=0)
    return mask


def _lp_plan(cost, a, b):
    """Exact transportation LP: HiGHS dual simplex on a certified arc shortlist.

    Returns the plan's arcs and masses (i, j, mass) and the LP duals y (m
    row duals, then n column duals).  The shortlist starts with the
    northwest-corner arcs (so that the LP is feasible) and each row's and
    column's `_SHORTLIST_K` cheapest arcs: cheapest in the raw cost, or,
    above `_COLD_ROWS` atoms on the shorter side, in the cost reduced by
    the duals of the stride-2 sub-problem (solved the same way, its
    marginals renormalised; `_coarse_reduced`).  Each round,
    each row's and column's most negative arc outside it under the duals y,
    c_ij - y_i - y_{m+j} < -tol, joins it; when none is left, no arc of the
    full raw cost may price below -tol, which certifies the plan optimal.
    The duals only pick the first shortlist, so the certificate does not
    rest on them.  The plan's arcs are those HiGHS's x ships mass on; its
    masses are the flow on them that meets a and b (`_forest_flow`), which
    depends on those arcs and the marginals alone: another shortlist that
    ends on the same support, such as the cold path's, gives the same bits.
    """
    m, n = cost.shape
    tol = 1e-11 * max(1.0, float(np.max(np.abs(cost))))
    ranked = cost
    if min(m, n) > _COLD_ROWS:
        a_sub, b_sub = a[::2] / a[::2].sum(), b[::2] / b[::2].sum()
        ranked = _coarse_reduced(cost, lambda sub: _lp_plan(sub, a_sub, b_sub)[3][len(a_sub):])
    keep = _cheapest(ranked, _SHORTLIST_K)
    keep[_northwest_corner(a, b)] = True
    while True:
        ii, jj = np.nonzero(keep)
        x, y = _highs_solve(cost[ii, jj], np.column_stack([ii, m + jj]).ravel(),
                            np.concatenate([a, b]))
        reduced = cost - y[:m, None] - y[None, m:]
        outside = np.where(keep, np.inf, reduced)
        new = _cheapest(outside, 1) & (outside < -tol)
        if not new.any():
            break
        keep |= new
    if reduced.min() < -tol:
        raise RuntimeError(f"LP plan not certified: reduced cost {reduced.min():.3e} < -{tol:.3e}")
    ii, jj = ii[x > 0], jj[x > 0]
    return ii, jj, _forest_flow(ii, jj, a, b), y


def _highs_solve(c, rows, rhs):
    """min c.x subject to A x = rhs, x >= 0, where column k of A holds a 1
    in rows rows[2k] and rows[2k + 1]; returns x and the row duals.

    This is `linprog(method="highs-ds", options={**_HIGHS_TOLERANCES,
    "presolve": False})` without its Python wrapper: the same HiGHS core
    that scipy bundles, the same options (dual simplex, presolve off, no
    output), so the same bits.  On these LPs presolve takes most of a
    solve.  The model is passed as arrays in one call.  Raises
    RuntimeError unless HiGHS reports an optimum with finite x and duals
    (a NaN dual would pass the certificate: nan < -tol is False).
    """
    k, r = len(c), len(rhs)
    options = HighsOptions()
    for key, value in {"presolve": "off", "solver": "simplex",
                       "simplex_strategy": simplex_constants.SimplexStrategy.kSimplexStrategyDual,
                       "highs_debug_level": HighsDebugLevel.kHighsDebugLevelNone,
                       "output_flag": False, "log_to_console": False,
                       **_HIGHS_TOLERANCES}.items():
        setattr(options, key, value)
    highs = _Highs()
    highs.passOptions(options)
    highs.passModel(k, r, 2 * k, MatrixFormat.kColwise, ObjSense.kMinimize, 0.0,
                    c, np.zeros(k), np.full(k, kHighsInf), rhs, rhs,
                    np.arange(0, 2 * k + 1, 2, dtype=np.int32), rows.astype(np.int32),
                    np.ones(2 * k), np.zeros(k, dtype=np.int32))  # all columns continuous
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise RuntimeError(f"HiGHS failed on the transport LP: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x, y = np.array(solution.col_value), np.array(solution.row_dual)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise RuntimeError("HiGHS failed on the transport LP: non-finite solution")
    return x, y


def _forest_flow(i, j, a, b):
    """The masses on arcs (i, j) that meet the marginals a (rows) and b
    (columns); the arcs must form a forest, on which that flow is unique.

    Leaf elimination in a fixed node order: the highest-numbered leaf
    (rows are nodes 0..m-1, columns m..m+n-1, so columns go first) sends its
    unmet marginal along its one arc, which then leaves the graph; each
    tree's last node keeps the rounding error.  A column that is a leaf
    from the start thus gets its weight exactly.  The masses depend on the
    set of arcs and on a, b alone, not on the arcs' order.  Each node keeps
    the XOR of its remaining arcs' numbers and each arc the XOR of its two
    ends, so a leaf reads its one arc, and that arc's other end, at once.
    Raises RuntimeError if the arcs hold a cycle.
    """
    m = len(a)
    ends = np.concatenate([i, m + j])
    degree = np.bincount(ends, minlength=m + len(b)).tolist()
    link = np.zeros(m + len(b), dtype=np.int64)
    np.bitwise_xor.at(link, ends, np.tile(np.arange(len(i)), 2))
    link, pair = link.tolist(), (i ^ (m + j)).tolist()
    left = np.concatenate([a, b]).tolist()
    mass = [0.0] * len(i)
    leaves = [-k for k, d in enumerate(degree) if d == 1]  # a heap of -node
    heapq.heapify(leaves)
    while leaves:
        k = -heapq.heappop(leaves)
        if degree[k] != 1:  # its arc left with the other end
            continue
        e = link[k]
        other = pair[e] ^ k
        mass[e] = left[k]
        left[other] -= left[k]
        link[other] ^= e
        degree[k] = 0
        degree[other] -= 1
        if degree[other] == 1:
            heapq.heappush(leaves, -other)
    if any(degree):
        raise RuntimeError("LP plan support is not a forest")
    return np.array(mass)


def _coarse_reduced(cost, col_duals):
    """`cost` reduced by duals taken from its stride-2 sub-problem.

    `col_duals(sub)` returns the column duals v of an optimal solution of
    sub = cost[::2, ::2].  Their c-transform to every row, u_i =
    min_k c_{i,2k} - v_k, then to every column, v_j = min_i c_ij - u_i, is
    dual feasible on the whole matrix, so the reduced cost c_ij - u_i - v_j
    is >= 0, and it is near 0 on the arcs the coarse plan suggests.  Every
    coupling's reduced cost is its cost minus the same constant
    sum(u a) + sum(v b): the duals steer a solver's search, not its optimum.
    """
    v_sub = col_duals(cost[::2, ::2])
    u = np.min(cost[:, ::2] - v_sub[None, :], axis=1)
    v = np.min(cost - u[:, None], axis=0)
    return cost - u[:, None] - v[None, :]


def _assignment_duals(cost, cols):
    """Duals (u, v) of the optimal assignment i -> cols[i] of a square cost:
    u_i + v_j <= c_ij, with equality on the assignment.

    v is the shortest-path potential of the residual graph on the columns
    (arc cols[i] -> j of weight c_ij - c_{i,cols[i]}), found by dense
    label-correcting Bellman-Ford passes from v = 0; u follows from the
    assigned arcs.  Rounding can leave a residual cycle a few ulps
    negative, so the passes stop after 2m even if labels still move.
    """
    m = len(cols)
    assigned = cost[np.arange(m), cols]
    arcs = cost - assigned[:, None]
    v = np.zeros(m)
    for _ in range(2 * m):
        nv = np.minimum(v, np.min(v[cols][:, None] + arcs, axis=0))
        if np.array_equal(nv, v):
            break
        v = nv
    return assigned - v[cols], v


def _assignment(cost):
    """Optimal assignment (rows, cols) of a square cost: the optimum of
    `linear_sum_assignment(cost)`, the same permutation unless several tie.

    Where many rows share their cheapest column, scipy's cold start makes
    long augmenting paths.  There the duals of the stride-2 sub-problem
    (solved the same way, down to `_COLD_ROWS` rows), c-transformed to every
    row and column, reduce the cost first (`_coarse_reduced`).  Every
    permutation's reduced cost is its cost minus the same constant
    sum(u) + sum(v), so the solver's optimum is the same plan; the duals
    only shorten its search.
    """
    n = len(cost)
    if n <= _COLD_ROWS or 2 * np.unique(np.argmin(cost, axis=1)).size >= n:
        return linear_sum_assignment(cost)
    return linear_sum_assignment(_coarse_reduced(
        cost, lambda sub: _assignment_duals(sub, _assignment(sub)[1])[1]))


def solve_exact(C: CostMatrix, src_weights, tgt_weights) -> TransportPlan:
    """Exact minimizer of sum pi_ij c_ij subject to the marginals.

    Equal-size uniform clouds dispatch to the assignment problem (the
    optimal basic solution is a permutation), solved by scipy's
    `linear_sum_assignment` (`_assignment`).  Above 64 atoms, when fewer
    than half of the rows have a distinct cheapest column, it is warm
    started: the cost is reduced by c-transformed duals of the stride-2
    sub-problem.  That subtracts the same constant from every permutation's
    cost, so the optimum, and the exactness, are scipy's; every other
    input takes one cold call.  Everything else solves the LP with the
    HiGHS dual simplex on an arc shortlist whose optimality is certified on
    the full cost matrix (`_lp_plan`).  Above 64 atoms on the shorter side
    the first shortlist comes from the same c-transformed duals of the
    stride-2 sub-problem; the certificate is unchanged.  Both paths are
    deterministic.  A cost matrix holding NaN or inf raises ValueError.
    """
    a, b = _check_weights(C, src_weights, tgt_weights)
    if len(a) == len(b) and np.all(a == a[0]) and np.all(b == a[0]):
        i, j = (v.astype(np.int64) for v in _assignment(C.cost))
        mass = np.full(len(i), a[0])
    else:
        i, j, mass, _ = _lp_plan(C.cost, a, b)
    cost = float(np.sum(mass * C.cost[i, j]))
    plan = TransportPlan(i=i, j=j, mass=mass, cost=cost, method="exact_lp")
    _record_marginals(plan, a, b)
    if plan.marginal_violation > _MARGINAL_TOL:
        raise RuntimeError(f"plan violates marginals by {plan.marginal_violation:.3e}")
    return plan


def _record_marginals(plan: TransportPlan, a, b):
    """Set plan.marginal_violation, the largest marginal error of any atom."""
    ra = np.max(np.abs(plan.row_sums(len(a)) - a))
    rb = np.max(np.abs(plan.col_sums(len(b)) - b))
    plan.marginal_violation = float(max(ra, rb))


# ---------------------------------------------------------------------------
# Sinkhorn
# ---------------------------------------------------------------------------

def solve_sinkhorn(C: CostMatrix, src_weights, tgt_weights, epsilon: float) -> TransportPlan:
    """Entropic-regularized plan by log-domain scaling with eps-halving.

    Stops when the L1 marginal violation is <= _SINKHORN_TOL; raises
    SinkhornError (carrying the last violation) if _SINKHORN_MAX_ITER total
    iterations do not get there.  Entries below 1e-15 are pruned after
    convergence; `cost` is the unregularized transport cost of the returned
    plan, `cost_regularized` adds the epsilon * KL penalty, and
    `marginal_violation` is the pruned plan's largest error at one atom.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
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
        inner = _SINKHORN_MAX_ITER - iters if final else min(200, _SINKHORN_MAX_ITER - iters)
        for k in range(inner):
            # pi_ij = exp((f_i + g_j - c_ij)/eps + log a_i + log b_j)
            f = -eps * logsumexp((g[None, :] - cost) / eps + lb[None, :], axis=1)
            g = -eps * logsumexp((f[:, None] - cost) / eps + la[:, None], axis=0)
            iters += 1
            if k % 10 == 9 or k == inner - 1:
                viol, p = violation(eps)
                if viol <= _SINKHORN_TOL:
                    break
        if iters >= _SINKHORN_MAX_ITER:
            break

    viol, p = violation(epsilon)
    if viol > _SINKHORN_TOL:
        raise SinkhornError(
            f"sinkhorn did not reach tol={_SINKHORN_TOL:g} in {_SINKHORN_MAX_ITER} iterations "
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
    _record_marginals(plan, a, b)
    return plan


def w2(src: DiscreteMeasure, tgt: DiscreteMeasure) -> float:
    """Wasserstein distance: sqrt of the exact optimal cost."""
    plan = solve_exact(cost_matrix(src, tgt), src.weights, tgt.weights)
    return float(np.sqrt(max(plan.cost, 0.0)))


# ---------------------------------------------------------------------------
# displacement interpolation
# ---------------------------------------------------------------------------

@dataclass
class GeodesicPlan:
    """An optimal plan with chi[k], theta[k] of Gamma_1^{-1}(x_i^{-1} * y_j) for its k-th
    supported pair (i, j), so that (T_s)#eta can be evaluated for any s in [0, 1]."""

    plan: TransportPlan
    source: DiscreteMeasure
    target: DiscreteMeasure
    chi: np.ndarray
    theta: np.ndarray
    unique: InitVar[np.ndarray]

    def __post_init__(self, unique):  # the support's own flags: a center pair raises
        if not unique.all():
            pairs = list(zip(self.plan.i[~unique][:8].tolist(), self.plan.j[~unique][:8].tolist()))
            raise NonUniqueGeodesic(
                f"plan supports center pairs with non-unique geodesics: {pairs}")


def geodesic_plan(src: DiscreteMeasure, tgt: DiscreteMeasure,
                  table: PairTable | None = None) -> GeodesicPlan:
    """Solve exact transport and invert its support once, with the pair table's bytes
    there.  Of `table`, the pair table of src and tgt, only dist is read."""
    C = cost_matrix(src, tgt) if table is None else CostMatrix(table.dist ** 2)
    plan = solve_exact(C, src.weights, tgt.weights)
    chi, theta, _, unique = geodesy._invert_arrays(*geodesy._twisted_difference(
        src.points[plan.i], tgt.points[plan.j]), want_chi=True)
    return GeodesicPlan(plan, src, tgt, chi, theta, unique)


def interpolate(gp: GeodesicPlan, s: float) -> DiscreteMeasure:
    """mu_s = (T_s)#eta: an atom of mass pi_ij at the s-intermediate point
    of each supported pair; coincident midpoints merge by weight addition.
    s = 0 and s = 1 reproduce the marginals exactly."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must be in [0, 1], got {s}")
    if s == 0.0:
        return DiscreteMeasure(gp.source.points.copy(), gp.plan.row_sums(len(gp.source)))
    if s == 1.0:
        return DiscreteMeasure(gp.target.points.copy(), gp.plan.col_sums(len(gp.target)))
    pts = geodesy._along(s, gp.source.points[gp.plan.i], gp.chi, gp.theta)
    first, inv = _row_labels(_merge_keys(pts))
    mass = np.bincount(inv, weights=gp.plan.mass)
    return DiscreteMeasure(pts[first], mass / mass.sum())
