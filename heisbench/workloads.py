"""The four benchmark workloads: inputs, the timed calls, the output checks.

Each workload builds its inputs from the seed (`setup`), makes the calls
into heis that one round times (`run`), and checks that round's output
(`check`).  Every check is one operation in the run's tally; a round
always attempts the same checks, so the failed share of a run does not
depend on how many rounds fit in it.  The checks test properties the
method must have or compare with a separate computation; none compares
with a stored copy of an earlier output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from heis import core, geodesy, measures, transport, verify
from heis.distortion import tau_tilde
from heis.measures import BoxRegion, CCBallRegion, DiscreteMeasure
from heis.verify import GridFunction, HypothesisViolated

S_ALL = (0.0, 0.25, 0.5, 0.75, 1.0)
S_INTERIOR = (0.25, 0.5, 0.75)
SPLIT_TOL = 1e-9
STEP_LIMIT_S = 0.5
BBL_S = 0.5
BBL_CELLS = 16
# the h grid's box holds every midpoint of two points of the unit box
BBL_H_BOX = ((-1.0, 2.0), (-1.0, 2.0), (-3.0, 4.0))


class Tally:
    """Operations attempted and failed; failures outside the known fault
    are kept, so that the run can say what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def check(self, ok, what, known_fault=False):
        """One operation per element of `ok`."""
        ok = np.atleast_1d(np.asarray(ok, dtype=bool))
        self.attempted += ok.size
        bad = int(ok.size - np.count_nonzero(ok))
        self.failed += bad
        if bad and not known_fault:
            self.unexpected.append(f"{what}: {bad} of {ok.size} failed")


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _sandwich_ok(xs, ys, dist):
    """max(|dzeta|, sqrt(pi |dt| / 2)) <= d <= |dzeta| + sqrt(pi |dt|) for
    (dzeta, dt) = x^{-1} y, elementwise and to 1e-9 relative."""
    g = core.group_mul(core.group_inv(xs), ys)
    az = np.sqrt(np.sum(g[:, :-1] ** 2, axis=1))
    at = np.abs(g[:, -1])
    lo = np.maximum(az, np.sqrt(np.pi * at / 2.0))
    hi = az + np.sqrt(np.pi * at)
    return (dist >= lo * (1 - SPLIT_TOL)) & (dist <= hi * (1 + SPLIT_TOL))


def _splitting_ok(s, x, y, z):
    """d(x, z) = s d(x, y) and d(z, y) = (1 - s) d(x, y) for matched rows,
    by the paired distance kernel."""
    d = geodesy.cc_distance_many(x, y)
    return ((np.abs(geodesy.cc_distance_many(x, z) - s * d) <= SPLIT_TOL * d)
            & (np.abs(geodesy.cc_distance_many(z, y) - (1.0 - s) * d) <= SPLIT_TOL * d))


def _cyclically_monotone(cost, i, j):
    """c_ij + c_kl <= c_il + c_kj for every two support pairs (ij), (kl)."""
    on = cost[i, j]
    cross = cost[i[:, None], j[None, :]]
    tol = 1e-12 * max(1.0, float(np.max(cost)))
    return bool(np.all(on[:, None] + on[None, :] <= cross + cross.T + tol))


def _marginals_ok(plan, a, b, tol):
    return bool(np.max(np.abs(plan.row_sums(len(a)) - a)) <= tol
                and np.max(np.abs(plan.col_sums(len(b)) - b)) <= tol)


@dataclass
class Bmi:
    """Brunn-Minkowski sweep between the unit box and its (2,0,0) offset."""

    N: int = 400
    r: float = 0.05
    h: float = 0.05
    pairs: int = 256   # subsample of (x, y) pairs for the kernel checks

    def setup(self, seed):
        return {"A": BoxRegion.unit(1), "B": BoxRegion.shifted([2.0, 0.0, 0.0]),
                "seed": seed}

    def run(self, inp):
        return verify.verify_bmi_sweep(inp["A"], inp["B"], S_ALL, N=self.N,
                                       seed=inp["seed"], r=self.r, h=self.h)

    def check(self, inp, reports, tally):
        by_s = {rep.s: rep for rep in reports}
        for s in S_INTERIOR:
            tally.check(by_s[s].holds == "holds", f"bmi verdict at s={s}")
        for s in (0.0, 1.0):
            rep = by_s[s]
            tally.check(abs(rep.margin) <= 3.0 * rep.mc_stderr, f"bmi margin at s={s}")

        seed = inp["seed"]
        A_pts = measures.sample_uniform(inp["A"], self.N, seed)
        B_pts = measures.sample_uniform(inp["B"], self.N, seed + 1)
        rng = np.random.default_rng(seed)
        x = A_pts[rng.integers(0, self.N, self.pairs)]
        y = B_pts[rng.integers(0, self.N, self.pairs)]
        table = geodesy.pair_table(x, y, want_chi=True)
        diag = np.arange(self.pairs) * (self.pairs + 1)
        tally.check(_sandwich_ok(x, y, table.dist.ravel()[diag]), "bmi distance sandwich")
        # row of pair (k, k) among the unique pairs PairTable.midpoints returns
        unique = table.unique.ravel()[diag]
        row = (np.cumsum(table.unique.ravel()) - 1)[diag]
        for s in S_INTERIOR:
            Z = table.midpoints(s)[np.where(unique, row, 0)]
            tally.check(unique & _splitting_ok(s, x, y, Z), f"bmi splitting at s={s}")


@dataclass
class Cd:
    """Entropy-inequality sweep between two unit CC balls 2.5 apart."""

    N: int = 500
    h: float = 0.1
    plan_atoms: int = 256   # size of the instance whose plan is checked

    def setup(self, seed):
        return {"A": CCBallRegion(np.zeros(3), 1.0),
                "B": CCBallRegion(np.array([2.5, 0.0, 0.0]), 1.0), "seed": seed}

    def run(self, inp):
        return verify.verify_cd_sweep(inp["A"], inp["B"], S_ALL, N=self.N,
                                      seed=inp["seed"], h=self.h)

    def check(self, inp, reports, tally):
        tally.check([rep.holds != "fails" for rep in reports], "cd verdict")
        tally.check([rep.extras["jensen"]["margin"] >= -0.05 for rep in reports],
                    "cd Jensen margin")
        # the verifier does not return its plan; the same regions and seed at
        # plan_atoms points exercise the same assignment path
        n = self.plan_atoms
        w = np.full(n, 1.0 / n)
        mu0 = DiscreteMeasure(inp["A"].sample(n, _philox(inp["seed"])), w)
        mu1 = DiscreteMeasure(inp["B"].sample(n, _philox(inp["seed"] + 1)), w)
        C = transport.cost_matrix(mu0, mu1)
        check_assignment(transport.solve_exact(C, w, w), C.cost, tally)


def check_assignment(plan, cost, tally):
    """An equal-size uniform plan is a permutation with exact marginals and
    is cyclically monotone."""
    n = cost.shape[0]
    w = np.full(n, 1.0 / n)
    perm = (np.array_equal(np.sort(plan.i), np.arange(n))
            and np.array_equal(np.sort(plan.j), np.arange(n))
            and bool(np.all(plan.mass == w[0])) and _marginals_ok(plan, w, w, 1e-12))
    tally.check(perm, "plan is a permutation with exact marginals")
    tally.check(_cyclically_monotone(cost, plan.i, plan.j), "plan cyclical monotonicity")


@dataclass
class StepLimit:
    """Step-measure limit on two-level measures on a cell-centre grid.

    The inputs do not depend on the seed: they are a fixed quadrature, and
    level values drawn from the seed would change the LP's pivot count,
    and with it the run time, from seed to seed.
    """

    shape: tuple = (8, 4, 4)
    depths: tuple = (0, 1, 2, 3, 4, 5)

    def setup(self, seed):
        axes = [(2 * np.arange(m) + 1) / (2.0 * m) for m in self.shape]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)

        def two_level(flip):
            rho = np.where((pts[:, 0] < 0.5) != flip, 4.0 / 3.0, 2.0 / 3.0)
            return DiscreteMeasure(pts, rho / rho.sum(), density=rho, density_h=None)

        return {"mu": two_level(False), "nu": two_level(True), "K": BoxRegion.unit(1)}

    def run(self, inp):
        return verify.step_limit_experiment(inp["mu"], inp["nu"], list(self.depths),
                                            STEP_LIMIT_S, K=inp["K"])

    def check(self, inp, rows, tally):
        errs = [row.w2_error for row in rows if row.depth is not None]
        tally.check(all(a >= b - 1e-12 for a, b in zip(errs, errs[1:])),
                    "step-limit W2 errors nonincreasing")
        f_exact = rows[-1].f_value
        f_last = rows[-2].f_value
        tally.check(abs(f_last - f_exact) <= 0.02 * abs(f_exact),
                    "step-limit |F(deepest) - F| / |F| <= 0.02")
        for depth in self.depths:
            sm_mu = measures.step_approximate(inp["mu"], inp["K"], depth).as_discrete()
            sm_nu = measures.step_approximate(inp["nu"], inp["K"], depth).as_discrete()
            C = transport.cost_matrix(sm_mu, sm_nu)
            plan = transport.solve_exact(C, sm_mu.weights, sm_nu.weights)
            check_lp_plan(plan, C.cost, sm_mu.weights, sm_nu.weights, tally)


def check_lp_plan(plan, cost, a, b, tally):
    """Marginals to 1e-9, cyclical monotonicity, and the cost of a separate
    HiGHS solve of the same LP to 1e-9 relative."""
    tally.check(_marginals_ok(plan, a, b, 1e-9), "LP plan marginals")
    tally.check(_cyclically_monotone(cost, plan.i, plan.j), "LP plan cyclical monotonicity")
    m, n = cost.shape
    rows = np.kron(np.eye(m), np.ones(n))
    cols = np.kron(np.ones(m), np.eye(n))
    ref = linprog(cost.ravel(), A_eq=np.vstack([rows, cols]),
                  b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs")
    tally.check(ref.status == 0 and abs(plan.cost - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun)),
                "LP plan cost against HiGHS")


# distance queries from the origin with u = t / |zeta|^2 log-spaced over
# [1e-12, 1e24], two per decade; the inversion misses the sandwich bound for
# the 13 queries with u in [1e14, 1e20] (a known fault), so those fail every run
NEAR_AXIS_U = np.logspace(-12, 24, 73)
NEAR_AXIS = np.array([[u ** -0.5, 0.0, 1.0] for u in NEAR_AXIS_U])
NEAR_AXIS_KNOWN_BAD = (NEAR_AXIS_U > 10 ** 13.9) & (NEAR_AXIS_U < 10 ** 20.1)


@dataclass
class Bbl:
    """Borell-Brascamp-Lieb on 16^3 indicator grids, independent pairing."""

    samples: int = 400
    split_checks: int = 64

    def setup(self, seed):
        unit = BoxRegion.unit(1)
        shape = (BBL_CELLS,) * 3
        c_f = tau_tilde(1, 1.0 - BBL_S, 0.0) ** 3
        c_g = tau_tilde(1, BBL_S, 0.0) ** 3
        hbox = BoxRegion(np.asarray(BBL_H_BOX))
        return {"f": GridFunction.indicator(unit, unit, shape, scale=c_f),
                "g": GridFunction.indicator(unit, unit, shape, scale=c_g),
                "h": GridFunction.indicator(hbox, hbox, shape, scale=1.0),
                "c_f": c_f, "c_g": c_g, "seed": seed}

    def run(self, inp):
        try:
            rep = verify.verify_bbl(inp["f"], inp["g"], inp["h"], s=BBL_S, p=np.inf,
                                    n_samples=self.samples, seed=inp["seed"],
                                    pairing="independent")
        except HypothesisViolated as err:
            rep = err
        origin = np.zeros(3)
        dist = np.array([geodesy.cc_distance(origin, q) for q in NEAR_AXIS])
        return rep, dist

    def check(self, inp, out, tally):
        rep, dist = out
        ok = not isinstance(rep, HypothesisViolated) and rep.holds == "holds"
        tally.check(ok, f"bbl verdict: {getattr(rep, 'holds', rep)}")
        if ok:
            tally.check(abs(rep.extras["integral_f"] - inp["c_f"]) <= 1e-12 * inp["c_f"],
                        "bbl integral of f")
            tally.check(abs(rep.extras["integral_g"] - inp["c_g"]) <= 1e-12 * inp["c_g"],
                        "bbl integral of g")
        else:
            tally.check([False, False], "bbl integrals")
        # the first triples verify_bbl samples, drawn the same way
        rng = _philox(inp["seed"])
        xs = inp["f"].support_points(self.samples, rng)[: self.split_checks]
        ys = inp["g"].support_points(self.samples, rng)[: self.split_checks]
        zs = np.array([geodesy.midpoint(BBL_S, x, y) for x, y in zip(xs, ys)])
        tally.check(_splitting_ok(BBL_S, xs, ys, zs), "bbl splitting")
        ok = _sandwich_ok(np.zeros_like(NEAR_AXIS), NEAR_AXIS, dist)
        tally.check(ok[NEAR_AXIS_KNOWN_BAD], "near-axis distance sandwich, u in [1e14, 1e20]",
                    known_fault=True)
        tally.check(ok[~NEAR_AXIS_KNOWN_BAD], "near-axis distance sandwich, other u")


WORKLOADS = {"bmi": Bmi(), "cd": Cd(), "step-limit": StepLimit(), "bbl": Bbl()}
