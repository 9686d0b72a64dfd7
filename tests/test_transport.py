import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from heis import core, geodesy, measures, transport
from heis.measures import BoxRegion, DiscreteMeasure, estimate_volume, normalized_measure
from heis.transport import (
    CostMatrix,
    GeodesicPlan,
    SinkhornError,
    cost_matrix,
    geodesic_plan,
    interpolate,
    solve_exact,
    solve_sinkhorn,
    w2,
)
from heis.verify import verify_cd_sweep


def cloud(rng, k, shift=0.0):
    pts = rng.random((k, 3))
    pts[:, 0] += shift
    return pts


def measure(pts, weights=None):
    w = np.full(len(pts), 1.0 / len(pts)) if weights is None else weights
    return DiscreteMeasure(pts, w)


def brute_force_assignment_cost(C):
    m = C.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(m)):
        best = min(best, sum(C[i, perm[i]] for i in range(m)) / m)
    return best


def replicated_assignment_cost(C, p, q):
    """Optimal cost for the marginals p / D, q / D (integer p, q summing to
    D), solved as an assignment between atoms repeated p_i and q_j times; it
    shares no code with the LP solver."""
    sub = C[np.ix_(np.repeat(np.arange(len(p)), p), np.repeat(np.arange(len(q)), q))]
    r, c = linear_sum_assignment(sub)
    return sub[r, c].sum() / len(r)


def composition(rng, total, parts):
    """`parts` positive integers summing to `total`."""
    cuts = np.sort(rng.choice(np.arange(1, total), parts - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [total]]))


def no_negative_cycle(cost, i, j, tol):
    """The support {(i_k, j_k)} is c-cyclically monotone iff the graph with
    arcs k -> l of weight c(i_k, j_l) - c(i_k, j_k) has no negative cycle
    (Floyd-Warshall: the diagonal ends as the cheapest cycle through k)."""
    D = cost[i[:, None], j[None, :]] - cost[i, j][:, None]
    for k in range(len(i)):
        D = np.minimum(D, D[:, k:k + 1] + D[k:k + 1, :])
    return bool(np.all(np.diag(D) >= -tol))


class TestCostMatrix:
    def test_zero_diagonal_iff_equal(self):
        rng = np.random.default_rng(0)
        pts = cloud(rng, 6)
        C = cost_matrix(measure(pts), measure(pts))
        assert np.array_equal(np.diag(C.cost), np.zeros(6))
        off = C.cost[~np.eye(6, dtype=bool)]
        assert np.all(off > 0)

    def test_single_pair(self):
        x = np.array([[0.0, 0.0, 0.0]])
        y = np.array([[1.0, 0.0, 0.0]])
        C = cost_matrix(measure(x), measure(y))
        assert C.cost[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_under_transpose(self):
        rng = np.random.default_rng(1)
        a, b = cloud(rng, 4), cloud(rng, 5)
        C1 = cost_matrix(measure(a), measure(b))
        C2 = cost_matrix(measure(b), measure(a))
        assert np.allclose(C1.cost, C2.cost.T, atol=1e-10)
        th1, th2 = geodesy.pair_table(a, b).theta, geodesy.pair_table(b, a).theta
        assert np.allclose(np.abs(th1), np.abs(th2).T, atol=1e-10)


class TestSolveExact:
    def test_single_dirac_pair(self):
        x = np.array([[0.0, 0.0, 0.0]])
        y = np.array([[2.0, 0.0, 0.0]])
        plan = solve_exact(cost_matrix(measure(x), measure(y)), [1.0], [1.0])
        assert len(plan) == 1 and plan.mass[0] == 1.0
        assert plan.cost == pytest.approx(4.0, abs=1e-9)

    def test_zero_cost_matching(self):
        C = cost_matrix(measure(np.array([[0, 0, 0], [1, 0, 0.0]])),
                        measure(np.array([[0, 0, 0], [1, 0, 0.0]])))
        plan = solve_exact(C, [0.5, 0.5], [0.5, 0.5])
        assert plan.cost == 0.0

    def test_matches_bruteforce_on_small_uniform_clouds(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            m = int(rng.integers(2, 7))
            C = cost_matrix(measure(cloud(rng, m)), measure(cloud(rng, m, shift=0.5)))
            plan = solve_exact(C, np.full(m, 1.0 / m), np.full(m, 1.0 / m))
            want = brute_force_assignment_cost(C.cost)
            assert np.round(plan.cost, 12) == np.round(want, 12)

    def test_lp_matches_linprog(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            C = rng.random((m, n))
            a = rng.random(m) + 0.1
            a /= a.sum()
            b = rng.random(n) + 0.1
            b /= b.sum()
            cm = cost_matrix(measure(cloud(rng, m)), measure(cloud(rng, n)))
            cm.cost = C  # exercise the LP on arbitrary costs
            plan = solve_exact(cm, a, b)
            A_eq = np.zeros((m + n, m * n))
            for i in range(m):
                A_eq[i, i * n:(i + 1) * n] = 1
            for j in range(n):
                A_eq[m + j, j::n] = 1
            res = linprog(C.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                          method="highs")
            assert plan.cost == pytest.approx(res.fun, abs=1e-9)

    def test_cost_matches_replicated_assignment(self):
        # rational marginals with denominator D <= 12, m != n allowed, and
        # half the instances with costs in {0, 1, 2} (heavily tied, degenerate)
        rng = np.random.default_rng(22)
        for trial in range(60):
            D = int(rng.integers(3, 13))
            p = composition(rng, D, int(rng.integers(1, D + 1)))
            q = composition(rng, D, int(rng.integers(1, D + 1)))
            if trial % 2:
                C = rng.integers(0, 3, (len(p), len(q))).astype(float)
            else:
                C = rng.random((len(p), len(q)))
            plan = solve_exact(CostMatrix(C), p / D, q / D)
            assert abs(plan.cost - replicated_assignment_cost(C, p, q)) <= 1e-12

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    def test_plan_properties(self, m, n, seed, tied):
        rng = np.random.default_rng(seed)
        C = rng.integers(0, 4, (m, n)).astype(float) if tied else rng.random((m, n))
        a = rng.random(m) + 0.05
        b = rng.random(n) + 0.05
        a /= a.sum()
        b /= b.sum()
        plan = solve_exact(CostMatrix(C), a, b)
        assert len(plan) <= m + n - 1
        assert np.max(np.abs(plan.row_sums(m) - a)) <= 1e-9
        assert np.max(np.abs(plan.col_sums(n) - b)) <= 1e-9
        # each arc of a cycle may price down to the certificate tolerance
        assert no_negative_cycle(C, plan.i, plan.j, (m + n) * 1e-11 * max(1.0, C.max()))

    def test_second_shortlist_round_certified(self, monkeypatch):
        # c_ij = (i + 1)(j + 1): every row's cheapest columns and every
        # column's cheapest rows are the first ones, and the northwest corner
        # is the costliest plan, while the optimum runs along the antidiagonal
        m, n = 48, 40
        C = np.outer(np.arange(1.0, m + 1), np.arange(1.0, n + 1))
        rng = np.random.default_rng(23)
        p = rng.integers(1, 3, m)
        q = composition(rng, int(p.sum()), n)
        solves = []

        def recording_solve(*args, solve=transport._highs_solve):
            solves.append(solve(*args))
            return solves[-1]

        monkeypatch.setattr(transport, "_highs_solve", recording_solve)
        plan = solve_exact(CostMatrix(C), p / p.sum(), q / p.sum())
        assert len(solves) >= 2
        y = solves[-1][1]
        assert np.min(C - y[:m, None] - y[None, m:]) >= -1e-11 * np.max(C)
        assert abs(plan.cost - replicated_assignment_cost(C, p, q)) <= 1e-12 * np.max(C)

    def test_highs_failure_raises(self, monkeypatch):
        class Capped(transport._Highs):
            # with presolve off and no simplex iteration allowed, HiGHS stops short
            def passOptions(self, options):
                options.presolve = "off"
                options.simplex_iteration_limit = 0
                return super().passOptions(options)

        C = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        monkeypatch.setattr(transport, "_Highs", Capped)
        with pytest.raises(RuntimeError, match="HiGHS failed .*: Iteration limit reached"):
            solve_exact(CostMatrix(C), [0.2, 0.3, 0.5], [0.6, 0.4])

    def test_uncertified_duals_raise(self, monkeypatch):
        # raising y_0 by 1 prices row 0's basic arcs at -1; on a matrix this
        # small every arc is shortlisted already, so no round can repair it
        C = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])

        def shifted_duals(*args, solve=transport._highs_solve):
            x, y = solve(*args)
            y[0] += 1.0
            return x, y

        monkeypatch.setattr(transport, "_highs_solve", shifted_duals)
        with pytest.raises(RuntimeError, match="not certified"):
            solve_exact(CostMatrix(C), [0.2, 0.3, 0.5], [0.6, 0.4])

    def test_deterministic_across_calls_and_workers(self, monkeypatch):
        # 1024-pair chunks split the 60 x 45 pair table between two workers
        monkeypatch.setattr(geodesy, "_CHUNK", 1 << 10)
        rng = np.random.default_rng(24)
        wa, wb = rng.random(60) + 0.5, rng.random(45) + 0.5
        src = measure(cloud(rng, 60), wa / wa.sum())
        tgt = measure(cloud(rng, 45, shift=0.5), wb / wb.sum())
        plans, default = [], geodesy._max_workers
        for workers in (1, 1, 2):
            geodesy.set_max_workers(workers)
            try:
                plans.append(solve_exact(cost_matrix(src, tgt), src.weights, tgt.weights))
            finally:
                geodesy.set_max_workers(default)
        for plan in plans[1:]:
            for field in ("i", "j", "mass"):
                assert getattr(plan, field).tobytes() == getattr(plans[0], field).tobytes()

    def test_support_size_bound(self):
        rng = np.random.default_rng(4)
        m, n = 8, 5
        a = rng.random(m) + 0.1
        a /= a.sum()
        b = rng.random(n) + 0.1
        b /= b.sum()
        plan = solve_exact(cost_matrix(measure(cloud(rng, m)), measure(cloud(rng, n))), a, b)
        assert len(plan) <= m + n - 1

    def test_marginals_exact(self):
        rng = np.random.default_rng(5)
        m, n = 10, 7
        a = rng.random(m) + 0.1
        a /= a.sum()
        b = rng.random(n) + 0.1
        b /= b.sum()
        plan = solve_exact(cost_matrix(measure(cloud(rng, m)), measure(cloud(rng, n))), a, b)
        assert np.max(np.abs(plan.row_sums(m) - a)) <= 1e-9
        assert np.max(np.abs(plan.col_sums(n) - b)) <= 1e-9

    def test_beats_random_feasible_plans(self):
        rng = np.random.default_rng(6)
        m = 12
        C = cost_matrix(measure(cloud(rng, m)), measure(cloud(rng, m, shift=1.0)))
        w = np.full(m, 1.0 / m)
        plan = solve_exact(C, w, w)
        for _ in range(100):
            perm = rng.permutation(m)
            rand_cost = C.cost[np.arange(m), perm].sum() / m
            assert plan.cost <= rand_cost + 1e-12

    def test_infeasible_marginals_rejected(self):
        rng = np.random.default_rng(7)
        C = cost_matrix(measure(cloud(rng, 3)), measure(cloud(rng, 3)))
        with pytest.raises(ValueError):
            solve_exact(C, [0.5, 0.3, 0.2], [0.5, 0.3, 0.3])

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        pts_a, pts_b = cloud(rng, 9), cloud(rng, 9)
        C1 = cost_matrix(measure(pts_a), measure(pts_b))
        C2 = cost_matrix(measure(pts_a), measure(pts_b))
        w = np.full(9, 1.0 / 9)
        p1, p2 = solve_exact(C1, w, w), solve_exact(C2, w, w)
        assert np.array_equal(p1.i, p2.i) and np.array_equal(p1.j, p2.j)
        assert p1.cost == p2.cost

    def test_plan_json_roundtrip(self):
        rng = np.random.default_rng(9)
        C = cost_matrix(measure(cloud(rng, 3)), measure(cloud(rng, 3)))
        w = np.full(3, 1.0 / 3)
        plan = solve_exact(C, w, w)
        back = json.loads(json.dumps(plan.to_json()))
        assert list(back) == ["pairs", "cost", "method"]
        assert back["pairs"] == [[int(a), int(b), float(m)]
                                 for a, b, m in zip(plan.i, plan.j, plan.mass)]
        assert back["cost"] == plan.cost and back["method"] == "exact_lp"


def box_clouds(n, seed, kind, far=0.0, atoms=0, m=None):
    """Two clouds in unit boxes of H^1, of m (default n) and n points:
    `identical` boxes, or the target 2 apart along x1 (`offset`); both
    translated by `far` along x1 and x2 (|zeta| up to about 1.4 far).
    With atoms > 0 each cloud repeats `atoms` distinct points (exact ties)."""
    rng = np.random.default_rng(seed)

    def draw(k):
        pts = rng.random((atoms or k, 3))
        return pts[rng.integers(0, atoms, k)] if atoms else pts

    src, tgt = draw(n if m is None else m), draw(n)
    if kind == "offset":
        tgt[:, 0] += 2.0
    src[:, :2] += far
    tgt[:, :2] += far
    return measure(src), measure(tgt)


@pytest.fixture
def lsa_sizes(monkeypatch):
    """Sizes of the `linear_sum_assignment` calls transport makes."""
    sizes = []

    def counting(cost, lsa=transport.linear_sum_assignment):
        sizes.append(len(cost))
        return lsa(cost)

    monkeypatch.setattr(transport, "linear_sum_assignment", counting)
    return sizes


class TestWarmAssignment:
    """`_assignment` against scipy's cold `linear_sum_assignment`."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 300), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["identical", "offset"]),
           st.sampled_from([0.0, 1.0, 30.0, 700.0]), st.booleans())
    @example(1, 0, "offset", 0.0, False)
    @example(2, 0, "offset", 0.0, False)
    @example(65, 1, "offset", 0.0, False)
    @example(131, 2, "offset", 700.0, False)
    @example(200, 3, "offset", 0.0, True)
    def test_matches_cold_solve(self, n, seed, kind, far, tied):
        mu, nu = box_clouds(n, seed, kind, far, atoms=max(1, n // 3) if tied else 0)
        cost = cost_matrix(mu, nu).cost
        rows, cols = transport._assignment(cost)
        want_rows, want_cols = linear_sum_assignment(cost)
        assert np.array_equal(rows, want_rows)
        if tied:
            # duplicated atoms tie several permutations; only the cost is unique
            got, want = cost[rows, cols].sum(), cost[want_rows, want_cols].sum()
            assert abs(got - want) <= 1e-12 * want
        else:
            assert np.array_equal(cols, want_cols)

    def test_cd_sweep_in_h2_matches_cold_solve(self, monkeypatch, lsa_sizes):
        from heis.verify import verify_cd_sweep

        A, B = BoxRegion.unit(2), BoxRegion.shifted([2.0, 0, 0, 0, 0])

        def sweep():
            reps = verify_cd_sweep(A, B, [0.0, 0.5, 1.0], N=140, seed=5, h=0.25)
            return [rep.to_json() for rep in reps]

        warm = sweep()
        assert lsa_sizes == [35, 70, 140]  # the warm branch ran, two levels deep
        monkeypatch.setattr(transport, "_assignment", linear_sum_assignment)
        assert warm == sweep()

    def test_duals_feasible_and_tight(self):
        rng = np.random.default_rng(40)
        mu, nu = box_clouds(90, 41, "offset")
        tied = rng.random((7, 30))[rng.integers(0, 7, 30)]  # repeated rows
        for cost in (cost_matrix(mu, nu).cost, tied, 1e3 * rng.random((50, 50))):
            _, cols = linear_sum_assignment(cost)
            u, v = transport._assignment_duals(cost, cols)
            tol = 1e-12 * np.max(np.abs(cost))
            assert np.all(u[:, None] + v[None, :] <= cost + tol)
            assert np.all(np.abs(u + v[cols] - cost[np.arange(len(cols)), cols]) <= tol)

    @pytest.mark.parametrize("m", [2, 40])
    def test_duals_stop_at_the_pass_cap(self, monkeypatch, m):
        # an assignment one ulp above the optimum, as rounding can leave it:
        # its residual graph has a cycle of weight -1 ulp, so labels keep
        # falling and only the 2m-pass cap ends the passes
        rng = np.random.default_rng(m)
        cost = 1.0 + rng.random((m, m))
        np.fill_diagonal(cost, 0.0)
        cols = np.arange(m)
        cost[0, 0] = cost[1, 1] = cost[0, 1] = 1.0
        cost[1, 0] = np.nextafter(1.0, 0.0)
        passes = []

        def counting(x, y, equal=np.array_equal):
            passes.append(1)
            return equal(x, y)

        monkeypatch.setattr(np, "array_equal", counting)
        u, v = transport._assignment_duals(cost, cols)
        assert len(passes) == 2 * m
        tol = 1e-12 * np.max(cost)
        assert np.all(u[:, None] + v[None, :] <= cost + tol)
        assert np.all(np.abs(u + v[cols] - cost[np.arange(m), cols]) <= tol)

    def test_gate(self, lsa_sizes):
        # identical boxes: 61 % of the rows have a distinct cheapest column
        for kind, want in (("identical", [200]), ("offset", [50, 100, 200])):
            lsa_sizes.clear()
            transport._assignment(cost_matrix(*box_clouds(200, 7, kind)).cost)
            assert lsa_sizes == want



def two_level_grid(shape, flip):
    """The step-limit marginals: a grid on the unit box of H^1 with density
    4/3 on one half along x1 and 2/3 on the other."""
    axes = [(2 * np.arange(k) + 1) / (2.0 * k) for k in shape]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    rho = np.where((pts[:, 0] < 0.5) != flip, 4.0 / 3.0, 2.0 / 3.0)
    return DiscreteMeasure(pts, rho / rho.sum(), density=rho, density_h=None)


@pytest.fixture
def lp_rhs(monkeypatch):
    """The right-hand side (row then column marginals) of each LP transport solves."""
    calls = []

    def recording(c, rows, rhs, solve=transport._highs_solve):
        calls.append(rhs)
        return solve(c, rows, rhs)

    monkeypatch.setattr(transport, "_highs_solve", recording)
    return calls


class TestWarmLp:
    """`_lp_plan` above `_COLD_ROWS` against its cold path."""

    @settings(deadline=None, max_examples=10)
    @given(st.integers(65, 200), st.integers(65, 200), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["tied", "identical", "offset", "far"]))
    @example(70, 400, 0, "offset")
    @example(400, 70, 1, "tied")
    @example(65, 65, 2, "far")
    def test_matches_cold_path(self, m, n, seed, kind):
        if kind == "tied":
            cost = np.random.default_rng(seed).integers(0, 4, (m, n)).astype(float)
        else:
            mu, nu = box_clouds(n, seed, "identical" if kind == "identical" else "offset",
                                far=30.0 if kind == "far" else 0.0, m=m)
            cost = cost_matrix(mu, nu).cost
        rng = np.random.default_rng(seed + 1)
        a, b = rng.random(m) + 0.05, rng.random(n) + 0.05
        a /= a.sum()
        b *= a.sum() / b.sum()
        i, j, mass, y = transport._lp_plan(cost, a, b)
        with mock.patch.object(transport, "_COLD_ROWS", 10 ** 9):
            ci, cj, cmass, _ = transport._lp_plan(cost, a, b)
        want = np.sum(cmass * cost[ci, cj])
        assert abs(np.sum(mass * cost[i, j]) - want) <= 1e-12 * max(1.0, want)
        assert np.max(np.abs(np.bincount(i, weights=mass, minlength=m) - a)) <= 1e-9
        assert np.max(np.abs(np.bincount(j, weights=mass, minlength=n) - b)) <= 1e-9
        tol = 1e-11 * max(1.0, np.max(cost))
        assert np.min(cost - y[:m, None] - y[None, m:]) >= -tol

    def test_stride_two_sub_problem_is_solved(self, lp_rhs):
        m, n = 140, 130
        mu, nu = box_clouds(n, 50, "offset", m=m)
        rng = np.random.default_rng(51)
        a, b = rng.random(m) + 0.1, rng.random(n) + 0.1
        a /= a.sum()
        b /= b.sum()
        solve_exact(cost_matrix(mu, nu), a, b)
        sizes = [len(rhs) for rhs in lp_rhs]
        # 140 x 130 -> 70 x 65 -> 35 x 33 (cold), each level's rounds in turn
        assert sorted(set(sizes), key=sizes.index) == [35 + 33, 70 + 65, 140 + 130]
        b = b * (a.sum() / b.sum())  # as solve_exact matches the sums
        sub = next(rhs for rhs in lp_rhs if len(rhs) == 70 + 65)
        assert np.array_equal(sub, np.concatenate([a[::2] / a[::2].sum(), b[::2] / b[::2].sum()]))

    @pytest.mark.parametrize("shape", [(8, 4, 4), (8, 8, 8)], ids=["bench", "c13"])
    def test_step_limit_bits_match_cold_path(self, monkeypatch, shape):
        from heis.verify import step_limit_experiment

        calls = []

        def counting(cost, col_duals, reduce=transport._coarse_reduced):
            calls.append(cost.shape)
            return reduce(cost, col_duals)

        def run():
            rows = step_limit_experiment(two_level_grid(shape, False), two_level_grid(shape, True),
                                         [0, 1, 2, 3, 4, 5], 0.5, K=BoxRegion.unit(1))
            return [(row.depth, row.w2_error, row.f_value) for row in rows]

        monkeypatch.setattr(transport, "_coarse_reduced", counting)
        warm = run()
        assert (int(np.prod(shape)),) * 2 in calls  # the warm branch ran
        monkeypatch.setattr(transport, "_coarse_reduced", lambda cost, col_duals: cost)
        assert warm == run()


class TestHighsSolve:
    """`_highs_solve` against the `linprog` call it replaces."""

    @pytest.mark.parametrize("shape", [(2, 2), (7, 5), (5, 13), (40, 33)],
                             ids=["2x2", "7x5", "5x13", "40x33"])
    @pytest.mark.parametrize("kind", ["random", "tied", "northwest"])
    def test_bits_match_linprog(self, kind, shape):
        # fails loudly if a scipy upgrade changes the bundled HiGHS core
        m, n = shape
        rng = np.random.default_rng(m * n)
        cost = rng.integers(0, 4, shape).astype(float) if kind == "tied" else rng.random(shape)
        a, b = rng.random(m) + 0.05, rng.random(n) + 0.05
        a /= a.sum()
        b *= a.sum() / b.sum()
        keep = np.zeros(shape, dtype=bool) if kind == "northwest" else transport._cheapest(cost, 2)
        keep[transport._northwest_corner(a, b)] = True
        ii, jj = np.nonzero(keep)
        rows, rhs = np.column_stack([ii, m + jj]).ravel(), np.concatenate([a, b])
        x, y = transport._highs_solve(cost[ii, jj], rows, rhs)
        A_eq = sparse.csc_array((np.ones(len(rows)), rows, np.arange(0, len(rows) + 1, 2)),
                                shape=(m + n, len(ii)))
        res = linprog(cost[ii, jj], A_eq=A_eq, b_eq=rhs, bounds=(0, None), method="highs-ds",
                      options={**transport._HIGHS_TOLERANCES, "presolve": False})
        assert res.status == 0
        assert np.array_equal(x, res.x)
        assert np.array_equal(y, res.eqlin.marginals)

    def test_unequal_sums_raise_infeasible(self):
        # row sums 1, column sums 1.2: no coupling exists
        C = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(RuntimeError, match="HiGHS failed .*: Infeasible"):
            transport._lp_plan(C, np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.6]))

    @pytest.mark.parametrize("field", ["col_value", "row_dual"])
    def test_non_finite_solution_raises(self, monkeypatch, field):
        class NanSolution(transport._Highs):
            def getSolution(self):
                solution = super().getSolution()
                values = getattr(solution, field)
                setattr(solution, field, [np.nan] + list(values[1:]))
                return solution

        C = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        monkeypatch.setattr(transport, "_Highs", NanSolution)
        with pytest.raises(RuntimeError, match="HiGHS failed .*: non-finite"):
            solve_exact(CostMatrix(C), [0.2, 0.3, 0.5], [0.6, 0.4])


def shortlist_lp(m, n, seed, tied, k):
    """A shortlist LP as `_lp_plan` builds it: random non-uniform marginals
    (the column sums matched to the row sums), random or tied integer costs,
    and each row's and column's k cheapest arcs with the northwest corner."""
    rng = np.random.default_rng(seed)
    cost = rng.integers(0, 4, (m, n)).astype(float) if tied else rng.random((m, n))
    a, b = rng.random(m) + 0.05, rng.random(n) + 0.05
    a /= a.sum()
    b *= a.sum() / b.sum()
    keep = transport._cheapest(cost, k)
    keep[transport._northwest_corner(a, b)] = True
    return cost, a, b, keep


def support_of(cost, a, b, ii, jj):
    """HiGHS's solution on arcs (ii, jj): the arcs it ships mass on, that
    mass and the duals."""
    m = len(a)
    x, y = transport._highs_solve(cost[ii, jj], np.column_stack([ii, m + jj]).ravel(),
                                  np.concatenate([a, b]))
    return ii[x > 0], jj[x > 0], x[x > 0], y


class TestForestFlow:
    """`_forest_flow`, the masses `_lp_plan` puts on HiGHS's support."""

    @settings(deadline=None, max_examples=80)
    @given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2 ** 32 - 1),
           st.booleans(), st.integers(1, 4))
    @example(48, 40, 23, True, 16)
    def test_meets_marginals_and_matches_highs(self, m, n, seed, tied, k):
        cost, a, b, keep = shortlist_lp(m, n, seed, tied, k)
        i, j, x, _ = support_of(cost, a, b, *np.nonzero(keep))
        mass = transport._forest_flow(i, j, a, b)
        assert np.max(np.abs(np.bincount(i, weights=mass, minlength=m) - a)) <= 1e-15
        assert np.max(np.abs(np.bincount(j, weights=mass, minlength=n) - b)) <= 1e-15
        assert np.max(np.abs(mass - x)) <= 1e-15

    @settings(deadline=None, max_examples=80)
    @given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2 ** 32 - 1),
           st.booleans(), st.integers(1, 4))
    def test_bits_depend_on_the_support_alone(self, m, n, seed, tied, k):
        # a longer shortlist, in another order, ends on the same support by
        # another pivot path: the warm and cold paths of `_lp_plan`
        cost, a, b, keep = shortlist_lp(m, n, seed, tied, k)
        i, j, _, y = support_of(cost, a, b, *np.nonzero(keep))
        mass = transport._forest_flow(i, j, a, b)
        rng = np.random.default_rng(seed + 1)
        order = rng.permutation(len(i))
        assert transport._forest_flow(i[order], j[order], a, b).tobytes() == mass[order].tobytes()
        # arcs pricing above 0 under y leave the optimal face unchanged
        priced = cost - y[:m, None] - y[None, m:] > 1e-6
        extra = ~keep & priced & (rng.random((m, n)) < 0.5)
        ii, jj = np.nonzero(keep | extra)
        order = rng.permutation(len(ii))
        i2, j2, _, _ = support_of(cost, a, b, ii[order], jj[order])
        if not tied:  # random costs have one optimal vertex
            assert sorted(zip(i2, j2)) == sorted(zip(i, j))
        if sorted(zip(i2, j2)) == sorted(zip(i, j)):
            by_arc = dict(zip(zip(i2, j2), transport._forest_flow(i2, j2, a, b)))
            assert np.array([by_arc[arc] for arc in zip(i, j)]).tobytes() == mass.tobytes()

    def test_lp_plan_masses_are_the_support_flow(self):
        cost, a, b, _ = shortlist_lp(30, 20, 5, False, 4)
        i, j, mass, _ = transport._lp_plan(cost, a, b)
        assert mass.tobytes() == transport._forest_flow(i, j, a, b).tobytes()

    @pytest.mark.parametrize("i, j", [([0, 0, 1, 1], [0, 1, 0, 1]),
                                      ([0, 1, 1, 2, 2, 0, 3], [0, 0, 1, 1, 2, 2, 3])],
                             ids=["square", "hexagon-and-arc"])
    def test_cycle_raises(self, i, j):
        m, n = max(i) + 1, max(j) + 1
        with pytest.raises(RuntimeError, match="not a forest"):
            transport._forest_flow(np.array(i), np.array(j), np.full(m, 1 / m), np.full(n, 1 / n))

    def test_cyclic_support_from_highs_raises(self, monkeypatch):
        # the 2 x 2 LP with every arc at mass 1/4: its support is a cycle
        def cyclic(c, rows, rhs, solve=transport._highs_solve):
            x, y = solve(c, rows, rhs)
            return np.full(len(c), 0.25), y

        monkeypatch.setattr(transport, "_highs_solve", cyclic)
        with pytest.raises(RuntimeError, match="not a forest"):
            solve_exact(CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])), [0.4, 0.6], [0.5, 0.5])


class TestNonFiniteCost:
    @pytest.mark.parametrize("path", ["assignment", "lp"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "inf_row", "nan_row"])
    def test_rejected_on_both_paths(self, bad, path):
        C = cost_matrix(*box_clouds(200, 8, "offset"))
        if bad in ("nan", "inf"):
            C.cost[3, 5] = float(bad)
        else:
            C.cost[3, :] = float(bad[:3])
        a = b = np.full(200, 1.0 / 200)
        if path == "lp":
            rng = np.random.default_rng(52)
            a, b = rng.random(200) + 0.1, rng.random(200) + 0.1
            a, b = a / a.sum(), b / b.sum()
        with pytest.raises(ValueError, match="cost matrix must be finite"):
            solve_exact(C, a, b)

    def test_one_infinite_arc_is_not_certified_vacuously(self):
        # one infinite arc would make the LP's certificate tolerance
        # infinite, so any feasible plan would pass as exact
        mu, nu = box_clouds(50, 0, "offset", m=60)
        C = cost_matrix(mu, nu)
        C.cost[7, np.argmax(C.cost[7])] = np.inf
        rng = np.random.default_rng(1)
        a, b = rng.random(60) + 0.1, rng.random(50) + 0.1
        with pytest.raises(ValueError, match="cost matrix must be finite"):
            solve_exact(C, a / a.sum(), b / b.sum())


class TestSinkhorn:
    def test_small_eps_close_to_exact(self):
        rng = np.random.default_rng(10)
        C = cost_matrix(measure(cloud(rng, 2)), measure(cloud(rng, 2, shift=1.0)))
        w = np.array([0.5, 0.5])
        exact = solve_exact(C, w, w)
        approx = solve_sinkhorn(C, w, w, epsilon=1e-3 * float(np.median(C.cost)))
        dense_a, dense_e = np.zeros((2, 2)), np.zeros((2, 2))
        dense_a[approx.i, approx.j] = approx.mass
        dense_e[exact.i, exact.j] = exact.mass
        tv = np.abs(dense_a - dense_e).sum()
        assert tv <= 1e-3

    def test_identity_cost_to_zero(self):
        rng = np.random.default_rng(11)
        pts = cloud(rng, 5)
        C = cost_matrix(measure(pts), measure(pts))
        w = np.full(5, 0.2)
        plan = solve_sinkhorn(C, w, w, epsilon=1e-4)
        assert plan.cost <= 1e-3

    def test_marginal_violation_below_tol(self, monkeypatch):
        monkeypatch.setattr(transport, "_SINKHORN_TOL", 1e-9)
        rng = np.random.default_rng(12)
        C = cost_matrix(measure(cloud(rng, 8)), measure(cloud(rng, 8, shift=0.5)))
        w = np.full(8, 1.0 / 8)
        plan = solve_sinkhorn(C, w, w, epsilon=0.05)
        assert plan.marginal_violation <= 2e-9

    def test_nonconvergence_raises_with_violation(self, monkeypatch):
        monkeypatch.setattr(transport, "_SINKHORN_MAX_ITER", 5)
        monkeypatch.setattr(transport, "_SINKHORN_TOL", 1e-12)
        rng = np.random.default_rng(13)
        C = cost_matrix(measure(cloud(rng, 6)), measure(cloud(rng, 6, shift=2.0)))
        w = np.full(6, 1.0 / 6)
        with pytest.raises(SinkhornError) as ei:
            solve_sinkhorn(C, w, w, epsilon=1e-4)
        assert ei.value.violation > 0

    @pytest.mark.parametrize("epsilon", [np.inf, np.nan, 0.0, -1.0])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        C = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            solve_sinkhorn(C, [0.5, 0.5], [0.5, 0.5], epsilon)

    def test_regularized_cost_reported(self):
        rng = np.random.default_rng(14)
        C = cost_matrix(measure(cloud(rng, 4)), measure(cloud(rng, 4, shift=1.0)))
        w = np.full(4, 0.25)
        plan = solve_sinkhorn(C, w, w, epsilon=0.05)
        assert plan.cost_regularized is not None
        assert plan.method.startswith("sinkhorn")


class TestW2:
    def test_identity(self):
        rng = np.random.default_rng(15)
        m = measure(cloud(rng, 6))
        assert w2(m, m) == 0.0

    def test_dirac_pair_distance(self):
        x = measure(np.array([[0.0, 0.0, 0.0]]))
        y = measure(np.array([[0.0, 0.0, 1.0]]))
        assert w2(x, y) == pytest.approx(np.sqrt(np.pi), abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            ma = measure(cloud(rng, 10))
            mb = measure(cloud(rng, 10, shift=0.7))
            mc = measure(cloud(rng, 10, shift=1.4))
            assert w2(ma, mc) <= w2(ma, mb) + w2(mb, mc) + 1e-9


class TestDedup:
    """The merge keys of `interpolate`: equal keys, byte for byte, exactly
    for points within the tolerance; atoms with equal keys merge."""

    @staticmethod
    def merged(pts):
        keys = transport._merge_keys(pts)
        _, first = np.unique(keys, axis=0, return_index=True)
        return pts[np.sort(first)]

    def test_large_coordinates_stay_distinct(self):
        pts = np.array([1e7, 0.0, 0.0, 2e7, 0.0, 0.0, 3e7, 1.0, 0.0]).reshape(3, 3)
        assert np.array_equal(self.merged(pts), pts)

    def test_merges_within_tol_and_signed_zero(self):
        pts = np.array([1.0, -0.0, 0.0, 1.0 + 1e-14, 0.0, -1e-14]).reshape(2, 3)
        assert np.array_equal(self.merged(pts), pts[:1])
        keys = transport._merge_keys(pts)
        assert keys[0].tobytes() == keys[1].tobytes()

    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.sampled_from([1, 3, 5]))
    def test_row_labels_merge_as_numpy_unique(self, seed, rows, d):
        # the grouping interpolate uses gives np.unique's first indices and
        # labels on merge keys: negative and signed-zero coordinates,
        # repeats, near-repeats within the tolerance, far coordinates
        rng = np.random.default_rng(seed)
        values = np.array([0.0, -0.0, 1e-14, -1e-14, 0.5, -0.5, 0.5 + 3e-13, 1e7, -2e7])
        pts = rng.choice(values, (rows, d)) + rng.choice([0.0, 1.0], (rows, d)) * rng.normal(size=(rows, d))
        pts = pts[rng.integers(0, rows, rows)]
        keys = transport._merge_keys(pts)
        first, labels = measures._row_labels(keys)
        _, want_first, want_labels = np.unique(keys, axis=0, return_index=True,
                                               return_inverse=True)
        assert np.array_equal(first, want_first)
        assert np.array_equal(labels, want_labels.ravel())


@st.composite
def supports_with_repeats(draw):
    """Clouds A and B in H^n, n = 1 or 2, with repeated atoms, 3 apart in
    xi_1 (so no pair of them is a center pair).  Each ends with two copies
    of a far point, x0 in A and y0 = x0 + e_1 in B; an optimal plan matches
    those copies, whose midpoints coincide.  Both clouds may be translated
    on the left by 1e7 e_1, which keeps every distance and puts xi_1 near
    1e7 (and t near -2e7 eta_1)."""
    n = draw(st.integers(1, 2))
    d = 2 * n + 1

    def repeats(shift):
        k = draw(st.integers(1, 4))
        base = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k * d,
                                      max_size=k * d))).reshape(k, d)
        pts = base[draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=8))]
        pts[:, 0] += shift
        return pts

    far = np.zeros((2, d))
    A = np.vstack([repeats(0.0), far + 50.0 * np.eye(d)[0]])
    B = np.vstack([repeats(3.0), far + 51.0 * np.eye(d)[0]])
    g = draw(st.sampled_from([0.0, 1e7])) * np.eye(d)[0]
    return core.group_mul(g, A), core.group_mul(g, B)


class TestInterpolation:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(17)
        src = measure(cloud(rng, 8))
        tgt = measure(cloud(rng, 8, shift=1.0))
        gp = geodesic_plan(src, tgt)
        m0 = interpolate(gp, 0.0)
        m1 = interpolate(gp, 1.0)
        assert np.array_equal(m0.points, src.points)
        assert np.array_equal(m1.points, tgt.points)
        assert np.allclose(m0.weights, src.weights, atol=1e-12)

    def test_dirac_midpoint(self):
        src = measure(np.array([[0.0, 0.0, 0.0]]))
        tgt = measure(np.array([[2.0, 0.0, 0.0]]))
        gp = geodesic_plan(src, tgt)
        mid = interpolate(gp, 0.5)
        assert np.allclose(mid.points, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_distinct_far_atoms_not_merged(self):
        # midpoints (1.1e7, 0, 0) and (2.1e7, 0, 0): rounded keys past 9.2e6 / tol
        # must not collide
        src = measure(np.array([[1e7, 0.0, 0.0], [2e7, 0.0, 0.0]]))
        tgt = measure(np.array([[1.2e7, 0.0, 0.0], [2.2e7, 0.0, 0.0]]))
        mid = interpolate(geodesic_plan(src, tgt), 0.5)
        assert np.array_equal(mid.points, [[1.1e7, 0.0, 0.0], [2.1e7, 0.0, 0.0]])
        assert np.array_equal(mid.weights, [0.5, 0.5])

    @settings(deadline=None, max_examples=60)
    @given(supports_with_repeats(), st.floats(0.1, 4.0), st.integers(0, 2 ** 32))
    def test_plan_holds_its_supports_geodesics(self, clouds, c, seed):
        A, B = clouds
        n = core.dim_to_n(A)
        src, tgt = measure(A), measure(B)
        full = geodesy.pair_table(A, B, want_chi=True)
        with mock.patch.object(geodesy, "pair_table", wraps=geodesy.pair_table) as built:
            gps = [geodesic_plan(src, tgt, table) for table in (geodesy.pair_table(A, B), full)]
            assert built.call_count == 1  # the chi-less table above: a given one is not rebuilt
            gps.append(geodesic_plan(src, tgt))
        assert built.call_count == 2 and not built.call_args.kwargs.get("want_chi")

        # no table, a chi-less one and one with chi give the same bytes
        ii, jj = gps[0].plan.i, gps[0].plan.j
        for gp in gps:
            for got, want in ((gp.plan.i, ii), (gp.plan.j, jj), (gp.plan.mass, gps[0].plan.mass),
                              (gp.chi, full.chi[ii, jj]), (gp.theta, full.theta[ii, jj])):
                assert got.tobytes() == want.tobytes()
        for s in (0.25, 0.5):
            # the interpolant is the np.unique merge of the table's midpoints on
            # the support; the two far copies of x0 and y0 merge
            pts = geodesy._along(s, A[ii], full.chi[ii, jj], full.theta[ii, jj])
            _, first, inv = np.unique(transport._merge_keys(pts), axis=0,
                                      return_index=True, return_inverse=True)
            mass = np.bincount(inv.ravel(), weights=gps[0].plan.mass)
            assert len(first) < len(pts)
            for gp in gps:
                got = interpolate(gp, s)
                assert got.points.tobytes() == pts[first].tobytes()
                assert got.weights.tobytes() == (mass / mass.sum()).tobytes()

        # a center pair on the support still raises, with any table
        x = A[:1]
        y = x.copy()
        y[0, -1] += c
        for table in (None, geodesy.pair_table(x, y), geodesy.pair_table(x, y, want_chi=True)):
            with pytest.raises(geodesy.NonUniqueGeodesic):
                geodesic_plan(measure(x), measure(y), table)

        # CD reads its plan's geodesics, not a table's chi
        d = 2 * n + 1
        with mock.patch.object(geodesy, "pair_table", wraps=geodesy.pair_table) as built:
            reports = verify_cd_sweep(BoxRegion.unit(n), BoxRegion.shifted([1.5] + [0.0] * (d - 1)),
                                      [0.5], N=8, seed=seed, h=0.5)
        assert built.call_count >= 1 and len(reports) == 1
        for call in built.call_args_list:
            assert len(call.args) == 2 and not call.kwargs.get("want_chi")

    def test_center_pair_rejected(self):
        src = measure(np.array([[0.0, 0.0, 0.0]]))
        tgt = measure(np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(geodesy.NonUniqueGeodesic):
            geodesic_plan(src, tgt)

    def test_wasserstein_geodesic_property(self):
        rng = np.random.default_rng(18)
        src = measure(cloud(rng, 32))
        tgt = measure(cloud(rng, 32, shift=1.5))
        gp = geodesic_plan(src, tgt)
        w01 = np.sqrt(gp.plan.cost)
        for s in (0.25, 0.5, 0.75):
            mu_s = interpolate(gp, s)
            assert abs(w2(src, mu_s) - s * w01) <= 1e-6 * w01
            assert abs(w2(mu_s, tgt) - (1 - s) * w01) <= 1e-6 * w01

    def test_interpolant_in_midpoint_set(self):
        rng = np.random.default_rng(19)
        A, B = cloud(rng, 5), cloud(rng, 5, shift=1.0)
        gp = geodesic_plan(measure(A), measure(B))
        mu_s = interpolate(gp, 0.4)
        ms = geodesy.midpoint_set(0.4, A, B)
        for p in mu_s.points:
            d = np.min(np.linalg.norm(ms.points - p, axis=1))
            assert d <= 1e-9

    def test_support_volume_monotone_in_r(self):
        rng = np.random.default_rng(20)
        src = measure(cloud(rng, 20))
        tgt = measure(cloud(rng, 20, shift=0.5))
        gp = geodesic_plan(src, tgt)
        vols = [estimate_volume(interpolate(gp, 0.5).points, r, 0.1).volume
                for r in (0.0, 0.1)]
        assert vols[0] <= vols[1]

    def test_singleton_support_volume(self):
        src = measure(np.array([[0.5, 0.5, 0.5]]))
        tgt = measure(np.array([[0.6, 0.5, 0.5]]))
        gp = geodesic_plan(src, tgt)
        est = estimate_volume(interpolate(gp, 0.5).points, 0.0, 0.1)
        assert est.volume == pytest.approx(0.1 ** 3)
