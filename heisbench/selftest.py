"""Self-test of the benchmark harness at tiny sizes; runs in seconds.

    python3 heisbench/selftest.py

Runs one checked round of each workload at tiny sizes, shows that a plan
with two targets swapped is counted as failed, and that the tracer's
spans account for the traced time and leave heis unpatched afterwards.
Exits 1 on the first expectation that does not hold.
"""

import json
import sys
import time

import run

run._import_heis()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from heis import geodesy, measures, transport, verify  # noqa: E402
from workloads import (  # noqa: E402
    NEAR_AXIS,
    NEAR_AXIS_KNOWN_BAD,
    Bbl,
    Bmi,
    Cd,
    StepLimit,
    Tally,
    check_assignment,
)

TINY = {
    "bmi": Bmi(N=80, r=0.1, h=0.1, pairs=16),
    "cd": Cd(N=80, h=0.2, plan_atoms=32),
    "step-limit": StepLimit(shape=(4, 2, 2), depths=(0, 1, 2, 3, 4)),
    "bbl": Bbl(samples=50, split_checks=8),
}


def expect(ok, what):
    if not ok:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def round_of(wl, seed):
    tally = Tally()
    inp = wl.setup(seed)
    wl.check(inp, wl.run(inp), tally)
    return tally


def main():
    for name, wl in TINY.items():
        t0 = time.perf_counter()
        tally = round_of(wl, seed=7)
        # only the near-axis queries with u in [1e14, 1e20] may fail; they
        # all do until the inversion is mended, and none after
        known = int(NEAR_AXIS_KNOWN_BAD.sum()) if name == "bbl" else 0
        expect(not tally.unexpected and tally.failed <= known,
               f"{name}: {tally.attempted} checks, {tally.failed} failed "
               f"({time.perf_counter() - t0:.1f} s) {tally.unexpected}")
        expect(round_of(wl, seed=8).attempted == tally.attempted,
               f"{name}: another seed attempts the same number of checks")

    # a deliberately wrong plan must be caught
    wl = TINY["cd"]
    inp = wl.setup(3)
    n = wl.plan_atoms
    w = np.full(n, 1.0 / n)
    mu0 = measures.DiscreteMeasure(inp["A"].sample(n, np.random.default_rng(1)), w)
    mu1 = measures.DiscreteMeasure(inp["B"].sample(n, np.random.default_rng(2)), w)
    C = transport.cost_matrix(mu0, mu1)
    plan = transport.solve_exact(C, w, w)
    tally = Tally()
    check_assignment(plan, C.cost, tally)
    expect(tally.failed == 0, "the optimal plan passes the plan checks")
    plan.j[[0, 1]] = plan.j[[1, 0]]
    tally = Tally()
    check_assignment(plan, C.cost, tally)
    expect(tally.failed == 1 and "monotonicity" in tally.unexpected[0],
           f"a plan with two targets swapped is counted as failed: {tally.unexpected}")

    tally = Tally()
    tally.check(np.ones(len(NEAR_AXIS), bool), "known", known_fault=True)
    tally.check([True, False], "other")
    expect((tally.attempted, tally.failed, len(tally.unexpected)) == (len(NEAR_AXIS) + 2, 1, 1),
           "the tally counts every element and reports failures outside the known fault")

    # tracing: spans cover the traced call and the originals come back
    originals = (geodesy.pair_table, verify.estimate_volume, measures.CCBallRegion.volume)
    tracer = tracing.Tracer()
    for name in ("bmi", "cd", "bbl"):
        wl = TINY[name]
        inp = wl.setup(5)
        tracer.install()
        t0 = time.perf_counter()
        try:
            wl.run(inp)
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        spans = tracer.take()
        busy = sum(tracing.self_times(spans))
        expect(0.0 < wall - busy < 0.05 * wall + 1e-3,
               f"{name}: span self times cover the traced wall "
               f"({busy:.3f} of {wall:.3f} s, {len(spans)} spans)")
        vals = tracing.layer_metrics(spans, 0.0)
        expect(set(vals) == set(tracing.PER_LAYER), f"{name}: every per-layer metric")
        if name == "bmi":
            expect(vals["geodesy.pair_table.pairs"] == wl.N * wl.N
                   and vals["measures.estimate_volume.calls"] == 7
                   and vals["verify.reports"] == 5,
                   "bmi: one pair table, seven volumes, five reports")
        if name == "cd":
            expect(vals["measures.region_volume.calls"] == 4
                   and vals["transport.solve_exact.calls"] == 1
                   and vals["transport.solve_exact.lp_s"] == 0.0,
                   "cd: four ball volumes and one assignment solve")
    expect(originals == (geodesy.pair_table, verify.estimate_volume,
                         measures.CCBallRegion.volume), "uninstall restores heis")

    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"]: (m["unit"], m["better"]) for m in json.load(fh)["per_layer"]}
    expect(declared == tracing.PER_LAYER, "BENCHMARK.json lists the metrics the tracer derives")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
