"""Run one heis benchmark workload and print its metrics.

    python3 heisbench/run.py --workload bmi --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; heis is imported from its `src/`.  The
run repeats whole rounds of the workload until `--seconds` have passed
(at least one round; two with `--trace 1`) and checks each round's
output.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.

Times are taken at the reference speed.  A shared machine's speed moves
by up to 2x over seconds to minutes, so a fixed loop that runs no heis code
(`reference_seconds`) is timed just before and just after every timed
interval, and the machine's speed factor is REF_NOMINAL_S over the
geometric mean of those two times.  A round's time is multiplied by that
factor: rounds slow in step with the loop.  A set-up time is multiplied by
the factor raised to SETUP_SPEED_EXPONENT, as set-up slows less.  The
result is what the interval takes when the loop takes REF_NOMINAL_S.

--trace 0 reports the end-to-end metrics:
  wall_s       median over the rounds of the time spent in the round's
               calls into heis (the checks that follow are not timed), at
               the reference speed
  setup_s      median over five child processes of the time from spawning
               one to its exit, at the reference speed; each imports heis
               and builds the inputs
  peak_rss_mb  peak resident memory of this process

--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of BENCHMARK.json: medians over the traced rounds, with times at
the reference speed.  The tracing overhead is the median traced round
minus the median untraced one, both timed as for wall_s.  The run also
writes the spans as JSONL and the layer metrics as JSON to heisbench/out/.
"""

import os
import sys

# one thread everywhere, before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# what `reference_seconds` takes when the 2-vCPU machine of the README's
# reference figures runs at its full speed
REF_NOMINAL_S = 0.025
# set-up (starting Python, loading numpy, scipy and heis) slows about 0.7
# times as much as the reference loop, in log terms
SETUP_SPEED_EXPONENT = 0.7


def reference_seconds():
    """Time a fixed loop that mixes the kinds of work heis does: interpreted
    float arithmetic, small numpy calls, and sorts and ufuncs on long arrays."""
    import numpy as np

    v = np.array([0.3, -0.2, 0.7])
    bulk = np.linspace(0.0, 1.0, 50_000)[::-1].copy()
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(100_000):
        acc += math.sqrt(i + 0.5)
    for _ in range(5_000):
        np.sqrt(np.dot(v, v))
        np.arctan2(v[0], v[1])
    for _ in range(10):
        np.sort(np.sin(bulk))
    return time.perf_counter() - t0


def timed(fn):
    """Run fn(); return its output, its time, and the factor that scales
    that time to the reference speed (REF_NOMINAL_S over the loop's time)."""
    before = reference_seconds()
    t0 = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - t0
    after = reference_seconds()
    return out, seconds, REF_NOMINAL_S / math.sqrt(before * after)


def _import_heis():
    """heis from this checkout's src/, never from elsewhere on the path."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import heis
    if Path(heis.__file__).resolve().parent != ROOT / "src" / "heis":
        raise SystemExit(f"heis imported from {heis.__file__}, not from {ROOT / 'src'}")
    from heis import geodesy
    geodesy.set_max_workers(1)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["bmi", "cd", "step-limit", "bbl"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import heis, build the inputs and exit (times set-up)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def _setup_seconds(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = [timed(lambda: subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                                          cwd=ROOT))[1:]
             for _ in range(SETUP_REPEATS)]
    print("set-up seconds x speed factor: "
          + " ".join(f"{w:.3f}x{f:.3f}" for w, f in times))
    return _median_time(times, SETUP_SPEED_EXPONENT)


def main(argv=None):
    args = _parse(argv)
    _import_heis()
    from workloads import WORKLOADS, Tally

    wl = WORKLOADS[args.workload]
    inp = wl.setup(args.seed)
    if args.setup_only:
        return 0

    setup_s = None if args.trace else _setup_seconds(args)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    tally = Tally()
    # (seconds, speed factor) of each untraced and each traced round
    plain, traced_rounds, traced_spans = [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(plain) > len(traced_rounds)
        if traced:
            tracer.install()
        try:
            out, seconds, speed = timed(lambda: wl.run(inp))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_rounds.append((seconds, speed))
            traced_spans.append(tracer.take())
        else:
            plain.append((seconds, speed))
        wl.check(inp, out, tally)
        enough = tracer is None or traced_rounds
        if enough and time.perf_counter() - start >= args.seconds:
            break

    print(f"{args.workload} seed={args.seed}: {len(plain) + len(traced_rounds)} rounds; "
          "seconds x speed factor per untraced round: "
          + " ".join(f"{w:.3f}x{f:.3f}" for w, f in plain)
          + ("; traced: " + " ".join(f"{w:.3f}x{f:.3f}" for w, f in traced_rounds)
             if tracer else ""))
    for line in tally.unexpected:
        print("check failed:", line, file=sys.stderr)

    wall_s = _median_time(plain)
    if tracer is None:
        metrics = {"wall_s": (wall_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                   / 1024.0, "MiB")}
    else:
        traced_wall_s = _median_time(traced_rounds)
        metrics = _layer_report(args, wall_s, traced_wall_s, traced_rounds, traced_spans)

    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _median_time(times, exponent=1.0):
    """Median of (seconds, speed factor) pairs, at the reference speed."""
    return statistics.median(w * f ** exponent for w, f in times)


def _layer_report(args, wall_s, traced_wall_s, traced_rounds, traced_spans):
    from tracing import PER_LAYER, layer_metrics, self_times, write_jsonl

    overhead = traced_wall_s - wall_s
    traced_walls = [w for w, _ in traced_rounds]
    per_round = []
    for spans, (_, factor) in zip(traced_spans, traced_rounds):
        vals = layer_metrics(spans, overhead)
        # each round's layer times at the reference speed, as wall_s
        for k, (unit, _) in PER_LAYER.items():
            if k != "trace.overhead_s" and unit in ("s", "1/s"):
                vals[k] *= factor if unit == "s" else 1.0 / factor
        per_round.append(vals)
    values = {k: statistics.median(r[k] for r in per_round) for k in PER_LAYER}
    # the spans' self times partition the time spent inside traced calls
    busy = [sum(self_times(spans)) for spans in traced_spans]
    accounting = {"traced_wall_s": traced_walls, "busy_s": busy,
                  "untraced_wall_s": wall_s}
    print("traced wall minus span busy time per round: "
          + " ".join(f"{w - b:.4f}" for w, b in zip(traced_walls, busy)))

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    write_jsonl(out_dir / f"{stem}.spans.jsonl", traced_spans)
    with open(out_dir / f"{stem}.layers.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": values,
                   "accounting": accounting}, fh, indent=1)
    return {k: (values[k], PER_LAYER[k][0]) for k in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
