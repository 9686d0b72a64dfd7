"""Batch driver: every verifier and geometry primitive behind one command.

    heis tau 1 0.5 0
    heis distance '[0,0,0]' '[0,0,1]'
    heis geodesic '[1,0]' 3.14 --samples 8
    heis transport --config cfg.json
    heis verify-cd --config cfg.json --output out.csv --format csv
    heis verify-bmi --s 0:1:0.25 --config cfg.json
    heis dilate-check --target bmi --lam 2,4 --config cfg.json
    heis step-limit --depths 0,1,2,3 --config cfg.json

Configs are JSON (see ExperimentConfig), one file for every command; each
command takes only the flags it reads.
Exit status: 0 when every reported inequality holds or is inconclusive,
2 when any fails (or a dilation check is inconsistent), 1 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import geodesy
from .distortion import tau, tau_tilde
from .geodesy import GeodesicParam, gamma, set_max_workers
from .measures import BoxRegion, Region, region_from_json
from .transport import cost_matrix, solve_exact, solve_sinkhorn
from .verify import (
    GridFunction,
    InequalityReport,
    sampled_measures,
    step_limit_experiment,
    verify_bbl,
    verify_bmi_sweep,
    verify_cd_sweep,
    verify_sbmi_sweep,
)

__all__ = ["main", "ExperimentConfig"]


@dataclass
class ExperimentConfig:
    """Everything a verification run needs; round-trips through JSON.

    The dimension n is not a setting: it is read off the regions, and a
    JSON config whose "n" disagrees with them is rejected."""

    A: dict = field(default_factory=lambda: BoxRegion.unit(1).to_json())
    B: dict = field(default_factory=lambda: BoxRegion.shifted([2.0, 0.0, 0.0]).to_json())
    s_values: list = field(default_factory=lambda: [0.25, 0.5, 0.75])
    N: int = 400
    seed: int = 0
    h: float = 0.1
    r: float = 0.05
    solver: str = "exact"
    output: str | None = None
    format: str = "json"

    def to_json(self) -> dict:
        return {"n": self.n, **asdict(self)}

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        unknown = sorted(set(data) - set(cls.__dataclass_fields__) - {"n"})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        cfg = cls(**{k: v for k, v in data.items() if k != "n"})
        n = cfg.n  # also checks that the regions agree
        if data.get("n", n) != n:
            raise ValueError(f"config n = {data['n']!r} disagrees with its regions, "
                             f"which have n = {n}")
        return cfg

    @property
    def n(self) -> int:
        n = self.region_a().n
        if self.region_b().n != n:
            raise ValueError(f"config regions disagree: A has n = {n}, "
                             f"B has n = {self.region_b().n}")
        return n

    def region_a(self) -> Region:
        return region_from_json(self.A)

    def region_b(self) -> Region:
        return region_from_json(self.B)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # no prefixes: a flag a command lacks must not pass as --help
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_s_values(spec: str) -> list[float]:
    """'0:1:0.25' (inclusive range) or '0.25,0.5,0.75'."""
    if ":" in spec:
        start, stop, step = (float(v) for v in spec.split(":"))
        if step == 0.0:
            raise ValueError(f"s range {spec!r} has step 0")
        k = int(np.floor((stop - start) / step + 1e-9))
        return [start + i * step for i in range(k + 1)]
    return [float(v) for v in spec.split(",")]


def _parse_solver(spec: str):
    if spec == "exact":
        return "exact", None
    if spec.startswith("sinkhorn"):
        eps = None
        if "(" in spec:
            eps = float(spec[spec.index("(") + 1:spec.rindex(")")])
        return "sinkhorn", eps
    raise SystemExit(f"unknown solver {spec!r}")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_json(json.load(fh))
    for name in ("N", "seed", "h", "r", "solver", "output", "format"):
        v = getattr(args, name, None)
        if v is not None:
            setattr(cfg, name, v)
    if getattr(args, "s", None):
        cfg.s_values = _parse_s_values(args.s)
    if "s" in vars(args) and not cfg.s_values:
        raise ValueError(f"{args.command} needs at least one s value")
    if cfg.solver != "exact" and args.command != "transport":
        raise ValueError(f"{args.command} runs exact plans only; solver {cfg.solver!r} "
                         "is accepted by 'heis transport' alone")
    return cfg


def _emit(reports: list[InequalityReport], cfg: ExperimentConfig):
    for rep in reports:
        print(f"{rep.name} s={rep.s:g}: lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} "
              f"margin={rep.margin:.6g} +-{rep.mc_stderr:.3g} -> {rep.holds}")
    if cfg.output:
        if cfg.format == "csv":
            lines = [InequalityReport.CSV_HEADER]
            lines += [rep.csv_row() for rep in reports]
            payload = "\n".join(lines) + "\n"
        else:
            payload = json.dumps([rep.to_json() for rep in reports], indent=2) + "\n"
        with open(cfg.output, "w") as fh:
            fh.write(payload)
        print(f"wrote {cfg.output}")


def _exit_code(reports) -> int:
    return 2 if any(r.holds == "fails" for r in reports) else 0


def _dry_run(cfg: ExperimentConfig, args, extra=None) -> int:
    """Print the config fields the command reads: n, A, B and those its flags
    set (each config flag is named after its field, and --s sets s_values)."""
    read = {"n", "A", "B"} | {"s_values" if k == "s" else k for k in vars(args)}
    shown = {k: v for k, v in cfg.to_json().items() if k in read}
    print(json.dumps({**shown, **(extra or {})}, indent=2))
    return 0


def _cmd_tau(args) -> int:
    if args.dry_run:
        print(json.dumps({"command": "tau", "n": args.n, "s": args.s,
                          "theta": args.theta}))
        return 0
    print(repr(tau(args.n, args.s, args.theta)))
    return 0


def _cmd_distance(args) -> int:
    x = np.asarray(json.loads(args.x), dtype=float)
    y = np.asarray(json.loads(args.y), dtype=float)
    if args.dry_run:
        print(json.dumps({"command": "distance", "x": x.tolist(), "y": y.tolist()}))
        return 0
    print(repr(geodesy.cc_distance(x, y)))
    return 0


def _cmd_geodesic(args) -> int:
    chi_reals = np.asarray(json.loads(args.chi), dtype=float)
    chi = chi_reals[0::2] + 1j * chi_reals[1::2]
    if args.dry_run:
        print(json.dumps({"command": "geodesic", "chi": chi_reals.tolist(),
                          "theta": args.theta, "samples": args.samples}))
        return 0
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    p = GeodesicParam(chi, args.theta)
    for k in range(args.samples + 1):
        pt = gamma(k / args.samples, p)
        print(json.dumps([float(v) for v in pt]))
    return 0


def _cmd_transport(args) -> int:
    cfg = _load_config(args)
    if args.dry_run:
        return _dry_run(cfg, args)
    method, eps = _parse_solver(cfg.solver)
    mu, nu = sampled_measures(cfg.region_a(), cfg.region_b(), cfg.N, cfg.seed)
    C = cost_matrix(mu, nu)
    if method == "exact":
        plan = solve_exact(C, mu.weights, nu.weights)
    else:
        eps = eps if eps is not None else 0.05 * float(np.median(C.cost))
        plan = solve_sinkhorn(C, mu.weights, nu.weights, eps)
    print(f"transport cost={plan.cost!r} w2={float(np.sqrt(plan.cost))!r} "
          f"support={len(plan)} method={plan.method}")
    if cfg.output:
        with open(cfg.output, "w") as fh:
            json.dump(plan.to_json(), fh)
        print(f"wrote {cfg.output}")
    return 0


def _run_verifier(target: str, cfg: ExperimentConfig, A: Region, B: Region,
                  h: float, r: float) -> list[InequalityReport]:
    if target == "cd":
        return verify_cd_sweep(A, B, cfg.s_values, cfg.N, cfg.seed, h)
    if target == "bmi":
        return verify_bmi_sweep(A, B, cfg.s_values, cfg.N, cfg.seed, r, h)
    if target == "sbmi":
        return verify_sbmi_sweep(A, B, cfg.s_values, cfg.N, cfg.seed, r, h)
    raise SystemExit(f"unknown verifier {target!r}")


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    if args.dry_run:
        return _dry_run(cfg, args, {"verifier": args.target})
    reports = _run_verifier(args.target, cfg, cfg.region_a(), cfg.region_b(), cfg.h, cfg.r)
    _emit(reports, cfg)
    return _exit_code(reports)


def _cmd_verify_bbl(args) -> int:
    cfg = _load_config(args)
    if args.dry_run:
        return _dry_run(cfg, args, {"p": args.p, "pairing": args.pairing})
    A, B, n = cfg.region_a(), cfg.region_b(), cfg.n
    hull_a = A.bounding_box().intervals
    hull_b = B.bounding_box().intervals
    box = BoxRegion(np.stack([np.minimum(hull_a[:, 0], hull_b[:, 0]),
                              np.maximum(hull_a[:, 1], hull_b[:, 1])], axis=1))
    shape = tuple([args.cells] * (2 * n + 1))
    p = float("inf") if args.p == "inf" else float(args.p)
    reports = []
    for s in cfg.s_values:
        c1 = tau_tilde(n, 1.0 - s, 0.0) ** (2 * n + 1)
        c2 = tau_tilde(n, s, 0.0) ** (2 * n + 1)
        f = GridFunction.indicator(A, box, shape, scale=c1)
        g = GridFunction.indicator(B, box, shape, scale=c2)
        h_fn = GridFunction.indicator(box, box, shape, scale=1.0)
        reports.append(verify_bbl(f, g, h_fn, s=s, p=p, seed=cfg.seed,
                                  pairing=args.pairing))
    _emit(reports, cfg)
    return _exit_code(reports)


def _cmd_step_limit(args) -> int:
    cfg = _load_config(args)
    if args.s and len(cfg.s_values) > 1:
        raise ValueError(f"step-limit runs at one s; --s {args.s} gives {len(cfg.s_values)}")
    depths = [int(v) for v in args.depths.split(",")]
    if args.dry_run:
        return _dry_run(cfg, args, {"depths": depths})
    mu, nu = sampled_measures(cfg.region_a(), cfg.region_b(), cfg.N, cfg.seed)
    s = cfg.s_values[len(cfg.s_values) // 2]  # a config's sweep: its middle value
    print(f"step-limit at s={s!r}")
    rows = step_limit_experiment(mu, nu, depths, s)
    lines = ["depth,w2_error,f_value"]
    for row in rows:
        d = "exact" if row.depth is None else str(row.depth)
        print(f"depth={d}: w2_error={row.w2_error!r} F={row.f_value!r}")
        lines.append(f"{d},{row.w2_error!r},{row.f_value!r}")
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {cfg.output}")
    return 0


def _cmd_dilate_check(args) -> int:
    cfg = _load_config(args)
    lams = [float(v) for v in args.lam.split(",")]
    if args.dry_run:
        return _dry_run(cfg, args, {"lambdas": lams, "verifier": args.target})
    A, B = cfg.region_a(), cfg.region_b()
    base = _run_verifier(args.target, cfg, A, B, cfg.h, cfg.r)
    ok = True
    for lam in lams:
        scaled = _run_verifier(args.target, cfg, A.dilated(lam), B.dilated(lam),
                               lam * cfg.h, lam * cfg.r)
        for b, s in zip(base, scaled):
            theta_same = b.extras.get("theta") == s.extras.get("theta")
            holds_same = b.holds == s.holds
            ok &= theta_same and holds_same
            print(f"lambda={lam:g} s={b.s:g}: theta_bit_identical={theta_same} "
                  f"holds {b.holds} -> {s.holds} ({'ok' if holds_same else 'MISMATCH'})")
    print(f"dilate-check: {'consistent' if ok else 'INCONSISTENT'}")
    return 0 if ok else 2


# argparse keywords of every shared flag; each command names the ones it reads
_FLAGS = {"config": {"help": "JSON ExperimentConfig file"}, "N": {"type": int},
          "seed": {"type": int}, "h": {"type": float}, "r": {"type": float},
          "s": {"help": "s values: '0.25,0.5' or '0:1:0.25'"},
          "solver": {"help": "'exact' or 'sinkhorn(eps)'"}, "output": {},
          "format": {"choices": ("json", "csv")}, "threads": {"type": int, "default": 1},
          "dry-run": {"action": "store_true"}}
_SWEEP_FLAGS = "config N seed h r s output format threads dry-run"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="heis", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, names):
        for name in names.split():
            p.add_argument(f"--{name}", **_FLAGS[name])

    p = sub.add_parser("tau", help="distortion coefficient tau^n_s(theta)")
    p.add_argument("n", type=int)
    p.add_argument("s", type=float)
    p.add_argument("theta", type=float)
    common(p, "dry-run")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("distance", help="CC distance between two points")
    p.add_argument("x")
    p.add_argument("y")
    common(p, "dry-run")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("geodesic", help="sample a geodesic from the origin")
    p.add_argument("chi", help="JSON array of 2n reals (interleaved complex)")
    p.add_argument("theta", type=float)
    p.add_argument("--samples", type=int, default=10)
    common(p, "dry-run")
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("transport", help="solve transport between A and B")
    common(p, "config N seed solver output threads dry-run")
    p.set_defaults(func=_cmd_transport)

    for name, flags in (("verify-cd", "config N seed h s output format threads dry-run"),
                        ("verify-bmi", _SWEEP_FLAGS), ("verify-sbmi", _SWEEP_FLAGS)):
        p = sub.add_parser(name, help=f"sweep s for the {name[7:].upper()} verifier")
        common(p, flags)
        p.set_defaults(func=_cmd_verify, target=name[7:])

    p = sub.add_parser("verify-bbl", help="Borell-Brascamp-Lieb on indicator grids")
    common(p, "config seed s output format dry-run")
    p.add_argument("--p", default="inf")
    p.add_argument("--pairing", choices=("independent", "diagonal"), default="diagonal")
    p.add_argument("--cells", type=int, default=16)
    p.set_defaults(func=_cmd_verify_bbl)

    p = sub.add_parser("step-limit", help="step-measure approximation experiment")
    common(p, "config N seed s output threads dry-run")
    p.add_argument("--depths", default="0,1,2,3,4,5")
    p.set_defaults(func=_cmd_step_limit)

    p = sub.add_parser("dilate-check", help="dilation-invariance consistency check")
    common(p, "config N seed h r s threads dry-run")
    p.add_argument("--target", choices=("bmi", "sbmi"), default="bmi")
    p.add_argument("--lam", default="2,4")
    p.set_defaults(func=_cmd_dilate_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "threads" in vars(args):
            set_max_workers(args.threads)
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"heis: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
