"""Batch driver: every verifier and geometry primitive behind one command.

    heis tau 1 0.5 0
    heis distance '[0,0,0]' '[0,0,1]'
    heis geodesic '[1,0]' 3.14 --samples 8
    heis transport --config cfg.json
    heis verify-cd --config cfg.json --output out.csv
    heis verify-bmi --s 0:1:0.25 --config cfg.json
    heis dilate-check --target bmi --lam 2,4 --config cfg.json
    heis step-limit --depths 0,1,2,3 --config cfg.json

Configs are JSON (see ExperimentConfig), one file for every command; each
command takes only the flags it reads.  A report --output is CSV if its name
ends in .csv, else JSON.  Pair kernels use every CPU the process may run on.
Exit status: 0 when every reported inequality holds or is inconclusive, 2 when any
fails (or a dilation check is inconsistent), 1 on usage errors or a Sinkhorn failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import core, geodesy
from .distortion import tau, tau_tilde
from .geodesy import GeodesicParam, gamma
from .measures import BoxRegion, Region, region_from_json
from .transport import SinkhornError, cost_matrix, solve_exact, solve_sinkhorn
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


# ---------------------------------------------------------------------------
# one parser per value from outside: it takes the JSON value of a config key,
# or the value a flag's text is read as, and raises ValueError without naming
# the key or flag, which its caller prefixes
# ---------------------------------------------------------------------------

def _number(test, domain: str, integer: bool = False):
    """A JSON number passing `test`: an int if `integer`, else an int or a
    float, which it returns as a float.  A bool is not a number here."""
    def parse(v):
        if type(v) not in ((int,) if integer else (int, float)) or not test(v):
            raise ValueError(f"must be {domain}, got {v!r}")
        return v if integer else float(v)
    return parse


def _list(item):
    def parse(v):
        if type(v) is not list or not v:
            raise ValueError(f"must be a non-empty list, got {v!r}")
        return [item(x) for x in v]
    return parse


_COUNT = _number(lambda v: v >= 1, "an integer >= 1", integer=True)
_FINITE = _number(math.isfinite, "a finite number")
_POSITIVE = _number(lambda v: 0 < v < math.inf, "a positive finite number")
_UNIT = _number(lambda v: 0 <= v <= 1, "a number in [0, 1]")


def _point(v) -> list[float]:
    x = _list(_FINITE)(v)
    core.dim_to_n(x)
    return x


def _chi(v) -> np.ndarray:
    """2n reals, the real and imaginary parts of chi interleaved."""
    reals = np.array(_list(_FINITE)(v))
    if len(reals) % 2:
        raise ValueError(f"must hold an even count of reals, got {len(reals)}")
    return reals[0::2] + 1j * reals[1::2]


def _sinkhorn_eps(spec) -> float | None:
    """The epsilon of 'sinkhorn(eps)', None for 'exact' and 'sinkhorn'."""
    if spec in ("exact", "sinkhorn"):
        return None
    try:
        eps = float(re.fullmatch(r"sinkhorn\((.*)\)", spec)[1])
    except (TypeError, ValueError):  # no match, or no number between the parentheses
        raise ValueError("solver must be 'exact', 'sinkhorn' or 'sinkhorn(eps)' with eps "
                         f"positive and finite, got {spec!r}") from None
    if not 0 < eps < np.inf:
        raise ValueError(f"solver {spec!r}: epsilon must be positive and finite, got {eps}")
    return eps


def _solver(spec) -> str:
    _sinkhorn_eps(spec)
    return spec


def _output(v) -> str | None:
    if v is not None and type(v) is not str:
        raise ValueError(f"must be a file name or null, got {v!r}")
    return v


def _region(v) -> dict:
    region_from_json(v)
    return v


# the parser of each ExperimentConfig field
_FIELDS = {"A": _region, "B": _region, "s_values": _list(_UNIT), "N": _COUNT,
           # B samples with seed + 1, and a Philox key is a uint64
           "seed": _number(lambda v: 0 <= v <= 2 ** 64 - 2, "an integer in [0, 2^64 - 2]",
                           integer=True),
           "h": _POSITIVE, "r": _number(lambda v: 0 <= v < math.inf, "a finite number >= 0"),
           "solver": _solver, "output": _output}


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

    def to_json(self) -> dict:
        return {"n": self.n, **asdict(self)}

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        """Parse every key, so that a bad value names its key."""
        if type(data) is not dict:
            raise ValueError(f"config must be a JSON object, got {data!r}")
        unknown = sorted(set(data) - set(_FIELDS) - {"n"})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        parsers = {**_FIELDS, "n": _COUNT}
        values = {}
        for key, value in data.items():
            try:
                values[key] = parsers[key](value)
            except ValueError as err:
                raise ValueError(f"config key {key!r}: {err}") from None
        n = values.pop("n", None)
        cfg = cls(**values)
        if n not in (None, cfg.n):  # cfg.n also checks that the regions agree
            raise ValueError(f"config n = {n!r} disagrees with its regions, "
                             f"which have n = {cfg.n}")
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


def _split(read):
    def split(text: str) -> list:
        return [read(v) for v in text.split(",")]
    return split


def _flag(read, parse):
    """The argparse type= of a flag or positional: its text is read (int,
    float, json.loads, ...) and then parsed as a config value is, so that a
    bad value is a usage error naming the flag."""
    def type_(text: str):
        try:
            return parse(read(text))
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return type_


def _load_config(args) -> ExperimentConfig:
    """The --config file, each flag overriding its field."""
    cfg = ExperimentConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_json(json.load(fh))
    for name in _FIELDS:
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    return cfg


def _check_command(args, cfg: ExperimentConfig | None):
    """The checks that depend on the command, which a dry run makes too."""
    if cfg is not None and cfg.solver != "exact" and args.command != "transport":
        raise ValueError(f"config key 'solver': {args.command} runs exact plans only; "
                         f"solver {cfg.solver!r} is accepted by 'heis transport' alone")
    if args.command == "step-limit" and len(args.s_values or ()) > 1:
        raise ValueError(f"argument --s: step-limit runs at one s, got {args.s_values}")
    if args.command == "verify-bbl" and not all(0 < s < 1 for s in cfg.s_values):
        where = "config key 's_values'" if args.s_values is None else "argument --s"
        raise ValueError(f"{where}: verify-bbl needs every s strictly inside (0, 1), "
                         f"got {cfg.s_values}")
    if args.command == "verify-bbl" and not args.p >= -1.0 / (2 * cfg.n + 1):
        raise ValueError(f"argument --p: must be >= -1/(2n+1) = {-1 / (2 * cfg.n + 1):g}, "
                         f"got {args.p}")
    if args.command == "distance" and len(args.x) != len(args.y):
        raise ValueError(f"argument y: must have x's {len(args.x)} coordinates, got {len(args.y)}")


def _dry_run(args, cfg: ExperimentConfig | None) -> dict:
    """The command, the config fields it reads (n, A, B and those behind its
    flags) and its other arguments under their argparse names."""
    shown = {"command": args.command}
    if cfg is not None:
        read = {"n", "A", "B"} | vars(args).keys()
        shown.update((k, v) for k, v in cfg.to_json().items() if k in read)
    hidden = {"command", "func", "config", "dry_run", *_FIELDS}
    shown.update((k, v) for k, v in vars(args).items() if k not in hidden)
    return shown


def _interleaved(chi: np.ndarray) -> list[float]:
    """A parsed chi in JSON: the reals it was given."""
    return np.stack([chi.real, chi.imag], axis=-1).ravel().tolist()


def _emit(reports: list[InequalityReport], cfg: ExperimentConfig):
    for rep in reports:
        print(f"{rep.name} s={rep.s:g}: lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} "
              f"margin={rep.margin:.6g} +-{rep.mc_stderr:.3g} -> {rep.holds}")
    if cfg.output:
        if cfg.output.endswith(".csv"):
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


def _cmd_tau(args, cfg) -> int:
    print(repr(tau(args.n, args.s, args.theta)))
    return 0


def _cmd_distance(args, cfg) -> int:
    print(repr(geodesy.cc_distance(args.x, args.y)))
    return 0


def _cmd_geodesic(args, cfg) -> int:
    p = GeodesicParam(args.chi, args.theta)
    for k in range(args.samples + 1):
        pt = gamma(k / args.samples, p)
        print(json.dumps([float(v) for v in pt]))
    return 0


def _cmd_transport(args, cfg: ExperimentConfig) -> int:
    mu, nu = sampled_measures(cfg.region_a(), cfg.region_b(), cfg.N, cfg.seed)
    C = cost_matrix(mu, nu)
    if cfg.solver == "exact":
        plan = solve_exact(C, mu.weights, nu.weights)
    else:
        eps = _sinkhorn_eps(cfg.solver) or 0.05 * float(np.median(C.cost))
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
    sweep = {"bmi": verify_bmi_sweep, "sbmi": verify_sbmi_sweep}[target]
    return sweep(A, B, cfg.s_values, cfg.N, cfg.seed, r, h)


def _cmd_verify(args, cfg: ExperimentConfig) -> int:
    reports = _run_verifier(args.target, cfg, cfg.region_a(), cfg.region_b(), cfg.h, cfg.r)
    _emit(reports, cfg)
    return _exit_code(reports)


def _cmd_verify_bbl(args, cfg: ExperimentConfig) -> int:
    A, B, n = cfg.region_a(), cfg.region_b(), cfg.n
    hull_a = A.bounding_box().intervals
    hull_b = B.bounding_box().intervals
    box = BoxRegion(np.stack([np.minimum(hull_a[:, 0], hull_b[:, 0]),
                              np.maximum(hull_a[:, 1], hull_b[:, 1])], axis=1))
    shape = tuple([args.cells] * (2 * n + 1))
    reports = []
    for s in cfg.s_values:
        c1 = tau_tilde(n, 1.0 - s, 0.0) ** (2 * n + 1)
        c2 = tau_tilde(n, s, 0.0) ** (2 * n + 1)
        f = GridFunction.indicator(A, box, shape, scale=c1)
        g = GridFunction.indicator(B, box, shape, scale=c2)
        h_fn = GridFunction.indicator(box, box, shape, scale=1.0)
        reports.append(verify_bbl(f, g, h_fn, s=s, p=args.p, seed=cfg.seed,
                                  pairing=args.pairing))
    _emit(reports, cfg)
    return _exit_code(reports)


def _cmd_step_limit(args, cfg: ExperimentConfig) -> int:
    mu, nu = sampled_measures(cfg.region_a(), cfg.region_b(), cfg.N, cfg.seed)
    s = cfg.s_values[len(cfg.s_values) // 2]  # a config's sweep: its middle value
    print(f"step-limit at s={s!r}")
    rows = step_limit_experiment(mu, nu, args.depths, s)
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


def _cmd_dilate_check(args, cfg: ExperimentConfig) -> int:
    A, B = cfg.region_a(), cfg.region_b()
    base = _run_verifier(args.target, cfg, A, B, cfg.h, cfg.r)
    ok = True
    for lam in args.lam:
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
_FLAGS = {"config": {"help": "JSON ExperimentConfig file"},
          "N": {"type": _flag(int, _FIELDS["N"])},
          "seed": {"type": _flag(int, _FIELDS["seed"])},
          "h": {"type": _flag(float, _FIELDS["h"])},
          "r": {"type": _flag(float, _FIELDS["r"])},
          "s": {"type": _flag(_parse_s_values, _FIELDS["s_values"]), "dest": "s_values",
                "metavar": "S", "help": "s values: '0.25,0.5' or '0:1:0.25'"},
          "solver": {"type": _flag(str, _FIELDS["solver"]),
                     "help": "'exact', 'sinkhorn' or 'sinkhorn(eps)'"},
          "output": {"type": _flag(str, _FIELDS["output"])},
          "dry-run": {"action": "store_true"}}
_SWEEP_FLAGS = "config N seed h r s output dry-run"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="heis", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, names):
        for name in names.split():
            p.add_argument(f"--{name}", **_FLAGS[name])

    p = sub.add_parser("tau", help="distortion coefficient tau^n_s(theta)")
    p.add_argument("n", type=_flag(int, _COUNT))
    p.add_argument("s", type=_flag(float, _UNIT))
    p.add_argument("theta", type=_flag(float, _number(
        lambda v: 0 <= v <= geodesy.TWO_PI, "a number in [0, 2 pi]")))
    common(p, "dry-run")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("distance", help="CC distance between two points")
    p.add_argument("x", type=_flag(json.loads, _point))
    p.add_argument("y", type=_flag(json.loads, _point))
    common(p, "dry-run")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("geodesic", help="sample a geodesic from the origin")
    p.add_argument("chi", type=_flag(json.loads, _chi),
                   help="JSON array of 2n reals (interleaved complex)")
    p.add_argument("theta", type=_flag(float, _number(
        lambda v: abs(v) <= geodesy.TWO_PI + 1e-15, "a number in [-2 pi, 2 pi]")))
    p.add_argument("--samples", type=_flag(int, _COUNT), default=10)
    common(p, "dry-run")
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("transport", help="solve transport between A and B")
    common(p, "config N seed solver output dry-run")
    p.set_defaults(func=_cmd_transport)

    for name, flags in (("verify-cd", "config N seed h s output dry-run"),
                        ("verify-bmi", _SWEEP_FLAGS), ("verify-sbmi", _SWEEP_FLAGS)):
        p = sub.add_parser(name, help=f"sweep s for the {name[7:].upper()} verifier")
        common(p, flags)
        p.set_defaults(func=_cmd_verify, target=name[7:])

    p = sub.add_parser("verify-bbl", help="Borell-Brascamp-Lieb on indicator grids")
    common(p, "config seed s output dry-run")
    p.add_argument("--p", default="inf", type=_flag(float, _number(
        lambda v: not math.isnan(v), "a number other than NaN")))
    p.add_argument("--pairing", choices=("independent", "diagonal"), default="diagonal")
    p.add_argument("--cells", type=_flag(int, _COUNT), default=16)
    p.set_defaults(func=_cmd_verify_bbl)

    p = sub.add_parser("step-limit", help="step-measure approximation experiment")
    common(p, "config N seed s output dry-run")
    p.add_argument("--depths", default="0,1,2,3,4,5", type=_flag(_split(int), _list(_number(
        lambda v: v >= 0, "an integer >= 0", integer=True))))
    p.set_defaults(func=_cmd_step_limit)

    p = sub.add_parser("dilate-check", help="dilation-invariance consistency check")
    common(p, "config N seed h r s dry-run")
    p.add_argument("--target", choices=("bmi", "sbmi"), default="bmi")
    p.add_argument("--lam", type=_flag(_split(float), _list(_POSITIVE)), default="2,4")
    p.set_defaults(func=_cmd_dilate_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args) if "config" in vars(args) else None
        _check_command(args, cfg)
        if args.dry_run:
            print(json.dumps(_dry_run(args, cfg), indent=2, default=_interleaved))
            return 0
        return args.func(args, cfg)
    except (ValueError, OSError, SinkhornError) as err:
        print(f"heis: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
