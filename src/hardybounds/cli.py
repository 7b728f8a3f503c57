"""Command-line entry point.

Subcommands:
  bound   evaluate one of the count bounds for a configured operator/potential
  count   discrete negative-eigenvalue count with a refinement trail
  verify  run a verification suite (hardy, transform, bounds, existence,
          convergence, or all)
  sweep   run a parameter ladder and emit one CSV row per experiment

Configuration comes from defaults, an optional JSON file (--config or the
HARDYBOUNDS_CONFIG environment variable), and flags, in increasing order of
precedence.  Exit codes: 0 success, 1 verification failure, 2 configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .errors import DomainError, DepthCapError, EvaluationError
from .bounds import (
    BoundConstants,
    OperatorSpec,
    bound_1d,
    central_bound,
    clr_bound,
)
from .harness import (
    SWEEP_TOL,
    SweepSpec,
    default_sweeps,
    run_bound_sweep,
    run_convergence_study,
    run_existence_check,
    run_hardy_positivity,
    run_transform_identity,
)
from .potentials import SquareWell, ZeroPotential, describe_potential, make_potential
from .quadrature import QuadratureError
from .spectra import count_negative, total_central_count

ENV_CONFIG = "HARDYBOUNDS_CONFIG"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

CSV_COLUMNS = (
    "experiment_id",
    "theorem",
    "d",
    "n",
    "variant",
    "family",
    "params",
    "count",
    "bound_raw",
    "bound_cap",
    "satisfied",
    "L",
    "m",
    "quad_err",
)


class ConfigError(ValueError):
    pass


BOUND_TOL = 1e-8  # quadrature tolerance of ``bound`` when none is given
TRANSFORM_TOL = 1e-6  # tolerance of ``verify transform`` when none is given


@dataclass
class RunConfig:
    """Effective configuration after merging defaults, file, and flags."""

    theorem: Optional[str] = None
    d: int = 1
    n: int = 0
    variant: str = "one"
    potential: Optional[dict] = None
    l: Optional[int] = None
    L: float = 20.0
    m: int = 4000
    doublings: int = 1
    tol: Optional[float] = None  # None: the command's own default
    samples: int = 2000
    constants: dict = field(default_factory=lambda: {"3": 0.1156})
    suite: Optional[str] = None
    sweep: Optional[dict] = None
    json_out: Optional[str] = None
    csv_out: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        return cls(**data)


DEFAULTS_TABLE = {
    "L": 20.0,
    "m": 4000,
    "doublings": 1,
    "tol": BOUND_TOL,
    "samples": 2000,
    "C_3": 0.1156,
    "existence_max_window": 320.0,
    "transform_depth_cap": 3,
}


def parse_potential_literal(text: str) -> dict:
    """family:key=value,...  ->  {"family": ..., params...}"""
    fam, _, rest = text.partition(":")
    fam = fam.strip()
    params: dict = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ConfigError(f"bad potential parameter {item!r} (expected key=value)")
            key = key.strip()
            try:
                params[key] = float(value)
            except ValueError:
                raise ConfigError(f"potential parameter {key}={value!r} is not a number")
    return {"family": fam, **params}


def _potential_from_config(cfg: RunConfig):
    if cfg.potential is None:
        raise ConfigError("no potential configured (use --potential)")
    spec = dict(cfg.potential)
    family = spec.pop("family", None)
    if family is None:
        raise ConfigError("potential configuration needs a 'family' key")
    try:
        return make_potential(family, spec)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _constants_from_config(cfg: RunConfig) -> BoundConstants:
    try:
        values = {int(k): float(v) for k, v in cfg.constants.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad CLR constant table: {exc}") from exc
    base = BoundConstants()
    merged = {**base.values, **values}
    return BoundConstants(values=merged, source=base.source)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hardybounds-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonable(obj):
    """Strict-JSON copy: non-finite floats become strings."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json_report(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def write_csv_rows(path: str, rows: list[dict]) -> None:
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        flat = {k: row.get(k, "") for k in CSV_COLUMNS}
        flat["params"] = json.dumps(row.get("params", {}), sort_keys=True)
        flat["satisfied"] = str(bool(row.get("satisfied", False))).lower()
        cap = row.get("bound_cap")
        flat["bound_cap"] = "" if cap is None else cap
        writer.writerow(flat)
    _atomic_write(path, buf.getvalue())


def _merge_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    cfg = RunConfig.from_dict(data)
    for key in (
        "theorem",
        "d",
        "n",
        "variant",
        "l",
        "L",
        "m",
        "doublings",
        "tol",
        "samples",
        "suite",
    ):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "potential", None) is not None:
        cfg.potential = parse_potential_literal(args.potential)
    if getattr(args, "C3", None) is not None:
        cfg.constants = {**cfg.constants, "3": args.C3}
    if getattr(args, "json_out", None) is not None:
        cfg.json_out = args.json_out
    if getattr(args, "csv_out", None) is not None:
        cfg.csv_out = args.csv_out
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.variant not in ("zero", "one"):
        raise ConfigError(f"variant must be 'zero' or 'one', got {cfg.variant!r}")
    if cfg.n < 0 or cfg.d < 1:
        raise ConfigError(f"need d >= 1 and n >= 0, got d={cfg.d}, n={cfg.n}")
    if cfg.L <= 0 or cfg.m < 2:
        raise ConfigError(f"need L > 0 and m >= 2, got L={cfg.L}, m={cfg.m}")
    if cfg.tol is not None and cfg.tol <= 0:
        raise ConfigError(f"tolerance must be positive, got {cfg.tol}")
    if cfg.theorem is not None and cfg.theorem not in ("t41", "t42", "t43"):
        raise ConfigError(f"theorem must be t41, t42 or t43, got {cfg.theorem!r}")


def _operator_for(cfg: RunConfig) -> OperatorSpec:
    if cfg.theorem == "t41":
        if cfg.d != 1:
            raise ConfigError("t41 needs d = 1")
        return OperatorSpec.for_line_bound(cfg.n, cfg.variant)
    if cfg.theorem == "t42":
        if cfg.d < 3:
            raise ConfigError("t42 needs d >= 3")
        return OperatorSpec.for_clr_bound(cfg.d, cfg.n, cfg.variant)
    if cfg.theorem == "t43":
        if cfg.d < 2:
            raise ConfigError("t43 needs d >= 2 (use t41 for the line)")
        return OperatorSpec.for_central_bound(cfg.d, cfg.n, cfg.variant)
    raise ConfigError("this command needs --theorem t41|t42|t43")


def cmd_bound(cfg: RunConfig) -> int:
    V = _potential_from_config(cfg)
    spec = _operator_for(cfg)
    if cfg.tol is None:
        cfg.tol = BOUND_TOL
    if cfg.theorem == "t41":
        bv = bound_1d(V, spec, tol=cfg.tol)
    elif cfg.theorem == "t42":
        bv = clr_bound(V, spec, constants=_constants_from_config(cfg), tol=cfg.tol)
    else:
        bv = central_bound(V, spec, tol=cfg.tol)
    print(f"theorem    : {cfg.theorem}")
    print(f"operator   : d={spec.d} n={spec.n} variant={spec.variant} "
          f"threshold={spec.threshold.value:.9g}")
    print(f"potential  : {describe_potential(V)}")
    raw = "inf" if math.isinf(bv.raw) else f"{bv.raw:.12g}"
    cap = "none (vacuous)" if bv.integer_cap is None else str(bv.integer_cap)
    print(f"bound raw  : {raw}")
    print(f"bound cap  : {cap}")
    print(f"quadrature : err<={bv.diagnostics.error_estimate:.3g} "
          f"evals={bv.diagnostics.evaluations}")
    for w in bv.diagnostics.warnings:
        print(f"warning    : {w}")
    for note in bv.diagnostics.notes:
        print(f"note       : {note}")
    for ch in bv.channels:
        print(f"channel l={ch.l}: degeneracy={ch.degeneracy} integral={ch.integral:.12g}")
    if cfg.json_out:
        write_json_report(
            cfg.json_out,
            {
                "config": cfg.to_dict(),
                "bound_raw": bv.raw,
                "bound_cap": bv.integer_cap,
                "error_estimate": bv.diagnostics.error_estimate,
                "evaluations": bv.diagnostics.evaluations,
                "warnings": list(bv.diagnostics.warnings),
                "notes": list(bv.diagnostics.notes),
                "channels": [
                    {"l": c.l, "degeneracy": c.degeneracy, "integral": c.integral}
                    for c in bv.channels
                ],
            },
        )
    return EXIT_OK


def cmd_count(cfg: RunConfig) -> int:
    V = _potential_from_config(cfg)
    if cfg.theorem is None:
        cfg.theorem = "t41" if cfg.d == 1 else "t43"
    spec = _operator_for(cfg)
    if cfg.theorem == "t42":
        spec = OperatorSpec(cfg.d, cfg.n, cfg.variant, threshold_depth=cfg.n + 2)
    payload: dict = {"config": cfg.to_dict()}
    if spec.d == 1 or cfg.l is not None:
        res = count_negative(
            spec, V, l=cfg.l, L=cfg.L, m=cfg.m, doublings=cfg.doublings
        )
        print(f"count      : {res.negative_count}")
        for step in res.trail:
            print(f"refinement : L={step['L']} m={step['m']} count={step['count']}")
        if res.ambiguous:
            print(f"warning    : pivot ambiguity, count interval {res.pivot_interval}")
        payload.update(count=res.negative_count, trail=list(res.trail))
    else:
        total, table = total_central_count(
            spec, V, L=cfg.L, m=cfg.m, doublings=cfg.doublings
        )
        print(f"total count: {total}")
        for row in table:
            print(f"channel l={row['l']}: degeneracy={row['degeneracy']} "
                  f"count={row['count']}")
        payload.update(count=total, channels=table)
    if cfg.json_out:
        write_json_report(cfg.json_out, payload)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    suite = cfg.suite or "all"
    if suite not in ("hardy", "transform", "bounds", "existence", "convergence", "all"):
        raise ConfigError(f"unknown suite {suite!r}")
    reports = []
    failed = False
    warned = False

    if suite in ("hardy", "all"):
        rep = run_hardy_positivity()
        reports.append(rep.to_dict())
        print(f"hardy       : min quotient {rep.min_quotient:.3e} "
              f"{'PASS' if rep.passed else 'FAIL'}")
        failed |= not rep.passed
    if suite in ("transform", "all"):
        if cfg.tol is None:
            cfg.tol = TRANSFORM_TOL
        rep = run_transform_identity(tol=cfg.tol)
        reports.append(rep.to_dict())
        print(f"transform   : max discrepancy {rep.max_discrepancy:.3e} "
              f"{'PASS' if rep.passed else 'FAIL'}")
        failed |= not rep.passed
    if suite in ("bounds", "all"):
        ok = True
        for sweep, theorem in default_sweeps():
            rows = run_bound_sweep(sweep, theorem)
            rows_ok = all(r.satisfied for r in rows)
            ok &= rows_ok
            reports.append({"suite": f"bounds-{theorem}",
                            "rows": [r.to_dict() for r in rows],
                            "passed": rows_ok})
            print(f"bounds {theorem}  : {len(rows)} rows "
                  f"{'PASS' if rows_ok else 'FAIL'}")
        # illustrative, not pass/fail: the extra contribution that appears in
        # the CLR-type bound for every d >= 4 but not at d = 3
        z3 = clr_bound(ZeroPotential(), OperatorSpec.for_clr_bound(3, 0, "zero"))
        z5 = clr_bound(ZeroPotential(), OperatorSpec.for_clr_bound(5, 0, "zero"))
        reports.append({"suite": "bounds-dimension-note",
                        "d3_raw": z3.raw, "d5_raw": z5.raw, "informational": True})
        print(f"bounds note : V=0 CLR-type raw: d=3 -> {z3.raw:g}, "
              f"d=5 -> {z5.raw:g} (recorded)")
        failed |= not ok
    if suite in ("existence", "all"):
        wells = [
            SquareWell(c=1.0, a=1.0, b=2.0),
            SquareWell(c=0.25, a=1.0, b=2.0),
            SquareWell(c=4.0, a=0.5, b=3.0),
        ]
        rep = run_existence_check(wells)
        reports.append(rep.to_dict())
        inconclusive = [c for c in rep.cases if c.status == "inconclusive"]
        warned |= bool(inconclusive)
        print(f"existence   : {len(rep.cases)} cases, "
              f"{len(inconclusive)} inconclusive "
              f"{'PASS' if rep.passed else 'FAIL'}")
        failed |= not rep.passed
    if suite in ("convergence", "all"):
        spec = OperatorSpec.for_line_bound(0, "zero")
        rep = run_convergence_study(spec, SquareWell(c=16.0, a=1.0, b=2.0))
        reports.append(rep.to_dict())
        print(f"convergence : stabilized={rep.stabilized} "
              f"count={rep.stable_count} "
              f"{'PASS' if rep.stabilized else 'INCONCLUSIVE'}")

    if cfg.json_out:
        write_json_report(cfg.json_out, {"config": cfg.to_dict(), "reports": reports})
    if failed:
        return EXIT_VERIFY_FAILED
    if warned:
        print("note        : some existence cases inconclusive (window-limited)")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.sweep:
        raise ConfigError("sweep needs a 'sweep' object in the config file")
    theorem = cfg.sweep.get("theorem", cfg.theorem)
    if theorem is None:
        raise ConfigError("sweep needs a theorem selector")
    spec_kwargs = {k: v for k, v in cfg.sweep.items() if k != "theorem"}
    if "values" in spec_kwargs:
        spec_kwargs["values"] = tuple(spec_kwargs["values"])
    try:
        sweep = SweepSpec(**spec_kwargs)
    except (TypeError, DomainError) as exc:
        raise ConfigError(f"bad sweep specification: {exc}") from exc
    if cfg.tol is None:
        cfg.tol = SWEEP_TOL
    rows = run_bound_sweep(sweep, theorem, constants=_constants_from_config(cfg), tol=cfg.tol)
    dicts = [r.to_dict() for r in rows]
    for r in rows:
        cap = "inf" if r.bound_cap is None else r.bound_cap
        print(f"{r.experiment_id}: count={r.count} cap={cap} "
              f"{'ok' if r.satisfied else 'VIOLATED'}")
    if cfg.csv_out:
        write_csv_rows(cfg.csv_out, dicts)
    if cfg.json_out:
        write_json_report(cfg.json_out, {"config": cfg.to_dict(), "rows": dicts})
    return EXIT_OK if all(r.satisfied for r in rows) else EXIT_VERIFY_FAILED


def show_defaults() -> None:
    print("default settings:")
    for key, value in DEFAULTS_TABLE.items():
        print(f"  {key:<24} {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardybounds",
        description="Eigenvalue-count bounds for iterated-log Hardy operators",
    )
    parser.add_argument("--show-defaults", action="store_true",
                        help="print the defaults table and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help=f"JSON config file (or ${ENV_CONFIG})")
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--variant", choices=("zero", "one"), default=None)
        p.add_argument("--potential",
                       help="family:key=value,... e.g. square_well:c=1,a=1,b=2")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--L", type=float, default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--doublings", type=int, default=None)
        p.add_argument("--C3", type=float, default=None,
                       help="CLR constant for d = 3")
        p.add_argument("--json", dest="json_out", default=None)
        p.add_argument("--csv", dest="csv_out", default=None)

    p_bound = sub.add_parser("bound", help="evaluate a count bound")
    common(p_bound)
    p_bound.add_argument("--theorem", choices=("t41", "t42", "t43"), default=None,
                         help="t41: line/half-line; t42: CLR-type d>=3; "
                              "t43: central partial-wave")

    p_count = sub.add_parser("count", help="discrete negative-eigenvalue count")
    common(p_count)
    p_count.add_argument("--theorem", choices=("t41", "t42", "t43"), default=None)
    p_count.add_argument("--l", type=int, default=None, help="single channel index")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify)
    p_verify.add_argument("suite", nargs="?", default=None,
                          choices=("hardy", "transform", "bounds", "existence",
                                   "convergence", "all"))

    p_sweep = sub.add_parser("sweep", help="run a parameter ladder")
    common(p_sweep)
    p_sweep.add_argument("--theorem", choices=("t41", "t42", "t43"), default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.show_defaults:
        show_defaults()
        return EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_CONFIG
    try:
        cfg = _merge_config(args)
        if args.command == "verify" and args.suite is not None:
            cfg.suite = args.suite
        handler = {
            "bound": cmd_bound,
            "count": cmd_count,
            "verify": cmd_verify,
            "sweep": cmd_sweep,
        }[args.command]
        return handler(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, DomainError, DepthCapError, EvaluationError,
            OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
