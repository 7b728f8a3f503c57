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
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .errors import DomainError, DepthCapError, EvaluationError
from .iterfun import DEPTH_CAP, VARIANTS
from .bounds import (
    BOUND_TOL,
    DEFAULT_CLR_CONSTANTS,
    THEOREMS,
    BoundConstants,
    OperatorSpec,
    theorem_bound,
    theorem_operator,
)
from .harness import (
    MAX_EXISTENCE_WINDOW,
    TRANSFORM_TOL,
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
from .spectra import DEFAULT_L, DEFAULT_M, count_negative, total_central_count

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
    "notes",
)


class ConfigError(ValueError):
    pass


#: the operator and grid settings: flags, and config-file keys that a sweep
#: object may also set
SETTINGS = ("theorem", "d", "n", "variant", "L", "m", "doublings")


BOUND_CMD_TOL = 1e-8  # ``bound``'s tolerance when none is given, until a cap allows for rounding

#: the suites of ``verify``, which also takes ``all``
SUITES = ("hardy", "transform", "bounds", "existence", "convergence")

#: setting -> the one suite of ``verify`` (besides ``all``) that reads it
VERIFY_READERS = {"tol": "transform", "L": "bounds", "m": "bounds", "doublings": "bounds",
                  "constants": "bounds"}


@dataclass
class RunConfig:
    """Effective configuration after merging defaults, file, and flags."""

    theorem: Optional[str] = None
    d: int = 1
    n: int = 0
    variant: str = "one"
    potential: Optional[dict] = None
    l: Optional[int] = None
    L: float = DEFAULT_L
    m: int = DEFAULT_M
    doublings: int = 1
    tol: Optional[float] = None  # None: the command's own default
    constants: dict = field(default_factory=lambda: {"3": DEFAULT_CLR_CONSTANTS.values[3]})
    suite: Optional[str] = None
    sweep: Optional[dict] = None
    json_out: Optional[str] = None
    csv_out: Optional[str] = None

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        return cls(**data)


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


def _classical_constant(d: int) -> float:
    """L^cl_(0,d) = omega_d / (2 pi)^d, the Weyl limit: no CLR constant lies below it."""
    return 1.0 / (math.gamma(d / 2 + 1) * (4 * math.pi) ** (d / 2))


def _constants_from_config(cfg: RunConfig) -> BoundConstants:
    try:
        values = {int(k): float(v) for k, v in cfg.constants.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad CLR constant table: {exc}") from exc
    for d, c in values.items():
        if d < 1:
            raise ConfigError(f"CLR constants are indexed by a dimension d >= 1, got d = {d}")
        if not math.isfinite(c) or c < _classical_constant(d):
            raise ConfigError(f"CLR constant for d = {d} must be finite and at least the "
                              f"classical constant {_classical_constant(d):.5g}, got {c}")
    base = DEFAULT_CLR_CONSTANTS
    return BoundConstants(values={**base.values, **values},
                          placeholders=base.placeholders - values.keys())


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
        flat["notes"] = "; ".join(row.get("notes", ()))
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
    sweep = data.get("sweep")
    if isinstance(sweep, dict):
        data = {**data, **{k: sweep[k] for k in SETTINGS if k in sweep},
                "sweep": {k: v for k, v in sweep.items() if k not in SETTINGS}}
    cfg = RunConfig.from_dict(data)
    known = {f.name for f in fields(RunConfig)}
    for key, value in vars(args).items():
        if key in known and value is not None:
            setattr(cfg, key, parse_potential_literal(value) if key == "potential" else value)
    if args.C3 is not None:
        cfg.constants = {**cfg.constants, "3": args.C3}
    if cfg.csv_out is not None and args.command != "sweep":
        raise ConfigError(f"csv_out is a setting of sweep; {args.command} writes no CSV")
    _validate(cfg)
    return cfg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate(cfg: RunConfig) -> None:
    for key in ("d", "n", "m", "doublings", "l"):
        value = getattr(cfg, key)
        if not (_is_int(value) or key == "l" and value is None):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    for key in ("L", "tol"):
        value = getattr(cfg, key)
        if value is None and key == "tol":
            continue
        if not (_is_int(value) or isinstance(value, float)) or not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if not isinstance(cfg.constants, dict):
        raise ConfigError(f"constants must be an object of d -> C_d, got {cfg.constants!r}")
    _constants_from_config(cfg)
    for key in ("potential", "sweep"):
        value = getattr(cfg, key)
        if value is not None and not isinstance(value, dict):
            raise ConfigError(f"{key} must be an object, got {value!r}")
    if cfg.doublings < 0:
        raise ConfigError(f"doublings must be >= 0, got {cfg.doublings}")
    if cfg.variant not in VARIANTS:
        raise ConfigError(f"variant must be {' or '.join(map(repr, VARIANTS))}, "
                          f"got {cfg.variant!r}")
    if cfg.n < 0 or cfg.d < 1:
        raise ConfigError(f"need d >= 1 and n >= 0, got d={cfg.d}, n={cfg.n}")
    if cfg.l is not None and cfg.l < 0:
        raise ConfigError(f"channel index l must be >= 0, got {cfg.l}")
    if cfg.L <= 0 or cfg.m < 2:
        raise ConfigError(f"need L > 0 and m >= 2, got L={cfg.L}, m={cfg.m}")
    if cfg.tol is not None and cfg.tol <= 0:
        raise ConfigError(f"tolerance must be positive, got {cfg.tol}")
    if cfg.theorem is not None and cfg.theorem not in THEOREMS:
        raise ConfigError(f"theorem must be one of {', '.join(THEOREMS)}, got {cfg.theorem!r}")


def _bound_constants(cfg: RunConfig, spec: OperatorSpec) -> BoundConstants:
    """The CLR constants of a bound on ``spec``; a t42 bound needs its C_d."""
    constants = _constants_from_config(cfg)
    if cfg.theorem == "t42" and spec.d not in constants.values:
        raise ConfigError(f'no CLR constant for d = {spec.d}: set constants["{spec.d}"]')
    return constants


def _operator_for(cfg: RunConfig) -> OperatorSpec:
    if cfg.theorem is None:
        raise ConfigError(f"this command needs --theorem {'|'.join(THEOREMS)}")
    try:
        return theorem_operator(cfg.theorem, cfg.d, cfg.n, cfg.variant)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_bound(cfg: RunConfig) -> tuple[int, dict]:
    V = _potential_from_config(cfg)
    spec = _operator_for(cfg)
    if cfg.tol is None:
        cfg.tol = BOUND_CMD_TOL
    bv = theorem_bound(cfg.theorem, V, spec, constants=_bound_constants(cfg, spec), tol=cfg.tol)
    print(f"theorem    : {cfg.theorem}")
    print(f"operator   : d={spec.d} n={spec.n} variant={spec.variant} "
          f"threshold={spec.threshold.value:.9g}")
    print(f"potential  : {describe_potential(V)}")
    raw = "inf" if math.isinf(bv.raw) else f"{bv.raw:.12g}"
    if bv.integer_cap is not None and math.floor(float(raw)) != bv.integer_cap:
        raw = repr(bv.raw)  # 12 digits would round past the integer that caps it
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
    return EXIT_OK, {
        "bound_raw": bv.raw,
        "bound_cap": bv.integer_cap,
        "error_estimate": bv.diagnostics.error_estimate,
        "evaluations": bv.diagnostics.evaluations,
        "warnings": list(bv.diagnostics.warnings),
        "notes": list(bv.diagnostics.notes),
        "channels": [{"l": c.l, "degeneracy": c.degeneracy, "integral": c.integral}
                     for c in bv.channels],
    }


def cmd_count(cfg: RunConfig) -> tuple[int, dict]:
    V = _potential_from_config(cfg)
    if cfg.d == 1 and cfg.l not in (None, 0):
        raise ConfigError("d = 1 has no angular channels")
    if cfg.theorem is None:
        cfg.theorem = "t41" if cfg.d == 1 else "t43"
    spec = _operator_for(cfg)
    if spec.d == 1 or cfg.l is not None:
        res = count_negative(
            spec, V, l=cfg.l, L=cfg.L, m=cfg.m, doublings=cfg.doublings
        )
        print(f"count      : {res.negative_count}")
        for step in res.trail:
            print(f"refinement : L={step['L']} m={step['m']} count={step['count']}")
        if res.ambiguous:
            print(f"warning    : pivot ambiguity, count interval {res.pivot_interval}")
        return EXIT_OK, {"count": res.negative_count, "trail": list(res.trail)}
    total, table = total_central_count(spec, V, L=cfg.L, m=cfg.m, doublings=cfg.doublings)
    print(f"total count: {total}")
    for row in table:
        print(f"channel l={row['l']}: degeneracy={row['degeneracy']} count={row['count']}")
    return EXIT_OK, {"count": total, "channels": table}


def cmd_verify(cfg: RunConfig) -> tuple[int, dict]:
    suite = cfg.suite or "all"
    if suite not in (*SUITES, "all"):
        raise ConfigError(f"unknown suite {suite!r}")
    defaults = RunConfig()
    for key, reader in VERIFY_READERS.items():
        if suite not in (reader, "all") and getattr(cfg, key) != getattr(defaults, key):
            raise ConfigError(f"{key} is a setting of verify {reader} (and of verify all); "
                              f"verify {suite} does not read it")
    reports = []
    failed = False
    warned = False

    if suite in ("hardy", "all"):
        rep = run_hardy_positivity()
        reports.append({"suite": "hardy", **asdict(rep)})
        print(f"hardy       : min quotient {rep.min_quotient:.3e} "
              f"{'PASS' if rep.passed else 'FAIL'}")
        failed |= not rep.passed
    if suite in ("transform", "all"):
        if cfg.tol is None:
            cfg.tol = TRANSFORM_TOL
        rep = run_transform_identity(tol=cfg.tol)
        reports.append({"suite": "transform", **asdict(rep)})
        print(f"transform   : max discrepancy {rep.max_discrepancy:.3e} "
              f"{'PASS' if rep.passed else 'FAIL'}")
        failed |= not rep.passed
    if suite in ("bounds", "all"):
        ok = True
        constants = _constants_from_config(cfg)
        for theorem, spec, sweep in default_sweeps():
            rows = run_bound_sweep(sweep, theorem, spec, cfg.L, cfg.m, cfg.doublings,
                                   constants=constants)
            rows_ok = all(r.satisfied for r in rows)
            ok &= rows_ok
            reports.append({"suite": f"bounds-{theorem}",
                            "rows": [asdict(r) for r in rows],
                            "passed": rows_ok})
            print(f"bounds {theorem}  : {len(rows)} rows "
                  f"{'PASS' if rows_ok else 'FAIL'}")
        # illustrative, not pass/fail: the extra contribution that appears in
        # the CLR-type bound for every d >= 4 but not at d = 3
        z3, z5 = (theorem_bound("t42", ZeroPotential(), theorem_operator("t42", d, 0, "zero"),
                                constants=constants) for d in (3, 5))
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
        reports.append({"suite": "existence", **asdict(rep)})
        inconclusive = [c for c in rep.cases if c.status == "inconclusive"]
        warned |= bool(inconclusive)
        print(f"existence   : {len(rep.cases)} cases, "
              f"{len(inconclusive)} inconclusive "
              f"{'PASS' if rep.passed else 'FAIL'}")
        failed |= not rep.passed
    if suite in ("convergence", "all"):
        spec = OperatorSpec(1, 0, "zero")
        rep = run_convergence_study(spec, SquareWell(c=16.0, a=1.0, b=2.0))
        reports.append({"suite": "convergence", **asdict(rep)})
        print(f"convergence : stabilized={rep.stabilized} "
              f"count={rep.stable_count} "
              f"{'PASS' if rep.stabilized else 'INCONCLUSIVE'}")

    if warned and not failed:
        print("note        : some existence cases inconclusive (window-limited)")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK, {"reports": reports}


def cmd_sweep(cfg: RunConfig) -> tuple[int, dict]:
    if not cfg.sweep:
        raise ConfigError("sweep needs a 'sweep' object in the config file")
    spec = _operator_for(cfg)
    try:
        sweep = SweepSpec(**cfg.sweep)
    except (TypeError, DomainError) as exc:
        raise ConfigError(f"bad sweep specification: {exc}") from exc
    if cfg.tol is None:
        cfg.tol = BOUND_TOL
    rows = run_bound_sweep(sweep, cfg.theorem, spec, cfg.L, cfg.m, cfg.doublings,
                           constants=_bound_constants(cfg, spec), tol=cfg.tol)
    dicts = [asdict(r) for r in rows]
    for r in rows:
        cap = "inf" if r.bound_cap is None else r.bound_cap
        print(f"{r.experiment_id}: count={r.count} cap={cap} "
              f"{'ok' if r.satisfied else 'VIOLATED'}")
    if cfg.csv_out:
        write_csv_rows(cfg.csv_out, dicts)
    return EXIT_OK if all(r.satisfied for r in rows) else EXIT_VERIFY_FAILED, {"rows": dicts}


def show_defaults() -> None:
    """Print the defaults the commands use, read from where they are set."""
    cfg = RunConfig()
    rows = {key: getattr(cfg, key) for key in ("d", "n", "variant", "L", "m", "doublings")}
    rows.update({f"C_{d}": c for d, c in cfg.constants.items()})
    rows.update(bound_tol=BOUND_CMD_TOL, sweep_tol=BOUND_TOL,
                verify_transform_tol=TRANSFORM_TOL,
                existence_max_window=MAX_EXISTENCE_WINDOW,
                transform_depth_cap=DEPTH_CAP)
    print("default settings:")
    for key, value in rows.items():
        print(f"  {key:<24} {value}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built on the first call and shared by every later
    one; each ``parse_args`` returns a new namespace."""
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
        p.add_argument("--variant", choices=VARIANTS, default=None)
        p.add_argument("--potential",
                       help="family:key=value,... e.g. square_well:c=1,a=1,b=2")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--L", type=float, default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--doublings", type=int, default=None)
        p.add_argument("--C3", type=float, default=None,
                       help="CLR constant for d = 3")
        p.add_argument("--json", dest="json_out", default=None)

    p_bound = sub.add_parser("bound", help="evaluate a count bound")
    common(p_bound)
    p_bound.add_argument("--theorem", choices=THEOREMS, default=None,
                         help="t41: line/half-line; t42: CLR-type d>=3; "
                              "t43: central partial-wave")

    p_count = sub.add_parser("count", help="discrete negative-eigenvalue count")
    common(p_count)
    p_count.add_argument("--theorem", choices=THEOREMS, default=None)
    p_count.add_argument("--l", type=int, default=None, help="single channel index")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify)
    p_verify.add_argument("suite", nargs="?", default=None,
                          choices=(*SUITES, "all"))

    p_sweep = sub.add_parser("sweep", help="run a parameter ladder")
    common(p_sweep)
    p_sweep.add_argument("--theorem", choices=THEOREMS, default=None)
    p_sweep.add_argument("--csv", dest="csv_out", default=None)

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
        handler = {
            "bound": cmd_bound,
            "count": cmd_count,
            "verify": cmd_verify,
            "sweep": cmd_sweep,
        }[args.command]
        code, payload = handler(cfg)
        if cfg.json_out:
            write_json_report(cfg.json_out, {"config": asdict(cfg), **payload})
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, DomainError, DepthCapError, EvaluationError,
            OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
