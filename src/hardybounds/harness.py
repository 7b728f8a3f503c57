"""Verification experiments: positivity checks, transformation-identity
checks, existence checks, bound-vs-count sweeps, and convergence studies.

Everything here is deterministic for a fixed configuration: suites are
generated from fixed placements, iteration orders are fixed, and randomized
self-tests take explicit seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .bounds import (
    BoundConstants,
    DEFAULT_CLR_CONSTANTS,
    OperatorSpec,
    bound_1d,
    central_bound,
    clr_bound,
)
from .iterfun import iterated_exp
from .potentials import (
    Potential,
    SquareWell,
    ZeroPotential,
    describe_potential,
    make_potential,
)
from .spectra import (
    count_negative,
    kinetic_term,
    quadratic_form_value,
    total_central_count,
)
from .testfunctions import bump_suite

#: Window escalation ceiling for existence checks.
MAX_EXISTENCE_WINDOW = 320.0
SWEEP_TOL = 1e-10  # quadrature tolerance of a bound sweep when none is given


def _domain_lo(d: int, n: int) -> float:
    """Left endpoint for test-function placement.

    The transformation identity for even d needs supports inside r > 1, so
    even dimensions at depth 0 are shifted; deeper stacks start above
    exp^(n)(0) >= 1 anyway.
    """
    lo = iterated_exp(0.0, n)
    if d % 2 == 0:
        lo = max(lo, 1.0)
    return lo


def _suite_well(lo: float) -> SquareWell:
    return SquareWell(c=1.0, a=lo + 0.6, b=lo + 3.0)


@dataclass(frozen=True)
class PositivityCase:
    d: int
    n: int
    support: tuple[float, float]
    quotient: float


@dataclass(frozen=True)
class PositivityReport:
    cases: tuple[PositivityCase, ...]
    min_quotient: float
    passed: bool
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "suite": "hardy",
            "passed": self.passed,
            "min_quotient": self.min_quotient,
            "tolerance": self.tolerance,
            "cases": [
                {"d": c.d, "n": c.n, "support": list(c.support), "quotient": c.quotient}
                for c in self.cases
            ],
        }


def run_hardy_positivity(
    d_list=(1, 2, 3, 5),
    n_list=(0, 1, 2),
    suite_size: int = 5,
    tolerance: float = 1e-8,
) -> PositivityReport:
    """Rayleigh quotients of the weighted forms over the bump suite.

    Each quotient is (kinetic - weighted mass) / kinetic and must not dip
    below -tolerance."""
    if not d_list or not n_list:
        raise DomainError("positivity suite needs non-empty d and n lists")
    cases = []
    for d in d_list:
        for n in n_list:
            lo = _domain_lo(d, n)
            for u in bump_suite(lo, suite_size):
                q = quadratic_form_value("original", d, n, u)
                k = kinetic_term(u, d)
                cases.append(PositivityCase(d, n, u.support, q / k))
    mn = min(c.quotient for c in cases)
    return PositivityReport(tuple(cases), mn, mn >= -tolerance, tolerance)


@dataclass(frozen=True)
class IdentityCase:
    d: int
    n: int
    potential: dict
    support: tuple[float, float]
    original: float
    transformed: float
    discrepancy: float


@dataclass(frozen=True)
class IdentityReport:
    cases: tuple[IdentityCase, ...]
    max_discrepancy: float
    passed: bool
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "suite": "transform",
            "passed": self.passed,
            "max_discrepancy": self.max_discrepancy,
            "tolerance": self.tolerance,
            "cases": [
                {
                    "d": c.d,
                    "n": c.n,
                    "potential": c.potential,
                    "support": list(c.support),
                    "original": c.original,
                    "transformed": c.transformed,
                    "discrepancy": c.discrepancy,
                }
                for c in self.cases
            ],
        }


def run_transform_identity(
    d_list=(1, 2, 3, 5),
    n_list=(0, 1),
    suite_size: int = 5,
    tol: float = 1e-6,
    include_well: bool = True,
) -> IdentityReport:
    """Relative discrepancy between the original and transformed quadratic
    forms over the suite, for the zero potential and a square well.

    The discrepancy is normalized by the form scale max(|Q_o|, |Q_t|, kinetic)
    so near-zero form values do not inflate the ratio.
    """
    cases = []
    for d in d_list:
        for n in n_list:
            lo = _domain_lo(d, n)
            pots: list[Potential] = [ZeroPotential()]
            if include_well:
                pots.append(_suite_well(lo))
            for V in pots:
                for u in bump_suite(lo, suite_size):
                    qo = quadratic_form_value("original", d, n, u, V=V)
                    qt = quadratic_form_value("transformed", d, n, u, V=V)
                    scale = max(abs(qo), abs(qt), kinetic_term(u, d))
                    cases.append(
                        IdentityCase(
                            d,
                            n,
                            describe_potential(V),
                            u.support,
                            qo,
                            qt,
                            abs(qo - qt) / scale,
                        )
                    )
    mx = max(c.discrepancy for c in cases)
    return IdentityReport(tuple(cases), mx, mx <= tol, tol)


@dataclass(frozen=True)
class ExistenceCase:
    potential: dict
    n: int
    count: int
    window: float
    status: str  # "confirmed" or "inconclusive"


@dataclass(frozen=True)
class ExistenceReport:
    cases: tuple[ExistenceCase, ...]
    passed: bool  # no case failed outright; inconclusive counts as pass-with-warning
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "suite": "existence",
            "passed": self.passed,
            "warnings": list(self.warnings),
            "cases": [
                {
                    "potential": c.potential,
                    "n": c.n,
                    "count": c.count,
                    "window": c.window,
                    "status": c.status,
                }
                for c in self.cases
            ],
        }


def run_existence_check(
    potentials,
    n: int = 0,
    L: float = 20.0,
    m: int = 4000,
    max_window: float = MAX_EXISTENCE_WINDOW,
) -> ExistenceReport:
    """Every non-zero V <= 0 must produce at least one negative eigenvalue on
    the variant-"zero" line domain.

    A zero count at the default window is not a failure: truncation can push a
    weakly bound state out, so the window doubles (grid along with it) up to
    ``max_window`` before the case is declared inconclusive.
    """
    cases = []
    warnings = []
    for V in potentials:
        spec = OperatorSpec.for_line_bound(n, "zero")
        Lj, mj = L, m
        count = count_negative(spec, V, L=Lj, m=mj).negative_count
        while count == 0 and Lj * 2 <= max_window:
            Lj *= 2
            mj *= 2
            count = count_negative(spec, V, L=Lj, m=mj).negative_count
        status = "confirmed" if count >= 1 else "inconclusive"
        if status == "inconclusive":
            warnings.append(
                f"{describe_potential(V)}: no negative eigenvalue up to window {Lj}"
            )
        cases.append(ExistenceCase(describe_potential(V), n, count, Lj, status))
    return ExistenceReport(tuple(cases), True, tuple(warnings))


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter family of potentials plus the operator and numerics."""

    family: str
    base_params: dict
    vary: str
    values: tuple
    d: int = 1
    n: int = 0
    variant: str = "one"
    L: float = 20.0
    m: int = 4000
    doublings: int = 1

    def __post_init__(self):
        if not self.values:
            raise DomainError("sweep needs a non-empty value list")
        if any(not math.isfinite(float(v)) for v in self.values):
            raise DomainError("sweep values must be finite")

    def potentials(self):
        for v in self.values:
            params = dict(self.base_params)
            params[self.vary] = v
            yield v, make_potential(self.family, params)


@dataclass(frozen=True)
class ExperimentRow:
    experiment_id: str
    theorem: str
    d: int
    n: int
    variant: str
    family: str
    params: dict
    count: int
    count_trail: tuple
    bound_raw: float
    bound_cap: Optional[int]
    satisfied: bool
    L: float
    m: int
    quad_err: float
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {
            "experiment_id": self.experiment_id,
            "theorem": self.theorem,
            "d": self.d,
            "n": self.n,
            "variant": self.variant,
            "family": self.family,
            "params": self.params,
            "count": self.count,
            "count_trail": list(self.count_trail),
            "bound_raw": self.bound_raw,
            "bound_cap": self.bound_cap,
            "satisfied": self.satisfied,
            "L": self.L,
            "m": self.m,
            "quad_err": self.quad_err,
            "notes": list(self.notes),
        }
        return out


def run_bound_sweep(
    sweep: SweepSpec,
    theorem: str,
    constants: BoundConstants = DEFAULT_CLR_CONSTANTS,
    tol: float = SWEEP_TOL,
) -> list[ExperimentRow]:
    """One row per ladder value: discrete count at the finest refinement
    against the floored bound.  count <= cap must hold on every row."""
    if theorem not in ("t41", "t42", "t43"):
        raise DomainError(f"unknown bound selector {theorem!r}")
    if theorem == "t41" and sweep.d != 1:
        raise DomainError("t41 needs d = 1")
    if theorem == "t42" and sweep.d < 3:
        raise DomainError("t42 needs d >= 3")
    if theorem == "t43" and sweep.d < 2:
        raise DomainError("t43 needs d >= 2")

    rows = []
    for value, V in sweep.potentials():
        if theorem == "t41":
            spec = OperatorSpec.for_line_bound(sweep.n, sweep.variant)
            bound = bound_1d(V, spec, tol=tol)
            res = count_negative(spec, V, L=sweep.L, m=sweep.m, doublings=sweep.doublings)
            count, trail = res.negative_count, res.trail
        elif theorem == "t43":
            spec = OperatorSpec.for_central_bound(sweep.d, sweep.n, sweep.variant)
            bound = central_bound(V, spec, tol=tol)
            count, table = total_central_count(
                spec, V, L=sweep.L, m=sweep.m, doublings=sweep.doublings
            )
            trail = tuple(table)
        else:
            spec = OperatorSpec.for_clr_bound(sweep.d, sweep.n, sweep.variant)
            bound = clr_bound(V, spec, constants=constants, tol=tol)
            count_spec = OperatorSpec(
                d=sweep.d, n=sweep.n, variant=sweep.variant, threshold_depth=sweep.n + 2
            )
            count, table = total_central_count(
                count_spec, V, L=sweep.L, m=sweep.m, doublings=sweep.doublings
            )
            trail = tuple(table)
        satisfied = bound.integer_cap is None or count <= bound.integer_cap
        rows.append(
            ExperimentRow(
                experiment_id=f"{theorem}-{sweep.family}-{sweep.vary}={value:g}",
                theorem=theorem,
                d=sweep.d,
                n=sweep.n,
                variant=sweep.variant,
                family=sweep.family,
                params={**sweep.base_params, sweep.vary: value},
                count=count,
                count_trail=trail,
                bound_raw=bound.raw,
                bound_cap=bound.integer_cap,
                satisfied=satisfied,
                L=sweep.L,
                m=sweep.m,
                quad_err=bound.diagnostics.error_estimate,
                notes=bound.diagnostics.warnings + bound.diagnostics.notes,
            )
        )
    return rows


@dataclass(frozen=True)
class ConvergenceReport:
    window_trail: tuple[dict, ...]
    grid_trail: tuple[dict, ...]
    stabilized: bool
    stable_count: Optional[int]

    def to_dict(self) -> dict:
        return {
            "suite": "convergence",
            "stabilized": self.stabilized,
            "stable_count": self.stable_count,
            "window_trail": list(self.window_trail),
            "grid_trail": list(self.grid_trail),
        }


def run_convergence_study(
    spec: OperatorSpec,
    V: Potential,
    l: Optional[int] = None,
    window_ladder=(20.0, 40.0, 80.0),
    grid_ladder=(2000, 4000, 8000),
) -> ConvergenceReport:
    """Counts along a window ladder (grid density held fixed) and a grid
    ladder (largest window held fixed).  Window growth must never lose
    eigenvalues; the grid ladder should go constant."""
    if len(window_ladder) < 3 or len(grid_ladder) < 3:
        raise DomainError("ladders need at least 3 rungs")
    density = grid_ladder[0] / window_ladder[0]
    window_trail = []
    for L in window_ladder:
        m = max(2, int(round(density * L)))
        c = count_negative(spec, V, l=l, L=L, m=m).negative_count
        window_trail.append({"L": L, "m": m, "count": c})
    L_big = window_ladder[-1]
    grid_trail = []
    for m in grid_ladder:
        c = count_negative(spec, V, l=l, L=L_big, m=m).negative_count
        grid_trail.append({"L": L_big, "m": m, "count": c})
    stabilized = grid_trail[-1]["count"] == grid_trail[-2]["count"]
    return ConvergenceReport(
        tuple(window_trail),
        tuple(grid_trail),
        stabilized,
        grid_trail[-1]["count"] if stabilized else None,
    )


# ----------------------------------------------------------------------
# default suites used by `verify bounds`
# ----------------------------------------------------------------------

def default_sweeps() -> list[tuple[SweepSpec, str]]:
    line = SweepSpec(
        family="square_well",
        base_params={"a": 1.0, "b": 2.0},
        vary="c",
        values=(1, 2, 4, 8, 16, 32, 64),
        d=1,
        n=0,
        variant="one",
    )
    central = SweepSpec(
        family="square_well",
        base_params={"a": 1.0, "b": 2.0},
        vary="c",
        values=(1, 2, 4, 8),
        d=3,
        n=0,
        variant="one",
    )
    clr = SweepSpec(
        family="square_well",
        base_params={"a": 3.0, "b": 6.0},
        vary="c",
        values=(1, 2, 4, 8, 16),
        d=3,
        n=0,
        variant="zero",
    )
    return [(line, "t41"), (central, "t43"), (clr, "t42")]
