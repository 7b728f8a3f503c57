"""Verification experiments: positivity checks, transformation-identity
checks, existence checks, bound-vs-count sweeps, and convergence studies.

Everything here is deterministic for a fixed configuration: suites are
generated from fixed placements, iteration orders are fixed, and randomized
self-tests take explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .bounds import (
    BoundConstants,
    DEFAULT_CLR_CONSTANTS,
    OperatorSpec,
    theorem_bound,
    theorem_operator,
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
    DEFAULT_L,
    DEFAULT_M,
    count_negative,
    kinetic_term,
    quadratic_form_value,
    total_central_count,
)
from .testfunctions import bump_suite

#: Window escalation ceiling for existence checks.
MAX_EXISTENCE_WINDOW = 320.0
SWEEP_TOL = 1e-10  # quadrature tolerance of a bound sweep when none is given
TRANSFORM_TOL = 1e-6  # tolerance of the transform-identity suite when none is given


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


def run_transform_identity(
    d_list=(1, 2, 3, 5),
    n_list=(0, 1),
    suite_size: int = 5,
    tol: float = TRANSFORM_TOL,
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
            for V in (ZeroPotential(), _suite_well(lo)):
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


def run_existence_check(
    potentials,
    n: int = 0,
    L: float = DEFAULT_L,
    m: int = DEFAULT_M,
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
        spec = OperatorSpec(1, n, "zero")
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
    """A one-parameter ladder of potentials: ``family`` with ``base_params``,
    and ``vary`` set to each of ``values`` in turn.

    The potentials are built at construction, as ``potentials``, a tuple of
    (value, potential) pairs; a bad family, key or value raises DomainError
    there."""

    family: str
    base_params: dict
    vary: str
    values: tuple

    def __post_init__(self):
        if not isinstance(self.base_params, dict):
            raise DomainError(f"sweep base_params must be an object, got {self.base_params!r}")
        if not self.values:
            raise DomainError("sweep needs a non-empty value list")
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "potentials", tuple(
            (v, make_potential(self.family, {**self.base_params, self.vary: v}))
            for v in self.values
        ))


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


def run_bound_sweep(
    sweep: SweepSpec,
    theorem: str,
    spec: OperatorSpec,
    L: float,
    m: int,
    doublings: int,
    constants: BoundConstants = DEFAULT_CLR_CONSTANTS,
    tol: float = SWEEP_TOL,
) -> list[ExperimentRow]:
    """One row per ladder value: the bound of ``theorem`` on ``spec`` against
    the discrete count at the finest refinement of window L and grid m.
    count <= floor(bound) must hold on every row."""
    rows = []
    for value, V in sweep.potentials:
        bound = theorem_bound(theorem, V, spec, constants=constants, tol=tol)
        if spec.d == 1:
            res = count_negative(spec, V, L=L, m=m, doublings=doublings)
            count, trail = res.negative_count, res.trail
        else:
            count, table = total_central_count(spec, V, L=L, m=m, doublings=doublings)
            trail = tuple(table)
        satisfied = bound.integer_cap is None or count <= bound.integer_cap
        rows.append(
            ExperimentRow(
                experiment_id=f"{theorem}-{sweep.family}-{sweep.vary}={value:g}",
                theorem=theorem,
                d=spec.d,
                n=spec.n,
                variant=spec.variant,
                family=sweep.family,
                params={**sweep.base_params, sweep.vary: value},
                count=count,
                count_trail=trail,
                bound_raw=bound.raw,
                bound_cap=bound.integer_cap,
                satisfied=satisfied,
                L=L,
                m=m,
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


def run_convergence_study(
    spec: OperatorSpec,
    V: Potential,
    l: Optional[int] = None,
    window_ladder=(20.0, 40.0, 80.0),
    grid_ladder=(2000, 4000, 8000),
) -> ConvergenceReport:
    """Counts along a window ladder (grid density held fixed) and a grid
    ladder (largest window held fixed).  Window growth must never lose
    eigenvalues; the grid ladder should go constant.

    A rung (L, m) on both ladders (at the defaults, the last of each) is
    counted once and entered in both trails."""
    if len(window_ladder) < 3 or len(grid_ladder) < 3:
        raise DomainError("ladders need at least 3 rungs")
    counts: dict = {}

    def rung(L, m) -> dict:
        if (L, m) not in counts:
            counts[L, m] = count_negative(spec, V, l=l, L=L, m=m).negative_count
        return {"L": L, "m": m, "count": counts[L, m]}

    density = grid_ladder[0] / window_ladder[0]
    window_trail = [rung(L, max(2, int(round(density * L)))) for L in window_ladder]
    grid_trail = [rung(window_ladder[-1], m) for m in grid_ladder]
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

def default_sweeps() -> list[tuple[str, OperatorSpec, SweepSpec]]:
    """(theorem, operator, ladder of square wells) for each bound."""
    def wells(a, b, values):
        return SweepSpec("square_well", {"a": a, "b": b}, "c", values)

    return [
        ("t41", theorem_operator("t41", 1, 0, "one"), wells(1.0, 2.0, (1, 2, 4, 8, 16, 32, 64))),
        ("t43", theorem_operator("t43", 3, 0, "one"), wells(1.0, 2.0, (1, 2, 4, 8))),
        ("t42", theorem_operator("t42", 3, 0, "zero"), wells(3.0, 6.0, (1, 2, 4, 8, 16))),
    ]
