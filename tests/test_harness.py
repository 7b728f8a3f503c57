import math
from dataclasses import asdict

import pytest

from hardybounds import quadrature
from hardybounds.bounds import OperatorSpec
from hardybounds.cli import _jsonable
from hardybounds.errors import DomainError
from hardybounds.harness import (
    ConvergenceReport,
    SweepSpec,
    run_bound_sweep,
    run_convergence_study,
    run_existence_check,
    run_hardy_positivity,
    run_transform_identity,
)
from hardybounds.potentials import SquareWell, ZeroPotential
from hardybounds.spectra import count_negative


class TestPositivitySuite:
    def test_small_suite_passes(self):
        rep = run_hardy_positivity(d_list=(2, 3), n_list=(0, 1), suite_size=2)
        assert rep.passed
        assert rep.min_quotient >= -1e-8

    def test_d2_depth0_cases_are_trivially_one(self):
        rep = run_hardy_positivity(d_list=(2,), n_list=(0,), suite_size=2)
        for case in rep.cases:
            assert case.quotient == pytest.approx(1.0, rel=1e-9)

    def test_report_serializes(self):
        rep = run_hardy_positivity(d_list=(3,), n_list=(0,), suite_size=1)
        d = _jsonable(asdict(rep))
        assert d["passed"] is True and d["cases"][0]["support"] == list(rep.cases[0].support)

    def test_rejects_empty_suite(self):
        with pytest.raises(DomainError):
            run_hardy_positivity(d_list=(), n_list=(0,))


class TestIdentitySuite:
    def test_identity_suite_small(self):
        rep = run_transform_identity(d_list=(1, 3), n_list=(0,), suite_size=2, tol=1e-6)
        assert rep.passed
        assert rep.max_discrepancy <= 1e-8

    def test_cases_record_both_sides(self):
        rep = run_transform_identity(d_list=(1,), n_list=(0,), suite_size=1)
        case = rep.cases[0]
        assert case.original == pytest.approx(case.transformed, rel=1e-7)


@pytest.mark.parametrize("suite, most", [(run_transform_identity, 1_800),
                                          (run_hardy_positivity, 900)])
def test_the_default_suites_take_few_quadrature_passes(suite, most, monkeypatch):
    # each pass bisects every panel above its share of the target, so the
    # smooth bumps of the suites need few passes: 3,324 and 1,620 when a
    # pass bisected only the worst panel
    passes = []
    gk15 = quadrature._gk15
    monkeypatch.setattr(quadrature, "_gk15", lambda *args: passes.append(args) or gk15(*args))
    assert suite().passed
    assert len(passes) <= most


class TestExistence:
    def test_standard_well_confirmed_at_default_window(self):
        rep = run_existence_check([SquareWell(c=1.0, a=1.0, b=2.0)])
        assert rep.cases[0].status == "confirmed"
        assert rep.cases[0].count >= 1
        assert rep.cases[0].window == 20.0

    def test_weak_well_escalates_window(self):
        rep = run_existence_check([SquareWell(c=0.01, a=1.0, b=2.0)])
        case = rep.cases[0]
        assert case.status == "confirmed"
        assert case.window > 20.0  # needed escalation

    def test_depth_one_well(self):
        rep = run_existence_check(
            [SquareWell(c=1.0, a=math.e, b=math.e**2)], n=1
        )
        assert rep.cases[0].status == "confirmed"

    def test_hopeless_window_is_inconclusive_not_failed(self):
        rep = run_existence_check(
            [SquareWell(c=0.01, a=1.0, b=2.0)], max_window=40.0
        )
        assert rep.cases[0].status == "inconclusive"
        assert rep.passed  # pass-with-warning
        assert rep.warnings


class TestSweeps:
    def test_line_sweep_statisfied_and_ordered(self):
        sweep = SweepSpec(
            family="square_well",
            base_params={"a": 1.0, "b": 2.0},
            vary="c",
            values=(1, 4, 16),
        )
        rows = run_bound_sweep(sweep, "t41", OperatorSpec(1, 0, "one"), L=20.0, m=2000,
                               doublings=0)
        assert [r.params["c"] for r in rows] == [1, 4, 16]
        assert all(r.satisfied for r in rows)
        counts = [r.count for r in rows]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_sweep_rejects_mismatched_theorem(self):
        sweep = SweepSpec(
            family="square_well", base_params={"a": 1.0, "b": 2.0},
            vary="c", values=(1,),
        )
        with pytest.raises(DomainError):
            run_bound_sweep(sweep, "t41", OperatorSpec(3, 0, "one"), L=20.0, m=4000,
                            doublings=1)

    def test_sweep_needs_values(self):
        with pytest.raises(DomainError):
            SweepSpec(family="square_well", base_params={}, vary="c", values=())

    @pytest.mark.parametrize("kwargs", [
        {"values": ("x",)}, {"values": (True,)}, {"values": (1, math.nan)},
        {"values": (1,), "doublings": -1}, {"values": (1,), "doublings": 1.5},
    ])
    def test_sweep_rejects_bad_numbers(self, kwargs):
        kwargs = dict(kwargs)
        doublings = kwargs.pop("doublings", 0)
        with pytest.raises(DomainError):
            sweep = SweepSpec(family="square_well", base_params={"a": 1.0, "b": 2.0},
                              vary="c", **kwargs)
            run_bound_sweep(sweep, "t41", OperatorSpec(1, 0, "one"), L=20.0, m=1000,
                            doublings=doublings)

    def test_t43_row_carries_channel_breakdown(self):
        sweep = SweepSpec(
            family="square_well",
            base_params={"a": 1.0, "b": 2.0},
            vary="c",
            values=(1,),
        )
        rows = run_bound_sweep(sweep, "t43", OperatorSpec(3, 0, "one"), L=20.0, m=1000,
                               doublings=0)
        assert rows[0].satisfied
        assert rows[0].count_trail  # per-channel table

    def test_experiment_row_serializes(self):
        sweep = SweepSpec(
            family="square_well", base_params={"a": 1.0, "b": 2.0}, vary="c", values=(2,),
        )
        row = asdict(run_bound_sweep(sweep, "t41", OperatorSpec(1, 0, "one"), L=20.0, m=1000,
                                     doublings=0)[0])
        for key in ("experiment_id", "theorem", "count", "bound_raw", "satisfied"):
            assert key in row


class TestConvergence:
    def test_zero_potential_constant_zero(self):
        spec = OperatorSpec(1, 0, "zero")
        rep = run_convergence_study(
            spec, ZeroPotential(),
            window_ladder=(5.0, 10.0, 20.0), grid_ladder=(500, 1000, 2000),
        )
        assert rep.stabilized
        assert rep.stable_count == 0
        assert all(r["count"] == 0 for r in rep.window_trail)

    def test_deep_well_stabilizes(self):
        spec = OperatorSpec(1, 0, "zero")
        rep = run_convergence_study(
            spec, SquareWell(c=64.0, a=1.0, b=2.0),
            window_ladder=(5.0, 10.0, 20.0), grid_ladder=(1000, 2000, 4000),
        )
        assert rep.stabilized
        assert rep.stable_count >= 1
        counts = [r["count"] for r in rep.window_trail]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_weak_well_is_window_limited_but_grid_stable(self):
        spec = OperatorSpec(1, 0, "zero")
        rep = run_convergence_study(
            spec, SquareWell(c=0.01, a=1.0, b=2.0),
            window_ladder=(40.0, 160.0, 320.0), grid_ladder=(8000, 16000, 32000),
        )
        counts = [r["count"] for r in rep.window_trail]
        assert counts[0] == 0 and counts[-1] == 1  # window-limited at first
        assert rep.stabilized and rep.stable_count == 1  # grid-stable at large L

    def test_shared_rung_is_counted_once(self, monkeypatch):
        # the defaults of `verify convergence`: both ladders end at (80, 8000)
        import hardybounds.harness as harnessmod

        spec, V = OperatorSpec(1, 0, "zero"), SquareWell(c=16.0, a=1.0, b=2.0)
        calls = []

        def spy(*args, **kwargs):
            calls.append((kwargs["L"], kwargs["m"]))
            return count_negative(*args, **kwargs)

        monkeypatch.setattr(harnessmod, "count_negative", spy)
        rep = run_convergence_study(spec, V)
        assert len(calls) == 5 and len(set(calls)) == 5

        def trail(rungs):
            return tuple({"L": L, "m": m, "count": count_negative(spec, V, L=L, m=m).negative_count}
                         for L, m in rungs)

        window = trail([(20.0, 2000), (40.0, 4000), (80.0, 8000)])
        grid = trail([(80.0, 2000), (80.0, 4000), (80.0, 8000)])
        stable = grid[-1]["count"] == grid[-2]["count"]
        assert asdict(rep) == asdict(ConvergenceReport(
            window, grid, stable, grid[-1]["count"] if stable else None))

    def test_ladder_length_validated(self):
        spec = OperatorSpec(1, 0, "zero")
        with pytest.raises(DomainError):
            run_convergence_study(spec, ZeroPotential(), window_ladder=(5.0, 10.0),
                                  grid_ladder=(100, 200, 400))


class TestCountBoundConsistency:
    """Dirichlet truncation counts never exceed the floored bounds."""

    @pytest.mark.parametrize("c", [1.0, 8.0, 64.0])
    def test_line_counts_below_caps(self, c):
        from hardybounds.bounds import bound_1d

        spec = OperatorSpec(1, 0, "zero")
        V = SquareWell(c=c, a=1.0, b=2.0)
        count = count_negative(spec, V, L=20.0, m=2000).negative_count
        cap = bound_1d(V, spec).integer_cap
        assert count <= cap
