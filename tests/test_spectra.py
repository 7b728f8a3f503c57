import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hardybounds import spectra
from hardybounds.bounds import OperatorSpec, central_bound
from hardybounds.errors import DomainError, EvaluationError
from hardybounds.potentials import (
    Potential,
    SquareWell,
    ZeroPotential,
    transform_potential,
)
from hardybounds.spectra import (
    Grid,
    TridiagonalOperator,
    assemble,
    channel_potential,
    count_negative,
    inertia_negative_count,
    lowest_eigenvalues,
    total_central_count,
    transformed_window_start,
)
from test_potentials import Formless


SRC = Path(__file__).resolve().parents[1] / "src"


def dense_negative_count(T, shift=0.0):
    """Oracle: full eigendecomposition of the dense matrix."""
    return int(np.sum(np.linalg.eigvalsh(T.dense()) < shift))


class TestAssemble:
    def test_free_stencil(self):
        T = assemble(lambda s: 0.0, Grid(0.0, 4.0, 3))
        assert np.allclose(T.diagonal, [2.0, 2.0, 2.0])
        assert np.allclose(T.off_diagonal, [-1.0, -1.0])

    def test_constant_shift(self):
        grid = Grid(-1.0, 1.0, 17)
        T0 = assemble(lambda s: 0.0, grid)
        T5 = assemble(lambda s: 5.0, grid)
        assert np.allclose(T5.diagonal - T0.diagonal, 5.0)

    def test_linear_potential_samples_interior_points(self):
        T = assemble(lambda s: s, Grid(0.0, 4.0, 3))
        assert np.allclose(T.diagonal, [2.0 + 1.0, 2.0 + 2.0, 2.0 + 3.0])

    def test_evaluation_error_carries_grid_index(self):
        # the tower exp^(3) s of a V without a support leaves the doubles
        W = transform_potential(Formless(), 3)
        with pytest.raises(EvaluationError, match="grid index"):
            assemble(W, Grid(-5.0, 5.0, 10))

    @pytest.mark.parametrize("L", [1e-150, 1e-300])
    def test_step_past_the_double_range_is_an_evaluation_error(self, L):
        # 1e-150: (1/h^2)^2 overflows in the Sturm recurrence; 1e-300: h^2 is 0
        with pytest.raises(EvaluationError, match="h = "):
            assemble(lambda s: 0.0, Grid(0.0, L, 4000))
        with pytest.raises(EvaluationError, match="h = "):
            count_negative(OperatorSpec(1, 0, "one"), ZeroPotential(), L=L)

    @pytest.mark.parametrize("L", [1e160, 1e308])
    def test_step_too_large_for_the_stencil_is_an_evaluation_error(self, L):
        # 1/h^2 underflows (or h^2 overflows), which decoupled every row, so
        # that each read as a zero pivot: count_negative returned m
        with pytest.raises(EvaluationError, match="is too large"):
            assemble(lambda s: 0.0, Grid(0.0, L, 4000))
        with pytest.raises(EvaluationError, match="is too large"):
            count_negative(OperatorSpec(1, 0, "one"), SquareWell(c=4.0, a=1.0, b=2.0), L=L)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_window_that_is_not_finite_is_a_domain_error(self, L):
        with pytest.raises(DomainError, match="finite L"):
            count_negative(OperatorSpec(1, 0, "one"), SquareWell(c=4.0, a=1.0, b=2.0), L=L, m=100)

    def test_infinite_potential_values_are_an_evaluation_error(self):
        with pytest.raises(EvaluationError, match="assembled matrix"):
            assemble(lambda s: np.where(s > 0.5, np.inf, 0.0), Grid(0.0, 1.0, 10))

    def test_a_well_is_read_only_on_the_rows_inside_its_image(self):
        spec = OperatorSpec(1, 0, "one")
        W = channel_potential(SquareWell(c=40.0, a=1.0, b=2.0), spec, None)
        grid = Grid(0.0, 20.0, 4000)
        inside = int(np.count_nonzero((grid.points() > 0.0) & (grid.points() < math.log(2.0))))
        read = []

        class Spy(type(W)):
            def __call__(self, s):
                read.append(len(s))
                return super().__call__(s)

        T = assemble(Spy(W.base, W.steps), grid)
        assert read == [inside]
        # row 0 is inside; the free rows after the well are held as _MIN_RUN rows
        assert len(T._rows[0]) == inside + spectra._MIN_RUN and T.size == grid.m
        want = assemble(lambda s: W(s), grid)  # read on every row
        assert np.array_equal(T.diagonal, want.diagonal)
        assert spectra._sturm_inputs(T) == spectra._sturm_inputs(want)

    @pytest.mark.parametrize("d", [3, 4])
    def test_an_n0_channel_is_held_outside_the_well_as_its_coupling(self, d):
        # at n = 0, C(s) = 1: W is its coupling exactly outside the image of
        # the well, so channels 1 and 2 hold no more rows than channel 0 (at
        # the parent they held all 4000); at d = 4, l = 1, W reads
        # exp(log 3) there, which is not 3
        spec = OperatorSpec(d, 0, "one")
        V = SquareWell(c=50.0, a=0.5, b=2.0)
        s0 = transformed_window_start(spec, 1)
        grid = Grid(s0, s0 + spectra.DEFAULT_L, spectra.DEFAULT_M)
        held = []
        for l in (0, 1, 2):
            W = channel_potential(V, spec, l)
            T = assemble(W, grid)
            full = assemble(lambda s: W(s), grid)  # read on every row
            held.append(len(T._rows[0]))
            assert np.array_equal(T.diagonal, full.diagonal)
            count = count_negative(spec, V, l=l).negative_count
            assert inertia_negative_count(T) == inertia_negative_count(full) == count
        assert max(held[1:]) <= held[0] < grid.m // 10

    def test_a_count_at_a_million_rows_forms_no_array_of_that_length(self):
        # at the parent the peak was 50.8 MB: W, the diagonals and the Sturm
        # inputs on every row
        spec = OperatorSpec(1, 0, "one")
        V = SquareWell(c=40.0, a=1.0, b=2.0)
        count_negative(spec, V, m=100)
        tracemalloc.start()
        try:
            res = count_negative(spec, V, m=1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.negative_count == 2
        assert peak < 10e6

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            Grid(1.0, 1.0, 10)
        with pytest.raises(DomainError):
            Grid(0.0, 1.0, 1)


class TestTridiagonalOperator:
    def test_squared_coupling_past_the_double_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="double range"):
            TridiagonalOperator(np.array([0.0, 0.0]), np.array([1e200]))

    def test_overflowing_entries_fail_instead_of_hanging(self):
        # the eigenvalue search on this matrix ran forever before ||T|| was
        # checked (every midpoint of its Gershgorin interval was -inf), so it
        # runs in a child process that a deadline can end
        code = ("import numpy as np\n"
                "from hardybounds.errors import DomainError\n"
                "from hardybounds.spectra import TridiagonalOperator, lowest_eigenvalues\n"
                "try:\n"
                "    lowest_eigenvalues(TridiagonalOperator(np.array([-1.5e308, 1.0]),"
                " np.array([1e308])), 1)\n"
                "except DomainError:\n"
                "    print('DomainError')\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=20.0)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "DomainError"


class TestInertiaCount:
    def test_decoupled_diagonal(self):
        T = TridiagonalOperator(np.array([1.0, -2.0, 3.0]), np.zeros(2))
        assert inertia_negative_count(T, 0.0) == 1

    def test_two_by_two(self):
        T = TridiagonalOperator(np.array([2.0, 2.0]), np.array([-1.0]))
        assert inertia_negative_count(T, 0.0) == 0  # eigenvalues 1 and 3

    def test_random_matches_dense_oracle(self):
        rng = np.random.default_rng(20260810)
        for _ in range(100):
            m = int(rng.integers(2, 201))
            diag = rng.uniform(-2.0, 2.0, m)
            off = rng.uniform(-2.0, 2.0, m - 1)
            T = TridiagonalOperator(diag, off)
            assert inertia_negative_count(T, 0.0) == dense_negative_count(T)

    def test_shift_monotone(self):
        rng = np.random.default_rng(7)
        T = TridiagonalOperator(rng.uniform(-2, 2, 60), rng.uniform(-2, 2, 59))
        shifts = np.linspace(-6, 6, 30)
        counts = [inertia_negative_count(T, float(s)) for s in shifts]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[0] == 0 and counts[-1] == 60

    def test_zero_pivot_ambiguity_reported_as_interval(self):
        # eigenvalues exactly {0, 2}: counting below 0 is pivot-ambiguous
        T = TridiagonalOperator(np.array([1.0, 1.0]), np.array([-1.0]))
        res = inertia_negative_count(T, 0.0)
        assert res == (0, 1)

    def test_clear_cases_return_plain_int(self):
        T = TridiagonalOperator(np.array([1.0, 1.0]), np.array([-0.5]))
        assert inertia_negative_count(T, 0.0) == 0


class TestLowestEigenvalues:
    def test_decoupled(self):
        T = TridiagonalOperator(np.array([3.0, 1.0, 2.0]), np.zeros(2))
        assert lowest_eigenvalues(T, 3, tol=1e-12) == pytest.approx(
            [1.0, 2.0, 3.0], abs=1e-11
        )

    def test_free_laplacian_toeplitz_spectrum(self):
        m = 120
        grid = Grid(0.0, float(m + 1), m)  # h = 1
        T = assemble(lambda s: 0.0, grid)
        got = lowest_eigenvalues(T, 10, tol=1e-12)
        exact = [2.0 * (1.0 - math.cos(j * math.pi / (m + 1))) for j in range(1, 11)]
        assert got == pytest.approx(exact, abs=1e-10)

    def test_poschl_teller_ground_state(self):
        grid = Grid(-20.0, 20.0, 8000)
        T = assemble(lambda s: -2.0 / np.cosh(s) ** 2, grid)
        assert inertia_negative_count(T, 0.0) == 1
        e0 = lowest_eigenvalues(T, 1, tol=1e-10)[0]
        assert e0 == pytest.approx(-1.0, abs=1e-3)

    def test_k_validation(self):
        T = TridiagonalOperator(np.array([1.0, 2.0]), np.array([0.0]))
        with pytest.raises(DomainError):
            lowest_eigenvalues(T, 3)

    @pytest.mark.parametrize("k", [1.5, True])
    def test_k_must_be_a_positive_integer(self, k):
        T = TridiagonalOperator(np.array([1.0, 2.0]), np.array([0.0]))
        with pytest.raises(DomainError, match="integer"):
            lowest_eigenvalues(T, k)

    def test_value_stays_in_its_bracket_past_gershgorin_rounding(self):
        # d - radius rounds up to d here (radius 1 is far below an ulp of d),
        # so the unwidened Gershgorin end already counted the eigenvalue
        T = TridiagonalOperator(np.array([-1.474921998521854e-106, -6.780019560371233e+105, 0.0]),
                                np.array([1.0, 0.0]))
        v = lowest_eigenvalues(T, 1)[0]
        assert inertia_negative_count(T, math.nextafter(v, -math.inf)) == 0
        assert inertia_negative_count(T, math.nextafter(v, math.inf)) == 1

    def test_a_subnormal_shift_at_the_band_edge_crosses_a_run(self):
        # a run of 19 rows 1 with couplings 0.5 spans the band [0, 2]; at the
        # shift 5e-324, half of c - 1 rounds to -0.0 and theta was 0 in sin/sin
        T = TridiagonalOperator(np.ones(19), np.full(18, 0.5))
        assert inertia_negative_count(T, 5e-324) == 0
        assert inertia_negative_count(T, -5e-324) == 0

    def test_free_stretches_are_crossed_as_runs(self, monkeypatch):
        # outside the image of the well W = 0, so all but a few rows of the
        # matrix are equal; a plain pass would step all 2000 rows each time
        spec = OperatorSpec(1, 0, "zero")
        V = SquareWell(c=64.0, a=1.0, b=2.0)
        T = assemble(channel_potential(V, spec, None), Grid(-20.0, 20.0, 2000))
        pieces, _ = spectra._sturm_inputs(T)
        plain = sum(len(diag) for diag, _, _ in pieces)
        runs = [run[-1] for _, _, run in pieces if run is not None]
        assert plain <= 100
        assert plain + sum(runs) == T.size
        assert all(k >= spectra._MIN_RUN for k in runs)
        passes = []

        def counted(pieces, shift, sub, _count=spectra._sturm_count):
            passes.append(shift)
            return _count(pieces, shift, sub)

        monkeypatch.setattr(spectra, "_sturm_count", counted)
        got = lowest_eigenvalues(T, 2)
        # 29: bisection isolates each eigenvalue, and false position on the
        # tail's twisted pivot closes its bracket (88 by bisection alone)
        assert 0 < len(passes) <= 40
        assert got == pytest.approx(np.linalg.eigvalsh(T.dense())[:2], abs=1e-9)

    def test_a_matrix_without_a_tail_run_is_bisected(self, monkeypatch):
        # W varies on every row, so no run of equal rows ends the matrix and
        # the search has no twisted pivot to step on
        T = assemble(lambda s: -2.0 / np.cosh(s) ** 2 + 0.01 * s, Grid(-10.0, 10.0, 400))
        pieces, _ = spectra._sturm_inputs(T)
        assert [run for _, _, run in pieces] == [None]
        passes = []

        def counted(pieces, shift, sub, _count=spectra._sturm_count):
            passes.append(shift)
            return _count(pieces, shift, sub)

        monkeypatch.setattr(spectra, "_sturm_count", counted)
        tol = 1e-10
        got = lowest_eigenvalues(T, 3, tol)
        ref = np.linalg.eigvalsh(T.dense())[:3]
        assert np.all(np.abs(np.array(got) - ref) <= tol + 64 * np.finfo(float).eps * T.norm_inf())
        # each probe is a midpoint, which halves a bracket of doubles
        assert len(passes) <= 3 * 64

    @pytest.mark.parametrize("snippet", [
        "lowest_eigenvalues(TridiagonalOperator(np.array([-1e6, 2e6]), np.array([0.0])), 1)",
        "count_negative(OperatorSpec(1, 0, 'one'), SquareWell(c=2e6, a=1, b=2), m=400,"
        " eigenvalues=1)",
    ], ids=["diagonal", "deep-well"])
    def test_eigenvalues_past_two_to_the_19_terminate(self, snippet):
        # one ulp of these eigenvalues is wider than tol = 1e-10; the search
        # ran forever before it stopped at adjacent doubles, so it runs in a
        # child process that a deadline can end
        code = ("import numpy as np\n"
                "from hardybounds.bounds import OperatorSpec\n"
                "from hardybounds.potentials import SquareWell\n"
                "from hardybounds.spectra import TridiagonalOperator, count_negative, "
                "lowest_eigenvalues\n"
                f"print({snippet})\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=20.0)
        assert proc.returncode == 0, proc.stderr


class TestWindowMapping:
    def test_line_domains_map_to_whole_line(self):
        for n in (0, 1, 2):
            spec = OperatorSpec(1, n, "zero")
            assert transformed_window_start(spec, n + 1) == -math.inf

    def test_variant_one_maps_to_origin(self):
        for n in (0, 1, 2):
            spec = OperatorSpec(1, n, "one")
            assert transformed_window_start(spec, n + 1) == 0.0

    def test_clr_domains_map_inside(self):
        spec = OperatorSpec(3, 0, "zero", threshold_depth=2)
        assert transformed_window_start(spec, 1) == pytest.approx(1.0)
        spec1 = OperatorSpec(3, 0, "one", threshold_depth=2)
        assert transformed_window_start(spec1, 1) == pytest.approx(math.e)


class TestCountNegative:
    def test_zero_potential_counts_zero(self):
        for variant in ("zero", "one"):
            for n in (0, 1):
                spec = OperatorSpec(1, n, variant)
                res = count_negative(spec, ZeroPotential(), L=10.0, m=500)
                assert res.negative_count == 0

    def test_halfline_well_below_cap(self):
        spec = OperatorSpec(1, 0, "one")
        res = count_negative(
            spec, SquareWell(c=1.0, a=1.0, b=2.0), L=20.0, m=2000, doublings=1
        )
        assert res.negative_count == 0
        assert all(step["count"] == 0 for step in res.trail)

    def test_line_well_binds(self):
        spec = OperatorSpec(1, 0, "zero")
        res = count_negative(spec, SquareWell(c=1.0, a=1.0, b=2.0), L=20.0, m=2000)
        assert res.negative_count >= 1

    def test_window_monotonicity(self):
        spec = OperatorSpec(1, 0, "zero")
        V = SquareWell(c=16.0, a=1.0, b=2.0)
        counts = [
            count_negative(spec, V, L=L, m=int(100 * L)).negative_count
            for L in (5.0, 10.0, 20.0, 40.0)
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_deep_well_needs_channels_for_d3(self):
        spec = OperatorSpec(3, 0, "one")
        with pytest.raises(DomainError):
            count_negative(spec, SquareWell(c=50.0, a=0.5, b=2.0))

    def test_depth_cap_on_transform_steps(self):
        from hardybounds.errors import DepthCapError

        spec = OperatorSpec(1, 3, "one")
        with pytest.raises(DepthCapError):
            count_negative(spec, SquareWell(c=1.0, a=1.0, b=2.0), L=5.0, m=100)

    @pytest.mark.parametrize("name, value", [
        pytest.param("doublings", -1, id="-1"),
        pytest.param("doublings", 1.5, id="1.5"),
        pytest.param("doublings", True, id="True"),
        pytest.param("eigenvalues", 1.5, id="eigenvalues-1.5"),
        pytest.param("eigenvalues", True, id="eigenvalues-True"),
    ])
    def test_bad_doublings_are_a_domain_error(self, name, value):
        spec = OperatorSpec(1, 0, "zero")
        with pytest.raises(DomainError, match=name):
            count_negative(spec, ZeroPotential(), L=5.0, m=100, **{name: value})

    def test_requested_eigenvalues_are_sorted(self):
        spec = OperatorSpec(1, 0, "zero")
        res = count_negative(
            spec, SquareWell(c=64.0, a=1.0, b=2.0), L=20.0, m=2000, eigenvalues=4
        )
        lows = list(res.lowest_eigenvalues)
        assert lows == sorted(lows)
        assert sum(1 for e in lows if e < 0.0) == res.negative_count

    def test_an_eigenvalue_count_compresses_its_matrix_once(self, monkeypatch):
        calls = []

        def counted(T, _inputs=spectra._sturm_inputs):
            calls.append(T)
            return _inputs(T)

        monkeypatch.setattr(spectra, "_sturm_inputs", counted)
        res = count_negative(OperatorSpec(1, 0, "zero"), SquareWell(c=64.0, a=1.0, b=2.0),
                             L=20.0, m=2000, eigenvalues=2)
        assert len(calls) == 1
        assert len(res.lowest_eigenvalues) == 2

    def test_eigenvalues_bisected_once_on_the_finest_matrix(self, monkeypatch):
        calls = []

        def counted(T, k, *args, **kwargs):
            calls.append(T)
            return lowest_eigenvalues(T, k, *args, **kwargs)

        monkeypatch.setattr(spectra, "lowest_eigenvalues", counted)
        spec = OperatorSpec(1, 0, "zero")
        V = SquareWell(c=64.0, a=1.0, b=2.0)
        res = count_negative(spec, V, L=10.0, m=500, doublings=2, eigenvalues=2)
        assert len(calls) == 1
        finest = assemble(channel_potential(V, spec, None), Grid(-40.0, 40.0, 2000))
        assert res.m == 2000 and (res.s_min, res.s_max) == (-40.0, 40.0)
        assert res.lowest_eigenvalues == tuple(lowest_eigenvalues(finest, 2))


class CriticalTail(Potential):
    """V = -c/(r^2 ln^2 r) on (e, inf), a test oracle: at d = 1, n = 0 it
    transforms to W = -c/s^2 on s > 1, the borderline of the Hardy stack."""

    family = "critical_tail"

    def __init__(self, c):
        self.c = c

    def evaluate_array(self, r):
        out = np.zeros(r.shape)
        x = r[r > math.e]
        out[r > math.e] = -self.c / (x * x * np.log(x) ** 2)
        return out

    def support(self):
        return (math.e, math.inf)

    def negative_support(self):
        return (math.e, math.inf)


def critical_count(c, S):
    """(nu ln S + arctan 2 nu)/pi with nu = sqrt(c - 1/4), whose floor is the
    Dirichlet count on (0, S) of ``CriticalTail(c)`` for c > 1/4."""
    nu = math.sqrt(c - 0.25)
    return (nu * math.log(S) + math.atan(2.0 * nu)) / math.pi


# (c, S) whose closed form lies at least 0.05 from an integer, which a grid
# count at m = 200 S resolves; c = 100 at S = 20 (10.008) is left out
CRITICAL_CASES = [(c, S) for c in (2.0, 10.0, 100.0) for S in (20.0, 80.0, 300.0)
                  if abs(critical_count(c, S) - round(critical_count(c, S))) >= 0.05]


class TestCriticalTail:
    """The Dirichlet count of -d^2/ds^2 - c/s^2 (s > 1) on (0, S) in variant
    one: the zero-energy solution is s on (0, 1) and s^(1/2) (cos theta +
    sin theta / (2 nu)) past 1, with theta = nu ln s and nu = sqrt(c - 1/4),
    so N_S = floor((nu ln S + arctan 2 nu)/pi) for c > 1/4.  For c <= 1/4 it
    has no zero past 1, so the count is 0."""

    @pytest.mark.parametrize("c, S", CRITICAL_CASES)
    def test_count_is_the_closed_form(self, c, S):
        res = count_negative(OperatorSpec(1, 0, "one"), CriticalTail(c), L=S, m=int(200 * S))
        assert res.negative_count == math.floor(critical_count(c, S))

    @pytest.mark.parametrize("S", [20.0, 80.0, 300.0])
    @pytest.mark.parametrize("c", [0.2, 0.25])
    def test_at_or_below_a_quarter_nothing_binds(self, c, S):
        res = count_negative(OperatorSpec(1, 0, "one"), CriticalTail(c), L=S, m=int(200 * S))
        assert res.negative_count == 0


class TestTotalCentralCount:
    def test_zero_potential(self):
        spec = OperatorSpec(3, 0, "one")
        total, table = total_central_count(spec, ZeroPotential(), L=10.0, m=500)
        # l_max is None: no channel has a negative part, and none is counted
        assert total == 0
        assert table == []

    def test_deep_well_channel_counts_non_increasing(self):
        spec = OperatorSpec(3, 0, "zero")
        total, table = total_central_count(
            spec, SquareWell(c=50.0, a=0.5, b=2.0), L=20.0, m=2000
        )
        counts = [row["count"] for row in table]
        assert counts[0] >= 1
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert total == sum(r["degeneracy"] * r["count"] for r in table)

    def test_total_respects_central_bound_cap(self):
        spec = OperatorSpec(3, 0, "one")
        V = SquareWell(c=1.0, a=1.0, b=2.0)
        total, _ = total_central_count(spec, V, L=20.0, m=2000)
        bv = central_bound(V, spec)
        assert total <= bv.integer_cap
