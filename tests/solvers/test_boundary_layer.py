"""Tests for the similarity boundary-layer solver."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from repro.errors import ConvergenceError, InputError
from repro.solvers import boundary_layer
from repro.solvers.boundary_layer import (StagnationSimilarityBL,
                                          solve_falkner_skan)

#: the VSL regime: C rising toward a deeply cooled wall, as a kinked
#: 12-knot piecewise-linear closure
DEEP_G = np.linspace(0.02, 1.0, 12)
DEEP_C = np.array([3.0, 2.0, 1.66, 1.52, 1.42, 1.34, 1.27, 1.21,
                   1.15, 1.09, 1.05, 1.0])
#: converged (f''(0), g'(0)) of that closure at gw = 0.05
DEEP_SLOPES = (0.256951247, 0.179157018)


class TestClassicalValues:
    def test_blasius(self):
        sol = solve_falkner_skan(0.0, Pr=0.71, gw=0.999)
        assert sol.fpp0 == pytest.approx(0.46960, abs=2e-4)

    def test_axisymmetric_stagnation_homann(self):
        sol = solve_falkner_skan(0.5, Pr=0.71, gw=0.999)
        assert sol.fpp0 == pytest.approx(0.927333749, rel=1e-5)

    def test_velocity_profile_monotone(self):
        sol = solve_falkner_skan(0.5, Pr=0.71, gw=0.5)
        assert np.all(np.diff(sol.fp) > -1e-8)
        assert sol.fp[-1] == pytest.approx(1.0, abs=1e-5)

    def test_reynolds_analogy_ballpark(self):
        # for Pr=1, gw->cold: g'(0)/f''(0) ~ (1-gw) scaling
        sol = solve_falkner_skan(0.0, Pr=1.0, gw=0.5)
        # with Pr=1 and beta=0 the Crocco relation makes g linear in f':
        # g = gw + (1-gw) f'
        g_crocco = 0.5 + 0.5 * sol.fp
        assert np.allclose(sol.g, g_crocco, atol=5e-3)

    def test_cooled_wall_increases_heat_parameter(self):
        warm = solve_falkner_skan(0.5, Pr=0.71, gw=0.8)
        cold = solve_falkner_skan(0.5, Pr=0.71, gw=0.2)
        assert cold.gp0 > warm.gp0

    def test_deep_cooling_with_real_gas_C(self):
        sol = solve_falkner_skan(0.5, Pr=0.71, gw=0.05,
                                 C_table=(DEEP_G, DEEP_C))
        assert sol.fpp0 == pytest.approx(DEEP_SLOPES[0], rel=1e-5)
        assert sol.gp0 == pytest.approx(DEEP_SLOPES[1], rel=1e-5)
        assert sol.fp[-1] == pytest.approx(1.0, abs=1e-4)


def _start(closure, gw, slopes, Pr=0.71):
    """The flux-form start state (0, 0, tau(0), gw, q(0)) of wall slopes
    (f''(0), g'(0))."""
    Cw = closure(gw)
    return (0.0, 0.0, Cw * slopes[0], gw, Cw * slopes[1] / Pr)


class TestFloatKernel:
    """The shooting integrator against scipy's RK45 as the reference."""

    @staticmethod
    def _both(table, gw, slopes):
        rhs, closure = boundary_layer._make_rhs(0.5, 0.71, table)
        y0 = _start(closure, gw, slopes)
        end = boundary_layer._dopri45_end(rhs, y0, 8.0)
        ref = solve_ivp(lambda t, z: rhs(*z.tolist()), (0.0, 8.0), list(y0),
                        method="RK45", rtol=1e-9, atol=1e-11)
        assert ref.success
        return np.array(end), ref.y[:, -1]

    def test_matches_scipy_rk45_for_unit_closure(self):
        end, ref = self._both(boundary_layer._UNIT_TABLE, 0.5,
                              (0.748581004, 0.226944751))
        np.testing.assert_allclose(end, ref, rtol=0.0, atol=1e-12)

    def test_matches_scipy_rk45_on_kinked_closure(self):
        # accept/reject decisions near the knots depend on the last bits
        # of the error norm, so the two differ by far more than for C = 1
        end, ref = self._both((DEEP_G, DEEP_C), 0.05, DEEP_SLOPES)
        assert abs(end[1] - ref[1]) <= 1e-6        # f'(eta_max)
        assert abs(end[3] - ref[3]) <= 1e-6        # g(eta_max)

    def test_rejects_unsorted_closure_table(self):
        with pytest.raises(InputError):
            solve_falkner_skan(0.5, gw=0.5, C_table=([0.5, 0.2], [1.0, 2.0]))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("column", [0, 1], ids=["knot", "value"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_closure_table(self, monkeypatch, column,
                                              bad):
        # a NaN knot passes the ordering check (NaN <= x is false) and used
        # to make C NaN beside it, which hung the continuation ladder
        table = [DEEP_G.copy(), DEEP_C.copy()]
        table[column][5] = bad

        def no_integration(*args):
            raise AssertionError("integrated a non-finite closure")

        monkeypatch.setattr(boundary_layer, "_dopri45_end", no_integration)
        with pytest.raises(InputError):
            solve_falkner_skan(0.5, gw=0.05, C_table=tuple(table))

    def test_nan_slope_raises_instead_of_looping(self):
        # a NaN first slope makes the initial step NaN, which never
        # compares below the ten-ulp floor: the reject loop used to spin
        rhs, _ = boundary_layer._make_rhs(0.5, 0.71,
                                          boundary_layer._UNIT_TABLE)
        with pytest.raises(ConvergenceError):
            boundary_layer._dopri45_end(rhs, (0.0, 0.0, np.nan, 0.5, 0.2),
                                        8.0)

    @pytest.mark.parametrize("kwargs", [{"gw": np.nan}, {"Pr": np.inf},
                                        {"eta_max": np.nan}])
    def test_rejects_non_finite_parameters(self, kwargs):
        with pytest.raises(InputError):
            solve_falkner_skan(0.5, **{"gw": 0.5, **kwargs})


def _ref_clip(z):
    """(f, f', f'', g, g') clipped to the right-hand side's bounds."""
    return [min(max(v, lo), hi) for v, lo, hi in
            zip(z, boundary_layer._CLIP_LO, boundary_layer._CLIP_HI)]


def _ref_closure(table):
    """``closure(g) -> (C, dC/dg)`` of the knot table: linear between
    knots, constant beyond them, floored at the module's C floor; looked
    up apart from the module's knot table."""
    G = [float(x) for x in table[0]]
    V = [float(x) for x in table[1]]

    def closure(g):
        j = bisect_right(G, g)
        if 0 < j < len(G):
            dC = (V[j] - V[j - 1]) / (G[j] - G[j - 1])
            C = V[j - 1] + dC * (g - G[j - 1])
        else:
            dC, C = 0.0, V[min(j, len(V) - 1)]
        if C < boundary_layer._C_FLOOR:
            return boundary_layer._C_FLOOR, 0.0
        return C, dC

    return closure


# The list kernel that the five-local kernel replaced, kept as the
# bitwise reference, and a list-taking flux-form right-hand side written
# apart from the module's, with two counters added: ``stats`` counts
# rejected steps and right-hand-side calls with a clip active on
# (f, f', f'', g, g'), f'' = tau/C and g' = Pr q/C formed from the state.
def _ref_make_rhs(beta, Pr, table, stats):
    closure = _ref_closure(table)

    def rhs(z):
        C, _ = closure(_ref_clip(z)[3])
        x = (z[0], z[1], z[2] / C, z[3], Pr * z[4] / C)
        stats["clipped"] += any(
            not lo <= v <= hi for v, lo, hi in
            zip(x, boundary_layer._CLIP_LO, boundary_layer._CLIP_HI))
        f, fp, fpp, g, gp = _ref_clip(x)
        rho_ratio = max(g, boundary_layer._RHO_RATIO_FLOOR)
        return (fp, fpp, -f * fpp - beta * (rho_ratio - fp * fp), gp,
                -f * gp)

    return rhs


def _ref_rms_scaled(v, y0, y1):
    s = 0.0
    for vi, a, b in zip(v, y0, y1):
        e = vi / (boundary_layer._ATOL + max(abs(a), abs(b))
                  * boundary_layer._RTOL)
        s += e * e
    return math.sqrt(s) / 5 ** 0.5


def _ref_initial_step(rhs, y0, f0, t_end):
    d0 = _ref_rms_scaled(y0, y0, y0)
    d1 = _ref_rms_scaled(f0, y0, y0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs([y + h0 * f for y, f in zip(y0, f0)])
    d2 = _ref_rms_scaled([b - a for a, b in zip(f0, f1)], y0, y0) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end)


def _ref_dopri45_end(rhs, y, t_end, stats):
    from repro.solvers.boundary_layer import (
        _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61,
        _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6, _E1, _E3, _E4, _E5,
        _E6, _E7, _ERROR_EXPONENT, _MAX_FACTOR, _MIN_FACTOR, _SAFETY)
    y = list(y)
    f = rhs(y)
    h_abs = _ref_initial_step(rhs, y, f, t_end)
    t = 0.0
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ConvergenceError("BL integration failed")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            k2 = rhs([yi + (_A21 * a) * h for yi, a in zip(y, f)])
            k3 = rhs([yi + (_A31 * a + _A32 * b) * h
                      for yi, a, b in zip(y, f, k2)])
            k4 = rhs([yi + (_A41 * a + _A42 * b + _A43 * c) * h
                      for yi, a, b, c in zip(y, f, k2, k3)])
            k5 = rhs([yi + (_A51 * a + _A52 * b + _A53 * c + _A54 * d) * h
                      for yi, a, b, c, d in zip(y, f, k2, k3, k4)])
            k6 = rhs([yi + (_A61 * a + _A62 * b + _A63 * c + _A64 * d
                            + _A65 * e) * h
                      for yi, a, b, c, d, e in zip(y, f, k2, k3, k4, k5)])
            y_new = [yi + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e
                               + _B6 * k)
                     for yi, a, c, d, e, k in zip(y, f, k3, k4, k5, k6)]
            f_new = rhs(y_new)
            err = [(_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * k
                    + _E7 * n) * h
                   for a, c, d, e, k, n in zip(f, k3, k4, k5, k6, f_new)]
            error_norm = _ref_rms_scaled(err, y, y_new)
            if error_norm < 1.0:
                # catlint: disable=CAT010 -- scipy's exact-zero branch
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
            stats["rejected"] += 1
        t, y, f = t_new, y_new, f_new
    return y


def _bench_closure():
    """The kernel microbenchmark's 48-knot closure (gw = 0.035)."""
    h = np.geomspace(1.5e5, 1.2e7, 48)
    rho_mu = 3e-6 * (h / 1e7) ** -0.3 * (1.0 + 0.2 / (1.0 + (h / 4e6) ** 4))
    return h / 1e7, rho_mu / float(np.interp(1e7, h, rho_mu))


class TestKernelBitwise:
    """The five-local kernel on the module's flux-form right-hand side
    against the list kernel on the reference one: equal end states, bit
    for bit, with the same rhs call count."""

    # converged slopes, the shooting's first trial (0.47 + 0.62 beta,
    # 0.35 (1 - gw)), whose steps touch the clips and whose error norms
    # depend on the order of the RMS sum, and a hopeless trial
    CASES = {
        "unit-gw0.5": (boundary_layer._UNIT_TABLE, 0.5,
                       (0.748581004, 0.226944751)),
        "unit-gw0.082-first": (boundary_layer._UNIT_TABLE, 0.082,
                               (0.78, 0.35 * (1.0 - 0.082))),
        "deep-gw0.05": ((DEEP_G, DEEP_C), 0.05, DEEP_SLOPES),
        "deep-gw0.03": ((DEEP_G, DEEP_C), 0.03,
                        (0.235061549, 0.169295501)),
        "bench-gw0.035": (_bench_closure(), 0.035,
                          (0.213581941, 0.151262969)),
        "bench-gw0.035-first": (_bench_closure(), 0.035,
                                (0.78, 0.35 * (1.0 - 0.035))),
        "runaway": ((DEEP_G, DEEP_C), 0.05, (0.01, 2.0)),
    }

    @staticmethod
    def _run(name):
        table, gw, slopes = TestKernelBitwise.CASES[name]
        calls = {"new": 0}
        rhs, closure = boundary_layer._make_rhs(0.5, 0.71, table)
        y0 = _start(closure, gw, slopes)

        def counted(*z):
            calls["new"] += 1
            return rhs(*z)

        stats = {"rejected": 0, "clipped": 0, "calls": 0}
        ref_rhs = _ref_make_rhs(0.5, 0.71, table, stats)

        def ref_counted(z):
            stats["calls"] += 1
            return ref_rhs(z)

        end = boundary_layer._dopri45_end(counted, y0, 8.0)
        ref = _ref_dopri45_end(ref_counted, y0, 8.0, stats)
        return end, ref, calls["new"], stats

    @pytest.mark.parametrize("name", list(CASES))
    def test_end_state_is_bitwise_the_list_kernel(self, name):
        end, ref, calls, stats = self._run(name)
        assert end == ref
        assert calls == stats["calls"]

    def test_cases_exercise_rejects_and_clips(self):
        # the pins cover the step-reject path and the clips
        assert self._run("deep-gw0.05")[3]["rejected"] > 0
        assert self._run("runaway")[3]["clipped"] > 0


def _expanded_rhs(beta, Pr, table):
    """The similarity system on (f, f', f'', g, g') with (C f'')' and
    (C g'/Pr)' expanded through the segment slope dC/dg, as integrated
    before the flux form: a ``solve_ivp`` right-hand side."""
    closure = _ref_closure(table)

    def rhs(t, z):
        f, fp, fpp, g, gp = _ref_clip(z.tolist())
        C, dC = closure(g)
        Cp = dC * gp
        rho_ratio = max(g, boundary_layer._RHO_RATIO_FLOOR)
        return [fp, fpp,
                (-f * fpp - beta * (rho_ratio - fp * fp) - Cp * fpp) / C,
                gp, -f * gp * Pr / C - Cp / C * gp]

    return rhs


class TestFluxForm:
    """The flux-form system against the expanded form it replaced."""

    @pytest.mark.parametrize("name", ["deep-gw0.05", "bench-gw0.035"])
    def test_flux_and_expanded_forms_solve_one_ode(self, name):
        table, gw, slopes = TestKernelBitwise.CASES[name]
        rhs, closure = boundary_layer._make_rhs(0.5, 0.71, table)
        # tighter than the solver's 1e-9: at 1e-9 the expanded form's own
        # error on the 48-knot table is 1.5e-6 in f'(eta_max)
        kw = dict(method="RK45", rtol=1e-11, atol=1e-13)
        flux = solve_ivp(lambda t, z: rhs(*z.tolist()), (0.0, 8.0),
                         list(_start(closure, gw, slopes)), **kw)
        expanded = solve_ivp(_expanded_rhs(0.5, 0.71, table), (0.0, 8.0),
                             [0.0, 0.0, slopes[0], gw, slopes[1]], **kw)
        assert flux.success and expanded.success
        assert abs(flux.y[1, -1] - expanded.y[1, -1]) <= 1e-6   # f'
        assert abs(flux.y[3, -1] - expanded.y[3, -1]) <= 1e-6   # g

    def test_knots_no_longer_cost_rejected_steps(self):
        # the expanded form's dC/dg jumps at each of the 48 knots: 7,058
        # rhs calls for this integration, against ~1,000 for C = 1
        table, gw, slopes = TestKernelBitwise.CASES["bench-gw0.035"]
        rhs, closure = boundary_layer._make_rhs(0.5, 0.71, table)
        calls = []

        def counted(*z):
            calls.append(1)
            return rhs(*z)

        boundary_layer._dopri45_end(counted, _start(closure, gw, slopes),
                                    8.0)
        assert len(calls) <= 3500


def _analytic_end(calls):
    """A stand-in for ``_dopri45_end``: the end state of the start state
    (0, 0, tau(0), gw, q(0)) is an analytic map whose residual
    (f'(eta_max) - 1, g(eta_max) - 1) vanishes at tau(0) = 1.2,
    q(0) = 0.6.  Each call appends (tau(0), q(0), max|r|) to ``calls``."""

    def end(rhs, y, t_end):
        tau, q = y[2], y[4]
        r1 = math.tanh(4.0 * (tau - 1.2)) + 0.3 * (q - 0.6)
        r2 = (q - 0.6) + 0.5 * (tau - 1.2) ** 2
        calls.append((tau, q, max(abs(r1), abs(r2))))
        return [0.0, 1.0 + r1, 0.0, 1.0 + r2, 0.0]

    return end


def _iterates(calls):
    """Split a shooting solve's integrations into its iterates: returns
    max|r| per iterate and the iterates followed by a finite-difference
    Jacobian (two probes, one per wall slope, from the iterate)."""
    r, fresh, i = [], [], 0
    while i < len(calls):
        tau, q, r_max = calls[i]
        r.append(r_max)
        probes = calls[i + 1:i + 3]
        if (len(probes) == 2 and probes[0][0] > tau and probes[0][1] == q
                and probes[1][0] == tau and probes[1][1] > q):
            fresh.append(len(r) - 1)
            i += 3
        else:
            i += 1
    return r, fresh


class TestBroydenShooting:
    def test_update_and_refresh_on_an_analytic_map(self, monkeypatch):
        calls = []
        monkeypatch.setattr(boundary_layer, "_dopri45_end",
                            _analytic_end(calls))
        sol = solve_falkner_skan(0.5, Pr=0.71, gw=0.5)
        # C = 1: tau(0) = f''(0) and q(0) = g'(0)/Pr
        assert sol.fpp0 == pytest.approx(1.2, abs=1e-5)
        assert sol.gp0 / 0.71 == pytest.approx(0.6, abs=1e-5)
        r, fresh = _iterates(calls)
        assert r[-1] < 1e-6 and min(r[:-1]) >= 1e-6
        # a finite-difference Jacobian at the start and after each step
        # that does not reduce max|r|; every other iteration integrates
        # once, on a Broyden-updated Jacobian
        assert fresh == [0] + [k for k in range(1, len(r) - 1)
                               if r[k] >= r[k - 1]]
        assert len(calls) == len(r) + 2 * len(fresh)
        # the map makes the first Broyden step overshoot, so both
        # branches run
        assert fresh == [0, 2]
        assert len(r) - 1 - len(fresh) >= 3

    def test_stagnation_figs_integration_budget(self, monkeypatch):
        # perfbench's stagnation-figs solves: fig 2 quick at two points,
        # figs 3 and 6 quick (65 integrations with Newton shooting, 40
        # with Broyden updates from the flux-form start)
        from repro.experiments import (fig2_titan_heating,
                                       fig3_species_profiles,
                                       fig6_windward_heating)
        shots = []
        kernel, shoot = boundary_layer._dopri45_end, boundary_layer._shoot

        def counted_kernel(*args):
            shots[-1] += 1
            return kernel(*args)

        def counted_shoot(*args, **kwargs):
            shots.append(0)
            return shoot(*args, **kwargs)

        monkeypatch.setattr(boundary_layer, "_dopri45_end", counted_kernel)
        monkeypatch.setattr(boundary_layer, "_shoot", counted_shoot)
        fig2_titan_heating.run(quick=True, n_points=2)
        fig3_species_profiles.run(quick=True)
        fig6_windward_heating.run(quick=True)
        assert len(shots) == 5      # one direct shot each: no ladder rung
        assert sum(shots) <= 45, shots


class TestSafeguards:
    def test_continuation_ladder_returns_the_direct_answer(self, monkeypatch):
        shot_gw = []
        shoot = boundary_layer._shoot

        def counting_shoot(beta, Pr, gw, *args, **kwargs):
            shot_gw.append(gw)
            return shoot(beta, Pr, gw, *args, **kwargs)

        monkeypatch.setattr(boundary_layer, "_shoot", counting_shoot)
        # a hopeless first guess fails the direct shoot and forces the
        # five continuation rungs
        sol = solve_falkner_skan(0.5, Pr=0.71, gw=0.05,
                                 C_table=(DEEP_G, DEEP_C),
                                 _guess=(0.01, 2.0))
        assert shot_gw == pytest.approx([0.05, 0.8, 0.575, 0.35, 0.1625,
                                         0.05])
        assert sol.fpp0 == pytest.approx(0.256951, abs=1e-5)
        assert sol.gp0 == pytest.approx(0.179157, abs=1e-5)

    def test_no_safeguard_active_at_homann(self):
        sol = solve_falkner_skan(0.5, Pr=0.71, gw=0.999)
        assert sol.safeguard_samples == 0

    def test_count_reads_the_fluxes_as_slopes(self):
        # C = 0.5 throughout: tau = 60 and q = 80 lie inside the clips,
        # f'' = tau/C = 120 and g' = Pr q/C = 113.6 do not
        y = np.zeros((5, 4))
        y[3] = 0.5
        y[2, 1], y[4, 2], y[2, 3] = 60.0, 80.0, 40.0
        table = ((0.0, 1.0), (0.5, 0.5))
        assert boundary_layer._safeguard_samples(y, table, 0.71) == 2
        assert boundary_layer._safeguard_samples(y / [[1], [1], [2], [1],
                                                      [2]], table,
                                                 0.71) == 0

    def test_density_floor_counted_at_a_deeply_cooled_wall(self):
        # rho_e/rho = max(g, 0.05) floors the samples nearest the wall
        sol = solve_falkner_skan(0.5, Pr=0.71, gw=0.03,
                                 C_table=(DEEP_G, DEEP_C))
        assert sol.safeguard_samples == 3
        assert np.count_nonzero(sol.g < 0.05) == 3


class TestStagnationBLFacade:
    def test_heating_matches_fay_riddell_shape(self):
        # q ~ sqrt(K): doubling the velocity gradient raises q by sqrt(2)
        bl = StagnationSimilarityBL(h0e=1e7, p_e=3e4, rho_e=0.01,
                                    mu_e=1e-4)
        q1 = bl.heat_flux(1e6, 1000.0)
        q2 = bl.heat_flux(1e6, 2000.0)
        assert q2 / q1 == pytest.approx(np.sqrt(2.0), rel=1e-6)

    def test_heating_scales_with_enthalpy_difference(self):
        bl = StagnationSimilarityBL(h0e=1e7, p_e=3e4, rho_e=0.01,
                                    mu_e=1e-4)
        q_cold = bl.heat_flux(5e5, 1000.0)
        q_warm = bl.heat_flux(5e6, 1000.0)
        assert q_cold > q_warm

    def test_flat_rho_mu_table_is_the_unit_closure(self):
        common = dict(h0e=1e7, p_e=3e4, rho_e=0.01, mu_e=1e-4)
        flat = StagnationSimilarityBL(
            **common, rho_mu_table=([1e5, 2e7], [3e-6, 3e-6]))
        ideal = StagnationSimilarityBL(**common)
        assert flat.heat_flux(1e6, 1000.0) == pytest.approx(
            ideal.heat_flux(1e6, 1000.0), rel=1e-12)

    def test_invalid_wall_enthalpy(self):
        bl = StagnationSimilarityBL(h0e=1e7, p_e=3e4, rho_e=0.01,
                                    mu_e=1e-4)
        with pytest.raises(InputError):
            bl.solve(2e7)

    def test_invalid_construction(self):
        with pytest.raises(InputError):
            StagnationSimilarityBL(h0e=-1.0, p_e=1e4, rho_e=0.01,
                                   mu_e=1e-4)
