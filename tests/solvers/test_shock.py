"""Tests for shock and isentropic relations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConvergenceError, InputError
from repro.solvers.shock import (equilibrium_normal_shock,
                                 frozen_post_shock_state, isentropic_ratios,
                                 normal_shock_ideal, oblique_shock_beta,
                                 pitot_pressure_ideal)
from repro.thermo.mixture import MixtureThermo


class TestNormalShockIdeal:
    def test_textbook_mach2(self):
        ns = normal_shock_ideal(2.0)
        assert ns["p_ratio"] == pytest.approx(4.5)
        assert ns["rho_ratio"] == pytest.approx(8.0 / 3.0)
        assert ns["M2"] == pytest.approx(0.5774, rel=1e-4)
        assert ns["p0_ratio"] == pytest.approx(0.7209, rel=1e-4)

    def test_subsonic_rejected(self):
        with pytest.raises(InputError):
            normal_shock_ideal(0.9)

    @given(M=st.floats(min_value=1.01, max_value=30.0))
    @settings(max_examples=50, deadline=None)
    def test_entropy_and_compression(self, M):
        ns = normal_shock_ideal(M)
        assert ns["p_ratio"] > 1.0
        assert ns["rho_ratio"] > 1.0
        assert ns["T_ratio"] > 1.0
        assert ns["M2"] < 1.0              # subsonic downstream
        assert ns["p0_ratio"] <= 1.0       # total-pressure loss

    def test_strong_shock_density_limit(self):
        ns = normal_shock_ideal(100.0)
        assert ns["rho_ratio"] == pytest.approx(6.0, rel=1e-3)  # (g+1)/(g-1)

    @given(M=st.floats(min_value=1.01, max_value=20.0))
    @settings(max_examples=30, deadline=None)
    def test_rankine_hugoniot_closure(self, M):
        # jump ratios must satisfy mass/momentum/energy identically
        g = 1.4
        ns = normal_shock_ideal(M, g)
        r = ns["rho_ratio"]
        u2_u1 = 1.0 / r
        # momentum: p2/p1 = 1 + g M^2 (1 - u2/u1)
        assert ns["p_ratio"] == pytest.approx(
            1.0 + g * M * M * (1.0 - u2_u1), rel=1e-12)


class TestIsentropic:
    def test_sonic_values(self):
        r = isentropic_ratios(1.0)
        assert r["p0_p"] == pytest.approx(1.893, rel=1e-3)
        assert r["T0_T"] == pytest.approx(1.2)

    def test_pitot_mach5(self):
        # Rayleigh pitot at M=5: p02/p1 = 32.65
        p = pitot_pressure_ideal(5.0, 1.0)
        assert float(p) == pytest.approx(32.65, rel=1e-3)


class TestObliqueShock:
    def test_known_point(self):
        # M=3, theta=20 deg -> beta ~ 37.76 deg (weak)
        beta = oblique_shock_beta(3.0, np.deg2rad(20.0))
        assert np.rad2deg(beta) == pytest.approx(37.76, abs=0.1)

    def test_strong_branch_larger(self):
        b_w = oblique_shock_beta(3.0, np.deg2rad(20.0), weak=True)
        b_s = oblique_shock_beta(3.0, np.deg2rad(20.0), weak=False)
        assert b_s > b_w

    def test_mach_wave_limit(self):
        beta = oblique_shock_beta(2.0, 0.0)
        assert beta == pytest.approx(np.arcsin(0.5), rel=1e-9)

    def test_detachment_raises(self):
        with pytest.raises(InputError):
            oblique_shock_beta(2.0, np.deg2rad(35.0))  # max ~23 deg at M=2

    def test_subsonic_raises(self):
        with pytest.raises(InputError):
            oblique_shock_beta(0.8, 0.1)


class TestEquilibriumShock:
    def test_density_ratio_exceeds_ideal(self, air_gas):
        # the Fig. 4 physics: equilibrium shocks are much denser
        rho1, T1, u1 = 1.56e-4, 233.0, 6700.0
        res = equilibrium_normal_shock(air_gas, rho1, T1, u1)
        assert 1.0 / res["eps"] > 10.0     # ideal limit is 6

    def test_temperature_far_below_frozen(self, air_gas):
        rho1, T1, u1 = 1.56e-4, 233.0, 6700.0
        res = equilibrium_normal_shock(air_gas, rho1, T1, u1)
        frozen = frozen_post_shock_state(rho1, T1, u1)
        assert res["T2"] < 0.4 * frozen["T2"]

    def test_rankine_hugoniot_conservation(self, air_gas):
        rho1, T1, u1 = 1e-3, 250.0, 5000.0
        res = equilibrium_normal_shock(air_gas, rho1, T1, u1)
        # mass
        m1 = rho1 * u1
        m2 = res["rho2"] * res["u2"]
        assert m2 == pytest.approx(m1, rel=1e-8)
        # momentum
        mom1 = res["p1"] + rho1 * u1**2
        mom2 = res["p2"] + res["rho2"] * res["u2"] ** 2
        assert mom2 == pytest.approx(mom1, rel=1e-8)
        # energy
        h2 = float(air_gas.mix.h_mass(np.array(res["T2"]), res["y2"]))
        assert h2 + 0.5 * res["u2"] ** 2 == pytest.approx(
            res["h1"] + 0.5 * u1**2, rel=1e-6)

    def test_downstream_composition_is_equilibrium(self, air_gas):
        res = equilibrium_normal_shock(air_gas, 1e-3, 250.0, 6000.0)
        y_eq = air_gas.composition_rho_T(np.array(res["rho2"]),
                                         np.array(res["T2"]))
        assert np.allclose(res["y2"], y_eq, atol=1e-8)

    def test_subsonic_rejected(self, air_gas):
        with pytest.raises(InputError):
            equilibrium_normal_shock(air_gas, 1.0, 300.0, 100.0)

    @pytest.mark.parametrize("rho1, T1, u1", [
        (0.0, 250.0, 5000.0), (-1e-3, 250.0, 5000.0),
        (np.nan, 250.0, 5000.0), (np.inf, 250.0, 5000.0),
        (1e-3, 0.0, 5000.0), (1e-3, -250.0, 5000.0),
        (1e-3, np.nan, 5000.0), (1e-3, np.inf, 5000.0),
        (1e-3, 250.0, np.nan), (1e-3, 250.0, np.inf),
        (1e-3, 250.0, -np.inf)])
    def test_bad_upstream_rejected(self, air_gas, rho1, T1, u1):
        with pytest.raises(InputError):
            equilibrium_normal_shock(air_gas, rho1, T1, u1)

    # (rho2, T2, p2, eps) recorded from the former solver, a damped eps
    # fixed point around an h(T, p) secant over (T, p) Gibbs solves
    @pytest.mark.parametrize("gas_name, rho1, T1, u1, ref", [
        pytest.param("air_gas", 1.56e-4, 233.0, 6700.0,
                     (0.002507468781294427, 5896.771020064785,
                      6577.639496252849, 0.06221413449441566),
                     id="air11-fig4"),
        pytest.param("air_gas", 1e-3, 250.0, 5000.0,
                     (0.011724007533073665, 5324.266588743212,
                      22939.67081406369, 0.08529506631405512),
                     id="air11-dense"),
        pytest.param("air_gas", 1e-5, 250.0, 7000.0,
                     (0.00018474891499419517, 5351.887061477488,
                      464.1979914783089, 0.05412751679929596),
                     id="air11-thin"),
        # the full Newton step overshoots here: only the step halving
        # converges
        pytest.param("air_gas", 1e-3, 250.0, 15000.0,
                     (0.015836910337953154, 15629.873699580805,
                      210864.7308098075, 0.0631436295754924),
                     id="air11-15kms"),
        pytest.param("air5_gas", 1e-4, 250.0, 12000.0,
                     (0.0009393934486957711, 23777.56997989695,
                      12874.30072156554, 0.10645166850890576),
                     id="air5-12kms"),
        pytest.param("titan_gas", 1e-4, 170.0, 10000.0,
                     (0.0017760802228260078, 8197.715286952822,
                      9442.118179923047, 0.05630376303660717),
                     id="titan9-10kms")])
    def test_pinned_answers(self, request, gas_name, rho1, T1, u1, ref):
        gas = request.getfixturevalue(gas_name)
        res = equilibrium_normal_shock(gas, rho1, T1, u1)
        np.testing.assert_allclose(
            [res["rho2"], res["T2"], res["p2"], res["eps"]], ref, rtol=1e-8)
        P = res["p1"] + rho1 * u1**2
        H = res["h1"] + 0.5 * u1**2
        h2 = float(gas.mix.h_mass(np.array(res["T2"]), res["y2"]))
        assert abs(res["p2"] + res["rho2"] * res["u2"] ** 2 - P) <= 1e-10 * P
        assert (abs(h2 + 0.5 * res["u2"] ** 2 - H)
                <= 1e-10 * max(abs(H), 1e4))

    @pytest.mark.parametrize("rho1, u1", [(1e-3, 5000.0), (1e-4, 4000.0)])
    def test_trivial_root_is_refused(self, air_gas, monkeypatch, rho1, u1):
        # from a cold start, T2 = max(4 T1, 1000 K), these cases converge
        # to the no-shock root eps = 1 rather than the compressive one;
        # the second has landed a rounding below eps = 1, where a test on
        # eps >= 1 would pass it as a shock
        monkeypatch.setattr(MixtureThermo, "T_from_h",
                            lambda self, h, y, **kw: np.asarray(1000.0))
        with pytest.raises(ConvergenceError, match="trivial") as err:
            equilibrium_normal_shock(air_gas, rho1, 250.0, u1)
        assert err.value.worst["eps"] == pytest.approx(1.0, abs=1e-9)
        assert err.value.residual <= 1e-10

    def test_out_of_iterations_carries_last_state(self, air_gas):
        with pytest.raises(ConvergenceError) as err:
            equilibrium_normal_shock(air_gas, 1.56e-4, 233.0, 6700.0,
                                     max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual > 1e-10
        assert set(err.value.worst) == {"rho2", "T2", "eps"}
