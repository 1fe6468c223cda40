"""Tests for the similarity boundary-layer solver."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from repro.errors import InputError
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


class TestFloatKernel:
    """The shooting integrator against scipy's RK45 as the reference."""

    @staticmethod
    def _both(table, gw, slopes):
        rhs = boundary_layer._make_rhs(0.5, 0.71, table)
        y0 = (0.0, 0.0, slopes[0], gw, slopes[1])
        end = boundary_layer._dopri45_end(rhs, y0, 8.0)
        ref = solve_ivp(lambda t, z: rhs(z.tolist()), (0.0, 8.0), list(y0),
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
