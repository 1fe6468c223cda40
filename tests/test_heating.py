"""Tests for the engineering heating correlations and catalysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InputError
from repro.heating import (catalytic_factor, fay_riddell_heating,
                           flat_plate_heating, lees_distribution,
                           sutton_graves_heating)
from repro.heating.catalysis import CatalyticWall
from repro.heating.fay_riddell import newtonian_velocity_gradient


class TestFayRiddell:
    def test_agrees_with_sutton_graves(self):
        # both correlations should land within ~25 % at a typical entry
        # point (they were fit to the same physics)
        rho_inf, V, rn = 3e-4, 7000.0, 1.0
        q_sg = float(sutton_graves_heating(rho_inf, V, rn))
        # crude stagnation state for FR inputs
        p_stag = rho_inf * V**2
        T0 = 6500.0
        rho_e = p_stag / (320.0 * T0)
        from repro.transport.viscosity import sutherland_viscosity
        mu_e = sutherland_viscosity(T0)
        K = newtonian_velocity_gradient(rn, p_stag, 10.0, rho_e)
        q_fr = float(fay_riddell_heating(
            rho_e=rho_e, mu_e=mu_e, rho_w=p_stag / (287.0 * 1000.0),
            mu_w=sutherland_viscosity(1000.0), due_dx=K,
            h0e=0.5 * V**2, hw=1e6, lewis=1.0))
        assert q_fr == pytest.approx(q_sg, rel=0.35)

    def test_lewis_term_increases_catalytic_heating(self):
        kw = dict(rho_e=1e-2, mu_e=1e-4, rho_w=0.1, mu_w=4e-5,
                  due_dx=2000.0, h0e=2e7, hw=1e6, lewis=1.4,
                  h_dissociation=8e6)
        q_cat = float(fay_riddell_heating(catalytic=True, **kw))
        q_nc = float(fay_riddell_heating(catalytic=False, **kw))
        q_none = float(fay_riddell_heating(**{**kw, "h_dissociation": 0.0}))
        assert q_cat > q_none > q_nc

    def test_velocity_gradient_scaling(self):
        k1 = newtonian_velocity_gradient(1.0, 1e4, 0.0, 0.01)
        k2 = newtonian_velocity_gradient(2.0, 1e4, 0.0, 0.01)
        assert k1 / k2 == pytest.approx(2.0)
        with pytest.raises(InputError):
            newtonian_velocity_gradient(-1.0, 1e4, 0.0, 0.01)


class TestSuttonGraves:
    def test_shuttle_entry_magnitude(self):
        # V = 6.7 km/s at 65.5 km: tens of W/cm^2 on a meter-class nose
        from repro.atmosphere import EarthAtmosphere
        atm = EarthAtmosphere()
        q = float(sutton_graves_heating(atm.density(65500.0), 6700.0,
                                        1.3))
        assert 2e5 < q < 2e6  # 20-200 W/cm^2

    @given(V=st.floats(min_value=1000.0, max_value=15000.0))
    @settings(max_examples=30, deadline=None)
    def test_cubic_velocity_scaling(self, V):
        q1 = float(sutton_graves_heating(1e-4, V, 1.0))
        q2 = float(sutton_graves_heating(1e-4, 2 * V, 1.0))
        assert q2 / q1 == pytest.approx(8.0, rel=1e-9)

    def test_nose_radius_scaling(self):
        q1 = float(sutton_graves_heating(1e-4, 7000.0, 1.0))
        q4 = float(sutton_graves_heating(1e-4, 7000.0, 4.0))
        assert q1 / q4 == pytest.approx(2.0, rel=1e-9)

    def test_jupiter_constant_smaller(self):
        q_e = float(sutton_graves_heating(1e-4, 7000.0, 1.0,
                                          atmosphere="earth"))
        q_j = float(sutton_graves_heating(1e-4, 7000.0, 1.0,
                                          atmosphere="jupiter"))
        assert q_j < 0.5 * q_e


class TestLees:
    def test_stagnation_limit_is_one(self):
        from repro.geometry import Sphere
        body = Sphere(1.0)
        s = np.linspace(1e-6, body.s_max * 0.99, 200)
        _, r = body.point(s)
        theta = body.angle(s)
        # Newtonian edge: ue ~ V sin(angle from stagnation)
        ue = 2000.0 * np.cos(theta)
        rho_e = np.full_like(s, 0.01)
        mu_e = np.full_like(s, 1e-4)
        K = 2000.0 / 1.0
        q = lees_distribution(s, r, rho_e, mu_e, ue, K)
        assert q[0] == pytest.approx(1.0, abs=0.05)

    def test_sphere_distribution_decreases(self):
        from repro.geometry import Sphere
        body = Sphere(1.0)
        s = np.linspace(1e-6, body.s_max * 0.95, 100)
        _, r = body.point(s)
        theta = body.angle(s)
        ue = 2000.0 * np.cos(theta)
        q = lees_distribution(s, r, np.full_like(s, 0.01),
                              np.full_like(s, 1e-4), ue, 2000.0)
        # Lees on a sphere: ~0.7-0.85 at 45 deg, monotonically decreasing
        assert np.all(np.diff(q[5:]) < 1e-3)
        i45 = np.argmin(np.abs(s - np.pi / 4))
        assert 0.55 < q[i45] < 0.95

    def test_invalid_s(self):
        with pytest.raises(InputError):
            lees_distribution(np.array([0.0, 0.0, 1.0]), np.ones(3),
                              np.ones(3), np.ones(3), np.ones(3), 1.0)


class TestReferenceEnthalpy:
    def test_x_power_law(self):
        from repro.transport.viscosity import sutherland_viscosity
        mu_of_h = lambda h: sutherland_viscosity(h / 1004.5)  # noqa: E731
        x = np.array([0.5, 2.0])
        q = flat_plate_heating(x, rho_e=0.01, u_e=3000.0, h_e=5e5,
                               h_w=8e5, mu_of_h=mu_of_h, h0e=5e6)
        assert q[0] / q[1] == pytest.approx(2.0, rel=1e-9)  # x^-1/2

    def test_positive_for_cold_wall(self):
        from repro.transport.viscosity import sutherland_viscosity
        mu_of_h = lambda h: sutherland_viscosity(h / 1004.5)  # noqa: E731
        q = flat_plate_heating(1.0, rho_e=0.01, u_e=3000.0, h_e=5e5,
                               h_w=3e5, mu_of_h=mu_of_h, h0e=5e6)
        assert float(q) > 0

    def test_x_zero_invalid(self):
        with pytest.raises(InputError):
            flat_plate_heating(0.0, rho_e=1.0, u_e=1.0, h_e=1.0, h_w=1.0,
                               mu_of_h=lambda h: 1e-5, h0e=2.0)


class TestCatalysis:
    def test_limits(self):
        # catlint: disable=CAT010 -- fully-catalytic limit returns exactly 1
        assert float(catalytic_factor(8e6, 2e7, 1.0)) == 1.0
        assert float(catalytic_factor(8e6, 2e7, 0.0)) == pytest.approx(
            1.0 - 0.4)

    def test_monotone_in_phi(self):
        phis = np.linspace(0, 1, 11)
        f = catalytic_factor(8e6, 2e7, phis)
        assert np.all(np.diff(f) > 0)

    def test_invalid_phi(self):
        with pytest.raises(InputError):
            catalytic_factor(1e6, 1e7, 1.5)

    @pytest.mark.parametrize("phi", [np.nan, [0.5, np.nan]])
    def test_nan_phi_rejected(self, phi):
        with pytest.raises(InputError):
            catalytic_factor(1e6, 1e7, phi)

    def test_wall_effectiveness_limits(self):
        wall = CatalyticWall(k_w=1.0)
        # tiny diffusion conductance -> surface-limited -> phi ~ 1
        assert wall.effectiveness(1e-8, 1.0) == pytest.approx(1.0,
                                                              abs=1e-4)
        # huge conductance -> diffusion-fed -> phi small
        assert wall.effectiveness(1.0, 1e-4) < 1e-3
        # catlint: disable=CAT010 -- k_w = inf limit short-circuits to exactly 1
        assert CatalyticWall(k_w=np.inf).effectiveness(1.0, 1e-4) == 1.0

    def test_rcg_tile_vs_metal(self):
        # the Fig. 6 "catalytic efficiency" story: tiles (k_w ~ 1) see
        # much less heating than a fully catalytic surface
        D, delta = 1e-2, 1e-2
        tile = CatalyticWall(k_w=1.0).heating_ratio(1e7, 2.3e7, D, delta)
        metal = CatalyticWall(k_w=100.0).heating_ratio(1e7, 2.3e7, D,
                                                       delta)
        assert tile < metal <= 1.0
