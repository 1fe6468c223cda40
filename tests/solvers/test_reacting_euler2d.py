"""Integration tests for the finite-rate (nonequilibrium) blunt-body
solver — the paper's "coupling nonequilibrium phenomena to flowfield
codes" challenge."""

import numpy as np
import pytest

from repro.errors import InputError
from repro.geometry import Hemisphere, Sphere
from repro.grid import blunt_body_grid
from repro.solvers.reacting_euler2d import ReactingEulerSolver


def frozen_air5():
    y0 = np.zeros(5)
    y0[0], y0[1] = 0.767, 0.233
    return y0


@pytest.fixture(scope="module")
def noneq_solution():
    body = Sphere(0.3)
    grid = blunt_body_grid(body, n_s=19, n_normal=29, density_ratio=0.12,
                           margin=2.8)
    s = ReactingEulerSolver(grid, "air5")
    s.set_freestream(1e-3, 5000.0, 240.0, frozen_air5())
    s.run(n_steps=500, cfl=0.3)
    return s


class TestNonequilibriumShockLayer:
    def test_oxygen_dissociates_nitrogen_partially(self, noneq_solution):
        f = noneq_solution.fields()
        db = noneq_solution.db
        stag_y = f["y"][0, 0]
        assert stag_y[db.index["O2"]] < 0.05       # O2 consumed
        assert stag_y[db.index["O"]] > 0.15
        assert 0.01 < stag_y[db.index["N"]] < 0.5  # N2 only partially

    def test_temperature_between_frozen_and_equilibrium(self,
                                                        noneq_solution,
                                                        air5_gas):
        from repro.solvers.shock import (equilibrium_normal_shock,
                                         frozen_post_shock_state)
        f = noneq_solution.fields()
        T_stag = f["T"][0, 0]
        fr = frozen_post_shock_state(1e-3, 240.0, 5000.0)
        eq = equilibrium_normal_shock(air5_gas, 1e-3, 240.0, 5000.0)
        assert eq["T2"] * 0.9 < T_stag < fr["T2"]

    def test_species_mass_closure(self, noneq_solution):
        f = noneq_solution.fields()
        assert np.allclose(f["y"].sum(axis=-1), 1.0, atol=1e-9)

    def test_freestream_chemically_frozen(self, noneq_solution):
        f = noneq_solution.fields()
        # outer cells: unreacted freestream
        assert np.allclose(f["y"][:, -1, 0], 0.767, atol=1e-6)
        assert np.allclose(f["y"][:, -1, 1], 0.233, atol=1e-6)

    def test_standoff_physical(self, noneq_solution):
        d = noneq_solution.stagnation_standoff()
        # between the equilibrium (~0.04 Rn) and frozen (~0.11 Rn) limits
        # (with margin for the coarse grid)
        assert 0.01 < d / 0.3 < 0.20

    def test_shock_and_wall_coordinates_are_cell_centres(self,
                                                        noneq_solution):
        # the Euler solver's diagnostics read coordinates off the grid:
        # here fields()["y"] is the mass-fraction array, not the radius
        s, g = noneq_solution, noneq_solution.grid
        xs, ys = s.shock_location()
        assert xs.shape == ys.shape == (g.ni,) and np.isfinite(xs[0])
        for i in np.flatnonzero(np.isfinite(xs)):
            [j] = np.flatnonzero(g.xc[i] == xs[i])
            assert g.yc[i, j] == ys[i]
        x_w, y_w, p_w = s.surface_pressure()
        np.testing.assert_array_equal(x_w, g.xc[:, 0])
        np.testing.assert_array_equal(y_w, g.yc[:, 0])
        np.testing.assert_array_equal(p_w, s.fields()["p"][:, 0])
        assert s.stagnation_standoff() == g.x[0, 0] - xs[0]

    def test_chemistry_toggle(self):
        # chemistry=False must leave the composition frozen everywhere
        body = Sphere(0.3)
        grid = blunt_body_grid(body, n_s=13, n_normal=19,
                               density_ratio=0.15)
        s = ReactingEulerSolver(grid, "air5")
        s.set_freestream(1e-3, 4000.0, 240.0, frozen_air5())
        s.run(n_steps=60, cfl=0.3, chemistry=False)
        f = s.fields()
        assert np.allclose(f["y"][..., 0], 0.767, atol=1e-6)

    def test_input_validation(self):
        body = Sphere(0.3)
        grid = blunt_body_grid(body, n_s=9, n_normal=11)
        s = ReactingEulerSolver(grid, "air5")
        with pytest.raises(InputError):
            s.set_freestream(1e-3, 4000.0, 240.0, np.zeros(3))
        with pytest.raises(InputError):
            s.run(n_steps=1)


def test_two_temperature_march(monkeypatch):
    # the two_temperature rung on the chaos case's 9 x 13 air5 grid: each
    # operator-split pool update stays between the old pool and the
    # equilibrium e_v(T), and Tv is the Newton inverse of the new pool
    grid = blunt_body_grid(Hemisphere(0.05), n_s=9, n_normal=13,
                           density_ratio=0.12, margin=2.5)
    s = ReactingEulerSolver(grid, "air5", chemistry_model="two_temperature")
    s.set_freestream(1e-3, 5000.0, 250.0, frozen_air5())
    updates = []
    update = ReactingEulerSolver._update_vibrational_pool

    def recorded(self, w, dt):
        ev_old, Tv_old = self.ev.copy(), self.Tv.copy()
        Tv = update(self, w, dt)
        updates.append((w["T"], w["y"], ev_old, Tv_old, self.ev.copy(), Tv))
        return Tv
    monkeypatch.setattr(ReactingEulerSolver, "_update_vibrational_pool",
                        recorded)
    s.run(n_steps=4, cfl=0.3)

    assert len(updates) == 4
    ttg = s.ttg
    for T, y, ev_old, Tv_old, ev, Tv in updates:
        assert np.all(np.isfinite(Tv))
        assert np.all((Tv >= 10.0) & (Tv <= 1.0e5))
        ev_eq = ttg.e_vib_el(T, y)
        assert np.all(ev >= np.minimum(ev_old, ev_eq))
        assert np.all(ev <= np.maximum(ev_old, ev_eq))
        Tv_start = ttg.Tv_from_ev(ev_old, y, Tv_guess=Tv_old)
        np.testing.assert_array_equal(
            Tv, ttg.Tv_from_ev(ev, y, Tv_guess=Tv_start))
    # the shock layer's pool really relaxed
    assert np.any(updates[-1][4] > updates[0][2])
    np.testing.assert_array_equal(s.Tv, updates[-1][5])
