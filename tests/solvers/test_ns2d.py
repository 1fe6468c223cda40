"""Integration tests for the axisymmetric Navier-Stokes solver."""

import numpy as np
import pytest

from repro.core.gas import IdealGasEOS
from repro.errors import InputError
from repro.geometry import Hemisphere
from repro.grid import blunt_body_grid
from repro.solvers.ns2d import AxisymmetricNSSolver


@pytest.fixture(scope="module")
def m6_viscous():
    body = Hemisphere(0.1)
    grid = blunt_body_grid(body, n_s=25, n_normal=51, density_ratio=0.2,
                           margin=2.5, wall_cluster_beta=2.5)
    rho, T = 5e-4, 220.0
    a = np.sqrt(1.4 * 287.0528 * T)
    s = AxisymmetricNSSolver(grid, IdealGasEOS(1.4), T_wall=300.0)
    s.set_freestream(rho, 6.0 * a, rho * 287.0528 * T)
    s.run(n_steps=2000, cfl=0.3)
    return s


class TestViscousM6:
    def test_stagnation_heating_vs_fay_riddell(self, m6_viscous):
        from repro.solvers.shock import frozen_post_shock_state
        from repro.transport.viscosity import sutherland_viscosity
        q = m6_viscous.wall_heat_flux()
        rho, T = 5e-4, 220.0
        V = 6.0 * np.sqrt(1.4 * 287.0528 * T)
        ps = frozen_post_shock_state(rho, T, V)
        h0 = 1004.5 * T + 0.5 * V**2
        T0 = h0 / 1004.5
        rho_s = ps["p2"] / (287.0528 * T0)
        K = (1.0 / 0.1) * np.sqrt(2.0 * (ps["p2"] - rho * 287.0528 * T)
                                  / rho_s)
        q_fr = (0.763 * 0.72**-0.6 * np.sqrt(rho_s
                                             * sutherland_viscosity(T0))
                * np.sqrt(K) * (h0 - 1004.5 * 300.0))
        assert q[0] == pytest.approx(q_fr, rel=0.25)

    def test_heating_decreases_around_body(self, m6_viscous):
        q = m6_viscous.wall_heat_flux()
        # Lees: ~0.5-0.9 of stagnation at 45 deg, lower at the shoulder
        assert q[-1] < 0.8 * q[0]
        assert np.all(q > 0)

    def test_no_slip_wall(self, m6_viscous):
        f = m6_viscous.fields()
        speed = np.hypot(f["u"][:, 0], f["v"][:, 0])
        V = 6.0 * np.sqrt(1.4 * 287.0528 * 220.0)
        # first-cell velocity far below freestream (boundary layer)
        assert np.all(speed < 0.25 * V)

    def test_wall_shear_positive_off_stagnation(self, m6_viscous):
        tau = m6_viscous.wall_shear()
        assert np.all(tau[1:] > 0)
        # shear vanishes toward the stagnation point
        assert tau[0] < tau[len(tau) // 2]

    def test_adiabatic_wall_heating_raises(self):
        body = Hemisphere(0.1)
        grid = blunt_body_grid(body, n_s=11, n_normal=15)
        s = AxisymmetricNSSolver(grid, T_wall=None)
        s.set_freestream(1e-4, 1000.0, 10.0)
        with pytest.raises(InputError):
            s.wall_heat_flux()

    def test_viscous_timestep_smaller_than_inviscid(self, m6_viscous):
        from repro.solvers.euler2d import AxisymmetricEulerSolver
        dt_ns = m6_viscous.local_timestep(0.5)
        dt_euler = AxisymmetricEulerSolver.local_timestep(m6_viscous, 0.5)
        assert np.all(dt_ns <= dt_euler + 1e-18)


def _slip_ghosts(U, wall_normal):
    """The slip-wall ghost rows as ``_pad_j`` built them row by row:
    ghost row 1 from cell row 0, ghost row 0 from cell row 1."""
    rows = {}
    for k, src in ((1, 0), (0, 1)):
        Uw = U[:, src].copy()
        n = wall_normal
        mn = Uw[:, 1] * n[:, 0] + Uw[:, 2] * n[:, 1]
        Uw[:, 1] -= 2.0 * mn * n[:, 0]
        Uw[:, 2] -= 2.0 * mn * n[:, 1]
        rows[k] = Uw
    return rows


def _no_slip_ghosts(U, eos, T_wall):
    """The no-slip ghost rows as the NS ``_pad_j`` built them: four
    separate temperature calls, the ghost energy from a linearisation
    about each row's interior state."""
    def e_of_T(rho, T_target, e_ref, T_ref):
        de = np.maximum(0.01 * e_ref, 10.0)
        cv = de / np.maximum(eos.temperature(rho, e_ref + de) - T_ref, 1e-3)
        return np.maximum(e_ref + cv * (T_target - T_ref), 1e3)

    rows = {}
    for k, src in ((1, 0), (0, 1)):
        Uw = U[:, src].copy()
        rho = Uw[:, 0]
        Uw[:, 1] = -Uw[:, 1]
        Uw[:, 2] = -Uw[:, 2]
        if T_wall is not None:
            ke = 0.5 * (Uw[:, 1] ** 2 + Uw[:, 2] ** 2) / rho
            e_in = U[:, src, 3] / U[:, src, 0] \
                - 0.5 * (U[:, src, 1] ** 2 + U[:, src, 2] ** 2) \
                / U[:, src, 0] ** 2
            T_in = eos.temperature(U[:, src, 0], e_in)
            T_ghost = np.maximum(2.0 * T_wall - T_in, 0.1 * T_wall)
            Uw[:, 3] = rho * (e_of_T(rho, T_ghost, e_in, T_in) + ke)
        rows[k] = Uw
    return rows


@pytest.mark.parametrize("gas", ["tabulated", "ideal"])
def test_wall_ghosts_bitwise(gas):
    """`_pad_j` reproduces the row-by-row wall ghosts bit for bit: the
    Euler slip mirror and the NS isothermal and adiabatic no-slip rows,
    on a marched 9 x 13 Mach-20 state."""
    from repro.atmosphere import EarthAtmosphere
    from repro.core.gas import TabulatedEOS
    from repro.solvers.euler2d import AxisymmetricEulerSolver
    from repro.thermo.eos_table import build_air_table

    eos = (TabulatedEOS(build_air_table(n_rho=24, n_e=32))
           if gas == "tabulated" else IdealGasEOS(1.4))
    atm = EarthAtmosphere()
    rho, T = float(atm.density(20e3)), float(atm.temperature(20e3))
    grid = blunt_body_grid(Hemisphere(0.1), n_s=9, n_normal=13,
                           density_ratio=0.08, margin=3.0)
    solvers = {"ns_isothermal": AxisymmetricNSSolver(grid, eos,
                                                     T_wall=1500.0),
               "ns_adiabatic": AxisymmetricNSSolver(grid, eos, T_wall=None),
               "euler": AxisymmetricEulerSolver(grid, eos)}
    for s in solvers.values():
        s.set_freestream(rho, 20.0 * float(atm.sound_speed(20e3)),
                         rho * atm.gas_constant * T)
    marched = solvers["ns_isothermal"]
    for _ in range(40):
        marched.step(0.3)
    U = marched.U
    assert not np.array_equal(U[:, 0], U[:, 1])
    refs = {"ns_isothermal": _no_slip_ghosts(U, eos, 1500.0),
            "ns_adiabatic": _no_slip_ghosts(U, eos, None),
            "euler": _slip_ghosts(U, solvers["euler"].wall_normal)}
    for name, s in solvers.items():
        g = s._pad_j(U)
        np.testing.assert_array_equal(g[:, 2:-2], U)
        for k in (0, 1):
            np.testing.assert_array_equal(g[:, k], refs[name][k],
                                          err_msg=f"{name} ghost row {k}")
        np.testing.assert_array_equal(
            g[:, -2:], np.broadcast_to(s.U_inf, g[:, -2:].shape))
