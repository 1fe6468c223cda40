"""Equation-of-state and grid work per marching step.

Each step evaluates the EOS once per set of states: the cell centres
once, each face set once, plus the NS wall ghosts (one call for both
rows); the NS conductivity takes its gamma from the cell evaluation.
The NS step also evaluates Sutherland's law once and makes one stacked
Green-Gauss pass.  The grid never changes, so a step computes none of
its metrics.  The counts are exact properties of the step sequence, not
timings.
"""

import numpy as np

import repro.solvers.ns2d as ns2d
from repro.atmosphere import EarthAtmosphere
from repro.core.gas import TabulatedEOS
from repro.geometry import Hemisphere
from repro.grid import StructuredGrid2D, blunt_body_grid
from repro.resilience.chaos import CASES
from repro.solvers.euler2d import AxisymmetricEulerSolver
from repro.solvers.ns2d import AxisymmetricNSSolver
from repro.thermo.eos_table import EquilibriumEOSTable, build_air_table
from repro.thermo.mixture import MixtureThermo


def _counting(monkeypatch, cls, name):
    calls = []
    fn = getattr(cls, name)
    monkeypatch.setattr(cls, name,
                        lambda self, *a, **kw: (calls.append(1)
                                                or fn(self, *a, **kw)))
    return calls


def _calls_per_step(solver, calls):
    solver.step(0.3)                       # leave the uniform start
    del calls[:]
    solver.step(0.3)
    return len(calls)


def _solvers():
    """The three 2-D solvers on small grids, each at freestream: NS and
    Euler on the 24 x 32 air table, the reacting chaos case."""
    atm = EarthAtmosphere()
    rho = float(atm.density(20e3))
    T = float(atm.temperature(20e3))
    V = 20.0 * float(atm.sound_speed(20e3))
    grid = blunt_body_grid(Hemisphere(0.1), n_s=9, n_normal=13,
                           density_ratio=0.08, margin=3.0)
    eos = TabulatedEOS(build_air_table(n_rho=24, n_e=32))
    solvers = {"ns2d": AxisymmetricNSSolver(grid, eos, T_wall=1500.0),
               "euler2d": AxisymmetricEulerSolver(grid, eos)}
    for s in solvers.values():
        s.set_freestream(rho, V, rho * atm.gas_constant * T)
    solvers["reacting_euler2d"] = CASES["reacting_euler2d"][0]()
    return solvers


def test_eos_work_per_step(monkeypatch):
    solvers = _solvers()
    locates = _counting(monkeypatch, EquilibriumEOSTable, "_locate")
    per_step = {name: _calls_per_step(solvers[name], locates)
                for name in ("ns2d", "euler2d")}
    inversions = _counting(monkeypatch, MixtureThermo, "T_from_e")
    s = solvers["reacting_euler2d"]
    per_step["reacting_euler2d"] = _calls_per_step(s, inversions)
    # cells 1 + faces 4 + wall ghosts 1; cells 1 + faces 4; cell decode
    # 1 + faces 4 + decode after chemistry 1 (23, 12 and 11 when the
    # timestep and the residual each decoded the cells, and p and a each
    # made their own table locate or temperature inversion; NS 7 while
    # its conductivity looked gamma up in the table apart)
    budget = {"ns2d": 6, "euler2d": 5, "reacting_euler2d": 6}
    assert all(per_step[k] <= budget[k] for k in budget), per_step
    assert np.all(np.isfinite(s.U))


def test_ns_step_viscosity_and_gradients_once(monkeypatch):
    """One Sutherland evaluation serves the timestep and the viscous
    residual, and u, v and T share one Green-Gauss pass (2 and 3 when
    each computed its own)."""
    s = _solvers()["ns2d"]
    mu_calls = []
    sutherland = ns2d.sutherland_viscosity
    monkeypatch.setattr(ns2d, "sutherland_viscosity",
                        lambda T: mu_calls.append(1) or sutherland(T))
    gradients = _counting(monkeypatch, AxisymmetricNSSolver,
                          "_cell_gradients")
    per_step = {"sutherland": _calls_per_step(s, mu_calls)}
    per_step["green_gauss"] = _calls_per_step(s, gradients)
    assert per_step == {"sutherland": 1, "green_gauss": 1}, per_step


def test_step_computes_no_grid_metrics(monkeypatch):
    solvers = _solvers()
    calls = _counting(monkeypatch, StructuredGrid2D,
                      "axisymmetric_face_metrics")
    for name in ("face_length_i", "face_length_j"):
        length = getattr(StructuredGrid2D, name).fget
        monkeypatch.setattr(StructuredGrid2D, name, property(
            lambda self, f=length: calls.append(1) or f(self)))
    per_step = {name: _calls_per_step(s, calls)
                for name, s in solvers.items()}
    assert per_step == dict.fromkeys(solvers, 0)
