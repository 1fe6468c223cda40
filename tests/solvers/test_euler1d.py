"""Integration tests: 1-D Euler solver vs exact solutions."""

import numpy as np
import pytest

from repro.core.gas import IdealGasEOS, TabulatedEOS
from repro.errors import InputError
from repro.numerics.riemann import sod_exact
from repro.solvers.euler1d import Euler1DSolver


def sod_solver(n=200, **kw):
    x = np.linspace(0.0, 1.0, n + 1)
    xc = 0.5 * (x[1:] + x[:-1])
    s = Euler1DSolver(x, **kw)
    s.set_initial(np.where(xc < 0.5, 1.0, 0.125), 0.0,
                  np.where(xc < 0.5, 1.0, 0.1))
    return s


class TestSodProblem:
    @pytest.mark.parametrize("flux", ["hlle", "van_leer",
                                      "steger_warming", "ausm"])
    def test_l1_accuracy(self, flux):
        s = sod_solver(flux=flux)
        s.run(0.2)
        rho, u, p = s.primitives()
        re, ue, pe = sod_exact(s.xc, 0.2)
        assert np.abs(rho - re).mean() < 0.012
        assert np.abs(p - pe).mean() < 0.01

    def test_conservation(self):
        s = sod_solver()
        m0, E0 = s.total_mass(), s.total_energy()
        s.run(0.2)
        assert s.total_mass() == pytest.approx(m0, rel=1e-12)
        assert s.total_energy() == pytest.approx(E0, rel=1e-12)

    def test_grid_convergence(self):
        errs = []
        for n in (100, 200, 400):
            s = sod_solver(n)
            s.run(0.2)
            rho, _, _ = s.primitives()
            re, _, _ = sod_exact(s.xc, 0.2)
            errs.append(np.abs(rho - re).mean())
        # order ~0.7-1 for a shock-containing solution
        assert errs[2] < 0.65 * errs[0]

    def test_second_order_better_than_first(self):
        s1 = sod_solver(order=1)
        s1.run(0.2)
        s2 = sod_solver(order=2)
        s2.run(0.2)
        re, _, _ = sod_exact(s1.xc, 0.2)
        e1 = np.abs(s1.primitives()[0] - re).mean()
        e2 = np.abs(s2.primitives()[0] - re).mean()
        assert e2 < 0.7 * e1

    def test_positivity_123_problem(self):
        x = np.linspace(0.0, 1.0, 201)
        xc = 0.5 * (x[1:] + x[:-1])
        s = Euler1DSolver(x)
        s.set_initial(1.0, np.where(xc < 0.5, -2.0, 2.0), 0.4)
        s.run(0.1)
        rho, _, p = s.primitives()
        assert np.all(rho > 0) and np.all(p > 0)


class TestBoundaries:
    def test_reflective_wall_symmetry(self):
        # a pulse reflecting off a wall conserves mass
        x = np.linspace(0.0, 1.0, 101)
        xc = 0.5 * (x[1:] + x[:-1])
        s = Euler1DSolver(x, bc=("reflective", "reflective"))
        s.set_initial(1.0 + 0.2 * np.exp(-200 * (xc - 0.5) ** 2), 0.0, 1.0)
        m0 = s.total_mass()
        s.run(1.0)
        assert s.total_mass() == pytest.approx(m0, rel=1e-10)

    def test_uniform_flow_preserved(self):
        x = np.linspace(0.0, 1.0, 51)
        s = Euler1DSolver(x)
        s.set_initial(1.0, 100.0, 1e5)
        s.run(0.001)
        rho, u, p = s.primitives()
        assert np.allclose(rho, 1.0, rtol=1e-10)
        assert np.allclose(u, 100.0, rtol=1e-8)

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            Euler1DSolver(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(InputError):
            Euler1DSolver(np.linspace(0, 1, 11), flux="magic")
        # FVS and AUSM+ are ideal-gas algebra: refused on a real-gas EOS
        from repro.thermo.eos_table import build_air_table
        eos = TabulatedEOS(build_air_table(n_rho=24, n_e=32))
        for flux in ("van_leer", "steger_warming", "ausm"):
            with pytest.raises(InputError, match="ideal-gas"):
                Euler1DSolver(np.linspace(0, 1, 11), eos=eos, flux=flux)
        s = Euler1DSolver(np.linspace(0, 1, 11))
        with pytest.raises(InputError):
            s.run(0.1)  # no initial condition


class TestRealGasMode:
    def test_sod_with_tabulated_eos_runs(self):
        # scaled-up Sod in dimensional air conditions
        from repro.thermo.eos_table import build_air_table
        eos = TabulatedEOS(build_air_table(n_rho=24, n_e=32))
        x = np.linspace(0.0, 1.0, 101)
        xc = 0.5 * (x[1:] + x[:-1])
        s = Euler1DSolver(x, eos=eos)
        s.set_initial(np.where(xc < 0.5, 1e-2, 1.25e-3), 0.0,
                      np.where(xc < 0.5, 1e4, 1e3))
        s.run(2e-4)
        rho, u, p = s.primitives()
        assert np.all(np.isfinite(rho)) and np.all(rho > 0)
        # wave structure exists: a right-moving compression
        assert u.max() > 50.0
