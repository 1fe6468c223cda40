"""Integration tests for the post-shock relaxation solver (Fig. 7 class)."""

import numpy as np
import pytest

from repro.constants import TORR
from repro.errors import InputError
from repro.solvers.shock_relaxation import ShockRelaxationSolver
from repro.thermo.kinetics import ReactionMechanism
from repro.thermo.statmech import ThermoSet
from repro.thermo.two_temperature import TwoTemperatureGas


@pytest.fixture(scope="module")
def profile_10kms():
    solver = ShockRelaxationSolver("air11")
    return solver.solve(u1=10000.0, p1=0.1 * TORR, T1=300.0,
                        x_end=0.02, n_out=150, rtol=1e-6)


class TestRelaxationStructure:
    def test_frozen_jump_temperature(self, profile_10kms):
        # frozen (vibration-cold) jump at 10 km/s: ~47000-49000 K
        assert 42000.0 < profile_10kms.T[0] < 52000.0

    def test_T_relaxes_downward(self, profile_10kms):
        p = profile_10kms
        assert p.T[-1] < 0.3 * p.T[0]

    def test_Tv_rises_and_merges(self, profile_10kms):
        p = profile_10kms
        assert p.Tv[0] < 500.0
        assert abs(p.Tv[-1] - p.T[-1]) < 0.02 * p.T[-1]

    def test_equilibrium_plateau_matches_gibbs_shock(self, profile_10kms,
                                                     air_gas):
        # the relaxed state must agree with the equilibrium-RH solution
        from repro.solvers.shock import equilibrium_normal_shock
        p1 = 0.1 * TORR
        rho1 = p1 / (288.2 * 300.0)
        res = equilibrium_normal_shock(air_gas, rho1, 300.0, 10000.0)
        assert profile_10kms.T[-1] == pytest.approx(res["T2"], rel=0.05)

    def test_conservation_along_zone(self, profile_10kms):
        p = profile_10kms
        m = p.rho * p.u
        mom = p.p + p.rho * p.u**2
        assert np.max(np.abs(m / m[0] - 1.0)) < 1e-6
        assert np.max(np.abs(mom / mom[0] - 1.0)) < 1e-6

    def test_dissociation_progress(self, profile_10kms):
        p = profile_10kms
        jN2 = p.db.index["N2"]
        jN = p.db.index["N"]
        assert p.y[0, jN2] == pytest.approx(0.767, abs=1e-6)
        assert p.y[-1, jN] > 0.3

    def test_ionization_grows(self, profile_10kms):
        ne = profile_10kms.electron_number_density
        assert ne[0] < 1e10
        assert ne[-1] > 1e19

    def test_station_interpolation(self, profile_10kms):
        st = profile_10kms.station(0.005)
        assert st["T"] > 0 and st["y"].shape == (11,)


class TestInputs:
    def test_bad_mass_fractions(self):
        solver = ShockRelaxationSolver("air5")
        y_bad = np.zeros(5)
        y_bad[0] = 0.5
        with pytest.raises(InputError):
            solver.solve(u1=8000.0, p1=100.0, T1=300.0, y1=y_bad,
                         x_end=0.01)

    def test_air5_runs_without_ions(self):
        solver = ShockRelaxationSolver("air5")
        p = solver.solve(u1=6000.0, p1=50.0, T1=300.0, x_end=0.01,
                         n_out=50, rtol=1e-6)
        # catlint: disable=CAT010 -- species set has no ions, so n_e is exactly zero
        assert np.all(p.electron_number_density == 0.0)
        assert p.T[-1] < p.T[0]


class TestWorkPerRHS:
    def test_one_evaluation_of_each_quantity(self, monkeypatch):
        # per RHS one wdot (the production rates and the pool source
        # share it), three Arrhenius passes per wdot (k(T) feeds kf and
        # kb) and, inside the Tv Newton, one electronic-level pass per
        # e_v evaluation (e_v and c_v,v come from the same pass)
        counts = {"closure": 0, "wdot": 0, "arrhenius": 0,
                  "newton_e": 0, "newton_elec": 0}
        in_newton = []

        def count(cls, name, key, only_in_newton=False):
            fn = getattr(cls, name)

            def counted(self, *a, **kw):
                if in_newton or not only_in_newton:
                    counts[key] += 1
                return fn(self, *a, **kw)
            monkeypatch.setattr(cls, name, counted)

        count(ShockRelaxationSolver, "_closure", "closure")
        count(ReactionMechanism, "wdot", "wdot")
        count(ReactionMechanism, "_arrhenius", "arrhenius")
        count(ThermoSet, "_elec_weights", "newton_elec", True)
        for name in ("e_vib_el_mass", "e_cv_vib_el_mass"):
            count(ThermoSet, name, "newton_e", True)
        newton = TwoTemperatureGas.Tv_from_ev

        def tracked(self, *a, **kw):
            in_newton.append(1)
            try:
                return newton(self, *a, **kw)
            finally:
                in_newton.pop()
        monkeypatch.setattr(TwoTemperatureGas, "Tv_from_ev", tracked)

        n_out = 10
        ShockRelaxationSolver("air11").solve(
            u1=10000.0, p1=0.1 * TORR, T1=300.0, x_end=2e-3, n_out=n_out,
            rtol=1e-6)
        # the closure runs once per RHS and once per output station
        rhs_evals = counts["closure"] - (n_out + 1)
        assert rhs_evals > 100
        assert counts["wdot"] == rhs_evals
        assert counts["arrhenius"] == 3 * counts["wdot"]
        assert counts["newton_e"] > rhs_evals
        assert counts["newton_elec"] == counts["newton_e"]
