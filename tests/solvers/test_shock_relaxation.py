"""Integration tests for the post-shock relaxation solver (Fig. 7 class)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.constants import TORR
from repro.errors import InputError
from repro.solvers import shock_relaxation
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


#: A short fig 7 solve (≈800 RHS calls) for the work and warm-start tests.
SHORT = dict(u1=10000.0, p1=0.1 * TORR, T1=300.0, x_end=2e-3, n_out=10,
             rtol=1e-6)
FIELDS = ("x", "T", "Tv", "y", "rho", "u", "p")


class TestWorkPerRHS:
    def test_one_evaluation_of_each_quantity(self, monkeypatch):
        # per RHS one wdot (the production rates and the pool source
        # share it), three Arrhenius passes per wdot (k(T) feeds kf and
        # kb) and one species pass at T (the backward rates' g0/RT and
        # the Landau–Teller e_v,s(T)); inside the Tv Newton, one
        # electronic-level pass per e_v evaluation (e_v and c_v,v come
        # from the same pass), and the Newton's last e_v,s(Tv) feeds the
        # sources, so no pool pass runs outside it; each inversion
        # starts from the last Tv, so it takes at most three e_v
        # evaluations on average (6.3 from the cold 2,000 K start)
        counts = {"closure": 0, "wdot": 0, "arrhenius": 0, "T_pass": 0,
                  "newton_e": 0, "newton_elec": 0, "elec": 0, "vib": 0,
                  "pool_outside": 0, "inversions": 0}
        in_newton = []

        def count(cls, name, key, where=None):
            fn = getattr(cls, name)

            def counted(self, *a, **kw):
                if where is None or bool(in_newton) == (where == "in"):
                    counts[key] += 1
                return fn(self, *a, **kw)
            monkeypatch.setattr(cls, name, counted)

        count(ShockRelaxationSolver, "_closure", "closure")
        count(ReactionMechanism, "wdot", "wdot")
        count(ReactionMechanism, "_arrhenius", "arrhenius")
        count(ThermoSet, "_h_s0", "T_pass")
        count(ThermoSet, "_elec_weights", "elec")
        count(ThermoSet, "_elec_weights", "newton_elec", "in")
        count(ThermoSet, "_vib_x", "vib")
        for name in ("e_vib_el_mass", "e_cv_vib_el_mass"):
            count(ThermoSet, name, "newton_e", "in")
        for name in ("e_vib_el_mass", "e_cv_vib_el_mass", "cv_vib_el_mass"):
            count(ThermoSet, name, "pool_outside", "out")
        newton = TwoTemperatureGas.Tv_from_ev

        def tracked(self, *a, **kw):
            counts["inversions"] += 1
            in_newton.append(1)
            try:
                return newton(self, *a, **kw)
            finally:
                in_newton.pop()
        monkeypatch.setattr(TwoTemperatureGas, "Tv_from_ev", tracked)

        ShockRelaxationSolver("air11").solve(**SHORT)
        # the closure runs once per RHS and once per output station
        rhs_evals = counts["closure"] - (SHORT["n_out"] + 1)
        assert rhs_evals > 100
        assert counts["inversions"] == counts["closure"]
        assert counts["wdot"] == rhs_evals
        assert counts["arrhenius"] == 3 * counts["wdot"]
        assert counts["T_pass"] == rhs_evals
        # the one pool pass outside the Newton is the upstream e_v(T1)
        # of the solve's set-up; the sources take the Newton's
        assert counts["pool_outside"] == 1
        assert counts["inversions"] < counts["newton_e"]
        assert counts["newton_e"] <= 3 * counts["inversions"]
        assert counts["newton_elec"] == counts["newton_e"]
        # every other species pass is a Newton e_v evaluation (one
        # electronic and two vibrational passes), an RHS's T pass or
        # the set-up's e_v(T1)
        passes = counts["newton_e"], counts["T_pass"] + 1
        assert counts["elec"] == passes[0] + passes[1]
        assert counts["vib"] == 2 * passes[0] + passes[1]


class TestWarmStart:
    """Each Tv inversion starts from the last Tv the solve took."""

    def test_every_Tv_meets_the_stop_test_near_the_cold_answer(
            self, monkeypatch):
        taken = []
        newton = TwoTemperatureGas.Tv_from_ev

        def capture(self, ev, y, **kw):
            Tv = newton(self, ev, y, **kw)
            taken.append((float(ev), np.array(y), Tv.copy()))
            return Tv
        monkeypatch.setattr(TwoTemperatureGas, "Tv_from_ev", capture)
        solver = ShockRelaxationSolver("air11")
        solver.solve(**SHORT)
        monkeypatch.undo()

        assert len(taken) > 100
        for ev, y, Tv in taken:
            assert Tv.shape == (1,)
            residual = abs(float(solver.tt.e_vib_el(Tv, y)[0]) - ev)
            assert residual <= 1e-9 * max(abs(ev), 1e2)
            cold = solver.tt.Tv_from_ev(ev, y)
            np.testing.assert_allclose(Tv, cold, rtol=1e-8, atol=0.0)

    def test_two_solves_are_byte_equal(self):
        # the warm state lives inside one solve: a second solve on the
        # same solver starts where the first did
        solver = ShockRelaxationSolver("air11")
        first, second = solver.solve(**SHORT), solver.solve(**SHORT)
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(second, name),
                                          getattr(first, name))

    def test_retry_rung_equals_a_direct_solve(self, monkeypatch):
        # the first attempt marches part of the zone and then fails; the
        # retry rung must give what a direct solve at the rung's
        # tolerances gives, not start where the failed attempt stopped
        real = shock_relaxation.solve_ivp
        attempts = []

        def first_attempt_fails(fun, t_span, y0, **kw):
            attempts.append(kw)
            if len(attempts) > 1:
                return real(fun, t_span, y0, **kw)
            real(fun, (t_span[0], 0.5 * t_span[1]), y0,
                 method=kw["method"], rtol=kw["rtol"], atol=kw["atol"])
            return SimpleNamespace(success=False, message="injected stall")
        monkeypatch.setattr(shock_relaxation, "solve_ivp",
                            first_attempt_fails)
        solver = ShockRelaxationSolver("air11")
        retried = solver.solve(resilience=True, **SHORT)
        monkeypatch.undo()

        assert len(attempts) == 2
        rung = dict(SHORT, rtol=max(SHORT["rtol"], 1e-8) * 100,
                    atol=1e-11 * 100)
        assert (attempts[1]["rtol"], attempts[1]["atol"]) == (
            rung["rtol"], rung["atol"])
        direct = solver.solve(**rung)
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(retried, name),
                                          getattr(direct, name))
