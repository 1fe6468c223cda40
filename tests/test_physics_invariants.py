"""Cross-module physical-invariant property tests.

These run the stack end to end against thermodynamic and gasdynamic
inequalities that must hold regardless of parameter choices — the
"does the library behave like a gas" layer of the suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solvers.shock import equilibrium_normal_shock
from repro.thermo.equilibrium import (EquilibriumGas,
                                      air_reference_mass_fractions)
from repro.thermo.species import species_set


class TestEquilibriumMonotonicity:
    @given(lr=st.floats(min_value=-5.0, max_value=-0.5))
    @settings(max_examples=12, deadline=None)
    def test_dissociation_monotone_in_T(self, lr):
        db = species_set("air11")
        gas = EquilibriumGas(db, air_reference_mass_fractions(db))
        rho = np.full(6, 10.0**lr)
        T = np.linspace(2500.0, 11000.0, 6)
        y = gas.composition_rho_T(rho, T)
        atoms = (y[:, db.index["N"]] + y[:, db.index["O"]]
                 + y[:, db.index["N+"]] + y[:, db.index["O+"]])
        # tolerance: mass migrating into other charge states (N2+, e-)
        # at the hot end is a few 1e-5 of the budget
        assert np.all(np.diff(atoms) > -1e-4)

    @given(T=st.floats(min_value=3500.0, max_value=9000.0))
    @settings(max_examples=12, deadline=None)
    def test_dissociation_monotone_in_density(self, T):
        # Le Chatelier: compression suppresses dissociation
        db = species_set("air11")
        gas = EquilibriumGas(db, air_reference_mass_fractions(db))
        rho = 10.0 ** np.linspace(-5, 0, 6)
        y = gas.composition_rho_T(rho, np.full(6, T))
        # count ionized atoms too: at low density atoms trade with their
        # ions, which would mask the dissociation trend
        atoms = (y[:, db.index["N"]] + y[:, db.index["O"]]
                 + y[:, db.index["N+"]] + y[:, db.index["O+"]])
        assert np.all(np.diff(atoms) < 1e-4)

    def test_equilibrium_energy_monotone_in_T(self, air_gas):
        rho = np.full(30, 0.01)
        T = np.linspace(300.0, 14000.0, 30)
        st_ = air_gas.state_rho_T(rho, T)
        assert np.all(np.diff(st_["e"]) > 0)
        assert np.all(np.diff(st_["p"]) > 0)


class TestShockMonotonicity:
    def test_post_shock_state_monotone_in_speed(self, air_gas):
        T2s, p2s = [], []
        for u1 in (4000.0, 6000.0, 8000.0, 10000.0):
            r = equilibrium_normal_shock(air_gas, 1e-3, 250.0, u1)
            T2s.append(r["T2"])
            p2s.append(r["p2"])
        assert np.all(np.diff(T2s) > 0)
        assert np.all(np.diff(p2s) > 0)

    def test_entropy_rises_across_equilibrium_shock(self, air_gas):
        r = equilibrium_normal_shock(air_gas, 1e-3, 250.0, 6000.0)
        s1 = float(air_gas.mix.s_mass(np.array(250.0),
                                      np.array(r["p1"]),
                                      air_gas.y_ref))
        s2 = float(air_gas.mix.s_mass(np.array(r["T2"]),
                                      np.array(r["p2"]), r["y2"]))
        assert s2 > s1


class TestEOSTableMonotonicity:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.thermo.eos_table import build_air_table
        return build_air_table(n_rho=24, n_e=32)

    @given(lr=st.floats(min_value=-6.0, max_value=0.5))
    @settings(max_examples=20, deadline=None)
    def test_pressure_monotone_in_energy(self, lr):
        from repro.thermo.eos_table import build_air_table
        tab = build_air_table(n_rho=24, n_e=32)
        rho = 10.0**lr
        e = np.geomspace(1e5, 1e8, 40)
        p = tab.pressure(np.full(40, rho), e)
        assert np.all(np.diff(p) > 0)

    def test_sound_speed_positive_everywhere(self, table):
        rng = np.random.default_rng(0)
        rho = 10.0 ** rng.uniform(-6, 0.5, 200)
        e = 10.0 ** rng.uniform(5, 8, 200)
        a = table.sound_speed(rho, e)
        assert np.all(a > 100.0)


class TestHeatingBounds:
    def test_lees_distribution_bounded(self):
        from repro.geometry import SphereCone
        from repro.heating import lees_distribution
        body = SphereCone(0.5, 45.0, 3.0)
        s = np.linspace(1e-5, body.s_max * 0.99, 150)
        _, r = body.point(s)
        th = body.angle(s)
        ue = 3000.0 * np.cos(th)
        q = lees_distribution(s, r, np.full_like(s, 0.01),
                              np.full_like(s, 1e-4), ue, 3000.0 / 0.5)
        assert np.all(q > 0)
        assert q.max() < 1.3  # never exceeds the stagnation value by much

    def test_tangent_slab_between_thin_and_blackbody(self):
        from repro.constants import planck_lambda
        from repro.radiation import tangent_slab_flux
        ny = 60
        y = np.linspace(0.0, 0.05, ny)
        lam = np.array([0.4e-6, 0.6e-6])
        T = np.full(ny, 9000.0)
        B = planck_lambda(lam[None, :], T[:, None])
        for kappa in (1e-2, 1.0, 1e2, 1e4):
            q, q_lam = tangent_slab_flux(y, B * kappa, T, lam)
            q_thin = 2 * np.pi * float(
                np.sum(0.5 * (B[1:] + B[:-1]) * kappa
                       * np.diff(y)[:, None], axis=0)[0])
            q_bb = np.pi * float(planck_lambda(lam[0], 9000.0))
            assert q_lam[0] <= q_thin * 1.0001
            assert q_lam[0] <= q_bb * 1.0001


class TestTrajectoryInvariants:
    def test_ballistic_coefficient_controls_penetration(self):
        from repro.atmosphere import EarthAtmosphere
        from repro.trajectory import integrate_entry
        from repro.trajectory.entry import EntryVehicle
        atm = EarthAtmosphere()
        light = EntryVehicle("light", mass=500.0, area=5.0, cd=1.5)
        heavy = EntryVehicle("heavy", mass=5000.0, area=5.0, cd=1.5)
        kw = dict(h0=120e3, V0=7500.0, gamma0_deg=-10.0, V_stop=500.0)
        tr_l = integrate_entry(light, atm, **kw)
        tr_h = integrate_entry(heavy, atm, **kw)
        # the heavy vehicle reaches peak dynamic pressure deeper
        h_l = tr_l.h[tr_l.index_of_peak(tr_l.dynamic_pressure)]
        h_h = tr_h.h[tr_h.index_of_peak(tr_h.dynamic_pressure)]
        assert h_h < h_l

    def test_steeper_entry_peaks_deeper_and_harder(self):
        from repro.atmosphere import EarthAtmosphere
        from repro.trajectory import integrate_entry
        from repro.trajectory.entry import EntryVehicle
        atm = EarthAtmosphere()
        veh = EntryVehicle("cap", mass=3000.0, area=10.0, cd=1.3)
        shallow = integrate_entry(veh, atm, h0=120e3, V0=7500.0,
                                  gamma0_deg=-3.0, V_stop=500.0)
        steep = integrate_entry(veh, atm, h0=120e3, V0=7500.0,
                                gamma0_deg=-15.0, V_stop=500.0)
        assert steep.dynamic_pressure.max() \
            > 1.5 * shallow.dynamic_pressure.max()


class TestConservationBudgets:
    """Closed-domain budget regression + watchdog seeded-violation tests."""

    @staticmethod
    def _closed_box():
        from repro.solvers.euler1d import Euler1DSolver
        s = Euler1DSolver(np.linspace(0.0, 1.0, 81),
                          bc=("reflective", "reflective"))
        rho = np.where(s.xc < 0.5, 1.0, 0.125)
        p = np.where(s.xc < 0.5, 1.0, 0.1)
        return s.set_initial(rho, 0.0, p)

    def test_closed_euler1d_conserves_mass_energy(self):
        s = self._closed_box()
        m0, e0 = s.total_mass(), s.total_energy()
        s.run(0.2, cfl=0.45)
        assert s.total_mass() == pytest.approx(m0, rel=1e-12)
        assert s.total_energy() == pytest.approx(e0, rel=1e-12)

    def test_watchdog_silent_on_clean_closed_march(self):
        s = self._closed_box()
        s.run(0.2, cfl=0.45, watchdog=True)
        assert s.watchdog_events == []

    def test_watchdog_flags_seeded_mass_violation(self):
        from repro.resilience import ConservationWatchdog
        s = self._closed_box()
        wd = ConservationWatchdog()
        for k in range(3):
            s.steps = k
            wd.audit(s)
        s.U *= 1.001                       # seeded conservation violation
        s.steps = 3
        events = wd.audit(s)
        kinds = {e.kind for e in events}
        assert {"mass_budget", "energy_budget"} <= kinds
        ev = next(e for e in events if e.kind == "mass_budget")
        assert ev.value == pytest.approx(1e-3, rel=0.05)
        assert ev.component == "mass"

    def test_chemistry_update_conserves_elements(self):
        """The point-implicit chemistry operator must conserve element
        moles cell-by-cell (reactions rearrange, never create atoms)."""
        from repro.numerics.implicit import point_implicit_species_update
        from repro.thermo.kinetics import park_air_mechanism
        db = species_set("air5")
        mech = park_air_mechanism(db)
        rho = np.full((6,), 0.02)
        T = np.linspace(4000.0, 9000.0, 6)
        y = np.tile(np.array([0.70, 0.20, 0.04, 0.03, 0.03]), (6, 1))
        y = y / y.sum(axis=-1, keepdims=True)
        y_new = point_implicit_species_update(mech, rho, T, y, 1e-7)
        moles_old = (rho[:, None] * y / db.molar_mass) @ db.comp_matrix.T
        moles_new = (rho[:, None] * y_new / db.molar_mass) @ db.comp_matrix.T
        # the update's positivity limiting + renormalisation introduce
        # O(1e-9) relative drift; anything beyond that is a real leak
        np.testing.assert_allclose(moles_new, moles_old, rtol=1e-7)

    def test_reacting_solver_exposes_element_budgets(self):
        from tests.test_failure_modes import _make_reacting_small
        s = _make_reacting_small()
        totals = s.conservation_totals()
        assert "mass" in totals and "energy" in totals
        assert "element:N" in totals and "element:O" in totals
        assert all(np.isfinite(v) for v in totals.values())

    def test_watchdog_localizes_species_bound_violation(self):
        from repro.resilience import ConservationWatchdog
        from tests.test_failure_modes import _make_reacting_small
        s = _make_reacting_small()
        i_no = 4 + s.db.index["NO"]
        s.U[3, 5, i_no] = -1e-4 * s.U[3, 5, 0]   # negative partial density
        events = ConservationWatchdog().audit(s)
        ev = next(e for e in events if e.kind == "species_bounds")
        assert ev.cell == (3, 5)
        assert ev.component == "species[NO]"
        assert ev.value < 0.0
