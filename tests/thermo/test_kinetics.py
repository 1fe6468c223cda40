"""Tests for the Park finite-rate air mechanism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InputError
from repro.thermo.kinetics import (Reaction, ReactionMechanism,
                                   park_air_mechanism)
from repro.thermo.species import species_set


@pytest.fixture(scope="module")
def mech11():
    return park_air_mechanism("air11")


@pytest.fixture(scope="module")
def mech5():
    return park_air_mechanism("air5")


class TestMechanismConstruction:
    def test_air11_reaction_count(self, mech11):
        assert mech11.n_reactions == 15

    def test_air5_restriction_drops_ion_reactions(self, mech5):
        # only dissociation + Zeldovich survive without ions
        assert mech5.n_reactions == 5
        for rx in mech5.reactions:
            assert "e-" not in rx.reactants and "e-" not in rx.products

    def test_stoichiometry_conserves_mass(self, mech11, air11):
        # dnu . M == 0 for every reaction
        imbalance = mech11.dnu @ air11.molar_mass
        assert np.allclose(imbalance, 0.0, atol=1e-15)

    def test_stoichiometry_conserves_elements_and_charge(self, mech11,
                                                         air11):
        # comp_matrix @ dnu^T == 0
        residual = air11.comp_matrix @ mech11.dnu.T
        assert np.allclose(residual, 0.0)

    def test_cgs_conversion(self):
        rx = Reaction.from_cgs("A + B <=> C", {"N": 1, "O": 1}, {"NO": 1},
                               1.0e12, 0.0, 100.0)
        assert rx.A == pytest.approx(1.0e6)  # cm^3 -> m^3

    def test_bad_rate_T_raises(self):
        with pytest.raises(InputError):
            Reaction("x", {"N": 1}, {"N": 1}, 1.0, 0.0, 0.0, rate_T="Tx")

    def test_empty_mechanism_raises(self, air11):
        with pytest.raises(InputError):
            ReactionMechanism(air11, [])


class TestRateConstants:
    def test_kf_monotonic_for_dissociation(self, mech11):
        # dissociation rates grow with T
        T = np.array([2000.0, 4000.0, 8000.0])
        kf = mech11.kf(T)
        assert np.all(np.diff(kf[:, 0]) > 0)  # N2 dissociation

    def test_two_temperature_control(self, mech11):
        # dissociation slows when Tv < T (Park sqrt(T*Tv))
        T = np.array([8000.0])
        kf_eq = mech11.kf(T, T)
        kf_cold_v = mech11.kf(T, np.array([2000.0]))
        assert kf_cold_v[0, 0] < kf_eq[0, 0]
        # exchange reactions (index 3: N2+O) are T-controlled, unchanged
        assert kf_cold_v[0, 3] == pytest.approx(kf_eq[0, 3])

    def test_detailed_balance_kc(self, mech11, air_gas):
        # Kc from Gibbs equals the concentration ratio at equilibrium
        rho, T = np.array([0.01]), np.array([6500.0])
        y = air_gas.composition_rho_T(rho, T)
        c = (rho[:, None] * y / mech11.db.molar_mass)[0]
        Kc = mech11.Kc(T)[0]
        logc = np.log(np.maximum(c, 1e-300))
        for i in range(mech11.n_reactions):
            lhs = float(mech11.dnu[i] @ logc)
            assert lhs == pytest.approx(np.log(Kc[i]), abs=1e-5)


class TestProductionRates:
    def test_wdot_zero_at_equilibrium(self, mech11, air_gas, air11):
        rho = np.array([0.05])
        T = np.array([5500.0])
        y = air_gas.composition_rho_T(rho, T)
        w_eq = np.abs(mech11.wdot(rho, T, y)).max()
        # scale: the same mechanism driving frozen air at this state
        y0 = np.zeros((1, 11))
        y0[0, air11.index["N2"]], y0[0, air11.index["O2"]] = 0.767, 0.233
        w_frozen = np.abs(mech11.wdot(rho, T, y0)).max()
        assert w_eq < 1e-8 * w_frozen

    def test_mass_conservation(self, mech11, rng):
        y = rng.random((8, 11))
        y /= y.sum(axis=1, keepdims=True)
        w = mech11.wdot(np.full(8, 0.01), np.full(8, 7000.0), y)
        assert np.allclose(w.sum(axis=1), 0.0, atol=1e-10 * np.abs(w).max())

    def test_frozen_air_dissociates_oxygen_first(self, mech11, air11):
        y0 = np.zeros(11)
        y0[air11.index["N2"]] = 0.767
        y0[air11.index["O2"]] = 0.233
        w = mech11.wdot(np.array([0.01]), np.array([5000.0]), y0[None, :])[0]
        assert w[air11.index["O2"]] < 0          # O2 destroyed
        assert w[air11.index["O"]] > 0           # O produced
        assert abs(w[air11.index["O2"]]) > 10 * abs(w[air11.index["N2"]])

    def test_recombination_in_cold_atomic_gas(self, mech11, air11):
        # pure atomic N at low T must recombine to N2
        y = np.zeros(11)
        y[air11.index["N"]] = 1.0
        w = mech11.wdot(np.array([0.1]), np.array([1000.0]), y[None, :])[0]
        assert w[air11.index["N2"]] > 0
        assert w[air11.index["N"]] < 0

    def test_cold_air_is_inert(self, mech11, air11):
        y0 = np.zeros(11)
        y0[air11.index["N2"]] = 0.767
        y0[air11.index["O2"]] = 0.233
        w = mech11.wdot(np.array([1.2]), np.array([300.0]), y0[None, :])[0]
        assert np.abs(w).max() < 1e-12

    @pytest.mark.parametrize("Tv", [False, True], ids=["1T", "2T"])
    def test_rates_of_progress_match_kf_kb(self, mech11, air11, rng, Tv):
        # one Arrhenius pass at T feeds kf's T columns and kb; the rates
        # stay bitwise equal to composing the public kf and kb
        assert {rx.rate_T for rx in mech11.reactions} == {"T", "TTv", "Tv"}
        y = rng.random((6, air11.n))
        y[:, air11.index["e-"]] = 0.0
        y[1, [air11.index["N"], air11.index["O+"]]] = 0.0
        y[2] = 0.0
        y[2, air11.index["N2"]] = 1.0
        y /= y.sum(axis=1, keepdims=True)
        y[3, air11.index["e-"]] = 1e-9
        rho = np.geomspace(1e-4, 1.0, 6)
        T = np.array([300.0, 2000.0, 5000.0, 9000.0, 15000.0, 30000.0])
        Tv = np.array([300.0, 800.0, 7000.0, 4000.0, 15000.0, 1.2e4]) \
            if Tv else None
        np.testing.assert_array_equal(
            mech11.rates_of_progress(rho, T, y, Tv),
            _kf_kb_rates(mech11, rho, T, y, Tv))

    def test_batched_shapes(self, mech11, rng):
        y = rng.random((3, 4, 11))
        y /= y.sum(axis=-1, keepdims=True)
        w = mech11.wdot(np.full((3, 4), 0.01), np.full((3, 4), 6000.0), y)
        assert w.shape == (3, 4, 11)

    @given(T=st.floats(min_value=3000.0, max_value=12000.0))
    @settings(max_examples=15, deadline=None)
    def test_relaxation_toward_equilibrium(self, T):
        """Stiff integration of dY/dt = w/rho must land on the equilibrium
        solver's composition (detailed-balance consistency, end to end)."""
        from scipy.integrate import solve_ivp

        mech = park_air_mechanism("air5")
        db = mech.db
        from repro.thermo.equilibrium import (EquilibriumGas,
                                              air_reference_mass_fractions)
        gas = EquilibriumGas(db, air_reference_mass_fractions(db))
        rho = np.array([0.1])
        y_eq = gas.composition_rho_T(rho, np.array([T]))[0]
        y0 = np.zeros(5)
        y0[db.index["N2"]], y0[db.index["O2"]] = 0.767, 0.233

        def rhs(t, y):
            return mech.wdot(rho, np.array([T]),
                             np.clip(y, 0.0, 1.0)[None, :])[0] / rho[0]

        sol = solve_ivp(rhs, (0.0, 10.0), y0, method="BDF",
                        rtol=1e-8, atol=1e-12)
        assert sol.success
        assert np.abs(sol.y[:, -1] - y_eq).max() < 5e-4


def _kf_kb_rates(mech, rho, T, y, Tv):
    """Net rates of progress composed from the public ``kf`` and ``kb``,
    as ``rates_of_progress`` computed them with one Arrhenius pass each
    for kf's T columns and for kb."""
    c = np.maximum(rho[..., None] * y / mech.db.molar_mass, 0.0)
    logc = np.log(np.maximum(c, 1e-300))
    Rf = mech.kf(T, Tv) * np.exp(np.einsum("rs,...s->...r", mech.nu_r,
                                           logc))
    Rb = mech.kb(T, Tv) * np.exp(np.einsum("rs,...s->...r", mech.nu_p,
                                           logc))
    zero = (c <= 0.0).astype(float)
    Rf = np.where(np.einsum("rs,...s->...r", mech.nu_r, zero) > 0, 0.0, Rf)
    Rb = np.where(np.einsum("rs,...s->...r", mech.nu_p, zero) > 0, 0.0, Rb)
    cm = np.einsum("rs,...s->...r", mech.tb_eff, c)
    return np.where(mech.is_tb, (Rf - Rb) * cm, Rf - Rb)


class TestJacobian:
    def test_jacobian_matches_finite_difference(self, mech5, rng):
        y = rng.random((2, 5))
        y /= y.sum(axis=1, keepdims=True)
        rho = np.full(2, 0.05)
        T = np.full(2, 6000.0)
        J = mech5.jacobian_y(rho, T, y)
        assert J.shape == (2, 5, 5)
        # perturb one species and compare
        j = 2
        dy = 1e-6
        yp = y.copy()
        yp[..., j] += dy
        fd = (mech5.wdot(rho, T, yp) - mech5.wdot(rho, T, y)) / dy
        assert np.allclose(J[..., j], fd, rtol=2e-2, atol=1e-4)
