"""Tests for the element-potential chemical-equilibrium solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InputError
from repro.thermo.equilibrium import (EquilibriumGas, EquilibriumSolver,
                                      air_reference_mass_fractions,
                                      element_moles,
                                      titan_reference_mass_fractions)
from repro.thermo.species import species_set


class TestElementMoles:
    def test_air_reference(self, air11):
        y = air_reference_mass_fractions(air11)
        b = element_moles(air11, y)
        # N: 2 * 0.767/0.0280134 mol/kg
        assert b[0] == pytest.approx(2 * 0.767 / 28.0134e-3, rel=1e-10)
        assert b[1] == pytest.approx(2 * 0.233 / 31.9988e-3, rel=1e-10)
        assert b[2] == pytest.approx(0.0, abs=1e-12)  # charge neutral

    def test_batched(self, air11, rng):
        y = rng.random((4, 5, air11.n))
        y /= y.sum(axis=-1, keepdims=True)
        b = element_moles(air11, y)
        assert b.shape == (4, 5, 3)


class TestSolveRhoT:
    def test_cold_air_is_frozen(self, air_gas, air11):
        y = air_gas.composition_rho_T(np.array([1.2]), np.array([300.0]))[0]
        assert y[air11.index["N2"]] == pytest.approx(0.767, abs=1e-6)
        assert y[air11.index["O2"]] == pytest.approx(0.233, abs=1e-6)

    def test_oxygen_dissociates_first(self, air_gas, air11):
        y = air_gas.composition_rho_T(np.array([0.01]),
                                      np.array([4000.0]))[0]
        # at 4000 K, low density: O2 mostly dissociated, N2 mostly intact
        assert y[air11.index["O"]] > 0.1
        assert y[air11.index["N2"]] > 0.7
        assert y[air11.index["O2"]] < 0.08

    def test_full_dissociation_hot(self, air_gas, air11):
        y = air_gas.composition_rho_T(np.array([1e-4]),
                                      np.array([12000.0]))[0]
        assert y[air11.index["N2"]] < 0.01
        assert y[air11.index["N"]] + y[air11.index["N+"]] > 0.7

    def test_ionization_at_high_T(self, air_gas, air11):
        y = air_gas.composition_rho_T(np.array([1e-4]),
                                      np.array([15000.0]))[0]
        assert y[air11.index["e-"]] > 1e-6
        assert y[air11.index["N+"]] > 0.01

    def test_no_peak_around_3500K(self, air_gas, air11):
        T = np.array([2000.0, 3500.0, 8000.0])
        rho = np.full(3, 0.1)
        y = air_gas.composition_rho_T(rho, T)
        jNO = air11.index["NO"]
        assert y[1, jNO] > y[0, jNO]
        assert y[1, jNO] > y[2, jNO]

    def test_mass_fractions_sum_to_one(self, air_gas, rng):
        rho = 10.0 ** rng.uniform(-6, 0.5, 30)
        T = rng.uniform(250.0, 15000.0, 30)
        y = air_gas.composition_rho_T(rho, T)
        assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(y >= 0.0)

    def test_element_conservation(self, air_gas, air11, rng):
        rho = 10.0 ** rng.uniform(-5, 0, 20)
        T = rng.uniform(300.0, 14000.0, 20)
        y = air_gas.composition_rho_T(rho, T)
        b = element_moles(air11, y)
        # charge row is identically zero -> compare with an absolute
        # tolerance set by the solver's residual scale (max element ~55
        # mol/kg at rtol 1e-11)
        assert np.allclose(b, air_gas.b, rtol=1e-8, atol=1e-8)

    def test_charge_neutrality(self, air_gas, air11):
        y = air_gas.composition_rho_T(np.array([1e-3]),
                                      np.array([12000.0]))[0]
        n = y / air11.molar_mass
        net = float(np.sum(n * air11.charge))
        total_ion = float(np.sum(n * np.abs(air11.charge)))
        assert abs(net) < 1e-5 * max(total_ion, 1e-30)

    def test_shapes_broadcast(self, air_gas):
        y = air_gas.composition_rho_T(np.full((2, 3), 0.01),
                                      np.full((2, 3), 5000.0))
        assert y.shape == (2, 3, 11)

    def test_invalid_inputs_raise(self, air_gas):
        with pytest.raises(InputError):
            air_gas.composition_rho_T(np.array([-1.0]), np.array([300.0]))


class TestGibbsMinimality:
    """At fixed (rho, T) the converged composition minimises the mixture
    Helmholtz free energy (not Gibbs — volume, not pressure, is held)."""

    def test_perturbation_increases_helmholtz(self, air5_gas, air5, rng):
        rho, T = np.array([0.05]), np.array([5000.0])
        y0 = air5_gas.composition_rho_T(rho, T)[0]
        a0 = _mixture_helmholtz(air5_gas, y0, rho[0], T[0])
        # random element-conserving perturbations: move O between O2 and O
        for _ in range(10):
            y = y0.copy()
            d = rng.uniform(-0.2, 0.2) * min(y[air5.index["O2"]], 0.05)
            y[air5.index["O2"]] -= d
            y[air5.index["O"]] += d
            if np.any(y < 0):
                continue
            a = _mixture_helmholtz(air5_gas, y, rho[0], T[0])
            assert a >= a0 - abs(a0) * 1e-9

    def test_reaction_equilibrium_constant_satisfied(self, air5_gas, air5):
        # For O2 <-> 2O at equilibrium: mu_O2 = 2 mu_O
        rho, T = np.array([0.02]), np.array([4500.0])
        y = air5_gas.composition_rho_T(rho, T)[0]
        mu = _chemical_potentials(air5_gas, y, rho[0], T[0])
        assert mu[air5.index["O2"]] == pytest.approx(
            2 * mu[air5.index["O"]], rel=1e-6)
        # N2 <-> 2N
        assert mu[air5.index["N2"]] == pytest.approx(
            2 * mu[air5.index["N"]], rel=1e-6)
        # N2 + O2 <-> 2NO
        assert (mu[air5.index["N2"]] + mu[air5.index["O2"]]) == (
            pytest.approx(2 * mu[air5.index["NO"]], rel=1e-6))


def _chemical_potentials(gas, y, rho, T):
    """mu_j = g0_j + R T ln(c_j R T / p0) per mole."""
    from repro.constants import R_UNIVERSAL as R
    from repro.thermo.statmech import P_STANDARD
    db = gas.db
    c = np.maximum(y * rho / db.molar_mass, 1e-300)
    g0 = gas.solver.thermo.g0(np.asarray(T))
    return g0 + R * T * np.log(c * R * T / P_STANDARD)


def _mixture_helmholtz(gas, y, rho, T):
    """Specific Helmholtz energy a = sum n_j (mu_j - R T) [J/kg]."""
    from repro.constants import R_UNIVERSAL as R
    n = y / gas.db.molar_mass
    return float(np.sum(n * (_chemical_potentials(gas, y, rho, T) - R * T)))


class TestActiveSetNewton:
    """`_newton` runs each iteration on the states still above ``tol``."""

    TOL = 1.0e-11

    @pytest.fixture(scope="class")
    def batch(self, air_gas):
        # test_failure_modes' corrupted warm start: every 10th of 200
        # converged states re-seeded with exp(150)-overflowing potentials
        r = np.random.default_rng(20260706)
        rho, T = 10 ** r.uniform(-4, 0, 200), r.uniform(1500.0, 12000.0, 200)
        _, lam = air_gas.solver.solve_rho_T(rho, T, air_gas.b,
                                            return_lambda=True)
        lam0 = lam.copy()
        lam0[::10] = 150.0
        return rho, T, lam0

    @staticmethod
    def _kernel_args(solver, rho, T, b):
        """(gt, c_ref, target, scale) exactly as solve_rho_T builds them."""
        from repro.constants import R_UNIVERSAL
        from repro.thermo.statmech import P_STANDARD
        target = rho[:, None] * np.broadcast_to(b, (rho.size, solver.K))
        scale = np.maximum(np.max(np.abs(target), axis=1, keepdims=True),
                           1e-30)
        return (solver.thermo.g0_over_RT(T), P_STANDARD / (R_UNIVERSAL * T),
                target, scale)

    def test_solves_only_unconverged_rows(self, air_gas, batch,
                                          monkeypatch):
        rho, T, lam0 = batch
        solver = air_gas.solver
        solve_rows, solve = [], np.linalg.solve    # rows of each solve call
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: (
            solve_rows.append(a.shape[0]) or solve(a, b)))
        lam_in = lam0.copy()
        rec = []
        solver._newton(lam_in, *self._kernel_args(solver, rho, T, air_gas.b),
                       self.TOL, 250, record=rec)
        assert all(r.shape == (200,) for r in rec)
        assert solve_rows == [int(np.count_nonzero(r > self.TOL))
                              for r in rec[:-1]]
        # the clean warm starts are converged on entry; the corrupted
        # rows stall to max_iter and are all the late solves see
        assert len(solve_rows) == 250
        late = np.nonzero(rec[-2] > self.TOL)[0]
        assert late.size and set(late) <= set(range(0, 200, 10))
        assert solve_rows[-1] == late.size
        np.testing.assert_array_equal(lam_in, lam0)

    def test_batch_split_does_not_change_rows(self, air_gas, batch):
        rho, T, _ = batch
        solver = air_gas.solver
        y = solver.solve_rho_T(rho, T, air_gas.b)
        for half in (slice(0, 100), slice(100, 200)):
            # bitwise on x86-64 OpenBLAS; another BLAS may pick a
            # different kernel for a different row count
            np.testing.assert_allclose(
                solver.solve_rho_T(rho[half], T[half], air_gas.b), y[half],
                rtol=1e-12, atol=0.0)

    def test_lstsq_fallback_covers_active_rows(self, air_gas, batch,
                                               monkeypatch):
        rho, T, _ = batch
        solver = air_gas.solver
        y = solver.solve_rho_T(rho, T, air_gas.b)
        raised, lstsq_calls = [], []
        solve, lstsq = np.linalg.solve, np.linalg.lstsq

        def failing_solve(a, b):
            # fail once, on the first iteration some rows have left
            if not raised and a.shape[0] < rho.size:
                raised.append(a.shape[0])
                raise np.linalg.LinAlgError("singular matrix")
            return solve(a, b)

        def counted_lstsq(a, b, rcond=None):
            lstsq_calls.append(a.shape)
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        y_fb = solver.solve_rho_T(rho, T, air_gas.b)
        assert raised and 0 < raised[0] < rho.size
        assert len(lstsq_calls) == raised[0]
        np.testing.assert_allclose(y_fb, y, rtol=0.0, atol=1e-9)

    def test_stalled_row_leaves_early_and_is_rescued(self, air_gas):
        from repro.thermo.equilibrium import _CONV_TOL, _STALL_ITERS
        solver = air_gas.solver
        rho, T = np.array([1e-3, 0.1]), np.array([3000.0, 7000.0])
        y_cold, lam = solver.solve_rho_T(rho, T, air_gas.b,
                                         return_lambda=True)
        # a warm start with oxygen's potential collapsed: the O residual
        # is the whole O target and the line search cannot move it
        lam0 = lam.copy()
        lam0[:, solver.db.elements.index("O")] = -1000.0
        rec = []
        solver._newton(lam0, *self._kernel_args(solver, rho, T, air_gas.b),
                       self.TOL, 250, record=rec)
        assert len(rec) == 1 + _STALL_ITERS
        assert np.all(rec[-1] > _CONV_TOL)
        # solve_rho_T hands both rows to the recovery ladder, whose cold
        # restart converges them
        y = solver.solve_rho_T(rho, T, air_gas.b, lam0=lam0)
        np.testing.assert_allclose(y, y_cold, rtol=0.0, atol=1e-9)


class TestSolveTP:
    def test_density_matches_state(self, air_gas):
        y, rho = air_gas.composition_T_p(np.array([6000.0]),
                                         np.array([101325.0]))
        p_back = air_gas.mix.pressure(rho, np.array([6000.0]), y)
        assert p_back[0] == pytest.approx(101325.0, rel=1e-8)

    def test_dissociation_lowers_molar_mass(self, air_gas):
        y_cold, _ = air_gas.composition_T_p(np.array([300.0]),
                                            np.array([1e5]))
        y_hot, _ = air_gas.composition_T_p(np.array([8000.0]),
                                           np.array([1e5]))
        m_cold = air_gas.db.mean_molar_mass(y_cold[0])
        m_hot = air_gas.db.mean_molar_mass(y_hot[0])
        assert m_hot < 0.75 * m_cold

    def test_pressure_suppresses_dissociation(self, air_gas, air11):
        # Le Chatelier: higher p -> less dissociation at same T
        y_lo, _ = air_gas.composition_T_p(np.array([5000.0]),
                                          np.array([100.0]))
        y_hi, _ = air_gas.composition_T_p(np.array([5000.0]),
                                          np.array([1e6]))
        jO = air11.index["O"]
        assert y_lo[0, jO] > y_hi[0, jO]


class TestSolveRhoE:
    @pytest.fixture(scope="class")
    def states(self, air_gas):
        """Twelve (rho, e) states over the 48 x 72 table's range.  The
        first eight start 0.1 % off their answers and pass the
        temperature iteration's test at iteration 3-6; the last four start
        from 4000 K, as the table build does, and pass at 16-22."""
        rho = np.array([1e-6, 1e-4, 1e-2, 1.0, 3e-5, 0.3, 3e-3, 5.0])
        T = np.array([600.0, 2500.0, 5000.0, 9000.0, 12000.0, 300.0,
                      7000.0, 20000.0])
        e = air_gas.state_rho_T(rho, T)["e"]
        return (np.r_[rho, 2.4e-5, 1.8e-3, 3.94e-3, 0.134],
                np.r_[e, 2.07e6, 3.24e6, 3.63e6, 2.47e7],
                np.r_[1.001 * T, np.full(4, 4000.0)])

    def test_answer_does_not_depend_on_batch_mates(self, air_gas, states):
        rho, e, T_guess = states
        solver = air_gas.solver
        y, T = solver.solve_rho_e(rho, e, air_gas.b, T_guess=T_guess)
        for i in range(rho.size):
            one = slice(i, i + 1)
            y_i, T_i = solver.solve_rho_e(rho[one], e[one], air_gas.b,
                                          T_guess=T_guess[one])
            # rtol, not bitwise: the BLAS caveat of
            # test_batch_split_does_not_change_rows
            np.testing.assert_allclose(T[one], T_i, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(y[one], y_i, rtol=1e-12, atol=1e-15)

    def test_solve_rho_T_sees_only_unconverged_states(self, air_gas,
                                                      states, monkeypatch):
        rho, e, T_guess = states
        seen, solve_rho_T = [], EquilibriumSolver.solve_rho_T

        def spy(self, rho_, T_, *args, **kwargs):
            out = solve_rho_T(self, rho_, T_, *args, **kwargs)
            seen.append((np.array(rho_), np.array(T_), out[0]))
            return out

        monkeypatch.setattr(EquilibriumSolver, "solve_rho_T", spy)
        air_gas.solver.solve_rho_e(rho, e, air_gas.b, T_guess=T_guess)
        assert seen[0][0].size == rho.size
        where = {r: i for i, r in enumerate(rho)}
        # the calls pair up: each iterate, then its forward-difference
        # step; both of the next two calls get the states still above tol
        for k in range(0, len(seen), 2):
            rho_k, T_k, y_k = seen[k]
            e_k = e[[where[r] for r in rho_k]]
            f = air_gas.mix.e_mass(T_k, y_k) - e_k
            above = ~(np.abs(f) < 1e-9 * np.maximum(np.abs(e_k), 1e4))
            later = [r for r, _, _ in seen[k + 1:k + 3]]
            assert len(later) == (2 if above.any() else 0)
            assert all(np.array_equal(r, rho_k[above]) for r in later)
        assert len(seen) > 20                  # the slow states ran on

    @given(T=st.floats(min_value=400.0, max_value=13000.0),
           lr=st.floats(min_value=-5.0, max_value=0.0))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, T, lr):
        gas = EquilibriumGas(species_set("air11"),
                             air_reference_mass_fractions(
                                 species_set("air11")))
        rho = np.array([10.0 ** lr])
        st_ = gas.state_rho_T(rho, np.array([T]))
        y, T_back = gas.solver.solve_rho_e(rho, st_["e"], gas.b)
        assert T_back[0] == pytest.approx(T, rel=1e-5)

    def test_warm_start_guess(self, air_gas):
        st_ = air_gas.state_rho_T(np.array([0.01]), np.array([7000.0]))
        y, T = air_gas.solver.solve_rho_e(np.array([0.01]), st_["e"],
                                          air_gas.b, T_guess=6900.0)
        assert T[0] == pytest.approx(7000.0, rel=1e-6)

    def test_out_of_iterations_composition_matches_returned_T(self,
                                                             air_gas):
        # six iterations stop short of convergence (the residual check
        # still passes); y must be the composition at the returned T,
        # not at the previous iterate
        solver = air_gas.solver
        y, T = solver.solve_rho_e(1e-2, 1e7, air_gas.b, max_iter=6)
        y_at_T = solver.solve_rho_T(1e-2, T, air_gas.b)
        assert np.max(np.abs(y - y_at_T)) <= 1e-10


class TestEquilibriumGasFacade:
    def test_state_dict_keys(self, air_gas):
        st_ = air_gas.state_rho_T(np.array([0.1]), np.array([3000.0]))
        for key in ("y", "p", "T", "rho", "e", "h", "a_frozen", "gamma_eff"):
            assert key in st_

    def test_gamma_eff_range(self, air_gas, rng):
        rho = 10.0 ** rng.uniform(-4, 0, 15)
        T = rng.uniform(300.0, 12000.0, 15)
        st_ = air_gas.state_rho_T(rho, T)
        assert np.all(st_["gamma_eff"] > 1.0)
        assert np.all(st_["gamma_eff"] < 1.7)

    def test_sound_speed_cold_limit(self, air_gas):
        a = air_gas.sound_speed_equilibrium(np.array([1.2]),
                                            np.array([300.0]))
        assert a[0] == pytest.approx(347.0, rel=0.01)

    def test_equilibrium_sound_speed_below_frozen_when_reacting(self,
                                                                air_gas):
        rho, T = np.array([0.01]), np.array([6000.0])
        a_eq = air_gas.sound_speed_equilibrium(rho, T)[0]
        a_fr = air_gas.state_rho_T(rho, T)["a_frozen"][0]
        assert a_eq < a_fr

    def test_bad_reference_raises(self, air11):
        with pytest.raises(InputError):
            EquilibriumGas(air11, {"N2": 0.5})  # doesn't sum to 1

    def test_reference_by_dict(self, air11):
        gas = EquilibriumGas(air11, {"N2": 0.767, "O2": 0.233})
        assert gas.y_ref[air11.index["N2"]] == pytest.approx(0.767)


class TestTitanEquilibrium:
    def test_cold_composition_frozen(self, titan_gas, titan9):
        y = titan_gas.composition_rho_T(np.array([1.0]),
                                        np.array([200.0]))[0]
        assert y[titan9.index["N2"]] == pytest.approx(0.9707, abs=1e-3)
        assert y[titan9.index["CH4"]] == pytest.approx(0.0293, abs=1e-3)

    def test_methane_pyrolysis_produces_hcn(self, titan_gas, titan9):
        y = titan_gas.composition_T_p(np.array([1500.0]),
                                      np.array([5000.0]))[0][0]
        assert y[titan9.index["HCN"]] > 1e-3
        assert y[titan9.index["CH4"]] < 1e-3

    def test_cn_exists_at_mid_temperatures(self, titan_gas, titan9):
        y = titan_gas.composition_T_p(np.array([3500.0]),
                                      np.array([5000.0]))[0][0]
        assert y[titan9.index["CN"]] > 1e-4

    def test_element_conservation_titan(self, titan_gas, titan9):
        y = titan_gas.composition_rho_T(np.array([0.01]),
                                        np.array([5500.0]))[0]
        b = element_moles(titan9, y)
        assert np.allclose(b, titan_gas.b, rtol=1e-8)
