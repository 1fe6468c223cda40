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


class TestNonFiniteInputs:
    """Every Gibbs entry point refuses a non-finite (or, for rho, T and
    p, non-positive) state input with an InputError naming it.  A NaN
    state would otherwise come back NaN and "converged": ``fnorm > tol``
    is false for a NaN residual."""

    @pytest.mark.parametrize("rho, T, name", [
        (np.nan, 3000.0, "rho"), (1e-3, np.inf, "T"),
        (np.array([1e-3, np.nan, 0.1]), 3000.0, "rho"),
        (1e-3, np.array([3000.0, -np.inf]), "T"), (0.0, 3000.0, "rho")])
    def test_solve_rho_T(self, air_gas, rho, T, name):
        with pytest.raises(InputError, match=f"^{name} must be finite"):
            air_gas.solver.solve_rho_T(rho, T, air_gas.b)

    @pytest.mark.parametrize("e", [np.nan, np.inf, -np.inf])
    def test_solve_rho_e(self, air_gas, e):
        with pytest.raises(InputError, match="^e must be finite"):
            air_gas.solver.solve_rho_e(1e-3, e, air_gas.b)
        with pytest.raises(InputError, match="^rho must be finite"):
            air_gas.solver.solve_rho_e(e, 1e6, air_gas.b)

    @pytest.mark.parametrize("T, p, name", [
        (np.nan, 1e4, "T"), (3000.0, np.inf, "p"), (3000.0, -1.0, "p"),
        (np.array([3000.0, np.nan]), 1e4, "T")])
    def test_solve_T_p(self, air_gas, T, p, name, monkeypatch):
        passes = []
        newton = EquilibriumSolver._newton
        monkeypatch.setattr(EquilibriumSolver, "_newton",
                            lambda self, *a, **kw: (passes.append(1)
                                                    or newton(self, *a,
                                                              **kw)))
        with pytest.raises(InputError, match=f"^{name} must be finite"):
            air_gas.solver.solve_T_p(T, p, air_gas.b)
        assert passes == []          # refused before the first pass


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

    def test_matches_the_recomputing_kernel_bitwise(self, air_gas):
        """The kernel keeps the accepted line-search trial as its iterate
        and recomputes only when all eight halvings are spent; the
        answers and trajectories are those of `_newton_recomputing`."""
        solver = air_gas.solver
        rho = np.array([1e-3, 0.1, 1e-2, 3e-4, 0.5, 2e-5, 1e-3, 0.1, 0.05,
                        1e-4])
        T = np.array([3000.0, 7000.0, 5000.0, 9000.0, 2500.0, 12000.0,
                      3000.0, 7000.0, 4000.0, 6000.0])
        _, lam = solver.solve_rho_T(rho, T, air_gas.b, return_lambda=True)
        lam0 = lam.copy()
        # rows 0-1: the stalled fixture, all eight halvings every
        # iteration; 2-3: overflowing potentials, full steps to
        # max_iter; 4-7: first trial accepted; 8-9: halve, then accept
        lam0[0:2, solver.db.elements.index("O")] = -1000.0
        lam0[2:4] = 150.0
        lam0[4:6] += 0.5
        lam0[6:8] = solver._guess_lambda(
            rho[6:8], T[6:8], np.broadcast_to(air_gas.b, (2, solver.K)),
            solver.thermo.g0_over_RT(T[6:8]))
        lam0[8:] -= 3.0
        args = self._kernel_args(solver, rho, T, air_gas.b)
        # the whole batch, and the rows whose halvings end in an accepted
        # trial with no row spending all eight beside them
        for rows in (slice(None), slice(2, None)):
            sub = [a[rows] for a in args]
            for max_iter in (250, 7):
                got, want = [], []
                out = solver._newton(lam0[rows], *sub, self.TOL, max_iter,
                                     record=got)
                ref = _newton_recomputing(solver, lam0[rows], *sub,
                                          self.TOL, max_iter, record=want)
                for a, b in zip(out, ref):
                    np.testing.assert_array_equal(a, b)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)


def _newton_recomputing(solver, lam, gt, c_ref, target, scale, tol,
                        max_iter, record=None):
    """Reference for `EquilibriumSolver._newton`: the same damped Newton,
    but every iteration recomputes c, F and fnorm after its line search,
    through `np.clip`, `np.max`, `np.any` and a fresh identity."""
    from repro.thermo.equilibrium import _EXP_CLIP, _STALL_ITERS
    A = solver._A

    def concentrations(lam):
        expo = -gt + lam @ A
        return c_ref[:, None] * np.exp(np.clip(expo, -_EXP_CLIP,
                                               _EXP_CLIP))

    def residual(c):
        return c @ A.T - target

    lam = np.array(lam, dtype=float)
    c = concentrations(lam)
    F = residual(c)
    fnorm = np.max(np.abs(F) / scale, axis=1)
    if record is not None:
        record.append(fnorm.copy())
    c_out, lam_out, fnorm_out = c, lam, fnorm
    idx = np.arange(lam.shape[0])
    ref = fnorm.copy()
    for it in range(max_iter):
        keep = fnorm > tol
        if it and not it % _STALL_ITERS:
            keep &= fnorm < 0.5 * ref[idx]
            ref[idx] = fnorm
        if not keep.all():
            c_out[idx], lam_out[idx], fnorm_out[idx] = c, lam, fnorm
            idx = idx[keep]
            lam, c, F, fnorm, gt, c_ref, target, scale = (
                a[keep] for a in (lam, c, F, fnorm, gt, c_ref, target,
                                  scale))
        if not idx.size:
            break
        Jc = c[:, None, :] * A[None, :, :]
        J = Jc @ A.T
        trace = np.einsum("bkk->b", J)
        mu = 1e-14 * np.maximum(trace, 1e-30)
        J = J + mu[:, None, None] * np.eye(solver.K)
        dlam = np.linalg.solve(J, -F[:, :, None])[:, :, 0]
        mx = np.max(np.abs(dlam), axis=1, keepdims=True)
        dlam *= np.minimum(1.0, 4.0 / np.maximum(mx, 1e-30))
        step = np.ones((idx.size, 1), dtype=np.float64)
        for _ls in range(8):
            c_new = concentrations(lam + step * dlam)
            f_new = np.max(np.abs(residual(c_new)) / scale, axis=1)
            worse = f_new > fnorm * (1.0 - 1e-4 * step[:, 0])
            if not np.any(worse):
                break
            step[worse] *= 0.5
        lam = lam + step * dlam
        c = concentrations(lam)
        F = residual(c)
        fnorm = np.max(np.abs(F) / scale, axis=1)
        if record is not None:
            fnorm_out[idx] = fnorm
            record.append(fnorm_out.copy())
    c_out[idx], lam_out[idx], fnorm_out[idx] = c, lam, fnorm
    return c_out, lam_out, fnorm_out


def _solve_T_p_by_rho_T(solver, T, p, b, *, tol=1.0e-10, max_iter=60):
    """The (T, p) density fixed point as a loop of public `solve_rho_T`
    calls, each evaluating g0/RT afresh."""
    from repro.constants import R_UNIVERSAL
    T_in, p_in = np.asarray(T, dtype=float), np.asarray(p, dtype=float)
    shape = np.broadcast_shapes(T_in.shape, p_in.shape)
    T_f = np.broadcast_to(T_in, shape).astype(float)
    p_f = np.broadcast_to(p_in, shape).astype(float)
    rho = p_f * 0.02 / (R_UNIVERSAL * T_f)
    lam = None
    for _ in range(max_iter):
        y, lam = solver.solve_rho_T(rho, T_f, b, lam0=lam,
                                    return_lambda=True)
        ratio = p_f / (rho * solver.mix.gas_constant(y) * T_f)
        if np.all(np.abs(ratio - 1.0) < tol):
            return y, rho
        rho = rho * ratio
    raise AssertionError("reference density iteration did not converge")


#: (T, p) states of the service pool's range (300-12,000 K, 1e2-1e6 Pa)
#: and fig 6's stagnation state, the T(h, p) secant's last iterate.
_T_P_STATES = [(300.0, 1.0e5), (2200.0, 3.0e5), (3000.0, 1.0e4),
               (5723.11605946, 3136.59660835), (9000.0, 1.0e3),
               (12000.0, 1.0e2)]


@pytest.fixture(scope="module", params=["equilibrium-air", "titan",
                                        "jupiter"])
def service_gas(request):
    from repro.core.api import make_gas
    return make_gas(request.param, cached=False)


class TestSolveTPKernel:
    """`solve_T_p` evaluates g0/RT once per call and runs its density
    passes through the flat kernel; the answers are bitwise those of a
    loop of public `solve_rho_T` calls."""

    def test_single_states_match_the_rho_T_loop(self, service_gas):
        solver, b = service_gas.solver, service_gas.b
        for T, p in _T_P_STATES:
            y, rho = solver.solve_T_p(T, p, b)
            y_ref, rho_ref = _solve_T_p_by_rho_T(solver, T, p, b)
            np.testing.assert_array_equal(y, y_ref)
            np.testing.assert_array_equal(rho, rho_ref)

    def test_batches_match_the_rho_T_loop(self, service_gas):
        solver, b = service_gas.solver, service_gas.b
        T, p = (np.array(x) for x in zip(*_T_P_STATES))
        for rows in (slice(None), slice(1, 4), slice(3, 5)):
            y, rho = solver.solve_T_p(T[rows], p[rows], b)
            y_ref, rho_ref = _solve_T_p_by_rho_T(solver, T[rows], p[rows],
                                                 b)
            np.testing.assert_array_equal(y, y_ref)
            np.testing.assert_array_equal(rho, rho_ref)
        # a scalar broadcast against a column; the VSL and PNS tables
        # solve a column of T at one pressure
        for T_b, p_b in ((5723.11605946, p[2:5]), (T[1:5], 3136.59660835)):
            y, rho = solver.solve_T_p(T_b, p_b, b)
            y_ref, rho_ref = _solve_T_p_by_rho_T(solver, T_b, p_b, b)
            np.testing.assert_array_equal(y, y_ref)
            np.testing.assert_array_equal(rho, rho_ref)

    def test_grid_of_states_matches_the_flat_solve(self, air_gas):
        # the warm start stays flat between passes, so a 2-D (T, p)
        # grid runs through the same kernel as its flattened states
        T = np.array([[3000.0, 5723.11605946, 9000.0],
                      [2200.0, 5000.0, 12000.0]])
        p = np.array([[1.0e4], [3136.59660835]])
        y, rho = air_gas.solver.solve_T_p(T, p, air_gas.b)
        y_f, rho_f = air_gas.solver.solve_T_p(
            T.ravel(), np.broadcast_to(p, T.shape).ravel(), air_gas.b)
        assert y.shape == (2, 3, 11) and rho.shape == (2, 3)
        np.testing.assert_array_equal(y.reshape(6, 11), y_f)
        np.testing.assert_array_equal(rho.ravel(), rho_f)

    def test_one_g0_evaluation_per_call(self, air_gas, monkeypatch):
        from repro.thermo.statmech import ThermoSet
        g0_calls, passes = [], []
        g0, newton = ThermoSet.g0_over_RT, EquilibriumSolver._newton
        monkeypatch.setattr(ThermoSet, "g0_over_RT", lambda self, T: (
            g0_calls.append(1) or g0(self, T)))
        monkeypatch.setattr(EquilibriumSolver, "_newton",
                            lambda self, *a, **kw: (passes.append(1)
                                                    or newton(self, *a,
                                                              **kw)))
        n_passes = []
        for T, p in _T_P_STATES:
            g0_calls.clear()
            passes.clear()
            air_gas.solver.solve_T_p(T, p, air_gas.b)
            assert g0_calls == [1]
            n_passes.append(len(passes))
        # one Newton per density pass: 2 for frozen air, 10 at fig 6
        assert n_passes == [2, 4, 7, 10, 8, 7]


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


class TestChargeNeutralStart:
    """`_guess_lambda` sets the charge potential so that the cold start is
    charge-neutral at its element potentials (DESIGN §23.1)."""

    @pytest.mark.parametrize("name", ["air7", "air9", "air11"])
    def test_start_is_charge_neutral(self, name):
        db = species_set(name)
        solver = EquilibriumSolver(db)
        b = element_moles(db, air_reference_mass_fractions(db))
        rho, T = (a.ravel() for a in np.meshgrid(
            np.geomspace(1e-6, 5.0, 8), np.geomspace(300.0, 20000.0, 30)))
        gt = solver.thermo.g0_over_RT(T)
        lam = solver._guess_lambda(rho, T,
                                   np.broadcast_to(b, (rho.size, solver.K)),
                                   gt)
        # ln(c_j RT/p0) of the charged species, shifted per state so that
        # a cold state's ions do not underflow; the shift and p0/RT cancel
        # in the ratio
        q = db.charge != 0
        x = (lam @ solver._A - gt)[:, q]
        c = np.exp(x - x.max(axis=1, keepdims=True))
        z = db.charge[q]
        assert np.all(np.abs(c @ z) <= 1e-12 * (c @ np.abs(z)))


class TestColdNewtonBudget:
    """A cold `solve_rho_T` starts near its answer: a zero charge
    potential costs 27-44 Newton iterations on these batches, the
    charge-neutral start 5-10 (DESIGN §23.1)."""

    BUDGET = 12

    @staticmethod
    def _iterations(gas, rho, T):
        calls, solve = [], np.linalg.solve
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "solve",
                       lambda a, b: calls.append(1) or solve(a, b))
            gas.solver.solve_rho_T(rho, T, gas.b)
        return len(calls)

    def test_default_table_states(self, air_gas):
        from repro.thermo.eos_table import build_air_table
        tab = build_air_table()
        rho = np.exp(np.broadcast_to(tab.log_rho[:, None], tab.T.shape))
        assert self._iterations(air_gas, rho, tab.T) <= self.BUDGET

    def test_table_densities_at_4000K(self, air_gas):
        from repro.thermo.eos_table import build_air_table
        rho = np.exp(build_air_table().log_rho)
        assert self._iterations(air_gas, rho, 4000.0) <= self.BUDGET

    @pytest.mark.parametrize("rho", [1e-6, 1e-4, 1e-2, 1.0, 5.0])
    def test_temperature_sweep(self, air_gas, rho):
        T = np.geomspace(300.0, 20000.0, 100)
        assert self._iterations(air_gas, rho, T) <= self.BUDGET


class TestSolveRhoE:
    @pytest.fixture(scope="class")
    def states(self, air_gas):
        """Twelve (rho, e) states over the 48 x 72 table's range.  The
        first eight start 0.1 % off their answers and pass the
        temperature iteration's test at its third iterate; the last four
        start from 4000 K, the solver's default start, and pass at
        7-10."""
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
        # one call per temperature iterate (the slope is analytic): the
        # next call gets exactly the states this one left above tol
        for k, (rho_k, T_k, y_k) in enumerate(seen):
            e_k = e[[where[r] for r in rho_k]]
            f = air_gas.mix.e_mass(T_k, y_k) - e_k
            above = ~(np.abs(f) < 1e-9 * np.maximum(np.abs(e_k), 1e4))
            if k + 1 < len(seen):
                assert np.array_equal(seen[k + 1][0], rho_k[above])
            else:
                assert not above.any()
        assert len(seen) > 3                   # the slow states ran on

    def test_newton_two_cycle_is_bisected(self, titan_gas):
        # Titan states on the methane-pyrolysis ridge, where the bracketed
        # Newton alternated between two temperatures (1,412 and 2,672 K,
        # 594 and 936 K), each step landing inside the bracket, until it
        # ran out of iterations
        rho, e = np.array([1.6e-6, 6.3e-7]), np.array([2.89e6, 6.99e5])
        y, T = titan_gas.solver.solve_rho_e(rho, e, titan_gas.b)
        err = np.abs(titan_gas.mix.e_mass(T, y) - e)
        assert np.all(err < 1e-9 * np.maximum(np.abs(e), 1e4))

    def test_slope_matches_a_central_difference(self, air_gas):
        # through O2 and N2 dissociation and into ionization
        rho = np.array([1e-2, 1e-2, 1e-2, 1e-2, 1e-5, 1e-5, 1.0, 1.0,
                        1e-3, 1e-3])
        T = np.array([2500.0, 3500.0, 6000.0, 12000.0, 2000.0, 9000.0,
                      4000.0, 15000.0, 7500.0, 20000.0])
        solver = air_gas.solver
        y = solver.solve_rho_T(rho, T, air_gas.b)
        de_dT, dlam_dT = solver._T_slope(rho, T, y)
        h = 1e-5 * T

        def solve(Tx):
            y_x, lam_x = solver.solve_rho_T(rho, Tx, air_gas.b,
                                            return_lambda=True)
            return air_gas.mix.e_mass(Tx, y_x), lam_x

        (e_p, lam_p), (e_m, lam_m) = solve(T + h), solve(T - h)
        np.testing.assert_allclose(de_dT, (e_p - e_m) / (2.0 * h),
                                   rtol=1e-7, atol=0.0)
        # the element potentials' slope (the charge potential of a state
        # with trace ions is set by the solve's tolerance, not its slope)
        n_el = len(air_gas.db.elements)
        fd = ((lam_p - lam_m) / (2.0 * h[:, None]))[:, :n_el]
        assert np.all(np.abs(dlam_dT[:, :n_el] - fd)
                      <= 1e-7 * np.abs(fd).max(axis=1, keepdims=True))

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
