"""Chemical-equilibrium composition solver (element-potential method).

The paper's "equilibrium real gas" model assumes reactions are fast enough
that the local thermochemical state is a function of two state variables
only.  This module computes that state for arbitrary mixtures by minimising
Gibbs free energy subject to element (and charge) conservation — the
element-potential / STANJAN formulation, solved with a damped Newton
iteration that is **batched** over many thermodynamic states at once (the
solvers hand in whole grids of cells).  Converged states leave the batch:
each iteration runs only on the states still above tolerance, so one slow
state does not hold the others in the Jacobian solve.

Formulation
-----------
At fixed density and temperature, the equilibrium molar concentration of
species ``j`` is::

    c_j = (p0 / R T) * exp(-g0_j/(R T) + sum_k a_kj lam_k)

where ``a_kj`` is the element-composition matrix (charge appended as an
extra row) and ``lam_k`` are the element potentials — the Newton unknowns.
The constraints are ``sum_j a_kj c_j = rho * b_k`` with ``b_k`` the moles of
element ``k`` per kilogram of mixture.

Fixed-(T, p) states run an outer fixed-point iteration on density around
the (rho, T) kernel (``rho <- rho * p / p(rho, T)``, each pass a full
warm-started (rho, T) solve; T is fixed, so g0/RT is evaluated once per
call, not once per pass); fixed-(rho, e) states run an outer bracketed
Newton iteration on temperature around the same kernel.
"""

from __future__ import annotations

import numpy as np

from repro.constants import R_UNIVERSAL
from repro.errors import ConvergenceError, InputError
from repro.thermo.mixture import MixtureThermo
from repro.thermo.species import SpeciesDB, species_set
from repro.thermo.statmech import P_STANDARD, ThermoSet

__all__ = ["element_moles", "EquilibriumSolver", "EquilibriumGas"]

_R = R_UNIVERSAL

#: Exponent clip applied to ln(c RT/p0): keeps every intermediate finite in
#: float64 even from a terrible starting guess.
_EXP_CLIP = 500.0

#: Reference homonuclear/reference molecule used to build the "cold" part of
#: the initial element-potential guess.
_REF_MOLECULE = {"N": "N2", "O": "O2", "H": "H2", "C": "C2"}


def _require_finite(name, x, *, positive=True):
    """Raise :class:`InputError` naming ``name`` unless every entry of
    ``x`` is finite (and > 0 with ``positive``).  A NaN state would
    otherwise leave the Newton as converged: ``fnorm > tol`` is false for
    a NaN residual."""
    ok = np.isfinite(x)
    if positive:
        ok &= x > 0.0
    if not ok.all():
        bad = float(x[~ok].flat[0])
        raise InputError(f"{name} must be finite"
                         f"{' and positive' if positive else ''}, "
                         f"got {bad!r}")


def element_moles(db: SpeciesDB, y) -> np.ndarray:
    """Moles of each conservation constraint per kg of mixture.

    Parameters
    ----------
    db:
        Species set defining the constraint rows (elements, then charge when
        ions are present).
    y:
        Mass fractions, shape (..., n_species).

    Returns
    -------
    b:
        Shape (..., n_constraints).  The charge row is the net charge in
        mol/kg (zero for any physically sensible input).
    """
    y = np.asarray(y, dtype=float)
    n_moles = y / db.molar_mass  # mol of species per kg
    return n_moles @ db.comp_matrix.T


#: A state counts as converged once its scaled residual is below this.
_CONV_TOL = 1e-6

#: ``solve_rho_T``'s default tolerance and iteration cap, which the
#: density passes of ``solve_T_p`` use too.
_RHO_T_TOL = 1.0e-11
_RHO_T_MAX_ITER = 250

#: Every this many Newton iterations, a row whose scaled residual has not
#: halved since the last check leaves the kernel unconverged, for the
#: caller's recovery ladder.
_STALL_ITERS = 10


class EquilibriumSolver:
    """Batched Gibbs-minimisation solver over a fixed species set.

    Failed states do not fail the grid: non-converged cells go through a
    per-cell recovery ladder (cold restart, re-seed from the nearest
    converged neighbour, temperature continuation) before the batch is
    declared failed — and a failure raises a :class:`ConvergenceError`
    enriched with the worst-cell indices and residual trajectories.

    Parameters
    ----------
    db:
        Species set (name or :class:`SpeciesDB`).
    """

    def __init__(self, db: SpeciesDB | str):
        self.db = db if isinstance(db, SpeciesDB) else species_set(db)
        self.thermo = ThermoSet(self.db)
        self.mix = MixtureThermo(self.db)
        self._A = self.db.comp_matrix          # (K, n)
        self.K = self._A.shape[0]
        self._eye = np.eye(self.K)
        # index of the atomic / reference-molecule species used for guesses
        self._atom_idx: dict[int, int] = {}
        self._mol_idx: dict[int, tuple[int, int]] = {}
        for k, el in enumerate(self.db.elements):
            for j, sp in enumerate(self.db.species):
                if (sp.charge == 0 and sp.formula.get(el) == 1
                        and sp.n_atoms == 1):
                    self._atom_idx[k] = j
            ref = _REF_MOLECULE.get(el)
            if ref is not None and ref in self.db:
                j = self.db.index[ref]
                self._mol_idx[k] = (j, self.db[j].formula[el])

    # ------------------------------------------------------------------
    # core (rho, T) kernel
    # ------------------------------------------------------------------

    def _guess_lambda(self, rho, T, b, gt):
        """Initial element potentials: elementwise min of an "all atoms" and
        an "all reference molecules" estimate (the equilibrium potential can
        exceed neither)."""
        B = rho.shape[0]
        lam = np.zeros((B, self.K), dtype=np.float64)
        # catlint: disable=CAT001 -- T > 0 on the solver bracket and
        # _R/P_STANDARD are positive constants
        ln_rtp0 = np.log(_R * T / P_STANDARD)
        for k in range(self.K - (1 if self.db.has_ions else 0)):
            bk = np.maximum(b[:, k], 1e-30)
            cand = np.full(B, np.inf, dtype=np.float64)
            ja = self._atom_idx.get(k)
            if ja is not None:
                # catlint: disable=CAT001 -- rho > 0 and bk clamped >= 1e-30
                cand = gt[:, ja] + np.log(0.5 * rho * bk) + ln_rtp0
            jm = self._mol_idx.get(k)
            if jm is not None:
                j, nu = jm
                # catlint: disable=CAT001 -- rho > 0, bk clamped, nu >= 1
                lam_mol = (gt[:, j]
                           + np.log(0.5 * rho * bk / nu) + ln_rtp0) / nu
                cand = np.minimum(cand, lam_mol)
            lam[:, k] = np.where(np.isfinite(cand), cand, 0.0)
            # absent elements: drive their species to zero
            lam[:, k] = np.where(b[:, k] > 1e-30, lam[:, k], -200.0)
        # second pass: any neutral molecule bounds the potentials of all its
        # elements given the current estimates of the others (this is what
        # captures CH4/HCN-dominated cold states).
        n_el = self.K - (1 if self.db.has_ions else 0)
        for _pass in range(2):
            for j, sp in enumerate(self.db.species):
                if sp.charge != 0 or sp.n_atoms < 2:
                    continue
                for k in range(n_el):
                    a_kj = self._A[k, j]
                    if a_kj == 0:
                        continue
                    bk = np.maximum(b[:, k], 1e-30)
                    others = sum(self._A[m, j] * lam[:, m]
                                 for m in range(n_el) if m != k)
                    # catlint: disable=CAT001 -- rho > 0, bk clamped,
                    # a_kj is a positive stoichiometric count
                    cand = (gt[:, j] + np.log(0.5 * rho * bk / a_kj)
                            + ln_rtp0 - others) / a_kj
                    good = b[:, k] > 1e-30
                    lam[:, k] = np.where(good,
                                         np.minimum(lam[:, k], cand),
                                         lam[:, k])
        return lam

    def _newton(self, lam, gt, c_ref, target, scale, tol, max_iter,
                record=None):
        """Damped-Newton kernel on the element potentials.

        Returns ``(c, lam, fnorm)`` where ``fnorm`` is the per-state
        scaled residual norm; states above ``tol`` simply did not
        converge (no raise — per-cell triage is the caller's job).
        Converged states leave the batch: each iteration runs on the
        rows still above ``tol`` only.  So does a stalled row: every
        ``_STALL_ITERS`` iterations, a row whose ``fnorm`` is not below
        half its value at the previous check leaves unconverged, rather
        than running to ``max_iter``.  With ``record`` (a list), the
        per-iteration full-batch ``fnorm`` vectors are appended — the
        residual trajectories the failure diagnostics ship.
        """
        A = self._A

        # both closures read the current working set's gt, c_ref, target;
        # min(max()) and maximum.reduce are np.clip and np.max without
        # their Python wrappers, element for element the same
        def concentrations(lam):
            expo = -gt + lam @ A                   # (B, n)
            return c_ref[:, None] * np.exp(
                np.minimum(np.maximum(expo, -_EXP_CLIP), _EXP_CLIP))

        def residual(c):
            return c @ A.T - target                # (B, K)

        lam = np.array(lam, dtype=float)           # never the caller's array
        c = concentrations(lam)
        F = residual(c)
        fnorm = np.maximum.reduce(np.abs(F) / scale, axis=1)
        if record is not None:
            record.append(fnorm.copy())
        c_out, lam_out, fnorm_out = c, lam, fnorm  # full-batch results
        idx = np.arange(lam.shape[0])              # working set: batch rows
        ref = fnorm.copy()                         # fnorm at the last check
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
            # Jacobian J_km = sum_j a_kj a_mj c_j  (symmetric PSD)
            Jc = c[:, None, :] * A[None, :, :]       # (B, K, n)
            J = Jc @ A.T                             # (B, K, K)
            # Tikhonov regularisation keeps rows for absent/frozen elements
            # from making the system numerically singular.
            trace = np.einsum("bkk->b", J)
            mu = 1e-14 * np.maximum(trace, 1e-30)
            J = J + mu[:, None, None] * self._eye
            try:
                dlam = np.linalg.solve(J, -F[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                dlam = np.stack([np.linalg.lstsq(J[i], -F[i], rcond=None)[0]
                                 for i in range(idx.size)])
            # trust region on the potentials
            mx = np.maximum.reduce(np.abs(dlam), axis=1, keepdims=True)
            dlam *= np.minimum(1.0, 4.0 / np.maximum(mx, 1e-30))
            # backtracking line search (vectorised); the accepted trial
            # is the new iterate
            step = np.ones((idx.size, 1), dtype=np.float64)
            for _ls in range(8):
                lam_new = lam + step * dlam
                c_new = concentrations(lam_new)
                F_new = residual(c_new)
                f_new = np.maximum.reduce(np.abs(F_new) / scale, axis=1)
                worse = f_new > fnorm * (1.0 - 1e-4 * step[:, 0])
                if not worse.any():
                    lam, c, F, fnorm = lam_new, c_new, F_new, f_new
                    break
                step[worse] *= 0.5
            else:
                # every halving spent: the worse rows' step moved after
                # their last trial
                lam = lam + step * dlam
                c = concentrations(lam)
                F = residual(c)
                fnorm = np.maximum.reduce(np.abs(F) / scale, axis=1)
            if record is not None:
                fnorm_out[idx] = fnorm
                record.append(fnorm_out.copy())
        c_out[idx], lam_out[idx], fnorm_out[idx] = c, lam, fnorm
        return c_out, lam_out, fnorm_out

    def _recover_cells(self, idx, rho_f, T_f, b_f, gt, c_ref, target,
                       scale, tol, max_iter, c, lam, fnorm):
        """Per-cell failure isolation: rescue non-converged states.

        The ladder (each stage runs only on the still-failing subset and
        writes the rescued states back into ``c``/``lam``/``fnorm``):

        1. cold restart from the analytic initial guess (heals corrupted
           or stale warm starts),
        2. re-seed from the nearest converged state in the batch — the
           solvers hand in flattened grids, so batch neighbours are grid
           neighbours,
        3. temperature continuation: solve the hotter (more dissociated,
           better conditioned) problem first and walk T down to the
           target, warm-starting each rung from the last.

        Returns the indices that still failed after all stages.
        """

        def attempt(sub, lam_seed):
            c_s, lam_s, f_s = self._newton(lam_seed, gt[sub], c_ref[sub],
                                           target[sub], scale[sub], tol,
                                           max_iter)
            ok = f_s <= _CONV_TOL
            upd = sub[ok]
            c[upd], lam[upd], fnorm[upd] = c_s[ok], lam_s[ok], f_s[ok]
            return sub[~ok]

        # stage 1: cold restart
        idx = attempt(idx, self._guess_lambda(rho_f[idx], T_f[idx],
                                              b_f[idx], gt[idx]))
        # stage 2: neighbour re-seed
        if idx.size:
            good = np.nonzero(fnorm <= _CONV_TOL)[0]
            if good.size:
                pos = np.searchsorted(good, idx)
                lo = good[np.clip(pos - 1, 0, good.size - 1)]
                hi = good[np.clip(pos, 0, good.size - 1)]
                nearest = np.where(np.abs(idx - lo) <= np.abs(hi - idx),
                                   lo, hi)
                idx = attempt(idx, lam[nearest].copy())
        # stage 3: temperature continuation
        if idx.size:
            rho_s, T_s, b_s = rho_f[idx], T_f[idx], b_f[idx]
            lam_c, f_k, c_k = None, None, None
            for fac in (4.0, 2.0, 1.4, 1.0):
                T_k = fac * T_s
                gt_k = self.thermo.g0_over_RT(T_k)
                c_ref_k = P_STANDARD / (_R * T_k)
                if lam_c is None:
                    lam_c = self._guess_lambda(rho_s, T_k, b_s, gt_k)
                c_k, lam_c, f_k = self._newton(lam_c, gt_k, c_ref_k,
                                               target[idx], scale[idx],
                                               tol, max_iter)
            ok = f_k <= _CONV_TOL
            upd = idx[ok]
            c[upd], lam[upd], fnorm[upd] = c_k[ok], lam_c[ok], f_k[ok]
            idx = idx[~ok]
        return idx

    def solve_rho_T(self, rho, T, b, *, tol=_RHO_T_TOL,
                    max_iter=_RHO_T_MAX_ITER, lam0=None,
                    return_lambda=False):
        """Equilibrium composition at fixed density and temperature.

        Parameters
        ----------
        rho, T:
            Density [kg/m^3] and temperature [K]; any broadcast-compatible
            shapes S.  Both must be finite and positive
            (:class:`InputError` otherwise).
        b:
            Constraint moles per kg, shape S + (K,) or (K,) (broadcast).
        lam0:
            Optional warm-start element potentials from a previous solve.

        Returns
        -------
        y:
            Mass fractions, shape S + (n_species,).  With
            ``return_lambda=True``, also the converged potentials.

        Non-converged states go through the per-cell recovery ladder of
        :meth:`_recover_cells`; if any state survives it, the raised
        :class:`ConvergenceError` carries ``bad_indices``, the worst-cell
        ``residual_trajectory`` and a ``worst`` summary.
        """
        rho_in = np.asarray(rho, dtype=float)
        T_in = np.asarray(T, dtype=float)
        _require_finite("rho", rho_in)
        _require_finite("T", T_in)
        shape = np.broadcast_shapes(rho_in.shape, T_in.shape)
        rho_f = np.broadcast_to(rho_in, shape).reshape(-1)
        T_f = np.broadcast_to(T_in, shape).reshape(-1)
        b_f = np.broadcast_to(np.asarray(b, dtype=float),
                              shape + (self.K,)).reshape(-1, self.K)
        y, lam = self._solve_flat(rho_f, T_f, b_f,
                                  self.thermo.g0_over_RT(T_f),
                                  P_STANDARD / (_R * T_f), lam0, tol,
                                  max_iter)
        y = y.reshape(shape + (self.db.n,))
        if return_lambda:
            return y, lam.reshape(shape + (self.K,))
        return y

    def _solve_flat(self, rho_f, T_f, b_f, gt, c_ref, lam0, tol, max_iter):
        """The (rho, T) solve on validated flat states: ``rho_f``,
        ``T_f`` and ``c_ref`` = p0/(R T) of shape (B,), ``b_f`` (B, K),
        ``gt`` = g0/RT (B, n).  ``lam0`` None starts from the analytic
        guess.  Returns flat ``(y, lam)``; raises as :meth:`solve_rho_T`.
        """
        B = rho_f.size
        lam = (self._guess_lambda(rho_f, T_f, b_f, gt) if lam0 is None
               else np.array(np.broadcast_to(lam0, (B, self.K)), dtype=float))
        lam_start = lam.copy()                    # for failure forensics
        target = rho_f[:, None] * b_f             # (B, K)
        scale = np.maximum(np.max(np.abs(target), axis=1, keepdims=True),
                           1e-30)

        c, lam, fnorm = self._newton(lam, gt, c_ref, target, scale, tol,
                                     max_iter)
        bad = fnorm > _CONV_TOL
        if bad.any():
            self._recover_cells(np.nonzero(bad)[0], rho_f, T_f, b_f, gt,
                                c_ref, target, scale, tol, max_iter,
                                c, lam, fnorm)
            bad = fnorm > _CONV_TOL
        if bad.any():
            idx = np.nonzero(bad)[0]
            worst = idx[np.argsort(fnorm[idx])[::-1]][:4]
            # replay the worst cells from their original seeds to capture
            # their residual trajectories (cheap: <= 4 states)
            rec: list[np.ndarray] = []
            self._newton(lam_start[worst], gt[worst], c_ref[worst],
                         target[worst], scale[worst], tol, max_iter,
                         record=rec)
            raise ConvergenceError(
                f"equilibrium solve failed for "
                f"{int(np.count_nonzero(bad))}/{B} state(s) "
                f"after per-cell recovery",
                iterations=max_iter, residual=float(np.max(fnorm)),
                bad_indices=idx,
                residual_trajectory=np.stack(rec) if rec else None,
                worst={"indices": worst.tolist(),
                       "residuals": fnorm[worst].tolist(),
                       "rho": rho_f[worst].tolist(),
                       "T": T_f[worst].tolist()})
        y = c * self.db.molar_mass / rho_f[:, None]
        # element conservation guarantees sum(y)=1 up to atomic-mass
        # consistency of the database; renormalise the leftover ppm.
        y /= np.sum(y, axis=1, keepdims=True)
        return y, lam

    # ------------------------------------------------------------------
    # (T, p) states — outer iteration on density
    # ------------------------------------------------------------------

    def solve_T_p(self, T, p, b, *, tol=1.0e-10, max_iter=60):
        """Equilibrium composition and density at fixed (T, p).

        Returns ``(y, rho)``.  T and p must be finite and positive
        (:class:`InputError` otherwise).
        """
        T_in = np.asarray(T, dtype=float)
        p_in = np.asarray(p, dtype=float)
        _require_finite("T", T_in)
        _require_finite("p", p_in)
        shape = np.broadcast_shapes(T_in.shape, p_in.shape)
        T_f = np.broadcast_to(T_in, shape).astype(float)
        p_f = np.broadcast_to(p_in, shape).astype(float)
        # T is fixed through the density passes: its g0/RT, p0/(R T) and
        # the broadcast b serve every pass's (rho, T) solve
        T_flat = T_f.reshape(-1)
        b_f = np.broadcast_to(np.asarray(b, dtype=float),
                              shape + (self.K,)).reshape(-1, self.K)
        gt = self.thermo.g0_over_RT(T_flat)
        c_ref = P_STANDARD / (_R * T_flat)
        # initial density from a cold-composition molar mass estimate
        mbar = 0.02  # kg/mol ballpark; corrected by the iteration
        rho = p_f * mbar / (_R * T_f)
        lam = None
        for it in range(max_iter):
            y, lam = self._solve_flat(rho.reshape(-1), T_flat, b_f, gt,
                                      c_ref, lam, _RHO_T_TOL,
                                      _RHO_T_MAX_ITER)
            y = y.reshape(shape + (self.db.n,))
            R_mix = self.mix.gas_constant(y)
            p_calc = rho * R_mix * T_f
            ratio = p_f / p_calc
            if np.all(np.abs(ratio - 1.0) < tol):
                return y, rho
            # p is (weakly) super-linear in rho at fixed T; a damped
            # fixed-point on log rho converges in a handful of iterations.
            rho = rho * ratio
        raise ConvergenceError("solve_T_p density iteration failed",
                               iterations=max_iter,
                               residual=float(np.max(np.abs(ratio - 1.0))))

    # ------------------------------------------------------------------
    # (rho, e) states — outer iteration on temperature
    # ------------------------------------------------------------------

    def solve_rho_e(self, rho, e, b, *, T_guess=None, tol=1.0e-9,
                    max_iter=80):
        """Equilibrium state at fixed density and specific internal energy.

        Returns ``(y, T)``.  ``e`` includes chemical formation energy on the
        database 0 K basis; rho must be finite and positive and e finite
        (:class:`InputError` otherwise).  Each state leaves the temperature
        iteration at its first iterate within ``tol``, with that iterate's
        (y, T): every iteration solves the states still above ``tol`` only,
        so a state's answer does not depend on its batch-mates.
        """
        rho_in = np.asarray(rho, dtype=float)
        e_in = np.asarray(e, dtype=float)
        _require_finite("rho", rho_in)
        _require_finite("e", e_in, positive=False)
        shape = np.broadcast_shapes(rho_in.shape, e_in.shape)
        rho_f = np.broadcast_to(rho_in, shape).reshape(-1)
        e_f = np.broadcast_to(e_in, shape).reshape(-1)
        b_f = np.broadcast_to(np.asarray(b, dtype=float),
                              shape + (self.K,)).reshape(-1, self.K)
        T = (np.full(rho_f.size, 4000.0, dtype=np.float64) if T_guess is None
             else np.array(np.broadcast_to(T_guess, shape),
                           dtype=float).reshape(-1))
        scale = np.maximum(np.abs(e_f), 1e4)
        # e_eq(T) at fixed rho is strictly increasing, so a bracketed Newton
        # on the *equilibrium* slope (frozen cv underestimates it by up to
        # ~5x through dissociation ridges and would oscillate) is globally
        # convergent.
        T_lo = np.full(T.size, 50.0, dtype=np.float64)
        T_hi = np.full(T.size, 1.0e5, dtype=np.float64)
        lam = None
        y_out = np.zeros((T.size, self.db.n), dtype=np.float64)
        T_out = np.zeros(T.size, dtype=np.float64)
        act = np.arange(T.size)              # working set: flat state indices
        rho_a, e_a, b_a = rho_f, e_f, b_f

        # reads the current working set's rho_a, b_a
        def e_of(Tx, lam0):
            y, lam1 = self.solve_rho_T(rho_a, Tx, b_a, lam0=lam0,
                                       return_lambda=True)
            return self.mix.e_mass(Tx, y), y, lam1

        for _ in range(max_iter):
            e_cur, y, lam = e_of(T, lam)
            f = e_cur - e_a
            done = np.abs(f) < tol * scale
            if done.any():
                y_out[act[done]], T_out[act[done]] = y[done], T[done]
                keep = ~done
                act = act[keep]
                T, T_lo, T_hi, lam, f, e_cur, rho_a, e_a, b_a, scale = (
                    a[keep] for a in (T, T_lo, T_hi, lam, f, e_cur, rho_a,
                                      e_a, b_a, scale))
            if not act.size:
                break
            np.copyto(T_hi, T, where=f > 0)
            np.copyto(T_lo, T, where=f <= 0)
            dTfd = 0.01 * T
            e_pert, _, _ = e_of(T + dTfd, lam)
            cv_eq = np.maximum((e_pert - e_cur) / dTfd, 10.0)
            T_new = T - f / cv_eq
            outside = (T_new <= T_lo) | (T_new >= T_hi)
            T = np.where(outside, 0.5 * (T_lo + T_hi), T_new)
        else:
            # out of iterations: T moved after the last solve, so re-solve
            # the composition at the final T before judging (and
            # returning) it
            e_cur, y, lam = e_of(T, lam)
            y_out[act], T_out[act] = y, T
            f = np.abs(e_cur - e_a)
            bad = f > 1e-5 * scale
            if np.any(bad):
                idx = act[bad]
                worst = idx[np.argsort(f[bad])[::-1]][:4]
                raise ConvergenceError(
                    "solve_rho_e temperature iteration failed for "
                    f"{idx.size} state(s)",
                    iterations=max_iter, residual=float(np.max(f / scale)),
                    bad_indices=idx,
                    worst={"indices": worst.tolist(),
                           "rho": rho_f[worst].tolist(),
                           "e": e_f[worst].tolist(),
                           "T": T_out[worst].tolist()})
        return y_out.reshape(shape + (self.db.n,)), T_out.reshape(shape)


class EquilibriumGas:
    """Equilibrium real-gas model with fixed elemental composition.

    This is the "equilibrium air" (or Titan gas, ...) object the solvers
    consume: local thermochemical state fully determined by two variables.

    Parameters
    ----------
    db:
        Species set (name or :class:`SpeciesDB`).
    y_reference:
        Reference (e.g. freestream) mass fractions that fix the elemental
        composition, either a dict of name->Y or an array over the set.
    """

    def __init__(self, db: SpeciesDB | str, y_reference):
        self.db = db if isinstance(db, SpeciesDB) else species_set(db)
        if isinstance(y_reference, dict):
            y = np.zeros(self.db.n, dtype=np.float64)
            for name, val in y_reference.items():
                y[self.db.index[name]] = val
        else:
            y = np.asarray(y_reference, dtype=float)
            if y.shape != (self.db.n,):
                raise InputError(
                    f"y_reference must have shape ({self.db.n},)")
        if abs(float(np.sum(y)) - 1.0) > 1e-6:
            raise InputError("reference mass fractions must sum to 1")
        self.y_ref = y / np.sum(y)
        self.b = element_moles(self.db, self.y_ref)
        self.solver = EquilibriumSolver(self.db)
        self.mix = self.solver.mix

    # -- state evaluations ----------------------------------------------------

    def composition_rho_T(self, rho, T):
        """Equilibrium mass fractions at (rho, T)."""
        return self.solver.solve_rho_T(rho, T, self.b)

    def composition_T_p(self, T, p):
        """Equilibrium mass fractions and density at (T, p)."""
        return self.solver.solve_T_p(T, p, self.b)

    def state_rho_T(self, rho, T):
        """Full state dict at (rho, T): y, p, e, h, a_frozen, gamma_eff."""
        y = self.composition_rho_T(rho, T)
        p = self.mix.pressure(rho, T, y)
        e = self.mix.e_mass(T, y)
        h = self.mix.h_mass(T, y)
        return {"y": y, "p": p, "e": e, "h": h, "T": np.asarray(T, float),
                "rho": np.asarray(rho, float),
                "a_frozen": self.mix.sound_speed_frozen(T, y),
                "gamma_eff": 1.0 + p / (np.asarray(rho, float)
                                        * np.maximum(e, 1.0))}

    def state_rho_e(self, rho, e, *, T_guess=None):
        """Full state dict at (rho, e) — the NS-solver entry point."""
        y, T = self.solver.solve_rho_e(rho, e, self.b, T_guess=T_guess)
        p = self.mix.pressure(rho, T, y)
        return {"y": y, "p": p, "T": T, "e": np.asarray(e, float),
                "rho": np.asarray(rho, float),
                "h": self.mix.h_mass(T, y),
                "a_frozen": self.mix.sound_speed_frozen(T, y),
                "gamma_eff": 1.0 + p / (np.asarray(rho, float)
                                        * np.maximum(np.asarray(e, float),
                                                     1.0))}

    def state_T_p(self, T, p):
        """Full state dict at (T, p)."""
        y, rho = self.composition_T_p(T, p)
        e = self.mix.e_mass(T, y)
        return {"y": y, "p": np.asarray(p, float), "T": np.asarray(T, float),
                "rho": rho, "e": e, "h": self.mix.h_mass(T, y),
                "a_frozen": self.mix.sound_speed_frozen(T, y),
                "gamma_eff": 1.0 + np.asarray(p, float)
                / (rho * np.maximum(e, 1.0))}

    def sound_speed_equilibrium(self, rho, T, *, rel=1.0e-4):
        """Equilibrium speed of sound a_e = sqrt((dp/drho)_s) [m/s].

        Evaluated from centered finite differences of the equilibrium
        surface: a^2 = (dp/drho)_e + (p/rho^2)(dp/de)_rho.
        """
        rho = np.asarray(rho, dtype=float)
        T = np.asarray(T, dtype=float)
        st = self.state_rho_T(rho, T)
        e0, p0 = st["e"], st["p"]
        drho = rho * rel
        de = np.maximum(np.abs(e0), 1e4) * rel
        # dp/drho at constant e and dp/de at constant rho via rho_e states
        sp1 = self.state_rho_e(rho + drho, e0, T_guess=T)
        sm1 = self.state_rho_e(rho - drho, e0, T_guess=T)
        dpdr = (sp1["p"] - sm1["p"]) / (2.0 * drho)
        se1 = self.state_rho_e(rho, e0 + de, T_guess=T)
        se0 = self.state_rho_e(rho, e0 - de, T_guess=T)
        dpde = (se1["p"] - se0["p"]) / (2.0 * de)
        a2 = dpdr + p0 / rho**2 * dpde
        return np.sqrt(np.maximum(a2, 1.0))


def air_reference_mass_fractions(db: SpeciesDB, *, with_argon=None):
    """Standard-air reference mass fractions over ``db``.

    Uses Y(N2)=0.767, Y(O2)=0.233 (the usual CAT convention) or, when the
    set contains Ar, Y = (0.7553, 0.2314, 0.0129) for (N2, O2, Ar).
    """
    y = np.zeros(db.n, dtype=np.float64)
    has_ar = "Ar" in db if with_argon is None else with_argon
    if has_ar and "Ar" in db:
        y[db.index["N2"]] = 0.7553
        y[db.index["O2"]] = 0.2314
        y[db.index["Ar"]] = 0.0129
    else:
        y[db.index["N2"]] = 0.767
        y[db.index["O2"]] = 0.233
    return y


def titan_reference_mass_fractions(db: SpeciesDB, ch4_mole_fraction=0.05):
    """Titan-atmosphere reference composition (N2 with a few % CH4)."""
    x = np.zeros(db.n, dtype=np.float64)
    x[db.index["N2"]] = 1.0 - ch4_mole_fraction
    x[db.index["CH4"]] = ch4_mole_fraction
    return db.mole_to_mass(x)
