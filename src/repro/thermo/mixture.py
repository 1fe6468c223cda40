"""Mixture thermodynamics over a fixed species set.

Combines per-species statmech properties with mass fractions.  All methods
are batched: mass-fraction arrays have a trailing species axis and broadcast
against temperature arrays of the leading shape.
"""

from __future__ import annotations

import numpy as np

from repro.constants import R_UNIVERSAL
from repro.errors import ConvergenceError
from repro.thermo.species import SpeciesDB, species_set
from repro.thermo.statmech import ThermoSet

__all__ = ["MixtureThermo"]


class MixtureThermo:
    """Frozen-composition mixture property evaluator.

    Parameters
    ----------
    db:
        Species set, or anything :func:`repro.thermo.species.species_set`
        accepts.
    """

    def __init__(self, db: SpeciesDB | str):
        self.db = db if isinstance(db, SpeciesDB) else species_set(db)
        self.thermo = ThermoSet(self.db)

    # -- composition-dependent gas constants ---------------------------------

    def gas_constant(self, y):
        """Mixture specific gas constant R [J/(kg K)] from mass fractions."""
        y = np.asarray(y, dtype=float)
        return R_UNIVERSAL * np.sum(y / self.db.molar_mass, axis=-1)

    def molar_mass(self, y):
        """Mixture molar mass [kg/mol]."""
        return R_UNIVERSAL / self.gas_constant(y)

    # -- caloric properties ----------------------------------------------------

    def cp_mass(self, T, y):
        """Frozen specific heat at constant pressure [J/(kg K)]."""
        y = np.asarray(y, dtype=float)
        return np.sum(y * self.thermo.cp_mass(T), axis=-1)

    def cv_mass(self, T, y):
        """Frozen specific heat at constant volume [J/(kg K)]."""
        return self.cp_mass(T, y) - self.gas_constant(y)

    def h_mass(self, T, y):
        """Mixture specific enthalpy, incl. formation [J/kg]."""
        y = np.asarray(y, dtype=float)
        return np.sum(y * self.thermo.h_mass(T), axis=-1)

    def e_mass(self, T, y):
        """Mixture specific internal energy, incl. formation [J/kg]."""
        y = np.asarray(y, dtype=float)
        return np.sum(y * self.thermo.e_mass(T), axis=-1)

    def s_mass(self, T, p, y):
        """Mixture specific entropy [J/(kg K)] at (T, p, composition).

        Each species contributes its pure-gas entropy at its partial
        pressure (ideal mixing): s = sum y_j s_j(T, x_j p) / M_j.
        """
        y = np.asarray(y, dtype=float)
        x = self.db.mass_to_mole(np.maximum(y, 1e-60))
        s0 = self.thermo.s0(T)  # (..., n) at standard pressure
        from repro.thermo.statmech import P_STANDARD
        p_j = np.maximum(x * np.asarray(p, dtype=float)[..., None]
                         if np.ndim(p) else x * p, 1e-100)
        s_j = s0 - R_UNIVERSAL * np.log(p_j / P_STANDARD)
        return np.sum(y * s_j / self.db.molar_mass, axis=-1)

    def gamma_frozen(self, T, y):
        """Frozen ratio of specific heats."""
        cp = self.cp_mass(T, y)
        # catlint: disable=CAT003 -- cp = cv + R > R for any mixture
        # (translational cv >= 1.5 R)
        return cp / (cp - self.gas_constant(y))

    def sound_speed_frozen(self, T, y, gamma=None):
        """Frozen speed of sound [m/s]; ``gamma`` is ``gamma_frozen(T,
        y)``, computed here unless the caller already has it."""
        if gamma is None:
            gamma = self.gamma_frozen(T, y)
        # catlint: disable=CAT002 -- gamma > 1, R > 0 and physical T > 0
        return np.sqrt(gamma * self.gas_constant(y)
                       * np.asarray(T, dtype=float))

    def pressure(self, rho, T, y):
        """Ideal-mixture pressure p = rho R(y) T [Pa]."""
        return (np.asarray(rho, dtype=float) * self.gas_constant(y)
                * np.asarray(T, dtype=float))

    def density(self, p, T, y):
        """Density from p, T and composition [kg/m^3]."""
        return (np.asarray(p, dtype=float)
                / (self.gas_constant(y) * np.asarray(T, dtype=float)))

    # -- inverse lookups --------------------------------------------------------

    def T_from_e(self, e, y, *, T_guess=None, tol=1.0e-9, max_iter=60):
        """Invert e(T, y) for temperature with batched Newton iteration.

        Parameters
        ----------
        e:
            Specific internal energy [J/kg], any shape S.
        y:
            Mass fractions, shape S + (n,) (or broadcastable).
        T_guess:
            Optional starting temperature; defaults to 1000 K everywhere.

        Raises
        ------
        ConvergenceError
            If any element fails to converge in ``max_iter`` iterations.
        """
        e = np.asarray(e, dtype=float)
        y = np.asarray(y, dtype=float)
        T = (np.full(e.shape, 1000.0, dtype=np.float64) if T_guess is None
             else np.broadcast_to(np.asarray(T_guess, dtype=float),
                                  e.shape).copy())
        scale = np.maximum(np.abs(e), 1.0e3)
        for _ in range(max_iter):
            f = self.e_mass(T, y) - e
            cv = np.maximum(self.cv_mass(T, y), 1.0)
            dT = -f / cv
            # keep Newton inside a trust region so cold/hot guesses recover
            dT = np.clip(dT, -0.5 * T, 2.0 * T)
            T = np.maximum(T + dT, 10.0)
            if np.all(np.abs(f) <= tol * scale + 1.0e-6):
                return T
        # T moved after the last check: judge it by the same stop test
        f = np.abs(self.e_mass(T, y) - e)
        bad = f > tol * scale + 1.0e-6
        if not np.any(bad):
            return T
        idx = np.nonzero(bad.reshape(-1))[0]
        raise ConvergenceError(
            f"T_from_e failed for {idx.size} state(s)",
            iterations=max_iter, residual=float(np.max(f / scale)),
            bad_indices=idx)

    def T_from_h(self, h, y, *, T_guess=None, tol=1.0e-9, max_iter=60):
        """Invert h(T, y) for temperature (batched Newton)."""
        h = np.asarray(h, dtype=float)
        y = np.asarray(y, dtype=float)
        T = (np.full(h.shape, 1000.0, dtype=np.float64) if T_guess is None
             else np.broadcast_to(np.asarray(T_guess, dtype=float),
                                  h.shape).copy())
        scale = np.maximum(np.abs(h), 1.0e3)
        for _ in range(max_iter):
            f = self.h_mass(T, y) - h
            cp = np.maximum(self.cp_mass(T, y), 1.0)
            dT = np.clip(-f / cp, -0.5 * T, 2.0 * T)
            T = np.maximum(T + dT, 10.0)
            if np.all(np.abs(f) <= tol * scale + 1.0e-6):
                return T
        raise ConvergenceError("T_from_h failed to converge",
                               iterations=max_iter)
