"""Equation-of-state abstraction consumed by the CFD solvers.

Two concrete models cover the paper's "ideal gas" and "equilibrium real
gas" modes:

* :class:`IdealGasEOS` — calorically perfect gas (gamma, R constant).
* :class:`TabulatedEOS` — equilibrium air through the effective-gamma
  lookup table (:mod:`repro.thermo.eos_table`), the variable-gamma device
  of the era's production codes.

Both implement :class:`GasEOS`: the flux routines call
``p_a_T(rho, e) -> (p, a, T, gamma)`` once per set of states, gamma
being the ratio each model forms on the way to the sound speed (the
effective 1 + p/(rho e) for both models here; the NS conductivity reads
it from the cell decode), and the NS wall ghosts call
``temperature(rho, e)`` once per step, on both wall rows at e and
e + de; ``e`` is specific *internal* energy (no kinetic part).
Each also has ``pressure(rho, e)``, which ``e_from_p_rho`` inverts.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ConvergenceError, InputError

__all__ = ["GasEOS", "IdealGasEOS", "TabulatedEOS", "eos_spec"]


@runtime_checkable
class GasEOS(Protocol):
    """Minimal EOS interface for the finite-volume solvers."""

    def p_a_T(self, rho, e): ...
    def temperature(self, rho, e): ...


class IdealGasEOS:
    """Calorically perfect gas p = (gamma - 1) rho e."""

    def __init__(self, gamma: float = 1.4, R: float = 287.0528):
        if gamma <= 1.0:
            raise InputError("gamma must exceed 1")
        self.gamma = gamma
        self.R = R
        self.cv = R / (gamma - 1.0)  # catlint: disable=CAT003 -- gamma > 1 validated above
        self.cp = self.cv * gamma

    def pressure(self, rho, e):
        return (self.gamma - 1.0) * np.asarray(rho, float) * np.asarray(
            e, float)

    def sound_speed(self, rho, e):
        e = np.maximum(np.asarray(e, float), 1e-30)
        # catlint: disable=CAT002 -- gamma > 1 enforced in __init__, e clamped above
        return np.sqrt(self.gamma * (self.gamma - 1.0) * e)

    def temperature(self, rho, e):
        return np.asarray(e, float) / self.cv

    def p_a_T(self, rho, e):
        """(p, a, T, gamma) at (rho, e); gamma is the constant one, in
        the broadcast shape of the states."""
        return (self.pressure(rho, e), self.sound_speed(rho, e),
                self.temperature(rho, e),
                np.full(np.broadcast_shapes(np.shape(rho), np.shape(e)),
                        self.gamma))

    def e_from_T(self, T):
        """Internal energy at temperature T [J/kg]."""
        return self.cv * np.asarray(T, float)

    def e_from_p_rho(self, p, rho):
        return np.asarray(p, float) / ((self.gamma - 1.0)
                                       * np.asarray(rho, float))


class TabulatedEOS:
    """Equilibrium real gas via the effective-gamma table.

    Parameters
    ----------
    table:
        An :class:`~repro.thermo.eos_table.EquilibriumEOSTable`; defaults
        to the cached standard-air table.
    """

    def __init__(self, table=None):
        if table is None:
            from repro.thermo.eos_table import build_air_table
            table = build_air_table()
        self.table = table

    def p_a_T(self, rho, e):
        """(p, a, T, gamma_eff) at (rho, e) from one table evaluation."""
        gamma, p, a, T = self.table.evaluate(rho, e)
        return p, a, T, gamma

    def pressure(self, rho, e):
        return self.table.pressure(rho, e)

    def temperature(self, rho, e):
        return self.table.temperature(rho, e)

    def e_from_p_rho(self, p, rho, *, tol=1e-10, max_iter=60):
        """Invert p(rho, e) for e: finite-difference Newton, safeguarded.

        p rises with e, so the sign of each state's residual moves one
        end of its (lo, hi) bracket.  A state bisects the bracket in ln e
        instead of taking a Newton step that would leave it: the kinked
        slope of the bilinear table can make Newton 2-cycle between the
        bracket's ends.  A state stops moving once
        ``|f| < tol max(p, 1)``; raises
        :class:`~repro.errors.ConvergenceError` if any has not after
        ``max_iter`` steps.
        """
        p = np.asarray(p, dtype=float)
        rho = np.asarray(rho, dtype=float)
        e = p / (0.4 * rho)  # ideal-gas initial guess
        lo = np.full(e.shape, 1e3)        # the iteration's energy floor
        hi = np.full(e.shape, np.inf)
        for it in range(max_iter + 1):
            pe = self.pressure(rho, e)
            f = pe - p
            todo = ~(np.abs(f) < tol * np.maximum(p, 1.0))
            if not np.any(todo):
                return e
            if it == max_iter:
                break
            lo = np.where(f < 0.0, np.maximum(lo, e), lo)
            hi = np.where(f > 0.0, np.minimum(hi, e), hi)
            de = np.maximum(1e-4 * e, 1.0)
            dpde = (self.pressure(rho, e + de) - pe) / de
            step = np.maximum(e - f / np.maximum(dpde, 1e-10), 1e3)
            leave = ((step <= lo) | (step >= hi)) & np.isfinite(hi)
            # catlint: disable=CAT002 -- lo >= 1e3 and hi > lo: lo*hi > 0
            step = np.where(leave, np.sqrt(lo * hi), step)
            e = np.where(todo, step, e)
        bad = np.flatnonzero(todo)
        rel = np.abs(f) / np.maximum(p, 1.0)
        raise ConvergenceError(
            f"e_from_p_rho: {bad.size} state(s) unconverged after "
            f"{max_iter} iterations", iterations=max_iter,
            residual=float(np.max(rel[todo])), bad_indices=bad)


def eos_spec(eos) -> dict:
    """JSON-able descriptor of an EOS for durable-checkpoint manifests
    (part of the solver fingerprint); unknown EOS classes fingerprint by
    class name."""
    if isinstance(eos, IdealGasEOS):
        return {"kind": "ideal", "gamma": eos.gamma, "R": eos.R}
    if isinstance(eos, TabulatedEOS):
        # the default 48 x 72 air table keeps the bare spec, so the
        # fingerprints of existing checkpoints do not change
        n_rho, n_e = eos.table.gamma.shape
        return ({"kind": "tabulated"} if (n_rho, n_e) == (48, 72)
                else {"kind": "tabulated", "n_rho": n_rho, "n_e": n_e})
    return {"kind": type(eos).__name__}

