"""Two-temperature (T, Tv) thermochemical-nonequilibrium gas model.

Implements the Park-style split the paper describes ("additional energy
equations to describe the energy exchange between the various energy
modes"): heavy-particle translation and rotation live at ``T``; vibration,
electronic excitation and free electrons live at ``Tv``.

The model supplies

* the vibrational-electronic energy pool ``e_v(Tv, y)`` and its inversion
  (a Newton that takes e_v and c_v,v from one ``e_cv_vib_el_mass`` call,
  one electronic-level pass, per iteration),
* the total energy ``e(T, Tv, y)`` and the (T, Tv) recovery from
  conservative variables,
* the Landau–Teller translational-vibrational energy-exchange source term,
* ``sources``: the production rates and the pool source (Landau–Teller
  plus the pool energy that created/destroyed molecules carry) from one
  ``wdot`` call and one species pass at T, which gives both the backward
  rates' g0/RT and the Landau–Teller e_v,s(T) (DESIGN §16, §26).

The Newton hands its last evaluation on: ``Tv_from_ev(..., pool=d)``
leaves the per-species pool energies at the Tv it returns in
``d["Tv"]``, and ``sources(..., pool=d)`` takes them from there instead
of a pass of its own, and leaves its e_v,s(T) in ``d["T"]`` — so a
relaxation step evaluates each temperature's species thermodynamics
once.
"""

from __future__ import annotations

import numpy as np

from repro.constants import N_AVOGADRO, R_UNIVERSAL
from repro.errors import ConvergenceError, InputError
from repro.thermo.kinetics import ReactionMechanism
from repro.thermo.relaxation import VibrationalRelaxation, park_correction_time
from repro.thermo.species import SpeciesDB, species_set
from repro.thermo.statmech import ThermoSet

__all__ = ["TwoTemperatureGas"]


def _start(guess, energy, y):
    """A Newton's first iterate: ``guess`` as a float array of the
    broadcast shape of ``energy``, ``y[..., 0]`` and ``guess``, so that
    the result's shape does not depend on how many steps it takes."""
    shape = np.broadcast(energy, y[..., 0], guess).shape
    return np.array(np.broadcast_to(guess, shape), dtype=float)


class TwoTemperatureGas:
    """Two-temperature gas: energies, inversions and exchange sources."""

    def __init__(self, db: SpeciesDB | str,
                 mechanism: ReactionMechanism | None = None):
        self.db = db if isinstance(db, SpeciesDB) else species_set(db)
        if mechanism is not None and mechanism.db.names != self.db.names:
            # ``sources`` hands the mechanism this set's g0/RT
            raise InputError("the mechanism's species set differs from "
                             "the gas's")
        self.thermo = ThermoSet(self.db)
        self.relax = VibrationalRelaxation(self.db)
        self.mechanism = mechanism
        # non-vibrating species with excited electronic levels
        self._el_idx = np.array([j for j, sp in enumerate(self.db.species)
                                 if not sp.vib_modes
                                 and len(sp.elec_levels) > 1], dtype=int)

    # ------------------------------------------------------------------
    # energies
    # ------------------------------------------------------------------

    def e_vib_el(self, Tv, y):
        """Mixture vibrational-electronic energy [J/kg]."""
        y = np.asarray(y, dtype=float)
        return np.sum(y * self.thermo.e_vib_el_mass(Tv), axis=-1)

    def cv_vib_el(self, Tv, y):
        """d e_v / d Tv [J/(kg K)]."""
        y = np.asarray(y, dtype=float)
        return np.sum(y * self.thermo.cv_vib_el_mass(Tv), axis=-1)

    def e_tr_rot(self, T, y):
        """Translational-rotational + formation energy [J/kg].

        (h_tr_rot includes formation enthalpy; subtract RT to get energy.)
        """
        y = np.asarray(y, dtype=float)
        h_tr = np.sum(y * self.thermo.h_tr_rot_mass(T), axis=-1)
        R_mix = R_UNIVERSAL * np.sum(y / self.db.molar_mass, axis=-1)
        return h_tr - R_mix * np.asarray(T, dtype=float)

    def cv_tr_rot(self, T, y):
        """Translational-rotational specific heat at constant volume.

        Independent of ``T`` (classical translation and rotation): the
        result has the batch shape of ``y``.
        """
        y = np.asarray(y, dtype=float)
        cp_tr = np.sum(y * self.thermo.cp_tr_rot_mass(), axis=-1)
        R_mix = R_UNIVERSAL * np.sum(y / self.db.molar_mass, axis=-1)
        return cp_tr - R_mix

    def e_total(self, T, Tv, y):
        """Total internal energy e = e_tr_rot(T) + e_v(Tv) [J/kg]."""
        return self.e_tr_rot(T, y) + self.e_vib_el(Tv, y)

    # ------------------------------------------------------------------
    # inversions
    # ------------------------------------------------------------------

    def Tv_from_ev(self, ev, y, *, Tv_guess=None, tol=1e-9, max_iter=80,
                   pool=None):
        """Invert the vibrational-electronic pool for Tv (batched Newton).

        ``pool``, when given, is a dict that receives ``pool["Tv"]``: the
        per-species pool energies e_v,s [J/kg] at the returned Tv, from
        the Newton's last evaluation, for :meth:`sources`.
        """
        ev = np.asarray(ev, dtype=float)
        y = np.asarray(y, dtype=float)
        Tv = _start(2000.0 if Tv_guess is None else Tv_guess, ev, y)
        scale = np.maximum(np.abs(ev), 1e2)
        for _ in range(max_iter):
            e_s, cv_s = self.thermo.e_cv_vib_el_mass(Tv)
            f = np.add.reduce(y * e_s, axis=-1) - ev
            if np.all(np.abs(f) <= tol * scale):
                break
            cv = np.maximum(np.add.reduce(y * cv_s, axis=-1), 1e-3)
            dTv = np.minimum(np.maximum(-f / cv, -0.5 * Tv), 2.0 * Tv)
            Tv = np.minimum(np.maximum(Tv + dTv, 10.0), 1.0e5)
        else:
            e_s = self.thermo.e_vib_el_mass(Tv)
            f = np.abs(np.add.reduce(y * e_s, axis=-1) - ev)
            if np.any(f > 1e-4 * scale):
                raise ConvergenceError("Tv_from_ev failed",
                                       iterations=max_iter,
                                       residual=float(np.max(f / scale)))
        if pool is not None:
            pool["Tv"] = e_s
        return Tv

    def T_from_e_ev(self, e, ev, y, *, T_guess=None, tol=1e-9, max_iter=80):
        """Recover (T, Tv) from total and vibrational energies.

        ``e`` is total internal energy (incl. formation); ``ev`` the
        vibrational-electronic pool.  Returns ``(T, Tv)``.
        """
        Tv = self.Tv_from_ev(ev, y)
        e_tr = np.asarray(e, dtype=float) - np.asarray(ev, dtype=float)
        y = np.asarray(y, dtype=float)
        T = _start(1000.0 if T_guess is None else T_guess, e_tr, y)
        scale = np.maximum(np.abs(e_tr), 1e3)
        for _ in range(max_iter):
            f = self.e_tr_rot(T, y) - e_tr
            if np.all(np.abs(f) <= tol * scale):
                return T, Tv
            cv = np.maximum(self.cv_tr_rot(T, y), 10.0)
            dT = np.clip(-f / cv, -0.5 * T, 2.0 * T)
            T = np.clip(T + dT, 10.0, 1.0e5)
        raise ConvergenceError("T_from_e_ev failed", iterations=max_iter)

    # ------------------------------------------------------------------
    # exchange source terms
    # ------------------------------------------------------------------

    def landau_teller_source(self, rho, T, Tv, y):
        """Translational->vibrational-electronic energy transfer [W/m^3].

        Q_TV = sum_s rho y_s (e_v_s(T) - e_v_s(Tv)) / tau_s — positive when
        translation is hotter than the pool.  Vibrating molecules use the
        Millikan–White(+Park) time; atomic/ionic species with low-lying
        electronic levels use the Park collision-limited time as an
        effective electronic-translational channel (without it the pool
        could never equilibrate in fully dissociated gas).
        """
        return self._landau_teller(rho, T, y, self.thermo.e_vib_el_mass(T),
                                   self.thermo.e_vib_el_mass(Tv))

    def _landau_teller(self, rho, T, y, ev_T, ev_Tv):
        """Q_TV given the per-species pool energies at T and at Tv."""
        rho = np.asarray(rho, dtype=float)
        y = np.asarray(y, dtype=float)
        idx = self.relax.vib_idx
        tau = self.relax.times(rho, T, y)
        q = np.add.reduce(rho[..., None] * y[..., idx]
                          * (ev_T[..., idx] - ev_Tv[..., idx]) / tau,
                          axis=-1)
        # electronic relaxation of non-vibrating species
        el_idx = self._el_idx
        if el_idx.size:
            n_total = (rho * np.add.reduce(y / self.db.molar_mass, axis=-1)
                       * N_AVOGADRO)
            tau_el = park_correction_time(
                np.asarray(T, float)[..., None], n_total[..., None],
                self.db.molar_mass[el_idx])
            q = q + np.add.reduce(rho[..., None] * y[..., el_idx]
                                  * (ev_T[..., el_idx] - ev_Tv[..., el_idx])
                                  / tau_el, axis=-1)
        return q

    def sources(self, rho, T, Tv, y, *, pool=None):
        """``(wdot, q_v)``: production rates [kg/(m^3 s)] and d(rho e_v)/dt.

        q_v [W/m^3] is the Landau–Teller exchange plus what each species
        produced (destroyed) adds (removes) at its pool energy at Tv
        (non-preferential model).  One species pass at T gives the
        backward rates' g0/RT and the Landau–Teller e_v,s(T); both
        terms share one e_v,s(Tv).  ``pool`` is the dict that the
        :meth:`Tv_from_ev` call which returned this Tv filled: its
        ``"Tv"`` entry stands in for the e_v,s(Tv) pass, and ``pool["T"]``
        receives e_v,s(T).
        """
        if self.mechanism is None:
            raise InputError("sources needs a reaction mechanism")
        pool = {} if pool is None else pool
        g0_rt, pool["T"] = self.thermo.g0_over_RT_e_vib_el_mass(T)
        wdot = self.mechanism.wdot(rho, T, y, Tv, g0_rt=g0_rt)
        if "Tv" not in pool:
            pool["Tv"] = self.thermo.e_vib_el_mass(Tv)
        q = self._landau_teller(rho, T, y, pool["T"], pool["Tv"])
        return wdot, q + np.add.reduce(wdot * pool["Tv"], axis=-1)
