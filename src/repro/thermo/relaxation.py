"""Vibrational relaxation times (Millikan–White + Park correction).

The Landau–Teller relaxation source term in the two-temperature model needs
a characteristic time for each vibrating species.  The standard model is the
Millikan–White correlation per collision pair::

    p_atm * tau_MW = exp[ A_sr (T^{-1/3} - 0.015 mu^{1/4}) - 18.42 ]   [atm s]
    A_sr = 1.16e-3 * mu^{1/2} * theta_v^{4/3}

with ``mu`` the reduced molar mass of the pair in g/mol.  At the very high
temperatures of the paper's flows, Millikan–White under-predicts the time;
Park's limiting-cross-section correction adds::

    tau_park = 1 / (sigma_v * c_bar * n)
    sigma_v  = 3e-21 * (50000/T)^2  [m^2]

and ``tau = tau_MW + tau_park``.
"""

from __future__ import annotations

import numpy as np

from repro.constants import K_BOLTZMANN, N_AVOGADRO, P_ATM
from repro.thermo.species import SpeciesDB, species_set

__all__ = ["millikan_white_time", "park_correction_time",
           "VibrationalRelaxation"]


def millikan_white_time(T, p, theta_v: float, mu_gmol):
    """Millikan–White relaxation time [s] for one collision pair.

    Parameters
    ----------
    T:
        Translational temperature [K].
    p:
        Pressure [Pa].
    theta_v:
        Characteristic vibrational temperature of the relaxing molecule [K].
    mu_gmol:
        Reduced molar mass of the collision pair [g/mol].
    """
    T = np.asarray(T, dtype=float)
    p_atm = np.asarray(p, dtype=float) / P_ATM
    # catlint: disable=CAT002 -- reduced molar mass is positive
    a = 1.16e-3 * np.sqrt(mu_gmol) * theta_v ** (4.0 / 3.0)
    expo = a * (T ** (-1.0 / 3.0) - 0.015 * mu_gmol ** 0.25) - 18.42
    # catlint: disable=UNIT002 -- empirical Millikan-White correlation:
    # the 1.16e-3 constant absorbs the (g/mol)^1/2 K^-4/3 units, so the
    # [s] result is invisible to dimensional bookkeeping
    return np.exp(np.clip(expo, -300.0, 300.0)) / np.maximum(p_atm, 1e-300)


def park_correction_time(T, n_density, molar_mass):
    """Park high-temperature correction time [s].

    Parameters
    ----------
    T:
        Translational temperature [K].
    n_density:
        Mixture number density [1/m^3].
    molar_mass:
        Molar mass of the relaxing molecule [kg/mol].
    """
    T = np.asarray(T, dtype=float)
    m = molar_mass / N_AVOGADRO
    # catlint: disable=CAT002 -- physical T and particle mass are positive
    c_bar = np.sqrt(8.0 * K_BOLTZMANN * T / (np.pi * m))
    sigma_v = 3.0e-21 * (50000.0 / np.maximum(T, 1.0)) ** 2
    return 1.0 / (sigma_v * c_bar * np.maximum(n_density, 1e-300))


class VibrationalRelaxation:
    """Mixture-averaged relaxation times over a species set.

    For each vibrating species ``s`` the pairwise Millikan–White times
    against every heavy collider ``r`` are combined with the mole-fraction
    average 1/tau_s = sum_r x_r / tau_sr / sum_r x_r, and Park's correction
    is added.
    """

    def __init__(self, db: SpeciesDB | str):
        self.db = db if isinstance(db, SpeciesDB) else species_set(db)
        #: Indices of species with vibrational modes.
        self.vib_idx = np.array([j for j, sp in enumerate(self.db.species)
                                 if sp.vib_modes], dtype=int)
        #: Heavy (non-electron) colliders.
        self.heavy_idx = np.array([j for j, sp in enumerate(self.db.species)
                                   if sp.name != "e-"], dtype=int)
        m_g = self.db.molar_mass * 1e3  # g/mol
        # reduced molar masses mu[s, r] for vibrating s against collider r
        ms = m_g[self.vib_idx][:, None]
        mr = m_g[self.heavy_idx][None, :]
        self._mu = ms * mr / (ms + mr)
        self._theta = np.array([self.db.species[j].theta_v
                                for j in self.vib_idx])
        # catlint: disable=CAT002 -- reduced molar masses are positive
        self._a_sr = (1.16e-3 * np.sqrt(self._mu)
                      * self._theta[:, None] ** (4.0 / 3.0))
        self._b_sr = 0.015 * self._mu ** 0.25

    def times(self, rho, T, y, *, park=True):
        """Relaxation time for each vibrating species, shape (..., n_vib).

        Parameters
        ----------
        rho, T:
            Density [kg/m^3] and translational temperature [K].
        y:
            Mass fractions (..., n_species).
        park:
            Include Park's limiting-cross-section correction.
        """
        rho = np.asarray(rho, dtype=float)
        T = np.asarray(T, dtype=float)
        y = np.asarray(y, dtype=float)
        x = self.db.mass_to_mole(np.maximum(y, 1e-30))
        n_total = (rho * np.add.reduce(y / self.db.molar_mass, axis=-1)
                   * N_AVOGADRO)
        p = n_total * K_BOLTZMANN * T
        p_atm = np.maximum(p / P_ATM, 1e-300)
        # pairwise MW times: shape (..., n_vib, n_heavy)
        t13 = T[..., None, None] ** (-1.0 / 3.0)
        expo = self._a_sr * (t13 - self._b_sr) - 18.42
        tau_sr = (np.exp(np.minimum(np.maximum(expo, -300.0), 300.0))
                  / p_atm[..., None, None])
        x_r = x[..., self.heavy_idx]
        x_sum = np.maximum(np.add.reduce(x_r, axis=-1, keepdims=True),
                           1e-30)
        inv_tau = np.add.reduce(x_r[..., None, :] / tau_sr, axis=-1) / x_sum
        tau = 1.0 / np.maximum(inv_tau, 1e-300)
        if park:
            n_d = n_total[..., None]
            tau = tau + park_correction_time(
                T[..., None], n_d, self.db.molar_mass[self.vib_idx])
        return tau
