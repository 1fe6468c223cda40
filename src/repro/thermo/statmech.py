"""Statistical-mechanics thermodynamics for single species.

Everything is derived from the molecular constants in
:mod:`repro.thermo.species` with the rigid-rotor / harmonic-oscillator /
electronic-level (RRHO+E) model:

* translation — classical (Sackur–Tetrode entropy),
* rotation — classical limit (valid above a few θ_rot; only H2 at cryogenic
  temperatures falls outside the intended envelope),
* vibration — quantum harmonic oscillator per mode, energy measured from the
  zero-point level (the zero-point offset is folded into the 0 K formation
  enthalpy),
* electronic — explicit low-lying level sums.

Energies are referenced so that ``h(T=0) == hf0`` for every species, which
makes reaction enthalpies, equilibrium constants and kinetics backward rates
mutually consistent by construction.

All public methods are vectorised over temperature (scalar in → scalar-like
0-d array out; array in → array out) and return **molar** quantities
(J/mol/K, J/mol).  Per-mass helpers divide by the molar mass.

:class:`ThermoSet` evaluates a whole species set at once, bitwise equal to
looping :class:`SpeciesThermo` over it: each vibrational or electronic
pass is one level-first (levels, ..., n) block of in-place ufuncs, summed
over its levels in order, and ``g0_over_RT_e_vib_el_mass`` gives a
two-temperature source both of its quantities at T from one pass
(DESIGN §11, §26).
"""

from __future__ import annotations

import numpy as np

from repro.constants import H_PLANCK, K_BOLTZMANN, N_AVOGADRO, R_UNIVERSAL
from repro.thermo.species import Species, SpeciesDB

__all__ = ["P_STANDARD", "SpeciesThermo", "ThermoSet"]

#: Standard-state pressure for Gibbs functions and Kp [Pa].
P_STANDARD = 1.0e5

_R = R_UNIVERSAL


def _as_T(T):
    """Coerce temperature input to a positive float array."""
    t = np.asarray(T, dtype=float)
    return np.maximum(t, 1.0e-3)


class SpeciesThermo:
    """Thermodynamic property evaluator for one species."""

    def __init__(self, species: Species):
        self.sp = species
        self.M = species.molar_mass
        m_kg = self.M / N_AVOGADRO
        # ln of the translational partition-function prefactor:
        # q_tr/V = (2 pi m k T / h^2)^{3/2};  store ln[(2 pi m k / h^2)^{3/2}]
        # catlint: disable=CAT001 -- argument is a product of positive
        # physical constants and the species mass
        self._ln_qtr_pref = 1.5 * np.log(
            2.0 * np.pi * m_kg * K_BOLTZMANN / H_PLANCK**2)
        lv = species.elec_levels or ((1, 0.0),)
        self._g_el = np.array([g for g, _ in lv], dtype=float)
        self._th_el = np.array([t for _, t in lv], dtype=float)
        self._vib = tuple(species.vib_modes)
        geom = species.geometry
        # rotational degrees of freedom: an exact small integer (0, 2
        # or 3), kept as int so branches compare exactly (CAT010)
        if geom == "atom":
            self._rot_dof = 0
            self._ln_qrot_pref = None
        elif geom == "linear":
            self._rot_dof = 2
            th = species.theta_rot[0]
            # catlint: disable=CAT001 -- symmetry number and theta_rot
            # are positive species constants
            self._ln_qrot_pref = -np.log(species.sigma_sym * th)
        else:
            self._rot_dof = 3
            ta, tb, tc = species.theta_rot
            # catlint: disable=CAT001 -- positive species constants
            self._ln_qrot_pref = (0.5 * np.log(np.pi / (ta * tb * tc))
                                  - np.log(species.sigma_sym))

    # -- per-mode pieces -----------------------------------------------------

    def _vib_e(self, T):
        """Vibrational energy above the zero point [J/mol]."""
        T = _as_T(T)
        e = np.zeros_like(T)
        for th, g in self._vib:
            x = th / T
            e += g * _R * th / np.expm1(np.clip(x, 1e-12, 500.0))
        return e

    def _vib_cv(self, T):
        T = _as_T(T)
        cv = np.zeros_like(T)
        for th, g in self._vib:
            x = np.clip(th / T, 1e-12, 250.0)
            ex = np.exp(x)
            cv += g * _R * x * x * ex / (ex - 1.0) ** 2
        return cv

    def _vib_lnq(self, T):
        T = _as_T(T)
        lnq = np.zeros_like(T)
        for th, g in self._vib:
            x = np.clip(th / T, 1e-12, 500.0)
            # catlint: disable=CAT001 -- x in [1e-12, 500] so
            # -expm1(-x) lies in (0, 1)
            lnq += -g * np.log(-np.expm1(-x))
        return lnq

    def _elec_moments(self, T):
        """Return (q_el, <θ>, <θ²>) Boltzmann-weighted over levels."""
        T = _as_T(T)
        # shape: levels x T...
        x = self._th_el.reshape((-1,) + (1,) * T.ndim) / T
        w = self._g_el.reshape((-1,) + (1,) * T.ndim) * np.exp(
            -np.clip(x, 0.0, 500.0))
        q = np.sum(w, axis=0)
        th = self._th_el.reshape((-1,) + (1,) * T.ndim)
        m1 = np.sum(w * th, axis=0) / q
        m2 = np.sum(w * th * th, axis=0) / q
        return q, m1, m2

    # -- public API ------------------------------------------------------------

    def cp(self, T):
        """Molar heat capacity at constant pressure [J/(mol K)]."""
        T = _as_T(T)
        q, m1, m2 = self._elec_moments(T)
        cv_el = _R * (m2 - m1 * m1) / T**2
        return (2.5 * _R + 0.5 * self._rot_dof * _R + self._vib_cv(T)
                + cv_el)

    def cv(self, T):
        """Molar heat capacity at constant volume [J/(mol K)]."""
        return self.cp(T) - _R

    def h(self, T):
        """Molar enthalpy, including formation enthalpy [J/mol].

        Referenced so h(0 K) = hf0.
        """
        T = _as_T(T)
        q, m1, _ = self._elec_moments(T)
        e_el = _R * m1
        return (self.sp.hf0 + 2.5 * _R * T + 0.5 * self._rot_dof * _R * T
                + self._vib_e(T) + e_el)

    def e(self, T):
        """Molar internal energy [J/mol]."""
        return self.h(T) - _R * _as_T(T)

    def s(self, T, p=P_STANDARD):
        """Molar entropy at temperature T and pressure p [J/(mol K)]."""
        T = _as_T(T)
        p = np.maximum(np.asarray(p, dtype=float), 1.0e-300)
        ln_qtr = (self._ln_qtr_pref + 1.5 * np.log(T)
                  + np.log(K_BOLTZMANN * T / p))
        s_tr = _R * (ln_qtr + 2.5)
        if self._rot_dof == 0:
            s_rot = np.zeros_like(T)
        elif self._rot_dof == 2:
            s_rot = _R * (self._ln_qrot_pref + np.log(T) + 1.0)
        else:
            s_rot = _R * (self._ln_qrot_pref + 1.5 * np.log(T) + 1.5)
        s_vib = _R * self._vib_lnq(T) + self._vib_e(T) / T
        q, m1, _ = self._elec_moments(T)
        # catlint: disable=CAT001 -- q >= g_ground * exp(-500) > 0
        s_el = _R * np.log(q) + _R * m1 / T
        return s_tr + s_rot + s_vib + s_el

    def g0(self, T):
        """Standard-state molar Gibbs function g0 = h - T s(T, p0) [J/mol]."""
        T = _as_T(T)
        return self.h(T) - T * self.s(T, P_STANDARD)

    def gibbs(self, T, p):
        """Molar Gibbs function of the pure gas at (T, p) [J/mol]."""
        T = _as_T(T)
        return self.h(T) - T * self.s(T, p)

    # -- two-temperature split ---------------------------------------------

    def h_tr_rot(self, T):
        """Translational+rotational enthalpy (incl. formation) [J/mol].

        This is the heavy-particle-temperature part of the two-temperature
        split; vibration and electronic excitation live at Tv.
        """
        T = _as_T(T)
        return self.sp.hf0 + (2.5 + 0.5 * self._rot_dof) * _R * T

    def cp_tr_rot(self, T):
        T = _as_T(T)
        return np.full_like(T, (2.5 + 0.5 * self._rot_dof) * _R)

    def e_vib_el(self, Tv):
        """Vibrational-electronic molar energy at vibrational temp Tv."""
        Tv = _as_T(Tv)
        q, m1, _ = self._elec_moments(Tv)
        return self._vib_e(Tv) + _R * m1

    def cv_vib_el(self, Tv):
        """d e_vib_el / dTv [J/(mol K)]."""
        Tv = _as_T(Tv)
        q, m1, m2 = self._elec_moments(Tv)
        return self._vib_cv(Tv) + _R * (m2 - m1 * m1) / Tv**2

    # -- per-mass conveniences -----------------------------------------------

    def cp_mass(self, T):
        """Specific heat at constant pressure [J/(kg K)]."""
        return self.cp(T) / self.M

    def h_mass(self, T):
        """Specific enthalpy [J/kg]."""
        return self.h(T) / self.M

    def e_mass(self, T):
        """Specific internal energy [J/kg]."""
        return self.e(T) / self.M

    def e_vib_el_mass(self, Tv):
        """Specific vibrational-electronic energy [J/kg]."""
        return self.e_vib_el(Tv) / self.M

    def cv_vib_el_mass(self, Tv):
        return self.cv_vib_el(Tv) / self.M


def _padded_levels(rows):
    """Ragged per-species ``(θ, g)`` rows as two (width, n) level tables.

    Row k holds the k-th mode/level slot of every species; species with
    fewer slots are padded with ``θ = 0, g = 0``, whose term is an exact
    zero in every sum (DESIGN §11).
    """
    width = max((len(r) for r in rows), default=0)
    th = np.zeros((width, len(rows)), dtype=np.float64)
    g = np.zeros_like(th)
    for j, row in enumerate(rows):
        if row:
            th[:len(row), j], g[:len(row), j] = zip(*row)
    return th, g


def _level_block(table, T1):
    """A (width, n) level table viewed as (width, 1, ..., 1, n), so that
    it broadcasts against a (..., 1) temperature column into a
    level-first (width, ..., n) block."""
    return table.reshape(table.shape[:1] + (1,) * (T1.ndim - 1)
                         + table.shape[1:])


def _sum_levels(block):
    """Sum a level-first block over its levels, in level order.

    ``np.add.reduce`` over the leading axis adds whole (..., n) rows one
    after the other, as the per-species ``np.sum`` over the level axis
    and a column loop from 0.0 do, so the sums are bitwise equal
    (DESIGN §26.2).
    """
    return np.add.reduce(block, axis=0)


class ThermoSet:
    """Batch evaluator over a whole :class:`~repro.thermo.species.SpeciesDB`.

    Methods return arrays with a trailing species axis: input T of shape
    ``S`` produces output of shape ``S + (n_species,)``.  This is the layout
    the equilibrium solver and kinetics use (cells × species, C-contiguous in
    species — the short, vectorised axis).

    Each property is one array pass over the whole set: the per-species
    constants of :class:`SpeciesThermo` are gathered into (n,) vectors and
    the vibrational modes and electronic levels into (width, n) level
    tables padded with degeneracy 0.  A pass evaluates every mode or
    level at once as a level-first (width, ..., n) block, with the same
    expressions in the same order as :class:`SpeciesThermo`, in place
    after its first allocation, and sums the levels in order — so results
    are bitwise equal to looping ``SpeciesThermo`` over :attr:`each`
    (DESIGN §11, §26).
    """

    def __init__(self, db: SpeciesDB):
        self.db = db
        self.each = tuple(SpeciesThermo(sp) for sp in db.species)
        rot = np.array([st._rot_dof for st in self.each], dtype=np.float64)
        # ln q_rot = ln_qrot + a ln T and s_rot = R (ln q_rot + a), with
        # a = rot_dof / 2 (an atom's zero a and ln_qrot give s_rot = 0)
        self._a_rot = 0.5 * rot
        self._ln_qrot = np.array([st._ln_qrot_pref if st._rot_dof else 0.0
                                  for st in self.each])
        self._ln_qtr = np.array([st._ln_qtr_pref for st in self.each])
        self._c_rot = self._a_rot * _R
        self._c_tr_rot = (2.5 + self._a_rot) * _R
        th, g = _padded_levels([st._vib for st in self.each])
        # the per-mode factors of SpeciesThermo's expressions, formed
        # once: g R θ (energy), g R (cv) and -g (ln q_vib)
        self._vib_th, self._vib_gR = th, g * _R
        self._vib_gRth, self._vib_neg_g = g * _R * th, -g
        self._el_th, self._el_g = _padded_levels(
            [tuple(zip(st._th_el, st._g_el)) for st in self.each])
        cp_tr_rot = self._c_tr_rot / db.molar_mass
        cp_tr_rot.flags.writeable = False
        self._cp_tr_rot_mass = cp_tr_rot

    # -- level-first passes over (..., 1) temperatures -----------------------

    def _vib_x(self, T1, hi):
        """θ/T clamped to [1e-12, hi], a fresh (modes, ..., n) block."""
        x = np.divide(_level_block(self._vib_th, T1), T1)
        np.maximum(x, 1e-12, out=x)
        return np.minimum(x, hi, out=x)

    def _vib_energy(self, T1):
        """Vibrational energy above the zero point [J/mol], (..., n)."""
        x = self._vib_x(T1, 500.0)
        np.expm1(x, out=x)
        return _sum_levels(np.divide(_level_block(self._vib_gRth, T1), x,
                                     out=x))

    def _vib_energy_lnq(self, T1):
        """Vibrational energy [J/mol] and ln q_vib from one pass."""
        x = self._vib_x(T1, 500.0)
        b = np.expm1(x)
        e = _sum_levels(np.divide(_level_block(self._vib_gRth, T1), b,
                                  out=b))
        # -g ln(-expm1(-x)); -expm1(-x) >= 1e-12 (x >= 1e-12), so the
        # floor never binds
        np.negative(x, out=x)
        np.expm1(x, out=x)
        np.negative(x, out=x)
        np.log(np.maximum(x, 1e-300, out=x), out=x)
        return e, _sum_levels(np.multiply(_level_block(self._vib_neg_g, T1),
                                          x, out=x))

    def _vib_heat_capacity(self, T1):
        """Vibrational cv [J/(mol K)], (..., n)."""
        x = self._vib_x(T1, 250.0)
        # catlint: disable=CAT004 -- x = θ/T lies in [1e-12, 250]
        ex = np.exp(x)
        # g R x x eˣ / (eˣ - 1)²
        cv = np.multiply(_level_block(self._vib_gR, T1), x)
        cv *= x
        cv *= ex
        ex -= 1.0
        return _sum_levels(np.divide(cv, np.square(ex, out=ex), out=cv))

    def _elec_weights(self, T1):
        """θ and the Boltzmann weights g exp(-θ/T) of every level, as
        (levels, ..., n) blocks; the weights block is fresh."""
        th = _level_block(self._el_th, T1)
        w = np.divide(th, T1)
        np.maximum(w, 0.0, out=w)
        np.minimum(w, 500.0, out=w)
        np.negative(w, out=w)
        # catlint: disable=CAT004 -- the exponent lies in [-500, 0]
        np.exp(w, out=w)
        return th, np.multiply(_level_block(self._el_g, T1), w, out=w)

    def _elec_q_m1(self, T1):
        """Electronic (q_el, <θ>) per species, (..., n)."""
        th, w = self._elec_weights(T1)
        q = _sum_levels(w)
        return q, _sum_levels(np.multiply(w, th, out=w)) / q

    def _elec_m1_cv(self, T1):
        """Electronic <θ> and cv = R (<θ²> - <θ>²) / T² from one pass."""
        th, w = self._elec_weights(T1)
        q = _sum_levels(w)
        s1 = _sum_levels(np.multiply(w, th, out=w))
        s2 = _sum_levels(np.multiply(w, th, out=w))
        m1 = s1 / q
        return m1, _R * (s2 / q - m1 * m1) / T1**2

    def _h_molar(self, T1, e_vib, m1):
        return (self.db.hf0_molar + 2.5 * _R * T1 + self._c_rot * T1
                + e_vib + _R * m1)

    def _h_s0(self, T):
        """(T1, h, s0, e_vib, <θ>_el) from one vibrational and one
        electronic pass."""
        T1 = _as_T(np.asarray(T)[..., None])
        e_vib, lnq = self._vib_energy_lnq(T1)
        q, m1 = self._elec_q_m1(T1)
        ln_T = np.log(T1)
        ln_qtr = (self._ln_qtr + 1.5 * ln_T
                  + np.log(K_BOLTZMANN * T1 / P_STANDARD))
        s_tr = _R * (ln_qtr + 2.5)
        s_rot = _R * (self._ln_qrot + self._a_rot * ln_T + self._a_rot)
        s_vib = _R * lnq + e_vib / T1
        # q >= g_ground exp(-500) > 1e-300, so the floor never binds
        s_el = _R * np.log(np.maximum(q, 1e-300)) + _R * m1 / T1
        return (T1, self._h_molar(T1, e_vib, m1),
                s_tr + s_rot + s_vib + s_el, e_vib, m1)

    # -- public API -----------------------------------------------------------

    def cp(self, T):
        """Molar cp per species, shape (..., n)."""
        T1 = _as_T(np.asarray(T)[..., None])
        return (2.5 * _R + self._c_rot + self._vib_heat_capacity(T1)
                + self._elec_m1_cv(T1)[1])

    def h(self, T):
        """Molar enthalpy per species (incl. formation), shape (..., n)."""
        T1 = _as_T(np.asarray(T)[..., None])
        return self._h_molar(T1, self._vib_energy(T1),
                             self._elec_q_m1(T1)[1])

    def e(self, T):
        return self.h(T) - _R * _as_T(np.asarray(T)[..., None])

    def s0(self, T):
        """Standard-state entropy per species, shape (..., n)."""
        return self._h_s0(T)[2]

    def g0(self, T):
        """Standard-state Gibbs per species, shape (..., n)."""
        T1, h, s = self._h_s0(T)[:3]
        return h - T1 * s

    def g0_over_RT(self, T):
        """Dimensionless standard Gibbs g0/(R T), shape (..., n)."""
        T = np.asarray(T, dtype=float)
        return self.g0(T) / (_R * T[..., None])

    def g0_over_RT_e_vib_el_mass(self, T):
        """(g0_over_RT, e_vib_el_mass) at one temperature from one
        vibrational and one electronic pass: the backward rates' g0/RT
        and the Landau–Teller e_v,s(T) of a two-temperature source."""
        T = np.asarray(T, dtype=float)
        T1, h, s, e_vib, m1 = self._h_s0(T)
        return ((h - T1 * s) / (_R * T[..., None]),
                (e_vib + _R * m1) / self.db.molar_mass)

    def h_mass(self, T):
        """Specific enthalpy per species [J/kg], shape (..., n)."""
        return self.h(T) / self.db.molar_mass

    def e_mass(self, T):
        return self.e(T) / self.db.molar_mass

    def cp_mass(self, T):
        return self.cp(T) / self.db.molar_mass

    def cv_mass(self, T):
        return (self.cp(T) - _R) / self.db.molar_mass

    def e_vib_el_mass(self, Tv):
        T1 = _as_T(np.asarray(Tv)[..., None])
        e = self._vib_energy(T1) + _R * self._elec_q_m1(T1)[1]
        return e / self.db.molar_mass

    def cv_vib_el_mass(self, Tv):
        T1 = _as_T(np.asarray(Tv)[..., None])
        cv = self._vib_heat_capacity(T1) + self._elec_m1_cv(T1)[1]
        return cv / self.db.molar_mass

    def e_cv_vib_el_mass(self, Tv):
        """(e_vib_el_mass, cv_vib_el_mass) with one electronic pass."""
        T1 = _as_T(np.asarray(Tv)[..., None])
        m1, cv_el = self._elec_m1_cv(T1)
        M = self.db.molar_mass
        return ((self._vib_energy(T1) + _R * m1) / M,
                (self._vib_heat_capacity(T1) + cv_el) / M)

    def h_tr_rot_mass(self, T):
        T1 = _as_T(np.asarray(T)[..., None])
        return (self.db.hf0_molar + self._c_tr_rot * T1) / self.db.molar_mass

    def cp_tr_rot_mass(self):
        """Translational-rotational cp per species [J/(kg K)], shape (n,).

        Independent of temperature (classical translation and rotation),
        so it takes no T; the returned array is read-only.
        """
        return self._cp_tr_rot_mass
