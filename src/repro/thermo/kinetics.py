"""Finite-rate chemistry: the Park two-temperature air mechanism.

The paper's nonequilibrium flows ("finite-rate processes for chemical- and
energy-exchange phenomena") are driven by this module.  It implements

* a generic :class:`Reaction` / :class:`ReactionMechanism` pair with
  vectorised production rates over batches of cells,
* :func:`park_air_mechanism` — the standard dissociating/ionizing air
  mechanism (Park 1990 rate constants) restricted automatically to whatever
  species subset the caller's :class:`SpeciesDB` carries.

Two-temperature coupling follows Park: dissociation forward rates are
evaluated at the geometric mean ``Ta = sqrt(T * Tv)``; electron-impact
ionization at ``Tv`` (the free-electron temperature is tied to the
vibrational-electronic pool); everything else at ``T``.  Backward rates are
obtained from the forward rate evaluated at ``T`` divided by the
concentration equilibrium constant, which is computed from the *same*
statmech Gibbs functions the equilibrium solver uses — so finite-rate
chemistry relaxes exactly onto the equilibrium solver's composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.constants import R_UNIVERSAL as R
from repro.constants import arrhenius_si
from repro.errors import InputError
from repro.numerics.safety import safe_exp
from repro.thermo.species import SpeciesDB, species_set
from repro.thermo.statmech import P_STANDARD, ThermoSet

__all__ = ["Reaction", "ReactionMechanism", "park_air_mechanism"]

#: Forward-rate controlling temperature options.
_RATE_TEMPS = ("T", "TTv", "Tv")


@dataclass(frozen=True)
class Reaction:
    """One elementary (optionally third-body) reversible reaction.

    Rate constants are stored in SI molar units (m^3/mol/s based); use
    :meth:`from_cgs` for literature (cm^3/mol/s) values.
    """

    equation: str
    reactants: Mapping[str, int]
    products: Mapping[str, int]
    #: Arrhenius pre-exponential, SI molar units.
    A: float
    #: Temperature exponent.
    n: float
    #: Activation temperature theta = Ea/R [K].
    theta: float
    #: True for M-catalysed reactions (adds one order to both directions).
    third_body: bool = False
    #: Relative third-body efficiencies by species name (default 1.0).
    efficiencies: Mapping[str, float] = field(default_factory=dict)
    #: Which temperature controls the forward rate: "T", "TTv" or "Tv".
    rate_T: str = "T"

    def __post_init__(self):
        if self.rate_T not in _RATE_TEMPS:
            raise InputError(f"rate_T must be one of {_RATE_TEMPS}")

    @classmethod
    def from_cgs(cls, equation: str, reactants, products, A_cgs, n, theta,
                 *, third_body=False, efficiencies=None, rate_T="T"):
        """Build from CGS-molar Arrhenius constants (cm^3/mol/s units)."""
        order = sum(reactants.values()) + (1 if third_body else 0)
        return cls(equation=equation, reactants=dict(reactants),
                   products=dict(products),
                   A=arrhenius_si(A_cgs, order), n=n, theta=theta,
                   third_body=third_body,
                   efficiencies=dict(efficiencies or {}), rate_T=rate_T)

    @property
    def delta_nu(self) -> int:
        """Net change in moles (products minus reactants, no third body)."""
        return sum(self.products.values()) - sum(self.reactants.values())


class ReactionMechanism:
    """Vectorised production-rate evaluator for a set of reactions.

    Parameters
    ----------
    db:
        Species ordering used for all composition arrays.
    reactions:
        Reactions whose species must all be members of ``db``.
    """

    def __init__(self, db: SpeciesDB | str, reactions: Sequence[Reaction]):
        self.db = db if isinstance(db, SpeciesDB) else species_set(db)
        self.thermo = ThermoSet(self.db)
        self.reactions = tuple(reactions)
        nr, ns = len(self.reactions), self.db.n
        if nr == 0:
            raise InputError("mechanism needs at least one reaction")
        self.nu_r = np.zeros((nr, ns), dtype=np.float64)
        self.nu_p = np.zeros((nr, ns), dtype=np.float64)
        self.tb_eff = np.ones((nr, ns), dtype=np.float64)
        self.is_tb = np.zeros(nr, dtype=bool)
        self._A = np.empty(nr, dtype=np.float64)
        self._n = np.empty(nr, dtype=np.float64)
        self._theta = np.empty(nr, dtype=np.float64)
        self._rate_T = []
        for i, rx in enumerate(self.reactions):
            for name, nu in rx.reactants.items():
                self.nu_r[i, self.db.index[name]] = nu
            for name, nu in rx.products.items():
                self.nu_p[i, self.db.index[name]] = nu
            self.is_tb[i] = rx.third_body
            for name, eff in rx.efficiencies.items():
                if name in self.db:
                    self.tb_eff[i, self.db.index[name]] = eff
            self._A[i] = rx.A
            self._n[i] = rx.n
            self._theta[i] = rx.theta
            self._rate_T.append(rx.rate_T)
        self.dnu = self.nu_p - self.nu_r
        self._dnu_tot = self.dnu.sum(axis=1)
        # masks for the three controlling temperatures
        self._mask = {key: np.array([rt == key for rt in self._rate_T])
                      for key in _RATE_TEMPS}

    @property
    def n_reactions(self) -> int:
        return len(self.reactions)

    # ------------------------------------------------------------------
    # rate constants
    # ------------------------------------------------------------------

    def _arrhenius(self, T):
        """kf at a given controlling temperature for all reactions.

        The exponent is clipped (:func:`repro.numerics.safety.safe_exp`):
        a custom mechanism with a negative activation temperature, or a
        transiently tiny controlling temperature, would otherwise
        overflow the exponential to ``inf`` and flood the production
        rates with NaN.
        """
        T = np.asarray(T, dtype=float)[..., None]
        return self._A * T**self._n * safe_exp(
            -self._theta / np.maximum(T, 1.0))

    def _kf_kT(self, T, Tv):
        """(kf, k(T)): k(T), every reaction's rate at T, is kf's T part."""
        T = np.asarray(T, dtype=float)
        Tv = T if Tv is None else np.asarray(Tv, dtype=float)
        # catlint: disable=CAT002 -- controlling temperatures are
        # positive by solver state sanitisation
        Ta = np.sqrt(T * Tv)
        k_T = self._arrhenius(T)
        out = k_T.copy()
        for key, Tc in (("TTv", Ta), ("Tv", Tv)):
            m = self._mask[key]
            if np.any(m):
                out[..., m] = self._arrhenius(Tc)[..., m]
        return out, k_T

    def kf(self, T, Tv=None):
        """Forward rate constants, shape (..., n_reactions).

        ``Tv`` defaults to ``T`` (one-temperature chemistry).
        """
        return self._kf_kT(T, Tv)[0]

    def Kc(self, T, *, g0_rt=None):
        """Concentration equilibrium constants [(mol/m^3)^dnu], (..., nr).

        ``g0_rt``, the species' g0/RT at T (..., ns), is evaluated here
        unless the caller already has it.
        """
        T = np.asarray(T, dtype=float)
        if g0_rt is None:
            g0_rt = self.thermo.g0_over_RT(T)
        dG = np.einsum("rs,...s->...r", self.dnu, g0_rt)
        ln_kp = -dG
        # catlint: disable=CAT001 -- T > 0 by solver state sanitisation
        ln_kc = ln_kp + self._dnu_tot * np.log(
            P_STANDARD / (R * T))[..., None]
        return safe_exp(ln_kc)

    def kb(self, T, Tv=None):
        """Backward rate constants (..., nr) via detailed balance at T."""
        return self._arrhenius(np.asarray(T, dtype=float)) / self.Kc(T)

    # ------------------------------------------------------------------
    # production rates
    # ------------------------------------------------------------------

    def rates_of_progress(self, rho, T, y, Tv=None, *, g0_rt=None):
        """Net molar rates of progress q_r [mol/(m^3 s)], (..., nr).

        ``g0_rt`` is handed to :meth:`Kc`.
        """
        rho = np.asarray(rho, dtype=float)
        y = np.asarray(y, dtype=float)
        c = np.maximum(rho[..., None] * y / self.db.molar_mass, 0.0)
        kf, k_T = self._kf_kT(T, Tv)
        kb = k_T / self.Kc(T, g0_rt=g0_rt)
        # products of concentrations: exp(sum nu log c) with c=0 handled
        logc = np.log(np.maximum(c, 1e-300))
        # catlint: disable=CAT004 -- exponent = sum(nu log c) with nu <= 3
        # per side and physical c < 1e6 mol/m^3: bounded far below
        # overflow, and the exact underflow to 0 for trace species is
        # load-bearing (the zero mask below relies on it)
        Rf = kf * np.exp(np.einsum("rs,...s->...r", self.nu_r, logc))
        # catlint: disable=CAT004 -- same bound for the product side
        Rb = kb * np.exp(np.einsum("rs,...s->...r", self.nu_p, logc))
        # zero concentration kills the corresponding direction exactly
        zero = c <= 0.0
        if np.any(zero):
            rf_dead = np.einsum("rs,...s->...r", self.nu_r,
                                zero.astype(float)) > 0
            rb_dead = np.einsum("rs,...s->...r", self.nu_p,
                                zero.astype(float)) > 0
            Rf = np.where(rf_dead, 0.0, Rf)
            Rb = np.where(rb_dead, 0.0, Rb)
        q = Rf - Rb
        if np.any(self.is_tb):
            cm = np.einsum("rs,...s->...r", self.tb_eff, c)
            q = np.where(self.is_tb, q * cm, q)
        return q

    def wdot(self, rho, T, y, Tv=None, *, g0_rt=None):
        """Species mass production rates [kg/(m^3 s)], shape (..., ns).

        ``g0_rt`` is handed to :meth:`Kc`.
        """
        q = self.rates_of_progress(rho, T, y, Tv, g0_rt=g0_rt)
        return np.einsum("...r,rs->...s", q, self.dnu) * self.db.molar_mass

    def jacobian_y(self, rho, T, y, Tv=None, *, eps=1e-7):
        """d wdot / d y numerical Jacobian, shape (..., ns, ns).

        Used by the point-implicit source integrator; finite differences are
        adequate because the species axis is short.
        """
        y = np.asarray(y, dtype=float)
        base = self.wdot(rho, T, y, Tv)
        out = np.empty(base.shape + (self.db.n,), dtype=np.float64)
        for j in range(self.db.n):
            yp = y.copy()
            # perturbation floor keeps the step well above roundoff even
            # for zero-concentration species (otherwise the difference
            # quotient is pure noise amplified by 1/dy)
            dy = np.maximum(np.abs(y[..., j]) * eps, 1e-9)
            yp[..., j] = y[..., j] + dy
            out[..., j] = (self.wdot(rho, T, yp, Tv) - base) / dy[..., None]
        return out


# ---------------------------------------------------------------------------
# The Park air mechanism
# ---------------------------------------------------------------------------

#: Atomic colliders get enhanced dissociation efficiencies.
_ATOMS = ("N", "O", "H", "C")


def _eff(db: SpeciesDB, atom_factor: float, special: dict | None = None):
    eff = {}
    for sp in db.species:
        if sp.name in _ATOMS or (sp.n_atoms == 1 and sp.charge > 0):
            eff[sp.name] = atom_factor
    eff.update(special or {})
    return eff


def park_air_mechanism(db: SpeciesDB | str) -> ReactionMechanism:
    """Park (1990) air mechanism restricted to the species in ``db``.

    Works for the air5/air7/air9/air11 sets: every candidate reaction whose
    participants are all present is included.  Rate constants are the
    widely used Park values (CGS molar units in the literature table below).
    """
    db = db if isinstance(db, SpeciesDB) else species_set(db)
    cands: list[Reaction] = []

    def rx(eq, reac, prod, A, n, theta, **kw):
        names = set(reac) | set(prod)
        if all(name in db for name in names):
            cands.append(Reaction.from_cgs(eq, reac, prod, A, n, theta,
                                           **kw))

    # --- dissociation (Park Ta = sqrt(T Tv) control) ----------------------
    rx("N2 + M <=> N + N + M", {"N2": 1}, {"N": 2},
       7.0e21, -1.6, 113200.0, third_body=True,
       efficiencies=_eff(db, 30.0 / 7.0, {"e-": 1714.0}), rate_T="TTv")
    rx("O2 + M <=> O + O + M", {"O2": 1}, {"O": 2},
       2.0e21, -1.5, 59500.0, third_body=True,
       efficiencies=_eff(db, 5.0), rate_T="TTv")
    rx("NO + M <=> N + O + M", {"NO": 1}, {"N": 1, "O": 1},
       5.0e15, 0.0, 75500.0, third_body=True,
       efficiencies=_eff(db, 22.0, {"NO": 22.0}), rate_T="TTv")

    # --- Zeldovich exchange -------------------------------------------------
    rx("N2 + O <=> NO + N", {"N2": 1, "O": 1}, {"NO": 1, "N": 1},
       6.4e17, -1.0, 38370.0)
    rx("NO + O <=> O2 + N", {"NO": 1, "O": 1}, {"O2": 1, "N": 1},
       8.4e12, 0.0, 19450.0)

    # --- associative ionization ---------------------------------------------
    rx("N + O <=> NO+ + e-", {"N": 1, "O": 1}, {"NO+": 1, "e-": 1},
       8.8e8, 1.0, 31900.0)
    rx("N + N <=> N2+ + e-", {"N": 2}, {"N2+": 1, "e-": 1},
       4.4e7, 1.5, 67500.0)
    rx("O + O <=> O2+ + e-", {"O": 2}, {"O2+": 1, "e-": 1},
       7.1e2, 2.7, 80600.0)

    # --- electron-impact ionization (controlled by Te ~ Tv) ----------------
    rx("N + e- <=> N+ + e- + e-", {"N": 1, "e-": 1}, {"N+": 1, "e-": 2},
       2.5e34, -3.82, 168600.0, rate_T="Tv")
    rx("O + e- <=> O+ + e- + e-", {"O": 1, "e-": 1}, {"O+": 1, "e-": 2},
       3.9e33, -3.78, 158500.0, rate_T="Tv")

    # --- charge exchange -----------------------------------------------------
    rx("NO+ + O <=> N+ + O2", {"NO+": 1, "O": 1}, {"N+": 1, "O2": 1},
       1.0e12, 0.5, 77200.0)
    rx("N2 + N+ <=> N2+ + N", {"N2": 1, "N+": 1}, {"N2+": 1, "N": 1},
       1.0e12, 0.5, 12200.0)
    rx("NO+ + N <=> N2+ + O", {"NO+": 1, "N": 1}, {"N2+": 1, "O": 1},
       7.2e13, 0.0, 35500.0)
    rx("O+ + N2 <=> N2+ + O", {"O+": 1, "N2": 1}, {"N2+": 1, "O": 1},
       9.1e11, 0.36, 22800.0)
    rx("NO+ + O2 <=> O2+ + NO", {"NO+": 1, "O2": 1}, {"O2+": 1, "NO": 1},
       2.4e13, 0.41, 32600.0)

    return ReactionMechanism(db, cands)
