"""Axisymmetric Euler solver with finite-rate (nonequilibrium) chemistry.

"A review of the status of CAT clearly shows that one of the biggest
challenges is understanding how to couple nonequilibrium phenomena to
three-dimensional flowfield codes" — this solver is that coupling at the
Gnoffo/McCandless/Li (Refs. 27-28) level for axisymmetric blunt bodies:

* conserved state per cell: ``[rho, rho u, rho v, rho E, rho Y_1..Y_ns]``
  with the energy on the heat-of-formation basis (so chemical reactions
  conserve total energy identically and dissociation shows up as a
  temperature drop),
* upwind flux: HLLE on the bulk variables, species carried by the
  upwinded interface mass flux (consistent: species fluxes sum to the
  mass flux),
* chemistry: operator-split point-implicit sub-step per cell (the
  paper's "loosely coupled ... typically implicit numerical technique"),
* temperature from (e, Y) by batched Newton with the previous field as
  the warm start.

The classic validation (in tests/benchmarks): the nonequilibrium shock
standoff lies *between* the frozen (ideal-gas) and equilibrium limits and
moves toward equilibrium as the density (Damkohler number) rises.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InputError
from repro.grid.structured import StructuredGrid2D
from repro.numerics.fluxes import (component_last, component_rows,
                                   rotate_from_normal, rotate_to_normal)
from repro.numerics.implicit import point_implicit_species_update
from repro.numerics.limiters import minmod
from repro.solvers.euler2d import AxisymmetricEulerSolver
from repro.thermo.kinetics import ReactionMechanism, park_air_mechanism
from repro.thermo.mixture import MixtureThermo
from repro.thermo.species import SpeciesDB, species_set

__all__ = ["ReactingEulerSolver"]


class _FrozenMixtureEOS:
    """Adapter: (rho, e) -> (p, a, T, gamma) at a frozen composition
    snapshot.

    The HLLE flux needs an EOS; during one residual evaluation the
    composition field is frozen, so the adapter carries the current mass
    fractions and warm-start temperatures.
    """

    def __init__(self, mix: MixtureThermo):
        self.mix = mix
        self.y = None          # (..., ns) snapshot
        self.T_guess = None

    def bind(self, y, T_guess):
        self.y = y
        self.T_guess = T_guess

    def _temperature(self, e):
        # energies live on the heat-of-formation basis, so the physical
        # floor depends on composition: e >= sum(y hf0) plus a little
        # thermal content (~30 K).  MUSCL transients during impulsive
        # starts can hand the flux states below it; clamp rather than let
        # the Newton inversion chase a temperature that does not exist.
        hf = np.sum(self.y * self.mix.db.hf0_mass, axis=-1)
        e_eff = np.maximum(np.asarray(e, float), hf + 3.0e4)
        return self.mix.T_from_e(e_eff, self.y, T_guess=self.T_guess)

    def p_a_T(self, rho, e):
        """(p, frozen a, T, frozen gamma) from one temperature
        inversion."""
        T = self._temperature(e)
        gamma = self.mix.gamma_frozen(T, self.y)
        a = self.mix.sound_speed_frozen(T, self.y, gamma)
        return self.mix.pressure(rho, T, self.y), a, T, gamma


class ReactingEulerSolver(AxisymmetricEulerSolver):
    """Finite-rate blunt-body solver (i: surface, j: normal grid).

    The finite-volume frame is the Euler solver's; this class plugs in
    the species decode, the face flux, the energy floor and the
    chemistry sub-step.

    Parameters
    ----------
    grid:
        Body-fitted grid (see :mod:`repro.grid.algebraic`).
    db, mechanism:
        Species set and reaction mechanism (default: 5-species Park air).
    order:
        MUSCL order for the bulk variables.
    chemistry_model:
        Chemistry model: ``"two_temperature"``
        (Park Ta = sqrt(T Tv) dissociation control with an operator-split
        Landau-Teller-relaxed vibrational-electronic pool),
        ``"finite_rate"`` (default, single-temperature kinetics) or
        ``"frozen"`` (no chemistry).
    """

    #: The ``chemistry_model`` values, highest fidelity first.
    PHYSICS_LADDER = ("two_temperature", "finite_rate", "frozen")

    def __init__(self, grid: StructuredGrid2D, db: SpeciesDB | str = "air5",
                 mechanism: ReactionMechanism | None = None, *,
                 order: int = 2, limiter=minmod,
                 chemistry_model: str = "finite_rate"):
        self.db = db if isinstance(db, SpeciesDB) else species_set(db)
        self.mech = mechanism or park_air_mechanism(self.db)
        self.mix = MixtureThermo(self.db)
        super().__init__(grid, _FrozenMixtureEOS(self.mix), order=order,
                         limiter=limiter)
        self.ns = self.db.n
        self.nv = 4 + self.ns
        if chemistry_model not in self.PHYSICS_LADDER:
            raise InputError(f"chemistry_model must be one of "
                             f"{self.PHYSICS_LADDER}")
        self.chemistry_model = chemistry_model
        self.ttg = None
        if chemistry_model == "two_temperature":
            from repro.thermo.two_temperature import TwoTemperatureGas
            self.ttg = TwoTemperatureGas(self.db, self.mech)
        self.T = None
        #: Vibrational-electronic pool [J/kg] and its temperature
        #: (two-temperature model only, else None).
        self.ev = None
        self.Tv = None

    _error_label = "reacting euler2d"

    @property
    def state_layout(self):
        """Layout for repro.resilience guards: energy at index 3 (the
        trailing components are rho Y_s, labelled by species name in
        localized errors), and no internal-energy floor — the energy
        lives on the heat-of-formation basis."""
        return {"energy_index": 3, "momentum_indices": (1, 2),
                "e_min": None, "species_names": self.db.names}

    # ------------------------------------------------------------------
    # resilience protocol
    # ------------------------------------------------------------------

    def get_state(self):
        """Restorable marching state (see repro.resilience).

        Complete for durable restarts: the temperature field is the
        Newton warm start, so replays stay bit-identical.
        """
        state = {"U": self.U.copy(), "steps": self.steps,
                 "T": None if self.T is None else self.T.copy(),
                 "U_inf": (None if self.U_inf is None
                           else self.U_inf.copy()),
                 "residual_history": list(self.residual_history)}
        if self.ev is not None:
            state["ev"] = self.ev.copy()
            state["Tv"] = None if self.Tv is None else self.Tv.copy()
        return state

    def set_state(self, state):
        self.U = state["U"]
        self.steps = state["steps"]
        self.T = state["T"]
        if "U_inf" in state and state["U_inf"] is not None:
            self.U_inf = state["U_inf"]
        if "ev" in state:
            self.ev = state["ev"]
            self.Tv = state.get("Tv")
        self.residual_history = state["residual_history"]

    def persist_config(self):
        """JSON-able constructor fingerprint (durable checkpoints).

        The mechanism fingerprints through its class and reaction count,
        so resuming a directory marched with another mechanism is
        refused.
        """
        return {"order": int(self.order),
                "limiter": self.limiter.__name__,
                "db": list(self.db.names),
                "mechanism": {"class": type(self.mech).__name__,
                              "n_reactions": len(self.mech.reactions)},
                "chemistry_model": self.chemistry_model,
                "grid": [int(self.grid.ni), int(self.grid.nj)]}

    # ------------------------------------------------------------------

    def set_freestream(self, rho, u_x, T, y):
        """Uniform x-directed freestream at (rho, T, mass fractions y)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.ns,):
            raise InputError(f"y must have {self.ns} entries")
        e = float(self.mix.e_mass(np.array(T), y))
        E = e + 0.5 * u_x**2
        self.U_inf = np.concatenate([[rho, rho * u_x, 0.0, rho * E],
                                     rho * y])
        ni, nj = self.grid.ni, self.grid.nj
        self.U = np.broadcast_to(self.U_inf, (ni, nj, self.nv)).copy()
        self.T = np.full((ni, nj), float(T), dtype=np.float64)
        if self.ttg is not None:
            # two-temperature start: pool in equilibrium with T
            ev0 = float(self.ttg.e_vib_el(np.array(float(T)), y))
            self.ev = np.full((ni, nj), ev0, dtype=np.float64)
            self.Tv = np.full((ni, nj), float(T), dtype=np.float64)
        self.steps = 0
        return self

    # ------------------------------------------------------------------
    # watchdog hooks
    # ------------------------------------------------------------------

    def species_mass_fractions(self):
        """Raw (unclipped, unnormalised) mass fractions for auditing."""
        if self.U is None:
            return None
        return self.U[..., 4:] / np.maximum(self.U[..., 0:1], 1e-300)

    def conservation_totals(self):
        """Global mass, energy and element-mole totals (per radian)."""
        totals = super().conservation_totals()
        # element moles: comp_matrix @ (species partial moles); chemistry
        # must conserve every row exactly
        c = self.U[..., 4:] / self.db.molar_mass          # mol/m^3
        per_species = np.sum(c * self.vol[..., None], axis=(0, 1))
        for name, tot in zip(self.db.constraints,
                             self.db.comp_matrix @ per_species):
            totals[f"element:{name}"] = float(tot)
        return totals

    def total_entropy(self):
        """Global entropy functional ``sum(rho s vol)`` from the cached
        temperature field (None before the first residual evaluation)."""
        if self.T is None or self.U is None:
            return None
        rho = np.maximum(self.U[..., 0], 1e-300)
        y = np.clip(self.U[..., 4:] / rho[..., None], 0.0, 1.0)
        y = y / np.maximum(np.sum(y, axis=-1, keepdims=True), 1e-300)
        p = self.mix.pressure(rho, self.T, y)
        s = self.mix.s_mass(self.T, p, y)
        return float(np.sum(rho * s * self.vol))

    # ------------------------------------------------------------------

    def _decode(self, U):
        """The base decode's primitives plus mass fractions ``y``, with
        T from (e, y) warm-started at the last residual's field."""
        rho = np.maximum(U[..., 0], 1e-300)
        u = U[..., 1] / rho
        v = U[..., 2] / rho
        y = np.clip(U[..., 4:] / rho[..., None], 0.0, 1.0)
        y = y / np.sum(y, axis=-1, keepdims=True)
        hf = np.sum(y * self.db.hf0_mass, axis=-1)
        e = np.maximum(U[..., 3] / rho - 0.5 * (u * u + v * v),
                       hf + 3e4)
        T_guess = self.T if (self.T is not None
                             and self.T.shape == rho.shape) else None
        T = self.mix.T_from_e(e, y, T_guess=T_guess)
        p = self.mix.pressure(rho, T, y)
        a = self.mix.sound_speed_frozen(T, y)
        return {"rho": rho, "vel": (u, v), "y": y, "e": e, "T": T,
                "p": p, "a": a}

    def _face_flux(self, UL, UR, nx, ny):
        """HLLE on the bulk + upwinded species transport."""
        # rotate bulk momentum to the face frame
        WL = rotate_to_normal(UL[..., :4], nx, ny)
        WR = rotate_to_normal(UR[..., :4], nx, ny)
        # bind the face composition (Roe-ish average is unnecessary for
        # the wavespeed bounds; use the mean)
        yL = np.clip(UL[..., 4:] / np.maximum(UL[..., 0:1], 1e-300), 0, 1)
        yR = np.clip(UR[..., 4:] / np.maximum(UR[..., 0:1], 1e-300), 0, 1)
        # species-last memory: NumPy's pairwise sum then adds the species
        # in one order whatever the layout of the face states (past 8
        # terms a reduction over a strided axis would reorder them)
        y_mean = np.ascontiguousarray(0.5 * (yL + yR))
        self.eos.bind(y_mean / np.maximum(np.sum(y_mean, axis=-1,
                                                 keepdims=True), 1e-300),
                      None)
        Fb = self._flux(WL, WR)
        F = np.empty((self.nv,) + Fb.shape[:-1], dtype=np.float64)
        F[:4] = component_rows(rotate_from_normal(Fb, nx, ny))
        mdot = Fb[..., 0]
        F[4:] = mdot * component_rows(np.where((mdot > 0.0)[..., None],
                                               yL, yR))
        return component_last(F)

    def _residual_rows(self, U, w):
        """The base rows; ``w["T"]`` warm-starts the next decode."""
        self.T = w["T"]
        return super()._residual_rows(U, w)

    # ------------------------------------------------------------------

    def _update_vibrational_pool(self, w, dt):
        """Operator-split relaxation of the vibrational-electronic pool.

        Landau-Teller + chemistry sources drive ``ev`` toward the
        equilibrium pool energy at T; the update is clipped to never
        overshoot equilibrium, which makes it unconditionally stable
        regardless of how stiff the local relaxation time is.  Returns
        the updated Tv field.
        """
        T, y, rho = w["T"], w["y"], w["rho"]
        # the Newton hands ``sources`` its e_v,s(Tv), and ``sources``
        # leaves the e_v,s(T) of its one pass at T for ev_eq
        pool = {}
        Tv = self.ttg.Tv_from_ev(self.ev, y, Tv_guess=self.Tv, pool=pool)
        q = self.ttg.sources(rho, T, Tv, y, pool=pool)[1]
        ev_eq = np.add.reduce(y * pool["T"], axis=-1)
        lo = np.minimum(self.ev, ev_eq)
        hi = np.maximum(self.ev, ev_eq)
        self.ev = np.clip(self.ev + dt * q / rho, lo, hi)
        self.Tv = self.ttg.Tv_from_ev(self.ev, y, Tv_guess=Tv)
        return self.Tv

    def step(self, cfl=0.35, *, chemistry=True):
        """One forward-Euler flow step + point-implicit chemistry split.

        The chemistry sub-step follows ``chemistry_model``:
        ``two_temperature`` drives rates with the relaxed Tv pool,
        ``finite_rate`` uses single-temperature kinetics, and ``frozen``
        skips the composition update entirely.

        Returns the relative density-update residual (as the Euler
        solver does), so steady marches can monitor convergence.
        """
        R, dt = self._update(cfl)
        if chemistry and self.chemistry_model != "frozen":
            w = self._decode(self.U)
            self.T = w["T"]
            Tv = (None if self.ev is None
                  else self._update_vibrational_pool(w, dt))
            y_new = point_implicit_species_update(
                self.mech, w["rho"], w["T"], w["y"], dt, Tv=Tv)
            # total energy invariant on the formation basis: only the
            # species partition changes
            self.U[..., 4:] = w["rho"][..., None] * y_new
        return self._record_step(R, dt)

    def _energy_floor(self, U):
        """Heat of formation plus ~30 K of thermal energy per volume;
        clips negative partial densities to zero first (in place)."""
        np.clip(U[..., 4:], 0.0, None, out=U[..., 4:])
        y = U[..., 4:] / np.maximum(
            np.sum(U[..., 4:], axis=-1, keepdims=True), 1e-300)
        hf = np.sum(y * self.db.hf0_mass, axis=-1)
        return U[..., 0] * (hf + 3e4)

    def run(self, *, n_steps=2000, cfl=0.35, chemistry=True, tol=None,
            resilience=None, faults=None, persist=None, watchdog=None):
        """March ``n_steps`` (or to ``tol`` when given);
        :class:`~repro.resilience.RunSupervisor` documents the rest."""
        from repro.resilience import RunSupervisor
        if self.U is None:
            raise InputError("call set_freestream first")
        RunSupervisor(self, resilience, faults=faults,
                      label="reacting_euler2d", persist=persist,
                      watchdog=watchdog).march(
            lambda c: self.step(c, chemistry=chemistry),
            n_steps=n_steps, cfl=cfl, tol=tol)
        return self

    # ------------------------------------------------------------------

    def fields(self):
        """Cell primitives, mass fractions ``y``, centres ``x``/``y_coord``."""
        w = self._decode(self.U)
        w["u"], w["v"] = w.pop("vel")
        w["x"] = self.grid.xc
        w["y_coord"] = self.grid.yc
        return w
