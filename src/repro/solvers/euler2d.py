"""Axisymmetric time-marching Euler solver (shock capturing).

The "E" of the paper's E+BL method and the inviscid core of the NS codes:
a cell-centred finite-volume scheme on the body-fitted blunt-body grid,
MUSCL + HLLE upwinding (the bow shock is captured, per Ref. 26), explicit
local-time-step marching "in a time-like manner until a steady state is
asymptotically achieved".

Axisymmetric formulation (per radian about the x axis, y = radial
coordinate): volumes and face normals are radius weighted, and the hoop
pressure appears as the radial-momentum source ``p * A_cell``.

Works with any :class:`~repro.core.gas.GasEOS` — the ideal gas for the
classical mode, the tabulated equilibrium-air EOS for the real-gas mode
(that pairing is the Fig. 4 experiment).
"""

from __future__ import annotations

import numpy as np

from repro.core.gas import GasEOS, IdealGasEOS, eos_spec
from repro.errors import InputError, StabilityError
from repro.grid.structured import StructuredGrid2D
from repro.numerics.fluxes import (component_last, component_rows,
                                   hlle_flux, primitives,
                                   rotate_from_normal, rotate_to_normal)
from repro.numerics.limiters import minmod
from repro.numerics.muscl import muscl_interface_states
from repro.numerics.time_integration import component_name
from repro.numerics.upwind import steger_warming_flux, van_leer_flux

__all__ = ["AxisymmetricEulerSolver"]


class AxisymmetricEulerSolver:
    """Blunt-body Euler solver on a body-fitted (i: surface, j: normal)
    grid.

    Boundary conventions:

    * i = 0: symmetry axis (upstream stagnation ray),
    * i = ni: supersonic outflow (extrapolation),
    * j = 0: body surface (slip wall),
    * j = nj: freestream inflow (Dirichlet).
    """

    def __init__(self, grid: StructuredGrid2D, eos: GasEOS | None = None,
                 *, order: int = 2, limiter=minmod, flux: str = "hlle"):
        self.grid = grid
        self.eos = eos if eos is not None else IdealGasEOS(1.4)
        self.order = order
        self.limiter = limiter
        if flux == "hlle":
            self._flux = lambda UL, UR: hlle_flux(UL, UR, self.eos)
        elif flux in ("steger_warming", "van_leer"):
            # FVS schemes are ideal-gas algebra; real-gas runs use HLLE
            if not isinstance(self.eos, IdealGasEOS):
                raise InputError(f"flux {flux!r} requires an ideal-gas "
                                 f"EOS; use 'hlle' for real gas")
            fn = (steger_warming_flux if flux == "steger_warming"
                  else van_leer_flux)
            gamma = self.eos.gamma
            self._flux = lambda UL, UR: fn(UL, UR, gamma)
        else:
            raise InputError(f"unknown flux {flux!r}")
        self.flux_name = flux
        self.vol = grid.axisymmetric_volumes()
        # radius-weighted face normals (the NS viscous fluxes read them
        # too), their unit normals and radius-weighted areas; the normals
        # are stored as (2, ...) component rows, as the residual uses them
        n_i, n_j = grid.axisymmetric_face_metrics()
        self.area_i = np.linalg.norm(n_i, axis=-1)
        self.area_j = np.linalg.norm(n_j, axis=-1)
        self.normal_i = np.ascontiguousarray(component_rows(n_i))
        self.normal_j = np.ascontiguousarray(component_rows(n_j))
        with np.errstate(invalid="ignore", divide="ignore"):
            self.nhat_i = self.normal_i / np.maximum(self.area_i, 1e-300)
            self.nhat_j = self.normal_j / np.maximum(self.area_j, 1e-300)
        # plane-geometry face normals for wall ghost mirroring
        self.wall_normal = grid.n_j[:, 0, :] / np.maximum(
            np.linalg.norm(grid.n_j[:, 0, :], axis=-1), 1e-300)[:, None]
        self.U = None
        self.U_inf = None
        self.t = 0.0
        self.steps = 0
        self.converged = False
        self.residual_history: list[float] = []

    #: Blunt-body domains exchange mass/energy through the inflow and
    #: outflow boundaries, so global budgets are not invariants here and
    #: the watchdog skips them (species/entropy audits still apply).
    closed_domain = False

    #: Names the solver in its non-finite-state errors.
    _error_label = "euler2d"

    # ------------------------------------------------------------------
    # resilience protocol
    # ------------------------------------------------------------------

    def conservation_totals(self):
        """Global totals (per radian): diagnostics, audited only on
        closed domains."""
        return {"mass": float(np.sum(self.U[..., 0] * self.vol)),
                "energy": float(np.sum(self.U[..., 3] * self.vol))}

    def total_entropy(self):
        """Global entropy functional ``sum(rho s vol)`` with the
        ideal-gas ``s = ln(p) - gamma ln(rho)``; None for non-ideal
        EOS."""
        gamma = getattr(self.eos, "gamma", None)
        if gamma is None:
            return None
        w = primitives(self.U, self.eos)
        s = np.log(np.maximum(w["p"], 1e-300)) \
            - gamma * np.log(np.maximum(w["rho"], 1e-300))
        return float(np.sum(w["rho"] * s * self.vol))

    def get_state(self):
        """Restorable marching state (see repro.resilience), freestream
        vector included."""
        return {"U": self.U.copy(), "t": self.t, "steps": self.steps,
                "U_inf": None if self.U_inf is None else self.U_inf.copy(),
                "residual_history": list(self.residual_history)}

    def set_state(self, state):
        self.U = state["U"]
        self.t = state["t"]
        self.steps = state["steps"]
        if "U_inf" in state and state["U_inf"] is not None:
            self.U_inf = state["U_inf"]
        self.residual_history = state["residual_history"]

    def persist_config(self):
        """JSON-able constructor fingerprint (durable checkpoints)."""
        return {"flux": self.flux_name, "order": int(self.order),
                "limiter": self.limiter.__name__,
                "grid": [int(self.grid.ni), int(self.grid.nj)],
                "eos": eos_spec(self.eos)}

    # ------------------------------------------------------------------

    def set_freestream(self, rho, u_x, p):
        """Initialise the whole field to a uniform x-directed freestream."""
        e = self.eos.e_from_p_rho(p, rho)
        self.U_inf = np.array([rho, rho * u_x, 0.0,
                               rho * (e + 0.5 * u_x**2)])
        ni, nj = self.grid.ni, self.grid.nj
        self.U = np.broadcast_to(self.U_inf, (ni, nj, 4)).copy()
        self.t = 0.0
        self.steps = 0
        self.residual_history = []
        return self

    # ------------------------------------------------------------------
    # ghost construction
    # ------------------------------------------------------------------

    def _pad_i(self, U):
        """Ghosts along i: axis mirror at i=0, extrapolation at i=ni.

        The padded states live in component-first memory; the (ni+4, nj,
        nv) view over it is returned, as for :meth:`_pad_j`."""
        nv = U.shape[-1]
        g = np.empty((nv, U.shape[0] + 4) + U.shape[1:-1], dtype=np.float64)
        Ur = component_rows(U)
        g[:, 2:-2] = Ur
        # axis symmetry: mirror with radial momentum flipped
        flip = np.ones((nv, 1), dtype=np.float64)
        flip[2] = -1.0
        g[:, 1] = Ur[:, 0] * flip
        g[:, 0] = Ur[:, 1] * flip
        g[:, -2] = Ur[:, -1]
        g[:, -1] = Ur[:, -1]
        return component_last(g)

    def _pad_j(self, U):
        """Ghosts along j: :meth:`_wall_ghosts` at j=0, freestream at
        j=nj."""
        nv = U.shape[-1]
        g = np.empty((nv, U.shape[0], U.shape[1] + 4), dtype=np.float64)
        g[:, :, 2:-2] = component_rows(U)
        # ghost row 1 mirrors cell row 0, ghost row 0 cell row 1
        g[:, :, 1::-1] = component_rows(self._wall_ghosts(U[:, :2]))
        g[:, :, -2:] = self.U_inf[:, None, None]
        return component_last(g)

    def _wall_ghosts(self, Uw):
        """Slip wall: the two wall-adjacent cell rows ``Uw`` (ni, 2, 4)
        with the velocity mirrored about the wall tangent plane."""
        Uw = Uw.copy()
        n = self.wall_normal[:, None]
        mn = Uw[..., 1] * n[..., 0] + Uw[..., 2] * n[..., 1]
        Uw[..., 1] -= 2.0 * mn * n[..., 0]
        Uw[..., 2] -= 2.0 * mn * n[..., 1]
        return Uw

    # ------------------------------------------------------------------
    # residual
    # ------------------------------------------------------------------

    def _decode(self, U):
        """Cell primitives of ``U`` (the :func:`primitives` dict)."""
        return primitives(U, self.eos)

    def _face_flux(self, UL, UR, nx, ny):
        """Face flux along unit normals (nx, ny), solved in the face frame."""
        return rotate_from_normal(
            self._flux(rotate_to_normal(UL, nx, ny),
                       rotate_to_normal(UR, nx, ny)), nx, ny)

    def residual(self, U, w=None):
        """dU/dt per cell (axisymmetric FV with hoop-pressure source);
        ``w`` is ``_decode(U)`` when the caller has it already."""
        if w is None:
            w = self._decode(U)
        return component_last(self._residual_rows(U, w))

    def _residual_rows(self, U, w):
        """:meth:`residual` as (nv, ni, nj) component rows.

        The padded states, the face states and fluxes and the divergence
        all live in component-first memory, so each component is one
        contiguous row; the kernels see component-last views of it."""
        # ---- i-direction fluxes ----
        UL, UR = muscl_interface_states(self._pad_i(U), axis=0,
                                        order=self.order,
                                        limiter=self.limiter)
        F_i = component_rows(self._face_flux(      # (nv, ni+1, nj) faces
            UL[1:-1], UR[1:-1], self.nhat_i[0], self.nhat_i[1]))
        F_i = F_i * self.area_i
        # ---- j-direction fluxes ----
        VL, VR = muscl_interface_states(self._pad_j(U), axis=1,
                                        order=self.order,
                                        limiter=self.limiter)
        F_j = component_rows(self._face_flux(      # (nv, ni, nj+1)
            VL[:, 1:-1], VR[:, 1:-1], self.nhat_j[0], self.nhat_j[1]))
        F_j = F_j * self.area_j
        # ---- divergence + axisymmetric source ----
        div = (F_i[:, 1:] - F_i[:, :-1]) + (F_j[:, :, 1:] - F_j[:, :, :-1])
        R = -div / self.vol
        R[2] += w["p"] * self.grid.area / self.vol
        return R

    # ------------------------------------------------------------------
    # time marching
    # ------------------------------------------------------------------

    def local_timestep(self, cfl, w=None):
        """Per-cell explicit timestep from the inscribed length scale;
        ``w`` as for :meth:`residual`, of ``self.U``."""
        if w is None:
            w = self._decode(self.U)
        speed = np.hypot(w["vel"][0], w["vel"][1]) + w["a"]
        return cfl * self.grid.min_cell_size() / speed

    def step(self, cfl=0.4):
        """One local-time-step forward-Euler update (steady-state mode);
        returns the relative density-update residual."""
        return self._record_step(*self._update(cfl))

    def _update(self, cfl):
        """Sanitised forward-Euler update of ``self.U`` -> (R, dt); the
        state is decoded once for both the timestep and the residual."""
        w = self._decode(self.U)
        dt = self.local_timestep(cfl, w)
        R = self.residual(self.U, w)
        self.U = self.U + dt[..., None] * R
        self._sanitise()
        return R, dt

    def _record_step(self, R, dt):
        """Count the step and log its relative density-update residual."""
        self.steps += 1
        # catlint: disable=CAT002 -- mean of squares is >= 0
        rho_res = float(np.sqrt(np.mean((R[..., 0] * dt) ** 2))
                        / max(float(np.mean(self.U[..., 0])), 1e-300))
        self.residual_history.append(rho_res)
        return rho_res

    def _sanitise(self):
        """Clip transient negative density/energy during shock formation."""
        U = self.U
        if not np.all(np.isfinite(U)):
            first = tuple(int(i) for i in np.argwhere(~np.isfinite(U))[0])
            layout = getattr(self, "state_layout", None) or {}
            comp = component_name(first[-1], U.shape[-1], energy_index=3,
                                  species_names=layout.get("species_names"))
            raise StabilityError(
                f"{self._error_label}: non-finite state at cell "
                f"{first[:-1]}, component {comp}",
                step=self.steps, cell=first[:-1], component=comp,
                value=float(U[first]))
        rho_floor = 1e-6 * float(self.U_inf[0])
        bad = U[..., 0] < rho_floor
        if np.any(bad):
            U[bad, :] = self.U_inf
        # energy floor: keep internal energy positive
        rho = U[..., 0]
        ke = 0.5 * (U[..., 1] ** 2 + U[..., 2] ** 2) / rho
        U[..., 3] = np.maximum(U[..., 3], ke + self._energy_floor(U))

    def _energy_floor(self, U):
        """Least internal energy per volume :meth:`_sanitise` leaves."""
        return 1e-8 * float(self.U_inf[3])

    def run(self, *, n_steps=4000, cfl=0.4, tol=1e-8, resilience=None,
            faults=None, persist=None, watchdog=None):
        """March up to ``n_steps`` until the residual drops below ``tol``;
        :class:`~repro.resilience.RunSupervisor` documents the rest."""
        from repro.resilience import RunSupervisor
        if self.U is None:
            raise InputError("call set_freestream first")
        RunSupervisor(self, resilience, faults=faults,
                      label=type(self).__name__, persist=persist,
                      watchdog=watchdog).march(
            self.step, n_steps=n_steps, cfl=cfl, tol=tol)
        return self

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def fields(self):
        """Primitive fields at cell centres (dict of (ni, nj) arrays)."""
        w = primitives(self.U, self.eos)
        return {"rho": w["rho"], "u": w["vel"][0], "v": w["vel"][1],
                "p": w["p"], "e": w["e"], "a": w["a"], "T": w["T"],
                "x": self.grid.xc, "y": self.grid.yc}

    def shock_location(self, *, threshold=1.5):
        """Bow-shock position along each i-ray.

        Detected as the outermost cell where density exceeds
        ``threshold`` x freestream.  Returns (x_shock, y_shock) arrays
        (NaN where no shock is found on a ray).
        """
        rho_inf = float(self.U_inf[0])
        mask = self.fields()["rho"] > threshold * rho_inf
        ni, nj = mask.shape
        # outermost exceeding cell per ray: argmax of the reversed mask
        j_shock = nj - 1 - np.argmax(mask[:, ::-1], axis=1)
        has_shock = mask.any(axis=1)
        rays = np.arange(ni)
        xs = np.where(has_shock, self.grid.xc[rays, j_shock], np.nan)
        ys = np.where(has_shock, self.grid.yc[rays, j_shock], np.nan)
        return xs, ys

    def stagnation_standoff(self):
        """Shock standoff distance along the stagnation ray [m]."""
        xs, _ = self.shock_location()
        if np.isnan(xs[0]):
            raise StabilityError("no shock detected on the stagnation ray")
        # body nose is at x(i=0, j=0) wall node
        x_nose = self.grid.x[0, 0]
        return float(x_nose - xs[0])

    def surface_pressure(self):
        """Wall-adjacent cell pressure along the body, with arc positions."""
        return (self.grid.xc[:, 0], self.grid.yc[:, 0],
                self.fields()["p"][:, 0])
