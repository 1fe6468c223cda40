"""Axisymmetric Navier–Stokes solver (paper's NS "approach #2").

Extends the shock-capturing Euler solver with laminar viscous fluxes:
Green–Gauss cell gradients, face-averaged stresses with a directional
correction against odd-even decoupling, Fourier heat conduction, and
no-slip isothermal/adiabatic walls.  Molecular viscosity follows
Sutherland's law in both gas modes (for equilibrium air this is the
documented engineering approximation; the full multicomponent model lives
in :mod:`repro.transport` and feeds the BL/VSL solvers where diffusion
matters most).

The axisymmetric viscous hoop terms are neglected (thin-layer-class
approximation, standard for blunt-body heating at these Reynolds numbers);
the energy-balance consequences are quantified against the boundary-layer
solver in the validation tests.

Resilience: the solver inherits the Euler solver's supervised marching —
``run(resilience=..., faults=...)`` checkpoints the state, guards every
step and rolls back with CFL backoff on :class:`StabilityError` (see
:mod:`repro.resilience`); the viscous timestep limit shrinks with the
convective one under backoff, so the retry ladder covers both stiffness
sources.
"""

from __future__ import annotations

import numpy as np

from repro.core.gas import GasEOS
from repro.errors import InputError
from repro.grid.structured import StructuredGrid2D
from repro.numerics.fluxes import primitives
from repro.solvers.euler2d import AxisymmetricEulerSolver
from repro.transport.viscosity import sutherland_viscosity

__all__ = ["AxisymmetricNSSolver"]


class AxisymmetricNSSolver(AxisymmetricEulerSolver):
    """No-slip viscous blunt-body solver.

    Parameters
    ----------
    grid, eos, order, limiter:
        As for the Euler solver.
    T_wall:
        Isothermal wall temperature [K]; ``None`` for an adiabatic wall.
    prandtl:
        Constant Prandtl number closing the conductivity.
    """

    def __init__(self, grid: StructuredGrid2D, eos: GasEOS | None = None,
                 *, T_wall: float | None = 300.0, prandtl: float = 0.72,
                 order: int = 2, limiter=None):
        kwargs = {"order": order}
        if limiter is not None:
            kwargs["limiter"] = limiter
        super().__init__(grid, eos, **kwargs)
        self.T_wall = T_wall
        self.prandtl = prandtl
        # offsets between j-adjacent cell centroids and their squared
        # lengths (for the directional gradient correction)
        self._d_j = np.stack([np.diff(grid.xc, axis=1),
                              np.diff(grid.yc, axis=1)], axis=-1)
        self._dist2_j = np.maximum(np.sum(self._d_j * self._d_j, axis=-1),
                                   1e-300)

    # ------------------------------------------------------------------
    # persistence protocol (durable checkpoints)
    # ------------------------------------------------------------------

    def persist_config(self):
        cfg = super().persist_config()
        cfg["T_wall"] = (None if self.T_wall is None
                         else float(self.T_wall))
        cfg["prandtl"] = float(self.prandtl)
        return cfg

    # ------------------------------------------------------------------
    # wall ghost states: no-slip + thermal condition
    # ------------------------------------------------------------------

    def _wall_ghosts(self, Uw):
        """No-slip wall: velocity reversed; with ``T_wall`` the ghost
        internal energy makes the face T average to T_wall.

        That energy is linearised about the interior e with a
        finite-difference cv, so one EOS call gives T at e and e + de
        for both rows."""
        g = Uw.copy()
        g[..., 1:3] = -g[..., 1:3]
        if self.T_wall is None:
            return g
        rho = Uw[..., 0]
        ke = 0.5 * (g[..., 1] ** 2 + g[..., 2] ** 2) / rho
        e_in = Uw[..., 3] / rho \
            - 0.5 * (Uw[..., 1] ** 2 + Uw[..., 2] ** 2) / rho ** 2
        de = np.maximum(0.01 * e_in, 10.0)
        T_in, T_de = self.eos.temperature(np.stack([rho, rho]),
                                          np.stack([e_in, e_in + de]))
        T_ghost = np.maximum(2.0 * self.T_wall - T_in, 0.1 * self.T_wall)
        cv = de / np.maximum(T_de - T_in, 1e-3)
        g[..., 3] = rho * (np.maximum(e_in + cv * (T_ghost - T_in), 1e3)
                           + ke)
        return g

    # ------------------------------------------------------------------
    # viscous fluxes
    # ------------------------------------------------------------------

    def _cell_gradients(self, phi):
        """Green-Gauss gradient of a cell field (ni, nj) -> (ni, nj, 2).

        Boundary faces use the ghost-free one-sided closure (copy cell
        value), which is first order at boundaries and second elsewhere.
        """
        g = self.grid
        # face values by averaging (interior), cell value at boundaries
        f_i = np.empty((g.ni + 1, g.nj), dtype=np.float64)
        f_i[1:-1] = 0.5 * (phi[1:] + phi[:-1])
        f_i[0] = phi[0]
        f_i[-1] = phi[-1]
        f_j = np.empty((g.ni, g.nj + 1), dtype=np.float64)
        f_j[:, 1:-1] = 0.5 * (phi[:, 1:] + phi[:, :-1])
        f_j[:, 0] = phi[:, 0]
        f_j[:, -1] = phi[:, -1]
        flux = (f_i[1:, :, None] * g.n_i[1:] - f_i[:-1, :, None]
                * g.n_i[:-1]
                + f_j[:, 1:, None] * g.n_j[:, 1:] - f_j[:, :-1, None]
                * g.n_j[:, :-1])
        return flux / g.area[..., None]

    def _viscous_residual(self, w):
        """Viscous contribution to dU/dt (per-radian axisymmetric FV) from
        the cell primitives ``w``."""
        g = self.grid
        u, v = w["vel"]
        T = w["T"]
        mu = sutherland_viscosity(T)
        # conductivity from constant Prandtl and a local cp estimate
        gamma = (self.eos.gamma_eff(w["rho"], w["e"])
                 if hasattr(self.eos, "gamma_eff") else 1.4)
        cp = gamma / np.maximum(gamma - 1.0, 1e-3) * w["p"] \
            / (w["rho"] * T)
        k = mu * cp / self.prandtl
        du = self._cell_gradients(u)
        dv = self._cell_gradients(v)
        dT = self._cell_gradients(T)

        def face_avg_i(q):
            out = np.empty((g.ni + 1,) + q.shape[1:], dtype=np.float64)
            out[1:-1] = 0.5 * (q[1:] + q[:-1])
            out[0] = q[0]
            out[-1] = q[-1]
            return out

        def face_avg_j(q):
            out = np.empty((q.shape[0], g.nj + 1) + q.shape[2:], dtype=np.float64)
            out[:, 1:-1] = 0.5 * (q[:, 1:] + q[:, :-1])
            out[:, 0] = q[:, 0]
            out[:, -1] = q[:, -1]
            return out

        def visc_face_flux(mu_f, k_f, du_f, dv_f, dT_f, u_f, v_f, n_area):
            """Viscous flux vector through faces with area-scaled normals."""
            nx, ny = n_area[..., 0], n_area[..., 1]
            div = du_f[..., 0] + dv_f[..., 1]
            txx = mu_f * (2.0 * du_f[..., 0] - 2.0 / 3.0 * div)
            tyy = mu_f * (2.0 * dv_f[..., 1] - 2.0 / 3.0 * div)
            txy = mu_f * (du_f[..., 1] + dv_f[..., 0])
            Fv = np.zeros(nx.shape + (4,), dtype=np.float64)
            Fv[..., 1] = txx * nx + txy * ny
            Fv[..., 2] = txy * nx + tyy * ny
            Fv[..., 3] = ((txx * u_f + txy * v_f + k_f * dT_f[..., 0]) * nx
                          + (txy * u_f + tyy * v_f
                             + k_f * dT_f[..., 1]) * ny)
            return Fv

        # directional correction for j-face gradients (wall-normal
        # resolution is what heating depends on)
        def corrected_j(phi, dphi_f):
            d = self._d_j
            ddir = (phi[:, 1:] - phi[:, :-1])
            corr = (ddir - np.sum(dphi_f[:, 1:-1] * d, axis=-1)) \
                / self._dist2_j
            out = dphi_f.copy()
            out[:, 1:-1] += corr[..., None] * d
            return out

        # i faces (radius-weighted areas)
        Fv_i = visc_face_flux(face_avg_i(mu), face_avg_i(k),
                              face_avg_i(du), face_avg_i(dv),
                              face_avg_i(dT), face_avg_i(u),
                              face_avg_i(v), self.normal_i)
        dT_jf = corrected_j(T, face_avg_j(dT))
        du_jf = corrected_j(u, face_avg_j(du))
        dv_jf = corrected_j(v, face_avg_j(dv))
        u_jf = face_avg_j(u)
        v_jf = face_avg_j(v)
        mu_jf = face_avg_j(mu)
        k_jf = face_avg_j(k)
        # wall faces: no-slip velocity and wall temperature gradient
        u_jf[:, 0] = 0.0
        v_jf[:, 0] = 0.0
        Fv_j = visc_face_flux(mu_jf, k_jf, du_jf, dv_jf, dT_jf,
                              u_jf, v_jf, self.normal_j)
        div = (Fv_i[1:] - Fv_i[:-1]) + (Fv_j[:, 1:] - Fv_j[:, :-1])
        return div / self.vol[..., None]

    def residual(self, U, w=None):
        if w is None:
            w = primitives(U, self.eos)
        return super().residual(U, w) + self._viscous_residual(w)

    def local_timestep(self, cfl, w=None):
        """Convective + viscous stability limit."""
        if w is None:
            w = primitives(self.U, self.eos)
        dt_c = super().local_timestep(cfl, w)
        mu = sutherland_viscosity(w["T"])
        h = self.grid.min_cell_size()
        dt_v = 0.25 * w["rho"] * h * h / np.maximum(mu, 1e-300)
        return np.minimum(dt_c, cfl * dt_v)

    # ------------------------------------------------------------------
    # wall diagnostics
    # ------------------------------------------------------------------

    def wall_heat_flux(self):
        """Wall heat flux q_w = k dT/dn [W/m^2] along the body (positive
        INTO the wall)."""
        if self.T_wall is None:
            raise InputError("adiabatic wall has no imposed temperature")
        w = primitives(self.U, self.eos)
        T1 = w["T"][:, 0]
        # distance from wall face midpoint to first centroid
        d = np.hypot(self.grid.xc[:, 0] - self.grid.xm_j[:, 0],
                     self.grid.yc[:, 0] - self.grid.ym_j[:, 0])
        T_face = 0.5 * (T1 + self.T_wall)
        mu_w = sutherland_viscosity(T_face)
        gamma = (self.eos.gamma_eff(w["rho"][:, 0], w["e"][:, 0])
                 if hasattr(self.eos, "gamma_eff") else 1.4)
        cp = gamma / np.maximum(gamma - 1.0, 1e-3) * w["p"][:, 0] \
            / (w["rho"][:, 0] * T1)
        k_w = mu_w * cp / self.prandtl
        return k_w * (T1 - self.T_wall) / d

    def wall_shear(self):
        """Wall shear stress magnitude [Pa] along the body."""
        w = primitives(self.U, self.eos)
        speed = np.hypot(w["vel"][0][:, 0], w["vel"][1][:, 0])
        d = np.hypot(self.grid.xc[:, 0] - self.grid.xm_j[:, 0],
                     self.grid.yc[:, 0] - self.grid.ym_j[:, 0])
        T1 = w["T"][:, 0]
        T_face = (0.5 * (T1 + self.T_wall) if self.T_wall is not None
                  else T1)
        return sutherland_viscosity(T_face) * speed / d
