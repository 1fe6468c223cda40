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
from repro.numerics.fluxes import component_rows, primitives
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
        # offsets between j-adjacent cell centroids as (2, ni, nj-1)
        # rows and their squared lengths (for the directional gradient
        # correction)
        self._d_j = np.stack([np.diff(grid.xc, axis=1),
                              np.diff(grid.yc, axis=1)])
        self._dist2_j = np.maximum(np.sum(self._d_j * self._d_j, axis=0),
                                   1e-300)
        # plane-geometry face normals as (2, ...) rows (Green-Gauss)
        self._plane_normal_i = np.ascontiguousarray(component_rows(grid.n_i))
        self._plane_normal_j = np.ascontiguousarray(component_rows(grid.n_j))

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

    def _decode(self, U):
        """The base decode plus the Sutherland viscosity ``mu``, which
        the timestep and the viscous residual both read."""
        w = super()._decode(U)
        w["mu"] = sutherland_viscosity(w["T"])
        return w

    def _cell_gradients(self, phi):
        """Green-Gauss gradients of stacked cell fields (m, ni, nj) ->
        (m, 2, ni, nj), x and y derivative rows.

        Boundary faces use the ghost-free one-sided closure (copy cell
        value), which is first order at boundaries and second elsewhere.
        """
        f_i, f_j = _face_avg_i(phi)[:, None], _face_avg_j(phi)[:, None]
        n_i, n_j = self._plane_normal_i, self._plane_normal_j
        flux = (f_i[:, :, 1:] * n_i[:, 1:] - f_i[:, :, :-1] * n_i[:, :-1]
                + f_j[..., 1:] * n_j[..., 1:]
                - f_j[..., :-1] * n_j[..., :-1])
        return flux / self.grid.area

    def _viscous_rows(self, w):
        """Viscous contribution to dU/dt (per-radian axisymmetric FV) as
        (4, ni, nj) component rows, from the cell primitives ``w``.

        u, v and T are differentiated in one stacked Green-Gauss pass,
        and every cell quantity the faces need is averaged onto the i
        and the j faces in one pass each."""
        ni, nj = self.grid.ni, self.grid.nj
        u, v = w["vel"]
        T, mu = w["T"], w["mu"]
        # conductivity from constant Prandtl and a local cp estimate
        gamma = w["gamma"]
        cp = gamma / np.maximum(gamma - 1.0, 1e-3) * w["p"] \
            / (w["rho"] * T)
        k = mu * cp / self.prandtl
        phi = np.stack([u, v, T])
        # rows: mu, k, u, v, then d/dx and d/dy of u, v and T
        q = np.empty((10, ni, nj), dtype=np.float64)
        q[0], q[1], q[2:4] = mu, k, phi[:2]
        q[4:] = self._cell_gradients(phi).reshape(6, ni, nj)
        # i faces (radius-weighted areas)
        qi = _face_avg_i(q)
        Fv_i = _visc_face_flux(qi, self.normal_i)
        # j faces: directional correction of the face gradients against
        # odd-even decoupling (wall-normal resolution is what heating
        # depends on), then no-slip velocity on the wall faces
        qj = _face_avg_j(q)
        grad_j = qj[4:].reshape(3, 2, ni, nj + 1)
        d = self._d_j
        ddir = phi[..., 1:] - phi[..., :-1]
        corr = (ddir - np.sum(grad_j[..., 1:-1] * d, axis=1)) \
            / self._dist2_j
        grad_j[..., 1:-1] += corr[:, None] * d
        qj[2:4, :, 0] = 0.0
        Fv_j = _visc_face_flux(qj, self.normal_j)
        div = (Fv_i[:, 1:] - Fv_i[:, :-1]) \
            + (Fv_j[:, :, 1:] - Fv_j[:, :, :-1])
        return div / self.vol

    def _residual_rows(self, U, w):
        return super()._residual_rows(U, w) + self._viscous_rows(w)

    def local_timestep(self, cfl, w=None):
        """Convective + viscous stability limit."""
        if w is None:
            w = self._decode(self.U)
        dt_c = super().local_timestep(cfl, w)
        h = self.grid.min_cell_size()
        dt_v = 0.25 * w["rho"] * h * h / np.maximum(w["mu"], 1e-300)
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
        gamma = w["gamma"][:, 0]
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


# ----------------------------------------------------------------------
# face kernels on stacked (m, ni, nj) cell rows
# ----------------------------------------------------------------------

def _face_avg_i(q):
    """Cell rows (m, ni, nj) averaged onto the i faces (m, ni+1, nj);
    the boundary faces copy their cell."""
    out = np.empty((q.shape[0], q.shape[1] + 1, q.shape[2]),
                   dtype=np.float64)
    out[:, 1:-1] = 0.5 * (q[:, 1:] + q[:, :-1])
    out[:, 0] = q[:, 0]
    out[:, -1] = q[:, -1]
    return out


def _face_avg_j(q):
    """Cell rows (m, ni, nj) averaged onto the j faces (m, ni, nj+1);
    the boundary faces copy their cell."""
    out = np.empty(q.shape[:2] + (q.shape[2] + 1,), dtype=np.float64)
    out[:, :, 1:-1] = 0.5 * (q[:, :, 1:] + q[:, :, :-1])
    out[:, :, 0] = q[:, :, 0]
    out[:, :, -1] = q[:, :, -1]
    return out


def _visc_face_flux(qf, n_area):
    """Viscous flux rows (4, ...) through faces with area-scaled normal
    rows ``n_area``, from the face rows ``qf`` (mu, k, u, v, then the x
    and y derivatives of u, v and T)."""
    mu_f, k_f, u_f, v_f = qf[:4]
    dudx, dudy, dvdx, dvdy, dTdx, dTdy = qf[4:]
    nx, ny = n_area
    div = dudx + dvdy
    txx = mu_f * (2.0 * dudx - 2.0 / 3.0 * div)
    tyy = mu_f * (2.0 * dvdy - 2.0 / 3.0 * div)
    txy = mu_f * (dudy + dvdx)
    Fv = np.zeros((4,) + nx.shape, dtype=np.float64)
    Fv[1] = txx * nx + txy * ny
    Fv[2] = txy * nx + tyy * ny
    Fv[3] = ((txx * u_f + txy * v_f + k_f * dTdx) * nx
             + (txy * u_f + tyy * v_f + k_f * dTdy) * ny)
    return Fv
