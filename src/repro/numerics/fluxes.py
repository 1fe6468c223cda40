"""Euler fluxes and the HLLE approximate Riemann flux.

Conserved-variable layout (trailing axis):

* 1-D: ``[rho, rho*u, rho*E]``
* 2-D: ``[rho, rho*u, rho*v, rho*E]``

Every kernel takes and returns component-last arrays, but computes on
component rows: :func:`component_rows` views ``U[..., k]`` as row ``k``,
results are allocated component-first and returned as component-last
views (:func:`component_last`).  Given component-first memory, as the
2-D frame hands them, each row is contiguous, so NumPy runs every
elementwise operation as one long inner loop; any other layout gives
the same values, since elementwise arithmetic rounds the same whatever
the strides.

All face fluxes here are *normal-direction* fluxes: 2-D callers rotate the
momentum into the face frame with :func:`rotate_to_normal`, call the 1-D-
like flux (the tangential momentum rides along as a passively advected
component), and rotate back.

HLLE is the workhorse for real-gas runs because it needs only sound speeds
from the EOS (no gamma algebra), is positively conservative, and captures
the strong bow shocks of the paper's flows without entropy fixes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["primitives", "euler_flux", "hlle_flux", "rotate_to_normal",
           "rotate_from_normal", "component_rows", "component_last"]


def component_rows(U):
    """The (nv, ...) view of a component-last (..., nv) array: row ``k``
    is component ``k``.  No copy is made."""
    return U.transpose((U.ndim - 1,) + tuple(range(U.ndim - 1)))


def component_last(R):
    """The (..., nv) view of component rows (nv, ...), the inverse of
    :func:`component_rows`."""
    return R.transpose(tuple(range(1, R.ndim)) + (0,))


def primitives(U, eos):
    """Unpack conserved variables.

    Returns dict with rho, velocity components, e (internal), p, a, T
    and the effective gamma, the last four from one ``eos.p_a_T`` call.
    Works for both 1-D (3-component) and 2-D (4-component) layouts.
    """
    U = np.asarray(U, dtype=float)
    m = U.shape[-1]
    rho = np.maximum(U[..., 0], 1e-300)
    if m == 3:
        u = U[..., 1] / rho
        ke = 0.5 * u * u
        vel = (u,)
    elif m == 4:
        u = U[..., 1] / rho
        v = U[..., 2] / rho
        ke = 0.5 * (u * u + v * v)
        vel = (u, v)
    else:
        raise ValueError(f"unsupported state vector length {m}")
    e = np.maximum(U[..., -1] / rho - ke, 1e-30)
    p, a, T, gamma = eos.p_a_T(rho, e)
    return {"rho": rho, "vel": vel, "e": e, "p": p, "a": a, "T": T,
            "gamma": gamma}


def euler_flux(U, p):
    """Physical Euler flux in the first (normal) velocity direction.

    ``p`` must be consistent with ``U`` through the EOS.
    """
    Ur = component_rows(np.asarray(U, dtype=float))
    un = Ur[1] / np.maximum(Ur[0], 1e-300)
    return component_last(_flux_rows(Ur, un, p))


def _flux_rows(Ur, un, p):
    """The Euler flux as component rows, from the state rows ``Ur``, the
    normal velocity and the pressure."""
    F = np.empty(Ur.shape, dtype=np.float64)
    F[0] = Ur[1]
    F[1] = Ur[1] * un + p
    if Ur.shape[0] == 4:
        F[2] = Ur[2] * un                   # tangential momentum advection
    F[-1] = (Ur[-1] + p) * un
    return F


def hlle_flux(UL, UR, eos):
    """HLLE flux for left/right states in the face-normal frame.

    Wave-speed estimates follow Einfeldt: Roe-averaged velocity/sound speed
    bounded by the one-sided extremes.
    """
    UL = np.asarray(UL, dtype=float)
    UR = np.asarray(UR, dtype=float)
    wl = primitives(UL, eos)
    wr = primitives(UR, eos)
    ul, ur = wl["vel"][0], wr["vel"][0]
    al, ar = wl["a"], wr["a"]
    # Roe-ish averages (sqrt-rho weighting)
    # catlint: disable=CAT002 -- primitives() clamps rho >= 1e-300
    sl = np.sqrt(wl["rho"])
    sr = np.sqrt(wr["rho"])  # catlint: disable=CAT002 -- primitives() clamps rho >= 1e-300
    u_hat = (sl * ul + sr * ur) / (sl + sr)
    a_hat = (sl * al + sr * ar) / (sl + sr)
    b_minus = np.minimum(np.minimum(ul - al, u_hat - a_hat), 0.0)
    b_plus = np.maximum(np.maximum(ur + ar, u_hat + a_hat), 0.0)
    # the face-normal velocity primitives() formed is euler_flux's
    UL, UR = component_rows(UL), component_rows(UR)
    FL = _flux_rows(UL, ul, wl["p"])
    FR = _flux_rows(UR, ur, wr["p"])
    denom = np.maximum(b_plus - b_minus, 1e-12)
    return component_last(((b_plus * FL - b_minus * FR)
                           + (b_plus * b_minus) * (UR - UL)) / denom)


def rotate_to_normal(U, nx, ny):
    """Rotate 2-D conserved momentum into the (normal, tangential) frame.

    ``nx, ny`` is the unit face normal.  Density and energy are invariant.
    """
    Ur = component_rows(np.asarray(U, dtype=float))
    out = np.empty(Ur.shape, dtype=np.float64)
    out[0] = Ur[0]
    out[1] = Ur[1] * nx + Ur[2] * ny
    out[2] = -Ur[1] * ny + Ur[2] * nx
    out[3:] = Ur[3:]
    return component_last(out)


def rotate_from_normal(F, nx, ny):
    """Rotate a face-frame flux back to the global frame."""
    Fr = component_rows(np.asarray(F, dtype=float))
    out = np.empty(Fr.shape, dtype=np.float64)
    out[0] = Fr[0]
    out[1] = Fr[1] * nx - Fr[2] * ny
    out[2] = Fr[1] * ny + Fr[2] * nx
    out[3:] = Fr[3:]
    return component_last(out)
