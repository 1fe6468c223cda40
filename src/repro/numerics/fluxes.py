"""Euler fluxes and the HLLE approximate Riemann flux.

Conserved-variable layout (trailing axis):

* 1-D: ``[rho, rho*u, rho*E]``
* 2-D: ``[rho, rho*u, rho*v, rho*E]``

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
           "rotate_from_normal"]


def primitives(U, eos):
    """Unpack conserved variables.

    Returns dict with rho, velocity components, e (internal), p, a and T,
    the last three from one ``eos.p_a_T`` call.  Works for both 1-D
    (3-component) and 2-D (4-component) layouts.
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
    p, a, T = eos.p_a_T(rho, e)
    return {"rho": rho, "vel": vel, "e": e, "p": p, "a": a, "T": T}


def euler_flux(U, p):
    """Physical Euler flux in the first (normal) velocity direction.

    ``p`` must be consistent with ``U`` through the EOS.
    """
    U = np.asarray(U, dtype=float)
    rho = np.maximum(U[..., 0], 1e-300)
    un = U[..., 1] / rho
    F = np.empty_like(U)
    F[..., 0] = U[..., 1]
    F[..., 1] = U[..., 1] * un + p
    if U.shape[-1] == 4:
        F[..., 2] = U[..., 2] * un          # tangential momentum advection
    F[..., -1] = (U[..., -1] + p) * un
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
    FL = euler_flux(UL, wl["p"])
    FR = euler_flux(UR, wr["p"])
    denom = np.maximum(b_plus - b_minus, 1e-12)
    bp = b_plus[..., None]
    bm = b_minus[..., None]
    return ((bp * FL - bm * FR) + (bp * bm) * (UR - UL)) / denom[..., None]


def rotate_to_normal(U, nx, ny):
    """Rotate 2-D conserved momentum into the (normal, tangential) frame.

    ``nx, ny`` is the unit face normal.  Density and energy are invariant.
    """
    U = np.asarray(U, dtype=float)
    out = U.copy()
    mu, mv = U[..., 1], U[..., 2]
    out[..., 1] = mu * nx + mv * ny
    out[..., 2] = -mu * ny + mv * nx
    return out


def rotate_from_normal(F, nx, ny):
    """Rotate a face-frame flux back to the global frame."""
    F = np.asarray(F, dtype=float)
    out = F.copy()
    fn, ft = F[..., 1], F[..., 2]
    out[..., 1] = fn * nx - ft * ny
    out[..., 2] = fn * ny + ft * nx
    return out
