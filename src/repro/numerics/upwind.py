"""Ideal-gas flux-vector splittings: Steger–Warming, van Leer, AUSM+.

These are the upwind schemes of the paper's era ("The upwind NS method used
here allows the hypersonic bow shock to be captured", Ref. 26).  They are
written for the calorically perfect gas; real-gas runs use HLLE (see
:mod:`repro.numerics.fluxes`) or these splittings with the local effective
gamma (the bench_upwind ablation compares both).

All routines take face-normal-frame states (see fluxes.py layout) and
return the face flux, computed on component rows as there.
"""

from __future__ import annotations

import numpy as np

from repro.numerics.fluxes import component_last, component_rows, euler_flux

__all__ = ["steger_warming_flux", "van_leer_flux", "ausm_plus_flux"]


def _unpack_ideal(U, gamma):
    U = np.asarray(U, dtype=float)
    rho = np.maximum(U[..., 0], 1e-300)
    un = U[..., 1] / rho
    if U.shape[-1] == 4:
        ut = U[..., 2] / rho
        ke = 0.5 * (un**2 + ut**2)
    else:
        ut = None
        ke = 0.5 * un**2
    e = np.maximum(U[..., -1] / rho - ke, 1e-30)
    p = (gamma - 1.0) * rho * e
    a = np.sqrt(gamma * p / rho)  # catlint: disable=CAT002 -- rho, e clamped positive above; gamma > 1
    H = (U[..., -1] + p) / rho
    return rho, un, ut, p, a, H


def _sw_split(U, gamma, sign):
    """One-sided Steger–Warming flux (sign=+1: F+, -1: F-).

    Standard eigen-split form (1-D normal direction)::

        F± = rho/(2g) [ 2(g-1) l1± + l2± + l3±,
                        2(g-1) l1± u + l2±(u+a) + l3±(u-a),
                        (g-1) l1± u^2 + l2±(u+a)^2/2 + l3±(u-a)^2/2
                          + (3-g)(l2± + l3±) a^2 / (2(g-1)) ]

    with l1 = u, l2 = u+a, l3 = u-a and l± = (l ± |l|)/2.  Tangential
    momentum and its kinetic energy advect with the split mass flux.
    """
    rho, un, ut, p, a, H = _unpack_ideal(U, gamma)
    g = gamma

    def lam(l):
        return 0.5 * (l + sign * np.abs(l))

    l1, l2, l3 = lam(un), lam(un + a), lam(un - a)
    pref = rho / (2.0 * g)
    f0 = pref * (2.0 * (g - 1.0) * l1 + l2 + l3)
    f1 = pref * (2.0 * (g - 1.0) * l1 * un + l2 * (un + a)
                 + l3 * (un - a))
    fE = pref * ((g - 1.0) * l1 * un**2
                 + 0.5 * l2 * (un + a) ** 2 + 0.5 * l3 * (un - a) ** 2
                 + (3.0 - g) * (l2 + l3) * a**2 / (2.0 * (g - 1.0)))
    F = np.empty((np.shape(U)[-1],) + np.shape(f0), dtype=np.float64)
    F[0] = f0
    F[1] = f1
    if ut is not None:
        F[2] = f0 * ut
        fE = fE + 0.5 * ut**2 * f0
    F[-1] = fE
    return component_last(F)


def steger_warming_flux(UL, UR, gamma=1.4):
    """Steger–Warming split flux F = F+(UL) + F-(UR)."""
    return _sw_split(UL, gamma, +1.0) + _sw_split(UR, gamma, -1.0)


def _vl_split(U, gamma, sign):
    """One-sided van Leer flux."""
    rho, un, ut, p, a, H = _unpack_ideal(U, gamma)
    M = un / a
    sup_pos = M >= 1.0
    sup_neg = M <= -1.0
    sub = ~(sup_pos | sup_neg)
    # supersonic: one-sided full flux or zero
    full = component_rows(euler_flux(U, p))
    F = np.where(sup_pos if sign > 0 else sup_neg, full, 0.0)
    # subsonic split
    fm = sign * 0.25 * rho * a * (M + sign) ** 2
    fmom = fm * ((gamma - 1.0) * un + sign * 2.0 * a) / gamma
    # van Leer energy: fE = fm * [((g-1)u ± 2a)^2 / (2(g^2-1)) + ke_t]
    u_term = ((gamma - 1.0) * un + sign * 2.0 * a) ** 2 \
        / (2.0 * (gamma**2 - 1.0))
    ke_t = 0.0 if ut is None else 0.5 * ut**2
    fE = fm * (u_term + ke_t)
    Fs = np.zeros(F.shape, dtype=np.float64)
    Fs[0] = fm
    Fs[1] = fmom
    if ut is not None:
        Fs[2] = fm * ut
    Fs[-1] = fE
    return component_last(np.where(sub, Fs, F))


def van_leer_flux(UL, UR, gamma=1.4):
    """van Leer flux-vector-splitting face flux."""
    return _vl_split(UL, gamma, +1.0) + _vl_split(UR, gamma, -1.0)


def ausm_plus_flux(UL, UR, gamma=1.4):
    """AUSM+ flux (Liou 1996) for the ideal gas."""
    rl, ul, tl, pl, al, Hl = _unpack_ideal(UL, gamma)
    rr, ur, tr, pr, ar, Hr = _unpack_ideal(UR, gamma)
    a12 = 0.5 * (al + ar)
    Ml = ul / a12
    Mr = ur / a12
    alpha = 3.0 / 16.0
    beta = 1.0 / 8.0

    def M_plus(M):
        return np.where(np.abs(M) >= 1.0, 0.5 * (M + np.abs(M)),
                        0.25 * (M + 1.0) ** 2 + beta * (M**2 - 1.0) ** 2)

    def M_minus(M):
        return np.where(np.abs(M) >= 1.0, 0.5 * (M - np.abs(M)),
                        -0.25 * (M - 1.0) ** 2 - beta * (M**2 - 1.0) ** 2)

    def p_plus(M):
        return np.where(np.abs(M) >= 1.0,
                        0.5 * (1.0 + np.sign(M)),
                        0.25 * (M + 1.0) ** 2 * (2.0 - M)
                        + alpha * M * (M**2 - 1.0) ** 2)

    def p_minus(M):
        return np.where(np.abs(M) >= 1.0,
                        0.5 * (1.0 - np.sign(M)),
                        0.25 * (M - 1.0) ** 2 * (2.0 + M)
                        - alpha * M * (M**2 - 1.0) ** 2)

    m12 = M_plus(Ml) + M_minus(Mr)
    p12 = p_plus(Ml) * pl + p_minus(Mr) * pr
    mdot = a12 * np.where(m12 > 0, m12 * rl, m12 * rr)
    # upwinded transported quantities
    m = np.shape(UL)[-1]
    psiL = np.empty((m,) + np.shape(ul), dtype=np.float64)
    psiR = np.empty((m,) + np.shape(ur), dtype=np.float64)
    psiL[0], psiR[0] = 1.0, 1.0
    psiL[1], psiR[1] = ul, ur
    if m == 4:
        psiL[2], psiR[2] = tl, tr
    psiL[-1], psiR[-1] = Hl, Hr
    F = np.where(mdot > 0, mdot * psiL, mdot * psiR)
    F[1] += p12
    return component_last(F)
