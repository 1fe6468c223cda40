"""Shock-wave and isentropic-flow relations, ideal and equilibrium gas.

The frozen (calorically perfect) relations are closed-form; the equilibrium
real-gas normal shock solves the Rankine–Hugoniot jumps by Newton iteration
over the Gibbs equilibrium solver — the density ratio no longer saturates at
(gamma+1)/(gamma-1) ~ 6 but climbs toward 15+ as dissociation absorbs the
shock heating, which is exactly the standoff-distance physics of Fig. 4.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, InputError
from repro.thermo.equilibrium import EquilibriumGas

__all__ = ["normal_shock_ideal", "isentropic_ratios", "oblique_shock_beta",
           "pitot_pressure_ideal", "equilibrium_normal_shock",
           "frozen_post_shock_state"]


def normal_shock_ideal(M1, gamma: float = 1.4):
    """Ideal-gas normal-shock jump ratios.

    Returns dict with p2/p1, rho2/rho1, T2/T1, M2, p02/p01.
    """
    M1 = np.asarray(M1, dtype=float)
    if np.any(M1 <= 1.0):
        raise InputError("normal shock requires M1 > 1")
    if gamma <= 1.0:
        raise InputError("gamma must exceed 1")
    g = gamma
    m2 = M1 * M1
    p_ratio = 1.0 + 2.0 * g / (g + 1.0) * (m2 - 1.0)
    rho_ratio = (g + 1.0) * m2 / ((g - 1.0) * m2 + 2.0)
    T_ratio = p_ratio / rho_ratio
    # catlint: disable=CAT002,CAT003 -- g > 1 and m2 > 1 validated, so
    # the argument and the denominator 2 g m2 - (g - 1) > g + 1 stay
    # positive
    M2 = np.sqrt(((g - 1.0) * m2 + 2.0) / (2.0 * g * m2 - (g - 1.0)))
    # catlint: disable=CAT003 -- g > 1 validated above
    p0_ratio = (rho_ratio ** (g / (g - 1.0))
                * p_ratio ** (-1.0 / (g - 1.0)))
    return {"p_ratio": p_ratio, "rho_ratio": rho_ratio,
            "T_ratio": T_ratio, "M2": M2, "p0_ratio": p0_ratio}


def isentropic_ratios(M, gamma: float = 1.4):
    """Stagnation-to-static isentropic ratios at Mach M."""
    M = np.asarray(M, dtype=float)
    if gamma <= 1.0:
        raise InputError("gamma must exceed 1")
    g = gamma
    T0_T = 1.0 + 0.5 * (g - 1.0) * M * M
    # catlint: disable=CAT003 -- g > 1 validated above
    return {"T0_T": T0_T,
            "p0_p": T0_T ** (g / (g - 1.0)),
            "rho0_rho": T0_T ** (1.0 / (g - 1.0))}


def pitot_pressure_ideal(M1, p1, gamma: float = 1.4):
    """Rayleigh pitot pressure behind a normal shock at supersonic M1."""
    ns = normal_shock_ideal(M1, gamma)
    isen = isentropic_ratios(ns["M2"], gamma)
    return np.asarray(p1, dtype=float) * ns["p_ratio"] * isen["p0_p"]


def oblique_shock_beta(M1, theta_rad, gamma: float = 1.4, *, weak=True,
                       tol=1e-12, max_iter=200):
    """Shock angle beta for flow deflection theta (theta-beta-M relation).

    Parameters
    ----------
    weak:
        Select the weak (attached) branch.

    Raises
    ------
    InputError
        If the deflection exceeds the maximum attached-shock angle.
    """
    M1 = float(M1)
    theta = float(theta_rad)
    if M1 <= 1.0:
        raise InputError("oblique shock requires M1 > 1")
    if theta <= 0.0:
        return np.arcsin(1.0 / M1)  # Mach wave

    def theta_of_beta(beta):
        m2 = M1 * M1
        num = m2 * np.sin(beta) ** 2 - 1.0
        den = m2 * (gamma + np.cos(2.0 * beta)) + 2.0
        return np.arctan(2.0 / np.tan(beta) * num / den)

    beta_min = np.arcsin(1.0 / M1) + 1e-9
    beta_max = np.pi / 2.0 - 1e-9
    # locate the maximum deflection to split branches
    bs = np.linspace(beta_min, beta_max, 400)
    ths = np.array([theta_of_beta(b) for b in bs])
    i_max = int(np.argmax(ths))
    if theta > ths[i_max]:
        raise InputError(f"deflection {np.rad2deg(theta):.2f} deg exceeds "
                         f"max {np.rad2deg(ths[i_max]):.2f} deg (detached)")
    lo, hi = ((beta_min, bs[i_max]) if weak else (bs[i_max], beta_max))
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        t_mid = theta_of_beta(mid)
        if weak:
            lo, hi = (mid, hi) if t_mid < theta else (lo, mid)
        else:
            lo, hi = (mid, hi) if t_mid > theta else (lo, mid)
        if hi - lo < tol:
            return 0.5 * (lo + hi)
    raise ConvergenceError("theta-beta-M bisection failed",
                           iterations=max_iter)


def frozen_post_shock_state(rho1, T1, u1, *, gamma=1.4, R=287.0528):
    """Dimensional ideal-gas post-shock state for upstream (rho1, T1, u1).

    Returns dict with rho2, T2, p2, u2.
    """
    a1 = np.sqrt(gamma * R * T1)  # catlint: disable=CAT002 -- physical upstream T1 > 0, gamma/R positive
    M1 = u1 / a1
    ns = normal_shock_ideal(M1, gamma)
    rho2 = rho1 * ns["rho_ratio"]
    T2 = T1 * ns["T_ratio"]
    p2 = rho1 * R * T1 * ns["p_ratio"]
    return {"rho2": rho2, "T2": T2, "p2": p2,
            "u2": u1 / ns["rho_ratio"]}


#: Forward-difference step in ln rho2 and ln T2 for the jump Jacobian.
#: The Gibbs solve stops at a scaled residual of 1e-11, so solver noise
#: moves a derivative by at most ~1e-5 relative; truncation adds ~1e-6.
_FD_STEP = 1.0e-6

#: Multipliers of (rho2, T2) for the three states one Newton evaluation
#: solves together: the point, rho2 perturbed, T2 perturbed.
_FD_RHO = np.array([1.0, 1.0 + _FD_STEP, 1.0])
_FD_T = np.array([1.0, 1.0, 1.0 + _FD_STEP])

#: Largest change of ln rho2 or ln T2 in one Newton step.
_MAX_LOG_STEP = 1.0

#: Step halvings per Newton iteration while the residual does not fall.
_MAX_HALVINGS = 8

#: Downstream temperature bracket [K], as in :func:`_solve_T_of_h_p`.
_T_MIN, _T_MAX = 50.0, 1.0e5


def equilibrium_normal_shock(gas: EquilibriumGas, rho1, T1, u1, *,
                             tol=1e-10, max_iter=100):
    """Normal shock with equilibrium real-gas downstream state.

    Upstream is taken as the (frozen) reference mixture at (rho1, T1)
    moving at u1 in the shock frame.  The downstream state (rho2, T2)
    with its equilibrium composition y2 solves the Rankine–Hugoniot
    momentum and energy jumps, mass conservation giving
    u2 = rho1 u1 / rho2::

        (p2 + rho2 u2^2 - P) / P              = 0,  P = p1 + rho1 u1^2
        (h2 + u2^2 / 2 - H) / max(|H|, 1e4)   = 0,  H = h1 + u1^2 / 2

    with p2, h2 from y2 = equilibrium at (rho2, T2).  One damped Newton
    iteration on (ln rho2, ln T2) drives both residuals below ``tol``,
    in at most ``max_iter`` iterations.  Each evaluation is one 3-state
    Gibbs solve, the point and its two forward-difference perturbations,
    warm-started from the last element potentials; a step is capped in
    log space and halved while the residual does not fall.  The
    iteration starts from the strong-shock guess rho2 = 10 rho1 and the
    frozen temperature at H.  No shock at all (eps = 1) solves the same
    equations, so only a root with subsonic outflow is returned
    (DESIGN §12).

    Returns dict with rho2, T2, p2, u2, y2 (equilibrium composition),
    eps = rho1/rho2, and the upstream p1/h1.

    Raises
    ------
    InputError
        rho1 or T1 not finite and positive, u1 not finite, or u1 not
        above the upstream frozen sound speed.
    ConvergenceError
        No root within ``max_iter`` iterations, or the no-shock root;
        ``residual`` is the last scaled residual and ``worst`` the last
        (rho2, T2) and eps.
    """
    rho1 = float(rho1)
    T1 = float(T1)
    u1 = float(u1)
    if not (0.0 < rho1 < np.inf and 0.0 < T1 < np.inf and np.isfinite(u1)):
        raise InputError("equilibrium shock requires finite rho1 > 0, "
                         f"T1 > 0 and u1; got rho1={rho1!r}, T1={T1!r}, "
                         f"u1={u1!r}")
    y1 = gas.y_ref
    p1 = float(gas.mix.pressure(np.array(rho1), np.array(T1), y1))
    h1 = float(gas.mix.h_mass(np.array(T1), y1))
    a1 = float(gas.mix.sound_speed_frozen(np.array(T1), y1))
    if u1 <= a1:
        raise InputError("equilibrium shock requires supersonic upstream")
    m = rho1 * u1
    P = p1 + m * u1
    H = h1 + 0.5 * u1 * u1
    H_scale = max(abs(H), 1.0e4)

    def jump(rho2, T2, lam0):
        """Scaled residuals (3, 2) of the point and its perturbations."""
        rho = rho2 * _FD_RHO
        T = T2 * _FD_T
        y, lam = gas.solver.solve_rho_T(rho, T, gas.b, lam0=lam0,
                                        return_lambda=True)
        u = m / rho
        R = np.stack([(gas.mix.pressure(rho, T, y) + m * u - P) / P,
                      (gas.mix.h_mass(T, y) + 0.5 * u * u - H) / H_scale],
                     axis=-1)
        return R, y[0], lam[0]

    def failure(why, it, R, rho2, T2):
        return ConvergenceError(
            f"equilibrium shock {why}", iterations=it,
            residual=float(np.max(np.abs(R[0]))),
            worst={"rho2": float(rho2), "T2": float(T2),
                   "eps": rho1 / float(rho2)})

    rho2 = 10.0 * rho1                     # eps = 0.1, the strong-shock guess
    T2 = min(max(float(gas.mix.T_from_h(H, y1)), _T_MIN), _T_MAX)
    R, y2, lam = jump(rho2, T2, None)
    it = 0
    while not np.all(np.abs(R[0]) <= tol):
        if it == max_iter:
            raise failure("iteration failed", it, R, rho2, T2)
        it += 1
        J = (R[1:] - R[0]).T / _FD_STEP    # d(R)/d(ln rho2, ln T2)
        try:
            dx = np.linalg.solve(J, -R[0])
        except np.linalg.LinAlgError:
            raise failure("Jacobian is singular", it, R, rho2, T2) from None
        f0 = R[0] @ R[0]
        s = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            rho_t, T_t = (rho2, T2) * np.exp(
                np.clip(s * dx, -_MAX_LOG_STEP, _MAX_LOG_STEP))
            T_t = min(max(T_t, _T_MIN), _T_MAX)
            R_t, y_t, lam_t = jump(rho_t, T_t, lam)
            if R_t[0] @ R_t[0] < f0:
                break
            s *= 0.5
        rho2, T2, R, y2, lam = rho_t, T_t, R_t, y_t, lam_t
    eps = rho1 / float(rho2)
    u2 = eps * u1
    # the no-shock root lands on eps = 1 only to rounding, either side,
    # so it is told apart by its supersonic outflow
    if u2 >= float(gas.mix.sound_speed_frozen(T2, y2)):
        raise failure("converged to the trivial no-shock root", it, R,
                      rho2, T2)
    p2 = float(gas.mix.pressure(rho2, T2, y2))
    return {"rho2": float(rho2), "T2": float(T2), "p2": p2, "u2": u2,
            "y2": y2, "eps": eps, "p1": p1, "h1": h1}


def _solve_T_of_h_p(gas: EquilibriumGas, h_target, p, T_guess, *,
                    tol=1e-10, max_iter=60):
    """Invert h_eq(T, p) = h for T (monotone; guarded secant).

    Returns ``(T, y, rho)``: the root and the equilibrium composition
    and density at (T, p) that the last enthalpy evaluation solved, so
    the caller needs no second (T, p) solve (DESIGN §25).
    """
    T = float(T_guess)

    def h_of(T):
        y, rho = gas.composition_T_p(np.array(T), np.array(p))
        return float(gas.mix.h_mass(np.array(T), y)), y, rho

    T_lo, T_hi = 50.0, 1.0e5
    h, y, rho = h_of(T)
    f = h - h_target
    for _ in range(max_iter):
        if abs(f) < tol * max(abs(h_target), 1e4):
            return T, y, rho
        if f > 0:
            T_hi = T
        else:
            T_lo = T
        dT = 0.01 * T
        slope = (h_of(T + dT)[0] - (f + h_target)) / dT
        T_new = T - f / max(slope, 1.0)
        if not (T_lo < T_new < T_hi):
            T_new = 0.5 * (T_lo + T_hi)
        T = T_new
        h, y, rho = h_of(T)
        f = h - h_target
    raise ConvergenceError("T(h, p) inversion failed", iterations=max_iter)
