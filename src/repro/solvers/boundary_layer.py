"""Compressible laminar boundary layer (the BL of E+BL).

:class:`StagnationSimilarityBL` solves the Lees–Dorodnitsyn similarity
equations at an axisymmetric stagnation point::

    (C f'')' + f f'' + beta (rho_e/rho - f'^2) = 0,  beta = 1/2
    (C/Pr g')' + f g' = 0

with C = (rho mu)/(rho_e mu_e) evaluated along the layer from the local
enthalpy at the (constant) edge pressure — for the equilibrium-air gas
model this is a numerical Fay–Riddell calculation.  Solved by shooting
on (f''(0), g'(0)): Broyden's quasi-Newton method (C. G. Broyden, Math.
Comp. 19, 1965) from a start read as the wall fluxes C_w f''(0) and
C_w g'(0), with a finite-difference Jacobian at the first step and
after any step that does not reduce the residual.  Downstream heating
built on the stagnation solution is Lees local similarity
(:func:`repro.heating.lees.lees_distribution`).

The system is integrated in flux form, on (f, f', tau, g, q) with the
shear flux tau = C f'' and the heat flux q = C g'/Pr::

    f'' = tau/C,   tau' = -f f'' - beta (rho_e/rho - f'^2)
    g'  = Pr q/C,  q'   = -f g'

so the right-hand side reads C(g) only, never dC/dg.

Self-similar incompressible limits (Blasius for the flat plate via
beta = 0, Homann-like stagnation values) validate the implementation.

The closure C(g) is data, not a callable: a knot table ``(g, C)``,
linear between knots and constant beyond the end knots (``np.interp``
semantics).  C(g) is continuous, so the flux-form right-hand side has
no jump at a knot for the step controller to resolve.  The shooting
iterations integrate over Python floats with :func:`_dopri45_end`, a
Dormand–Prince 5(4) integrator that copies scipy's ``RK45`` step
control and returns only the end state; it keeps the state and its
stages in float locals and calls the right-hand side with five
positional floats.  scipy integrates once more on the converged slopes
for the returned profile.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from repro.errors import ConvergenceError, InputError

__all__ = ["StagnationSimilarityBL", "BLSolution", "solve_falkner_skan"]

#: Tolerances of every BL integration (shooting and profile).
_RTOL, _ATOL = 1e-9, 1e-11

#: Clips of the right-hand side on (f, f', f'', g, g'), in that order;
#: f'' = tau/C and g' = Pr q/C are clipped once formed from the
#: flux-form state.  Runaway trial trajectories return a large-but-finite
#: residual instead of overflowing the integrator.
_CLIP_LO = (-50.0, -10.0, -100.0, 0.02, -100.0)
_CLIP_HI = (50.0, 10.0, 100.0, 10.0, 100.0)
#: Floors on the density ratio rho_e/rho and on the closure C.
_RHO_RATIO_FLOOR = 0.05
_C_FLOOR = 1e-3

#: C = 1 (ideal Chapman closure) as a one-knot table.
_UNIT_TABLE = ((1.0,), (1.0,))

# Dormand–Prince 5(4) tableau and step control of scipy.integrate.RK45.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = (19372 / 6561, -25360 / 2187, 64448 / 6561,
                          -212 / 729)
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                           11 / 84)           # B2 = 0
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)  # E2 = 0
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5        # -1 / (error estimator order + 1)


@dataclass
class BLSolution:
    """Similarity boundary-layer profile."""

    eta: np.ndarray
    f: np.ndarray          #: stream function
    fp: np.ndarray         #: velocity ratio u/u_e
    g: np.ndarray          #: total-enthalpy ratio h0/h0e
    fpp0: float            #: wall shear parameter f''(0)
    gp0: float             #: wall heat parameter g'(0)
    #: profile samples at which a state clip or the rho_e/rho or C floor
    #: of the right-hand side is active
    safeguard_samples: int


def _knot_table(g, C):
    """Bisect lookup lists for the piecewise-linear closure ``(g, C)``.

    Returns ``(knots, base, value, slope)``: for ``j = bisect_right(knots,
    x)``, C(x) = value[j] + slope[j] * (x - base[j]), constant beyond the
    end knots as with ``np.interp``.
    """
    g = [float(x) for x in g]
    C = [float(x) for x in C]
    if not g or len(g) != len(C):
        raise InputError("closure table needs matching, non-empty knot "
                         "and value columns")
    if not all(map(math.isfinite, g + C)):
        raise InputError("closure table knots and values must be finite")
    if any(b <= a for a, b in zip(g, g[1:])):
        raise InputError("closure table knots must be strictly increasing")
    # catlint: disable=CAT003 -- knots checked strictly increasing above
    slopes = [(c1 - c0) / (g1 - g0)
              for g0, g1, c0, c1 in zip(g, g[1:], C, C[1:])]
    return g, [g[0]] + g, [C[0]] + C, [0.0] + slopes + [0.0]


def _make_rhs(beta, Pr, table):
    """Float right-hand side ``rhs(f, f', tau, g, q) -> z'`` of the
    flux-form similarity system for the closure knot table ``(g, C)``,
    and the closure ``C(g)`` it reads.

    The state carries the shear flux tau = C f'' and the heat flux
    q = C g'/Pr in place of f'' and g', so (C f'')' and (C g'/Pr)' are
    components of the slope and only C(g) enters, never dC/dg: C is
    continuous at the knots, so the right-hand side is too.  The clips
    act on f, f', g (before C is read) and on f'' = tau/C and
    g' = Pr q/C.  ``closure`` clips g and floors C as ``rhs`` does, so
    ``closure(gw)`` is the C_w that maps the wall slopes to
    (tau(0), q(0)).
    """
    knots, base, value, slope = _knot_table(*table)
    f_lo, fp_lo, fpp_lo, g_lo, gp_lo = _CLIP_LO
    f_hi, fp_hi, fpp_hi, g_hi, gp_hi = _CLIP_HI
    rho_floor, c_floor = _RHO_RATIO_FLOOR, _C_FLOOR

    def closure(g):
        g = g_lo if g < g_lo else (g_hi if g > g_hi else g)
        j = bisect_right(knots, g)
        C = value[j] + slope[j] * (g - base[j])
        return c_floor if C < c_floor else C

    def rhs(f, fp, tau, g, q):
        f = f_lo if f < f_lo else (f_hi if f > f_hi else f)
        fp = fp_lo if fp < fp_lo else (fp_hi if fp > fp_hi else fp)
        g = g_lo if g < g_lo else (g_hi if g > g_hi else g)
        j = bisect_right(knots, g)
        C = value[j] + slope[j] * (g - base[j])
        if C < c_floor:
            C = c_floor
        fpp = tau / C
        fpp = fpp_lo if fpp < fpp_lo else (fpp_hi if fpp > fpp_hi else fpp)
        gp = Pr * q / C
        gp = gp_lo if gp < gp_lo else (gp_hi if gp > gp_hi else gp)
        # constant-pressure layer: rho_e/rho = h/h_e ~ g at a stagnation
        # point (u ~ 0 there, so static ~ total enthalpy)
        rho_ratio = rho_floor if g < rho_floor else g
        return (fp, fpp, -f * fpp - beta * (rho_ratio - fp * fp), gp,
                -f * gp)

    return rhs, closure


def _rms_scaled(v, y0, y1):
    """scipy's RMS error norm of ``v`` scaled by atol + rtol max(|y0|, |y1|)."""
    s = 0.0
    for vi, a, b in zip(v, y0, y1):
        e = vi / (_ATOL + max(abs(a), abs(b)) * _RTOL)
        s += e * e
    return math.sqrt(s) / 5 ** 0.5  # catlint: disable=CAT002 -- sum of squares


def _initial_step(rhs, y0, f0, t_end):
    """scipy's ``select_initial_step`` for RK45 (error order 4)."""
    d0 = _rms_scaled(y0, y0, y0)
    d1 = _rms_scaled(f0, y0, y0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(*[y + h0 * f for y, f in zip(y0, f0)])
    d2 = _rms_scaled([b - a for a, b in zip(f0, f1)], y0, y0) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end)


def _dopri45_end(rhs, y, t_end):
    """State at ``t_end`` of ``y' = rhs(*y)``, ``y(0) = y``, integrated
    with scipy's ``RK45`` rules (Dormand–Prince tableau, RMS error norm,
    0.9 safety with 0.2–10 step factors, initial-step rule) over Python
    floats.  Raises :class:`ConvergenceError` where ``solve_ivp`` would
    report failure (step size below ten ulps of t), and for a NaN step
    size, which no ``<`` comparison would stop."""
    # Scalar by design: on a shared 2-vCPU host the six stagnation-figs
    # BL solves take 2.5 s on float lists, 11.9 s as numpy (B, 5) rows,
    # 23.4 s through solve_ivp.  The state y, its slope f, the stages a-e
    # (scipy's k2-k6), the new state n and its slope g are unpacked
    # locals; each component keeps scipy's expression and association.
    y0, y1, y2, y3, y4 = y
    f0, f1, f2, f3, f4 = f = rhs(*y)
    h_abs = _initial_step(rhs, y, f, t_end)
    t = 0.0
    while t < t_end:
        # one ulp query per accepted step
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise ConvergenceError("BL integration failed")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            a0, a1, a2, a3, a4 = rhs(
                y0 + (_A21 * f0) * h, y1 + (_A21 * f1) * h,
                y2 + (_A21 * f2) * h, y3 + (_A21 * f3) * h,
                y4 + (_A21 * f4) * h)
            b0, b1, b2, b3, b4 = rhs(
                y0 + (_A31 * f0 + _A32 * a0) * h,
                y1 + (_A31 * f1 + _A32 * a1) * h,
                y2 + (_A31 * f2 + _A32 * a2) * h,
                y3 + (_A31 * f3 + _A32 * a3) * h,
                y4 + (_A31 * f4 + _A32 * a4) * h)
            c0, c1, c2, c3, c4 = rhs(
                y0 + (_A41 * f0 + _A42 * a0 + _A43 * b0) * h,
                y1 + (_A41 * f1 + _A42 * a1 + _A43 * b1) * h,
                y2 + (_A41 * f2 + _A42 * a2 + _A43 * b2) * h,
                y3 + (_A41 * f3 + _A42 * a3 + _A43 * b3) * h,
                y4 + (_A41 * f4 + _A42 * a4 + _A43 * b4) * h)
            d0, d1, d2, d3, d4 = rhs(
                y0 + (_A51 * f0 + _A52 * a0 + _A53 * b0 + _A54 * c0) * h,
                y1 + (_A51 * f1 + _A52 * a1 + _A53 * b1 + _A54 * c1) * h,
                y2 + (_A51 * f2 + _A52 * a2 + _A53 * b2 + _A54 * c2) * h,
                y3 + (_A51 * f3 + _A52 * a3 + _A53 * b3 + _A54 * c3) * h,
                y4 + (_A51 * f4 + _A52 * a4 + _A53 * b4 + _A54 * c4) * h)
            e0, e1, e2, e3, e4 = rhs(
                y0 + (_A61 * f0 + _A62 * a0 + _A63 * b0 + _A64 * c0
                      + _A65 * d0) * h,
                y1 + (_A61 * f1 + _A62 * a1 + _A63 * b1 + _A64 * c1
                      + _A65 * d1) * h,
                y2 + (_A61 * f2 + _A62 * a2 + _A63 * b2 + _A64 * c2
                      + _A65 * d2) * h,
                y3 + (_A61 * f3 + _A62 * a3 + _A63 * b3 + _A64 * c3
                      + _A65 * d3) * h,
                y4 + (_A61 * f4 + _A62 * a4 + _A63 * b4 + _A64 * c4
                      + _A65 * d4) * h)
            n0 = y0 + h * (_B1 * f0 + _B3 * b0 + _B4 * c0 + _B5 * d0
                           + _B6 * e0)
            n1 = y1 + h * (_B1 * f1 + _B3 * b1 + _B4 * c1 + _B5 * d1
                           + _B6 * e1)
            n2 = y2 + h * (_B1 * f2 + _B3 * b2 + _B4 * c2 + _B5 * d2
                           + _B6 * e2)
            n3 = y3 + h * (_B1 * f3 + _B3 * b3 + _B4 * c3 + _B5 * d3
                           + _B6 * e3)
            n4 = y4 + h * (_B1 * f4 + _B3 * b4 + _B4 * c4 + _B5 * d4
                           + _B6 * e4)
            g0, g1, g2, g3, g4 = rhs(n0, n1, n2, n3, n4)
            # scaled error components; max() keeps scipy's NaN order
            r0 = (_E1 * f0 + _E3 * b0 + _E4 * c0 + _E5 * d0 + _E6 * e0
                  + _E7 * g0) * h / (_ATOL + max(abs(y0), abs(n0)) * _RTOL)
            r1 = (_E1 * f1 + _E3 * b1 + _E4 * c1 + _E5 * d1 + _E6 * e1
                  + _E7 * g1) * h / (_ATOL + max(abs(y1), abs(n1)) * _RTOL)
            r2 = (_E1 * f2 + _E3 * b2 + _E4 * c2 + _E5 * d2 + _E6 * e2
                  + _E7 * g2) * h / (_ATOL + max(abs(y2), abs(n2)) * _RTOL)
            r3 = (_E1 * f3 + _E3 * b3 + _E4 * c3 + _E5 * d3 + _E6 * e3
                  + _E7 * g3) * h / (_ATOL + max(abs(y3), abs(n3)) * _RTOL)
            r4 = (_E1 * f4 + _E3 * b4 + _E4 * c4 + _E5 * d4 + _E6 * e4
                  + _E7 * g4) * h / (_ATOL + max(abs(y4), abs(n4)) * _RTOL)
            # catlint: disable=CAT002 -- sum of squares
            error_norm = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3
                                   + r4 * r4) / 5 ** 0.5
            if error_norm < 1.0:
                # catlint: disable=CAT010 -- scipy's exact-zero branch: an
                # exactly vanishing error estimate takes the largest step
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t = t_new
        y0, y1, y2, y3, y4 = n0, n1, n2, n3, n4
        f0, f1, f2, f3, f4 = g0, g1, g2, g3, g4
    return [y0, y1, y2, y3, y4]


def _safeguard_samples(y, table, Pr):
    """Samples of the flux-form profile ``y`` (5, n) = (f, f', tau, g, q)
    at which a clip or the rho_e/rho or C floor of the right-hand side
    is active; tau and q count through f'' = tau/C and g' = Pr q/C."""
    lo = np.array(_CLIP_LO, dtype=np.float64)[:, None]
    hi = np.array(_CLIP_HI, dtype=np.float64)[:, None]
    g = np.clip(y[3], lo[3], hi[3])
    C = np.interp(g, np.asarray(table[0], dtype=np.float64),
                  np.asarray(table[1], dtype=np.float64))
    Cf = np.maximum(C, _C_FLOOR)
    z = np.stack([y[0], y[1], y[2] / Cf, y[3], Pr * y[4] / Cf])
    active = (((z < lo) | (z > hi)).any(axis=0) | (g < _RHO_RATIO_FLOOR)
              | (C < _C_FLOOR))
    return int(np.count_nonzero(active))


def _profile(rhs, y0, table, Pr, fpp0, gp0, eta_max, n_eval=201):
    """The returned profile: one scipy integration from the flux-form
    start state ``y0`` of the converged slopes."""
    sol = solve_ivp(lambda t, z: rhs(*z.tolist()), (0.0, eta_max),
                    list(y0), method="RK45", rtol=_RTOL, atol=_ATOL,
                    t_eval=np.linspace(0.0, eta_max, n_eval))
    if not sol.success:
        raise ConvergenceError("BL integration failed")
    return BLSolution(eta=sol.t, f=sol.y[0], fp=sol.y[1], g=sol.y[3],
                      fpp0=fpp0, gp0=gp0,
                      safeguard_samples=_safeguard_samples(sol.y, table,
                                                           Pr))


def solve_falkner_skan(beta, *, Pr=0.71, gw=1.0, C_table=None,
                       eta_max=8.0, tol=1e-6, max_iter=60, _guess=None):
    """Shooting solution of the similarity system.

    ``beta = 0`` with C = 1, g = 1 reduces to Blasius; ``beta = 1/2`` is
    the axisymmetric stagnation point.  ``C_table = (g, C)`` gives the
    closure at strictly increasing knots g (linear between knots,
    constant beyond them); omitted, C = 1.  Strongly cooled real-gas
    walls (gw << 1, C far from 1) are reached by parameter continuation
    from an easy nearby problem when the direct shot fails.

    Returns a :class:`BLSolution`.
    """
    if not all(map(math.isfinite, (beta, Pr, gw, eta_max))):
        raise InputError("beta, Pr, gw and eta_max must be finite")
    table = _UNIT_TABLE if C_table is None else C_table
    try:
        return _shoot(beta, Pr, gw, table, eta_max, tol, max_iter, _guess)
    except ConvergenceError:
        # continuation: blend from (gw=0.8, C=1) toward the target
        g_k, C_k = np.asarray(table, dtype=np.float64)
        guess = None
        for w in (0.0, 0.3, 0.6, 0.85, 1.0):
            gw_k = 0.8 + w * (gw - 0.8)
            sol = _shoot(beta, Pr, gw_k, (g_k, (1.0 - w) + w * C_k),
                         eta_max, tol, max_iter, guess)
            guess = (sol.fpp0, sol.gp0)
        return sol


def _step(J, r1, r2):
    """The quasi-Newton step ``-J^-1 r``, or None for a singular J."""
    try:
        return np.linalg.solve(J, -np.array([r1, r2])).tolist()
    except np.linalg.LinAlgError:
        return None


def _shoot(beta, Pr, gw, table, eta_max, tol, max_iter, guess=None):
    """One direct shooting solve on (f''(0), g'(0)) by Broyden's method.

    Each iteration integrates once for the residual (f'(eta_max) - 1,
    g(eta_max) - 1) and stops when both parts are below ``tol``.  The
    first step takes a finite-difference Jacobian (two integrations);
    after a step that reduces max|r| the Jacobian gets Broyden's rank-one
    secant update on the step actually taken (after the step limit),
    J += (dr - J ds) ds^T / (ds^T ds), and after one that does not, or
    when the update leaves J singular, a fresh finite-difference Jacobian
    at the new point.  Only a singular finite-difference Jacobian raises.
    Without ``guess`` the start reads the empirical 0.47 + 0.62 beta and
    0.35 (1 - gw) as the wall fluxes C_w f''(0) = tau(0) and
    C_w g'(0) = Pr q(0), which leaves C = 1 where it was and starts a
    cold real-gas wall (C_w of 2-3) near its answer.
    """
    # Python floats throughout: numpy float64 scalars run the kernel ~2x
    # slower
    beta, Pr, gw, eta_max = float(beta), float(Pr), float(gw), float(eta_max)
    rhs, closure = _make_rhs(beta, Pr, table)
    Cw = closure(gw)

    def start(fpp0, gp0):
        # flux-form wall state: tau(0) = C_w f''(0), q(0) = C_w g'(0)/Pr
        return (0.0, 0.0, Cw * fpp0, gw, Cw * gp0 / Pr)

    def residual(fpp0, gp0):
        y = _dopri45_end(rhs, start(fpp0, gp0), eta_max)
        return y[1] - 1.0, y[3] - 1.0      # f'(inf) = 1, g(inf) = 1

    if guess is not None:
        fpp0, gp0 = (float(v) for v in guess)
    else:
        # empirical wall fluxes across the beta/cooling range
        fpp0 = (0.47 + 0.62 * beta) / Cw
        gp0 = max(0.35 * (1.0 - gw), 1e-4) / Cw
    J = None                   # taken by finite differences on first use
    for _ in range(max_iter):
        r1, r2 = residual(fpp0, gp0)
        if abs(r1) < tol and abs(r2) < tol:
            return _profile(rhs, start(fpp0, gp0), table, Pr, fpp0, gp0,
                            eta_max)
        step = None
        if J is not None and max(abs(r1), abs(r2)) < r_max:
            # Broyden's rank-one secant update on the step taken
            ds = np.array([ds1, ds2])
            J += np.outer(np.array([r1 - q1, r2 - q2]) - J @ ds,
                          ds) / (ds @ ds)
            step = _step(J, r1, r2)
        if step is None:
            # numerical Jacobian on the two shooting parameters
            d1, d2 = max(1e-6, 1e-4 * abs(fpp0)), max(1e-7, 1e-4 * abs(gp0))
            a1, a2 = residual(fpp0 + d1, gp0)
            b1, b2 = residual(fpp0, gp0 + d2)
            J = np.array([[(a1 - r1) / d1, (b1 - r1) / d2],
                          [(a2 - r2) / d1, (b2 - r2) / d2]])
            step = _step(J, r1, r2)
            if step is None:
                raise ConvergenceError("singular shooting Jacobian")
        lim = 0.5 * max(abs(fpp0), 0.2)
        ds1 = min(max(step[0], -lim), lim)
        ds2 = min(max(step[1], -lim), lim)
        fpp0 += ds1
        gp0 += ds2
        q1, q2, r_max = r1, r2, max(abs(r1), abs(r2))
    raise ConvergenceError("BL shooting failed to converge",
                           iterations=max_iter)


class StagnationSimilarityBL:
    """Axisymmetric stagnation-point boundary layer with a real-gas C(g).

    Parameters
    ----------
    h0e:
        Edge total enthalpy [J/kg].
    p_e:
        Edge (stagnation) pressure [Pa].
    rho_e, mu_e:
        Edge density and viscosity.
    rho_mu_table:
        ``(h, rho*mu)`` knots at constant p_e, h strictly increasing
        [J/kg]; rho*mu is linear between knots.  If omitted, the ideal
        Chapman C = 1 closure is used.
    Pr:
        Prandtl number.
    """

    BETA = 0.5

    def __init__(self, *, h0e, p_e, rho_e, mu_e, rho_mu_table=None,
                 Pr=0.71):
        if h0e <= 0 or p_e <= 0:
            raise InputError("h0e and p_e must be positive")
        self.h0e = h0e
        self.p_e = p_e
        self.rho_e = rho_e
        self.mu_e = mu_e
        self.Pr = Pr
        self._C_table = _UNIT_TABLE
        if rho_mu_table is not None:
            h, rm = (np.asarray(col, dtype=np.float64)
                     for col in rho_mu_table)
            rme = float(np.interp(h0e, h, rm))
            self._C_table = (h / h0e, rm / rme)

    def solve(self, hw, *, eta_max=8.0) -> BLSolution:
        """Solve for a wall enthalpy hw [J/kg]."""
        gw = hw / self.h0e
        if not (0.0 < gw < 1.0):
            raise InputError("wall enthalpy must be below edge total "
                             "enthalpy")
        return solve_falkner_skan(self.BETA, Pr=self.Pr, gw=gw,
                                  C_table=self._C_table, eta_max=eta_max)

    def heat_flux(self, hw, due_dx, *, solution: BLSolution | None = None):
        """Dimensional stagnation heat flux [W/m^2].

        q_w = (C_w / Pr) g'(0) h0e sqrt(2 due/dx rho_e mu_e)
        """
        sol = solution if solution is not None else self.solve(hw)
        gw = hw / self.h0e
        Cw = max(float(np.interp(max(gw, _CLIP_LO[3]), *self._C_table)),
                 _C_FLOOR)
        # catlint: disable=CAT002 -- rho_e, mu_e are a positive edge
        # state and due_dx a physical stagnation velocity gradient
        return (Cw / self.Pr) * sol.gp0 * self.h0e \
            * np.sqrt(2.0 * due_dx * self.rho_e * self.mu_e)
