"""Parabolized windward-heating solver (the PNS role, Fig. 6).

The production PNS codes (Prabhu & Tannehill, Gnoffo) space-march the
parabolized Navier–Stokes equations down the body once a blunt-nose
starting solution exists.  This implementation reproduces the same
pipeline at the engineering-PNS level used for windward-centerline heating
on the equivalent-axisymmetric Orbiter profile:

1. **Starting (nose) solution** — equilibrium (or ideal-gas) normal shock
   and stagnation state, similarity viscous solution -> q_stag.
2. **Streamwise march** — at each arc station the edge state comes from
   the modified-Newtonian surface pressure and an isentropic expansion
   from the stagnation state (the blunt-body "swallowed" entropy layer);
   for the equilibrium gas the expansion runs through the Gibbs solver,
   for the ideal gas (the paper's gamma = 1.2 comparison curve) it is
   closed form.
3. **Heating distribution** — Lees local similarity over the marched edge
   states, with the catalytic-wall factor applied to the chemical part of
   the equilibrium heating.  One march serves several catalytic
   efficiencies: only this last factor depends on the wall.

Outputs q(x/L), the Fig. 6 ordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConvergenceError, InputError
from repro.geometry.bodies import AxisymBody
from repro.heating.catalysis import catalytic_factor
from repro.heating.fay_riddell import newtonian_velocity_gradient
from repro.heating.lees import lees_distribution
from repro.solvers.boundary_layer import StagnationSimilarityBL
from repro.solvers.shock import (_solve_T_of_h_p, equilibrium_normal_shock,
                                 normal_shock_ideal)
from repro.thermo.equilibrium import EquilibriumGas
from repro.transport.properties import TransportModel
from repro.transport.viscosity import sutherland_viscosity

__all__ = ["WindwardHeatingPNS", "PNSResult"]


@dataclass
class PNSResult:
    """Marched windward-heating solution."""

    s: np.ndarray          #: arc stations [m]
    x_over_L: np.ndarray   #: normalised axial stations
    q: np.ndarray          #: wall heat flux [W/m^2]
    q_stag: float          #: stagnation value [W/m^2]
    p_e: np.ndarray        #: edge pressure [Pa]
    u_e: np.ndarray        #: edge velocity [m/s]
    T_e: np.ndarray        #: edge temperature [K]
    mode: str              #: "equilibrium" or "ideal"
    #: stations whose isentropic-expansion inversion needed the
    #: continuation fallback (resilient marches only; empty otherwise)
    degraded_stations: list = field(default_factory=list)


class WindwardHeatingPNS:
    """Space-marching windward-centerline heating solver.

    Parameters
    ----------
    body:
        Axisymmetric-equivalent windward body (e.g.
        :class:`~repro.geometry.orbiter.OrbiterWindwardProfile`).
    gas:
        :class:`EquilibriumGas` for the real-gas mode, or ``None`` with
        ``gamma`` set for the ideal-gas mode.
    gamma:
        Ideal-gas ratio of specific heats (the paper compares
        gamma = 1.2).
    """

    def __init__(self, body: AxisymBody, *, gas: EquilibriumGas | None =
                 None, gamma: float = 1.2, R: float = 287.0528,
                 prandtl: float = 0.71):
        self.body = body
        self.gas = gas
        self.gamma = gamma
        self.R = R
        self.prandtl = prandtl
        if gas is not None:
            self.transport = TransportModel(gas.db)
        self.mode = "equilibrium" if gas is not None else "ideal"

    # ------------------------------------------------------------------

    def solve(self, *, rho_inf, T_inf, V, T_wall=1200.0, n_stations=60,
              catalytic_phi=1.0, resilience=None
              ) -> PNSResult | tuple[PNSResult, ...]:
        """March the windward ray for one flight condition.

        ``catalytic_phi`` is the wall's catalytic efficiency in [0, 1]
        (:func:`~repro.heating.catalysis.catalytic_factor`; the ideal
        mode ignores it).  A tuple of efficiencies returns a tuple of
        :class:`PNSResult`, one per efficiency in the given order, from
        one stagnation solve and one march; a number returns one result.

        With ``resilience`` truthy, a station whose equilibrium
        isentropic-expansion inversion fails is recovered by continuation
        from the previous station's edge state, and reads that station's
        heating, instead of aborting the march; recovered stations are
        listed in ``PNSResult.degraded_stations``.  Without it the
        :class:`ConvergenceError` is raised, enriched with a
        :class:`~repro.resilience.FailureReport` naming the station.
        """
        if V <= 0:
            raise InputError("V must be positive")
        phis = (catalytic_phi if isinstance(catalytic_phi, tuple)
                else (catalytic_phi,))
        if not phis or not all(0.0 <= phi <= 1.0 for phi in phis):
            raise InputError("catalytic_phi must lie in [0, 1]")
        body = self.body
        s = np.linspace(0.0, body.s_max * 0.98, n_stations)
        theta = body.angle(s)
        _, r = body.point(s)
        p_inf = rho_inf * self.R * T_inf
        q_dyn = 0.5 * rho_inf * V * V

        if self.mode == "equilibrium":
            stag = self._stagnation_equilibrium(rho_inf, T_inf, V, T_wall)
        else:
            stag = self._stagnation_ideal(rho_inf, T_inf, V, T_wall)
        # modified-Newtonian surface pressure
        cp_max = (stag["p_stag"] - p_inf) / q_dyn
        p_e = np.maximum(p_inf + cp_max * q_dyn * np.sin(theta) ** 2,
                         1.01 * p_inf)
        degraded: list[int] = []
        if self.mode == "equilibrium":
            T_e, rho_e, u_e, mu_e = self._expand_equilibrium(
                stag, p_e, resilience=resilience, degraded=degraded)
        else:
            T_e, rho_e, u_e, mu_e = self._expand_ideal(stag, p_e)
        # Lees distribution normalised at the stagnation point
        ratio = lees_distribution(s, np.maximum(r, 1e-9), rho_e, mu_e,
                                  u_e, stag["due_dx"])
        # a degraded station reads its upstream neighbour's heating: the
        # carried edge state alone would give station 1 the stagnation
        # point's u_e ≈ 0, and so q ≈ 0
        for i in degraded:
            if i:
                ratio[i] = ratio[i - 1]
        q_fc = stag["q_stag"] * ratio
        x_over_L = (body.point(s)[0]
                    / (getattr(body, "length", None) or body.point(
                        np.array([body.s_max]))[0][0]))
        results = []
        for phi in phis:        # each result owns its arrays
            if self.mode == "equilibrium" and phi < 1.0:
                q = q_fc * catalytic_factor(stag["h_diss"], stag["h0"], phi)
            else:
                q = q_fc.copy()
            results.append(PNSResult(
                s=s.copy(), x_over_L=np.array(x_over_L), q=q,
                q_stag=stag["q_stag"], p_e=p_e.copy(), u_e=u_e.copy(),
                T_e=T_e.copy(), mode=self.mode,
                degraded_stations=list(degraded)))
        return (tuple(results) if isinstance(catalytic_phi, tuple)
                else results[0])

    # ------------------------------------------------------------------
    # stagnation starting solutions
    # ------------------------------------------------------------------

    def _stagnation_ideal(self, rho_inf, T_inf, V, T_wall):
        g = self.gamma
        # catlint: disable=CAT002 -- freestream T_inf > 0, g/R positive
        a_inf = np.sqrt(g * self.R * T_inf)
        M = V / a_inf
        ns = normal_shock_ideal(M, g)
        p_inf = rho_inf * self.R * T_inf
        # Rayleigh pitot stagnation state
        from repro.solvers.shock import isentropic_ratios
        p_stag = p_inf * ns["p_ratio"] * isentropic_ratios(
            ns["M2"], g)["p0_p"]
        cp = g * self.R / (g - 1.0)  # catlint: disable=CAT003 -- g > 1 for the ideal mode
        T0 = T_inf * (1.0 + 0.5 * (g - 1.0) * M * M)
        rho_stag = p_stag / (self.R * T0)
        mu_stag = sutherland_viscosity(T0)
        h0 = cp * T0
        hw = cp * T_wall
        K = newtonian_velocity_gradient(self.body.nose_radius, p_stag,
                                        p_inf, rho_stag)
        bl = StagnationSimilarityBL(h0e=h0, p_e=p_stag, rho_e=rho_stag,
                                    mu_e=mu_stag, Pr=self.prandtl)
        q_stag = float(bl.heat_flux(hw, K))
        return {"p_stag": float(p_stag), "T0": float(T0), "h0": float(h0),
                "rho_stag": float(rho_stag), "due_dx": float(K),
                "q_stag": q_stag, "h_diss": 0.0,
                "s_stag": None}

    def _stagnation_equilibrium(self, rho_inf, T_inf, V, T_wall):
        gas = self.gas
        shock = equilibrium_normal_shock(gas, rho_inf, T_inf, V)
        h0 = shock["h1"] + 0.5 * V**2
        p_stag = shock["p2"] + shock["rho2"] * shock["u2"] ** 2
        T0, y0, rho0 = _solve_T_of_h_p(gas, h0, p_stag, shock["T2"])
        rho0 = float(rho0)
        mu0 = float(self.transport.viscosity(np.array(T0), y0))
        # dissociation enthalpy content of the stagnation gas
        h_diss = float(np.sum(np.asarray(y0) * gas.db.hf0_mass))
        # rho*mu closure table for the similarity solve
        T_tab = np.geomspace(max(0.4 * T_wall, 150.0), 1.1 * T0, 40)
        y_tab, rho_tab = gas.composition_T_p(
            T_tab, np.full_like(T_tab, p_stag))
        h_tab = gas.mix.h_mass(T_tab, y_tab)
        rm_tab = rho_tab * self.transport.viscosity(T_tab, y_tab)
        idx = np.argsort(h_tab)
        y_w, _ = gas.composition_T_p(np.array(float(T_wall)),
                                     np.array(float(p_stag)))
        hw = float(gas.mix.h_mass(np.array(float(T_wall)), y_w))
        p_inf = float(gas.mix.pressure(np.array(rho_inf),
                                       np.array(T_inf), gas.y_ref))
        K = newtonian_velocity_gradient(self.body.nose_radius, p_stag,
                                        p_inf, rho0)
        bl = StagnationSimilarityBL(h0e=h0, p_e=p_stag, rho_e=rho0,
                                    mu_e=mu0,
                                    rho_mu_table=(h_tab[idx], rm_tab[idx]),
                                    Pr=self.prandtl)
        q_stag = float(bl.heat_flux(hw, K))
        s_stag = float(gas.mix.s_mass(np.array(T0), np.array(p_stag),
                                      y0))
        return {"p_stag": float(p_stag), "T0": float(T0), "h0": float(h0),
                "rho_stag": rho0, "due_dx": float(K), "q_stag": q_stag,
                "h_diss": h_diss, "s_stag": s_stag}

    # ------------------------------------------------------------------
    # edge expansions
    # ------------------------------------------------------------------

    def _expand_ideal(self, stag, p_e):
        g = self.gamma
        pr = np.clip(p_e / stag["p_stag"], 1e-6, 1.0)
        T_e = stag["T0"] * pr ** ((g - 1.0) / g)
        rho_e = p_e / (self.R * T_e)
        cp = g * self.R / (g - 1.0)  # catlint: disable=CAT003 -- g > 1 for the ideal mode
        u_e = np.sqrt(np.maximum(2.0 * cp * (stag["T0"] - T_e), 0.0))
        return T_e, rho_e, u_e, sutherland_viscosity(T_e)

    def _expand_equilibrium(self, stag, p_e, *, resilience=None,
                            degraded=None):
        """Isentropic equilibrium expansion from the stagnation state.

        For each edge pressure find T with s(T, p_e) = s_stag (bracketed
        secant on the monotone entropy), then the velocity from the
        enthalpy deficit.  This is the PNS space march: each station's
        solve warm-starts from the previous one, and under ``resilience``
        a failed station (recorded in ``degraded``) carries its upstream
        neighbour's edge state — T, ρ_e, u_e and μ_e at its own p_e — so
        the march survives (and :meth:`solve` gives the station its
        neighbour's heating).

        ``held`` is the (p, T, s) of the last entropy evaluation, first
        the stagnation state's: a station that starts at that very
        (p, T) takes its s instead of solving the state again.
        """
        gas = self.gas
        degraded = [] if degraded is None else degraded
        T_e = np.empty_like(p_e)
        T_guess = stag["T0"]
        held = (stag["p_stag"], stag["T0"], stag["s_stag"])
        for i, p in enumerate(p_e):
            p, T_start = float(p), min(T_guess, stag["T0"])
            try:
                T_guess, s = self._T_of_s_p(
                    stag["s_stag"], p, T_start,
                    s_guess=held[2] if held[:2] == (p, T_start) else None)
                held = (p, T_guess, s)
            except ConvergenceError as err:
                if not resilience:
                    from repro.resilience import FailureReport
                    err.report = FailureReport(
                        label="pns", error=str(err), step=i,
                        config={"station": i, "p_e": p,
                                "T_guess": float(T_guess),
                                "s_stag": float(stag["s_stag"]),
                                "mode": self.mode})
                    raise
                # continuation fallback: carry the upstream edge state
                degraded.append(i)
            T_e[i] = T_guess
        y_e, rho_e = gas.composition_T_p(T_e, p_e)
        rho_e = np.asarray(rho_e)
        h_e = gas.mix.h_mass(T_e, y_e)
        u_e = np.sqrt(np.maximum(2.0 * (stag["h0"] - h_e), 0.0))
        mu_e = self.transport.viscosity(T_e, y_e)
        # T0 at a degraded station's own, lower p_e gives h_e >= h0 and
        # u_e = 0; station 0 has no upstream station and keeps its own
        for i in degraded:
            if i:
                for f in (rho_e, u_e, mu_e):
                    f[i] = f[i - 1]
        return T_e, rho_e, u_e, mu_e

    def _T_of_s_p(self, s_target, p, T_guess, *, s_guess=None, tol=1e-9,
                  max_iter=60):
        """Invert s_eq(T, p) = s_target for T (bracketed secant).

        ``s_guess``, when given, must be s_eq(T_guess, p) as this method
        computes it; it stands in for the first entropy evaluation.
        Returns ``(T, s)`` with s = s_eq(T, p), the last evaluation.
        """
        gas = self.gas
        T = float(T_guess)
        T_lo, T_hi = 100.0, 5.0e4

        def s_of(T):
            y, _ = gas.composition_T_p(np.array(T), np.array(p))
            return float(gas.mix.s_mass(np.array(T), np.array(p), y))

        s = s_of(T) if s_guess is None else s_guess
        f = s - s_target
        for _ in range(max_iter):
            if abs(f) < tol * abs(s_target):
                return T, s
            if f > 0:
                T_hi = T
            else:
                T_lo = T
            dT = max(1e-3 * T, 0.5)
            slope = (s_of(T + dT) - (f + s_target)) / dT
            T_new = T - f / max(slope, 1e-6)
            if not (T_lo < T_new < T_hi):
                T_new = 0.5 * (T_lo + T_hi)
            T = T_new
            s = s_of(T)
            f = s - s_target
        raise ConvergenceError("T(s, p) inversion failed",
                               iterations=max_iter)
