"""One-dimensional post-shock thermochemical relaxation (Park's approach).

This is the paper's "first approach" to NS codes: a one-dimensional fluid
model carrying state-of-the-art real-gas physics, used to simulate shock-
tube experiments (Fig. 7) and, with the radiation module, emission spectra
(Fig. 8).

Model
-----
Steady flow normal to a standing shock.  Immediately behind the shock the
translational-rotational temperature jumps to its frozen value while the
composition and the vibrational-electronic pool remain at freestream
conditions.  Downstream, the inviscid conservation laws hold::

    rho u           = m0
    p + rho u^2     = P0
    h + u^2 / 2     = H0

while the species and vibrational-energy fields relax along x::

    d(y_s)/dx = w_s / (rho u)
    d(e_v)/dx = Q_v / (rho u)

with the Park two-temperature source terms.  At each station the algebraic
system above is closed for (u, rho, T) given (y, e_v); the resulting DAE
is integrated with a stiff BDF method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from repro.constants import R_UNIVERSAL
from repro.errors import ConvergenceError, InputError
from repro.numerics.interp import interp_columns
from repro.solvers.shock import frozen_post_shock_state
from repro.thermo.kinetics import ReactionMechanism, park_air_mechanism
from repro.thermo.species import SpeciesDB, species_set
from repro.thermo.two_temperature import TwoTemperatureGas

__all__ = ["ShockRelaxationSolver", "RelaxationProfile"]


@dataclass
class RelaxationProfile:
    """Post-shock relaxation solution along distance x."""

    x: np.ndarray            #: distance behind the shock [m]
    T: np.ndarray            #: translational-rotational temperature [K]
    Tv: np.ndarray           #: vibrational-electronic temperature [K]
    y: np.ndarray            #: mass fractions (nx, ns)
    rho: np.ndarray
    u: np.ndarray
    p: np.ndarray
    db: SpeciesDB

    @property
    def electron_number_density(self):
        """n_e [1/m^3] (zero when the set carries no electrons)."""
        from repro.constants import N_AVOGADRO
        if "e-" not in self.db:
            return np.zeros_like(self.x)
        j = self.db.index["e-"]
        return (self.rho * self.y[:, j] / self.db.molar_mass[j]
                * N_AVOGADRO)

    def station(self, x_query):
        """Interpolated state at one or more x positions (dict)."""
        xq = np.asarray(x_query, dtype=float)
        out = {"T": np.interp(xq, self.x, self.T),
               "Tv": np.interp(xq, self.x, self.Tv),
               "rho": np.interp(xq, self.x, self.rho),
               "u": np.interp(xq, self.x, self.u),
               "p": np.interp(xq, self.x, self.p)}
        out["y"] = interp_columns(xq, self.x, self.y)
        return out


class ShockRelaxationSolver:
    """Two-temperature post-normal-shock relaxation integrator."""

    def __init__(self, db: SpeciesDB | str = "air11",
                 mechanism: ReactionMechanism | None = None):
        self.db = db if isinstance(db, SpeciesDB) else species_set(db)
        self.tt = TwoTemperatureGas(self.db,
                                    mechanism or park_air_mechanism(self.db))

    # ------------------------------------------------------------------

    def _closure(self, y, ev, m0, P0, H0, u_guess):
        """Solve the algebraic conservation system for (u, rho, T, p).

        Subsonic (post-shock) branch Newton iteration on u.
        """
        R_mix = R_UNIVERSAL * float(np.add.reduce(y / self.db.molar_mass))
        # h_tr_rot is linear in T: h = sum y (hf + c T), with the
        # T-independent tr-rot cp c [J/kg/K]
        hf = float(np.add.reduce(y * self.db.hf0_mass))
        c = float(np.add.reduce(y * self.tt.thermo.cp_tr_rot_mass()))

        def T_of_u(u):
            # h = h_tr_rot(T, y) + ev_pool; energy: h = H0 - u^2/2
            h_tr_target = H0 - 0.5 * u * u - ev
            return (h_tr_target - hf) / c

        u = float(u_guess)
        for _ in range(80):
            T = T_of_u(u)
            if T <= 0:
                u *= 0.7
                continue
            rho = m0 / u
            p = rho * R_mix * T
            F = p + m0 * u - P0
            # dF/du = d(rho R T)/du + m0; rho=m0/u, dT/du = -u/c
            dT_du = -u / c
            dF = (-m0 / u**2) * R_mix * T + (m0 / u) * R_mix * dT_du + m0
            du = -F / dF
            u_new = u + np.minimum(np.maximum(du, -0.4 * u), 0.4 * u)
            if abs(u_new - u) < 1e-12 * max(u, 1.0):
                u = u_new
                break
            u = u_new
        T = T_of_u(u)
        rho = m0 / u
        return u, rho, T, rho * R_mix * T

    # ------------------------------------------------------------------

    def solve(self, *, u1, p1, T1, y1=None, x_end=0.1, n_out=400,
              rtol=1e-8, atol=1e-11, resilience=None) -> RelaxationProfile:
        """Integrate the relaxation zone behind a normal shock.

        Parameters
        ----------
        u1, p1, T1:
            Upstream (shock-frame) speed [m/s], pressure [Pa] and
            temperature [K].
        y1:
            Upstream mass fractions (defaults to 0.767/0.233 air over the
            solver's species set).
        x_end:
            Integration distance behind the shock [m].
        resilience:
            When set (truthy), a failed stiff integration is retried
            through a bounded tolerance/method ladder (looser rtol/atol,
            then LSODA) before giving up; the final failure carries a
            :class:`~repro.resilience.FailureReport`.
        """
        db = self.db
        if y1 is None:
            y1 = np.zeros(db.n, dtype=np.float64)
            y1[db.index["N2"]] = 0.767
            y1[db.index["O2"]] = 0.233
        y1 = np.asarray(y1, dtype=float)
        if abs(y1.sum() - 1.0) > 1e-8:
            raise InputError("upstream mass fractions must sum to 1")
        R1 = R_UNIVERSAL * float(np.sum(y1 / db.molar_mass))
        rho1 = p1 / (R1 * T1)
        # frozen jump with tr-rot caloric gamma (vibration frozen)
        cp_tr = float(np.sum(y1 * self.tt.thermo.cp_tr_rot_mass()))
        # catlint: disable=CAT003 -- cp_tr = cv + R1 > R1 for any
        # species set (translational cv >= 1.5 R)
        gamma_fr = cp_tr / (cp_tr - R1)
        post = frozen_post_shock_state(rho1, T1, u1, gamma=gamma_fr, R=R1)
        # conserved totals from the upstream state
        m0 = rho1 * u1
        P0 = p1 + rho1 * u1**2
        hf = float(np.sum(y1 * db.hf0_mass))
        ev1 = float(self.tt.e_vib_el(np.array(T1), y1[None, :])[0])
        h1 = hf + cp_tr * T1 + ev1
        H0 = h1 + 0.5 * u1**2

        ns = db.n
        # the last RHS's u and Tv start the next RHS's closure and Tv
        # Newton; ``integrate`` sets them to the shock state
        warm = {}

        def rhs(x, z):
            y = np.minimum(np.maximum(z[:ns], 0.0), 1.0)
            ev = z[ns]
            u, rho, T, p = self._closure(y, ev, m0, P0, H0, warm["u"])
            # the Newton hands ``sources`` its e_v,s at the Tv it returns
            pool = {}
            Tv = float(self.tt.Tv_from_ev(np.array(ev), y[None, :],
                                          Tv_guess=warm["Tv"],
                                          pool=pool)[0])
            warm["u"], warm["Tv"] = u, Tv
            w, qv = self.tt.sources(np.array(rho), np.array(T),
                                    np.array(Tv), y[None, :], pool=pool)
            dz = np.empty(ns + 1, dtype=np.float64)
            dz[:ns] = w[0] / (rho * u)
            dz[ns] = qv[0] / (rho * u)
            return dz

        z0 = np.concatenate([y1, [ev1]])
        x_eval = np.geomspace(max(x_end * 1e-5, 1e-8), x_end, n_out)
        x_eval = np.concatenate([[0.0], x_eval])

        def integrate(rtol=rtol, atol=atol, method="BDF"):
            # the frozen jump's u and T1 (the pool is still at the
            # freestream state), on every attempt, so that a retry rung's
            # answer does not depend on where a failed attempt stopped
            warm.update(u=post["u2"], Tv=T1)
            out = solve_ivp(rhs, (0.0, x_end), z0, method=method,
                            rtol=rtol, atol=atol, t_eval=x_eval,
                            dense_output=False)
            if not out.success:
                raise ConvergenceError(f"relaxation integration failed: "
                                       f"{out.message}")
            return out

        if resilience:
            from repro.resilience import supervised_call
            # bounded retry ladder: loosen the tolerances (the usual fix
            # for a BDF stall on a stiff ignition front), then switch the
            # stiff method entirely.
            sol = supervised_call(
                integrate, label="shock_relaxation",
                ladder=[{"rtol": max(rtol, 1e-8) * 100,
                         "atol": max(atol, 1e-11) * 100},
                        {"rtol": 1e-5, "atol": 1e-8, "method": "LSODA"}],
                config={"u1": float(u1), "p1": float(p1),
                        "T1": float(T1), "x_end": float(x_end)})
        else:
            sol = integrate()
        # recover algebraic fields along the trajectory
        nx = sol.t.size
        T = np.empty(nx, dtype=np.float64)
        Tv = np.empty(nx, dtype=np.float64)
        rho = np.empty(nx, dtype=np.float64)
        u = np.empty(nx, dtype=np.float64)
        p = np.empty(nx, dtype=np.float64)
        y_out = np.empty((nx, ns), dtype=np.float64)
        # each station starts from the previous one's u and Tv
        u_i, Tv_i = post["u2"], T1
        for i in range(nx):
            y = np.minimum(np.maximum(sol.y[:ns, i], 0.0), 1.0)
            ev = sol.y[ns, i]
            u_i, rho_i, T_i, p_i = self._closure(y, ev, m0, P0, H0, u_i)
            Tv_i = float(self.tt.Tv_from_ev(np.array(ev), y[None, :],
                                            Tv_guess=Tv_i)[0])
            T[i], Tv[i], rho[i], u[i], p[i] = T_i, Tv_i, rho_i, u_i, p_i
            y_out[i] = y
        return RelaxationProfile(x=sol.t, T=T, Tv=Tv, y=y_out, rho=rho,
                                 u=u, p=p, db=db)
