"""Viscous-shock-layer stagnation solution (the RASLE/HYVIS/COLTS role).

The VSL codes were "the major tools for providing aerothermal flowfield
environments for the windward forebody shock-layer region" — equilibrium
chemistry, radiation transport by tangent slab, convective heating from
the viscous sublayer.  This solver assembles exactly that stack for the
stagnation streamline of an axisymmetric forebody:

1. equilibrium normal shock at the flight condition (shock slip ignored),
2. stagnation-region edge state behind the shock (Rayleigh-pitot-like
   compression to the stagnation pressure, at constant total enthalpy),
3. Lees–Dorodnitsyn similarity solution of the viscous sublayer with the
   real-gas C(h) = (rho mu)/(rho mu)_e closure -> convective flux,
4. shock-layer temperature/species profiles: the viscous-layer enthalpy
   profile blended into the uniform inviscid layer, all states from the
   Gibbs equilibrium solver at the stagnation pressure (-> Fig. 3),
5. tangent-slab radiative flux over the profile (-> Fig. 2), including
   optional radiation-energy-loss cooling of the layer (one-pass
   correction).

Outputs the stagnation convective and radiative heat fluxes plus the
resolved profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CatError, InputError
from repro.heating.fay_riddell import newtonian_velocity_gradient
from repro.numerics.interp import interp_columns
from repro.radiation.spectra import EmissionModel
from repro.radiation.tangent_slab import tangent_slab_flux
from repro.solvers.boundary_layer import StagnationSimilarityBL
from repro.solvers.shock import equilibrium_normal_shock
from repro.thermo.equilibrium import EquilibriumGas
from repro.transport.properties import TransportModel

__all__ = ["StagnationVSL", "VSLSolution"]


@dataclass
class VSLSolution:
    """Stagnation-line VSL solution."""

    q_conv: float                 #: convective wall flux [W/m^2]
    q_rad: float                  #: radiative wall flux [W/m^2]
    standoff: float               #: shock standoff [m]
    y: np.ndarray                 #: distance from wall [m]
    T: np.ndarray                 #: temperature profile [K]
    h: np.ndarray                 #: static enthalpy profile [J/kg]
    composition: np.ndarray       #: equilibrium mass fractions (ny, ns)
    p_stag: float                 #: stagnation pressure [Pa]
    shock: dict = field(default_factory=dict)
    q_rad_spectrum: np.ndarray | None = None
    wavelengths: np.ndarray | None = None

    def mole_fractions(self, db):
        return db.mass_to_mole(np.maximum(self.composition, 1e-30))


class StagnationVSL:
    """Equilibrium viscous-shock-layer solver for a blunt forebody."""

    def __init__(self, gas: EquilibriumGas, *, nose_radius: float,
                 lewis: float = 1.4, prandtl: float = 0.71,
                 include_lines: bool = True):
        if nose_radius <= 0:
            raise InputError("nose radius must be positive")
        self.gas = gas
        self.db = gas.db
        self.rn = nose_radius
        self.prandtl = prandtl
        self.transport = TransportModel(self.db, lewis=lewis)
        self.emission = EmissionModel(self.db,
                                      include_lines=include_lines)

    # ------------------------------------------------------------------

    def solve(self, *, rho_inf, T_inf, V, T_wall=1500.0,
              n_profile=80, radiative_cooling=True,
              lambda_range=(0.2e-6, 1.2e-6), n_lambda=400) -> VSLSolution:
        """Solve the stagnation shock layer for one flight condition.

        Parameters
        ----------
        rho_inf, T_inf, V:
            Freestream density [kg/m^3], temperature [K], speed [m/s].
        T_wall:
            Wall temperature [K].
        radiative_cooling:
            Apply the one-pass energy-loss correction: the layer enthalpy
            is reduced by the radiated energy per unit mass transit.

        Any toolkit failure inside the stack (shock solve, Gibbs
        equilibrium, similarity shoot, radiation) is re-raised with a
        :class:`~repro.resilience.FailureReport` attached carrying the
        flight condition — the diagnostic bundle production triage
        starts from.
        """
        try:
            return self._solve_impl(
                rho_inf=rho_inf, T_inf=T_inf, V=V, T_wall=T_wall,
                n_profile=n_profile, radiative_cooling=radiative_cooling,
                lambda_range=lambda_range, n_lambda=n_lambda)
        except CatError as err:
            if err.report is None:
                from repro.resilience import FailureReport
                err.report = FailureReport(
                    label="vsl", error=str(err),
                    config={"rho_inf": float(rho_inf),
                            "T_inf": float(T_inf), "V": float(V),
                            "T_wall": float(T_wall),
                            "nose_radius": float(self.rn),
                            "n_profile": int(n_profile)})
            raise

    def _solve_impl(self, *, rho_inf, T_inf, V, T_wall, n_profile,
                    radiative_cooling, lambda_range, n_lambda):
        gas = self.gas
        shock = equilibrium_normal_shock(gas, rho_inf, T_inf, V)
        h0 = shock["h1"] + 0.5 * V**2
        p_stag = shock["p2"] + shock["rho2"] * shock["u2"] ** 2
        # stagnation-edge state at (h0, p_stag)
        from repro.solvers.shock import _solve_T_of_h_p
        T_e, y_e, rho_e = _solve_T_of_h_p(gas, h0, p_stag, shock["T2"])
        rho_e = float(rho_e)
        mu_e = float(self.transport.viscosity(np.array(T_e), y_e))
        # shock standoff from the density-ratio correlation
        eps = shock["eps"]
        standoff = 0.78 * self.rn * eps

        # ---- viscous sublayer (similarity) ----
        # tabulate the equilibrium (rho mu)(h) closure at p_stag once; the
        # shooting iteration then interpolates (thousands of evaluations)
        h_w = float(self._wall_enthalpy(T_wall, p_stag))
        T_tab = np.geomspace(max(0.5 * T_wall, 150.0), 1.15 * T_e, 48)
        y_tab, rho_tab = gas.composition_T_p(T_tab,
                                             np.full_like(T_tab, p_stag))
        h_tab = gas.mix.h_mass(T_tab, y_tab)
        mu_tab = self.transport.viscosity(T_tab, y_tab)
        rm_tab = rho_tab * mu_tab
        order = np.argsort(h_tab)
        h_tab, rm_tab = h_tab[order], rm_tab[order]

        K = newtonian_velocity_gradient(self.rn, p_stag, 0.0, rho_e)
        bl = StagnationSimilarityBL(h0e=h0, p_e=p_stag, rho_e=rho_e,
                                    mu_e=mu_e,
                                    rho_mu_table=(h_tab, rm_tab),
                                    Pr=self.prandtl)
        sol = bl.solve(h_w)
        q_conv = float(bl.heat_flux(h_w, K, solution=sol))

        # ---- physical profile across the layer ----
        # transform eta -> y in the sublayer, then extend uniformly to the
        # shock; the (h -> T) inversion reuses the closure table
        T_of_h = lambda h: np.interp(h, h_tab, T_tab[order])  # noqa: E731
        h_eta = np.maximum(sol.g, 1e-3) * h0
        T_eta = T_of_h(h_eta)
        y_eta, rho_eta = gas.composition_T_p(T_eta,
                                             np.full_like(T_eta, p_stag))
        # catlint: disable=CAT002 -- positive edge state over a
        # positive stagnation velocity gradient
        dy = np.sqrt(rho_e * mu_e / (2.0 * K)) / rho_eta
        y_phys = np.concatenate(([0.0],
                                 np.cumsum(0.5 * (dy[1:] + dy[:-1])
                                           * np.diff(sol.eta))))
        # compose with the uniform inviscid outer layer
        if y_phys[-1] < standoff:
            y_full = np.concatenate([y_phys,
                                     np.linspace(y_phys[-1], standoff,
                                                 12)[1:]])
            T_full = np.concatenate([T_eta,
                                     np.full(11, T_eta[-1], dtype=np.float64)])
            comp_full = np.concatenate([y_eta,
                                        np.repeat(y_eta[-1:], 11,
                                                  axis=0)])
        else:
            y_full, T_full, comp_full = y_phys, T_eta, y_eta
        # downsample to n_profile points
        yq = np.linspace(0.0, y_full[-1], n_profile)
        T_prof = np.interp(yq, y_full, T_full)
        comp_prof = interp_columns(yq, y_full, comp_full)
        h_prof = np.interp(yq, y_full, np.concatenate(
            [h_eta, np.full(len(y_full) - len(h_eta), h_eta[-1], dtype=np.float64)]))

        # ---- radiation ----
        lam = np.linspace(*lambda_range, n_lambda)
        _, rho_prof = gas.composition_T_p(T_prof,
                                          np.full_like(T_prof, p_stag))
        n_dens = self.emission.number_densities(rho_prof, comp_prof)
        j_lam = self.emission.emission_coefficient(lam, n_dens, T_prof)
        q_rad, q_lam = tangent_slab_flux(yq, j_lam, T_prof, lam)
        if radiative_cooling and q_rad > 0:
            # one-pass cooling: compare radiated power to enthalpy inflow
            flux_in = rho_inf * V * (h0 - h_prof[0])
            loss = min(0.5, 2.0 * q_rad / max(flux_in, 1e-30))
            q_rad *= (1.0 - loss)
            q_lam = q_lam * (1.0 - loss)
        return VSLSolution(q_conv=q_conv, q_rad=float(q_rad),
                           standoff=standoff, y=yq, T=T_prof, h=h_prof,
                           composition=comp_prof, p_stag=float(p_stag),
                           shock=shock, q_rad_spectrum=q_lam,
                           wavelengths=lam)

    def _wall_enthalpy(self, T_wall, p):
        """Equilibrium wall enthalpy at (T_wall, p)."""
        y_w, _ = self.gas.composition_T_p(np.array(float(T_wall)),
                                          np.array(float(p)))
        return self.gas.mix.h_mass(np.array(float(T_wall)), y_w)
