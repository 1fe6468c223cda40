"""Fig. 6 — Windward centerline heating comparison (the Ref. 20 result).

STS-3 trajectory point: V = 6.74 km/s, h = 71.3 km, alpha = 40 deg.
Curves: equilibrium air (fully catalytic), ideal gas gamma = 1.2, a
partially catalytic equilibrium variant, and the synthetic STS-3 flight
data overlay (see repro.experiments.data).  The two equilibrium curves
differ only in the wall's catalytic factor, so one march gives both.
"""

from __future__ import annotations

import numpy as np

from repro.atmosphere import EarthAtmosphere
from repro.experiments.data import STS3_SYNTHETIC
from repro.geometry import OrbiterWindwardProfile
from repro.postprocess.ascii_plot import ascii_plot
from repro.postprocess.tables import format_table
from repro.solvers.pns import WindwardHeatingPNS
from repro.thermo.equilibrium import (EquilibriumGas,
                                      air_reference_mass_fractions)
from repro.thermo.species import species_set

__all__ = ["run", "main", "CONDITION"]

#: The STS-3 trajectory point of Fig. 6.
CONDITION = dict(V=6740.0, h=71300.0, alpha_deg=40.0, T_wall=1100.0)


def run(quick: bool = False) -> dict:
    atm = EarthAtmosphere()
    rho = float(atm.density(CONDITION["h"]))
    T = float(atm.temperature(CONDITION["h"]))
    body = OrbiterWindwardProfile(alpha_deg=CONDITION["alpha_deg"],
                                  nose_radius=1.3)
    n_st = 30 if quick else 60
    db = species_set("air11")
    gas = EquilibriumGas(db, air_reference_mass_fractions(db))
    eq, partial = WindwardHeatingPNS(body, gas=gas).solve(
        rho_inf=rho, T_inf=T, V=CONDITION["V"],
        T_wall=CONDITION["T_wall"], n_stations=n_st,
        catalytic_phi=(1.0, 0.15))
    ideal = WindwardHeatingPNS(body, gamma=1.2).solve(
        rho_inf=rho, T_inf=T, V=CONDITION["V"],
        T_wall=CONDITION["T_wall"], n_stations=n_st)
    # interpolate the computed curves onto the synthetic flight abscissae
    xd = STS3_SYNTHETIC["x_over_L"]
    comparison = {
        "x_over_L": xd,
        "flight": STS3_SYNTHETIC["q_w_cm2"],
        "equilibrium": np.interp(xd, eq.x_over_L, eq.q) / 1e4,
        "ideal_g12": np.interp(xd, ideal.x_over_L, ideal.q) / 1e4,
        "partial_catalytic": np.interp(xd, partial.x_over_L,
                                       partial.q) / 1e4,
    }
    return {"equilibrium": eq, "ideal": ideal, "partial": partial,
            "comparison": comparison, "condition": CONDITION}


def main(quick: bool = True) -> str:
    res = run(quick)
    eq, ideal, partial = res["equilibrium"], res["ideal"], res["partial"]
    c = res["comparison"]
    txt = ascii_plot(
        [(eq.x_over_L, eq.q / 1e4, "equilibrium air"),
         (ideal.x_over_L, ideal.q / 1e4, "ideal gas g=1.2"),
         (partial.x_over_L, partial.q / 1e4, "phi=0.15 catalytic"),
         (c["x_over_L"], c["flight"], "STS-3 (synthetic)")],
        logy=True, title="Fig. 6 - windward heating [W/cm^2]",
        xlabel="x/L", ylabel="q [W/cm^2]")
    rows = [(float(x), float(f), float(e), float(i), float(p))
            for x, f, e, i, p in zip(c["x_over_L"], c["flight"],
                                     c["equilibrium"], c["ideal_g12"],
                                     c["partial_catalytic"])]
    txt += "\n" + format_table(
        ["x/L", "flight*", "equil", "ideal g=1.2", "phi=0.15"], rows,
        title="\nq_w [W/cm^2]  (*synthetic stand-in data)")
    return txt


if __name__ == "__main__":
    print(main())
