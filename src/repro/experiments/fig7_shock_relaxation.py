"""Fig. 7 — Two-temperature post-shock relaxation structure (Ref. 22).

Shock-tube condition: freestream velocity 10 km/s, pressure 0.1 Torr.
The figure's content: T jumps to the frozen value and relaxes down while
Tv rises from the freestream, both merging at the equilibrium plateau;
N2 dissociates and the electron density rises through the zone.
"""

from __future__ import annotations

import numpy as np

from repro.constants import TORR
from repro.postprocess.ascii_plot import ascii_plot
from repro.solvers.shock_relaxation import ShockRelaxationSolver

__all__ = ["run", "report", "main", "CONDITION"]

#: The Ref. 22 shock-tube case.
CONDITION = dict(u1=10000.0, p1=0.1 * TORR, T1=300.0)


def run(quick: bool = False) -> dict:
    solver = ShockRelaxationSolver("air11")
    profile = solver.solve(
        x_end=0.02 if quick else 0.06,
        n_out=120 if quick else 300,
        rtol=1e-6 if quick else 1e-8,
        **CONDITION)
    return {"profile": profile, "condition": CONDITION,
            "db": solver.db,
            "T_frozen": float(profile.T[0]),
            "T_equilibrium": float(profile.T[-1]),
            "Tv_equilibrium": float(profile.Tv[-1])}


def report(res: dict) -> str:
    """The figure's text from a :func:`run` result."""
    p = res["profile"]
    x_mm = p.x * 1e3
    keep = x_mm > 1e-4
    txt = ascii_plot(
        [(x_mm[keep], p.T[keep] / 1e3, "T [kK]"),
         (x_mm[keep], p.Tv[keep] / 1e3, "Tv [kK]")],
        logx=True, title="Fig. 7 - two-temperature relaxation "
                         "(10 km/s, 0.1 Torr)",
        xlabel="distance behind shock [mm]", ylabel="T [1000 K]")
    db = res["db"]
    x_species = []
    for name in ("N2", "O2", "N", "O", "e-"):
        j = db.index[name]
        y = np.maximum(p.y[:, j], 1e-10)
        x_species.append((x_mm[keep], y[keep], name))
    txt += "\n" + ascii_plot(x_species, logx=True, logy=True,
                             xlabel="x [mm]", ylabel="mass fraction")
    txt += (f"\nfrozen T = {res['T_frozen']:.0f} K -> equilibrium "
            f"T = Tv = {res['T_equilibrium']:.0f} K")
    return txt


def main(quick: bool = True) -> str:
    return report(run(quick))


if __name__ == "__main__":
    print(main())
