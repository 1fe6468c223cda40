"""Fig. 8 — Computed vs measured nonequilibrium emission spectra.

NEQAIR-lite evaluated over the Fig. 7 relaxation flowfield: line-of-sight
spectral radiance across the relaxing slug, 0.2-1.0 um, compared against
the synthetic shock-tube spectrum (see repro.experiments.data for the
substitution policy).  Agreement metric: correlation of the
peak-normalised spectra on the measurement abscissae.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.data import SHOCK_TUBE_SPECTRUM_SYNTHETIC
from repro.experiments.fig7_shock_relaxation import run as run_fig7
from repro.postprocess.ascii_plot import ascii_plot
from repro.radiation.neqair import NonequilibriumRadiator

__all__ = ["run", "main"]


def run(quick: bool = False, *, profile=None) -> dict:
    if profile is None:
        profile = run_fig7(quick)["profile"]
    rad = NonequilibriumRadiator(profile.db)
    lam = np.linspace(0.2e-6, 1.0e-6, 500 if quick else 1200)
    radiance = rad.from_relaxation_profile(profile, lam)
    # smear to a spectrometer-like resolution (~5 nm) for the comparison
    dlam = lam[1] - lam[0]
    n_k = max(int(5e-9 / dlam), 1)
    kernel = np.ones(n_k) / n_k
    smeared = np.convolve(radiance, kernel, mode="same")
    # normalise and sample at the synthetic measurement wavelengths
    meas = SHOCK_TUBE_SPECTRUM_SYNTHETIC
    lam_meas = meas["wavelength_um"] * 1e-6
    comp_at_meas = np.interp(lam_meas, lam, smeared)
    comp_rel = comp_at_meas / max(comp_at_meas.max(), 1e-300)
    meas_rel = meas["radiance_rel"] / meas["radiance_rel"].max()
    # agreement: correlation of log-spectra (features span decades)
    lc = np.log10(np.maximum(comp_rel, 1e-4))
    lm = np.log10(np.maximum(meas_rel, 1e-4))
    corr = float(np.corrcoef(lc, lm)[0, 1])
    return {"wavelength": lam, "radiance": radiance, "smeared": smeared,
            "lam_meas": lam_meas, "computed_rel": comp_rel,
            "measured_rel": meas_rel, "log_correlation": corr}


def main(quick: bool = True, *, profile=None) -> str:
    res = run(quick, profile=profile)
    txt = ascii_plot(
        [(res["wavelength"] * 1e6,
          np.maximum(res["smeared"] / res["smeared"].max(), 1e-5),
          "computed"),
         (res["lam_meas"] * 1e6, np.maximum(res["measured_rel"], 1e-5),
          "measured (synthetic)")],
        logy=True, title="Fig. 8 - nonequilibrium air spectra "
                         "(peak-normalised)",
        xlabel="wavelength [um]", ylabel="relative radiance")
    txt += f"\nlog-spectrum correlation: {res['log_correlation']:.3f}"
    return txt


if __name__ == "__main__":
    print(main())
