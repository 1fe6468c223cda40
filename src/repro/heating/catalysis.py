"""Catalytic-wall heating models.

The Fig. 6 experiment turns on "the catalytic efficiency of the Orbiter's
TPS" (Refs. 16-17): dissociated boundary-layer atoms recombine at the wall
only as fast as the surface allows, so a finitely catalytic tile receives
less than the equilibrium (fully catalytic) heat flux.

Model: the chemical fraction of the heat load scales with a catalytic
effectiveness phi in [0, 1]::

    q(phi) = q_frozen + phi * (q_fc - q_frozen)

where q_fc is the fully catalytic flux and q_frozen = q_fc (1 - hD/h0).
The effectiveness follows from the recombination-rate coefficient k_w
through the surface Damkohler number Da = k_w / (k_w + D/delta)::

    phi = Da
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InputError

__all__ = ["catalytic_factor", "CatalyticWall"]


def catalytic_factor(h_dissociation, h0, phi):
    """Heating ratio q(phi)/q_fully_catalytic.

    Parameters
    ----------
    h_dissociation:
        Chemical (dissociation) enthalpy content at the BL edge [J/kg].
    h0:
        Total enthalpy [J/kg].
    phi:
        Catalytic effectiveness in [0, 1].
    """
    phi = np.asarray(phi, dtype=float)
    if not np.all((phi >= 0) & (phi <= 1)):
        raise InputError("phi must lie in [0, 1]")
    frac = np.clip(np.asarray(h_dissociation, float)
                   / np.maximum(np.asarray(h0, float), 1.0), 0.0, 1.0)
    return 1.0 - (1.0 - phi) * frac


@dataclass(frozen=True)
class CatalyticWall:
    """Finite-rate catalytic surface.

    Parameters
    ----------
    k_w:
        Surface recombination-rate coefficient [m/s] (RCG tile coatings:
        ~1 m/s; bare metals: 10-100 m/s; perfectly catalytic: inf).
    """

    k_w: float

    def effectiveness(self, D, delta):
        """Catalytic effectiveness from the diffusion conductance D/delta.

        Parameters
        ----------
        D:
            Atom diffusion coefficient at the wall [m^2/s].
        delta:
            Boundary-layer (diffusion) thickness [m].
        """
        if np.isinf(self.k_w):
            return 1.0
        conductance = np.asarray(D, float) / np.maximum(
            np.asarray(delta, float), 1e-12)
        return self.k_w / (self.k_w + conductance)

    def heating_ratio(self, h_dissociation, h0, D, delta):
        """q/q_fc for this surface at the given BL state."""
        return catalytic_factor(h_dissociation, h0,
                                self.effectiveness(D, delta))
