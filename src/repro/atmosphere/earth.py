"""US Standard Atmosphere 1976.

Layered analytic implementation up to 86 km geometric altitude (converted
internally to geopotential), with an isothermal exponential extension above
(adequate for the flight-domain map of Fig. 1, which tops out near the
AOTV's ~120 km perigee-pass altitudes; USSA76's true thermosphere departs
from isothermal but the density magnitude there is already <1e-6 of sea
level and the figure is logarithmic).
"""

from __future__ import annotations

import numpy as np

from repro.constants import G0_EARTH, MU_EARTH, R_EARTH
from repro.atmosphere.base import Atmosphere

__all__ = ["EarthAtmosphere"]

# layer base geopotential altitude [m], lapse rate [K/m]
_H_BASE = np.array([0.0, 11000.0, 20000.0, 32000.0, 47000.0, 51000.0,
                    71000.0, 84852.0])
_LAPSE = np.array([-6.5e-3, 0.0, 1.0e-3, 2.8e-3, 0.0, -2.8e-3, -2.0e-3])
#: the layer tops, which a layer lookup searches
_H_TOPS = _H_BASE[1:]

_R_AIR = 287.0528
_T0 = 288.15
_P0 = 101325.0


def _precompute():
    """Base temperature and pressure of each layer."""
    T = [_T0]
    p = [_P0]
    for i in range(len(_LAPSE)):
        dz = _H_BASE[i + 1] - _H_BASE[i]
        Tb, pb, L = T[-1], p[-1], _LAPSE[i]
        T_top = Tb + L * dz
        if abs(L) > 1e-12:
            p_top = pb * (T_top / Tb) ** (-G0_EARTH / (L * _R_AIR))
        else:
            p_top = pb * np.exp(-G0_EARTH * dz / (_R_AIR * Tb))
        T.append(T_top)
        p.append(p_top)
    return np.array(T), np.array(p)


_T_BASE, _P_BASE = _precompute()
#: per layer: whether T has a gradient, and the power law's exponent
#: -g0 / (L R) (1 stands in for an isothermal layer's zero L)
_GRADIENT = np.abs(_LAPSE) > 1e-12
_EXPONENT = -G0_EARTH / (np.where(_GRADIENT, _LAPSE, 1.0) * _R_AIR)


class EarthAtmosphere(Atmosphere):
    """US Standard Atmosphere 1976 with exponential extension above 86 km."""

    gas_constant = _R_AIR
    gamma = 1.4
    planet_radius = R_EARTH
    mu_grav = MU_EARTH

    def _geopotential(self, h):
        h = np.asarray(h, dtype=float)
        return R_EARTH * h / (R_EARTH + h)

    def _layer_index(self, hgp):
        # the table's top itself falls in the last layer
        return np.minimum(np.searchsorted(_H_TOPS, hgp, side="right"),
                          len(_LAPSE) - 1)

    def _layer(self, h):
        """The one layer lookup behind T and p, scalar or array alike:
        (geopotential altitude, layer index, height above the layer
        base, the layer's T there), the table capped at its top."""
        hgp = self._geopotential(h)
        hc = np.minimum(hgp, _H_BASE[-1])
        i = self._layer_index(hc)
        dz = hc - _H_BASE[i]
        return hgp, i, dz, _T_BASE[i] + _LAPSE[i] * dz

    @staticmethod
    def _temperature(hgp, T):
        # isothermal above 86 km geometric (~84.852 km geopotential)
        return np.where(hgp > _H_BASE[-1], _T_BASE[-1], T)

    @staticmethod
    def _pressure(hgp, i, dz, T):
        Tb = _T_BASE[i]
        grad = np.where(_GRADIENT[i],
                        (np.maximum(T, 1.0) / Tb) ** _EXPONENT[i],
                        np.exp(-G0_EARTH * dz / (_R_AIR * Tb)))
        p = _P_BASE[i] * grad
        # exponential tail above the table
        tail = np.exp(-G0_EARTH * (hgp - _H_BASE[-1])
                      / (_R_AIR * _T_BASE[-1]))
        return np.where(hgp > _H_BASE[-1], _P_BASE[-1] * tail, p)

    def temperature(self, h):
        hgp, _, _, T = self._layer(h)
        return self._temperature(hgp, T)

    def pressure(self, h):
        return self._pressure(*self._layer(h))

    def density(self, h):
        """Ambient density [kg/m^3]: the ideal-gas law on the T and p of
        one layer lookup."""
        hgp, i, dz, T = self._layer(h)
        return self._pressure(hgp, i, dz, T) / (
            self.gas_constant * self._temperature(hgp, T))
