"""Tabulated equilibrium equation of state ("effective gamma" tables).

The PNS/NS production codes of the paper's era (e.g. the variable-effective-
gamma code of Ref. 19, and the Tannehill curve fits used by Ref. 20) did not
solve equilibrium chemistry in every cell; they interpolated precomputed
curve fits p = p(rho, e), T = T(rho, e).  This module reproduces that
pattern: a :class:`EquilibriumEOSTable` is built once from the
:class:`~repro.thermo.equilibrium.EquilibriumGas` Gibbs solver on a uniform
grid in (log rho, log e) and then evaluated with bilinear interpolation —
orders of magnitude faster inside a time-marching loop, at the cost of a
small interpolation error (quantified in the test suite and in the
bench_eos ablation benchmark).

The stored quantity is the effective gamma  ``gamma(rho, e) = 1 + p/(rho e)``
(smooth and bounded on [1, 5/3]), plus temperature.  The equilibrium sound
speed is reconstructed from the table's own gradients::

    p = (gamma - 1) rho e
    a^2 = (dp/drho)_e + (p/rho^2)(dp/de)_rho

In memory, gamma, its two log-gradients and T are stacked into one
(4, n_rho * n_e) array, so :meth:`EquilibriumEOSTable.evaluate` returns
gamma, p, a and T of a whole state set from one locate and one gather per
cell corner; ``lookup``, ``pressure``, ``temperature`` and
``sound_speed`` are views of it.  The ``.npz`` file holds gamma and T
only, plus the digest of the inputs that built them.
"""

from __future__ import annotations

import hashlib
import io
import os

import numpy as np

from repro.errors import InputError, TableRangeError
from repro.thermo.equilibrium import EquilibriumGas

__all__ = ["EquilibriumEOSTable", "build_air_table"]

#: default table bounds: density [kg/m^3] and specific energy [J/kg]
_RHO_RANGE, _E_RANGE = (1e-7, 10.0), (5e4, 1.5e8)


class EquilibriumEOSTable:
    """Bilinear (log rho, log e) lookup table for an equilibrium gas."""

    #: digest of the inputs that built the table ("" when unknown),
    #: saved and loaded with it
    digest = ""

    def __init__(self, log_rho: np.ndarray, log_e: np.ndarray,
                 gamma: np.ndarray, T: np.ndarray, *, clamp: bool = True):
        self.log_rho = np.asarray(log_rho, dtype=float)
        self.log_e = np.asarray(log_e, dtype=float)
        self.gamma = np.asarray(gamma, dtype=float)
        self.T = np.asarray(T, dtype=float)
        shape = (self.log_rho.size, self.log_e.size)
        if self.gamma.shape != shape or self.T.shape != shape:
            raise InputError("table shape mismatch")
        if min(shape) < 2:
            raise InputError("table grids need at least 2 points per axis")
        if not all(np.all(np.isfinite(a)) for a in
                   (self.log_rho, self.log_e, self.gamma, self.T)):
            raise InputError("table holds non-finite values")
        self.clamp = clamp
        self._dlr = self.log_rho[1] - self.log_rho[0]
        self._dle = self.log_e[1] - self.log_e[0]
        if self._dlr <= 0.0 or self._dle <= 0.0:
            # _locate clips into [axis[0], axis[-1]]: a descending axis
            # would pin every lookup to one edge
            raise InputError("table grids must be ascending")
        if (not np.allclose(np.diff(self.log_rho), self._dlr)
                or not np.allclose(np.diff(self.log_e), self._dle)):
            raise InputError("table grids must be uniform in log space")
        # gamma, its log-gradients (sound-speed reconstruction) and T as
        # four rows over the flattened (rho, e) grid: evaluate() gathers
        # all four with one take per cell corner
        self._stack = np.stack(
            [self.gamma,
             *np.gradient(self.gamma, self.log_rho, self.log_e),
             self.T]).reshape(4, -1)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, gas: EquilibriumGas, *, rho_range=_RHO_RANGE,
              e_range=_E_RANGE, n_rho=48,
              n_e=72) -> "EquilibriumEOSTable":
        """Fill the table by batched (rho, e) equilibrium solves.

        The default energy ceiling (1.5e8 J/kg ~ a 17 km/s stagnation
        enthalpy) keeps every grid state reachable by the single-ionization
        chemistry model below the solver's 1e5 K bracket.
        """
        if min(rho_range) <= 0.0 or min(e_range) <= 0.0:
            raise InputError("table ranges must be positive (log-spaced)")
        if rho_range[0] >= rho_range[1] or e_range[0] >= e_range[1]:
            raise InputError("table ranges must be ascending (lo, hi)")
        if n_rho < 2 or n_e < 2:
            raise InputError("table grids need at least 2 points per axis")
        # catlint: disable=CAT001 -- ranges validated positive above
        log_rho = np.linspace(np.log(rho_range[0]), np.log(rho_range[1]),
                              n_rho)
        # catlint: disable=CAT001 -- ranges validated positive above
        log_e = np.linspace(np.log(e_range[0]), np.log(e_range[1]), n_e)
        LR, LE = np.meshgrid(log_rho, log_e, indexing="ij")
        # catlint: disable=CAT004 -- exp/log round-trip of the validated
        # finite table range; bounded by log(rho_range[1])
        rho = np.exp(LR).ravel()
        # catlint: disable=CAT004 -- same round-trip bound for e_range
        e = np.exp(LE).ravel()
        st = gas.state_rho_e(rho, e)
        gamma = (1.0 + st["p"] / (rho * e)).reshape(n_rho, n_e)
        T = st["T"].reshape(n_rho, n_e)
        return cls(log_rho, log_e, gamma, T)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the table and its digest to an .npz file (atomic
        replace)."""
        from repro.resilience.persistence import atomic_write
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        buf = io.BytesIO()
        np.savez(buf, log_rho=self.log_rho, log_e=self.log_e,
                 gamma=self.gamma, T=self.T, digest=np.array(self.digest))
        atomic_write(path, buf.getvalue())

    @classmethod
    def load(cls, path: str) -> "EquilibriumEOSTable":
        with np.load(path) as z:
            tab = cls(z["log_rho"], z["log_e"], z["gamma"], z["T"])
            if "digest" in z.files:
                tab.digest = str(z["digest"])
        return tab

    # ------------------------------------------------------------------
    # interpolation
    # ------------------------------------------------------------------

    def _locate(self, lr, le):
        # minimum(maximum(.)) equals np.clip elementwise (NaN included)
        # without clip's wrapper overhead, which dominates on small arrays
        if self.clamp:
            lr = np.minimum(np.maximum(lr, self.log_rho[0]), self.log_rho[-1])
            le = np.minimum(np.maximum(le, self.log_e[0]), self.log_e[-1])
        else:
            if (np.any(lr < self.log_rho[0]) or np.any(lr > self.log_rho[-1])
                    or np.any(le < self.log_e[0])
                    or np.any(le > self.log_e[-1])):
                raise TableRangeError("EOS table lookup out of range")
        fi = (lr - self.log_rho[0]) / self._dlr
        fj = (le - self.log_e[0]) / self._dle
        i = np.minimum(np.maximum(fi.astype(int), 0), self.log_rho.size - 2)
        j = np.minimum(np.maximum(fj.astype(int), 0), self.log_e.size - 2)
        return i, j, fi - i, fj - j

    def _bilinear(self, i, j, wi, wj):
        """The four stacked channels at once, shape (4,) + i.shape."""
        S, n_e = self._stack, self.log_e.size
        k = i * n_e + j
        return ((1 - wi) * (1 - wj) * S.take(k, 1)
                + wi * (1 - wj) * S.take(k + n_e, 1)
                + (1 - wi) * wj * S.take(k + 1, 1)
                + wi * wj * S.take(k + n_e + 1, 1))

    def evaluate(self, rho, e):
        """(gamma_eff, p, a, T) at (rho, e); any shapes.

        One locate and one gather per cell corner serve all four
        quantities: p in Pa, the equilibrium sound speed a in m/s (from
        the table-gradient reconstruction) and T in K.
        """
        rho = np.asarray(rho, dtype=float)
        e = np.asarray(e, dtype=float)
        lr = np.log(np.maximum(rho, 1e-300))
        le = np.log(np.maximum(e, 1e-300))
        gamma, dg_dlr, dg_dle, T = self._bilinear(*self._locate(lr, le))
        p = (gamma - 1.0) * rho * e
        # p = (gamma-1) rho e with gamma(log rho, log e):
        # (dp/drho)_e = (gamma-1) e + e dg/dlnrho
        # (dp/de)_rho = (gamma-1) rho + rho dg/dlne
        dpdr = (gamma - 1.0) * e + e * dg_dlr
        dpde = (gamma - 1.0) * rho + rho * dg_dle
        a2 = dpdr + p / rho**2 * dpde
        return gamma, p, np.sqrt(np.maximum(a2, 1.0)), T

    def lookup(self, rho, e):
        """Interpolate (gamma_eff, T) at given (rho, e); any shapes."""
        gamma, _, _, T = self.evaluate(rho, e)
        return gamma, T

    def pressure(self, rho, e):
        """p(rho, e) [Pa] from the effective-gamma form."""
        return self.evaluate(rho, e)[1]

    def sound_speed(self, rho, e):
        """Equilibrium sound speed [m/s] from table-gradient reconstruction."""
        return self.evaluate(rho, e)[2]

    def temperature(self, rho, e):
        """T(rho, e) [K]."""
        return self.evaluate(rho, e)[3]


#: module-level cache for the default air table
_AIR_TABLE_CACHE: dict[tuple, EquilibriumEOSTable] = {}


def _build_digest(names, y_ref, n_rho: int, n_e: int) -> str:
    """SHA-256 of a default-bounds build's inputs: the grid shape and
    bounds, the species set, the reference composition and the source
    of the ``repro.thermo`` modules the build runs."""
    h = hashlib.sha256(repr((n_rho, n_e, _RHO_RANGE, _E_RANGE, list(names),
                             np.asarray(y_ref).tolist())).encode())
    for name in ("eos_table", "equilibrium", "mixture", "species",
                 "statmech"):
        with open(os.path.join(os.path.dirname(__file__), f"{name}.py"),
                  "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build_air_table(*, n_rho=48, n_e=72, cache_dir=None
                    ) -> EquilibriumEOSTable:
    """Build (or load from disk cache) the standard equilibrium-air table.

    The cache file is read back only when it carries the digest of this
    build's inputs (:func:`_build_digest`): a table another version of
    the solver built is rebuilt, never served.
    """
    from repro.thermo.equilibrium import air_reference_mass_fractions
    from repro.thermo.species import species_set

    key = (n_rho, n_e)
    if key in _AIR_TABLE_CACHE:
        return _AIR_TABLE_CACHE[key]
    db = species_set("air11")
    y_ref = air_reference_mass_fractions(db)
    digest = _build_digest(db.names, y_ref, n_rho, n_e)
    cache_dir = cache_dir or os.path.join(
        os.path.expanduser("~"), ".cache", "repro")
    path = os.path.join(cache_dir, f"air_eos_{n_rho}x{n_e}.npz")
    if os.path.exists(path):
        try:
            tab = EquilibriumEOSTable.load(path)
            if tab.digest == digest:
                _AIR_TABLE_CACHE[key] = tab
                return tab
        # catlint: disable=CAT012 -- deliberate: any unreadable/corrupt
        # cache file falls through to a fresh table build
        except Exception:
            pass  # rebuild on any cache corruption
    gas = EquilibriumGas(db, y_ref)
    tab = EquilibriumEOSTable.build(gas, n_rho=n_rho, n_e=n_e)
    tab.digest = digest
    try:
        tab.save(path)
    except OSError:
        pass  # cache is best-effort
    _AIR_TABLE_CACHE[key] = tab
    return tab
