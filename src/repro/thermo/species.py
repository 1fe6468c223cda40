"""Species database: molecular constants for high-temperature gas mixtures.

The paper's real-gas air model carries nine species (N2, O2, N, O, NO, O+,
N+, NO+, e-); we extend that to the common 11-species set (adding N2+, O2+)
plus argon, and a Titan-atmosphere set (N2/CH4 entry chemistry: H2, H, C, CN,
C2, HCN) used by the Fig. 2/3 experiments, and He/H2 for Jupiter-class
entries.

All thermodynamic behaviour is *derived* from these constants by
:mod:`repro.thermo.statmech` (rigid rotor / harmonic oscillator / electronic
levels), so the database is the single source of truth: equilibrium
constants, enthalpies and kinetics backward rates are automatically
consistent with each other.

Units
-----
* ``molar_mass`` — kg/mol
* ``hf0`` — enthalpy of formation at 0 K, J/mol (elements in their standard
  state are zero)
* ``theta_rot`` — characteristic rotational temperature(s), K
* ``vib_modes`` — (characteristic vibrational temperature [K], degeneracy)
* ``elec_levels`` — (degeneracy, characteristic temperature [K])
* ``d0`` — dissociation energy of the molecule, expressed as a temperature
  (D0/k), K; ``None`` for atoms and for polyatomics where the kinetics
  module does not need it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import SpeciesError

__all__ = ["Species", "SpeciesDB", "SPECIES", "species_set", "AIR5", "AIR7",
           "AIR9", "AIR11", "TITAN9", "JUPITER2", "JUPITER3"]


@dataclass(frozen=True)
class Species:
    """Immutable molecular-constant record for one chemical species."""

    name: str
    #: Element composition, e.g. ``{"N": 2}``; electrons are the pseudo
    #: element ``"E"`` with count +1 for e- and appear with negative count in
    #: cations implicitly via ``charge``.
    formula: Mapping[str, int]
    molar_mass: float
    #: Electric charge in units of e (0, +1 or -1).
    charge: int
    #: Formation enthalpy at 0 K [J/mol].
    hf0: float
    #: "atom", "linear" or "nonlinear".
    geometry: str
    #: Rotational characteristic temperature(s) [K]. Scalar for linear
    #: molecules; 3-tuple (θA, θB, θC) for nonlinear. Empty tuple for atoms.
    theta_rot: tuple[float, ...]
    #: Rotational symmetry number.
    sigma_sym: int
    #: Vibrational modes as (θv [K], degeneracy) pairs.
    vib_modes: tuple[tuple[float, int], ...]
    #: Electronic levels as (degeneracy, θe [K]) pairs, θe relative to ground.
    elec_levels: tuple[tuple[int, float], ...]
    #: Dissociation energy D0/k [K] (molecules only).
    d0: float | None = None

    @property
    def is_molecule(self) -> bool:
        """True if the species has internal rotational structure."""
        return self.geometry != "atom"

    @property
    def is_ion(self) -> bool:
        return self.charge != 0

    @property
    def n_atoms(self) -> int:
        """Number of atomic nuclei in the species (0 for the electron)."""
        return sum(v for k, v in self.formula.items() if k != "E")

    @property
    def theta_v(self) -> float:
        """Primary (first) vibrational temperature; raises for atoms."""
        if not self.vib_modes:
            raise SpeciesError(f"{self.name} has no vibrational modes")
        return self.vib_modes[0][0]

    def element_count(self, element: str) -> int:
        return int(self.formula.get(element, 0))


#: Atomic molar masses [kg/mol]; molecule masses are computed from these so
#: that element-mass closure is exact (the equilibrium solver conserves
#: elements, and any molecule-mass inconsistency would leak into sum(y)).
_ATOMIC_MASS = {
    "N": 14.0067e-3,
    "O": 15.9994e-3,
    "H": 1.00794e-3,
    "C": 12.011e-3,
    "Ar": 39.948e-3,
    "He": 4.0026e-3,
    "E": 5.48579909e-7,
}


def _s(name, formula, m, charge, hf0_kj, geometry, theta_rot, sigma,
       vib, elec, d0=None) -> Species:
    """Terse constructor used to keep the table below readable.

    ``m`` is accepted for readability but the stored molar mass is always
    recomputed from atomic masses (and the charge) so that mass is exactly
    a linear function of the element content.
    """
    m_exact = sum(_ATOMIC_MASS[el] * n for el, n in formula.items())
    if "E" not in formula:
        m_exact -= charge * _ATOMIC_MASS["E"]
    if geometry == "atom":
        tr: tuple[float, ...] = ()
    elif geometry == "linear":
        tr = (float(theta_rot),)
    else:
        tr = tuple(float(t) for t in theta_rot)
    return Species(
        name=name,
        formula=dict(formula),
        molar_mass=m_exact,
        charge=charge,
        hf0=hf0_kj * 1000.0,
        geometry=geometry,
        theta_rot=tr,
        sigma_sym=sigma,
        vib_modes=tuple((float(t), int(g)) for t, g in vib),
        elec_levels=tuple((int(g), float(t)) for g, t in elec),
        d0=d0,
    )


#: Electron molar mass [kg/mol].
_M_E = 5.48579909e-7

# ---------------------------------------------------------------------------
# The database.  Sources: Park (1990) two-temperature model constants,
# Gurvich/JANAF formation enthalpies at 0 K, Huber & Herzberg spectroscopic
# constants.  θ values are 1.4388 cm·K × (spectroscopic constant in 1/cm).
# ---------------------------------------------------------------------------

_ALL: dict[str, Species] = {}


def _add(sp: Species) -> None:
    _ALL[sp.name] = sp


# --- air neutrals ----------------------------------------------------------
_add(_s("N2", {"N": 2}, 28.0134e-3, 0, 0.0, "linear", 2.875, 2,
        [(3393.5, 1)],
        [(1, 0.0), (3, 72239.0), (6, 85787.0), (6, 95351.0)],
        d0=113200.0))
_add(_s("O2", {"O": 2}, 31.9988e-3, 0, 0.0, "linear", 2.080, 2,
        [(2273.5, 1)],
        [(3, 0.0), (2, 11392.0), (1, 18985.0), (6, 71641.0)],
        d0=59500.0))
_add(_s("NO", {"N": 1, "O": 1}, 30.0061e-3, 0, 89.775, "linear", 2.452, 1,
        [(2739.7, 1)],
        # X2Pi ground state is spin-orbit split by 121 cm^-1 (174 K), which
        # matters for cp near room temperature (JANAF cp(298)=29.86).
        [(2, 0.0), (2, 174.2), (2, 63257.0), (4, 66770.0)],
        d0=75500.0))
_add(_s("N", {"N": 1}, 14.0067e-3, 0, 470.82, "atom", None, 1, [],
        [(4, 0.0), (10, 27658.0), (6, 41495.0)]))
_add(_s("O", {"O": 1}, 15.9994e-3, 0, 246.79, "atom", None, 1, [],
        [(5, 0.0), (3, 228.0), (1, 326.0), (5, 22830.0), (1, 48620.0)]))
_add(_s("Ar", {"Ar": 1}, 39.948e-3, 0, 0.0, "atom", None, 1, [],
        [(1, 0.0)]))

# --- air ions + electron ---------------------------------------------------
_add(_s("N2+", {"N": 2}, 28.0134e-3 - _M_E, +1, 1503.3, "linear", 2.779, 2,
        [(3175.6, 1)],
        [(2, 0.0), (4, 13189.0), (2, 36633.0)],
        d0=101900.0))
_add(_s("O2+", {"O": 2}, 31.9988e-3 - _M_E, +1, 1164.6, "linear", 2.433, 2,
        [(2741.0, 1)],
        [(4, 0.0), (8, 47427.0), (4, 58515.0)],
        d0=77284.0))
_add(_s("NO+", {"N": 1, "O": 1}, 30.0061e-3 - _M_E, +1, 983.65, "linear",
        2.873, 1,
        [(3419.2, 1)],
        [(1, 0.0), (3, 75091.0)],
        d0=125900.0))
_add(_s("N+", {"N": 1}, 14.0067e-3 - _M_E, +1, 1873.15, "atom", None, 1, [],
        [(1, 0.0), (3, 70.1), (5, 188.2), (5, 22037.0), (1, 47029.0)]))
_add(_s("O+", {"O": 1}, 15.9994e-3 - _M_E, +1, 1560.74, "atom", None, 1, [],
        [(4, 0.0), (10, 38575.0), (6, 58226.0)]))
_add(_s("e-", {"E": 1}, _M_E, -1, 0.0, "atom", None, 1, [],
        [(2, 0.0)]))

# --- Titan / carbonaceous species -----------------------------------------
_add(_s("CH4", {"C": 1, "H": 4}, 16.0425e-3, 0, -66.63, "nonlinear",
        (7.54, 7.54, 7.54), 12,
        [(4196.0, 1), (2207.0, 2), (4343.0, 3), (1879.0, 3)],
        [(1, 0.0)]))
_add(_s("H2", {"H": 2}, 2.01588e-3, 0, 0.0, "linear", 85.3, 2,
        [(6332.0, 1)],
        [(1, 0.0)],
        d0=51973.0))
_add(_s("H", {"H": 1}, 1.00794e-3, 0, 216.035, "atom", None, 1, [],
        [(2, 0.0), (8, 118354.0)]))
_add(_s("C", {"C": 1}, 12.011e-3, 0, 711.19, "atom", None, 1, [],
        [(1, 0.0), (3, 23.6), (5, 62.4), (5, 14665.0), (1, 31147.0)]))
_add(_s("CN", {"C": 1, "N": 1}, 26.0177e-3, 0, 435.10, "linear", 2.733, 1,
        [(2976.5, 1)],
        [(2, 0.0), (4, 13302.0), (2, 37052.0)],
        d0=89594.0))
_add(_s("C2", {"C": 2}, 24.022e-3, 0, 820.20, "linear", 2.618, 2,
        [(2668.6, 1)],
        [(1, 0.0), (6, 1030.0), (2, 12073.0), (6, 27881.0)],
        d0=71900.0))
_add(_s("HCN", {"H": 1, "C": 1, "N": 1}, 27.0253e-3, 0, 135.14, "linear",
        2.127, 1,
        [(4763.0, 1), (1025.0, 2), (3017.0, 1)],
        [(1, 0.0)]))

# --- Jupiter ----------------------------------------------------------------
_add(_s("He", {"He": 1}, 4.0026e-3, 0, 0.0, "atom", None, 1, [],
        [(1, 0.0)]))


#: Global read-only species registry, keyed by name.
SPECIES: Mapping[str, Species] = dict(_ALL)

# ---------------------------------------------------------------------------
# Named species sets (the "equation-set x chemistry-model" building blocks)
# ---------------------------------------------------------------------------

#: 5-species neutral dissociating air (no ionization).
AIR5: tuple[str, ...] = ("N2", "O2", "NO", "N", "O")

#: 7-species air: AIR5 + the dominant ion (NO+) and electrons.
AIR7: tuple[str, ...] = AIR5 + ("NO+", "e-")

#: The paper's 9-species dissociating and ionizing air.
AIR9: tuple[str, ...] = AIR5 + ("NO+", "N+", "O+", "e-")

#: Standard 11-species air (adds molecular ions).
AIR11: tuple[str, ...] = AIR5 + ("NO+", "N2+", "O2+", "N+", "O+", "e-")

#: Reduced Titan-atmosphere entry chemistry (N2/CH4 freestream).
TITAN9: tuple[str, ...] = ("N2", "CH4", "H2", "H", "C", "N", "CN", "C2",
                           "HCN")

#: Jupiter H2/He (perfect-gas-like substrate for Galileo-class checks).
JUPITER2: tuple[str, ...] = ("H2", "He")

#: Jupiter with hydrogen dissociation (Galileo-probe shock layers).
JUPITER3: tuple[str, ...] = ("H2", "He", "H")


class SpeciesDB:
    """Ordered view over a subset of the registry.

    Solvers index species by position, so the DB fixes the ordering and
    precomputes per-species arrays (molar masses, charges, formation
    enthalpies) as NumPy vectors.
    """

    def __init__(self, names: Sequence[str]):
        import numpy as np

        missing = [n for n in names if n not in SPECIES]
        if missing:
            raise SpeciesError(f"unknown species: {missing}")
        if len(set(names)) != len(names):
            raise SpeciesError(f"duplicate species in set: {list(names)}")
        self.names: tuple[str, ...] = tuple(names)
        self.species: tuple[Species, ...] = tuple(SPECIES[n] for n in names)
        self.index: dict[str, int] = {n: i for i, n in enumerate(self.names)}
        self.n = len(self.names)
        self.molar_mass = np.array([s.molar_mass for s in self.species])
        self.charge = np.array([s.charge for s in self.species], dtype=float)
        self.hf0_molar = np.array([s.hf0 for s in self.species])
        #: Formation enthalpy per unit mass [J/kg].
        self.hf0_mass = self.hf0_molar / self.molar_mass
        #: Sorted tuple of chemical elements present (excluding electrons).
        self.elements: tuple[str, ...] = tuple(sorted(
            {el for s in self.species for el in s.formula if el != "E"}))
        #: Element-composition matrix a[k, j] = atoms of element k in
        #: species j.  Charge is appended as the final row when any species
        #: is charged, making charge conservation just another "element".
        rows = [[s.element_count(el) for s in self.species]
                for el in self.elements]
        self.has_ions = bool(np.any(self.charge != 0))
        if self.has_ions:
            rows.append([s.charge for s in self.species])
        self.comp_matrix = np.array(rows, dtype=float)
        #: Names of the conservation rows of ``comp_matrix``.
        self.constraints: tuple[str, ...] = self.elements + (
            ("charge",) if self.has_ions else ())

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.species)

    def __getitem__(self, key: int | str) -> Species:
        if isinstance(key, str):
            try:
                return self.species[self.index[key]]
            except KeyError:
                raise SpeciesError(f"{key!r} not in species set "
                                   f"{self.names}") from None
        return self.species[key]

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpeciesDB({list(self.names)})"

    def mole_to_mass(self, x):
        """Convert mole fractions (..., n) to mass fractions."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        w = x * self.molar_mass
        return w / np.sum(w, axis=-1, keepdims=True)

    def mass_to_mole(self, y):
        """Convert mass fractions (..., n) to mole fractions."""
        import numpy as np

        y = np.asarray(y, dtype=float)
        w = y / self.molar_mass
        return w / np.add.reduce(w, axis=-1, keepdims=True)

    def mean_molar_mass(self, y):
        """Mixture molar mass [kg/mol] from mass fractions (..., n)."""
        import numpy as np

        y = np.asarray(y, dtype=float)
        return 1.0 / np.sum(y / self.molar_mass, axis=-1)


_DB_CACHE: dict[tuple[str, ...], SpeciesDB] = {}

_NAMED_SETS: dict[str, tuple[str, ...]] = {
    "air5": AIR5,
    "air7": AIR7,
    "air9": AIR9,
    "air11": AIR11,
    "titan9": TITAN9,
    "jupiter2": JUPITER2,
    "jupiter3": JUPITER3,
}


def species_set(which: str | Sequence[str]) -> SpeciesDB:
    """Return a (cached) :class:`SpeciesDB` for a named or explicit set.

    ``which`` may be one of ``"air5"``, ``"air7"``, ``"air9"``, ``"air11"``,
    ``"titan9"``, ``"jupiter2"`` or an explicit sequence of species names.
    """
    if isinstance(which, str):
        try:
            names = _NAMED_SETS[which.lower()]
        except KeyError:
            raise SpeciesError(
                f"unknown species set {which!r}; choose from "
                f"{sorted(_NAMED_SETS)}") from None
    else:
        names = tuple(which)
    if names not in _DB_CACHE:
        _DB_CACHE[names] = SpeciesDB(names)
    return _DB_CACHE[names]
