"""Tests for statistical-mechanics thermodynamics.

Reference values are JANAF/NIST tabulations; the RRHO+electronic model
should land within a percent or two at ordinary temperatures.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import R_UNIVERSAL as R
from repro.thermo.species import SPECIES, species_set
from repro.thermo.statmech import P_STANDARD, SpeciesThermo, ThermoSet

TEMPS = st.floats(min_value=150.0, max_value=2.0e4)
ALL_NAMES = sorted(SPECIES)

#: The named species sets plus one holding every species.
SETS = {name: name for name in ("air5", "air7", "air9", "air11", "titan9",
                                "jupiter2", "jupiter3")}
SETS["all"] = ALL_NAMES

#: A 0-d temperature, a sweep through the 1e-3 K clamp up to 1e5 K, and
#: a 2-D batch.
T_CASES = {
    "0d": np.asarray(1234.5),
    "sweep": np.geomspace(1.0e-4, 1.0e5, 404),
    "2x3": np.array([[300.0, 1500.0, 7000.0], [1.0e-3, 2.0e4, 55.0]]),
}

#: ThermoSet method -> the same property from one SpeciesThermo.
PER_SPECIES = {
    "cp": lambda st_, T: st_.cp(T),
    "h": lambda st_, T: st_.h(T),
    "e": lambda st_, T: st_.e(T),
    "s0": lambda st_, T: st_.s(T),
    "g0": lambda st_, T: st_.g0(T),
    "g0_over_RT": lambda st_, T: st_.g0(T) / (R * T),
    "h_mass": lambda st_, T: st_.h_mass(T),
    "e_mass": lambda st_, T: st_.e_mass(T),
    "cp_mass": lambda st_, T: st_.cp_mass(T),
    "cv_mass": lambda st_, T: st_.cv(T) / st_.M,
    "e_vib_el_mass": lambda st_, T: st_.e_vib_el_mass(T),
    "cv_vib_el_mass": lambda st_, T: st_.cv_vib_el_mass(T),
    # a pair: compared element-wise as a stacked (2, ..., n) array
    "e_cv_vib_el_mass": lambda st_, T: (st_.e_vib_el_mass(T),
                                        st_.cv_vib_el_mass(T)),
    "h_tr_rot_mass": lambda st_, T: st_.h_tr_rot(T) / st_.M,
    # the shared pass at T of a two-temperature source, also a pair
    "g0_over_RT_e_vib_el_mass": lambda st_, T: (st_.g0(T) / (R * T),
                                                st_.e_vib_el_mass(T)),
}


class TestAgainstJANAF:
    """Spot checks against standard-table values at 298.15 K / 1 bar."""

    @pytest.mark.parametrize("name,cp_ref", [
        ("N2", 29.12), ("O2", 29.38), ("NO", 29.86), ("N", 20.79),
        ("O", 21.91), ("Ar", 20.79), ("H2", 28.84), ("H", 20.79),
        ("CH4", 35.6),
    ])
    def test_cp_298(self, name, cp_ref):
        st_ = SpeciesThermo(SPECIES[name])
        assert float(st_.cp(298.15)) == pytest.approx(cp_ref, rel=0.02)

    @pytest.mark.parametrize("name,s_ref", [
        ("N2", 191.61), ("O2", 205.15), ("NO", 210.76), ("N", 153.30),
        ("O", 161.06), ("Ar", 154.85), ("H2", 130.68), ("H", 114.72),
    ])
    def test_s_298(self, name, s_ref):
        st_ = SpeciesThermo(SPECIES[name])
        assert float(st_.s(298.15, P_STANDARD)) == pytest.approx(
            s_ref, rel=0.01)

    def test_n2_cp_high_temperature(self):
        # vibration fully excited: cp -> 7/2 R + R = 4.5 R minus electronic
        st_ = SpeciesThermo(SPECIES["N2"])
        cp3000 = float(st_.cp(3000.0))
        assert 35.0 < cp3000 < 38.5  # JANAF: 37.0 J/mol/K

    def test_h_increment_n2(self):
        # JANAF H(1000) - H(298) for N2 = 21.46 kJ/mol
        st_ = SpeciesThermo(SPECIES["N2"])
        dh = float(st_.h(1000.0) - st_.h(298.15))
        assert dh == pytest.approx(21.46e3, rel=0.01)

    def test_monatomic_cp_is_5_2R_plus_electronic(self):
        st_ = SpeciesThermo(SPECIES["Ar"])
        assert float(st_.cp(500.0)) == pytest.approx(2.5 * R, rel=1e-10)


class TestThermodynamicIdentities:
    @given(T=TEMPS, name=st.sampled_from(ALL_NAMES))
    @settings(max_examples=80, deadline=None)
    def test_cp_minus_cv_is_R(self, T, name):
        st_ = SpeciesThermo(SPECIES[name])
        assert float(st_.cp(T) - st_.cv(T)) == pytest.approx(R, rel=1e-12)

    @given(T=TEMPS, name=st.sampled_from(ALL_NAMES))
    @settings(max_examples=80, deadline=None)
    def test_h_minus_e_is_RT(self, T, name):
        st_ = SpeciesThermo(SPECIES[name])
        assert float(st_.h(T) - st_.e(T)) == pytest.approx(R * T, rel=1e-10)

    @given(T=TEMPS, name=st.sampled_from(ALL_NAMES))
    @settings(max_examples=60, deadline=None)
    def test_cp_is_dh_dT(self, T, name):
        st_ = SpeciesThermo(SPECIES[name])
        dT = max(T * 1e-5, 1e-3)
        cp_fd = float(st_.h(T + dT) - st_.h(T - dT)) / (2 * dT)
        assert cp_fd == pytest.approx(float(st_.cp(T)), rel=1e-4)

    @given(T=TEMPS, name=st.sampled_from(ALL_NAMES))
    @settings(max_examples=60, deadline=None)
    def test_cp_over_T_is_ds_dT(self, T, name):
        # (ds/dT)_p = cp / T
        st_ = SpeciesThermo(SPECIES[name])
        dT = max(T * 1e-5, 1e-3)
        ds_fd = float(st_.s(T + dT) - st_.s(T - dT)) / (2 * dT)
        assert ds_fd == pytest.approx(float(st_.cp(T)) / T, rel=1e-4)

    @given(T=TEMPS, name=st.sampled_from(ALL_NAMES),
           pr=st.floats(min_value=-4.0, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_pressure_dependence_of_entropy(self, T, name, pr):
        # s(T, p) = s(T, p0) - R ln(p/p0)
        p = P_STANDARD * 10.0**pr
        st_ = SpeciesThermo(SPECIES[name])
        expected = float(st_.s(T)) - R * np.log(p / P_STANDARD)
        assert float(st_.s(T, p)) == pytest.approx(expected, rel=1e-10)

    @given(T=TEMPS, name=st.sampled_from(ALL_NAMES))
    @settings(max_examples=60, deadline=None)
    def test_gibbs_helmholtz(self, T, name):
        # d(g0/T)/dT = -h/T^2
        st_ = SpeciesThermo(SPECIES[name])
        dT = max(T * 1e-5, 1e-2)
        lhs = (float(st_.g0(T + dT)) / (T + dT)
               - float(st_.g0(T - dT)) / (T - dT)) / (2 * dT)
        rhs = -float(st_.h(T)) / T**2
        assert lhs == pytest.approx(rhs, rel=1e-3, abs=1e-6)

    def test_h_at_zero_kelvin_is_hf0(self):
        for name in ("N2", "N", "NO", "NO+", "CH4"):
            st_ = SpeciesThermo(SPECIES[name])
            # T -> 0 limit (evaluate at 1 K; thermal content ~ 3.5R*1K)
            h1 = float(st_.h(1.0))
            assert abs(h1 - SPECIES[name].hf0) < 50.0


class TestTwoTemperatureSplit:
    def test_energy_split_consistency(self):
        # h(T) == h_tr_rot(T) + e_vib_el(T) + ... for equal temperatures
        st_ = SpeciesThermo(SPECIES["N2"])
        for T in (300.0, 2000.0, 8000.0):
            total = float(st_.h(T))
            split = float(st_.h_tr_rot(T)) + float(st_.e_vib_el(T))
            assert total == pytest.approx(split, rel=1e-10)

    def test_vib_energy_monotonic_in_Tv(self):
        st_ = SpeciesThermo(SPECIES["N2"])
        Tv = np.linspace(200.0, 15000.0, 50)
        ev = st_.e_vib_el(Tv)
        assert np.all(np.diff(ev) > 0)

    def test_cv_vib_el_is_derivative(self):
        st_ = SpeciesThermo(SPECIES["O2"])
        Tv = 4000.0
        fd = float(st_.e_vib_el(Tv + 1.0) - st_.e_vib_el(Tv - 1.0)) / 2.0
        assert fd == pytest.approx(float(st_.cv_vib_el(Tv)), rel=1e-5)

    def test_atom_has_no_vibrational_energy_but_electronic(self):
        st_ = SpeciesThermo(SPECIES["O"])
        # O fine-structure levels contribute at modest T
        assert float(st_.e_vib_el(1000.0)) > 0.0
        st_ar = SpeciesThermo(SPECIES["Ar"])
        # catlint: disable=CAT010 -- Ar has no vibrational modes: e_vib_el is a zeros array
        assert float(st_ar.e_vib_el(1000.0)) == 0.0


class TestThermoSet:
    def test_shapes(self, air11):
        ts = ThermoSet(air11)
        T = np.linspace(300, 5000, 7).reshape(7)
        assert ts.cp(T).shape == (7, 11)
        assert ts.h(np.ones((2, 3))).shape == (2, 3, 11)

    def test_reference_covers_every_method(self):
        public = {name for name in vars(ThermoSet)
                  if not name.startswith("_")}
        assert public == set(PER_SPECIES) | {"cp_tr_rot_mass"}

    @pytest.mark.parametrize("T", T_CASES.values(), ids=T_CASES.keys())
    @pytest.mark.parametrize("which", SETS.values(), ids=SETS.keys())
    @pytest.mark.parametrize("method", PER_SPECIES)
    def test_matches_per_species(self, method, which, T):
        # the batched set is bitwise equal to the SpeciesThermo loop
        ts = ThermoSet(species_set(which))
        expected = np.stack([PER_SPECIES[method](st_, T) for st_ in ts.each],
                            axis=-1)
        np.testing.assert_array_equal(getattr(ts, method)(T), expected)

    @pytest.mark.parametrize("which", SETS.values(), ids=SETS.keys())
    def test_cp_tr_rot_mass_matches_per_species(self, which):
        ts = ThermoSet(species_set(which))
        expected = [st_.cp_tr_rot(300.0) / st_.M for st_ in ts.each]
        np.testing.assert_array_equal(ts.cp_tr_rot_mass(), expected)
        assert not ts.cp_tr_rot_mass().flags.writeable

    def test_mass_units(self, air11):
        ts = ThermoSet(air11)
        T = np.array([1000.0])
        h_molar = ts.h(T)[0]
        h_mass = ts.h_mass(T)[0]
        assert np.allclose(h_mass, h_molar / air11.molar_mass)

    def test_scalar_input(self, air11):
        ts = ThermoSet(air11)
        out = ts.cp(300.0)
        assert out.shape == (11,)
