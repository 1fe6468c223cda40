"""Tests for frozen-composition mixture thermodynamics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import R_UNIVERSAL as R
from repro.errors import ConvergenceError
from repro.thermo.mixture import MixtureThermo
from repro.thermo.species import species_set


@pytest.fixture(scope="module")
def mix():
    return MixtureThermo("air11")


def air_y(db):
    y = np.zeros(db.n)
    y[db.index["N2"]] = 0.767
    y[db.index["O2"]] = 0.233
    return y


class TestGasConstants:
    def test_air_gas_constant(self, mix, air11):
        Rair = float(mix.gas_constant(air_y(air11)))
        assert Rair == pytest.approx(288.2, rel=2e-3)  # 0.767/0.233 split

    def test_pure_species_limits(self, mix, air11):
        y = np.zeros(air11.n)
        y[air11.index["N2"]] = 1.0
        assert float(mix.gas_constant(y)) == pytest.approx(
            R / 28.0134e-3, rel=1e-10)

    def test_molar_mass_inverse(self, mix, air11):
        y = air_y(air11)
        assert float(mix.molar_mass(y) * mix.gas_constant(y)) == (
            pytest.approx(R, rel=1e-12))


class TestCaloric:
    def test_air_cp_room_temperature(self, mix, air11):
        cp = float(mix.cp_mass(300.0, air_y(air11)))
        assert cp == pytest.approx(1005.0, rel=0.01)

    def test_gamma_room_temperature(self, mix, air11):
        g = float(mix.gamma_frozen(300.0, air_y(air11)))
        assert g == pytest.approx(1.40, abs=0.005)

    def test_sound_speed_room_temperature(self, mix, air11):
        a = float(mix.sound_speed_frozen(300.0, air_y(air11)))
        assert a == pytest.approx(347.0, rel=0.005)

    def test_gamma_drops_when_hot(self, mix, air11):
        y = air_y(air11)
        assert float(mix.gamma_frozen(3000.0, y)) < float(
            mix.gamma_frozen(300.0, y))

    def test_h_is_e_plus_RT(self, mix, air11):
        y = air_y(air11)
        for T in (300.0, 1500.0, 6000.0):
            h = float(mix.h_mass(T, y))
            e = float(mix.e_mass(T, y))
            assert h - e == pytest.approx(float(mix.gas_constant(y)) * T,
                                          rel=1e-10)

    def test_ideal_gas_law_roundtrip(self, mix, air11):
        y = air_y(air11)
        p = float(mix.pressure(1.2, 300.0, y))
        rho = float(mix.density(p, 300.0, y))
        assert rho == pytest.approx(1.2, rel=1e-12)


class TestInverseLookups:
    @given(T=st.floats(min_value=200.0, max_value=1.5e4))
    @settings(max_examples=40, deadline=None)
    def test_T_from_e_roundtrip(self, T):
        mix = MixtureThermo("air11")
        db = mix.db
        y = air_y(db)
        e = mix.e_mass(np.array(T), y)
        T_back = mix.T_from_e(e, y)
        assert float(T_back) == pytest.approx(T, rel=1e-6)

    @given(T=st.floats(min_value=200.0, max_value=1.5e4))
    @settings(max_examples=40, deadline=None)
    def test_T_from_h_roundtrip(self, T):
        mix = MixtureThermo("air11")
        y = air_y(mix.db)
        h = mix.h_mass(np.array(T), y)
        T_back = mix.T_from_h(h, y)
        assert float(T_back) == pytest.approx(T, rel=1e-6)

    def test_T_from_e_batched_mixed_compositions(self, mix, air11, rng):
        y = rng.random((20, air11.n))
        y /= y.sum(axis=1, keepdims=True)
        T_true = rng.uniform(300.0, 9000.0, 20)
        e = mix.e_mass(T_true, y)
        T_back = mix.T_from_e(e, y)
        assert np.allclose(T_back, T_true, rtol=1e-6)

    def test_T_from_e_bad_guess_recovers(self, mix, air11):
        y = air_y(air11)
        e = mix.e_mass(np.array(5000.0), y)
        T = mix.T_from_e(e, y, T_guess=np.array(100.0))
        assert float(T) == pytest.approx(5000.0, rel=1e-6)

    def test_T_from_e_failure_counts_the_states_it_stops_on(
            self, mix, air11, monkeypatch):
        # one state's e(T) jitters by +-3e-9 |e| from call to call: it
        # never meets the stop test |f| <= 1e-9 |e| + 1e-6, though it is
        # well inside 1e-5 |e|
        y = air_y(air11)
        e = mix.e_mass(np.array([800.0, 3000.0, 6000.0]), y)
        e_mass, sign = mix.e_mass, [1.0]

        def jitter(T, y_):
            out = e_mass(T, y_)
            sign[0] = -sign[0]
            out[1] += sign[0] * 3e-9 * abs(out[1])
            return out

        monkeypatch.setattr(mix, "e_mass", jitter)
        with pytest.raises(ConvergenceError,
                           match=r"failed for 1 state\(s\)") as exc:
            mix.T_from_e(e, y)
        assert list(exc.value.bad_indices) == [1]

    def test_T_from_e_judges_the_T_it_returns(self, mix, air11):
        # the one iteration checks the guess (off by 1e-6) and steps
        # from it; the stepped T meets the stop test, so it is returned
        y = air_y(air11)
        T_true = np.array([800.0, 3000.0, 6000.0])
        e = mix.e_mass(T_true, y)
        T = mix.T_from_e(e, y, T_guess=T_true * (1.0 + 1e-6), max_iter=1)
        assert np.all(np.abs(mix.e_mass(T, y) - e) <= 1e-9 * np.abs(e))
