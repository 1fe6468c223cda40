"""Tests for the core facade: EOS models and state containers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FlightCondition, FreeStream, IdealGasEOS
from repro.core.gas import TabulatedEOS
from repro.errors import InputError


class TestIdealGasEOS:
    def test_consistency(self):
        eos = IdealGasEOS(1.4)
        rho, e = 1.2, 2.1e5
        p = float(eos.pressure(rho, e))
        assert p == pytest.approx(0.4 * rho * e)
        assert float(eos.e_from_p_rho(p, rho)) == pytest.approx(e)

    def test_sound_speed_room_air(self):
        eos = IdealGasEOS(1.4, 287.0528)
        e = eos.e_from_T(300.0)
        assert float(eos.sound_speed(1.2, e)) == pytest.approx(347.2,
                                                               rel=1e-3)

    def test_temperature_roundtrip(self):
        eos = IdealGasEOS(1.3, 250.0)
        e = eos.e_from_T(1234.0)
        assert float(eos.temperature(1.0, e)) == pytest.approx(1234.0)

    def test_invalid_gamma(self):
        with pytest.raises(InputError):
            IdealGasEOS(0.9)

    @given(g=st.floats(min_value=1.05, max_value=1.67),
           T=st.floats(min_value=50.0, max_value=5000.0))
    @settings(max_examples=30, deadline=None)
    def test_gamma_eff_constant(self, g, T):
        eos = IdealGasEOS(g)
        e = eos.e_from_T(T)
        assert float(eos.p_a_T(1.0, e)[3]) == pytest.approx(g)


class TestTabulatedEOS:
    @pytest.fixture(scope="class")
    def eos(self):
        from repro.thermo.eos_table import build_air_table
        return TabulatedEOS(build_air_table(n_rho=24, n_e=32))

    def test_cold_limit_matches_ideal(self, eos):
        # cold air: effective gamma ~ 1.4
        rho = 1.0
        e = 2.15e5   # ~300 K
        g = float(eos.p_a_T(rho, e)[3])
        assert g == pytest.approx(1.40, abs=0.01)

    def test_hot_gamma_drops(self, eos):
        g_cold = float(eos.p_a_T(0.01, 3e5)[3])
        g_hot = float(eos.p_a_T(0.01, 3e7)[3])
        assert g_hot < g_cold

    def test_e_from_p_rho_roundtrip(self, eos):
        rho, e = 0.01, 5e6
        p = float(eos.pressure(rho, e))
        e_back = float(eos.e_from_p_rho(p, rho))
        assert e_back == pytest.approx(e, rel=1e-6)

    def test_default_table_builds(self):
        # the standard 48x72 table, built cold: conftest empties HOME
        eos = TabulatedEOS()
        assert float(eos.pressure(0.1, 1e6)) > 0

    #: Five states of ``default_rng(0)``, 2,000 draws of rho = 10^U(-7, 1)
    #: and e = 10^U(log10 5e4, log10 1.5e8), on which an unguarded Newton
    #: 2-cycles on the default 48 x 72 table (22-29 % pressure error).
    CYCLING = [212, 214, 720, 1106, 1109]

    def test_e_from_p_rho_cycling_states_roundtrip(self):
        eos = TabulatedEOS()
        rng = np.random.default_rng(0)
        rho = 10.0 ** rng.uniform(-7, 1, 2000)[self.CYCLING]
        e = 10.0 ** rng.uniform(np.log10(5e4), np.log10(1.5e8),
                                2000)[self.CYCLING]
        p = eos.pressure(rho, e)
        e_back = eos.e_from_p_rho(p, rho)
        # the solver's own stopping rule, then the energy itself
        assert np.all(np.abs(eos.pressure(rho, e_back) - p)
                      < 1e-10 * np.maximum(p, 1.0))
        assert np.all(np.abs(e_back / e - 1.0) <= 1e-9)
        for k in range(len(self.CYCLING)):     # a batch is per-state
            assert float(eos.e_from_p_rho(p[k], rho[k])) == e_back[k]

    def test_e_from_p_rho_raises_when_unconverged(self):
        from repro.errors import ConvergenceError
        eos = TabulatedEOS()
        p = eos.pressure(np.array([0.01, 0.01]), np.array([5e7, 2e5]))
        with pytest.raises(ConvergenceError) as info:
            eos.e_from_p_rho(p, np.array([0.01, 0.01]), max_iter=2)
        assert info.value.iterations == 2
        assert list(info.value.bad_indices) == [0]
        assert info.value.residual > 1e-10


class TestFreeStream:
    def test_derived_quantities(self):
        fs = FreeStream(rho=1.225, T=288.15, V=680.6)
        assert fs.a == pytest.approx(340.3, rel=1e-3)
        assert fs.mach == pytest.approx(2.0, rel=1e-3)
        assert fs.p == pytest.approx(1.225 * 287.0528 * 288.15, rel=1e-9)
        assert fs.dynamic_pressure == pytest.approx(
            0.5 * 1.225 * 680.6**2)

    def test_total_enthalpy(self):
        fs = FreeStream(rho=1.0, T=300.0, V=1000.0)
        h0 = fs.gamma * fs.e_internal + 0.5e6
        assert fs.total_enthalpy == pytest.approx(h0)

    def test_invalid(self):
        with pytest.raises(InputError):
            FreeStream(rho=-1.0, T=300.0, V=100.0)


class TestFlightCondition:
    def test_freestream_from_atmosphere(self):
        fc = FlightCondition(V=6740.0, h=71300.0)
        fs = fc.freestream()
        assert fs.T == pytest.approx(216.0, rel=0.05)
        assert fc.mach == pytest.approx(23.0, rel=0.05)

    def test_custom_atmosphere(self):
        from repro.atmosphere import TitanAtmosphere
        fc = FlightCondition(V=5000.0, h=200e3,
                             atmosphere=TitanAtmosphere())
        fs = fc.freestream()
        assert 100.0 < fs.T < 200.0
