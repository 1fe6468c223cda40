"""Tests for the planetary atmosphere models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atmosphere import (EarthAtmosphere, JupiterAtmosphere,
                              TitanAtmosphere)


@pytest.fixture(scope="module")
def earth():
    return EarthAtmosphere()


@pytest.fixture(scope="module")
def titan():
    return TitanAtmosphere()


def _geometric(hgp):
    """Geometric altitude for a geopotential table node (USSA76 tables are
    layered in geopotential altitude)."""
    from repro.constants import R_EARTH
    return R_EARTH * hgp / (R_EARTH - hgp)


class TestEarthUS76:
    """Checks against published USSA-1976 table values."""

    def test_sea_level(self, earth):
        assert float(earth.temperature(0.0)) == pytest.approx(288.15)
        assert float(earth.pressure(0.0)) == pytest.approx(101325.0)
        assert float(earth.density(0.0)) == pytest.approx(1.225, rel=1e-3)

    def test_tropopause(self, earth):
        h = _geometric(11000.0)
        assert float(earth.temperature(h)) == pytest.approx(216.65,
                                                            rel=1e-6)
        assert float(earth.pressure(h)) == pytest.approx(22632.0,
                                                         rel=0.002)

    def test_20km(self, earth):
        assert float(earth.pressure(_geometric(20000.0))) == pytest.approx(
            5474.9, rel=0.005)

    def test_stratopause_47km(self, earth):
        h = _geometric(47000.0)
        assert float(earth.temperature(h)) == pytest.approx(270.65,
                                                            rel=1e-6)
        assert float(earth.pressure(h)) == pytest.approx(110.9, rel=0.01)

    def test_71km(self, earth):
        h = _geometric(71000.0)
        assert float(earth.temperature(h)) == pytest.approx(214.65,
                                                            rel=1e-6)
        assert float(earth.density(h)) == pytest.approx(6.42e-5, rel=0.03)

    def test_density_65km(self, earth):
        # the Fig. 4 flight condition: h = 65.5 km
        rho = float(earth.density(65500.0))
        assert rho == pytest.approx(1.56e-4, rel=0.05)

    @given(h=st.floats(min_value=0.0, max_value=115000.0))
    @settings(max_examples=60, deadline=None)
    def test_pressure_monotone_decreasing(self, h):
        e = EarthAtmosphere()
        assert float(e.pressure(h + 200.0)) < float(e.pressure(h))

    def test_sound_speed_sea_level(self, earth):
        assert float(earth.sound_speed(0.0)) == pytest.approx(340.3,
                                                              rel=1e-3)

    def test_vectorised(self, earth):
        h = np.linspace(0, 100e3, 300)
        p = earth.pressure(h)
        assert p.shape == h.shape and np.all(np.diff(p) < 0)

    def test_gravity_decreases(self, earth):
        assert float(earth.gravity(100e3)) < float(earth.gravity(0.0))

    def test_mach_and_reynolds(self, earth):
        M = float(earth.mach_number(6740.0, 71300.0))
        assert M == pytest.approx(23.0, rel=0.05)  # STS-3 point is M~23
        Re = float(earth.reynolds_per_meter(6740.0, 71300.0)) * 32.8
        assert 1e5 < Re < 1e7  # Orbiter-length Re in the expected decade


class TestOneLookup:
    """T, p and density come from one layer lookup, in one path for
    scalars and arrays."""

    #: each layer base ± 1 m (geometric), and above the 86 km table top
    H = np.array([_geometric(hb) + d for hb in (0.0, 11000.0, 20000.0,
                                                 32000.0, 47000.0, 51000.0,
                                                 71000.0, 84852.0)
                  for d in (-1.0, 1.0)] + [86.5e3, 90e3, 105e3, 125e3])

    def test_scalar_and_array_temperature_agree_bit_for_bit(self, earth):
        batch = earth.temperature(self.H)
        assert batch.shape == self.H.shape
        for k, h in enumerate(self.H):
            assert (np.asarray(earth.temperature(float(h))).tobytes()
                    == np.asarray(batch[k]).tobytes()), h

    @pytest.mark.parametrize("name", ["pressure", "density"])
    def test_scalar_and_array_agree_to_a_few_ulp(self, earth, name):
        # the same expressions, but NumPy hands a 0-d input's ``**`` to
        # its scalar math (libm pow), while an array's may run a SIMD
        # power loop: with AVX-512, pressure differs at 188 of fig 1's
        # 4,704 RHS altitudes (by 1-2 ulp) and density at 175 (by 1-4
        # ulp), both as before the shared lookup (DESIGN §26.5)
        f = getattr(earth, name)
        batch = f(self.H)
        assert batch.shape == self.H.shape
        scalar = np.array([f(float(h)) for h in self.H])
        np.testing.assert_array_max_ulp(scalar, batch, maxulp=4)

    def test_density_makes_one_layer_lookup(self, earth, monkeypatch):
        calls = []
        lookup = EarthAtmosphere._layer_index

        def counted(self, hgp):
            calls.append(np.shape(hgp))
            return lookup(self, hgp)
        monkeypatch.setattr(EarthAtmosphere, "_layer_index", counted)
        rho = earth.density(65500.0)
        assert calls == [()]
        rho_batch = earth.density(self.H)
        assert calls == [(), self.H.shape]
        monkeypatch.undo()
        # the ideal-gas law on the same T and p, bit for bit
        assert rho == earth.pressure(65500.0) / (
            earth.gas_constant * earth.temperature(65500.0))
        np.testing.assert_array_equal(
            rho_batch, earth.pressure(self.H)
            / (earth.gas_constant * earth.temperature(self.H)))


class TestTitan:
    def test_surface(self, titan):
        assert float(titan.temperature(0.0)) == pytest.approx(94.0)
        assert float(titan.pressure(0.0)) == pytest.approx(1.5 * 101325.0)

    def test_surface_density(self, titan):
        # Titan surface density ~5.4 kg/m^3
        assert float(titan.density(0.0)) == pytest.approx(5.3, rel=0.1)

    def test_haze_layer_temperature(self, titan):
        # the paper's "organic haze layer": stratosphere ~170 K
        assert float(titan.temperature(250e3)) == pytest.approx(171.0,
                                                                rel=0.02)

    def test_monotone_pressure(self, titan):
        h = np.linspace(0, 1200e3, 500)
        assert np.all(np.diff(titan.pressure(h)) < 0)

    def test_entry_interface_density_scale(self, titan):
        # density scale height near 300 km should be tens of km
        h = 300e3
        rho1 = float(titan.density(h))
        rho2 = float(titan.density(h + 10e3))
        H = 10e3 / np.log(rho1 / rho2)
        assert 20e3 < H < 80e3

    def test_continuation_above_grid(self, titan):
        p = float(titan.pressure(2000e3))
        assert 0.0 < p < float(titan.pressure(1400e3))


class TestJupiter:
    def test_reference_level(self):
        j = JupiterAtmosphere()
        assert float(j.pressure(0.0)) == pytest.approx(1e5)

    def test_scale_height(self):
        j = JupiterAtmosphere()
        # H = R T / g ~ 24-27 km
        rho1 = float(j.density(0.0))
        rho2 = float(j.density(25e3))
        assert rho2 / rho1 == pytest.approx(np.exp(-1.0), rel=0.15)

    def test_light_gas_sound_speed(self):
        j = JupiterAtmosphere()
        # H2/He at 165 K: ~940 m/s, far above air's
        assert float(j.sound_speed(0.0)) == pytest.approx(940.0, rel=0.1)
