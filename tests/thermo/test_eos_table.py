"""Tests for the tabulated effective-gamma equilibrium EOS."""

import os

import numpy as np
import pytest

from repro.errors import InputError, TableRangeError
from repro.thermo.eos_table import EquilibriumEOSTable


@pytest.fixture(scope="module")
def small_table(air_gas_module):
    return EquilibriumEOSTable.build(air_gas_module, n_rho=20, n_e=28)


@pytest.fixture(scope="module")
def air_gas_module():
    from repro.thermo.equilibrium import (EquilibriumGas,
                                          air_reference_mass_fractions)
    from repro.thermo.species import species_set
    db = species_set("air11")
    return EquilibriumGas(db, air_reference_mass_fractions(db))


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(InputError):
            EquilibriumEOSTable(np.linspace(0, 1, 4), np.linspace(0, 1, 5),
                                np.zeros((5, 4)), np.zeros((5, 4)))

    def test_nonuniform_grid_rejected(self):
        lr = np.array([0.0, 1.0, 3.0])
        le = np.linspace(0, 1, 4)
        with pytest.raises(InputError):
            EquilibriumEOSTable(lr, le, np.ones((3, 4)), np.ones((3, 4)))

    @staticmethod
    def _table(lr=np.linspace(0, 1, 4), le=np.linspace(0, 1, 5),
               gamma=None, T=None):
        gamma = np.full((lr.size, le.size), 1.3) if gamma is None else gamma
        T = np.full((lr.size, le.size), 300.0) if T is None else T
        return EquilibriumEOSTable(lr, le, gamma, T)

    @pytest.mark.parametrize("kwargs", [
        # a descending axis passes the spacing check, then _locate's clip
        # pins every lookup to one edge
        {"lr": np.linspace(1, 0, 4)},
        {"le": np.linspace(1, 0, 5)},
        {"T": np.full((5, 4), 300.0)},
        {"gamma": np.where(np.eye(4, 5) > 0, np.nan, 1.3)},
        {"T": np.where(np.eye(4, 5) > 0, np.inf, 300.0)},
        {"lr": np.zeros(1)},
    ], ids=["descending_rho", "descending_e", "T_shape", "nan_gamma",
            "inf_T", "one_point"])
    def test_malformed_table_rejected(self, kwargs):
        with pytest.raises(InputError):
            self._table(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"rho_range": (10.0, 1e-7)},
        {"e_range": (1.5e8, 5e4)},
        {"n_rho": 1},
        {"n_e": 1},
    ], ids=["reversed_rho", "reversed_e", "one_rho", "one_e"])
    def test_build_rejects_grid_before_solving(self, kwargs):
        # the gas is never touched: validation precedes every solve
        with pytest.raises(InputError):
            EquilibriumEOSTable.build(object(), **kwargs)


class TestAccuracy:
    def test_pressure_against_direct_solve(self, small_table,
                                           air_gas_module, rng):
        rho = 10.0 ** rng.uniform(-5.5, 0.5, 50)
        e = 10.0 ** rng.uniform(5.3, 7.8, 50)
        st = air_gas_module.state_rho_e(rho, e)
        p_tab = small_table.pressure(rho, e)
        # coarse (20x28) table: several-percent bilinear error is expected
        assert np.max(np.abs(p_tab / st["p"] - 1.0)) < 0.08

    def test_temperature_against_direct_solve(self, small_table,
                                              air_gas_module, rng):
        rho = 10.0 ** rng.uniform(-5.5, 0.5, 50)
        e = 10.0 ** rng.uniform(5.3, 7.8, 50)
        st = air_gas_module.state_rho_e(rho, e)
        T_tab = small_table.temperature(rho, e)
        assert np.max(np.abs(T_tab / st["T"] - 1.0)) < 0.08

    def test_gamma_bounds(self, small_table):
        assert np.all(small_table.gamma > 1.0)
        assert np.all(small_table.gamma < 1.7)

    def test_sound_speed_reasonable(self, small_table, air_gas_module):
        # cold air point
        st = air_gas_module.state_rho_T(np.array([1.2]), np.array([300.0]))
        a = small_table.sound_speed(1.2, st["e"][0])
        assert 320.0 < float(a) < 380.0

    def test_exact_at_nodes(self, small_table):
        # interpolation reproduces node values exactly
        i, j = 7, 11
        rho = np.exp(small_table.log_rho[i])
        e = np.exp(small_table.log_e[j])
        gamma, T = small_table.lookup(rho, e)
        assert float(gamma) == pytest.approx(small_table.gamma[i, j],
                                             rel=1e-12)
        assert float(T) == pytest.approx(small_table.T[i, j], rel=1e-12)


class TestRangeHandling:
    def test_clamped_lookup(self, small_table):
        # default clamps: extreme inputs return boundary values
        g_lo, _ = small_table.lookup(1e-30, 1e5)
        assert np.isfinite(g_lo)

    def test_strict_mode_raises(self, small_table):
        strict = EquilibriumEOSTable(small_table.log_rho, small_table.log_e,
                                     small_table.gamma, small_table.T,
                                     clamp=False)
        with pytest.raises(TableRangeError):
            strict.lookup(1e-30, 1e5)


class TestPersistence:
    def test_save_load_roundtrip(self, small_table, tmp_path):
        path = os.path.join(tmp_path, "eos.npz")
        small_table.save(path)
        loaded = EquilibriumEOSTable.load(path)
        assert np.array_equal(loaded.gamma, small_table.gamma)
        assert np.array_equal(loaded.T, small_table.T)
        g1, t1 = loaded.lookup(0.01, 3e6)
        g2, t2 = small_table.lookup(0.01, 3e6)
        assert float(g1) == float(g2) and float(t1) == float(t2)

    def test_corrupt_cache_file_is_rebuilt(self, tmp_path, monkeypatch):
        from repro.thermo import eos_table
        monkeypatch.setattr(eos_table, "_AIR_TABLE_CACHE", {})
        path = tmp_path / "air_eos_6x8.npz"
        np.savez(path, log_rho=np.linspace(-16.0, 2.0, 6),
                 log_e=np.linspace(11.0, 19.0, 8),
                 gamma=np.full((6, 8), np.nan), T=np.full((6, 8), 300.0))
        tab = eos_table.build_air_table(n_rho=6, n_e=8,
                                        cache_dir=str(tmp_path))
        assert np.all(np.isfinite(tab.gamma)) and np.all(np.isfinite(tab.T))
        with np.load(path) as z:
            np.testing.assert_array_equal(z["gamma"], tab.gamma)
