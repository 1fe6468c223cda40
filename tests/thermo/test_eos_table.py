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


class TestColdBuild:
    def test_every_state_meets_the_energy_stop_test(self, air_gas_module):
        # the default table, its composition re-solved at the stored T:
        # twice the temperature iteration's tol, for the re-solve's last
        # digits
        from repro.thermo.eos_table import build_air_table
        tab = build_air_table()
        rho = np.exp(np.broadcast_to(tab.log_rho[:, None], tab.T.shape))
        e = np.exp(np.broadcast_to(tab.log_e, tab.T.shape))
        gas = air_gas_module
        y = gas.solver.solve_rho_T(rho, tab.T, gas.b)
        err = np.abs(gas.mix.e_mass(tab.T, y) - e)
        assert np.all(err < 2e-9 * np.maximum(np.abs(e), 1e4))


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

    def test_cache_file_from_other_inputs_is_rebuilt(self, tmp_path,
                                                     monkeypatch):
        from repro.thermo import eos_table
        monkeypatch.setattr(eos_table, "_AIR_TABLE_CACHE", {})
        fresh = eos_table.build_air_table(n_rho=6, n_e=8,
                                          cache_dir=str(tmp_path))
        path = tmp_path / "air_eos_6x8.npz"
        with np.load(path) as z:
            digest = str(z["digest"])
        stale = {"log_rho": fresh.log_rho, "log_e": fresh.log_e,
                 "gamma": fresh.gamma * 1.01, "T": fresh.T}
        # a table another build wrote, tagged with its own digest, and
        # one written before tables carried a digest
        for tag in ({"digest": np.array("another build")}, {}):
            np.savez(path, **stale, **tag)
            monkeypatch.setattr(eos_table, "_AIR_TABLE_CACHE", {})
            tab = eos_table.build_air_table(n_rho=6, n_e=8,
                                            cache_dir=str(tmp_path))
            np.testing.assert_array_equal(tab.gamma, fresh.gamma)
            with np.load(path) as z:
                assert str(z["digest"]) == digest
                np.testing.assert_array_equal(z["gamma"], fresh.gamma)

    def test_cache_file_with_this_builds_digest_loads_unbuilt(
            self, tmp_path, monkeypatch):
        from repro.thermo import eos_table
        monkeypatch.setattr(eos_table, "_AIR_TABLE_CACHE", {})
        built = eos_table.build_air_table(n_rho=6, n_e=8,
                                          cache_dir=str(tmp_path))
        monkeypatch.setattr(eos_table, "_AIR_TABLE_CACHE", {})

        def no_build(*args, **kwargs):
            raise AssertionError("a matching cache file was rebuilt")

        monkeypatch.setattr(EquilibriumEOSTable, "build", no_build)
        tab = eos_table.build_air_table(n_rho=6, n_e=8,
                                        cache_dir=str(tmp_path))
        np.testing.assert_array_equal(tab.gamma, built.gamma)
        np.testing.assert_array_equal(tab.T, built.T)


def _clip_locate(table, lr, le):
    """The clamped locate written with ``np.clip``: (i, j, wi, wj)."""
    lr = np.clip(lr, table.log_rho[0], table.log_rho[-1])
    le = np.clip(le, table.log_e[0], table.log_e[-1])
    fi = (lr - table.log_rho[0]) / (table.log_rho[1] - table.log_rho[0])
    fj = (le - table.log_e[0]) / (table.log_e[1] - table.log_e[0])
    i = np.clip(fi.astype(int), 0, table.log_rho.size - 2)
    j = np.clip(fj.astype(int), 0, table.log_e.size - 2)
    return i, j, fi - i, fj - j


def _reference(table, rho, e):
    """The per-quantity arithmetic the stacked evaluator replaced: separate
    gradient arrays, one bilinear call per channel, and the p and a^2
    formulas.  Returns (gamma, p, a, T)."""
    rho = np.asarray(rho, dtype=float)
    e = np.asarray(e, dtype=float)
    dg_dlr, dg_dle = np.gradient(table.gamma, table.log_rho, table.log_e)
    i, j, wi, wj = _clip_locate(table, np.log(np.maximum(rho, 1e-300)),
                                np.log(np.maximum(e, 1e-300)))

    def bilinear(tab):
        return ((1 - wi) * (1 - wj) * tab[i, j]
                + wi * (1 - wj) * tab[i + 1, j]
                + (1 - wi) * wj * tab[i, j + 1]
                + wi * wj * tab[i + 1, j + 1])

    gamma = bilinear(table.gamma)
    p = (gamma - 1.0) * rho * e
    dpdr = (gamma - 1.0) * e + e * bilinear(dg_dlr)
    dpde = (gamma - 1.0) * rho + rho * bilinear(dg_dle)
    a = np.sqrt(np.maximum(dpdr + p / rho**2 * dpde, 1.0))
    return gamma, p, a, bilinear(table.T)


class TestLocate:
    """`_locate` clamps with minimum/maximum and matches the np.clip
    locate bit for bit, and the strict table still raises."""

    @staticmethod
    def _states(table):
        lr, le = table.log_rho, table.log_e
        span_r, span_e = lr[-1] - lr[0], le[-1] - le[0]
        # past both ends of both axes, in range, every node, and NaN
        r = np.concatenate([np.linspace(lr[0] - span_r, lr[-1] + span_r,
                                        53), lr, [np.nan, lr[3]]])
        e = np.concatenate([np.linspace(le[0] - span_e, le[-1] + span_e,
                                        59), le, [le[5], np.nan]])
        return np.meshgrid(r, e, indexing="ij")

    def test_matches_clip_reference(self, small_table):
        lr, le = self._states(small_table)
        assert np.isnan(lr).any() and np.isnan(le).any()
        with np.errstate(invalid="ignore"):      # NaN -> int casts
            got = small_table._locate(lr, le)
            ref = _clip_locate(small_table, lr, le)
            scalar = small_table._locate(lr[7, 60], le[7, 60])
            scalar_ref = _clip_locate(small_table, lr[7, 60], le[7, 60])
        for g, r in zip(got + scalar, ref + scalar_ref):
            np.testing.assert_array_equal(g, r)
            assert np.asarray(g).dtype == np.asarray(r).dtype

    def test_strict_table_raises_on_the_same_states(self, small_table):
        t = small_table
        strict = EquilibriumEOSTable(t.log_rho, t.log_e, t.gamma, t.T,
                                     clamp=False)
        lr, le = self._states(t)
        inside = ((lr >= t.log_rho[0]) & (lr <= t.log_rho[-1])
                  & (le >= t.log_e[0]) & (le <= t.log_e[-1]))
        outside = ~inside & ~np.isnan(lr) & ~np.isnan(le)
        assert inside.any() and outside.any()
        for got, ref in zip(strict._locate(lr[inside], le[inside]),
                            _clip_locate(t, lr[inside], le[inside])):
            np.testing.assert_array_equal(got, ref)
        for state in zip(lr[outside], le[outside]):
            with pytest.raises(TableRangeError):
                strict._locate(*state)


class TestOneEvaluation:
    """`p_a_T` and the single-quantity wrappers reproduce the
    per-quantity arithmetic bit for bit."""

    @staticmethod
    def _assert_bitwise(table, rho, e):
        from repro.core.gas import TabulatedEOS
        gamma, p, a, T = _reference(table, rho, e)
        got = TabulatedEOS(table).p_a_T(rho, e)
        assert len(got) == 4
        for value, ref in zip(got, (p, a, T, gamma)):
            np.testing.assert_array_equal(value, ref)
            assert np.shape(value) == np.shape(ref)
        g, t = table.lookup(rho, e)
        np.testing.assert_array_equal(g, gamma)
        np.testing.assert_array_equal(t, T)
        np.testing.assert_array_equal(table.pressure(rho, e), p)
        np.testing.assert_array_equal(table.sound_speed(rho, e), a)
        np.testing.assert_array_equal(table.temperature(rho, e), T)

    def test_0d_1d_2d(self, small_table):
        rng = np.random.default_rng(3)
        self._assert_bitwise(small_table, 0.01, 3e6)
        self._assert_bitwise(small_table, np.array(0.2), np.array(4e5))
        self._assert_bitwise(small_table, 10.0 ** rng.uniform(-6, 0, 37),
                             10.0 ** rng.uniform(5, 7.9, 37))
        self._assert_bitwise(small_table,
                             10.0 ** rng.uniform(-6, 0, (31, 41)),
                             10.0 ** rng.uniform(5, 7.9, (31, 41)))

    def test_sweep_through_and_past_both_axes(self, small_table):
        # 11 decades of rho and 6 of e around the 8 x 3.5 decade table:
        # states clamped below and above both axes, and the corners
        rho, e = np.meshgrid(np.geomspace(1e-9, 1e2, 61),
                             np.geomspace(1e3, 1e9, 67), indexing="ij")
        self._assert_bitwise(small_table, rho, e)

    def test_exact_node_hits(self, small_table):
        rho, e = np.meshgrid(np.exp(small_table.log_rho),
                             np.exp(small_table.log_e), indexing="ij")
        self._assert_bitwise(small_table, rho, e)

    def test_strict_table_raises_from_p_a_T(self, small_table):
        from repro.core.gas import TabulatedEOS
        strict = EquilibriumEOSTable(small_table.log_rho, small_table.log_e,
                                     small_table.gamma, small_table.T,
                                     clamp=False)
        with pytest.raises(TableRangeError):
            TabulatedEOS(strict).p_a_T(1e-30, 1e5)
        with pytest.raises(TableRangeError):
            TabulatedEOS(strict).p_a_T(np.array([0.01, 0.01]),
                                       np.array([3e6, 1e12]))

    def test_ideal_gas_p_a_T(self):
        from repro.core.gas import IdealGasEOS
        eos = IdealGasEOS(1.3, 250.0)
        rng = np.random.default_rng(4)
        rho = rng.uniform(1e-4, 2.0, (7, 9))
        e = rng.uniform(1e4, 1e7, (7, 9))
        got = eos.p_a_T(rho, e)
        assert len(got) == 4
        for value, ref in zip(got, (eos.pressure(rho, e),
                                    eos.sound_speed(rho, e),
                                    eos.temperature(rho, e),
                                    np.full(rho.shape, 1.3))):
            np.testing.assert_array_equal(value, ref)

    def test_frozen_mixture_p_a_T_inverts_once(self, monkeypatch):
        from repro.solvers.reacting_euler2d import _FrozenMixtureEOS
        from repro.thermo.mixture import MixtureThermo
        from repro.thermo.species import species_set
        db = species_set("air5")
        mix = MixtureThermo(db)
        rng = np.random.default_rng(5)
        y = rng.random((6, 8, db.n))
        y /= y.sum(axis=-1, keepdims=True)
        rho = rng.uniform(1e-4, 1e-2, (6, 8))
        e = mix.e_mass(rng.uniform(300.0, 9000.0, (6, 8)), y)
        eos = _FrozenMixtureEOS(mix)
        eos.bind(y, None)
        # the reference: the two separate inversions the adapter's
        # pressure and sound_speed used to make
        e_eff = np.maximum(e, np.sum(y * db.hf0_mass, axis=-1) + 3.0e4)
        T_p = mix.T_from_e(e_eff, y, T_guess=None)
        T_a = mix.T_from_e(e_eff, y, T_guess=None)
        calls = []
        T_from_e = MixtureThermo.T_from_e
        monkeypatch.setattr(MixtureThermo, "T_from_e",
                            lambda self, *a, **kw: (calls.append(1)
                                                    or T_from_e(self, *a,
                                                                **kw)))
        p, a, T, gamma = eos.p_a_T(rho, e)
        assert len(calls) == 1
        np.testing.assert_array_equal(p, mix.pressure(rho, T_p, y))
        np.testing.assert_array_equal(a, mix.sound_speed_frozen(T_a, y))
        np.testing.assert_array_equal(T, T_p)
        np.testing.assert_array_equal(gamma, mix.gamma_frozen(T_p, y))
