"""Tests for the high-level API facade and CLI."""

import numpy as np
import pytest

from repro.core import (heat_pulse, make_gas, stagnation_environment,
                        windward_heating)
from repro.errors import InputError


class TestMakeGas:
    def test_named_models(self):
        for name, major in (("equilibrium-air", "N2"), ("titan", "N2"),
                            ("jupiter", "H2")):
            gas = make_gas(name)
            assert gas.y_ref[gas.db.index[major]] > 0.5

    def test_unknown_raises(self):
        with pytest.raises(InputError):
            make_gas("venusian-sulfur")

    def test_unknown_error_lists_options(self):
        with pytest.raises(InputError, match="equilibrium-air"):
            make_gas("venusian-sulfur")

    def test_named_models_are_cached(self):
        from repro.core.api import clear_gas_cache
        clear_gas_cache()
        assert make_gas("titan") is make_gas("titan")
        assert make_gas("titan") is not make_gas("jupiter")

    def test_cached_false_builds_fresh(self):
        assert make_gas("titan", cached=False) is not make_gas("titan")

    def test_clear_cache_drops_instances(self):
        from repro.core.api import clear_gas_cache
        first = make_gas("equilibrium-air")
        clear_gas_cache()
        assert make_gas("equilibrium-air") is not first


class TestStagnationEnvironment:
    @pytest.fixture(scope="class")
    def env(self):
        return stagnation_environment(V=6700.0, h=65500.0,
                                      nose_radius=1.3)

    def test_cross_validates_with_sutton_graves(self, env):
        from repro.atmosphere import EarthAtmosphere
        from repro.heating import sutton_graves_heating
        atm = EarthAtmosphere()
        q_sg = float(sutton_graves_heating(atm.density(65500.0), 6700.0,
                                           1.3))
        # two independent routes to the same number: VSL similarity vs
        # the design correlation
        assert env["q_conv"] == pytest.approx(q_sg, rel=0.35)

    def test_standoff_consistent_with_euler_solver(self, env):
        # the Fig. 4 equilibrium standoff on the same body was ~6 cm
        assert 0.03 < env["standoff"] < 0.10

    def test_profiles_shape(self, env):
        p = env["profiles"]
        assert p["T"].shape == p["y"].shape
        assert p["composition"].shape[0] == p["y"].shape[0]

    def test_radiation_small_at_6p7kms(self, env):
        # air radiation is minor below ~9 km/s
        assert env["q_rad"] < 0.2 * env["q_conv"]

    def test_jupiter_entry_path(self):
        # Galileo-class: H2 dissociation buffers the shock-layer
        # temperature far below the frozen value even at 15 km/s
        from repro.atmosphere import JupiterAtmosphere
        env = stagnation_environment(V=15000.0, h=150e3,
                                     nose_radius=0.35, gas="jupiter",
                                     atmosphere=JupiterAtmosphere(),
                                     T_wall=2500.0)
        assert env["q_conv"] > 1e6
        assert env["T_edge"] < 8000.0   # vs ~30000 K frozen


class TestWindwardHeating:
    def test_ideal_gas_string_spec(self):
        res = windward_heating(V=6740.0, h=71300.0, alpha_deg=40.0,
                               gas="ideal:1.2", n_stations=15)
        assert res["q_stag"] > 1e5
        assert res["q"].shape == res["x_over_L"].shape

    @pytest.mark.parametrize("gas", ["idealgas", "ideal:1.4:2", "ideal:",
                                     "ideal:abc"])
    def test_malformed_ideal_spec_rejected(self, gas):
        # a typo or a malformed gamma must not fall back to gamma = 1.4
        with pytest.raises(InputError, match="ideal:<gamma>"):
            windward_heating(V=6740.0, h=71300.0, alpha_deg=40.0, gas=gas,
                             n_stations=15)

    def test_catalysis_parameter(self, air_gas):
        full = windward_heating(V=6740.0, h=71300.0, alpha_deg=40.0,
                                gas=air_gas, n_stations=12)
        part = windward_heating(V=6740.0, h=71300.0, alpha_deg=40.0,
                                gas=air_gas, n_stations=12,
                                catalytic_phi=0.2)
        assert part["q_stag"] == full["q_stag"]  # stag value pre-factor
        assert np.all(part["q"] < full["q"])

    def test_one_efficiency_per_call(self):
        # the solver's tuple form returns several results; the API's
        # result dict holds one distribution
        with pytest.raises(InputError):
            windward_heating(V=6740.0, h=71300.0, alpha_deg=40.0,
                             gas="ideal:1.2", n_stations=15,
                             catalytic_phi=(1.0, 0.2))


class TestHeatPulse:
    def test_aotv_pulse(self):
        from repro.atmosphere import EarthAtmosphere
        from repro.trajectory import AOTV, integrate_entry
        tr = integrate_entry(AOTV, EarthAtmosphere(), h0=122e3,
                             V0=9800.0, gamma0_deg=-4.7, t_max=1200.0)
        pulse = heat_pulse(tr, AOTV.nose_radius)
        assert pulse["heat_load"] > 0
        assert pulse["peak"]["q"] == pulse["q_total"].max()
        # peak heating near perigee
        assert abs(pulse["peak"]["h"] - tr.h.min()) < 20e3

    def test_titan_key_disables_air_radiation(self):
        from repro.atmosphere import TitanAtmosphere
        from repro.trajectory import TITAN_PROBE, integrate_entry
        tr = integrate_entry(TITAN_PROBE, TitanAtmosphere(), h0=800e3,
                             V0=12000.0, gamma0_deg=-40.0,
                             V_stop=1000.0)
        pulse = heat_pulse(tr, 0.64, atmosphere_key="titan")
        # catlint: disable=CAT010 -- q_rad is exactly zero below the radiative-heating velocity threshold
        assert np.all(pulse["q_rad"] == 0.0)
        assert pulse["q_conv"].max() > 1e5


class TestHeatPulseReportMode:
    """``on_failure="report"``: per-point failure records instead of an
    all-or-nothing InputError."""

    def _poisoned(self):
        import types
        t = np.linspace(0.0, 100.0, 21)
        V = np.full(21, 7000.0)
        h = np.full(21, 60e3)
        rho = np.full(21, 3.0e-4)
        V[3] = np.nan          # non-finite point
        rho[7] = -1.0e-4       # non-positive density
        V[11] = -50.0          # negative velocity
        return types.SimpleNamespace(t=t, V=V, h=h, rho=rho)

    def test_raise_mode_aborts_on_bad_point(self):
        with pytest.raises(InputError):
            heat_pulse(self._poisoned(), 1.0)

    def test_report_mode_records_each_bad_point(self):
        pulse = heat_pulse(self._poisoned(), 1.0, on_failure="report")
        assert pulse["n_failed"] == 3
        assert [f["index"] for f in pulse["failures"]] == [3, 7, 11]
        assert all(f["error_type"] == "InputError"
                   for f in pulse["failures"])
        reasons = " ".join(f["reason"] for f in pulse["failures"])
        assert "non-finite" in reasons
        assert "density" in reasons
        assert "velocity" in reasons

    def test_report_mode_masks_and_still_integrates(self):
        pulse = heat_pulse(self._poisoned(), 1.0, on_failure="report")
        assert np.isfinite(pulse["heat_load"])
        assert pulse["heat_load"] > 0.0
        assert np.isnan(pulse["q_total"][[3, 7, 11]]).all()
        good = np.delete(np.arange(21), [3, 7, 11])
        assert np.isfinite(pulse["q_total"][good]).all()
        assert np.isfinite(pulse["peak"]["q"])

    def test_report_mode_matches_raise_mode_when_clean(self):
        from repro.atmosphere import EarthAtmosphere
        from repro.trajectory import AOTV, integrate_entry
        tr = integrate_entry(AOTV, EarthAtmosphere(), h0=122e3,
                             V0=9800.0, gamma0_deg=-4.7, t_max=1200.0)
        a = heat_pulse(tr, AOTV.nose_radius)
        b = heat_pulse(tr, AOTV.nose_radius, on_failure="report")
        assert b["failures"] == []
        assert b["heat_load"] == a["heat_load"]
        assert np.array_equal(b["q_total"], a["q_total"])

    def test_all_points_bad_returns_nan_record(self):
        # a 0.0 heat load (or an abort) would hide total trajectory
        # corruption; report mode must say NaN and flag it explicitly
        bad = self._poisoned()
        bad.rho[:] = -1.0
        pulse = heat_pulse(bad, 1.0, on_failure="report")
        assert np.isnan(pulse["heat_load"])
        assert pulse["peak"] is None
        assert pulse["all_points_failed"] is True
        assert pulse["n_failed"] == 21
        assert np.isnan(pulse["q_total"]).all()

    def test_partial_failure_not_flagged_all_failed(self):
        pulse = heat_pulse(self._poisoned(), 1.0, on_failure="report")
        assert pulse["all_points_failed"] is False

    def test_bad_on_failure_value(self):
        with pytest.raises(InputError):
            heat_pulse(self._poisoned(), 1.0, on_failure="degrade")


class TestCLI:
    def test_overview(self, capsys):
        from repro.__main__ import main
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "sanity" in out

    def test_unknown_command(self, capsys):
        from repro.__main__ import main
        assert main(["teleport"]) == 2

    def test_stagnation_usage(self, capsys, monkeypatch):
        import repro.core
        from repro.__main__ import main

        def never(**kw):
            raise AssertionError("stagnation_environment was called")

        monkeypatch.setattr(repro.core, "stagnation_environment", never)
        for argv in (["1"], ["nan", "50e3", "1"], ["7000", "inf", "1"],
                     ["7000", "50e3", "0"], ["-5000", "50e3", "1"]):
            assert main(["stagnation", *argv]) == 2, argv
