"""Integration tests for the VSL and PNS solvers."""

import dataclasses

import numpy as np
import pytest

from repro.atmosphere import EarthAtmosphere, TitanAtmosphere
from repro.errors import ConvergenceError, InputError
from repro.geometry import OrbiterWindwardProfile
from repro.solvers.pns import PNSResult, WindwardHeatingPNS
from repro.solvers.vsl import StagnationVSL


@pytest.fixture(scope="module")
def titan_vsl_solution(titan_gas):
    vsl = StagnationVSL(titan_gas, nose_radius=0.64)
    atm = TitanAtmosphere()
    h = 287e3
    return vsl.solve(rho_inf=float(atm.density(h)),
                     T_inf=float(atm.temperature(h)), V=10000.0,
                     T_wall=1800.0, n_profile=50, n_lambda=150)


class TestVSL:
    def test_heating_magnitudes(self, titan_vsl_solution):
        s = titan_vsl_solution
        # hundreds of W/cm^2 convective; nonzero radiative
        assert 5e5 < s.q_conv < 2e7
        assert s.q_rad > 1e4

    def test_standoff_centimetre_scale(self, titan_vsl_solution):
        assert 0.005 < titan_vsl_solution.standoff < 0.08

    def test_profile_monotonic_geometry(self, titan_vsl_solution):
        s = titan_vsl_solution
        # catlint: disable=CAT010 -- wall node is the concatenated 0.0 literal
        assert s.y[0] == 0.0
        assert np.all(np.diff(s.y) > 0)

    def test_wall_and_edge_temperatures(self, titan_vsl_solution):
        s = titan_vsl_solution
        assert s.T[0] == pytest.approx(1800.0, rel=0.1)
        assert s.T[-1] > 6000.0

    def test_composition_profile_spans_regimes(self, titan_vsl_solution,
                                               titan9):
        x = titan_vsl_solution.mole_fractions(titan9)
        # CN exists somewhere in the layer (the Titan radiator)
        assert x[:, titan9.index["CN"]].max() > 1e-6
        # compositions are normalised
        assert np.allclose(x.sum(axis=1), 1.0, atol=1e-8)

    def test_radiative_spectrum_attached(self, titan_vsl_solution):
        s = titan_vsl_solution
        assert s.q_rad_spectrum is not None
        assert s.q_rad_spectrum.shape == s.wavelengths.shape
        # CN violet feature in the wall flux spectrum
        i_violet = np.argmin(np.abs(s.wavelengths - 0.388e-6))
        assert s.q_rad_spectrum[i_violet] > 0

    def test_invalid_nose_radius(self, titan_gas):
        with pytest.raises(InputError):
            StagnationVSL(titan_gas, nose_radius=-1.0)


@pytest.fixture(scope="module")
def sts3_point():
    atm = EarthAtmosphere()
    return dict(rho_inf=float(atm.density(71300.0)),
                T_inf=float(atm.temperature(71300.0)), V=6740.0,
                T_wall=1100.0)


class TestPNS:
    def test_ideal_mode_stagnation_magnitude(self, sts3_point):
        body = OrbiterWindwardProfile(40.0, 1.3)
        res = WindwardHeatingPNS(body, gamma=1.2).solve(
            n_stations=25, **sts3_point)
        # tens of W/cm^2 at the STS-3 point
        assert 1e5 < res.q_stag < 1e6

    def test_equilibrium_mode(self, sts3_point, air_gas):
        body = OrbiterWindwardProfile(40.0, 1.3)
        res = WindwardHeatingPNS(body, gas=air_gas).solve(
            n_stations=25, **sts3_point)
        assert res.mode == "equilibrium"
        assert 1e5 < res.q_stag < 1e6
        # x/L spans the body
        assert res.x_over_L[0] == pytest.approx(0.0, abs=1e-6)
        assert res.x_over_L[-1] > 0.9

    def test_heating_decays_downstream(self, sts3_point, air_gas):
        body = OrbiterWindwardProfile(40.0, 1.3)
        res = WindwardHeatingPNS(body, gas=air_gas).solve(
            n_stations=25, **sts3_point)
        q1 = np.interp(0.1, res.x_over_L, res.q)
        q2 = np.interp(0.6, res.x_over_L, res.q)
        assert q1 > 1.5 * q2

    def test_catalysis_reduces_heating(self, sts3_point, air_gas):
        body = OrbiterWindwardProfile(40.0, 1.3)
        pns = WindwardHeatingPNS(body, gas=air_gas)
        full = pns.solve(n_stations=15, **sts3_point)
        part = pns.solve(n_stations=15, catalytic_phi=0.1, **sts3_point)
        assert np.all(part.q < full.q)
        assert part.q[0] < 0.7 * full.q[0]

    def test_one_march_serves_every_catalytic_wall(self, sts3_point,
                                                   air_gas):
        # a tuple of efficiencies: one stagnation solve and one march,
        # each result bitwise equal to its own solve and owning its data
        body = OrbiterWindwardProfile(40.0, 1.3)
        pns = WindwardHeatingPNS(body, gas=air_gas)
        both = pns.solve(n_stations=15, catalytic_phi=(1.0, 0.15),
                         **sts3_point)
        assert isinstance(both, tuple) and len(both) == 2
        for phi, res in zip((1.0, 0.15), both):
            alone = pns.solve(n_stations=15, catalytic_phi=phi,
                              **sts3_point)
            for f in dataclasses.fields(PNSResult):
                got, want = getattr(res, f.name), getattr(alone, f.name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), f.name
                else:
                    assert got == want, f.name
        for f in dataclasses.fields(PNSResult):
            a, b = getattr(both[0], f.name), getattr(both[1], f.name)
            if isinstance(a, np.ndarray):
                assert not np.shares_memory(a, b), f.name
        assert both[0].degraded_stations is not both[1].degraded_stations
        assert np.all(both[1].q < both[0].q)

    @pytest.mark.parametrize("mode", ["equilibrium", "ideal"])
    @pytest.mark.parametrize("phi", [1.5, 7.0, -3.0, float("nan"), (),
                                     (1.0, float("nan")), (0.15, 1.5)],
                             ids=["1.5", "7", "-3", "nan", "empty",
                                  "tuple-nan", "tuple-1.5"])
    def test_catalytic_efficiency_checked_before_any_work(
            self, monkeypatch, sts3_point, air_gas, mode, phi):
        def no_work(*args, **kwargs):
            raise AssertionError("solved before checking catalytic_phi")

        monkeypatch.setattr(WindwardHeatingPNS, "_stagnation_equilibrium",
                            no_work)
        monkeypatch.setattr(WindwardHeatingPNS, "_stagnation_ideal", no_work)
        body = OrbiterWindwardProfile(40.0, 1.3)
        pns = (WindwardHeatingPNS(body, gas=air_gas)
               if mode == "equilibrium" else
               WindwardHeatingPNS(body, gamma=1.2))
        with pytest.raises(InputError):
            pns.solve(n_stations=15, catalytic_phi=phi, **sts3_point)

    def test_edge_expansion_consistency(self, sts3_point, air_gas):
        body = OrbiterWindwardProfile(40.0, 1.3)
        res = WindwardHeatingPNS(body, gas=air_gas).solve(
            n_stations=25, **sts3_point)
        # edge velocity rises through the nose expansion and holds on the
        # constant-angle ramp (p_e constant there by modified Newtonian)
        assert res.u_e[-1] >= res.u_e[1]
        assert res.u_e[1] > res.u_e[0]
        assert res.p_e[-1] < res.p_e[0]
        # edge temperature below stagnation everywhere off the nose
        assert np.all(res.T_e[1:] < res.T_e[0] + 1.0)

    def test_invalid_velocity(self, air_gas):
        body = OrbiterWindwardProfile(40.0, 1.3)
        with pytest.raises(InputError):
            WindwardHeatingPNS(body, gas=air_gas).solve(
                rho_inf=1e-4, T_inf=220.0, V=-5.0)


class TestStationFallback:
    """A station whose T(s, p) inversion fails: the resilient march
    carries the upstream edge state, a strict one names it."""

    @staticmethod
    def fail_station(monkeypatch, station, targets):
        """Make the ``station``-th ``_T_of_s_p`` call (one per station)
        raise; every call's entropy target lands in ``targets``."""
        T_of_s_p = WindwardHeatingPNS._T_of_s_p

        def flaky(self, s_target, p, T_guess, **kwargs):
            targets.append(s_target)
            if len(targets) == station + 1:
                raise ConvergenceError("T(s, p) inversion failed",
                                       iterations=60)
            return T_of_s_p(self, s_target, p, T_guess, **kwargs)

        monkeypatch.setattr(WindwardHeatingPNS, "_T_of_s_p", flaky)

    # station 1 is the first off the nose, so it carries the stagnation
    # T; station 7 sits on the constant-pressure run, where the next
    # station takes the entropy its upstream neighbour handed back
    @pytest.mark.parametrize("station", [1, 7])
    def test_resilient_march_carries_the_upstream_state(
            self, monkeypatch, sts3_point, air_gas, station):
        targets = []
        self.fail_station(monkeypatch, station, targets)
        pns = WindwardHeatingPNS(OrbiterWindwardProfile(40.0, 1.3),
                                 gas=air_gas)
        res = pns.solve(n_stations=15, resilience=True, **sts3_point)
        assert len(targets) == 15 and len(set(targets)) == 1
        assert res.degraded_stations == [station]
        assert res.T_e[station] == res.T_e[station - 1]
        # the station carries its neighbour's ρ_e, u_e, μ_e and heating,
        # not the zero of T0 at its own, lower p_e
        assert res.u_e[station] == res.u_e[station - 1]
        assert res.q[station] == res.q[station - 1] > 0.0
        assert np.all(np.isfinite(res.q))
        s_stag = targets[0]
        for i in range(15):
            if i == station:
                continue
            T, p = np.array(res.T_e[i]), np.array(res.p_e[i])
            y, _ = air_gas.composition_T_p(T, p)
            s = float(air_gas.mix.s_mass(T, p, y))
            assert abs(s - s_stag) < 1e-9 * abs(s_stag), i

    def test_strict_march_reports_the_station(self, monkeypatch,
                                              sts3_point, air_gas):
        self.fail_station(monkeypatch, 7, [])
        pns = WindwardHeatingPNS(OrbiterWindwardProfile(40.0, 1.3),
                                 gas=air_gas)
        with pytest.raises(ConvergenceError) as info:
            pns.solve(n_stations=15, **sts3_point)
        report = info.value.report
        assert report is not None and report.label == "pns"
        assert report.step == 7 and report.config["station"] == 7
        assert report.config["mode"] == "equilibrium"
