"""Smoke/shape tests for the figure experiments (coarse settings).

The benchmarks run the full quick configurations; these tests exercise the
experiment plumbing at the cheapest possible settings so the unit suite
stays fast.
"""

import numpy as np
import pytest

from repro.experiments import (fig1_flight_domain, fig5_orbiter_geometry,
                               fig6_windward_heating, fig8_spectra)
from repro.experiments.data import (SHOCK_TUBE_SPECTRUM_SYNTHETIC,
                                    STS3_SYNTHETIC)


class TestSyntheticData:
    def test_sts3_monotone_decay(self):
        q = STS3_SYNTHETIC["q_w_cm2"]
        x = STS3_SYNTHETIC["x_over_L"]
        assert np.all(np.diff(q) < 0)
        assert np.all(np.diff(x) > 0)
        # roughly x^-1/2 decay on the ramp
        slope = np.polyfit(np.log(x[2:]), np.log(q[2:]), 1)[0]
        assert -0.8 < slope < -0.3

    def test_spectrum_has_expected_features(self):
        lam = SHOCK_TUBE_SPECTRUM_SYNTHETIC["wavelength_um"]
        I = SHOCK_TUBE_SPECTRUM_SYNTHETIC["radiance_rel"]
        # catlint: disable=CAT010 -- spectrum is normalised by its own max, so max is exactly 1
        assert I.max() == 1.0
        # N2+ 1- at 0.391, O 777 line present
        assert I[np.argmin(np.abs(lam - 0.391))] > 0.9
        assert I[np.argmin(np.abs(lam - 0.777))] > 0.8
        # visible trough
        assert I[np.argmin(np.abs(lam - 0.55))] < 0.1


class TestFig1:
    def test_quick_run_structure(self):
        res = fig1_flight_domain.run(quick=True)
        assert set(res["vehicles"]) == {"shuttle", "aotv", "tav"}
        for d in res["vehicles"].values():
            assert d["mach"].shape == d["reynolds"].shape
            assert np.all(d["reynolds"] > 0)

    def test_main_renders(self):
        out = fig1_flight_domain.main(quick=True)
        assert "flight domain" in out
        assert "shuttle" in out


class TestFig5:
    def test_run_and_render(self):
        res = fig5_orbiter_geometry.run(quick=True)
        assert res["length"] > 30.0
        out = fig5_orbiter_geometry.main(quick=True)
        assert "Orbiter" in out


class TestFig6:
    def test_one_equilibrium_march_for_both_catalytic_walls(self,
                                                             monkeypatch):
        from repro.solvers.pns import WindwardHeatingPNS
        calls = {"_stagnation_equilibrium": 0, "_expand_equilibrium": 0}
        for name in calls:
            method = getattr(WindwardHeatingPNS, name)

            def counted(self, *args, _method=method, _name=name, **kwargs):
                calls[_name] += 1
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(WindwardHeatingPNS, name, counted)
        res = fig6_windward_heating.run(quick=True)
        assert calls == {"_stagnation_equilibrium": 1,
                         "_expand_equilibrium": 1}
        assert np.all(res["partial"].q < res["equilibrium"].q)
        assert (res["partial"].T_e.tobytes()
                == res["equilibrium"].T_e.tobytes())


def _constant_profile(db, nx=25, T=10000.0):
    """A synthetic constant-state relaxation profile: N2/N/O at ``T``."""
    from repro.solvers.shock_relaxation import RelaxationProfile
    y = np.zeros((nx, db.n))
    y[:, db.index["N2"]] = 0.5
    y[:, db.index["N"]] = 0.3
    y[:, db.index["O"]] = 0.2
    return RelaxationProfile(
        x=np.linspace(0, 0.02, nx), T=np.full(nx, T), Tv=np.full(nx, T),
        y=y, rho=np.full(nx, 5e-3), u=np.full(nx, 800.0),
        p=np.full(nx, 1e4), db=db)


class TestFig8Plumbing:
    def test_run_all_reuses_fig7s_profile(self, air11, monkeypatch):
        # fig 7 solves the relaxation once and fig 8 radiates that
        # profile; its text is what fig 8 alone prints from its own solve
        import io

        from repro.experiments import fig7_shock_relaxation, runner
        from repro.solvers.shock_relaxation import ShockRelaxationSolver
        solves = []
        monkeypatch.setattr(
            ShockRelaxationSolver, "solve",
            lambda self, **kw: solves.append(kw) or _constant_profile(air11))
        monkeypatch.setattr(runner, "_MODULES",
                            [("fig7", fig7_shock_relaxation),
                             ("fig8", fig8_spectra)])
        out = io.StringIO()
        res = runner.run_all(quick=True, stream=out)
        assert not res["failures"] and len(solves) == 1
        alone = fig8_spectra.main(quick=True)
        assert len(solves) == 2 and solves[1] == solves[0]
        assert f"\n{alone}\n[fig8 completed in" in out.getvalue()

    def test_run_with_prebuilt_profile(self, air11):
        # a synthetic constant-state profile exercises the full fig8 path
        # without the expensive relaxation integration
        res = fig8_spectra.run(quick=True, profile=_constant_profile(air11))
        assert res["radiance"].shape == res["wavelength"].shape
        assert -1.0 <= res["log_correlation"] <= 1.0

    def test_main_renders(self, air11):
        from repro.solvers.shock_relaxation import RelaxationProfile
        nx = 10
        y = np.zeros((nx, air11.n))
        y[:, air11.index["N2"]] = 1.0
        prof = RelaxationProfile(
            x=np.linspace(0, 0.01, nx), T=np.full(nx, 9000.0),
            Tv=np.full(nx, 9000.0), y=y, rho=np.full(nx, 5e-3),
            u=np.full(nx, 800.0), p=np.full(nx, 1e4), db=air11)
        res = fig8_spectra.run(quick=True, profile=prof)
        assert res["computed_rel"].max() == pytest.approx(1.0)
