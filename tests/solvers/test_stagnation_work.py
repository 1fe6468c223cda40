"""The stagnation chain solves each equilibrium (T, p) state once.

The T(h, p) and T(s, p) secants hand back the state they converged on,
and the PNS march hands a station the entropy its start state already
has (DESIGN §25).  A wrapper on ``EquilibriumSolver.solve_T_p`` keys
every call on the bytes of (T, p, b): no key may come twice in one
figure or request.  The handed-back values must be the very floats a
fresh solve at the returned T gives.
"""

import numpy as np
import pytest

from repro.atmosphere import EarthAtmosphere
from repro.core import api
from repro.experiments import fig6_windward_heating as fig6
from repro.geometry import OrbiterWindwardProfile
from repro.solvers.pns import WindwardHeatingPNS
from repro.solvers.shock import _solve_T_of_h_p, equilibrium_normal_shock
from repro.thermo.equilibrium import EquilibriumSolver

#: fig 6 quick and perfbench's two heavy requests through the library
RUNS = {
    "fig6-quick": lambda: fig6.run(quick=True),
    "stagnation-environment": lambda: api.stagnation_environment(
        V=6740.0, h=71300.0, nose_radius=1.3),
    "windward-heating": lambda: api.windward_heating(
        V=6100.0, h=74000.0, alpha_deg=40.0),
}


@pytest.fixture
def solved_keys(monkeypatch):
    """The (T, p, b) bytes of every ``solve_T_p`` call, in call order."""
    keys = []
    solve_T_p = EquilibriumSolver.solve_T_p

    def keyed(self, T, p, b, **kwargs):
        keys.append(tuple(np.asarray(x, dtype=float).tobytes()
                          for x in (T, p, b)))
        return solve_T_p(self, T, p, b, **kwargs)

    monkeypatch.setattr(EquilibriumSolver, "solve_T_p", keyed)
    return keys


@pytest.mark.parametrize("run", sorted(RUNS))
def test_no_state_is_solved_twice(solved_keys, run):
    RUNS[run]()
    repeats = len(solved_keys) - len(set(solved_keys))
    assert solved_keys
    assert repeats == 0, (f"{repeats} of {len(solved_keys)} solve_T_p "
                          f"calls repeat a solved (T, p, b)")


def test_T_of_h_p_hands_back_the_state_at_its_root(air_gas):
    # fig 6's stagnation state behind its equilibrium normal shock
    shock = equilibrium_normal_shock(air_gas, 6.895e-5, 216.0, 6740.0)
    h0 = shock["h1"] + 0.5 * 6740.0 ** 2
    p_stag = shock["p2"] + shock["rho2"] * shock["u2"] ** 2
    T, y, rho = _solve_T_of_h_p(air_gas, h0, p_stag, shock["T2"])
    y_new, rho_new = air_gas.composition_T_p(np.array(T), np.array(p_stag))
    assert y.shape == y_new.shape and y.tobytes() == y_new.tobytes()
    assert np.asarray(rho).tobytes() == np.asarray(rho_new).tobytes()
    assert float(air_gas.mix.h_mass(np.array(T), y)) == pytest.approx(
        h0, rel=1e-10)


def test_T_of_s_p_hands_back_the_entropy_at_its_root(air_gas):
    # the root is near 771 K; test_failure_modes' isentrope test starts
    # the same secant above it, this one below
    pns = WindwardHeatingPNS(OrbiterWindwardProfile(40.0, 1.3), gas=air_gas)
    T, s = pns._T_of_s_p(9000.0, 2000.0, 400.0)
    y, _ = air_gas.composition_T_p(np.array(T), np.array(2000.0))
    assert s == float(air_gas.mix.s_mass(np.array(T), np.array(2000.0), y))
    # a start whose entropy is handed in stops there, solving nothing
    assert pns._T_of_s_p(9000.0, 2000.0, T, s_guess=s) == (T, s)


def test_march_hands_over_s_only_at_its_own_start_state(air_gas):
    # above p_stag the isentrope passes T0, and the next station's start
    # is clipped back to T0: the same pressure at another T, whose
    # entropy must be solved afresh
    atm = EarthAtmosphere()
    pns = WindwardHeatingPNS(OrbiterWindwardProfile(40.0, 1.3), gas=air_gas)
    stag = pns._stagnation_equilibrium(float(atm.density(71300.0)),
                                       float(atm.temperature(71300.0)),
                                       6740.0, 1100.0)
    p_e = stag["p_stag"] * np.array([1.0, 1.5, 1.5])
    T_e = pns._expand_equilibrium(stag, p_e)[0]
    assert T_e[1] > stag["T0"]
    for T, p in zip(T_e, p_e):
        y, _ = air_gas.composition_T_p(np.array(T), np.array(p))
        s = float(air_gas.mix.s_mass(np.array(T), np.array(p), y))
        assert abs(s - stag["s_stag"]) < 1e-9 * abs(stag["s_stag"])
