"""Tests for the two-temperature gas model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConvergenceError, InputError
from repro.thermo.kinetics import park_air_mechanism
from repro.thermo.two_temperature import TwoTemperatureGas


@pytest.fixture(scope="module")
def tt():
    return TwoTemperatureGas("air11", park_air_mechanism("air11"))


def frozen_air(db):
    y = np.zeros((1, db.n))
    y[0, db.index["N2"]] = 0.767
    y[0, db.index["O2"]] = 0.233
    return y


class TestEnergies:
    def test_total_energy_split(self, tt, air11):
        y = frozen_air(air11)
        T = np.array([5000.0])
        # equal temperatures: e_total == equilibrium-thermo e
        from repro.thermo.mixture import MixtureThermo
        mix = MixtureThermo(air11)
        e_ref = mix.e_mass(T, y)
        e_tt = tt.e_total(T, T, y)
        assert np.allclose(e_tt, e_ref, rtol=1e-12)

    def test_ev_zero_at_low_Tv(self, tt, air11):
        y = frozen_air(air11)
        assert float(tt.e_vib_el(np.array([50.0]), y)[0]) < 1.0

    def test_cv_vib_el_positive(self, tt, air11, rng):
        y = frozen_air(air11)
        Tv = rng.uniform(300, 12000, 5)
        assert np.all(tt.cv_vib_el(Tv, np.repeat(y, 5, axis=0)) > 0)


class TestInversions:
    @given(T=st.floats(min_value=300.0, max_value=14000.0),
           Tv=st.floats(min_value=300.0, max_value=14000.0))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, T, Tv):
        tt = TwoTemperatureGas("air11")
        y = frozen_air(tt.db)
        e = tt.e_total(np.array([T]), np.array([Tv]), y)
        ev = tt.e_vib_el(np.array([Tv]), y)
        T2, Tv2 = tt.T_from_e_ev(e, ev, y)
        assert T2[0] == pytest.approx(T, rel=1e-6)
        assert Tv2[0] == pytest.approx(Tv, rel=1e-5)

    def test_Tv_from_ev_batched(self, tt, air11, rng):
        y = np.repeat(frozen_air(air11), 10, axis=0)
        Tv = rng.uniform(500, 10000, 10)
        ev = tt.e_vib_el(Tv, y)
        Tv2 = tt.Tv_from_ev(ev, y)
        assert np.allclose(Tv2, Tv, rtol=1e-5)

    @pytest.mark.parametrize("guess", [False, True],
                             ids=["cold", "Tv_guess"])
    def test_Tv_from_ev_matches_two_pass_newton(self, tt, air11, guess):
        # one e/cv call per iteration and the min/max clamps leave
        # every iterate, and so the answer, bitwise unchanged
        ev, y, Tv_guess = _clamp_batch(tt, air11)
        if not guess:
            ev, y, Tv_guess = ev[:-1], y[:-1], None
        hits = set()
        expected = _two_pass_Tv_from_ev(tt, ev, y, Tv_guess, hits)
        np.testing.assert_array_equal(
            tt.Tv_from_ev(ev, y, Tv_guess=Tv_guess), expected)
        # the batch reaches the step clamps and the range clamps
        assert hits >= ({"-0.5 Tv", "2 Tv", "1e5 K"}
                        | ({"10 K"} if guess else set()))

    # (energy shape, y batch shape, guess shape) -> result shape: the
    # relaxation solver's one state, the reacting solver's grid, a flat
    # state and a guess that sets the shape
    SHAPES = [((), (1,), (), (1,)), ((), (1,), (1,), (1,)),
              ((2, 3), (2, 3), (2, 3), (2, 3)), ((), (), (), ()),
              ((), (), (4,), (4,))]
    SHAPE_IDS = ["relaxation", "relaxation-1d-guess", "reacting-grid",
                 "flat", "guess-sets-shape"]

    @pytest.mark.parametrize("e_shape, y_shape, g_shape, out_shape",
                             SHAPES, ids=SHAPE_IDS)
    def test_Tv_from_ev_shape_does_not_depend_on_iterations(
            self, tt, air11, e_shape, y_shape, g_shape, out_shape):
        # cold, from a guess that already meets the tolerance (no Newton
        # step) and from a guess that needs steps: one result shape
        y = np.broadcast_to(frozen_air(air11)[0], y_shape + (air11.n,))
        ev = np.full(e_shape, float(tt.e_vib_el(6000.0, y).flat[0]))
        cold = tt.Tv_from_ev(ev, y)
        warm = tt.Tv_from_ev(ev, y, Tv_guess=np.full(g_shape,
                                                     cold.flat[0]))
        stepped = tt.Tv_from_ev(ev, y, Tv_guess=np.full(g_shape, 3000.0))
        assert cold.shape == np.broadcast_shapes(e_shape, y_shape)
        assert warm.shape == stepped.shape == out_shape
        np.testing.assert_array_equal(warm, cold.flat[0])
        np.testing.assert_allclose(stepped, 6000.0, rtol=1e-8)

    @pytest.mark.parametrize("e_shape, y_shape, g_shape, out_shape",
                             SHAPES, ids=SHAPE_IDS)
    def test_T_from_e_ev_shape_does_not_depend_on_iterations(
            self, tt, air11, e_shape, y_shape, g_shape, out_shape):
        y = np.broadcast_to(frozen_air(air11)[0], y_shape + (air11.n,))
        e = np.full(e_shape, float(tt.e_total(7000.0, 6000.0, y).flat[0]))
        ev = np.full(e_shape, float(tt.e_vib_el(6000.0, y).flat[0]))
        T_cold, Tv_cold = tt.T_from_e_ev(e, ev, y)
        T_warm, Tv_warm = tt.T_from_e_ev(
            e, ev, y, T_guess=np.full(g_shape, T_cold.flat[0]))
        T_step, Tv_step = tt.T_from_e_ev(e, ev, y,
                                         T_guess=np.full(g_shape, 4000.0))
        cold_shape = np.broadcast_shapes(e_shape, y_shape)
        assert T_cold.shape == Tv_cold.shape == cold_shape
        assert T_warm.shape == T_step.shape == out_shape
        assert Tv_warm.shape == Tv_step.shape == cold_shape
        np.testing.assert_array_equal(T_warm, T_cold.flat[0])
        np.testing.assert_allclose(T_step, 7000.0, rtol=1e-8)


def _two_pass_Tv_from_ev(tt, ev, y, Tv_guess, hits):
    """The Tv Newton as it was written with separate e_v and c_v,v
    passes and ``np.clip``; records in ``hits`` which clamps bound."""
    Tv = (np.full(ev.shape, 2000.0) if Tv_guess is None
          else np.array(Tv_guess, dtype=float))
    scale = np.maximum(np.abs(ev), 1e2)
    for _ in range(80):
        f = tt.e_vib_el(Tv, y) - ev
        if np.all(np.abs(f) <= 1e-9 * scale):
            return Tv
        cv = np.maximum(tt.cv_vib_el(Tv, y), 1e-3)
        step = -f / cv
        hits |= {name for name, hit in (("-0.5 Tv", step < -0.5 * Tv),
                                        ("2 Tv", step > 2.0 * Tv))
                 if np.any(hit)}
        Tv = Tv + np.clip(step, -0.5 * Tv, 2.0 * Tv)
        hits |= {name for name, hit in (("10 K", Tv < 10.0),
                                        ("1e5 K", Tv > 1.0e5))
                 if np.any(hit)}
        Tv = np.clip(Tv, 10.0, 1.0e5)
    assert np.all(np.abs(tt.e_vib_el(Tv, y) - ev) <= 1e-4 * scale)
    return Tv


def _clamp_batch(tt, db):
    """Nine (ev, y, Tv_guess) states: seven pools of air, N/O and an
    ionised mix between 50 K and 9e4 K, one just above e_v(1e5 K) and,
    last, a slightly negative pool that the Newton drives into 10 K."""
    y = np.zeros((9, db.n))
    y[[0, 1, 2, 7], db.index["N2"]] = 0.767
    y[[0, 1, 2, 7], db.index["O2"]] = 0.233
    y[[3, 4, 8], db.index["N"]] = 0.5
    y[[3, 4, 8], db.index["O"]] = 0.5
    for name, frac in (("N+", 0.3), ("O+", 0.2), ("N", 0.3), ("N2", 0.2)):
        y[[5, 6], db.index[name]] = frac
    Tv = np.array([300.0, 8000.0, 9.0e4, 50.0, 2.0e4, 3000.0, 6.0e4,
                   1.0e5, 10.0])
    ev = tt.e_vib_el(Tv, y)
    ev[7] *= 1.0 + 3e-5
    ev[8] = -8e-3
    guess = np.array([2000.0, 2000.0, 2000.0, 15.0, 2000.0, 3.0e4, 500.0,
                      6.0e4, 15.0])
    return ev, y, guess


class TestLandauTeller:
    def test_sign_convention(self, tt, air11):
        y = frozen_air(air11)
        rho = np.array([0.01])
        hot_T = tt.landau_teller_source(rho, np.array([9000.0]),
                                        np.array([2000.0]), y)
        assert hot_T[0] > 0  # translation heats vibration
        hot_Tv = tt.landau_teller_source(rho, np.array([2000.0]),
                                         np.array([9000.0]), y)
        assert hot_Tv[0] < 0

    def test_zero_at_equilibrium(self, tt, air11):
        y = frozen_air(air11)
        q = tt.landau_teller_source(np.array([0.01]), np.array([6000.0]),
                                    np.array([6000.0]), y)
        assert abs(q[0]) < 1e-6

    def test_scales_with_density(self, tt, air11):
        y = frozen_air(air11)
        q1 = tt.landau_teller_source(np.array([0.001]), np.array([8000.0]),
                                     np.array([3000.0]), y)
        q2 = tt.landau_teller_source(np.array([0.01]), np.array([8000.0]),
                                     np.array([3000.0]), y)
        # tau ~ 1/p so source ~ rho^2 (up to Park correction)
        assert q2[0] > 10 * q1[0]


class TestChemistryCoupling:
    def test_dissociation_removes_vibrational_energy(self, tt, air11):
        # hot frozen air: O2 dissociating, so the pool loses the energy
        # carried by destroyed molecules (negative source at modest Tv
        # once weighted by creation of atoms with no pool energy)
        y = frozen_air(air11)
        Tv = np.array([4000.0])
        wdot, _ = tt.sources(np.array([0.01]), np.array([8000.0]), Tv, y)
        chem = np.sum(wdot * tt.thermo.e_vib_el_mass(Tv), axis=-1)
        assert chem[0] < 0

    def test_total_source_composition(self, tt, air11):
        y = frozen_air(air11)
        rho = np.array([0.01])
        T, Tv = np.array([8000.0]), np.array([4000.0])
        wdot, total = tt.sources(rho, T, Tv, y)
        np.testing.assert_array_equal(
            wdot, tt.mechanism.wdot(rho, T, y, Tv))
        lt = tt.landau_teller_source(rho, T, Tv, y)
        chem = np.sum(wdot * tt.thermo.e_vib_el_mass(Tv), axis=-1)
        np.testing.assert_array_equal(total, lt + chem)

    @pytest.mark.parametrize("guess", [None, 3000.0], ids=["cold", "warm"])
    def test_pool_hand_off_is_bitwise(self, tt, air11, guess):
        # the Newton's last e_v,s(Tv) and the sources' e_v,s(T) are the
        # passes a caller would otherwise make at the same temperatures
        y = np.repeat(frozen_air(air11), 3, axis=0)
        rho, T = np.array([0.01, 0.02, 0.05]), np.array([8e3, 6e3, 9e3])
        ev = tt.e_vib_el(np.array([4e3, 2.5e3, 7e3]), y)
        pool = {}
        Tv = tt.Tv_from_ev(ev, y, Tv_guess=guess, pool=pool)
        np.testing.assert_array_equal(pool["Tv"],
                                      tt.thermo.e_vib_el_mass(Tv))
        handed = tt.sources(rho, T, Tv, y, pool=pool)
        np.testing.assert_array_equal(pool["T"], tt.thermo.e_vib_el_mass(T))
        for got, fresh in zip(handed, tt.sources(rho, T, Tv, y)):
            np.testing.assert_array_equal(got, fresh)

    def test_mechanism_of_another_set_is_input_error(self, air11):
        # ``sources`` hands the mechanism the gas's g0/RT, species by
        # species, so the two must share one species set
        with pytest.raises(InputError):
            TwoTemperatureGas(air11, park_air_mechanism("air5"))

    def test_sources_without_mechanism_is_input_error(self, air11):
        # a missing mechanism is a set-up error, not a numerical failure
        # for the march supervisor to retry
        bare = TwoTemperatureGas(air11)
        with pytest.raises(InputError) as err:
            bare.sources(np.array([0.01]), np.array([8000.0]),
                         np.array([4000.0]), frozen_air(air11))
        assert not isinstance(err.value, ConvergenceError)
