"""The finite-volume residual and a 1-D march, pinned bit for bit.

``tests/golden/residuals.npz`` holds, for each case below, a marched
9 x 13 blunt-body state (``U``, ``U_inf``; for the reacting cases also
the warm-start temperature ``T``) and the ``residual()`` recorded on
it, plus the final ``U`` of a short Sod march.  The air11 reacting case
sums 11 species, past the 8 terms where NumPy's pairwise sum orders a
contiguous reduction differently from a strided one.  The tests rebuild each
solver, evaluate ``residual()`` on the stored state and compare it with
the recorded one.

The last bit is only reproducible where NumPy runs the same loops:
``exp``, ``log`` and ``power`` (the table build and lookup, the air11
thermodynamics) and the float reductions go through SIMD code chosen at
run time, which is not correctly rounded and differs between targets.
So the file also records its environment (NumPy version, machine, C
library and the SIMD targets NumPy dispatches to; see
``_environment``).  Where the environment matches — the recording
host: NumPy 2.4.6 on x86_64, glibc 2.36, targets X86_V2 to AVX512_SPR —
every byte must match (``assert_array_equal``), so a change to the flux,
reconstruction or gradient kernels that moves any value in its last bit
fails here.  Elsewhere each component must lie within 1e-12 of its
largest magnitude: with NumPy's AVX-512, or AVX-512 and AVX2, targets
switched off (``NPY_DISABLE_CPU_FEATURES``) the residuals moved by at
most 1.2e-14 of it, while a near-zero residual entry moved by up to
1e16 ULP, so a ULP bound would not hold.  Re-record on purpose only,
with ``PYTHONPATH=src python tests/solvers/test_residual_pins.py``.
"""

import json
import pathlib
import platform

import numpy as np
import pytest

from repro.atmosphere import EarthAtmosphere
from repro.core.gas import IdealGasEOS, TabulatedEOS
from repro.geometry import Hemisphere
from repro.grid import blunt_body_grid
from repro.resilience.chaos import CASES
from repro.solvers.euler1d import Euler1DSolver
from repro.solvers.euler2d import AxisymmetricEulerSolver
from repro.solvers.ns2d import AxisymmetricNSSolver
from repro.solvers.reacting_euler2d import ReactingEulerSolver
from repro.thermo.eos_table import build_air_table

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" \
    / "residuals.npz"


def _grid():
    return blunt_body_grid(Hemisphere(0.1), n_s=9, n_normal=13,
                           density_ratio=0.08, margin=3.0)


def _table_eos():
    return TabulatedEOS(build_air_table(n_rho=24, n_e=32))


#: case -> factory of a solver at its freestream (not yet marched)
FACTORIES = {
    "euler_ideal_hlle": lambda: AxisymmetricEulerSolver(
        _grid(), IdealGasEOS(1.4)),
    "euler_ideal_van_leer": lambda: AxisymmetricEulerSolver(
        _grid(), IdealGasEOS(1.4), flux="van_leer"),
    "euler_table": lambda: AxisymmetricEulerSolver(_grid(), _table_eos()),
    "ns_isothermal": lambda: AxisymmetricNSSolver(
        _grid(), _table_eos(), T_wall=1500.0),
    "ns_adiabatic": lambda: AxisymmetricNSSolver(
        _grid(), _table_eos(), T_wall=None),
    "order1": lambda: AxisymmetricEulerSolver(
        _grid(), IdealGasEOS(1.4), order=1),
}


def _reacting_air11():
    s = ReactingEulerSolver(blunt_body_grid(Hemisphere(0.05), n_s=9,
                                            n_normal=13, density_ratio=0.12,
                                            margin=2.5), "air11")
    y = np.zeros(s.ns)
    y[s.db.names.index("N2")], y[s.db.names.index("O2")] = 0.767, 0.233
    return s.set_freestream(1e-3, 6000.0, 250.0, y)


def _at_freestream(name):
    if name == "reacting":
        return CASES["reacting_euler2d"][0]()
    if name == "reacting_air11":
        return _reacting_air11()
    s = FACTORIES[name]()
    atm = EarthAtmosphere()
    rho = float(atm.density(20e3))
    T = float(atm.temperature(20e3))
    s.set_freestream(rho, 20.0 * float(atm.sound_speed(20e3)),
                     rho * atm.gas_constant * T)
    return s


def _sod():
    x = np.linspace(0.0, 1.0, 101)
    xc = 0.5 * (x[1:] + x[:-1])
    s = Euler1DSolver(x)
    s.set_initial(np.where(xc < 0.5, 1.0, 0.125), 0.0,
                  np.where(xc < 0.5, 1.0, 0.1))
    return s.run(0.1)


CASE_NAMES = [*FACTORIES, "reacting", "reacting_air11"]

#: off the recording environment: largest difference per component, as a
#: fraction of that component's largest recorded magnitude
OFF_HOST_TOL = 1e-12


def _environment():
    """What sets the last bit of NumPy's transcendental and reduction
    loops: its version, the machine, the C library and the SIMD targets
    its dispatcher uses on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:     # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    targets = [t for t in (*umath.__cpu_baseline__, *umath.__cpu_dispatch__)
               if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "machine": platform.machine(),
            "libc": " ".join(platform.libc_ver()), "simd": targets}


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as z:
        return {k: z[k] for k in z.files}


@pytest.fixture(scope="module")
def same_host(golden):
    return json.loads(str(golden["env"])) == _environment()


def _assert_pinned(actual, desired, same_host):
    if same_host:
        np.testing.assert_array_equal(actual, desired)
        return
    scale = np.abs(desired).max(axis=tuple(range(desired.ndim - 1)))
    scale = np.maximum(scale, np.finfo(float).tiny)
    np.testing.assert_allclose(actual / scale, desired / scale, rtol=0.0,
                               atol=OFF_HOST_TOL)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_residual_is_bitwise_pinned(golden, same_host, name):
    s = _at_freestream(name)
    s.U = golden[f"{name}/U"].copy()
    s.U_inf = golden[f"{name}/U_inf"].copy()
    if f"{name}/T" in golden:
        s.T = golden[f"{name}/T"].copy()
    R = s.residual(s.U)
    assert R.shape == s.U.shape
    _assert_pinned(R, golden[f"{name}/R"], same_host)


def test_sod_march_is_bitwise_pinned(golden, same_host):
    _assert_pinned(_sod().U, golden["sod/U"], same_host)


def test_off_host_bound_is_per_component(golden):
    """The off-host comparison scales each component by its own largest
    magnitude: a small component's error is not hidden by a large one."""
    R = golden["ns_isothermal/R"]
    _assert_pinned(R * (1.0 + 1e-14), R, same_host=False)
    k = int(np.argmin(np.abs(R).max(axis=(0, 1))))
    error = 1e-9 * np.abs(R[..., k]).max()
    assert error < OFF_HOST_TOL * np.abs(R).max()   # hidden by one scale
    bad = R.copy()
    bad[4, 6, k] += error
    with pytest.raises(AssertionError):
        _assert_pinned(bad, R, same_host=False)


def _record(path=GOLDEN):
    """March every case, record its state and residual, and the
    environment they were computed in."""
    out = {"env": np.array(json.dumps(_environment()))}
    for name in CASE_NAMES:
        s = _at_freestream(name)
        reacting = name.startswith("reacting")
        for _ in range(10 if reacting else 40):
            s.step(0.3)
        out[f"{name}/U"] = s.U
        out[f"{name}/U_inf"] = s.U_inf
        if reacting:
            out[f"{name}/T"] = s.T
        out[f"{name}/R"] = s.residual(s.U)
    out["sod/U"] = _sod().U
    np.savez_compressed(path, **out)
    print(f"wrote {path} ({len(out)} arrays)")


if __name__ == "__main__":
    _record()
