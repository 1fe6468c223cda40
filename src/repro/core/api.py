"""High-level mission-analysis API.

One-call entry points for the common CAT questions, wired through the
full solver stack:

* :func:`stagnation_environment` — "what does the stagnation point see at
  this flight condition?" (equilibrium shock, VSL heating, radiation).
* :func:`windward_heating` — "what does the windward centerline see?"
  (PNS march with catalysis).
* :func:`heat_pulse` — "what does the whole trajectory integrate to?"
  (correlation-level convective + radiative pulse and load).

Failure semantics: :func:`stagnation_environment` and
:func:`windward_heating` raise the typed :class:`~repro.errors.CatError`
with its attached :class:`~repro.resilience.FailureReport`.  The model
ladder lives where its traffic is: the batch service
(:func:`repro.service.evaluate_batch`) drops a failed solve one rung
down to the correlations, or records it in the request's envelope, and
runs heavy requests in a sandboxed child process under a wall-clock
deadline.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.atmosphere import EarthAtmosphere
from repro.errors import InputError
from repro.heating import sutton_graves_heating
from repro.radiation.correlations import tauber_sutton_radiative
from repro.thermo.equilibrium import (EquilibriumGas,
                                      air_reference_mass_fractions,
                                      titan_reference_mass_fractions)
from repro.thermo.species import species_set

__all__ = ["stagnation_environment", "windward_heating", "heat_pulse",
           "make_gas", "submit_async"]


def submit_async(kind: str, payload: dict | None = None, *, queue_dir,
                 job_id: str | None = None, priority: int = 0,
                 max_attempts: int | None = None,
                 deadline: float | None = None,
                 memory_mb: float | None = None,
                 stall_timeout: float | None = None):
    """Submit a long-running solve asynchronously; returns an
    :class:`~repro.service.jobs.AsyncJob` handle immediately.

    The job rides the durable work queue rooted at ``queue_dir`` and is
    executed by whatever farm supervisor drains it (``python -m repro
    serve --queue-dir D``) — possibly on another host, possibly after
    this process has exited.  The handle's ``status()`` / ``watch()`` /
    ``result()`` / ``cancel()`` read only durable state, so a fresh
    handle from a later process (``JobManager(queue_dir)`` + the job
    id) observes exactly the same job.  See DESIGN.md §9.
    """
    from repro.service.jobs import AsyncJob, JobManager
    manager = JobManager(queue_dir)
    sub = manager.submit(kind, payload, job_id=job_id,
                         priority=priority, max_attempts=max_attempts,
                         deadline=deadline, memory_mb=memory_mb,
                         stall_timeout=stall_timeout)
    return AsyncJob(manager, sub["job"])


def _build_air() -> EquilibriumGas:
    db = species_set("air11")
    return EquilibriumGas(db, air_reference_mass_fractions(db))


def _build_titan() -> EquilibriumGas:
    db = species_set("titan9")
    return EquilibriumGas(db, titan_reference_mass_fractions(db))


def _build_jupiter() -> EquilibriumGas:
    db = species_set("jupiter3")
    y = np.zeros(db.n)
    y[db.index["H2"]] = 0.75
    y[db.index["He"]] = 0.25
    return EquilibriumGas(db, y)


#: Registry of named gas models the front door accepts.
GAS_MODELS = {"equilibrium-air": _build_air, "titan": _build_titan,
              "jupiter": _build_jupiter}

_GAS_CACHE: dict[str, EquilibriumGas] = {}
_GAS_CACHE_LOCK = threading.Lock()


def make_gas(name: str, *, cached: bool = True) -> EquilibriumGas:
    """Build a named equilibrium gas model.

    Options: "equilibrium-air", "titan", "jupiter".  An unknown name
    raises a typed :class:`~repro.errors.InputError` listing the valid
    names.  Models are cached after first construction (building the
    species database and reference composition is the expensive part),
    so repeated batch requests share one instance; pass ``cached=False``
    to force a fresh build.
    """
    builder = GAS_MODELS.get(name)
    if builder is None:
        raise InputError(f"unknown gas model {name!r}; options: "
                         f"{', '.join(sorted(GAS_MODELS))}")
    if not cached:
        return builder()
    with _GAS_CACHE_LOCK:
        gas = _GAS_CACHE.get(name)
        if gas is None:
            gas = _GAS_CACHE[name] = builder()
    return gas


def clear_gas_cache() -> None:
    """Drop all cached gas models (test isolation hook)."""
    with _GAS_CACHE_LOCK:
        _GAS_CACHE.clear()


def stagnation_environment(*, V, h, nose_radius, atmosphere=None,
                           gas="equilibrium-air", T_wall=1500.0,
                           quick=True) -> dict:
    """Full stagnation-point aerothermal environment at one condition.

    Returns a dict with the shock state, convective and radiative wall
    fluxes, shock standoff, stagnation pressure and the shock-layer
    temperature/species profiles.
    """
    from repro.solvers.vsl import StagnationVSL

    atm = atmosphere or EarthAtmosphere()
    gas_model = make_gas(gas) if isinstance(gas, str) else gas
    vsl = StagnationVSL(gas_model, nose_radius=nose_radius)
    sol = vsl.solve(rho_inf=float(atm.density(h)),
                    T_inf=float(atm.temperature(h)), V=float(V),
                    T_wall=T_wall,
                    n_profile=40 if quick else 100,
                    n_lambda=150 if quick else 400)
    return {
        "ok": True,
        "q_conv": sol.q_conv,
        "q_rad": sol.q_rad,
        "standoff": sol.standoff,
        "p_stag": sol.p_stag,
        "T_edge": float(sol.T[-1]),
        "shock": sol.shock,
        "profiles": {"y": sol.y, "T": sol.T,
                     "composition": sol.composition},
        "solution": sol,
    }


def windward_heating(*, V, h, alpha_deg, nose_radius=1.3, length=32.77,
                     atmosphere=None, gas="equilibrium-air",
                     T_wall=1200.0, catalytic_phi=1.0,
                     n_stations=40, resilience=None) -> dict:
    """Windward-centerline heating distribution at one condition.

    ``gas`` is a named model, an :class:`EquilibriumGas`, or
    ``"ideal"`` / ``"ideal:<gamma>"`` for a perfect gas (gamma 1.4 when
    not given).  ``resilience`` enables the PNS per-station continuation
    fallback (degraded stations are listed in
    ``result.degraded_stations``).
    """
    from repro.geometry import OrbiterWindwardProfile
    from repro.solvers.pns import WindwardHeatingPNS

    if isinstance(catalytic_phi, tuple):
        raise InputError("windward_heating takes one catalytic_phi")
    atm = atmosphere or EarthAtmosphere()
    body = OrbiterWindwardProfile(alpha_deg=alpha_deg,
                                  nose_radius=nose_radius, length=length)
    if isinstance(gas, str) and gas.startswith("ideal"):
        pns = WindwardHeatingPNS(body, gamma=_ideal_gamma(gas))
    else:
        gas_model = make_gas(gas) if isinstance(gas, str) else gas
        pns = WindwardHeatingPNS(body, gas=gas_model)
    res = pns.solve(rho_inf=float(atm.density(h)),
                    T_inf=float(atm.temperature(h)), V=float(V),
                    T_wall=T_wall, n_stations=n_stations,
                    catalytic_phi=catalytic_phi, resilience=resilience)
    return {"ok": True, "x_over_L": res.x_over_L, "q": res.q,
            "q_stag": res.q_stag, "result": res}


def _ideal_gamma(spec: str) -> float:
    """gamma of an ideal-gas spec: ``"ideal"`` (1.4) or ``"ideal:<gamma>"``
    with a finite gamma > 1; anything else raises :class:`InputError`."""
    if spec == "ideal":
        return 1.4
    head, _, text = spec.partition(":")
    try:
        gamma = float(text)
    except ValueError:
        gamma = np.nan
    if head != "ideal" or not 1.0 < gamma < np.inf:
        raise InputError(f"gas {spec!r}: expected 'ideal' or "
                         f"'ideal:<gamma>' with a number gamma > 1")
    return gamma


def _point_failure(i, t, reason) -> dict:
    """Per-point failure record for :func:`heat_pulse` report mode."""
    return {"index": int(i), "t": float(t), "error_type": "InputError",
            "reason": reason}


def heat_pulse(trajectory, nose_radius, *, atmosphere_key="earth",
               on_failure="raise") -> dict:
    """Correlation-level heating pulse along an integrated trajectory.

    Parameters
    ----------
    trajectory:
        A :class:`repro.trajectory.entry.Trajectory`.
    nose_radius:
        [m].
    atmosphere_key:
        Sutton-Graves constant selector ("earth", "titan", "jupiter").
    on_failure:
        ``"raise"`` (default) propagates the typed
        :class:`~repro.errors.InputError` if *any* trajectory point is
        non-physical; ``"report"`` instead records each bad point in a
        per-point ``failures`` list, masks it out of the arrays (NaN)
        and integrates the heat load over the remaining valid points —
        one corrupt sample never aborts the whole trajectory integral.
        When *every* point fails, report mode returns ``heat_load=NaN``
        with ``all_points_failed=True`` and ``peak=None`` — never a
        silent 0.0 masquerading as "no heating".

    Returns dict with per-time q_conv, q_rad, totals and the peak point.
    """
    if on_failure not in ("raise", "report"):
        raise InputError(f"unknown on_failure {on_failure!r}; options: "
                         f"raise, report")
    t = np.asarray(trajectory.t, dtype=float)
    rho = np.asarray(trajectory.rho, dtype=float)
    V = np.asarray(trajectory.V, dtype=float)

    if on_failure == "raise":
        q_conv = sutton_graves_heating(rho, V, nose_radius,
                                       atmosphere=atmosphere_key)
        if atmosphere_key == "earth":
            q_rad = tauber_sutton_radiative(rho, V, nose_radius)
        else:
            q_rad = np.zeros_like(q_conv)
        q_total = q_conv + q_rad
        i = int(np.argmax(q_total))
        return {"t": trajectory.t, "q_conv": q_conv, "q_rad": q_rad,
                "q_total": q_total,
                "heat_load": float(np.trapezoid(q_total, t)),
                "peak": {"t": float(trajectory.t[i]),
                         "q": float(q_total[i]),
                         "h": float(trajectory.h[i]),
                         "V": float(trajectory.V[i])}}

    finite = np.isfinite(t) & np.isfinite(rho) & np.isfinite(V)
    physical = finite & (rho > 0.0) & (V >= 0.0)
    failures = []
    for i in np.flatnonzero(~physical):
        if not finite[i]:
            reason = "non-finite trajectory point"
        elif rho[i] <= 0.0:
            reason = f"non-positive density rho={rho[i]:.3g}"
        else:
            reason = f"negative velocity V={V[i]:.3g}"
        failures.append(_point_failure(i, t[i] if np.isfinite(t[i])
                                       else np.nan, reason))

    # Evaluate the correlations on placeholder-filled arrays (both
    # correlations validate the whole array), then mask the bad points
    # back to NaN so they are visible but never poison the integral.
    rho_v = np.where(physical, rho, 1e-6)
    V_v = np.where(physical, V, 1.0)
    q_conv = sutton_graves_heating(rho_v, V_v, nose_radius,
                                   atmosphere=atmosphere_key)
    if atmosphere_key == "earth":
        q_rad = tauber_sutton_radiative(rho_v, V_v, nose_radius)
    else:
        q_rad = np.zeros_like(q_conv)
    q_total = q_conv + q_rad
    q_conv = np.where(physical, q_conv, np.nan)
    q_rad = np.where(physical, q_rad, np.nan)
    q_total = np.where(physical, q_total, np.nan)
    if not np.any(physical):
        # Report mode must not synthesize a number here: an integral
        # over zero valid points is not 0.0 (that reads as "no
        # heating"), it is unknown.  Return NaN with an explicit
        # all-points-failed record so callers cannot mistake a fully
        # corrupt trajectory for a cold one.
        return {"t": trajectory.t, "q_conv": q_conv, "q_rad": q_rad,
                "q_total": q_total,
                "heat_load": float("nan"),
                "peak": None,
                "failures": failures, "n_failed": len(failures),
                "all_points_failed": True}
    heat_load = float(np.trapezoid(q_total[physical], t[physical]))
    i = int(np.nanargmax(q_total))
    return {"t": trajectory.t, "q_conv": q_conv, "q_rad": q_rad,
            "q_total": q_total,
            "heat_load": heat_load,
            "peak": {"t": float(trajectory.t[i]),
                     "q": float(q_total[i]),
                     "h": float(trajectory.h[i]),
                     "V": float(trajectory.V[i])},
            "failures": failures, "n_failed": len(failures),
            "all_points_failed": False}
