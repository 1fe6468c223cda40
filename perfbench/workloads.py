"""The benchmark's three workloads and the inputs they run.

Every workload is a fixed list of operations: figure runs or service
requests.  Each operation yields one latency sample and one
numeric output that :mod:`check` compares with the reference recorded
at the commit that defined the benchmark.

* ``stagnation-figs`` runs figs 2 (two trajectory points), 3 and 6
  quick: boundary-layer shooting and scalar Gibbs solves dominate.
* ``marching-figs`` runs figs 1, 5, 8 (which re-runs fig 7's relaxation)
  and 9 quick after building the equilibrium-air EOS table in set-up:
  Euler/NS marching, the stiff relaxation ODE and batched Gibbs solves;
  it makes no boundary-layer call.
* ``service-mix`` sends every request as its own ``evaluate_batch``
  call from one closed-loop client: correlation and equilibrium
  requests plus one sandboxed VSL and one sandboxed PNS request.

Light requests are drawn from a fixed pool whose results are recorded;
``--seed`` picks one member of each pool stratum and the order, so a
seed changes the inputs but not how much work they take.  The figures
take no input, so the seed does not change the figure workloads.
"""

from __future__ import annotations

import random

from repro.experiments import (fig1_flight_domain, fig2_titan_heating,
                               fig3_species_profiles, fig5_orbiter_geometry,
                               fig6_windward_heating, fig8_spectra,
                               fig9_n2_contours)
from repro.service import batch
from repro.service.breaker import BreakerBoard

#: (name, module, run() kwargs) per figure workload.  Fig 2 runs two of
#: its six quick trajectory points so that the workload fits the run
#: budget and stays a multi-point solve on one VSL solver.
FIGURES = {
    "stagnation-figs": [
        ("fig2", fig2_titan_heating, {"quick": True, "n_points": 2}),
        ("fig3", fig3_species_profiles, {"quick": True}),
        ("fig6", fig6_windward_heating, {"quick": True}),
    ],
    "marching-figs": [
        ("fig1", fig1_flight_domain, {"quick": True}),
        ("fig5", fig5_orbiter_geometry, {"quick": True}),
        ("fig8", fig8_spectra, {"quick": True}),
        ("fig9", fig9_n2_contours, {"quick": True}),
    ],
}

#: The pool is part of the benchmark's definition, not of a run.
POOL_SEED = 19890101
N_CORR = 600                      # correlation requests per run
N_GIBBS = 100                     # equilibrium requests per gas per run
GASES = ("equilibrium-air", "titan", "jupiter")

#: Heavy requests near the fig 6 point, equilibrium air.  Fixed, so that
#: a run's solver work does not depend on the seed; the seed places them.
HEAVY = [
    ("heavy-0", {"method": "stagnation", "V": 6740.0, "h": 71300.0,
                 "nose_radius": 1.3, "gas": "equilibrium-air"}),
    ("heavy-1", {"method": "windward", "V": 6100.0, "h": 74000.0,
                 "alpha_deg": 40.0, "gas": "equilibrium-air"}),
]

#: Per-request budget far above a heavy request's cost, so that a slower
#: commit reads as slower rather than as ``degraded``.
POLICY = batch.BatchPolicy(request_deadline=300.0)


def _latin(rng: random.Random, n: int, dims: int) -> list:
    """``n`` points in the unit cube, stratified in every dimension."""
    cols = []
    for _ in range(dims):
        perm = list(range(n))
        rng.shuffle(perm)
        cols.append([(p + rng.random()) / n for p in perm])
    return list(zip(*cols))


def light_pool() -> dict:
    """Pool id -> request: twice the per-run count of each class, in
    strata of two (consecutive ids share a stratum)."""
    rng = random.Random(POOL_SEED)
    pool = {}
    corr = sorted(_latin(rng, 2 * N_CORR, 3))
    for i, (u, v, w) in enumerate(corr):
        pool[f"corr-{i:04d}"] = {
            "method": ("heat_point", "stagnation_correlation")[i // 2 % 2],
            "V": 3000.0 + 8000.0 * u, "h": 30e3 + 60e3 * v,
            "nose_radius": 0.2 + 2.8 * w}
    for gas in GASES:
        for i, (u, v) in enumerate(sorted(_latin(rng, 2 * N_GIBBS, 2))):
            pool[f"gibbs-{gas}-{i:03d}"] = {
                "method": "equilibrium_composition", "gas": gas,
                "T": 300.0 + 11700.0 * u, "p": 10.0 ** (2.0 + 4.0 * v)}
    return pool


def plan(workload: str, seed: int) -> list:
    """The run's operations, in order: ``("figure", name, (mod,
    kwargs))`` or ``("request", pool_id, request)``."""
    if workload != "service-mix":
        return [("figure", name, (mod, kwargs))
                for name, mod, kwargs in FIGURES[workload]]
    rng = random.Random(seed)
    pool = light_pool()
    ids = sorted(pool)
    light = [ids[i + rng.randrange(2)] for i in range(0, len(ids), 2)]
    rng.shuffle(light)
    ops = [("request", pid, pool[pid]) for pid in light]
    step = len(ops) // (len(HEAVY) + 1)
    for k, (hid, req) in enumerate(HEAVY):
        at = (k + 1) * step + rng.randrange(-step // 4, step // 4)
        ops.insert(at, ("request", hid, req))
    return ops


def warm_up(board: BreakerBoard) -> None:
    """One untimed request per light method (and per gas model), so the
    first timed request does not pay for lazy construction."""
    warm = [{"method": "heat_point", "V": 7000.0, "h": 60e3,
             "nose_radius": 1.0},
            {"method": "stagnation_correlation", "V": 7000.0, "h": 60e3,
             "nose_radius": 1.0}]
    warm += [{"method": "equilibrium_composition", "gas": gas,
              "T": 3000.0, "p": 1e4} for gas in GASES]
    for req in warm:
        batch.evaluate_batch([req], POLICY, breakers=board)


def run_op(op, board: BreakerBoard):
    """Run one operation; returns ``(status, output)`` where status is
    ``"ok"`` or a one-line reason the operation failed."""
    kind, _, payload = op
    if kind == "figure":
        mod, kwargs = payload
        return "ok", mod.run(**kwargs)
    res = batch.evaluate_batch([payload], POLICY, breakers=board)
    env = res.envelopes[0]
    if env.status != "ok":
        return f"{env.status}: {env.error}", None
    return "ok", env.result


def latency_class(op) -> str:
    kind, _, payload = op
    if kind == "figure":
        return "figure"
    if payload["method"] in ("heat_point", "stagnation_correlation"):
        return "corr"
    if payload["method"] == "equilibrium_composition":
        return "gibbs"
    return "solver"
