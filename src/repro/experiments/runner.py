"""Run every figure experiment and print a combined report.

``python -m repro.experiments.runner [--full]`` — the same as
``python -m repro figures`` and takes the same flags.

The runner is resilient two ways:

* a failing figure is caught, summarised (with its
  :class:`~repro.resilience.FailureReport` when the resilience layer
  attached one) and the suite continues — one bad flight condition must
  not cost the other eight figures;
* with ``checkpoint_dir`` the suite is **durable**: each completed
  figure leaves an atomically-written ``<name>.done`` marker holding its
  output, and marching figures persist solver snapshots beneath
  ``<checkpoint_dir>/<name>/``.  Re-running with ``resume=True`` after a
  crash (SIGKILL, OOM, preemption) replays completed figures from their
  markers and continues interrupted ones mid-march (see
  :mod:`repro.resilience.persistence`).

``python -m repro campaign --figures`` runs the same nine figures as
sandboxed jobs on the solve farm (:mod:`repro.resilience.farm`).
"""

from __future__ import annotations

import inspect
import os
import shutil
import sys
import time
import traceback

from repro.experiments import (fig1_flight_domain, fig2_titan_heating,
                               fig3_species_profiles, fig4_shock_shape,
                               fig5_orbiter_geometry,
                               fig6_windward_heating,
                               fig7_shock_relaxation, fig8_spectra,
                               fig9_n2_contours)
from repro.resilience.persistence import atomic_write

__all__ = ["run_all"]

_MODULES = [
    ("fig1", fig1_flight_domain),
    ("fig2", fig2_titan_heating),
    ("fig3", fig3_species_profiles),
    ("fig4", fig4_shock_shape),
    ("fig5", fig5_orbiter_geometry),
    ("fig6", fig6_windward_heating),
    ("fig7", fig7_shock_relaxation),
    ("fig8", fig8_spectra),
    ("fig9", fig9_n2_contours),
]


def run_all(quick: bool = True, *, stream=None, keep_going: bool = True,
            checkpoint_dir: str | None = None,
            resume: bool = False) -> dict:
    """Run every experiment.

    Returns ``{"timings": {name: seconds}, "failures": {name: exc},
    "skipped": [names replayed from done markers]}``.
    With ``keep_going`` (the default) a failing figure is reported —
    including its attached FailureReport, when present — and the rest of
    the suite still runs; ``keep_going=False`` restores fail-fast.

    ``checkpoint_dir`` makes the suite durable (done markers + solver
    snapshots); ``resume`` replays completed figures from their markers
    and lets marching figures continue from their latest on-disk
    snapshot instead of starting over.

    Fig 8 radiates fig 7's relaxation profile: when fig 7 ran in this
    call, fig 8 reuses its profile; otherwise (fig 7 replayed from its
    marker, or failed) fig 8 solves the relaxation itself.
    """
    stream = stream or sys.stdout
    timings: dict[str, float] = {}
    failures: dict[str, Exception] = {}
    skipped: list[str] = []
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    profile = None   # fig 7's relaxation profile, once fig 7 ran here
    for name, mod in _MODULES:
        done_path = (None if checkpoint_dir is None
                     else os.path.join(checkpoint_dir, f"{name}.done"))
        print(f"\n{'=' * 78}\n{name}: {mod.__doc__.splitlines()[0]}"
              f"\n{'=' * 78}", file=stream)
        if resume and done_path is not None and os.path.exists(done_path):
            with open(done_path) as f:
                print(f.read(), file=stream)
            print(f"[{name} replayed from checkpoint]", file=stream)
            skipped.append(name)
            timings[name] = 0.0
            continue
        if checkpoint_dir is not None and not resume:
            # fresh (non-resume) run: stale markers/snapshots from an
            # earlier suite must not be silently resumed into
            if os.path.exists(done_path):
                os.remove(done_path)
            shutil.rmtree(os.path.join(checkpoint_dir, name),
                          ignore_errors=True)
        kwargs: dict = {"quick": quick}
        if (checkpoint_dir is not None and "persist_dir"
                in inspect.signature(mod.main).parameters):
            kwargs["persist_dir"] = os.path.join(checkpoint_dir, name)
        if name == "fig8" and profile is not None:
            kwargs["profile"] = profile
        t0 = time.perf_counter()
        try:
            if name == "fig7":
                res = mod.run(quick)
                profile = res["profile"]
                out = mod.report(res)
            else:
                out = mod.main(**kwargs)
            print(out, file=stream)
            if done_path is not None:
                # a crash mid-write never leaves a half-truthful
                # completion record
                atomic_write(done_path, out, fsync=True)
        except Exception as err:
            if not keep_going:
                raise
            failures[name] = err
            print(f"[{name} FAILED: {type(err).__name__}: {err}]",
                  file=stream)
            report = getattr(err, "report", None)
            if report is not None:
                print(report.summary(), file=stream)
            else:
                print("".join(traceback.format_exception(err)).rstrip(),
                      file=stream)
        finally:
            timings[name] = time.perf_counter() - t0
            print(f"[{name} completed in {timings[name]:.1f} s]",
                  file=stream)
    if skipped:
        print(f"\n{len(skipped)} figure(s) replayed from "
              f"{checkpoint_dir!r}: {skipped}", file=stream)
    if failures:
        print(f"\n{len(failures)}/{len(_MODULES)} figure(s) failed: "
              f"{sorted(failures)}", file=stream)
    return {"timings": timings, "failures": failures, "skipped": skipped}


if __name__ == "__main__":
    from repro.__main__ import main
    raise SystemExit(main(["figures", *sys.argv[1:]]))
