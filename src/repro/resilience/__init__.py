"""Solver resilience layer: supervised marching, rollback-retry,
failure diagnostics and deterministic fault injection.

Production aerothermodynamics runs must degrade gracefully, not die.
This package provides the machinery the solver stack wires through:

* :class:`RunSupervisor` / :class:`RetryPolicy` — checkpointed marching
  with automatic rollback and CFL backoff,
* :func:`supervised_call` — bounded parameter-adjustment retries for
  one-shot solves,
* :class:`FailureReport` — the diagnostic bundle every exhausted retry
  ladder emits,
* :class:`Checkpoint` — restorable solver snapshots,
* :class:`FaultInjector` — deterministic NaN / perturbation / crash /
  hang / memory / IO faults so every recovery path is exercised by
  tests,
* :class:`ConservationWatchdog` / :class:`WatchdogEvent` — per-step
  auditing of conservation budgets, species bounds, entropy
  monotonicity and invalid-state localization,
* :class:`PersistencePolicy` / :class:`SnapshotStore` — durable,
  crash-safe snapshots on disk (atomic writes, SHA-256 verified loads,
  keep-last-K retention) so a SIGKILLed march, re-run with the same
  ``run(..., persist=dir)``, resumes bit-identical from its latest
  valid generation,
* :class:`IsolatedRunner` / :class:`IsolationPolicy` /
  :class:`IsolationEvent` / :class:`Heartbeat` — process-level
  isolation: solves run in supervised child processes under wall-clock
  deadlines, RSS memory budgets and heartbeat stall detection, and are
  killed (SIGTERM → SIGKILL) when they hang, balloon or crash (see
  :mod:`repro.resilience.isolation` and the chaos harness in
  :mod:`repro.resilience.chaos`),
* :class:`Farm` / :class:`FarmPolicy` / :class:`WorkQueue` /
  :class:`Job` / :class:`BackoffPolicy` / :class:`LeaseManager` — the
  fault-tolerant solve farm: a durable filesystem work queue drained by
  one supervisor running up to N jobs at once, each in its own
  sandbox, under lease-based ownership, retry with exponential
  backoff — the one way a killed march resumes from its durable
  snapshots — a dead-letter ledger, kill-and-resume campaigns and
  graceful drain (see :mod:`repro.resilience.farm`,
  :mod:`repro.resilience.queue` and :mod:`repro.resilience.lease`),
* :func:`audit_exactly_once` — the multi-host layer: several
  supervisors (each a ``host_id``, named ``host:pid``) drain one
  shared queue directory under clock-skew-tolerant leases, fenced
  commits and one append-only journal file per host; any host's
  campaign ledger folds every host's journal and carries the
  exactly-once journal audit.
"""

from repro.resilience.checkpoint import Checkpoint
from repro.resilience.farm import (Farm, FarmPolicy, WorkerKillPlan,
                                   audit_exactly_once, run_campaign,
                                   sweep_orphans)
from repro.resilience.lease import Lease, LeaseManager, default_host_id
from repro.resilience.queue import BackoffPolicy, Job, WorkQueue
from repro.resilience.isolation import (Heartbeat, IsolatedRunner,
                                        IsolationEvent, IsolationPolicy)
from repro.resilience.faults import Fault, FaultInjector, SimulatedCrash
from repro.resilience.persistence import (MANIFEST_SCHEMA_VERSION,
                                          LoadedSnapshot,
                                          PersistencePolicy, SnapshotStore,
                                          solver_fingerprint)
from repro.resilience.report import FailureReport, solver_config
from repro.resilience.supervisor import (RetryPolicy, RunSupervisor,
                                         supervised_call)
from repro.resilience.watchdog import ConservationWatchdog, WatchdogEvent

__all__ = ["BackoffPolicy", "Checkpoint", "ConservationWatchdog",
           "Farm", "FarmPolicy", "Fault", "FaultInjector", "FailureReport",
           "Heartbeat", "IsolatedRunner", "IsolationEvent",
           "IsolationPolicy", "Job", "Lease", "LeaseManager",
           "LoadedSnapshot", "MANIFEST_SCHEMA_VERSION",
           "PersistencePolicy", "RetryPolicy", "RunSupervisor",
           "SimulatedCrash", "SnapshotStore", "WatchdogEvent",
           "WorkQueue", "WorkerKillPlan", "audit_exactly_once",
           "default_host_id", "run_campaign",
           "solver_config", "solver_fingerprint", "supervised_call",
           "sweep_orphans"]
