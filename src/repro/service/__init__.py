"""Batch evaluation service: the front door for many flight conditions.

``evaluate_batch`` answers thousands of (vehicle, flight-condition,
method) requests per call with production failure semantics: up-front
validation into typed records, per-request outcome envelopes, the
method's model ladder (a failed solver rung falls back to the
correlations), load shedding, deadline budgets, circuit breakers per
method rung and idempotent request keys.  ``evaluate_batch_farm``
shards the same batch across the solve farm's durable work queue.  See
DESIGN.md §8.

:mod:`repro.service.jobs` is the *asynchronous* front door: a
:class:`JobManager` whose ``submit`` returns a durable job id
immediately, whose job record is the work queue's own, with live
progress, cancellation with escalation and TTL-based GC.  See
DESIGN.md §9.
"""

from repro.service.batch import (BatchPolicy, BatchResult, batch_jobs,
                                 batch_bench_record, evaluate_batch,
                                 evaluate_batch_farm, shard_requests)
from repro.service.breaker import BreakerBoard, BreakerPolicy
from repro.service.jobs import (AsyncJob, JOB_STATES, JOB_TERMINAL,
                                JobManager, run_async_attempt)
from repro.service.request import (Envelope, METHODS, Request,
                                   canonical_request, request_key,
                                   validate_request)

__all__ = ["AsyncJob", "BatchPolicy", "BatchResult", "BreakerBoard",
           "BreakerPolicy", "Envelope", "JOB_STATES", "JOB_TERMINAL",
           "JobManager", "METHODS", "Request", "batch_bench_record",
           "batch_jobs", "canonical_request", "evaluate_batch",
           "evaluate_batch_farm", "request_key", "run_async_attempt",
           "shard_requests", "validate_request"]
