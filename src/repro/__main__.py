"""Command-line entry point: ``python -m repro [COMMAND] [options]``.

One argparse parser covers every command.  ``python -m repro`` alone
prints its help plus quick sanity numbers, and ``python -m repro
COMMAND --help`` describes each flag of a command.

Exit codes: 0 success, 1 solver/invariant failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.errors import CatError, InputError


def _bounded(cast, *, strict: bool = True):
    """``type=`` callable for a number flag: ``cast`` the text and require
    it finite and above zero (at least zero when not ``strict``)."""
    def parse(text: str):
        value = cast(text)
        if not 0 <= value < math.inf or (strict and value == 0):  # NaN fails
            raise argparse.ArgumentTypeError(
                f"must be finite and {'positive' if strict else '>= 0'}, "
                f"got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse says "invalid int value"
    return parse


_POS_INT, _POS_FLOAT = _bounded(int), _bounded(float)
_NONNEG_INT = _bounded(int, strict=False)
_NONNEG_FLOAT = _bounded(float, strict=False)


def _finite_float(text: str) -> float:
    """``type=`` callable for a signed number flag: any finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


_finite_float.__name__ = "float"  # argparse says "invalid float value"


def _job_id(text: str) -> str:
    """``type=`` callable for a job id: the queue's id rule, so a
    malformed id is a usage error before any path is built from it."""
    from repro.resilience.queue import check_job_id
    try:
        return check_job_id(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named flags that were set on the command line, as kwargs; the
    callee keeps its own defaults for the rest."""
    return {n: getattr(args, n) for n in names
            if getattr(args, n) is not None}


def _overview() -> None:
    import numpy as np

    from repro.core import make_gas
    print(_build_parser().format_help())
    gas = make_gas("equilibrium-air")
    y, _ = gas.composition_T_p(np.array(8000.0), np.array(101325.0))
    x = gas.db.mass_to_mole(np.atleast_2d(y))[0]
    print("sanity: equilibrium air at 8000 K, 1 atm -> "
          f"x_N = {x[gas.db.index['N']]:.3f}, "
          f"x_O = {x[gas.db.index['O']]:.3f} (mostly dissociated)")


def _cmd_figures(args: argparse.Namespace) -> int:
    if args.resume and args.checkpoint_dir is None:
        args.parser.error("--resume requires --checkpoint-dir")
    from repro.experiments.runner import run_all
    res = run_all(quick=not args.full, checkpoint_dir=args.checkpoint_dir,
                  resume=args.resume)
    return 1 if res["failures"] else 0


def _cmd_stagnation(args: argparse.Namespace) -> int:
    from repro.core import stagnation_environment
    V, h, rn = args.V, args.H, args.RN
    env = stagnation_environment(V=V, h=h, nose_radius=rn)
    print(f"V = {V:.0f} m/s, h = {h / 1e3:.1f} km, R_n = {rn} m:")
    print(f"  q_conv   = {env['q_conv'] / 1e4:10.2f} W/cm^2")
    print(f"  q_rad    = {env['q_rad'] / 1e4:10.2f} W/cm^2")
    print(f"  standoff = {env['standoff'] * 100:10.2f} cm")
    print(f"  p_stag   = {env['p_stag'] / 1e3:10.2f} kPa")
    print(f"  T_edge   = {env['T_edge']:10.0f} K")
    return 0


#: The flags each ``chaos`` campaign reads besides --out and --deadline
#: (argparse dests).  --jobs, --batch and --farm [--hosts N] select the
#: campaign; any other flag that was given is a usage error.
_CHAOS_FLAGS = {
    "serial": ("rounds", "seed"),
    "farm": ("farm", "rounds", "seed", "n_workers", "kill_workers",
             "queue_dir"),
    "hosts": ("farm", "hosts", "rounds", "n_workers", "skew", "partition",
              "queue_dir"),
    "batch": ("batch", "requests", "faulted", "seed"),
    "jobs": ("jobs", "steps", "queue_dir"),
}


def _cmd_chaos(args: argparse.Namespace) -> int:
    error = args.parser.error
    mode = ("jobs" if args.jobs else "batch" if args.batch
            else ("hosts" if args.hosts else "farm") if args.farm
            else "serial")
    known = {dest for flags in _CHAOS_FLAGS.values() for dest in flags}
    stray = [("-j" if dest == "n_workers"
              else "--" + dest.replace("_", "-"))
             for dest in sorted(known - set(_CHAOS_FLAGS[mode]))
             if getattr(args, dest) is not None
             and getattr(args, dest) is not False]
    if stray:
        error(f"the {mode} chaos campaign does not read "
              f"{', '.join(stray)}")
    from repro.resilience import chaos
    deadline, rounds, seed = args.deadline, args.rounds or 5, args.seed or 0
    if mode == "jobs":
        return chaos.run_chaos_jobs(n_steps=args.steps or 400, out=args.out,
                                    queue_dir=args.queue_dir,
                                    deadline=deadline or 240.0)
    if mode == "batch":
        requests, faulted = args.requests or 200, args.faulted or 20
        if faulted >= requests:
            error(f"--faulted {faulted} must be below --requests "
                  f"{requests}")
        return chaos.run_chaos_batch(requests=requests, faulted=faulted,
                                     seed=seed, out=args.out,
                                     deadline=deadline or 120.0)
    n_workers = args.n_workers or 2
    if mode == "hosts":
        if args.hosts < 2:
            error(f"--hosts {args.hosts}: need at least 2 hosts")
        # --rounds counts bitwise-verified solver jobs and --deadline
        # bounds the whole campaign
        return chaos.run_chaos_hosts(
            hosts=args.hosts, rounds=rounds, out=args.out,
            n_workers=n_workers, skew=args.skew or 0.0,
            partition=args.partition, deadline=deadline or 240.0,
            queue_dir=args.queue_dir)
    if mode == "farm":
        return chaos.run_chaos_farm(
            rounds=rounds, seed=seed, out=args.out,
            deadline=deadline or 30.0, n_workers=n_workers,
            kill_workers=(2 if args.kill_workers is None
                          else args.kill_workers),
            queue_dir=args.queue_dir)
    return chaos.run_chaos(rounds=rounds, seed=seed, out=args.out,
                           deadline=deadline or 30.0)


def _cmd_campaign(args: argparse.Namespace) -> int:
    error = args.parser.error
    figures, jobs_file, full = args.figures, args.jobs, args.full
    if args.retry_dead_letters:
        if args.queue_dir is None:
            error("--retry-dead-letters needs --queue-dir (the queue "
                  "holding the dead letters)")
        if figures or jobs_file is not None:
            error("--retry-dead-letters re-runs the existing queue; it "
                  "excludes --figures/--jobs")
    elif figures == (jobs_file is not None):
        error("exactly one of --figures / --jobs FILE required")
    if args.compare_serial and not figures:
        error("--compare-serial requires --figures")

    import io
    import json
    import tempfile
    import time

    from repro.resilience.farm import (Farm, FarmPolicy, WorkerKillPlan,
                                       bench_from_journal,
                                       write_bench_json)
    from repro.resilience.queue import Job, WorkQueue

    serial_wall = None
    if args.compare_serial:
        from repro.experiments.runner import run_all
        print(f"campaign: serial reference suite "
              f"({'full' if full else 'quick'}) ...")
        t0 = time.monotonic()
        serial_res = run_all(quick=not full, stream=io.StringIO())
        serial_wall = round(time.monotonic() - t0, 3)
        print(f"campaign: serial suite took {serial_wall:.1f} s "
              f"({len(serial_res['failures'])} failure(s))")

    # the job list is built and checked before the queue exists, so a
    # usage error leaves no queue directory behind
    jobs = []
    if figures:
        from repro.experiments.runner import _MODULES
        jobs = [Job(id=name, kind="figure",
                    payload={"module": mod.__name__.rsplit(".", 1)[1],
                             "quick": not full})
                for name, mod in _MODULES]
    elif jobs_file is not None:
        try:
            with open(jobs_file) as f:
                specs = json.load(f)
        except (OSError, ValueError) as exc:
            error(f"cannot read --jobs {jobs_file!r}: {exc}")
        if not isinstance(specs, list):
            error("--jobs FILE must hold a JSON list of job specs")
        for i, spec in enumerate(specs):
            try:
                jobs.append(Job.from_dict(spec))
            except (KeyError, TypeError, ValueError) as exc:
                error(f"--jobs job spec {i} is invalid: {exc!r}")
    queue_dir = args.queue_dir or tempfile.mkdtemp(prefix="repro-campaign-")
    policy = FarmPolicy(n_workers=args.n_workers, deadline=args.deadline,
                        host_id=args.host_id, max_skew=args.max_skew)
    queue = WorkQueue(queue_dir, lease_ttl=policy.lease_ttl,
                      backoff=policy.backoff, host_id=args.host_id,
                      max_skew=args.max_skew)
    if args.retry_dead_letters:
        requeued = queue.retry_dead_letters()
        if not requeued:
            print(f"campaign: no dead-lettered jobs in {queue_dir}")
            return 0
        print(f"campaign: requeued {len(requeued)} dead-lettered "
              f"job(s) with a fresh attempt budget: "
              f"{', '.join(requeued)}")
    for job in jobs:
        queue.enqueue(job)
    plan = None
    if args.kill_workers:
        plan = WorkerKillPlan(seed=args.seed + 1000,
                              kills=args.kill_workers,
                              min_interval=1.0, max_interval=8.0)
    farm = Farm(queue, policy, label="campaign", kill_plan=plan)
    t0 = time.monotonic()
    ledger = farm.run()
    wall = time.monotonic() - t0
    if serial_wall is not None:
        ledger["serial_wall_time"] = serial_wall
        ledger["speedup_vs_serial"] = (round(serial_wall / wall, 3)
                                       if wall > 0 else None)
    if args.ledger is not None:
        with open(args.ledger, "w") as f:
            json.dump(ledger, f, indent=1, default=str)
        print(f"campaign: ledger written to {args.ledger}")
    if args.bench is not None:
        bench = bench_from_journal(queue, wall_time=wall,
                                   n_workers=args.n_workers)
        if serial_wall is not None:
            bench["serial_wall_s"] = serial_wall
            bench["speedup_vs_serial"] = ledger["speedup_vs_serial"]
        write_bench_json(args.bench, bench)
        print(f"campaign: bench record written to {args.bench}")
    n_dead = len(ledger["dead_letter"])
    print(f"campaign: {ledger['jobs']} in {ledger['wall_time']:.1f} s "
          f"({ledger['attempts']} attempt(s), "
          f"{ledger['requeues']} requeue(s), "
          f"{ledger['reclaims']} reclaim(s), "
          f"{len(ledger['worker_kills'])} sandbox kill(s))"
          + (f", speedup vs serial {ledger['speedup_vs_serial']}x"
             if serial_wall is not None else ""))
    return 0 if ledger["ok"] and not n_dead else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.resilience.farm import Farm, FarmPolicy
    from repro.resilience.queue import TERMINAL
    policy = FarmPolicy(n_workers=args.n_workers, lease_ttl=args.lease_ttl,
                        poll_interval=args.poll, drain_when_idle=False,
                        host_id=args.host_id, max_skew=args.max_skew,
                        clock_offset=args.clock_offset)
    farm = Farm(args.queue_dir, policy, label="serve")
    print(f"serve: up to {args.n_workers} job(s) at once on "
          f"{args.queue_dir} as {farm.name} (SIGTERM to drain)")
    ledger = farm.run()
    pending = sum(v for k, v in ledger["jobs"].items()
                  if k not in TERMINAL)
    print(f"serve: drained {ledger['jobs']} ({pending} job(s) left for "
          f"the next serve)")
    if args.ledger:
        with open(args.ledger, "w") as f:
            json.dump(ledger, f, indent=1)
        print(f"serve: ledger written to {args.ledger}")
    return 0


def _read_jsonl_requests(path: str | None) -> list:
    """JSON-lines requests from a file or stdin.  A line that is not
    valid JSON (or holds an integer too long to parse) is kept as the
    raw string — the service turns it into a typed invalid-request
    envelope instead of aborting the batch."""
    import json
    if path is None or path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path) as f:
            lines = f.read().splitlines()
    requests = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            requests.append(json.loads(line))
        except ValueError:       # JSONDecodeError is a ValueError
            requests.append(line)
    return requests


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    error = args.parser.error
    farm = args.farm
    if not farm and (args.queue_dir is not None
                     or args.chunk_size is not None
                     or args.n_workers is not None):
        error("-j/--queue-dir/--chunk-size require --farm")
    n_workers = (args.n_workers or 2) if farm else 1
    try:
        requests = _read_jsonl_requests(args.file)
    except OSError as err:
        error(f"cannot read {args.file!r}: {err}")
    if not requests:
        error("no requests (JSON-lines on stdin or in FILE, one request "
              "object per line)")

    from repro.service.batch import (BatchPolicy, batch_bench_record,
                                     evaluate_batch,
                                     evaluate_batch_farm)
    policy = BatchPolicy(deadline=args.deadline,
                         isolate=args.isolate,
                         allow_faults=args.allow_faults,
                         dedup=not args.no_dedup,
                         **_given(args, "request_deadline", "shed_above",
                                  "chunk_size"))
    if farm:
        import tempfile
        qdir = args.queue_dir or tempfile.mkdtemp(prefix="batch-queue-")
        result = evaluate_batch_farm(requests, policy, queue_dir=qdir,
                                     n_workers=n_workers,
                                     chunk_size=args.chunk_size,
                                     stream=sys.stderr)
    else:
        result = evaluate_batch(requests, policy)

    lines = "\n".join(json.dumps(e.to_dict(), default=str)
                      for e in result.envelopes)
    if args.out:
        with open(args.out, "w") as f:
            f.write(lines + "\n")
    else:
        print(lines)
    if args.ledger:
        with open(args.ledger, "w") as f:
            json.dump(result.ledger, f, indent=1, default=str)
    if args.bench:
        from repro.resilience.farm import write_bench_json
        write_bench_json(args.bench, batch_bench_record(
            result, mode="farm" if farm else "local",
            n_workers=n_workers))
    led = result.ledger
    counts = led.get("counts", {})
    n_failed = counts.get("failed", 0)
    print(f"batch: {led['n_requests']} requests -> "
          f"{counts.get('ok', 0)} ok, {counts.get('degraded', 0)} "
          f"degraded, {n_failed} failed "
          f"({led.get('requests_per_s')} req/s)", file=sys.stderr)
    return 0 if led.get("ok") and n_failed == 0 else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    """``jobs ACTION`` — the async-job client surface.  Every action
    prints one JSON object (or one per change, for ``watch``) so the
    output is scriptable; exit 0 on success, 1 when the job itself
    failed or an audit is violated, 2 on usage errors."""
    import json

    from repro.service.jobs import FAILED, JOB_TERMINAL, JobManager
    error, action = args.parser.error, args.action
    job_id = getattr(args, "job_id", None)
    if action in ("status", "watch", "result", "cancel"):
        job_id = job_id if job_id is not None else args.job
        if job_id is None:
            error("expects a job id")
    manager = JobManager(args.queue_dir)
    if action == "watch":
        out = manager.watch(job_id, stream=sys.stdout,
                            **_given(args, "timeout", "poll"))
        return 0 if (out["state"] in JOB_TERMINAL
                     and out["state"] != FAILED) else 1
    if action == "submit":
        payload = {}
        if args.payload is not None:
            raw = args.payload
            if raw.startswith("@"):
                try:
                    with open(raw[1:]) as f:
                        raw = f.read()
                except OSError as exc:
                    error(f"cannot read payload file {raw[1:]!r}: {exc}")
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as exc:
                error(f"payload is not valid JSON: {exc}")
            if not isinstance(payload, dict):
                error("payload must be a JSON object")
        out = manager.submit(args.kind, payload, job_id=job_id,
                             **_given(args, "priority", "max_attempts",
                                      "deadline", "memory_mb",
                                      "stall_timeout"))
    elif action == "status":
        out = manager.status(job_id)
    elif action == "result":
        out = manager.result(job_id, **_given(args, "wait", "poll"))
    elif action == "cancel":
        out = manager.cancel(job_id, **_given(
            args, "reason", "escalate_after", "wait", "poll"))
    elif action == "gc":
        out = manager.gc(include_failed=args.include_failed,
                         **_given(args, "ttl", "keep_last"))
    else:
        out = manager.ledger()
    print(json.dumps(out, indent=1, default=str))
    if action == "status":
        return 0 if out["state"] != FAILED else 1
    if action == "result":
        return 0 if out.get("ready") and out["state"] != FAILED else 1
    if action == "ledger":
        return 0 if out["audit"]["ok"] else 1
    return 0


_COMMANDS = {
    "figures": _cmd_figures,
    "stagnation": _cmd_stagnation,
    "chaos": _cmd_chaos,
    "batch": _cmd_batch,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "jobs": _cmd_jobs,
}


def _build_parser() -> argparse.ArgumentParser:
    """The whole ``python -m repro`` command line: one subparser per
    command and per ``jobs`` action.  A flag that only counts in one
    mode defaults to None, so the command can tell "given" from "left
    at the default" and fills the real default in after its checks."""
    farm = argparse.ArgumentParser(add_help=False)
    farm.add_argument("--farm", action="store_true",
                      help="run on the solve farm (one sandbox per job)")
    farm.add_argument("-j", dest="n_workers", type=_POS_INT, metavar="N",
                      help="farm jobs run at once, one sandbox each")
    farm.add_argument("--queue-dir", metavar="D",
                      help="durable farm queue (reuse D to resume)")
    hosts = argparse.ArgumentParser(add_help=False)
    hosts.add_argument("--host-id", metavar="H",
                       help="this host's name in a shared queue")
    hosts.add_argument("--max-skew", type=_POS_FLOAT, default=2.0,
                       metavar="S", help="clock-skew bound across hosts "
                       "(default %(default)s)")
    ledger = argparse.ArgumentParser(add_help=False)
    ledger.add_argument("--ledger", metavar="FILE",
                        help="write the ledger JSON to FILE")
    queue = argparse.ArgumentParser(add_help=False)
    queue.add_argument("--queue-dir", required=True, metavar="D",
                       help="the durable queue")

    parser = argparse.ArgumentParser(
        prog="python -m repro", allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Computational aerothermodynamics toolkit.  With no "
                    "command: this overview and quick sanity numbers.  "
                    "Exit codes: 0 success, 1 solver/invariant failure, "
                    "2 usage error.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(subs, name, text, parents=(), **kwargs):
        p = subs.add_parser(name, help=text, description=text,
                            parents=parents, allow_abbrev=False, **kwargs)
        p.set_defaults(parser=p)
        return p

    p = command(sub, "figures", "regenerate every paper figure")
    p.add_argument("--full", action="store_true", help="paper resolution")
    p.add_argument("--checkpoint-dir", metavar="D",
                   help="durable suite: done markers + snapshots under D")
    p.add_argument("--resume", action="store_true",
                   help="replay done figures, resume interrupted marches")

    p = command(sub, "stagnation", "stagnation environment")
    p.add_argument("V", type=_POS_FLOAT, help="flight speed [m/s]")
    p.add_argument("H", type=_finite_float, help="altitude [m]")
    p.add_argument("RN", type=_POS_FLOAT, help="nose radius [m]")

    p = command(sub, "chaos", "randomized fault campaign under process "
                "isolation", [farm], epilog="--jobs, --batch, --farm and "
                "--farm --hosts N select the campaign; a flag the chosen "
                "campaign does not read is a usage error.  With --farm, "
                "-j and --kill-workers default to 2.  --deadline: 30 s "
                "per round, or 240 s (--hosts, --jobs) or 120 s "
                "(--batch) for the whole campaign.")
    p.add_argument("--rounds", type=_POS_INT, metavar="N",
                   help="rounds, or solver jobs with --hosts (default 5)")
    p.add_argument("--seed", type=int, metavar="S",
                   help="schedule seed (default 0)")
    p.add_argument("--out", default="chaos-reports", metavar="D",
                   help="report directory")
    p.add_argument("--deadline", type=_POS_FLOAT, metavar="S")
    p.add_argument("--kill-workers", type=_NONNEG_INT, metavar="K",
                   help="scheduled SIGKILLs of running sandboxes "
                   "(0 disables)")
    p.add_argument("--hosts", type=_POS_INT, metavar="N",
                   help="N supervisor hosts on one queue; one is killed")
    p.add_argument("--skew", type=_POS_FLOAT, nargs="?", const=5.0,
                   metavar="S",
                   help="+/-S s clock skew per host (bare --skew: 5 s)")
    p.add_argument("--partition", action="store_true",
                   help="SIGSTOP a host past its lease ttl, then heal it")
    p.add_argument("--batch", action="store_true",
                   help="campaign against the batch service")
    p.add_argument("--requests", type=_POS_INT, metavar="N",
                   help="batch size (default 200)")
    p.add_argument("--faulted", type=_POS_INT, metavar="M",
                   help="faulted requests in it (default 20)")
    p.add_argument("--jobs", action="store_true",
                   help="kill-and-resume campaign against async jobs")
    p.add_argument("--steps", type=_POS_INT, metavar="N",
                   help="march length of the chaos job (default 400)")

    p = command(sub, "batch", "batch evaluation service: JSON-lines "
                "requests in, one envelope per line out", [farm, ledger],
                epilog="-j defaults to 2.")
    p.add_argument("file", nargs="?", metavar="FILE",
                   help="requests (default: stdin)")
    p.add_argument("--out", metavar="FILE", help="envelopes (or stdout)")
    p.add_argument("--bench", metavar="FILE", help="BENCH_batch.json")
    p.add_argument("--deadline", type=_POS_FLOAT, metavar="S",
                   help="whole-batch wall budget")
    p.add_argument("--request-deadline", type=_POS_FLOAT, metavar="S",
                   help="per-request wall budget")
    p.add_argument("--shed-above", type=_POS_INT, metavar="N",
                   help="reject batches larger than N")
    p.add_argument("--isolate", choices=("auto", "always", "never"),
                   default="auto", help="sandboxing (default auto)")
    p.add_argument("--allow-faults", action="store_true",
                   help='honor chaos "fault" fields in requests')
    p.add_argument("--no-dedup", action="store_true",
                   help="re-execute duplicate request keys")
    p.add_argument("--chunk-size", type=_POS_INT, metavar="N",
                   help="requests per farm chunk job")

    p = command(sub, "campaign", "enqueue a job set and drive the farm "
                "until every job is done or dead-lettered",
                [hosts, ledger])
    p.add_argument("--figures", action="store_true",
                   help="the nine-figure suite as jobs")
    p.add_argument("--jobs", metavar="FILE", help="JSON list of job specs")
    p.add_argument("--retry-dead-letters", action="store_true",
                   help="requeue --queue-dir's dead letters and re-run")
    p.add_argument("-j", dest="n_workers", type=_POS_INT, default=4,
                   metavar="N", help="jobs run at once, one sandbox each "
                   "(default 4)")
    p.add_argument("--full", action="store_true", help="paper resolution")
    p.add_argument("--queue-dir", metavar="D",
                   help="durable queue (default: a fresh temp dir)")
    p.add_argument("--bench", metavar="FILE", help="BENCH_farm.json")
    p.add_argument("--compare-serial", action="store_true",
                   help="also time the serial suite (--figures only)")
    p.add_argument("--kill-workers", type=_NONNEG_INT, default=0,
                   metavar="K", help="SIGKILL K running sandboxes at "
                   "seeded times")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--deadline", type=_POS_FLOAT, metavar="S",
                   help="per-job wall-clock budget")

    p = command(sub, "serve", "long-running farm supervisor: drains the "
                "queue until SIGTERM/SIGINT", [queue, hosts, ledger],
                epilog="Defaults: -j 2, --lease-ttl 15 s, --poll 0.25 s.")
    p.add_argument("-j", dest="n_workers", type=_POS_INT, default=2,
                   metavar="N", help="jobs run at once, one sandbox each "
                   "(default 2)")
    p.add_argument("--lease-ttl", type=_POS_FLOAT, default=15.0,
                   metavar="S")
    p.add_argument("--poll", type=_POS_FLOAT, default=0.25, metavar="S")
    p.add_argument("--clock-offset", type=_finite_float, default=0.0,
                   metavar="S", help="injected clock skew, either sign")

    jobs = command(sub, "jobs", "asynchronous jobs on a durable queue "
                   "that serve drains; every action prints JSON")
    acts = jobs.add_subparsers(dest="action", metavar="ACTION",
                               required=True)
    p = command(acts, "submit", "enqueue KIND and print its id at once",
                [queue])
    p.add_argument("kind", metavar="KIND")
    p.add_argument("payload", nargs="?", metavar="JSON",
                   help="payload object, inline or @FILE")
    p.add_argument("--id", dest="job_id", type=_job_id, metavar="ID",
                   help="explicit id (default: content-addressed)")
    p.add_argument("--priority", type=int)
    p.add_argument("--max-attempts", type=_POS_INT, metavar="N")
    p.add_argument("--deadline", type=_POS_FLOAT, metavar="S",
                   help="wall-clock budget [s]")
    p.add_argument("--stall-timeout", type=_POS_FLOAT, metavar="S",
                   help="declare a hang after S s without heartbeat")
    p.add_argument("--memory-mb", type=_POS_FLOAT, metavar="M",
                   help="RSS budget [MiB]")
    job_flags = {"--timeout": _NONNEG_FLOAT, "--wait": _NONNEG_FLOAT,
                 "--poll": _POS_FLOAT, "--reason": str,
                 "--escalate-after": _NONNEG_FLOAT}
    for name, text, flags in (
            ("status", "state, live progress and snapshots", ()),
            ("watch", "one JSON line per change until terminal",
             ("--timeout", "--poll")),
            ("result", "terminal outcome", ("--wait", "--poll")),
            ("cancel", "cancel flag, then SIGTERM -> SIGKILL",
             ("--reason", "--escalate-after", "--wait", "--poll"))):
        p = command(acts, name, text, [queue])
        p.add_argument("job", nargs="?", type=_job_id, metavar="ID")
        p.add_argument("--id", dest="job_id", type=_job_id, metavar="ID",
                       help="same as ID")
        for flag in flags:
            p.add_argument(flag, type=job_flags[flag])
    p = command(acts, "gc", "remove jobs terminal for over --ttl S",
                [queue])
    p.add_argument("--ttl", type=_NONNEG_FLOAT, metavar="S")
    p.add_argument("--keep-last", type=_NONNEG_INT, metavar="N")
    p.add_argument("--include-failed", action="store_true")
    command(acts, "ledger", "all jobs plus their audits", [queue])

    usages = [*sub.choices.values(), *acts.choices.values()]
    parser.epilog = "commands:\n" + "".join(
        p.format_usage().replace("usage: ", "  ", 1) for p in usages)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        _overview()
        return 0
    parser = _build_parser()
    cmd = "--help" if argv[0] == "help" else argv[0]
    try:
        if cmd not in _COMMANDS and cmd not in ("-h", "--help"):
            parser.error(f"unknown command {cmd!r}")
        args = parser.parse_args([cmd, *argv[1:]])
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on misuse
        return exc.code
    except CatError as err:
        # typed solver failure: summarise (with the attached report
        # when present) and exit 1 instead of tracebacking
        print(f"{cmd}: {type(err).__name__}: {err}", file=sys.stderr)
        if err.report is not None:
            print(err.report.summary(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
