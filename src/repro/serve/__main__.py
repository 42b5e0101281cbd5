"""CLI for the serving layer: ``python -m repro.serve`` / ``repro serve``.

Runs the seeded load-generator drill against an
:class:`~repro.serve.service.OptimizationService`: ``--sessions`` clients
arrive with exponential gaps (``--mean-interarrival``, virtual seconds),
optionally cancelling mid-run (``--cancel-fraction``), against a fleet of
``--devices`` simulated devices that autoscales up to ``--max-devices``
(``--no-autoscale`` pins the fleet).  Prints the latency/throughput/shed
report and optionally writes it (``--out``) and the canonical event log
(``--events-json``) — two runs with the same flags produce byte-identical
event logs, which the CI serve drill asserts with ``cmp``.

Durability flags: ``--journal-dir`` records every state transition to a
write-ahead journal before it takes effect; ``repro serve recover
--journal-dir DIR [same flags]`` rebuilds the service from that journal
after a crash and finishes the drill — the merged event log is
byte-identical to an uninterrupted run.  ``--kill-at-record N`` SIGKILLs
the process the moment journal record N is durable (the CI crash drill's
deterministic kill point).  ``--retry``/``--watchdog-seconds``/``--faults``
wire the reliability layer into serving.

Exit codes match the batch CLI: ``1`` when any job failed (contained
engine error), ``2`` when jobs were shed/refused or the configuration is
invalid, else ``0``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ConfigurationError, ReproError
from repro.io import atomic_write_text
from repro.serve.autoscale import AutoscalePolicy
from repro.serve.loadgen import LoadProfile, replay, run_drill


def build_parser(prog: str = "python -m repro.serve") -> argparse.ArgumentParser:
    """The serve CLI's argument parser (shared by drill and recover)."""
    parser = argparse.ArgumentParser(prog=prog, description=__doc__)
    parser.add_argument("--sessions", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument(
        "--mean-interarrival",
        type=float,
        default=2e-5,
        metavar="S",
        help="mean exponential gap between arrivals, in virtual seconds",
    )
    parser.add_argument(
        "--cancel-fraction",
        type=float,
        default=0.0,
        help="fraction of clients that cancel mid-run",
    )
    parser.add_argument("--devices", type=int, default=1)
    parser.add_argument("--streams", type=int, default=4)
    parser.add_argument(
        "--no-autoscale",
        action="store_true",
        help="pin the fleet at --devices (autoscaling is on by default)",
    )
    parser.add_argument(
        "--max-devices",
        type=int,
        default=4,
        help="autoscaling ceiling (ignored with --no-autoscale)",
    )
    parser.add_argument(
        "--boot-seconds",
        type=float,
        default=0.0,
        metavar="S",
        help="virtual boot delay before a scaled-up device opens",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="admission queue bound: arrivals beyond it are shed",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="per-job wall-clock deadline in host seconds",
    )
    parser.add_argument(
        "--checkpoint-dir",
        help="write cancellation checkpoints here (enables resubmit)",
    )
    parser.add_argument(
        "--journal-dir",
        metavar="DIR",
        help="write-ahead journal directory (enables crash recovery)",
    )
    parser.add_argument(
        "--no-journal-fsync",
        action="store_true",
        help="never fsync the journal (faster, crash-consistent only)",
    )
    parser.add_argument(
        "--retry",
        type=int,
        default=None,
        metavar="N",
        help="retry failed/stalled attempts up to N times (RetryPolicy)",
    )
    parser.add_argument(
        "--watchdog-seconds",
        type=float,
        default=None,
        metavar="S",
        help="stall lease: max simulated seconds between progress marks",
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN",
        help="fault plan: 'drill' or a FaultPlan JSON file",
    )
    parser.add_argument(
        "--kill-at-record",
        type=int,
        default=None,
        metavar="SEQ",
        help="SIGKILL the process once journal record SEQ is durable",
    )
    parser.add_argument("--out", help="write the report JSON here")
    parser.add_argument(
        "--events-json",
        metavar="PATH",
        help="write the canonical event log here (byte-stable)",
    )
    return parser


def _profile(args: argparse.Namespace) -> LoadProfile:
    return LoadProfile(
        n_sessions=args.sessions,
        seed=args.seed,
        mean_interarrival=args.mean_interarrival,
        cancel_fraction=args.cancel_fraction,
    )


def _service_kwargs(args: argparse.Namespace) -> dict:
    autoscale = None
    if not args.no_autoscale:
        autoscale = AutoscalePolicy(
            min_devices=args.devices,
            max_devices=max(args.max_devices, args.devices),
            boot_seconds=args.boot_seconds,
        )
    faults = None
    if args.faults:
        from repro.reliability import FaultPlan

        if args.faults == "drill":
            faults = FaultPlan.drill(args.sessions, seed=args.seed)
        else:
            faults = FaultPlan.from_json_file(args.faults)
    return dict(
        n_devices=args.devices,
        streams_per_device=args.streams,
        autoscale=autoscale,
        max_queue=args.max_queue,
        deadline=args.deadline,
        checkpoint_dir=args.checkpoint_dir,
        retry=args.retry,
        watchdog_seconds=args.watchdog_seconds,
        faults=faults,
        journal_fsync=not args.no_journal_fsync,
    )


def _finish(service, args: argparse.Namespace) -> int:
    service.close()
    report = service.report()
    print(report.summary())
    if service.read_only:
        row = service.journal_error or {}
        print(
            "service is in degraded read-only mode: "
            f"{row.get('message', 'journal unwritable')}",
            file=sys.stderr,
        )
    if args.out:
        atomic_write_text(
            args.out, json.dumps(report.to_dict(), indent=2) + "\n"
        )
        print(f"wrote {args.out}")
    if args.events_json:
        atomic_write_text(args.events_json, service.events_json())
        print(f"wrote {args.events_json}")
    if report.counts.get("failed", 0):
        return 1
    if report.counts.get("shed", 0) or report.counts.get("refused", 0):
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    recovering = bool(argv) and argv[0] == "recover"
    if recovering:
        argv = argv[1:]
    prog = "python -m repro.serve" + (" recover" if recovering else "")
    parser = build_parser(prog)
    args = parser.parse_args(argv)

    try:
        profile = _profile(args)
        kwargs = _service_kwargs(args)
        if recovering:
            from repro.serve.service import OptimizationService

            if not args.journal_dir:
                raise ConfigurationError(
                    "recover needs --journal-dir pointing at the journal "
                    "of the interrupted run"
                )
            service = OptimizationService.recover(args.journal_dir, **kwargs)
            resume_at = len(service.status())
            print(
                f"recovered {resume_at} journaled session(s) from "
                f"{args.journal_dir}; resuming drill"
            )
            import asyncio

            asyncio.run(replay(service, profile, start_index=resume_at))
        else:
            service = run_drill(
                profile,
                journal_dir=args.journal_dir,
                journal_kill_at=args.kill_at_record,
                **kwargs,
            )
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _finish(service, args)


if __name__ == "__main__":
    sys.exit(main())
