"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-datasets``
    Show the registered synthetic dataset profiles.
``detect``
    Train MACE (unified) on a dataset group and report per-service metrics.
``compare``
    Run MACE against selected baselines under the unified protocol.
``analyze``
    Static analysis in one gate: abstract interpretation of the MACE and
    baseline model graphs (numerical-domain findings + gradient-flow
    audit) and the determinism & effect analyzer over the ``repro``
    package itself (DET5xx contract findings, FS6xx fork-safety
    findings).  Every unaudited finding fails, and the audited
    fingerprints must match ``analysis_baseline.json`` exactly.
``analyze-data``
    Dataset diagnostics: diversity, anomaly composition, recommended window.
``lint``
    Repository lint (``repro.analysis.lint``) over the configured paths.
``check-model``
    Statically validate the MACE architecture's shape/dtype contracts.
``chaos``
    Fault-injection drill: stream a fleet through the fault-tolerant
    serving runtime while corrupting observations and scoring calls, and
    report how each service degraded and recovered.
``train-fleet``
    Fault-tolerant fleet training: shard per-group unified-model fits
    across a worker pool with timeouts, retry + checkpoint resume, and
    divergence rewind; optionally inject worker-level chaos faults.
``obs report``
    Render the telemetry of a run directory (fleet attempt tables, epoch
    timeline, per-phase span breakdown) from its JSONL artifacts.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Sequence

import numpy as np

__all__ = ["build_parser", "main"]


def _out(*values: object, **kwargs: object) -> None:
    """The CLI's sanctioned stdout/stderr writer.

    Library code must route operator-facing output through
    :mod:`repro.obs.events` (lint rule REP109); the CLI is the one layer
    whose job *is* printing.
    """
    print(*values, **kwargs)  # noqa: REP109 - the CLI's output helper


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MACE (ICDE 2024) reproduction — frequency-domain "
                    "multi-pattern time series anomaly detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-datasets", help="list registered dataset profiles")

    detect = sub.add_parser("detect", help="train unified MACE and evaluate")
    _add_dataset_args(detect)
    detect.add_argument("--epochs", type=int, default=5)
    detect.add_argument("--num-bases", type=int, default=10)
    detect.add_argument("--threshold", choices=("best_f1", "pot"),
                        default="best_f1")

    compare = sub.add_parser("compare", help="MACE vs baselines (unified)")
    _add_dataset_args(compare)
    compare.add_argument("--baselines", nargs="+", default=["VAE", "TranAD"],
                         help="baseline names (see repro.baselines.ALL_BASELINES)")
    compare.add_argument("--epochs", type=int, default=4)

    analyze = sub.add_parser(
        "analyze",
        help="model-graph and determinism analyzers, gated against the "
             "audited baseline",
    )
    analyze.add_argument("--json", action="store_true",
                         help="emit the machine-readable report")
    analyze.add_argument("--baseline", metavar="FILE",
                         default="analysis_baseline.json",
                         help="audited-fingerprint baseline file "
                              "(default: analysis_baseline.json)")
    analyze.add_argument("--update-baseline", action="store_true",
                         help="rewrite the baseline from the current "
                              "audited findings")

    analyze_data = sub.add_parser("analyze-data", help="dataset diagnostics")
    _add_dataset_args(analyze_data)

    lint = sub.add_parser("lint", help="run the repository linter")
    lint.add_argument("paths", nargs="*",
                      help="files/directories (default: configured paths)")
    lint.add_argument("--select", nargs="+", metavar="RULE",
                      help="only check the given rule codes")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the available rules and exit")

    chaos = sub.add_parser(
        "chaos", help="fault-injection drill on the serving runtime"
    )
    _add_dataset_args(chaos)
    chaos.add_argument("--epochs", type=int, default=2)
    chaos.add_argument("--corrupt-prob", type=float, default=0.02,
                       help="per-observation corruption probability")
    chaos.add_argument("--raise-every", type=int, default=200,
                       help="inject one scoring exception per N calls")
    chaos.add_argument("--chaos-seed", type=int, default=0,
                       help="seed of the fault injector (not the dataset)")

    fleet = sub.add_parser(
        "train-fleet",
        help="fault-tolerant multiprocess fleet training (one unified "
             "model per service group)",
    )
    _add_dataset_args(fleet)
    fleet.add_argument("--epochs", type=int, default=3)
    fleet.add_argument("--group-size", type=int, default=2,
                       help="services per unified model (paper uses 10)")
    fleet.add_argument("--workers", type=int, default=2,
                       help="concurrent training worker processes")
    fleet.add_argument("--timeout", type=float, default=300.0,
                       help="per-attempt deadline in seconds")
    fleet.add_argument("--max-attempts", type=int, default=3)
    fleet.add_argument("--fleet-seed", type=int, default=0,
                       help="seed all per-group seeds are derived from")
    fleet.add_argument("--dir", dest="directory", default=None,
                       help="checkpoint/result directory "
                            "(default: a temporary one)")
    fleet.add_argument("--fault-rate", type=float, default=0.0,
                       help="inject worker chaos faults on this fraction "
                            "of groups")
    fleet.add_argument("--chaos-seed", type=int, default=0,
                       help="seed of the fault injector (not the fleet)")
    fleet.add_argument("--obs", action="store_true",
                       help="enable worker observability (spans, metrics, "
                            "events dumped into each group directory; "
                            "render with `repro obs report`)")

    serve = sub.add_parser(
        "serve",
        help="durable serving gateway demo: WAL-backed shards, seeded "
             "traffic, loss-free worker failover",
    )
    serve.add_argument("--services", type=int, default=8)
    serve.add_argument("--history", type=int, default=96,
                       help="calibration points per service")
    serve.add_argument("--updates", type=int, default=40,
                       help="live updates per service")
    serve.add_argument("--workers", type=int, default=2,
                       help="scoring worker processes (shards)")
    serve.add_argument("--seed", type=int, default=0,
                       help="fleet + shard-map seed")
    serve.add_argument("--fault-rate", type=float, default=0.0,
                       help="fraction of services given a seeded delivery "
                            "or slow-start fault")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed of the fault injector (not the fleet)")
    serve.add_argument("--kill", action="append", default=None,
                       metavar="SERVICE:APPLIES",
                       help="hard-kill the shard serving SERVICE after N "
                            "applied updates (repeatable)")
    serve.add_argument("--queue-depth", type=int, default=512,
                       help="per-shard queue bound (backpressure beyond)")
    serve.add_argument("--dir", dest="directory", default=None,
                       help="keep run artifacts (WALs, snapshots, "
                            "events.jsonl, metrics.jsonl) here; render "
                            "with `repro obs report`")

    traffic = sub.add_parser(
        "traffic",
        help="preview the seeded gateway traffic: shard map + fault "
             "plan, no gateway spawned",
    )
    traffic.add_argument("--services", type=int, default=8)
    traffic.add_argument("--history", type=int, default=96)
    traffic.add_argument("--updates", type=int, default=40)
    traffic.add_argument("--workers", type=int, default=2)
    traffic.add_argument("--seed", type=int, default=0)
    traffic.add_argument("--fault-rate", type=float, default=0.0)
    traffic.add_argument("--fault-seed", type=int, default=0)

    obs = sub.add_parser(
        "obs", help="telemetry tooling (see `repro obs report`)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="render a run directory's JSONL telemetry as tables",
    )
    obs_report.add_argument("--dir", dest="directory", required=True,
                            help="run directory (e.g. a train-fleet --dir)")
    obs_top = obs_sub.add_parser(
        "top",
        help="live ops console: health, queues, ack latency",
    )
    obs_top.add_argument("--dir", dest="directory", required=True,
                         help="run directory (live or finished)")
    obs_top.add_argument("--once", action="store_true",
                         help="render one snapshot and exit (no refresh)")
    obs_top.add_argument("--interval", type=float, default=2.0,
                         help="refresh period in seconds (default 2)")
    obs_top.add_argument("--iterations", type=int, default=None,
                         help="stop after N renders (default: forever)")

    check = sub.add_parser(
        "check-model", help="statically validate MACE shape/dtype contracts"
    )
    check.add_argument("--window", type=int, default=40)
    check.add_argument("--num-bases", type=int, default=10)
    check.add_argument("--channels", type=int, default=8)
    check.add_argument("--features", type=int, default=3,
                       help="number of series per service window (m)")
    check.add_argument("--batch", default="N",
                       help="batch size: an int or a symbol name (default N)")
    return parser


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="smd",
                        help="profile name (default: smd)")
    parser.add_argument("--services", type=int, default=10)
    parser.add_argument("--length", type=int, default=1024,
                        help="train and test length per service")
    parser.add_argument("--seed", type=int, default=None)


def _load(args) -> "Dataset":
    from repro.data import load_dataset

    return load_dataset(args.dataset, num_services=args.services,
                        train_length=args.length, test_length=args.length,
                        seed=args.seed)


def _cmd_list_datasets(_args) -> int:
    from repro.data import available_datasets, get_profile
    from repro.eval import format_table

    rows = []
    for name in available_datasets():
        profile = get_profile(name)
        rows.append((name, profile.num_services, profile.num_features,
                     f"{profile.anomaly_ratio:.1%}", profile.diversity,
                     "point" if profile.point_heavy else "context"))
    _out(format_table(
        ("name", "services", "features", "anomaly ratio", "diversity",
         "anomaly type"),
        rows, title="registered dataset profiles",
    ))
    return 0


def _cmd_detect(args) -> int:
    from repro.core import MaceConfig, MaceDetector
    from repro.data import unified_groups
    from repro.eval import format_table, run_unified

    dataset = _load(args)
    config = MaceConfig(epochs=args.epochs, num_bases=args.num_bases)
    result = run_unified(lambda: MaceDetector(config),
                         unified_groups(dataset, args.services),
                         strategy=args.threshold)
    rows = [(s.service_id, s.metrics.precision, s.metrics.recall,
             s.metrics.f1) for s in result.services]
    rows.append(("AVERAGE", result.precision, result.recall, result.f1))
    _out(format_table(("service", "precision", "recall", "F1"), rows,
                       title=f"unified MACE on {args.dataset}"))
    return 0


def _cmd_compare(args) -> int:
    from repro.baselines import ALL_BASELINES, BaselineConfig
    from repro.core import MaceConfig, MaceDetector
    from repro.data import unified_groups
    from repro.eval import format_metrics_table, run_unified

    unknown = [n for n in args.baselines if n not in ALL_BASELINES]
    if unknown:
        _out(f"unknown baselines: {unknown}; "
              f"available: {sorted(ALL_BASELINES)}", file=sys.stderr)
        return 2
    dataset = _load(args)
    groups = unified_groups(dataset, args.services)
    results = [run_unified(
        lambda: MaceDetector(MaceConfig(epochs=args.epochs)), groups
    )]
    for name in args.baselines:
        cls = ALL_BASELINES[name]
        if name == "JumpStarter":
            results.append(run_unified(lambda c=cls: c(), groups))
        else:
            results.append(run_unified(
                lambda c=cls: c(BaselineConfig(epochs=args.epochs)), groups
            ))
    _out(format_metrics_table(results,
                               title=f"unified protocol on {args.dataset}"))
    return 0


def _cmd_analyze(args) -> int:
    import json

    from repro.analysis import audit

    if args.update_baseline:
        audit.write_baseline(args.baseline, audit.analyze())
        audited = audit.load_baseline(args.baseline)
        _out(f"wrote {args.baseline} ({len(audited)} audited findings)")
        return 0
    try:
        audited = audit.load_baseline(args.baseline)
    except (OSError, ValueError) as error:
        _out(f"cannot read analyzer baseline: {error}", file=sys.stderr)
        return 2
    report = audit.analyze()
    unaudited, new_audited, vanished = audit.gate(report, audited)
    failed = bool(unaudited or new_audited or vanished)
    if args.json:
        payload = {key: value for key, value in report.items()
                   if not key.startswith("_")}
        payload["unaudited"] = [audit.fingerprint(f) for f in unaudited]
        payload["new_audited"] = [audit.fingerprint(f) for f in new_audited]
        payload["vanished"] = vanished
        _out(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if failed else 0
    from repro.eval import format_table

    rows = [(m["model"],
             "skipped" if m["skipped"] else m["nodes"],
             sum(1 for f in m["findings"]
                 if f["severity"] == "error" and not f["suppressed"]),
             sum(1 for f in m["findings"]
                 if f["severity"] == "warn" and not f["suppressed"]),
             sum(1 for f in m["findings"] if f["suppressed"]))
            for m in report["models"]]
    _out(format_table(("model", "graph nodes", "errors", "warnings",
                        "audited"), rows,
                       title="model graphs (envelope "
                             f"±{report['envelope']:g})"))
    rows = []
    for entry in report["roots"]:
        signature = entry["signature"]
        rows.append((entry["root"].split(".", 1)[1],
                     "yes" if entry["found"] else "NO",
                     entry["functions"],
                     ",".join(sorted(a for a, state in signature.items()
                                     if state == "active")) or "-",
                     ",".join(sorted(a for a, state in signature.items()
                                     if state == "audited")) or "-"))
    _out(format_table(("determinism root", "found", "fns", "active",
                        "audited"), rows,
                       title="pure-modulo-seed contract "
                             "(RNG_SEEDED always allowed)"))
    for finding in unaudited + new_audited:
        flavor = "NEW-AUDITED" if finding.suppressed else "UNAUDITED"
        location = f"{finding.file}:{finding.line}" if finding.file else ""
        _out(f"{flavor} {finding.severity.upper()} {finding.rule} "
              f"[{finding.model} :: {finding.module_path} :: {finding.op}] "
              f"{location}\n    {finding.message}")
    for fp in vanished:
        _out(f"VANISHED {fp}\n    audited by {args.baseline} but no "
              "longer reported (fixed? run --update-baseline; analyzer "
              "coverage regression? investigate)")
    if failed:
        _out(f"{len(unaudited)} unaudited / {len(new_audited)} new audited "
              f"/ {len(vanished)} vanished finding(s)", file=sys.stderr)
        return 1
    _out(f"analysis clean: zero unaudited findings; {len(audited)} audited "
          f"fingerprint(s) match {args.baseline} exactly")
    return 0


def _cmd_analyze_data(args) -> int:
    from repro.data import kind_ratios
    from repro.eval import format_table
    from repro.frequency import pairwise_kde_kl, recommend_window

    dataset = _load(args)
    spectra = [np.abs(np.fft.rfft(s.train[:, 0]))[1:65] for s in dataset]
    divergence = pairwise_kde_kl(spectra)
    ratios = np.mean([kind_ratios(s.segments, len(s.test_labels))
                      for s in dataset], axis=0)
    windows = [recommend_window(s.train) for s in dataset]
    rows = [
        ("services", len(dataset)),
        ("features", dataset[0].num_features),
        ("mean pairwise KL (diversity)", f"{divergence.mean():.4f}"),
        ("point-anomaly ratio", f"{ratios[0]:.3f}"),
        ("context-anomaly ratio", f"{ratios[1]:.3f}"),
        ("recommended window (median)", int(np.median(windows))),
    ]
    _out(format_table(("property", "value"), rows,
                       title=f"analysis of {args.dataset}"))
    return 0


def _cmd_chaos(args) -> int:
    from repro.core import MaceConfig, MaceDetector
    from repro.eval import format_table
    from repro.runtime import FaultInjector, ServingRuntime

    dataset = _load(args)
    config = MaceConfig(epochs=args.epochs)
    detector = MaceDetector(config).fit(
        [s.service_id for s in dataset], [s.train for s in dataset]
    )
    injector = FaultInjector(
        seed=args.chaos_seed, corrupt_prob=args.corrupt_prob,
        raise_prob=1.0 / max(args.raise_every, 1),
    )
    runtime = ServingRuntime(injector.wrap_detector(detector),
                             window=config.window, q=1e-2)
    for service in dataset:
        runtime.start_service(service.service_id, service.train)

    counters = {s.service_id: {"alerts": 0, "fallback": 0, "sanitized": 0}
                for s in dataset}
    for step in range(dataset[0].test.shape[0]):
        for service in dataset:
            outcome = runtime.update(
                service.service_id, injector.corrupt(service.test[step])
            )
            stats = counters[service.service_id]
            stats["alerts"] += outcome.is_alert
            stats["fallback"] += outcome.used_fallback
            stats["sanitized"] += outcome.sanitized
    rows = [
        (service_id,
         runtime.health(service_id).state.value,
         runtime.health(service_id).total_failures,
         len(runtime.health(service_id).transitions),
         stats["sanitized"], stats["fallback"], stats["alerts"])
        for service_id, stats in counters.items()
    ]
    _out(format_table(
        ("service", "health", "faults", "transitions", "sanitized",
         "fallback scores", "alerts"),
        rows,
        title=(f"chaos drill on {args.dataset}: "
               f"{injector.observations_corrupted} corrupted observations, "
               f"{injector.scoring_faults} scoring faults, zero crashes"),
    ))
    return 0


def _cmd_train_fleet(args) -> int:
    import tempfile

    from repro.core import MaceConfig
    from repro.eval import format_table
    from repro.runtime import (
        FaultInjector,
        FleetConfig,
        FleetJob,
        train_fleet,
    )

    dataset = _load(args)
    config = MaceConfig(epochs=args.epochs)
    jobs = []
    services = list(dataset)
    for index in range(0, len(services), max(args.group_size, 1)):
        group = services[index:index + max(args.group_size, 1)]
        jobs.append(FleetJob(
            f"{args.dataset}-group{index // max(args.group_size, 1)}",
            tuple(s.service_id for s in group),
            tuple(s.train for s in group),
        ))
    fleet = FleetConfig(workers=args.workers, fleet_seed=args.fleet_seed,
                        timeout=args.timeout, max_attempts=args.max_attempts,
                        observability=args.obs)
    if args.obs and args.directory is None:
        _out("note: --obs without --dir writes telemetry to a temporary "
             "directory that is deleted on exit; pass --dir to keep it",
             file=sys.stderr)
    faults = None
    if args.fault_rate > 0.0:
        injector = FaultInjector(seed=args.chaos_seed)
        faults = injector.plan_worker_faults(
            [job.group_id for job in jobs], args.fault_rate, args.epochs,
        )
    if args.directory is not None:
        report = train_fleet(jobs, config, args.directory, fleet,
                             faults=faults)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as tmp:
            report = train_fleet(jobs, config, tmp, fleet, faults=faults)
    injected = len(faults) if faults else 0
    _out(format_table(
        ("group", "status", "attempts", "rewinds", "nonfinite", "epochs",
         "final loss", "error"),
        report.summary_rows(),
        title=(f"fleet training on {args.dataset}: "
               f"{len(report.done)} done, {len(report.failed)} failed, "
               f"{injected} fault(s) injected, workers={args.workers}"),
    ))
    return 1 if report.failed else 0


def _cmd_lint(args) -> int:
    from repro.analysis import lint

    argv: List[str] = list(args.paths)
    if args.select:
        argv += ["--select", *args.select]
    if args.list_rules:
        argv.append("--list-rules")
    return lint.main(argv)


def _cmd_check_model(args) -> int:
    from repro.analysis import check_model, input_spec
    from repro.analysis.spec import ContractError
    from repro.core import MaceConfig, MaceModel

    config = MaceConfig(window=args.window, num_bases=args.num_bases,
                        channels=args.channels)
    try:
        batch = int(args.batch)
    except ValueError:
        batch = args.batch  # a symbol name, e.g. "N"
    try:
        spec = input_spec((batch, args.window, args.features))
        out = check_model(MaceModel(config), spec)
    except ContractError as error:
        _out(f"contract violation: {error}", file=sys.stderr)
        return 1
    _out(f"ok: {spec} -> {out}")
    return 0


def _gateway_fleet(args):
    from repro.runtime.gateway import ZScoreDetector, make_fleet_series

    fleet = make_fleet_series(args.services, args.history, args.updates,
                              seed=args.seed)
    histories = {sid: series[:args.history]
                 for sid, series in fleet.items()}
    streams = {sid: series[args.history:] for sid, series in fleet.items()}
    detector = ZScoreDetector().fit(
        sorted(histories), [histories[sid] for sid in sorted(histories)])
    return detector, histories, streams


def _fault_rate_ok(args) -> bool:
    """Reject a ``--fault-rate`` outside [0, 1] with a message."""
    if 0.0 <= args.fault_rate <= 1.0:
        return True
    _out(f"--fault-rate must be in [0, 1], got {args.fault_rate:g}",
         file=sys.stderr)
    return False


def _parse_kills(specs):
    """``SERVICE:APPLIES`` strings -> ``[(service, applies)]``; ``None``
    (after a message) when one is malformed."""
    kills = []
    for spec in specs or []:
        service_id, _, after = spec.rpartition(":")
        try:
            applies = int(after)
        except ValueError:
            applies = None
        if not service_id or applies is None:
            _out(f"bad --kill {spec!r} (want SERVICE:APPLIES)",
                 file=sys.stderr)
            return None
        kills.append((service_id, applies))
    return kills


def _gateway_fault_plan(args, histories):
    from repro.runtime import FaultInjector

    if args.fault_rate <= 0.0:
        return None
    injector = FaultInjector(seed=args.fault_seed)
    return injector.plan_gateway_faults(sorted(histories),
                                        args.fault_rate, args.updates)


def _cmd_serve(args) -> int:
    import asyncio
    import tempfile
    from pathlib import Path

    from repro.eval import format_table
    from repro.runtime import GatewayConfig, GatewayError, ServingGateway
    from repro.runtime.gateway import run_traffic

    window = 16                 # streaming calibration needs 2x this
    if args.history < 2 * window:
        _out(f"--history must be >= {2 * window} (calibration floor)",
             file=sys.stderr)
        return 2
    kills = _parse_kills(args.kill)
    if kills is None or not _fault_rate_ok(args):
        return 2
    detector, histories, streams = _gateway_fleet(args)
    plan = _gateway_fault_plan(args, histories)
    config = GatewayConfig(workers=args.workers, seed=args.seed,
                           window=window, queue_depth=args.queue_depth,
                           backoff_base=0.01)

    def run(directory) -> int:
        gateway = ServingGateway(directory, detector, histories, config)
        for service_id, after in kills:
            try:
                gateway.schedule_worker_kill(service_id, after)
            except KeyError:
                _out(f"bad --kill: unknown service {service_id!r}",
                     file=sys.stderr)
                return 2
        if plan:
            gateway.apply_fault_plan(plan)

        async def session():
            await gateway.start()
            report = await run_traffic(gateway, streams, faults=plan)
            await gateway.drain()
            return report, gateway.status()

        report, status = asyncio.run(session())
        _out(format_table(
            ("metric", "value"), report.summary_rows(),
            title=(f"serving gateway: {args.services} services over "
                   f"{args.workers} worker(s)"),
        ))
        _out(format_table(
            ("shard", "services", "wal records", "respawns"),
            [(shard_id, shard["services"], shard["wal_lsn"],
              shard["respawns"])
             for shard_id, shard in sorted(status["shards"].items())],
            title="shards (drained cleanly)",
        ))
        total = args.services * args.updates
        if report.accepted != total:
            _out(f"FAIL: {total - report.accepted} update(s) never "
                 "acknowledged", file=sys.stderr)
            return 1
        _out(f"ok: all {total} updates acknowledged and journalled")
        return 0

    try:
        if args.directory is not None:
            return run(Path(args.directory))
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            return run(Path(tmp))
    except GatewayError as error:
        _out(f"gateway failed: {error}", file=sys.stderr)
        return 1


def _cmd_traffic(args) -> int:
    from repro.eval import format_table
    from repro.runtime.gateway import ConsistentHashRing

    if not _fault_rate_ok(args):
        return 2
    _, histories, streams = _gateway_fleet(args)
    plan = _gateway_fault_plan(args, histories) or {}
    ring = ConsistentHashRing([f"w{i}" for i in range(args.workers)],
                              seed=args.seed)
    rows = []
    for service_id in sorted(histories):
        fault = plan.get(service_id)
        rows.append((
            service_id, ring.assign(service_id),
            len(streams[service_id]),
            fault.kind if fault else "-",
            fault.at_update if fault else "-",
        ))
    _out(format_table(
        ("service", "shard", "updates", "fault", "at update"), rows,
        title=(f"seeded gateway traffic: {args.services} services over "
               f"{args.workers} worker(s), fault rate "
               f"{args.fault_rate:g} (seed {args.fault_seed})"),
    ))
    return 0


def _cmd_obs(args) -> int:
    from pathlib import Path

    directory = Path(args.directory)
    if not directory.is_dir():
        _out(f"not a directory: {directory}", file=sys.stderr)
        return 2
    if args.obs_command == "top":
        from repro.obs.console import run_top

        return run_top(directory, once=args.once, interval=args.interval,
                       iterations=args.iterations, printer=_out)
    from repro.obs.report import render_report

    _out(render_report(directory))
    return 0


_COMMANDS = {
    "list-datasets": _cmd_list_datasets,
    "detect": _cmd_detect,
    "compare": _cmd_compare,
    "analyze": _cmd_analyze,
    "analyze-data": _cmd_analyze_data,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "traffic": _cmd_traffic,
    "train-fleet": _cmd_train_fleet,
    "obs": _cmd_obs,
    "lint": _cmd_lint,
    "check-model": _cmd_check_model,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
