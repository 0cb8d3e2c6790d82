"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------

``run``        simulate a protocol over a generated network and print
               per-epoch verified results and cost summaries;
``runtime``    run the fault-injecting event runtime — seeded loss,
               per-hop retransmission, loss recovery — and print the
               per-epoch recovery outcomes plus transport metrics;
``query``      execute a continuous aggregate query (the paper's
               SELECT template) and print per-epoch answers;
``attack``     mount a named adversary and report detection outcomes;
``cluster``    run the aggregation tree as an asyncio TCP cluster — every
               node on a real localhost socket — with seeded stream-layer
               loss and pipelined epochs;
``experiment`` regenerate a paper table/figure by name;
``bounds``     print the Theorem 1–4 security bounds for a parameter set;
``info``       print the build's protocol registry: names, frame-header
               wire ids and the wire-format version;
``lint``       run sieslint, the AST-based invariant checker (per-file
               rules SL001–SL009 plus the project-wide interprocedural
               secret-flow and SL010 wire-contract passes), over source
               trees; non-zero exit on non-baselined findings.  Supports
               parallel analysis (``--jobs``) and SARIF 2.1.0 output
               (``--sarif`` / ``--sarif-file``) for CI annotations.
``trace``      record a seeded run of any substrate as a unified
               JSON-lines event trace (``repro.obs``), or replay a
               recorded trace: filter by epoch/node/edge, reduce to the
               seed-determined disposition slice, diff two traces;
``metrics``    run a substrate and export its ledger through the unified
               metrics registry as Prometheus text or JSON.

Examples::

    python -m repro.cli run --protocol sies --sources 64 --epochs 5
    python -m repro.cli runtime --sources 64 --epochs 20 --loss 0.2
    python -m repro.cli cluster --sources 64 --epochs 100 --loss 0.2 --window 8
    python -m repro.cli query --aggregate AVG --where "temperature>=20" --sources 32
    python -m repro.cli attack --attack replay --protocol sies
    python -m repro.cli experiment fig5
    python -m repro.cli bounds --sources 1024 --share-bytes 8
    python -m repro.cli lint src --json
    python -m repro.cli trace --substrate runtime --loss 0.2 --output run.jsonl
    python -m repro.cli trace --input run.jsonl --epoch 3 --dispositions
    python -m repro.cli metrics --substrate cluster --format prometheus
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable

from repro.core.params import SIESParams
from repro.errors import SimulationError
from repro.core.security import bounds_for
from repro.datasets.workload import DomainScaledWorkload
from repro.network.channel import EdgeClass
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree
from repro.protocols.base import SecureAggregationProtocol
from repro.protocols.registry import available_protocols, create_protocol
from repro.queries.engine import ContinuousQuery
from repro.queries.predicates import AlwaysTrue, parse_predicate
from repro.queries.query import AggregateKind, Query
from repro.runtime.metrics import RunMetrics

__all__ = ["main", "build_parser"]

_EXPERIMENTS = ("table2", "table3", "table5", "fig4", "fig5", "fig6a", "fig6b",
                "extension_scalability", "extension_energy", "run_all")


def _duration(*, allow_zero: bool) -> Callable[[str], float]:
    """argparse type of a time flag: a finite number, > 0 (>= 0 with *allow_zero*)."""
    bound = ">= 0" if allow_zero else "> 0"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value >= 0 if allow_zero else value > 0)):
            raise argparse.ArgumentTypeError(f"must be a finite number {bound}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.cli", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a protocol")
    run_p.add_argument("--protocol", default="sies", choices=sorted(available_protocols()))
    run_p.add_argument("--sources", type=int, default=64)
    run_p.add_argument("--fanout", type=int, default=4)
    run_p.add_argument("--epochs", type=int, default=5)
    run_p.add_argument("--scale", type=int, default=100)
    run_p.add_argument("--seed", type=int, default=2011)

    runtime_p = sub.add_parser("runtime", help="fault-injecting event runtime")
    runtime_p.add_argument("--protocol", default="sies", choices=sorted(available_protocols()))
    runtime_p.add_argument("--sources", type=int, default=64)
    runtime_p.add_argument("--fanout", type=int, default=4)
    runtime_p.add_argument("--epochs", type=int, default=20)
    runtime_p.add_argument("--loss", type=float, default=0.2,
                           help="per-hop loss probability (default 0.2)")
    runtime_p.add_argument("--latency", type=_duration(allow_zero=True), default=1.0,
                           help="base per-hop latency in logical ticks")
    runtime_p.add_argument("--duplicate", type=float, default=0.0,
                           help="per-hop duplication probability")
    runtime_p.add_argument("--max-retries", type=int, default=4)
    runtime_p.add_argument("--ack-timeout", type=_duration(allow_zero=False), default=12.0)
    runtime_p.add_argument("--scale", type=int, default=100)
    runtime_p.add_argument("--seed", type=int, default=2011)
    runtime_p.add_argument("--json", action="store_true",
                           help="print the full deterministic metrics ledger as JSON")

    cluster_p = sub.add_parser("cluster", help="aggregation tree over real TCP sockets")
    cluster_p.add_argument("--protocol", default="sies", choices=sorted(available_protocols()))
    cluster_p.add_argument("--sources", type=int, default=64)
    cluster_p.add_argument("--fanout", type=int, default=4)
    cluster_p.add_argument("--epochs", type=int, default=20)
    cluster_p.add_argument("--loss", type=float, default=0.2,
                           help="per-hop envelope loss probability (default 0.2)")
    cluster_p.add_argument("--duplicate", type=float, default=0.0,
                           help="per-hop duplication probability")
    cluster_p.add_argument("--window", type=int, default=8,
                           help="epochs pipelined concurrently (default 8)")
    cluster_p.add_argument("--hold-time", type=_duration(allow_zero=False), default=0.25,
                           help="merge-deadline spacing per tree level, seconds")
    cluster_p.add_argument("--querier-slack", type=_duration(allow_zero=True), default=0.25,
                           help="extra querier wait beyond the root deadline, seconds")
    cluster_p.add_argument("--ack-timeout", type=_duration(allow_zero=False), default=0.01,
                           help="first ARQ retransmit timeout, seconds")
    cluster_p.add_argument("--max-retries", type=int, default=4)
    cluster_p.add_argument("--scale", type=int, default=100)
    cluster_p.add_argument("--seed", type=int, default=2011)
    cluster_p.add_argument("--json", action="store_true",
                           help="print the full run ledger as JSON")

    query_p = sub.add_parser("query", help="run a continuous aggregate query")
    query_p.add_argument("--aggregate", default="SUM",
                         choices=[k.value for k in AggregateKind])
    query_p.add_argument("--where", default=None, help='predicate, e.g. "temperature>=20"')
    query_p.add_argument("--protocol", default="sies")
    query_p.add_argument("--sources", type=int, default=64)
    query_p.add_argument("--epochs", type=int, default=5)
    query_p.add_argument("--scale", type=int, default=100)
    query_p.add_argument("--seed", type=int, default=2011)

    attack_p = sub.add_parser("attack", help="mount an adversary")
    attack_p.add_argument("--attack", required=True, choices=("tamper", "drop", "replay"))
    attack_p.add_argument("--protocol", default="sies", choices=("sies", "cmt"))
    attack_p.add_argument("--sources", type=int, default=64)
    attack_p.add_argument("--epochs", type=int, default=5)
    attack_p.add_argument("--seed", type=int, default=2011)

    experiment_p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    experiment_p.add_argument("name", choices=_EXPERIMENTS)
    experiment_p.add_argument("--quick", action="store_true")

    bounds_p = sub.add_parser("bounds", help="Theorem 1-4 security bounds")
    bounds_p.add_argument("--sources", type=int, default=1024)
    bounds_p.add_argument("--value-bytes", type=int, default=4, choices=(4, 8))
    bounds_p.add_argument("--share-bytes", type=int, default=20)

    info_p = sub.add_parser("info", help="protocol registry and wire-format versions")
    info_p.add_argument("--json", action="store_true", help="machine-readable output")

    lint_p = sub.add_parser("lint", help="sieslint: AST-based invariant checker")
    lint_p.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    lint_p.add_argument("--json", action="store_true", help="machine-readable output")
    lint_p.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run (default: all)")
    lint_p.add_argument("--baseline", default=None,
                        help="baseline JSON path (default: ./sieslint.baseline.json "
                             "when present)")
    lint_p.add_argument("--no-baseline", action="store_true",
                        help="report every finding, ignoring any baseline")
    lint_p.add_argument("--update-baseline", action="store_true",
                        help="snapshot current findings into the baseline and exit 0")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit (honors --json)")
    lint_p.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="analyse files in N parallel processes "
                             "(0 = one per CPU; default: serial)")
    lint_p.add_argument("--no-project", action="store_true",
                        help="skip the project-wide passes (interprocedural "
                             "secret-flow, SL010 wire contract)")
    lint_p.add_argument("--sarif", action="store_true",
                        help="emit a SARIF 2.1.0 document instead of text/JSON")
    lint_p.add_argument("--sarif-file", default=None, metavar="PATH",
                        help="also write a SARIF 2.1.0 document to PATH "
                             "(keeps the text report on stdout)")

    trace_p = sub.add_parser("trace", help="record, filter or diff unified event traces")
    trace_p.add_argument("--substrate", default="runtime",
                         choices=("network", "runtime", "cluster"),
                         help="which substrate to record (ignored with --input)")
    trace_p.add_argument("--input", default=None, metavar="PATH",
                         help="read a recorded JSON-lines trace instead of running")
    trace_p.add_argument("--output", default=None, metavar="PATH",
                         help="write the trace as JSON-lines to PATH")
    trace_p.add_argument("--epoch", type=int, default=None, help="only this epoch")
    trace_p.add_argument("--node", type=int, default=None,
                         help="only events this node sent or received")
    trace_p.add_argument("--edge", default=None, choices=("S-A", "A-A", "A-Q"),
                         help="only this edge class")
    trace_p.add_argument("--dispositions", action="store_true",
                         help="print the seed-determined disposition slice as JSON "
                              "instead of raw events")
    trace_p.add_argument("--diff", default=None, metavar="PATH",
                         help="diff against another recorded trace on the determined "
                              "slice; exit 1 on disagreement")
    trace_p.add_argument("--protocol", default="sies", choices=sorted(available_protocols()))
    trace_p.add_argument("--sources", type=int, default=16)
    trace_p.add_argument("--fanout", type=int, default=4)
    trace_p.add_argument("--epochs", type=int, default=5)
    trace_p.add_argument("--loss", type=float, default=0.2)
    trace_p.add_argument("--duplicate", type=float, default=0.0)
    trace_p.add_argument("--scale", type=int, default=100)
    trace_p.add_argument("--seed", type=int, default=2011)

    metrics_p = sub.add_parser("metrics", help="export a run's ledger via the unified registry")
    metrics_p.add_argument("--substrate", default="runtime",
                           choices=("network", "runtime", "cluster"))
    metrics_p.add_argument("--format", default="prometheus", choices=("prometheus", "json"))
    metrics_p.add_argument("--protocol", default="sies", choices=sorted(available_protocols()))
    metrics_p.add_argument("--sources", type=int, default=16)
    metrics_p.add_argument("--fanout", type=int, default=4)
    metrics_p.add_argument("--epochs", type=int, default=5)
    metrics_p.add_argument("--loss", type=float, default=0.2)
    metrics_p.add_argument("--duplicate", type=float, default=0.0)
    metrics_p.add_argument("--scale", type=int, default=100)
    metrics_p.add_argument("--seed", type=int, default=2011)
    return parser


# ----------------------------------------------------------------------


def _protocol_and_workload(
    args: argparse.Namespace,
) -> tuple[SecureAggregationProtocol, DomainScaledWorkload]:
    """The command's protocol and its seeded workload."""
    kwargs = {"seed": args.seed}
    if args.protocol == "secoa_s":
        kwargs["num_sketches"] = 50  # keep interactive runs snappy
    protocol = create_protocol(args.protocol, args.sources, **kwargs)
    return protocol, DomainScaledWorkload(args.sources, scale=args.scale, seed=args.seed)


def _print_recovered_epochs(
    metrics: RunMetrics, sources: int, latency: Callable[[float], str], *, name_lost: bool
) -> None:
    """One line per epoch of an ARQ substrate: its SUM and who it recovered."""
    for em in metrics.epochs:
        if em.security_failure:
            print(f"epoch {em.epoch}: LOST ({em.security_failure})")
            continue
        if em.result is None:
            raise SimulationError(f"epoch {em.epoch} finished with neither result nor failure")
        tag = "verified" if em.result.verified else "UNVERIFIED"
        if em.recovery.complete:
            detail = "all sources"
        else:
            detail = f"recovered {len(em.recovery.survivors)}/{sources}"
            if name_lost:
                detail += f", lost {sorted(em.recovery.lost)}"
        print(
            f"epoch {em.epoch}: result {em.result.value} ({tag}, {detail}, "
            f"{latency(em.completion_latency)})"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    protocol, workload = _protocol_and_workload(args)
    simulator = NetworkSimulator(
        protocol,
        build_complete_tree(args.sources, args.fanout),
        workload,
        SimulationConfig(num_epochs=args.epochs),
    )
    metrics = simulator.run()
    for em in metrics.epochs:
        if em.security_failure:
            print(f"epoch {em.epoch}: REJECTED ({em.security_failure})")
        else:
            if em.result is None:
                raise SimulationError(f"epoch {em.epoch} finished with neither result nor failure")
            tag = "verified" if em.result.verified else "UNVERIFIED"
            kind = "exact" if em.result.exact else "estimate"
            print(f"epoch {em.epoch}: {kind} result {em.result.value} ({tag})")
    print("\nper-role CPU time: python -m repro.cli experiment fig4 | fig5 | fig6a")
    for edge in EdgeClass:
        print(f"bytes per {edge.value} msg : {metrics.traffic.per_message('payload_bytes', edge):10.0f}")
    return 0


def _cmd_runtime(args: argparse.Namespace) -> int:
    import json

    from repro.runtime import (
        FaultPlan,
        LinkProfile,
        RetransmitPolicy,
        RuntimeConfig,
        RuntimeSimulator,
    )

    protocol, workload = _protocol_and_workload(args)
    config = RuntimeConfig(
        num_epochs=args.epochs,
        plan=FaultPlan(
            default_profile=LinkProfile(
                loss_rate=args.loss,
                latency=args.latency,
                duplicate_rate=args.duplicate,
            )
        ),
        policy=RetransmitPolicy(max_retries=args.max_retries, ack_timeout=args.ack_timeout),
        seed=args.seed,
    )
    simulator = RuntimeSimulator(
        protocol, build_complete_tree(args.sources, args.fanout), workload, config
    )
    metrics = simulator.run()
    if args.json:
        print(json.dumps(metrics.ledger(), indent=2))
        return 0

    _print_recovered_epochs(
        metrics, args.sources, lambda latency: f"latency {latency:.1f}", name_lost=True
    )

    ledger = metrics.ledger()
    print(f"\ndelivery rate    : {metrics.delivery_rate():8.4f}")
    print(f"acceptance rate  : {metrics.acceptance_rate():8.4f}")
    print(f"retransmissions  : {metrics.traffic.total('retransmissions'):8d}")
    for edge in EdgeClass:
        retries = metrics.traffic.retransmissions.get(edge, 0)
        print(f"  on {edge.value} links : {retries:8d}")
    latency = ledger["latency"]
    print(
        "completion latency: "
        f"p50 {latency['p50']:.1f}  p90 {latency['p90']:.1f}  "
        f"p99 {latency['p99']:.1f}  max {latency['max']:.1f}"
    )
    print(f"events processed : {metrics.events_processed:8d}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import json

    from repro.cluster import ClusterConfig, run_cluster
    from repro.runtime import FaultPlan, LinkProfile, RetransmitPolicy

    protocol, workload = _protocol_and_workload(args)
    config = ClusterConfig(
        num_epochs=args.epochs,
        window=args.window,
        hold_time=args.hold_time,
        querier_slack=args.querier_slack,
        policy=RetransmitPolicy(
            max_retries=args.max_retries, ack_timeout=args.ack_timeout,
            backoff=1.5, jitter=0.25,
        ),
        plan=FaultPlan(
            default_profile=LinkProfile(loss_rate=args.loss, duplicate_rate=args.duplicate)
        ),
        seed=args.seed,
    )
    metrics = run_cluster(
        protocol, build_complete_tree(args.sources, args.fanout), workload, config
    )
    if args.json:
        print(json.dumps(metrics.ledger(), indent=2))
        return 0

    _print_recovered_epochs(
        metrics, args.sources, lambda latency: f"{latency * 1e3:.1f} ms", name_lost=False
    )
    print(f"\ndelivery rate    : {metrics.delivery_rate():8.4f}")
    print(f"acceptance rate  : {metrics.acceptance_rate():8.4f}")
    print(f"retransmissions  : {metrics.traffic.total('retransmissions'):8d}")
    print(f"injected drops   : {metrics.traffic.total('drops_injected'):8d}")
    print(f"epochs per second: {metrics.epochs_per_second():8.1f}")
    print(f"frames per second: {metrics.frames_per_second():8.0f}")
    for edge in EdgeClass:
        counters = metrics.traffic.edge(edge)
        print(
            f"  {edge.value}: {counters.frames_sent:6d} frames, "
            f"{counters.envelope_bytes:8d} envelope B, {counters.frame_bytes:8d} PSR frame B"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    import json

    from repro.protocols.registry import registered_wire_protocols
    from repro.wire.frame import HEADER_LEN, WIRE_VERSION

    facades = sorted(available_protocols())
    wire_ids = registered_wire_protocols()
    if args.json:
        print(
            json.dumps(
                {
                    "wire_version": WIRE_VERSION,
                    "header_len": HEADER_LEN,
                    "protocols": facades,
                    "wire_ids": wire_ids,
                },
                indent=2,
            )
        )
        return 0
    print(f"wire format      : version {WIRE_VERSION}, {HEADER_LEN}-byte header")
    print(f"protocol facades : {', '.join(facades)}")
    print("wire ids         :")
    for name, wire_id in sorted(wire_ids.items(), key=lambda item: item[1]):
        facade = "facade" if name in facades else "codec only"
        print(f"  {wire_id:3d}  {name}  ({facade})")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    predicate = parse_predicate(args.where) if args.where else AlwaysTrue()
    query = Query(AggregateKind(args.aggregate), "temperature", predicate)
    print(query.sql())
    engine = ContinuousQuery(
        query, args.sources, protocol=args.protocol, scale=args.scale, seed=args.seed
    )
    for answer in engine.run(args.epochs):
        status = "verified" if answer.verified else (answer.security_failure or "unverified")
        value = "-" if answer.value is None else f"{answer.value:.4f}"
        print(f"epoch {answer.epoch}: {value}  [{status}]")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.attacks import AdditiveTamperAttack, DropAttack, ReplayAttack, run_attack_scenario

    protocol = create_protocol(args.protocol, args.sources, seed=args.seed)
    modulus = getattr(protocol, "p", None) or getattr(protocol, "n")
    attacks = {
        "tamper": lambda: AdditiveTamperAttack(delta=999_983, modulus=modulus),
        "drop": lambda: DropAttack(sender_ids=frozenset({0})),
        "replay": lambda: ReplayAttack(capture_epoch=1),
    }
    workload = DomainScaledWorkload(args.sources, scale=100, seed=args.seed)
    outcome = run_attack_scenario(
        protocol, attacks[args.attack](), workload, num_epochs=args.epochs
    )
    print(outcome.summary())
    for epoch, (reported, truth) in sorted(outcome.reported.items()):
        marker = "" if reported == truth else "   <-- WRONG, accepted"
        print(f"  epoch {epoch}: reported {reported}, truth {truth}{marker}")
    return 0 if not outcome.attack_succeeded_silently or args.protocol == "cmt" else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.name}")
    if args.name == "run_all":
        module.main(["--quick"] if args.quick else [])
    else:
        module.main()
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    params = SIESParams(
        num_sources=args.sources,
        value_bytes=args.value_bytes,
        share_bytes=args.share_bytes,
    )
    bounds = bounds_for(params)
    print(f"N={args.sources}, value field {args.value_bytes} B, shares {args.share_bytes} B")
    print(f"modulus p        : {params.p.bit_length()} bits ({params.modulus_bytes} B PSRs)")
    print(f"confidentiality  : 2^{bounds.log2_confidentiality_break:.0f} per pad guess (Thm 1)")
    # The guess bound is public analysis output, not key material.
    guess = f"2^{bounds.log2_long_term_key_guess:.0f}"  # sieslint: disable=SL001
    print(f"long-term key    : {guess} per key guess (Thm 1)")
    print(f"integrity forgery: 2^{bounds.log2_integrity_forgery:.0f} per attempt (Thm 2)")
    print(f"replay collision : 2^{bounds.log2_replay_collision:.0f} per epoch pair (Thm 4)")
    print(f"meets paper margins: {bounds.meets_paper_defaults()}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as json_module
    from pathlib import Path

    from repro.analysis import (
        Baseline,
        Severity,
        filter_new_findings,
        full_rule_catalog,
        lint_project,
        render_json,
        render_sarif,
        render_text,
    )
    from repro.analysis.baseline import DEFAULT_BASELINE_NAME

    if args.list_rules:
        catalog = full_rule_catalog()
        if args.json:
            print(json_module.dumps(
                {
                    rule_id: {"severity": severity, "description": description}
                    for rule_id, (severity, description) in catalog.items()
                },
                indent=2,
            ))
        else:
            for rule_id, (severity, description) in catalog.items():
                print(f"{rule_id} [{severity}] {description}")
        return 0

    rules = [r.strip() for r in args.rules.split(",")] if args.rules else None
    findings = lint_project(
        args.paths, rules=rules, jobs=args.jobs, project=not args.no_project
    )

    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE_NAME)
    if args.update_baseline:
        Baseline.from_findings(findings).save(baseline_path)
        print(f"sieslint: wrote {len(findings)} finding(s) to {baseline_path}")
        return 0

    baseline = None
    if not args.no_baseline and baseline_path.exists():
        baseline = Baseline.load(baseline_path)
    new, grandfathered = filter_new_findings(findings, baseline)

    if args.sarif_file:
        Path(args.sarif_file).write_text(
            render_sarif(findings, baseline=baseline) + "\n", encoding="utf-8"
        )
    if args.sarif:
        print(render_sarif(findings, baseline=baseline))
    else:
        print(render_json(new, grandfathered) if args.json
              else render_text(new, grandfathered))
    return 1 if any(f.severity == Severity.ERROR for f in new) else 0


def _run_observed(args: argparse.Namespace, recorder=None) -> RunMetrics:
    """Run the substrate named by ``args.substrate``, optionally traced.

    Returns the run's :class:`~repro.runtime.metrics.RunMetrics`;
    *recorder*, when given, is the run's hop observer.
    """
    protocol, workload = _protocol_and_workload(args)
    tree = build_complete_tree(args.sources, args.fanout)

    if args.substrate == "network":
        config = SimulationConfig(num_epochs=args.epochs, observer=recorder)
        return NetworkSimulator(protocol, tree, workload, config).run()

    from repro.runtime import FaultPlan, LinkProfile

    plan = FaultPlan(
        default_profile=LinkProfile(loss_rate=args.loss, duplicate_rate=args.duplicate)
    )
    if args.substrate == "runtime":
        from repro.runtime import RuntimeConfig, RuntimeSimulator

        config = RuntimeConfig(
            num_epochs=args.epochs, plan=plan, seed=args.seed, observer=recorder
        )
        return RuntimeSimulator(protocol, tree, workload, config).run()

    from repro.cluster import ClusterConfig, run_cluster

    config = ClusterConfig(
        num_epochs=args.epochs, plan=plan, seed=args.seed, observer=recorder
    )
    return run_cluster(protocol, tree, workload, config)


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import TraceRecorder, diff_traces

    if args.input:
        with open(args.input, encoding="utf-8") as stream:
            recorder = TraceRecorder.read_jsonl(stream)
    else:
        recorder = TraceRecorder(
            substrate=args.substrate, run_id=f"seed-{args.seed}"
        )
        _run_observed(args, recorder)

    if args.diff:
        with open(args.diff, encoding="utf-8") as stream:
            other = TraceRecorder.read_jsonl(stream)
        verdict = diff_traces(
            recorder.events,
            other.events,
            label_a=args.input or recorder.substrate,
            label_b=args.diff,
        )
        print(verdict.describe())
        return 0 if verdict.agrees else 1

    events = recorder.filter(epoch=args.epoch, node=args.node, edge=args.edge)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            for event in events:
                stream.write(event.to_json() + "\n")
        print(f"wrote {len(events)} event(s) to {args.output}")
        return 0
    if args.dispositions:
        from repro.obs import trace_dispositions

        slices = trace_dispositions(events)
        print(json.dumps({str(epoch): s for epoch, s in slices.items()}, indent=2))
        return 0
    for event in events:
        print(event.to_json())
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs import MetricsRegistry, publish_run

    registry = MetricsRegistry()
    publish_run(_run_observed(args), registry)
    if args.format == "json":
        print(json.dumps(registry.render_json(), indent=2))
    else:
        print(registry.render_prometheus(), end="")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "runtime": _cmd_runtime,
    "cluster": _cmd_cluster,
    "info": _cmd_info,
    "query": _cmd_query,
    "attack": _cmd_attack,
    "experiment": _cmd_experiment,
    "bounds": _cmd_bounds,
    "lint": _cmd_lint,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
