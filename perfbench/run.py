"""Outside-in benchmark of SIES exact-SUM epochs over its three substrates.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analytic-n1024 --seed 1 --seconds 10 --trace 0

Workloads: ``analytic-n1024``, ``runtime-n256-loss20``, ``cluster-n64-loss20``
(see ``perfbench/README.md``).  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it measures untraced for half the
time, then traced for the other half, and reports the per-layer split.  Every accepted epoch's SUM is
checked against the pregenerated readings.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``; the line before it records the host, the seeds and the
sample counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from hostspeed import REFERENCE_SECONDS, reference_seconds

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Every span name the hooks record, so no self time goes unreported.
KNOWN_SPANS = (
    "crypto.prf",
    "core.source",
    "core.querier",
    "core.aggregator",
    "wire.encode",
    "wire.decode",
    "network.channel",
    "runtime.faults",
    "runtime.engine",
    "runtime.run",
    "cluster.faults",
    "cluster.run",
    "cluster.idle",
    "analytic.run",
)
#: Relative tolerance of the layer-sum identity (float rounding only).
IDENTITY_TOLERANCE = 1e-9
#: Each phase runs at least this many batches, so exact counts can be compared.
MIN_BATCHES = 2
#: Workloads whose per-batch counts are seed-determined and must repeat.
EXACT_COUNT_WORKLOADS = ("analytic-n1024", "runtime-n256-loss20")


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile: the ``ceil(fraction * n)``-th smallest."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def measure(workload, seconds: float, tracer=None):
    """Run batches until *seconds* have passed (and at least ``MIN_BATCHES``).

    Garbage is collected between batches, outside every timed region, so
    a batch never pays for the substrate the previous one discarded.  The
    reference loop is timed just before and after each batch, and gives
    the factor that scales the batch's timings and set-ups to the
    reference host speed (see :mod:`hostspeed`).
    """
    from workloads import Phase

    phase = Phase()
    deadline = time.perf_counter() + seconds
    while phase.batches < MIN_BATCHES or time.perf_counter() < deadline:
        gc.collect()
        setups_before = len(workload.setup_seconds)
        before = reference_seconds()
        workload.batch(phase, tracer)
        scale = 2 * REFERENCE_SECONDS / (before + reference_seconds())
        phase.batch_log[-1] = replace(phase.batch_log[-1], scale=scale)
        phase.setups.extend(s * scale for s in workload.setup_seconds[setups_before:])
    return phase


def epochs_per_second(phase) -> float:
    """Median over batches of accepted epochs per scaled second."""
    return statistics.median(
        batch.accepted / (batch.seconds * batch.scale) for batch in phase.batch_log
    )


def end_to_end(phase) -> dict[str, tuple[float, str]]:
    latencies = [ms * batch.scale for batch in phase.batch_log for ms in batch.latencies_ms]
    return {
        "setup_s": (statistics.median(phase.setups), "s"),
        "epochs_per_s": (epochs_per_second(phase), "1/s"),
        "epoch_ms_p50": (percentile(latencies, 0.50), "ms"),
        "epoch_ms_p95": (percentile(latencies, 0.95), "ms"),
        "survivor_ratio": (phase.survivors / phase.attempted_sources, "ratio"),
    }


def unscaled(phase) -> dict[str, float]:
    """The phase's figures as measured, before scaling to reference speed."""
    return {
        "epochs_per_s": phase.accepted / phase.seconds,
        "epoch_ms_p50": percentile(phase.latencies_ms, 0.50),
        "reference_ms": 1000.0
        * statistics.median(REFERENCE_SECONDS / batch.scale for batch in phase.batch_log),
    }


def layer_split(tracer, epochs: int) -> dict[str, float]:
    """Self time per span name, in ms per epoch."""
    unknown = set(tracer.self_seconds) - set(KNOWN_SPANS)
    if unknown:
        raise RuntimeError(f"spans {sorted(unknown)} would go unreported")
    return {name: 1000.0 * tracer.seconds(name) / epochs for name in KNOWN_SPANS}


def identity_gap(tracer, epochs: int) -> float:
    """Relative gap between Σ layer self times and the traced epoch wall.

    The per-layer metrics are these self times (``wire`` and ``crypto``
    per call, the rest per epoch) plus ``unattributed_ms_per_epoch``,
    which is the self time of the workload's unattributed span.
    """
    wall = 1000.0 * tracer.root_seconds / epochs
    return abs(sum(layer_split(tracer, epochs).values()) - wall) / wall


def per_layer(workload, tracer, untraced, traced) -> dict[str, tuple[float, str]]:
    epochs = traced.epochs
    split = layer_split(tracer, epochs)

    def us_per_call(name: str) -> float:
        calls = tracer.count(name)
        return 1e6 * tracer.seconds(name) / calls if calls else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    codec_calls = tracer.count("wire.encode") + tracer.count("wire.decode")
    attempted = untraced.epochs + traced.epochs
    return {
        "crypto.prf_us_per_call": (us_per_call("crypto.prf"), "us"),
        "crypto.prf_ms_per_epoch": (split["crypto.prf"], "ms"),
        "crypto.prf_calls_per_epoch": (tracer.count("crypto.prf") / epochs, "count"),
        "core.source_self_ms_per_epoch": (split["core.source"], "ms"),
        "core.querier_self_ms_per_epoch": (split["core.querier"], "ms"),
        "core.aggregator_ms_per_epoch": (split["core.aggregator"], "ms"),
        "core.querier_subset_eval_ratio": (
            ratio(traced.subset_evaluations, traced.evaluations),
            "ratio",
        ),
        "wire.encode_us_per_call": (us_per_call("wire.encode"), "us"),
        "wire.decode_us_per_call": (us_per_call("wire.decode"), "us"),
        "wire.codec_calls_per_epoch": (codec_calls / epochs, "count"),
        "network.channel_self_ms_per_epoch": (split["network.channel"], "ms"),
        "network.transmits_per_epoch": (tracer.count("network.channel") / epochs, "count"),
        "runtime.faults_ms_per_epoch": (split["runtime.faults"], "ms"),
        "runtime.engine_self_ms_per_epoch": (split["runtime.engine"], "ms"),
        "runtime.events_per_epoch": (traced.events / epochs, "count"),
        "runtime.attempts_per_parcel": (ratio(traced.attempts, traced.parcels), "ratio"),
        "cluster.faults_ms_per_epoch": (split["cluster.faults"], "ms"),
        "cluster.io_self_ms_per_epoch": (split["cluster.run"], "ms"),
        "cluster.frames_per_epoch": (traced.frames / epochs, "count"),
        "cluster.spurious_attempts_ratio": (
            ratio(traced.attempts, traced.oracle_attempts) - 1.0
            if traced.oracle_attempts
            else 0.0,
            "ratio",
        ),
        "unattributed_ms_per_epoch": (split[workload.unattributed], "ms"),
        "trace_overhead_ratio": (epochs_per_second(untraced) / epochs_per_second(traced), "ratio"),
        "failed_epoch_ratio": ((untraced.failed + traced.failed) / attempted, "ratio"),
    }


def host() -> dict[str, object]:
    from repro.crypto.hashes import get_hash

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "hash_backend": get_hash("sha256").backend,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("analytic-n1024", "runtime-n256-loss20", "cluster-n64-loss20"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import traced_prf
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    # A traced run splits its time between the untraced and traced phases.
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(workload, seconds)
    info: dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "fault_seed": getattr(workload, "fault_seed", None),
        "host": host(),
        "setups": len(workload.setup_seconds),
        "untraced": {
            "epochs": untraced.epochs,
            "batches": untraced.batches,
            "unscaled": unscaled(untraced),
        },
    }
    problems = []
    if untraced.wrong:
        problems.append(f"{untraced.wrong} accepted epochs with a wrong SUM")

    if args.trace:
        tracer = Tracer()
        with traced_prf(tracer):
            traced = measure(workload, seconds, tracer)
        if traced.wrong:
            problems.append(f"{traced.wrong} traced epochs with a wrong SUM")
        gap = identity_gap(tracer, traced.epochs)
        if gap > IDENTITY_TOLERANCE:
            problems.append(f"layer-sum identity off by a share of {gap:.3g}")
        if args.workload in EXACT_COUNT_WORKLOADS and any(
            counts != traced.counts[0] for counts in traced.counts
        ):
            problems.append(f"exact counts differ between batches: {traced.counts}")
        info.update(
            traced={"epochs": traced.epochs, "batches": traced.batches},
            exact_counts_per_batch=traced.counts[0] if traced.counts else None,
            identity_gap=gap,
        )
        metrics = per_layer(workload, tracer, untraced, traced)
        attempted = untraced.epochs + traced.epochs
        failed = untraced.failed + traced.failed
    else:
        metrics = end_to_end(untraced)
        attempted, failed = untraced.epochs, untraced.failed

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
