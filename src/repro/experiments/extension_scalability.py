"""Extension — SIES vs the commit-and-attest family at scale.

Not a paper figure: the paper *argues* in Section II-B that
commit-and-attest schemes do not scale ("broadcasting inflicts
considerable communication cost … increase[s] with the number of
sources") and that is its reason to exclude them from the evaluation.
This driver quantifies the claim on our implementation of a
representative commit-and-attest scheme (:mod:`repro.baselines.commit_attest`):

for N ∈ {64 … 4096} it reports, per epoch,

* the hottest edge's bytes (SIES: constant 32 B; commit-and-attest: the
  sink edge carries all N authentication paths),
* the total network bytes,
* how many sensors must actively participate in verification
  (SIES: 0; commit-and-attest: all N), and
* the number of tree round-trips (SIES: 1; commit-and-attest: 3).

Run: ``python -m repro.experiments.extension_scalability``
"""

from __future__ import annotations

from repro.baselines.commit_attest import CommitAttestProtocol, CommitAttestSimulation
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import DomainScaledWorkload
from repro.errors import SimulationError
from repro.experiments.reporting import ExperimentReport, format_bytes, render_report
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree

__all__ = ["run", "main", "DEFAULT_SOURCE_COUNTS"]

DEFAULT_SOURCE_COUNTS = (64, 256, 1024, 4096)


def run(
    *,
    source_counts: tuple[int, ...] = DEFAULT_SOURCE_COUNTS,
    fanout: int = 4,
    scale: int = 100,
    seed: int = 2011,
) -> ExperimentReport:
    """Compare SIES vs commit-and-attest traffic across N."""
    report = ExperimentReport(
        experiment_id="Extension",
        title="SIES vs commit-and-attest: per-epoch communication at scale",
        parameters={"F": fanout, "D scale": scale},
        columns=[
            "N",
            "SIES max edge",
            "C&A max edge",
            "SIES total",
            "C&A total",
            "sensors verifying (SIES / C&A)",
        ],
    )
    series: dict[str, list[float]] = {
        "sies_max_edge": [], "ca_max_edge": [],
        "sies_total": [], "ca_total": [],
    }
    for n in source_counts:
        tree = build_complete_tree(n, fanout)
        workload = DomainScaledWorkload(n, scale=scale, seed=seed)
        values = [workload(i, 1) for i in range(n)]

        # SIES: one 32-byte PSR per edge per epoch.
        sies = SIESProtocol(n, seed=seed)
        metrics = NetworkSimulator(
            sies, tree, workload, SimulationConfig(num_epochs=1)
        ).run()
        if not metrics.all_verified():
            raise SimulationError(f"honest SIES run failed verification at N={n}")
        sies_total = metrics.traffic.total("payload_bytes")
        sies_max_edge = sies.psr_bytes  # constant per edge by construction

        # Commit-and-attest: three phases, paths down the tree.
        ca = CommitAttestProtocol(n, seed=seed)
        ca_report = CommitAttestSimulation(ca, tree).run_epoch(1, values)
        if not ca_report.verified or ca_report.result != sum(values):
            raise SimulationError(f"commit-and-attest run failed verification at N={n}")

        report.add_row(
            str(n),
            format_bytes(sies_max_edge),
            format_bytes(ca_report.max_edge_attest_bytes),
            format_bytes(sies_total),
            format_bytes(ca_report.total_bytes()),
            f"0 / {ca_report.sensors_verifying}",
        )
        series["sies_max_edge"].append(float(sies_max_edge))
        series["ca_max_edge"].append(float(ca_report.max_edge_attest_bytes))
        series["sies_total"].append(float(sies_total))
        series["ca_total"].append(float(ca_report.total_bytes()))

    report.add_note(
        "commit-and-attest needs 3 tree round-trips per epoch and every "
        "sensor's participation; SIES needs 1 and none (Section II-B)"
    )
    report.data = {"source_counts": list(source_counts), "series": series}
    return report


def main() -> None:
    """Print the regenerated report (and chart, for figures)."""
    print(render_report(run()))


if __name__ == "__main__":
    main()
