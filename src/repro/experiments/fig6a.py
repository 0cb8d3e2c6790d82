"""Figure 6(a) — computational cost at the querier vs. the number of sources.

Series (paper: F=4, D=[1800,5000], N ∈ {64, 256, 1024, 4096, 16384}):
measured evaluation time for SIES, CMT and SECOA_S on valid final PSRs,
plus Section V models at host constants.  Expected shape: all linear in
N; SIES more than an order of magnitude below SECOA_S; SIES within the
same order as CMT (the gap being the share verification CMT lacks).

SECOA_S's evaluation is expensive at large N even for the *real*
querier (J·N HMACs plus J·N modular multiplications), so the largest
point takes on the order of a minute in pure Python; ``secoa_epochs``
and ``max_secoa_sources`` bound the work for quick runs.
"""

from __future__ import annotations

from repro.baselines.cmt import CMTProtocol
from repro.baselines.secoa.secoa_sum import SECOASumProtocol
from repro.core.protocol import SIESProtocol
from repro.costmodel.microbench import measure_constants
from repro.costmodel.models import cmt_costs, secoas_cost_bounds, sies_costs
from repro.costmodel.tables import DEFAULTS
from repro.datasets.workload import domain_for_scale
from repro.experiments.common import measure_querier_cost, paper_workload
from repro.experiments.reporting import ExperimentReport, format_seconds, render_report

__all__ = ["run", "main", "PAPER_SOURCE_COUNTS"]

PAPER_SOURCE_COUNTS = (64, 256, 1024, 4096, 16384)


def run(
    *,
    source_counts: tuple[int, ...] = PAPER_SOURCE_COUNTS,
    num_sketches: int = DEFAULTS["num_sketches"],
    scale: int = 100,
    fast_epochs: int = 5,
    secoa_epochs: int = 1,
    max_secoa_sources: int | None = None,
    seed: int = 2011,
) -> ExperimentReport:
    """Regenerate Fig. 6(a)'s series: querier CPU across the N sweep."""
    host = measure_constants()
    domain = domain_for_scale(scale)

    report = ExperimentReport(
        experiment_id="Fig. 6(a)",
        title="Computational cost at the querier vs. the number of sources",
        parameters={"F": DEFAULTS["fanout"], "D": list(domain), "J": num_sketches},
        columns=[
            "N",
            "SIES meas",
            "CMT meas",
            "SECOA meas",
            "SIES model",
            "SECOA model min-max (host)",
        ],
    )
    series: dict[str, list[float | None]] = {
        "sies": [], "cmt": [], "secoa": [],
        "sies_model": [], "cmt_model": [], "secoa_model_min": [], "secoa_model_max": [],
    }
    for n in source_counts:
        workload = paper_workload(n, scale, seed=seed)
        sies = measure_querier_cost(
            SIESProtocol(n, seed=seed), workload,
            epochs=list(range(1, fast_epochs + 1)), warmup=True,
        )
        cmt = measure_querier_cost(
            CMTProtocol(n, seed=seed), workload,
            epochs=list(range(1, fast_epochs + 1)), warmup=True,
        )
        secoa_seconds: float | None = None
        if max_secoa_sources is None or n <= max_secoa_sources:
            secoa = measure_querier_cost(
                SECOASumProtocol(n, num_sketches=num_sketches, seed=seed),
                workload,
                epochs=list(range(1, secoa_epochs + 1)),
            )
            secoa_seconds = secoa.mean_seconds
        sies_model = sies_costs(host, num_sources=n, fanout=4).querier
        cmt_model = cmt_costs(host, num_sources=n, fanout=4).querier
        lo, hi = secoas_cost_bounds(
            host, num_sources=n, fanout=4, num_sketches=num_sketches, domain=domain
        )
        report.add_row(
            str(n),
            format_seconds(sies.mean_seconds),
            format_seconds(cmt.mean_seconds),
            format_seconds(secoa_seconds) if secoa_seconds is not None else "-",
            format_seconds(sies_model),
            f"{format_seconds(lo.querier)} - {format_seconds(hi.querier)}",
        )
        series["sies"].append(sies.mean_seconds)
        series["cmt"].append(cmt.mean_seconds)
        series["secoa"].append(secoa_seconds)
        series["sies_model"].append(sies_model)
        series["cmt_model"].append(cmt_model)
        series["secoa_model_min"].append(lo.querier)
        series["secoa_model_max"].append(hi.querier)

    report.data = {"source_counts": list(source_counts), "series": series, "host_constants": host}
    return report


def main() -> None:
    """Print the regenerated report (and chart, for figures)."""
    from repro.experiments.plotting import ascii_chart

    report = run()
    print(render_report(report))
    series = report.data["series"]
    print()
    print(ascii_chart(
        [str(n) for n in report.data["source_counts"]],
        {"SIES": series["sies"], "CMT": series["cmt"], "SECOA": series["secoa"]},
        title="Fig. 6(a) — CPU at the querier vs. N (log s)",
    ))


if __name__ == "__main__":
    main()
