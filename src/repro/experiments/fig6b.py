"""Figure 6(b) — computational cost at the querier vs. the domain.

Series (paper: N=1024, F=4, D = [18,50] × {1 … 10⁴}): measured querier
time for SIES, CMT and SECOA_S.  Expected shape: SIES and CMT exactly
flat in D; SECOA_S practically flat too (its querier is dominated by
the J·N seed HMACs and folding multiplications, not the domain-
dependent rolling), sitting more than an order of magnitude above SIES.
"""

from __future__ import annotations

from repro.baselines.cmt import CMTProtocol
from repro.baselines.secoa.secoa_sum import SECOASumProtocol
from repro.core.protocol import SIESProtocol
from repro.costmodel.microbench import measure_constants
from repro.costmodel.models import secoas_cost_bounds, sies_costs
from repro.costmodel.tables import DEFAULTS
from repro.datasets.workload import domain_for_scale
from repro.experiments.common import measure_querier_cost, paper_workload
from repro.experiments.reporting import ExperimentReport, format_seconds, render_report

__all__ = ["run", "main", "PAPER_SCALES"]

PAPER_SCALES = (1, 10, 100, 1000, 10000)


def run(
    *,
    scales: tuple[int, ...] = PAPER_SCALES,
    num_sources: int = DEFAULTS["num_sources"],
    num_sketches: int = DEFAULTS["num_sketches"],
    fast_epochs: int = 5,
    secoa_epochs: int = 1,
    seed: int = 2011,
) -> ExperimentReport:
    """Regenerate Fig. 6(b)'s series: querier CPU across the domain sweep."""
    host = measure_constants()
    report = ExperimentReport(
        experiment_id="Fig. 6(b)",
        title="Computational cost at the querier vs. the domain",
        parameters={"N": num_sources, "F": DEFAULTS["fanout"], "J": num_sketches},
        columns=[
            "domain",
            "SIES meas",
            "CMT meas",
            "SECOA meas",
            "SECOA model min-max (host)",
        ],
    )
    series: dict[str, list[float]] = {
        "sies": [], "cmt": [], "secoa": [], "secoa_model_min": [], "secoa_model_max": [],
    }
    for scale in scales:
        domain = domain_for_scale(scale)
        workload = paper_workload(num_sources, scale, seed=seed)
        sies = measure_querier_cost(
            SIESProtocol(num_sources, seed=seed),
            workload, epochs=list(range(1, fast_epochs + 1)), warmup=True,
        )
        cmt = measure_querier_cost(
            CMTProtocol(num_sources, seed=seed),
            workload, epochs=list(range(1, fast_epochs + 1)), warmup=True,
        )
        secoa = measure_querier_cost(
            SECOASumProtocol(num_sources, num_sketches=num_sketches, seed=seed),
            workload, epochs=list(range(1, secoa_epochs + 1)),
        )
        lo, hi = secoas_cost_bounds(
            host, num_sources=num_sources, fanout=4,
            num_sketches=num_sketches, domain=domain,
        )
        report.add_row(
            f"x{scale}",
            format_seconds(sies.mean_seconds),
            format_seconds(cmt.mean_seconds),
            format_seconds(secoa.mean_seconds),
            f"{format_seconds(lo.querier)} - {format_seconds(hi.querier)}",
        )
        series["sies"].append(sies.mean_seconds)
        series["cmt"].append(cmt.mean_seconds)
        series["secoa"].append(secoa.mean_seconds)
        series["secoa_model_min"].append(lo.querier)
        series["secoa_model_max"].append(hi.querier)

    report.add_note(
        f"SIES model @ host constants: "
        f"{format_seconds(sies_costs(host, num_sources=num_sources, fanout=4).querier)}"
    )
    report.data = {"scales": list(scales), "series": series, "host_constants": host}
    return report


def main() -> None:
    """Print the regenerated report (and chart, for figures)."""
    from repro.experiments.plotting import ascii_chart

    report = run()
    print(render_report(report))
    series = report.data["series"]
    print()
    print(ascii_chart(
        [f"x{s}" for s in report.data["scales"]],
        {"SIES": series["sies"], "CMT": series["cmt"], "SECOA": series["secoa"]},
        title="Fig. 6(b) — CPU at the querier vs. domain (log s)",
    ))


if __name__ == "__main__":
    main()
