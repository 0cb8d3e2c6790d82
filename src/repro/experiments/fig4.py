"""Figure 4 — computational cost at the source vs. the domain.

Series (paper: N=1024, F=4, D = [18,50] × {1, 10, 10², 10³, 10⁴}):

* SIES and CMT measured — flat in D (a couple of HMACs + modular ops),
  every domain point of both timed in shared rounds and reported as
  medians (:func:`~repro.experiments.common.measure_sources_paired`): a
  mean of a few ~10 µs calls, each point timed seconds apart from the
  others, swings by 2x or more on a shared host;
* SECOA_S measured — with the ``PER_ITEM`` reference strategy wherever
  the insertion count ``J·v`` is tractable, and with ``CLOSED_FORM``
  everywhere (which times the HMAC/RSA part exactly and replaces the
  ``J·v`` insertions by statistically identical draws);
* SECOA_S model min/max at host constants — the error bars of the
  paper's figure, and the honest account of the ``J·v·C_sk`` term on
  the fast path (C_sk measured on the per-item reference).

The paper's qualitative claims this must reproduce: SIES ≈ CMT (within
a small constant), SIES two-plus orders of magnitude below SECOA_S, and
SECOA_S growing roughly linearly in the domain while SIES/CMT stay flat.
"""

from __future__ import annotations

from repro.baselines.secoa.secoa_sum import SECOASumProtocol
from repro.baselines.secoa.sketch import SketchStrategy
from repro.core.protocol import SIESProtocol
from repro.baselines.cmt import CMTProtocol
from repro.costmodel.constants import PAPER_CONSTANTS
from repro.costmodel.microbench import measure_constants
from repro.costmodel.models import secoas_cost_bounds, sies_costs, cmt_costs
from repro.costmodel.tables import DEFAULTS
from repro.datasets.workload import domain_for_scale
from repro.experiments.common import (
    measure_source_cost,
    measure_sources_paired,
    paper_workload,
)
from repro.experiments.reporting import ExperimentReport, format_seconds, render_report

__all__ = ["run", "main", "PAPER_SCALES"]

PAPER_SCALES = (1, 10, 100, 1000, 10000)
#: Fewest shared rounds timing the SIES and CMT sources.
PAIRED_ROUNDS = 15

#: Largest J*v insertion count we time with the literal per-item path.
PER_ITEM_WORK_LIMIT = 2_000_000


def run(
    *,
    scales: tuple[int, ...] = PAPER_SCALES,
    num_sources: int = DEFAULTS["num_sources"],
    num_sketches: int = DEFAULTS["num_sketches"],
    fast_epochs: int = 10,
    fast_sources: int = 5,
    secoa_epochs: int = 2,
    seed: int = 2011,
) -> ExperimentReport:
    """Regenerate Fig. 4's series: source CPU across the domain sweep."""
    host = measure_constants()
    report = ExperimentReport(
        experiment_id="Fig. 4",
        title="Computational cost at the source vs. the domain",
        parameters={"N": num_sources, "F": DEFAULTS["fanout"], "J": num_sketches},
        columns=[
            "domain",
            "SIES meas",
            "CMT meas",
            "SECOA meas (closed-form)",
            "SECOA meas (per-item)",
            "SECOA model min-max (host)",
        ],
    )
    series: dict[str, list[float | None]] = {
        "sies": [], "cmt": [], "secoa_cf": [], "secoa_pi": [],
        "secoa_model_min": [], "secoa_model_max": [],
        "secoa_model_min_paper": [], "secoa_model_max_paper": [],
    }

    workloads = [paper_workload(num_sources, scale, seed=seed) for scale in scales]
    paired = measure_sources_paired(
        [(SIESProtocol(num_sources, seed=seed), workload) for workload in workloads]
        + [(CMTProtocol(num_sources, seed=seed), workload) for workload in workloads],
        epochs=range(1, fast_epochs + 1),
        source_ids=range(fast_sources),
        rounds=max(PAIRED_ROUNDS, fast_epochs * fast_sources),
    )
    k = len(scales)
    for scale, workload, sies, cmt in zip(scales, workloads, paired[:k], paired[k:]):
        domain = domain_for_scale(scale)
        secoa_cf = measure_source_cost(
            SECOASumProtocol(
                num_sources, num_sketches=num_sketches, seed=seed,
                strategy=SketchStrategy.CLOSED_FORM,
            ),
            workload, epochs=list(range(1, secoa_epochs + 1)), source_ids=(0,),
        )
        per_item_work = num_sketches * domain[1]
        secoa_pi = None
        if per_item_work <= PER_ITEM_WORK_LIMIT:
            secoa_pi = measure_source_cost(
                SECOASumProtocol(
                    num_sources, num_sketches=num_sketches, seed=seed,
                    strategy=SketchStrategy.PER_ITEM,
                ),
                workload, epochs=[1], source_ids=(0,),
            )
        lo, hi = secoas_cost_bounds(
            host, num_sources=num_sources, fanout=DEFAULTS["fanout"],
            num_sketches=num_sketches, domain=domain,
        )
        lo_paper, hi_paper = secoas_cost_bounds(
            PAPER_CONSTANTS, num_sources=num_sources, fanout=DEFAULTS["fanout"],
            num_sketches=num_sketches, domain=domain,
        )

        report.add_row(
            f"x{scale}",
            format_seconds(sies),
            format_seconds(cmt),
            format_seconds(secoa_cf.mean_seconds),
            format_seconds(secoa_pi.mean_seconds) if secoa_pi else "-",
            f"{format_seconds(lo.source)} - {format_seconds(hi.source)}",
        )
        series["sies"].append(sies)
        series["cmt"].append(cmt)
        series["secoa_cf"].append(secoa_cf.mean_seconds)
        series["secoa_pi"].append(secoa_pi.mean_seconds if secoa_pi else None)
        series["secoa_model_min"].append(lo.source)
        series["secoa_model_max"].append(hi.source)
        series["secoa_model_min_paper"].append(lo_paper.source)
        series["secoa_model_max_paper"].append(hi_paper.source)

    report.add_note(
        "closed-form SECOA timings exclude the J*v sketch insertions "
        "(intractable per-item above the work limit); the model columns "
        "price them at the host's measured per-item C_sk"
    )
    report.add_note(
        f"SIES/CMT model @ host constants: "
        f"{format_seconds(sies_costs(host, num_sources=num_sources, fanout=4).source)} / "
        f"{format_seconds(cmt_costs(host, num_sources=num_sources, fanout=4).source)}"
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
        {
            "SIES": series["sies"],
            "CMT": series["cmt"],
            "SECOA per-item": series["secoa_pi"],
            "SECOA model max": series["secoa_model_max"],
        },
        title="Fig. 4 — CPU at the source vs. domain (log s)",
    ))


if __name__ == "__main__":
    main()
