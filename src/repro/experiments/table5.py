"""Table V — communication cost per network edge.

Three columns per scheme, as in the paper: the *actual* per-message
bytes from an execution, and the model's min/max (Eqs. 10–11).

* SIES and CMT actuals come from a full 20-epoch network simulation at
  the default parameters (cheap: constant 32/20-byte PSRs).
* SECOA_S's S–A and A–A actuals equal the model identically (always
  ``J`` SEALs per internal message); its A–Q actual depends on the
  number of distinct SEAL positions at the sink, which we obtain from
  the algebraically-synthesized final PSR per epoch (identical to the
  network's, see :mod:`repro.experiments.common`).

Alongside each analytic figure the report now carries the **measured**
frame bytes — ``len(codec.encode(psr))`` from the wire layer the
simulations actually transmit.  For SIES and CMT the measurement must
equal the analytic size plus the fixed frame header exactly (the run
raises otherwise); SECOA_S frames additionally carry the audited codec
overhead (winner ids, SEAL positions, per-sketch MACs on internal
edges) the paper's model does not count — see ``docs/wire_format.md``.
"""

from __future__ import annotations

from repro.baselines.secoa.secoa_sum import SECOASumProtocol
from repro.costmodel.models import secoas_comm, secoas_comm_bounds, sies_comm, cmt_comm
from repro.costmodel.tables import DEFAULTS
from repro.datasets.workload import domain_for_scale
from repro.errors import SimulationError
from repro.experiments.common import build_final_psr, paper_workload
from repro.experiments.paper_data import TABLE5_REPORTED_BYTES
from repro.experiments.reporting import ExperimentReport, format_bytes, render_report
from repro.network.channel import EdgeClass
from repro.wire.frame import HEADER_LEN
from repro.network.simulator import NetworkSimulator, SimulationConfig
from repro.network.topology import build_complete_tree
from repro.protocols.registry import create_protocol

__all__ = ["run", "main"]


def run(
    *,
    num_sources: int = DEFAULTS["num_sources"],
    fanout: int = DEFAULTS["fanout"],
    scale: int = 100,
    num_sketches: int = DEFAULTS["num_sketches"],
    epochs: int = 20,
    seed: int = 2011,
) -> ExperimentReport:
    """Regenerate Table V: analytic bounds + actual per-edge bytes."""
    domain = domain_for_scale(scale)
    workload = paper_workload(num_sources, scale, seed=seed)
    tree = build_complete_tree(num_sources, fanout)

    # --- SIES / CMT actuals from full simulations ----------------------
    actuals: dict[str, dict[EdgeClass, float]] = {}
    frame_actuals: dict[str, dict[EdgeClass, float]] = {}
    for name in ("sies", "cmt"):
        protocol = create_protocol(name, num_sources, seed=seed)
        simulator = NetworkSimulator(
            protocol, tree, workload, SimulationConfig(num_epochs=epochs)
        )
        metrics = simulator.run()
        if not metrics.all_verified() and name != "cmt":
            raise SimulationError(f"honest {name} run failed verification")
        actuals[name] = {
            edge: metrics.traffic.per_message("payload_bytes", edge) for edge in EdgeClass
        }
        frame_actuals[name] = {
            edge: metrics.traffic.per_message("frame_bytes", edge) for edge in EdgeClass
        }
        # Measured-vs-analytic agreement: SIES/CMT codecs add exactly
        # the frame header, nothing else.
        for edge in EdgeClass:
            if frame_actuals[name][edge] != actuals[name][edge] + HEADER_LEN:
                raise SimulationError(
                    f"{name} {edge.value}: measured frame bytes "
                    f"{frame_actuals[name][edge]} != analytic "
                    f"{actuals[name][edge]} + {HEADER_LEN}-byte header"
                )

    # --- SECOA_S actual A-Q bytes from synthesized final PSRs ----------
    secoa = SECOASumProtocol(num_sources, num_sketches=num_sketches, seed=seed)
    secoa_codec = secoa.wire_codec()
    internal_bytes = secoas_comm(num_sketches, num_sketches).source_to_aggregator
    final_sizes = []
    final_frame_sizes = []
    internal_frame_sizes = []
    seals_counts = []
    for epoch in range(1, epochs + 1):
        values = [workload(i, epoch) for i in range(num_sources)]
        final = build_final_psr(secoa, epoch, values)
        final_sizes.append(final.wire_size())
        final_frame_sizes.append(len(secoa_codec.encode(final)))
        seals_counts.append(len(final.seals))
        # One representative leaf PSR measures the internal-edge frame
        # (every internal SECOA_S message carries J SEALs + J MACs).
        leaf = secoa.create_source(0).initialize(epoch, values[0])
        internal_frame_sizes.append(len(secoa_codec.encode(leaf)))
    secoa_actual = {
        EdgeClass.SOURCE_TO_AGGREGATOR: float(internal_bytes),
        EdgeClass.AGGREGATOR_TO_AGGREGATOR: float(internal_bytes),
        EdgeClass.AGGREGATOR_TO_QUERIER: sum(final_sizes) / len(final_sizes),
    }
    internal_frame_mean = sum(internal_frame_sizes) / len(internal_frame_sizes)
    secoa_frame_actual = {
        EdgeClass.SOURCE_TO_AGGREGATOR: internal_frame_mean,
        EdgeClass.AGGREGATOR_TO_AGGREGATOR: internal_frame_mean,
        EdgeClass.AGGREGATOR_TO_QUERIER: sum(final_frame_sizes) / len(final_frame_sizes),
    }
    secoa_lo, secoa_hi = secoas_comm_bounds(num_sources, domain[1], num_sketches)

    # --- Assemble the table ---------------------------------------------
    report = ExperimentReport(
        experiment_id="Table V",
        title="Communication cost per network edge",
        parameters={
            "N": num_sources,
            "F": fanout,
            "D": list(domain),
            "J": num_sketches,
            "epochs": epochs,
        },
        columns=["edge", "CMT", "SECOA_S actual/min/max", "SIES", "paper (SECOA actual)"],
    )
    model_edges = {
        EdgeClass.SOURCE_TO_AGGREGATOR: ("S-A", "source_to_aggregator"),
        EdgeClass.AGGREGATOR_TO_AGGREGATOR: ("A-A", "aggregator_to_aggregator"),
        EdgeClass.AGGREGATOR_TO_QUERIER: ("A-Q", "aggregator_to_querier"),
    }
    data_edges: dict[str, dict[str, float]] = {}
    for edge, (label, attr) in model_edges.items():
        secoa_cell = (
            f"{format_bytes(secoa_actual[edge])} / "
            f"{format_bytes(getattr(secoa_lo, attr))} / "
            f"{format_bytes(getattr(secoa_hi, attr))}"
        )
        report.add_row(
            label,
            format_bytes(actuals["cmt"][edge]),
            secoa_cell,
            format_bytes(actuals["sies"][edge]),
            format_bytes(TABLE5_REPORTED_BYTES[label]["secoa_actual"]),
        )
        data_edges[label] = {
            "cmt": actuals["cmt"][edge],
            "sies": actuals["sies"][edge],
            "secoa_actual": secoa_actual[edge],
            "secoa_min": float(getattr(secoa_lo, attr)),
            "secoa_max": float(getattr(secoa_hi, attr)),
            # Measured len(frame) from the wire codecs (header included).
            "cmt_frame": frame_actuals["cmt"][edge],
            "sies_frame": frame_actuals["sies"][edge],
            "secoa_frame": secoa_frame_actual[edge],
        }
    report.add_note(
        f"measured frames = analytic + {HEADER_LEN}-byte header for SIES/CMT "
        "(cross-checked); SECOA_S frames add the audited codec overhead "
        "(winner ids, SEAL positions, internal per-sketch MACs)"
    )
    report.add_note(
        f"SECOA_S sink emitted {min(seals_counts)}-{max(seals_counts)} distinct-position "
        f"SEALs per epoch (mean {sum(seals_counts)/len(seals_counts):.1f})"
    )
    report.add_note(
        "the paper's Table V A-Q maximum (6.7 KB) exceeds its own Eq. 11 bound; "
        "our max matches Table III's 3.25 KB figure (see paper_data)"
    )
    report.data = {
        "edges": data_edges,
        "seals_counts": seals_counts,
        "cmt_model": cmt_comm(),
        "sies_model": sies_comm(),
    }
    return report


def main() -> None:
    """Print the regenerated report (and chart, for figures)."""
    print(render_report(run()))


if __name__ == "__main__":
    main()
