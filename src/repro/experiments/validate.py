"""Programmatic reproduction validation: the paper's claims as checks.

``python -m repro.experiments.validate [--quick]`` runs the figure
drivers and evaluates every *shape claim* the reproduction stands on —
the same claims EXPERIMENTS.md narrates — printing PASS/FAIL per claim
and exiting non-zero on any failure.  This is the one command a referee
runs to confirm the reproduction holds on their machine.

Claims (Section VI of the paper):

* C1  SIES/CMT source cost flat in the domain; SECOA_S grows with it.
* C2  SIES source cost orders of magnitude below SECOA_S's model floor.
* C3  Aggregator costs grow with fanout; SIES stays in the μs regime.
* C4  Querier costs linear in N for every scheme.
* C5  SIES querier measurements match its own cost model closely: the
      median ratio of each evaluation to the model priced in its round.
* C6  SIES ≈ CMT within a small constant factor everywhere.
* C7  Communication: 20 B (CMT) / 32 B (SIES) constants vs SECOA_S KBs,
      with the sink's A-Q size inside the Eq. 11 envelope.
* C8  Security: tampering/replay detected by SIES, silent against CMT.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from repro.attacks import AdditiveTamperAttack, ReplayAttack, run_attack_scenario
from repro.baselines.cmt import CMTProtocol
from repro.core.protocol import SIESProtocol
from repro.datasets.workload import UniformWorkload
from repro.experiments import fig4, fig5, fig6a, table5

__all__ = ["Claim", "validate", "main"]


@dataclass
class Claim:
    """One verified reproduction claim."""

    claim_id: str
    description: str
    passed: bool
    evidence: str


def _ratio(a: float, b: float) -> float:
    return a / b if b else float("inf")


def validate(*, quick: bool = True) -> list[Claim]:
    """Run the drivers and evaluate claims C1-C8."""
    j = 40 if quick else 300
    fig4_report = fig4.run(
        scales=(1, 100) if quick else fig4.PAPER_SCALES,
        num_sketches=j, fast_epochs=5, fast_sources=2, secoa_epochs=1,
    )
    fig5_report = fig5.run(
        fanouts=(2, 6) if quick else fig5.PAPER_FANOUTS,
        num_sketches=j, fast_epochs=10, secoa_epochs=1,
    )
    fig6a_report = fig6a.run(
        source_counts=(64, 256) if quick else fig6a.PAPER_SOURCE_COUNTS,
        num_sketches=j, fast_epochs=3, secoa_epochs=1,
    )
    table5_report = table5.run(
        num_sources=256 if quick else 1024,
        num_sketches=j, epochs=3 if quick else 20,
    )

    claims: list[Claim] = []
    s4 = fig4_report.data["series"]
    claims.append(Claim(
        "C1", "SIES flat in D, SECOA_S model grows with D",
        max(s4["sies"]) < 5 * min(s4["sies"])
        and s4["secoa_model_min"][-1] > 5 * s4["secoa_model_min"][0],
        f"SIES spread {_ratio(max(s4['sies']), min(s4['sies'])):.1f}x; "
        f"SECOA floor grows {_ratio(s4['secoa_model_min'][-1], s4['secoa_model_min'][0]):.0f}x",
    ))
    gap4 = _ratio(s4["secoa_model_min"][-1], max(s4["sies"]))
    claims.append(Claim(
        "C2", "SIES source far below SECOA_S's best case",
        gap4 > (100 if not quick else 10),
        f"gap {gap4:.0f}x at the largest domain (J={j})",
    ))
    s5 = fig5_report.data["series"]
    claims.append(Claim(
        "C3", "aggregator cost grows with F; SIES in the microseconds",
        s5["secoa"][-1] > 1.5 * s5["secoa"][0] and max(s5["sies"]) < 100e-6,
        f"SECOA F-growth {_ratio(s5['secoa'][-1], s5['secoa'][0]):.1f}x; "
        f"SIES max {max(s5['sies']) * 1e6:.1f} us",
    ))
    s6 = fig6a_report.data["series"]
    n_growth = _ratio(s6["sies"][-1], s6["sies"][0])
    counts = fig6a_report.data["source_counts"]
    expected_growth = counts[-1] / counts[0]
    claims.append(Claim(
        "C4", "querier cost linear in N",
        0.3 * expected_growth < n_growth < 3 * expected_growth,
        f"N grew {expected_growth:.0f}x, SIES querier grew {n_growth:.1f}x",
    ))
    model_errors = [abs(ratio - 1) for ratio in s6["sies_model_ratio"]]
    claims.append(Claim(
        "C5", "SIES querier matches its cost model",
        max(model_errors) < 0.5,
        f"max measured-vs-model deviation {max(model_errors) * 100:.1f}%",
    ))
    cmt_gap = max(
        _ratio(a, b) for a, b in zip(s6["sies"], s6["cmt"])
    )
    claims.append(Claim(
        "C6", "SIES within a small factor of CMT",
        cmt_gap < 10,
        f"largest SIES/CMT querier ratio {cmt_gap:.1f}x",
    ))
    edges = table5_report.data["edges"]
    claims.append(Claim(
        "C7", "communication constants and envelope",
        edges["S-A"]["sies"] == 32
        and edges["S-A"]["cmt"] == 20
        and edges["S-A"]["secoa_actual"] > 50 * 32
        and edges["A-Q"]["secoa_min"]
        <= edges["A-Q"]["secoa_actual"]
        <= edges["A-Q"]["secoa_max"],
        f"S-A: 20/{edges['S-A']['secoa_actual']:.0f}/32 B; "
        f"A-Q actual {edges['A-Q']['secoa_actual']:.0f} B within "
        f"[{edges['A-Q']['secoa_min']:.0f}, {edges['A-Q']['secoa_max']:.0f}]",
    ))

    n = 16
    workload = UniformWorkload(n, 10, 500, seed=99)
    sies = SIESProtocol(n, seed=99)
    tamper_sies = run_attack_scenario(
        sies, AdditiveTamperAttack(delta=777, modulus=sies.p), workload, num_epochs=3
    )
    cmt = CMTProtocol(n, seed=99)
    tamper_cmt = run_attack_scenario(
        cmt, AdditiveTamperAttack(delta=777, modulus=cmt.n), workload, num_epochs=3
    )
    replay = run_attack_scenario(
        SIESProtocol(n, seed=98), ReplayAttack(capture_epoch=1), workload, num_epochs=3
    )
    claims.append(Claim(
        "C8", "tampering/replay detected by SIES, silent against CMT",
        tamper_sies.attack_always_detected
        and replay.attack_always_detected
        and tamper_cmt.attack_succeeded_silently
        and not tamper_sies.false_positive_epochs,
        f"SIES: {len(tamper_sies.detected_epochs)}+{len(replay.detected_epochs)} detections, "
        f"0 false positives; CMT: {len(tamper_cmt.undetected_epochs)} silent corruptions",
    ))
    return claims


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", default=True)
    parser.add_argument("--full", dest="quick", action="store_false",
                        help="paper-scale parameters (minutes)")
    args = parser.parse_args(argv)

    claims = validate(quick=args.quick)
    width = max(len(c.description) for c in claims)
    failures = 0
    for claim in claims:
        status = "PASS" if claim.passed else "FAIL"
        failures += not claim.passed
        print(f"[{status}] {claim.claim_id}  {claim.description.ljust(width)}  ({claim.evidence})")
    print(f"\n{len(claims) - failures}/{len(claims)} reproduction claims hold"
          + (" — reproduction VALID" if not failures else " — INVESTIGATE FAILURES"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
