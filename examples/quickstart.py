#!/usr/bin/env python3
"""Quickstart: a secure exact SUM over a simulated sensor network.

Builds a 64-source aggregation tree, runs SIES for 10 epochs over a
synthetic Intel-Lab-style temperature workload, and prints the verified
SUM per epoch together with the plaintext ground truth — demonstrating
that the querier recovers the *exact* sum from 32-byte encrypted PSRs
and that verification passes on an honest network.

Run:  python examples/quickstart.py
"""

from repro import NetworkSimulator, SIESProtocol, SimulationConfig, build_complete_tree
from repro.datasets import DomainScaledWorkload
from repro.network.channel import EdgeClass

NUM_SOURCES = 64
FANOUT = 4
EPOCHS = 10


def main() -> None:
    # Setup phase: the querier generates keys and the public prime p.
    protocol = SIESProtocol(num_sources=NUM_SOURCES, seed=42)
    print(f"SIES setup: N={NUM_SOURCES}, p is a {protocol.p.bit_length()}-bit prime, "
          f"every PSR is {protocol.psr_bytes} bytes\n")

    tree = build_complete_tree(NUM_SOURCES, FANOUT)
    workload = DomainScaledWorkload(NUM_SOURCES, scale=100, seed=42)  # D = [1800, 5000]
    simulator = NetworkSimulator(
        protocol, tree, workload, SimulationConfig(num_epochs=EPOCHS)
    )
    metrics = simulator.run()

    print(f"{'epoch':>5} | {'verified':>8} | {'SUM (scaled)':>12} | {'SUM (degC)':>10} | ground truth")
    for em in metrics.epochs:
        assert em.result is not None
        truth = sum(workload(s, em.epoch) for s in range(NUM_SOURCES))
        status = "OK" if em.result.value == truth else "MISMATCH"
        print(
            f"{em.epoch:>5} | {str(em.result.verified):>8} | {em.result.value:>12} | "
            f"{em.result.value / 100:>10.2f} | {truth} ({status})"
        )

    print("\nPer-role CPU time: python -m repro.cli experiment fig4 | fig5 | fig6a")
    print("Traffic per message:")
    for edge in EdgeClass:
        print(f"  bytes per {edge.value} message : {metrics.traffic.per_message('payload_bytes', edge):.0f}")
    assert metrics.all_verified(), "an honest network must always verify"


if __name__ == "__main__":
    main()
