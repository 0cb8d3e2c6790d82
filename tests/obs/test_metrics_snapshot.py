"""``repro metrics`` end to end: the Prometheus text of one seeded run.

The golden files next to this module hold the output of::

    repro metrics --substrate S --seed 2011 --sources 8 --fanout 2 \
        --epochs 3 --loss 0.2

captured while each substrate still had its own run type and its own
publisher; the one run record and the one publisher must reproduce them.
The analytic and runtime outputs are seed-determined, so they are
compared byte for byte.  The cluster's latencies are real seconds and
its attempt counts can grow under slow ACKs, so it is compared on its
metric families and its seed-determined series.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

HERE = Path(__file__).parent
ARGS = ["--seed", "2011", "--sources", "8", "--fanout", "2", "--epochs", "3", "--loss", "0.2"]

#: Cluster series that depend on the seed alone.
_CLUSTER_DETERMINED = (
    "sies_epochs_",
    "sies_delivery_rate",
    "sies_transport_delivered_total",
)


def _metrics_text(substrate: str, capsys) -> str:
    assert main(["metrics", "--substrate", substrate, *ARGS]) == 0
    return capsys.readouterr().out


def _golden(substrate: str) -> str:
    return (HERE / f"metrics_{substrate}.prom").read_text(encoding="utf-8")


@pytest.mark.parametrize("substrate", ["network", "runtime"])
def test_prometheus_text_matches_the_snapshot(substrate: str, capsys) -> None:
    assert _metrics_text(substrate, capsys) == _golden(substrate)


@pytest.mark.cluster
def test_cluster_publishes_the_snapshot_families_and_determined_series(capsys) -> None:
    def families(text: str) -> list[str]:
        return [line for line in text.splitlines() if line.startswith("# TYPE ")]

    def determined(text: str) -> list[str]:
        return [line for line in text.splitlines() if line.startswith(_CLUSTER_DETERMINED)]

    text, golden = _metrics_text("cluster", capsys), _golden("cluster")
    assert families(text) == families(golden)
    assert determined(golden)
    assert determined(text) == determined(golden)
