"""Time parameters must be finite numbers.

A comparison with NaN is always false, so a bare ``<= 0`` check lets
NaN through: an ACK timeout of NaN lost every epoch of a run, and a
NaN hold time lost epochs on the cluster, both without an error.
Every time knob refuses NaN and infinity with its class's error type.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster.orchestrator import ClusterConfig
from repro.errors import ParameterError, SimulationError
from repro.runtime.events import EventScheduler
from repro.runtime.faults import LinkProfile
from repro.runtime.simulator import RuntimeConfig
from repro.runtime.transport import RetransmitPolicy

TIME_FIELDS = [
    (RetransmitPolicy, "ack_timeout", ParameterError),
    (RetransmitPolicy, "backoff", ParameterError),
    (RetransmitPolicy, "jitter", ParameterError),
    (LinkProfile, "latency", ParameterError),
    (LinkProfile, "jitter", ParameterError),
    (RuntimeConfig, "epoch_interval", SimulationError),
    (RuntimeConfig, "hold_time", SimulationError),
    (RuntimeConfig, "querier_slack", SimulationError),
    (ClusterConfig, "hold_time", SimulationError),
    (ClusterConfig, "querier_slack", SimulationError),
]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    ("cls", "name", "error"),
    TIME_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, name, _ in TIME_FIELDS],
)
def test_a_time_parameter_must_be_finite(cls, name: str, error: type, value: float) -> None:
    with pytest.raises(error, match="finite"):
        cls(**{name: value})


def test_the_scheduler_refuses_a_nan_time() -> None:
    scheduler = EventScheduler()
    with pytest.raises(SimulationError):
        scheduler.call_at(math.nan, lambda: None)
    with pytest.raises(SimulationError):
        scheduler.call_later(math.nan, lambda: None)
    assert scheduler.pending == 0
