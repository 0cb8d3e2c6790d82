"""Protocol abstractions: OpCounter and the registry."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ParameterError
from repro.protocols.base import OP_NAMES, EvaluationResult, OpCosts, OpCounter
from repro.protocols.registry import available_protocols, create_protocol, register_protocol


def test_op_counter_accumulates() -> None:
    ops = OpCounter()
    ops.add("hm1")
    ops.add("hm1", 3)
    ops.add("rsa", 0)
    assert ops.get("hm1") == 4
    assert ops.get("rsa") == 0
    assert ops.get("mul32") == 0


def test_op_counter_rejects_unknown_and_negative() -> None:
    ops = OpCounter()
    with pytest.raises(ParameterError):
        ops.add("quantum_fft")
    with pytest.raises(ParameterError):
        ops.add("hm1", -1)


def test_op_costs_are_validated_once_and_charged_in_order() -> None:
    with pytest.raises(ParameterError):
        OpCosts(quantum_fft=1)
    with pytest.raises(ParameterError):
        OpCosts(hm1=-1)
    costs = OpCosts(hm256=2, hm1=1, rsa=0)
    ops = OpCounter()
    ops.add("hm1")
    ops.charge(costs)
    ops.charge(costs)
    assert ops.counts == {"hm1": 3, "hm256": 4, "rsa": 0}
    assert list(ops.counts) == ["hm1", "hm256", "rsa"]


def test_op_counter_merge_copy_reset() -> None:
    a = OpCounter()
    a.add("hm1", 2)
    b = OpCounter()
    b.add("hm1", 1)
    b.add("rsa", 5)
    a.merge(b)
    assert a.get("hm1") == 3 and a.get("rsa") == 5
    clone = a.copy()
    clone.add("hm1")
    assert a.get("hm1") == 3  # copy is independent
    a.reset()
    assert a.counts == {}


def test_op_names_cover_all_table2_constants() -> None:
    assert set(OP_NAMES) == {
        "hm1", "hm256", "add20", "add32", "mul32", "mul128", "inv32", "rsa", "sketch",
    }


def test_evaluation_result_defaults() -> None:
    result = EvaluationResult(value=5, epoch=1, verified=True, exact=True)
    assert result.extras == {}


def test_registry_lists_builtins() -> None:
    assert set(available_protocols()) >= {"sies", "cmt", "secoa_m", "secoa_s"}


def test_registry_unknown_name() -> None:
    with pytest.raises(ConfigurationError, match="unknown protocol"):
        create_protocol("nope", 4)


def test_registry_forwards_kwargs() -> None:
    protocol = create_protocol("sies", 4, seed=1, value_bytes=8)
    assert protocol.params.value_bytes == 8


def test_registry_custom_registration() -> None:
    from repro.core.protocol import SIESProtocol
    from repro.protocols import registry as registry_module

    register_protocol("sies_alias_for_test", SIESProtocol)
    try:
        assert create_protocol("sies_alias_for_test", 2, seed=1).name == "sies"
    finally:
        # The registry is process-global: leave it as we found it so
        # snapshot tests (``repro info``) see only the built-ins.
        registry_module._REGISTRY.pop("sies_alias_for_test", None)
    assert "sies_alias_for_test" not in available_protocols()


def test_protocol_rejects_nonpositive_sources() -> None:
    with pytest.raises(ParameterError):
        create_protocol("sies", 0)
