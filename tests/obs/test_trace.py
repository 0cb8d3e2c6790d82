"""The unified trace model: recorder, JSON-lines, dispositions, diffing."""

from __future__ import annotations

import io

import pytest

from repro.errors import ParameterError
from repro.obs import ObsEvent, TraceRecorder, diff_traces, trace_dispositions


def _recorder() -> TraceRecorder:
    return TraceRecorder(substrate="runtime", run_id="seed-7")


def test_record_assigns_sequence_and_validates_kind() -> None:
    rec = _recorder()
    first = rec.record("attempt", epoch=1, edge="S-A", sender=0, receiver=8, attempt=0)
    second = rec.record("deliver", epoch=1, edge="S-A", sender=0, receiver=8, attempt=0)
    assert (first.sequence, second.sequence) == (0, 1)
    with pytest.raises(ParameterError, match="unknown trace event kind"):
        rec.record("teleport", epoch=1, edge="S-A", sender=0, receiver=8)


def test_reset_starts_a_fresh_run_scope() -> None:
    rec = _recorder()
    rec.record("attempt", epoch=1, edge="S-A", sender=0, receiver=8)
    rec.reset()
    assert rec.events == []
    assert rec.record("attempt", epoch=2, edge="S-A", sender=0, receiver=8).sequence == 0


def test_filter_by_epoch_node_edge_and_kind() -> None:
    rec = _recorder()
    rec.record("attempt", epoch=1, edge="S-A", sender=0, receiver=8)
    rec.record("deliver", epoch=1, edge="S-A", sender=0, receiver=8)
    rec.record("attempt", epoch=2, edge="A-Q", sender=8, receiver=-1)
    assert len(rec.filter(epoch=1)) == 2
    assert len(rec.filter(node=8)) == 3  # sender or receiver
    assert len(rec.filter(edge="A-Q")) == 1
    assert len(rec.filter(kinds=("deliver",))) == 1
    assert rec.filter(epoch=1, node=0, edge="S-A", kinds=("attempt",))[0].kind == "attempt"


def test_jsonl_roundtrip_preserves_everything() -> None:
    rec = _recorder()
    rec.record(
        "drop", epoch=3, edge="A-A", sender=9, receiver=10,
        time=12.5, attempt=2, uid=3, detail="link",
    )
    rec.record("give_up", epoch=3, edge="A-A", sender=9, receiver=10, attempt=4)
    buf = io.StringIO()
    assert rec.write_jsonl(buf) == 2
    buf.seek(0)
    back = TraceRecorder.read_jsonl(buf)
    assert back.substrate == "runtime"
    assert back.run_id == "seed-7"
    assert back.events == rec.events


def test_read_jsonl_empty_stream() -> None:
    back = TraceRecorder.read_jsonl(io.StringIO(""))
    assert back.events == []
    assert back.substrate == "unknown"


def test_dispositions_classify_hops_per_epoch() -> None:
    rec = _recorder()
    # hop (0, 8): attempted then delivered.
    rec.record("attempt", epoch=1, edge="S-A", sender=0, receiver=8, attempt=0)
    rec.record("deliver", epoch=1, edge="S-A", sender=0, receiver=8, attempt=0)
    # hop (1, 8): every copy swallowed — dropped.
    rec.record("attempt", epoch=1, edge="S-A", sender=1, receiver=8, attempt=0)
    rec.record("drop", epoch=1, edge="S-A", sender=1, receiver=8, attempt=0, detail="link")
    # hop (2, 8): late arrival.
    rec.record("late", epoch=1, edge="S-A", sender=2, receiver=8)
    # ACK-timing kinds must not affect the slice.
    rec.record("duplicate", epoch=1, edge="S-A", sender=0, receiver=8, attempt=1)
    rec.record("ack_lost", epoch=1, edge="S-A", sender=0, receiver=8, attempt=0)
    rec.record("give_up", epoch=1, edge="S-A", sender=1, receiver=8, attempt=4)
    slices = rec.dispositions()
    assert slices == {
        1: {
            "delivered": [(0, 8)],
            "dropped": [(1, 8)],
            "late": [(2, 8)],
            "decode_failures": [],
        }
    }


def test_analytic_send_counts_as_delivery() -> None:
    """An analytic hop is an ``attempt`` then a ``deliver`` or a ``drop``,
    as on the ARQ substrates; there is no separate ``send`` kind."""
    rec = TraceRecorder(substrate="network")
    hop = dict(edge="S-A", receiver=8, uid=1, attempt=0)
    rec("attempt", dict(hop, epoch=1, sender=0))
    rec("deliver", dict(hop, epoch=1, sender=0))
    rec("attempt", dict(hop, epoch=1, sender=1))
    rec("drop", dict(hop, epoch=1, sender=1, cause="channel"))
    slices = trace_dispositions(rec.events)
    assert slices[1]["delivered"] == [(0, 8)]
    assert slices[1]["dropped"] == [(1, 8)]
    assert rec.events[-1].detail == "channel"
    with pytest.raises(ParameterError, match="unknown trace event kind"):
        rec.record("send", epoch=1, edge="S-A", sender=0, receiver=8)


def test_diff_traces_agrees_on_identical_slices() -> None:
    a, b = _recorder(), TraceRecorder(substrate="cluster")
    for rec in (a, b):
        rec.record("attempt", epoch=1, edge="S-A", sender=0, receiver=8, attempt=0)
        rec.record("deliver", epoch=1, edge="S-A", sender=0, receiver=8, attempt=0)
    verdict = diff_traces(a.events, b.events, label_a="runtime", label_b="cluster")
    assert verdict.agrees
    assert "agree" in verdict.describe()


def test_diff_traces_names_the_divergence() -> None:
    a, b = _recorder(), TraceRecorder(substrate="cluster")
    for rec in (a, b):
        rec.record("attempt", epoch=2, edge="S-A", sender=0, receiver=8, attempt=0)
    a.record("deliver", epoch=2, edge="S-A", sender=0, receiver=8, attempt=0)
    b.record("drop", epoch=2, edge="S-A", sender=0, receiver=8, attempt=0)
    verdict = diff_traces(a.events, b.events, label_a="runtime", label_b="cluster")
    assert not verdict.agrees
    categories = {d.category for d in verdict.deltas}
    assert categories == {"delivered", "dropped"}
    text = verdict.describe()
    assert "epoch 2" in text and "runtime" in text and "0->8" in text


def test_event_json_keys_are_compact() -> None:
    event = ObsEvent(
        sequence=0, substrate="cluster", run_id="r", kind="deliver",
        epoch=1, edge="S-A", sender=0, receiver=8, time=0.5, attempt=1, uid=1,
    )
    line = event.to_json()
    assert '"sub":"cluster"' in line and '"from":0' in line and '"to":8' in line
    assert ObsEvent.from_json(line) == event
