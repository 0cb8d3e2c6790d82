"""Fuzz-style robustness: hostile inputs raise library errors, never crash.

Wire-facing parsers (query payloads, predicates, trace lines) and
value-facing codecs must respond to arbitrary input with a
:class:`repro.errors.ReproError` subclass (or succeed) — attribute
errors, index errors or infinite loops on attacker-controlled bytes
would be vulnerabilities in a real deployment.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import MessageLayout
from repro.errors import ReproError
from repro.obs.trace import ObsEvent
from repro.queries.predicates import parse_predicate
from repro.queries.query import Query

LAYOUT = MessageLayout(value_bits=32, pad_bits=10, share_bits=160)


@settings(max_examples=200)
@given(st.binary(max_size=200))
def test_query_from_wire_never_crashes(payload: bytes) -> None:
    try:
        query = Query.from_wire(payload)
    except ReproError:
        return
    # a successful parse must round-trip
    assert Query.from_wire(query.to_wire()) == query


@settings(max_examples=200)
@given(st.text(max_size=60))
def test_parse_predicate_never_crashes(text: str) -> None:
    try:
        predicate = parse_predicate(text)
    except ReproError:
        return
    assert parse_predicate(predicate.serialize()) == predicate


@settings(max_examples=200)
@given(st.integers(min_value=-(2**300), max_value=2**300))
def test_layout_decode_never_crashes(message: int) -> None:
    try:
        value, secret = LAYOUT.decode(message)
    except ReproError:
        return
    assert 0 <= value <= LAYOUT.max_value
    assert 0 <= secret < 1 << LAYOUT.secret_bits


@settings(max_examples=100)
@given(st.text(max_size=120))
def test_trace_event_parser_rejects_junk(line: str) -> None:
    try:
        event = ObsEvent.from_json(line)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return
    assert isinstance(event.sequence, int)


@settings(max_examples=100)
@given(
    st.dictionaries(
        st.sampled_from(["agg", "attr", "pred", "epoch_s", "junk"]),
        st.one_of(st.text(max_size=10), st.integers(), st.none()),
    )
)
def test_query_from_structured_junk(payload: dict) -> None:
    """Syntactically valid JSON with wrong shapes must raise QueryError."""
    try:
        Query.from_wire(json.dumps(payload).encode())
    except ReproError:
        pass


@settings(max_examples=100)
@given(st.integers(), st.integers(min_value=2, max_value=2**64))
def test_homomorphic_inputs_validated(m: int, p_like: int) -> None:
    """encrypt() rejects out-of-range plaintexts instead of wrapping."""
    from repro.crypto.homomorphic import encrypt

    try:
        c = encrypt(m, 3, 5, p_like)
    except ReproError:
        assert m < 0 or m >= p_like or 3 % p_like == 0
        return
    assert 0 <= c < p_like
