"""SL002 — no wall clock, no unseeded global randomness.

The event runtime promises "runs replay exactly from the seed"
(:mod:`repro.runtime.events`); every stochastic component must draw
from :class:`repro.utils.rng.DeterministicRandom` and every timestamp
must be logical (scheduler ticks), not wall-clock.  This rule bans:

* ``time.time`` / ``time.time_ns`` / ``datetime.now`` / ``utcnow`` /
  ``today`` — wall-clock reads;
* module-level ``random.*`` function calls (``random.random()``,
  ``random.randint(...)``, ...) — they share unseeded global state;
* module-level ``numpy.random.*`` legacy functions and an unseeded
  ``numpy.random.default_rng()``;
* ``os.urandom`` and ``uuid.uuid1``/``uuid.uuid4``;
* ``time.perf_counter`` / ``time.monotonic`` inside the clock-free
  substrates and roles (``repro.network``, ``repro.runtime``,
  ``repro.core``, ``repro.protocols``).

Deliberately allowed:

* ``time.perf_counter`` / ``time.monotonic`` elsewhere — timing is the
  job of :mod:`repro.experiments`, :mod:`repro.obs.profiling` and
  :mod:`repro.utils.timing`, and does not influence simulated behaviour;
* ``random.Random``/``random.SystemRandom`` *construction* — seeded
  instances are the deterministic path, and ``SystemRandom`` is the
  documented entropy source for long-term key generation in
  :mod:`repro.crypto` (key material must NOT be replayable);
* everything inside :mod:`repro.utils.rng`, the one blessed wrapper.
"""

from __future__ import annotations

import ast

from repro.analysis.core import LintContext, Rule, Severity, register_rule

__all__ = ["DeterminismRule"]

_BANNED_CALLS = {
    "time.time": "wall-clock read breaks seeded replay; use scheduler ticks",
    "time.time_ns": "wall-clock read breaks seeded replay; use scheduler ticks",
    "datetime.datetime.now": "wall-clock read breaks seeded replay",
    "datetime.datetime.utcnow": "wall-clock read breaks seeded replay",
    "datetime.datetime.today": "wall-clock read breaks seeded replay",
    "datetime.date.today": "wall-clock read breaks seeded replay",
    "os.urandom": "unseeded OS entropy; derive from DeterministicRandom "
    "(or the PRF layer for key material)",
    "uuid.uuid1": "embeds wall-clock time and host state",
    "uuid.uuid4": "unseeded OS entropy",
}

# Constructors / stateless helpers on the random modules that are fine.
_ALLOWED_RANDOM_ATTRS = frozenset(
    {"Random", "SystemRandom", "getstate", "setstate", "seed"}
)
_ALLOWED_NUMPY_RANDOM_ATTRS = frozenset(
    {"Generator", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64", "SeedSequence",
     "BitGenerator", "RandomState"}
)

_ALLOWLISTED_MODULES = ("repro.utils.rng",)

_CLOCK_FREE_PACKAGES = ("repro.network.", "repro.runtime.", "repro.core.", "repro.protocols.")
_TIMER_CALLS = ("time.perf_counter", "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns")


@register_rule
class DeterminismRule(Rule):
    rule_id = "SL002"
    severity = Severity.ERROR
    description = (
        "no time.time/datetime.now/unseeded random.*/os.urandom outside "
        "repro.utils.rng, no timers in the substrates — protects seeded replay"
    )
    interests = (ast.Call,)
    _clock_free: bool = False

    def begin_module(self, ctx: LintContext) -> bool:
        self._clock_free = f"{ctx.module}.".startswith(_CLOCK_FREE_PACKAGES)
        return not any(ctx.module.startswith(mod) for mod in _ALLOWLISTED_MODULES)

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.Call)  # sieslint: disable=SL004 — dispatch invariant
        target = ctx.qualified_call_target(node)
        if target is None:
            return
        reason = _BANNED_CALLS.get(target)
        if reason is not None:
            ctx.report(self, node, f"{target}(): {reason}")
            return
        if self._clock_free and target in _TIMER_CALLS:
            ctx.report(self, node, f"{target}(): {ctx.module} is clock-free; time it from outside")
            return
        if target.startswith("numpy.random.") or target.startswith("np.random."):
            attr = target.rsplit(".", 1)[1]
            if attr in _ALLOWED_NUMPY_RANDOM_ATTRS:
                return
            if attr == "default_rng":
                if not node.args and not node.keywords:
                    ctx.report(
                        self, node, "numpy.random.default_rng() without a seed"
                    )
                return
            ctx.report(
                self,
                node,
                f"{target}(): legacy numpy global RNG; use a seeded "
                "numpy.random.Generator",
            )
            return
        if target.startswith("random."):
            attr = target.split(".", 1)[1]
            if "." in attr or attr in _ALLOWED_RANDOM_ATTRS:
                return
            ctx.report(
                self,
                node,
                f"random.{attr}(): module-level RNG shares unseeded global "
                "state; use repro.utils.rng.DeterministicRandom",
            )
