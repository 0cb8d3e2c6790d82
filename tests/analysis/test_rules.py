"""Per-rule fixtures: a known true positive and true negative per checker."""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source


def lint(code: str, module: str = "repro.somewhere", path: str = "src/repro/somewhere.py"):
    return lint_source(textwrap.dedent(code), path, module=module)


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# SL001 secret-flow


class TestSecretFlow:
    def test_positive_print_of_key(self) -> None:
        findings = lint("""
        def debug(master_key):
            print("key is", master_key)
        """)
        assert rules_of(findings) == {"SL001"}
        assert "master_key" in findings[0].message

    def test_positive_secret_inside_fstring_print(self) -> None:
        findings = lint("""
        def debug(secret):
            print(f"derived {secret!r}")
        """)
        assert rules_of(findings) == {"SL001"}

    def test_positive_logging_call(self) -> None:
        findings = lint("""
        import logging
        logger = logging.getLogger(__name__)
        def debug(epoch_seed):
            logger.info("seed=%s", epoch_seed)
        """)
        assert rules_of(findings) == {"SL001"}

    def test_positive_fstring_exception_message(self) -> None:
        findings = lint("""
        def check(share_key, expected):
            if share_key != expected:
                raise ValueError(f"bad key {share_key!r}")
        """)
        assert "SL001" in rules_of(findings)

    def test_positive_repr_exposure(self) -> None:
        findings = lint("""
        class Keychain:
            def __repr__(self):
                return f"Keychain({self.root_seed})"
        """)
        assert rules_of(findings) == {"SL001"}

    def test_negative_lengths_and_metadata_ok(self) -> None:
        findings = lint("""
        def describe(master_key, seed):
            print("key bytes:", len(master_key))
            print("seed bits:", seed.bit_length())
        """)
        assert findings == []

    def test_negative_unrelated_names(self) -> None:
        findings = lint("""
        def report(keyboard, monkey, seedling):
            print(keyboard, monkey, seedling)
        """)
        assert findings == []

    def test_negative_plain_exception_args_not_flagged(self) -> None:
        # A structured argument is not a formatted message.
        findings = lint("""
        class KeyMaterialError(Exception):
            pass
        def check(key_id):
            raise KeyMaterialError("key missing", key_id)
        """)
        assert findings == []


# ----------------------------------------------------------------------
# SL002 determinism


class TestDeterminism:
    def test_positive_time_time(self) -> None:
        findings = lint("""
        import time
        def stamp():
            return time.time()
        """)
        assert rules_of(findings) == {"SL002"}

    def test_positive_datetime_now_via_from_import(self) -> None:
        findings = lint("""
        from datetime import datetime
        def stamp():
            return datetime.now()
        """)
        assert rules_of(findings) == {"SL002"}

    def test_positive_module_level_random(self) -> None:
        findings = lint("""
        import random
        def draw():
            return random.randint(0, 10)
        """)
        assert rules_of(findings) == {"SL002"}
        assert "DeterministicRandom" in findings[0].message

    def test_positive_os_urandom_and_aliased_import(self) -> None:
        findings = lint("""
        import os as operating_system
        def pad():
            return operating_system.urandom(16)
        """)
        assert rules_of(findings) == {"SL002"}

    def test_positive_unseeded_default_rng(self) -> None:
        findings = lint("""
        import numpy as np
        def noise():
            return np.random.default_rng()
        """)
        assert rules_of(findings) == {"SL002"}

    def test_negative_seeded_constructions(self) -> None:
        findings = lint("""
        import random
        import numpy as np
        import time
        def build(seed_value):
            r = random.Random(seed_value)
            g = np.random.Generator(np.random.PCG64(seed_value))
            rng2 = np.random.default_rng(seed_value)
            t0 = time.perf_counter()
            return r, g, rng2, t0
        """)
        assert findings == []

    def test_positive_timer_inside_a_substrate(self) -> None:
        findings = lint(
            """
            import time
            from time import monotonic
            def merge_timed(role, epoch, psrs):
                t0 = time.perf_counter()
                merged = role.merge(epoch, psrs)
                return merged, time.perf_counter() - t0, monotonic()
            """,
            module="repro.network.simulator",
            path="src/repro/network/simulator.py",
        )
        assert rules_of(findings) == {"SL002"}
        assert len(findings) == 3
        assert "clock-free" in findings[0].message

    def test_negative_timer_in_a_measuring_module(self) -> None:
        findings = lint(
            """
            import time
            def measure(fn):
                t0 = time.perf_counter()
                fn()
                return time.perf_counter() - t0, time.monotonic()
            """,
            module="repro.experiments.common",
            path="src/repro/experiments/common.py",
        )
        assert findings == []

    def test_negative_system_random_for_keys(self) -> None:
        findings = lint("""
        import random as _random
        def keygen(rng=None):
            return (rng or _random.SystemRandom()).getrandbits(160)
        """)
        assert findings == []

    def test_negative_allowlisted_rng_module(self) -> None:
        findings = lint(
            """
            import random
            def anything():
                return random.random()
            """,
            module="repro.utils.rng",
            path="src/repro/utils/rng.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# SL003 crypto-arithmetic


class TestCryptoArithmetic:
    def test_positive_float_literal_in_crypto(self) -> None:
        findings = lint(
            "SCALE = 0.5\n", module="repro.crypto.modular", path="src/repro/crypto/modular.py"
        )
        assert rules_of(findings) == {"SL003"}

    def test_positive_true_division_in_crypto(self) -> None:
        findings = lint(
            "def half(x):\n    return x / 2\n",
            module="repro.crypto.modular",
            path="src/repro/crypto/modular.py",
        )
        assert rules_of(findings) == {"SL003"}
        assert "//" in findings[0].message

    def test_positive_numpy_float_dtype_in_crypto(self) -> None:
        findings = lint(
            "import numpy as np\ndef cast(a):\n    return a.astype(np.float64)\n",
            module="repro.crypto.vec",
            path="src/repro/crypto/vec.py",
        )
        assert rules_of(findings) == {"SL003"}

    def test_positive_variable_time_digest_compare(self) -> None:
        findings = lint("""
        def verify(mac, expected_mac):
            return mac == expected_mac
        """)
        assert rules_of(findings) == {"SL003"}
        assert "constant_time_eq" in findings[0].message

    def test_positive_digest_call_compare(self) -> None:
        findings = lint("""
        import hashlib
        def verify(data, expected):
            return hashlib.sha256(data).digest() == expected
        """)
        assert rules_of(findings) == {"SL003"}

    def test_negative_floor_division_and_ints_in_crypto(self) -> None:
        findings = lint(
            "def bytelen(p):\n    return (p.bit_length() + 7) // 8\n",
            module="repro.crypto.modular",
            path="src/repro/crypto/modular.py",
        )
        assert findings == []

    def test_negative_float_fine_outside_crypto(self) -> None:
        findings = lint("RATE = 0.5\ndef half(x):\n    return x / 2\n",
                        module="repro.costmodel.models",
                        path="src/repro/costmodel/models.py")
        assert findings == []

    def test_negative_length_checks_not_flagged(self) -> None:
        findings = lint("""
        def frame_ok(mac, MAC_BYTES=20):
            return len(mac) == MAC_BYTES
        """)
        assert findings == []

    def test_negative_constant_time_eq_usage(self) -> None:
        findings = lint("""
        from repro.utils.bytesops import constant_time_eq
        def verify(mac, expected_mac):
            return constant_time_eq(mac, expected_mac)
        """)
        assert findings == []

    def test_negative_none_guard_not_flagged(self) -> None:
        findings = lint("""
        def has_mac(mac):
            return mac == None  # noqa: E711 — deliberate for the fixture
        """)
        assert findings == []


# ----------------------------------------------------------------------
# SL004 bare-assert


class TestBareAssert:
    def test_positive_assert_in_shipped_code(self) -> None:
        findings = lint("""
        def merge(records):
            assert records, "need at least one record"
            return records[0]
        """)
        assert rules_of(findings) == {"SL004"}
        assert "python -O" in findings[0].message

    def test_negative_explicit_raise(self) -> None:
        findings = lint("""
        def merge(records):
            if not records:
                raise RuntimeError("need at least one record")
            return records[0]
        """)
        assert findings == []

    def test_negative_test_modules_exempt(self) -> None:
        code = "def test_x():\n    assert 1 + 1 == 2\n"
        assert lint_source(code, "tests/core/test_x.py", module="tests.core.test_x") == []
        assert lint_source(code, "tests/conftest.py", module="tests.conftest") == []


# ----------------------------------------------------------------------
# SL005 broad-except


class TestBroadExcept:
    def test_positive_except_exception(self) -> None:
        findings = lint("""
        def run(step):
            try:
                step()
            except Exception:
                return None
        """)
        assert rules_of(findings) == {"SL005"}

    def test_positive_bare_except(self) -> None:
        findings = lint("""
        def run(step):
            try:
                step()
            except:
                pass
        """)
        assert rules_of(findings) == {"SL005"}

    def test_positive_broad_tuple(self) -> None:
        findings = lint("""
        def run(step):
            try:
                step()
            except (ValueError, Exception):
                return None
        """)
        assert rules_of(findings) == {"SL005"}

    def test_negative_specific_exceptions(self) -> None:
        findings = lint("""
        from repro.errors import ProtocolError, SecurityError
        def run(step):
            try:
                step()
            except (ProtocolError, SecurityError) as exc:
                return exc
        """)
        assert findings == []

    def test_negative_broad_but_reraising(self) -> None:
        findings = lint("""
        def run(step, log):
            try:
                step()
            except Exception:
                log("step failed")
                raise
        """)
        assert findings == []


# ----------------------------------------------------------------------
# SL006 unsafe-deserialization


class TestUnsafeDeserialization:
    def test_positive_pickle_loads(self) -> None:
        findings = lint("""
        import pickle
        def decode_payload(payload):
            return pickle.loads(payload)
        """)
        assert rules_of(findings) == {"SL006"}
        assert len(findings) == 2  # the import and the call

    def test_positive_aliased_pickle(self) -> None:
        findings = lint("""
        import pickle as codec
        def decode_payload(payload):
            return codec.loads(payload)
        """)
        assert rules_of(findings) == {"SL006"}
        assert len(findings) == 2

    def test_positive_from_import_marshal(self) -> None:
        findings = lint("""
        from marshal import loads
        def decode_payload(payload):
            return loads(payload)
        """)
        assert rules_of(findings) == {"SL006"}

    def test_positive_eval_of_received_text(self) -> None:
        findings = lint("""
        def decode_payload(payload):
            return eval(payload.decode("ascii"))
        """)
        assert rules_of(findings) == {"SL006"}
        assert "eval" in findings[0].message

    def test_positive_exec_builtin(self) -> None:
        findings = lint("""
        def run_config(text):
            exec(text)
        """)
        assert rules_of(findings) == {"SL006"}

    def test_negative_fixed_width_binary_decode(self) -> None:
        findings = lint("""
        import struct
        def decode_payload(payload):
            value = int.from_bytes(payload[:4], "big")
            position, = struct.unpack(">H", payload[4:6])
            return value, position
        """)
        assert findings == []

    def test_negative_literal_eval_and_json(self) -> None:
        findings = lint("""
        import ast
        import json
        def decode_config(text):
            return ast.literal_eval(text), json.loads(text)
        """)
        assert findings == []

    def test_negative_method_named_eval_not_builtin(self) -> None:
        findings = lint("""
        def evaluate(querier, epoch, psr):
            return querier.evaluate(epoch, psr)
        """)
        assert findings == []

    def test_test_modules_exempt(self) -> None:
        findings = lint(
            """
            import pickle
            def make_malicious_fixture(obj):
                return pickle.dumps(obj)
            """,
            module="tests.wire.test_fuzz",
            path="tests/wire/test_fuzz.py",
        )
        assert findings == []

    def test_inline_pragma_suppresses(self) -> None:
        findings = lint("""
        import marshal  # sieslint: disable=SL006
        """)
        assert findings == []


# ----------------------------------------------------------------------
# Acceptance-criteria mutations: removing a defence must trip the linter.


class TestGuardMutations:
    def test_dropping_constant_time_eq_from_verification_fails_lint(self) -> None:
        """The acceptance scenario: revert the querier check to `!=`."""
        findings = lint(
            """
            def evaluate(extracted_secret, share_sum, epoch):
                if extracted_secret != share_sum:
                    raise ValueError("secret mismatch")
                return True
            """,
            module="repro.core.querier",
            path="src/repro/core/querier.py",
        )
        assert "SL003" in rules_of(findings)

    def test_adding_wall_clock_to_runtime_fails_lint(self) -> None:
        """The acceptance scenario: time.time() sneaks into repro.runtime."""
        findings = lint(
            """
            import time
            def deadline(now):
                return now - time.time()
            """,
            module="repro.runtime.events",
            path="src/repro/runtime/events.py",
        )
        assert rules_of(findings) == {"SL002"}


# ----------------------------------------------------------------------
# SL007 asyncio tasks


class TestAsyncioTasks:
    def test_positive_dropped_create_task(self) -> None:
        findings = lint("""
        import asyncio

        async def start(loop):
            asyncio.create_task(loop())
        """)
        assert rules_of(findings) == {"SL007"}
        assert "create_task" in findings[0].message

    def test_positive_dropped_ensure_future(self) -> None:
        findings = lint("""
        import asyncio

        async def start(handler):
            asyncio.ensure_future(handler())
        """)
        assert rules_of(findings) == {"SL007"}

    def test_positive_unawaited_local_coroutine(self) -> None:
        findings = lint("""
        async def send_psr(value):
            return value

        async def run_epoch():
            send_psr(41)
        """)
        assert rules_of(findings) == {"SL007"}
        assert "without await" in findings[0].message

    def test_positive_unawaited_self_method(self) -> None:
        findings = lint("""
        class Node:
            async def flush(self):
                return None

            async def stop(self):
                self.flush()
        """)
        assert rules_of(findings) == {"SL007"}

    def test_negative_stored_task_handle(self) -> None:
        assert lint("""
        import asyncio

        class Node:
            async def start(self, loop):
                self._task = asyncio.ensure_future(loop())
        """) == []

    def test_negative_awaited_coroutine_and_gather(self) -> None:
        assert lint("""
        import asyncio

        async def send_psr(value):
            return value

        async def run_epoch():
            await send_psr(41)
            await asyncio.gather(send_psr(1), send_psr(2))
        """) == []

    def test_negative_sync_method_call(self) -> None:
        assert lint("""
        class Node:
            def bump(self):
                return 1

            async def run(self):
                self.bump()
        """) == []


# ----------------------------------------------------------------------
# SL008 blocking calls in async code


class TestAsyncioBlocking:
    def test_positive_time_sleep_in_async_def(self) -> None:
        findings = lint("""
        import asyncio
        import time

        async def backoff():
            time.sleep(0.5)
        """)
        assert rules_of(findings) == {"SL008"}
        assert "time.sleep" in findings[0].message

    def test_positive_aliased_sleep_import(self) -> None:
        findings = lint("""
        from time import sleep

        async def backoff():
            sleep(0.5)
        """)
        assert rules_of(findings) == {"SL008"}

    def test_positive_subprocess_run_in_async_def(self) -> None:
        findings = lint("""
        import subprocess

        async def probe(cmd):
            subprocess.run(cmd)
        """)
        assert rules_of(findings) == {"SL008"}

    def test_negative_sleep_in_sync_function(self) -> None:
        assert lint("""
        import time

        def backoff():
            time.sleep(0.5)
        """) == []

    def test_negative_asyncio_sleep(self) -> None:
        assert lint("""
        import asyncio

        async def backoff():
            await asyncio.sleep(0.5)
        """) == []


# ----------------------------------------------------------------------
# SL009 shared state across await


class TestSharedState:
    def test_positive_augassign_across_await(self) -> None:
        findings = lint("""
        class Aggregator:
            async def merge(self, child):
                self.partial_sum += await child.fetch()
        """)
        assert rules_of(findings) == {"SL009"}
        assert "partial_sum" in findings[0].message

    def test_positive_reassignment_reading_stale_value(self) -> None:
        findings = lint("""
        class Aggregator:
            async def merge(self, child):
                self.total = self.total + await child.fetch()
        """)
        assert rules_of(findings) == {"SL009"}

    def test_negative_fresh_assignment_from_await(self) -> None:
        # The cluster substrate does this constantly: no stale read.
        assert lint("""
        import asyncio

        class Node:
            async def start(self):
                self._server = await asyncio.start_server(lambda: None)
        """) == []

    def test_negative_guarded_by_lock(self) -> None:
        assert lint("""
        class Aggregator:
            async def merge(self, child):
                async with self._lock:
                    self.partial_sum += await child.fetch()
        """) == []

    def test_negative_no_await_in_rmw(self) -> None:
        assert lint("""
        class Aggregator:
            async def merge(self, delta):
                self.partial_sum += delta
        """) == []


# ----------------------------------------------------------------------
# Seeded mutations of the real cluster node (acceptance scenarios)


class TestClusterMutations:
    """Mutate src/repro/cluster/node.py the way the bugs would really land."""

    @staticmethod
    def _node_source() -> str:
        from pathlib import Path

        return Path("src/repro/cluster/node.py").read_text(encoding="utf-8")

    def _lint_node(self, source: str):
        from repro.analysis import lint_source

        return lint_source(source, "src/repro/cluster/node.py", module="repro.cluster.node")

    def test_pristine_node_is_clean(self) -> None:
        assert self._lint_node(self._node_source()) == []

    def test_dropped_ack_task_handle_flagged(self) -> None:
        original = "self._ack_task = asyncio.ensure_future(self._ack_loop(FrameReader(reader)))"
        assert original in self._node_source()
        mutated = self._node_source().replace(
            original, "asyncio.ensure_future(self._ack_loop(FrameReader(reader)))"
        )
        findings = self._lint_node(mutated)
        assert "SL007" in rules_of(findings)

    def test_time_sleep_in_async_path_flagged(self) -> None:
        original = "await self._ack_task"
        assert original in self._node_source()
        mutated = "import time\n" + self._node_source().replace(
            original, "time.sleep(0.1)"
        )
        findings = self._lint_node(mutated)
        assert "SL008" in rules_of(findings)
