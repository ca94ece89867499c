"""Tests for repro.common: units, RNG streams, id allocation, errors."""

from __future__ import annotations

import errno
import json
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    ApplicationSpecError,
    EmulationError,
    HardwareConfigError,
    MemoryError_,
    ReproError,
    SchedulingError,
    SymbolResolutionError,
    ToolchainError,
)
from repro.common.ids import IdAllocator
from repro.common.rng import SeedSequenceFactory, derive_seed
from repro.common.units import MS, SEC, to_msec, to_sec


class TestUnits:
    def test_msec_is_thousand_usec(self):
        assert MS == 1000.0

    def test_sec_is_million_usec(self):
        assert SEC == 1_000_000.0

    def test_roundtrip_ms(self):
        assert to_msec(3.25 * MS) == pytest.approx(3.25)

    def test_roundtrip_sec(self):
        assert to_sec(7.5 * SEC) == pytest.approx(7.5)

    @given(st.floats(min_value=0, max_value=1e12, allow_nan=False))
    def test_conversions_are_inverse(self, value):
        assert to_msec(value * MS) == pytest.approx(value, rel=1e-12)
        assert to_sec(value * SEC) == pytest.approx(value, rel=1e-12)


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_derive_seed_distinguishes_names(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_derive_seed_distinguishes_roots(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_factory_same_path_same_stream(self):
        factory = SeedSequenceFactory(7)
        a = factory.rng("jitter", "pe0").random(5)
        b = factory.rng("jitter", "pe0").random(5)
        assert np.array_equal(a, b)

    def test_factory_different_paths_differ(self):
        factory = SeedSequenceFactory(7)
        a = factory.rng("jitter", "pe0").random(5)
        b = factory.rng("jitter", "pe1").random(5)
        assert not np.array_equal(a, b)

    def test_spawn_gives_child_namespace(self):
        factory = SeedSequenceFactory(7)
        child = factory.spawn("run", 3)
        assert child.seed("x") == derive_seed(factory.seed("run", 3), "x")

    def test_default_seed_used_for_none(self):
        assert SeedSequenceFactory(None).root_seed == SeedSequenceFactory(None).root_seed

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_derived_seed_in_range(self, root, name):
        seed = derive_seed(root, name)
        assert 0 <= seed < 2**63


class TestIds:
    def test_allocator_monotone(self):
        alloc = IdAllocator()
        assert [alloc.allocate() for _ in range(4)] == [0, 1, 2, 3]

    def test_allocator_peek_does_not_consume(self):
        alloc = IdAllocator()
        alloc.allocate()
        assert alloc.peek() == 1
        assert alloc.allocate() == 1


class TestErrors:
    @pytest.mark.parametrize(
        "exc",
        [
            ApplicationSpecError,
            SymbolResolutionError,
            SchedulingError,
            HardwareConfigError,
            MemoryError_,
            ToolchainError,
            EmulationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_memory_error_does_not_shadow_builtin(self):
        assert MemoryError_ is not MemoryError


class TestRetryPolicy:
    def _policy(self, **kw):
        from repro.common.retry import RetryPolicy

        defaults = dict(attempts=4, base_delay_s=0.1, max_delay_s=0.4)
        defaults.update(kw)
        return RetryPolicy(**defaults)

    def test_backoff_caps_double_then_saturate(self):
        policy = self._policy()
        assert list(policy.backoff_caps()) == [0.1, 0.2, 0.4]

    def test_delays_are_full_jitter_within_caps(self):
        import random

        policy = self._policy()
        delays = list(policy.delays(random.Random(0)))
        assert len(delays) == policy.attempts - 1
        for delay, cap in zip(delays, policy.backoff_caps()):
            assert 0.0 <= delay <= cap

    def test_call_retries_transient_then_succeeds(self):
        import random

        from repro.common.retry import is_transient_oserror

        attempts = []
        slept = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError(errno.EINTR, "interrupted")
            return "ok"

        policy = self._policy()
        assert policy.call(
            flaky, retry_on=is_transient_oserror,
            rng=random.Random(0), sleep=slept.append,
        ) == "ok"
        assert len(attempts) == 3
        assert len(slept) == 2

    def test_call_raises_non_retryable_immediately(self):
        attempts = []

        def hopeless():
            attempts.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            self._policy().call(hopeless, sleep=lambda _s: None)
        assert len(attempts) == 1

    def test_call_exhaustion_reraises_last_error(self):
        import random

        attempts = []

        def always_transient():
            attempts.append(1)
            raise OSError(errno.ESTALE, f"stale #{len(attempts)}")

        policy = self._policy()
        with pytest.raises(OSError) as excinfo:
            policy.call(
                always_transient, rng=random.Random(0), sleep=lambda _s: None
            )
        assert len(attempts) == policy.attempts
        assert "stale #4" in str(excinfo.value)

    def test_deadline_stops_retrying_early(self):
        import random

        attempts = []

        def always_transient():
            attempts.append(1)
            raise OSError(errno.EAGAIN, "again")

        # A zero deadline is spent before the first retry can start, so
        # only the initial attempt runs even though attempts=4.
        policy = self._policy(deadline_s=0.0)
        with pytest.raises(OSError):
            policy.call(
                always_transient, rng=random.Random(0), sleep=lambda _s: None
            )
        assert len(attempts) == 1

    def test_invalid_policies_rejected(self):
        from repro.common.retry import RetryPolicy

        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-0.1)

    def test_is_transient_oserror_taxonomy(self):
        from repro.common.retry import is_transient_oserror

        assert is_transient_oserror(OSError(errno.EINTR, "x"))
        assert is_transient_oserror(OSError(errno.ESTALE, "x"))
        assert is_transient_oserror(OSError(errno.EAGAIN, "x"))
        assert not is_transient_oserror(OSError(errno.ENOENT, "x"))
        assert not is_transient_oserror(ValueError("x"))

    def test_retry_stats_accumulate_by_site(self):
        from repro.common.retry import RetryStats

        stats = RetryStats()
        stats.note("cache.put", OSError(errno.EINTR, "interrupted"))
        stats.note("cache.put", OSError(errno.ESTALE, "stale"))
        stats.note("journal.append", OSError(errno.EAGAIN, "again"))
        doc = stats.to_dict()
        assert doc["retries"] == 3
        assert doc["by_site"] == {"cache.put": 2, "journal.append": 1}
        assert "EAGAIN" in doc["last_error"] or "again" in doc["last_error"]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


class TestAtomicWriteJson:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
              deadline=None)
    @given(doc=_JSON, sort_keys=st.booleans())
    @example(doc={"z": 1e-300, "a": [-0.0, "é✓ \u2028", {"b": None, "a": 1}]},
             sort_keys=False)
    @example(doc={"z": 1e-300, "a": [-0.0, "é✓ \u2028", {"b": None, "a": 1}]},
             sort_keys=True)
    def test_round_trip(self, tmp_path, doc, sort_keys):
        from repro.common.atomic import atomic_write_json, dumps_sorted

        path = tmp_path / "doc.json"
        atomic_write_json(path, doc, sort_keys=sort_keys)
        text = path.read_text(encoding="utf-8")
        assert "\n" not in text
        assert text == json.dumps(doc, sort_keys=sort_keys)
        loaded = json.loads(text)
        assert loaded == doc
        # re-encoding tells -0.0 from 0.0 and shows the key order kept
        assert json.dumps(loaded) == json.dumps(doc, sort_keys=sort_keys)
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
        # the shared encoder (journal lines, cache entries) is the same call
        assert dumps_sorted(doc) == json.dumps(doc, sort_keys=True)

    def test_failed_write_leaves_the_old_file_and_no_temp(self, tmp_path):
        from repro.common.atomic import atomic_write_json

        path = tmp_path / "doc.json"
        atomic_write_json(path, {"v": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"v": object()})
        target = tmp_path / "dir.json"
        target.mkdir()  # os.replace onto a directory fails after the write
        with pytest.raises(OSError):
            atomic_write_json(target, {"v": 2})
        assert json.loads(path.read_text(encoding="utf-8")) == {"v": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "dir.json", "doc.json"
        ]

    def test_threads_of_one_process_do_not_share_a_temp_file(self, tmp_path):
        # workers/<id>.json is written by a worker's main loop and by its
        # heartbeat thread; with a per-process temp name the loser's
        # os.replace raised FileNotFoundError
        from repro.common.atomic import atomic_write_json

        path = tmp_path / "status.json"
        atomic_write_json(path, {"writer": -1, "n": 0})
        errors: list[BaseException] = []

        def writer(ident: int) -> None:
            try:
                for n in range(500):
                    atomic_write_json(path, {"writer": ident, "n": n,
                                             "pad": "x" * 256})
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,), daemon=True)
            for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            reads = 0
            deadline = time.monotonic() + 60
            while (any(thread.is_alive() for thread in threads)
                   and time.monotonic() < deadline):
                doc = json.loads(path.read_text(encoding="utf-8"))
                assert set(doc) >= {"writer", "n"}
                reads += 1
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert reads > 0
        assert json.loads(path.read_text(encoding="utf-8"))["n"] == 499
        assert [p.name for p in tmp_path.iterdir()] == ["status.json"]
