"""Unit tests for the query-service building blocks (no sockets).

Admission, breaker, drain, budget conversion, and the pool-side
satellites (jittered backoff, dispatch-time deadline fail-fast) are all
exercised with injected clocks and seeded RNGs — nothing here sleeps
for real or binds a port; the HTTP surface is covered by
``test_serve_http.py`` and the subprocess drain tests.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro.errors import DeadlineExceededError
from repro.parallel.real_pool import (
    check_dispatch_deadline,
    retry_delay,
    run_records_pool_resilient,
)
from repro.resilience.guards import Deadline, Limits
from repro.serve import (
    AdmissionQueue,
    BreakerOpenError,
    BudgetExpiredError,
    CircuitBreaker,
    CorpusRegistry,
    DrainCoordinator,
    QueryService,
    QueueFullError,
    ServeConfig,
)
from repro.serve.breaker import CLOSED, DEGRADED, HALF_OPEN, OPEN
from repro.serve.errors import BadRequestError, UnknownCorpusError
from repro.stream.records import RecordStream


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Satellite: Limits.remaining() and injectable Deadline clocks


class TestLimitsRemaining:
    def test_no_deadline_is_none(self):
        assert Limits().remaining() is None

    def test_remaining_tracks_injected_clock(self):
        clock = FakeClock()
        limits = Limits().with_deadline(5.0, clock)
        assert limits.remaining() == pytest.approx(5.0)
        clock.advance(2.0)
        assert limits.remaining() == pytest.approx(3.0)
        clock.advance(4.0)
        assert limits.remaining() == pytest.approx(-1.0)
        assert limits.deadline.expired()

    def test_deadline_after_uses_clock(self):
        clock = FakeClock(100.0)
        deadline = Deadline.after(1.5, clock)
        assert deadline.expires_at == pytest.approx(101.5)
        assert not deadline.expired()
        clock.advance(1.5)
        assert deadline.expired()


# ---------------------------------------------------------------------------
# Satellite: full-jitter retry backoff


class TestRetryDelay:
    def test_zero_jitter_reproduces_legacy_schedule(self):
        assert retry_delay(0.05, 0, jitter=0.0) == pytest.approx(0.05)
        assert retry_delay(0.05, 3, jitter=0.0) == pytest.approx(0.4)
        assert retry_delay(0.05, 10, jitter=0.0) == pytest.approx(1.0)  # capped

    def test_full_jitter_bounds(self):
        rng = random.Random(7)
        for attempts in range(8):
            cap = min(0.05 * 2**attempts, 1.0)
            for _ in range(50):
                delay = retry_delay(0.05, attempts, jitter=1.0, rng=rng)
                assert 0.0 <= delay <= cap

    def test_partial_jitter_keeps_floor(self):
        rng = random.Random(7)
        for _ in range(50):
            delay = retry_delay(0.1, 1, jitter=0.5, rng=rng)
            assert 0.1 <= delay <= 0.2

    def test_seeded_rng_is_deterministic(self):
        a = [retry_delay(0.05, n, rng=random.Random(42)) for n in range(5)]
        b = [retry_delay(0.05, n, rng=random.Random(42)) for n in range(5)]
        assert a == b

    def test_jitter_spreads_lockstep_retries(self):
        rng = random.Random(3)
        delays = {retry_delay(0.05, 2, rng=rng) for _ in range(16)}
        assert len(delays) > 8  # deterministic schedule would give 1


# ---------------------------------------------------------------------------
# Satellite: expired deadlines fail fast at pool dispatch


class TestDispatchDeadline:
    def test_fresh_deadline_passes(self):
        check_dispatch_deadline(None)
        check_dispatch_deadline(Limits())
        check_dispatch_deadline(Limits().with_deadline(10.0))

    def test_expired_deadline_raises(self):
        clock = FakeClock()
        limits = Limits().with_deadline(1.0, clock)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceededError):
            check_dispatch_deadline(limits)

    def test_pool_dispatch_fails_fast(self):
        clock = FakeClock()
        limits = Limits().with_deadline(1.0, clock)
        clock.advance(2.0)
        stream = RecordStream.from_jsonl(b'{"a": 1}\n{"a": 2}\n')
        with pytest.raises(DeadlineExceededError):
            run_records_pool_resilient("$.a", stream, n_workers=1, limits=limits)

    def test_checkpointed_dispatch_fails_fast(self, tmp_path):
        clock = FakeClock()
        limits = Limits().with_deadline(1.0, clock)
        clock.advance(2.0)
        stream = RecordStream.from_jsonl(b'{"a": 1}\n')
        with pytest.raises(DeadlineExceededError):
            run_records_pool_resilient(
                "$.a", stream, n_workers=1, limits=limits,
                checkpoint=str(tmp_path / "run.ckpt"),
            )

    def test_checkpointed_dispatch_keeps_committed_lines(self, tmp_path):
        """A budget spent mid-run still streams every committed record.

        The run commits every 2 records; the clock jumps past the budget
        when the stop check reaches cursor 4, so records 0-3 keep their
        values, 4-9 are quarantined, and the terminator is ``done``.
        """
        clock = FakeClock()
        registry = CorpusRegistry()
        corpus = registry.register(
            "t", b"".join(b'{"a": %d}\n' % i for i in range(10))
        )
        svc = QueryService(
            registry, ServeConfig(checkpoint_dir=str(tmp_path), batch_size=2),
            clock=clock,
        )

        class ExpiringDrain:
            """The stop hook: spends the budget at the third boundary."""

            calls = 0

            @property
            def interrupting(self) -> bool:
                self.calls += 1
                if self.calls == 3:  # cursors 0, 2, then 4
                    clock.advance(100.0)
                return False

        svc.drain = ExpiringDrain()
        limits = svc.base_limits(10.0)
        spec = {
            "corpus": corpus, "query": "$.a", "workers": 1, "checkpoint": "job",
            "resume": False, "inject_faults": False, "limits": limits,
        }
        writer = _BufferWriter()
        outcome = run(svc._dispatch_pool(spec, limits, "strict", writer))
        lines = writer.ndjson_lines()
        assert outcome == "served"
        assert lines[:4] == [{"index": i, "values": [i]} for i in range(4)]
        assert lines[4:10] == [
            {"index": i, "skipped": "DeadlineExceededError"} for i in range(4, 10)
        ]
        assert lines[-1]["done"] is True
        assert (lines[-1]["emitted"], lines[-1]["skipped"]) == (4, 6)

    def test_live_deadline_threads_into_workers(self):
        stream = RecordStream.from_jsonl(b'{"a": 1}\n{"a": 2}\n')
        result = run_records_pool_resilient(
            "$.a", stream, n_workers=1, limits=Limits().with_deadline(30.0)
        )
        assert result.ok
        assert result.values == [[1], [2]]


# ---------------------------------------------------------------------------
# Admission queue


def run(coro):
    return asyncio.run(coro)


class _BufferWriter:
    """An in-memory stand-in for an ``asyncio.StreamWriter``."""

    def __init__(self) -> None:
        self.data = bytearray()

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass

    def ndjson_lines(self) -> list[dict]:
        """Decode the chunked NDJSON body written after the head."""
        body = bytes(self.data).split(b"\r\n\r\n", 1)[1]
        lines = []
        while True:
            size_text, _, body = body.partition(b"\r\n")
            size = int(size_text, 16)
            if size == 0:
                return lines
            lines.append(json.loads(body[:size]))
            body = body[size + 2 :]


class TestAdmissionQueue:
    def test_admits_up_to_max_active(self):
        async def scenario():
            q = AdmissionQueue(2, 4)
            await q.acquire()
            await q.acquire()
            assert q.active == 2
            assert q.admitted == 2

        run(scenario())

    def test_sheds_when_queue_full(self):
        async def scenario():
            q = AdmissionQueue(1, 0)
            await q.acquire()
            with pytest.raises(QueueFullError) as info:
                await q.acquire()
            assert info.value.retry_after >= 1.0
            assert q.shed_full == 1

        run(scenario())

    def test_expired_budget_sheds_immediately(self):
        async def scenario():
            q = AdmissionQueue(1, 4)
            with pytest.raises(BudgetExpiredError):
                await q.acquire(budget=0.0)
            assert q.shed_expired == 1
            assert q.active == 0

        run(scenario())

    def test_budget_bounds_queue_wait(self):
        async def scenario():
            q = AdmissionQueue(1, 4)
            await q.acquire()
            with pytest.raises(BudgetExpiredError):
                await q.acquire(budget=0.01)
            assert q.shed_expired == 1
            assert len(q) == 0  # the timed-out waiter left the queue

        run(scenario())

    def test_release_grants_fifo(self):
        async def scenario():
            q = AdmissionQueue(1, 4)
            await q.acquire()
            order: list[int] = []

            async def waiter(n: int):
                await q.acquire(budget=5.0)
                order.append(n)

            tasks = [asyncio.ensure_future(waiter(n)) for n in range(3)]
            await asyncio.sleep(0)  # let waiters enqueue
            for _ in range(3):
                q.release()
                await asyncio.sleep(0)
            await asyncio.gather(*tasks)
            assert order == [0, 1, 2]
            assert q.active == 1  # transfers kept one slot occupied

        run(scenario())

    def test_release_with_empty_queue_frees_slot(self):
        async def scenario():
            q = AdmissionQueue(2, 2)
            await q.acquire()
            q.release()
            assert q.active == 0

        run(scenario())


# ---------------------------------------------------------------------------
# Circuit breaker


class TestCircuitBreaker:
    def make(self, clock):
        return CircuitBreaker(
            "c", degrade_after=2, open_after=4, cooldown=10.0, clock=clock
        )

    def test_degrades_then_opens(self):
        clock = FakeClock()
        br = self.make(clock)
        assert br.admit() == "strict"
        br.record_failure()
        assert br.state == CLOSED
        br.record_failure()
        assert br.state == DEGRADED
        assert br.admit() == "lenient"
        br.record_failure()
        br.record_failure()
        assert br.state == OPEN

    def test_open_rejects_with_cooldown(self):
        clock = FakeClock()
        br = self.make(clock)
        for _ in range(4):
            br.record_failure()
        with pytest.raises(BreakerOpenError) as info:
            br.admit()
        assert info.value.retry_after == pytest.approx(10.0)
        clock.advance(4.0)
        with pytest.raises(BreakerOpenError) as info:
            br.admit()
        assert info.value.retry_after == pytest.approx(6.0)

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        br = self.make(clock)
        for _ in range(4):
            br.record_failure()
        clock.advance(11.0)
        assert br.admit() == "lenient"
        assert br.state == HALF_OPEN
        # Second request while the probe is in flight stays rejected.
        with pytest.raises(BreakerOpenError):
            br.admit()
        br.record_success()
        assert br.state == CLOSED
        assert br.admit() == "strict"

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        br = self.make(clock)
        for _ in range(4):
            br.record_failure()
        clock.advance(11.0)
        br.admit()
        br.record_failure()
        assert br.state == OPEN
        with pytest.raises(BreakerOpenError):
            br.admit()

    def test_abandon_releases_probe_without_vote(self):
        clock = FakeClock()
        br = self.make(clock)
        for _ in range(4):
            br.record_failure()
        clock.advance(11.0)
        br.admit()
        br.abandon()
        assert br.admit() == "lenient"  # probe slot free again

    def test_success_resets_consecutive_failures(self):
        br = self.make(FakeClock())
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == CLOSED
        assert br.consecutive_failures == 1

    def test_transitions_counted(self):
        br = self.make(FakeClock())
        for _ in range(4):
            br.record_failure()
        assert br.transitions == {DEGRADED: 1, OPEN: 1}


# ---------------------------------------------------------------------------
# Drain coordinator


class TestDrainCoordinator:
    def test_interrupting_after_grace(self):
        clock = FakeClock()
        drain = DrainCoordinator(grace=5.0, clock=clock)
        assert not drain.interrupting
        drain.begin()
        assert drain.draining
        assert not drain.interrupting
        clock.advance(5.0)
        assert drain.interrupting

    def test_second_signal_forces_interrupt(self):
        drain = DrainCoordinator(grace=100.0, clock=FakeClock())
        drain.begin()
        assert not drain.interrupting
        drain.begin()
        assert drain.interrupting

    def test_wait_drained_tracks_inflight(self):
        async def scenario():
            drain = DrainCoordinator(grace=1.0, clock=FakeClock())
            drain.track()
            assert not await drain.wait_drained(timeout=0.01)
            drain.untrack()
            assert await drain.wait_drained(timeout=0.01)

        run(scenario())


# ---------------------------------------------------------------------------
# Budget conversion (the deadline-propagation contract)


class TestRebudget:
    def make_service(self, clock):
        return QueryService(
            CorpusRegistry(), ServeConfig(), clock=clock
        )

    def test_queue_time_is_charged_to_the_budget(self):
        clock = FakeClock()
        svc = self.make_service(clock)
        limits = svc.base_limits(5.0)  # arrives with a 5s budget
        clock.advance(2.0)  # queued for 2s
        fresh = svc.rebudget(limits)
        # The dispatched engine runs under exactly the remaining 3s.
        assert fresh.remaining() == pytest.approx(3.0)
        assert fresh.deadline is not limits.deadline  # fresh, not inherited

    def test_expired_budget_sheds(self):
        clock = FakeClock()
        svc = self.make_service(clock)
        limits = svc.base_limits(1.0)
        clock.advance(1.5)
        with pytest.raises(BudgetExpiredError):
            svc.rebudget(limits)

    def test_rebudget_preserves_other_guards(self):
        clock = FakeClock()
        svc = QueryService(
            CorpusRegistry(),
            ServeConfig(max_depth=17, max_record_bytes=1024),
            clock=clock,
        )
        fresh = svc.rebudget(svc.base_limits(5.0))
        assert fresh.max_depth == 17
        assert fresh.max_record_bytes == 1024


# ---------------------------------------------------------------------------
# Corpus registry


class TestCorpusRegistry:
    def test_register_and_get(self):
        reg = CorpusRegistry()
        corpus = reg.register("t", b'{"a": 1}\n{"a": 2}\n')
        assert corpus.records == 2
        assert reg.get("t") is corpus
        assert reg.names() == ["t"]

    def test_unknown_corpus(self):
        with pytest.raises(UnknownCorpusError):
            CorpusRegistry().get("nope")

    def test_parse_caches_paths(self):
        reg = CorpusRegistry()
        assert reg.parse("$.a[*].b") is reg.parse("$.a[*].b")

    def test_bad_query_is_bad_request(self):
        with pytest.raises(BadRequestError):
            CorpusRegistry().parse("$..[")

    def test_unknown_engine_is_bad_request(self):
        reg = CorpusRegistry()
        with pytest.raises(BadRequestError):
            reg.compile("$.a", engine="nope", limits=Limits())

    def test_compile_carries_limits(self):
        reg = CorpusRegistry()
        limits = Limits(max_depth=11)
        prepared = reg.compile("$.a", engine="jsonski", limits=limits)
        assert prepared.run(b'{"a": 5}').values() == [5]

    def test_json_corpus_shares_stage1_index(self):
        reg = CorpusRegistry()
        corpus = reg.register("doc", b'{"a": [1, 2, 3]}', format="json")
        prepared = reg.compile("$.a[*]", engine="jsonski", limits=Limits())
        first = corpus.indexed(prepared)
        second = corpus.indexed(prepared)
        assert first is second  # second query pays zero index cost
        assert prepared.run(first).values() == [1, 2, 3]

    def test_concatenated_lenient_view(self):
        reg = CorpusRegistry()
        corpus = reg.register(
            "c", b'{"a": 1}{"a": 2}', format="concatenated"
        )
        assert len(corpus.records_for("strict")) == 2
        assert len(corpus.records_for("lenient")) == 2

    def test_bad_format_rejected(self):
        with pytest.raises(BadRequestError):
            CorpusRegistry().register("x", b"{}", format="xml")
