"""Fault-injection suite: equivalence, conservation, and validation.

The fault layer's contract mirrors the engines' own: the columnar
fault core is *exactly* equal -- per-request records, drop records,
retry events, device accounting -- to the fault-threaded reference
event loops, across arrival patterns, seeds, fleet sizes, outage
traces, and retry/deadline policies.  On top of that sit conservation
properties every fault run must satisfy (``completed + dropped ==
total``, busy time bounded by uptime), byte-identity of fault traces
across engines, and the no-faults guarantee: an empty schedule changes
nothing, and the fault-free fast path is never perturbed.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode
from repro.obs.trace import TraceConfig, TraceRecorder
from repro.models.zoo import get_model
from repro.serving import (
    BurstyProcess,
    CompletedChunk,
    ContinuousBatcher,
    DynamicBatcher,
    FaultSchedule,
    GenerativeServingSimulator,
    PoissonProcess,
    RetryPolicy,
    ServiceCostModel,
    ServingSimulator,
    SprintDevice,
    TraceProcess,
    generate_request_table,
    simulate_decode_stream,
    simulate_stream,
    simulate_table,
    summarize,
    summarize_stream,
)
from repro.serving import decode as decode_module
from repro.serving.decode import _DecodeCore

SEEDS = (0, 1, 7)
DEVICE_COUNTS = (1, 2, 4)


def make_process(pattern):
    return {
        "poisson": PoissonProcess(rate_rps=120.0),
        "bursty": BurstyProcess(40.0, 150.0, 0.5, 0.1),
        "trace": TraceProcess([0.01, 0.002, 0.005]),
    }[pattern]


def make_schedule(kind, num_devices, seed=0):
    """One outage schedule per test axis: seeded renewal or fixed."""
    if kind == "exponential":
        return FaultSchedule.exponential(
            num_devices, mtbf_s=0.08, mttr_s=0.04, horizon_s=4.0, seed=seed
        )
    if kind == "fixed":
        # Rapid staggered flapping: the up-gaps between outages are
        # shorter than a typical batch service time, so dispatches keep
        # landing on doomed devices and the retry machinery engages.
        return FaultSchedule.from_intervals(
            [
                [
                    (t + 0.004 * d, t + 0.015 + 0.004 * d)
                    for t in np.arange(0.12, 1.4, 0.017)
                ]
                for d in range(num_devices)
            ]
        )
    raise KeyError(kind)


@pytest.fixture(scope="module")
def cost_model():
    """One shared (memoized) cost model; the matrix reuses its buckets."""
    return ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)


def run_reference(table, cost, faults, retry, num_devices, max_wait_s,
                  max_batch_size=8, recorder=None):
    devices = [SprintDevice(i, cost) for i in range(num_devices)]
    if table.output_len is not None:
        sim = GenerativeServingSimulator(
            devices,
            ContinuousBatcher(max_batch_size, max_wait_s),
            recorder,
            faults=faults,
            retry=retry,
        )
    else:
        sim = ServingSimulator(
            devices,
            DynamicBatcher(max_batch_size, max_wait_s),
            recorder,
            faults=faults,
            retry=retry,
        )
    return sim.run(table.to_requests())


def assert_fault_runs_equal(table, cost, faults, retry, num_devices,
                            max_wait_s, max_batch_size=8):
    """Run the fault core and the reference loop; everything must match."""
    fast = simulate_table(
        table,
        cost,
        faults=faults,
        retry=retry,
        num_devices=num_devices,
        max_batch_size=max_batch_size,
        max_wait_s=max_wait_s,
    ).to_result()
    ref = run_reference(
        table, cost, faults, retry, num_devices, max_wait_s, max_batch_size
    )
    assert len(fast.records) == len(ref.records)
    for a, b in zip(fast.records, ref.records):
        assert a == b  # dataclass equality: every timestamp, exactly
    assert len(fast.dropped) == len(ref.dropped)
    for a, b in zip(fast.dropped, ref.dropped):
        assert a == b
    assert fast.start_s == ref.start_s
    assert fast.end_s == ref.end_s
    assert fast.device_busy_s == ref.device_busy_s
    assert fast.device_energy_pj == ref.device_energy_pj
    assert fast.device_downtime_s == ref.device_downtime_s
    assert fast.batches == ref.batches
    assert fast.size_triggered_batches == ref.size_triggered_batches
    assert fast.timeout_triggered_batches == ref.timeout_triggered_batches
    assert fast.retries == ref.retries
    assert fast.failed_batches == ref.failed_batches
    assert fast.wasted_energy_pj == ref.wasted_energy_pj
    assert fast.retry_events == ref.retry_events
    if table.output_len is not None:
        assert fast.total_tokens == ref.total_tokens
        assert fast.prefill_batches == ref.prefill_batches
        assert fast.decode_batches == ref.decode_batches
    return fast, ref


# ----------------------------------------------------------------------
# reference-vs-columnar bitwise matrix under fault schedules
# ----------------------------------------------------------------------
class TestFaultEquivalence:
    @pytest.mark.parametrize("pattern", ("poisson", "bursty", "trace"))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_devices", DEVICE_COUNTS)
    @pytest.mark.parametrize("kind", ("exponential", "fixed"))
    def test_prefill_matrix(self, cost_model, pattern, seed, num_devices, kind):
        table = generate_request_table(
            make_process(pattern), "BERT-B", count=200, seed=seed
        )
        cost_model.prime(table.specs[0], table.valid_len)
        assert_fault_runs_equal(
            table,
            cost_model,
            make_schedule(kind, num_devices, seed=seed),
            RetryPolicy(),
            num_devices,
            2e-3,
        )

    @pytest.mark.parametrize("pattern", ("poisson", "bursty"))
    @pytest.mark.parametrize("num_devices", (1, 2))
    @pytest.mark.parametrize("kind", ("exponential", "fixed"))
    def test_generative_matrix(self, cost_model, pattern, num_devices, kind):
        table = generate_request_table(
            make_process(pattern),
            "BERT-B",
            count=150,
            seed=1,
            mean_output_tokens=4.0,
        )
        cost_model.prime(table.specs[0], table.valid_len)
        fast, _ = assert_fault_runs_equal(
            table,
            cost_model,
            make_schedule(kind, num_devices, seed=1),
            RetryPolicy(),
            num_devices,
            2e-3,
        )
        assert fast.failed_batches > 0  # the schedule actually bit

    @pytest.mark.parametrize("max_wait_s", (0.0, 2e-3))
    def test_zero_wait_and_no_retry_policy(self, cost_model, max_wait_s):
        # retry=None means the default policy in both engines.
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=200, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        assert_fault_runs_equal(
            table, cost_model, make_schedule("fixed", 2), None, 2, max_wait_s
        )

    def test_deadline_drops_equal(self, cost_model):
        table = generate_request_table(
            PoissonProcess(120.0),
            "BERT-B",
            count=200,
            seed=0,
            deadline_range_s=(0.02, 0.2),
        )
        cost_model.prime(table.specs[0], table.valid_len)
        fast, _ = assert_fault_runs_equal(
            table,
            cost_model,
            FaultSchedule.from_intervals(
                [
                    [(t, t + 0.02) for t in np.arange(0.2, 1.2, 0.021)],
                    [(0.3, 0.9)],
                ]
            ),
            RetryPolicy(max_attempts=8, backoff_base_s=0.05),
            2,
            2e-3,
        )
        reasons = {d.reason for d in fast.dropped}
        assert "deadline" in reasons

    def test_retry_budget_exhaustion_drops(self, cost_model):
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=200, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        fast, _ = assert_fault_runs_equal(
            table,
            cost_model,
            # Flapping outages with up-gaps shorter than a batch: a
            # retried dispatch keeps landing on a doomed device until
            # its attempt budget runs out.
            FaultSchedule.from_intervals(
                [[(t, t + 0.02) for t in np.arange(0.2, 1.2, 0.021)]]
            ),
            RetryPolicy(max_attempts=2, backoff_base_s=1e-4),
            1,
            2e-3,
        )
        assert any(d.reason == "retries" for d in fast.dropped)

    def test_stranded_fleet_drops_everything_queued(self, cost_model):
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=120, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        fast, _ = assert_fault_runs_equal(
            table,
            cost_model,
            FaultSchedule.from_intervals(
                [[(0.1, np.inf)], [(0.1, np.inf)]]
            ),
            RetryPolicy(),
            2,
            2e-3,
        )
        assert fast.dropped and all(
            d.reason == "stranded" for d in fast.dropped
        )
        assert len(fast.records) + len(fast.dropped) == 120

    def test_empty_schedule_equals_fault_free_run(self, cost_model):
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=200, seed=3
        )
        cost_model.prime(table.specs[0], table.valid_len)
        plain = simulate_table(
            table, cost_model, num_devices=2, max_wait_s=2e-3
        ).to_result()
        faulted = simulate_table(
            table,
            cost_model,
            faults=FaultSchedule.none(2),
            num_devices=2,
            max_wait_s=2e-3,
        ).to_result()
        assert faulted.records == plain.records
        assert faulted.device_busy_s == plain.device_busy_s
        assert faulted.device_energy_pj == plain.device_energy_pj
        assert faulted.batches == plain.batches
        assert not faulted.dropped
        assert faulted.retries == 0 and faulted.failed_batches == 0
        assert faulted.device_downtime_s == [0.0, 0.0]

    def test_faults_kwarg_off_is_untouched_fast_path(self, cost_model):
        # simulate_table(faults=None) must stay byte-for-byte today's
        # golden fast path: identical result object, no fault fields.
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=200, seed=3
        )
        cost_model.prime(table.specs[0], table.valid_len)
        plain = simulate_table(table, cost_model, num_devices=2)
        routed = simulate_table(table, cost_model, num_devices=2, faults=None)
        assert type(routed) is type(plain)
        assert routed.to_result() == plain.to_result()


# ----------------------------------------------------------------------
# macro-stepping survives a fault schedule (decode-heavy traffic)
# ----------------------------------------------------------------------
@pytest.fixture()
def macro_runs(monkeypatch):
    """Record every successful macro run as (start, last DONE, device)."""
    runs = []
    original = _DecodeCore._macro_run

    def recorded(self, batch, now, limit):
        before = list(self.free_at)
        advanced = original(self, batch, now, limit)
        if advanced:
            dev = next(d for d, t in enumerate(before) if self.free_at[d] != t)
            runs.append((now, self.free_at[dev], dev))
        return advanced

    monkeypatch.setattr(_DecodeCore, "_macro_run", recorded)
    return runs


@pytest.fixture()
def step_log(monkeypatch):
    """Record every reference token step as (device, start, finish, decode)."""
    steps = []
    original = SprintDevice.start_step_batch

    def logged(self, spec, context_len, size, decode, now_s):
        finish = original(self, spec, context_len, size, decode, now_s)
        steps.append((self.device_id, now_s, finish, decode))
        return finish

    monkeypatch.setattr(SprintDevice, "start_step_batch", logged)
    return steps


def decode_heavy_table(cost_model, seed=3):
    """~200 requests of ~32 tokens: long membership-fixed decode runs."""
    table = generate_request_table(
        PoissonProcess(20.0),
        "BERT-B",
        count=200,
        seed=seed,
        mean_output_tokens=32.0,
    )
    cost_model.prime(table.specs[0], table.valid_len)
    return table


def longest_run(runs, dev, after):
    """The longest recorded macro run on ``dev`` starting after ``after``."""
    candidates = [r for r in runs if r[2] == dev and r[0] > after]
    assert candidates, "no macro run to aim the boundary at"
    return max(candidates, key=lambda r: r[1] - r[0])


class TestMacroStepUnderFaults:
    """Decode-heavy traffic, where macro runs cover most token steps:
    every run must stop exactly where an outage, recovery or retry
    changes the scalar loop's behaviour, and stay bitwise-equal to the
    reference loop across each boundary."""

    @pytest.mark.parametrize("num_devices", (1, 2))
    @pytest.mark.parametrize("seed", (3, 4))
    def test_decode_heavy_matrix(self, cost_model, macro_runs, num_devices, seed):
        table = decode_heavy_table(cost_model, seed)
        span = float(table.arrival_s.max())
        faults = FaultSchedule.exponential(
            num_devices, mtbf_s=0.5, mttr_s=0.1, horizon_s=2 * span, seed=seed
        )
        fast, _ = assert_fault_runs_equal(
            table, cost_model, faults, RetryPolicy(), num_devices, 2e-3
        )
        assert fast.failed_batches > 0  # the schedule actually bit
        assert len(macro_runs) > 0  # ... and macro-stepping still ran

    @pytest.mark.parametrize("max_wait_s", (2e-3, 0.0))
    @pytest.mark.parametrize("lost", (False, True), ids=("at-finish", "ulp-early"))
    def test_outage_at_a_step_finish(
        self, cost_model, macro_runs, step_log, max_wait_s, lost
    ):
        table = decode_heavy_table(cost_model)
        simulate_table(table, cost_model, max_wait_s=max_wait_s)
        run_reference(table, cost_model, None, None, 1, max_wait_s)
        start, end, _ = longest_run(macro_runs, 0, after=0.0)
        # A step strictly inside that run, neither its first nor last.
        inner = [s for s in step_log if start < s[1] and s[2] < end]
        assert inner
        finish = inner[len(inner) // 2][2]
        down = np.nextafter(finish, -np.inf) if lost else finish
        faults = FaultSchedule.from_intervals([[(down, down + 0.05)]])
        macro_runs.clear()
        fast, _ = assert_fault_runs_equal(
            table, cost_model, faults, RetryPolicy(), 1, max_wait_s
        )
        if lost:
            # The run stops at the previous finish; the doomed step
            # dispatches through the scalar path and is lost.
            assert fast.failed_batches == 1
            assert any(s == start and e < finish for s, e, _ in macro_runs)
        else:
            # Half-open outages: the step ending as the outage begins
            # completes, and the run carries right up to it.
            assert fast.failed_batches == 0
            assert (start, finish, 0) in macro_runs

    def test_lower_device_recovers_mid_run(self, cost_model, macro_runs):
        table = decode_heavy_table(cost_model)
        down = float(table.arrival_s[20])
        forever = FaultSchedule.from_intervals([[(down, np.inf)], []])
        simulate_table(table, cost_model, faults=forever, num_devices=2)
        start, end, _ = longest_run(macro_runs, 1, after=down)
        recover = 0.5 * (start + end)
        macro_runs.clear()
        fast, _ = assert_fault_runs_equal(
            table,
            cost_model,
            FaultSchedule.from_intervals([[(down, recover)], []]),
            RetryPolicy(),
            2,
            2e-3,
        )
        # Device 1 was macro-stepping when device 0 came back, and no
        # run on it carried on past the recovery's next dispatch.
        assert any(d == 1 and start <= s < recover for s, _, d in macro_runs)
        assert not any(s < recover and e >= end for s, e, _ in macro_runs)

    def test_retry_lands_mid_run(self, cost_model, macro_runs, step_log):
        table = decode_heavy_table(cost_model)
        run_reference(table, cost_model, None, None, 2, 2e-3)
        # Kill device 0 for good one ulp before one of its steps ends.
        early = float(table.arrival_s[20])
        finish = next(s[2] for s in step_log if s[0] == 0 and s[1] > early)
        fail = np.nextafter(finish, -np.inf)
        faults = FaultSchedule.from_intervals([[(fail, np.inf)], []])
        # Without retries, find the run the retry should interrupt.
        no_retry = RetryPolicy(max_attempts=1)
        simulate_table(
            table, cost_model, faults=faults, retry=no_retry, num_devices=2
        )
        start, end, _ = longest_run(macro_runs, 1, after=fail)
        retry = RetryPolicy(backoff_base_s=0.5 * (start + end) - fail)
        macro_runs.clear()
        fast, _ = assert_fault_runs_equal(table, cost_model, faults, retry, 2, 2e-3)
        assert fast.failed_batches == 1
        landed = [at for _, at, _, _ in fast.retry_events]
        assert landed and all(start < at < end for at in landed)
        assert any(d == 1 and start <= s < landed[0] for s, _, d in macro_runs)
        assert not any(s < landed[0] and e >= end for s, e, _ in macro_runs)

    def test_retry_pending_after_the_last_arrival(
        self, cost_model, macro_runs, step_log
    ):
        # Seed 7 ends with a ~130-step decode on device 0 while the last
        # arrival prefills on device 1.  Losing that prefill leaves a
        # retry pending after arrivals end, which must keep the decode
        # on its timeout cadence (no end-of-stream instant flush).
        table = decode_heavy_table(cost_model, seed=7)
        run_reference(table, cost_model, None, None, 2, 2e-3)
        last = float(table.arrival_s.max())
        finish = next(
            s[2] for s in step_log if s[0] == 1 and s[1] >= last and not s[3]
        )
        tail_end = max(s[2] for s in step_log)
        fail = np.nextafter(finish, -np.inf)
        fast, _ = assert_fault_runs_equal(
            table,
            cost_model,
            FaultSchedule.from_intervals([[], [(fail, np.inf)]]),
            RetryPolicy(backoff_base_s=0.5 * (tail_end - fail)),
            2,
            2e-3,
        )
        assert fast.failed_batches == 1
        landed = fast.retry_events[0][1]
        assert any(d == 0 and fail < s < landed for s, _, d in macro_runs)


# ----------------------------------------------------------------------
# conservation properties: every fault run, any schedule
# ----------------------------------------------------------------------
class TestConservation:
    @pytest.mark.parametrize("pattern", ("poisson", "bursty", "trace"))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_devices", DEVICE_COUNTS)
    def test_fault_run_invariants(self, cost_model, pattern, seed, num_devices):
        table = generate_request_table(
            make_process(pattern), "BERT-B", count=200, seed=seed
        )
        cost_model.prime(table.specs[0], table.valid_len)
        faults = make_schedule("exponential", num_devices, seed=seed)
        result = simulate_table(
            table,
            cost_model,
            faults=faults,
            retry=RetryPolicy(),
            num_devices=num_devices,
            max_wait_s=2e-3,
        ).to_result()
        # Every request is accounted for exactly once.
        assert len(result.records) + len(result.dropped) == len(table)
        assert result.retries >= 0
        assert result.failed_batches >= 0
        assert result.wasted_energy_pj >= 0.0
        # A completed request that ever lost a batch carries attempts
        # >= 2; drop records carry their (started) lost attempts.
        for rec in result.records:
            assert rec.attempts >= 1
        retried_ids = {rid for rid, _, _, _ in result.retry_events}
        for rec in result.records:
            if rec.request.request_id in retried_ids:
                assert rec.attempts >= 2
        for d in result.dropped:
            assert d.attempts >= 0
            assert d.reason in ("retries", "deadline", "stranded")
        # Per device: busy time never exceeds uptime within the span.
        span = result.end_s - result.start_s
        for dev in range(num_devices):
            downtime = faults.downtime_within(
                dev, result.start_s, result.end_s
            )
            assert result.device_busy_s[dev] <= span - downtime + 1e-9
            assert result.device_downtime_s[dev] == pytest.approx(downtime)

    def test_result_columns_are_completed_rows_columns(self, cost_model):
        # One name, one shape: the whole-table result's lifecycle
        # columns are its completed rows' CompletedChunk columns.
        table = generate_request_table(
            PoissonProcess(120.0),
            "BERT-B",
            count=200,
            seed=0,
            mean_output_tokens=3.0,
        )
        cost_model.prime(table.specs[0], np.arange(1, table.specs[0].seq_len + 1))
        result = simulate_table(
            table,
            cost_model,
            faults=make_schedule("fixed", 2),
            retry=RetryPolicy(max_attempts=1),
            num_devices=2,
        )
        rows = result.completed_rows()
        assert 0 < result.completed_count < len(table)
        assert np.any(rows.output_len == 1) and np.any(rows.output_len > 1)
        for name in ("latency_s", "queue_wait_s", "ttft_s", "tbt_s"):
            got, want = getattr(result, name), getattr(rows, name)
            assert got.shape == (result.completed_count,)
            assert got.tobytes() == want.tobytes(), name

    def test_summarize_conservation_and_engine_agreement(self, cost_model):
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=200, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        faults = make_schedule("exponential", 2)
        kwargs = dict(
            config=S_SPRINT.name,
            mode="sprint",
            pattern="poisson",
            offered_rps=120.0,
            sla_s=0.1,
        )
        fast = summarize(
            simulate_table(
                table, cost_model, faults=faults, num_devices=2, max_wait_s=2e-3
            ),
            **kwargs,
        )
        ref = summarize(
            run_reference(table, cost_model, faults, None, 2, 2e-3), **kwargs
        )
        assert fast == ref  # dataclass equality across all fault fields
        assert fast.faulted
        assert fast.requests + fast.dropped_requests == len(table)
        assert fast.offered_requests == len(table)
        assert sum(fast.dropped_by_reason.values()) == fast.dropped_requests
        assert 0.0 <= fast.availability <= 1.0
        assert fast.goodput_rps <= fast.offered_rps * 1.5  # sanity scale
        assert "availability" in fast.describe()


# ----------------------------------------------------------------------
# chunked fault-mode stream == whole-table fault run
# ----------------------------------------------------------------------
class TestFaultStream:
    @pytest.mark.parametrize("chunk_size", (1, 7, 50, 200))
    @pytest.mark.parametrize("generative", (False, True))
    def test_chunk_sizes_match_table(self, cost_model, chunk_size, generative):
        table = generate_request_table(
            PoissonProcess(120.0),
            "BERT-B",
            count=200,
            seed=0,
            mean_output_tokens=4.0 if generative else None,
        )
        cost_model.prime(table.specs[0], table.valid_len)
        faults = make_schedule("exponential", 2)
        whole = simulate_table(
            table, cost_model, faults=faults, num_devices=2, max_wait_s=2e-3
        )
        chunks = [
            table.slice(lo, min(lo + chunk_size, len(table)))
            for lo in range(0, len(table), chunk_size)
        ]
        collected = []
        streamed = simulate_stream(
            chunks,
            cost_model,
            faults=faults,
            num_devices=2,
            max_wait_s=2e-3,
            sink=collected.append,
        )
        assert streamed.offered == len(table)
        assert streamed.completed == int(whole.completed_count)
        assert streamed.dropped == int(whole.dropped_count)
        assert streamed.start_s == whole.start_s
        assert streamed.end_s == whole.end_s
        assert streamed.device_busy_s == list(whole.device_busy_s)
        assert streamed.device_energy_pj == list(whole.device_energy_pj)
        assert streamed.device_downtime_s == list(whole.device_downtime_s)
        assert streamed.batches == whole.batches
        assert streamed.retries == whole.retries
        assert streamed.failed_batches == whole.failed_batches
        assert streamed.wasted_energy_pj == whole.wasted_energy_pj
        assert streamed.total_tokens == whole.total_tokens
        assert streamed.generative == generative
        # Sink chunks carry every completed request exactly once, every
        # column equal to the table run's completed rows; generative
        # columns only for generative tables, attempts always.
        rows = whole.completed_rows()
        assert (rows.output_len is not None) == generative
        assert rows.attempts is not None
        ids = np.concatenate([c.request_id for c in collected])
        got_order = np.argsort(ids, kind="stable")
        want_order = np.argsort(rows.request_id, kind="stable")
        for field in dataclasses.fields(CompletedChunk):
            if field.name == "specs":
                continue
            want = getattr(rows, field.name)
            got = [getattr(c, field.name) for c in collected]
            if want is None:
                assert all(g is None for g in got), field.name
                continue
            got = np.concatenate(got)
            assert got.dtype == want.dtype, field.name
            assert np.array_equal(got[got_order], want[want_order]), field.name

    def test_summarize_stream_matches_exact_fault_summary(self, cost_model):
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=300, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        faults = make_schedule("exponential", 2)
        kwargs = dict(
            config=S_SPRINT.name,
            mode="sprint",
            pattern="poisson",
            offered_rps=120.0,
            sla_s=0.1,
            num_devices=2,
            max_wait_s=2e-3,
        )
        chunks = [
            table.slice(lo, min(lo + 64, len(table)))
            for lo in range(0, len(table), 64)
        ]
        streamed = summarize_stream(chunks, cost_model, faults=faults, **kwargs)
        exact = summarize(
            simulate_table(
                table, cost_model, faults=faults, num_devices=2, max_wait_s=2e-3
            ),
            config=S_SPRINT.name,
            mode="sprint",
            pattern="poisson",
            offered_rps=120.0,
            sla_s=0.1,
        )
        assert streamed.faulted and exact.faulted
        assert streamed.requests == exact.requests
        assert streamed.dropped_requests == exact.dropped_requests
        assert streamed.dropped_by_reason == exact.dropped_by_reason
        assert streamed.retries == exact.retries
        assert streamed.retried_completed == exact.retried_completed
        assert streamed.failed_batches == exact.failed_batches
        assert streamed.wasted_energy_uj == exact.wasted_energy_uj
        assert streamed.availability == exact.availability
        assert streamed.throughput_rps == exact.throughput_rps
        # Sketch-bounded percentiles: within the documented 1% bound.
        assert streamed.latency.p99_s == pytest.approx(
            exact.latency.p99_s, rel=0.02
        )


class TestFaultThreads:
    """``threads`` reaches both fault routes: phase 1 builds every
    queue's cost vectors in a pool, and not one bit of the run moves."""

    @pytest.fixture()
    def table(self):
        return generate_request_table(
            make_process("bursty"),
            {"BERT-B": 0.5, "ViT-B": 0.3, "GPT-2-L": 0.2},
            count=300,
            seed=8,
            mean_output_tokens=8.0,
        )

    @pytest.fixture()
    def prebuilds(self, monkeypatch):
        calls = []
        original = decode_module._prebuild_vectors

        def recorded(core, spec_i, vlen, olen, threads):
            calls.append(threads)
            original(core, spec_i, vlen, olen, threads)

        monkeypatch.setattr(decode_module, "_prebuild_vectors", recorded)
        return calls

    def test_table_bitwise_across_threads(self, cost_model, table, prebuilds):
        faults = make_schedule("exponential", 2, seed=8)
        one, two = (
            simulate_table(
                table, cost_model, num_devices=2, faults=faults, threads=threads
            )
            for threads in (1, 2)
        )
        assert prebuilds == [2]
        assert one.failed_batches > 0
        for field in dataclasses.fields(one):
            a, b = getattr(one, field.name), getattr(two, field.name)
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes(), field.name
            elif field.name != "table":
                assert a == b, field.name

    def test_stream_bitwise_across_threads(self, cost_model, table, prebuilds):
        faults = make_schedule("exponential", 2, seed=8)
        chunks = [table.slice(lo, min(lo + 64, len(table))) for lo in range(0, 300, 64)]
        results, sunk = [], []
        for threads in (1, 2):
            collected = []
            results.append(
                simulate_stream(
                    chunks,
                    cost_model,
                    num_devices=2,
                    faults=faults,
                    threads=threads,
                    sink=collected.append,
                )
            )
            sunk.append(collected)
        assert prebuilds == [2] * len(chunks)
        assert results[0].failed_batches > 0
        assert results[0] == results[1]
        assert len(sunk[0]) == len(sunk[1])
        for a, b in zip(*sunk):
            for field in dataclasses.fields(a):
                x, y = getattr(a, field.name), getattr(b, field.name)
                if isinstance(x, np.ndarray):
                    assert x.tobytes() == y.tobytes(), field.name
                else:
                    assert x == y, field.name


# ----------------------------------------------------------------------
# fault traces: byte-identical across engines
# ----------------------------------------------------------------------
class TestFaultTraces:
    def test_fast_and_reference_fault_traces_byte_identical(
        self, cost_model, tmp_path
    ):
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=200, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        faults = make_schedule("exponential", 2)
        config = TraceConfig(head=0, stride=1)  # record everything
        fast_rec = TraceRecorder(config)
        simulate_table(
            table,
            cost_model,
            faults=faults,
            num_devices=2,
            max_wait_s=2e-3,
            recorder=fast_rec,
        )
        ref_rec = TraceRecorder(config)
        run_reference(
            table, cost_model, faults, None, 2, 2e-3, recorder=ref_rec
        )
        fast_path = fast_rec.write(tmp_path / "fast.json")
        ref_path = ref_rec.write(tmp_path / "reference.json")
        assert fast_rec.recorded_outages > 0
        assert fast_rec.sampled_retries > 0
        assert fast_path.read_bytes() == ref_path.read_bytes()


# ----------------------------------------------------------------------
# deadline sampling: a fifth draw phase, order-preserving
# ----------------------------------------------------------------------
class TestDeadlineSampling:
    def test_deadline_phase_preserves_earlier_columns(self):
        base = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=300, seed=0,
            mean_output_tokens=4.0,
        )
        with_dl = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=300, seed=0,
            mean_output_tokens=4.0, deadline_range_s=(0.05, 0.5),
        )
        # The deadline draw happens strictly after every other phase,
        # so adding it leaves the established columns byte-identical.
        assert base.arrival_s.tobytes() == with_dl.arrival_s.tobytes()
        assert base.request_id.tobytes() == with_dl.request_id.tobytes()
        assert base.spec_idx.tobytes() == with_dl.spec_idx.tobytes()
        assert base.valid_len.tobytes() == with_dl.valid_len.tobytes()
        assert base.output_len.tobytes() == with_dl.output_len.tobytes()
        assert base.deadline_s is None
        assert with_dl.deadline_s is not None
        assert np.all(with_dl.deadline_s >= 0.05)
        assert np.all(with_dl.deadline_s <= 0.5)

    def test_deadline_range_validation(self):
        with pytest.raises(ValueError, match="deadline_range_s"):
            generate_request_table(
                PoissonProcess(120.0), "BERT-B", count=10, seed=0,
                deadline_range_s=(0.0, 0.5),
            )
        with pytest.raises(ValueError, match="deadline_range_s"):
            generate_request_table(
                PoissonProcess(120.0), "BERT-B", count=10, seed=0,
                deadline_range_s=(0.5, 0.1),
            )

    def test_deadlines_survive_round_trips(self):
        table = generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=50, seed=0,
            deadline_range_s=(0.05, 0.5),
        )
        requests = table.to_requests()
        assert all(r.deadline_s is not None for r in requests)
        part = table.slice(10, 20)
        assert part.deadline_s is not None
        assert part.deadline_s.tolist() == table.deadline_s[10:20].tolist()


# ----------------------------------------------------------------------
# stream-input rules: one message per rule on every stream route
# ----------------------------------------------------------------------
@pytest.mark.parametrize("faults", [False, True], ids=["no-fault", "fault"])
@pytest.mark.parametrize("generative", [False, True], ids=["prefill", "decode"])
class TestStreamInputRules:
    @pytest.fixture()
    def table(self, generative):
        return generate_request_table(
            PoissonProcess(120.0),
            "BERT-B",
            count=40,
            seed=0,
            mean_output_tokens=4.0 if generative else None,
        )

    @pytest.fixture()
    def run(self, cost_model, generative, faults):
        """The stream route under test: the prefill engine's driver or
        the decode engine's, with or without a schedule."""
        kwargs = {"faults": FaultSchedule.none(1)} if faults else {}
        simulate = simulate_decode_stream if generative else simulate_stream
        return lambda chunks: simulate(chunks, cost_model, **kwargs)

    def test_out_of_order_chunks(self, table, run):
        with pytest.raises(
            ValueError, match=r"^chunks must be ordered by \(arrival_s, request_id\)"
        ):
            run([table.slice(20, 40), table.slice(0, 20)])

    def test_spec_list_mismatch(self, table, run):
        later = table.slice(20, 40)
        later.specs = list(later.specs) + [get_model("ViT-B")]
        with pytest.raises(ValueError, match="^chunks must share one spec list$"):
            run([table.slice(0, 20), later])

    def test_empty_stream(self, run):
        with pytest.raises(ValueError, match="^request stream must not be empty$"):
            run([])


# ----------------------------------------------------------------------
# entry-point validation (satellite: input hardening)
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.fixture()
    def table(self):
        return generate_request_table(
            PoissonProcess(120.0), "BERT-B", count=20, seed=0
        )

    def test_empty_table_rejected(self, cost_model, table):
        empty = type(table)(
            specs=table.specs,
            request_id=np.empty(0, dtype=np.int64),
            arrival_s=np.empty(0, dtype=np.float64),
            spec_idx=np.empty(0, dtype=np.int64),
            valid_len=np.empty(0, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="empty"):
            simulate_table(empty, cost_model)
        with pytest.raises(ValueError, match="empty"):
            simulate_table(empty, cost_model, faults=FaultSchedule.none(1))

    def test_bad_device_count_rejected(self, cost_model, table):
        with pytest.raises(ValueError, match="device"):
            simulate_table(table, cost_model, num_devices=0)
        with pytest.raises(ValueError, match="device"):
            simulate_table(
                table, cost_model, faults=FaultSchedule.none(1), num_devices=0
            )
        with pytest.raises(ValueError, match="device"):
            FaultSchedule.none(0)

    def test_negative_wait_rejected(self, cost_model, table):
        with pytest.raises(ValueError, match="max_wait_s"):
            simulate_table(table, cost_model, max_wait_s=-1e-3)
        with pytest.raises(ValueError, match="max_wait_s"):
            simulate_table(
                table, cost_model, faults=FaultSchedule.none(1), max_wait_s=-1e-3
            )

    def test_negative_load_rejected(self):
        from repro.experiments.serving import make_process as mk

        with pytest.raises(ValueError, match="rate_rps"):
            mk("poisson", -5.0)
        with pytest.raises(ValueError, match="rate_rps"):
            PoissonProcess(rate_rps=-1.0)

    @pytest.mark.parametrize("faults", [False, True], ids=["no-fault", "fault"])
    @pytest.mark.parametrize("generative", [False, True], ids=["prefill", "decode"])
    @pytest.mark.parametrize("route", ["table", "stream"])
    def test_zero_threads_rejected_on_every_route(
        self, cost_model, route, generative, faults
    ):
        table = generate_request_table(
            PoissonProcess(120.0),
            "BERT-B",
            count=20,
            seed=0,
            mean_output_tokens=4.0 if generative else None,
        )
        kwargs = {"faults": FaultSchedule.none(1)} if faults else {}
        with pytest.raises(ValueError, match="threads"):
            if route == "table":
                simulate_table(table, cost_model, threads=0, **kwargs)
            else:
                simulate_stream([table], cost_model, threads=0, **kwargs)

    @pytest.mark.parametrize("faults", [False, True], ids=["no-fault", "fault"])
    @pytest.mark.parametrize("generative", [False, True], ids=["prefill", "decode"])
    @pytest.mark.parametrize("route", ["table", "stream"])
    def test_duplicate_request_id_rejected_on_every_route(
        self, cost_model, route, generative, faults
    ):
        table = generate_request_table(
            PoissonProcess(120.0),
            "BERT-B",
            count=20,
            seed=0,
            mean_output_tokens=4.0 if generative else None,
        )
        table.request_id = table.request_id.copy()
        table.request_id[3] = table.request_id[11]
        kwargs = {"faults": FaultSchedule.none(1)} if faults else {}
        with pytest.raises(ValueError, match="duplicate request id"):
            if route == "table":
                simulate_table(table, cost_model, **kwargs)
            else:
                simulate_stream([table], cost_model, **kwargs)

    @pytest.mark.parametrize("faults", [False, True], ids=["no-fault", "fault"])
    @pytest.mark.parametrize("generative", [False, True], ids=["prefill", "decode"])
    def test_duplicate_request_id_across_chunks(
        self, cost_model, generative, faults
    ):
        # Pinned per route: only a fault schedule tracks ids across
        # chunks (a set that grows with the stream); the fault-free
        # routes check within a chunk and accept the repeat.
        table = generate_request_table(
            PoissonProcess(120.0),
            "BERT-B",
            count=20,
            seed=0,
            mean_output_tokens=4.0 if generative else None,
        )
        first, second = table.slice(0, 10), table.slice(10, 20)
        repeated = int(first.request_id[0])
        second.request_id[5] = repeated
        if faults:
            with pytest.raises(
                ValueError, match=f"duplicate request id {repeated}$"
            ):
                simulate_stream(
                    [first, second], cost_model, faults=FaultSchedule.none(1)
                )
        else:
            result = simulate_stream([first, second], cost_model)
            assert result.completed == 20

    def test_has_duplicate_ids_matches_unique(self):
        from repro.serving.requests import has_duplicate_ids

        rng = np.random.default_rng(5)
        for n in (0, 1, 2, 17, 500):
            for high in (2, n + 1, 10 * n + 1):
                ids = rng.integers(0, high, size=n)
                assert has_duplicate_ids(ids) == (np.unique(ids).size != n)

    def test_retry_without_faults_rejected(self, cost_model, table):
        with pytest.raises(ValueError, match="retry"):
            simulate_table(table, cost_model, retry=RetryPolicy())

    def test_schedule_fleet_mismatch_rejected(self, cost_model, table):
        with pytest.raises(ValueError, match="fleet"):
            simulate_table(
                table, cost_model, faults=FaultSchedule.none(3), num_devices=2
            )

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)

    def test_request_deadline_validation(self, table):
        from repro.serving import Request

        spec = table.specs[0]
        with pytest.raises(ValueError, match="deadline"):
            Request(
                request_id=0, arrival_s=0.0, spec=spec, valid_len=16,
                deadline_s=0.0,
            )

    def test_resilience_experiment_validation(self):
        from repro.experiments.resilience import ResilienceExperiment

        with pytest.raises(ValueError, match="engine"):
            ResilienceExperiment(engine="warp")
        with pytest.raises(ValueError, match="load"):
            ResilienceExperiment(load=-3.0)
        with pytest.raises(ValueError, match="mttr"):
            ResilienceExperiment(mttr_s=0.0)
        with pytest.raises(ValueError, match="deadline"):
            ResilienceExperiment(
                engine="stream", deadline_range_s=(0.1, 0.2)
            )
        with pytest.raises(KeyError, match="policy"):
            ResilienceExperiment().simulate(1.0, 1, "nope", 10)
