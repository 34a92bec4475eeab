"""Benchmark: columnar fast engine vs per-request reference loop.

The acceptance bar for the columnar serving fast path: on a
200k-request Poisson stream the batch-granular engine must deliver at
least 10x the request throughput of the per-request reference event
loop (timed on a 20k-request prefix of the same stream -- it is the
slow side by construction).  The measured ratio is appended to
``benchmarks/BENCH_serving_engine.json`` so the performance trajectory
is recorded run over run.

That stream (one model, 2000 rps, one device) fills every batch, so it
measures the size-sealed regime only.  A second case gates the regime
below saturation: an encoder mix at 150 rps on two devices, where
nearly every batch seals on timeout with about one member, so the
engine pays per batch what the first case amortizes over eight
requests.  It must reach 20x the reference loop.

The strict gate (and the JSON append) only arm under
``SPRINT_BENCH_GATE`` -- tier-1 collects this file too, and a loaded
shared runner must not fail correctness CI on a timing fluctuation.
Ungated runs use a relaxed sanity floor, further relaxed on starved
(<2 CPU) containers where the host timeshares everything.
"""

import json
import os
import time

import pytest

from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode
from repro.serving import (
    DynamicBatcher,
    PoissonProcess,
    ServiceCostModel,
    ServingSimulator,
    SprintDevice,
    generate_request_table,
    simulate_table,
)

NUM_REQUESTS = 200_000
#: The reference loop is timed on a prefix (same arrival regime).
REFERENCE_REQUESTS = 20_000
RATE_RPS = 2000.0
MAX_BATCH_SIZE = 8
MAX_WAIT_S = 2e-3
BENCH_JSON = os.path.join(
    os.path.dirname(__file__), "BENCH_serving_engine.json"
)
GATE_ARMED = bool(os.environ.get("SPRINT_BENCH_GATE"))
GATE_FLOOR = 10.0
#: The timeout-sealed case: encoder capacity planning below saturation.
ENCODER_MIX = {"BERT-B": 0.5, "BERT-L": 0.1, "ViT-B": 0.4}
ENCODER_RATE_RPS = 150.0
ENCODER_DEVICES = 2
ENCODER_GATE_FLOOR = 20.0
CPUS = os.cpu_count() or 1
#: Outside the gated job (or on a starved timeshared container, where
#: the measured ratio only records), still catch catastrophic
#: regressions.
SANITY_FLOOR = 4.0 if CPUS >= 2 else 2.0


@pytest.fixture(scope="module")
def stream():
    table = generate_request_table(
        PoissonProcess(RATE_RPS), "BERT-B", count=NUM_REQUESTS, seed=0
    )
    cost = ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)
    # Both paths share one primed cost model: the cycle model's cost is
    # excluded from the ratio, which times the simulation loops only.
    cost.prime(table.specs[0], table.valid_len)
    return table, cost


@pytest.fixture(scope="module")
def encoder_stream():
    table = generate_request_table(
        PoissonProcess(ENCODER_RATE_RPS), ENCODER_MIX, count=NUM_REQUESTS, seed=0
    )
    cost = ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)
    for idx, spec in enumerate(table.specs):
        cost.prime(spec, table.valid_len[table.spec_idx == idx])
    return table, cost


def _run_reference(table, cost, num_devices=1):
    return ServingSimulator(
        [SprintDevice(i, cost) for i in range(num_devices)],
        DynamicBatcher(MAX_BATCH_SIZE, MAX_WAIT_S),
    ).run(table.to_requests())


def _record(entry):
    """Append one entry to the ``BENCH_serving_engine.json`` history."""
    history = []
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as f:
            history = json.load(f)
    history.append(entry)
    with open(BENCH_JSON, "w") as f:
        json.dump(history, f, indent=1)
        f.write("\n")


def test_bench_fast_engine_throughput(benchmark, stream):
    """Wall-clock of one fast-path pass over the full 200k stream."""
    table, cost = stream
    result = benchmark(
        lambda: simulate_table(
            table, cost, max_batch_size=MAX_BATCH_SIZE, max_wait_s=MAX_WAIT_S
        )
    )
    assert result.completed == NUM_REQUESTS


def test_bench_fast_vs_reference_throughput(stream):
    """Fast >= 10x reference request throughput; record the trajectory."""
    table, cost = stream
    prefix = table.head(REFERENCE_REQUESTS)

    # Warm both paths, and hold the fast path to its equivalence
    # contract on the measured stream's prefix: identical records are a
    # precondition for a meaningful ratio.
    warm_fast = simulate_table(
        prefix, cost, max_batch_size=MAX_BATCH_SIZE, max_wait_s=MAX_WAIT_S
    ).to_result()
    warm_reference = _run_reference(prefix, cost)
    assert warm_fast.records == warm_reference.records

    start = time.perf_counter()
    fast = simulate_table(
        table, cost, max_batch_size=MAX_BATCH_SIZE, max_wait_s=MAX_WAIT_S
    )
    fast_s = time.perf_counter() - start
    assert fast.completed == NUM_REQUESTS

    start = time.perf_counter()
    reference = _run_reference(prefix, cost)
    reference_s = time.perf_counter() - start
    assert reference.completed == REFERENCE_REQUESTS

    fast_rps = NUM_REQUESTS / fast_s
    reference_rps = REFERENCE_REQUESTS / reference_s
    speedup = fast_rps / reference_rps

    if GATE_ARMED:
        entry = {
            "benchmark": "serving_engine_fast_vs_reference",
            "config": S_SPRINT.name,
            "mode": ExecutionMode.SPRINT.value,
            "pattern": "poisson",
            "num_requests": NUM_REQUESTS,
            "reference_requests": REFERENCE_REQUESTS,
            "fast_s": round(fast_s, 4),
            "reference_s": round(reference_s, 4),
            "fast_requests_per_s": round(fast_rps, 1),
            "reference_requests_per_s": round(reference_rps, 1),
            "speedup": round(speedup, 2),
            "recorded_unix": int(time.time()),
        }
        _record(entry)

    # Like the shard benchmark's cpu guard: the strict floor needs a
    # runner with real cores; a loaded 1-CPU container records the
    # ratio but only rejects a pathological regression.
    floor = GATE_FLOOR if GATE_ARMED and CPUS >= 2 else SANITY_FLOOR
    assert speedup >= floor, (
        f"fast engine only {speedup:.1f}x the reference loop "
        f"({fast_rps:,.0f} vs {reference_rps:,.0f} requests/s; "
        f"gate floor {floor}x)"
    )


def test_bench_timeout_sealed_vs_reference_throughput(encoder_stream):
    """Fast >= 20x reference below saturation, where batches seal on timeout."""
    table, cost = encoder_stream
    prefix = table.head(REFERENCE_REQUESTS)
    kwargs = dict(
        num_devices=ENCODER_DEVICES,
        max_batch_size=MAX_BATCH_SIZE,
        max_wait_s=MAX_WAIT_S,
    )

    warm_fast = simulate_table(prefix, cost, **kwargs).to_result()
    warm_reference = _run_reference(prefix, cost, ENCODER_DEVICES)
    assert warm_fast.records == warm_reference.records

    start = time.perf_counter()
    fast = simulate_table(table, cost, **kwargs)
    fast_s = time.perf_counter() - start
    assert fast.completed == NUM_REQUESTS
    # The regime this case exists for: timeout seals of ~1 member.
    assert fast.timeout_triggered_batches > 0.9 * fast.batches

    start = time.perf_counter()
    reference = _run_reference(prefix, cost, ENCODER_DEVICES)
    reference_s = time.perf_counter() - start
    assert reference.completed == REFERENCE_REQUESTS

    fast_rps = NUM_REQUESTS / fast_s
    reference_rps = REFERENCE_REQUESTS / reference_s
    speedup = fast_rps / reference_rps

    if GATE_ARMED:
        _record(
            {
                "benchmark": "serving_engine_timeout_sealed_vs_reference",
                "config": S_SPRINT.name,
                "mode": ExecutionMode.SPRINT.value,
                "pattern": "poisson",
                "mix": ENCODER_MIX,
                "rate_rps": ENCODER_RATE_RPS,
                "num_devices": ENCODER_DEVICES,
                "num_requests": NUM_REQUESTS,
                "reference_requests": REFERENCE_REQUESTS,
                "batches": fast.batches,
                "timeout_triggered_batches": fast.timeout_triggered_batches,
                "fast_s": round(fast_s, 4),
                "reference_s": round(reference_s, 4),
                "fast_requests_per_s": round(fast_rps, 1),
                "reference_requests_per_s": round(reference_rps, 1),
                "speedup": round(speedup, 2),
                "cpus": CPUS,
                "recorded_unix": int(time.time()),
            }
        )

    floor = ENCODER_GATE_FLOOR if GATE_ARMED and CPUS >= 2 else SANITY_FLOOR
    assert speedup >= floor, (
        f"fast engine only {speedup:.1f}x the reference loop below "
        f"saturation ({fast_rps:,.0f} vs {reference_rps:,.0f} requests/s; "
        f"gate floor {floor}x)"
    )
