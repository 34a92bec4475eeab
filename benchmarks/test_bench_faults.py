"""Benchmark: the fault layer must not tax fault-free serving.

Two acceptance bars, each ratio appended to
``benchmarks/BENCH_faults.json``:

* On a 200k-request Poisson stream, ``simulate_table`` called with
  ``faults=None`` (the default every existing caller hits) must stay
  within 10% of the direct fast-path call -- threading the fault
  machinery through the engines cannot slow the no-fault path.
* On ``test_bench_decode.py``'s decode-heavy regime (12k requests,
  mean 64 output tokens), the fault route with an *empty* schedule
  must stay within 1.2x of the no-fault decode route.  Both run the
  same event core, macro-stepping included, so a schedule that never
  fires may cost only its bookkeeping (results are bitwise equal).

The strict gates (and the JSON appends) only arm under
``SPRINT_BENCH_GATE`` -- tier-1 collects this file too, and a loaded
shared runner must not fail correctness CI on a timing fluctuation.
Ungated runs use relaxed sanity ceilings, further relaxed on starved
(<2 CPU) containers where the host timeshares everything.
"""

import json
import os
import time

import pytest

from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode
from repro.serving import (
    FaultSchedule,
    PoissonProcess,
    ServiceCostModel,
    generate_request_table,
    simulate_table,
)

NUM_REQUESTS = 200_000
RATE_RPS = 2000.0
REPEATS = 3
BENCH_JSON = os.path.join(os.path.dirname(__file__), "BENCH_faults.json")
GATE_ARMED = bool(os.environ.get("SPRINT_BENCH_GATE"))
#: Gated ceiling: faults=None path <= 1.10x the direct fast path.
GATE_CEILING = 1.10
CPUS = os.cpu_count() or 1
#: Outside the gated job (or on a starved timeshared container), still
#: catch a pathological slowdown in the no-fault path.
SANITY_CEILING = 1.5 if CPUS >= 2 else 2.0

#: test_bench_decode.py's decode-heavy regime, where macro runs are long.
DECODE_REQUESTS = 12_000
DECODE_RATE_RPS = 20.0
DECODE_MEAN_OUTPUT_TOKENS = 64.0
DECODE_DEVICES = 2
#: Gated ceiling: empty-schedule fault route <= 1.2x the decode route.
EMPTY_SCHEDULE_CEILING = 1.2
EMPTY_SCHEDULE_SANITY_CEILING = 2.0 if CPUS >= 2 else 3.0


def _append_history(entry):
    history = []
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON) as f:
            history = json.load(f)
    history.append(entry)
    with open(BENCH_JSON, "w") as f:
        json.dump(history, f, indent=1)
        f.write("\n")


@pytest.fixture(scope="module")
def stream():
    table = generate_request_table(
        PoissonProcess(RATE_RPS), "BERT-B", count=NUM_REQUESTS, seed=0
    )
    cost = ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)
    cost.prime(table.specs[0], table.valid_len)
    return table, cost


def test_bench_no_fault_path(benchmark, stream):
    """Wall-clock of one faults=None run over the 200k stream."""
    table, cost = stream
    result = benchmark(lambda: simulate_table(table, cost, faults=None))
    assert len(result.finish_s) == NUM_REQUESTS


def test_bench_no_fault_overhead(stream):
    """faults=None within 10% of the direct path; record the ratio."""
    table, cost = stream

    # Warm both paths; results must be identical objects semantically.
    direct = simulate_table(table, cost)
    routed = simulate_table(table, cost, faults=None)
    assert routed.finish_s.tobytes() == direct.finish_s.tobytes()

    direct_s = routed_s = float("inf")
    for _ in range(REPEATS):
        # Alternate so drifting machine load penalises both alike.
        start = time.perf_counter()
        simulate_table(table, cost)
        direct_s = min(direct_s, time.perf_counter() - start)
        start = time.perf_counter()
        simulate_table(table, cost, faults=None)
        routed_s = min(routed_s, time.perf_counter() - start)
    overhead = routed_s / direct_s

    if GATE_ARMED:
        _append_history(
            {
                "benchmark": "faults_no_fault_path_overhead",
                "config": S_SPRINT.name,
                "mode": ExecutionMode.SPRINT.value,
                "pattern": "poisson",
                "num_requests": NUM_REQUESTS,
                "direct_s": round(direct_s, 4),
                "faults_none_s": round(routed_s, 4),
                "overhead": round(overhead, 3),
                "recorded_unix": int(time.time()),
            }
        )

    ceiling = GATE_CEILING if GATE_ARMED and CPUS >= 2 else SANITY_CEILING
    assert overhead <= ceiling, (
        f"faults=None serving path is {overhead:.2f}x the direct fast "
        f"path ({routed_s:.3f}s vs {direct_s:.3f}s; ceiling {ceiling}x)"
    )


@pytest.fixture(scope="module")
def decode_stream():
    table = generate_request_table(
        PoissonProcess(DECODE_RATE_RPS),
        "BERT-B",
        count=DECODE_REQUESTS,
        seed=0,
        mean_output_tokens=DECODE_MEAN_OUTPUT_TOKENS,
    )
    cost = ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)
    cost.prime(table.specs[0], table.valid_len)
    return table, cost


def test_bench_empty_schedule_decode_overhead(decode_stream):
    """Empty-schedule fault route within 1.2x of the decode route."""
    table, cost = decode_stream
    empty = FaultSchedule.none(DECODE_DEVICES)

    def decode():
        return simulate_table(table, cost, num_devices=DECODE_DEVICES)

    def faulted():
        return simulate_table(table, cost, num_devices=DECODE_DEVICES, faults=empty)

    # Warm both routes; a schedule that never fires changes nothing.
    plain = decode()
    routed = faulted()
    assert routed.completed_count == DECODE_REQUESTS
    assert routed.finish_s.tobytes() == plain.finish_s.tobytes()
    assert routed.device_busy_s == plain.device_busy_s

    decode_s = fault_s = float("inf")
    for _ in range(REPEATS):
        # Alternate so drifting machine load penalises both alike.
        start = time.perf_counter()
        decode()
        decode_s = min(decode_s, time.perf_counter() - start)
        start = time.perf_counter()
        faulted()
        fault_s = min(fault_s, time.perf_counter() - start)
    ratio = fault_s / decode_s

    if GATE_ARMED:
        _append_history(
            {
                "benchmark": "faults_empty_schedule_decode_overhead",
                "config": S_SPRINT.name,
                "mode": ExecutionMode.SPRINT.value,
                "pattern": "poisson",
                "num_requests": DECODE_REQUESTS,
                "mean_output_tokens": DECODE_MEAN_OUTPUT_TOKENS,
                "num_devices": DECODE_DEVICES,
                "decode_s": round(decode_s, 4),
                "empty_schedule_s": round(fault_s, 4),
                "ratio": round(ratio, 3),
                "recorded_unix": int(time.time()),
            }
        )

    ceiling = (
        EMPTY_SCHEDULE_CEILING
        if GATE_ARMED and CPUS >= 2
        else EMPTY_SCHEDULE_SANITY_CEILING
    )
    assert ratio <= ceiling, (
        f"empty-schedule fault route is {ratio:.2f}x the no-fault decode "
        f"route ({fault_s:.3f}s vs {decode_s:.3f}s; ceiling {ceiling}x)"
    )
