"""Equivalence suite: the columnar fast engine vs the reference loop.

The fast serving engine's contract is *exact* equality -- per-request
records bitwise equal to the per-request reference event loop, not
approximately close -- pinned here across arrival patterns, execution
modes, seeds, device counts, and wait bounds.  Plus the vectorized
stream generation's own contract: ``generate_requests`` output is
byte-identical to the historical per-request sampling loop (golden
hashes captured before vectorization).
"""

import hashlib
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode
from repro.models.zoo import get_model
from repro.serving import (
    BurstyProcess,
    DynamicBatcher,
    PoissonProcess,
    RequestTable,
    ServiceCostModel,
    ServingSimulator,
    SprintDevice,
    TraceProcess,
    generate_request_table,
    generate_requests,
    sample_valid_len,
    simulate_table,
    summarize,
)
from repro.experiments.serving import ServingExperiment
from repro.serving.engine import _dispatch, _form_batches

SEEDS = (0, 1, 7)
DEVICE_COUNTS = (1, 2, 4)
WAITS = (0.0, 2e-3)


def make_process(pattern):
    return {
        "poisson": PoissonProcess(rate_rps=120.0),
        "bursty": BurstyProcess(40.0, 150.0, 0.5, 0.1),
        "trace": TraceProcess([0.01, 0.002, 0.005]),
    }[pattern]


@pytest.fixture(scope="module")
def cost_model():
    """One shared (memoized) cost model: both engines must price every
    batch identically, and the matrix reuses the primed buckets."""
    return ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)


def assert_engines_equal(table, cost, num_devices, max_wait_s, max_batch_size=8):
    """Run both engines on one stream; everything must match exactly."""
    fast = simulate_table(
        table,
        cost,
        num_devices=num_devices,
        max_batch_size=max_batch_size,
        max_wait_s=max_wait_s,
    ).to_result()
    reference = ServingSimulator(
        [SprintDevice(i, cost) for i in range(num_devices)],
        DynamicBatcher(max_batch_size, max_wait_s),
    ).run(table.to_requests())
    assert len(fast.records) == len(reference.records)
    for a, b in zip(fast.records, reference.records):
        assert a == b  # dataclass equality: every timestamp, exactly
    assert fast.start_s == reference.start_s
    assert fast.end_s == reference.end_s
    assert fast.device_busy_s == reference.device_busy_s
    assert fast.device_energy_pj == reference.device_energy_pj
    assert fast.batches == reference.batches
    assert fast.size_triggered_batches == reference.size_triggered_batches
    assert fast.timeout_triggered_batches == reference.timeout_triggered_batches


class TestEngineEquivalence:
    @pytest.mark.parametrize("pattern", ("poisson", "bursty", "trace"))
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_devices", DEVICE_COUNTS)
    @pytest.mark.parametrize("max_wait_s", WAITS)
    def test_records_exactly_equal(
        self, cost_model, pattern, seed, num_devices, max_wait_s
    ):
        table = generate_request_table(
            make_process(pattern), "BERT-B", count=250, seed=seed
        )
        cost_model.prime(table.specs[0], table.valid_len)
        assert_engines_equal(table, cost_model, num_devices, max_wait_s)

    @pytest.mark.parametrize(
        "mode", (ExecutionMode.BASELINE, ExecutionMode.PRUNING_ONLY)
    )
    def test_other_modes_equal(self, mode):
        cost = ServiceCostModel(S_SPRINT, mode)
        table = generate_request_table(
            PoissonProcess(90.0), "BERT-B", count=200, seed=3
        )
        cost.prime(table.specs[0], table.valid_len)
        assert_engines_equal(table, cost, 2, 2e-3)

    def test_multi_model_mix_equal(self, cost_model):
        table = generate_request_table(
            PoissonProcess(90.0),
            {"BERT-B": 0.5, "ViT-B": 0.3, "GPT-2-L": 0.2},
            count=300,
            seed=5,
        )
        for idx, spec in enumerate(table.specs):
            cost_model.prime(spec, table.valid_len[table.spec_idx == idx])
        assert_engines_equal(table, cost_model, 2, 2e-3)
        # End-of-stream flush seals several model queues at the same
        # instant; zero wait exercises the per-arrival flush ordering.
        assert_engines_equal(table, cost_model, 1, 10e-3)
        assert_engines_equal(table, cost_model, 2, 0.0)

    def test_repeated_model_in_mix_shares_one_queue(self, cost_model):
        # A pair-list mix may name the same model twice; the reference
        # batcher merges both into one per-name queue, and the fast
        # engine must form the same batches.
        table = generate_request_table(
            PoissonProcess(120.0),
            [("BERT-B", 0.5), ("BERT-B", 0.3), ("ViT-B", 0.2)],
            count=200,
            seed=0,
        )
        assert len(table.specs) == 3  # duplicates kept, stream unchanged
        for idx, spec in enumerate(table.specs):
            cost_model.prime(spec, table.valid_len[table.spec_idx == idx])
        assert_engines_equal(table, cost_model, 2, 2e-3)

    def test_conflicting_same_name_specs_rejected(self):
        import dataclasses

        spec = get_model("BERT-B")
        shrunk = dataclasses.replace(spec, seq_len=128)
        with pytest.raises(ValueError):
            RequestTable(
                specs=[spec, shrunk],
                request_id=np.arange(2),
                arrival_s=np.zeros(2),
                spec_idx=np.arange(2, dtype=np.int64),
                valid_len=np.full(2, 100),
            )

    def test_batch_size_one_seals_by_size(self, cost_model):
        table = generate_request_table(
            PoissonProcess(60.0), "BERT-B", count=80, seed=0
        )
        cost_model.prime(table.specs[0], table.valid_len)
        assert_engines_equal(table, cost_model, 1, 0.0, max_batch_size=1)
        assert_engines_equal(table, cost_model, 3, 5e-3, max_batch_size=1)

    def test_columnar_summary_equals_reference_summary(self, cost_model):
        table = generate_request_table(
            BurstyProcess(40.0, 150.0, 0.5, 0.1), "BERT-B", count=300, seed=1
        )
        cost_model.prime(table.specs[0], table.valid_len)
        fast = simulate_table(table, cost_model, num_devices=2)
        reference = ServingSimulator(
            [SprintDevice(i, cost_model) for i in range(2)],
            DynamicBatcher(8, 2e-3),
        ).run(table.to_requests())
        kwargs = dict(
            config="S-SPRINT", mode="sprint", pattern="bursty",
            offered_rps=40.0, sla_s=0.05,
        )
        assert summarize(fast, **kwargs) == summarize(reference, **kwargs)

    def test_experiment_fast_and_reference_reports_identical(self):
        reports = {
            engine: ServingExperiment(seed=2, engine=engine).simulate(
                "poisson", ExecutionMode.SPRINT, 40.0, 150
            )
            for engine in ("fast", "reference")
        }
        assert reports["fast"] == reports["reference"]

    @pytest.mark.parametrize("num_devices", (2, 4))
    def test_timeout_sealed_encoder_mix_equal(self, cost_model, num_devices):
        # Encoder capacity planning below saturation: batches rarely
        # fill, so nearly every one seals on timeout with one member.
        table = generate_request_table(
            PoissonProcess(150.0),
            {"BERT-B": 0.5, "BERT-L": 0.1, "ViT-B": 0.4},
            count=2000,
            seed=0,
        )
        for idx, spec in enumerate(table.specs):
            cost_model.prime(spec, table.valid_len[table.spec_idx == idx])
        fast = simulate_table(table, cost_model, num_devices=num_devices)
        assert fast.timeout_triggered_batches > 0.9 * fast.batches
        assert fast.batches > 0.8 * len(table)
        assert_engines_equal(table, cost_model, num_devices, 2e-3)

    def test_validation(self, cost_model):
        table = generate_request_table(PoissonProcess(10.0), "BERT-B", 10)
        with pytest.raises(ValueError):
            simulate_table(table, cost_model, num_devices=0)
        with pytest.raises(ValueError):
            simulate_table(table, cost_model, max_batch_size=0)
        with pytest.raises(ValueError):
            simulate_table(table, cost_model, max_wait_s=-1.0)
        dup = RequestTable(
            specs=table.specs,
            request_id=np.zeros(3, dtype=np.int64),
            arrival_s=np.arange(3, dtype=np.float64),
            spec_idx=np.zeros(3, dtype=np.int64),
            valid_len=np.full(3, 100, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            simulate_table(dup, cost_model)


def _scalar_form_batches(
    arrival: np.ndarray,
    request_id: np.ndarray,
    max_batch_size: int,
    max_wait_s: float,
    last_arrival_s: Optional[float] = None,
    horizon_s: Optional[float] = None,
):
    """The historical one-iteration-per-batch formation loop (oracle)."""
    if (last_arrival_s is None) == (horizon_s is None):
        raise ValueError("give exactly one of last_arrival_s / horizon_s")
    n = arrival.size
    if max_wait_s == 0.0:
        return (
            np.arange(n, dtype=np.int64),
            np.ones(n, dtype=np.int64),
            arrival.copy(),
            np.full(n, max_batch_size == 1, dtype=bool),
            arrival.copy(),
            request_id.copy(),
            n,
        )
    starts: List[int] = []
    counts: List[int] = []
    sealed: List[float] = []
    by_size: List[bool] = []
    tie_a: List[float] = []
    tie_i: List[int] = []
    i = 0
    while i < n:
        deadline = float(arrival[i]) + max_wait_s
        due = int(np.searchsorted(arrival, deadline, side="right"))
        take = min(max_batch_size, due - i)
        if take == max_batch_size:
            last = i + take - 1
            seal_at, size_trigger = float(arrival[last]), True
            anchor_a, anchor_i = float(arrival[last]), int(request_id[last])
        elif last_arrival_s is not None:
            seal_at = deadline if deadline <= last_arrival_s else last_arrival_s
            size_trigger = False
            anchor_a, anchor_i = float(arrival[i]), int(request_id[i])
        elif deadline < horizon_s:
            seal_at, size_trigger = deadline, False
            anchor_a, anchor_i = float(arrival[i]), int(request_id[i])
        else:
            break
        starts.append(i)
        counts.append(take)
        sealed.append(seal_at)
        by_size.append(size_trigger)
        tie_a.append(anchor_a)
        tie_i.append(anchor_i)
        i += take
    return (
        np.asarray(starts, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
        np.asarray(sealed, dtype=np.float64),
        np.asarray(by_size, dtype=bool),
        np.asarray(tie_a, dtype=np.float64),
        np.asarray(tie_i, dtype=np.int64),
        i,
    )


#: Arrival grid: multiples of 2**-10 s, so deadlines at the 2**-9 and
#: 2**-7 wait bounds land exactly on arrivals (exact float sums).
TICK = 2.0**-10


@st.composite
def formation_case(draw):
    ticks = draw(st.lists(st.integers(0, 40), min_size=1, max_size=60))
    arrival = np.sort(np.asarray(ticks, dtype=np.float64)) * TICK
    ids = np.asarray(draw(st.permutations(range(arrival.size))), dtype=np.int64)
    order = np.lexsort((ids, arrival))  # canonical: ties by request id
    arrival, ids = arrival[order], ids[order]
    knobs = dict(
        max_batch_size=draw(st.integers(1, 9)),
        max_wait_s=draw(st.sampled_from((0.0, 2.0**-9, 2.0**-7))),
    )
    if draw(st.booleans()):
        # Whole-stream mode: the global last arrival, at or after this
        # queue's own.
        knobs["last_arrival_s"] = float(arrival[-1]) + draw(st.integers(0, 8)) * TICK
    else:
        knobs["horizon_s"] = float(draw(st.sampled_from(arrival.tolist())))
    return arrival, ids, knobs


class TestBatchFormation:
    """The loop-free formation equals the scalar per-batch loop."""

    @given(formation_case())
    @settings(max_examples=400, deadline=None)
    def test_form_batches_matches_scalar_loop(self, case):
        arrival, ids, knobs = case
        fast = _form_batches(arrival, ids, **knobs)
        oracle = _scalar_form_batches(arrival, ids, **knobs)
        assert len(fast) == len(oracle) == 7
        for got, want in zip(fast[:6], oracle[:6]):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert type(fast[6]) is type(oracle[6]) is int
        assert fast[6] == oracle[6]


def _scalar_dispatch(
    sealed_s, service_s, energy_pj, size_sealed, tie_arrival, tie_id,
    free_at, busy_s, energy_by_device,
):
    """The historical one-iteration-per-batch k-device dispatch (oracle)."""
    n = sealed_s.size
    batch_start = np.empty(n, dtype=np.float64)
    batch_finish = np.empty(n, dtype=np.float64)
    batch_device = np.empty(n, dtype=np.int64)
    for b in np.lexsort((tie_id, tie_arrival, ~size_sealed, sealed_s)):
        start = sealed_s[b]
        earliest = min(free_at)
        if earliest > start:
            start = earliest
        for device in range(len(free_at)):
            if free_at[device] <= start:
                break
        service = float(service_s[b])
        finish = start + service
        free_at[device] = finish
        busy_s[device] += service
        energy_by_device[device] += float(energy_pj[b])
        batch_start[b] = start
        batch_finish[b] = finish
        batch_device[b] = device
    return batch_start, batch_finish, batch_device


@st.composite
def dispatch_case(draw):
    n = draw(st.integers(1, 60))
    ticks = st.integers(0, 40)
    sealed = np.asarray(draw(st.lists(ticks, min_size=n, max_size=n)), float) * TICK
    # Whole-tick service times make free times collide with seal
    # instants and with each other: the tie-breaking rules matter.
    service = np.asarray(
        draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)), float
    ) * TICK
    energy = np.asarray(
        draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n)), float
    )
    size_sealed = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    tie_arrival = sealed - np.asarray(
        draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float
    ) * TICK
    tie_id = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    k = draw(st.integers(1, 4))
    state = [
        [float(t) * TICK for t in draw(st.lists(ticks, min_size=k, max_size=k))],
        [float(x) for x in draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))],
        [float(x) for x in draw(st.lists(st.floats(0.0, 1e3), min_size=k, max_size=k))],
    ]
    return (sealed, service, energy, size_sealed, tie_arrival, tie_id), state


class TestDispatch:
    """Windowed k-device dispatch equals the scalar per-batch loop."""

    @given(dispatch_case())
    @settings(max_examples=300, deadline=None)
    def test_dispatch_matches_scalar_loop(self, case):
        batches, state = case
        fast_state = [list(column) for column in state]
        oracle_state = [list(column) for column in state]
        fast = _dispatch(*batches, *fast_state)
        oracle = _scalar_dispatch(*batches, *oracle_state)
        for got, want in zip(fast, oracle):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        for got, want in zip(fast_state, oracle_state):
            assert got == want
        # busy/energy folds stay plain floats (they land in results).
        assert all(type(x) is float for x in fast_state[1] + fast_state[2])

    def test_dispatch_window_boundaries(self):
        # More batches than one .tolist() window, on a loaded fleet.
        rng = np.random.default_rng(0)
        n = 3 * 4096 + 17
        sealed = np.cumsum(rng.integers(0, 3, n)) * TICK
        service = rng.integers(1, 8, n) * TICK
        batches = (
            sealed, service, rng.random(n), rng.random(n) < 0.3, sealed,
            rng.permutation(n).astype(np.int64),
        )
        fast_state = [[0.0] * 3, [0.0] * 3, [0.0] * 3]
        oracle_state = [[0.0] * 3, [0.0] * 3, [0.0] * 3]
        fast = _dispatch(*batches, *fast_state)
        oracle = _scalar_dispatch(*batches, *oracle_state)
        for got, want in zip(fast, oracle):
            assert got.tobytes() == want.tobytes()
        assert fast_state == oracle_state
        assert len(set(fast[2].tolist())) == 3


#: SHA-256 of the (id, repr(arrival), model, valid_len) stream, captured
#: from the pre-vectorization per-request generation loop.  Any drift in
#: the draw sequence -- process, mix, or length jitter -- breaks these.
GOLDEN_STREAMS = {
    "poisson_s0": "4708cccd361e3479572f9a2d840208bba08bcd027aa1a33dcdda99e5ecd72b3e",
    "poisson_s7": "bf80981b111f8ca5abf93fd2ba74a1ae4394997db1373d8af0a461cb26d76682",
    "bursty_s1": "9d8e3b7b256f5d1555e8ee4425b520d15ac1e71c03193c4a86510ada20b9267c",
    "trace_s0": "ea4a0fd03919c9979db3d0222a1f2940b11054b9a125106ec3f5d813dd12d495",
    "mix_s3": "ced0046942128ba5588be3ee063b5f12d3d90b11f30c9168e6297048d0f3e93a",
}

GOLDEN_CASES = {
    "poisson_s0": (lambda: PoissonProcess(80.0), "BERT-B", 500, 0),
    "poisson_s7": (lambda: PoissonProcess(40.0), "BERT-B", 300, 7),
    "bursty_s1": (lambda: BurstyProcess(40.0, 150.0, 0.5, 0.1), "BERT-B", 400, 1),
    "trace_s0": (lambda: TraceProcess([0.01, 0.02, 0.005]), "BERT-B", 200, 0),
    "mix_s3": (
        lambda: PoissonProcess(60.0),
        {"BERT-B": 0.5, "ViT-B": 0.3, "GPT-2-L": 0.2},
        400,
        3,
    ),
}


class TestVectorizedGeneration:
    @pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
    def test_generate_requests_byte_identical_to_pre_vectorization(self, name):
        process, mix, count, seed = GOLDEN_CASES[name]
        digest = hashlib.sha256()
        for r in generate_requests(process(), mix, count=count, seed=seed):
            digest.update(
                f"{r.request_id}:{r.arrival_s!r}:{r.spec.name}:{r.valid_len};".encode()
            )
        assert digest.hexdigest() == GOLDEN_STREAMS[name]

    def test_table_matches_per_request_sampling_loop(self):
        """The vectorized jitter draw consumes the generator exactly
        like one sample_valid_len call per padded request."""
        process = PoissonProcess(70.0)
        mix = {"BERT-B": 0.6, "ViT-B": 0.4}  # ViT pads nothing
        table = generate_request_table(process, mix, count=400, seed=11)
        rng = np.random.default_rng(11)
        specs = table.specs
        times = process.arrival_times(400, rng)
        picks = rng.choice(len(specs), size=400, p=np.array([0.6, 0.4]))
        assert np.array_equal(table.spec_idx, picks)
        assert np.array_equal(table.arrival_s, times)
        for i in range(400):
            assert int(table.valid_len[i]) == sample_valid_len(
                specs[int(picks[i])], rng
            )

    def test_table_round_trips_through_objects(self):
        table = generate_request_table(
            PoissonProcess(50.0), {"BERT-B": 0.5, "GPT-2-L": 0.5}, 200, seed=4
        )
        back = RequestTable.from_requests(table.to_requests())
        assert np.array_equal(back.request_id, table.request_id)
        assert np.array_equal(back.arrival_s, table.arrival_s)
        assert np.array_equal(back.valid_len, table.valid_len)
        # Spec lists may order differently (first occurrence vs mix
        # order); the per-row model assignment must survive either way.
        for i in range(len(table)):
            assert (
                back.specs[int(back.spec_idx[i])].name
                == table.specs[int(table.spec_idx[i])].name
            )

    def test_head_is_stream_prefix(self):
        table = generate_request_table(PoissonProcess(50.0), "BERT-B", 100, 0)
        head = table.head(10)
        assert len(head) == 10
        assert np.array_equal(head.arrival_s, table.arrival_s[:10])

    def test_table_validation(self):
        spec = get_model("BERT-B")
        with pytest.raises(ValueError):
            RequestTable(
                specs=[spec],
                request_id=np.arange(2),
                arrival_s=np.zeros(2),
                spec_idx=np.zeros(2, dtype=np.int64),
                valid_len=np.array([100, spec.seq_len + 1]),
            )
        with pytest.raises(ValueError):
            RequestTable(
                specs=[spec],
                request_id=np.arange(2),
                arrival_s=np.zeros(1),
                spec_idx=np.zeros(2, dtype=np.int64),
                valid_len=np.full(2, 10),
            )
        with pytest.raises(ValueError):
            RequestTable(
                specs=[spec],
                request_id=np.arange(1),
                arrival_s=np.zeros(1),
                spec_idx=np.ones(1, dtype=np.int64),
                valid_len=np.full(1, 10),
            )
