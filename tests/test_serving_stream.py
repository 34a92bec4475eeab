"""Out-of-core serving equivalence suite.

The chunked path's contract is the same *exact* equality the fast
engine pins against the reference loop, extended to streaming:

* :class:`RequestStream` chunks concatenate bitwise equal to one
  whole-stream ``generate_request_table`` call, at every chunk size;
* :func:`simulate_stream` reproduces :func:`simulate_table` bitwise --
  every per-request column, device fold, and batch counter -- at every
  chunk size, device count, wait bound, and thread count, including
  chunk boundaries that split an unsealed batch;
* the threaded phase-1 and the shared-memory sharded paths are
  byte-identical to serial at every ``threads`` / ``jobs`` count;
* :func:`summarize_stream` matches the exact whole-table ``summarize``
  on every exact field, and within the sketch's documented relative
  error bound on percentiles.
"""

import numpy as np
import pytest

from repro.core.configs import S_SPRINT
from repro.core.system import ExecutionMode
from repro.experiments.serving import ServingExperiment
from repro.obs.streaming import StreamingHistogram
from repro.runtime.pool import simulate_table_sharded
from repro.serving import (
    BurstyProcess,
    PoissonProcess,
    RequestStream,
    TraceProcess,
    generate_request_table,
    shared_cost_model,
    simulate_stream,
    simulate_table,
    summarize,
    summarize_stream,
)

PATTERNS = ("poisson", "bursty", "trace")
CHUNK_SIZES = (1, 7, 1000, 10_000)
MIX = {"BERT-B": 2.0, "BERT-L": 1.0, "ViT-B": 1.0, "ALBERT-XL": 0.5}


def make_process(pattern):
    return {
        "poisson": PoissonProcess(rate_rps=120.0),
        "bursty": BurstyProcess(40.0, 150.0, 0.5, 0.1),
        "trace": TraceProcess([0.01, 0.002, 0.005]),
    }[pattern]


@pytest.fixture(scope="module")
def cost_model():
    return shared_cost_model(S_SPRINT, ExecutionMode.SPRINT)


def table_chunks(table, size):
    """Slice a (sorted) table into consecutive chunks of ``size`` rows."""
    return [
        table.slice(lo, min(lo + size, len(table)))
        for lo in range(0, len(table), size)
    ]


def assert_tables_equal(a, b):
    assert [s.name for s in a.specs] == [s.name for s in b.specs]
    assert np.array_equal(a.request_id, b.request_id)
    assert np.array_equal(a.arrival_s, b.arrival_s)
    assert np.array_equal(a.spec_idx, b.spec_idx)
    assert np.array_equal(a.valid_len, b.valid_len)


def run_stream(chunks, cost, **kwargs):
    """simulate_stream with a collecting sink -> (result, sorted columns)."""
    collected = []
    result = simulate_stream(chunks, cost, sink=collected.append, **kwargs)
    cols = {
        name: np.concatenate([getattr(c, name) for c in collected])
        for name in (
            "request_id",
            "arrival_s",
            "spec_idx",
            "valid_len",
            "batched_s",
            "service_start_s",
            "finish_s",
            "batch_size",
            "device_id",
        )
    }
    order = np.lexsort((cols["request_id"], cols["arrival_s"]))
    return result, {name: col[order] for name, col in cols.items()}


def assert_stream_matches_table(chunks, table, cost, **kwargs):
    whole = simulate_table(table, cost, **kwargs)
    result, cols = run_stream(chunks, cost, **kwargs)
    assert result.completed == whole.completed
    assert np.array_equal(cols["request_id"], whole.table.request_id)
    assert np.array_equal(cols["arrival_s"], whole.table.arrival_s)
    assert np.array_equal(cols["spec_idx"], whole.table.spec_idx)
    assert np.array_equal(cols["valid_len"], whole.table.valid_len)
    assert np.array_equal(cols["batched_s"], whole.batched_s)
    assert np.array_equal(cols["service_start_s"], whole.service_start_s)
    assert np.array_equal(cols["finish_s"], whole.finish_s)
    assert np.array_equal(cols["batch_size"], whole.batch_size)
    assert np.array_equal(cols["device_id"], whole.device_id)
    assert result.start_s == whole.start_s
    assert result.end_s == whole.end_s
    assert result.device_busy_s == whole.device_busy_s
    assert result.device_energy_pj == whole.device_energy_pj
    assert result.batches == whole.batches
    assert result.size_triggered_batches == whole.size_triggered_batches
    assert result.timeout_triggered_batches == whole.timeout_triggered_batches


# ----------------------------------------------------------------------
# RequestStream: chunked generation bitwise equals the whole-stream call
# ----------------------------------------------------------------------
class TestRequestStreamBitwise:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_chunks_concatenate_to_whole_table(self, pattern, chunk_size):
        process = make_process(pattern)
        whole = generate_request_table(process, MIX, count=3000, seed=11)
        stream = RequestStream(
            process, MIX, count=3000, seed=11, chunk_size=chunk_size
        )
        assert_tables_equal(stream.materialize(), whole)

    @pytest.mark.parametrize("seed", (0, 3, 9))
    @pytest.mark.parametrize(
        "mix", ("BERT-B", {"GPT-2-L": 1.0, "Synth-1": 3.0})
    )
    def test_mixes_and_seeds(self, seed, mix):
        process = PoissonProcess(rate_rps=250.0)
        whole = generate_request_table(process, mix, count=777, seed=seed)
        stream = RequestStream(
            process, mix, count=777, seed=seed, chunk_size=100
        )
        assert_tables_equal(stream.materialize(), whole)

    def test_start_id_offset(self):
        stream = RequestStream(
            PoissonProcess(50.0), "BERT-B", count=10, start_id=400
        )
        table = stream.materialize()
        assert np.array_equal(
            table.request_id, 400 + np.arange(10, dtype=np.int64)
        )

    def test_reiterable(self):
        stream = RequestStream(
            BurstyProcess(40.0, 150.0, 0.5, 0.1),
            MIX,
            count=500,
            seed=2,
            chunk_size=64,
        )
        assert_tables_equal(stream.materialize(), stream.materialize())

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RequestStream(PoissonProcess(50.0), "BERT-B", count=0)
        with pytest.raises(ValueError):
            RequestStream(
                PoissonProcess(50.0), "BERT-B", count=5, chunk_size=0
            )


# ----------------------------------------------------------------------
# simulate_stream: bitwise equal to simulate_table at every chunking
# ----------------------------------------------------------------------
class TestStreamDriverBitwise:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_chunk_sizes_and_patterns(self, pattern, chunk_size, cost_model):
        table = generate_request_table(
            make_process(pattern), MIX, count=1500, seed=4
        )
        assert_stream_matches_table(
            table_chunks(table, chunk_size), table, cost_model
        )

    @pytest.mark.parametrize("num_devices", (1, 2, 4))
    @pytest.mark.parametrize("max_wait_s", (0.0, 2e-3))
    def test_devices_and_waits(self, num_devices, max_wait_s, cost_model):
        # chunk_size=7 guarantees many boundaries land mid-batch: an
        # unsealed tail (and, with max_wait > 0, a not-yet-expired
        # timeout batch) must carry across the boundary unchanged.
        table = generate_request_table(
            make_process("bursty"), MIX, count=900, seed=6
        )
        assert_stream_matches_table(
            table_chunks(table, 7),
            table,
            cost_model,
            num_devices=num_devices,
            max_wait_s=max_wait_s,
        )

    def test_request_stream_end_to_end(self, cost_model):
        # The generator path (never materialized by the driver) equals
        # the whole-table run on the materialized equivalent.
        stream = RequestStream(
            PoissonProcess(200.0), MIX, count=2000, seed=13, chunk_size=333
        )
        assert_stream_matches_table(
            stream, stream.materialize(), cost_model, num_devices=2
        )

    def test_rejects_out_of_order_chunks(self, cost_model):
        table = generate_request_table(
            PoissonProcess(100.0), "BERT-B", count=100, seed=0
        )
        chunks = table_chunks(table, 50)
        with pytest.raises(ValueError):
            simulate_stream([chunks[1], chunks[0]], cost_model)

    def test_rejects_spec_mismatch(self, cost_model):
        a = generate_request_table(
            PoissonProcess(100.0), "BERT-B", count=50, seed=0
        )
        b = generate_request_table(
            PoissonProcess(100.0), "BERT-L", count=50, seed=0
        )
        b = type(b)(
            specs=b.specs,
            request_id=b.request_id + 100,
            arrival_s=b.arrival_s + float(a.arrival_s[-1]) + 1.0,
            spec_idx=b.spec_idx,
            valid_len=b.valid_len,
        )
        with pytest.raises(ValueError):
            simulate_stream([a, b], cost_model)

    def test_rejects_empty_stream(self, cost_model):
        with pytest.raises(ValueError):
            simulate_stream([], cost_model)


# ----------------------------------------------------------------------
# Parallel paths: threads and process shards are byte-identical
# ----------------------------------------------------------------------
class TestParallelEquivalence:
    @pytest.mark.parametrize("threads", (1, 2, 4))
    def test_threaded_simulate_table(self, threads, cost_model):
        table = generate_request_table(
            make_process("bursty"), MIX, count=2000, seed=8
        )
        base = simulate_table(table, cost_model, num_devices=2)
        out = simulate_table(
            table, cost_model, num_devices=2, threads=threads
        )
        assert np.array_equal(out.finish_s, base.finish_s)
        assert np.array_equal(out.batched_s, base.batched_s)
        assert np.array_equal(out.device_id, base.device_id)
        assert out.device_busy_s == base.device_busy_s
        assert out.device_energy_pj == base.device_energy_pj

    @pytest.mark.parametrize("threads", (1, 2, 4))
    def test_threaded_simulate_stream(self, threads, cost_model):
        table = generate_request_table(
            make_process("poisson"), MIX, count=1500, seed=8
        )
        assert_stream_matches_table(
            table_chunks(table, 250), table, cost_model, threads=threads
        )

    @pytest.mark.parametrize("jobs", (1, 2, 4))
    def test_sharded_simulate_table(self, jobs, cost_model):
        table = generate_request_table(
            make_process("trace"), MIX, count=1200, seed=5,
            deadline_range_s=(0.05, 0.5),
        )
        base = simulate_table(table, cost_model, num_devices=2)
        out = simulate_table_sharded(
            table, cost_model, jobs=jobs, num_devices=2
        )
        assert np.array_equal(out.table.deadline_s, base.table.deadline_s)
        assert np.array_equal(out.finish_s, base.finish_s)
        assert np.array_equal(out.batched_s, base.batched_s)
        assert np.array_equal(out.service_start_s, base.service_start_s)
        assert np.array_equal(out.device_id, base.device_id)
        assert out.device_busy_s == base.device_busy_s
        assert out.device_energy_pj == base.device_energy_pj
        assert out.batches == base.batches


# ----------------------------------------------------------------------
# summarize_stream: exact aggregates, sketch-bounded percentiles
# ----------------------------------------------------------------------
class TestSummarizeStream:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_matches_exact_summary(self, pattern, cost_model):
        table = generate_request_table(
            make_process(pattern), MIX, count=2500, seed=3
        )
        exact = summarize(
            simulate_table(table, cost_model),
            config=S_SPRINT.name,
            mode="sprint",
            pattern=pattern,
            offered_rps=120.0,
            sla_s=0.05,
        )
        streamed = summarize_stream(
            table_chunks(table, 400),
            cost_model,
            config=S_SPRINT.name,
            mode="sprint",
            pattern=pattern,
            offered_rps=120.0,
            sla_s=0.05,
        )
        assert streamed.requests == exact.requests
        assert streamed.duration_s == exact.duration_s
        assert streamed.throughput_rps == exact.throughput_rps
        assert streamed.utilization == exact.utilization
        assert streamed.energy_uj == exact.energy_uj
        assert streamed.sla_violations == exact.sla_violations
        assert streamed.mean_batch_size == pytest.approx(
            exact.mean_batch_size, rel=1e-12
        )
        bound = StreamingHistogram().rel_error_bound
        for attr in ("p50_s", "p95_s", "p99_s"):
            assert getattr(streamed.latency, attr) == pytest.approx(
                getattr(exact.latency, attr), rel=bound
            )
            assert getattr(streamed.queue_wait, attr) == pytest.approx(
                getattr(exact.queue_wait, attr), rel=bound
            )
        assert streamed.latency.max_s == exact.latency.max_s
        assert streamed.latency.mean_s == pytest.approx(
            exact.latency.mean_s, rel=1e-9
        )

    def test_stream_engine_experiment_point(self):
        fast = ServingExperiment(engine="fast")
        stream = ServingExperiment(engine="stream")
        mode = ExecutionMode.SPRINT
        a = fast.simulate("poisson", mode, 40.0, 1000)
        b = stream.simulate("poisson", mode, 40.0, 1000)
        assert b.requests == a.requests
        assert b.duration_s == a.duration_s
        assert b.throughput_rps == a.throughput_rps
        assert b.utilization == a.utilization
        assert b.energy_uj == a.energy_uj
        assert b.sla_violations == a.sla_violations

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            ServingExperiment(engine="chunky")


# ----------------------------------------------------------------------
# RequestTable.head / slice (satellite S6)
# ----------------------------------------------------------------------
class TestTableSlicing:
    @pytest.fixture(scope="class")
    def table(self):
        return generate_request_table(
            PoissonProcess(100.0), MIX, count=50, seed=1
        )

    def test_head_validates_count(self, table):
        with pytest.raises(ValueError):
            table.head(51)
        assert len(table.head(50)) == 50

    def test_slice_bounds(self, table):
        with pytest.raises(ValueError):
            table.slice(-1, 10)
        with pytest.raises(ValueError):
            table.slice(10, 10)
        with pytest.raises(ValueError):
            table.slice(10, 51)

    def test_slice_copies(self, table):
        part = table.slice(10, 20)
        assert len(part) == 10
        assert np.array_equal(part.request_id, table.request_id[10:20])
        part.arrival_s[0] = -1.0
        assert table.arrival_s[10] != -1.0

    def test_head_equals_slice_prefix(self, table):
        assert_tables_equal(table.head(10), table.slice(0, 10))
