"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Every workload has the same shape.  ``setup(seed, size)`` builds the
inputs and pays the per-process cache fills a user pays on every CLI
run; ``run_pass(state)`` is one timed operation; ``check(state, out,
seconds)`` runs after the clock stops and turns the pass's outputs
into digests and simulated counts.

* ``paper-fast``: ``ExperimentPool(jobs=1, cache=None).run(all, fast=True)``,
  the work ``sprint-experiments --fast`` does.  Its inputs are the
  registry's ``--fast`` kwargs, which carry their own fixed seeds, so
  the workload seed does not enter and the digests are the same for
  every seed.
* ``serve-prefill`` / ``serve-decode`` / ``serve-faults``: one
  ``generate_request_table`` -> ``simulate_table`` ->
  ``summarize(exact=True)`` pass over traffic drawn from the seed.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

#: Serving knobs shared by the serve workloads.
NUM_DEVICES = 2
MAX_BATCH_SIZE = 8
MAX_WAIT_S = 2e-3
SLA_S = 0.1

#: Request counts per pass: the measured size and the size the smoke
#: tests run.
SERVE_COUNTS = {
    "serve-prefill": {"full": 200_000, "tiny": 2_000},
    "serve-decode": {"full": 12_000, "tiny": 300},
    "serve-faults": {"full": 12_000, "tiny": 300},
}
#: The tiny paper suite keeps the two experiments the fidelity figures
#: read.
FIDELITY_EXPERIMENTS = ("fig11", "fig12")

#: Simulated counts every serve pass reports; a speed-only change must
#: leave them bitwise unchanged.
COUNT_NAMES = (
    "serving.batches",
    "serving.size_sealed_frac",
    "serving.token_steps",
    "serving.failed_batches",
    "serving.retries",
    "serving.goodput_frac",
    "serving.wasted_energy_frac",
)


@dataclass
class PassOutcome:
    """What one pass produced, once checked."""

    #: Output digest per checked unit (an experiment, or the whole
    #: serving result).
    digests: Dict[str, str]
    #: Units that raised or failed an invariant, with the reason.
    errors: Dict[str, str]
    #: Work items the pass completed (experiments, requests or tokens).
    items: int
    counts: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def _fold(h, obj: Any) -> None:
    """Feed ``obj`` into hash ``h`` exactly, in a type-tagged encoding."""
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"nd:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"dc:{type(obj).__name__}".encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _fold(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(f"dict:{len(obj)}".encode())
        for key in sorted(obj, key=str):
            h.update(str(key).encode())
            _fold(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq:{len(obj)}".encode())
        for item in obj:
            _fold(h, item)
    elif isinstance(obj, enum.Enum):
        _fold(h, obj.value)
    elif isinstance(obj, (str, int, float, bool, np.generic)) or obj is None:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(*objs: Any) -> str:
    h = hashlib.sha256()
    for obj in objs:
        _fold(h, obj)
    return h.hexdigest()[:32]


def artifact_digest(artifact) -> str:
    """An artifact's rows and printed table; ``code_version`` and
    ``cache_key`` hash the source tree and are left out."""
    rows = json.dumps(artifact.rows, sort_keys=True)
    return digest(artifact.name, rows, artifact.table)


def _geomean_err(rows, value_key: str, paper: Dict[str, float]) -> float:
    """Mean |measured geomean / paper geomean - 1| over the paper's configs."""
    errs = []
    for config, target in paper.items():
        values = [r[value_key] for r in rows if r["config"] == config]
        geomean = math.exp(sum(map(math.log, values)) / len(values))
        errs.append(abs(geomean / target - 1))
    return sum(errs) / len(errs)


def fidelity(outcomes) -> Dict[str, float]:
    """The simulator's distance from the paper's fig11/fig12 geomeans."""
    from repro.experiments.paper_reference import FIG11_GEOMEAN, FIG12_GEOMEAN

    return {
        "fidelity.speedup_err": _geomean_err(
            outcomes["fig11"].artifact.rows, "speedup", FIG11_GEOMEAN
        ),
        "fidelity.energy_err": _geomean_err(
            outcomes["fig12"].artifact.rows, "energy_reduction", FIG12_GEOMEAN
        ),
    }


def check_artifacts(outcomes) -> PassOutcome:
    digests, errors = {}, {}
    for name, outcome in outcomes.items():
        if not outcome.ok:
            errors[name] = outcome.error
        else:
            digests[name] = artifact_digest(outcome.artifact)
    return PassOutcome(digests=digests, errors=errors, items=len(outcomes))


# ----------------------------------------------------------------------
# paper-fast
# ----------------------------------------------------------------------
class PaperFast:
    name = "paper-fast"

    def setup(self, seed: int, size: str) -> Dict[str, Any]:
        from repro.experiments import registry
        from repro.runtime.pool import ExperimentPool

        names = list(registry.EXPERIMENTS if size == "full" else FIDELITY_EXPERIMENTS)
        return {"pool": ExperimentPool(jobs=1, cache=None), "names": names}

    def input_digest(self, state) -> str:
        from repro.experiments import registry

        return digest([(n, registry.resolve(n, fast=True)[0]) for n in state["names"]])

    def run_pass(self, state):
        return state["pool"].run(state["names"], fast=True)

    def check(self, state, outcomes, seconds: float) -> PassOutcome:
        out = check_artifacts(outcomes)
        out.counts = dict.fromkeys(COUNT_NAMES, 0)
        experiment_s = sum(o.seconds for o in outcomes.values())
        out.extra["runtime.overhead_s"] = seconds - experiment_s
        # The fidelity figures need only fig11 and fig12; a failure
        # elsewhere is counted by the digests, not here.
        if all(name in out.digests for name in FIDELITY_EXPERIMENTS):
            try:
                out.extra.update(fidelity(outcomes))
            except Exception as exc:  # noqa: BLE001 - a failed output check
                out.errors["fidelity"] = f"{type(exc).__name__}: {exc}"
        return out


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
class Serve:
    """One serving deployment; subclasses fix the traffic."""

    name = ""
    rate_rps = 0.0
    #: Items a pass's throughput counts: "requests" or "tokens".
    unit = "requests"

    def traffic(self, seed: int, count: int) -> Dict[str, Any]:
        raise NotImplementedError

    def faults(self, seed: int, count: int) -> Dict[str, Any]:
        return {}

    def setup(self, seed: int, size: str) -> Dict[str, Any]:
        from repro.core.configs import S_SPRINT
        from repro.core.system import ExecutionMode
        from repro.serving import ServiceCostModel, generate_request_table

        count = SERVE_COUNTS[self.name][size]
        gen_kwargs = self.traffic(seed, count)
        table = generate_request_table(**gen_kwargs)
        cost = ServiceCostModel(S_SPRINT, ExecutionMode.SPRINT)
        buckets = 0
        for i, spec in enumerate(table.specs):
            lens = table.valid_len[table.spec_idx == i]
            if table.output_len is not None:
                # Decode engines build cost vectors over every context
                # up to the model window; prime all of those buckets.
                lens = np.arange(1, spec.seq_len + 1)
            buckets += cost.prime(spec, lens)
        sim_kwargs = dict(
            num_devices=NUM_DEVICES,
            max_batch_size=MAX_BATCH_SIZE,
            max_wait_s=MAX_WAIT_S,
            **self.faults(seed, count),
        )
        return {
            "gen_kwargs": gen_kwargs,
            "sim_kwargs": sim_kwargs,
            "cost": cost,
            "table": table,
            "buckets": buckets,
        }

    def input_digest(self, state) -> str:
        faults = state["sim_kwargs"].get("faults")
        outages = [(t.down_s, t.up_s) for t in faults.traces] if faults else None
        return digest(state["table"], outages)

    def run_pass(self, state):
        from repro.serving import generate_request_table, simulate_table, summarize

        table = generate_request_table(**state["gen_kwargs"])
        result = simulate_table(table, state["cost"], **state["sim_kwargs"])
        report = summarize(
            result,
            config="S-SPRINT",
            mode="sprint",
            pattern="poisson",
            offered_rps=self.rate_rps,
            sla_s=SLA_S,
            exact=True,
        )
        return table, result, report

    def check(self, state, out, seconds: float) -> PassOutcome:
        table, result, report = out
        offered = len(table)
        errors = {}
        if not np.array_equal(table.arrival_s, state["table"].arrival_s):
            errors["inputs"] = "regenerated table differs from the set-up table"
        problem = self.invariant_error(table, result, report)
        if problem:
            errors["result"] = problem
        energy = report.energy_uj
        counts = {
            "serving.batches": result.batches,
            "serving.size_sealed_frac": result.size_triggered_batches
            / max(1, result.size_triggered_batches + result.timeout_triggered_batches),
            "serving.token_steps": report.total_tokens,
            "serving.failed_batches": report.failed_batches,
            "serving.retries": report.retries,
            "serving.goodput_frac": report.requests / offered,
            "serving.wasted_energy_frac": (
                report.wasted_energy_uj / energy if energy else 0.0
            ),
        }
        items = offered if self.unit == "requests" else report.total_tokens
        return PassOutcome(
            digests={"result": digest(result, report)},
            errors=errors,
            items=items,
            counts=counts,
        )

    def invariant_error(self, table, result, report) -> Optional[str]:
        offered = len(table)
        if report.requests + report.dropped_requests != offered:
            return "completed + dropped != offered"
        if not 0.0 < report.utilization <= 1.0:
            return "utilization outside (0, 1]"
        return None


class ServePrefill(Serve):
    name = "serve-prefill"
    rate_rps = 150.0

    def traffic(self, seed, count):
        from repro.serving import PoissonProcess

        return dict(
            process=PoissonProcess(rate_rps=self.rate_rps),
            mix={"BERT-B": 0.5, "BERT-L": 0.1, "ViT-B": 0.4},
            count=count,
            seed=seed,
        )

    def invariant_error(self, table, result, report):
        problem = super().invariant_error(table, result, report)
        if problem:
            return problem
        arrival = result.table.arrival_s
        if not (
            np.all(result.batched_s >= arrival)
            and np.all(result.service_start_s >= result.batched_s)
            and np.all(result.finish_s > result.service_start_s)
        ):
            return "a request finished before it arrived, batched or started"
        if result.batch_size.min() < 1 or result.batch_size.max() > MAX_BATCH_SIZE:
            return "batch size outside [1, max_batch_size]"
        return None


class ServeDecode(Serve):
    name = "serve-decode"
    rate_rps = 20.0
    unit = "tokens"

    def traffic(self, seed, count):
        from repro.serving import PoissonProcess

        return dict(
            process=PoissonProcess(rate_rps=self.rate_rps),
            mix="BERT-B",
            count=count,
            seed=seed,
            mean_output_tokens=64,
        )

    def invariant_error(self, table, result, report):
        problem = super().invariant_error(table, result, report)
        if problem:
            return problem
        if report.total_tokens != int(table.output_len.sum()):
            return "tokens generated != tokens requested"
        if not (
            np.all(result.first_token_s > result.arrival_s)
            and np.all(result.finish_s >= result.first_token_s)
        ):
            return "a token finished before its request arrived"
        return None


class ServeFaults(ServeDecode):
    name = "serve-faults"

    def traffic(self, seed, count):
        # Drawn last by the generator, so every other column equals
        # serve-decode's.
        return dict(super().traffic(seed, count), deadline_range_s=(5.0, 10.0))

    def faults(self, seed, count):
        from repro.serving import FaultSchedule, RetryPolicy

        span_s = count / self.rate_rps
        return dict(
            faults=FaultSchedule.exponential(
                NUM_DEVICES, mtbf_s=2.0, mttr_s=0.5, horizon_s=4 * span_s, seed=seed
            ),
            retry=RetryPolicy(max_attempts=3, backoff_base_s=1e-3),
        )

    def invariant_error(self, table, result, report):
        offered = len(table)
        if result.completed_count + result.dropped_count != offered:
            return "completed + dropped != offered"
        if report.requests + report.dropped_requests != offered:
            return "report: completed + dropped != offered"
        if report.total_tokens > int(table.output_len.sum()):
            return "more tokens generated than requested"
        done = result.completed
        if not np.all(result.finish_s[done] >= result.first_token_s[done]):
            return "a token finished before its first token"
        return None


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (PaperFast(), ServePrefill(), ServeDecode(), ServeFaults())
}
