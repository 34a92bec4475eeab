"""One fresh interpreter of a benchmark run: set up, then timed passes.

Usage (spawned by ``run.py``, one JSON config argument)::

    python3 perfbench/child.py '{"workload": "serve-decode", "seed": 0,
        "size": "full", "slice_s": 5.0, "traced": false}'

Set-up time runs from the first statement below, before ``repro`` is
imported, to the first timed pass.  Passes repeat while the next one
would end mostly inside ``slice_s`` (at least one runs).  The last
stdout line is a JSON object with the set-up time, every pass's
seconds, items, digests and counts, the process's peak RSS, the
environment stamp and, when traced, the per-layer metrics.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def layer_metrics(recorder, passes, buckets: int) -> dict:
    """Per-layer figures of one set-up plus one average pass."""
    n = max(1, len(passes))

    def weight(run_id: str) -> float:
        return 1.0 if run_id == "setup" else 1.0 / n

    self_s = recorder.self_times(weight)
    outer_s = recorder.outer_times(weight)
    calls = recorder.calls(weight)
    batches = sum(p.get("counts", {}).get("serving.batches", 0) for p in passes) / n
    engine_s = self_s.get("serving.engine", 0.0)
    return {
        "attention.policy_calls": calls.get("attention.policy", 0.0),
        "attention.policy_s": self_s.get("attention.policy", 0.0),
        "models.predict_calls": calls.get("models.predict", 0.0),
        "experiments.fig5_s": outer_s.get("experiments.fig5", 0.0),
        "experiments.fig9_s": outer_s.get("experiments.fig9", 0.0),
        "core.simulate_calls": calls.get("core.simulate", 0.0),
        "core.simulate_s": self_s.get("core.simulate", 0.0),
        "experiments.sweep_s": outer_s.get("experiments.sweep", 0.0),
        "experiments.ablations_s": outer_s.get("experiments.ablations", 0.0),
        "experiments.sensitivity_s": outer_s.get("experiments.sensitivity", 0.0),
        "serving.devices.prime_s": outer_s.get("serving.devices.prime", 0.0),
        "serving.devices.buckets": buckets,
        "serving.devices.cost_lookup_s": self_s.get("serving.devices.cost_lookup", 0.0),
        "serving.arrivals_s": self_s.get("serving.arrivals", 0.0),
        "serving.engine_s": engine_s,
        "serving.us_per_batch": engine_s * 1e6 / batches if batches else 0.0,
        "serving.metrics.summarize_s": self_s.get("serving.metrics.summarize", 0.0),
        "runtime.overhead_s": sum(
            p.get("extra", {}).get("runtime.overhead_s", 0.0) for p in passes
        )
        / n,
        "trace.spans": sum(calls.values()),
    }


def run_passes(workload, state, slice_s: float, recorder=None) -> list:
    """Timed, checked passes while the next would end mostly inside
    ``slice_s`` (at least one runs).  A pass that raises is kept as
    ``{"raised": True}``: a failed operation, not a crash."""
    passes = []
    deadline = time.perf_counter() + slice_s
    while not passes or time.perf_counter() + passes[-1]["seconds"] / 2 < deadline:
        if recorder is not None:
            recorder.run_id = f"pass{len(passes)}"
        start = time.perf_counter()
        try:
            out = workload.run_pass(state)
            seconds = time.perf_counter() - start
            checked = workload.check(state, out, seconds)
            del out
        except Exception:  # noqa: BLE001 - a raising pass is a failed operation
            traceback.print_exc(file=sys.stderr)
            passes.append({"seconds": time.perf_counter() - start, "raised": True})
            continue
        passes.append(
            {
                "seconds": seconds,
                "items": checked.items,
                "digests": checked.digests,
                "errors": checked.errors,
                "counts": checked.counts,
                "extra": checked.extra,
            }
        )
    return passes


def main(cfg: dict) -> dict:
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS[cfg["workload"]]
    recorder = None
    if cfg["traced"]:
        from spans import SpanRecorder, instrument

        recorder = SpanRecorder()
        instrument(recorder)
    state = workload.setup(cfg["seed"], cfg["size"])
    setup_s = time.perf_counter() - T0

    passes = run_passes(workload, state, cfg["slice_s"], recorder)

    from repro.runtime.cache import code_version

    result = {
        "setup_s": setup_s,
        "passes": passes,
        "input_digest": workload.input_digest(state),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "source": code_version(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, passes, state.get("buckets", 0))
    return result


if __name__ == "__main__":
    config = json.loads(sys.argv[1])
    # Anything the program prints goes to stderr; stdout carries only
    # the result line.
    with contextlib.redirect_stdout(sys.stderr):
        output = main(config)
    print(json.dumps(output))
