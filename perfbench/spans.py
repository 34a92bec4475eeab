"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: :func:`instrument`
wraps the public calls at each layer boundary of ``repro`` (class
methods in place, module functions in every ``repro`` module that
imported them by name), so nothing inside the program changes.  Each
span keeps its name, start, end, parent and run id; spans stay in
memory until the child process ends, when the folds below turn them
into per-layer self times and call counts.

The benchmark is serial (one thread), so spans nest as a stack.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str


class SpanRecorder:
    """Stack-nested spans of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.run_id = "setup"

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    # The folds below weight each span by ``weight(run_id)``, so one
    # call can sum the set-up and average the passes.
    def self_times(self, weight: Callable[[str], float]) -> Dict[str, float]:
        """Per span name: duration minus the time child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        out: Dict[str, float] = {}
        for span, child_s in zip(self.spans, covered):
            value = weight(span.run_id) * (span.end - span.start - child_s)
            out[span.name] = out.get(span.name, 0.0) + value
        return out

    def outer_times(self, weight: Callable[[str], float]) -> Dict[str, float]:
        """Per span name: duration of the spans with no same-named ancestor."""
        out: Dict[str, float] = {}
        for span in self.spans:
            ancestor = span.parent
            while ancestor is not None and self.spans[ancestor].name != span.name:
                ancestor = self.spans[ancestor].parent
            if ancestor is None:
                value = weight(span.run_id) * (span.end - span.start)
                out[span.name] = out.get(span.name, 0.0) + value
        return out

    def calls(self, weight: Callable[[str], float]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + weight(span.run_id)
        return out


def _wrap_function(recorder: SpanRecorder, module, attr: str, name: str) -> None:
    """Replace ``module.attr`` wherever a ``repro`` module bound it by name."""
    original = getattr(module, attr)
    traced = recorder.wrap(original, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "repro" and getattr(mod, attr, None) is original:
            setattr(mod, attr, traced)


def _wrap_method(recorder: SpanRecorder, cls, attr: str, name: str) -> None:
    if attr in vars(cls):
        setattr(cls, attr, recorder.wrap(vars(cls)[attr], name))


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics name."""
    from repro.attention import policies
    from repro.core.system import SprintSystem
    from repro.experiments import registry, sweep
    from repro.models.transformer import TransformerClassifier
    from repro.serving import arrivals, devices, engine, metrics

    # L0: the functional attention / accuracy path.
    stack = [policies.ScorePolicy]
    while stack:
        cls = stack.pop()
        _wrap_method(recorder, cls, "process", "attention.policy")
        stack.extend(cls.__subclasses__())
    _wrap_method(recorder, TransformerClassifier, "predict", "models.predict")
    # L1: the cycle and energy model.
    for attr in ("simulate_workload", "simulate_modes", "simulate_model"):
        _wrap_method(recorder, SprintSystem, attr, "core.simulate")
    for attr in ("grid", "simulate"):
        _wrap_function(recorder, sweep, attr, "experiments.sweep")
    for name, (_, module) in registry.EXPERIMENTS.items():
        module.run = recorder.wrap(module.run, f"experiments.{name}")
    # L2: the serving cost model.
    _wrap_method(recorder, devices.ServiceCostModel, "prime", "serving.devices.prime")
    for attr in ("cost_arrays", "decode_cost_arrays"):
        _wrap_method(
            recorder, devices.ServiceCostModel, attr, "serving.devices.cost_lookup"
        )
    # L3: the serving engines; L4: reporting.  (L5, the runtime, is
    # timed by the pass itself: pool wall time minus experiment time.)
    _wrap_function(recorder, arrivals, "generate_request_table", "serving.arrivals")
    _wrap_function(recorder, engine, "simulate_table", "serving.engine")
    _wrap_function(recorder, metrics, "summarize", "serving.metrics.summarize")
