"""The repository benchmark: one workload, checked, every metric by name.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-decode --seed 0 --seconds 20 --trace 0

Each set-up and its timed passes run in a fresh interpreter
(``child.py``), because a user pays the process-level cache fills on
every CLI run.  Children run one after another, never in parallel:
the caller is a closed loop with one client, one pass at a time.
Simulated arrivals stay open-loop Poisson in simulated time.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
with tracing off.  ``--trace 1`` alternates untraced and traced
children and reports the per-layer metrics from the traced ones, plus
the tracing overhead between the two.  Every pass's outputs are
checked against the digests pinned in ``digests.json`` (the default
seed and one held-out seed; ``paper-fast`` does not depend on the
seed), or, for a seed without a pin, against the run's first pass.
A pass that raises or fails its check is a failed operation.  The
last stdout line is the JSON result; the line before it is the run's
record, stamped with commit, CPU count, python and numpy versions.

Exits non-zero without a result when the program source is missing or
a child fails outside a pass.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters per serve run; each set-up is one ``setup_s``
#: sample.  A paper-fast child runs exactly one suite pass.
SERVE_CHILDREN = 3
#: Every run must end well inside three minutes.
HARD_LIMIT_S = 170.0


def git_commit(root: Path) -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def spawn(cfg: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise RuntimeError("out of time before a child could start")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        timeout=remaining,
        text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {cfg} exited with code {proc.returncode}")
    return json.loads(lines[-1])


class Checker:
    """Counts operations and failures against pinned or first-seen digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, workload: str, passes: List[dict], pinned: Dict[str, str]) -> None:
        """``pinned`` maps unit -> digest; a unit without a pin is pinned
        to its first digest seen."""
        for p in passes:
            if p.get("raised"):
                # A raising pass loses every operation it held.
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"{workload}: a pass raised")
                continue
            units = sorted(set(p["digests"]) | set(p["errors"]))
            for unit in units:
                self.attempted += 1
                got = p["digests"].get(unit)
                want = pinned.setdefault(unit, got)
                if unit in p["errors"] or got != want:
                    self.failed += 1
                    reason = p["errors"].get(unit) or f"digest {got} != {want}"
                    self.problems.append(f"{workload}/{unit}: {reason}")


def median(values) -> float:
    return float(statistics.median(values))


def pins_for(workload: str, seed: int, size: str) -> Dict[str, str]:
    """Pinned digests: per experiment for paper-fast (any seed, any
    size), per seed for the full-size serve workloads."""
    if size != "full" and workload != "paper-fast":
        return {}
    entry = json.loads((HERE / "digests.json").read_text()).get(workload, {})
    return dict(entry.get("any") or entry.get(str(seed)) or {})


def main(argv=None) -> int:
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not bench_file.is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, help="default: BENCHMARK.json's run_seconds"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: a seconds-long smoke run (unpinned, for the tests)",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    paper = args.workload == "paper-fast"
    base = {"workload": args.workload, "seed": args.seed, "size": args.size}
    slice_s = 0.0 if paper else args.seconds / SERVE_CHILDREN

    children: List[dict] = []
    traced_flags: List[bool] = []
    last_s = 0.0

    def more() -> bool:
        if args.trace and len(set(traced_flags)) < 2:
            return True  # a traced run needs a child of each kind
        if not paper:
            return len(children) < SERVE_CHILDREN
        # One suite pass per child: start another while it would end
        # mostly inside the budget.
        return not children or time.perf_counter() - start + last_s / 2 < args.seconds

    try:
        while more():
            traced = bool(args.trace) and len(children) % 2 == 1
            child_start = time.perf_counter()
            children.append(spawn(dict(base, slice_s=slice_s, traced=traced), deadline))
            traced_flags.append(traced)
            last_s = time.perf_counter() - child_start
        fidelity_child = None
        if not paper and not args.trace:
            # The fidelity figures come from the fig11/fig12 artifacts;
            # on a serve workload they need a run of their own (untimed).
            cfg = dict(base, workload="paper-fast", size="tiny", slice_s=0.0)
            fidelity_child = spawn(dict(cfg, traced=False), deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record, result = summarize_run(bench, args, children, traced_flags, fidelity_child)
    if result is None:
        print("perfbench: a metric is missing, yet nothing failed", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def summarize_run(
    bench: dict,
    args: argparse.Namespace,
    children: List[dict],
    traced_flags: List[bool],
    fidelity_child: Optional[dict] = None,
):
    """Check every child's passes and fold them into ``(record, result)``.

    A metric that no pass could measure (every pass raised, or fig11 or
    fig12 failed) is left out of the result, which is then
    ``correct: false`` with the failures counted.  ``result`` is None
    only when a metric is missing without any failure to explain it.
    """
    checker = Checker()
    pinned = pins_for(args.workload, args.seed, args.size)
    for child in children:
        checker.check(args.workload, child["passes"], pinned)
    fidelity_children = children if args.workload == "paper-fast" else []
    if fidelity_child is not None:
        # Its two experiments count as operations too.
        fidelity_children = [fidelity_child]
        pins = pins_for("paper-fast", 0, "full")
        checker.check("fidelity", fidelity_child["passes"], pins)
    fidelity_values = [
        p["extra"]
        for c in fidelity_children
        for p in c["passes"]
        if "fidelity.speedup_err" in p.get("extra", {})
    ]
    input_digests = {c["input_digest"] for c in children}
    if len(input_digests) != 1:
        checker.failed += 1
        checker.problems.append("inputs differ between children of one seed")

    untraced = [c for c, t in zip(children, traced_flags) if not t]
    traced = [c for c, t in zip(children, traced_flags) if t]

    def pass_stats(group: List[dict]):
        ok = [p for c in group for p in c["passes"] if not p.get("raised")]
        return ok, [p["seconds"] for p in ok]

    ok, seconds = pass_stats(untraced)
    values: Dict[str, float] = {}
    if not args.trace:
        values["setup_s"] = median(c["setup_s"] for c in untraced)
        values["peak_rss_mb"] = median(c["peak_rss_mb"] for c in untraced)
        if ok:
            # Work done over time taken, across every pass: on this
            # host's drifting speed the aggregate repeats more closely
            # between runs than the median pass does.
            values["throughput_per_s"] = sum(p["items"] for p in ok) / sum(seconds)
        if fidelity_values:
            for name in ("fidelity.speedup_err", "fidelity.energy_err"):
                values[name] = median(extra[name] for extra in fidelity_values)
        wanted = bench["end_to_end"]
    else:
        _, traced_seconds = pass_stats(traced)
        layers = [c["layers"] for c in traced]
        for name in layers[0]:
            values[name] = median(layer[name] for layer in layers)
        if ok:
            values.update(ok[0].get("counts", {}))
            values["trace.pass_s_untraced"] = median(seconds)
        if traced_seconds:
            values["trace.pass_s_traced"] = median(traced_seconds)
        if ok and traced_seconds:
            values["trace.overhead_pct"] = 100.0 * (
                values["trace.pass_s_traced"] / values["trace.pass_s_untraced"] - 1.0
            )
        wanted = bench["per_layer"]

    missing = [spec["name"] for spec in wanted if spec["name"] not in values]
    if missing and checker.failed == 0:
        return None, None
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in wanted
        if spec["name"] in values
    }

    env = dict(children[0]["env"], commit=git_commit(ROOT))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "env": env,
        "input_digest": input_digests.pop() if len(input_digests) == 1 else None,
        "children": len(children),
        "passes": len(ok),
        "pass_s": {
            "median": median(seconds) if ok else None,
            "max": max(seconds, default=None),
            "samples": len(seconds),
        },
        "failed_frac": checker.failed / checker.attempted,
        "problems": checker.problems[:20],
        "unmeasured": missing,
        "digests": ok[0]["digests"] if ok else {},
    }
    if args.trace:
        record["note"] = (
            "serving.metrics.summarize_s is about 1% of any pass; no workload "
            "lets a summarize-only change show end to end"
        )
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    return record, result


if __name__ == "__main__":
    sys.exit(main())
