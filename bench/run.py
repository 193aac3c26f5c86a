"""stardecomp benchmark: one workload per process, closed loop, one caller.

Usage, from the repository root:

    python3 bench/run.py --workload sweep --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all        # every workload, one process each

The program is imported from ``src/`` next to this directory. Set-up (import
plus input generation) is repeated and its median reported. Ops then run in
whole passes over the workload's input list until ``--seconds`` of op time
have been measured; each op is gated for correctness outside its timed
interval. ``--trace 1`` adds one traced pass and reports per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with the metrics that ``BENCHMARK.json`` lists for the mode.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from layers import OP_SPAN, instrument, layer_metrics
from spans import Tracer
from workloads import Constructions, Families, Sweep

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PROGRAM_MODULES = (
    "cli", "embedding", "exactnum", "families", "flow",
    "graphs", "independence", "oracle", "solver",
)
WORKLOAD_NAMES = ("sweep", "constructions", "families")
SETUP_REPEATS = 3
# Each op's time is its median over the passes. With thousands of ops per
# pass the wall time averages out each op's noise, so two passes do; a pass
# of a few long ops needs three for its medians to drop one slow pass.
MIN_PASSES = 2
MIN_PASSES_FEW_OPS = 3
FEW_OPS = 100
DEFAULT_SECONDS = 15

# The hosts this runs on change speed by up to 1.8x over tens of seconds, so
# raw op times of identical runs differ by up to 30%. Every timing is scaled
# to a nominal machine speed: a fixed pure-Python loop is timed between
# chunks of ops, and each op's time is multiplied by REF_NOMINAL_S over the
# mean loop time just before and after its chunk. REF_NOMINAL_S is about the
# loop's median time on the 2-core host the baseline was recorded on.
REF_ITERATIONS = 10_000
REF_NOMINAL_S = 0.0015
CHUNK_S = 0.1


def load_program() -> SimpleNamespace:
    """Import stardecomp afresh from ``src/`` (dropping any earlier copy)."""
    for name in [m for m in sys.modules if m == "stardecomp" or m.startswith("stardecomp.")]:
        del sys.modules[name]
    pkg = importlib.import_module("stardecomp")
    if Path(pkg.__file__).resolve().parent != SRC / "stardecomp":
        raise RuntimeError(f"imported stardecomp from {pkg.__file__}, not from {SRC}")
    sd = SimpleNamespace(**{m: importlib.import_module(f"stardecomp.{m}") for m in PROGRAM_MODULES})
    sd.modules = [pkg, *(getattr(sd, m) for m in PROGRAM_MODULES)]
    return sd


def make_workload(name: str, out_dir: Path):
    if name == "sweep":
        return Sweep()
    if name == "constructions":
        return Constructions()
    return Families(out_dir)


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's speed."""
    table = list(range(64))
    lookup = dict.fromkeys(range(64), 3)
    acc = 0
    start = time.perf_counter()
    for i in range(REF_ITERATIONS):
        acc += table[i & 63] * lookup[(i * 7) & 63] % 13
    return time.perf_counter() - start


def tail_ms(times: list[float]) -> float:
    """The 99th percentile, or with fewer than 1000 ops the highest
    percentile that still has 10 ops beyond it, or with at most 10 ops the
    slowest one (nearest-rank, in ms)."""
    ordered = sorted(times)
    n = len(ordered)
    rank = min(math.ceil(0.99 * n), n - 10) if n > 10 else n
    return 1000 * ordered[rank - 1]


class PassResult:
    def __init__(self) -> None:
        self.times: list[float] = []  # raw seconds per op
        self.adjusted: list[float] = []  # scaled to the nominal machine speed
        self.answers: list[bytes] = []  # per-op answer digests
        self.failures: list[str] = []
        self.facts: Counter[str] = Counter()

    @property
    def wall(self) -> float:
        return sum(self.adjusted)

    def fingerprint(self) -> str:
        return hashlib.sha256(b"".join(self.answers)).hexdigest()


def run_pass(sd, workload, ops, reference: PassResult | None = None,
             tracer: Tracer | None = None, op_labels=None) -> PassResult:
    """One closed-loop pass: each op starts when the previous one returned.

    Without ``reference`` every answer goes through the workload's full gate.
    With one, each answer must equal the reference pass's answer to the same
    op, which the gate already accepted.
    """
    result = PassResult()
    clock = time.perf_counter
    ref_before = reference_loop()
    chunk_start = 0

    def scale_chunk(end: int) -> None:
        nonlocal ref_before, chunk_start
        ref_after = reference_loop()
        factor = 2 * REF_NOMINAL_S / (ref_before + ref_after)
        result.adjusted += [t * factor for t in result.times[chunk_start:end]]
        ref_before, chunk_start = ref_after, end

    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.active = True
            span = tracer.open(OP_SPAN)
        start = clock()
        try:
            value = workload.run(sd, op)
            error = None
        except Exception as exc:  # a failed op is counted, never dropped
            value, error = None, f"{type(exc).__name__}: {exc}"
        result.times.append(clock() - start)
        if tracer is not None:
            tracer.close(span)
            tracer.active = False
            op_labels[span] = op.label
        digest = b"failed"
        if error is None:
            try:
                answer = workload.answer(op, value)
                digest = hashlib.sha256(repr(answer).encode()).digest()
                if reference is None:
                    error = workload.check(sd, op, value, answer)
                elif digest != reference.answers[i]:
                    error = "answer differs from the first pass"
            except Exception as exc:
                error = f"gate raised {type(exc).__name__}: {exc}"
        result.answers.append(digest)
        if error is not None:
            result.failures.append(f"{op.label}: {error}")
            result.facts.update(workload.failed_facts(op))
        elif reference is None:
            result.facts.update(workload.facts(op, answer))
        if sum(result.times[chunk_start:]) >= CHUNK_S:
            scale_chunk(i + 1)
    if chunk_start < len(ops):
        scale_chunk(len(ops))
    return result


def measure(workload, seed: int, seconds: float, trace: bool) -> SimpleNamespace:
    """Set up, then run whole passes until ``seconds`` of op time and the
    minimum number of passes are done; optionally one more, traced, pass."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        ref_before = reference_loop()
        start = time.perf_counter()
        sd = load_program()
        ops = workload.generate(sd, seed)
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * 2 * REF_NOMINAL_S / (ref_before + reference_loop()))

    min_passes = MIN_PASSES if len(ops) >= FEW_OPS else MIN_PASSES_FEW_OPS
    first = run_pass(sd, workload, ops)
    passes = [first]
    while len(passes) < min_passes or sum(sum(p.times) for p in passes) < seconds:
        passes.append(run_pass(sd, workload, ops, reference=first))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_times = [statistics.median(times) for times in zip(*(p.adjusted for p in passes))]

    facts = first.facts
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(op_times), "s"),
        "op_p50_ms": (1000 * statistics.median(op_times), "ms"),
        "op_p99_ms": (tail_ms(op_times), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_rate": (len(first.failures) / len(ops), "fraction"),
        "definite_share": (facts["definite"] / facts["answers"], "fraction"),
        **workload.quality(facts),
    }

    layers: dict = {}
    if trace:
        tracer = Tracer()
        op_labels: dict[int, str] = {}
        instrument(tracer, sd)
        try:
            traced = run_pass(sd, workload, ops, first, tracer, op_labels)
        finally:
            tracer.unpatch()
        passes.append(traced)
        # Self times are raw seconds, so they add up to the raw traced wall;
        # the overhead compares speed-adjusted walls.
        layers, trace_problems = layer_metrics(tracer, op_labels, sum(traced.times))
        layers["traced_wall_s"] = (sum(traced.times), "s")
        layers["tracing_overhead_s"] = (traced.wall - e2e["wall_s"][0], "s")
    else:
        trace_problems = []

    failures = [f for p in passes for f in p.failures]
    return SimpleNamespace(
        e2e=e2e,
        layers=layers,
        attempted=sum(len(p.times) for p in passes),
        failed=len(failures),
        problems=failures + trace_problems,
        fingerprint=first.fingerprint(),
        pass_walls=[(sum(p.times), p.wall) for p in passes],
        ops=len(ops),
    )


def declared_metrics() -> dict[str, list[dict]]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(report, workload_name: str, args) -> dict:
    """Print the human-readable summary; return the result object for the last line."""
    print(
        f"workload {workload_name}  seed {args.seed}  ops/pass {report.ops}  "
        f"passes {len(report.pass_walls)}  attempted {report.attempted}  failed {report.failed}"
    )
    for name, (value, unit) in {**report.e2e, **report.layers}.items():
        print(f"  {name:44s} {value:>16.6f} {unit}" if isinstance(value, float) else f"  {name:44s} {value:>16d} {unit}")
    print("  pass walls, raw/adjusted (s): " + "  ".join(f"{raw:.3f}/{adj:.3f}" for raw, adj in report.pass_walls))
    print(f"  answer fingerprint sha256:{report.fingerprint}")
    for problem in report.problems[:20]:
        print(f"  PROBLEM {problem}", file=sys.stderr)

    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    source = report.layers if args.trace else report.e2e
    metrics = {}
    for entry in declared:
        value, unit = source[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']} is measured in {unit}, declared in {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    return {
        "correct": not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stardecomp" / "__init__.py").is_file():
        print(f"error: no stardecomp sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("STARDEC_BUDGET", None)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    with tempfile.TemporaryDirectory(prefix=".bench-out-", dir=ROOT) as out_dir:
        workload = make_workload(args.workload, Path(out_dir))
        report = measure(workload, args.seed, args.seconds, bool(args.trace))
        result = emit(report, args.workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
