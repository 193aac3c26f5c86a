"""Self-tests for the benchmark harness.

Run from the repository root with ``python3 -m pytest -q bench``. They use
tiny grids, so the whole file takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

import run
from workloads import Constructions, Families, Sweep

sys.path.insert(0, str(run.SRC))

TINY = {"ks": (3, 4), "n_max": 7, "seeds_per_cell": 2}
TINY_FAMILIES = (
    ("single-edge-k3-n8", "single-edge", {"k": 3, "n": 8}, 5000),
    ("even-bound-t3", "even-bound", {"t": 3}, 5000),
)


@pytest.fixture(scope="module")
def sd():
    return run.load_program()


def tiny_workloads(tmp_path):
    return [Sweep(**TINY), Constructions(**TINY), Families(tmp_path, TINY_FAMILIES)]


@pytest.mark.parametrize("index", range(3))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(tmp_path, index, trace):
    workload = tiny_workloads(tmp_path)[index]
    report = run.measure(workload, seed=0, seconds=0, trace=trace)
    assert report.problems == []
    assert report.failed == 0
    passes = run.MIN_PASSES if report.ops >= run.FEW_OPS else run.MIN_PASSES_FEW_OPS
    assert report.attempted == report.ops * (passes + trace)
    assert report.e2e["fail_rate"][0] == 0
    assert 0 < report.e2e["definite_share"][0] <= 1
    if trace:
        decides = report.layers["solver.decide.calls"][0]
        assert decides > 0
        assert report.layers["flow.networks"][0] == decides
    result = run.emit(report, workload.name, SimpleNamespace(seed=0, trace=int(trace)))
    declared = run.declared_metrics()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]


def test_fingerprint_depends_on_seed_only(sd):
    workload = Sweep(**TINY)
    digests = [run.run_pass(sd, workload, workload.generate(sd, seed)).fingerprint()
               for seed in (0, 0, 1)]
    assert digests[0] == digests[1] != digests[2]


def test_workload_seed_offsets_sample_seeds(sd):
    labels = {seed: [op.label for op in Sweep(**TINY).generate(sd, seed)] for seed in (0, 1)}
    assert labels[0][:2] == ["k3-n4-seed0", "k3-n4-seed1"]
    assert labels[1][:2] == ["k3-n4-seed1", "k3-n4-seed2"]


class CorruptedSweep(Sweep):
    """Returns each certificate with one deliberate defect."""

    def __init__(self, corrupt):
        super().__init__(**TINY)
        self.corrupt = corrupt

    def run(self, sd, op):
        return self.corrupt(super().run(sd, op))


def swap_one_leaf(cert):
    dec = cert.decomposition
    star = dec.stars[0]
    used = {star.center, *star.leaves}
    other = next(v for v in range(cert.n + cert.s) if v not in used)
    bad = replace(star, leaves=(other, *star.leaves[1:]))
    return replace(cert, decomposition=replace(dec, stars=(bad, *dec.stars[1:])))


def truncate_ledger(cert):
    return replace(cert, rejections=cert.rejections[:-1])


@pytest.mark.parametrize("corrupt", [swap_one_leaf, truncate_ledger])
def test_corrupted_certificates_count_as_failures(sd, corrupt):
    workload = CorruptedSweep(corrupt)
    ops = workload.generate(sd, 0)
    result = run.run_pass(sd, workload, ops)
    # every tiny-grid certificate has stars and a non-empty ledger
    assert len(result.failures) == len(ops)
    assert result.facts["answers"] == len(ops)
    assert result.facts["definite"] == 0


def test_tail_percentile():
    assert run.tail_ms([0.001 * i for i in range(1, 2001)]) == pytest.approx(1980.0)
    assert run.tail_ms([0.001 * i for i in range(1, 101)]) == pytest.approx(90.0)
    assert run.tail_ms([0.001 * i for i in range(1, 8)]) == pytest.approx(7.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    child = subprocess.run(
        [*argv, "--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
