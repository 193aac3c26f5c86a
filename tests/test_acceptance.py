"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s -v` to see the lines as they
complete. The heavyweight sweep (criteria 4 and 5) is computed once and
shared.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from stardecomp.embedding import bound_report, embed, embed_large_case, embed_small_case
from stardecomp.exactnum import Surd
from stardecomp.families import (
    gen_bound_n,
    gen_even_bound,
    gen_single_edge,
    gen_tightness_t2,
    verify_instance,
)
from stardecomp.graphs import (
    complete_graph,
    graph_from_edges,
    join,
    join_edge_count,
)
from stardecomp.oracle import (
    EXHAUSTED,
    FOUND,
    exhaustive_decomposition,
    sample_maximal_partial,
)
from stardecomp.solver import (
    StarDecomposition,
    decide_star_decomposition,
    decompose_complete,
    two_star_decompose,
    validate_decomposition,
)

from reference import enumerate_min_deficiency


@contextmanager
def criterion(num, description, limit=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[PASS] criterion {num}: {description} ({elapsed:.1f}s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} ran {elapsed:.1f}s, target {limit}s"


def bounded_gammas(n, b, cap=2):
    """All length-n tuples over 0..cap summing to b."""
    out = []
    gamma = [0] * n

    def rec(i, total):
        if i == n:
            if total == b:
                out.append(tuple(gamma))
            return
        if total + cap * (n - i) < b or total > b:
            return
        for val in range(0, cap + 1):
            gamma[i] = val
            rec(i + 1, total + val)
        gamma[i] = 0

    rec(0, 0)
    return out


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield graph_from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def test_criterion_1_flow_matches_bruteforce():
    with criterion(1, "flow vs brute force on all small graphs and 500 random ones", 300):
        graphs = [g for n in range(1, 6) for g in all_graphs(n)]
        rng = random.Random(20260810)
        for i in range(500):
            n = 6 + i % 3
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            graphs.append(graph_from_edges(n, edges))
        pairs = 0
        for g in graphs:
            for k in (2, 3):
                if g.num_edges % k:
                    continue
                for gamma in bounded_gammas(g.n, g.num_edges // k):
                    pairs += 1
                    flow = isinstance(
                        decide_star_decomposition(g, k, gamma), StarDecomposition
                    )
                    brute = exhaustive_decomposition(g, k, gamma=gamma)
                    assert brute.outcome in (FOUND, EXHAUSTED)
                    assert flow == (brute.outcome == FOUND), (g, k, gamma)
        assert pairs > 10_000


def test_criterion_2_deficiency_crosscheck():
    with criterion(2, "flow feasibility vs exhaustive deficiency on 1000 instances"):
        rng = random.Random(31415926)
        made = draws = 0
        while made < 1000:
            draws += 1
            k = 2 if draws % 2 == 0 else 3
            if made < 700:
                n = 6 + draws % 9
                p = (0.3, 0.5, 0.7)[draws % 3]
                edges = [
                    e for e in itertools.combinations(range(n), 2) if rng.random() < p
                ]
                g = graph_from_edges(n, edges)
                if g.num_edges % k:
                    g = graph_from_edges(n, g.edges[g.num_edges % k :])
                join_set = None
                base_n = n
            else:
                base_n = 4 + draws % 6
                s = 2 + draws % 3
                edges = [
                    e
                    for e in itertools.combinations(range(base_n), 2)
                    if rng.random() < 0.5
                ]
                base = graph_from_edges(base_n, edges)
                drop = join_edge_count(base, s) % k
                if drop:
                    base = graph_from_edges(base_n, base.edges[drop:])
                    if join_edge_count(base, s) % k:
                        continue  # base had too few edges to fix the residue
                g = join(base, s)
                join_set = frozenset(range(base_n, base_n + s))
            b = g.num_edges // k
            gamma = [0] * g.n
            remaining = b
            if join_set is not None:
                s = len(join_set)
                const = rng.randint(0, max(0, min(2, b // s)))
                for z in join_set:
                    gamma[z] = const
                remaining = b - const * s
            for _ in range(remaining):
                gamma[rng.randrange(base_n)] += 1
            made += 1
            delta, tsets = enumerate_min_deficiency(g, k, gamma)
            result = decide_star_decomposition(g, k, gamma)
            assert isinstance(result, StarDecomposition) == (delta == 0)
            if delta < 0:
                assert result.delta < 0
                assert result.delta >= delta
            for t in tsets:
                assert all(gamma[x] >= 1 for x in t)
                if join_set is not None:
                    overlap = join_set & set(t)
                    assert overlap in (frozenset(), join_set)
        assert made == 1000


def test_criterion_3_complete_graph_characterization():
    with criterion(3, "K_n decompositions exist exactly when n >= 2k and k | C(n,2)", 120):
        for k in range(2, 7):
            for n in range(2, 31):
                result = decompose_complete(n, k)
                should_exist = n >= 2 * k and (n * (n - 1) // 2) % k == 0
                assert (result is not None) == should_exist, (n, k)
                if result is not None:
                    assert validate_decomposition(complete_graph(n), result) is None
                    assert len(result.stars) == n * (n - 1) // 2 // k


SWEEP_KS = (2, 3, 4, 5, 6, 7)
SWEEP_SEEDS = 20
SWEEP_MAX_N = 30


@pytest.fixture(scope="module")
def sweep_data():
    cells = {}
    for k in SWEEP_KS:
        for n in range(k + 1, SWEEP_MAX_N + 1):
            for seed in range(SWEEP_SEEDS):
                _, leave = sample_maximal_partial(n, k, seed)
                cells[(k, n, seed)] = (leave, embed(leave, k))
    return cells


def test_criterion_4_improvement_general_caps(sweep_data):
    with criterion(4, "embeddings beat 9k/4 (odd) and (6-2*sqrt(2))k (even) caps", 900):
        for (k, n, seed), (leave, cert) in sweep_data.items():
            if k % 2 == 1:
                assert Fraction(cert.s) < Fraction(9 * k, 4), (k, n, seed, cert.s)
            else:
                assert Surd.of(6 * k, -2 * k, 2) > cert.s, (k, n, seed, cert.s)
            assert (
                validate_decomposition(join(leave, cert.s), cert.decomposition) is None
            )


def test_criterion_5_large_n_guarantees(sweep_data):
    with criterion(5, "above the n threshold: tighter caps and every s in [k, 4k] works"):
        for (k, n, seed), (leave, cert) in sweep_data.items():
            if k >= 3:
                report = bound_report(n, k)
                if not report.n_above_threshold():
                    continue
                cap = report.large_n_cap
            else:
                cap = 3 * k - 2
            assert cert.s <= cap, (k, n, seed, cert.s)
            for s in range(k, 4 * k + 1):
                m = join_edge_count(leave, s)
                if m % k:
                    continue
                if m >= k * (n + s) and n >= k:
                    dec = embed_large_case(leave, k, s)
                else:
                    dec = embed_small_case(leave, k, s)
                assert validate_decomposition(join(leave, s), dec) is None, (k, n, s)


def test_criterion_6_single_edge_family():
    with criterion(6, "single-edge leave (k=3, n=8): realizable, blocked joins, minimal s=4", 60):
        inst = gen_single_edge(3, 8)
        report = verify_instance(inst)
        assert report.all_ok()
        by_kind = {r.claim.kind: r for r in report.results}
        assert by_kind["leave-realizable"].evidence["stars"] == 9
        nonexistence = by_kind["nonexistence-at-s"]
        assert nonexistence.claim.params["s"] == 2
        assert nonexistence.evidence["gamma_search"]["outcome"] == EXHAUSTED
        cert = embed(inst.leave, 3)
        assert cert.s == 4 == 2 * 3 - 2
        assert cert.minimality == "exact"
        assert {r.s: r.reason for r in cert.rejections} == {
            0: "divisibility",
            1: "degree-pair",
            2: "exhausted-nonexistence",
            3: "divisibility",
        }


def test_criterion_7_even_bound_family():
    with criterion(7, "even-bound family t=3: obstacles at s=4,5 and success at s=20", 120):
        inst = gen_even_bound(3)
        assert (inst.k, inst.n) == (8, 28)
        report = verify_instance(inst)
        assert report.all_ok()
        obstacles = {
            r.evidence["s"]: r.evidence
            for r in report.results
            if r.claim.kind == "obstacle-at-s"
        }
        assert obstacles[4]["required"] == 12 and obstacles[4]["alpha"] == 7
        assert obstacles[5]["required"] == 9 and obstacles[5]["alpha"] == 7
        success = [r for r in report.results if r.claim.kind == "success-at-s"][0]
        assert success.status == "verified"
        assert success.claim.params == {"s": 20, "expected_d": 3, "expected_extras": 11}
        cert = embed(inst.leave, 8)
        assert cert.s == 20 == 6 * 8 - 28
        assert Surd.of(6 * 8, -16, 2) > 20


def test_criterion_8_bound_n_family():
    with criterion(8, "bound-n family t=7: required 42 vs alpha 24 at s=k, divisibility", 10):
        inst = gen_bound_n(7)
        assert (inst.k, inst.n) == (128, 384)
        report = verify_instance(inst)
        assert report.all_ok()
        obstacle = [r for r in report.results if r.claim.kind == "obstacle-at-s"][0]
        assert obstacle.evidence == {"s": 128, "required": 42, "alpha": 24}
        construction = [
            r for r in report.results if r.claim.kind == "construction-arithmetic"
        ][0]
        assert construction.evidence["checks"]["binom_divisible"]
        assert ((384 + 128) * (384 + 128 - 1) // 2) % 128 == 0


def test_criterion_9_tightness_family():
    with criterion(9, "tightness family t=4 (n=50): realizable, s=14 and s=15 blocked", 120):
        inst = gen_tightness_t2(4)
        assert inst.leave.num_edges == 9 == (16 + 2) // 2
        assert inst.meta["r"] == 1
        report = verify_instance(inst)
        assert report.all_ok()
        by_kind = {r.claim.kind: r for r in report.results}
        assert by_kind["leave-realizable"].status == "verified"
        assert by_kind["leave-realizable"].evidence["complement_edges"] == 1216
        degree = by_kind["degree-pair-at-s"]
        assert degree.claim.params["s"] == 14 and degree.status == "verified"
        nonexistence = by_kind["nonexistence-at-s"]
        assert nonexistence.claim.params["s"] == 15 and nonexistence.status == "verified"
        assert nonexistence.evidence["gamma_search"]["outcome"] == EXHAUSTED


def test_criterion_10_two_star_characterization():
    with criterion(10, "k=2 on all graphs with at most 6 vertices matches parity and search"):
        for n in range(1, 7):
            for g in all_graphs(n):
                constructed = two_star_decompose(g)
                parity = all(
                    sum(u in comp and v in comp for u, v in g.edges) % 2 == 0
                    for comp in g.components()
                )
                searched = exhaustive_decomposition(g, 2)
                assert searched.outcome in (FOUND, EXHAUSTED)
                assert (constructed is not None) == parity == (searched.outcome == FOUND)
                if constructed is not None:
                    assert validate_decomposition(g, constructed) is None
