import json
import random
from contextlib import suppress
from fractions import Fraction
from itertools import combinations

import pytest

from stardecomp import embedding
from stardecomp.embedding import (
    EmbeddingCertificate,
    REASON_EXHAUSTED,
    REASON_UNKNOWN,
    NoEmbeddingFound,
    ObstacleViolated,
    bound_report,
    degree_pair_check,
    embed,
    embed_large_case,
    embed_small_case,
    greedy_star_removal,
    guaranteed_s,
    obstacle_required,
)
from stardecomp.exactnum import Surd
from stardecomp.graphs import (
    Graph,
    complete_graph,
    disjoint_cliques,
    graph_from_edges,
    join,
    join_edge_count,
)
from stardecomp.independence import caro_wei_floor, independence_number
from stardecomp.oracle import EXHAUSTED, exhaustive_decomposition, sample_maximal_partial
from stardecomp.solver import validate_decomposition

from reference import degree_pair_by_walk, stepped_even_guaranteed_s

SINGLE_EDGE_8 = graph_from_edges(8, [(0, 1)])
SEVEN_K4 = disjoint_cliques([4] * 7)


def test_degree_pair_single_edge_low_s():
    assert degree_pair_check(SINGLE_EDGE_8, 3, 1) == (0, 1)


def test_degree_pair_passes_when_s_at_least_k():
    assert degree_pair_check(SINGLE_EDGE_8, 3, 3) is None
    assert degree_pair_check(SEVEN_K4, 8, 8) is None


def test_degree_pair_boundary_degree_exactly_k():
    # edge endpoints reach degree exactly k through the join
    g = graph_from_edges(6, [(0, 1)])
    assert degree_pair_check(g, 3, 2) is None


def test_degree_pair_flags_join_edges_for_tiny_graphs():
    # K_1 joined with 2 vertices: every edge has both ends below k = 5
    g = Graph(1, ())
    assert degree_pair_check(g, 5, 2) == (0, 1)
    # no base vertex: the one edge of K_2 is the join's own
    assert degree_pair_check(Graph(0, ()), 5, 2) == (0, 1)


def test_degree_pair_matches_the_plain_walk():
    # random graphs with isolated vertices and sparse to dense edge sets,
    # every s from 0 to k + 1: the walk skipped at s >= k - 1 loses nothing
    rng = random.Random(7)
    for trial in range(300):
        n = rng.randrange(0, 13)
        p = rng.random()
        g = graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        for k in range(2, 8):
            for s in range(k + 2):
                assert degree_pair_check(g, k, s) == degree_pair_by_walk(g, k, s)


def test_obstacle_violated_for_clique_blocks():
    assert independence_number(SEVEN_K4) == 7 < obstacle_required(SEVEN_K4, 8, 4) == 12


def test_obstacle_passes_trivially_when_requirement_nonpositive():
    # no alpha is needed to pass a requirement of at most zero
    assert obstacle_required(SINGLE_EDGE_8, 3, 4) == -1


def test_obstacle_passes_for_empty_leave():
    assert obstacle_required(Graph(6, ()), 3, 3) == 2 <= independence_number(Graph(6, ())) == 6


def test_obstacle_unknown_when_alpha_cut_off():
    # a positive requirement cannot be decided without the exact alpha
    claw = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert obstacle_required(claw, 3, 3) == 1


def test_obstacle_requires_divisibility():
    with pytest.raises(ValueError):
        obstacle_required(SINGLE_EDGE_8, 3, 3)


def test_small_case_forced_all_ones():
    # empty leave on 6 vertices, k=3, s=3: requirement is 2, met by {0, 1}
    dec = embed_small_case(Graph(6, ()), 3, 3)
    g = join(Graph(6, ()), 3)
    assert validate_decomposition(g, dec) is None
    gamma = dec.central_function(9)
    assert gamma[0] == 0 and gamma[1] == 0
    assert all(gamma[x] == 1 for x in range(2, 9))


def test_small_case_failure_reports_obstacle():
    # 4 K_8 blocks, k = s = 32: requirement 64 - 51 = 13 exceeds alpha = 4
    blocks = disjoint_cliques([8] * 4)
    assert join_edge_count(blocks, 32) == 1632
    with pytest.raises(ObstacleViolated) as err:
        embed_small_case(blocks, 32, 32)
    assert err.value.alpha == 4
    assert err.value.required == 13


def test_small_case_rejects_large_instances():
    with pytest.raises(ValueError):
        embed_small_case(SEVEN_K4, 8, 20)


def test_large_case_even_bound_values():
    dec = embed_large_case(SEVEN_K4, 8, 20)
    g = join(SEVEN_K4, 20)
    assert validate_decomposition(g, dec) is None
    assert embed_large_case(SEVEN_K4, 8, 20) == dec
    gamma = dec.central_function(48)
    assert all(gamma[x] == 1 for x in range(28))
    assert sorted(gamma[28:]) == [3] * 9 + [4] * 11


def test_large_case_uniform_boundary():
    # cycle C_6, k=3, s=3: |E| = k(n+s) exactly, join values all 1
    cycle = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    assert join_edge_count(cycle, 3) == 3 * 9
    dec = embed_large_case(cycle, 3, 3)
    assert validate_decomposition(join(cycle, 3), dec) is None
    assert dec.central_function(9) == (1,) * 9


def test_large_case_rejects_small_instances():
    with pytest.raises(ValueError):
        embed_large_case(Graph(6, ()), 3, 3)


@pytest.mark.parametrize(
    "leave, k, s",
    [
        (graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)]), 3, 3),
        (disjoint_cliques([4] * 6), 8, 8),
        (Graph(6, ()), 3, 4),
    ],
    ids=["C6", "6K4", "empty6"],
)
def test_both_constructions_cover_the_shared_boundary(leave, k, s):
    # |E| = k(n+s) and n >= k: each construction gives every vertex one star
    assert join_edge_count(leave, s) == k * (leave.n + s) and leave.n >= k
    for construct in (embed_large_case, embed_small_case):
        dec = construct(leave, k, s)
        assert validate_decomposition(join(leave, s), dec) is None
        assert dec.central_function(leave.n + s) == (1,) * (leave.n + s)


@pytest.mark.parametrize(
    "construct, leave, k, s",
    [
        (embed_small_case, SEVEN_K4, 8, 20),  # |E| = 792 > k(n+s) = 384
        (embed_large_case, Graph(6, ()), 3, 3),  # |E| = 21 < k(n+s) = 27
        (embed_large_case, Graph(1, ()), 3, 6),  # |E| = k(n+s) = 21, n < k
    ],
)
def test_each_construction_refuses_the_others_side(construct, leave, k, s):
    case = "small" if construct is embed_small_case else "large"
    with pytest.raises(ValueError, match=f"{case}-case construction does not cover"):
        construct(leave, k, s)
    other = embed_large_case if construct is embed_small_case else embed_small_case
    assert validate_decomposition(join(leave, s), other(leave, k, s)) is None


def test_greedy_star_removal():
    g = complete_graph(5)
    stars, reduced = greedy_star_removal(g, 3)
    assert reduced.max_degree() <= 2
    assert g.num_edges == reduced.num_edges + 3 * len(stars)
    assert stars[0].center == 0
    assert stars[0].leaves == (1, 2, 3)


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (5, 3, 4),   # 3k - n
        (3, 4, 5),   # 2k - n
        (9, 3, 6),   # large n: smallest s >= 15/4 with 9 + s divisible by 3
        (1, 2, 3),   # k = 2 picks n + s divisible by 4
        (20, 4, 12), # even k, large n: smallest s >= (4-2*sqrt(2))k, 20+s = 0 mod 8
        (10, 4, 6),  # even k, mid range: 4k - n
        (7, 3, 5),   # odd k, mid range: 4k - n
    ],
)
def test_guaranteed_s_values(n, k, expected):
    s = guaranteed_s(n, k)
    assert s == expected


def test_guaranteed_s_takes_an_empty_leave():
    # K_{2k} absorbs it (k = 2: n + s divisible by 4); embed stops at s = 0
    assert [guaranteed_s(0, k) for k in (2, 3, 4, 7)] == [4, 6, 8, 14]
    with pytest.raises(ValueError, match="n >= 0"):
        guaranteed_s(-1, 3)


def test_guaranteed_s_caps_hold_everywhere():
    for k in range(2, 10):
        for n in range(1, 41):
            s = guaranteed_s(n, k)
            if k % 2 and k > 2:
                assert Fraction(s) < Fraction(9 * k, 4)
            else:
                assert Surd.of(6 * k, -2 * k, 2) > s


def test_guaranteed_s_closed_form_matches_stepping():
    checked = 0
    for k in range(4, 60, 2):
        for n in range(1, 400):
            if n * n >= 8 * k * k:
                checked += 1
                assert guaranteed_s(n, k) == stepped_even_guaranteed_s(n, k), (n, k)
    assert checked > 5000


def test_embed_single_edge_ledger():
    cert = embed(SINGLE_EDGE_8, 3)
    assert cert.s == 4
    assert cert.minimality == "exact"
    reasons = {r.s: r.reason for r in cert.rejections}
    assert reasons == {
        0: "divisibility",
        1: "degree-pair",
        2: "exhausted-nonexistence",
        3: "divisibility",
    }
    assert validate_decomposition(join(SINGLE_EDGE_8, 4), cert.decomposition) is None


def test_embed_empty_leave_s_zero():
    cert = embed(Graph(6, ()), 3)
    assert cert.s == 0
    assert cert.decomposition.stars == ()


def test_embed_seven_k4():
    cert = embed(SEVEN_K4, 8)
    assert cert.s == 20
    reasons = {r.s: r.reason for r in cert.rejections if r.reason != "divisibility"}
    assert reasons == {4: "degree-pair", 5: "obstacle"}


def test_embed_handles_thick_leaves_by_reduction():
    # K_7 has max degree 6 >= k; stars must be peeled off and merged back
    g = complete_graph(7)
    cert = embed(g, 3)
    assert validate_decomposition(join(g, cert.s), cert.decomposition) is None


def test_embed_k2_after_reduction():
    # two triangles, a star with 8 edges, one isolated vertex; the triangles
    # are odd components, so s = 0 is rejected for the given leave
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    edges += [(6, x) for x in range(7, 15)]
    g = graph_from_edges(16, edges)
    cert = embed(g, 2)
    assert cert.s == 1
    # the ledger is about the given leave, whose triangles have odd size
    assert cert.rejections[0].reason == "exhausted-nonexistence"
    assert cert.rejections[0].detail == {"by": "component-parity"}
    assert validate_decomposition(join(g, 1), cert.decomposition) is None


@pytest.mark.parametrize(
    "leave,k",
    [
        (complete_graph(12), 3),
        (complete_graph(16), 5),
        # the leave of a partial 3-star decomposition of K_7 that decomposes
        (
            graph_from_edges(
                7, [(1, 3), (1, 5), (1, 6), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6)]
            ),
            3,
        ),
    ],
)
def test_embed_finds_s_zero_when_the_thick_leave_decomposes(leave, k):
    # greedy star removal leaves a core whose own joins fail for small s;
    # that must not reject an s at which the given leave works
    cert = embed(leave, k)
    assert cert.s == 0
    assert cert.minimality == "exact"
    assert validate_decomposition(leave, cert.decomposition) is None


def test_embed_k2_s_zero_when_components_even():
    g = graph_from_edges(5, [(0, 1), (1, 2)])
    cert = embed(g, 2)
    assert cert.s == 0


def test_embed_respects_max_s():
    with pytest.raises(RuntimeError):
        embed(SINGLE_EDGE_8, 3, max_s=2)


def test_embed_tiny_leaves():
    # K_1's leave embeds in itself; K_2 needs s = 2k-2 like the general
    # one-edge family
    assert embed(Graph(1, ()), 3).s == 0
    cert = embed(complete_graph(2), 3)
    assert cert.s == 4
    reasons = {r.s: r.reason for r in cert.rejections}
    assert reasons[1] == "degree-pair"
    assert reasons[2] == "obstacle"


def test_embed_conditional_when_search_skipped():
    # with no sub-k search budget the s = 2 candidate cannot be ruled out
    cert = embed(SINGLE_EDGE_8, 3, gamma_budget=0)
    assert cert.s == 4
    assert cert.minimality == "conditional"
    reasons = {r.s: r.reason for r in cert.rejections}
    assert reasons[2] == "unknown-skipped"
    unknown = [r.detail for r in cert.rejections if r.reason == "unknown-skipped"]
    assert unknown == [{"gamma_search": "budget"}]


def test_embed_decides_the_thick_sweep_cell():
    # a seed-0 sweep cell whose s = 3 search over per-vertex center counts
    # spent its 2000-candidate budget; one candidate per vector of twin-class
    # totals finds a decomposition
    _, leave = sample_maximal_partial(30, 4, 11)
    cert = embed(leave, 4, gamma_budget=2000)
    assert (cert.s, cert.minimality) == (3, "exact")
    assert [r.reason for r in cert.rejections] == ["divisibility", "divisibility", "degree-pair"]


def test_sub_k_exhaustions_agree_with_edge_search():
    # the gamma search prunes by twins and witness cuts; the edge-assignment
    # search uses no flow, no twins and no cuts, so it must agree
    checked = sub_k = 0
    for k in (3, 4):
        for n in range(k + 1, 10):
            for seed in range(8):
                _, leave = sample_maximal_partial(n, k, seed)
                cert = embed(leave, k)
                for r in cert.rejections:
                    if r.reason == "exhausted-nonexistence" and r.s < k:
                        checked += 1
                        assert exhaustive_decomposition(join(leave, r.s), k).outcome == EXHAUSTED
                if cert.s < k:
                    sub_k += 1
                    assert validate_decomposition(join(leave, cert.s), cert.decomposition) is None
    assert checked >= 20 and sub_k >= 20


def test_embed_searches_when_alpha_cut_off():
    # alpha budget 0 cuts the independent-set search off, so the small-case
    # center function cannot be built at s = 4; the gamma search on L v K_4
    # decides that s instead, with the same answer as the full budget
    _, leave = sample_maximal_partial(12, 4, 1)
    cert = embed(leave, 4, alpha_budget=0)
    full = embed(leave, 4)
    assert (cert.s, cert.minimality) == (full.s, full.minimality) == (4, "exact")
    assert cert.rejections == full.rejections
    assert validate_decomposition(join(leave, cert.s), cert.decomposition) is None
    again = EmbeddingCertificate.from_json_dict(
        json.loads(json.dumps(cert.to_json_dict(), sort_keys=True))
    )
    assert again == cert


def test_embed_searches_when_core_alpha_too_small():
    # three K_6 on 1..18 and vertex 0 joined to all but one vertex of each:
    # L passes the obstruction at s = k = 15 (alpha 4 >= 34 - 450/15), but the
    # core, with 0's star removed, needs an independent set of 34 - 435/15 = 5
    # and has alpha 4, so no construction seeds s = 15; the gamma search on
    # L v K_15 finds a decomposition there
    k = 15
    edges = [(a, b) for lo in (1, 7, 13) for a, b in combinations(range(lo, lo + 6), 2)]
    edges += [(0, v) for v in range(1, 19) if v not in (6, 12, 18)]
    leave = graph_from_edges(19, edges)
    cert = embed(leave, k)
    assert cert.s == 15
    assert cert.minimality == "exact"
    assert [r.s for r in cert.rejections] == list(range(15))
    assert validate_decomposition(join(leave, cert.s), cert.decomposition) is None


def test_alpha_is_searched_only_past_the_caro_wei_floor(monkeypatch):
    # over the pinned-answers grid (k = 3..5, n <= 12, seeds 0-1), whose
    # ledgers hold no obstacle, and three leaves whose ledgers do, embed runs
    # the exact independence search once on a leave where some requirement
    # it tests exceeds the Caro-Wei floor and never on any other; each
    # obstacle rejection keeps its exact alpha
    calls = []

    def spy(g, budget):
        calls.append(g)
        return independence_number(g, budget)

    monkeypatch.setattr(embedding, "independence_number", spy)
    cases = [
        (sample_maximal_partial(n, k, seed)[1], k)
        for k in range(3, 6)
        for n in range(k + 1, 13)
        for seed in (0, 1)
    ]
    cases += [(sample_maximal_partial(7, 6, seed)[1], 6) for seed in (0, 1)]
    cases.append((complete_graph(2), 3))
    searched = obstacles = 0
    for leave, k in cases:
        calls.clear()
        cert = embed(leave, k, gamma_budget=2000, alpha_budget=100_000)
        tested = [
            s
            for s in range(cert.s + 1)
            if join_edge_count(leave, s) % k == 0 and degree_pair_check(leave, k, s) is None
        ]
        floor = caro_wei_floor(leave)
        open_ = any(obstacle_required(leave, k, s) > floor for s in tested)
        assert calls == [leave] * open_, (leave, k)
        searched += open_
        for r in cert.rejections:
            if r.reason == "obstacle":
                obstacles += 1
                required = obstacle_required(leave, k, r.s)
                assert r.detail == {"alpha": independence_number(leave), "required": required}
    assert 0 < searched < len(cases) and obstacles == 3


def test_certificate_json_round_trip():
    cert = embed(SINGLE_EDGE_8, 3)
    data = json.loads(json.dumps(cert.to_json_dict(), sort_keys=True))
    again = EmbeddingCertificate.from_json_dict(data)
    assert again == cert
    data["decomposition"]["stars"][0]["leaves"][0] += 0.5
    with pytest.raises(ValueError, match="integer"):
        EmbeddingCertificate.from_json_dict(data)
    # the certificate's own counts are refused, not truncated, when not ints
    assert cert.rejections
    for bad in (4.5, 4.0, "4", True):
        for in_rejection, key in ((False, "k"), (False, "n"), (False, "s"), (True, "s")):
            data = cert.to_json_dict()
            (data["rejections"][0] if in_rejection else data)[key] = bad
            with pytest.raises(ValueError, match="integer"):
                EmbeddingCertificate.from_json_dict(data)
    # a reason or minimality outside the strings embed writes, and a detail
    # that is not an object or null, are refused rather than passed through
    for in_rejection, key, bad in (
        (False, "minimality", 5),
        (False, "minimality", "5"),
        (True, "reason", None),
        (True, "reason", "None"),
        (True, "detail", [1]),
        (True, "detail", "edge"),
    ):
        data = cert.to_json_dict()
        (data["rejections"][0] if in_rejection else data)[key] = bad
        with pytest.raises(ValueError, match=key):
            EmbeddingCertificate.from_json_dict(data)
    # a malformed record is refused with ValueError, not whatever the lookup raises
    for edit in (
        lambda data: data.update(rejections=[1]),
        lambda data: data.pop("k"),
        lambda data: data["decomposition"].update(stars=[1]),
        lambda data: data["decomposition"]["stars"][0].update(leaves=3),
    ):
        data = cert.to_json_dict()
        edit(data)
        with pytest.raises(ValueError, match="malformed"):
            EmbeddingCertificate.from_json_dict(data)


def test_bound_report_threshold_is_eight_for_k8():
    report = bound_report(10, 8)
    assert report.n_threshold == 8
    assert report.large_n_cap == 22
    assert not bound_report(8, 8).n_above_threshold()
    assert bound_report(9, 8).n_above_threshold()


def test_bound_report_k3_collapses_for_large_n():
    report = bound_report(100, 3)
    assert report.s_lower_general.cmp(3) < 0
    assert report.large_n_cap == 4
    assert report.general_cap == Fraction(27, 4)


def test_bound_report_decreasing_in_n():
    values = [float(bound_report(n, 5).s_lower_general) for n in range(6, 40)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_bound_report_clique_bound_only_mid_range():
    assert bound_report(10, 3).s_lower_clique is None
    assert bound_report(5, 3).s_lower_clique is not None
    assert bound_report(6, 3).s_lower_clique is not None
    assert bound_report(7, 3).s_lower_clique is None


def test_bound_report_rejects_k2():
    with pytest.raises(ValueError):
        bound_report(10, 2)


def test_bound_report_json():
    report = bound_report(9, 8)
    assert float(report.n_threshold) == pytest.approx(8.0)
    assert report.n_above_threshold() is True


def test_greedy_star_removal_runs_once_at_most_and_only_for_a_seed(monkeypatch):
    # over the pinned-answers grid with k = 2 added, embed takes the greedy
    # core once when it tests some s >= k with k > 2 (an s that reaches the
    # seed, past divisibility, the degree pair and the obstacle) and never
    # otherwise; with max_s below k it never does, and with no budgets, where
    # each seed is cut off and each s skipped, it still does at most once
    calls = []

    def spy(g, k):
        calls.append(g)
        return greedy_star_removal(g, k)

    monkeypatch.setattr(embedding, "greedy_star_removal", spy)
    cases = [
        (sample_maximal_partial(n, k, seed)[1], k)
        for k in range(2, 6)
        for n in range(k + 1, 13)
        for seed in (0, 1)
    ]
    seeded = 0
    for leave, k in cases:
        calls.clear()
        cert = embed(leave, k)
        searched = [r.s for r in cert.rejections if r.reason in (REASON_EXHAUSTED, REASON_UNKNOWN)]
        tested = any(s >= k for s in (*searched, cert.s))
        assert calls == [leave] * (k > 2 and tested), (leave, k)
        seeded += bool(calls)
        calls.clear()
        with suppress(NoEmbeddingFound):
            embed(leave, k, max_s=k - 1)
        assert calls == []
        with suppress(NoEmbeddingFound):
            embed(leave, k, gamma_budget=0, alpha_budget=0)
        assert len(calls) <= 1
    assert 0 < seeded < len(cases)


def _construction_cases(k, n, seed):
    """(leave, s, large) for every s in [k, 4k] at which k divides the join's
    edge count, on one sampled leave; large says which case covers it."""
    leave = sample_maximal_partial(n, k, seed)[1]
    for s in range(k, 4 * k + 1):
        m = join_edge_count(leave, s)
        if m % k == 0:
            yield leave, s, m >= k * (n + s) and n >= k


def test_embed_and_constructions_build_no_join_edge_tuple(monkeypatch):
    # The solver walks a join's upper neighbour tuples, never its edge
    # tuple: over a small grid of the benchmark's ops and their checks, no
    # join that embed or a construction makes, nor one a check validates
    # against, holds an edge tuple afterwards.
    made = []

    def recording_join(base, s):
        made.append(join(base, s))
        return made[-1]

    monkeypatch.setattr(embedding, "join", recording_join)
    checked, cases = [], set()
    for k in range(2, 8):
        for n in range(k + 1, 15):
            leave = sample_maximal_partial(n, k, 0)[1]
            cert = embed(leave, k)
            checked.append((join(leave, cert.s), cert.decomposition))
            for leave, s, large in _construction_cases(k, n, 0) if k > 2 else ():
                construct = embed_large_case if large else embed_small_case
                checked.append((join(leave, s), construct(leave, k, s)))
                cases.add(large)
    assert all(validate_decomposition(g, dec) is None for g, dec in checked)
    assert len(checked) > 200 and cases == {False, True}
    assert sum("edges" in vars(g) for g in made + [g for g, _ in checked]) == 0
