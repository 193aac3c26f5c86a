import pytest

from stardecomp import oracle
from stardecomp.embedding import embed_large_case
from stardecomp.families import (
    FAMILY_IDS,
    gen_bound_n,
    gen_even_bound,
    gen_odd_bound,
    gen_single_edge,
    gen_tightness_t2,
    generate,
    verify_instance,
)
from stardecomp.graphs import Graph, disjoint_cliques, graph_from_edges, join, join_edge_count
from stardecomp.oracle import EXHAUSTED, exhaustive_decomposition, exhaustive_gamma_search
from stardecomp.solver import decompose_with_repair, validate_decomposition


def claim_results(report, kind):
    return [r for r in report.results if r.claim.kind == kind]


def test_single_edge_k3_n8_fully_verified():
    inst = gen_single_edge(3, 8)
    assert inst.leave == graph_from_edges(8, [(0, 1)])
    report = verify_instance(inst)
    assert report.all_ok()
    statuses = {r.claim.kind: r.status for r in report.results}
    assert statuses["leave-realizable"] == "verified"
    assert statuses["nonexistence-at-s"] == "verified"
    # with the nonexistence at s = 2, these rule out every s below 2k-2 = 4
    assert statuses["divisible-candidates"] == "verified"
    assert statuses["degree-pair-at-s"] == "verified"
    nonexistence = claim_results(report, "nonexistence-at-s")[0]
    assert nonexistence.claim.method == "exhaustive"
    assert nonexistence.evidence == {
        "gamma_search": {"nodes_explored": 2, "outcome": EXHAUSTED, "decomposition": None}
    }
    realizable = claim_results(report, "leave-realizable")[0]
    assert realizable.evidence["stars"] == 9


def test_single_edge_runs_its_gamma_search_once(monkeypatch):
    calls = []
    search = oracle.exhaustive_gamma_search

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return search(*args, **kwargs)

    monkeypatch.setattr(oracle, "exhaustive_gamma_search", counted)
    assert verify_instance(gen_single_edge(3, 8)).all_ok()
    assert calls == [10]


def test_nonexistence_cut_off_by_the_gamma_budget_names_it(monkeypatch):
    spent = oracle.SearchTranscript(oracle.DEFAULT_GAMMA_BUDGET + 1, oracle.BUDGET_EXCEEDED)
    monkeypatch.setattr(oracle, "exhaustive_gamma_search", lambda g, k: spent)
    nonexistence = claim_results(verify_instance(gen_single_edge(3, 8)), "nonexistence-at-s")[0]
    assert nonexistence.status == "skipped-budget"
    assert nonexistence.evidence == {
        "gamma_search": {
            "nodes_explored": oracle.DEFAULT_GAMMA_BUDGET + 1,
            "outcome": oracle.BUDGET_EXCEEDED,
            "decomposition": None,
            "budget": oracle.DEFAULT_GAMMA_BUDGET,
        }
    }


def test_single_edge_k3_n8_search_agrees_with_backtracking():
    # the flow-free backtracking search over edges confirms the gamma search
    # on the smallest blocked join; it is far too slow a few sizes up
    target = join(gen_single_edge(3, 8).leave, 2)
    assert exhaustive_gamma_search(target, 3).outcome == EXHAUSTED
    assert exhaustive_decomposition(target, 3).outcome == EXHAUSTED


def test_internal_error_in_repair_is_not_a_refutation(monkeypatch):
    # only decompose_with_repair's decide is broken, the other claims still work
    def broken(g, k, gamma):
        raise RuntimeError("broken flow")

    monkeypatch.setattr("stardecomp.solver.decide_star_decomposition", broken)
    with pytest.raises(RuntimeError, match="broken flow"):
        verify_instance(gen_single_edge(3, 8))


def test_single_edge_k5_decided_by_search():
    inst = gen_single_edge(5, 12)
    nonexistence = [c for c in inst.claims if c.kind == "nonexistence-at-s"][0]
    assert nonexistence.method == "exhaustive"
    report = verify_instance(inst)
    assert report.all_ok()
    # s = 3 and 4 are the only divisible s below 2k-2 = 8: the first has a
    # degree-pair edge and the search rules out the second
    (candidates,) = claim_results(report, "divisible-candidates")
    assert candidates.status == "verified"
    assert candidates.evidence == {"found": [3, 4]}
    (pair,) = claim_results(report, "degree-pair-at-s")
    assert (pair.claim.params, pair.status) == ({"s": 3}, "verified")
    (nonexistence,) = claim_results(report, "nonexistence-at-s")
    assert nonexistence.claim.params == {"s": 4}
    assert nonexistence.evidence["gamma_search"]["outcome"] == EXHAUSTED


NONEXISTENCE_CASES = [
    pytest.param(gen_single_edge, (k, 2 * k * r + 2), id=f"single-edge-k{k}-n{2 * k * r + 2}")
    for k in range(3, 32, 2)
    for r in (1, 2, 3)
] + [pytest.param(gen_tightness_t2, (t,), id=f"tightness-T2-t{t}") for t in (4, 6)]


@pytest.mark.parametrize("gen, params", NONEXISTENCE_CASES)
def test_nonexistence_decided_by_gamma_search(gen, params):
    inst = gen(*params)
    s = inst.k - 1
    # a limit that admits the blocked join; larger complements stay unbuilt
    report = verify_instance(inst, flow_edge_limit=join_edge_count(inst.leave, s))
    assert report.all_ok()
    for result in report.results:
        if result.claim.kind == "nonexistence-at-s":
            assert result.status == "verified"
            assert result.evidence["gamma_search"]["outcome"] == EXHAUSTED


def test_nonexistence_over_the_limit_never_builds_the_join(monkeypatch):
    def no_join(leave, s):
        raise RuntimeError("join built before the limit was checked")

    monkeypatch.setattr("stardecomp.families.join", no_join)
    report = verify_instance(gen_tightness_t2(10))
    assert report.all_ok()
    nonexistence = claim_results(report, "nonexistence-at-s")[0]
    assert nonexistence.status == "skipped-budget"
    assert nonexistence.evidence == {"join_edges": 3667968, "limit": 5000}


def test_dense_family_graphs_never_build_their_edge_tuples(monkeypatch):
    # Only a graph without its edge tuple reaches the class attribute
    # ``Graph.edges``, which builds the tuple; record every such read.
    built = []
    read_edges = vars(Graph)["edges"]

    class Spy:
        def __get__(self, g, owner=None):
            built.append(g.n)
            return read_edges.__get__(g, owner)

    monkeypatch.setattr(Graph, "edges", Spy())

    inst = gen_bound_n(7)
    complement = inst.leave.complement()
    assert validate_decomposition(complement, decompose_with_repair(complement, inst.k)) is None

    inst = gen_even_bound(7)
    s = next(c.params["s"] for c in inst.claims if c.kind == "success-at-s")
    dec = embed_large_case(inst.leave, inst.k, s)
    assert validate_decomposition(join(inst.leave, s), dec) is None

    inst = gen_tightness_t2(6)
    assert exhaustive_gamma_search(join(inst.leave, inst.k - 1), inst.k).outcome == EXHAUSTED
    assert built == []


def test_no_embedding_below_skipped_when_search_is_over_the_limit():
    report = verify_instance(gen_single_edge(29, 176))
    assert report.all_ok()
    (candidates,) = claim_results(report, "divisible-candidates")
    assert (candidates.status, candidates.evidence) == ("verified", {"found": [27, 28]})
    (pair,) = claim_results(report, "degree-pair-at-s")
    assert (pair.claim.params, pair.status) == ({"s": 27}, "verified")
    (nonexistence,) = claim_results(report, "nonexistence-at-s")
    assert (nonexistence.claim.params, nonexistence.status) == ({"s": 28}, "skipped-budget")
    assert nonexistence.evidence == {"join_edges": 5307, "limit": 5000}


def test_single_edge_trivial_n2():
    inst = gen_single_edge(3, 2)
    report = verify_instance(inst)
    assert report.all_ok()


def test_single_edge_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_single_edge(4, 10)  # even k
    with pytest.raises(ValueError):
        gen_single_edge(3, 9)  # wrong congruence class


def test_bound_n_t7_frozen_arithmetic():
    inst = gen_bound_n(7)
    assert (inst.k, inst.n, inst.meta["m"]) == (128, 384, 16)
    assert inst.leave.num_edges == 2880
    report = verify_instance(inst)
    assert report.all_ok()
    obstacle = claim_results(report, "obstacle-at-s")[0]
    assert obstacle.evidence["required"] == 42
    assert obstacle.evidence["alpha"] == 24
    realizable = claim_results(report, "leave-realizable")[0]
    assert realizable.status == "skipped-budget"
    assert realizable.evidence["complement_edges"] == 70656


def test_bound_n_t9_arithmetic_scales(monkeypatch):
    # the 6.4 million complement edges are over the flow limit, so the
    # complement must never be built
    def no_complement(self):
        raise RuntimeError("complement built before the flow limit was checked")

    monkeypatch.setattr(Graph, "complement", no_complement)
    inst = gen_bound_n(9)
    assert inst.k == 512
    assert inst.n == 512 * 32 // 4 - 512
    report = verify_instance(inst)
    assert report.all_ok()
    realizable = claim_results(report, "leave-realizable")[0]
    assert realizable.status == "skipped-budget"
    assert realizable.evidence == {"complement_edges": 6365184, "limit": 5000}


def test_bound_n_rejects_bad_t():
    with pytest.raises(ValueError):
        gen_bound_n(8)
    with pytest.raises(ValueError):
        gen_bound_n(5)


def test_tightness_t2_t4_all_stages():
    inst = gen_tightness_t2(4)
    assert (inst.k, inst.n) == (16, 50)
    assert inst.leave.num_edges == 9
    assert inst.meta["r"] == 1
    report = verify_instance(inst)
    assert report.all_ok()
    statuses = {r.claim.kind: r.status for r in report.results}
    assert statuses["leave-realizable"] == "verified"
    divisible = claim_results(report, "divisible-candidates")[0]
    assert divisible.evidence["found"] == [14, 15]
    degree = claim_results(report, "degree-pair-at-s")[0]
    assert degree.status == "verified"
    nonexistence = claim_results(report, "nonexistence-at-s")[0]
    assert nonexistence.status == "verified"
    assert nonexistence.evidence["gamma_search"]["nodes_explored"] == 16


def test_tightness_t2_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_tightness_t2(5)
    with pytest.raises(ValueError):
        gen_tightness_t2(4, 49)
    with pytest.raises(ValueError):
        gen_tightness_t2(4, 50 + 16)  # wrong congruence class


def test_even_bound_t3_full_verification():
    inst = gen_even_bound(3)
    assert (inst.k, inst.n) == (8, 28)
    assert inst.leave == disjoint_cliques([4] * 7)
    report = verify_instance(inst)
    assert report.all_ok()
    divisible = claim_results(report, "divisible-candidates")[0]
    assert divisible.evidence["found"] == [4, 5]
    obstacles = claim_results(report, "obstacle-at-s")
    assert [(r.evidence["s"], r.evidence["required"]) for r in obstacles] == [
        (4, 12),
        (5, 9),
    ]
    assert all(r.evidence["alpha"] == 7 for r in obstacles)
    success = claim_results(report, "success-at-s")[0]
    assert success.status == "verified"
    assert success.claim.params == {"s": 20, "expected_d": 3, "expected_extras": 11}


def test_even_bound_t5_arithmetic():
    inst = gen_even_bound(5)
    assert (inst.k, inst.n, inst.meta["m"]) == (32, 104, 8)
    # keep the verification cheap: skip the big flow constructions
    report = verify_instance(inst, flow_edge_limit=2000)
    assert report.all_ok()
    skipped = [r for r in report.results if r.status == "skipped-budget"]
    assert {r.claim.kind for r in skipped} == {"leave-realizable", "success-at-s"}
    success = claim_results(report, "success-at-s")[0]
    # a skip names the limit that stopped it, as the other skipped claims do
    assert success.evidence == {"join_edges": 13344, "limit": 2000}


def test_even_bound_rejects_even_t():
    with pytest.raises(ValueError):
        gen_even_bound(4)


def test_odd_bound_k27():
    inst = gen_odd_bound(27)
    assert (inst.n, inst.meta["m"], inst.meta["r"]) == (59, 8, 3)
    assert inst.leave == disjoint_cliques([8] * 7 + [3])
    report = verify_instance(inst)
    assert report.all_ok()
    obstacles = claim_results(report, "obstacle-at-s")
    assert [r.evidence["s"] for r in obstacles] == [22, 23]
    # the inequality is proved only for large k; at k = 27 it happens to hold
    assert all(r.status == "verified" for r in obstacles)
    assert all(r.claim.observational for r in obstacles)
    realizable = claim_results(report, "leave-realizable")[0]
    assert realizable.status == "verified"


def test_odd_bound_rejects_small_or_composite_k():
    with pytest.raises(ValueError):
        gen_odd_bound(3)  # the derived block size r would be negative
    with pytest.raises(ValueError):
        gen_odd_bound(15)  # not a prime power
    with pytest.raises(ValueError):
        gen_odd_bound(16)  # even


def test_generate_dispatch():
    inst = generate("even-bound", t=3)
    assert inst.family_id == "even-bound"
    with pytest.raises(ValueError):
        generate("nope")
    with pytest.raises(ValueError):
        generate("single-edge", k=3)  # missing n
    with pytest.raises(ValueError):
        generate("bound-n", t=7, k=5)  # k is not a bound-n parameter
    assert set(FAMILY_IDS) == {
        "single-edge",
        "bound-n",
        "tightness-T2",
        "even-bound",
        "odd-bound",
    }


def test_instance_serialization():
    inst = gen_single_edge(3, 8)
    data = inst.to_json_dict()
    assert data["leave"]["n"] == 8
    assert any(c["kind"] == "nonexistence-at-s" for c in data["claims"])
    report = verify_instance(inst)
    payload = report.to_json_dict()
    assert payload["all_ok"] is True
    assert len(payload["claims"]) == len(inst.claims)
