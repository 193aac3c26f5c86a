"""Generators and machine verifiers for the tightness families.

Each generator builds a leave L together with explicit claims: what the
family is supposed to demonstrate, as a claim kind and its parameters. The
kind fixes how the claim is checked (exact arithmetic, the degree-pair or
independence obstructions, flow construction, or the exact gamma search,
which decides that a join L v K_s has no decomposition), and one table,
``_CHECKS``, holds each kind's method, the graph its budget gate measures
and its check. The verifier runs every claim within a budget and reports
verified / refuted / skipped-budget per claim, with enough evidence to
recheck independently.
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache

from . import oracle
from .embedding import degree_pair_check, embed_large_case, general_cap, obstacle_required
from .graphs import (
    Graph,
    disjoint_cliques,
    graph_from_edges,
    graph_to_json_dict,
    join,
    join_edge_count,
)
from .independence import independence_number
from .solver import (
    StarDecomposition,
    decide_star_decomposition,
    decompose_with_repair,
    validate_decomposition,
)

FLOW_EDGE_LIMIT = 5000  # largest graph (complement or join) a claim builds by default


@dataclass(frozen=True)
class Claim:
    kind: str
    params: dict
    observational: bool = False

    @property
    def method(self) -> str:
        """arithmetic | obstacle | degree-pair | exhaustive | flow-construction"""
        return _CHECKS[self.kind][0]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "method": self.method,
            "params": self.params,
            "observational": self.observational,
        }


@dataclass(frozen=True)
class FamilyInstance:
    family_id: str
    k: int
    n: int
    leave: Graph
    claims: tuple[Claim, ...]
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "family_id": self.family_id,
            "k": self.k,
            "n": self.n,
            "leave": graph_to_json_dict(self.leave),
            "meta": self.meta,
            "claims": [c.to_json_dict() for c in self.claims],
        }


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    status: str  # verified | refuted | skipped-budget
    evidence: dict


@dataclass(frozen=True)
class VerificationReport:
    family_id: str
    k: int
    n: int
    results: tuple[ClaimResult, ...]

    def all_ok(self) -> bool:
        """No non-observational claim was refuted."""
        return not any(
            r.status == "refuted" and not r.claim.observational for r in self.results
        )

    def to_json_dict(self) -> dict:
        return {
            "family_id": self.family_id,
            "k": self.k,
            "n": self.n,
            "all_ok": self.all_ok(),
            "claims": [
                r.claim.to_json_dict() | {"status": r.status, "evidence": r.evidence}
                for r in self.results
            ],
        }


def _is_odd_prime_power(k: int) -> bool:
    if k < 3 or k % 2 == 0:
        return False
    p = 3
    while p * p <= k:
        if k % p == 0:
            break
        p += 2
    else:
        return True  # k itself is prime
    while k % p == 0:
        k //= p
    return k == 1


def _divisible_candidates(leave: Graph, k: int, below: int) -> list[int]:
    return [s for s in range(max(below, 0)) if join_edge_count(leave, s) % k == 0]


# ---------------------------------------------------------------------------
# generators


def gen_single_edge(k: int, n: int) -> FamilyInstance:
    """One edge plus isolated vertices: the counterexample forcing s >= 2k-2."""
    if k < 3 or k % 2 == 0:
        raise ValueError("this family needs odd k >= 3")
    if n < 2 or (n - 2) % (2 * k) != 0:
        raise ValueError("this family needs n congruent to 2 mod 2k")
    leave = graph_from_edges(n, [(0, 1)])
    r = (n - 2) // (2 * k)
    blocked = join_edge_count(leave, k - 1)
    claims = [
        Claim(
            "construction-arithmetic",
            {"edge_count": 1, "r": r, "join_edges_at_k_minus_1": blocked},
        ),
        Claim("realizable-conditions", {}),
        Claim("leave-realizable", {}),
        Claim("nonexistence-at-s", {"s": k - 1}),
    ]
    if _is_odd_prime_power(k):
        # with nonexistence-at-s, these rule out every s below 2k-2
        claims += [
            Claim("divisible-candidates", {"below": 2 * k - 2, "allowed": [k - 2, k - 1]}),
            Claim("degree-pair-at-s", {"s": k - 2}),
        ]
    return FamilyInstance("single-edge", k, n, leave, tuple(claims), {"r": r})


def _block_sizes(t: int, least: int) -> tuple[int, int]:
    """k = 2^t and the K_m block size m = 2^((t+1)/2), with m^2 = 2k, of
    the two disjoint-block families, for odd t >= least."""
    if t < least or t % 2 == 0:
        raise ValueError(f"this family needs odd t >= {least}")
    k = 2**t
    m = 2 ** ((t + 1) // 2)
    if m * m != 2 * k:
        raise ValueError("internal block size failure")
    return k, m


def gen_bound_n(t: int) -> FamilyInstance:
    """Disjoint K_m blocks showing the n threshold is asymptotically sharp at s=k."""
    k, m = _block_sizes(t, 7)
    n = k * m // 4 - k
    leave = disjoint_cliques([m] * (n // m))
    required = k // 4 + 5 * m // 8
    alpha = n // m
    claims = (
        Claim(
            "construction-arithmetic",
            {
                "edge_count": n * (m - 1) // 2,
                "n_mod_2k": n % (2 * k),
                "binom_divisible_at_k": ((n + k) * (n + k - 1) // 2) % k == 0,
            },
        ),
        Claim("alpha", {"expected": alpha}),
        Claim("obstacle-at-s", {"s": k, "expected_required": required, "expected_alpha": alpha}),
        Claim("realizable-conditions", {}),
        Claim("leave-realizable", {}),
    )
    return FamilyInstance("bound-n", k, n, leave, claims, {"t": t, "m": m})


def gen_tightness_t2(t: int, n: int | None = None) -> FamilyInstance:
    """K_sqrt(k) plus sqrt(k)/2 + 1 disjoint edges: forces s = 3k-2 for even k."""
    if t < 4 or t % 2 == 1:
        raise ValueError("this family needs even t >= 4")
    k = 2**t
    rootk = 2 ** (t // 2)
    if n is None:
        n = 3 * k + 2
    if n < 3 * k + 2 or n % (2 * k) != (k + 2) % (2 * k):
        raise ValueError("this family needs n >= 3k+2 with n congruent to k+2 mod 2k")
    pairs = rootk // 2 + 1
    isolated = n - rootk - 2 * pairs
    leave = disjoint_cliques([rootk] + [2] * pairs + [1] * isolated)
    claims = (
        Claim(
            "construction-arithmetic",
            {"edge_count": (k + 2) // 2, "pairs": pairs, "isolated": isolated},
        ),
        Claim("realizable-conditions", {}),
        Claim("leave-realizable", {}),
        Claim("divisible-candidates", {"below": 3 * k - 2, "expected": [k - 2, k - 1]}),
        Claim("degree-pair-at-s", {"s": k - 2}),
        Claim("nonexistence-at-s", {"s": k - 1}),
    )
    meta = {"t": t, "rootk": rootk, "r": (n - k - 2) // (2 * k)}
    return FamilyInstance("tightness-T2", k, n, leave, claims, meta)


def gen_even_bound(t: int) -> FamilyInstance:
    """Disjoint K_m blocks showing the even-k constant 6 - 2*sqrt(2) is sharp."""
    k, m = _block_sizes(t, 3)
    n = m
    while not (n > m and (n - m) ** 2 > 4 * k * (2 * k + 1)):
        n += m
    leave = disjoint_cliques([m] * (n // m))
    s_low = 4 * k - n
    s_success = 6 * k - n
    b = join_edge_count(leave, s_success) // k
    claims = (
        Claim("construction-arithmetic", {"edge_count": n * (m - 1) // 2}),
        Claim("alpha", {"expected": n // m}),
        Claim("divisible-candidates", {"below": s_success, "expected": [s_low, s_low + 1]}),
        Claim("obstacle-at-s", {"s": s_low, "positivity": "even"}),
        Claim("obstacle-at-s", {"s": s_low + 1, "positivity": "even"}),
        Claim("realizable-conditions", {}),
        Claim("leave-realizable", {}),
        Claim(
            "success-at-s",
            {
                "s": s_success,
                "expected_d": (b - n) // s_success,
                "expected_extras": b - n - s_success * ((b - n) // s_success),
            },
        ),
        Claim("cap-consistency", {"s": s_success}),
    )
    return FamilyInstance("even-bound", k, n, leave, claims, {"t": t, "m": m})


def gen_odd_bound(k: int) -> FamilyInstance:
    """(m-1) K_m blocks plus K_r: shows the odd-k constant 9/4 is sharp.

    The obstruction inequality is proved only for large k, so those claims
    are observational here: the verifier reports their truth per k.
    """
    if not _is_odd_prime_power(k):
        raise ValueError("this family needs k a power of an odd prime")
    n = (7 * k + 5) // 4 + 1
    while True:
        if 4 * n - 7 * k - 5 > 0 and (4 * n - 7 * k - 5) ** 2 > 4 * (6 * k + 6):
            root = math.isqrt(2 * n - 2 * k)
            if root * root == 2 * n - 2 * k:
                break
        n += 1
    m = math.isqrt(2 * n - 2 * k)
    r = 2 * k - n + m
    if r <= 0:
        raise ValueError(f"no valid instance: k={k} gives r={r}")
    leave = disjoint_cliques([m] * (m - 1) + [r])
    if leave.n != n:
        raise ValueError("internal vertex count failure")
    candidates = [
        s for s in (2 * k - n, 2 * k - n + 1, 3 * k - n, 3 * k - n + 1) if s >= 0
    ]
    claims = [
        Claim(
            "construction-arithmetic",
            {"edge_count": r * (r - 1) // 2 + (m - 1) * m * (m - 1) // 2},
        ),
        Claim("alpha", {"expected": m}),
        Claim("leave-realizable", {"gamma": "zero-on-small-clique"}),
        Claim("divisible-candidates", {"below": 4 * k - n, "allowed": candidates}),
    ]
    for s in _divisible_candidates(leave, k, 4 * k - n):
        claims.append(Claim("obstacle-at-s", {"s": s, "positivity": "odd"}, observational=True))
    claims.append(Claim("cap-consistency", {"s": 4 * k - n}))
    return FamilyInstance(
        "odd-bound", k, n, leave, tuple(claims), {"m": m, "r": r}
    )


_GENERATORS = {
    "single-edge": gen_single_edge,
    "bound-n": gen_bound_n,
    "tightness-T2": gen_tightness_t2,
    "even-bound": gen_even_bound,
    "odd-bound": gen_odd_bound,
}
FAMILY_IDS = tuple(_GENERATORS)


def generate(family_id: str, **params: int) -> FamilyInstance:
    """The family's instance for exactly the given parameters; a missing or
    unexpected one is a ValueError."""
    if family_id not in _GENERATORS:
        raise ValueError(f"unknown family {family_id!r}; choose from {FAMILY_IDS}")
    gen = _GENERATORS[family_id]
    try:
        inspect.signature(gen).bind(**params)
    except TypeError as exc:
        raise ValueError(f"family {family_id}: {exc}") from None
    return gen(**params)


# ---------------------------------------------------------------------------
# claim verification


def _even_positivity(k: int, n: int, s: int) -> int:
    m = math.isqrt(2 * k)
    if m * m != 2 * k:
        raise ValueError(f"even positivity needs 2k a square, got k={k}")
    return n * (2 * k - 2 * m + 1) - s * (s + 2 * n - 2 * k - 1)


def _odd_positivity(k: int, n: int, s: int) -> int:
    m = math.isqrt(2 * n - 2 * k)
    if m * m != 2 * n - 2 * k:
        raise ValueError(f"odd positivity needs 2n-2k a square, got k={k}, n={n}")
    return n * (6 * k - n + 1) - 4 * k * (k + m) - s * (s + 2 * n - 2 * k - 1)


# A check takes the instance, the claim's params and the leave's cached
# independence number, and returns (status, evidence): True is verified,
# False refuted, and a string is the status itself.
Verdict = tuple[bool | str, dict]


def _check_construction(inst: FamilyInstance, params: dict, leave_alpha) -> Verdict:
    leave, k, n, meta = inst.leave, inst.k, inst.n, inst.meta
    expected = params.get("edge_count")
    checks = {"edge_count": expected is None or leave.num_edges == expected}
    if inst.family_id == "single-edge":
        checks["n_congruence"] = (n - 2) % (2 * k) == 0
        checks["join_divisible"] = join_edge_count(leave, k - 1) % k == 0
    elif inst.family_id == "bound-n":
        checks["n_congruence"] = n % (2 * k) == k
        checks["block_count"] = n % meta["m"] == 0
        checks["binom_divisible"] = ((n + k) * (n + k - 1) // 2) % k == 0
    elif inst.family_id == "tightness-T2":
        checks["n_congruence"] = n % (2 * k) == (k + 2) % (2 * k)
        checks["n_large_enough"] = n >= 3 * k + 2
    elif inst.family_id == "even-bound":
        m = meta["m"]
        checks["block_count"] = n % m == 0
        checks["n_large_enough"] = (n - m) ** 2 > 4 * k * (2 * k + 1)
        checks["n_minimal"] = (n - 2 * m) ** 2 <= 4 * k * (2 * k + 1) or n - m <= m
    elif inst.family_id == "odd-bound":
        m, r = meta["m"], meta["r"]
        checks["square"] = m * m == 2 * n - 2 * k
        checks["r_value"] = r == 2 * k - n + m and r >= 1
        checks["n_large_enough"] = (
            4 * n - 7 * k - 5 > 0 and (4 * n - 7 * k - 5) ** 2 > 4 * (6 * k + 6)
        )
    return all(checks.values()), {"edge_count": leave.num_edges, "checks": checks}


def _check_alpha(inst: FamilyInstance, params: dict, leave_alpha) -> Verdict:
    alpha = leave_alpha()
    return alpha == params["expected"], {"alpha": alpha}


def _check_realizable_conditions(inst: FamilyInstance, params: dict, leave_alpha) -> Verdict:
    """Balanced centers decompose the leave's complement when every degree
    there is at least n/2 + k - 1 and k divides its edge count; a complement
    with no edges decomposes trivially."""
    leave, k = inst.leave, inst.k
    n = leave.n
    comp_degrees = [n - 1 - leave.degree(v) for v in range(n)]
    _, comp_edges = _complement_size(inst, params)
    facts = {
        "complement_min_degree": min(comp_degrees) if n else 0,
        "degree_condition": all(2 * d >= n + 2 * k - 2 for d in comp_degrees),
        "complement_edges": comp_edges,
        "divisibility": comp_edges % k == 0,
    }
    return comp_edges == 0 or (facts["degree_condition"] and facts["divisibility"]), facts


def _check_leave_realizable(inst: FamilyInstance, params: dict, leave_alpha) -> Verdict:
    complement = inst.leave.complement()
    if params.get("gamma") == "zero-on-small-clique":
        m = inst.meta["m"]
        small_start = (m - 1) * m
        gamma = [1] * small_start + [0] * (inst.leave.n - small_start)
        dec = decide_star_decomposition(complement, inst.k, gamma)
        if not isinstance(dec, StarDecomposition):
            return False, {"witness": dec.to_json_dict()}
    else:
        dec = decompose_with_repair(complement, inst.k)
    problem = validate_decomposition(complement, dec)
    if problem is not None:
        return False, {"violation": problem}
    return True, {"stars": len(dec.stars), "complement_edges": complement.num_edges}


def _check_divisible_candidates(inst: FamilyInstance, params: dict, leave_alpha) -> Verdict:
    found = _divisible_candidates(inst.leave, inst.k, params["below"])
    if "expected" in params:
        return found == list(params["expected"]), {"found": found}
    return set(found) <= set(params["allowed"]), {"found": found}


def _check_degree_pair(inst: FamilyInstance, params: dict, leave_alpha) -> Verdict:
    edge = degree_pair_check(inst.leave, inst.k, params["s"])
    return edge is not None, {"edge": None if edge is None else list(edge)}


def _check_obstacle(inst: FamilyInstance, params: dict, leave_alpha) -> Verdict:
    leave, k, s = inst.leave, inst.k, params["s"]
    if join_edge_count(leave, s) % k:
        return False, {"error": "join not divisible"}
    alpha = leave_alpha()
    required = obstacle_required(leave, k, s)
    evidence: dict = {"s": s, "required": required, "alpha": alpha}
    ok = alpha < required
    if "expected_required" in params:
        ok &= required == params["expected_required"]
    if "expected_alpha" in params:
        ok &= alpha == params["expected_alpha"]
    positivity = params.get("positivity")
    if positivity is not None:
        closed_form = _even_positivity if positivity == "even" else _odd_positivity
        expr = closed_form(k, inst.n, s)
        evidence["positivity_value"] = str(expr)
        ok &= expr > 0
    return ok, evidence


_SEARCH_STATUS = {
    oracle.EXHAUSTED: True,
    oracle.FOUND: False,
    oracle.BUDGET_EXCEEDED: "skipped-budget",
}


def _check_nonexistence(inst: FamilyInstance, params: dict, leave_alpha) -> Verdict:
    transcript = oracle.exhaustive_gamma_search(join(inst.leave, params["s"]), inst.k)
    evidence = {
        "nodes_explored": transcript.nodes_explored,
        "outcome": transcript.outcome,
        "decomposition": None,  # a decomposition found refutes the claim and is not kept
    }
    return _SEARCH_STATUS[transcript.outcome], {"gamma_search": evidence}


def _check_success(inst: FamilyInstance, params: dict, leave_alpha) -> Verdict:
    s = params["s"]
    dec = embed_large_case(inst.leave, inst.k, s)
    problem = validate_decomposition(join(inst.leave, s), dec)
    if problem is not None:
        return False, {"violation": problem}
    join_gammas = sorted(dec.central_function(inst.n + s)[inst.n :])
    d, extras = params["expected_d"], params["expected_extras"]
    ok = join_gammas == [d] * (s - extras) + [d + 1] * extras
    return ok, {"stars": len(dec.stars), "d": d, "extras": extras}


def _check_cap(inst: FamilyInstance, params: dict, leave_alpha) -> Verdict:
    return general_cap(inst.k) > params["s"], {"s": params["s"]}


# The graph a claim builds, as (evidence key, edge count), measured before
# it is built so that one over the flow limit never is.
def _complement_size(inst: FamilyInstance, params: dict) -> tuple[str, int]:
    n = inst.leave.n
    return "complement_edges", n * (n - 1) // 2 - inst.leave.num_edges


def _join_size(inst: FamilyInstance, params: dict) -> tuple[str, int]:
    return "join_edges", join_edge_count(inst.leave, params["s"])


# claim kind -> (method, budget gate or None, check)
_CHECKS: dict[str, tuple[str, Callable | None, Callable[..., Verdict]]] = {
    "construction-arithmetic": ("arithmetic", None, _check_construction),
    "alpha": ("arithmetic", None, _check_alpha),
    "realizable-conditions": ("arithmetic", None, _check_realizable_conditions),
    "leave-realizable": ("flow-construction", _complement_size, _check_leave_realizable),
    "divisible-candidates": ("arithmetic", None, _check_divisible_candidates),
    "degree-pair-at-s": ("degree-pair", None, _check_degree_pair),
    "obstacle-at-s": ("obstacle", None, _check_obstacle),
    "nonexistence-at-s": ("exhaustive", _join_size, _check_nonexistence),
    "success-at-s": ("flow-construction", _join_size, _check_success),
    "cap-consistency": ("arithmetic", None, _check_cap),
}


def _verify(inst: FamilyInstance, claim: Claim, flow_edge_limit: int, leave_alpha) -> ClaimResult:
    _, gate, check = _CHECKS[claim.kind]
    if gate is not None:
        key, edges = gate(inst, claim.params)
        if edges > flow_edge_limit:
            return ClaimResult(claim, "skipped-budget", {key: edges, "limit": flow_edge_limit})
    status, evidence = check(inst, claim.params, leave_alpha)
    if isinstance(status, bool):
        status = "verified" if status else "refuted"
    return ClaimResult(claim, status, evidence)


def verify_instance(inst: FamilyInstance, flow_edge_limit: int = FLOW_EDGE_LIMIT) -> VerificationReport:
    """Check every claim. A claim that would build a graph with more than
    ``flow_edge_limit`` edges (the complement for a flow construction, or a
    join for a flow construction or the gamma search) is reported as
    skipped-budget without building it. The leave's independence number is
    computed at most once."""
    leave_alpha = cache(lambda: independence_number(inst.leave))
    results = tuple(_verify(inst, claim, flow_edge_limit, leave_alpha) for claim in inst.claims)
    return VerificationReport(inst.family_id, inst.k, inst.n, results)
