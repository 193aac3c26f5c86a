"""Embed a leave of a partial k-star decomposition of K_n into K_{n+s}.

Equivalently: find s and a k-star decomposition of L v K_s. Candidate s are
scanned from 0; each divisible s is rejected fast (edge with two low-degree
endpoints, or an independence-number obstruction) or decided on L v K_s
itself, so every rejection is about the given leave. For s >= k the paper's
large-case or small-case construction on the core left by greedy star
removal, plus the removed stars, is a decomposition that exists, so one flow
on its center function succeeds. Every other s (s < k, a core without a
large enough independent set, or an independent-set search cut off by its
budget) runs the exact gamma search of ``oracle.exhaustive_gamma_search``;
an s is "unknown-skipped" only when that search's budget cuts it off.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import isqrt

from . import oracle
from .exactnum import RootBound, Surd
from .graphs import Graph, graph_from_rows, join, join_edge_count, labels_of, mask_of
from .independence import (
    DEFAULT_ALPHA_BUDGET,
    BudgetExceeded,
    caro_wei_floor,
    independence_number,
    maximum_independent_set,
)
from .solver import (
    Star,
    StarDecomposition,
    _decide_guaranteed,
    _even_spread,
    two_star_decompose,
    validate_decomposition,
)

REASON_DIVISIBILITY = "divisibility"
REASON_OBSTACLE = "obstacle"
REASON_DEGREE_PAIR = "degree-pair"
REASON_EXHAUSTED = "exhausted-nonexistence"
REASON_UNKNOWN = "unknown-skipped"
_REASONS = (
    REASON_DIVISIBILITY,
    REASON_OBSTACLE,
    REASON_DEGREE_PAIR,
    REASON_EXHAUSTED,
    REASON_UNKNOWN,
)

DEFAULT_GAMMA_SEARCH_BUDGET = 2000


class NoEmbeddingFound(RuntimeError):
    """No embedding was found for any s up to the search limit."""


class ObstacleViolated(Exception):
    """The independence-number obstruction rules the instance out."""

    def __init__(self, alpha: int, required: int):
        super().__init__(f"alpha={alpha} below required independent set size {required}")
        self.alpha = alpha
        self.required = required


@dataclass(frozen=True)
class Rejection:
    s: int
    reason: str
    detail: dict | None = None

    def to_json_dict(self) -> dict:
        return {"s": self.s, "reason": self.reason, "detail": self.detail}


@dataclass(frozen=True)
class EmbeddingCertificate:
    k: int
    n: int
    s: int
    decomposition: StarDecomposition
    rejections: tuple[Rejection, ...]
    minimality: str  # "exact" when every smaller s was rejected definitively

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "s": self.s,
            "minimality": self.minimality,
            "decomposition": self.decomposition.to_json_dict(),
            "rejections": [r.to_json_dict() for r in self.rejections],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "EmbeddingCertificate":
        """Read ``to_json_dict``'s record, refusing a k, n, s or rejection s
        that is not an int, as ``StarDecomposition.from_json_dict`` refuses
        labels that are not, a reason or minimality outside the strings
        ``embed`` writes, a detail that is neither an object nor null, and a
        missing key or a record or rejection that is not an object."""
        try:
            rejections = tuple(
                Rejection(r["s"], r["reason"], r.get("detail")) for r in data["rejections"]
            )
            k, n, s = data["k"], data["n"], data["s"]
            minimality, decomposition = data["minimality"], data["decomposition"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed JSON certificate: {exc!r}") from None
        if any(type(x) is not int for x in (k, n, s, *(r.s for r in rejections))):
            raise ValueError("a JSON certificate needs integer k, n, s and rejection s")
        for r in rejections:
            if r.reason not in _REASONS:
                raise ValueError(f"unknown rejection reason {r.reason!r}")
            if r.detail is not None and type(r.detail) is not dict:
                raise ValueError("a rejection detail must be a JSON object or null")
        if minimality not in ("exact", "conditional"):
            raise ValueError(f"minimality must be 'exact' or 'conditional', got {minimality!r}")
        decomposition = StarDecomposition.from_json_dict(decomposition)
        return EmbeddingCertificate(k, n, s, decomposition, rejections, minimality)


def degree_pair_check(base: Graph, k: int, s: int) -> tuple[int, int] | None:
    """First edge of L v K_s whose endpoints both have degree below k, if any.

    Such an edge cannot be covered: a star covering it would have to be
    centered at one of its endpoints.
    """
    n = base.n
    if s < k - 1:  # else each edge end has degree + s >= 1 + s >= k in the join
        low = k - s
        degrees = base.degrees
        for u, v in base.edges:
            if degrees[u] < low and degrees[v] < low:
                return (u, v)
    if s >= 1 and n + s - 1 < k:
        # every vertex of the join has degree below k, and L has no edge
        if n:
            return (0, n)
        if s >= 2:
            return (n, n + 1)
    return None


def obstacle_required(base: Graph, k: int, s: int) -> int:
    """The n + s - |E(L v K_s)| / k that alpha(L) must reach: the necessary
    condition alpha(L) >= n + s - |E|/k. Callers compare their own exact
    alpha with it; a requirement of at most zero holds without one.
    """
    m = join_edge_count(base, s)
    if m % k:
        raise ValueError("edge count of the join must be divisible by k")
    return base.n + s - m // k


def embed_small_case(
    base: Graph, k: int, s: int, alpha_budget: int = DEFAULT_ALPHA_BUDGET
) -> StarDecomposition:
    """Decompose L v K_s when |E(L v K_s)| <= k(n+s).

    Centers: one star everywhere except on an independent set of L of size
    (n+s) - |E|/k, taken as a prefix of the lexicographically smallest
    maximum independent set. Succeeds iff such a set exists; raises
    ObstacleViolated otherwise.
    """
    return _construct(base, k, s, "small", alpha_budget)


def embed_large_case(base: Graph, k: int, s: int) -> StarDecomposition:
    """Decompose L v K_s when |E(L v K_s)| >= k(n+s) and n >= k.

    Centers: one star per base vertex; join vertices get d or d+1 stars with
    d = floor((b-n)/s), the d+1 values on the lowest join labels. This is
    guaranteed feasible, so a flow failure here is an internal error.
    """
    return _construct(base, k, s, "large")


def _applies(case: str, n: int, m: int, k: int, s: int) -> bool:
    """Whether the ``case`` ("large" or "small") construction covers L v K_s
    with n = |L| and m = |E(L v K_s)|: the large one iff m >= k(n+s) and
    n >= k, the small one iff m <= k(n+s). Where both do, at m = k(n+s),
    both give every vertex one star."""
    if case == "large":
        return m >= k * (n + s) and n >= k
    return m <= k * (n + s)


def _construct(
    base: Graph, k: int, s: int, case: str, alpha_budget: int = DEFAULT_ALPHA_BUDGET
) -> StarDecomposition:
    """The ``case`` ("small" or "large") construction's decomposition of
    L v K_s, once s >= k >= 2, L has maximum degree below k, k divides |E|
    and ``_applies`` says the case covers L v K_s; a ValueError names the
    first that fails. The flow decides exactly whether the construction's
    centers are those of a decomposition, which the paper proves they are,
    so a refusal is an internal error."""
    m = join_edge_count(base, s)
    if s < k or k < 2:
        raise ValueError(f"{case}-case construction needs s >= k >= 2")
    if base.max_degree() > k - 1:
        raise ValueError("leave must have maximum degree at most k-1")
    if m % k:
        raise ValueError("edge count of the join must be divisible by k")
    if not _applies(case, base.n, m, k, s):
        cover = f"|E| = {m} with k(n+s) = {k * (base.n + s)} and n = {base.n}"
        raise ValueError(f"{case}-case construction does not cover {cover}")
    gamma = _construction_gamma(base, k, s, alpha_budget)
    return _decide_guaranteed(join(base, s), k, gamma, f"{case}-case construction")


def _construction_gamma(
    base: Graph, k: int, s: int, alpha_budget: int = DEFAULT_ALPHA_BUDGET
) -> list[int] | None:
    """The centers of the large-case construction where it applies, else of
    the small-case one, for a leave of maximum degree below k and a join
    whose edge count k divides; None where neither applies. Raises
    ObstacleViolated when L has no large enough independent set and
    BudgetExceeded when its search is cut off."""
    n = base.n
    m = join_edge_count(base, s)
    if _applies("large", n, m, k, s):
        return [1] * n + _even_spread(m // k - n, s)
    if not _applies("small", n, m, k, s):
        return None
    gamma = [1] * (n + s)
    required = obstacle_required(base, k, s)
    if required > 0:
        # fewer than k(n+s) edges: some vertices must center no star
        best = maximum_independent_set(base, alpha_budget)
        if len(best) < required:
            raise ObstacleViolated(len(best), required)
        for x in best[:required]:
            gamma[x] = 0
    return gamma


def greedy_star_removal(base: Graph, k: int) -> tuple[tuple[Star, ...], Graph]:
    """Remove k-stars (lowest center, lowest leaves first) until the graph has
    maximum degree at most k-1. Returns the stars removed and the remainder.

    While v is the center, only v's own stars remove edges at v, so they
    take v's remaining neighbours in ascending order, k at a time, and leave
    the last fewer than k."""
    rows = list(base.rows)
    stars: list[Star] = []
    for v, row in enumerate(rows):
        if row.bit_count() < k:
            continue
        nbrs = labels_of(row)
        taken = len(nbrs) - len(nbrs) % k
        stars += [Star(v, tuple(nbrs[i : i + k])) for i in range(0, taken, k)]
        for w in nbrs[:taken]:
            rows[w] ^= 1 << v
        rows[v] = mask_of(nbrs[taken:])
    if not stars:
        return (), base
    return tuple(stars), graph_from_rows(rows)


def general_cap(k: int) -> Fraction | Surd:
    """The paper's cap for every n: s < 9k/4 for odd k, s < (6-2*sqrt(2))k
    for even k. Compare as ``general_cap(k) > s``, exactly."""
    if k % 2 == 1:
        return Fraction(9 * k, 4)
    return Surd.of(6 * k, -2 * k, 2)


def n_threshold(k: int) -> Surd:
    """The paper's large-n threshold k(k-1)/(sqrt(8k) - 1), exactly: the
    ``large_n_cap`` holds once n is above it. Needs k >= 3."""
    if k < 3:
        raise ValueError("bound formulas need k >= 3")
    thr = Fraction(k * (k - 1), 8 * k - 1)  # the threshold is thr * (1 + sqrt(8k))
    return Surd.of(thr, thr, 8 * k)


def large_n_cap(k: int) -> int:
    """The paper's cap once n is above ``n_threshold(k)``:
    s <= 2k-2 for odd k, s <= 3k-2 for even k."""
    return 2 * k - 2 if k % 2 == 1 else 3 * k - 2


@cache
def guaranteed_s(n: int, k: int) -> int:
    """An embedding size that always works for a leave with these (n, k).

    Always strictly below ``general_cap(k)``; embed() succeeds at or before
    it. The case split: for large n any divisible s past a fixed fraction of
    k clears the independence bound, for middling n the target K_{4k} works
    (K_{3k} for odd k when 4n <= 7k), and for n <= k the partial
    decomposition is empty so K_{2k} absorbs it.

    The answer depends on (n, k) alone, so it is cached: the exact check
    ``general_cap(k) > s`` that guards it runs once per (n, k).
    """
    if n < 0 or k < 2:
        raise ValueError("need n >= 0 and k >= 2")
    if k == 2:
        s = next(s for s in range(1, 5) if (n + s) % 4 == 0)
    elif k % 2 == 0:
        if n * n >= 8 * k * k:
            # the smallest s above (4 - 2*sqrt(2))k = 4k - sqrt(8k^2), which
            # is irrational, so its integer part is 4k - isqrt(8k^2) - 1
            s = 4 * k - isqrt(8 * k * k)
            s += -(n + s) % (2 * k)
        elif n >= k + 1:
            s = 4 * k - n
        else:
            s = 2 * k - n
    else:
        if n * n >= 8 * k * k:
            s = (5 * k + 3) // 4  # smallest integer >= 5k/4
            while (n + s) % k != 0:
                s += 1
        elif 4 * n > 7 * k:
            s = 4 * k - n
        elif n >= k + 1:
            s = 3 * k - n
        else:
            s = 2 * k - n
    if not general_cap(k) > s:
        raise RuntimeError(f"guaranteed s={s} for n={n}, k={k} is not below the general cap")
    return s


class _LeaveFacts:
    """Two facts about one leave that ``embed`` works out at most once, at
    their first read: each is kept in the instance after it."""

    def __init__(self, base: Graph, k: int, alpha_budget: int):
        self.base, self.k, self.alpha_budget = base, k, alpha_budget

    @cached_property
    def alpha(self) -> int | None:  # None when the search is cut off: no verdict
        with suppress(BudgetExceeded):
            return independence_number(self.base, self.alpha_budget)

    @cached_property
    def greedy(self) -> tuple[tuple[Star, ...], Graph]:
        return greedy_star_removal(self.base, self.k)


def embed(
    base: Graph,
    k: int,
    max_s: int | None = None,
    gamma_budget: int = DEFAULT_GAMMA_SEARCH_BUDGET,
    alpha_budget: int = DEFAULT_ALPHA_BUDGET,
) -> EmbeddingCertificate:
    """Smallest-s embedding certificate for a leave of a partial decomposition.

    Every check and decision runs on the given leave L, so every rejection
    in the ledger is about L v K_s. For s >= k (and k >= 3) the seed is the
    center function of the stars that greedy star removal takes off L plus
    the large- or small-case center function of the core left behind. Those
    stars and the core's construction decompose L v K_s with exactly these
    center counts, and the flow decides exactly whether a decomposition with
    given center counts exists, so it must accept the seed; a refusal is an
    internal error. Every other s runs the gamma search on L v K_s,
    and an s whose search hits ``gamma_budget`` is "unknown-skipped".

    The obstacle test alpha(L) >= ``obstacle_required(L, k, s)`` needs the
    exact alpha(L) only when the requirement exceeds the Caro–Wei floor
    (``caro_wei_floor``), which is at most alpha(L); a requirement at or
    below it holds without a search. alpha(L) and greedy star removal are
    each worked out at most once, at its first need (``_LeaveFacts``): alpha's
    branch-and-bound at the first requirement above the floor, where a
    search cut off by ``alpha_budget`` gives no obstacle verdict at any s,
    and greedy removal at the first s that needs a seed.
    Minimality is "exact" when every smaller divisible s was rejected for a
    definite reason and "conditional" otherwise.
    Raises NoEmbeddingFound when no s up to the limit works.
    """
    if k < 2:
        raise ValueError("star size k must be at least 2")
    if max_s is not None and max_s < 0:
        raise ValueError(f"max_s must be nonnegative, got {max_s}")
    n = base.n
    limit = guaranteed_s(n, k) if max_s is None else max_s
    rejections: list[Rejection] = []
    definite = True
    floor = caro_wei_floor(base)

    facts = _LeaveFacts(base, k, alpha_budget)
    for s in range(0, limit + 1):
        if join_edge_count(base, s) % k:
            rejections.append(Rejection(s, REASON_DIVISIBILITY))
            continue
        edge = degree_pair_check(base, k, s)
        if edge is not None:
            rejections.append(
                Rejection(s, REASON_DEGREE_PAIR, {"edge": list(edge)})
            )
            continue
        required = obstacle_required(base, k, s)
        if required > floor and facts.alpha is not None and facts.alpha < required:
            rejections.append(
                Rejection(s, REASON_OBSTACLE, {"alpha": facts.alpha, "required": required})
            )
            continue
        target = join(base, s)
        seed = None
        if k > 2 and s >= k:
            removed, core = facts.greedy
            with suppress(ObstacleViolated, BudgetExceeded):
                seed = _construction_gamma(core, k, s, alpha_budget)
        if k == 2:
            found = two_star_decompose(target)
            if found is None:
                rejections.append(
                    Rejection(s, REASON_EXHAUSTED, {"by": "component-parity"})
                )
                continue
        elif seed is not None:
            for star in removed:
                seed[star.center] += 1
            found = _decide_guaranteed(target, k, seed, "seeded construction")
        else:
            transcript = oracle.exhaustive_gamma_search(target, k, budget=gamma_budget)
            if transcript.outcome == oracle.EXHAUSTED:
                rejections.append(
                    Rejection(
                        s, REASON_EXHAUSTED, {"gamma_candidates": transcript.nodes_explored}
                    )
                )
                continue
            if transcript.outcome != oracle.FOUND:
                rejections.append(Rejection(s, REASON_UNKNOWN, {"gamma_search": "budget"}))
                definite = False
                continue
            found = transcript.decomposition
        problem = validate_decomposition(target, found)
        if problem is not None:
            raise RuntimeError(f"embedding failed validation: {problem}")
        flag = "exact" if definite else "conditional"
        return EmbeddingCertificate(k, n, s, found, tuple(rejections), flag)
    raise NoEmbeddingFound(
        f"no embedding found for s <= {limit}; either max_s was set below the "
        "guaranteed bound or the input is not the leave of a partial decomposition"
    )


@dataclass(frozen=True)
class BoundReport:
    """All embedding-size bounds for (n, k), exactly comparable to integers."""

    k: int
    n: int
    s_lower_general: RootBound
    s_lower_clique: RootBound | None
    n_threshold: Surd
    general_cap: Fraction | Surd
    large_n_cap: int

    def n_above_threshold(self) -> bool:
        return self.n_threshold < self.n


def bound_report(n: int, k: int) -> BoundReport:
    """Exact bound values; k >= 3 (k = 2 is settled by component parity) and
    n >= 1 (a 0-vertex leave embeds at s = 0, which no formula here reads)."""
    threshold = n_threshold(k)  # refuses k < 3
    if n < 1:
        raise ValueError("bound formulas need a nonempty leave, n >= 1")
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    general = RootBound(
        Fraction(k - n) + half,
        Surd.of(Fraction(n * n + k * k - k) + quarter, -2 * n, 2 * k),
    )
    clique = None
    if k < n <= 2 * k:
        clique = RootBound(
            Fraction(k - n) + half,
            Surd.of(Fraction(4 * k * (n - k) + k * k - k) + quarter, -4 * k, 2 * (n - k)),
        )
    return BoundReport(k, n, general, clique, threshold, general_cap(k), large_n_cap(k))
