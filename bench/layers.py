"""Which program calls the traced run wraps, and the per-layer metrics.

Every name binding of a wrapped function is patched: the module global its
siblings call (``solver.decompose_with_repair`` calls
``decide_star_decomposition`` as a global) and every ``from ... import``
copy (``embedding``, ``oracle``, ``families`` and ``cli`` each hold one).
``MaxFlow.add_edge`` is deliberately not wrapped, since it runs millions of
times; the network build is timed from ``MaxFlow.__init__`` to ``max_flow``.
"""

from __future__ import annotations

import time
from functools import partial

from spans import Tracer

OP_SPAN = "bench.op"
REJECTION_REASONS = (
    "divisibility",
    "degree-pair",
    "obstacle",
    "exhausted-nonexistence",
    "unknown-skipped",
)
GAMMA_OUTCOMES = {
    "found": "found",
    "exhausted-nonexistence": "exhausted",
    "budget-exceeded": "budget_exceeded",
}
CLAIM_STATUSES = {"verified": "verified", "skipped-budget": "skipped", "refuted": "refuted"}


def _decide_result(tracer, args, result) -> None:
    if type(result).__name__ == "StarDecomposition":
        tracer.counts["solver.decide.feasible"] += 1


def _gamma_result(tracer, args, transcript) -> None:
    tracer.counts["oracle.gamma_candidates_tried"] += transcript.nodes_explored
    tracer.counts[f"oracle.gamma_search.{GAMMA_OUTCOMES[transcript.outcome]}"] += 1


def _exhaustive_result(tracer, args, transcript) -> None:
    tracer.counts["oracle.exhaustive_decomposition.nodes"] += transcript.nodes_explored


def _embed_result(tracer, args, cert) -> None:
    for rejection in cert.rejections:
        tracer.counts[f"embedding.rejections.{rejection.reason}"] += 1


def _verify_result(tracer, args, report) -> None:
    for result in report.results:
        tracer.counts[f"families.claims.{CLAIM_STATUSES[result.status]}"] += 1


def _wrap_flow(tracer: Tracer, cls) -> None:
    # Build start times are kept by object id rather than on the network
    # object, whose attribute layout the solver's hot loops depend on.
    build_start: dict[int, float] = {}
    init = cls.__init__

    def traced_init(self, *args, **kwargs):
        if tracer.active:
            build_start[id(self)] = time.perf_counter()
            tracer.counts["flow.networks"] += 1
        init(self, *args, **kwargs)

    tracer.patch(cls, "__init__", traced_init)
    tracer.wrap(cls, "max_flow", "flow.max_flow")
    max_flow = cls.max_flow

    def timed_build(self, *args, **kwargs):
        start = build_start.pop(id(self), None)
        if tracer.active and start is not None:
            tracer.add_span("flow.build", start, time.perf_counter())
            tracer.counts["flow.arcs"] += len(self.to) // 2
        return max_flow(self, *args, **kwargs)

    tracer.patch(cls, "max_flow", timed_build)
    tracer.wrap(cls, "residual_reachable", "flow.residual_reachable")


def instrument(tracer: Tracer, sd) -> None:
    """Patch the loaded program ``sd`` (see ``run.load_program``) in place."""
    every = partial(tracer.wrap_everywhere, sd.modules)
    every(sd.solver.decide_star_decomposition, "solver.decide", _decide_result)
    every(sd.solver.shrink_witness, "solver.shrink_witness")
    every(sd.solver.deficiency, "solver.deficiency")
    every(sd.solver.validate_decomposition, "solver.validate")
    every(sd.solver.decompose_with_repair, "solver.repair")
    every(sd.oracle.exhaustive_gamma_search, "oracle.gamma_search", _gamma_result)
    every(sd.oracle.count_gamma_candidates, "oracle.count_gamma_candidates")
    every(sd.oracle.exhaustive_decomposition, "oracle.exhaustive_decomposition", _exhaustive_result)
    every(sd.embedding.embed, "embedding.embed", _embed_result)
    every(sd.embedding.embed_large_case, "embedding.large_case")
    every(sd.embedding.embed_small_case, "embedding.small_case")
    every(sd.embedding.guaranteed_s, "embedding.guaranteed_s")
    every(sd.graphs.join, "graphs.join")
    tracer.wrap(sd.graphs.Graph, "complement", "graphs.complement")
    every(sd.independence.independence_number, "independence.alpha")
    every(sd.independence.maximum_independent_set, "independence.mis")
    for attr in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        tracer.wrap(sd.exactnum.Surd, attr, "exactnum.compare")
    tracer.wrap(sd.exactnum.RootBound, "cmp", "exactnum.compare")
    every(sd.families.verify_instance, "families.verify", _verify_result)
    every(sd.cli.main, "cli.main")
    _wrap_flow(tracer, sd.flow.MaxFlow)


def layer_metrics(
    tracer: Tracer, op_labels: dict[int, str], traced_wall: float
) -> tuple[dict, list[str]]:
    """Per-layer metrics as {name: (value, unit)}, plus accounting problems.

    ``op_labels`` maps each op span to its op's label, which names the
    ``families.verify_s.*`` entry of each family instance verified.
    The self times of all spans, the op spans' own ("unwrapped") time
    included, must add up to ``traced_wall``, the summed op time of the pass.
    """
    calls, self_s, total_s, problems = tracer.summarize()
    accounted = sum(self_s.values())
    if abs(accounted - traced_wall) > 0.01 * traced_wall:
        problems.append(
            f"self times add up to {accounted:.6f} s, traced wall is {traced_wall:.6f} s"
        )
    counts = tracer.counts

    def n(name: str) -> tuple[int, str]:
        return (calls.get(name, 0), "count")

    def t(name: str) -> tuple[float, str]:
        return (self_s.get(name, 0.0), "s")

    def total(name: str) -> tuple[float, str]:
        return (total_s.get(name, 0.0), "s")

    def c(name: str) -> tuple[int, str]:
        return (counts.get(name, 0), "count")

    decides = calls.get("solver.decide", 0)
    repair_decides = sum(
        1
        for i in tracer.spans_named("solver.decide")
        if tracer.parent[i] >= 0
        and tracer.names[tracer.name_id[tracer.parent[i]]] == "solver.repair"
    )
    out = {
        "flow.networks": c("flow.networks"),
        "flow.arcs": c("flow.arcs"),
        "flow.build_s": t("flow.build"),
        "flow.max_flow.self_s": t("flow.max_flow"),
        "flow.residual_reachable.calls": n("flow.residual_reachable"),
        "flow.residual_reachable.self_s": t("flow.residual_reachable"),
        "solver.decide.calls": n("solver.decide"),
        "solver.decide.feasible": c("solver.decide.feasible"),
        "solver.decide.feasible_ratio": (
            counts.get("solver.decide.feasible", 0) / decides if decides else 0.0,
            "fraction",
        ),
        "solver.decide.self_s": t("solver.decide"),
        "solver.decide.total_s": total("solver.decide"),
        "solver.shrink_witness.calls": n("solver.shrink_witness"),
        "solver.shrink_witness.self_s": t("solver.shrink_witness"),
        "solver.deficiency.calls": n("solver.deficiency"),
        "solver.validate.calls": n("solver.validate"),
        "solver.validate.self_s": t("solver.validate"),
        "solver.repair.calls": n("solver.repair"),
        "solver.repair.decides": (repair_decides, "count"),
        "oracle.gamma_search.calls": n("oracle.gamma_search"),
        "oracle.gamma_search.self_s": t("oracle.gamma_search"),
        "oracle.gamma_search.total_s": total("oracle.gamma_search"),
        "oracle.gamma_candidates_tried": c("oracle.gamma_candidates_tried"),
        "oracle.gamma_search.found": c("oracle.gamma_search.found"),
        "oracle.gamma_search.exhausted": c("oracle.gamma_search.exhausted"),
        "oracle.gamma_search.budget_exceeded": c("oracle.gamma_search.budget_exceeded"),
        "oracle.count_gamma_candidates.calls": n("oracle.count_gamma_candidates"),
        "oracle.count_gamma_candidates.self_s": t("oracle.count_gamma_candidates"),
        "oracle.exhaustive_decomposition.calls": n("oracle.exhaustive_decomposition"),
        "oracle.exhaustive_decomposition.nodes": c("oracle.exhaustive_decomposition.nodes"),
        "oracle.exhaustive_decomposition.self_s": t("oracle.exhaustive_decomposition"),
        "embedding.embed.calls": n("embedding.embed"),
        "embedding.embed.self_s": t("embedding.embed"),
        "embedding.embed.total_s": total("embedding.embed"),
        "embedding.large_case.calls": n("embedding.large_case"),
        "embedding.large_case.self_s": t("embedding.large_case"),
        "embedding.small_case.calls": n("embedding.small_case"),
        "embedding.small_case.self_s": t("embedding.small_case"),
        **{f"embedding.rejections.{r}": c(f"embedding.rejections.{r}") for r in REJECTION_REASONS},
        "embedding.guaranteed_s.self_s": t("embedding.guaranteed_s"),
        "graphs.join.calls": n("graphs.join"),
        "graphs.join.self_s": t("graphs.join"),
        "graphs.complement.calls": n("graphs.complement"),
        "graphs.complement.self_s": t("graphs.complement"),
        "independence.alpha.calls": n("independence.alpha"),
        "independence.alpha.self_s": t("independence.alpha"),
        "independence.alpha.budget_exceeded": c("independence.alpha.raised.BudgetExceeded"),
        "independence.mis.calls": n("independence.mis"),
        "independence.mis.self_s": t("independence.mis"),
        "exactnum.compare.calls": n("exactnum.compare"),
        "exactnum.compare.self_s": t("exactnum.compare"),
        "families.claims.verified": c("families.claims.verified"),
        "families.claims.skipped": c("families.claims.skipped"),
        "families.claims.refuted": c("families.claims.refuted"),
        "cli.main.calls": n("cli.main"),
        "cli.main.self_s": t("cli.main"),
        "unwrapped_s": t(OP_SPAN),
    }
    for i in tracer.spans_named("families.verify"):
        name = f"families.verify_s.{op_labels[tracer.root_of(i)]}"
        out[name] = (out.get(name, (0.0,))[0] + tracer.end[i] - tracer.start[i], "s")
    return out, problems
