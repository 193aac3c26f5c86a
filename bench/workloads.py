"""The benchmark's three workloads: inputs, the timed call, and the gate.

Each workload turns a workload seed into a fixed list of ops. ``run`` is the
only part that is timed. ``answer`` reduces a result to what the answer
fingerprint hashes: everything the gate looks at. ``check`` re-checks a
result without trusting the solver and returns None or the problem found.
``facts`` are summed into the answer-quality numbers. Budgets are passed
explicitly, so the program's defaults and ``STARDEC_BUDGET`` do not change
the work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

GAMMA_BUDGET = 2000  # gamma candidates tried per sub-k s in embed
ALPHA_BUDGET = 10_000_000  # independence branch-and-bound nodes
FLOW_LIMIT_LARGE = 400_000  # family complement edges, so the big flows run
FLOW_LIMIT_DEFAULT = 5000  # the CLI default, under which bound-n t=9 is skipped

SWEEP_KS = range(3, 8)
N_MAX = 30


def cap_problem(sd, k: int, n: int, s: int) -> str | None:
    """The paper's caps on s, compared exactly."""
    if k % 2 == 1:
        if not 4 * s < 9 * k:
            return f"s={s} breaks the odd general cap 9k/4"
        large_n_cap = 2 * k - 2
    else:
        if not sd.exactnum.Surd.of(6 * k, -2 * k, 2) > s:
            return f"s={s} breaks the even general cap (6-2*sqrt(2))k"
        large_n_cap = 3 * k - 2
    if sd.embedding.bound_report(n, k).n_above_threshold() and s > large_n_cap:
        return f"s={s} breaks the large-n cap {large_n_cap}"
    return None


class GridWorkload:
    """A workload over (k, n, sample seed) cells; tests shrink the grid."""

    seeds_per_cell: int

    def __init__(self, ks=SWEEP_KS, n_max: int = N_MAX, seeds_per_cell: int | None = None):
        self.ks = ks
        self.n_max = n_max
        if seeds_per_cell is not None:
            self.seeds_per_cell = seeds_per_cell

    def cells(self, seed: int):
        """(k, n, sample seed) triples. The workload seed w offsets every
        sample seed: cell (k, n) samples seeds w .. w + seeds_per_cell - 1."""
        for k in self.ks:
            for n in range(k + 1, self.n_max + 1):
                for j in range(self.seeds_per_cell):
                    yield k, n, seed + j

    def failed_facts(self, op) -> dict:
        return {"answers": 1}


@dataclass(frozen=True)
class SweepOp:
    label: str
    k: int
    n: int
    leave: object


class Sweep(GridWorkload):
    """``embed`` on sampled leaves over the acceptance grid."""

    name = "sweep"
    seeds_per_cell = 20

    def generate(self, sd, seed: int) -> list[SweepOp]:
        ops = []
        for k, n, sample in self.cells(seed):
            _, leave = sd.oracle.sample_maximal_partial(n, k, sample)
            ops.append(SweepOp(f"k{k}-n{n}-seed{sample}", k, n, leave))
        return ops

    def run(self, sd, op: SweepOp):
        return sd.embedding.embed(
            op.leave, op.k, gamma_budget=GAMMA_BUDGET, alpha_budget=ALPHA_BUDGET
        )

    def answer(self, op: SweepOp, cert) -> tuple:
        ledger = tuple((r.s, r.reason) for r in cert.rejections)
        stars = tuple((st.center, st.leaves) for st in cert.decomposition.stars)
        return (op.label, cert.k, cert.n, cert.s, cert.minimality, ledger, stars)

    def facts(self, op: SweepOp, answer: tuple) -> dict:
        exact = answer[4] == "exact"
        return {"answers": 1, "definite": int(exact), "conditional": int(not exact), "s_total": answer[3]}

    def check(self, sd, op: SweepOp, cert, answer: tuple) -> str | None:
        if (cert.k, cert.n) != (op.k, op.n):
            return f"certificate is for k={cert.k}, n={cert.n}"
        target = sd.graphs.join(op.leave, cert.s)
        problem = sd.solver.validate_decomposition(target, cert.decomposition)
        if problem is not None:
            return f"invalid decomposition: {problem}"
        problem = cap_problem(sd, op.k, op.n, cert.s)
        if problem is not None:
            return problem
        listed = sorted(r.s for r in cert.rejections)
        if listed != list(range(cert.s)):
            return f"ledger lists s={listed}, wanted each of 0..{cert.s - 1} once"
        skipped = any(r.reason == "unknown-skipped" for r in cert.rejections)
        if cert.minimality not in ("exact", "conditional"):
            return f"unknown minimality {cert.minimality!r}"
        if (cert.minimality == "exact") == skipped:
            return f"minimality {cert.minimality} with unknown-skipped={skipped}"
        return None

    def quality(self, facts) -> dict:
        certs = facts["answers"]
        return {
            "conditional_rate": (facts["conditional"] / certs, "fraction"),
            "conditional": (facts["conditional"], "count"),
            "mean_s": (facts["s_total"] / certs, "vertices"),
        }


@dataclass(frozen=True)
class ConstructionOp:
    label: str
    k: int
    s: int
    large: bool
    leave: object


class Constructions(GridWorkload):
    """The criterion-5 constructions for every divisible s in [k, 4k].

    Five sampled leaves per cell rather than the ten criterion 5 uses, so
    that three passes fit in one run.
    """

    name = "constructions"
    seeds_per_cell = 5

    def generate(self, sd, seed: int) -> list[ConstructionOp]:
        ops = []
        for k, n, sample in self.cells(seed):
            _, leave = sd.oracle.sample_maximal_partial(n, k, sample)
            for s in range(k, 4 * k + 1):
                m = sd.graphs.join_edge_count(leave, s)
                if m % k:
                    continue
                large = m >= k * (n + s) and n >= k
                ops.append(ConstructionOp(f"k{k}-n{n}-seed{sample}-s{s}", k, s, large, leave))
        return ops

    def run(self, sd, op: ConstructionOp):
        if op.large:
            return sd.embedding.embed_large_case(op.leave, op.k, op.s)
        return sd.embedding.embed_small_case(op.leave, op.k, op.s, ALPHA_BUDGET)

    def answer(self, op: ConstructionOp, dec) -> tuple:
        return (op.label, dec.k, tuple((st.center, st.leaves) for st in dec.stars))

    def check(self, sd, op: ConstructionOp, dec, answer: tuple) -> str | None:
        if dec.k != op.k:
            return f"decomposition has k={dec.k}"
        return sd.solver.validate_decomposition(sd.graphs.join(op.leave, op.s), dec)

    def facts(self, op: ConstructionOp, answer: tuple) -> dict:
        return {"answers": 1, "definite": 1}

    def quality(self, facts) -> dict:
        return {}


# (label, family id, generator parameters, flow edge limit). The first four
# get a flow limit high enough that their complement flows actually run.
FAMILY_LIST = (
    ("bound-n-t7", "bound-n", {"t": 7}, FLOW_LIMIT_LARGE),
    ("even-bound-t7", "even-bound", {"t": 7}, FLOW_LIMIT_LARGE),
    ("tightness-T2-t8", "tightness-T2", {"t": 8}, FLOW_LIMIT_LARGE),
    ("odd-bound-k125", "odd-bound", {"k": 125}, FLOW_LIMIT_LARGE),
    ("single-edge-k3-n8", "single-edge", {"k": 3, "n": 8}, FLOW_LIMIT_DEFAULT),
    ("even-bound-t3", "even-bound", {"t": 3}, FLOW_LIMIT_DEFAULT),
    ("bound-n-t9", "bound-n", {"t": 9}, FLOW_LIMIT_DEFAULT),
)


@dataclass(frozen=True)
class FamilyOp:
    label: str
    argv: tuple[str, ...]
    out: Path
    claims: int


class Families:
    """``stardecomp family --verify`` through the CLI, in process.

    The instances are fixed; the workload seed does not change them.
    """

    name = "families"

    def __init__(self, out_dir: Path, family_list=FAMILY_LIST):
        self.out_dir = out_dir
        self.family_list = family_list

    def generate(self, sd, seed: int) -> list[FamilyOp]:
        ops = []
        for label, family_id, params, flow_limit in self.family_list:
            claims = len(sd.families.generate(family_id, **params).claims)
            out = self.out_dir / f"{label}.json"
            argv = ["family", "--id", family_id]
            for key, value in params.items():
                argv += [f"--{key}", str(value)]
            argv += ["--verify", "--flow-limit", str(flow_limit), "--out", str(out)]
            ops.append(FamilyOp(label, tuple(argv), out, claims))
        return ops

    def run(self, sd, op: FamilyOp):
        op.out.unlink(missing_ok=True)
        return sd.cli.main(list(op.argv))

    def answer(self, op: FamilyOp, code) -> tuple:
        report = json.loads(op.out.read_text())
        return (op.label, code, tuple((c["kind"], c["status"]) for c in report["claims"]))

    def check(self, sd, op: FamilyOp, code, answer: tuple) -> str | None:
        statuses = answer[2]
        refuted = [kind for kind, status in statuses if status == "refuted"]
        if code != 0:
            return f"exit code {code}"
        if refuted:
            return f"refuted claims: {refuted}"
        if len(statuses) != op.claims:
            return f"report has {len(statuses)} claims, the instance has {op.claims}"
        return None

    def facts(self, op: FamilyOp, answer: tuple) -> dict:
        statuses = answer[2]
        skipped = sum(status == "skipped-budget" for _, status in statuses)
        return {"answers": len(statuses), "definite": len(statuses) - skipped, "skipped_claims": skipped}

    def failed_facts(self, op: FamilyOp) -> dict:
        return {"answers": op.claims}

    def quality(self, facts) -> dict:
        return {"skipped_claims": (facts["skipped_claims"], "count")}
