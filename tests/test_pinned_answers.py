"""Pin the program's answers on a small grid to two digests, the
``family`` command's output to a third and the rows route's stars to a
fourth.

The grid is every ``embed`` certificate and the large/small-case
constructions for every divisible s in [k, 2k], for k = 3..5, k < n <= 12
and sample seeds 0-1. The answers digest covers each certificate's s, its
minimality and the full rejection ledger with details, and the kind of each
construction (large, small, or the obstacle with its alpha and bound). The
stars digest covers the stars of every certificate and construction.

A change that is meant to keep every answer keeps both digests. A change
that only moves stars, such as a new starting orientation for the flow,
keeps the answers digest and re-pins the stars digest. Either digest is
recomputed with ``PYTHONPATH=src python tests/test_pinned_answers.py``, and
a change that re-pins one says so in CHANGES.md.

The families digest covers the exit code and the exact bytes ``stardecomp
family`` writes for each instance in FAMILY_INSTANCES: its generate JSON and
its ``--verify`` JSON at the default flow limit and at 400,000 edges.

The rows stars digest covers the stars of three decompositions on the
solver's rows route, which the grid's joins, all below 128 vertices, never
take: K_256 with k = 8, the balanced-center decomposition of tightness-T2
t = 8's 770-vertex complement, and the 768-vertex join that even-bound
t = 7's success-at-s claim decides. The families digest covers only their
star counts.
"""

import contextlib
import hashlib
import io
import json
from functools import cache

from stardecomp import cli
from stardecomp.embedding import (
    ObstacleViolated,
    embed,
    embed_large_case,
    embed_small_case,
)
from stardecomp.families import generate
from stardecomp.graphs import join_edge_count
from stardecomp.oracle import sample_maximal_partial
from stardecomp.solver import decompose_complete, decompose_with_repair

ANSWERS_DIGEST = "f411ef0083895e4c1d28603e8db1d436eb5da53a97e1a9daa29e3fc96b631ae6"
STARS_DIGEST = "2a041f05481d4b5f0b7095a009263975fb6ec1c5e1f487e4ccc0e8891c440d81"
FAMILIES_DIGEST = "4ac682394097ecd1c40a0473ec9833645341e6de30eae120d79eafc9f073536a"
ROWS_STARS_DIGEST = "588513d9ced87bbf69f1d4ab01ac607c551fa5a571e92fcee60d0d05ca681439"

GAMMA_BUDGET = 2000
ALPHA_BUDGET = 100_000

FAMILY_INSTANCES = (
    [["single-edge", "--k", str(k), "--n", str(n)] for k, n in ((3, 8), (3, 2), (5, 12), (7, 16))]
    + [["bound-n", "--t", str(t)] for t in (7, 9)]
    + [["tightness-T2", "--t", str(t)] for t in (4, 6, 8)]
    + [["even-bound", "--t", str(t)] for t in (3, 5, 7)]
    + [["odd-bound", "--k", str(k)] for k in (27, 125)]
)
FAMILY_MODES = ([], ["--verify"], ["--verify", "--flow-limit", "400000"])


def _stars(dec) -> list:
    return [[st.center, list(st.leaves)] for st in dec.stars]


def _construction(leave, k: int, s: int) -> tuple[list, list]:
    """The construction's kind (with the obstacle's numbers) and its stars."""
    n = leave.n
    if join_edge_count(leave, s) >= k * (n + s) and n >= k:
        return ["large"], _stars(embed_large_case(leave, k, s))
    try:
        return ["small"], _stars(embed_small_case(leave, k, s, ALPHA_BUDGET))
    except ObstacleViolated as exc:
        return ["obstacle", exc.alpha, exc.required], []


def answers() -> tuple[list, list]:
    """The answers and the stars of every grid point, as two lists."""
    kept, stars = [], []
    for k in range(3, 6):
        for n in range(k + 1, 13):
            for seed in (0, 1):
                _, leave = sample_maximal_partial(n, k, seed)
                cert = embed(leave, k, gamma_budget=GAMMA_BUDGET, alpha_budget=ALPHA_BUDGET)
                ledger = [[r.s, r.reason, r.detail] for r in cert.rejections]
                built = {
                    s: _construction(leave, k, s)
                    for s in range(k, 2 * k + 1)
                    if join_edge_count(leave, s) % k == 0
                }
                kinds = {s: kind for s, (kind, _) in built.items()}
                kept.append([k, n, seed, cert.s, cert.minimality, ledger, kinds])
                built_stars = {s: st for s, (_, st) in built.items()}
                stars.append([k, n, seed, _stars(cert.decomposition), built_stars])
    return kept, stars


def family_outputs() -> list:
    """[argv, exit code, stdout] of every ``family`` run the digest covers."""
    runs = []
    for instance in FAMILY_INSTANCES:
        for mode in FAMILY_MODES:
            argv = ["family", "--id", *instance, *mode]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            runs.append([argv, code, out.getvalue()])
    return runs


def rows_stars() -> list:
    """The stars of the three rows-route decompositions, in order."""
    t2 = generate("tightness-T2", t=8)
    even = generate("even-bound", t=7)
    (s,) = [c.params["s"] for c in even.claims if c.kind == "success-at-s"]
    return [
        _stars(decompose_complete(256, 8)),
        _stars(decompose_with_repair(t2.leave.complement(), t2.k)),
        _stars(embed_large_case(even.leave, even.k, s)),
    ]


def _digest(data: list) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@cache
def digests() -> tuple[str, str]:
    kept, stars = answers()
    return _digest(kept), _digest(stars)


def test_answers_match_pinned_digest():
    assert digests()[0] == ANSWERS_DIGEST


def test_stars_match_pinned_digest():
    assert digests()[1] == STARS_DIGEST


def test_family_outputs_match_pinned_digest():
    assert _digest(family_outputs()) == FAMILIES_DIGEST


def test_rows_stars_match_pinned_digest():
    assert _digest(rows_stars()) == ROWS_STARS_DIGEST


if __name__ == "__main__":
    answers_digest, stars_digest = digests()
    print("answers", answers_digest)
    print("stars", stars_digest)
    print("families", _digest(family_outputs()))
    print("rows stars", _digest(rows_stars()))
