"""Pin the program's answers on a small grid to one digest.

The digest covers every ``embed`` certificate (s, minimality, the full
rejection ledger with details, the stars) and the large/small-case
constructions for every divisible s in [k, 2k], for k = 3..5, k < n <= 12
and sample seeds 0-1. A change that is meant to keep every answer must keep
the digest. A change that alters answers on purpose recomputes it with
``PYTHONPATH=src python tests/test_pinned_answers.py`` and says so in CHANGES.md.
"""

import hashlib
import json

from stardecomp.embedding import (
    ObstacleViolated,
    embed,
    embed_large_case,
    embed_small_case,
)
from stardecomp.graphs import join_edge_count
from stardecomp.oracle import sample_maximal_partial

PINNED_DIGEST = "5ec532f3babf8c6fbd82fa059ab741dce60cf6272a1c495e90473d2e235d9a97"

GAMMA_BUDGET = 2000
ALPHA_BUDGET = 100_000


def _stars(dec) -> list:
    return [[st.center, list(st.leaves)] for st in dec.stars]


def _construction(leave, k: int, s: int) -> list:
    n = leave.n
    if join_edge_count(leave, s) >= k * (n + s) and n >= k:
        return ["large", _stars(embed_large_case(leave, k, s))]
    try:
        return ["small", _stars(embed_small_case(leave, k, s, ALPHA_BUDGET))]
    except ObstacleViolated as exc:
        return ["obstacle", exc.alpha, exc.required]


def answers() -> list:
    out = []
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
                out.append(
                    [k, n, seed, cert.s, cert.minimality, ledger, _stars(cert.decomposition), built]
                )
    return out


def digest() -> str:
    text = json.dumps(answers(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_answers_match_pinned_digest():
    assert digest() == PINNED_DIGEST


if __name__ == "__main__":
    print(digest())
