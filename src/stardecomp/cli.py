"""Batch command line front end.

Subcommands: decompose, embed, family, sweep, bounds. All outputs are
deterministic JSON or CSV; the sweep's runtime column is the only field that
varies between runs. Each budget is a flag with a fixed default.

Exit codes: 0 decision reached, 1 malformed input (including usage errors),
2 budget or search limit exceeded (including memory running out), 3 internal
error, 4 a family claim was refuted, 5 a sweep row broke its cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

from . import families, oracle
from .embedding import (
    NoEmbeddingFound,
    bound_report,
    embed,
    general_cap,
    large_n_cap,
    n_threshold,
)
from .exactnum import to_fixed
from .graphs import complete_graph, read_graph
from .solver import (
    StarDecomposition,
    decide_star_decomposition,
    decompose_complete,
    decomposition_to_dot,
    two_star_decompose,
)

SWEEP_COLUMNS = [
    "k",
    "n",
    "seed",
    "s",
    "minimality",
    "general_cap",
    "within_general_cap",
    "large_n_cap",
    "within_large_n_cap",
    "runtime_ms",
]
SWEEP_HEADER = "# stardecomp sweep v1: " + ",".join(SWEEP_COLUMNS)
_BUDGET_HELP = (
    "gamma candidates tried per gamma search, so per searched s in embed and "
    f"sweep (default {oracle.DEFAULT_GAMMA_BUDGET})"
)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are malformed input, reported by ``main`` with exit 1."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _int_at_least(least: int):
    """An argparse type for counts; a value below ``least`` is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _dump_json(data: dict, out: str | None) -> None:
    _write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", out)


def _cmd_decompose(args: argparse.Namespace) -> int:
    k = args.k
    if args.complete is not None and args.gamma is not None:
        raise ValueError("--gamma needs --graph")
    if args.budget is not None and (args.complete is not None or args.gamma is not None or k == 2):
        raise ValueError("--budget limits only the gamma search (--graph, k >= 3, no --gamma)")
    code = 0
    if args.complete is not None:
        dec = decompose_complete(args.complete, k)
        payload = {"exists": dec is not None, "n": args.complete, "k": k}
        g = complete_graph(args.complete) if dec is not None and args.dot else None
    else:
        g = read_graph(args.graph)
        if args.gamma is not None:
            gamma = json.loads(Path(args.gamma).read_text())
            if not isinstance(gamma, list) or any(type(x) is not int for x in gamma):
                raise ValueError("--gamma must be a JSON list of integers")
            result = decide_star_decomposition(g, k, gamma)
            dec = result if isinstance(result, StarDecomposition) else None
            payload = {"exists": dec is not None}
            if dec is None:
                payload["witness"] = result.to_json_dict()
        elif k == 2:
            dec = two_star_decompose(g)
            payload = {"exists": dec is not None}
            if dec is None:
                # a degree sum is twice the edge count, 2 mod 4 when that is odd
                degrees = g.degrees
                payload["odd_components"] = [
                    comp for comp in g.components() if sum(degrees[x] for x in comp) % 4 == 2
                ]
        else:
            budget = oracle.DEFAULT_GAMMA_BUDGET if args.budget is None else args.budget
            transcript = oracle.exhaustive_gamma_search(g, k, budget)
            dec = transcript.decomposition
            if transcript.outcome == oracle.BUDGET_EXCEEDED:
                payload = {"outcome": transcript.outcome, "tried": transcript.nodes_explored}
                code = 2
            else:
                payload = {"exists": dec is not None}
                if dec is None:
                    payload["gamma_candidates_tried"] = transcript.nodes_explored
    if dec is not None:
        payload["decomposition"] = dec.to_json_dict()
        if args.dot:
            _write_text(decomposition_to_dot(g, dec), args.dot)
    _dump_json(payload, args.out)
    return code


def _cmd_embed(args: argparse.Namespace) -> int:
    g = read_graph(args.leave)
    try:
        cert = embed(g, args.k, max_s=args.max_s, gamma_budget=args.budget)
    except NoEmbeddingFound as exc:
        print(f"no embedding within limits: {exc}", file=sys.stderr)
        return 2
    _dump_json(cert.to_json_dict(), args.out)
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    if args.flow_limit is not None and not args.verify:
        raise ValueError("--flow-limit needs --verify")
    params = {p: v for p in ("k", "n", "t") if (v := getattr(args, p)) is not None}
    inst = families.generate(args.id, **params)
    if not args.verify:
        _dump_json(inst.to_json_dict(), args.out)
        return 0
    limit = families.FLOW_EDGE_LIMIT if args.flow_limit is None else args.flow_limit
    report = families.verify_instance(inst, limit)
    _dump_json(report.to_json_dict(), args.out)
    return 0 if report.all_ok() else 4


def _sweep_cell(task: tuple[int, int, int, int]) -> dict:
    k, n, seed, budget = task
    _, leave = oracle.sample_maximal_partial(n, k, seed)
    start = time.perf_counter()
    cert = embed(leave, k, gamma_budget=budget)
    elapsed_ms = int(1000 * (time.perf_counter() - start))
    cap = general_cap(k)
    s1_cap = large_n_cap(k)
    above_threshold = k < 3 or n_threshold(k) < n
    return {
        "k": k,
        "n": n,
        "seed": seed,
        "s": cert.s,
        "minimality": cert.minimality,
        "general_cap": to_fixed(cap),
        "within_general_cap": int(cap > cert.s),
        "large_n_cap": s1_cap,
        "within_large_n_cap": int(cert.s <= s1_cap) if above_threshold else "",
        "runtime_ms": elapsed_ms,
    }


def run_sweep(
    k_values: list[int], n_values: list[int], seeds: int, budget: int, jobs: int = 1
) -> list[dict]:
    tasks = [
        (k, n, seed, budget)
        for k in k_values
        for n in n_values
        if n >= k + 1
        for seed in range(seeds)
    ]
    if jobs > 1:
        # imported here: the pool loads multiprocessing, which a serial run
        # does not need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_cell, tasks, chunksize=8))
    else:
        rows = [_sweep_cell(t) for t in tasks]
    rows.sort(key=lambda r: (r["k"], r["n"], r["seed"]))
    return rows


def _int_list(text: str) -> list[int]:
    """An argparse type for a comma list of ints. An empty list is a usage
    error: a run over nothing would read as a clean pass."""
    try:
        values = [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"lists no values: {text!r}")
    return values


def _int_range(text: str) -> list[int]:
    """An argparse type for a range lo:hi, both ends included, or a comma
    list of ints. An empty range is a usage error, as an empty list is."""
    if ":" not in text:
        return _int_list(text)
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a range lo:hi of integers: {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"range {text!r} is empty, {hi} < {lo}")
    return list(range(lo, hi + 1))


def _cmd_sweep(args: argparse.Namespace) -> int:
    rows = run_sweep(args.k, args.n, args.seeds, args.budget, args.jobs)
    if not rows:  # --seeds is at least 1, so no n is above the least k
        least = min(args.k)
        raise ValueError(f"argument --n: selects no cell, each n is at most the least k, {least}")
    buf = io.StringIO()
    buf.write(SWEEP_HEADER + "\n")
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    _write_text(buf.getvalue(), args.out)
    violations = [r for r in rows if not r["within_general_cap"]]
    violations += [r for r in rows if r["within_large_n_cap"] == 0]
    return 5 if violations else 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    buf = io.StringIO()
    buf.write("# stardecomp bounds v1\n")
    columns = [
        "k",
        "n",
        "s_lower_general",
        "s_lower_general_min_s",
        "s_lower_clique",
        "s_lower_clique_min_s",
        "n_threshold",
        "n_above_threshold",
        "general_cap",
        "large_n_cap",
    ]
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    for n in args.n or [None]:
        row = {
            "k": args.k,
            "n_threshold": to_fixed(n_threshold(args.k)),
            "general_cap": to_fixed(general_cap(args.k)),
            "large_n_cap": large_n_cap(args.k),
        }
        if n is not None:
            report = bound_report(n, args.k)
            row |= {
                "n": n,
                "s_lower_general": to_fixed(report.s_lower_general),
                "s_lower_general_min_s": report.s_lower_general.min_integer_above(),
                "n_above_threshold": int(report.n_above_threshold()),
            }
            if report.s_lower_clique is not None:
                row["s_lower_clique"] = to_fixed(report.s_lower_clique)
                row["s_lower_clique_min_s"] = report.s_lower_clique.min_integer_above()
        writer.writerow(row)
    _write_text(buf.getvalue(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="stardecomp",
        description="Exact k-star decomposition solver, embedder, and family verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a graph into k-stars")
    p.add_argument("--k", type=int, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--complete", type=int, help="use K_n for the given n")
    source.add_argument("--graph", help="graph file (edge list or JSON)")
    p.add_argument("--gamma", help="JSON list of per-vertex center counts")
    p.add_argument("--budget", type=_int_at_least(0), help=_BUDGET_HELP)
    p.add_argument("--out")
    p.add_argument("--dot", help="write a DOT rendering of the decomposition")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("embed", help="embed a leave into a larger complete graph")
    p.add_argument("--leave", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-s", type=_int_at_least(0), dest="max_s")
    p.add_argument(
        "--budget", type=_int_at_least(0), default=oracle.DEFAULT_GAMMA_BUDGET, help=_BUDGET_HELP
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("family", help="generate or verify a tightness family")
    p.add_argument("--id", required=True, choices=families.FAMILY_IDS)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--verify", action="store_true")
    p.add_argument(
        "--flow-limit",
        type=_int_at_least(0),
        help=(
            "largest graph a claim builds, complement or join "
            f"(default {families.FLOW_EDGE_LIMIT}; needs --verify)"
        ),
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("sweep", help="sample leaves and embed across a (k, n) grid")
    p.add_argument("--k", type=_int_list, required=True, help="comma-separated list, e.g. 3,5")
    p.add_argument("--n", type=_int_range, required=True, help="range lo:hi or comma list")
    p.add_argument("--seeds", type=_int_at_least(1), default=20)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument(
        "--budget", type=_int_at_least(0), default=oracle.DEFAULT_GAMMA_BUDGET, help=_BUDGET_HELP
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", help="tabulate the embedding-size bounds")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=_int_range, help="range lo:hi or comma list")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: memory ran out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
