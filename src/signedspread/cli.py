"""Command-line surface: one binary, subcommand style.

Exit codes: 0 success, 1 domain error (a named precondition failed),
2 usage error, 3 verification suite reported failures. Every JSON
payload carries "schema": 1 and ends with a newline; diagnostics go to
stderr only, so stdout stays pipeable. Each subcommand handler returns
(exit code, text) and writes nothing; only main writes the text, to
stdout or to -o FILE. The argparse tree is built once per process
(build_parser), so in-process callers of main pay only for parsing
their own arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import cache

from . import __version__
from .engine import (
    MODE_ID,
    MODE_RID,
    Label,
    Placement,
    Strategy,
    _dumps_trace,
    label_to_str,
    run,
    str_to_label,
    strategy_to_json,
)
from .errors import InputError, SignedSpreadError
from .families import FamilySpec
from .graph import (
    FRUSTRATION_MAX_N,
    equivalent,
    frustration_index,
    graph_from_json,
    graph_to_json,
    is_antibalanced,
    is_balanced,
    negate_signature,
    realize_min_signature,
    switch,
)
from .solver import (
    Budget,
    exact_confusion,
    exact_relaxed_confusion,
    min_steps,
    relaxed_via_class,
)
from .strategies import POLICIES, policy_bound
from .verify import explore_conjecture, run_suite

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# I/O helpers


def _read_text(path: str | None) -> str:
    stdin = path is None or path == "-"
    try:
        if stdin:
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {'stdin' if stdin else path}: {exc}") from exc


def _read_graph(path: str | None):
    text = _read_text(path)
    if not text.strip():
        raise UsageError("expected a graph JSON document on input, got nothing")
    try:
        payload = json.loads(text)
    # a JSONDecodeError is a ValueError, and so is an int literal longer
    # than the int-string limit (sys.get_int_max_str_digits())
    except (ValueError, RecursionError) as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc
    return graph_from_json(payload)


def _emit(text: str, path: str | None):
    """Write text and, if it lacks one, a closing newline to stdout or
    to path; two writes, so a large document is not copied to add it."""
    end = "" if text.endswith("\n") else "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        sys.stdout.write(end)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write(end)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def graph_to_dot(g, labels=None) -> str:
    """Graphviz rendering: negative edges dashed and red, confused
    vertices filled. With labels, each node shows its current value."""
    lines = ["graph signedspread {", "  node [shape=circle];"]
    for v in range(g.n):
        attrs = []
        if labels is not None:
            val = label_to_str(labels[v])
            attrs.append(f'label="{v}:{val}"')
            if int(labels[v]) == int(Label.CONFUSED):
                attrs.append("style=filled")
                attrs.append('fillcolor="grey80"')
        body = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  v{v}{body};")
    for u, v, s in g.edges:
        style = ' [style=dashed, color="red"]' if s < 0 else ""
        lines.append(f"  v{u} -- v{v}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_signs(text: str, count: int) -> list:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        signs = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"--signs expects comma-separated 1/-1, got {text!r}") from None
    if len(signs) != count:
        raise UsageError(f"--signs expects {count} entries, got {len(signs)}")
    return signs


def _parse_flags(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not all(p in ("0", "1") for p in parts):
        raise UsageError(f"--layer-signs expects comma-separated 0/1, got {text!r}")
    return tuple(p == "1" for p in parts)


def _parse_vertices(text: str) -> list:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"expected comma-separated vertex ids, got {text!r}") from None


def _budget_from(args) -> Budget:
    return Budget(
        nodes=args.budget_nodes,
        seconds=args.budget_secs,
        max_n=args.max_n,
    )


# ---------------------------------------------------------------------------
# subcommands


# CLI kind -> (family kind, size parameters, the names its usage error
# prints, the generator keywords its flags fill); the order is the one
# an unknown kind's error lists
_GENERATE = {
    "gn": ("gn", ("n",), "n", ()),
    "ktt": ("ktt_tau", ("t",), "t", ("negated",)),
    "gst": ("gst", ("s", "t"), "s t", ("layer_signs",)),
    "cycle": ("cycle", ("k",), "length", ("signs",)),
    "path": ("path", ("n",), "length", ("signs",)),
    "tree": ("random_tree", ("n",), "n", ("seed", "neg_prob")),
    "random": ("random_connected", ("n",), "n", ("seed", "edge_prob", "neg_prob")),
}


def _cmd_generate(args) -> tuple:
    family, params, names, keywords = _GENERATE[args.kind]
    if len(args.size) != len(params):
        raise UsageError(
            f"generate {args.kind} expects {len(params)} size argument(s) ({names}), "
            f"got {len(args.size)}"
        )
    kw = dict(zip(params, args.size), **{key: getattr(args, key) for key in keywords})
    if "signs" in kw:
        if args.signs and args.all_negative:
            raise UsageError("--signs and --all-negative exclude each other")
        edges = args.size[0] - (family == "path")
        kw["signs"] = _parse_signs(args.signs, edges) if args.signs else None
    if "layer_signs" in kw:
        kw["layer_signs"] = _parse_flags(args.layer_signs) if args.layer_signs else None
    if "seed" in kw and args.seed is None:
        raise UsageError(f"generate {args.kind} requires --seed")
    g = FamilySpec.make(family, **kw).build()
    if "signs" in kw and args.all_negative:
        # negated after the generator's size check, not built before it
        g = negate_signature(g)
    return EXIT_OK, graph_to_dot(g) if args.format == "dot" else json.dumps(graph_to_json(g))


def _cmd_simulate(args) -> tuple:
    g = _read_graph(args.path)
    mode = MODE_RID if args.relaxed else MODE_ID
    placements = []
    for spec in args.place or []:
        vertex, sep, value = spec.partition(":")
        if not sep:
            raise UsageError(f"--place expects VERTEX:VALUE, got {spec!r}")
        try:
            v = int(vertex)
        except ValueError:
            raise UsageError(f"--place vertex must be an integer, got {vertex!r}") from None
        try:
            info = str_to_label(value)
        except InputError:
            info = None
        if info not in (Label.A, Label.NEG_A):
            raise UsageError(f"--place value must be A or -A, got {value!r}")
        placements.append(Placement(v, info))
    trace = run(g, Strategy(mode, tuple(placements)))
    if args.format == "dot":
        return EXIT_OK, graph_to_dot(g, trace.final)
    return EXIT_OK, _dumps_trace(trace)


def _cmd_solve(args) -> tuple:
    g = _read_graph(args.path)
    budget = _budget_from(args)
    if sum(1 for flag in (args.exact, args.greedy, args.via_class) if flag) > 1:
        raise UsageError("pick one of --exact, --greedy, --via-class")
    if args.min_steps and (args.greedy or args.via_class):
        raise UsageError("--min-steps works with the exact solver only")
    if args.greedy:
        if args.relaxed:
            raise UsageError("greedy policies place A only; drop --relaxed")
        trace = POLICIES[args.greedy](g)
        payload = {
            "schema": 1,
            "optimum": trace.confused_count(),
            "witness": strategy_to_json(trace.strategy),
            "optimal": False,
            "policy": args.greedy,
            "bound": policy_bound(args.greedy, g),
            "complete": trace.complete,
            "mode": MODE_ID,
        }
        return EXIT_OK, json.dumps(payload)
    if args.min_steps:
        mode = MODE_RID if args.relaxed else MODE_ID
        report = min_steps(g, mode, budget)
    elif args.via_class:
        report = relaxed_via_class(g, budget)
    elif args.relaxed:
        report = exact_relaxed_confusion(g, budget)
    else:
        report = exact_confusion(g, budget)
    return EXIT_OK, json.dumps(report.to_json())


def _cmd_balance(args) -> tuple:
    g = _read_graph(args.path)
    part = is_balanced(g)
    anti = is_antibalanced(g)
    payload = {
        "schema": 1,
        "balanced": part is not None,
        "partition": [list(part.u1), list(part.u2)] if part else None,
        "antibalanced": anti is not None,
        "antibalanced_partition": [list(anti.u1), list(anti.u2)] if anti else None,
    }
    return EXIT_OK, json.dumps(payload)


def _cmd_frustration(args) -> tuple:
    g = _read_graph(args.path)
    value, witness = frustration_index(g, max_n=args.max_n)
    payload = {
        "schema": 1,
        "frustration": value,
        "witness": [list(e) for e in sorted(witness)],
    }
    if args.realize:
        payload["realized"] = graph_to_json(realize_min_signature(g, witness))
    return EXIT_OK, json.dumps(payload)


def _cmd_equivalent(args) -> tuple:
    if args.first == "-" and args.second == "-":
        raise UsageError("at most one of the two graphs may come from stdin")
    g1 = _read_graph(args.first)
    g2 = _read_graph(args.second)
    witness = equivalent(g1, g2)
    payload = {
        "schema": 1,
        "equivalent": witness is not None,
        "witness": sorted(witness) if witness is not None else None,
    }
    return EXIT_OK, json.dumps(payload)


def _cmd_switch(args) -> tuple:
    g = _read_graph(args.path)
    if args.at:
        g = switch(g, _parse_vertices(args.at))
    if args.negate:
        g = negate_signature(g)
    return EXIT_OK, json.dumps(graph_to_json(g))


def _cmd_verify(args) -> tuple:
    budget = _budget_from(args)
    claim_ids = args.claim if args.claim else None
    results = run_suite(budget=budget, claim_ids=claim_ids)
    counts = Counter(r.status for r in results)
    code = EXIT_VERIFY if counts["fail"] else EXIT_OK
    if args.json:
        return code, json.dumps({"schema": 1, "results": [r.to_json() for r in results]})
    lines = []
    for r in results:
        tag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[r.status]
        line = f"[{tag}] {r.claim_id}: {r.instance}; expected {r.expected}; observed {r.observed}"
        if r.detail:
            line += f" ({r.detail})"
        lines.append(line)
    lines.append(f"{counts['pass']} passed, {counts['fail']} failed, {counts['skipped']} skipped")
    return code, "\n".join(lines)


def _cmd_explore(args) -> tuple:
    budget = Budget(nodes=args.budget_nodes, seconds=args.budget_secs, max_n=None)
    report = explore_conjecture(
        args.which,
        budget=budget,
        max_n=args.max_n,
        random_count=args.random,
        random_max_n=args.random_max_n,
        seed=args.seed,
    )
    code = EXIT_DOMAIN if report.violations else EXIT_OK
    if args.json:
        return code, json.dumps(report.to_json())
    lines = [
        f"{report.which}: {len(report.violations)} violation(s) over "
        f"{report.checked} instance(s), {len(report.skipped)} skipped"
    ]
    for v in report.violations[:10]:
        lines.append(f"  {v.label}: value {v.observed} > bound {v.bound}")
    if len(report.violations) > 10:
        lines.append(f"  ... {len(report.violations) - 10} more")
    return code, "\n".join(lines)


# ---------------------------------------------------------------------------
# parser


def _add_output(p):
    p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")


def _add_budget(p):
    p.add_argument("--budget-nodes", type=int, default=None, help="search node limit")
    p.add_argument("--budget-secs", type=float, default=None, help="wall-clock limit")
    p.add_argument("--max-n", type=int, default=None, help="override the solver size cap")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and returned by every
    later one. Building it reads no mutable state (prog is a literal,
    the choices come from tables fixed at import), parse_args keeps
    nothing between calls, and help is formatted when it is printed."""
    parser = argparse.ArgumentParser(
        prog="signedspread",
        description="Signed-graph information spread: simulate, solve, verify.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a family instance as JSON or DOT")
    p.add_argument("kind", choices=list(_GENERATE))
    p.add_argument("size", nargs="*", type=int, help="size arguments for the kind")
    p.add_argument("--seed", type=int, default=None, help="PRNG seed (tree, random)")
    p.add_argument("--negated", action="store_true", help="negate the matched signature (ktt)")
    p.add_argument("--signs", default=None, help="comma-separated 1/-1 edge signs (cycle, path)")
    p.add_argument("--all-negative", action="store_true", help="all edges negative (cycle, path)")
    p.add_argument("--layer-signs", default=None, help="comma-separated 0/1 layer flags (gst)")
    p.add_argument("--neg-prob", type=float, default=0.5, help="negative-sign probability")
    p.add_argument("--edge-prob", type=float, default=0.5, help="edge probability (random)")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    _add_output(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="replay placements and emit the trace")
    p.add_argument("path", nargs="?", default=None, help="graph JSON file (default stdin)")
    p.add_argument("--place", action="append", metavar="VERTEX:VALUE",
                   help="placement, e.g. 0:A or 3:-A; repeatable")
    p.add_argument("--relaxed", action="store_true", help="allow -A placements")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    _add_output(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("solve", help="optimal or heuristic placement search")
    p.add_argument("path", nargs="?", default=None, help="graph JSON file (default stdin)")
    p.add_argument("--relaxed", action="store_true", help="relaxed mode (both values placeable)")
    p.add_argument("--min-steps", action="store_true",
                   help="minimize step count instead of confusion")
    p.add_argument("--exact", action="store_true", help="exhaustive search (default)")
    p.add_argument("--greedy", choices=sorted(POLICIES), default=None,
                   help="run a named policy instead of searching")
    p.add_argument("--via-class", action="store_true",
                   help="relaxed optimum via switching-class enumeration")
    _add_budget(p)
    _add_output(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("balance", help="balance and antibalance partitions")
    p.add_argument("path", nargs="?", default=None)
    _add_output(p)
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("frustration", help="frustration index with witness")
    p.add_argument("path", nargs="?", default=None)
    p.add_argument("--realize", action="store_true",
                   help="also emit an equivalent signature with that negative set")
    p.add_argument("--max-n", type=int, default=FRUSTRATION_MAX_N, help="override the size cap")
    _add_output(p)
    p.set_defaults(func=_cmd_frustration)

    p = sub.add_parser("equivalent", help="switching equivalence of two graphs")
    p.add_argument("first", help="graph JSON file, or - for stdin")
    p.add_argument("second", help="graph JSON file, or - for stdin")
    _add_output(p)
    p.set_defaults(func=_cmd_equivalent)

    p = sub.add_parser("switch", help="apply a switching and/or negate the signature")
    p.add_argument("path", nargs="?", default=None)
    p.add_argument("--at", default=None, help="comma-separated switch set")
    p.add_argument("--negate", action="store_true", help="negate every sign")
    _add_output(p)
    p.set_defaults(func=_cmd_switch)

    p = sub.add_parser("verify", help="run the claim registry")
    p.add_argument("--claim", action="append", default=None,
                   help="run a single claim (repeatable)")
    p.add_argument("--json", action="store_true", help="machine-readable results")
    _add_budget(p)
    _add_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("explore-conjecture", help="hunt for bound violations")
    p.add_argument("which", choices=["conj1", "conj2"])
    p.add_argument("--max-n", type=int, default=12, help="family instance size cap")
    p.add_argument("--random", type=int, default=100, help="number of random instances")
    p.add_argument("--random-max-n", type=int, default=8, help="random instance size cap")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--budget-secs", type=float, default=None)
    p.add_argument("--json", action="store_true", help="full report with witnesses")
    _add_output(p)
    p.set_defaults(func=_cmd_explore)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        code, text = args.func(args)
        _emit(text, args.output)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SignedSpreadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
