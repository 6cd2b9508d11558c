"""Command-line front end.

Construction specs (for `construct` and inside forbidden specs):
  turan:n=9,r=3,l=3      gentriangle:r=3       fan:r=3
  complete:n=4,r=3       empty:n=5,r=3         edge:r=3
  path:k=4               star:k=5              broom:handle=3,leaves=2
  tree:k=7,seed=0        expand:F=<file.hg>,p=5
  enlarge:T=<file.hg>,r=3                      file:<path.hg>

Forbidden specs (for `search --forbid`):
  subgraph:<construction-spec>    family:p=4:<construction-spec>
  sigma:r=3                       cancellative

An exact `search --sweep LO:HI` is one pass with one --budget-secs deadline:
it solves each size up to HI once, prints rows from LO, elapsed from the start.

Exit codes: 0 success, 1 verification failure, 2 usage error (a malformed
spec or --sweep range included), 3 budget exhausted before the exact search
finished.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .hypergraph import Hypergraph, max_matching
from .constructions import (
    broom_graph,
    complete_hypergraph,
    enlargement,
    expanded_clique_with_embedded,
    generalized_triangle,
    path_graph,
    random_tree,
    single_edge,
    star_graph,
    turan_hypergraph,
)
from .extremal import (
    CancellativePredicate,
    FamilyPredicate,
    SigmaPredicate,
    SubgraphPredicate,
    _solve_sizes,
    local_search_lower,
)
from .hgio import dump, load, serialize_hypergraph
from .lagrangian import certificate_label, lagrangian, lagrangian_constrained
from .symmetrization import run_with_cleaning
from .verify import SUITES, run_verify


class SpecError(ValueError):
    pass


class _Params(dict):
    """The key=value pairs of a spec; a missing key is a SpecError."""

    def __missing__(self, key):
        raise SpecError(f"spec is missing parameter {key!r}")


def _params(text: str) -> dict:
    out = _Params()
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise SpecError(f"expected key=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def build_from_spec(spec: str) -> Hypergraph:
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name == "file":
        return load(rest)
    p = _params(rest)
    if name == "turan":
        return turan_hypergraph(int(p["n"]), int(p["r"]), int(p["l"])).graph
    if name == "gentriangle":
        return generalized_triangle(int(p["r"]))
    if name == "fan":
        r = int(p["r"])
        return expanded_clique_with_embedded(single_edge(r), r + 1).graph
    if name == "complete":
        return complete_hypergraph(int(p["n"]), int(p["r"]))
    if name == "empty":
        return Hypergraph(int(p["n"]), int(p["r"]), [])
    if name == "edge":
        return single_edge(int(p["r"]))
    if name == "path":
        return path_graph(int(p["k"]))
    if name == "star":
        return star_graph(int(p["k"]))
    if name == "broom":
        return broom_graph(int(p["handle"]), int(p["leaves"]))
    if name == "tree":
        return random_tree(int(p["k"]), int(p.get("seed", 0)))
    if name == "expand":
        return expanded_clique_with_embedded(load(p["F"]), int(p["p"])).graph
    if name == "enlarge":
        return enlargement(load(p["T"]), int(p["r"]))
    raise SpecError(f"unknown construction {name!r}")


def parse_forbidden(spec: str):
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "cancellative":
        return CancellativePredicate()
    if kind == "sigma":
        return SigmaPredicate(int(_params(rest)["r"]))
    if kind == "subgraph":
        return SubgraphPredicate(build_from_spec(rest))
    if kind == "family":
        head, _, inner = rest.partition(":")
        p = _params(head)
        return FamilyPredicate(build_from_spec(inner), int(p["p"]))
    raise SpecError(f"unknown forbidden kind {kind!r}")


def fraction(text: str) -> Fraction:
    """A P/Q or decimal option; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from exc


def _cmd_construct(args) -> int:
    g = build_from_spec(args.spec)
    if args.output:
        dump(g, args.output)
    else:
        sys.stdout.write(serialize_hypergraph(g))
    return 0


def _cmd_info(args) -> int:
    g = load(args.graph)
    deg = g.degrees or (0,)
    info = {
        "n": g.n,
        "r": g.r,
        "edges": len(g.edges),
        "covers_pairs": g.covers_pairs(),
        "min_degree": min(deg),
        "max_degree": max(deg),
        "avg_degree": (g.r * len(g.edges) / g.n) if g.n else 0.0,
        "max_matching": max_matching(g),
    }
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        for k, v in info.items():
            print(f"{k}: {v}")
    return 0


def _cmd_lagrangian(args) -> int:
    g = load(args.graph)
    if args.beta is not None:
        est = lagrangian_constrained(g, args.beta, restarts=args.restarts,
                                     seed=args.seed)
    else:
        est = lagrangian(g, restarts=args.restarts, seed=args.seed)
    payload = {
        "value": est.value,
        "weights": list(est.weights),
        "converged": est.converged,
        "gradient_residual": est.gradient_residual,
        "certificate": certificate_label(g, est),
    }
    if est.beta is not None:
        payload["beta"] = est.beta
        payload["cap_binds"] = est.cap_binds
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")
    return 0


def _cmd_symmetrize(args) -> int:
    g = load(args.graph)
    out = run_with_cleaning(g, args.alpha)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(out.trace.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.output:
        dump(out.result, args.output)
    summary = {
        "input_edges": len(g.edges),
        "result_n": out.result.n,
        "result_edges": len(out.result.edges),
        "steps": len(out.trace.steps),
        "kept": list(out.kept),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_search(args) -> int:
    pred = parse_forbidden(args.forbid)
    if args.sweep:
        lo, _, hi = args.sweep.partition(":")
        try:
            sizes = range(int(lo), int(hi) + 1)
        except ValueError:
            sizes = None
        if not sizes or sizes.start < 0:
            raise SpecError(f"--sweep expects LO:HI with 0 <= LO <= HI, "
                            f"got {args.sweep!r}")
    elif args.n is None:
        raise SpecError("provide --n or --sweep LO:HI")
    else:
        sizes = range(args.n, args.n + 1)
    if args.heuristic:
        results = (local_search_lower(n, args.r, pred, seed=args.seed,
                                      iters=args.iters) for n in sizes)
    else:
        # one pass solves every size up to HI; the rows start at LO
        results = (res for res in _solve_sizes(sizes[-1], args.r, pred, args.budget_secs)
                   if res.witness.n >= sizes.start)
    if args.sweep:
        all_exact = True
        for n, res in zip(sizes, results):
            if n == sizes.start:
                print("n,r,value,exact,nodes,elapsed")
            all_exact = all_exact and res.exact
            print(f"{n},{args.r},{res.value},{int(res.exact)},"
                  f"{res.nodes_explored},{res.elapsed:.3f}")
        return 0 if (all_exact or args.heuristic) else 3
    res = next(results)
    payload = {
        "n": args.n,
        "r": args.r,
        "forbid": pred.describe(),
        "value": res.value,
        "exact": res.exact,
        "nodes": res.nodes_explored,
        "elapsed": round(res.elapsed, 3),
        "witness": [list(e) for e in res.witness.edge_list],
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        mode = "exact" if res.exact else "lower bound"
        print(f"ex({args.n}, {pred.describe()}) {mode}: {res.value}")
        print(f"witness edges: {payload['witness']}")
    return 0 if (res.exact or args.heuristic) else 3


def _cmd_verify(args) -> int:
    report = run_verify(args.suite, args.seed)
    if args.json:
        text = report.to_json()
        if args.json == "-":
            sys.stdout.write(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(report.to_table())
    else:
        print(report.to_table())
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="turanlag", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named hypergraph")
    c.add_argument("spec")
    c.add_argument("-o", "--output")
    c.set_defaults(fn=_cmd_construct)

    i = sub.add_parser("info", help="basic statistics of a .hg file")
    i.add_argument("graph")
    i.add_argument("--json", action="store_true")
    i.set_defaults(fn=_cmd_info)

    l = sub.add_parser("lagrangian", help="estimate the Lagrangian")
    l.add_argument("--graph", required=True)
    l.add_argument("--beta", type=fraction, default=None, help="cap on the largest weight (float or P/Q)")
    l.add_argument("--restarts", type=int, default=50)
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--json", action="store_true")
    l.set_defaults(fn=_cmd_lagrangian)

    s = sub.add_parser("symmetrize", help="run symmetrization (optionally with cleaning)")
    s.add_argument("--graph", required=True)
    s.add_argument("--alpha", type=fraction, default=Fraction(0),
                   help="density threshold as P/Q; the default 0 never cleans")
    s.add_argument("--trace", default=None, help="write the step trace as JSON")
    s.add_argument("-o", "--output", default=None, help="write the result graph")
    s.set_defaults(fn=_cmd_symmetrize)

    e = sub.add_parser("search", help="max edges avoiding a forbidden configuration")
    e.add_argument("--n", type=int)
    e.add_argument("--r", type=int, required=True)
    e.add_argument("--forbid", required=True)
    e.add_argument("--sweep", default=None, metavar="LO:HI",
                   help="CSV over a range of n instead of a single run")
    e.add_argument("--heuristic", action="store_true",
                   help="randomized lower bound instead of the exact search")
    e.add_argument("--budget-secs", type=float, default=None)
    e.add_argument("--iters", type=int, default=2000)
    e.add_argument("--seed", type=int, default=0,
                   help="seeds --heuristic only; the exact search runs no random code")
    e.add_argument("--json", action="store_true")
    e.set_defaults(fn=_cmd_search)

    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("--suite", choices=SUITES, default="all")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json", default=None, help="write JSON report to a path ('-' for stdout)")
    v.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
