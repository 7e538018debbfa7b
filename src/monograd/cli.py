"""Command-line interface.

Exit codes: 0 = computed / property true / verification passed,
1 = property false or verification failed, 2 = usage or resource error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from typing import List, Optional

from .errors import DomainError, MonogradError
from .verify_ids import VERIFY_IDS

# Each handler imports the engines it calls, so that a command loads only
# those; each predicate below is a package name, loaded when it is checked.
_CHECKS = {
    "linear-resolution": "has_linear_resolution",
    "differential-linear-resolution": "has_differential_linear_resolution",
    "linear-quotients": "has_linear_quotients",
    "vertex-splittable": "is_vertex_splittable",
    "polymatroidal": "is_polymatroidal",
    "componentwise-polymatroidal": "is_componentwise_polymatroidal",
    "stable": "is_stable",
    "strongly-stable": "is_strongly_stable",
    "complete-intersection": "is_complete_intersection",
}


def _read_json(path: str):
    """The JSON document in the file at path, the one reader of the CLI.
    Input the decoder cannot take raises DomainError: text that is not
    UTF-8, and what ioformats.load_json refuses."""
    from .ioformats import load_json
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise DomainError(f"{path} is not UTF-8 text") from None
    return load_json(text)


def _load_ideal(path: str):
    from .ioformats import parse_ideal
    return parse_ideal(_read_json(path))


def _emit(doc, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True))
    elif isinstance(doc, dict):
        for k in sorted(doc):
            print(f"{k}: {doc[k]}")
    else:
        print(doc)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged and
    # starts each call from a fresh namespace.  --json is accepted both
    # before and after the subcommand; SUPPRESS keeps the subparser
    # default from clobbering a value parsed earlier
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="machine-stable JSON output")
    p = argparse.ArgumentParser(prog="monograd", parents=[common],
                                description="Exact calculus of monomial "
                                            "ideals under the gradient "
                                            "operator.")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=lambda **kw: argparse.ArgumentParser(
                               parents=[common], **kw))

    sp = sub.add_parser("stats", help="generator statistics of an ideal")
    sp.add_argument("file")
    sp.add_argument("--no-minimalize", action="store_true",
                    help="report raw generators before minimalization")

    sp = sub.add_parser("grad", help="iterated gradient of an ideal")
    sp.add_argument("file")
    sp.add_argument("--order", type=int, default=1, metavar="L")

    sp = sub.add_parser("betti", help="graded Betti table")
    sp.add_argument("file")
    sp.add_argument("--quotient", action="store_true",
                    help="quotient-ring convention instead of ideal")
    sp.add_argument("--engine", choices=("auto", "hochster", "koszul"),
                    default="auto")

    sp = sub.add_parser("reg", help="Castelnuovo-Mumford regularity")
    sp.add_argument("file")
    sp.add_argument("--engine", choices=("auto", "hochster", "koszul"),
                    default="auto")

    sp = sub.add_parser("check", help="decide a structural property")
    sp.add_argument("property", choices=sorted(_CHECKS))
    sp.add_argument("file")

    sp = sub.add_parser("family", help="emit a named parameterized ideal")
    fam = sp.add_subparsers(dest="family", required=True)
    f22 = fam.add_parser("thm22", parents=[common],
                         help="prescribed regularity gap family")
    f22.add_argument("--a", type=int, required=True)
    f23 = fam.add_parser("thm23", parents=[common],
                         help="overlapping-windows family")
    f23.add_argument("--d", type=int, required=True)

    sp = sub.add_parser("graph", help="ideal of a graph")
    sp.add_argument("kind", choices=("edge", "cedge"))
    sp.add_argument("file")

    sp = sub.add_parser("kk", help="Macaulay expansions and shadows")
    kk = sp.add_subparsers(dest="kk", required=True)
    for name, needs_n in (("rep", False), ("shadow", False), ("closed", True)):
        k = kk.add_parser(name, parents=[common])
        k.add_argument("--a", type=int, required=not needs_n)
        k.add_argument("--d", type=int, required=True)
        k.add_argument("--n", type=int, required=needs_n)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("id", choices=VERIFY_IDS)
    sp.add_argument("--param", action="append", default=[], metavar="K=V")
    sp.add_argument("--seed", type=int, default=None)
    return p


def _cmd_stats(args, as_json: bool) -> int:
    from .ioformats import parse_generators
    from .monomials import MonomialIdeal, monomial_str
    if args.no_minimalize:
        n, gens = parse_generators(_read_json(args.file))
        doc = {"n": n, "raw_generators": [monomial_str(u) for u in gens],
               "raw_count": len(gens),
               "minimal_count": MonomialIdeal(n, gens).mu}
    else:
        I = _load_ideal(args.file)
        s = I.stats()
        doc = {"n": I.n, "mu": s.mu, "alpha": s.alpha, "omega": s.omega,
               "support": sorted(s.support), "squarefree": I.is_squarefree,
               "equigenerated": I.is_equigenerated,
               "generators": [monomial_str(u) for u in I.gens]}
    _emit(doc, as_json)
    return 0


def _cmd_grad(args, as_json: bool) -> int:
    from .gradient import iterated_gradient
    from .ioformats import serialize_ideal
    from .monomials import monomial_str
    if args.order < 0:
        raise DomainError("--order must be nonnegative")
    J = iterated_gradient(_load_ideal(args.file), args.order)
    _emit(serialize_ideal(J) if as_json else
          ", ".join(map(monomial_str, J.gens)) or ("1" if J.is_unit else "0"),
          as_json)
    return 0


def _cmd_betti(args, as_json: bool) -> int:
    from .resolution import betti_table
    table = betti_table(_load_ideal(args.file), engine=args.engine)
    entries = (table.quotient_entries() if args.quotient
               else table.ideal_entries())
    if as_json:
        doc = {"convention": "quotient" if args.quotient else "ideal",
               "engine": table.engine,
               "entries": [[i, j, b] for (i, j), b in sorted(entries.items())],
               "regularity": table.regularity(),
               "projective_dimension": table.projective_dimension()}
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"# engine: {table.engine}")
        for (i, j), b in sorted(entries.items()):
            print(f"beta[{i},{j}] = {b}")
        print(f"regularity = {table.regularity()}")
    return 0


def _cmd_reg(args, as_json: bool) -> int:
    from .resolution import regularity
    r = regularity(_load_ideal(args.file), engine=args.engine)
    _emit({"regularity": r} if as_json else r, as_json)
    return 0


def _cmd_check(args, as_json: bool) -> int:
    check = getattr(sys.modules[__package__], _CHECKS[args.property])
    result = bool(check(_load_ideal(args.file)))
    _emit({"property": args.property, "holds": result} if as_json
          else str(result).lower(), as_json)
    return 0 if result else 1


def _cmd_family(args, as_json: bool) -> int:
    from .graphs import family_overlap_run, family_reg_gap
    from .ioformats import serialize_ideal
    I = (family_reg_gap(args.a).ideal if args.family == "thm22"
         else family_overlap_run(args.d))
    print(json.dumps(serialize_ideal(I), sort_keys=as_json))
    return 0


def _cmd_graph(args, as_json: bool) -> int:
    from .graphs import complementary_edge_ideal, edge_ideal
    from .ioformats import parse_graph, serialize_ideal
    G = parse_graph(_read_json(args.file))
    # the only command that can warn (on an edgeless graph)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # warn on every call, not once
        I = (edge_ideal(G) if args.kind == "edge"
             else complementary_edge_ideal(G))
    print(json.dumps(serialize_ideal(I), sort_keys=as_json))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return 0


def _cmd_kk(args, as_json: bool) -> int:
    from .kruskal import (closed_form_count, closed_form_shadow,
                          colex_shadow_oracle, macaulay_rep, shadow_bound)
    if args.kk == "rep":
        rep = macaulay_rep(args.a, args.d)
        doc = {"a": args.a, "d": args.d, "terms": [list(t) for t in rep.terms],
               "text": str(rep)}
    elif args.kk == "shadow":
        greedy = shadow_bound(args.a, args.d)
        oracle = colex_shadow_oracle(args.a, args.d)
        doc = {"a": args.a, "d": args.d, "shadow": greedy,
               "oracle": oracle, "agree": greedy == oracle}
    else:
        rep = closed_form_count(args.n, args.d)
        doc = {"n": args.n, "d": args.d, "count": rep.value,
               "terms": [list(t) for t in rep.terms],
               "shadow": closed_form_shadow(args.n, args.d)}
    _emit(doc, as_json)
    return 0


def _cmd_verify(args, as_json: bool) -> int:
    from .verify import verify_theorem
    params = {}
    for item in args.param:
        if "=" not in item:
            raise DomainError(f"--param expects K=V, got {item!r}")
        k, v = item.split("=", 1)
        if not v.removeprefix("-").isdecimal():
            raise DomainError(f"--param {k} expects an integer, got {v!r}")
        try:
            params[k] = int(v)
        except ValueError:  # past int()'s digit limit
            raise DomainError(f"--param {k} has too many digits") from None
    if as_json and args.seed is None:
        raise DomainError("--json verification output requires --seed "
                          "for reproducibility")
    rep = verify_theorem(args.id, params, seed=args.seed or 0)
    if as_json:
        print(rep.to_json())
    else:
        print(f"verify {rep.theorem_id}: {'PASS' if rep.passed else 'FAIL'}")
        for c in rep.checks:
            print(f"  [{'ok ' if c.passed else 'FAIL'}] {c.description}: "
                  f"expected {c.expected}, computed {c.computed}")
        for note in rep.engine_notes:
            print(f"  note: {note}")
    return 0 if rep.passed else 1


_COMMANDS = {
    "stats": _cmd_stats,
    "grad": _cmd_grad,
    "betti": _cmd_betti,
    "reg": _cmd_reg,
    "check": _cmd_check,
    "family": _cmd_family,
    "graph": _cmd_graph,
    "kk": _cmd_kk,
    "verify": _cmd_verify,
}


def run_cli(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args, getattr(args, "json", False))
    except (MonogradError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
