"""Command-line interface.

Subcommands:
  fdomain   Compute and describe the fundamental domain on the tree.
  basis     Dimension and structure of the harmonic cocycle space.
  linv      L-operator matrix, slopes and L-invariants for one weight.
  slopes    Slope/sign table over a range of weights.

Exit codes: 0 success, 2 result undecidable at the working precision,
3 invalid parameters or malformed arguments, 4 time budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .budget import Budget, BudgetExceeded
from .cocycles import harmonic_basis
from .domain import DomainTooLarge
from .padics import PrecisionError
from .pipeline import (
    SIZING_BASIS_PREC,
    SIZING_SPLIT_PREC,
    UsageError,
    build_context,
    cached_l_result,
    render_table,
    validate,
)

EXIT_OK = 0
EXIT_PRECISION = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4


def _add_common(sp):
    sp.add_argument("--p", type=int, required=True, help="split prime")
    sp.add_argument("--nminus", type=int, required=True,
                    help="discriminant of the definite algebra")
    sp.add_argument("--nplus", type=int, default=1, help="auxiliary level")
    sp.add_argument("--format", choices=["json", "table"], default="table")
    sp.add_argument("--budget-secs", type=budget_secs, default=None)
    sp.add_argument("--cache-dir", default=None,
                    help="result cache directory (default: $CACHE_DIR or "
                         "~/.cache/linvariant)")


def budget_secs(spec: str) -> float:
    """A time budget in seconds, at least 0."""
    secs = float(spec)
    if not secs >= 0:
        raise argparse.ArgumentTypeError(f"budget must be >= 0 seconds: {spec}")
    return secs


def weight_list(spec: str):
    """Weights from a range a..b (its even members) or a comma list."""
    if ".." in spec:
        a, b = spec.split("..", 1)
        lo, hi = int(a), int(b)
        weights = list(range(lo + (lo % 2), hi + 1, 2))
        if not weights:
            raise argparse.ArgumentTypeError(f"no even weight in {spec}")
        return weights
    return [int(w) for w in spec.split(",")]


class _Parser(argparse.ArgumentParser):
    """Malformed arguments exit EXIT_DOMAIN: argparse's own code, 2, means an
    undecidable result here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_DOMAIN, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(
        prog="linvariant",
        description="p-adic L-operators on harmonic cocycles for definite "
                    "quaternion orders",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("fdomain", help="fundamental domain summary")
    _add_common(sp)

    sp = sub.add_parser("basis", help="harmonic cocycle space")
    _add_common(sp)
    sp.add_argument("--weight", type=int, required=True)

    sp = sub.add_parser("linv", help="L-operator for one weight")
    _add_common(sp)
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--prec", type=int, default=10,
                    help="requested output digits M")

    sp = sub.add_parser("slopes", help="slope table over a weight range")
    _add_common(sp)
    sp.add_argument("--weights", type=weight_list, required=True,
                    help="range a..b (even weights) or comma list")
    sp.add_argument("--prec", type=int, default=10)
    return ap


def _cmd_fdomain(args) -> int:
    validate(args.p, args.nminus, args.nplus)
    ctx = build_context(args.p, args.nminus, args.nplus, SIZING_SPLIT_PREC)
    dom = ctx.dom
    info = {
        "p": args.p,
        "nminus": args.nminus,
        "nplus": args.nplus,
        "n_vertices": len(dom.vertices),
        "n_edges": len(dom.geo_edges),
        "n_pairings": len(dom.pairings),
        "vertex_stab_orders": [len(s) for s in dom.vertex_stabs],
        "edge_stab_orders": [len(s) for s in dom.edge_stabs],
    }
    if args.format == "json":
        print(json.dumps(info, indent=1))
    else:
        print(f"fundamental domain for p={args.p}, "
              f"Nminus={args.nminus}, Nplus={args.nplus}")
        print(f"  vertices: {info['n_vertices']}  edges: {info['n_edges']}  "
              f"edge pairings: {info['n_pairings']}")
        print(f"  vertex stabilizer orders: {info['vertex_stab_orders']}")
        print(f"  edge stabilizer orders:   {info['edge_stab_orders']}")
    return EXIT_OK


def _cmd_basis(args) -> int:
    validate(args.p, args.nminus, args.nplus, args.weight)
    k = args.weight - 2
    ctx = build_context(args.p, args.nminus, args.nplus, SIZING_SPLIT_PREC)
    basis = harmonic_basis(ctx.dom, k, SIZING_BASIS_PREC)
    info = {
        "p": args.p,
        "nminus": args.nminus,
        "nplus": args.nplus,
        "weight": args.weight,
        "dim": len(basis),
    }
    if args.format == "json":
        print(json.dumps(info, indent=1))
    else:
        print(f"weight {args.weight}: dim C_harm = {len(basis)}")
    return EXIT_OK


def _cmd_linv(args) -> int:
    data = cached_l_result(args.p, args.nminus, args.nplus, args.weight,
                           args.prec, cache_dir=args.cache_dir)
    if args.format == "json":
        print(json.dumps(data, indent=1))
        return EXIT_OK
    print(f"p={args.p} Nminus={args.nminus} Nplus={args.nplus} "
          f"weight={args.weight} (M={args.prec} digits)")
    print(f"  dim = {data['dim']}")
    if data["dim"] == 0:
        return EXIT_OK
    print("  slopes: " + ", ".join(f"{s} (x{m})" for s, m in data["slopes"]))
    print("  slopes on W_N = +1: "
          + (", ".join(f"{s} (x{m})" for s, m in data["slopes_plus"]) or "-"))
    print("  slopes on W_N = -1: "
          + (", ".join(f"{s} (x{m})" for s, m in data["slopes_minus"]) or "-"))
    print("  eps_W(p): " + ", ".join(f"{e:+d} (x{m})" for e, m in data["eps_w"]))
    for li in data["l_invariants"]:
        print(f"  L-invariant (W_N sign {li['wn_sign']:+d}, "
              f"slope {li['slope']}): {li['value']}")
    if not data.get("atkin_lehner_commutes", True):
        print("  warning: W_N does not commute with the L-operator at "
              "this precision")
    return EXIT_OK


def _cmd_slopes(args) -> int:
    results = [cached_l_result(args.p, args.nminus, args.nplus, w, args.prec,
                               cache_dir=args.cache_dir)
               for w in args.weights]
    if args.format == "json":
        print(json.dumps(results, indent=1))
    else:
        print(render_table(results))
    return EXIT_OK


COMMANDS = {"fdomain": _cmd_fdomain, "basis": _cmd_basis,
            "linv": _cmd_linv, "slopes": _cmd_slopes}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with Budget(seconds=args.budget_secs).active():
            return COMMANDS[args.cmd](args)
    except (UsageError, DomainTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PrecisionError as exc:
        print(f"error: undecidable at working precision: {exc}",
              file=sys.stderr)
        return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
