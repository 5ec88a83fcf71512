"""Command-line front end.

Subcommands:

* ``tutte``     -- polynomials of the Tait graph (or of a bare graph JSON)
* ``adequate``  -- enumerate adequate states, always verified, with optional
                   homogeneity filtering, or the all-A/all-B special case
* ``check``     -- structural diagnostics for a diagram

Exit codes: 0 success, 1 verification/check failure, 2 input error,
3 enumeration cap exceeded or a graph too deep for the Tutte recursion.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING

from . import sgraph
from .adequacy import (
    DEFAULT_MAX_EDGES,
    ab_adequacy,
    enumerate_adequate,
    enumerate_homogeneous,
    report_to_csv,
    report_to_json,
    report_to_table,
)
from .sgraph import PDParseError, VerificationError
from .tutte import CapExceededError, TutteEngine

# diagram.py is imported where a diagram is read, so that a run on graph JSON
# never loads it
if TYPE_CHECKING:
    from .diagram import LinkDiagram

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise PDParseError(f"cannot read {path}: {exc}") from exc


def _load(args) -> LinkDiagram | sgraph.SignedMap:
    """The uncolored diagram of the input, mirrored if asked, or the graph of
    bare graph JSON, its signs flipped if mirrored."""
    text = _read_input(args.input)
    if args.format == "json":
        try:
            doc = json.loads(text)
        except RecursionError:
            raise PDParseError("JSON input is nested too deeply") from None
        if not isinstance(doc, dict):
            raise PDParseError("JSON input must be an object")
        if "vertices" in doc and "edges" in doc:
            g = sgraph.from_json(doc)
            return sgraph.flip_signs(g) if args.mirror else g
    from .diagram import LinkDiagram, load_diagram_json, mirror, parse_pd

    if args.format == "json":
        d = load_diagram_json(doc)
        d = LinkDiagram(d.crossings, d.outer_arc)  # recolor per --coloring
    else:
        d = parse_pd(text)
    return mirror(d) if args.mirror else d


def _load_graph(args) -> sgraph.SignedMap:
    """The signed Tait graph of the input, or the graph of bare graph JSON."""
    d = _load(args)
    if isinstance(d, sgraph.SignedMap):
        return d
    from .diagram import checkerboard, tait

    return tait(checkerboard(d, args.coloring))[0]


def cmd_tutte(args) -> int:
    g = _load_graph(args)
    engine = TutteEngine()
    chi = engine.tutte(g)
    if not (args.diag or args.trees):
        print(chi.render())
    if args.diag:
        print(chi.specialize("x_equals_y").render_t())
    if args.trees:
        print(chi.eval(1, 1))
    return EXIT_OK


def cmd_adequate(args) -> int:
    g = _load_graph(args)
    engine = TutteEngine()

    if args.ab:
        a_ok, b_ok, poly_plus, poly_minus = ab_adequacy(g, engine)
        doc = {
            "a_adequate": a_ok,
            "b_adequate": b_ok,
            "plus_poly": poly_plus.render_t(),
            "minus_poly": poly_minus.render_t(),
        }
        if args.output == "json":
            print(json.dumps(doc, indent=2))
        else:
            for k, v in doc.items():
                print(f"{k}: {v}")
        return EXIT_OK

    run = enumerate_homogeneous if args.homogeneous else enumerate_adequate
    report = run(g, engine, max_edges=args.max_edges)

    if args.output == "json":
        print(report_to_json(report))
    elif args.output == "csv":
        print(report_to_csv(report), end="")
    else:
        print(report_to_table(report), end="")
    return EXIT_OK


def cmd_check(args) -> int:
    d = _load(args)
    if isinstance(d, sgraph.SignedMap):
        raise PDParseError("check needs a diagram, not graph JSON")
    from .diagram import checkerboard, nugatory_crossings, region_count

    failures = 0
    n = d.n_crossings
    print(f"crossings: {n}")
    print(f"regions: {region_count(d)}")
    euler = n - 2 * n + region_count(d)
    print(f"euler (v - e + f): {euler}" + ("  ok" if euler == 2 else "  FAIL"))
    failures += euler != 2
    d = checkerboard(d, args.coloring)
    print("coloring: ok")
    nug = nugatory_crossings(d)
    if nug:
        for ci in nug:
            print(f"not reduced: crossing {ci} is nugatory")
        failures += 1
    else:
        print("reduced: ok")
    return EXIT_VERIFY if failures else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each ``parse_args`` call
    returns a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="taitstates",
        description="Tait graphs, Tutte polynomials, and adequate states of link diagrams",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("input", help="input file, or - for stdin")
        sp.add_argument("--format", choices=["pd", "json"], default="pd")
        sp.add_argument("--coloring", choices=["canonical", "swapped"], default="canonical",
                        help="the checkerboard coloring to use; a diagram file's "
                             "'coloring' key is only validated")
        sp.add_argument("--mirror", action="store_true", help="mirror the diagram first")

    sp = sub.add_parser("tutte", help="Tutte polynomial of the Tait graph")
    common(sp)
    sp.add_argument("--diag", action="store_true", help="print the diagonal (t,t) polynomial")
    sp.add_argument("--trees", action="store_true", help="print the spanning-tree count")
    sp.set_defaults(fn=cmd_tutte)

    sp = sub.add_parser("adequate", help="enumerate adequate states")
    common(sp)
    sp.add_argument("--output", choices=["table", "json", "csv"], default="table")
    sp.add_argument("--max-edges", type=int, default=DEFAULT_MAX_EDGES)
    sp.add_argument("--verify", action="store_true",
                    help="kept for compatibility: the state sum is always checked "
                         "against the diagonal, and a mismatch exits 1")
    sp.add_argument("--homogeneous", action="store_true",
                    help="show only homogeneously adequate states")
    sp.add_argument("--ab", action="store_true",
                    help="only test the all-A and all-B states")
    sp.set_defaults(fn=cmd_adequate)

    sp = sub.add_parser("check", help="diagnostics: connectivity, coloring, reducedness")
    common(sp)
    sp.set_defaults(fn=cmd_check)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CapExceededError as exc:
        print(f"error: {exc} (raise --max-edges to override)", file=sys.stderr)
        return EXIT_CAP
    except RecursionError:
        print("error: the graph is too deep for the Tutte recursion", file=sys.stderr)
        return EXIT_CAP
    except VerificationError as exc:
        # the completeness certificate failed; never expected on sound input
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:  # PDParseError, ColoringError, DisconnectedError, bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
