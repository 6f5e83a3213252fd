"""Batch command-line front end.

JSON payloads go to stdout inside a small envelope; diagnostics go to
stderr.  Exit codes: 0 ok, 1 usage, 2 input parse error, 3 budget exceeded,
4 internal invariant failure, 5 resource exhausted (an input nested too
deeply for the recursion limit, or out of memory).  Tabular subcommands
accept ``--format {json,csv,text}``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import enumeration, instances, operad, trees
from .algebra import (
    StepBudgetExceeded,
    apply_p,
    parse_lincomb,
    reduce,
    rewrite_reduce,
)
from .words import analyze, parse_word, render_word, word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_RESOURCE = 5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _run_cap(text: str):
    if text in ("inf", "infinity"):
        return math.inf
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"--run-cap must be a positive integer or 'inf', got {text!r}")
    if value < 1:
        raise UsageError("--run-cap must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="avalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="reduce a bracketed word to normal form")
    p.add_argument("word")
    p.add_argument("--method", choices=("eval", "rewrite"), default="eval")
    p.add_argument("--rewrite-budget", type=int, default=None,
                   help="step cap for --method rewrite (default 10 * size^2)")

    p = sub.add_parser("product", help="diamond product of two linear combinations")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("apply-p", help="apply the averaging operator to a word")
    p.add_argument("word")

    p = sub.add_parser("analyze", help="depth, breadth, indices and decompositions")
    p.add_argument("word")

    p = sub.add_parser("census", help="count idempotent-convention words")
    p.add_argument("--run-cap", default="1", type=_run_cap)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--max-arity", type=int, default=-1)
    p.add_argument("--include-one", action="store_true")
    p.add_argument("--list-words", action="store_true")
    p.add_argument("--budget", type=int, default=10**7)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("series", help="bivariate generating series coefficients")
    p.add_argument("--kind", choices=("I", "B", "D", "C", "A"), required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("schroeder", help="large Schroeder number by recursion")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("word2tree", help="averaging word to averaging tree")
    p.add_argument("word")

    p = sub.add_parser("tree2word", help="averaging tree to averaging word")
    p.add_argument("tree")

    p = sub.add_parser("schroeder-trees", help="enumerate Schroeder trees")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("compose", help="operad partial composition")
    p.add_argument("outer")
    p.add_argument("index", type=int)
    p.add_argument("inner")

    p = sub.add_parser("check-instance", help="verify a finite algebra from JSON")
    p.add_argument("path")

    return parser


def _parse_tree_or_word(text: str) -> trees.AveragingTree:
    stripped = text.strip()
    if stripped and stripped[0] in "LUB":
        return trees.AveragingTree(trees.parse_binary_tree(stripped))
    return trees.phi(parse_word(stripped))


def _word_payload(w) -> dict:
    return {"word": render_word(w)}


def _handle(args) -> tuple:
    """Returns (payload, format) for the selected subcommand."""
    cmd = args.command

    if cmd == "normalize":
        parsed = parse_word(args.word)
        if args.method == "rewrite":
            normal = rewrite_reduce(parsed, budget=args.rewrite_budget)
        else:
            normal = reduce(parsed)
        return _word_payload(normal), "json"

    if cmd == "product":
        left = parse_lincomb(args.left)
        right = parse_lincomb(args.right)
        return (left * right).to_json(), "json"

    if cmd == "apply-p":
        return _word_payload(apply_p(parse_word(args.word))), "json"

    if cmd == "analyze":
        info = analyze(parse_word(args.word))
        return {
            "depth": info.depth,
            "breadth": info.breadth,
            "head": info.head,
            "tail": info.tail,
            "standard_factors": [
                render_word(word(f)) for f in info.standard_factors
            ],
            "blocks": [render_word(b) for b in info.block_factors],
        }, "json"

    if cmd == "census":
        max_arity = args.max_arity
        if max_arity < 0:
            if args.run_cap == math.inf:
                raise UsageError("--max-arity is required when --run-cap is inf")
            max_arity = int(args.run_cap) * (2 * args.max_degree + 1)
        result = enumeration.census(
            args.run_cap,
            args.max_degree,
            max_arity,
            include_one=args.include_one,
            list_words=args.list_words,
            budget=args.budget,
        )
        payload = result.a.to_json()
        payload["degree_totals"] = result.a.degree_totals()
        if args.list_words:
            payload["words"] = {
                f"{n},{m}": [render_word(w) for w in ws]
                for (n, m), ws in sorted(result.words.items())
            }
        return payload, args.format

    if cmd == "series":
        s = enumeration.series(args.kind, args.N, args.M)
        return s.to_json(), args.format

    if cmd == "schroeder":
        if args.n < 0:
            raise UsageError("--n must be nonnegative")
        return {"n": args.n, "value": enumeration.schroeder(args.n)}, "json"

    if cmd == "word2tree":
        tree = trees.phi(parse_word(args.word))
        return {
            "tree": trees.render_binary_tree(tree.tree),
            "word": render_word(trees.phi_inverse(tree)),
        }, "json"

    if cmd == "tree2word":
        tree = trees.AveragingTree(trees.parse_binary_tree(args.tree))
        return {
            "word": render_word(trees.phi_inverse(tree)),
            "tree": trees.render_binary_tree(tree.tree),
        }, "json"

    if cmd == "schroeder-trees":
        if args.n < 1:
            raise UsageError("--n must be >= 1")
        family = trees.enumerate_schroeder(args.n)
        return {
            "n": args.n,
            "count": len(family),
            "trees": [trees.render_schroeder_tree(t) for t in family],
        }, "json"

    if cmd == "compose":
        outer = _parse_tree_or_word(args.outer)
        inner = _parse_tree_or_word(args.inner)
        result = operad.compose(outer, args.index, inner)
        return {
            "tree": trees.render_binary_tree(result.tree),
            "word": render_word(trees.phi_inverse(result)),
        }, "json"

    if cmd == "check-instance":
        with open(args.path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        alg = instances.algebra_from_json(data)
        averaging = instances.check_averaging(alg)
        reynolds = instances.check_reynolds(alg)
        return {
            "dim": alg.dim,
            "basis": list(alg.basis),
            "associative": True,
            "averaging": {
                "ok": averaging is None,
                "counterexample": None if averaging is None else list(averaging),
            },
            "reynolds": {
                "ok": reynolds is None,
                "counterexample": None if reynolds is None else list(reynolds),
            },
            "idempotent": instances.is_idempotent(alg),
        }, "json"

    raise UsageError(f"unknown command {cmd!r}")


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"status": "ok", "payload": payload}, indent=2))
        return
    cells = payload.get("cells", [])
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "m", "count"])
        for n, m, c in cells:
            writer.writerow([n, m, c])
        return
    for n, m, c in cells:
        print(f"{n}\t{m}\t{c}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, fmt = _handle(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, IndexError, KeyError, FileNotFoundError) as exc:
        # every input-layer error (word, lincomb, tree and JSON syntax, and
        # non-averaging words) is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (enumeration.BudgetExceeded, StepBudgetExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AssertionError as exc:  # an invariant failed; never expected
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RecursionError, MemoryError) as exc:
        print(f"resource exhausted: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_RESOURCE
    _emit(payload, fmt)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
