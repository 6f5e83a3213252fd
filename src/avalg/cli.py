"""Batch command-line front end.

JSON payloads go to stdout inside a small envelope; a failure prints at
most one line to stderr.  Exit codes: 0 ok, 1 usage, 2 input error (an
InputError: the library rejected the input, or the instance file cannot be
read), 3 budget exceeded (or a result with an integer past the int-to-text
limit), 4 internal error (an invariant failure, or any other exception: a
bug), 5 resource exhausted (a JSON file nested too deeply for the standard
library's recursive decoder, out of memory, or another OSError such as
stdout not writable; words and trees of any depth are read without
recursion), 6 stdout closed before the output was written (a reader such as
``head`` stopped early).  Tabular subcommands accept ``--format
{json,csv,text}``.

A process runs the code of a module only when its subcommand first uses it:
the layers are registered lazily and called through their modules, and each
layer reads the names that most subcommands never run from a module of
their own (``avalg._forward``).  So ``check-instance`` loads ``instances``
alone, ``analyze`` ``words`` alone, ``series`` and ``schroeder``
``enumeration`` alone, ``normalize`` and ``apply-p`` ``words`` and
``algebra``, ``product`` those two and ``_lincomb``, ``census`` ``words``,
``enumeration``, ``_engine`` and ``_grammar``, ``word2tree`` and
``tree2word`` ``words`` and ``trees``, ``schroeder-trees`` those two,
``_engine``, ``_families`` and ``enumeration``, and ``compose`` ``words``,
``algebra``, ``trees`` and ``operad``.  Each also loads ``avalg._record``,
the base of the value classes; none loads ``dataclasses``, and only
``product`` and ``check-instance`` load ``fractions``.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import os
import sys


def _lazy(name: str):
    """The layer ``avalg.<name>``, registered so that its code runs on first
    attribute access (``importlib.util.LazyLoader``); a module already in
    ``sys.modules`` is returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return sys.modules[fullname]


words, algebra, enumeration, instances, trees, operad, _record = map(_lazy, (
    "words", "algebra", "enumeration", "instances", "trees", "operad", "_record"))

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_RESOURCE = 5
EXIT_PIPE = 6

# the cells of the largest series table served: (222, 445) took 0.24 s and
# printed 3.5 MB, and the tallest box, (99999, 0), took 0.82 s
SERIES_BUDGET = 10**5


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


def _check_sizes(args, *flags: str) -> None:
    """Table sizes, indices and budgets are nonnegative; a negative one is a
    usage error."""
    for flag in flags:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None and value < 0:
            raise UsageError(f"{flag} must be nonnegative")


def build_parser() -> argparse.ArgumentParser:
    # the module docstring up to its last paragraph, which is about loading
    # (no docstring under -OO)
    parser = _Parser(prog="avalg", description=__doc__ and __doc__.rpartition("\n\n")[0])
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
    p.add_argument("--max-arity", type=int, default=None)
    p.add_argument("--include-one", action="store_true")
    p.add_argument("--list-words", action="store_true")
    p.add_argument("--budget", type=int, default=None)
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
    return _phi(words.parse_word(stripped))


def _phi(w) -> trees.AveragingTree:
    """The tree of ``w``, whose uni-vertices, one per bracket layer, are
    counted first (``degree`` walks the factors, not the layers), so a power
    past the budget exits 3 before any vertex is built."""
    budget = _record.DEFAULT_BUDGET
    layers = words.degree(w)
    if layers > budget:
        raise _record.BudgetExceeded(
            f"the tree would have {layers} uni-vertices (budget {budget})")
    return trees.phi(w)


def _word_payload(w) -> dict:
    return {"word": words.render_word(w)}


def _handle(args) -> tuple:
    """Returns (payload, format) for the selected subcommand."""
    cmd = args.command

    if cmd == "normalize":
        _check_sizes(args, "--rewrite-budget")
        parsed = words.parse_word(args.word)
        if args.method == "rewrite":
            normal = algebra.rewrite_reduce(parsed, budget=args.rewrite_budget)
        else:
            normal = algebra.reduce(parsed)
        return _word_payload(normal), "json"

    if cmd == "product":
        left = algebra.parse_lincomb(args.left)
        right = algebra.parse_lincomb(args.right)
        return (left * right).to_json(), "json"

    if cmd == "apply-p":
        return _word_payload(algebra.apply_p(words.parse_word(args.word))), "json"

    if cmd == "analyze":
        info = words.analyze(words.parse_word(args.word))
        return {
            "depth": info.depth,
            "breadth": info.breadth,
            "head": info.head,
            "tail": info.tail,
            "standard_factors": [
                words.render_word(words.word(f)) for f in info.standard_factors
            ],
            "blocks": [words.render_word(b) for b in info.block_factors],
        }, "json"

    if cmd == "census":
        _check_sizes(args, "--max-degree", "--max-arity", "--budget")
        if args.list_words and args.format != "json":
            # csv and text print the cells only
            raise UsageError("--list-words needs --format json")
        max_arity = args.max_arity
        if max_arity is None:
            if args.run_cap == math.inf:
                raise UsageError("--max-arity is required when --run-cap is inf")
            max_arity = int(args.run_cap) * (2 * args.max_degree + 1)
        result = enumeration.census(
            args.run_cap,
            args.max_degree,
            max_arity,
            include_one=args.include_one,
            list_words=args.list_words,
            budget=_record.DEFAULT_BUDGET if args.budget is None else args.budget,
        )
        payload = result.a.to_json()
        payload["degree_totals"] = result.a.degree_totals()
        if args.list_words:
            payload["words"] = {
                f"{n},{m}": list(texts) for (n, m), texts in sorted(result.words.items())
            }
        return payload, args.format

    if cmd == "series":
        _check_sizes(args, "--N", "--M")
        cells = (args.N + 1) * (args.M + 1)
        if cells > SERIES_BUDGET:
            raise _record.BudgetExceeded(
                f"series would compute {cells} cells (budget {SERIES_BUDGET})")
        s = enumeration.series(args.kind, args.N, args.M)
        return s.to_json(), args.format

    if cmd == "schroeder":
        _check_sizes(args, "--n")
        # s_n < (3 + 2 sqrt 2)^n, whose log10 is below 0.7656; 0 is no limit
        digits = 7656 * args.n // 10000 + 1
        limit = _record.int_text_limit()
        if 0 < limit < digits:
            raise _record.BudgetExceeded(
                f"s_{args.n} would print up to {digits} digits (int-to-text limit {limit})")
        return {"n": args.n, "value": enumeration.schroeder(args.n)}, "json"

    if cmd == "word2tree":
        tree = _phi(words.parse_word(args.word))
        return {
            "tree": trees.render_binary_tree(tree.tree),
            "word": words.render_word(trees.phi_inverse(tree)),
        }, "json"

    if cmd == "tree2word":
        tree = trees.AveragingTree(trees.parse_binary_tree(args.tree))
        return {
            "word": words.render_word(trees.phi_inverse(tree)),
            "tree": trees.render_binary_tree(tree.tree),
        }, "json"

    if cmd == "schroeder-trees":
        if args.n < 1:
            raise UsageError("--n must be >= 1")
        # the s_k grow with k, so the first one above the budget settles it
        budget = _record.DEFAULT_BUDGET
        for count in itertools.islice(enumeration.iter_schroeder_numbers(), args.n):
            if count > budget:
                raise _record.BudgetExceeded(
                    f"schroeder-trees would list at least {count} trees (budget {budget})")
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
            "word": words.render_word(trees.phi_inverse(result)),
        }, "json"

    # check-instance: argparse's required subparsers admit no other command
    alg = instances.load_algebra(args.path)
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


def _emit(payload: dict, fmt: str) -> None:
    """Write JSON in its envelope, or the cells (integers) as CSV or text; all
    of it is made first, so an integer too long to print writes nothing."""
    def text() -> str:
        if fmt == "json":
            return json.dumps({"status": "ok", "payload": payload}, indent=2) + "\n"
        sep, end, head = {"csv": (",", "\r\n", "n,m,count\r\n"), "text": ("\t", "\n", "")}[fmt]
        return head + "".join(f"{n}{sep}{m}{sep}{c}{end}" for n, m, c in payload["cells"])

    sys.stdout.write(_record.printed("the output holds an integer with", text))


def main(argv=None) -> int:
    # the exit table: the first clause that matches wins, and a clause's class
    # is read only when those above it miss, so a usage error loads no layer
    try:
        _emit(*_handle(build_parser().parse_args(argv)))
        return EXIT_OK
    except UsageError as exc:
        code, line = EXIT_USAGE, f"usage error: {exc}"
    except _record.InputError as exc:
        code, line = EXIT_PARSE, f"input error: {exc}"
    except _record.BudgetExceeded as exc:
        code, line = EXIT_BUDGET, f"budget exceeded: {exc}"
    except AssertionError as exc:  # an invariant failed; never expected
        code, line = EXIT_INTERNAL, f"internal invariant failure: {exc}"
    except BrokenPipeError:  # the reader stopped early; an OSError, so first
        sys.stdout, code, line = open(os.devnull, "w"), EXIT_PIPE, None
    except OSError as exc:  # stdout not writable (a full disk), say
        sys.stdout = open(os.devnull, "w")  # so the flush at exit does not raise again
        code, line = EXIT_RESOURCE, f"resource exhausted: {exc}"
    except (RecursionError, MemoryError) as exc:
        code, line = EXIT_RESOURCE, f"resource exhausted: {exc or type(exc).__name__}"
    except Exception as exc:  # any other failure is a bug, never an input error
        code, line = EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}"
    if line:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
