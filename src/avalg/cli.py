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
the parser holds the named subcommand alone, the layers are registered
lazily and called through their modules, and each layer reads the names
that most subcommands never run from a module of their own
(``avalg._forward``).  So ``check-instance`` loads ``instances`` alone,
``analyze`` ``words`` alone, ``series`` and ``schroeder`` ``enumeration``
alone, ``normalize`` and ``apply-p`` ``words`` and ``algebra``, ``product``
those two and ``_lincomb``, ``census`` ``words``, ``enumeration``,
``_engine`` and ``_grammar``, ``word2tree`` and ``tree2word`` ``words`` and
``trees``, ``schroeder-trees`` those two, ``_engine``, ``_families`` and
``enumeration``, and ``compose`` ``words``, ``algebra``, ``trees`` and
``operad``.  Each also loads ``avalg._record``, the base of the value
classes; none loads ``dataclasses``, and only ``product`` and
``check-instance`` load ``fractions``.  The program entry, :func:`run`,
freezes the collector's objects before the process exits, so the
collections at shutdown have nothing to walk; :func:`main` leaves the
collector alone.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import json
import math
import os
import sys


def _lazy(name: str):
    """The layer ``avalg.<name>``, registered so that its code runs on first
    attribute access (``importlib.util.LazyLoader``); a module already in
    ``sys.modules`` is returned as it is.  So ``import avalg.cli`` leaves
    every layer in ``sys.modules`` without running it, where a tool that
    wraps the layers' functions from outside (``perfbench/instrument.py``)
    reads them."""
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
# the term pairs of the largest product served: 300 x 300 terms took 1.36 s
# and printed 6.1 MB, and 1,000 x 1,000 took 19.7 s and printed 68 MB
PRODUCT_BUDGET = 10**5


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


_FORMAT = {"--format": {"choices": ("json", "csv", "text"), "default": "json"}}

# each subcommand's help and arguments, in the order --help lists them; an
# argument is its name and the keywords of its add_argument call
_SUBCOMMANDS = {
    "normalize": ("reduce a bracketed word to normal form", {
        "word": {},
        "--method": {"choices": ("eval", "rewrite"), "default": "eval"},
        "--rewrite-budget": {"type": int,
                             "help": "step cap for --method rewrite (default 10 * size^2)"},
    }),
    "product": ("diamond product of two linear combinations", {"left": {}, "right": {}}),
    "apply-p": ("apply the averaging operator to a word", {"word": {}}),
    "analyze": ("depth, breadth, indices and decompositions", {"word": {}}),
    "census": ("count idempotent-convention words", {
        "--run-cap": {"default": "1", "type": _run_cap},
        "--max-degree": {"type": int, "required": True},
        "--max-arity": {"type": int},
        "--include-one": {"action": "store_true"},
        "--list-words": {"action": "store_true"},
        "--budget": {"type": int},
        **_FORMAT,
    }),
    "series": ("bivariate generating series coefficients", {
        "--kind": {"choices": ("I", "B", "D", "C", "A"), "required": True},
        "--N": {"type": int, "required": True},
        "--M": {"type": int, "required": True},
        **_FORMAT,
    }),
    "schroeder": ("large Schroeder number by recursion", {"--n": {"type": int, "required": True}}),
    "word2tree": ("averaging word to averaging tree", {"word": {}}),
    "tree2word": ("averaging tree to averaging word", {"tree": {}}),
    "schroeder-trees": ("enumerate Schroeder trees", {"--n": {"type": int, "required": True}}),
    "compose": ("operad partial composition", {"outer": {}, "index": {"type": int}, "inner": {}}),
    "check-instance": ("verify a finite algebra from JSON", {"path": {}}),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.  A
    subcommand reads its arguments and words its errors and its help the
    same in both; only the top level's texts list the other subcommands."""
    # the module docstring up to its last paragraph, which is about loading
    # (no docstring under -OO)
    parser = _Parser(prog="avalg", description=__doc__ and __doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, arguments) in _SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            for argument, options in arguments.items():
                p.add_argument(argument, **options)
    return parser


def _parse(argv):
    """The namespace of ``argv`` (the process's arguments if None), read by
    the parser of the subcommand it names; a first argument that names none
    (``--help``, nothing, an unknown command) is read by the full parser."""
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    return build_parser(command).parse_args(argv)


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
        pairs = len(left.terms) * len(right.terms)
        if pairs > PRODUCT_BUDGET:
            raise _record.BudgetExceeded(
                f"product would multiply {pairs} pairs of terms (budget {PRODUCT_BUDGET})")
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
        _emit(*_handle(_parse(argv)))
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


def run() -> None:
    """The program entry (``python -m avalg``, ``python -m avalg.cli``, the
    ``avalg`` script): :func:`main` on the process's arguments, then exit.
    ``gc.freeze()`` first moves every tracked object to the permanent
    generation, which the collections at shutdown skip; they were the
    largest single cost of a short command.  Only the exit follows, and it
    still runs ``atexit``, module teardown and the stream flushes that exit
    codes 5 and 6 rely on; what stays uncollected is cyclic garbage, and no
    avalg object has a finalizer.  ``main`` leaves the collector alone: its
    state is the whole process's."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
