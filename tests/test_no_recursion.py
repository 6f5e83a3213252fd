"""No function recurses once per level of a user's input.

Two checks keep it so.  A scan of ``src/avalg`` fails on any function that
calls itself by its bare name, or any method that calls itself through
``self``, unless the allow-list below names it with the reason its depth is
bounded.  A depth matrix runs each function that walks
words or trees on inputs nested 1200 levels deep (words 3000 deep for
``==`` and ``hash``, and every recursive value 5000 deep through ``pickle``
and ``copy.deepcopy``) with the recursion limit set just above the caller's
stack, which also catches mutual recursion that the scan cannot see.
"""

import ast
import contextlib
import copy
import pickle
import sys
from pathlib import Path

import pytest

from avalg.algebra import LinearCombination, reduce, universal_map
from avalg.enumeration import collapse_runs, expand_runs
from avalg.instances import standard_fixtures
from avalg.operad import OperadElement
from avalg.trees import (
    is_fat,
    is_lft,
    is_schroeder,
    lf,
    omega_count,
    parse_binary_tree,
    parse_schroeder_tree,
    phi,
    psi,
    psi_inverse,
    render_binary_tree,
    render_schroeder_tree,
)
from avalg.words import (
    AveragingWord,
    depth,
    letters_of,
    parse_word,
    render_word,
    substitute_letters,
    word_key,
)

SOURCE = Path(__file__).resolve().parent.parent / "src" / "avalg"

# qualified name -> why its depth does not grow with the input's nesting
ALLOWED = {
    "algebra._apply_p": "recurses once, on a rest that begins with a letter, so its depth is at most 2",
    "_families.random_bracketed_word.gen": "depth bounded by the size budget",
    "_engine.Family.walk": "one level per rest, and a rest is a smaller family: a word's"
                            " next factors, at most its size",
    "_engine.Family.unrank": "one level per head, a smaller family: a bracket's core or a"
                              " subtree, so at most the member's size",
}


def calls_itself(function, method: bool) -> bool:
    """Whether ``function`` calls its own name, bare or, for a method,
    through ``self``."""
    for n in ast.walk(function):
        if isinstance(n, ast.Call):
            f = n.func
            if isinstance(f, ast.Name) and f.id == function.name:
                return True
            if (method and isinstance(f, ast.Attribute) and f.attr == function.name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"):
                return True
    return False


def self_calls():
    """Qualified names of the functions in ``src/avalg`` that call themselves
    by bare name, or through ``self`` for methods (``module.outer.inner`` for
    nested ones, ``module.Class.f`` for methods)."""
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        todo = [(ast.parse(path.read_text(encoding="utf-8")), path.stem, False)]
        while todo:
            node, prefix, in_class = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    is_class = isinstance(child, ast.ClassDef)
                    if not is_class and calls_itself(child, in_class):
                        found.add(name)
                    todo.append((child, name, is_class))
                else:
                    todo.append((child, prefix, in_class))
    return found


def test_no_function_calls_itself_outside_the_allow_list():
    found = self_calls()
    assert found - set(ALLOWED) == set(), "recursive on input depth; keep an explicit stack"
    assert set(ALLOWED) - found == set(), "allow-list entries that no longer recurse"


@contextlib.contextmanager
def shallow_stack(headroom=100):
    """Set the recursion limit ``headroom`` frames above the current stack."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


D = 1200
DEEP = "[x" * D + "]" * D  # indecomposable, and an averaging word
DOUBLED = "[x x" * D + "]" * D
TREE = "w(i," * (D - 1) + "o" + ")" * (D - 1)  # the Schroeder tree of DEEP
BAD_TREE = "w(i," * (D - 1) + "i" + ")" * (D - 1)  # an iota leaf at an odd branch
LADDER = "U(B(L," * (D - 1) + "U(L)" + "))" * (D - 1)  # the binary tree of DEEP
COMB = "U(" + "B(" * D + "L" + ",L)" * D + ")"  # a bracket over D + 1 letters, fat
SPINE = "U(" + "B(" * D + "L" + ",U(L))" * D + ")"  # lf cuts every [x] back to x
WORD, TWICE = parse_word(DEEP), parse_word(DOUBLED)
SCHROEDER, NOT_SCHROEDER = parse_schroeder_tree(TREE), parse_schroeder_tree(BAD_TREE)
FAT, CUT = parse_binary_tree(COMB), parse_binary_tree(SPINE)


def eq_and_hash_3000_deep():
    a, b = parse_word("[x" * 3000 + "]" * 3000), parse_word("[x" * 3000 + "]" * 3000)
    c = parse_word("[x" * 3000 + " y" + "]" * 3000)
    return a == b, a != c, hash(a) == hash(b), len({a, b, c})


def schroeder_eq_and_hash():
    copy = parse_schroeder_tree(TREE)
    return copy == SCHROEDER, hash(copy) == hash(SCHROEDER), copy != NOT_SCHROEDER


P = 5000
PICKLED = "[x" * P + "]" * P


def round_trips(make):
    """Whether ``make`` of the word ``P`` levels deep comes back equal, as a
    new object, through ``pickle`` and through ``copy.deepcopy``."""
    value = make(parse_word(PICKLED))
    return tuple(loaded == value and loaded is not value
                 for loaded in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)))


def averaging_tree_round_trips():
    tree = phi(parse_word(PICKLED))
    loaded = pickle.loads(pickle.dumps(tree))
    # the constructor certifies the tree again, which marks every vertex
    return loaded == tree, loaded.arity, loaded.tree._leaves, copy.deepcopy(tree) == tree


def mapped_into_dual_numbers():
    # x^1200 under the identity operator: (1 + y)^1200 = 1 + 1200y
    alg = standard_fixtures()["identity_dual_numbers"]
    return universal_map({"x": alg.element([1, 1])}, alg, WORD) == alg.element([1, D])


def reprs():
    tree = phi(WORD)
    return (repr(WORD), repr(tree), repr(LinearCombination.of(WORD)),
            repr(OperadElement.of(tree)))


def collapsed():
    core, lengths = collapse_runs(TWICE)
    return render_word(core), lengths


# name -> (call on the deep inputs, its value); each value is text or
# numbers, so comparing it needs no recursion
MATRIX = {
    "words.word_key": (lambda: word_key(WORD), (D, D, DEEP)),
    "words.substitute_letters": (
        lambda: render_word(substitute_letters(WORD, lambda f: (f, f))), DOUBLED),
    "words.depth": (lambda: depth(WORD), D),
    "words.letters_of": (lambda: letters_of(TWICE), {"x"}),
    "trees.phi": (lambda: render_binary_tree(phi(WORD).tree), LADDER),
    "algebra.universal_map": (mapped_into_dual_numbers, True),
    "words.BracketedWord.__repr__/trees._Node.__repr__": (reprs, (
        f"parse_word({DEEP!r})",
        f"AveragingTree(tree=parse_binary_tree({LADDER!r}))",
        f"LinearCombination(terms=((AveragingWord(word=parse_word({DEEP!r})), Fraction(1, 1)),))",
        f"OperadElement(arity={D}, terms=((AveragingTree(tree=parse_binary_tree({LADDER!r})),"
        " Fraction(1, 1)),))")),
    "words.BracketedWord.__eq__/__hash__": (eq_and_hash_3000_deep, (True, True, True, 2)),
    "enumeration.collapse_runs": (collapsed, (DEEP, (2,) * D)),
    "enumeration.expand_runs": (lambda: render_word(expand_runs(WORD, [2] * D)), DOUBLED),
    "trees.psi": (lambda: render_schroeder_tree(psi(WORD)), TREE),
    "trees.psi_inverse": (lambda: render_word(psi_inverse(SCHROEDER)), DEEP),
    "trees.is_schroeder": (
        lambda: (is_schroeder(SCHROEDER), is_schroeder(NOT_SCHROEDER)), (True, False)),
    "trees.omega_count": (lambda: omega_count(SCHROEDER), D),
    "trees.SNode.__eq__/__hash__": (schroeder_eq_and_hash, (True, True, True)),
    "trees.SNode.__repr__": (lambda: repr(SCHROEDER), f"parse_schroeder_tree({TREE!r})"),
    "trees.lf": (lambda: render_binary_tree(lf(CUT)), COMB),
    "trees.is_lft": (lambda: (is_lft(FAT), is_lft(CUT)), (True, False)),
    "trees.is_fat": (lambda: (is_fat(FAT), is_fat(CUT)), (True, True)),
    "pickle/deepcopy: words.BracketedWord": (lambda: round_trips(lambda w: w), (True, True)),
    "pickle/deepcopy: words.Bracket": (lambda: round_trips(lambda w: w.factors[0]), (True, True)),
    "pickle/deepcopy: words.AveragingWord": (lambda: round_trips(AveragingWord), (True, True)),
    "pickle/deepcopy: trees.Uni/Bi": (lambda: round_trips(lambda w: phi(w).tree), (True, True)),
    "pickle/deepcopy: trees.AveragingTree": (averaging_tree_round_trips, (True, P, P, True)),
    "pickle/deepcopy: trees.SNode": (lambda: round_trips(psi), (True, True)),
    "algebra.reduce": (
        lambda: (render_word(reduce(WORD)), render_word(reduce(parse_word("[x]" + DEEP)))),
        (DEEP, "[x" * (D + 1) + "]" * (D + 1))),
}


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_deep_inputs_under_a_shallow_recursion_limit(name):
    call, expected = MATRIX[name]
    with shallow_stack():
        got = call()
    assert got == expected
