"""The value classes behave as frozen dataclasses do, class by class: their
``repr`` text, equality with an equal copy and with a value of another
class, their hash (none for the two count classes, which hold a dict),
refused assignment and deletion, and a pickle round trip that rebuilds the
slots neither compared nor shown but for a bare vertex's mark, a cache.  A
pickle calls the constructor, so it checks the value again; a tree pickles
as its text, and a word as its flat tuple of tokens, read back through the
checks of the text's reader."""

import copy
import itertools
import pickle
import re
import sys
from fractions import Fraction

import pytest

from avalg.algebra import LinearCombination
from avalg.enumeration import BivariateSeries, Census, CountTable, census, series
from avalg.instances import FiniteAlgebra
from avalg.operad import OperadElement
from avalg.trees import (
    LEAF,
    AveragingTree,
    Bi,
    SLeaf,
    SNode,
    TLeaf,
    Uni,
    parse_binary_tree,
    phi,
)
from avalg.words import (
    AveragingWord,
    Bracket,
    BracketedWord,
    InvalidAveragingWord,
    Letter,
    Violation,
    WordAnalysis,
    WordSyntaxError,
    _normal,
    analyze,
    parse_word,
    validate_averaging,
    word,
)

ONE = Fraction(1)


def table(counts):
    """The repr of a census count table of degree <= 1 and arity <= 3 at cap 1."""
    return (f"CountTable(counts={counts}, run_cap=1, include_one=False,"
            " max_degree=1, max_arity=3)")


CENSUS_A = table("{(0, 1): 1, (1, 1): 1, (1, 2): 2, (1, 3): 1}")


def marked(text):
    """The vertex of ``text``, certified, so its ``_leaves`` mark is set."""
    return AveragingTree(parse_binary_tree(text)).tree


# name -> (a fresh value, its repr, the hash it documents or None, the
# slots it hides)
CASES = {
    "Letter": (lambda: Letter("x"), "Letter(symbol='x')", hash(("x",)), ()),
    "Bracket": (lambda: Bracket(word(Letter("y")), 2),
                "Bracket(core=parse_word('y'), power=2)", hash((parse_word("y"), 2)), ()),
    "BracketedWord": (lambda: parse_word("x[y]^2"), "parse_word('x[y]^2')", hash("x[y]^2"), ()),
    "WordAnalysis": (
        lambda: analyze(parse_word("x[y]")),
        "WordAnalysis(depth=1, breadth=2, head=0, tail=1, standard_factors=(Letter(symbol='x'),"
        " Bracket(core=parse_word('y'), power=1)), block_factors=(parse_word('x'),"
        " parse_word('[y]')))",
        hash((1, 2, 0, 1, parse_word("x[y]").factors, (parse_word("x"), parse_word("[y]")))), ()),
    "Violation": (
        lambda: validate_averaging(parse_word("[x][x]")),
        "Violation(pattern=<ForbiddenPattern.ADJACENT_BRACKETS: 'AdjacentBrackets'>, path=(0,))",
        None, ()),
    "AveragingWord": (lambda: AveragingWord(parse_word("x[x]")),
                      "AveragingWord(word=parse_word('x[x]'))", hash((parse_word("x[x]"),)), ()),
    "LinearCombination": (
        lambda: LinearCombination.of(parse_word("x")),
        "LinearCombination(terms=((AveragingWord(word=parse_word('x')), Fraction(1, 1)),))",
        hash(((((AveragingWord(parse_word("x")), ONE),),))), ()),
    "CountTable": (lambda: census(1, 1, 3).a, CENSUS_A, None, ()),
    "Census": (
        lambda: census(1, 1, 3),
        f"Census(a={CENSUS_A}, b={table('{(1, 1): 1}')},"
        f" c={table('{(0, 1): 1, (1, 2): 2, (1, 3): 1}')}, d={table('{}')},"
        f" i={table('{(1, 1): 1}')}, words=None)",
        None, ()),
    "BivariateSeries": (
        lambda: series("I", 1, 2),
        "BivariateSeries(kind='I', max_degree=1, max_arity=2, table=((0, 0, 0), (0, 1, 0)))",
        hash(("I", 1, 2, ((0, 0, 0), (0, 1, 0)))), ()),
    "FiniteAlgebra": (
        lambda: FiniteAlgebra(("1",), [[["1"]]], [["1"]]),
        "FiniteAlgebra(basis=('1',), mul=(((Fraction(1, 1),),),), op=((Fraction(1, 1),),))",
        hash((("1",), (((ONE,),),), ((ONE,),))), ("_mul_int", "_op_int")),
    "OperadElement": (
        lambda: OperadElement.of(phi(parse_word("x[x]"))),
        "OperadElement(arity=2, terms=((AveragingTree(tree=parse_binary_tree('B(L,U(L))')),"
        " Fraction(1, 1)),))",
        hash((2, ((phi(parse_word("x[x]")), ONE),))), ()),
    "TLeaf": (TLeaf, "TLeaf()", 0x5EAF, ()),
    "Uni": (lambda: marked("U(L)"), "parse_binary_tree('U(L)')", hash((1, 0x5EAF)),
            ("_hash", "_leaves")),
    "Bi": (lambda: marked("B(L,U(L))"), "parse_binary_tree('B(L,U(L))')",
           hash((2, 0x5EAF, hash((1, 0x5EAF)))), ("_hash", "_leaves")),
    "AveragingTree": (lambda: AveragingTree(parse_binary_tree("B(L,U(L))")),
                      "AveragingTree(tree=parse_binary_tree('B(L,U(L))'))",
                      hash((2, 0x5EAF, hash((1, 0x5EAF)))), ("arity",)),
    "SLeaf": (lambda: SLeaf("omega"), "parse_schroeder_tree('o')", hash(("omega",)), ()),
    "SNode": (lambda: SNode((SLeaf("iota"), SLeaf("omega"))), "parse_schroeder_tree('w(i,o)')",
              hash("w(i,o)"), ()),
}
NAMES = list(CASES)


def test_every_value_class_is_covered():
    classes = (Letter, Bracket, BracketedWord, WordAnalysis, Violation, AveragingWord,
               LinearCombination, CountTable, Census, BivariateSeries, FiniteAlgebra,
               OperadElement, TLeaf, Uni, Bi, AveragingTree, SLeaf, SNode)
    assert [cls.__name__ for cls in classes] == NAMES
    for name, cls in zip(NAMES, classes):
        assert type(CASES[name][0]()) is cls


@pytest.mark.parametrize("name", NAMES)
def test_repr_equality_and_hash(name):
    make, text, documented, _ = CASES[name]
    value, copy = make(), make()
    assert value is not copy or name == "TLeaf"
    assert repr(value) == repr(copy) == text
    assert value == copy and not value != copy
    other = CASES[NAMES[NAMES.index(name) - 1]][0]()
    assert value.__eq__(other) is NotImplemented
    assert value != other and not value == other
    if documented is None and name in ("CountTable", "Census"):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    elif documented is not None:
        assert hash(value) == hash(copy) == documented
    else:
        assert hash(value) == hash(copy)


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_frozen_except_on_the_count_classes(name):
    # every class refuses it, the count classes too
    make, _, documented, hidden = CASES[name]
    value = make()
    names = [n for n in ("symbol", "core", "factors", "depth", "pattern", "word", "terms",
                         "counts", "a", "kind", "basis", "arity", "child", "left", "tree",
                         "decoration", "branches") if hasattr(value, n)][:1] + list(hidden)
    errors = AttributeError
    if name == "TLeaf":  # no fields: any name is refused, not only as AttributeError
        names, errors = ["anything"], (AttributeError, TypeError)
    for n in names:
        before = getattr(value, n, None)
        with pytest.raises(errors):
            setattr(value, n, before)
        with pytest.raises(errors):
            delattr(value, n)
        assert getattr(value, n, None) is before


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip_keeps_the_hidden_slots(name):
    make, _, _, hidden = CASES[name]
    value = make()
    loaded = pickle.loads(pickle.dumps(value))
    assert type(loaded) is type(value) and loaded == value and repr(loaded) == repr(value)
    for n in hidden:
        if n == "_leaves":  # the mark is a cache: a bare vertex comes back unmarked
            assert value._leaves and loaded._leaves == 0
        elif n in ("_mul_int", "_op_int"):  # a kernel is code, rebuilt on load
            (d, kernel), (d0, kernel0) = getattr(loaded, n), getattr(value, n)
            units = [tuple(int(i == j) for j in range(value.dim)) for i in range(value.dim)]
            args = list(itertools.product(units, repeat=2 if n == "_mul_int" else 1))
            assert d == d0 and [kernel(*a) for a in args] == [kernel0(*a) for a in args]
        else:
            assert getattr(loaded, n) == getattr(value, n)


def test_a_forged_averaging_word_is_refused_on_load():
    forged = pickle.dumps(_normal(parse_word("[x][x]")))  # wrapped without the scan
    with pytest.raises(InvalidAveragingWord, match="AdjacentBrackets"):
        pickle.loads(forged)


def test_a_power_too_long_to_render_round_trips():
    # 4,301 digits, past the default int-to-text limit: the power travels as
    # a binary int
    w = word(Letter("x"), Bracket(word(Letter("y")), 10**4300))
    for loaded in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w)):
        assert type(loaded) is BracketedWord and loaded == w
        assert loaded.factors[1].power == 10**4300


def test_a_deep_word_with_a_power_too_long_to_render_pickles():
    # no level renders, and the token tuple is flat, so pickle does not
    # recurse once per level
    w = word(Letter("x"), Bracket(word(Letter("x")), 10**5000))
    for _ in range(3000):
        w = word(Letter("x"), Bracket(w))
    loaded = pickle.loads(pickle.dumps(w))
    assert type(loaded) is BracketedWord and loaded == w


def test_a_word_pickled_without_a_text_limit_loads_under_the_default_one():
    w = word(Letter("x"), Bracket(word(Letter("y")), 10**5000))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        dumped = pickle.dumps(w)
    finally:
        sys.set_int_max_str_digits(limit)
    loaded = pickle.loads(dumped)
    assert loaded == w and loaded.factors[1].power == 10**5000


@pytest.mark.parametrize("tokens, message", [
    (("x", None), "unclosed '['"),
    (("x", 1), "unmatched ']'"),
    ((None, 1), "empty bracket content"),
    ((None, "x", 0), "bracket power 0 is not an int >= 1"),
    ((None, "x", True), "bracket power True is not an int >= 1"),
    (("1x",), "letter symbol '1x' is not an identifier"),
    ((), "empty word"),
])
def test_a_forged_word_pickle_is_refused_on_load(tokens, message):
    load, _ = parse_word("x").__reduce__()

    class Forged:
        def __reduce__(self):
            return load, (tokens,)

    with pytest.raises(WordSyntaxError, match=re.escape(message)):
        pickle.loads(pickle.dumps(Forged()))


def test_unmarked_vertices_stay_unmarked_through_pickle():
    for vertex in (Uni(LEAF), Bi(LEAF, Uni(LEAF))):
        assert pickle.loads(pickle.dumps(vertex))._leaves == 0


@pytest.mark.parametrize("make, a, b", [
    (lambda tree: OperadElement.of(phi(parse_word(tree))), "x[x]", "[x]x"),
    (lambda op: FiniteAlgebra(("1",), [[["1"]]], [[op]]), "1", "0"),
    (lambda top: BivariateSeries("I", 1, 2, ((0, 0, 0), (0, 1, top))), 0, 1),
], ids=["OperadElement", "FiniteAlgebra", "BivariateSeries"])
def test_values_that_differ_in_their_last_field_are_unequal(make, a, b):
    # Record compares the tuple of every field, not a prefix of it
    assert make(a) == make(a) and make(a) != make(b)
