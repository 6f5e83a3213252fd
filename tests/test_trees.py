import inspect
import os
import pickle
import subprocess
import sys
import textwrap
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avalg import trees as trees_module
from avalg import words
from avalg.trees import (
    LEAF,
    AveragingTree,
    Bi,
    SLeaf,
    SNode,
    TLeaf,
    TreeSyntaxError,
    Uni,
    bracketed_power,
    enumerate_averaging_trees,
    enumerate_schroeder,
    enumerate_unreduced,
    is_averaging_tree,
    is_fat,
    is_lft,
    is_schroeder,
    leaf_count,
    lf,
    omega_count,
    parse_binary_tree,
    parse_schroeder_tree,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    render_binary_tree,
    render_schroeder_tree,
    subtrees,
    uni_count,
)
from avalg.trees import _phi_inverse
from avalg.enumeration import indecomposable_words_v, schroeder, univariate
from avalg.words import AveragingWord, degree, iter_averaging_words, parse_word

# eight small trees probing every clause of the averaging-tree conditions
TAU = {
    1: Uni(Bi(LEAF, LEAF)),
    2: Uni(Bi(LEAF, Uni(LEAF))),
    3: Uni(Bi(Uni(LEAF), LEAF)),
    4: Uni(Bi(LEAF, Uni(Uni(LEAF)))),
    5: Uni(Bi(Bi(LEAF, Uni(LEAF)), Uni(LEAF))),
    6: Bi(Uni(LEAF), Uni(LEAF)),
    7: Bi(Bi(Uni(LEAF), LEAF), Uni(Bi(Uni(LEAF), LEAF))),
    8: Bi(Bi(Uni(LEAF), LEAF), Uni(Bi(LEAF, LEAF))),
}


def averaging_by_definition(t):
    """Conditions (a) and (b) read off the definitions, subtree by subtree."""
    for s in subtrees(t):
        if isinstance(s, Uni):
            ladder = leaf_count(s) == 1
            if not ladder and not is_fat(s):
                return False
        elif isinstance(s, Bi) and not isinstance(s.right, TLeaf):
            if not isinstance(s.right, Uni):
                return False
            left = s.left
            if not (left == LEAF or (isinstance(left, Bi) and left.right == LEAF)):
                return False
    return True


class TestPredicates:
    def test_left_factor_trees(self):
        assert is_lft(TAU[1])
        for k in (2, 3, 4, 5):
            assert not is_lft(TAU[k]), k

    def test_lf_replaces_right_subtrees(self):
        assert lf(TAU[1]) == TAU[1]
        assert lf(TAU[2]) == TAU[1]
        assert lf(TAU[3]) == TAU[3]
        assert lf(TAU[4]) == TAU[1]
        assert lf(TAU[5]) == Uni(Bi(Bi(LEAF, LEAF), LEAF))

    def test_fat_trees(self):
        for k in (1, 2, 5):
            assert is_fat(TAU[k]), k
        for k in (3, 4):
            assert not is_fat(TAU[k]), k
        assert not is_fat(LEAF) and not is_fat(Uni(LEAF))  # fewer than two leaves

    def test_averaging_trees(self):
        for k in (1, 2, 8):
            assert is_averaging_tree(TAU[k]), k
        for k in (3, 4, 5, 6, 7):
            assert not is_averaging_tree(TAU[k]), k

    def test_ladders_and_trivial_tree(self):
        tree = LEAF
        for _ in range(5):
            assert is_averaging_tree(tree)
            tree = Uni(tree)
        assert is_averaging_tree(tree)

    def test_one_pass_check_matches_definition(self):
        family = enumerate_unreduced(6, 4)
        accepted = [t for t in family if is_averaging_tree(t)]
        assert accepted == [t for t in family if averaging_by_definition(t)]
        assert len(accepted) == len(enumerate_averaging_trees(6, 4))

    def test_bracketed_power(self):
        assert bracketed_power(Uni(Uni(Bi(LEAF, LEAF)))) == 2
        assert bracketed_power(LEAF) == 0
        assert bracketed_power(TAU[6]) == 0


class TestPhi:
    def test_ladders(self):
        for s in (1, 2, 5):
            t = phi(parse_word(f"[x]^{s}"))
            assert uni_count(t.tree) == s and leaf_count(t.tree) == 1

    def test_letter_bracket(self):
        assert phi(parse_word("x[x]")).tree == Bi(LEAF, Uni(LEAF))

    def test_bracketed_pair(self):
        assert phi(parse_word("[x[x]]")).tree == Uni(Bi(LEAF, Uni(LEAF)))

    def test_rejects_other_letters(self):
        with pytest.raises(ValueError):
            phi(parse_word("x y"))

    def test_rejects_non_averaging(self):
        from avalg.words import InvalidAveragingWord

        with pytest.raises(InvalidAveragingWord):
            phi(parse_word("[x][x]"))

    def test_leaves_and_unis_track_arity_and_degree(self):
        from avalg.words import arity, degree

        for w in iter_averaging_words(max_arity=5, max_degree=3):
            t = phi(w)
            assert leaf_count(t.tree) == arity(w.word)
            assert uni_count(t.tree) == degree(w.word)

    def test_round_trip_word_side(self):
        for w in iter_averaging_words(max_arity=6, max_degree=4):
            assert phi_inverse(phi(w)) == w

    def test_round_trip_tree_side(self):
        family = enumerate_averaging_trees(6, 4)
        assert family
        for t in family:
            assert phi(phi_inverse(t)) == t

    def test_high_power_round_trip(self):
        w = parse_word("[x[x[x]^6x]]^9")
        assert phi_inverse(phi(w)).word == w
        ladder = parse_word("[x]^12")
        assert phi_inverse(phi(ladder)).word == ladder

    def test_subtrees_of_averaging_trees_are_averaging(self):
        for t in enumerate_averaging_trees(5, 3):
            for s in subtrees(t.tree):
                assert is_averaging_tree(s)

    def test_image_equals_filtered_family(self):
        by_filter = {
            t for t in enumerate_unreduced(5, 4) if is_averaging_tree(t)
        }
        by_bijection = {t.tree for t in enumerate_averaging_trees(5, 4)}
        assert by_bijection == by_filter


def fresh_copies(family):
    """Unmarked copies of ``family``, whose trees are built from one another:
    a copy's children are the copies of the original's children."""
    copy = {}
    for t in family:  # children come before their parents
        if isinstance(t, Uni):
            copy[id(t)] = Uni(copy[id(t.child)])
        elif isinstance(t, Bi):
            copy[id(t)] = Bi(copy[id(t.left)], copy[id(t.right)])
        else:
            copy[id(t)] = t
    return [copy[id(t)] for t in family]


def run_marked_walk(family):
    """Check every tree of ``family`` in order with the marked walk, against
    the definition.  Returns the trees it judged wrongly, the vertices left
    marked that are not averaging trees with that many leaves, and how many
    trees had a marked child when their turn came."""
    by_definition = {id(t): averaging_by_definition(t) for t in family}
    misjudged, read_marked = [], 0
    for t in family:
        if not isinstance(t, TLeaf):
            kids = (t.child,) if isinstance(t, Uni) else (t.left, t.right)
            read_marked += any(k._leaves and not isinstance(k, TLeaf) for k in kids)
        if is_averaging_tree(t) != by_definition[id(t)]:
            misjudged.append(render_binary_tree(t))
    mismarked = [
        render_binary_tree(t) for t in family
        if t._leaves and not (by_definition[id(t)] and t._leaves == leaf_count(t))
    ]
    return misjudged, mismarked, read_marked


def mutated_walk(monkeypatch, old, new):
    """Replace the library's tree check by its own source with ``old`` made ``new``."""
    source = textwrap.dedent(inspect.getsource(trees_module._averaging_leaves))
    assert old in source
    namespace = dict(vars(trees_module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(trees_module, "_averaging_leaves", namespace["_averaging_leaves"])


class TestCertificationMarks:
    def test_marked_walk_matches_definition(self):
        # larger trees first, and subtrees shared across the family: most
        # vertices are marked inside one parent, then read under others and
        # as trees of their own.  Every vertex is a tree of the family, so
        # the marked ones must be exactly its averaging trees
        family = fresh_copies(enumerate_unreduced(6, 4))[::-1]
        misjudged, mismarked, read_marked = run_marked_walk(family)
        assert misjudged == [] and mismarked == []
        assert read_marked > 1000
        assert sum(1 for t in family if t._leaves) == len(enumerate_averaging_trees(6, 4))

    @pytest.mark.parametrize("old, new", [
        # a failed check still marks what the walk entered
        ("return 0\n", "break\n"),
        # a mid-chain vertex is marked before its chain's check
        ("entered.append(core)\n",
         "entered.append(core); object.__setattr__(core, '_leaves', leaf_count(core))\n"),
    ])
    def test_a_walk_that_marks_wrongly_is_caught(self, monkeypatch, old, new):
        mutated_walk(monkeypatch, old, new)
        misjudged, mismarked, _ = run_marked_walk(fresh_copies(enumerate_unreduced(5, 3))[::-1])
        assert misjudged and mismarked

    def test_rejected_tree_marks_nothing(self):
        inner = parse_binary_tree("U(B(L,L))")
        bad = Bi(Bi(LEAF, inner), Uni(LEAF))  # a bracket after a non-trivial right subtree
        assert not is_averaging_tree(bad)
        assert not any(s._leaves for s in subtrees(bad) if not isinstance(s, TLeaf))
        assert is_averaging_tree(inner) and inner._leaves == 2

    def test_marks_are_pickled_but_not_compared(self):
        t = AveragingTree(parse_binary_tree("B(U(B(L,L)),L)"))
        assert t.tree._leaves == 3 and t.tree == Bi(Uni(Bi(LEAF, LEAF)), LEAF)
        assert Bi(Uni(Bi(LEAF, LEAF)), LEAF)._leaves == 0  # built unmarked
        loaded = pickle.loads(pickle.dumps(t))  # certified again on load
        assert loaded == t and loaded.tree is not t.tree
        assert [s._leaves for s in subtrees(loaded.tree)] == [s._leaves for s in subtrees(t.tree)]
        assert AveragingTree(loaded.tree).arity == 3


def word_by_definition(t):
    """The word of ``t`` read off the definition, as text: a leaf is x, a
    uni-vertex brackets, a bi-vertex juxtaposes."""
    parts, stack = [], [t]
    while stack:
        s = stack.pop()
        if isinstance(s, str):
            parts.append(s)
        elif isinstance(s, Uni):
            parts.append("[")
            stack += ("]", s.child)
        elif isinstance(s, Bi):
            stack += (s.right, " ", s.left)
        else:
            parts.append("x")
    return parse_word("".join(parts))


def assert_word_agrees(t):
    """The word of ``t`` is the one the definition gives."""
    assert _phi_inverse(t) == word_by_definition(t)


class TestPhiInverseByDefinition:
    def test_parsed_trees(self):
        for t in enumerate_unreduced(4, 3):
            fresh = parse_binary_tree(render_binary_tree(t))
            assert_word_agrees(fresh)
            assert_word_agrees(fresh)  # the walk leaves nothing behind

    def test_trees_from_phi_and_enumeration(self):
        for t in enumerate_averaging_trees(5, 3):
            assert_word_agrees(t.tree)
        w = parse_word("[x x[x]^3 x[x x]]^5 x[x]")
        assert_word_agrees(phi(w).tree)

    def test_compositions(self):
        from avalg.operad import compose

        family = enumerate_averaging_trees(3, 2)
        for tau in family[::3]:
            for sigma in family[::4]:
                for i in range(1, tau.arity + 1):
                    assert_word_agrees(compose(tau, i, sigma).tree)

    def test_chain_top_in_one_tree_is_mid_chain_in_another(self):
        # U(L) is the whole chain of the first tree and the lower half of the
        # chain of the second; its word is the same in both
        top_first = parse_binary_tree("U(U(L))")
        assert _phi_inverse(top_first) == parse_word("[x]^2")
        assert _phi_inverse(top_first.child) == parse_word("[x]")
        mid_first = parse_binary_tree("U(U(L))")
        assert _phi_inverse(mid_first.child) == parse_word("[x]")
        assert _phi_inverse(mid_first) == parse_word("[x]^2")
        shared = phi(parse_word("[x]")).tree
        ladder = phi(parse_word("[x]^2")).tree
        assert ladder.child is shared
        assert phi_inverse(AveragingTree(shared)).word == parse_word("[x]")
        assert phi_inverse(AveragingTree(ladder)).word == parse_word("[x]^2")
        assert phi_inverse(phi(parse_word("x[x]^2"))).word == parse_word("x[x]^2")

    def test_pickled_tree_keeps_its_word(self):
        t = phi(parse_word("[x[x[x]^2 x]]^3"))
        loaded = pickle.loads(pickle.dumps(t))
        assert loaded == t and hash(loaded) == hash(t)
        assert phi_inverse(loaded) == phi_inverse(t)
        assert_word_agrees(loaded.tree)

    def test_shared_and_built_vertices_compare_and_print_alike(self):
        cached, bare = phi(parse_word("[x]^2")).tree, Uni(Uni(LEAF))
        assert cached == bare and hash(cached) == hash(bare)
        assert repr(cached) == repr(bare)


def subtrees_by_definition(t):
    """Pre-order, read off the definition recursively."""
    yield t
    if isinstance(t, Uni):
        yield from subtrees_by_definition(t.child)
    elif isinstance(t, Bi):
        yield from subtrees_by_definition(t.left)
        yield from subtrees_by_definition(t.right)


DEEP_WORD = "[x" * 1200 + "]" * 1200


class TestDeepTrees:
    def test_subtrees_in_pre_order(self):
        for t in enumerate_unreduced(4, 3):
            assert list(map(id, subtrees(t))) == list(map(id, subtrees_by_definition(t)))

    def test_counts_and_walk_at_depth_1200(self):
        from avalg.operad import OperadElement

        t = phi(parse_word(DEEP_WORD))
        assert leaf_count(t.tree) == uni_count(t.tree) == 1200
        walk = list(subtrees(t.tree))
        assert len(walk) == 3 * 1200 - 1 and walk[0] is t.tree and walk[-1] is LEAF
        element = OperadElement.of(t)
        assert element.arity == 1200 and element.terms == ((t, 1),)

    def test_equality_at_depth_1200(self):
        t = phi(parse_word(DEEP_WORD))
        text = render_binary_tree(t.tree)
        copy = AveragingTree(parse_binary_tree(text))
        assert copy.tree is not t.tree
        assert copy == t and t == copy and hash(copy) == hash(t)
        assert parse_binary_tree(text) == parse_binary_tree(text)
        other = phi(parse_word("[x" * 1199 + "[x x" + "]" * 1200))
        assert other != t and other != copy

    def test_pickle_at_depth_1200(self):
        t = phi(parse_word(DEEP_WORD))
        loaded = pickle.loads(pickle.dumps(t))
        assert loaded == t and loaded.tree is not t.tree and hash(loaded) == hash(t)
        assert loaded.arity == loaded.tree._leaves == 1200
        raw = pickle.loads(pickle.dumps(parse_binary_tree(render_binary_tree(t.tree))))
        assert raw == t.tree and not raw._leaves  # an unmarked vertex loads unmarked

    def test_equality_is_structural(self):
        family = enumerate_unreduced(3, 2)
        copies = [parse_binary_tree(render_binary_tree(t)) for t in family]
        for a, b in zip(family, copies):
            assert a == b and b == a
        for a in family[::3]:
            for b in copies:
                assert (a == b) == (render_binary_tree(a) == render_binary_tree(b))
        assert Uni(LEAF) != Bi(LEAF, LEAF) and Uni(LEAF) != LEAF and Uni(LEAF) != "U(L)"

    def test_equal_hashes_are_not_enough(self):
        a, b = Uni(Bi(LEAF, Uni(LEAF))), Uni(Bi(Uni(LEAF), LEAF))
        object.__setattr__(b, "_hash", a._hash)
        object.__setattr__(b.child, "_hash", a.child._hash)
        assert a != b and b != a


def schroeder_by_definition(t):
    """The alternating branch condition checked vertex by vertex on the
    values, the oracle for the text check of ``is_schroeder``."""
    if isinstance(t, SLeaf):
        return t.decoration == "omega"
    todo = [t]
    while todo:
        for pos, branch in enumerate(todo.pop().branches):
            if pos % 2 == 0:
                if branch != SLeaf("iota"):
                    return False
            elif branch == SLeaf("iota"):
                return False
            elif isinstance(branch, SNode):
                todo.append(branch)
    return True


def one_leaf_swapped(t):
    """Each tree that differs from ``t`` in one leaf, iota for omega or back."""
    text = render_schroeder_tree(t)
    swap = {"i": "o", "o": "i"}
    for k, ch in enumerate(text):
        if ch in swap:
            yield parse_schroeder_tree(text[:k] + swap[ch] + text[k + 1:])


def vertex(subtrees, closing_iota):
    """The vertex over ``subtrees`` at the odd branches, iota leaves between."""
    branches = []
    for sub in subtrees:
        branches += (SLeaf("iota"), sub)
    return SNode(tuple(branches) + (SLeaf("iota"),) * closing_iota)


# Schroeder trees with up to about 30 omega decorations
schroeder_trees = st.recursive(
    st.just(SLeaf("omega")),
    lambda sub: st.builds(vertex, st.lists(sub, min_size=1, max_size=4), st.booleans()),
    max_leaves=20,
)


class TestSchroederTrees:
    def test_counts(self):
        assert [len(enumerate_schroeder(n)) for n in range(1, 6)] == [1, 2, 6, 22, 90]
        assert enumerate_schroeder(0) == ()

    def test_sh1_and_sh2_structures(self):
        assert enumerate_schroeder(1) == (SLeaf("omega"),)
        got = set(enumerate_schroeder(2))
        iota, omega = SLeaf("iota"), SLeaf("omega")
        assert got == {SNode((iota, omega)), SNode((iota, omega, iota))}

    def test_all_enumerated_are_schroeder_with_right_count(self):
        for n in range(1, 6):
            family = enumerate_schroeder(n)
            assert len(set(family)) == len(family)
            for t in family:
                assert is_schroeder(t)
                assert omega_count(t) == n

    def test_rejects_bad_trees(self):
        iota, omega = SLeaf("iota"), SLeaf("omega")
        assert not is_schroeder(iota)
        assert not is_schroeder(SNode((omega, iota)))  # omega leaf in odd slot
        assert not is_schroeder(SNode((iota, iota)))   # iota leaf in even slot

    def test_text_check_agrees_with_the_branch_walk(self):
        for n in range(1, 8):
            for t in enumerate_schroeder(n):
                for s in (t, *one_leaf_swapped(t)):
                    assert is_schroeder(s) == schroeder_by_definition(s)

    def test_branches_must_be_trees(self):
        with pytest.raises(TypeError, match="not a Schroeder tree"):
            SNode((SLeaf("iota"), 5))

    def test_leaf_decoration_is_iota_or_omega(self):
        with pytest.raises(ValueError, match="leaf decoration must be iota or omega"):
            SLeaf("x")


class TestPsi:
    def test_small_images(self):
        iota, omega = SLeaf("iota"), SLeaf("omega")
        assert psi(parse_word("[x]")) == omega
        assert psi(parse_word("[x[x]]")) == SNode((iota, omega))
        assert psi(parse_word("[x[x]x]")) == SNode((iota, omega, iota))
        nested = SNode((iota, SNode((iota, omega, iota)), iota))
        assert psi(parse_word("[x[x[x]x]x]")) == nested

    def test_inverse_rejects_a_parsed_non_schroeder_tree(self):
        with pytest.raises(ValueError, match="not a Schroeder tree"):
            psi_inverse(parse_schroeder_tree("w(o,i)"))

    def test_round_trips(self):
        for n in range(1, 6):
            for w in indecomposable_words_v(1, n):
                assert psi_inverse(psi(w)).word == w
            for t in enumerate_schroeder(n):
                assert psi(psi_inverse(t)) == t

    def test_image_set_equality(self):
        for n in range(1, 7):
            words = indecomposable_words_v(1, n)
            images = {psi(w) for w in words}
            assert len(images) == len(words)  # injective
            assert images == set(enumerate_schroeder(n))  # surjective

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(schroeder_trees)
    def test_round_trip_past_the_enumerated_sizes(self, t):
        w = psi_inverse(t)
        assert psi(w) == t
        assert omega_count(t) == degree(w.word)

    def test_rejects_decomposable(self):
        with pytest.raises(ValueError):
            psi(parse_word("[x]x[x]"))

    def test_rejects_letters_other_than_x(self):
        # otherwise psi("[y[x]]") is w(i,o), the image of [x[x]], and psi
        # is not injective
        for text in ("[y[x]]", "[x[y]]", "[y]", "[x[x z]]"):
            with pytest.raises(ValueError, match="over the single letter x"):
                psi(parse_word(text))

    def test_rejects_powers(self):
        for text in ("[x]^2", "[x[x[x]^2x]x]"):
            with pytest.raises(ValueError, match="bracket powers must all be 1"):
                psi(parse_word(text))

    def test_rejects_adjacent_letters(self):
        for text in ("[x x]", "[x[x]x x]", "[x[x x]]"):
            with pytest.raises(ValueError, match="even positions of the content must be brackets"):
                psi(parse_word(text))

    def test_accepts_exactly_the_indecomposable_words(self):
        indecomposable = {
            words.render_word(w) for n in range(1, 6) for w in indecomposable_words_v(1, n)
        }
        for w in iter_averaging_words(6, 5):
            try:
                psi(w)
            except ValueError:
                accepted = False
            else:
                accepted = True
            assert accepted == (words.render_word(w) in indecomposable)

    def test_nested_brackets_are_scanned_once(self, monkeypatch):
        d = 400
        plain = parse_word("[x" * (d - 1) + "[x]" + "x]" * (d - 1))
        cert = AveragingWord(plain)
        calls = []
        scan = words._scan_violation

        def counting(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(words, "_scan_violation", counting)
        for w, limit in ((cert, 0), (plain, d + 1)):
            calls.clear()
            t = psi(w)
            assert len(calls) <= limit
            levels = 0
            while isinstance(t, SNode):
                t = t.branches[1]
                levels += 1
            assert (levels, t) == (d - 1, SLeaf("omega"))

    def test_counts_match_schroeder_numbers(self):
        ui = univariate("I", 7)
        for n in range(1, 8):
            assert len(enumerate_schroeder(n)) == ui[n]
            assert len(enumerate_schroeder(n)) == schroeder(n - 1)


class TestTextForms:
    def test_str_is_the_rendered_text(self):
        assert str(Uni(LEAF)) == "U(L)" and str(LEAF) == "L"

    def test_binary_round_trip(self):
        for t in enumerate_averaging_trees(4, 3):
            text = render_binary_tree(t.tree)
            assert parse_binary_tree(text) == t.tree

    def test_schroeder_round_trip(self):
        for t in enumerate_schroeder(4):
            text = render_schroeder_tree(t)
            assert parse_schroeder_tree(text) == t

    @pytest.mark.parametrize("text", ["", "U(", "B(L)", "Q", "B(L,L) junk", "w()", "w(i"])
    def test_syntax_errors(self, text):
        with pytest.raises(TreeSyntaxError):
            if text.startswith("w"):
                parse_schroeder_tree(text)
            else:
                parse_binary_tree(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "unexpected end of tree term"),
            ("  ", "unexpected end of tree term"),
            ("Q", "unexpected character 'Q' at position 0"),
            ("i", "unexpected character 'i' at position 0"),
            ("U L", "expected '(' at position 1"),
            (" U ( L)", "expected '(' at position 2"),
            ("U(", "unexpected end of tree term"),
            ("U(L,L)", "expected ')' at position 3"),
            ("B(L)", "expected ',' at position 3"),
            ("B(L L)", "expected ',' at position 4"),
            ("B(L,", "unexpected end of tree term"),
            ("B(L,L))", "trailing input at position 6"),
            ("U( L )x", "trailing input at position 6"),
        ],
    )
    def test_binary_error_messages(self, text, message):
        with pytest.raises(TreeSyntaxError) as err:
            parse_binary_tree(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "unexpected end of tree term"),
            ("L", "unexpected character 'L' at position 0"),
            ("w()", "unexpected character ')' at position 2"),
            ("w(i,,o)", "unexpected character ',' at position 4"),
            ("w (i,o)", "expected '(' at position 1"),
            ("w(i", "expected ')' at position 3"),
            ("w(i o)", "expected ')' at position 4"),
            ("w(i,o", "expected ')' at position 5"),
            ("w(i,o) o", "trailing input at position 7"),
        ],
    )
    def test_schroeder_error_messages(self, text, message):
        with pytest.raises(TreeSyntaxError) as err:
            parse_schroeder_tree(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text", ["w(o)", "w(o)x", "w(i,w(o))"])
    def test_one_branch_vertex_fails_in_the_node(self, text):
        # the vertex is built when its ')' is read, before any trailing input
        with pytest.raises(ValueError, match="at least two branches"):
            parse_schroeder_tree(text)

    def test_whitespace_between_tokens(self):
        assert parse_schroeder_tree(" w( i , o ) ") == SNode((SLeaf("iota"), SLeaf("omega")))
        assert parse_binary_tree(" B( L ,U( L ) ) ") == Bi(LEAF, Uni(LEAF))

    def test_any_depth(self):
        text = "U(B(L," * 5000 + "L" + "))" * 5000
        tree = AveragingTree(parse_binary_tree(text))
        assert tree.arity == 5001
        assert str(tree) == render_binary_tree(tree.tree) == text
        ladder = "U(" * 5000 + "L" + ")" * 5000
        assert phi_inverse(parse_binary_tree(ladder)).word == parse_word("[x]^5000")
        text = "w(i," * 3000 + "o" + ")" * 3000
        assert render_schroeder_tree(parse_schroeder_tree(text)) == text
        deep, levels = parse_schroeder_tree(text), 0
        while isinstance(deep, SNode):
            assert deep.branches[0] == SLeaf("iota")
            deep, levels = deep.branches[1], levels + 1
        assert (levels, deep) == (3000, SLeaf("omega"))

    def test_bijection_at_any_depth(self):
        # phi and phi_inverse keep explicit stacks
        text = "[x" * 3000 + "]" * 3000  # compared as text: word equality recurses
        t = phi(parse_word(text))
        assert t.arity == 3000 and words.render_word(phi_inverse(t)) == text
        parsed = AveragingTree(parse_binary_tree(render_binary_tree(t.tree)))
        assert words.render_word(phi_inverse(parsed)) == text
        assert_word_agrees(parse_binary_tree("U(B(L," * 50 + "L" + "))" * 50))

    def test_averaging_tree_wrapper_validates(self):
        from avalg.trees import InvalidAveragingTree

        with pytest.raises(InvalidAveragingTree):
            AveragingTree(TAU[6])


SHARE_SCRIPT = """
import pickle, sys
from avalg.operad import OperadElement
from avalg.trees import AveragingTree, enumerate_averaging_trees, parse_binary_tree

def check(ok, what):
    if not ok:
        sys.exit(what)

family = enumerate_averaging_trees(4, 3)
element = OperadElement.from_terms(3, [(t, k) for k, t in enumerate(family) if t.arity == 3])
if sys.argv[1] == "dump":
    with open(sys.argv[2], "wb") as handle:
        pickle.dump((family, {t: k for k, t in enumerate(family)}, element), handle)
    sys.exit(0)
with open(sys.argv[2], "rb") as handle:
    loaded, index, loaded_element = pickle.load(handle)
check(loaded == family and loaded_element == element, "loaded values differ")
check(hash(loaded_element) == hash(element), "element hash differs")
check(dict(loaded_element.terms) == dict(element.terms), "element terms differ")
for k, t in enumerate(family):
    copy = AveragingTree(parse_binary_tree(str(t)))
    check(hash(loaded[k]) == hash(t) == hash(copy), f"hash of {t} differs")
    check(hash(loaded[k].tree) == hash(t.tree), f"vertex hash of {t} differs")
    check(index[t] == index[copy] == index[loaded[k]] == k, f"lookup of {t} fails")
"""


class TestSharing:
    def test_pickled_trees_hash_alike_under_another_hash_seed(self, tmp_path):
        path = str(tmp_path / "trees.pickle")
        for mode, seed in (("dump", "1"), ("load", "2")):
            proc = subprocess.run(
                [sys.executable, "-c", SHARE_SCRIPT, mode, path],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr

    def test_bijection_shares_vertices_weakly(self):
        w = parse_word("[x x[x]^3 x[x x]]^5 x[x]")
        first, second = phi(w), phi(w)
        assert first.tree is second.tree
        alive = weakref.ref(first.tree)
        del first, second
        assert alive() is None
