import os
import pickle
import subprocess
import sys
import weakref

import pytest

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
from avalg.words import AveragingWord, iter_averaging_words, parse_word, word

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


def word_by_definition(t):
    """The word of ``t`` read off the definition, as text, without the vertex
    cache: a leaf is x, a uni-vertex brackets, a bi-vertex juxtaposes."""
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


def assert_cache_agrees(t):
    """The word of ``t`` and every bracket cached on one of its vertices are
    the ones the definition gives."""
    assert _phi_inverse(t) == word_by_definition(t)
    for s in subtrees(t):
        if isinstance(s, Uni) and s._bracket is not None:
            assert word(s._bracket) == word_by_definition(s)


class TestWordCache:
    def test_parsed_trees(self):
        for t in enumerate_unreduced(4, 3):
            fresh = parse_binary_tree(render_binary_tree(t))
            assert_cache_agrees(fresh)
            assert_cache_agrees(fresh)  # now read from the cache

    def test_trees_from_phi_and_enumeration(self):
        for t in enumerate_averaging_trees(5, 3):
            assert_cache_agrees(t.tree)
        w = parse_word("[x x[x]^3 x[x x]]^5 x[x]")
        assert_cache_agrees(phi(w).tree)

    def test_compositions(self):
        from avalg.operad import compose

        family = enumerate_averaging_trees(3, 2)
        for tau in family[::3]:
            for sigma in family[::4]:
                for i in range(1, tau.arity + 1):
                    assert_cache_agrees(compose(tau, i, sigma).tree)

    def test_chain_top_in_one_tree_is_mid_chain_in_another(self):
        # U(L) is the whole chain of the first tree and the lower half of the
        # chain of the second; the cached bracket belongs to the vertex
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

    def test_pickled_tree_keeps_its_cached_brackets(self):
        t = phi(parse_word("[x[x[x]^2 x]]^3"))
        assert t.tree._bracket is not None
        loaded = pickle.loads(pickle.dumps(t))
        assert loaded == t and hash(loaded) == hash(t)
        assert loaded.tree._bracket == t.tree._bracket
        assert phi_inverse(loaded) == phi_inverse(t)
        assert_cache_agrees(loaded.tree)

    def test_cache_is_not_compared_or_shown(self):
        cached, bare = phi(parse_word("[x]^2")).tree, Uni(Uni(LEAF))
        assert cached._bracket is not None and bare._bracket is None
        assert cached == bare and hash(cached) == hash(bare)
        assert repr(cached) == repr(bare)


class TestSchroederTrees:
    def test_counts(self):
        assert [len(enumerate_schroeder(n)) for n in range(1, 6)] == [1, 2, 6, 22, 90]

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


class TestPsi:
    def test_small_images(self):
        iota, omega = SLeaf("iota"), SLeaf("omega")
        assert psi(parse_word("[x]")) == omega
        assert psi(parse_word("[x[x]]")) == SNode((iota, omega))
        assert psi(parse_word("[x[x]x]")) == SNode((iota, omega, iota))
        nested = SNode((iota, SNode((iota, omega, iota)), iota))
        assert psi(parse_word("[x[x[x]x]x]")) == nested

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

    def test_rejects_decomposable(self):
        with pytest.raises(ValueError):
            psi(parse_word("[x]x[x]"))

    def test_rejects_powers(self):
        for text in ("[x]^2", "[x[x[x]^2x]x]"):
            with pytest.raises(ValueError, match="bracket powers must all be 1"):
                psi(parse_word(text))

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
