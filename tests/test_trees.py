import os
import subprocess
import sys
import weakref

import pytest

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
from avalg.enumeration import indecomposable_words_v, schroeder, univariate
from avalg.words import iter_averaging_words, parse_word

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
        with pytest.raises(ValueError):
            psi(parse_word("[x]^2"))

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
