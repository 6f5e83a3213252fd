"""Values shared across threads: eight threads that reduce, build trees and
compose on the same words and vertices get what one thread gets.

Tree vertices are hash-consed (``trees._NODES``), so threads that build the
same tree meet the same vertex objects, and a vertex's certification mark
(``_leaves``) is set lazily, by whichever thread certifies a tree over it
first.  Each run is a fresh interpreter, so every shared vertex starts
unmarked; the inputs are fixed, so the runs repeat exactly."""

import subprocess
import sys
import time

# Runs the ops on every shared input in argv[1] threads, each thread
# starting at a different input, and prints what they gave in input order,
# or the errors.
_SHARED = """
import itertools, sys, threading
from avalg import algebra, trees, words

texts = [words.render_word(w)
         for w in itertools.islice(words.iter_bracketed_words(9), 0, None, 97)]
tree_texts = [trees.render_binary_tree(trees.phi(algebra.reduce(words.parse_word(t))).tree)
              for t in reversed(texts)]
assert not trees._NODES, "a vertex outlived its tree"
shared_words = [words.parse_word(t) for t in texts]
shared_trees = [trees.parse_binary_tree(t) for t in tree_texts]
assert not any(t._leaves for t in shared_trees if t is not trees.LEAF), "a vertex starts marked"
from avalg import operad  # its constant trees are built here, after the inputs


def ops(i):
    normal = algebra.reduce(shared_words[i])
    tree = trees.phi(normal)
    outer = trees.AveragingTree(shared_trees[i])
    composed = operad.compose(outer, 1 + i % outer.arity, tree)
    return (words.render_word(normal), trees.render_binary_tree(composed.tree),
            words.render_word(trees.phi_inverse(composed)))


count, n = int(sys.argv[1]), len(texts)
results, errors = [[None] * n for _ in range(count)], []
barrier = threading.Barrier(count)


def work(k):
    barrier.wait()
    try:
        for step in range(n):
            i = (k * n // count + step) % n
            results[k][i] = ops(i)
    except BaseException as exc:
        errors.append(repr(exc))


sys.setswitchinterval(1e-6)  # switch threads often, inside the ops too
threads = [threading.Thread(target=work, args=(k,)) for k in range(count)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads), "a thread hung"
assert not errors, errors
assert all(r == results[0] for r in results), "threads disagree"
print(n, results[0])
"""


def _run(threads: int) -> str:
    proc = subprocess.run([sys.executable, "-c", _SHARED, str(threads)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_eight_threads_on_shared_values_get_what_one_thread_gets():
    start = time.perf_counter()
    one, eight = _run(1), _run(8)
    assert time.perf_counter() - start < 5
    assert int(one.split()[0]) >= 40
    assert eight == one
