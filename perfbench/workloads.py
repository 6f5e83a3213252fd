"""The in-process workloads: seeded inputs, timed ops and output checks.

Each workload builds one pass of ops from a seeded ``random.Random``.  An op
is a tuple whose first item names its kind; :func:`run_pass` times each
op and :func:`check` judges the outputs afterwards, untimed.  avalg functions are
looked up through their modules at call time, so a traced run sees them
through the tracer's wrappers.
"""

import random
import time
from fractions import Fraction

import avalg.algebra as alg
import avalg.instances as inst
import avalg.operad as opd
import avalg.trees as trees
import avalg.words as words

import reference as ref
import stats

# Sizes per scale.  Family sizes give the scaling exponents; "reps" calls per
# size let a single traced pass take a median.  The extra repeats of one size
# ("depth_reps", "rewrite_reps") put a band of like ops at the tail percentile
# (the 11th slowest op of a pass), so that the tail does not hinge on one op.
SIZES = {
    "full": {
        "algebra_random": 400, "algebra_pairs": 150, "algebra_lincombs": 60,
        "depth": (50, 100, 200, 400), "breadth": (50, 100, 200, 400), "reps": 3,
        "depth_reps": {100: 5},
        "oracle_random": 40,
        "rewrite_random": 600, "rewrite_depth": (25, 50, 75, 100), "rewrite_r2": (16, 32, 48),
        "rewrite_reps": {25: 5},
        "operad_family": (4, 3), "operad_small": 4, "operad_sample_family": (5, 2),
        "operad_sample": 100,
    },
    "smoke": {
        "algebra_random": 20, "algebra_pairs": 10, "algebra_lincombs": 3,
        "depth": (4, 8, 16), "breadth": (4, 8, 16), "reps": 2, "depth_reps": {},
        "oracle_random": 20,
        "rewrite_random": 10, "rewrite_depth": (4, 8, 12), "rewrite_r2": (3, 6),
        "rewrite_reps": {4: 2},
        "operad_family": (3, 1), "operad_small": 3, "operad_sample_family": (4, 1),
        "operad_sample": 3,
    },
}

MAX_RANDOM_SIZE = 40


def pass_rng(seed, workload, pass_index):
    return random.Random(f"{seed}:{workload}:{pass_index}")


class Failure:
    """Stands in for the output of an op that raised."""

    def __init__(self, exc):
        self.message = f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# algebra: library requests on the evaluation path

def depth_text(n):
    return "[x]" * n


def breadth_text(n):
    return "x[x]" * n


def r2_text(n):
    """``[[[x]x]x]...``: every bracket's content starts with a bracket (rule R2)."""
    return "[" * n + "x" + "]x" * (n - 1) + "]"


def build_algebra(rng, size):
    ops = []
    for i in range(size["algebra_random"]):
        text = words.render_word(words.random_bracketed_word(rng, max_size=MAX_RANDOM_SIZE))
        ops.append(("text", "random", text, i < size["oracle_random"]))
    for family, make in (("depth", depth_text), ("breadth", breadth_text)):
        for n in size[family]:
            reps = size["depth_reps"].get(n, size["reps"]) if family == "depth" else size["reps"]
            for rep in range(reps):
                oracle = rep == 0 and n == size[family][0]
                ops.append(("text", (family, n), make(n), oracle))
    for i in range(size["algebra_pairs"]):
        u, v = words.random_averaging_word(rng), words.random_averaging_word(rng)
        ops.append(("pair", u, v, i % 5 == 0))
    fixtures = inst.standard_fixtures()
    for _ in range(size["algebra_lincombs"]):
        a, b = alg.random_lincomb(rng), alg.random_lincomb(rng)
        images = []
        for name, target in sorted(fixtures.items()):
            assignment = {s: tuple(Fraction(rng.randint(-2, 2)) for _ in range(target.dim))
                          for s in "xy"}
            images.append((name, target, assignment))
        ops.append(("lincomb", a, b, images))
    rng.shuffle(ops)
    return ops


def _text_op(op):
    return words.render_word(alg.reduce(words.parse_word(op[2])))


def _pair_op(op):
    u, v = op[1], op[2]
    return words.render_word(alg.diamond(u, v)), words.render_word(alg.apply_p(u))


def _lincomb_op(op):
    a, b, images = op[1], op[2], op[3]
    product, applied = a * b, a.operator()
    mapped = [(alg.universal_map(asg, target, product), alg.universal_map(asg, target, applied))
              for _, target, asg in images]
    return product, applied, mapped


ALGEBRA_CALLS = {"text": _text_op, "pair": _pair_op, "lincomb": _lincomb_op}


def _algebra_op(op):
    return ALGEBRA_CALLS[op[0]](op)


def _oracle(text, strategy="innermost"):
    return words.render_word(alg.rewrite_reduce(words.parse_word(text), strategy))


def _same_shape(source_text, out_text, extra_power=0):
    return (ref.letters(source_text) == ref.letters(out_text)
            and ref.bracket_power(source_text) + extra_power == ref.bracket_power(out_text))


def _check_algebra(op, out):
    kind = op[0]
    if kind == "text":
        text = op[2]
        if not _same_shape(text, out):
            return f"reduce changed letters or bracket power: {text!r} -> {out!r}"
        if op[3] and _oracle(text) != out:
            return f"reduce disagrees with rewrite_reduce on {text!r}"
        return None
    if kind == "pair":
        u, v = words.render_word(op[1]), words.render_word(op[2])
        prod, applied = out
        if not _same_shape(f"{u} {v}", prod) or not _same_shape(u, applied, 1):
            return f"diamond/apply_p changed letters or bracket power on {u!r}, {v!r}"
        if op[3] and (_oracle(f"{u} {v}") != prod or _oracle(f"[{u}]") != applied):
            return f"diamond/apply_p disagree with rewrite_reduce on {u!r}, {v!r}"
        return None
    a, b, images = op[1], op[2], op[3]
    for (name, target, asg), (img_prod, img_applied) in zip(images, out[2]):
        ia, ib = alg.universal_map(asg, target, a), alg.universal_map(asg, target, b)
        if target.multiply(ia, ib) != img_prod:
            return f"universal map into {name} does not preserve the product"
        if target.operator(ia) != img_applied:
            return f"universal map into {name} does not preserve the operator"
    return None


# ---------------------------------------------------------------------------
# rewrite: the rule engine, with reduce as the oracle

def build_rewrite(rng, size):
    texts = [("random", words.render_word(words.random_bracketed_word(rng, max_size=MAX_RANDOM_SIZE)))
             for _ in range(size["rewrite_random"])]
    texts += [(("depth", n), depth_text(n)) for n in size["rewrite_depth"]
              for _ in range(size["rewrite_reps"].get(n, 1))]
    texts += [(("r2", n), r2_text(n)) for n in size["rewrite_r2"]]
    ops = [("rewrite", tag, words.parse_word(text), strategy)
           for tag, text in texts for strategy in ("innermost", "outermost")]
    rng.shuffle(ops)
    return ops


def _rewrite_op(op):
    return alg.rewrite_reduce(op[2], op[3])


def _check_rewrite(op, out):
    if out != alg.reduce(op[2]):
        return f"rewrite_reduce ({op[3]}) disagrees with reduce on {words.render_word(op[2])!r}"
    if not _same_shape(words.render_word(op[2]), words.render_word(out)):
        return "rewrite_reduce changed letters or bracket power"
    return None


# ---------------------------------------------------------------------------
# operad: axiom instances over memoised compositions

class Memo:
    """Compositions memoised on ``(tau, i, sigma)``, as the acceptance test does."""

    def __init__(self, tracer=None):
        self.table = {}
        self.lookups = 0
        self.hits = 0
        self.tracer = tracer
        if tracer is not None:
            self.span = tracer.name_id("operad.memo_lookup")

    def __call__(self, tau, i, sigma):
        self.lookups += 1
        key = (tau, i, sigma)
        if self.tracer is None:
            got = self.table.get(key)
        else:
            idx = self.tracer.begin(self.span)
            got = self.table.get(key)
            self.tracer.finish(idx)
        if got is None:
            got = opd.compose(tau, i, sigma)
            self.table[key] = got
        else:
            self.hits += 1
        return got


def _axiom_ops(lam, mu, nu):
    ops = []
    for i in range(1, lam.arity + 1):
        for j in range(1, mu.arity + 1):
            ops.append(("seq", lam, mu, nu, i, j))
        for k in range(i + 1, lam.arity + 1):
            ops.append(("par", lam, mu, nu, i, k))
    return ops


def build_operad(rng, size):
    family = trees.enumerate_averaging_trees(*size["operad_family"])
    small = [t for t in family if t.arity + trees.uni_count(t.tree) <= size["operad_small"]]
    identity = opd.IDENTITY
    probes = [identity, trees.AveragingTree(trees.Uni(trees.LEAF)),
              trees.AveragingTree(trees.Bi(trees.LEAF, trees.LEAF))]
    ops = []
    for tau in family:
        ops.append(("unit_left", tau))
        ops.extend(("unit_right", tau, i) for i in range(1, tau.arity + 1))
    for lam in small:
        for mu in small:
            for nu in small:
                ops.extend(_axiom_ops(lam, mu, nu))
    for tau in family:
        for p in probes:
            for q in probes:
                for triple in ((tau, p, q), (p, tau, q), (p, q, tau)):
                    ops.extend(_axiom_ops(*triple))
    wide = trees.enumerate_averaging_trees(*size["operad_sample_family"])
    for _ in range(size["operad_sample"]):
        ops.extend(_axiom_ops(rng.choice(wide), rng.choice(wide), rng.choice(wide)))
    return ops


def _operad_op(op, memo):
    kind = op[0]
    if kind == "unit_left":
        return memo(opd.IDENTITY, 1, op[1]) == op[1]
    if kind == "unit_right":
        return memo(op[1], op[2], opd.IDENTITY) == op[1]
    _, lam, mu, nu, i, j = op
    if kind == "seq":
        return memo(memo(lam, i, mu), i - 1 + j, nu) == memo(lam, i, memo(mu, j, nu))
    return memo(memo(lam, i, mu), j - 1 + mu.arity, nu) == memo(memo(lam, j, nu), i, mu)


def _check_memo(memo):
    """Every stored composition has arity(tau) + arity(sigma) - 1 leaves."""
    bad = 0
    for (tau, _, sigma), result in memo.table.items():
        leaves = ref.tree_leaves(trees.render_binary_tree(result.tree))
        if leaves != tau.arity + sigma.arity - 1:
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# One pass

BUILDERS = {"algebra": build_algebra, "rewrite": build_rewrite, "operad": build_operad}


def run_pass(workload, ops, tracer=None):
    """Time every op; returns (outputs, latencies ns, timed wall ns, memo, calibration).

    A host-speed calibration reading is taken before the first op, after every
    ``CALIBRATE_EVERY_NS`` of op time and after the last op; the wall time
    leaves the readings out.
    """
    memo = Memo(tracer) if workload == "operad" else None
    if workload == "operad":
        def call(op):
            return _operad_op(op, memo)
    else:
        call = _rewrite_op if workload == "rewrite" else _algebra_op
    clock = time.perf_counter_ns
    outputs, latencies = [], []
    calibration = [(0, stats.calibrate())]
    since = excluded = 0
    began = clock()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = index
        t0 = clock()
        try:
            out = call(op)
        except Exception as exc:  # an op that raises counts as failed
            out = Failure(exc)
        t1 = clock()
        latencies.append(t1 - t0)
        outputs.append(out)
        since += t1 - t0
        if since >= stats.CALIBRATE_EVERY_NS:
            calibration.append((index + 1, stats.calibrate()))
            excluded += clock() - t1
            since = 0
    wall = clock() - began - excluded
    calibration.append((len(ops), stats.calibrate()))
    if tracer is not None:
        tracer.current_op = -1
    return outputs, latencies, wall, memo, calibration


def check(workload, ops, outputs, memo):
    """(one message per failed op, problems that belong to no single op)."""
    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Failure):
            failures.append(out.message)
            continue
        if workload == "operad":
            problem = None if out is True else f"operad axiom {op[0]} fails"
        elif workload == "rewrite":
            problem = _check_rewrite(op, out)
        else:
            problem = _check_algebra(op, out)
        if problem:
            failures.append(problem)
    problems = []
    if memo is not None:
        bad = _check_memo(memo)
        if bad:
            problems.append(f"{bad} memoised compositions have the wrong arity")
    return failures, problems


def tag_of(op):
    """The (family, size) tag of a family op, else None."""
    if op[0] in ("text", "rewrite") and isinstance(op[1], tuple):
        return op[1]
    return None
