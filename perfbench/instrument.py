"""Span tracing and cache introspection for the benchmark.

The tracer wraps public functions of each avalg layer from outside the
package.  Every name under which an avalg module holds a wrapped function is
rebound (``avalg.operad`` imports ``reduce`` and ``phi``, ``avalg.cli``
imports ``reduce`` and ``parse_word``), so calls between layers nest as child
spans.  A span records its name, start, end, parent span and the op it
belongs to; spans stay in flat arrays until :meth:`Tracer.dump` writes them.

A direct recursive call of a wrapped function (``reduce`` evaluating a
bracket core, ``render_word`` rendering one) is counted but opens no span of
its own; its time stays in the outer span.

Value classes get counting wrappers on ``__hash__`` and, for plain words,
on ``__post_init__``; those count calls without timing them.
"""

import functools
import json
import sys
import time
from array import array

LAYERS = ("words", "algebra", "instances", "enumeration", "trees", "operad", "cli")

# (module, attribute path, span name).  Several functions may share a name.
SPANS = (
    ("avalg.words", "parse_word", "words.parse_word"),
    ("avalg.words", "render_word", "words.render_word"),
    ("avalg.words", "AveragingWord.__post_init__", "words.AveragingWord"),
    ("avalg.algebra", "reduce", "algebra.reduce"),
    ("avalg.algebra", "rewrite_reduce", "algebra.rewrite_reduce"),
    ("avalg.algebra", "diamond", "algebra.diamond"),
    ("avalg.algebra", "apply_p", "algebra.apply_p"),
    ("avalg.algebra", "LinearCombination.__mul__", "algebra.lincomb_mul"),
    ("avalg.algebra", "LinearCombination.operator", "algebra.lincomb_operator"),
    ("avalg.algebra", "universal_map", "algebra.universal_map"),
    ("avalg.instances", "FiniteAlgebra.multiply", "instances.multiply"),
    ("avalg.instances", "FiniteAlgebra.operator", "instances.operator"),
    ("avalg.instances", "algebra_from_json", "instances.check"),
    ("avalg.instances", "check_averaging", "instances.check"),
    ("avalg.instances", "check_reynolds", "instances.check"),
    ("avalg.instances", "is_idempotent", "instances.check"),
    ("avalg.enumeration", "census", "enumeration.census"),
    ("avalg.enumeration", "series", "enumeration.series"),
    ("avalg.enumeration", "schroeder", "enumeration.schroeder"),
    ("avalg.trees", "phi", "trees.phi"),
    ("avalg.trees", "phi_inverse", "trees.phi_inverse"),
    ("avalg.trees", "AveragingTree.__post_init__", "trees.AveragingTree"),
    ("avalg.trees", "enumerate_schroeder", "trees.enumerate_schroeder"),
    ("avalg.operad", "compose", "operad.compose"),
    ("avalg.cli", "main", "cli.main"),
)

# (module, classes, counter) for counting wrappers on __hash__.
HASHES = (
    ("avalg.words", ("Letter", "Bracket", "BracketedWord", "AveragingWord"), "words.hash_calls"),
    ("avalg.trees", ("TLeaf", "Uni", "Bi", "AveragingTree", "SLeaf", "SNode"), "trees.hash_calls"),
)


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.counts = {"words.BracketedWord.constructed": 0, "enumeration.words_generated": 0,
                       "words.hash_calls": 0, "trees.hash_calls": 0}
        self.name_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack = []
        self.current_op = -1
        self._undo = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def begin(self, nid):
        """Open a span; returns its index for :meth:`finish`."""
        stack = self.stack
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        stack.append(idx)
        self.calls[nid] += 1
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def wrap_span(self, name, fn):
        nid = self.name_id(name)
        stack, name_of, calls = self.stack, self.name_of, self.calls
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and name_of[stack[-1]] == nid:
                calls[nid] += 1
                return fn(*args, **kwargs)
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def wrap_count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_constructed(self, fn):
        # Words built while an enumeration span is innermost count as generated.
        counts, stack, name_of = self.counts, self.stack, self.name_of
        enum_ids = {self.name_id(name) for _, _, name in SPANS if layer_of(name) == "enumeration"}

        @functools.wraps(fn)
        def counted(self_):
            counts["words.BracketedWord.constructed"] += 1
            if stack and name_of[stack[-1]] in enum_ids:
                counts["enumeration.words_generated"] += 1
            return fn(self_)

        return counted

    def install(self):
        """Wrap the layers of the already imported avalg package."""
        import avalg.cli  # noqa: F401  (imports every layer module)

        for modname, path, name in SPANS:
            owner, attr = _resolve(modname, path)
            original = getattr(owner, attr)
            wrapped = self.wrap_span(name, original)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for module in _avalg_modules():
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, alias, wrapped)
        for modname, classes, key in HASHES:
            module = sys.modules[modname]
            for cls_name in classes:
                cls = getattr(module, cls_name)
                self._set(cls, "__hash__", self.wrap_count(key, cls.__hash__))
        words_cls = sys.modules["avalg.words"].BracketedWord
        self._set(words_cls, "__post_init__", self._wrap_constructed(words_cls.__post_init__))
        return self

    def _set(self, holder, attr, value):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self):
        """Put every wrapped name back, so later calls record nothing."""
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def summary(self):
        """Per-name calls, self and total time, plus counters and root coverage."""
        n = len(self.name_of)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        covered = [0] * n
        root_ns = 0
        for i in range(n):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                covered[p] += dur
            else:
                root_ns += dur
        self_ns = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        for i in range(n):
            dur = end[i] - start[i]
            total_ns[name_of[i]] += dur
            self_ns[name_of[i]] += dur - covered[i]
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_ns": dict(zip(self.names, self_ns)),
            "total_ns": dict(zip(self.names, total_ns)),
            "counts": dict(self.counts),
            "root_ns": root_ns,
            "spans": n,
        }

    def root_durations(self, name):
        """(op, duration ns) of every outermost span with this name."""
        nid = self._ids.get(name)
        out = []
        for i in range(len(self.name_of)):
            if self.name_of[i] == nid and (
                self.parent[i] < 0 or self.name_of[self.parent[i]] != nid
            ):
                out.append((self.op[i], self.end[i] - self.start[i]))
        return out

    def dump(self, path):
        """One JSON header line, then the five int64 span arrays back to back."""
        header = {"names": self.names, "spans": len(self.name_of),
                  "arrays": ["name", "start_ns", "end_ns", "parent", "op"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.start, self.end, self.parent, self.op):
                arr.tofile(handle)


def _resolve(modname, path):
    owner = sys.modules[modname]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _avalg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "avalg" or name.startswith("avalg."))]


# ---------------------------------------------------------------------------
# Caches, found by what they expose rather than by their private names

def find_caches():
    """Every object with ``cache_info`` held by an avalg module or class."""
    found = {}
    for module in _avalg_modules():
        values = list(vars(module).values())
        values += [v for cls in values if isinstance(cls, type)
                   and cls.__module__ == module.__name__ for v in vars(cls).values()]
        for value in values:
            while value is not None and not callable(getattr(value, "cache_info", None)):
                value = getattr(value, "__wrapped__", None)
            if value is not None:
                found[id(value)] = value
    return sorted(found.values(), key=_cache_key)


def _cache_key(cache):
    return f"{cache.__module__}.{cache.__qualname__}"


def cache_state(caches):
    """{cache name: (hits, misses, entries)}."""
    return {_cache_key(c): tuple(c.cache_info()[i] for i in (0, 1, 3)) for c in caches}


def cache_layers(state):
    """Per layer: [hits, misses, entries] summed over its caches."""
    out = {layer: [0, 0, 0] for layer in LAYERS}
    for key, values in state.items():
        layer = key.split(".")[1]
        if layer in out:
            out[layer] = [a + b for a, b in zip(out[layer], values)]
    return out
