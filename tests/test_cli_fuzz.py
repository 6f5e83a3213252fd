"""Fuzz ``cli.main`` in-process across all twelve subcommands.

The inputs are texts of the word, linear-combination and tree grammars, the
same texts with one character inserted, deleted or replaced, counting
options around their edges, and instance files with a field dropped or
retyped.  Every call must exit with a documented code other than 4 (a bug),
print at most one stderr line and no traceback, and exit 2 exactly when the
library raised an ``InputError``.
"""

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from avalg import cli
from avalg._record import InputError
from avalg.instances import algebra_to_json, standard_fixtures

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)

# the exit codes of cli's docstring but 4, which only a bug gives
DOCUMENTED = {0, 1, 2, 3, 5, 6}

WORDS = st.recursive(
    st.sampled_from(["x", "y", "ab"]),
    lambda inner: st.one_of(
        st.builds("[{}]{}".format, inner, st.sampled_from(["", "^1", "^2", "^3"])),
        st.lists(inner, min_size=2, max_size=3).map(" ".join),
    ),
    max_leaves=8,
)
LINCOMBS = st.just("0") | st.lists(
    st.builds("{}{}".format, st.sampled_from(["", "2*", "-1/3*", "0*", "7/2*"]), WORDS),
    min_size=1, max_size=3,
).map(" + ".join)
TREES = st.recursive(
    st.just("L"),
    lambda inner: st.one_of(
        st.builds("U({})".format, inner),
        st.builds("B({},{})".format, inner, inner),
    ),
    max_leaves=6,
)


@st.composite
def mutated(draw, texts):
    """A text of ``texts`` with one character inserted, deleted or replaced."""
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from("xyL[]^()UB,0129 +-*/{}\":"))
    return draw(st.sampled_from([text[:i] + c + text[i:],
                                 text[:i] + text[i + 1:],
                                 text[:i] + c + text[i + 1:]]))


def fuzzed(texts):
    return texts | mutated(texts)


def run(argv):
    """(exit code, stdout, stderr, the exceptions ``_handle`` raised)."""
    raised = []
    handle = cli._handle

    def recording(args):
        try:
            return handle(args)
        except Exception as exc:
            raised.append(exc)
            raise

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_handle", recording), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), raised


def check(argv):
    code, out, err, raised = run(argv)
    assert code in DOCUMENTED, (argv, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, out, err)
    assert (code == 2) == any(isinstance(exc, InputError) for exc in raised), (argv, code, raised)


SIZES = st.integers(-1, 3).map(str)
OPERANDS = fuzzed(WORDS) | fuzzed(TREES)

TEXT_COMMANDS = st.one_of(
    st.builds(lambda w, m: ["normalize", w, "--method", m],
              fuzzed(WORDS), st.sampled_from(["eval", "rewrite"])),
    st.builds(lambda u, v: ["product", u, v], fuzzed(LINCOMBS), fuzzed(LINCOMBS)),
    st.builds(lambda w: ["apply-p", w], fuzzed(WORDS)),
    st.builds(lambda w: ["analyze", w], fuzzed(WORDS)),
    st.builds(lambda w: ["word2tree", w], fuzzed(WORDS)),
    st.builds(lambda t: ["tree2word", t], fuzzed(TREES)),
    st.builds(lambda s, i, t: ["compose", s, i, t], OPERANDS, st.integers(-1, 4).map(str), OPERANDS),
)

COUNTING_COMMANDS = st.one_of(
    st.builds(lambda cap, d, arity, fmt, listed: [
        "census", "--run-cap", cap, "--max-degree", d, *arity, "--format", fmt, *listed],
        st.sampled_from(["1", "2", "inf", "0", "x"]), SIZES,
        st.just([]) | st.builds(lambda a: ["--max-arity", a], st.integers(-1, 6).map(str)),
        st.sampled_from(["json", "csv", "text"]), st.sampled_from([[], ["--list-words"]])),
    st.builds(lambda k, n, m, fmt: ["series", "--kind", k, "--N", n, "--M", m, "--format", fmt],
              st.sampled_from("IBDCA"), st.integers(-1, 6).map(str), st.integers(-1, 6).map(str),
              st.sampled_from(["json", "csv", "text"])),
    st.builds(lambda n: ["schroeder", "--n", n], st.integers(-1, 40).map(str)),
    st.builds(lambda n: ["schroeder-trees", "--n", n], st.integers(-1, 5).map(str)),
)


class TestFuzzedCommands:
    @FUZZ
    @given(TEXT_COMMANDS)
    def test_text_commands(self, argv):
        check(argv)

    @FUZZ
    @given(COUNTING_COMMANDS)
    def test_counting_commands(self, argv):
        check(argv)


FIXTURES = [algebra_to_json(alg) for alg in standard_fixtures().values()]
JUNK = [None, True, 0, 2, -1, 1.5, "x", "1/0", "1/2", "", [], {}, [1], [[1]], [["a"]],
        [[[True]]], [[["1"], ["0"]]]]


def _retype_entry(table, junk):
    """``table`` with its first scalar entry replaced by ``junk``."""
    if not isinstance(table, list) or not table:
        return junk
    return [_retype_entry(table[0], junk), *table[1:]]


@st.composite
def instances(draw):
    data = dict(draw(st.sampled_from(FIXTURES)))
    for _ in range(draw(st.integers(1, 2))):
        field = draw(st.sampled_from(["dim", "basis", "mul", "op"]))
        junk = draw(st.sampled_from(JUNK))
        data.update(draw(st.sampled_from([
            {field: junk}, {field: _retype_entry(data.get(field), junk)}])))
        if draw(st.booleans()):
            data.pop(field)
    return json.dumps(data)


class TestFuzzedInstances:
    @FUZZ
    @given(fuzzed(instances()))
    def test_check_instance(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzzed-instance.json"
        path.write_text(text, encoding="utf-8")
        check(["check-instance", str(path)])
