import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from avalg import _grammar, algebra, cli, enumeration, instances, trees, words
from avalg._record import InputError
from avalg.instances import algebra_to_json, standard_fixtures
from avalg.words import render_word


def run_cli(*args):
    """Run ``cli.main`` in-process on ``args``; the result reads like a
    finished process (``returncode``, ``stdout``, ``stderr``)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


def spawn_cli(*args):
    """Run ``python -m avalg`` on ``args`` in a fresh process."""
    return subprocess.run(
        [sys.executable, "-m", "avalg", *args],
        capture_output=True,
        text=True,
    )


@contextlib.contextmanager
def int_digits_limit(digits):
    """The interpreter's int-to-text limit set to ``digits`` (0: none)."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def sum_of_letters(stem, count):
    """The formal sum of ``count`` distinct letters ``stem0``, ``stem1``, ..."""
    return " + ".join(f"{stem}{i}" for i in range(count))


def payload_of(proc):
    assert proc.returncode == 0, proc.stderr
    envelope = json.loads(proc.stdout)
    assert envelope["status"] == "ok"
    return envelope["payload"]


class TestGoldenOutputs:
    def test_census_degree_totals(self):
        payload = payload_of(
            run_cli("census", "--run-cap", "1", "--max-degree", "3", "--include-one")
        )
        assert payload["degree_totals"] == [2, 4, 12, 44]

    def test_normalize_rewrite_method(self):
        got = payload_of(run_cli("normalize", "[[x]x]", "--method", "rewrite"))
        assert got == {"word": "[x[x]]"}
        proc = run_cli(
            "normalize", "[x][x][x]", "--method", "rewrite", "--rewrite-budget", "1"
        )
        assert proc.returncode == 3

    def test_normalize_rewrite_deep_word(self):
        # the default step budget is computed without recursion
        proc = run_cli("normalize", "[x" * 600 + "[x][x]" + "]" * 600, "--method", "rewrite")
        assert payload_of(proc) == {"word": "[x" * 602 + "]" * 602}

    def test_product_words(self):
        payload = payload_of(run_cli("product", "[x[x]]^2", "[x]^3"))
        assert payload == {"terms": [{"coeff": "1", "word": "[x[x[x]]]^4"}]}

    def test_product_with_zero(self):
        assert payload_of(run_cli("product", "0", "x")) == {"terms": []}

    def test_product_lincombs(self):
        payload = payload_of(run_cli("product", "2*x + [x]", "1/2*x"))
        assert payload == {
            "terms": [
                {"coeff": "1", "word": "x x"},
                {"coeff": "1/2", "word": "[x]x"},
            ]
        }

    def test_analyze(self):
        payload = payload_of(run_cli("analyze", "x[y[x]]x y[y]"))
        assert payload["depth"] == 2
        assert payload["breadth"] == 5
        assert payload["head"] == 0
        assert payload["tail"] == 1
        assert payload["blocks"] == ["x", "[y[x]]", "x y", "[y]"]

    def test_series(self):
        payload = payload_of(run_cli("series", "--kind", "I", "--N", "2", "--M", "3"))
        assert [1, 1, 1] == [c for _, _, c in payload["cells"]]
        assert payload["cells"] == [[1, 1, 1], [2, 2, 1], [2, 3, 1]]

    def test_word2tree_tree2word(self):
        payload = payload_of(run_cli("word2tree", "x[x]"))
        assert payload == {"tree": "B(L,U(L))", "word": "x[x]"}
        payload = payload_of(run_cli("tree2word", "B(L,U(L))"))
        assert payload["word"] == "x[x]"

    def test_schroeder_trees(self):
        payload = payload_of(run_cli("schroeder-trees", "--n", "2"))
        assert payload["count"] == 2
        assert sorted(payload["trees"]) == ["w(i,o)", "w(i,o,i)"]

    def test_schroeder_trees_budget(self, monkeypatch):
        # s_12 = 27,297,738 trees is past the default budget; the count is
        # settled from the s_k before any tree is built
        listed = run_cli("schroeder-trees", "--n", "8")
        assert hashlib.sha256(listed.stdout.encode()).hexdigest() == (
            "d48ceb83229d5f25ceabf7da64d0d55e29c56742972c77f7ba5ff261543927ef")
        monkeypatch.setattr(trees, "enumerate_schroeder", None)
        for n in ("13", "1000000"):
            proc = run_cli("schroeder-trees", "--n", n)
            assert (proc.returncode, proc.stdout) == (3, "")
            assert proc.stderr == ("budget exceeded: schroeder-trees would list at least"
                                   " 27297738 trees (budget 10000000)\n")

    def test_compose_trees_and_words(self):
        payload = payload_of(run_cli("compose", "B(L,L)", "2", "U(L)"))
        assert payload == {"tree": "B(L,U(L))", "word": "x[x]"}
        payload = payload_of(run_cli("compose", "[x]x", "2", "[x]"))
        assert payload == {"tree": "U(B(L,U(L)))", "word": "[x[x]]"}

    def test_check_instance(self, tmp_path):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(algebra_to_json(standard_fixtures()["group_algebra_z2"])))
        payload = payload_of(run_cli("check-instance", str(path)))
        assert payload["averaging"]["ok"] is True
        assert payload["reynolds"]["ok"] is False
        assert payload["reynolds"]["counterexample"] is not None

    def test_check_instance_counterexample(self, tmp_path):
        bad = {
            "dim": 2,
            "basis": ["1", "y"],
            "mul": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]],
            "op": [["0", "1"], ["1", "0"]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        payload = payload_of(run_cli("check-instance", str(path)))
        assert payload["averaging"]["ok"] is False
        assert payload["averaging"]["counterexample"] == [0, 0]


class TestFormatsAndDeterminism:
    def test_csv_format(self):
        proc = run_cli(
            "census", "--run-cap", "1", "--max-degree", "2", "--format", "csv"
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "n,m,count"
        assert "1,1,1" in lines

    def test_text_format(self):
        proc = run_cli("series", "--kind", "A", "--N", "1", "--M", "3", "--format", "text")
        assert proc.returncode == 0
        assert "1\t1\t1" in proc.stdout

    def test_runs_are_deterministic(self):
        # two processes, so two hash seeds
        a = spawn_cli("census", "--run-cap", "2", "--max-degree", "3", "--list-words")
        b = spawn_cli("census", "--run-cap", "2", "--max-degree", "3", "--list-words")
        assert a.stdout == b.stdout

    def test_infinite_cap_requires_arity(self):
        proc = run_cli("census", "--run-cap", "inf", "--max-degree", "2")
        assert proc.returncode == 1
        proc = run_cli(
            "census", "--run-cap", "inf", "--max-degree", "2", "--max-arity", "6"
        )
        assert proc.returncode == 0


class TestExitCodes:
    def test_usage_error(self):
        assert run_cli("schroeder").returncode == 1
        assert run_cli("bogus-command").returncode == 1
        assert run_cli("schroeder", "--n", "-1").returncode == 1

    def test_run_cap_that_is_not_a_number(self):
        proc = run_cli("census", "--run-cap", "x")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "usage error: --run-cap must be a positive integer or 'inf', got 'x'\n"

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_list_words_needs_json(self, fmt):
        proc = run_cli("census", "--run-cap", "2", "--max-degree", "1",
                       "--format", fmt, "--list-words")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "usage error: --list-words needs --format json\n"

    @pytest.mark.parametrize("argv,flag", [
        (("census", "--max-degree", "-1"), "--max-degree"),
        (("census", "--max-degree", "2", "--max-arity", "-3"), "--max-arity"),
        (("series", "--kind", "I", "--N", "-1", "--M", "3"), "--N"),
        (("series", "--kind", "A", "--N", "2", "--M", "-1"), "--M"),
        (("census", "--max-degree", "2", "--budget", "-1"), "--budget"),
        (("normalize", "[x][x]", "--method", "rewrite", "--rewrite-budget", "-5"),
         "--rewrite-budget"),
    ])
    def test_negative_table_sizes_are_usage_errors(self, argv, flag):
        proc = run_cli(*argv)
        assert proc.returncode == 1
        assert proc.stderr == f"usage error: {flag} must be nonnegative\n"

    def test_parse_error_word(self):
        proc = run_cli("normalize", "[x")
        assert proc.returncode == 2
        assert "position" in proc.stderr

    @pytest.mark.parametrize("text, sign", [("x +", "+"), ("x -", "-"), ("2*x - ", "-")])
    def test_dangling_sign_in_a_combination(self, text, sign):
        proc = run_cli("product", text, "x")
        assert proc.returncode == 2
        assert proc.stderr == f"input error: dangling '{sign}'\n"

    def test_parse_error_tree(self):
        assert run_cli("tree2word", "B(L").returncode == 2

    def test_parse_error_instance_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("check-instance", str(path)).returncode == 2

    def test_budget_exceeded(self):
        proc = run_cli(
            "census", "--run-cap", "1", "--max-degree", "6", "--budget", "10"
        )
        assert proc.returncode == 3

    @pytest.mark.parametrize("argv", [
        ("word2tree", "[x]^100000000"),
        ("compose", "[x]^100000000", "1", "x"),
        ("compose", "x", "1", "x[x[x]^99999999]"),
    ])
    def test_tree_past_the_budget_exits_before_building(self, argv):
        # one uni-vertex per bracket layer: 10^8 layers pass the 10^7 budget
        start = time.perf_counter()
        proc = run_cli(*argv)
        assert time.perf_counter() - start < 0.3
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == (
            "budget exceeded: the tree would have 100000000 uni-vertices (budget 10000000)\n")

    def test_counting_refusals_come_before_the_work(self, monkeypatch):
        # a series box past SERIES_BUDGET cells, and an s_n whose digits may
        # pass the int-to-text limit, are refused without counting anything
        monkeypatch.setattr(enumeration, "series", None)
        monkeypatch.setattr(enumeration, "schroeder", None)
        with int_digits_limit(4300):
            for argv, message in (
                (("series", "--kind", "I", "--N", "99999", "--M", "1"),
                 "series would compute 200000 cells (budget 100000)"),
                (("schroeder", "--n", "5617"),
                 "s_5617 would print up to 4301 digits (int-to-text limit 4300)"),
            ):
                proc = run_cli(*argv)
                assert (proc.returncode, proc.stdout) == (3, "")
                assert proc.stderr == f"budget exceeded: {message}\n"
        with int_digits_limit(640):
            proc = run_cli("schroeder", "--n", "1000")
            assert proc.stderr == ("budget exceeded: s_1000 would print up to 766 digits"
                                   " (int-to-text limit 640)\n")
        monkeypatch.undo()
        # the largest requests admitted: the box at the budget, and the last
        # s_n whose digit bound fits the limit (s_5616 has 4294 digits)
        cells = payload_of(run_cli("series", "--kind", "I", "--N", "0", "--M", "99999"))["cells"]
        assert cells == [] and cli.SERIES_BUDGET == 100_000
        with int_digits_limit(4300):
            assert len(str(payload_of(run_cli("schroeder", "--n", "5616"))["value"])) == 4294
        with int_digits_limit(0):  # no limit
            assert payload_of(run_cli("schroeder", "--n", "6000"))["value"] == (
                enumeration.schroeder(6000))

    def test_a_product_one_pair_below_its_budget_runs(self):
        # 9 x 11,111 distinct letters: 99,999 pairs, each a distinct term
        assert cli.PRODUCT_BUDGET == 100_000
        proc = run_cli("product", sum_of_letters("y", 9), sum_of_letters("x", 11_111))
        assert len(payload_of(proc)["terms"]) == 99_999

    def test_a_product_one_pair_past_its_budget_exits_3_before_multiplying(self, monkeypatch):
        # 11 x 9,091 letters: 100,001 pairs; no product is taken
        monkeypatch.setattr(algebra.LinearCombination, "__mul__", None)
        proc = run_cli("product", sum_of_letters("y", 11), sum_of_letters("x", 9_091))
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ("budget exceeded: product would multiply 100001 pairs of terms"
                               " (budget 100000)\n")

    def test_schroeder_past_the_digit_limit_exits_3_as_a_process(self):
        proc = subprocess.run([sys.executable, "-m", "avalg", "schroeder", "--n", "1000"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONINTMAXSTRDIGITS="640"))
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ("budget exceeded: s_1000 would print up to 766 digits"
                               " (int-to-text limit 640)\n")

    @pytest.mark.parametrize("argv, message", [
        (("normalize", "[[x]^N]^N"), "a bracket power has more digits than"),
        (("apply-p", "[x]^N"), "a bracket power has more digits than"),
        (("analyze", "[[x]^N]^N"), "a bracket power has more digits than"),
        # every power prints; the depth, N + N, does not
        (("analyze", "[[x]^N x]^N"), "the output holds an integer with more digits than"),
        # the coefficient N * N of the product
        (("product", "N*x", "N*x"), "a coefficient has more digits than"),
    ], ids=["normalize", "apply-p", "analyze", "analyze-depth", "product"])
    def test_a_result_too_long_to_print_is_a_budget(self, argv, message):
        # N has 4300 digits, so the input parses; only the result has a power
        # (N + N or N + 1), an index or a coefficient past the limit
        with int_digits_limit(4300):
            proc = run_cli(*[a.replace("N", "9" * 4300) for a in argv])
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"budget exceeded: {message} the int-to-text limit of 4300\n"

    def test_an_exponent_past_the_limit_is_refused_before_it_is_built(self, tmp_path):
        # Fraction builds 10**3000000 in full, which took 1.4 s; the digits
        # are bounded first, for a coefficient and for an instance entry;
        # 123e-4302 is built, and its denominator, 10**4302, is past the limit
        path = tmp_path / "instance.json"
        message = "more digits than the int-to-text limit of 4300\n"
        start = time.perf_counter()
        with int_digits_limit(4300):
            products = [run_cli("product", f"1e{sign}3000000*x", "x") for sign in ("", "-")]
            zero = run_cli("product", "0e3000000*x", "x")
            checked = []
            for entry in ("1e3000000", "1e-3000000", "123e-4302"):
                path.write_text(json.dumps({"basis": ["1"], "mul": [[[entry]]], "op": [["1"]]}))
                checked.append(run_cli("check-instance", str(path)))
        assert time.perf_counter() - start < 1
        for product in products:
            assert (product.returncode, product.stdout) == (3, "")
            assert product.stderr == f"budget exceeded: a coefficient has {message}"
        assert payload_of(zero) == {"terms": []}
        for proc in checked:
            assert (proc.returncode, proc.stdout) == (3, "")
            assert proc.stderr == f"budget exceeded: an entry has {message}"

    @pytest.mark.parametrize("text, terms", [
        ("1.5e-2*x", [("3/200", "x x")]),
        ("2e+3*x", [("2000", "x x")]),
        ("x - 1e-1*[x]", [("1", "x x"), ("-1/10", "[x]x")]),
        ("x-y", [("1", "x x"), ("-1", "y x")]),
        ("[x]-x", [("-1", "x x"), ("1", "[x]x")]),
    ])
    def test_a_sign_splits_terms_but_not_an_exponent(self, text, terms):
        # the sign after a coefficient's e or E belongs to its exponent
        assert payload_of(run_cli("product", text, "x")) == {
            "terms": [{"coeff": c, "word": w} for c, w in terms]}

    def test_an_exponent_within_the_limit_reads_as_before(self, tmp_path):
        assert payload_of(run_cli("product", "2e3*x", "x")) == {
            "terms": [{"coeff": "2000", "word": "x x"}]}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"basis": ["1"], "mul": [[["1e0"]]], "op": [["10e-1"]]}))
        assert payload_of(run_cli("check-instance", str(path)))["averaging"]["ok"] is True

    @pytest.mark.parametrize("error, code, line", [
        (OSError(28, "No space left on device"), 5,
         "resource exhausted: [Errno 28] No space left on device\n"),
        (RuntimeError("bug"), 4, "internal error: RuntimeError: bug\n"),
    ], ids=["OSError", "RuntimeError"])
    def test_a_failed_write_is_one_line(self, monkeypatch, capsys, error, code, line):
        class Failing(io.StringIO):
            def write(self, text):
                raise error

        monkeypatch.setattr(sys, "stdout", Failing())
        assert cli.main(["schroeder", "--n", "3"]) == code
        if getattr(sys.stdout, "name", None) == os.devnull:
            sys.stdout.close()
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("error", [ValueError, KeyError, IndexError])
    def test_a_library_bug_is_internal_not_input(self, monkeypatch, error):
        # a builtin error raised by a bug is no input error, whatever its type
        def broken(*args):
            raise error("bug")

        monkeypatch.setattr(algebra, "_merge", broken)
        proc = run_cli("normalize", "[x][x]")
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == f"internal error: {error.__name__}: {error('bug')}\n"

    def test_an_os_error_past_the_instance_file_is_a_resource(self, monkeypatch, capsys):
        def broken(n):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(enumeration, "schroeder", broken)
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert cli.main(["schroeder", "--n", "3"]) == cli.EXIT_RESOURCE == 5
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
        assert capsys.readouterr().err == "resource exhausted: [Errno 5] Input/output error\n"

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_an_unreadable_instance_file_is_an_input_error(self, tmp_path, name):
        with pytest.raises(InputError):
            instances.load_algebra(tmp_path / name)
        proc = run_cli("check-instance", str(tmp_path / name))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("input error: [Errno ")

    def test_census_count_mismatch_is_internal_under_O(self):
        # a word lost by the generator is caught even with asserts stripped
        script = (
            "import itertools, sys, avalg.cli as cli, avalg._grammar as grammar\n"
            "walk = grammar._cell_factors\n"
            "grammar._cell_factors = lambda cap, n, m: itertools.islice(walk(cap, n, m), 1, None)\n"
            "sys.exit(cli.main(['census', '--max-degree', '2']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 4
        assert "the series predicts 1" in proc.stderr

    def test_compose_arity_mismatch_is_internal_under_O(self):
        # a graft that loses the inner tree is caught even with asserts stripped
        script = (
            "import sys, avalg.cli as cli, avalg.operad as opd\n"
            "opd._graft = lambda tree, index, sigma: tree\n"
            "sys.exit(cli.main(['compose', 'x x', '1', 'x x']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 4, proc.stdout
        assert "composition has 2 leaves, expected 3" in proc.stderr

    def test_non_averaging_input_to_apply_p(self):
        assert run_cli("apply-p", "[x][x]").returncode == 2

    def test_diamond_head_tail_check_is_internal_under_O(self):
        # a product that loses its right factor is caught with asserts stripped
        script = (
            "import sys, avalg.cli as cli, avalg.algebra as alg\n"
            "alg._diamond = lambda u, v: u\n"
            "sys.exit(cli.main(['product', 'x', '[x]']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 4, proc.stdout
        assert "diamond changed the head or tail index" in proc.stderr

    def test_deep_nesting_is_resource_exhaustion(self, tmp_path):
        # 1200 nested brackets parse without recursion and are one bracket power
        proc = run_cli("normalize", "[" * 1200 + "x" + "]" * 1200)
        assert payload_of(proc) == {"word": "[x]^1200"}
        # evaluation keeps an explicit stack too
        deep = "[x" * 1200 + "]" * 1200
        assert payload_of(run_cli("normalize", deep)) == {"word": deep}
        # the stdlib JSON decoder still recurses once per level of its input
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        proc = run_cli("check-instance", str(path))
        assert proc.returncode == 5
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("resource exhausted: ")
        assert "Traceback" not in proc.stderr

    def test_deep_input_in_a_fresh_process(self):
        # the entry point at the interpreter's own recursion limit
        proc = spawn_cli("normalize", "[x]" + "[x" * 1200 + "]" * 1200)
        assert payload_of(proc) == {"word": "[x" * 1201 + "]" * 1201}

    def test_product_at_any_depth(self):
        # terms are collected by their canonical key, so no word is hashed
        deep = "[x" * 1200 + "]" * 1200
        proc = run_cli("product", deep, "x")
        assert payload_of(proc) == {"terms": [{"coeff": "1", "word": deep + "x"}]}

    def test_analyze_at_any_depth(self):
        deep = "[x" * 1200 + "]" * 1200
        payload = payload_of(run_cli("analyze", deep))
        assert (payload["depth"], payload["blocks"]) == (1200, [deep])

    def test_apply_p_on_deep_nesting(self):
        proc = run_cli("apply-p", "[" * 1200 + "x" + "]" * 1200)
        assert payload_of(proc) == {"word": "[x]^1201"}

    def test_long_merge_chain_normalizes(self):
        # the normal form is 5000 brackets deep; evaluation and rendering
        # must not recurse per level of it
        proc = run_cli("normalize", "[x]" * 5000)
        assert payload_of(proc) == {"word": "[x" * 5000 + "]" * 5000}

    def test_deep_words_and_trees_convert_and_compose(self):
        # phi, phi_inverse and compose keep explicit stacks
        deep = "[x" * 1200 + "]" * 1200
        ladder = "U(B(L," * 1199 + "U(L)" + "))" * 1199
        proc = run_cli("word2tree", deep)
        assert payload_of(proc) == {"tree": ladder, "word": deep}
        proc = run_cli("compose", deep, "1", "x")
        assert payload_of(proc) == {"tree": ladder, "word": deep}
        proc = run_cli("compose", deep, "1200", "[x]x")
        assert payload_of(proc)["word"] == "[x" * 1201 + "]" * 1201
        tree = "U(B(L," * 1200 + "L" + "))" * 1200
        proc = run_cli("tree2word", tree)
        assert payload_of(proc) == {"word": "[x" * 1200 + " x" + "]" * 1200, "tree": tree}

    @pytest.mark.parametrize("text", ["null", "[1]", '{"dim": 2, "basis": 5}',
                                      '{"basis": ["1"], "mul": [[1]], "op": [[1]]}',
                                      '{"basis": ["1"], "mul": [[[0.5]]], "op": [[1]]}',
                                      '{"basis": ["1"], "mul": [[["1/0"]]], "op": [["1"]]}',
                                      '{"basis": ["1"], "mul": [[["1"]]], "op": [["1/0"]]}',
                                      '{"basis": ["1"], "mul": [[[false]]], "op": [[true]]}',
                                      '{"dim": true, "basis": ["1"], "mul": [[["1"]]], "op": [["1"]]}',
                                      None])  # None: the path is a directory
    def test_malformed_instance_is_an_input_error(self, tmp_path, text):
        path = tmp_path
        if text is not None:
            path = tmp_path / "instance.json"
            path.write_text(text)
        proc = run_cli("check-instance", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error: ") and len(proc.stderr.splitlines()) == 1

    def test_unexpected_exception_is_internal(self, monkeypatch, capsys):
        def broken(v):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(trees, "_phi", broken)
        assert cli.main(["word2tree", "x"]) == cli.EXIT_INTERNAL == 4
        out, err = capsys.readouterr()
        assert out == "" and err == "internal error: TypeError: unsupported operand\n"

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_closed_stdout_exits_quietly(self, monkeypatch, capsys, fmt):
        # a reader that stops early (``| head -c 100``) breaks the pipe
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = cli.main(["census", "--max-degree", "3", "--format", fmt])
        redirected = sys.stdout
        redirected.close()
        assert code == cli.EXIT_PIPE == 6
        assert redirected.name == os.devnull
        assert capsys.readouterr().err == ""

    def test_listed_census_words_are_rendered_once(self, monkeypatch, capsys):
        calls = []

        def counted(w):
            calls.append(w)
            return render_word(w)

        # the CLI calls words.render_word, so the two modules that hold the
        # name cover every call
        for module in (_grammar, words):
            monkeypatch.setattr(module, "render_word", counted)
        assert cli.main(["census", "--max-degree", "4", "--list-words"]) == 0
        listed = json.loads(capsys.readouterr().out)["payload"]["words"]
        assert len(calls) == sum(len(ws) for ws in listed.values()) == 241

    def test_long_word_and_deep_ladder_round_trip(self):
        # the tree renderer is iterative, so trees 2400 bi-vertices or 1200
        # uni-vertices deep echo back
        tree = "L"
        for k in range(1, 2400):
            tree = f"B({tree},{'U(L)' if k % 2 else 'L'})"
        proc = run_cli("word2tree", "x[x]" * 1200)
        assert payload_of(proc) == {"tree": tree, "word": "x[x]" * 1200}
        ladder = "U(" * 1200 + "L" + ")" * 1200
        proc = run_cli("tree2word", ladder)
        assert payload_of(proc) == {"word": "[x]^1200", "tree": ladder}


# Runs cli.main in a fresh interpreter and prints the exit code, then the
# avalg modules whose code ran, the layers first, then "fractions" if it was
# imported.  type() reads a lazily registered module's class without
# triggering its load, and a loaded one is a plain ModuleType.
_LOADED_LAYERS = """
import contextlib, io, sys, types
from avalg import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted((name.split(".")[1] for name, module in sys.modules.items()
                     if name.startswith("avalg.") and name != "avalg.cli"
                     and type(module) is types.ModuleType), key=lambda m: (m[0] == "_", m)),
      *{"fractions"} & set(sys.modules))
"""

_INSTANCE = '{"dim": 1, "basis": ["1"], "mul": [[["1"]]], "op": [["1"]]}'


class TestLoadedLayers:
    # The lists are exact: normalize, compose, word2tree and schroeder load
    # no fractions, and schroeder and series no words.
    @pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
    @pytest.mark.parametrize("argv, code, layers", [
        (["schroeder", "--n", "7"], 0, "enumeration"),
        (["series", "--kind", "I", "--N", "3", "--M", "7"], 0, "enumeration"),
        (["census", "--max-degree", "2"], 0, "enumeration words _engine _grammar"),
        (["normalize", "[x][x]^2"], 0, "algebra words"),
        (["normalize", "[x"], 2, "words"),
        (["product", "x", "[x]"], 0, "algebra words _lincomb fractions"),
        (["check-instance", "INSTANCE"], 0, "instances fractions"),
        (["word2tree", "x[x]"], 0, "trees words"),
        (["tree2word", "B(L,U(L))"], 0, "trees words"),
        (["schroeder-trees", "--n", "3"], 0, "enumeration trees words _engine _families"),
        (["compose", "B(L,L)", "2", "U(L)"], 0, "algebra operad trees words"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_a_subcommand_runs_only_the_layers_it_uses(self, tmp_path, flags, argv, code, layers):
        path = tmp_path / "instance.json"
        path.write_text(_INSTANCE)
        argv = [str(path) if a == "INSTANCE" else a for a in argv]
        proc = subprocess.run([sys.executable, *flags, "-c", _LOADED_LAYERS, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        # every layer loads the value classes' base module, avalg._record
        loaded.remove("_record")
        assert loaded == [str(code), *layers.split()]

    def test_list_words_without_json_fails_before_any_layer_runs(self):
        argv = ["census", "--max-degree", "1", "--list-words", "--format", "text"]
        proc = subprocess.run([sys.executable, "-c", _LOADED_LAYERS, *argv],
                              capture_output=True, text=True)
        assert proc.stdout.split() == ["1"], proc.stderr


class TestProgramEntry:
    # main leaves the collector alone: its state is the whole process's
    @pytest.mark.parametrize("argv, code", [
        (["schroeder", "--n", "3"], 0),
        (["schroeder", "--n"], 1),
        (["normalize", "[x"], 2),
    ], ids=["ok", "usage", "input"])
    def test_main_leaves_the_collector_as_it_was(self, argv, code):
        before = gc.isenabled(), gc.get_freeze_count()
        assert run_cli(*argv).returncode == code
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_both_module_entries_print_the_same(self):
        procs = [subprocess.run([sys.executable, "-m", module, "schroeder", "--n", "3"],
                                capture_output=True, text=True)
                 for module in ("avalg", "avalg.cli")]
        expected = run_cli("schroeder", "--n", "3")
        for proc in procs:
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.stdout, "")

    def test_the_entry_freezes_the_collector_before_the_exit_handlers_run(self):
        code = ("import atexit, gc, sys\n"
                "from avalg import cli\n"
                "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0,"
                " file=sys.stderr))\n"
                "cli.run()\n")
        proc = subprocess.run([sys.executable, "-c", code, "normalize", "[x"],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("input error: ")
        assert proc.stderr.endswith("\nfrozen True\n")

    def test_a_pipe_closed_before_the_write_exits_6_quietly(self):
        # the sink main puts in place of stdout is what the exit flushes
        proc = subprocess.Popen([sys.executable, "-m", "avalg", "schroeder-trees", "--n", "6"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (6, b"")
