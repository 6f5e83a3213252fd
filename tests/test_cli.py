import json
import subprocess
import sys

from avalg.instances import algebra_to_json, standard_fixtures


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "avalg", *args],
        capture_output=True,
        text=True,
    )
    return proc


def payload_of(proc):
    assert proc.returncode == 0, proc.stderr
    envelope = json.loads(proc.stdout)
    assert envelope["status"] == "ok"
    return envelope["payload"]


class TestGoldenOutputs:
    def test_apply_p(self):
        assert payload_of(run_cli("apply-p", "[x[y]]z")) == {"word": "[x[y[z]]]"}

    def test_schroeder(self):
        assert payload_of(run_cli("schroeder", "--n", "7")) == {"n": 7, "value": 8558}

    def test_census_degree_totals(self):
        payload = payload_of(
            run_cli("census", "--run-cap", "1", "--max-degree", "3", "--include-one")
        )
        assert payload["degree_totals"] == [2, 4, 12, 44]

    def test_normalize(self):
        assert payload_of(run_cli("normalize", "[x][x]^2")) == {"word": "[x[x]]^2"}

    def test_normalize_rewrite_method(self):
        got = payload_of(run_cli("normalize", "[[x]x]", "--method", "rewrite"))
        assert got == {"word": "[x[x]]"}
        proc = run_cli(
            "normalize", "[x][x][x]", "--method", "rewrite", "--rewrite-budget", "1"
        )
        assert proc.returncode == 3

    def test_product_words(self):
        payload = payload_of(run_cli("product", "[x[x]]^2", "[x]^3"))
        assert payload == {"terms": [{"coeff": "1", "word": "[x[x[x]]]^4"}]}

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
        a = run_cli("census", "--run-cap", "2", "--max-degree", "3", "--list-words")
        b = run_cli("census", "--run-cap", "2", "--max-degree", "3", "--list-words")
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

    def test_parse_error_word(self):
        proc = run_cli("normalize", "[x")
        assert proc.returncode == 2
        assert "position" in proc.stderr

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

    def test_census_count_mismatch_is_internal_under_O(self):
        # a word lost by the generator is caught even with asserts stripped
        script = (
            "import sys, avalg.cli as cli, avalg.enumeration as enum\n"
            "full = enum.averaging_words_v\n"
            "enum.averaging_words_v = lambda cap, n, m: full(cap, n, m)[1:]\n"
            "sys.exit(cli.main(['census', '--max-degree', '2']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 4
        assert "the series predicts 1" in proc.stderr

    def test_compose_arity_mismatch_is_internal_under_O(self):
        # a letter lost while splicing is caught even with asserts stripped
        script = (
            "import sys, avalg.cli as cli, avalg.operad as opd\n"
            "opd._splice = lambda w, index, replacement: w\n"
            "sys.exit(cli.main(['compose', 'x x', '1', 'x x']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 4, proc.stdout
        assert "composition has 2 leaves, expected 3" in proc.stderr

    def test_non_averaging_input_to_apply_p(self):
        assert run_cli("apply-p", "[x][x]").returncode == 2
