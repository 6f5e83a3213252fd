"""The package's public surface: every name resolves on first use, to the
object its layer defines, also when threads race to it."""

import importlib
import subprocess
import sys

import pytest

import avalg

PUBLIC = [
    "AveragingWord", "Bracket", "BracketedWord", "Letter", "Violation",
    "WordAnalysis", "analyze", "parse_word", "peel", "render_word",
    "validate_averaging",
    "LinearCombination", "apply_p", "diamond", "parse_lincomb", "reduce",
    "rewrite_reduce", "universal_map",
    "census", "closed_form", "collapse_runs", "compositions", "expand_runs",
    "reduce_to_v1", "schroeder", "series", "univariate",
    "FiniteAlgebra", "build_instance", "check_averaging", "check_reynolds",
    "AveragingTree", "enumerate_schroeder", "is_averaging_tree", "phi",
    "phi_inverse", "psi", "psi_inverse",
    "OperadElement", "compose", "tree_apply", "tree_product",
]

LAYERS = ["words", "algebra", "enumeration", "instances", "trees", "operad"]


def test_all_lists_the_public_names():
    assert avalg.__all__ == PUBLIC


def test_every_name_resolves_to_its_layers_object():
    layers = [getattr(avalg, layer) for layer in LAYERS]
    assert [m.__name__ for m in layers] == [f"avalg.{layer}" for layer in LAYERS]
    for name in PUBLIC:
        value = getattr(avalg, name)
        assert any(getattr(m, name, None) is value for m in layers), name


def test_every_layer_name_is_one_object_wherever_it_is_read():
    # a layer reads the names of its _HOME table from the module that
    # defines them; every other name is the layer's own
    for layer in LAYERS:
        module = getattr(avalg, layer)
        homes = getattr(module, "_HOME", {})
        assert set(homes) <= set(dir(module)), layer
        for name in {*module.__all__, *avalg._LAYERS[layer]}:
            home = importlib.import_module(f"avalg.{homes.get(name, layer)}")
            value = vars(home)[name]
            assert getattr(module, name) is value, (layer, name)
            if name in avalg._HOME:
                assert getattr(avalg, name) is value, name


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(avalg, "no_such_name")
    with pytest.raises(AttributeError, match="'avalg.words' has no attribute 'no_such_name'"):
        getattr(avalg.words, "no_such_name")


def test_dir_and_star_import_cover_the_surface():
    assert set(PUBLIC + LAYERS) <= set(dir(avalg))
    namespace = {}
    exec("from avalg import *", namespace)
    assert set(PUBLIC) <= namespace.keys()
    assert all(namespace[name] is getattr(avalg, name) for name in PUBLIC)


_RACE = """
import sys, threading
import avalg
assert not [name for name in sys.modules if name.startswith("avalg.")], "import avalg ran a layer"
names = avalg.__all__ + %r
barrier = threading.Barrier(8)
results, errors = [None] * 8, []

def resolve(k):
    # each thread starts at a different name, so several layers load at once
    order = names[k * len(names) // 8:] + names[:k * len(names) // 8]
    barrier.wait()
    try:
        results[k] = {name: getattr(avalg, name) for name in order}
    except BaseException as exc:
        errors.append(repr(exc))

sys.setswitchinterval(1e-6)  # switch threads often, inside the imports too
threads = [threading.Thread(target=resolve, args=(k,)) for k in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads), "a thread hung"
print(errors or all(results[k][name] is results[0][name] for k in range(8) for name in names))
""" % (LAYERS,)


def test_threads_racing_to_the_names_get_one_object_each():
    proc = subprocess.run([sys.executable, "-c", _RACE], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_no_layer_loads_dataclasses_or_inspect():
    # both cost every CLI process start-up time; the layers are imported
    # before avalg.cli, which only registers those not yet loaded
    code = ("import sys\n"
            f"import {', '.join(f'avalg.{layer}' for layer in LAYERS)}, avalg.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
