"""Package surface: every exported name resolves, and the runtime needs no scipy."""

import ast
import contextlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import viterbipar


@pytest.mark.parametrize("module", [
    "viterbipar",
    "viterbipar.core",
    "viterbipar.objective",
    "viterbipar.solver",
    "viterbipar.parallel",
    "viterbipar.certificates",
    "viterbipar.oracles",
    "viterbipar.io",
    "viterbipar.models",
    "viterbipar.models.signals",
    "viterbipar.models.likelihoods",
    "viterbipar.models.spec",
])
def test_all_names_resolve(module):
    # ``from module import *`` fails on a listed name the module lacks
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: this one has scipy loaded by the test references
    src = str(Path(viterbipar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, viterbipar.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_unused_imports():
    # no linter is a test dependency: a name bound by an import must be read
    # in its module, or be listed in its ``__all__``
    unused = []
    for path in sorted(Path(viterbipar.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
                    for elt in node.value.elts}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items()
                   if name not in read and name not in exported]
    assert unused == []


def test_library_has_every_name_the_benchmark_reads():
    # bench/ is run as committed against each version of the library, so a
    # name it reads must not go: module attributes through its import
    # aliases, ``from viterbipar... import`` names, and the family methods
    # that ``traced_model`` wraps in spans
    from viterbipar.models import likelihoods, signals

    bench = Path(__file__).resolve().parents[1] / "bench"
    missing, aliases, wrapped = [], set(), set()

    def check(owner, name):
        if not hasattr(owner, name):
            missing.append(f"{owner.__name__}.{name}")
        return getattr(owner, name, None)

    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # this file's names for viterbipar modules
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "viterbipar":
                        module = importlib.import_module(alias.name)
                        # ``import a.b`` binds a, ``import a.b as c`` binds a.b
                        modules[alias.asname or "viterbipar"] = module if alias.asname else viterbipar
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "viterbipar":
                for alias in node.names:
                    with contextlib.suppress(ImportError):  # a submodule is bound once imported
                        importlib.import_module(f"{node.module}.{alias.name}")
                    value = check(importlib.import_module(node.module), alias.name)
                    if isinstance(value, type(viterbipar)):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                check(modules[node.value.id], node.attr)
            elif isinstance(node, ast.FunctionDef) and node.name == "traced_model":
                wrapped |= {(call.args[1].value.id, call.args[1].attr) for call in ast.walk(node)
                            if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "wrap"}
        aliases |= set(modules)
    families = {"sig": (signals.LinearGaussianSignal, signals.HuberNonlinearSignal),
                "lik": tuple(getattr(likelihoods, name) for name in likelihoods.__all__
                             if isinstance(getattr(likelihoods, name), type))}
    for var, method in wrapped:
        for cls in families[var]:
            check(cls, method)
    assert {"vp", "vio"} <= aliases and len(wrapped) == 4
    assert missing == []
