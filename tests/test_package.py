"""Package surface: every exported name resolves and has a caller, the
benchmark's names and keywords exist, the README's example runs, and the
runtime needs no scipy."""

import ast
import contextlib
import importlib
import inspect
import math
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


def _names_read(tree) -> set:
    """Names a module reads, as a bare name or an attribute, outside the
    def or class that defines them. Import and ``__all__`` lists hold no
    such node, so they do not count."""
    found = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        elif isinstance(node, ast.Name) and node.id not in own:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in own:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, frozenset())
    return found


def test_every_exported_name_has_a_caller():
    # a name in a module's ``__all__`` is read somewhere in src/ outside its
    # own def or class, or is read or imported by bench/; a name that only
    # tests call belongs in the tests
    package = Path(viterbipar.__file__).parent
    bench = package.parents[1] / "bench"
    exported, read = {}, set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                for elt in node.value.elts:
                    exported.setdefault(elt.value, []).append(str(path.relative_to(package)))
        read |= _names_read(tree)
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= _names_read(tree)
        read |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    assert len(exported) > 40
    assert sorted(f"{name} ({', '.join(modules)})" for name, modules in exported.items()
                  if name not in read) == []


def test_transition_kernels_are_written_once():
    # both signal families run the one chain kernel; a family supplies only
    # its noise law, so a second definition of a kernel is a second copy
    tree = ast.parse((Path(viterbipar.__file__).parent / "models" / "signals.py").read_text())
    defined = [node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert {name: defined.count(name) for name in ("residuals", "log_f_sum", "grad_log_transitions")} == {
        "residuals": 1, "log_f_sum": 1, "grad_log_transitions": 1}


def test_one_diagonal_or_matmul_choice():
    # LinearDrift alone picks between a diagonal factor and a matmul, for
    # the drift and every Gaussian kernel; a second caller of its helpers,
    # or a reader of its factor, would be a second place that makes that
    # choice
    helpers = {"_is_diagonal", "_diag_factor"}
    found = []

    def visit(node, path, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif owner != "LinearDrift" and (
                isinstance(node, ast.Call) and getattr(node.func, "id", None) in helpers
                or isinstance(node, ast.Attribute) and node.attr == "_f"):
            found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted(Path(viterbipar.__file__).parent.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    assert found == []


def test_one_descent_loop():
    # a second loop that steps on gradients would be a second solver to keep
    # in step with _descend's stopping rule, counts and divergence checks;
    # estimate_grad_lipschitz's power iteration only probes gradient
    # differences around one fixed point
    looping = []
    for path in sorted(Path(viterbipar.__file__).parent.rglob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loops = [node for node in ast.walk(func)
                     if isinstance(node, (ast.For, ast.While, ast.ListComp, ast.SetComp,
                                          ast.DictComp, ast.GeneratorExp))]
            calls = [call for loop in loops for call in ast.walk(loop)
                     if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                     and call.func.attr == "grad"]
            if calls:
                looping.append(f"{path.name}:{func.name}")
    assert looping == ["solver.py:_descend", "solver.py:estimate_grad_lipschitz"]


def test_no_value_call_in_a_solver_loop():
    # the step rules read gradients only; a value call inside a loop would
    # bring back a line search's test, and the one value call is the
    # returned point's
    tree = ast.parse((Path(viterbipar.__file__).parent / "solver.py").read_text())

    def value_calls(node):
        return [call.lineno for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute) and call.func.attr == "value"]

    loops = [node for node in ast.walk(tree)
             if isinstance(node, (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
                                  ast.GeneratorExp))]
    assert len(value_calls(tree)) == 1
    assert [line for loop in loops for line in value_calls(loop)] == []


def test_one_dot_product_in_the_solver():
    # _dot keeps each BLAS dot product below OpenBLAS's threading cutoff;
    # an np.vdot call elsewhere in solver.py would run a long gradient's
    # norm on the BLAS thread pool again
    tree = ast.parse((Path(viterbipar.__file__).parent / "solver.py").read_text())

    def vdots(node):
        return [call.lineno for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute) and call.func.attr == "vdot"]

    dot = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_dot")
    assert vdots(dot) and vdots(tree) == vdots(dot)


def test_one_segment_solve_path():
    # solve_parallel alone builds the window jobs and submits them to the
    # pool; a second place that does either is a second copy of the
    # plan-to-stitched-path steps, which sweep_delta reaches by calling it
    tree = ast.parse((Path(viterbipar.__file__).parent / "parallel.py").read_text())

    def calls(node):
        return sorted(call.func.id for call in ast.walk(node) if isinstance(call, ast.Call)
                      and getattr(call.func, "id", None) in ("WindowedObjective", "_submit"))

    solve = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "solve_parallel")
    assert calls(tree) == calls(solve) == ["WindowedObjective", "_submit"]


def test_library_has_every_name_the_benchmark_reads():
    # bench/ is run as committed against each version of the library, so a
    # name it reads must not go: module attributes through its import
    # aliases, ``from viterbipar... import`` names, and the family methods
    # that ``traced_model`` wraps in spans. Every call of a library callable
    # must bind its arguments and keywords to the callable's signature.
    from viterbipar.models import likelihoods, signals

    bench = Path(__file__).resolve().parents[1] / "bench"
    missing, aliases, wrapped, called = [], set(), set(), set()

    def check(owner, name):
        if not hasattr(owner, name):
            missing.append(f"{owner.__name__}.{name}")
        return getattr(owner, name, None)

    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # this file's names for viterbipar modules
        imported = {}  # this file's names for other viterbipar objects
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
                    elif value is not None:
                        imported[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                check(modules[node.value.id], node.attr)
            elif isinstance(node, ast.FunctionDef) and node.name == "traced_model":
                wrapped |= {(call.args[1].value.id, call.args[1].attr) for call in ast.walk(node)
                            if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "wrap"}
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                        and func.value.id in modules:
                    target = getattr(modules[func.value.id], func.attr, None)
                else:
                    target = imported.get(getattr(func, "id", None))
                if not callable(target):
                    continue
                called.add(target.__name__)
                args = [] if any(isinstance(a, ast.Starred) for a in node.args) else node.args
                keywords = {kw.arg: None for kw in node.keywords if kw.arg is not None}
                try:
                    inspect.signature(target).bind_partial(*[None] * len(args), **keywords)
                except TypeError as exc:
                    missing.append(f"{path.name}:{node.lineno} {target.__name__}: {exc}")
        aliases |= set(modules)
    families = {"sig": (signals.LinearGaussianSignal, signals.HuberNonlinearSignal),
                "lik": tuple(getattr(likelihoods, name) for name in likelihoods.__all__
                             if isinstance(getattr(likelihoods, name), type))}
    for var, method in wrapped:
        for cls in families[var]:
            check(cls, method)
    assert {"vp", "vio"} <= aliases and len(wrapped) == 4
    assert {"SolverConfig", "estimate_grad_lipschitz", "empirical_decay_convexity",
            "solve_parallel", "NeuralPseudo", "ModelSpec"} <= called
    assert missing == []


def test_readme_library_sketch_runs(capsys):
    # the README's one Python example, run as written: a public name it
    # imports or calls that goes or is renamed fails here
    from viterbipar.parallel import _release_pool

    readme = Path(viterbipar.__file__).resolve().parents[2] / "README.md"
    blocks = readme.read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    try:
        exec(compile(blocks[0].split("```")[0], str(readme), "exec"), {})
    finally:
        _release_pool()  # the example's four-worker pool
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["stitching error", "certified first-segment bound"]
    assert all(math.isfinite(float(line.split(":")[1])) for line in lines)
