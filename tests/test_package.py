"""The package's public names, and every library name the benchmark in
`perfbench/` reaches: a trim of the library must not break a traced run."""

import ast
import importlib
import importlib.util
import inspect
import re
import types
from pathlib import Path

import click

import belldistill
from belldistill.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(belldistill.__file__).resolve().parent


def _resolve(owner, path: str):
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_all_is_unique_resolvable_and_holds_no_modules():
    assert len(set(belldistill.__all__)) == len(belldistill.__all__)
    for name in belldistill.__all__:
        assert not isinstance(getattr(belldistill, name), types.ModuleType), name


def test_instrumented_functions_resolve():
    # Tracer.install raises AttributeError on a name it cannot find, which
    # fails every traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.INSTRUMENTED
    for module, path, _, _ in spans.INSTRUMENTED:
        assert callable(_resolve(importlib.import_module(module), path)), (module, path)
        # install reads a method from its own class's namespace, not an inherited one
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = _resolve(importlib.import_module(module), owner_path)
            assert attr in vars(owner), (module, path)
    # called by the exact-branches question, not instrumented
    assert callable(_resolve(belldistill, "BranchAnalysis.total_probability"))


def test_benchmark_questions_use_exported_names():
    names = set(re.findall(r"\bbd\.(\w+)", (PERFBENCH / "workloads.py").read_text()))
    assert names
    assert sorted(names - set(belldistill.__all__)) == []


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_src_has_no_unused_imports():
    # __init__.py imports only to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        assert _unused_imports(path.read_text()) == [], path.name


def _dead_private_names(modules) -> list[str]:
    """Module-level `_name` definitions (dunders aside) that no Name,
    Attribute or import in any of `modules` refers to."""

    defined, used = {}, set()
    for path in modules:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                targets = []
            for name in targets:
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)


def test_src_has_no_dead_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert _dead_private_names(modules) == []


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute) and target.attr == "dataclass")


def test_dataclasses_validate_in_post_init():
    # @dataclass generates and execs its methods at import; a value type that
    # checks nothing is a NamedTuple instead
    decorated, unchecked = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ClassDef)
                    and any(map(_is_dataclass_decorator, node.decorator_list))):
                decorated.append(node.name)
                if not any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                           for item in node.body):
                    unchecked.append(f"{path.name}:{node.lineno} {node.name}")
    assert decorated
    assert unchecked == []


def test_kronecker_products_have_one_path():
    # every product goes through states._kron's outer-product chain, which
    # gives np.kron's bits without its per-call expand_dims and reshape
    refs = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "kron"
                    or isinstance(node, ast.alias) and node.name == "kron"):
                refs.append((path.name, node.lineno, ast.unparse(node)))
    assert refs == []


def test_dense_eigensolves_have_one_path():
    # a dense spectrum is solved only block by block over a state's entries;
    # _top_vector solves the search's small Gram matrix
    allowed = {("states.py", "_eigh_blocks"), ("measures.py", "_top_vector")}
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh")
                        and ast.unparse(node.value) == "np.linalg"):
                    calls.append((path.name, getattr(top, "name", None)))
    assert calls and set(calls) <= allowed, calls
    from belldistill import entropies, states

    for fn, name in ((states._check_trace, "entries"), (states._block_labels, "entries"),
                     (states._eigh_blocks, "entries"), (states.partial_transpose_entries, "entries"),
                     (entropies._spectrum, "entries")):
        param = inspect.signature(fn).parameters[name]
        assert param.default is inspect.Parameter.empty, fn.__name__


def test_dense_states_have_one_builder():
    # a mixture's state is built only by states._from_blocks, from its support
    # blocks; any other state is kept by DensityOperator's own methods, and a
    # d x d array is filled only for a matrix that is read or a partial transpose
    calls = {"_keep": set(), "_sparse_zeros": set(), "_from_blocks": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for inner in top.body if isinstance(top, ast.ClassDef) else [top]:
                for node in ast.walk(inner):
                    if isinstance(node, ast.Call):
                        name = getattr(node.func, "attr", getattr(node.func, "id", None))
                        where = getattr(top, "name", None)
                        if inner is not top:
                            where = f"{where}.{getattr(inner, 'name', None)}"
                        calls.get(name, set()).add((path.name, where))
    assert calls["_from_blocks"] == {("bell.py", "to_dense"), ("states.py", "dm_from_ensemble")}
    keepers = {where for _, where in calls["_keep"]}
    assert "_from_blocks" in keepers and all(path == "states.py" for path, _ in calls["_keep"])
    assert all(w.startswith("DensityOperator.") for w in keepers - {"_from_blocks"}), keepers
    assert calls["_sparse_zeros"] == {("states.py", "DensityOperator.__getattr__"),
                                      ("states.py", "partial_transpose")}
    assert list(inspect.signature(belldistill.DensityOperator._trusted).parameters) == ["matrix"]


def test_tensor_is_the_only_product_builder():
    # every factored product is built by BellDiagonalState.tensor, which keeps
    # products flat, returns a lone plain state as it is and refuses an
    # underflowed weight; no other function builds a _Product itself
    from belldistill import rho2_power, rho_n, sigma_n

    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for inner in top.body if isinstance(top, ast.ClassDef) else [top]:
                for node in ast.walk(inner):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            and node.func.id == "_Product"):
                        calls.append((path.name, getattr(top, "name", None),
                                      getattr(inner, "name", None)))
    assert calls == [("bell.py", "BellDiagonalState", "tensor")]
    for state in (rho2_power(1), rho_n(3).tensor(), sigma_n(["2134", "1234"])):
        assert state.factors == (state,) and type(state.weights) is dict


def _commands(group: click.Group, prefix: str = ""):
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _commands(command, f"{prefix}{name} ")
        else:
            yield f"{prefix}{name}", command


def test_every_choice_option_offers_a_choice():
    # an option with one allowed value selects nothing
    one_valued = [(name, p.name, p.type.choices) for name, command in _commands(main)
                  for p in command.params
                  if isinstance(p.type, click.Choice) and len(p.type.choices) < 2]
    assert one_valued == []


def test_locc_draws_no_numpy_random():
    # the protocol's ket reference forces every outcome, and a seeded shot
    # comes only from _draws' standard-library random.Random
    names = []
    for node in ast.walk(ast.parse((PACKAGE / "locc.py").read_text())):
        if isinstance(node, ast.Attribute):
            names.append((node.lineno, ast.unparse(node).replace("np.", "numpy.", 1)))
        elif isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names]
    assert [(line, name) for line, name in names
            if name == "numpy.random" or name.startswith("numpy.random.")] == []
