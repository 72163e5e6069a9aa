"""The package's public names, and every library name the benchmark in
`perfbench/` reaches: a trim of the library must not break a traced run."""

import ast
import importlib
import importlib.util
import re
import types
from pathlib import Path

import belldistill

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
