"""The package defines no top-level function, class or constant that its own
code never uses, and its entry point loads no mpmath."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "avgexp"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def unreferenced() -> list:
    """module:name for every top-level function or class of src/avgexp/
    that nothing in src/ refers to."""
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in TREES.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    return [f"{module}:{node.name}" for module, tree in TREES.items()
            if module != "__init__.py" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in referenced]


def test_every_public_name_is_referenced_in_src():
    unused = [name for name in unreferenced() if ":_" not in name]
    assert not unused, f"public names that nothing in src/ refers to: {unused}"


def test_every_private_name_is_referenced_in_src():
    # a helper that a deletion left behind, which only tests may still call
    unused = [name for name in unreferenced() if ":_" in name]
    assert not unused, f"private names that nothing in src/ refers to: {unused}"


def test_every_constant_is_read_in_src():
    # a module-level assignment that nothing loads, bar dunders like __version__
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assigned = {name.id for tree in TREES.values() for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                for name in ast.walk(target) if isinstance(name, ast.Name)}
    unread = sorted(name for name in assigned - read if not name.startswith("__"))
    assert not unread, f"constants that nothing in src/ reads: {unread}"


def test_every_import_is_used():
    # a name that a module imports and never reads, such as one that a
    # deletion elsewhere in the module left behind
    unused = []
    for module, tree in TREES.items():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{module}:{name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names
                   for name in [(alias.asname or alias.name).split(".")[0]]
                   if name not in read]
    assert not unused, f"imports that their module never reads: {unused}"


def test_cli_imports_no_mpmath():
    # mpmath is a test-side oracle; the program itself needs numpy alone
    probe = "import sys, avgexp.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "False"


def test_cli_imports_no_process_pool():
    # blocks go to forked children over pipes; no executor is imported
    probe = ("import sys, avgexp.cli; "
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"
