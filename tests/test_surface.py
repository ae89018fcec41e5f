"""The package defines no public function or class that its own code never uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "avgexp"
USED_OUTSIDE_SRC = {"mobius_coeff": "read by perfbench/test_references.py"}


def test_every_public_name_is_referenced_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{module}:{node.name}" for module, tree in trees.items()
              if module != "__init__.py" for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
              and node.name not in referenced | USED_OUTSIDE_SRC.keys()]
    assert not unused, f"public names that nothing in src/ refers to: {unused}"
