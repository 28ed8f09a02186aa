"""Package layout: every function, method and class defined in the package
is used by the package itself. A helper that only the tests call belongs in
tests/ (the oracles live in test_oracles.py)."""

import ast
from pathlib import Path

import expander_forge

PACKAGE = Path(expander_forge.__file__).parent
# called by argparse, never by name
HOOKS = {("cli", "_Parser.error")}


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _definitions(tree):
    """(qualified name, bare name) of every non-dunder def and class."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    out.append((qual, child.name))
                visit(child, qual + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _references(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_definition_is_used_in_the_package():
    modules = _modules()
    defined = [(mod, qual, name) for mod, tree in modules.items()
               for qual, name in _definitions(tree)]
    # the scan sees the modules, their methods and the hook it exempts
    quals = {(mod, qual) for mod, qual, _ in defined}
    assert ("groups", "FiniteGroup.closure") in quals and HOOKS <= quals
    used = set().union(*(_references(tree) for tree in modules.values()))
    unused = [f"{mod}.{qual}" for mod, qual, name in defined
              if name not in used and (mod, qual) not in HOOKS]
    assert not unused, f"defined in src/ but used only outside it: {unused}"
