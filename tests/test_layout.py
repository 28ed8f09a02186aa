"""Package layout: every function, method and class defined in the package
is used by the package itself. A helper that only the tests call belongs in
tests/ (the oracles live in test_oracles.py). Each exit code has one
exception type, each up-front memory refusal one code path, and the
support-one sweep one kernel. Only `blas` touches a shared library,
only `kazhdan.kazhdan_interval` turns a Cayley spectrum into a Kazhdan
bound, and `kazhdan` and `cli` read no element labels."""

import ast
from pathlib import Path

import expander_forge

PACKAGE = Path(expander_forge.__file__).parent
# called by argparse, never by name
HOOKS = {("cli", "_Parser.error")}
# the only functions that raise MemoryError: the byte-budget refusal, and the
# int64-key check, which is not a byte estimate
MEMORY_RAISERS = {("modp", "refuse_past_budget"), ("semidirect", "_check_key_budget")}


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


def _raisers(tree, exc):
    """Qualified names of the functions that raise `exc` by name."""
    out = set()

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix + child.name + ".", prefix + child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                target = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(target, ast.Name) and target.id == exc:
                    out.add(owner)
            visit(child, prefix, owner)

    visit(tree, "", None)
    return out


def test_one_refusal_path_per_exit_code():
    """MemoryError (exit 3) is raised only by the budget helper and the
    int64-key check, and usage errors (exit 1) are plain ValueErrors: no
    module defines or names a UsageError."""
    modules = _modules()
    raisers = {(mod, qual) for mod, tree in modules.items()
               for qual in _raisers(tree, "MemoryError")}
    assert raisers == MEMORY_RAISERS, raisers
    named = [mod for mod, tree in modules.items() if "UsageError" in _references(tree)
             or any(name == "UsageError" for _, name in _definitions(tree))]
    assert not named, named


# matrix products by operator, function or method name
_PRODUCTS = {"matmul", "dot", "einsum", "tensordot", "inner", "vecdot"}
# the package's additive characters e_p(x)
_CHARACTERS = {"ep", "ep_values", "ep_table"}


def _multiplies_characters(func):
    """Whether a function both takes characters from `modp` and multiplies
    matrices: a matmul, dot, einsum, ... anywhere in its body."""
    nodes = list(ast.walk(func))
    product = any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                  or isinstance(node, ast.Call) and _references(node.func) & _PRODUCTS
                  for node in nodes)
    return product and bool(_references(func) & _CHARACTERS)


def test_support_one_gemm_only_in_the_sweep_kernel():
    """The support-one GEMM, a matrix product of character blocks, sits in
    `expsum._sweep_blocks` alone: the search screens its candidates with the
    kernel that certifies them, not with a second one."""
    found = {(mod, func.name) for mod, tree in _modules().items() for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             and _multiplies_characters(func)}
    assert found == {("expsum", "_sweep_blocks")}, found


def test_one_route_from_a_cayley_spectrum_to_a_kazhdan_interval():
    """`cayley_spectrum` is called by `kazhdan.kazhdan_interval` alone: every
    Kazhdan bound in the package reads that interval, not a gap of its own."""
    callers = {(mod, func.name) for mod, tree in _modules().items() for func in ast.walk(tree)
               if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
               and any(isinstance(node, ast.Call) and "cayley_spectrum" in _references(node.func)
                       for node in ast.walk(func))}
    assert callers == {("kazhdan", "kazhdan_interval")}, callers


def _imported(tree):
    """Top-level names of the modules a module imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_blas_loads_a_library_and_none_parses_binaries():
    """numpy's OpenBLAS is known by its file name: no module unpacks binary
    files with `struct`, and `blas` alone reaches a library with `ctypes`."""
    imports = {path.stem: _imported(ast.parse(path.read_text(), filename=str(path)))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert "__init__" in imports and "numpy" in imports["cli"]
    assert [mod for mod, names in imports.items() if "struct" in names] == []
    assert [mod for mod, names in imports.items() if "ctypes" in names] == ["blas"]


def test_kazhdan_and_cli_read_group_structure_from_indices():
    """The Kazhdan suites and the CLI work on element indices alone: no code
    in `kazhdan` or `cli` looks an element label up (`index_of`) or reads the
    label list (`.elements`). N, H and the generator split come from the
    table, and a subgroup position is a search of its sorted members."""
    modules = _modules()
    for mod in ("kazhdan", "cli"):
        tree = modules[mod]
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "index_of" not in _references(tree) and "elements" not in attrs, mod
