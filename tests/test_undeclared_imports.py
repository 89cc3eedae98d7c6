"""No code imports a package that the project does not declare.

A static guard, standard library only: no ``.py`` file under ``src/``,
``tests/``, ``scripts/`` or ``benchmarks/`` imports ``mpmath`` or ``sympy``,
whether by ``import``, by ``from ... import`` or inside a function.  Both
can be installed beside the declared ones (numpy, and pytest, hypothesis and
scipy for the tests) and would then import without complaint, so a use of
either would pass here and fail wherever only the declared packages are.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNDECLARED = {"mpmath", "sympy"}


def imported_modules(tree: ast.Module):
    """``(top-level module name, line)`` of each absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            yield node.module.partition(".")[0], node.lineno


def test_no_code_imports_an_undeclared_package():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for folder in ("src", "tests", "scripts", "benchmarks")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for module, line in imported_modules(ast.parse(path.read_text()))
        if module in UNDECLARED
    ]
    assert found == []


def test_the_guard_sees_every_form_of_import():
    code = "import mpmath\nimport sympy.core as sc\nfrom mpmath import mp\ndef f():\n    from sympy import S\n"
    assert sorted(imported_modules(ast.parse(code))) == [("mpmath", 1), ("mpmath", 3), ("sympy", 2), ("sympy", 5)]
