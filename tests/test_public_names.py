"""Every public name of the package has a caller outside the tests.

A static guard, standard library only: the public module-level functions
and classes of ``src/brokenlines``, and the public methods of its classes,
must each be reached from ``src/``, ``scripts/`` or ``benchmarks/`` outside
their own definition and the package's ``__init__.py``.  A method is reached
by any use of its name.  A module-level function or class is reached only by
an import of it from its module or the package, as an attribute of a
package module, by a string literal that is its name alone in a file that
holds a package module (for ``getattr``), or by a use inside its own module:
a method or a string of the same name elsewhere does not count.  Names that
only tests reach go to ``tests/helpers.py`` instead, except the few below.
"""

import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "brokenlines"

ALLOWED = {
    "flow.extract": "imported by the acceptance criteria",
    "lines.line_fields": "imported by the acceptance criteria",
    "lpp.lpp_bruteforce": "imported by the acceptance criteria",
    "lpp.path_sum": "imported by the acceptance criteria",
    "lines.BrickDiagram.site_range": "a trace query the README documents",
    "lines.BrickDiagram.weight_of": "a trace query the README documents",
    "lines.BrickDiagram.maximal_line": "a trace query the README documents",
    "duality.reverse_through_site": "the site reversal map, for the pointwise self-duality oracle",
    "duality.transition_kernel": "the kernel that the reference kernel_residual_loop evaluates",
}


def public_definitions(tree: ast.Module):
    """``(qualified name, node)`` of each public module-level function and
    class, and of each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def literal(token: tokenize.TokenInfo):
    try:
        return ast.literal_eval(token.string)
    except (ValueError, SyntaxError):  # an f-string
        return None


def code_files() -> list[Path]:
    """The code outside the tests, less the ``__init__.py`` files."""
    return [path for folder in ("src", "scripts", "benchmarks")
            for path in sorted((ROOT / folder).rglob("*.py")) if path.name != "__init__.py"]


def name_uses() -> dict[str, list[tuple[Path, int, bool]]]:
    """Where each name stands in the code: as a name token, or as a string
    literal that is the name alone (flagged True), which is how ``getattr``
    reaches it.  Comments and docstrings do not count."""
    uses = defaultdict(list)
    for path in code_files():
        for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if token.type == tokenize.NAME:
                uses[token.string].append((path, token.start[0], False))
            elif token.type == tokenize.STRING:
                value = literal(token)
                if isinstance(value, str) and value.isidentifier():
                    uses[value].append((path, token.start[0], True))
    return uses


def package_module(node: ast.ImportFrom) -> str | None:
    """The package module a ``from`` import reads, ``""`` for the package itself,
    or None outside the package."""
    if node.level:
        return node.module or ""
    if node.module == "brokenlines":
        return ""
    if node.module and node.module.startswith("brokenlines."):
        return node.module.removeprefix("brokenlines.")
    return None


def module_reaches() -> tuple[set[str], set[Path]]:
    """``module.name`` of each name the code imports from a package module or
    reads as an attribute of one, ``.name`` where it imports it from the package;
    and the files that hold a package module under a local name."""
    reached, holders = set(), set()
    for path in code_files():
        tree = ast.parse(path.read_text())
        modules = {}  # the local name of each package module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((alias.asname, alias.name.removeprefix("brokenlines."))
                               for alias in node.names
                               if alias.asname and alias.name.startswith("brokenlines."))
            elif isinstance(node, ast.ImportFrom) and (module := package_module(node)) is not None:
                for alias in node.names:
                    reached.add(f"{module}.{alias.name}")
                    if module == "" and (PACKAGE / f"{alias.name}.py").exists():
                        modules[alias.asname or alias.name] = alias.name
        reached.update(f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                       and node.value.id in modules)
        if modules:
            holders.add(path)
    return reached, holders


def test_every_public_name_has_a_caller_outside_tests():
    uses, (reaches, holders) = name_uses(), module_reaches()
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qualified, node in public_definitions(ast.parse(path.read_text())):
            own = range(node.lineno, node.end_lineno + 1)
            outside = [(where, string) for where, line, string in uses[node.name]
                       if where != path or line not in own]
            if "." in qualified:  # a method: any use of its name
                reached = bool(outside)
            else:
                reached = ({f"{path.stem}.{qualified}", f".{qualified}"} & reaches
                           or any(where == path or string and where in holders
                                  for where, string in outside))
            if not reached:
                unreached.append(f"{path.stem}.{qualified}")
    assert sorted(set(unreached) - set(ALLOWED)) == [], "public names with no caller"
    assert sorted(set(ALLOWED) - set(unreached)) == [], "allowed names that now have a caller"
