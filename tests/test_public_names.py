"""Every public name of the package has a caller outside the tests.

A static guard, standard library only: the public module-level functions
and classes of ``src/brokenlines``, and the public methods of its classes,
must each be named in ``src/``, ``scripts/`` or ``benchmarks/`` outside
their own definition and the package's ``__init__.py``.  Names that only
tests reach go to ``tests/helpers.py`` instead, except the few below.
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


def name_uses() -> dict[str, list[tuple[Path, int]]]:
    """Where each name stands in the code, outside ``__init__.py`` files: as a
    name token, or as a string literal that is the name alone, which is how
    ``getattr`` reaches it.  Comments and docstrings do not count."""
    uses = defaultdict(list)
    for folder in ("src", "scripts", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
                if token.type == tokenize.NAME:
                    uses[token.string].append((path, token.start[0]))
                elif token.type == tokenize.STRING:
                    value = literal(token)
                    if isinstance(value, str) and value.isidentifier():
                        uses[value].append((path, token.start[0]))
    return uses


def test_every_public_name_has_a_caller_outside_tests():
    uses = name_uses()
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qualified, node in public_definitions(ast.parse(path.read_text())):
            own = range(node.lineno, node.end_lineno + 1)
            if all(where == path and line in own for where, line in uses[node.name]):
                unreached.append(f"{path.stem}.{qualified}")
    assert sorted(set(unreached) - set(ALLOWED)) == [], "public names with no caller"
    assert sorted(set(ALLOWED) - set(unreached)) == [], "allowed names that now have a caller"
