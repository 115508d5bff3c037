"""The package holds only what its own code runs.

Every public module-level function or class of ``src/cavitychain``, and
every public method or property of a class defined there, must be read
somewhere in the package's code: as a name or an attribute in a load
context, and a class member only as an attribute.  Docstrings, imports
and the re-exports of ``__init__`` are not reads, and neither is a
definition's own body.  Reference code that only the tests run belongs in
``tests/helpers.py``.
"""

import ast
from pathlib import Path

import cavitychain

PACKAGE = Path(cavitychain.__file__).parent

#: Public names no package code reads yet, each with the reason it stays.
ALLOWED = {
    "find_perfect_reflection": "ROADMAP item 2: tuning Omega onto a bound state in the continuum calls it",
}


def _definitions(tree: ast.Module):
    """(name, node) of each public module-level function or class and each public class member."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def _reads(tree: ast.AST, skip: ast.AST, member: bool) -> set[str]:
    """Attribute names, and unless ``member`` names, loaded anywhere in ``tree`` outside ``skip``."""
    reads = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and not member:
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return reads


def unread_names(package: Path) -> list[str]:
    """Public definitions of ``package`` that none of its code reads, outside their own body."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    unread = []
    for path, tree in trees.items():
        for qualified, node in _definitions(tree):
            name, member = qualified.rsplit(".", 1)[-1], "." in qualified
            if not any(name in _reads(other, node, member) for other in trees.values()):
                unread.append(f"{path.stem}.{qualified}")
    return unread


def test_every_public_definition_is_read_by_package_code():
    unread = [name for name in unread_names(PACKAGE) if name.rsplit(".", 1)[-1] not in ALLOWED]
    assert unread == [], f"no package code reads {unread}; move them to tests/helpers.py or delete them"


def test_the_allowed_names_are_still_unread():
    # an allowance outlives its reason once package code reads the name
    unread = {name.rsplit(".", 1)[-1] for name in unread_names(PACKAGE)}
    assert set(ALLOWED) <= unread


def test_a_definition_read_only_in_its_docstring_or_body_or_by_init_counts_as_unread(tmp_path):
    (tmp_path / "__init__.py").write_text("from .core import helper, Kept\n")
    (tmp_path / "core.py").write_text(
        '"""``helper`` and ``Kept.spare`` appear here in prose only."""\n'
        "def helper(n):\n    return helper(n - 1) if n else 0\n"
        "class Kept:\n"
        "    def used(self):\n        return 1\n"
        "    @property\n    def spare(self):\n        return self.used()\n"
        "def run():\n    spare = Kept().used()\n    return spare\n"
        "run()\n"
    )
    assert unread_names(tmp_path) == ["core.helper", "core.Kept.spare"]
