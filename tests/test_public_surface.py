"""No public name in ``src/odpc`` that only tests use.

Every public module-level function or class, and every public method, must
be named (as a ``Name`` or an ``Attribute``) somewhere in ``src/odpc`` or in
``perfbench/``; its own ``def``/``class`` statement and import lists do not
count. A name kept for another reason is listed in ``ALLOWED`` with that
reason, and an entry that becomes used must leave the list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "losses.pcc_loss": "acceptance criterion 3 checks the standalone PCC term",
    "losses.ce_loss": "acceptance criterion 3 checks the standalone cross-entropy term",
    "knn_detector.calibrate_threshold": "acceptance criterion 8 checks the calibrated threshold",
    "knn_detector.export_scores": "the score writer the planned `odpc score` command will call",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name) of each public top-level def/class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def _referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_is_used_outside_the_tests():
    modules = sorted((ROOT / "src" / "odpc").glob("*.py"))
    trees = {path: ast.parse(path.read_text("utf-8"))
             for path in modules + sorted((ROOT / "perfbench").glob("*.py"))}
    used = set().union(*map(_referenced_names, trees.values()))
    unused = {f"{path.stem}.{qualified}"
              for path in modules for qualified, name in _public_definitions(trees[path])
              if name not in used}
    assert unused - set(ALLOWED) == set(), "public names only tests use"
    assert set(ALLOWED) - unused == set(), "allowlisted names that are now used"
