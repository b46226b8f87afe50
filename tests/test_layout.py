"""The layout of the suite: one home for each fixture and reference form.

Table builders, plants, comparators and reference forms shared by the test
modules live once in tests/oracles.py.  No test module imports another, and
no helper (a top-level function or class whose name does not start with
test_) is defined in more than one file of tests/.
"""

import ast
from collections import defaultdict
from pathlib import Path


def trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(__file__).parent.glob("*.py"))}


def test_no_test_module_imports_another():
    imported = []
    for name, tree in trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            imported += [(name, module) for module in modules if module.startswith("test_")]
    assert imported == []


def test_each_helper_is_defined_in_one_file():
    files = defaultdict(list)
    for name, tree in trees().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("test_"):
                files[node.name].append(name)
    assert {helper: where for helper, where in files.items() if len(where) > 1} == {}
