"""The layout of the suite and of the package: one home for each rule.

Table builders, plants, comparators and reference forms shared by the test
modules live once in tests/oracles.py.  No test module imports another, and
no helper (a top-level function or class whose name does not start with
test_) is defined in more than one file of tests/.  The diagonal-frame rule
(RHO, the split, the clear rule and the remainder bound) is defined in
quasinv.matcore alone, and the runner (quasinv.cli) reads none of it.  Outside
matcore a lone matrix is read through its matcore.Operand: only CocycleTable's
blockwise pass over its stack calls the rule's functions.
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


RULE = {"RHO", "split", "_split", "clears", "_clears", "remainder", "_remainder"}


def package_trees():
    src = Path(__file__).parent.parent / "src" / "quasinv"
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}


def test_only_matcore_defines_the_diagonal_frame_rule():
    defined = []
    for module, tree in package_trees().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names if name in RULE]
    assert sorted(defined) == [("matcore", "RHO"), ("matcore", "clears"), ("matcore", "remainder"),
                               ("matcore", "split")]


def test_the_runner_reads_no_part_of_the_rule():
    # any RHO, split helper or clear rule by name, attribute or import, and any .split that is not
    # a call on a value (str.split): a table's split or matcore.split / cocycle._split
    tree = package_trees()["cli"]
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    read = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            name, text = node.name, node.name
        elif isinstance(node, ast.Name):
            name, text = node.id, node.id
        elif isinstance(node, ast.Attribute):
            module = isinstance(node.value, ast.Name) and node.value.id in ("matcore", "cocycle")
            name = node.attr if node.attr != "split" or id(node) not in called or module else None
            text = ast.unparse(node)
        else:
            continue
        if name in RULE:
            read.append(text)
    assert read == []


READERS = {"frame", "frame_facts", "split", "clears", "diagonal_facts"}


def test_outside_matcore_only_the_table_pass_calls_the_frame_readers():
    # a call of matcore.<reader>, or of a reader imported by name, with its module and class
    called = []
    for module, tree in package_trees().items():
        if module == "matcore":
            continue
        imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("matcore")
                    for alias in node.names}
        for top in tree.body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "matcore":
                    name = f.attr
                elif isinstance(f, ast.Name) and f.id in imported:
                    name = imported[f.id]
                else:
                    continue
                if name in READERS and (module, owner) != ("cocycle", "CocycleTable"):
                    called.append((module, name))
    assert called == []
