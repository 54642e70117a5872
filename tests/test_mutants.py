"""The mutant catalog of scripts/mutants.py stays runnable: each entry's
name is its own, its old text occurs once in its file and differs from
its new text, and each test it names exists.  The catalog itself runs on
demand (`python scripts/mutants.py`)."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalog_old_texts_occur_once():
    mutants = load_mutants()
    assert mutants.CATALOG
    assert mutants.check_catalog() == []


def test_catalog_entries_are_distinct_edits():
    """No two entries share a name, and no entry's new text is its old
    text, which would leave the code as it is and read `survived` only
    when the catalog runs."""
    mutants = load_mutants()
    names = [m.name for m in mutants.CATALOG]
    assert len(set(names)) == len(names)
    for m in mutants.CATALOG:
        assert m.new != m.old, m.name


def test_catalog_tests_exist():
    mutants = load_mutants()
    for m in mutants.CATALOG:
        assert m.tests, m.name
        for node in m.tests:
            path, _, name = node.partition("::")
            tree = ast.parse((ROOT / path).read_text())
            functions = {f.name for f in tree.body
                         if isinstance(f, ast.FunctionDef)}
            assert name.partition("[")[0] in functions, (m.name, node)
