"""Public names of the package that only the tests use must be justified.

A top-level public function, class or method in ``src/liftlab`` that the
tests name but no module, script or benchmark file uses is API kept alive
by its own tests. Such a name is either deleted or listed below as a test
oracle, with the reason the tests need it.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liftlab"

TEST_ORACLES = {
    "h_word_to_loop_word": "connects lifting.lift_word to hawaiian.lift_word_hn "
    "in the cross-model tests",
    "inverse_word": "acceptance criterion 12 checks the cancellation law with it",
    "random_permutation_system": "acceptance criterion 12 draws its random "
    "systems from it",
}


def public_definitions() -> dict[str, str]:
    """Each public top-level function, class and method: name -> where."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found.setdefault(node.name, f"{path.name}:{node.name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        found.setdefault(item.name, f"{path.name}:{node.name}.{item.name}")
    return {name: where for name, where in found.items() if not name.startswith("_")}


def package_uses() -> set[str]:
    """Identifiers the package's code refers to, definitions excluded."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    return used


def words(paths) -> set[str]:
    found = set()
    for path in paths:
        found.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return found


def test_no_public_name_is_used_only_by_tests():
    tests = words(p for p in (ROOT / "tests").glob("*.py")
                  if p.name != pathlib.Path(__file__).name)
    elsewhere = package_uses() | words(
        [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    )
    definitions = public_definitions()
    test_only = {
        where
        for name, where in definitions.items()
        if name in tests and name not in elsewhere and name not in TEST_ORACLES
    }
    assert not test_only, f"used only by tests: {sorted(test_only)}"
    # an oracle that the program starts to use no longer needs its entry
    assert set(TEST_ORACLES) <= set(definitions)
    assert not set(TEST_ORACLES) & elsewhere
