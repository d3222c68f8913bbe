"""Public names and defaulted parameters that only the tests use must be justified.

A top-level public function, class or method in ``src/liftlab`` that the
tests name but no module, script or benchmark file uses is API kept alive
by its own tests. Such a name is either deleted or listed below as a test
oracle, with the reason the tests need it. The benchmark's ``TARGETS``
tuple, which names the functions its tracer wraps, is not a use: tracing a
function does not call it.

The same holds for a parameter with a default, a dataclass field with a
default included: some call in the package, a script or a benchmark file
must pass it, by position or by keyword, or it is a constant in disguise.
Calls are matched by the callee's name, and a ``*`` or ``**`` argument sets
nothing that can be told.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liftlab"

TEST_ORACLES = {
    "inverse_word": "acceptance criterion 12 checks the cancellation law with it",
    "padic_add": "acceptance criterion 7 calls it",
    "padic_neg": "kept only as a benchmark trace target; it can go only with a "
    "change to the benchmark",
    "random_permutation_system": "acceptance criterion 12 draws its random "
    "systems from it",
    "random_sign_vector": "acceptance criterion 11 draws its level-9..12 "
    "targets and its kernel-word starts with it",
}


TEST_SET_PARAMETERS: dict[str, str] = {}


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
    """The words of each file, less the benchmark's ``TARGETS`` tuple."""
    found = set()
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "TARGETS" for target in node.targets):
                text = text.replace(ast.get_source_segment(text, node), "")
        found.update(re.findall(r"\w+", text))
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


def _defaults(callee: str, args: ast.arguments, is_method: bool):
    """(callee, parameter, positional index or None) per defaulted parameter."""
    positional = (args.posonlyargs + args.args)[1 if is_method else 0:]
    for index, arg in enumerate(positional):
        if index >= len(positional) - len(args.defaults):
            yield callee, arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield callee, arg.arg, None


def defaulted_parameters() -> list[tuple[str, str, int | None]]:
    """Defaulted parameters of top-level functions, methods and dataclasses.

    A method's callee is its name, except ``__init__``, whose callee is the
    class; a dataclass field is a parameter of the class, in field order.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                found.extend(_defaults(node.name, node.args, False))
            if not isinstance(node, ast.ClassDef):
                continue
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
                for index, item in enumerate(fields):
                    if item.value is not None:
                        found.append((node.name, item.target.id, index))
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    callee = node.name if item.name == "__init__" else item.name
                    found.extend(_defaults(callee, item.args, True))
    return found


def calls_outside_tests() -> list[ast.Call]:
    paths = [
        *PACKAGE.glob("*.py"),
        *(ROOT / "scripts").glob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
    ]
    return [
        node
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    ]


def sets(call: ast.Call, callee: str, parameter: str, index: int | None) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name != callee:
        return False
    if any(keyword.arg == parameter for keyword in call.keywords):
        return True
    if index is None or any(isinstance(arg, ast.Starred) for arg in call.args):
        return False
    return len(call.args) > index


def test_no_defaulted_parameter_is_set_only_by_tests():
    calls = calls_outside_tests()
    unset = {
        f"{callee}({parameter})"
        for callee, parameter, index in defaulted_parameters()
        if not any(sets(call, callee, parameter, index) for call in calls)
    }
    assert not unset - set(TEST_SET_PARAMETERS), (
        "defaulted parameters that no call outside the tests sets: "
        f"{sorted(unset - set(TEST_SET_PARAMETERS))}"
    )
    # an allowlisted parameter that the program starts to set needs no entry
    assert set(TEST_SET_PARAMETERS) <= unset


def test_lifting_imports_no_package_module():
    # lifting is the layer the other models are built on; it depends on none
    tree = ast.parse((PACKAGE / "lifting.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    package = [name for name in imported
               if name.startswith(".") or name.split(".")[0] == "liftlab"]
    assert not package, f"lifting.py imports {package}"
