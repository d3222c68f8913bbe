"""Only ``reports`` spells out a verdict.

``reports.verdict`` is the one rule that turns a run's failed checks into a
verdict. A string constant equal to a verdict anywhere else in the package
would be a second rule, so none may appear outside ``reports.py``. Nor may
``experiments.run`` catch what a runner raises: a handler there would turn
an exception into checks of its own, a second path beside the runner's
named checks.
"""

import ast
import pathlib

from liftlab.reports import VERDICTS

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "liftlab"


def test_no_verdict_literal_outside_reports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert "reports.py" in [path.name for path in modules]
    found = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in modules if path.name != "reports.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value in VERDICTS
    ]
    assert found == []


def test_run_catches_nothing():
    tree = ast.parse((PACKAGE / "experiments.py").read_text(encoding="utf-8"))
    run = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    # ast.TryStar (try/except*, Python 3.11+) is not an ast.Try
    handlers = [node.lineno for node in ast.walk(run)
                if type(node).__name__ in ("Try", "TryStar")]
    assert handlers == []
