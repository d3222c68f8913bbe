"""Only ``reports`` spells out a verdict.

``reports.verdict`` is the one rule that turns a run's failed checks into a
verdict. A string constant equal to a verdict anywhere else in the package
would be a second rule, so none may appear outside ``reports.py``.
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
