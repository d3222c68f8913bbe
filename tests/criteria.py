"""Acceptance criterion recording with wall-time budgets.

A plain module rather than part of ``conftest.py``: when ``perfbench/tests``
is collected in the same run, ``import conftest`` can resolve to that
directory's conftest instead of this one's.
"""

from contextlib import contextmanager
from time import perf_counter

ACCEPTANCE_LINES: list[str] = []


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    """Time a criterion body, record one pass/fail line, enforce the budget."""
    start = perf_counter()
    try:
        yield
    except BaseException:
        elapsed = perf_counter() - start
        ACCEPTANCE_LINES.append(
            f"criterion {number:02d} {name}: FAIL ({elapsed:.2f}s)"
        )
        raise
    elapsed = perf_counter() - start
    ok = elapsed < budget_s
    ACCEPTANCE_LINES.append(
        f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL (over budget)'} "
        f"({elapsed:.2f}s / budget {budget_s:g}s)"
    )
    assert ok, f"criterion {number} ran {elapsed:.2f}s, budget {budget_s}s"
