"""The CI workflow runs every check of ``tests/ci_checks.py`` once, each
from a checkout, and holds no Python of its own.  It is read as text:
PyYAML is not among the test dependencies."""

import re
from pathlib import Path

import ci_checks

WORKFLOW = (Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml").read_text()


def test_every_check_runs_in_exactly_one_step():
    assert sorted(re.findall(r"python tests/ci_checks\.py (\S+)", WORKFLOW)) == sorted(ci_checks.CHECKS)


def test_no_step_runs_inline_python():
    # the two -c left time the imports of the installed package
    assert "<<" not in WORKFLOW and not re.search(r"python3? +- ", WORKFLOW)
    assert set(re.findall(r" -c +(\"[^\"]*\"|'[^']*'|\S+)", WORKFLOW)) == {
        '"import hopfgalois.cli"',
        '"import hopfgalois"',
    }


def test_every_pythonpath_holds_src():
    paths = re.findall(r"PYTHONPATH=(\S+)", WORKFLOW)
    assert paths and all("src" in re.split(r"[:${}+]", path) for path in paths)


def test_code_lines_leave_out_comments_docstrings_and_blank_lines():
    text = (
        '"""Module."""\n\nimport os  # a comment\n\n\n'
        'def f():\n    """Doc\n    string."""\n    # a comment\n    return (1,\n            2)\n'
    )
    assert ci_checks.count_code_lines(text) == 4  # import, def and return's two lines
