"""The documentation gate, run as part of tier-1.

Imports the checks from ``tools/check_docs.py`` (stdlib-only) so that a
missing public docstring, a broken relative link in the checked markdown
files, a docs snippet quoting a CLI flag that does not exist, an
invariants table that drifts from the rule registry, or the library
outgrowing its source-line ceiling fails the ordinary test suite — not
just the dedicated CI docs job.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

import check_docs  # noqa: E402


def test_docstring_coverage():
    assert check_docs.check_docstrings() == []


def test_markdown_links_resolve():
    assert check_docs.check_links() == []


def test_cli_snippets_are_honest():
    assert check_docs.check_cli_snippets() == []


def test_a_dropped_invariant_row_is_named(monkeypatch, tmp_path):
    doc = (REPO / check_docs.INVARIANTS_DOC).read_text()
    row = next(line for line in doc.splitlines() if line.startswith("| RPR007 |"))
    copy = tmp_path / check_docs.INVARIANTS_DOC
    copy.parent.mkdir(parents=True)
    copy.write_text(doc.replace(row + "\n", ""))
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    (problem,) = check_docs.check_cli_snippets()
    assert "missing rows: ['RPR007']" in problem


def test_source_lines_stay_under_the_ratchet():
    assert check_docs.check_source_lines() == []


def test_an_oversized_module_is_named(monkeypatch):
    sizes = check_docs.module_lines()
    largest = max(sizes, key=sizes.get)
    monkeypatch.setattr(check_docs, "MODULE_LINE_CEILING", sizes[largest] - 1)
    (problem,) = check_docs.check_source_lines()
    assert problem.startswith(f"{largest}: {sizes[largest]} lines exceed")


def test_an_oversized_function_is_named(monkeypatch):
    sizes = check_docs.function_lines()
    longest = max(sizes, key=sizes.get)
    monkeypatch.setattr(check_docs, "FUNCTION_LINE_CEILING", sizes[longest] - 1)
    (problem,) = check_docs.check_source_lines()
    assert problem.startswith(f"{longest}: {sizes[longest]} lines exceed")
    assert longest.endswith(": write_transactions")


def test_gate_runs_as_a_script():
    completed = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "all clean" in completed.stdout
