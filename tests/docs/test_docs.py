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


def test_source_statements_stay_under_the_ratchet():
    assert check_docs.check_source_statements() == []


def _problem_naming(name, size, unit="lines"):
    """The one problem the ``unit`` check reports about ``name`` being
    ``size`` long, whatever else it reports."""
    check = {"lines": check_docs.check_source_lines,
             "statements": check_docs.check_source_statements}[unit]
    prefix = f"{name}: {size} {unit} exceed"
    (problem,) = [p for p in check() if p.startswith(prefix)]
    return problem


def test_an_oversized_module_is_named(monkeypatch):
    sizes = check_docs.module_lines()
    largest = max(sizes, key=sizes.get)
    monkeypatch.setattr(check_docs, "MODULE_LINE_CEILING", sizes[largest] - 1)
    assert "per-module ceiling" in _problem_naming(largest, sizes[largest])


def test_an_oversized_function_is_named(monkeypatch):
    sizes = check_docs.function_lines()
    longest = max(sizes, key=sizes.get)
    monkeypatch.setattr(check_docs, "FUNCTION_LINE_CEILING", sizes[longest] - 1)
    assert "per-function ceiling" in _problem_naming(longest, sizes[longest])
    assert longest.endswith(": write_transactions")


def test_an_oversized_module_is_named_in_statements(monkeypatch):
    sizes = check_docs.module_statements()
    largest = max(sizes, key=sizes.get)
    monkeypatch.setattr(check_docs, "MODULE_STATEMENT_CEILING", sizes[largest] - 1)
    problem = _problem_naming(largest, sizes[largest], "statements")
    assert "per-module ceiling" in problem and "MODULE_STATEMENT_CEILING" in problem


def test_an_oversized_function_is_named_in_statements(monkeypatch):
    sizes = check_docs.function_statements()
    longest = max(sizes, key=sizes.get)
    monkeypatch.setattr(check_docs, "FUNCTION_STATEMENT_CEILING", sizes[longest] - 1)
    problem = _problem_naming(longest, sizes[longest], "statements")
    assert "per-function ceiling" in problem and "FUNCTION_STATEMENT_CEILING" in problem
    assert longest.endswith(": _minimise")


def test_a_docstring_is_not_a_statement(tmp_path, monkeypatch):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        '"""Module."""\n\n\ndef f(x):\n    """Doc."""\n    "not a docstring"\n'
        "    y = x; return y\n"
    )
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    monkeypatch.setattr(check_docs, "DOCSTRING_ROOT", package)
    assert check_docs.module_statements() == {"src/repro/m.py": 4}
    assert check_docs.function_statements() == {"src/repro/m.py:4: f": 4}
    assert check_docs.module_lines() == {"src/repro/m.py": 7}


def test_every_ceiling_exceeded_at_once_is_named(monkeypatch):
    # A tree over the total ceiling as well still names the module and
    # the function: each problem is found by what it is about.
    modules, functions = check_docs.module_lines(), check_docs.function_lines()
    largest = max(modules, key=modules.get)
    longest = max(functions, key=functions.get)
    monkeypatch.setattr(check_docs, "MODULE_LINE_CEILING", modules[largest] - 1)
    monkeypatch.setattr(check_docs, "FUNCTION_LINE_CEILING", functions[longest] - 1)
    monkeypatch.setattr(check_docs, "SOURCE_LINE_CEILING", sum(modules.values()) - 1)
    assert "per-module ceiling" in _problem_naming(largest, modules[largest])
    assert "per-function ceiling" in _problem_naming(longest, functions[longest])
    total = f"src/repro: {sum(modules.values())} source lines exceed"
    assert any(p.startswith(total) for p in check_docs.check_source_lines())


def test_gate_runs_as_a_script():
    completed = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "all clean" in completed.stdout
