#!/usr/bin/env python3
"""Documentation gate: docstring coverage, link integrity, honest snippets,
and the source-line ratchet.

Four checks, all stdlib-only so the gate runs anywhere the tests run
(CI additionally runs ``ruff check`` with the D100-D103 rules — this
tool mirrors that docstring contract for environments without ruff):

1. **Docstring coverage** — every public module, class, method, and
   function under ``src/repro`` carries a docstring.  A def-line
   ``# noqa: D10x`` waives one definition (matching the ruff gate's
   waiver syntax); private names (leading underscore) and dunders are
   out of scope.

2. **Markdown link integrity** — every relative link in the checked
   markdown files resolves to a file that exists.  External links
   (``http``/``https``/``mailto``) are not fetched.

3. **Honest CLI snippets** — every ``python -m repro.analysis``
   invocation quoted in the docs names only flags the real parser
   accepts, every rule code passed to ``--select`` is a registered
   rule, and the ``| RPRnnn |`` rows of ARCHITECTURE.md's "Determinism
   invariants" table are exactly the registered codes.  Docs that drift
   from the CLI or the rule table fail the build.

4. **Source-line ratchet** — the total line count of
   ``src/repro/**/*.py`` (what ``wc -l`` reports) must not exceed
   ``SOURCE_LINE_CEILING``.  ROADMAP tracks library size as a number
   that goes *down*: a PR that shrinks the library lowers the ceiling
   to the count this tool prints; one that must grow it raises the
   ceiling in the same diff, where review sees it.  No single file may
   exceed ``MODULE_LINE_CEILING`` either — the size of the largest
   module — so a 1,400-line class is caught at review, and no single
   function ``FUNCTION_LINE_CEILING`` — the length of the longest one,
   ``CentralUpdateStore.write_transactions`` — so a 200-line method is.
   The same three ceilings are kept in AST *statements* too, docstrings
   excluded (``SOURCE_STATEMENT_CEILING`` and its two twins): a line
   count rewards packing two statements onto one line and punishes a
   docstring, a statement count does neither.  Each unit keeps its own
   rule: a ceiling is lowered to what this tool prints, or raised in
   the diff that needs it.

Usage:
    PYTHONPATH=src python tools/check_docs.py

Exit status 0 when clean, 1 with findings (one per line, file:line).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

DOCSTRING_ROOT = REPO / "src" / "repro"
MARKDOWN_FILES = (
    "README.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/BENCHMARKS.md",
)

#: The markdown file whose "Determinism invariants" table lists one
#: ``| RPRnnn |`` row per registered rule (see check 3 above).
INVARIANTS_DOC = "docs/ARCHITECTURE.md"

#: Ceiling on ``wc -l`` over src/repro/**/*.py (see check 4 above).
SOURCE_LINE_CEILING = 13488

#: Ceiling on any one file under src/repro: the largest one,
#: ``store/dht/driver.py`` (``store/central.py`` is 685,
#: ``store/dht/controllers.py`` 603).
MODULE_LINE_CEILING = 740

#: Ceiling on any one function or method under src/repro, ``def`` line
#: to last line: the longest one, ``CentralUpdateStore.write_transactions``
#: (``_HostNode.wipe`` is 76, ``Participant.rebuild`` 70).
FUNCTION_LINE_CEILING = 78

#: The same three ceilings in AST statements, docstrings excluded
#: (``ast.stmt`` nodes; a function's own ``def`` counts): the total,
#: the largest module (``store/dht/driver.py``) and the longest
#: function (``flatten._minimise``).
SOURCE_STATEMENT_CEILING = 5038
MODULE_STATEMENT_CEILING = 331
FUNCTION_STATEMENT_CEILING = 45

_NOQA = re.compile(r"#\s*noqa:\s*([A-Z0-9, ]+)")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_ANALYSIS_CLI = re.compile(r"python -m repro\.analysis[^\n`]*")
_INVARIANT_ROW = re.compile(r"^\| (RPR\d{3}) \|")


def _waived(source_lines, node) -> bool:
    """True when the def/class line carries a ``# noqa: D...`` waiver."""
    line = source_lines[node.lineno - 1]
    match = _NOQA.search(line)
    return bool(match) and any(
        code.strip().startswith("D") for code in match.group(1).split(",")
    )


def check_docstrings() -> list:
    """Public definitions under src/repro missing a docstring."""
    problems = []
    for path in sorted(DOCSTRING_ROOT.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        rel = path.relative_to(REPO)
        if not ast.get_docstring(tree):
            problems.append(f"{rel}:1: missing module docstring")
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node.name.startswith("_"):
                continue
            if ast.get_docstring(node) or _waived(lines, node):
                continue
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            problems.append(
                f"{rel}:{node.lineno}: missing docstring on public "
                f"{kind} {node.name!r}"
            )
    return problems


def check_links() -> list:
    """Relative markdown links that do not resolve to a file."""
    problems = []
    for name in MARKDOWN_FILES:
        path = REPO / name
        if not path.exists():
            problems.append(f"{name}:1: checked markdown file is missing")
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for target in _LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                relative = target.split("#", 1)[0]
                if not relative:
                    continue
                if not (path.parent / relative).exists():
                    problems.append(
                        f"{name}:{lineno}: broken relative link {target!r}"
                    )
    return problems


def invariant_rows(text: str) -> list:
    """The rule codes of the ``| RPRnnn |`` rows in the "Determinism
    invariants" section of ``text``, in order."""
    codes = []
    in_section = False
    for line in text.splitlines():
        if line.startswith("## "):
            in_section = line.startswith("## Determinism invariants")
        elif in_section and (row := _INVARIANT_ROW.match(line)):
            codes.append(row.group(1))
    return codes


def check_cli_snippets() -> list:
    """Quoted ``python -m repro.analysis`` calls using unreal flags, and
    an invariants table that is not exactly the rule registry."""
    from repro.analysis.__main__ import build_parser
    from repro.analysis.rules import RULES_BY_CODE

    known_flags = set()
    for action in build_parser()._actions:
        known_flags.update(action.option_strings)
    known_codes = set(RULES_BY_CODE)

    problems = []
    rows = invariant_rows((REPO / INVARIANTS_DOC).read_text())
    missing = sorted(known_codes - set(rows))
    surplus = sorted(
        code for code in set(rows) if code not in known_codes or rows.count(code) > 1
    )
    if missing or surplus:
        problems.append(
            f"{INVARIANTS_DOC}: the Determinism invariants table drifts from "
            f"the rule registry (missing rows: {missing}; unregistered or "
            f"repeated rows: {surplus})"
        )
    for name in MARKDOWN_FILES:
        path = REPO / name
        if not path.exists():
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for snippet in _ANALYSIS_CLI.findall(line):
                tokens = snippet.split()
                for index, token in enumerate(tokens):
                    flag, _, inline_value = token.partition("=")
                    if not flag.startswith("--"):
                        continue
                    if flag not in known_flags:
                        problems.append(
                            f"{name}:{lineno}: snippet names unknown "
                            f"flag {flag!r} (known: {sorted(known_flags)})"
                        )
                        continue
                    if flag == "--select":
                        value = inline_value or (
                            tokens[index + 1]
                            if index + 1 < len(tokens)
                            else ""
                        )
                        unknown = sorted(
                            set(value.split(",")) - known_codes - {""}
                        )
                        if unknown:
                            problems.append(
                                f"{name}:{lineno}: --select names unknown "
                                f"rule codes {unknown}"
                            )
    return problems


def _trees():
    """``(path relative to the repo, syntax tree)`` of every file under
    src/repro."""
    for path in sorted(DOCSTRING_ROOT.rglob("*.py")):
        yield str(path.relative_to(REPO)), ast.parse(path.read_text())


def _statements(node, docstrings: set) -> int:
    """The ``ast.stmt`` nodes in ``node`` (itself included) that are not
    one of ``docstrings``."""
    return sum(
        isinstance(inner, ast.stmt) and id(inner) not in docstrings
        for inner in ast.walk(node)
    )


def _docstrings(tree) -> set:
    """The ids of the docstring expressions in ``tree``."""
    return {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }


def module_lines() -> dict:
    """Lines per file under src/repro, counted the way ``wc -l`` does."""
    return {
        str(path.relative_to(REPO)): path.read_text().count("\n")
        for path in sorted(DOCSTRING_ROOT.rglob("*.py"))
    }


def module_statements() -> dict:
    """Statements per file under src/repro, docstrings excluded."""
    return {name: _statements(tree, _docstrings(tree)) for name, tree in _trees()}


def source_lines() -> int:
    """Total lines under src/repro."""
    return sum(module_lines().values())


def _functions():
    """``(key, node, docstrings of its file)`` per function under
    src/repro, keyed ``file:line: name``."""
    for name, tree in _trees():
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{name}:{node.lineno}: {node.name}", node, docstrings


def function_lines() -> dict:
    """Lines per function under src/repro (``def`` line to last line),
    keyed ``file:line: name``."""
    return {key: node.end_lineno - node.lineno + 1 for key, node, _ in _functions()}


def function_statements() -> dict:
    """Statements per function under src/repro (its ``def`` included,
    docstrings excluded), keyed like :func:`function_lines`."""
    return {key: _statements(node, docs) for key, node, docs in _functions()}


def _over(sizes: dict, unit: str, scope: str, ceiling: str) -> list:
    """A problem for every entry of ``sizes`` above the ceiling named
    ``ceiling`` (a module global, read when called)."""
    limit = globals()[ceiling]
    return [
        f"{name}: {size} {unit} exceed the per-{scope} ceiling {limit} "
        f"({ceiling} in tools/check_docs.py)"
        for name, size in sizes.items()
        if size > limit
    ]


def check_source_lines() -> list:
    """The library, one module or one function of it, outgrowing its
    ratcheted line ceiling."""
    sizes = module_lines()
    problems = _over(sizes, "lines", "module", "MODULE_LINE_CEILING")
    problems += _over(function_lines(), "lines", "function", "FUNCTION_LINE_CEILING")
    if sum(sizes.values()) > SOURCE_LINE_CEILING:
        problems.append(
            f"src/repro: {sum(sizes.values())} source lines exceed the ceiling "
            f"{SOURCE_LINE_CEILING} (SOURCE_LINE_CEILING in tools/check_docs.py)"
        )
    return problems


def check_source_statements() -> list:
    """The library, one module or one function of it, outgrowing its
    ratcheted statement ceiling."""
    sizes = module_statements()
    problems = _over(sizes, "statements", "module", "MODULE_STATEMENT_CEILING")
    problems += _over(
        function_statements(), "statements", "function", "FUNCTION_STATEMENT_CEILING"
    )
    if sum(sizes.values()) > SOURCE_STATEMENT_CEILING:
        problems.append(
            f"src/repro: {sum(sizes.values())} statements exceed the ceiling "
            f"{SOURCE_STATEMENT_CEILING} (SOURCE_STATEMENT_CEILING in tools/check_docs.py)"
        )
    return problems


def _largest(sizes: dict) -> str:
    """``name is size`` for the largest entry of ``sizes``."""
    name = max(sizes, key=sizes.get)
    return f"{name} is {sizes[name]}"


def main() -> int:
    """Run all four checks; print findings; exit non-zero on any."""
    problems = (
        check_docstrings()
        + check_links()
        + check_cli_snippets()
        + check_source_lines()
        + check_source_statements()
    )
    lines, statements = module_lines(), module_statements()
    print(
        f"check_docs: src/repro is {sum(lines.values())} lines "
        f"(ceiling {SOURCE_LINE_CEILING}); largest module {_largest(lines)} "
        f"(ceiling {MODULE_LINE_CEILING}); longest function "
        f"{_largest(function_lines())} (ceiling {FUNCTION_LINE_CEILING})"
    )
    print(
        f"check_docs: src/repro is {sum(statements.values())} statements "
        f"(ceiling {SOURCE_STATEMENT_CEILING}); largest module "
        f"{_largest(statements)} (ceiling {MODULE_STATEMENT_CEILING}); longest "
        f"function {_largest(function_statements())} "
        f"(ceiling {FUNCTION_STATEMENT_CEILING})"
    )
    for problem in problems:
        print(problem)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)")
        return 1
    print("check_docs: docstrings, links, CLI snippets, lines and statements all clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
