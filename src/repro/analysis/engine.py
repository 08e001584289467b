"""The AST lint engine behind ``python -m repro.analysis``.

The repo's determinism and store-phase invariants (routing
on the batch, seeded RNG substreams, ``_store_call`` transport discipline,
serialized hook dispatch, exact config round-trips) are enforced by
convention — a violation only surfaces if a decision-stream pin happens
to catch it.  This engine checks them *statically*: each invariant is a
:class:`Rule` record with a stable ``RPRnnn`` code — one row of the
table in :mod:`repro.analysis.rules` — whose ``check`` visits a file's
AST and yields the offending nodes; the engine turns each into a
:class:`Finding`, and the CLI gates CI on an empty result.

Scoping: a rule usually guards one layer (``core/`` must not read wall
clocks, ``cdss/`` must not bypass ``_store_call``), so every checked
file gets a :class:`ModuleContext` describing *where it lives* — its
realm (``src`` / ``tests`` / ``benchmarks`` / ``examples``) and, for
``src/repro`` modules, the subpackage.  A row's ``applies`` predicate
says which contexts it checks.

Suppressions: a finding is silenced by ``# repro: allow[RPRnnn]`` on
the offending line or the line directly above it.  Suppressions are
per-code (``allow[RPR003,RPR007]`` lists several) so an allow for one
invariant never hides a different one.

Fixtures: the rule tests feed the engine files that *should* fail.  A
fixture declares the module it impersonates with a
``# repro: fixture-module src/repro/...`` header, so scoped rules see
the pretended location rather than the fixture's real path.  Fixture
files use a non-``.py`` extension and are therefore invisible to
directory walks — the self-check of the real tree never scans them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Path anchors that name a realm; the first match (outermost part) wins.
REALM_ANCHORS: Tuple[str, ...] = ("src", "tests", "benchmarks", "examples")

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")
_FIXTURE_RE = re.compile(r"#\s*repro:\s*fixture-module\s+(\S+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    code: str
    path: str
    line: int
    column: int
    message: str

    def render(self) -> str:
        """The one-line human-readable form."""
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        """The JSON-reporter form."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }


@dataclass
class ModuleContext:
    """Where a checked file lives, for rule scoping.

    ``path`` is the repo-relative (or as-given) path; ``realm`` is the
    outermost anchor directory (``"other"`` when none matches);
    ``subpackage`` is the first package under ``src/repro`` (e.g.
    ``"store"`` for ``src/repro/store/dht/wire.py``), or ``None`` outside
    ``src``.
    """

    path: str
    realm: str = "other"
    subpackage: Optional[str] = None

    @classmethod
    def from_path(cls, path: str) -> "ModuleContext":
        """Classify ``path`` into realm/subpackage for rule targeting."""
        parts = Path(path).parts
        realm = "other"
        subpackage = None
        for index, part in enumerate(parts):
            if part in REALM_ANCHORS:
                realm = part
                if part == "src" and len(parts) > index + 3:
                    # src / repro / <subpackage> / ...  (a top-level
                    # module like src/repro/errors.py has no subpackage)
                    subpackage = parts[index + 2]
                break
        return cls(path=str(Path(path).as_posix()), realm=realm, subpackage=subpackage)

    def in_module(self, *suffixes: str) -> bool:
        """True when the context path ends with any of ``suffixes``."""
        return any(self.path.endswith(suffix) for suffix in suffixes)


@dataclass(frozen=True)
class Rule:
    """One checkable invariant: a row of :data:`repro.analysis.rules.RULES`.

    ``applies`` says whether the rule checks a file at a given
    :class:`ModuleContext`; ``check`` yields ``(node, message)`` for
    every violation in one parsed module, and :func:`analyze_source`
    anchors the :class:`Finding` at ``node``.  Rules are stateless
    across files — any per-file bookkeeping lives in locals of ``check``.
    """

    code: str
    name: str
    summary: str
    applies: Callable[[ModuleContext], bool]
    check: Callable[[ast.Module, ModuleContext], Iterable[Tuple[ast.AST, str]]]


@dataclass
class FileReport:
    """Everything the engine derived from one file."""

    context: ModuleContext
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Line number → codes allowed on that line (1-based)."""
    allowed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            codes = {
                code.strip().upper()
                for code in match.group(1).split(",")
                if code.strip()
            }
            allowed[lineno] = codes
    return allowed


def _fixture_override(source: str) -> Optional[str]:
    """The pretended module path a fixture header declares, if any."""
    for line in source.splitlines()[:5]:
        match = _FIXTURE_RE.search(line)
        if match:
            return match.group(1)
    return None


def analyze_source(
    source: str,
    path: str,
    rules: Sequence[Rule],
) -> FileReport:
    """Run ``rules`` over one file's source text."""
    override = _fixture_override(source)
    # Rules scope by the pretended location (fixtures impersonate real
    # modules), but findings always point at the file on disk.
    scope = ModuleContext.from_path(override if override else path)
    report = FileReport(context=scope)
    tree = ast.parse(source, filename=path)
    allowed = _suppressions(source)
    for rule in rules:
        if not rule.applies(scope):
            continue
        for node, message in rule.check(tree, scope):
            line = node.lineno
            if any(rule.code in allowed.get(at, ()) for at in (line, line - 1)):
                report.suppressed += 1
                continue
            report.findings.append(
                Finding(rule.code, path, line, node.col_offset + 1, message)
            )
    return report


def collect_files(paths: Iterable[str]) -> List[Path]:
    """Expand files and directories into the ``.py`` files to check.

    Directories are walked recursively for ``*.py`` (``__pycache__``
    skipped); explicit file arguments are taken verbatim whatever their
    extension — that is how the rule tests feed non-``.py`` fixtures.
    """
    collected: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            collected.extend(
                sorted(
                    candidate
                    for candidate in path.rglob("*.py")
                    if "__pycache__" not in candidate.parts
                )
            )
        else:
            collected.append(path)
    return collected


def run_analysis(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Check ``paths`` and return every unsuppressed finding.

    ``select`` narrows to specific rule codes (exact, case-insensitive).
    Unreadable or syntactically invalid files surface as ``RPR000``
    findings rather than crashing the run — a gate that dies on a bad
    file checks nothing else.
    """
    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()
    if select is not None:
        wanted = {code.strip().upper() for code in select}
        unknown = wanted - {rule.code for rule in rules}
        if unknown:
            raise ValueError(
                f"unknown rule codes {sorted(unknown)}; known: "
                f"{sorted(rule.code for rule in rules)}"
            )
        rules = [rule for rule in rules if rule.code in wanted]
    findings: List[Finding] = []
    for path in collect_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(
                Finding("RPR000", str(path), 1, 1, f"cannot read file: {exc}")
            )
            continue
        try:
            report = analyze_source(source, str(path), rules)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    "RPR000",
                    str(path),
                    exc.lineno or 1,
                    (exc.offset or 0) + 1,
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        findings.extend(report.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return findings
