"""The analyzer's own test suite: every rule fires, the tree is clean.

Three layers of proof:

* **fixtures** — one seeded-violation file per rule code under
  ``fixtures/`` (non-``.py`` extensions so directory walks never see
  them); each marks every line that must fire with ``# <- RPRnnn``,
  and the findings must be exactly those markers;
* **mechanics** — scoping, suppression comments, fixture impersonation,
  ``--select`` validation, RPR000 degradation on bad files;
* **self-check** — the real tree (``src tests benchmarks examples``)
  analyzes clean, pinning every violation fix this analyzer forced.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (
    ModuleContext,
    RULES_BY_CODE,
    analyze_source,
    collect_files,
    default_rules,
    run_analysis,
)
from repro.analysis.__main__ import main
from repro.analysis.report import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: rule code → its fixture file
FIXTURE_BY_CODE = {
    "RPR001": "rpr001_store_type_check.txt",
    "RPR002": "rpr002_unseeded_random.txt",
    "RPR003": "rpr003_wall_clock.txt",
    "RPR004": "rpr004_direct_store_call.txt",
    "RPR005": "rpr005_hook_event.txt",
    "RPR006": "rpr006_memo_mutation.txt",
    "RPR007": "rpr007_set_iteration.txt",
    "RPR009": "rpr009_kinds_registry.txt",
    "RPR010": "rpr010_blocking_sleep.txt",
}

#: Further specimens of a rule, beyond its table entry: fixture -> code.
MORE_FIXTURES = {"rpr009_reply_rows.txt": "RPR009"}

_MARKER = re.compile(r"#\s*<-\s*(RPR\d{3})")


def marked_findings(code, fixture=None):
    """The ``(line, code)`` multiset a fixture's ``# <- RPRnnn`` markers
    promise (``fixture`` defaults to the code's table entry)."""
    text = (FIXTURES / (fixture or FIXTURE_BY_CODE[code])).read_text()
    return Counter(
        (lineno, marker)
        for lineno, line in enumerate(text.splitlines(), start=1)
        for marker in _MARKER.findall(line)
    )


def test_fixture_table_covers_every_shipped_rule():
    assert set(FIXTURE_BY_CODE) == set(RULES_BY_CODE)


@pytest.mark.parametrize("code", sorted(FIXTURE_BY_CODE))
def test_rule_fires_on_its_fixture(code):
    assert_fires_as_marked(code, FIXTURE_BY_CODE[code])


@pytest.mark.parametrize("fixture", sorted(MORE_FIXTURES))
def test_rule_fires_on_its_further_fixture(fixture):
    assert_fires_as_marked(MORE_FIXTURES[fixture], fixture)


def assert_fires_as_marked(code, fixture):
    path = str(FIXTURES / fixture)
    expected = marked_findings(code, fixture)
    assert expected, f"{path} marks no finding"
    # Exactly this rule and no other: fixtures are single-rule
    # specimens, so cross-firing means a rule lost precision.
    assert {marker for _, marker in expected} == {code}
    findings = run_analysis([path])
    assert Counter((f.line, f.code) for f in findings) == expected, [
        f.render() for f in findings
    ]
    for finding in findings:
        # Findings point at the file on disk, not the impersonated path.
        assert finding.path == path
        assert finding.column >= 1
        assert finding.message


def test_fixtures_are_invisible_to_directory_walks():
    collected = collect_files([str(FIXTURES)])
    assert collected == []  # non-.py extensions: the self-check never scans them


# ----------------------------------------------------------------------
# Engine mechanics


def test_module_context_scoping():
    context = ModuleContext.from_path("src/repro/store/dht/wire.py")
    assert context.realm == "src"
    assert context.subpackage == "store"
    top_level = ModuleContext.from_path("src/repro/errors.py")
    assert top_level.realm == "src"
    assert top_level.subpackage is None
    tests = ModuleContext.from_path("tests/core/test_engine.py")
    assert tests.realm == "tests"
    assert tests.subpackage is None
    other = ModuleContext.from_path("setup.py")
    assert other.realm == "other"


def test_fixture_header_overrides_scoping_but_not_reported_path():
    source = (FIXTURES / "rpr003_wall_clock.txt").read_text()
    report = analyze_source(source, "whatever/on/disk.txt", default_rules())
    # Scoped as core/ (the impersonated module) …
    assert report.context.subpackage == "core"
    # … but findings carry the on-disk path.
    assert {f.path for f in report.findings} == {"whatever/on/disk.txt"}


def test_suppression_comment_on_line_and_line_above():
    base = "# repro: fixture-module src/repro/core/engine.py\nimport time\n"
    inline = base + "t = time.time()  # repro: allow[RPR003]\n"
    above = base + "# repro: allow[RPR003]\nt = time.time()\n"
    unrelated = base + "t = time.time()  # repro: allow[RPR007]\n"
    rules = default_rules()
    assert analyze_source(inline, "f.py", rules).findings == []
    assert analyze_source(inline, "f.py", rules).suppressed == 1
    assert analyze_source(above, "f.py", rules).findings == []
    # A suppression is per-code: allowing a different rule hides nothing.
    assert len(analyze_source(unrelated, "f.py", rules).findings) == 1


def test_select_narrows_and_rejects_unknown_codes():
    fixture = str(FIXTURES / FIXTURE_BY_CODE["RPR002"])
    assert run_analysis([fixture], select=["RPR003"]) == []
    selected = run_analysis([fixture], select=["rpr002"])
    assert len(selected) == sum(marked_findings("RPR002").values())
    with pytest.raises(ValueError, match="RPR999"):
        run_analysis([fixture], select=["RPR999"])


def test_rpr009_resolves_the_registry_one_import_hop_away(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "wire.py").write_text('KINDS = frozenset({"ping", "pong"})\n')
    sender = package / "node.py"
    for import_line in ("from pkg import wire", "from pkg.wire import KINDS"):
        sender.write_text(
            f"{import_line}\n"
            'HANDLERS = {"ping": None, "pnig": None}\n'
            "def reply(network):\n"
            '    network.send("a", "b", "pong")\n'
            '    network.send("a", "b", "pnog")\n'
        )
        findings = run_analysis([str(sender)], select=["RPR009"])
        assert sorted(f.line for f in findings) == [2, 5], import_line
    # No registry in reach: every kind is flagged, not silently accepted.
    sender.write_text('def reply(network):\n    network.send("a", "b", "pong")\n')
    assert len(run_analysis([str(sender)], select=["RPR009"])) == 1


def test_unparseable_file_degrades_to_rpr000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    findings = run_analysis([str(bad)])
    assert [f.code for f in findings] == ["RPR000"]
    assert "syntax error" in findings[0].message


# ----------------------------------------------------------------------
# Reporters and CLI contract


def test_text_and_json_reporters():
    findings = run_analysis([str(FIXTURES / FIXTURE_BY_CODE["RPR006"])])
    total = sum(marked_findings("RPR006").values())
    text = render_text(findings)
    assert "RPR006" in text
    assert f"{total} finding(s)" in text
    payload = json.loads(render_json(findings))
    assert payload["total"] == total
    assert payload["counts"] == {"RPR006": total}
    assert {f["code"] for f in payload["findings"]} == {"RPR006"}
    assert render_text([]) == "0 findings"


def test_cli_exit_codes(capsys):
    clean = main([str(REPO_ROOT / "src" / "repro" / "errors.py")])
    assert clean == 0
    dirty = main([str(FIXTURES / FIXTURE_BY_CODE["RPR001"])])
    assert dirty == 1
    assert main([]) == 2  # no paths
    assert main(["--select", "RPR999", "x.py"]) == 2  # unknown code
    capsys.readouterr()


def test_cli_json_format(capsys):
    code = main(
        [str(FIXTURES / FIXTURE_BY_CODE["RPR004"]), "--format", "json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 1
    assert payload["findings"][0]["code"] == "RPR004"


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in sorted(RULES_BY_CODE):
        assert code in out


# ----------------------------------------------------------------------
# The self-check: the real tree is clean


def test_real_tree_is_clean():
    """The CI gate's contract, pinned as a test.

    This locks in every fix the analyzer forced (seeded RNG fallbacks,
    sorted set unions in ``_fully_decided``, the ``_store_call`` routing
    of ``Participant.rebuild``): reintroducing any of them fails here
    before it can perturb a decision stream.
    """
    roots = [
        str(REPO_ROOT / "src"),
        str(REPO_ROOT / "tests"),
        str(REPO_ROOT / "benchmarks"),
        str(REPO_ROOT / "examples"),
    ]
    findings = run_analysis(roots)
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)
