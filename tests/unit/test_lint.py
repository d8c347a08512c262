"""The lint pass is itself under test: every rule is pinned to a
fixture file that violates it exactly once, the pragma escape hatch is
exercised, HEAD of ``src/``+``tests/`` is asserted clean, and the one
driver is checked to share its baseline, name resolution and parse
across every pass."""

import ast
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.devtools import lint, lockset, protoflow, resource_flow
from repro.devtools.lint import (
    RULES,
    Finding,
    SourceFile,
    iter_python_files,
    lint_paths,
    lint_source,
    main as lint_main,
)

pytestmark = pytest.mark.lint

FIXTURES = Path(__file__).parent.parent / "lint_fixtures"
REPO = Path(__file__).parent.parent.parent

#: fixture file -> (rule id, line of the single expected violation)
EXPECTED = {
    "dt101_broad_except.py": ("DT101", 7),
    "dt201_sleep_poll.py": ("DT201", 9),
    "dt301_thread_leak.py": ("DT301", 7),
    "dt401_wallclock.py": ("DT401", 12),
    "dt501_membership.py": ("DT501", 6),
    "dt501_unknown_tag.py": ("DT501", 7),
    "dt502_kind_chain.py": ("DT502", 6),
    "dt502_no_else.py": ("DT502", 5),
    "dt601_mutable_default.py": ("DT601", 4),
}


def _lint_fixture(name):
    path = FIXTURES / name
    # DT401 is path-scoped; the fixture forces it on explicitly
    deterministic = True if name.startswith("dt401") else None
    return lint_source(path.read_text(), str(path),
                       deterministic=deterministic)


class TestRuleCorpus:
    @pytest.mark.parametrize("name,expected", sorted(EXPECTED.items()),
                             ids=sorted(EXPECTED))
    def test_fixture_violates_exactly_its_rule(self, name, expected):
        rule, line = expected
        findings = _lint_fixture(name)
        assert [(f.rule, f.line) for f in findings] == [(rule, line)], (
            f"{name}: expected exactly one {rule} at line {line}, "
            f"got {findings}"
        )

    def test_corpus_covers_every_rule(self):
        assert {rule for rule, _ in EXPECTED.values()} == set(RULES)

    def test_finding_renders_path_line_rule(self):
        f = Finding(path="a/b.py", line=12, rule="DT101", message="m")
        assert str(f) == "a/b.py:12: DT101 m"


class TestPragma:
    def test_disable_pragma_silences_the_line(self):
        findings = _lint_fixture("pragma_disable.py")
        assert findings == []

    def test_pragma_is_line_scoped(self):
        src = (
            "import time\n"
            "def f(flag):\n"
            "    while flag():\n"
            "        time.sleep(0.01)  # lint: disable=DT201\n"
            "    while flag():\n"
            "        time.sleep(0.01)\n"
        )
        findings = lint_source(src)
        assert [(f.rule, f.line) for f in findings] == [("DT201", 6)]

    def test_disabling_one_rule_keeps_others(self):
        src = "def f(acc=[]):  # lint: disable=DT101\n    return acc\n"
        assert [f.rule for f in lint_source(src)] == ["DT601"]


class TestTreeIsClean:
    def test_src_and_tests_lint_clean_at_head(self):
        findings = lint_paths([REPO / "src", REPO / "tests"])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_fixture_corpus_is_excluded_from_tree_lint(self):
        findings = lint_paths([FIXTURES.parent])
        assert not any("lint_fixtures" in f.path for f in findings)


class TestCli:
    def test_exit_nonzero_on_violation(self, capsys):
        # lint the fixture file directly: exclusion only applies to dirs
        rc = lint_main([str(FIXTURES / "dt601_mutable_default.py")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DT601" in out
        assert "1 finding(s)" in out

    def test_exit_zero_on_clean_tree(self, capsys):
        rc = lint_main([str(REPO / "src" / "repro" / "devtools")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 findings" in out

    def test_list_rules(self, capsys):
        rc = lint_main(["--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for rule_id in RULES:
            assert rule_id in out

    def test_repro_cli_has_lint_subcommand(self, capsys):
        from repro.cli import main as repro_main

        rc = repro_main(["lint", str(REPO / "src" / "repro" / "devtools")])
        assert rc == 0
        assert "0 findings" in capsys.readouterr().out


class TestRegistryRules:
    def test_registered_tag_is_clean(self):
        src = (
            "def handle(msg):\n"
            "    if msg.tag == 'view':\n"
            "        return 1\n"
            "    else:\n"
            "        return 0\n"
        )
        assert lint_source(src) == []

    def test_unknown_tag_names_the_registry(self):
        src = (
            "def handle(msg):\n"
            "    if msg.tag == 'warp_drive':\n"
            "        return 1\n"
            "    else:\n"
            "        return 0\n"
        )
        findings = lint_source(src)
        assert [f.rule for f in findings] == ["DT501"]
        assert "warp_drive" in findings[0].message


class TestDriver:
    def test_update_baseline_covers_every_deep_analyzer(self, tmp_path,
                                                        capsys):
        fixtures = [str(FIXTURES / name) for name in (
            "dt701_inconsistent_lockset.py",
            "dt802_double_unlink.py",
            "dt901_schema_mismatch.py",
        )]
        path = tmp_path / "baseline.json"
        rc = lint_main([*fixtures, "--baseline", str(path),
                        "--update-baseline"])
        assert rc == 0
        keys = list(json.loads(path.read_text())["grandfathered"])
        assert len(keys) == 3
        for rule in ("DT701", "DT802", "DT901"):
            assert any(f":{rule}:" in key for key in keys), keys
        # the one baseline file grandfathers all three passes
        capsys.readouterr()
        rc = lint_main([*fixtures, "--baseline", str(path)])
        assert rc == 0
        assert "3 baselined" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "scan",
        [lint._Analyzer, lockset._ModuleScan, resource_flow._ModuleScan,
         protoflow._ModuleScan],
        ids=["lint", "lockset", "resource_flow", "protoflow"],
    )
    def test_import_of_a_submodule_binds_the_root_name(self, scan):
        src = SourceFile("import os.path\nos.getcwd()\n")
        call = next(n for n in ast.walk(src.tree) if isinstance(n, ast.Call))
        assert scan(src).dotted(call.func) == "os.getcwd"

    def test_json_report_counts_baselined_and_stale_entries(self, tmp_path,
                                                            capsys):
        """The report CI's job summary and SARIF upload read, from one
        run: per-rule baselined counts and the stale keys."""
        dt701 = str(FIXTURES / "dt701_inconsistent_lockset.py")
        dt802 = str(FIXTURES / "dt802_double_unlink.py")
        path = tmp_path / "baseline.json"
        lint_main([dt701, dt802, "--baseline", str(path),
                   "--update-baseline"])
        capsys.readouterr()
        sarif = tmp_path / "lint.sarif"
        rc = lint_main([dt802, "--baseline", str(path), "--json",
                        "--sarif", str(sarif), "--fail-on-stale"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1  # the DT701 entry no longer fires
        assert report["findings"] == []
        assert report["baselined"] == {"DT802": 1}
        assert len(report["stale"]) == 1 and ":DT701:" in report["stale"][0]
        assert json.loads(sarif.read_text())["runs"][0]["results"] == []

    def test_one_parse_per_file(self, monkeypatch):
        real_parse = ast.parse
        parsed = Counter()

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed[str(filename)] += 1
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        paths = [str(REPO / "src"), str(REPO / "tests")]
        assert lint_main(paths) == 0
        assert set(parsed) == {str(p) for p, _ in iter_python_files(paths)}
        assert set(parsed.values()) == {1}
