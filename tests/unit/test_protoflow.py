"""The DT90x protocol-conformance analyzer is itself under test: every
rule is pinned to a fixture that violates it exactly once, the
``# speaks:`` / ``# wire:`` annotations and the pragma escape hatch are
exercised, the baseline workflow round-trips, the committed spec and
its checked-in diagram are asserted consistent and fresh, and HEAD of
``src/`` is asserted clean — with no baseline help — inside the runtime
bound ``repro lint`` pays on every run."""

import json
import time
from pathlib import Path

import pytest

from repro.daemon.protocol_spec import spec_errors
from repro.devtools.lint import DEFAULT_BASELINE, Baseline, main as lint_main
from repro.devtools.protoflow import (
    PROTOFLOW_RULES,
    analyze_paths,
    analyze_source,
    render_dot,
)

pytestmark = pytest.mark.lint

FIXTURES = Path(__file__).parent.parent / "lint_fixtures"
REPO = Path(__file__).parent.parent.parent

#: fixture file -> (rule id, line of the single expected violation)
EXPECTED = {
    "dt901_schema_mismatch.py": ("DT901", 14),
    "dt902_unhandled_tag.py": ("DT902", 7),
    "dt903_bad_send.py": ("DT903", 7),
    "dt904_dead_state.py": ("DT904", 14),
}


def _analyze_fixture(name):
    path = FIXTURES / name
    return analyze_source(path.read_text(), str(path))


class TestRuleCorpus:
    @pytest.mark.parametrize("name,expected", sorted(EXPECTED.items()),
                             ids=sorted(EXPECTED))
    def test_fixture_violates_exactly_its_rule(self, name, expected):
        rule, line = expected
        findings = _analyze_fixture(name)
        assert [(f.rule, f.line) for f in findings] == [(rule, line)], (
            f"{name}: expected exactly one {rule} at line {line}, "
            f"got {findings}"
        )

    def test_corpus_covers_every_rule(self):
        assert {rule for rule, _ in EXPECTED.values()} \
            == set(PROTOFLOW_RULES)

    def test_negative_fixture_is_clean(self):
        findings = _analyze_fixture("dt90x_clean.py")
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_finding_renders_path_line_rule(self):
        (f,) = _analyze_fixture("dt903_bad_send.py")
        assert str(f).startswith(
            str(FIXTURES / "dt903_bad_send.py") + ":7: DT903"
        )
        assert f.key.endswith(":DT903:send.client.*.tier")


class TestAnnotations:
    ONE_SIDED = (
        "import struct\n"
        "def emit(k, size):\n"
        "    # wire: k-size (one-sided byte-indexed decoder)\n"
        "    return struct.pack(\"<BB\", k, size)\n"
    )

    def test_one_sided_wire_annotation_exempts_the_record(self):
        assert analyze_source(self.ONE_SIDED) == []

    def test_unpaired_record_without_the_exemption_is_reported(self):
        src = self.ONE_SIDED.replace(
            " (one-sided byte-indexed decoder)", "")
        findings = analyze_source(src)
        assert [f.rule for f in findings] == ["DT901"]
        assert "no unpack" in findings[0].message

    def test_unknown_speaks_endpoint_is_dead_surface(self):
        src = (
            "class Peer:  # speaks: observer\n"
            "    def pump(self, msg):\n"
            "        if msg.tag == \"ack\":\n"
            "            self.handle(msg)\n"
        )
        findings = analyze_source(src)
        assert [f.rule for f in findings] == ["DT904"]
        assert "observer" in findings[0].message

    def test_state_pinned_scope_tightens_the_send_check(self):
        # gap is broker-sendable, but only from the resuming state;
        # pinning the scope to serving must flag it
        src = (
            "class Broker:  # speaks: broker@serving\n"
            "    def announce(self, conn):\n"
            "        conn.send_control(\"gap\", start=0, stop=1)\n"
        )
        findings = analyze_source(src)
        assert [(f.rule, f.line) for f in findings] == [("DT903", 3)]

    def test_native_endianness_is_flagged_even_when_paired(self):
        src = (
            "import struct\n"
            "def roundtrip(v):\n"
            "    return struct.unpack(\"I\", struct.pack(\"I\", v))\n"
        )
        findings = analyze_source(src)
        assert [f.rule for f in findings] == ["DT901", "DT901"]
        assert "native byte order" in findings[0].message


class TestPragma:
    def test_disable_pragma_silences_the_line(self):
        src = (FIXTURES / "dt903_bad_send.py").read_text()
        src = src.replace("# VIOLATION line 7", "# lint: disable=DT903")
        assert analyze_source(src) == []

    def test_disable_all_silences_the_line(self):
        src = (FIXTURES / "dt904_dead_state.py").read_text()
        src = src.replace("# VIOLATION line 14", "# lint: disable=all")
        assert analyze_source(src) == []


class TestBaseline:
    def _fixture_findings(self):
        return analyze_paths([FIXTURES / "dt903_bad_send.py"])

    def test_write_filter_roundtrip(self, tmp_path):
        findings = self._fixture_findings()
        path = tmp_path / "baseline.json"
        Baseline.write(path, findings)
        loaded = Baseline.load(path)
        fresh, matched = loaded.filter(findings)
        assert fresh == [] and matched == [findings[0].key]
        data = json.loads(path.read_text())
        assert "justify" in data["grandfathered"][findings[0].key]

    def test_stale_entries_are_reported(self):
        baseline = Baseline(
            entries={"repro/gone.py:DT903:send.client.*.tier": "old"})
        assert baseline.stale_keys(self._fixture_findings()) == [
            "repro/gone.py:DT903:send.client.*.tier"
        ]

    def test_disabled_and_missing_baselines_are_empty(self, tmp_path, capsys):
        assert Baseline.load(tmp_path / "nope.json").entries == {}
        # --no-baseline ignores a baseline that would match the finding
        path = tmp_path / "baseline.json"
        Baseline.write(path, self._fixture_findings())
        rc = lint_main([str(FIXTURES / "dt903_bad_send.py"),
                        "--baseline", str(path), "--no-baseline"])
        assert rc == 1
        assert "DT903" in capsys.readouterr().out

    def test_committed_baseline_is_empty(self):
        # every finding at introduction was fixed or taught as a false
        # positive (docs/devtools.md has the triage log); keep it that way
        data = json.loads((REPO / DEFAULT_BASELINE).read_text())
        assert [key for key in data["grandfathered"] if ":DT9" in key] == []


class TestSpec:
    def test_spec_is_internally_consistent(self):
        assert spec_errors() == []

    def test_spec_module_alone_passes_the_exercise_checks(self):
        spec = REPO / "src" / "repro" / "daemon" / "protocol_spec.py"
        findings = analyze_paths([spec])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_checked_in_dot_diagram_is_fresh(self):
        committed = (REPO / "docs" / "protocol_states.dot").read_text()
        assert committed == render_dot(), (
            "docs/protocol_states.dot is stale; regenerate with "
            "`repro lint --emit-proto-dot docs/protocol_states.dot`"
        )


class TestTreeIsClean:
    def test_src_has_zero_nonbaselined_findings_at_head(self):
        findings = analyze_paths([REPO / "src"])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_analyzer_is_fast_enough_for_every_lint_run(self):
        start = time.monotonic()
        analyze_paths([REPO / "src"])
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"protoflow took {elapsed:.1f}s over src/"

    def test_fixture_corpus_is_excluded_from_tree_analysis(self):
        findings = analyze_paths([FIXTURES.parent])
        assert findings == []


class TestCli:
    def test_exit_nonzero_on_violation(self, capsys):
        rc = lint_main([str(FIXTURES / "dt901_schema_mismatch.py"),
                        "--no-baseline"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DT901" in out and "dt901_schema_mismatch.py:14" in out

    def test_exit_zero_on_clean_file(self, capsys):
        rc = lint_main([str(FIXTURES / "dt90x_clean.py"),
                        "--no-baseline"])
        assert rc == 0
        assert "0 findings" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        rc = lint_main(["--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for rule_id, meaning in PROTOFLOW_RULES.items():
            assert f"{rule_id}  {meaning}" in out

    def test_emit_dot_writes_the_diagram(self, tmp_path, capsys):
        target = tmp_path / "states.dot"
        rc = lint_main(["--emit-proto-dot", str(target)])
        assert rc == 0
        assert target.read_text() == render_dot()
