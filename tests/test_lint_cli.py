"""CLI contract tests for ``repro lint``: exit codes, envelope, registry."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.api.envelope import ENVELOPE_VERSION, unwrap
from repro.cli import main
from tests.lint_fixtures import FIXTURES_DIR


@pytest.fixture
def clean_tree(tmp_path, monkeypatch):
    """A project tree with no violations, cwd'd into."""
    module = tmp_path / "src" / "repro" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text('"""Clean."""\n\nx = 1\n')
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def dirty_tree(tmp_path, monkeypatch):
    """A project tree with REP001 violations, cwd'd into."""
    destination = tmp_path / "src" / "repro" / "reporting.py"
    destination.parent.mkdir(parents=True)
    shutil.copyfile(FIXTURES_DIR / "rep001_bad.py", destination)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_tree):
        assert main(["lint"]) == 0

    def test_findings_exit_one(self, dirty_tree):
        assert main(["lint"]) == 1

    def test_unknown_rule_exits_two(self, clean_tree, capsys):
        assert main(["lint", "--rule", "NOPE"]) == 2
        assert "unknown rule 'NOPE'" in capsys.readouterr().err

    def test_missing_target_exits_two(self, clean_tree, capsys):
        assert main(["lint", "does/not/exist"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_bad_baseline_exits_two(self, dirty_tree, capsys):
        (dirty_tree / "broken.json").write_text("{not json")
        assert main(["lint", "--baseline", "broken.json"]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestTextOutput:
    def test_findings_render_with_location_and_summary(self, dirty_tree, capsys):
        main(["lint"])
        out = capsys.readouterr().out
        assert "src/repro/reporting.py:" in out
        assert "REP001 error:" in out
        assert "file(s)" in out

    def test_rule_filter_limits_findings(self, dirty_tree, capsys):
        assert main(["lint", "--rule", "REP005"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out


class TestJsonEnvelope:
    def test_envelope_schema_on_dirty_tree(self, dirty_tree, capsys):
        assert main(["lint", "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == ENVELOPE_VERSION
        assert document["kind"] == "lint"
        data = unwrap(document, expected_kind="lint")
        assert data["ok"] is False
        assert data["files_checked"] == 1
        assert {r["id"] for r in data["rules"]} >= {
            "REP001",
            "REP002",
            "REP004",
            "REP005",
            "REP006",
        }
        for finding in data["findings"]:
            assert set(finding) == {"rule", "severity", "path", "line", "message"}

    def test_envelope_on_clean_tree(self, clean_tree, capsys):
        assert main(["lint", "--json"]) == 0
        data = unwrap(json.loads(capsys.readouterr().out), expected_kind="lint")
        assert data["ok"] is True
        assert data["findings"] == []

    def test_envelope_to_file(self, clean_tree, capsys):
        assert main(["lint", "--json", "report.json"]) == 0
        document = json.loads((clean_tree / "report.json").read_text())
        assert document["kind"] == "lint"


class TestBaselineFlow:
    def _baseline_for(self, tree, capsys) -> dict:
        main(["lint", "--json"])
        data = unwrap(json.loads(capsys.readouterr().out), expected_kind="lint")
        return {
            "version": 1,
            "findings": [
                dict(
                    rule=f["rule"],
                    path=f["path"],
                    message=f["message"],
                    justification="grandfathered in the CLI round-trip test",
                )
                for f in data["findings"]
            ],
        }

    def test_default_baseline_is_picked_up_from_cwd(self, dirty_tree, capsys):
        document = self._baseline_for(dirty_tree, capsys)
        (dirty_tree / ".repro-lint-baseline.json").write_text(json.dumps(document))
        assert main(["lint"]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_no_baseline_flag_ignores_default(self, dirty_tree, capsys):
        document = self._baseline_for(dirty_tree, capsys)
        (dirty_tree / ".repro-lint-baseline.json").write_text(json.dumps(document))
        assert main(["lint", "--no-baseline"]) == 1

    def test_explicit_baseline_path(self, dirty_tree, capsys):
        document = self._baseline_for(dirty_tree, capsys)
        (dirty_tree / "custom.json").write_text(json.dumps(document))
        assert main(["lint", "--baseline", "custom.json"]) == 0


class TestListRules:
    def test_text_listing(self, clean_tree, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP002", "REP004", "REP005", "REP006"):
            assert rule_id in out

    def test_json_listing(self, clean_tree, capsys):
        assert main(["lint", "--list-rules", "--json"]) == 0
        data = unwrap(json.loads(capsys.readouterr().out), expected_kind="lint")
        assert len(data["rules"]) >= 5


class TestWriteRegistry:
    def test_registry_files_written(self, tmp_path, monkeypatch, capsys):
        module = tmp_path / "src" / "repro" / "store.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "from repro.faults import fault_point\n\n\n"
            "def persist():\n"
            '    fault_point("store.persist")\n'
        )
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--write-registry", "docs"]) == 0
        registry = json.loads((tmp_path / "docs" / "fault_sites.json").read_text())
        assert registry["version"] == 1
        assert [s["site"] for s in registry["sites"]] == ["store.persist"]
        markdown = (tmp_path / "docs" / "fault_sites.md").read_text()
        assert "store.persist" in markdown

    def test_registry_on_missing_tree_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--write-registry", "docs"]) == 2
        assert "does not exist" in capsys.readouterr().err
