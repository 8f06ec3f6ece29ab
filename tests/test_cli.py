from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from litsurvey.cli import main
from litsurvey.errors import LoadError
from litsurvey.substrate import substrate_load

from e2e_fixture import write_config_yaml


def invoke(*args):
    return CliRunner().invoke(main, list(args))


class TestGenerate:
    def test_end_to_end_offline(self, tmp_path):
        config_path = write_config_yaml(tmp_path)
        result = invoke("generate", "--config", str(config_path))
        assert result.exit_code == 0, result.output
        assert "survey:" in result.output
        workdir = tmp_path / "run"
        assert (workdir / "survey.md").exists()
        assert (workdir / "survey.citations.json").exists()
        assert (workdir / "substrate" / "papers.json").exists()

    def test_missing_topic_and_config_is_config_error(self):
        result = invoke("generate")
        assert result.exit_code == 2
        assert "config error" in result.output

    def test_resume_with_changed_config_exits_2(self, tmp_path):
        config_path = write_config_yaml(tmp_path)
        first = invoke("generate", "--config", str(config_path), "--stop-after", "retrieval")
        assert first.exit_code == 0, first.output
        # mutate a behavioral field
        text = Path(config_path).read_text().replace("per_seed_cap: 20", "per_seed_cap: 9")
        Path(config_path).write_text(text)
        second = invoke("generate", "--config", str(config_path), "--resume")
        assert second.exit_code == 2
        assert "refusing to resume" in second.output

    def test_missing_fixture_file_is_config_error(self, tmp_path):
        config_path = write_config_yaml(tmp_path)
        config = Path(config_path).read_text().replace("papers.json", "missing.json")
        Path(config_path).write_text(config)
        result = invoke("generate", "--config", str(config_path))
        assert result.exit_code == 2
        assert "config error" in result.output

    def test_wrongly_typed_scalar_is_a_one_line_config_error(self, tmp_path):
        config_path = write_config_yaml(tmp_path)
        text = Path(config_path).read_text().replace("batch_size: 32", "batch_size: '32'")
        Path(config_path).write_text(text)
        result = invoke("generate", "--config", str(config_path))
        assert result.exit_code == 2
        assert result.output.splitlines() == [
            "config error: embedding.batch_size must be int, got '32' (str)"
        ]
        assert not (tmp_path / "run").exists()

    def test_stage_failure_exits_3_and_keeps_checkpoint(self, tmp_path):
        config_path = write_config_yaml(tmp_path)
        # A judge that never emits valid verdicts fails the retrieval stage.
        rules_path = tmp_path / "rules.json"
        rules = json.loads(rules_path.read_text())
        for rule in rules["rules"]:
            if "seed_filter" in rule["pattern"]:
                rule["replies"] = ["never valid json"]
        rules_path.write_text(json.dumps(rules))
        result = invoke("generate", "--config", str(config_path))
        assert result.exit_code == 3
        assert "stage failure" in result.output
        assert (tmp_path / "run" / "substrate" / "commit.json").exists()
        assert not (tmp_path / "run" / "checkpoint.json").exists()


class TestResumeBrokenRunDirectory:
    """A run directory that cannot be resumed exits 2 with one line."""

    def _stopped(self, tmp_path) -> tuple[Path, Path]:
        config_path = write_config_yaml(tmp_path)
        first = invoke("generate", "--config", str(config_path), "--stop-after", "understanding")
        assert first.exit_code == 0, first.output
        return config_path, tmp_path / "run"

    def _resume_fails_cleanly(self, config_path):
        result = invoke("generate", "--config", str(config_path), "--resume")
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert len(result.output.strip().splitlines()) == 1
        assert "cannot load" in result.output
        return result

    def test_deleted_substrate(self, tmp_path):
        config_path, workdir = self._stopped(tmp_path)
        shutil.rmtree(workdir / "substrate")
        self._resume_fails_cleanly(config_path)

    def test_altered_keynote(self, tmp_path):
        config_path, workdir = self._stopped(tmp_path)
        keynotes = workdir / "substrate" / "keynotes.json"
        data = bytearray(keynotes.read_bytes())
        at = next(i for i in range(len(data) // 2, len(data)) if chr(data[i]).isalpha())
        data[at] ^= 0x20  # swap one letter's case: still valid JSON
        keynotes.write_bytes(bytes(data))
        with pytest.raises(LoadError, match=keynotes.name):
            substrate_load(workdir / "substrate")
        self._resume_fails_cleanly(config_path)

    def test_torn_checkpoint(self, tmp_path):
        config_path, workdir = self._stopped(tmp_path)
        record = workdir / "substrate" / "commit.json"
        record.write_text(record.read_text()[:40])
        self._resume_fails_cleanly(config_path)

    def test_record_with_stage_events(self, tmp_path):
        # Run directories written before the stage entries lost their events.
        config_path, workdir = self._stopped(tmp_path)
        record = workdir / "substrate" / "commit.json"
        doc = json.loads(record.read_text())
        for seq, entry in enumerate(doc["stages"]):
            entry["events"] = [{"seq": seq, "kind": "stage_completed", "stage": entry["stage"]}]
        record.write_text(json.dumps(doc))
        assert "commit.json" in self._resume_fails_cleanly(config_path).output

    def test_checkpoint_missing_fields(self, tmp_path):
        config_path, workdir = self._stopped(tmp_path)
        record = workdir / "substrate" / "commit.json"
        doc = json.loads(record.read_text())
        for field in doc:
            record.write_text(json.dumps({k: v for k, v in doc.items() if k != field}))
            self._resume_fails_cleanly(config_path)


class TestResumeBrokenFinishedRun(TestResumeBrokenRunDirectory):
    """The same refusals once the run has finished and its record vouches
    for the survey, so that a resume would otherwise decode nothing."""

    def _stopped(self, tmp_path) -> tuple[Path, Path]:
        config_path = write_config_yaml(tmp_path)
        first = invoke("generate", "--config", str(config_path))
        assert first.exit_code == 0, first.output
        record = json.loads((tmp_path / "run" / "substrate" / "commit.json").read_text())
        assert "survey" in record
        return config_path, tmp_path / "run"

    def test_checkpoint_missing_fields(self, tmp_path):
        # Without its survey entry the record is an older run's, which
        # resumes; without any other field it is refused.
        config_path, workdir = self._stopped(tmp_path)
        record = workdir / "substrate" / "commit.json"
        doc = json.loads(record.read_text())
        for field in [f for f in doc if f != "survey"]:
            record.write_text(json.dumps({k: v for k, v in doc.items() if k != field}))
            self._resume_fails_cleanly(config_path)
        record.write_text(json.dumps({k: v for k, v in doc.items() if k != "survey"}))
        resumed = invoke("generate", "--config", str(config_path), "--resume")
        assert resumed.exit_code == 0, resumed.output
        assert json.loads(record.read_text()) == doc


class TestEvaluate:
    def test_evaluate_written_survey(self, tmp_path):
        config_path = write_config_yaml(tmp_path)
        assert invoke("generate", "--config", str(config_path)).exit_code == 0
        survey = tmp_path / "run" / "survey.md"
        result = invoke("evaluate", "--config", str(config_path), "--survey", str(survey))
        assert result.exit_code == 0, result.output
        assert "citation_recall\t1.000" in result.output
        assert "valid_citation_ratio\t1.000" in result.output
        assert (tmp_path / "run" / "survey.report.json").exists()

    def test_missing_sidecar_exits_4(self, tmp_path):
        config_path = write_config_yaml(tmp_path)
        assert invoke("generate", "--config", str(config_path)).exit_code == 0
        (tmp_path / "run" / "survey.citations.json").unlink()
        result = invoke(
            "evaluate", "--config", str(config_path),
            "--survey", str(tmp_path / "run" / "survey.md"),
        )
        assert result.exit_code == 4


class TestInspect:
    def _generated(self, tmp_path):
        config_path = write_config_yaml(tmp_path)
        assert invoke("generate", "--config", str(config_path)).exit_code == 0
        return str(tmp_path / "run")

    def test_inspect_clusters_table(self, tmp_path):
        workdir = self._generated(tmp_path)
        result = invoke("inspect", "clusters", "--workdir", workdir)
        assert result.exit_code == 0
        assert "Graph Retrieval" in result.output

    def test_inspect_keynote(self, tmp_path):
        workdir = self._generated(tmp_path)
        result = invoke("inspect", "keynote", "2406.10001", "--workdir", workdir)
        assert result.exit_code == 0
        assert "tldr:" in result.output

    def test_unknown_keynote_id(self, tmp_path):
        workdir = self._generated(tmp_path)
        result = invoke("inspect", "keynote", "nope", "--workdir", workdir)
        assert result.exit_code == 1

    def test_inspect_outline(self, tmp_path):
        workdir = self._generated(tmp_path)
        result = invoke("inspect", "outline", "--workdir", workdir)
        assert result.exit_code == 0
        assert "Foundations" in result.output

    def test_unknown_selector_is_usage_error(self, tmp_path):
        workdir = self._generated(tmp_path)
        result = invoke("inspect", "nonsense", "--workdir", workdir)
        assert result.exit_code == 2


class TestCache:
    def test_cache_clear(self, tmp_path):
        config_path = write_config_yaml(tmp_path)
        assert invoke("generate", "--config", str(config_path)).exit_code == 0
        cache_dir = tmp_path / "run" / "cache"
        assert any(cache_dir.rglob("*.log"))
        result = invoke("cache", "clear", "--workdir", str(tmp_path / "run"))
        assert result.exit_code == 0
        assert not cache_dir.exists()


def test_init_config_writes_defaults(tmp_path):
    out = tmp_path / "cfg.yaml"
    result = invoke("init-config", "--topic", "alpha", "--out", str(out))
    assert result.exit_code == 0
    text = out.read_text()
    assert "max_seed_papers: 15" in text
    assert "per_seed_cap: 20" in text
    assert "context_window: 512000" in text
