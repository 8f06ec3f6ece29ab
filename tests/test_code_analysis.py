from __future__ import annotations

import json

import pytest

from litsurvey.code_analysis import (
    CodeAnalysisConfig,
    LoopState,
    PseudocodeReview,
    RepoSnapshot,
    batch_code_report,
    environment_report,
    run_pseudocode_loop,
)
from litsurvey.errors import InvalidInputError
from litsurvey.gateway import BackendProfile
from litsurvey.model import PaperId
from litsurvey.runlog import RunLog
from litsurvey.scripted import ScriptedTransport

from conftest import scripted_gateway
from doubles import CutFirstReply, expected_batch_calls


def repo(files=None) -> RepoSnapshot:
    return RepoSnapshot(
        paper_id=PaperId("2406.00001"),
        files=files
        or {
            "main.py": "entry point",
            "core/algo.py": "core algorithm",
            "util/io.py": "utilities",
            "requirements.txt": "numpy==1.26\nrequests>=2.28",
            "README.md": "# Demo repo",
        },
    )


def plan(*ops):
    return json.dumps([o if isinstance(o, dict) else {"op": o} for o in ops])


REVIEW = json.dumps(
    {
        "conciseness": 7,
        "logical_structure": 8,
        "implementation_specificity": 6,
        "suggestions": ["tighten the io section"],
    }
)


def planner_transport(*plans) -> ScriptedTransport:
    t = ScriptedTransport()
    t.add("planning repository-level pseudocode", *plans)
    t.add("Write repository-level pseudocode", "PSEUDOCODE v1")
    t.add("Score this pseudocode", REVIEW)
    t.add("Revise this pseudocode", "PSEUDOCODE revised")
    return t


class TestLoopLegality:
    def test_minimal_legal_trace_ends_round_six(self):
        transport = planner_transport(
            plan({"op": "get_source_code", "path": "main.py"}),
            plan({"op": "get_source_code", "path": "core/algo.py"}),
            plan({"op": "get_source_code", "path": "util/io.py"}),
            plan("create"),
            plan("review"),
            plan("finish"),
        )
        gw = scripted_gateway(transport)
        pseudocode, trace = run_pseudocode_loop(repo(), gw)
        assert pseudocode == "PSEUDOCODE v1"
        assert trace[-1]["op"] == "finish"
        assert trace[-1]["round"] == 6
        ops = [t["op"] for t in trace]
        assert ops == ["get_source_code"] * 3 + ["create", "review", "finish"]

    def test_create_before_three_reads_rejected_then_legal_trace(self):
        transport = planner_transport(
            plan("create"),  # illegal: zero reads
            plan({"op": "get_source_code", "path": "main.py"}),
            plan({"op": "get_source_code", "path": "core/algo.py"}),
            plan({"op": "get_source_code", "path": "util/io.py"}),
            plan("create"),
            plan("finish"),
        )
        gw = scripted_gateway(transport)
        runlog = RunLog()
        pseudocode, trace = run_pseudocode_loop(repo(), gw, runlog=runlog)
        rejections = [e for e in runlog.of_kind("op_rejected") if e["op"] == "create"]
        assert len(rejections) == 1
        assert pseudocode == "PSEUDOCODE v1"
        assert [t["op"] for t in trace].count("create") == 1

    def test_forced_revise_after_three_non_revise_rounds(self):
        transport = planner_transport(
            plan({"op": "get_source_code", "path": "main.py"}),
            plan({"op": "get_source_code", "path": "core/algo.py"}),
            plan({"op": "get_source_code", "path": "util/io.py"}),
            plan("create"),       # round 4: create
            plan("review"),       # post-create round 1
            plan("review"),       # post-create round 2
            plan("review"),       # post-create round 3
            plan("review"),       # planner wants a 4th non-revise round...
            plan("finish"),
        )
        gw = scripted_gateway(transport)
        runlog = RunLog()
        _, trace = run_pseudocode_loop(repo(), gw, runlog=runlog)
        forced = runlog.of_kind("forced_revise")
        assert len(forced) == 1
        assert forced[0]["round"] == 8  # 4th round after creation
        forced_ops = [t for t in trace if t.get("forced")]
        assert len(forced_ops) == 1 and forced_ops[0]["op"] == "revise"
        # cadence invariant: never more than 3 post-create rounds between revisions
        post_create = [t for t in trace if t["op"] in ("review", "revise") or t["op"] == "finish"]
        gaps, gap = [], 0
        for t in post_create:
            if t["op"] == "revise":
                gaps.append(gap)
                gap = 0
            else:
                gap += 1
        assert all(g <= 3 for g in gaps)

    def test_a_cut_revise_reply_is_retried(self):
        scripted = planner_transport(
            plan({"op": "get_source_code", "path": "main.py"}),
            plan({"op": "get_source_code", "path": "core/algo.py"}),
            plan({"op": "get_source_code", "path": "util/io.py"}),
            plan("create"),
            plan("revise"),
            plan("finish"),
        )
        transport = CutFirstReply(scripted, "code.revise")
        pseudocode, trace = run_pseudocode_loop(repo(), scripted_gateway(transport))
        assert pseudocode == "PSEUDOCODE revised"
        first, retry = scripted.calls_matching("Revise this pseudocode")
        assert transport.cut == [first]
        assert "answer more briefly" in retry.prompt
        assert [t["op"] for t in trace][-2:] == ["revise", "finish"]

    def test_round_exhaustion_returns_latest_pseudocode(self):
        transport = planner_transport(
            plan({"op": "get_source_code", "path": "main.py"}),
            plan({"op": "get_source_code", "path": "core/algo.py"}),
            plan({"op": "get_source_code", "path": "util/io.py"}),
            plan("create"),
            plan("review"),  # sticky: never finishes
        )
        gw = scripted_gateway(transport)
        runlog = RunLog()
        pseudocode, trace = run_pseudocode_loop(repo(), gw, max_rounds=10, runlog=runlog)
        assert pseudocode  # latest pseudocode returned
        assert max(t["round"] for t in trace) == 10
        assert runlog.of_kind("loop_exhausted")

    def test_sub_plan_executes_in_order_within_one_round(self):
        transport = planner_transport(
            plan(
                {"op": "get_source_code", "path": "main.py"},
                {"op": "get_source_code", "path": "core/algo.py"},
                {"op": "get_source_code", "path": "util/io.py"},
                {"op": "create"},
                {"op": "finish"},
            ),
        )
        gw = scripted_gateway(transport)
        pseudocode, trace = run_pseudocode_loop(repo(), gw)
        assert pseudocode == "PSEUDOCODE v1"
        assert all(t["round"] == 1 for t in trace)
        assert [t["op"] for t in trace] == [
            "get_source_code", "get_source_code", "get_source_code", "create", "finish",
        ]

    def test_at_most_one_finish_always_last(self):
        transport = planner_transport(
            plan(
                {"op": "get_source_code", "path": "main.py"},
                {"op": "get_source_code", "path": "core/algo.py"},
                {"op": "get_source_code", "path": "util/io.py"},
                {"op": "create"},
                {"op": "finish"},
                {"op": "review"},  # discarded: after finish
            ),
        )
        gw = scripted_gateway(transport)
        _, trace = run_pseudocode_loop(repo(), gw)
        ops = [t["op"] for t in trace]
        assert ops.count("finish") == 1
        assert ops[-1] == "finish"

    def test_empty_repo_rejected(self):
        with pytest.raises(InvalidInputError):
            run_pseudocode_loop(
                RepoSnapshot(paper_id=PaperId("x"), files={}), scripted_gateway()
            )

    def test_memory_compression_keeps_estimate_under_threshold(self):
        state = LoopState(memory=[f"event {i} " + "x" * 400 for i in range(50)])
        assert state.compress_memory(threshold=1000, keep_recent=4) is True
        from litsurvey.tokens import estimate_tokens

        assert estimate_tokens("\n".join(state.memory)) <= 1000
        assert state.memory[-1] == "event 49 " + "x" * 400  # recent kept verbatim
        assert state.memory[0].startswith("[compressed:")


class TestRepoSnapshot:
    def test_traversal_paths_rejected(self):
        with pytest.raises(InvalidInputError):
            RepoSnapshot(paper_id=PaperId("x"), files={"../evil.py": "x"})

    def test_config_files_detected(self):
        snapshot = repo()
        assert set(snapshot.config_files) == {"requirements.txt", "README.md"}

    def test_from_directory(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "a.py").write_text("code")
        (tmp_path / "README.md").write_text("readme")
        snapshot = RepoSnapshot.from_directory(PaperId("x"), tmp_path)
        assert set(snapshot.files) == {"src/a.py", "README.md"}


class TestReview:
    def test_score_bounds_enforced(self):
        with pytest.raises(ValueError):
            PseudocodeReview(conciseness=11, logical_structure=5, implementation_specificity=5)


class TestBatchReports:
    def _pseudocodes(self, n):
        return [(f"24{i:02d}.0000{i}", f"pseudocode {i}") for i in range(n)]

    def test_five_inputs_one_batch_plus_integration(self):
        transport = (
            ScriptedTransport()
            .add("Analyze this pseudocode batch", "batch report <2400.00000>")
            .add("Integrate these code-analysis reports", "integrated <2400.00000>")
        )
        gw = scripted_gateway(transport)
        report = batch_code_report(self._pseudocodes(5), "topic", gw)
        assert report == "integrated <2400.00000>"
        assert len(transport.calls_matching("Analyze this pseudocode batch")) == 1
        assert len(transport.calls_matching("Integrate these")) == 1

    def test_twelve_inputs_three_batches(self):
        transport = (
            ScriptedTransport()
            .add("Analyze this pseudocode batch", "batch report")
            .add("Integrate these code-analysis reports", "integrated")
        )
        gw = scripted_gateway(transport)
        batch_code_report(self._pseudocodes(12), "topic", gw)
        assert len(transport.calls_matching("Analyze this pseudocode batch")) == 3
        assert len(transport.calls_matching("Integrate these")) == 1

    def test_single_input_still_batches_and_integrates(self):
        transport = (
            ScriptedTransport()
            .add("Analyze this pseudocode batch", "batch report")
            .add("Integrate these code-analysis reports", "integrated")
        )
        gw = scripted_gateway(transport)
        batch_code_report(self._pseudocodes(1), "topic", gw)
        assert len(transport.calls_matching("Analyze this pseudocode batch")) == 1
        assert len(transport.calls_matching("Integrate these")) == 1

    def test_batch_call_arithmetic(self):
        assert expected_batch_calls(5) == 1
        assert expected_batch_calls(12) == 3
        assert expected_batch_calls(1) == 1
        assert expected_batch_calls(11) == 3

    def test_pairwise_fallback_when_integration_exceeds_window(self):
        profile = BackendProfile(context_window=300)
        transport = (
            ScriptedTransport()
            .add("Analyze this pseudocode batch", "B" * 500)
            .add("Integrate these code-analysis reports", "merged")
        )
        gw = scripted_gateway(transport, profile=profile)
        runlog = RunLog()
        report = batch_code_report(self._pseudocodes(15), "topic", gw, runlog=runlog)
        assert report == "merged"
        assert runlog.of_kind("pairwise_merge_fallback")

    def test_unknown_attribution_stripped_with_monitor_event(self):
        transport = (
            ScriptedTransport()
            .add("Analyze this pseudocode batch", "batch")
            .add("Integrate these code-analysis reports", "claims <9999.99999> here")
        )
        gw = scripted_gateway(transport)
        runlog = RunLog()
        report = batch_code_report(self._pseudocodes(2), "topic", gw, runlog=runlog)
        assert "<9999.99999>" not in report
        assert runlog.attribution_events()

    def test_unknown_mark_with_inner_spaces_is_stripped(self):
        transport = (
            ScriptedTransport()
            .add("Analyze this pseudocode batch", "batch")
            .add("Integrate these code-analysis reports", "claims < ghost > and <2400.00000>")
        )
        runlog = RunLog()
        report = batch_code_report(
            self._pseudocodes(2), "topic", scripted_gateway(transport), runlog=runlog
        )
        assert report == "claims  and <2400.00000>"
        assert [e["offending"] for e in runlog.attribution_events()] == ["ghost"]

    def test_empty_input_invalid(self):
        with pytest.raises(InvalidInputError):
            batch_code_report([], "topic", scripted_gateway())


class TestEnvironmentReport:
    def test_config_files_reach_the_prompt(self):
        transport = ScriptedTransport().add("configuration files below", "env report")
        gw = scripted_gateway(transport)
        report = environment_report([repo()], gw)
        assert report == "env report"
        prompt = transport.calls[-1].prompt
        assert "requirements.txt" in prompt
        assert "README.md" in prompt
        assert "numpy==1.26" in prompt

    def test_an_empty_reply_is_retried(self):
        transport = ScriptedTransport().add("configuration files below", "", "env report")
        assert environment_report([repo()], scripted_gateway(transport)) == "env report"
        assert len(transport.calls) == 2
        assert "reply is empty" in transport.calls[1].prompt

    def test_repo_without_config_gets_placeholder(self):
        bare = RepoSnapshot(paper_id=PaperId("bare"), files={"main.py": "x"})
        transport = ScriptedTransport().add("configuration files below", "env report")
        gw = scripted_gateway(transport)
        environment_report([bare], gw)
        assert "no configuration found" in transport.calls[-1].prompt

    def test_sectioned_report_shape(self):
        body = "# Framework Guide\n\n## Framework Selection Analysis\n\ndetails"
        transport = ScriptedTransport().add("configuration files below", body)
        gw = scripted_gateway(transport)
        report = environment_report([repo()], gw)
        assert "Framework Selection Analysis" in report
